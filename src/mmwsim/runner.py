"""Monte Carlo campaign driver: deploy, sweep, allocate, report, emit."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .allocation import (Allocation, AllocationInputs, AllocMode, allocate,
                         allocate_cbf_tdma, candidate_ranks, read_beams)
from .beamsweep import combined_rows, sweep
from .channel import (Paths, assemble_channel, ingest_paths, pair_rng,
                      synthesize_paths)
from .codebook import default_full_codebook, estimation_grid
from .csi import quantize_paths
from .metrics import BeamRows, network_report, summarize
from .scenario import Deployment, NetworkConfig, generate_deployment

SCHEMA_VERSION = 1

RECORD_FIELDS = ["realization", "mode", "ue", "served", "gnb", "gnb_beam",
                 "ue_beam", "alloc_rank", "is_los", "is_handover", "rss_w",
                 "i_intra_w", "i_inter_w", "noise_w", "sinr_db", "inr_db",
                 "snr_db", "rate_bps"]


@dataclass
class RealizationResult:
    realization: int
    mode: AllocMode
    allocation: Allocation
    reports: list
    summary: dict


@dataclass
class CampaignResult:
    cfg: NetworkConfig
    modes: list
    results: list = field(default_factory=list)   # RealizationResult
    timings_s: dict = field(default_factory=dict)  # mode value -> total seconds

    def per_mode(self, mode) -> list:
        mode = AllocMode(mode) if isinstance(mode, str) else mode
        return [r for r in self.results if r.mode is mode]

    def mode_summary(self, mode: AllocMode) -> dict:
        """Averages of the per-realization aggregates for one mode."""
        rows = [r.summary for r in self.per_mode(mode)]
        if not rows:
            return {}
        out: dict = {"n_realizations": len(rows)}
        for key in rows[0]:
            vals = [r[key] for r in rows]
            if key == "bpl_rank_histogram":
                merged: dict[str, int] = {}
                for h in vals:
                    for k, v in h.items():
                        merged[k] = merged.get(k, 0) + v
                out[key] = {k: merged[k] for k in sorted(merged, key=int)}
            elif all(v is None for v in vals):
                out[key] = None
            else:
                nums = [v for v in vals if v is not None]
                out[key] = float(np.mean(nums))
        return out


def _pair_paths(cfg: NetworkConfig, dep: Deployment) -> dict:
    """(gnb, ue) -> Paths, from the trace file or the synthetic generator."""
    if cfg.trace_file:
        return ingest_paths(cfg.trace_file, n_gnbs=dep.n_gnbs, n_ues=dep.n_ues)
    out = {}
    for g in range(dep.n_gnbs):
        for u in range(dep.n_ues):
            rng = pair_rng(cfg, dep.realization_id, g, u)
            out[(g, u)] = synthesize_paths(dep, g, u, rng, cfg)
    return out


@dataclass
class RealizationContext:
    """Everything shared by the allocation modes within one realization."""

    dep: Deployment
    inputs: AllocationInputs


class LazyRows(dict):
    """(ue, gnb) -> BeamRows, where a pair missing on read is built by
    ``build(ue, gnb)`` and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        rows = self[key] = self.build(*key)
        return rows


def build_inputs(cfg: NetworkConfig, n_gnbs: int, n_ues: int, paths: dict,
                 gnb_orientations, ue_orientations) -> AllocationInputs:
    """Codebooks, row matrices and beam sweeps from (gnb, ue) -> Paths.

    Each pair's channel is assembled, reduced to its rows R = W_ue^H H and
    dominant-bounce table, and dropped.  A pair missing from ``paths`` has
    no paths; its blocks are zero, so its R is all-zero and it adds no
    swept BPL.  Right after a UE's sweep its monitored BPLs are decided
    (``candidate_ranks``), and each of its pairs keeps R only at the UE's
    ``read_beams``, the receive beams of those BPLs.  Under quantized CSI a
    UE reports estimates only for the gNBs of the BPLs it monitors: a
    pair's estimated rows are built from its quantized paths on first read
    and kept at the same beams.  Each value depends on its pair's paths
    alone, so the order of reads moves no bit.
    """
    # codebooks do not depend on panel orientation: one book per node type
    gnb_book = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ue_book = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    no_paths = Paths.from_rows([])

    # assemble_channel and quantize_paths are looked up in this module at
    # call time, so the layer timers of perfbench/tracing.py see every call
    def channel(plist, g, u):
        return assemble_channel(plist, cfg, gnb_orientations[g],
                                ue_orientations[u])

    true_rows, sweeps, monitored, beams_of = {}, {}, {}, {}
    for u in range(n_ues):
        bounces, rows = {}, {}
        for g in range(n_gnbs):
            ch = channel(paths.get((g, u), no_paths), g, u)
            rows[g] = combined_rows(ch, ue_book)
            bounces[g] = ch.block_dominant_bounces
        sweeps[u] = sweep(u, bounces, rows, gnb_book, ue_book, cfg.p_max_w,
                          cfg.noise_w, cfg.detection_floor_db)
        monitored[u] = candidate_ranks(sweeps[u], cfg.n_csi_rs)
        beams = beams_of[u] = read_beams(sweeps[u], monitored[u])
        index = {b: i for i, b in enumerate(beams.tolist())}
        for g in range(n_gnbs):
            true_rows[(u, g)] = BeamRows(rows[g][beams], index)

    grid = estimation_grid(cfg.n_q_csi_bits)
    if grid.is_exact:
        est_rows = true_rows
    else:
        def estimate(u, g):
            index = true_rows[(u, g)].index   # KeyError for an unknown pair
            plist = quantize_paths(paths.get((g, u), no_paths), grid)
            est = combined_rows(channel(plist, g, u), ue_book)
            return BeamRows(est[beams_of[u]], index)
        est_rows = LazyRows(estimate)
    return AllocationInputs(cfg=cfg, n_gnbs=n_gnbs, n_ues=n_ues,
                            sweeps=sweeps, monitored=monitored,
                            true_rows=true_rows, est_rows=est_rows,
                            gnb_book=gnb_book)


def prepare_realization(cfg: NetworkConfig, realization: int) -> RealizationContext:
    """Deploy, synthesize paths, build the true rows and run the beam sweep."""
    dep = generate_deployment(cfg, realization)
    inputs = build_inputs(cfg, dep.n_gnbs, dep.n_ues, _pair_paths(cfg, dep),
                          dep.gnb_panel_orientations,
                          dep.ue_panel_orientations)
    return RealizationContext(dep=dep, inputs=inputs)


def run_realization(ctx: RealizationContext, mode: AllocMode,
                    cfg: NetworkConfig, realization: int) -> RealizationResult:
    """Allocate with one mode and evaluate the resulting link reports."""
    if mode is AllocMode.CBF_TDMA:
        alloc, reports = allocate_cbf_tdma(ctx.inputs)
        summary = summarize(reports, cfg)
    else:
        alloc = allocate(ctx.inputs, mode)
        reports, summary = network_report(
            alloc.serving, alloc.states, ctx.inputs.true_rows, cfg,
            ctx.dep.n_ues, ctx.inputs.initial_gnbs)
    return RealizationResult(realization=realization, mode=mode,
                             allocation=alloc, reports=reports,
                             summary=summary)


def run_campaign(cfg: NetworkConfig, modes: list,
                 n_realizations: Optional[int] = None) -> CampaignResult:
    """Run every mode over paired realizations (shared channels and sweeps)."""
    cfg.validate()
    modes = [AllocMode(m) if isinstance(m, str) else m for m in modes]
    n_real = cfg.n_realizations if n_realizations is None else n_realizations
    result = CampaignResult(cfg=cfg, modes=list(modes))
    timings = {m.value: 0.0 for m in modes}
    for r in range(n_real):
        ctx = prepare_realization(cfg, r)
        for mode in modes:
            t0 = time.perf_counter()
            result.results.append(run_realization(ctx, mode, cfg, r))
            timings[mode.value] += time.perf_counter() - t0
        # free this realization's rows before the next one is prepared
        del ctx
    result.timings_s = timings
    return result


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "-inf" if value < 0 else "inf"
        return format(value, ".12g")
    return str(value)


def emit(result: CampaignResult, out_dir: str) -> dict:
    """Write records.csv, summary.json and timings.json; returns the paths.

    Records and summary are byte-identical across same-seed runs; wall-clock
    timings live in their own file so they never perturb that guarantee.
    """
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.csv")
    with open(records_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        ordered = sorted(result.results,
                         key=lambda rr: (rr.realization, rr.mode.value))
        for rr in ordered:
            for rep in rr.reports:
                writer.writerow([
                    rr.realization, rr.mode.value, rep.ue,
                    _fmt(rep.served), rep.gnb, rep.gnb_beam, rep.ue_beam,
                    rep.alloc_rank, _fmt(rep.is_los), _fmt(rep.is_handover),
                    _fmt(rep.rss_w), _fmt(rep.i_intra_w), _fmt(rep.i_inter_w),
                    _fmt(rep.noise_w), _fmt(rep.sinr_db), _fmt(rep.inr_db),
                    _fmt(rep.snr_db), _fmt(rep.rate_bps)])

    cfg_dump = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
                for k, v in asdict(result.cfg).items()}

    def _jsonable(value):
        if isinstance(value, float) and not math.isfinite(value):
            return _fmt(value)
        if isinstance(value, dict):
            return {k: _jsonable(v) for k, v in value.items()}
        return value

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg_dump,
        "modes": {m.value: _jsonable(result.mode_summary(m))
                  for m in result.modes},
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False,
                  default=str)
        fh.write("\n")

    timings_path = os.path.join(out_dir, "timings.json")
    with open(timings_path, "w") as fh:
        json.dump({"seconds_per_mode": result.timings_s}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return {"records": records_path, "summary": summary_path,
            "timings": timings_path}


def desk_scale_config(**overrides) -> NetworkConfig:
    """Reduced geometry (4 gNBs, ~62 UEs, 64-element panels) for fast runs."""
    base = dict(area_side_m=250.0, n_t=64, n_r=16, n_realizations=20)
    base.update(overrides)
    return NetworkConfig(**base).validate()
