import csv
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mmwsim import runner
from mmwsim.allocation import AllocMode, allocate, build_candidates
from mmwsim.beamsweep import combined_rows
from mmwsim.channel import assemble_channel
from mmwsim.cli import main
from mmwsim.codebook import default_full_codebook, estimation_grid
from mmwsim.csi import quantize_paths
from mmwsim.metrics import column_powers
from mmwsim.runner import (RECORD_FIELDS, desk_scale_config, emit,
                           prepare_realization, run_campaign, run_realization)
from mmwsim.scenario import NetworkConfig

ROOT = Path(__file__).resolve().parents[1]


def _small_cfg(**overrides):
    base = dict(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2,
                n_realizations=2, seed=7)
    base.update(overrides)
    return NetworkConfig(**base)


def test_desk_scale_config_profile():
    cfg = desk_scale_config()
    assert cfg.area_side_m == 250.0
    assert cfg.n_t == 64 and cfg.n_r == 16
    assert cfg.n_realizations == 20
    cfg2 = desk_scale_config(n_realizations=3, seed=99)
    assert cfg2.n_realizations == 3 and cfg2.seed == 99


def test_run_realization_reports_every_deployed_ue():
    cfg = _small_cfg()
    ctx = prepare_realization(cfg, 0)
    res = run_realization(ctx, AllocMode.FIVEG_NR, cfg, 0)
    assert len(res.reports) == ctx.dep.n_ues
    assert sorted(r.ue for r in res.reports) == list(range(ctx.dep.n_ues))
    served = {u for u, r in ((r.ue, r) for r in res.reports) if r.served}
    assert served == set(res.allocation.serving)


def test_campaign_pairs_realizations_across_modes():
    cfg = _small_cfg()
    res = run_campaign(cfg, [AllocMode.FIVEG_NR, AllocMode.DIABA])
    assert len(res.results) == 2 * cfg.n_realizations
    # paired: both modes see the same deployment, hence the same UE count
    by_real = {}
    for rr in res.results:
        by_real.setdefault(rr.realization, set()).add(len(rr.reports))
    for sizes in by_real.values():
        assert len(sizes) == 1


def test_run_campaign_accepts_mode_strings():
    cfg = _small_cfg(n_realizations=1)
    res = run_campaign(cfg, ["5gnr"])
    assert res.results[0].mode is AllocMode.FIVEG_NR


def test_emit_files_and_schema(tmp_path):
    cfg = _small_cfg(n_realizations=1)
    res = run_campaign(cfg, [AllocMode.FIVEG_NR])
    paths = emit(res, str(tmp_path))
    with open(paths["records"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RECORD_FIELDS
    assert len(rows) - 1 == len(res.results[0].reports)
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["schema_version"] == 1
    assert summary["config"]["n_csi_rs"] == "inf"
    assert "5gnr" in summary["modes"]
    with open(paths["timings"]) as fh:
        timings = json.load(fh)
    assert timings["seconds_per_mode"]["5gnr"] >= 0.0


def test_emit_byte_identical_across_same_seed_runs(tmp_path):
    cfg = _small_cfg()
    out = {}
    for tag in ("a", "b"):
        res = run_campaign(cfg, [AllocMode.FIVEG_NR, AllocMode.CIABA])
        paths = emit(res, str(tmp_path / tag))
        out[tag] = {k: open(v, "rb").read() for k, v in paths.items()
                    if k != "timings"}
    assert out["a"]["records"] == out["b"]["records"]
    assert out["a"]["summary"] == out["b"]["summary"]


def test_simulate_outputs_do_not_depend_on_the_process(tmp_path):
    # str hashes, and so set order, change with PYTHONHASHSEED: two fresh
    # processes must still write the same bytes
    out = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "mmwsim.cli", "simulate", "--config",
             str(ROOT / "configs" / "tiny.yaml"), "--realizations", "20",
             "--alloc", "5gnr,diaba,ciaba,dbf,cbf-tdma",
             "--out", str(tmp_path / hash_seed)],
            env=env, check=True, capture_output=True, timeout=60)
        out[hash_seed] = {name: (tmp_path / hash_seed / name).read_bytes()
                          for name in ("records.csv", "summary.json")}
    assert out["0"] == out["1"]


def test_emit_handles_dropped_ues_in_summary(tmp_path):
    # a deployment with no detectable links yields -inf medians; the summary
    # must still serialize
    cfg = _small_cfg(n_realizations=1, detection_floor_db=200.0)
    res = run_campaign(cfg, [AllocMode.FIVEG_NR])
    paths = emit(res, str(tmp_path))
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["modes"]["5gnr"]["median_sinr_db"] == "-inf"


def test_mode_summary_merges_rank_histograms():
    cfg = _small_cfg()
    res = run_campaign(cfg, [AllocMode.CIABA])
    merged = res.mode_summary(AllocMode.CIABA)["bpl_rank_histogram"]
    total = sum(merged.values())
    per_real = sum(sum(rr.summary["bpl_rank_histogram"].values())
                   for rr in res.per_mode(AllocMode.CIABA))
    assert total == per_real


def _write_cfg(tmp_path, **fields):
    body = dict(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2,
                n_realizations=1, seed=3)
    body.update(fields)
    p = tmp_path / "cfg.yaml"
    p.write_text("\n".join(f"{k}: {v}" for k, v in body.items()) + "\n")
    return str(p)


def test_cli_simulate_success(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", cfg_path, "--alloc", "5gnr",
               "--out", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "5gnr: coverage=" in captured
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_cli_simulate_override_and_realizations(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", cfg_path, "--alloc", "5gnr",
               "--out", str(out_dir), "--realizations", "2",
               "--override", "seed=11"])
    assert rc == 0
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["config"]["seed"] == 11
    assert summary["config"]["n_realizations"] == 2


def test_cli_unknown_mode_is_config_error(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path,
                 "--alloc", "nonsense"]) == 1


def test_cli_bad_config_file_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 1


@pytest.mark.parametrize("override", [
    "n_t=-4", "n_t=abc", "area_side_m=abc", "n_t=inf", "seed=1e30",
    "n_t=[1,2]", "area_side_m=nan", "ue_density=nan", "n_q_csi_bits=nan",
    "n_csi_rs=-inf", "area_side_m=.inf", "seed=-1", "area_side_m=10",
    # a traceback from numpy or a division, or a run with no meaning
    "d_blockage_m=0", "d_blockage_m=-5", "n_scatterers=-1",
    "scatterer_height_max_m=-1", "alpha_loss=-1", "r_max_bps=0",
    # the CSI-RS count and the estimation codebook size are whole numbers
    "n_csi_rs=2.5", "n_q_csi_bits=2.5"])
def test_cli_bad_override_is_config_error(tmp_path, capsys, override):
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "out"), "--override", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_cli_missing_trace_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "out"), "--override",
                 f"trace_file={missing}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert str(missing) in err
    assert "Traceback" not in err


def test_cli_undecodable_trace_file_is_simulation_error(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(np.random.default_rng(0).bytes(3000))
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out",
                 str(tmp_path / "out"), "--override",
                 f"trace_file={trace}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulation error:")
    assert "Traceback" not in err


def test_cli_oracle_check(tmp_path, capsys):
    # tiny scenario inside the exhaustive-search guard rails
    cfg_path = _write_cfg(tmp_path, area_side_m=150.0, ue_density=200.0,
                          n_csi_rs=3)
    rc = main(["oracle-check", "--config", cfg_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle" in out


def test_trace_file_round_trip(tmp_path):
    # synthesize one realization, dump its paths, and reload them via the
    # trace ingest: the sweep outcome must be identical
    cfg = _small_cfg(n_realizations=1)
    ctx = prepare_realization(cfg, 0)
    from mmwsim.runner import _pair_paths
    from mmwsim.scenario import generate_deployment
    dep = generate_deployment(cfg, 0)
    paths = _pair_paths(cfg, dep)
    trace = tmp_path / "trace.csv"
    with open(trace, "w") as fh:
        fh.write("gnb_id,ue_id,gain_re,gain_im,aod_az,aod_el,"
                 "aoa_az,aoa_el,bounces,length_m\n")
        for (g, u), plist in paths.items():
            for gain, aod_az, aod_el, aoa_az, aoa_el, bounces, length in zip(
                    plist.gain.tolist(), plist.aod_az_deg.tolist(),
                    plist.aod_el_deg.tolist(), plist.aoa_az_deg.tolist(),
                    plist.aoa_el_deg.tolist(), plist.bounces.tolist(),
                    plist.length_m.tolist()):
                fh.write(f"{g},{u},{gain.real!r},{gain.imag!r},"
                         f"{aod_az!r},{aod_el!r},{aoa_az!r},{aoa_el!r},"
                         f"{bounces},{length!r}\n")
    cfg2 = _small_cfg(n_realizations=1, trace_file=str(trace))
    ctx2 = prepare_realization(cfg2, 0)
    assert ctx.inputs.sweeps == ctx2.inputs.sweeps


def _spy_sweep(monkeypatch):
    """Replace runner.sweep by a recording wrapper; ue -> the gNB -> rows
    dict it read."""
    swept = {}
    sweep = runner.sweep

    def spy(ue, bounces, rows, *args, **kwargs):
        swept[ue] = rows
        return sweep(ue, bounces, rows, *args, **kwargs)

    monkeypatch.setattr(runner, "sweep", spy)
    return swept


def test_sweep_rsrp_is_read_from_the_allocators_rows(monkeypatch):
    # the sweep and the allocators share one row matrix R = W_ue^H H per
    # pair: every swept RSRP is p_max |R W_gnb|^2 at (ue_beam, gnb_beam), bit
    # for bit.  (Per-entry scalar arithmetic sums or squares in another
    # order than the array kernels and may differ in the last bit.)  The
    # sweep reads R at every UE beam; the allocators keep its rows at the
    # UE's read beams.
    cfg = desk_scale_config(n_realizations=1)
    swept = _spy_sweep(monkeypatch)
    inputs = prepare_realization(cfg, 0).inputs
    n_bpls = 0
    for ue, bpls in inputs.sweeps.items():
        for g, full in swept[ue].items():
            kept = inputs.true_rows[(ue, g)]
            assert np.array_equal(kept.matrix, full[list(kept.index)])
        tables = {}
        for b in bpls:
            if b.gnb not in tables:
                c = swept[ue][b.gnb] @ inputs.gnb_book.matrix
                tables[b.gnb] = cfg.p_max_w * (c.real ** 2 + c.imag ** 2)
            assert tables[b.gnb][b.ue_beam, b.gnb_beam] == b.rsrp
            n_bpls += 1
    assert n_bpls > 0


def _spy_assemble(monkeypatch):
    """Replace runner.assemble_channel by a recording wrapper; the list of
    channels it returned."""
    built = []

    def spy(*args, **kwargs):
        ch = assemble_channel(*args, **kwargs)
        built.append(ch)
        return ch

    monkeypatch.setattr(runner, "assemble_channel", spy)
    return built


def _eager_estimated_rows(cfg, dep, paths):
    """Reference: estimated rows of every pair, built up front as
    prepare_realization once did.  Quantize, assemble and combine each pair
    with paths; every other pair gets the zero R."""
    grid = estimation_grid(cfg.n_q_csi_bits)
    ue_book = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    est_channels = {}
    for (g, u), plist in paths.items():
        if plist:
            est_channels[(g, u)] = assemble_channel(
                quantize_paths(plist, grid), cfg,
                dep.gnb_panel_orientations[g], dep.ue_panel_orientations[u])
    zero = np.zeros((ue_book.n_beams, 4 * cfg.n_t), dtype=complex)
    return {(u, g): (combined_rows(est_channels[(g, u)], ue_book)
                     if (g, u) in est_channels else zero)
            for u in range(dep.n_ues) for g in range(dep.n_gnbs)}


def test_estimated_rows_on_demand_match_eager_build(monkeypatch):
    # a 60 m blockage distance leaves some desk pairs without paths (52 of
    # 292 in realization 0), so the zero R is compared too
    cfg = desk_scale_config(n_realizations=1, n_q_csi_bits=6, n_csi_rs=4,
                            d_blockage_m=60.0)
    built = _spy_assemble(monkeypatch)
    ctx = prepare_realization(cfg, 0)
    dep, inputs = ctx.dep, ctx.inputs
    paths = runner._pair_paths(cfg, dep)
    n_pairs = dep.n_gnbs * dep.n_ues
    with_paths = sum(1 for plist in paths.values() if plist)
    assert 0 < with_paths < n_pairs
    # one assembly per pair, with or without paths, for its true rows only
    assert len(built) == n_pairs
    assert inputs.est_rows is not inputs.true_rows
    assert len(inputs.est_rows) == 0

    # the oracle's guard rails refuse a desk realization
    for mode in AllocMode:
        if mode is not AllocMode.ORACLE:
            run_realization(ctx, mode, cfg, 0)
    assert 0 < len(inputs.est_rows) < n_pairs

    expected = _eager_estimated_rows(cfg, dep, paths)
    assert any(not np.any(r) for r in expected.values())
    for key, ref in expected.items():
        kept = inputs.est_rows[key]
        assert np.array_equal(kept.matrix, ref[list(kept.index)]), key
    assert len(inputs.est_rows) == n_pairs
    with pytest.raises(KeyError):
        inputs.est_rows[(dep.n_ues, 0)]


@pytest.mark.parametrize("n_q_csi_bits", [math.inf, 6])
def test_prepare_keeps_no_channel_blocks(monkeypatch, n_q_csi_bits):
    cfg = _small_cfg(n_realizations=1, n_q_csi_bits=n_q_csi_bits, n_csi_rs=4)
    built = _spy_assemble(monkeypatch)
    ctx = prepare_realization(cfg, 0)
    refs = [weakref.ref(ch) for ch in built]
    del built[:]
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert (ctx.inputs.est_rows is ctx.inputs.true_rows) == math.isinf(
        n_q_csi_bits)

    # estimated rows built on read keep no channel either
    run_realization(ctx, AllocMode.CIABA, cfg, 0)
    refs = [weakref.ref(ch) for ch in built]
    del built[:]
    gc.collect()
    assert all(r() is None for r in refs)
    assert bool(refs) == (not math.isinf(n_q_csi_bits))


def _full_true_rows(cfg, dep, paths, ue_book, g, u):
    """Reference: one pair's true rows at every UE beam, as prepare_realization
    once kept them; all zeros when the pair has no paths."""
    plist = paths[(g, u)]
    if not plist:
        return np.zeros((ue_book.n_beams, 4 * cfg.n_t), dtype=complex)
    return combined_rows(
        assemble_channel(plist, cfg, dep.gnb_panel_orientations[g],
                         dep.ue_panel_orientations[u]), ue_book)


@pytest.mark.parametrize("n_csi_rs", [4, math.inf])
def test_pairs_keep_rows_only_at_their_read_beams(n_csi_rs):
    # a 60 m blockage distance leaves some desk pairs without paths
    cfg = desk_scale_config(n_realizations=1, n_q_csi_bits=6,
                            n_csi_rs=n_csi_rs, d_blockage_m=60.0)
    ctx = prepare_realization(cfg, 0)
    dep, inputs = ctx.dep, ctx.inputs
    # a read outside the kept beams raises, so every mode reads inside them
    # (the oracle's guard rails refuse a desk realization)
    for mode in AllocMode:
        if mode is not AllocMode.ORACLE:
            run_realization(ctx, mode, cfg, 0)

    ue_book = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    paths = runner._pair_paths(cfg, dep)
    assert any(not plist for plist in paths.values())
    est_ref = _eager_estimated_rows(cfg, dep, paths)
    sizes = []
    for u in range(dep.n_ues):
        # the receive beams of the UE's dIABA and cIABA candidates, at
        # least two
        want = {b.ue_beam for mode in (AllocMode.DIABA, AllocMode.CIABA)
                for b in build_candidates(inputs, u, mode).bpls}
        if len(want) < 2:
            want |= {0, 1}
        sizes.append(len(want))
        outside = min(set(range(ue_book.n_beams)) - want)
        for g in range(dep.n_gnbs):
            true, est = inputs.true_rows[(u, g)], inputs.est_rows[(u, g)]
            beams = list(true.index)
            assert beams == sorted(want)
            assert list(est.index) == beams
            full = _full_true_rows(cfg, dep, paths, ue_book, g, u)
            assert np.array_equal(true.matrix, full[beams]), (u, g)
            assert np.array_equal(est.matrix, est_ref[(u, g)][beams]), (u, g)
            for rows in (true, est):
                with pytest.raises(KeyError):
                    rows[outside]
    # no pair keeps its rows at every UE beam
    assert max(sizes) < ue_book.n_beams
    if math.isfinite(n_csi_rs):
        assert max(sizes) <= 2 * n_csi_rs


def test_kept_row_products_have_the_bits_of_full_products(monkeypatch):
    # the allocators multiply a pair's kept rows R[S] where they once
    # multiplied its full R; outputs stay byte-identical because each row of
    # a BLAS product over two or more rows has the same bits whichever other
    # rows are in it.  If a BLAS update breaks that, this test says why the
    # fingerprints moved.
    cfg = desk_scale_config(n_realizations=1)
    swept = _spy_sweep(monkeypatch)
    inputs = prepare_realization(cfg, 0).inputs
    states = allocate(inputs, AllocMode.FIVEG_NR).states
    precoders = [(g, s.w_combined) for g, s in sorted(states.items())]
    # and a gNB serving one UE
    precoders.append((precoders[0][0], precoders[0][1][:, :1]))
    assert len({w.shape[1] for _, w in precoders}) > 2
    n_beams = 4 * 2 ** cfg.n_q_sweep_bits
    rng = np.random.default_rng(0)
    for g, w in precoders:
        for u in range(0, inputs.n_ues, 7):
            full = swept[u][g]
            ref = column_powers(full, w)
            for size in (2, 3, 5, 8, 29, 43, n_beams - 1):
                beams = np.sort(rng.choice(n_beams, size, replace=False))
                assert np.array_equal(column_powers(full[beams], w),
                                      ref[beams]), (g, u, size)


def test_campaign_frees_each_realization_before_the_next(monkeypatch):
    prepare = runner.prepare_realization
    prepared = []

    def watched(cfg, realization):
        assert all(ref() is None for ref in prepared)
        ctx = prepare(cfg, realization)
        prepared.append(weakref.ref(ctx.inputs))
        return ctx

    monkeypatch.setattr(runner, "prepare_realization", watched)
    cfg = _small_cfg(n_realizations=3, n_q_csi_bits=6, n_csi_rs=4)
    run_campaign(cfg, [m for m in AllocMode if m is not AllocMode.ORACLE])
    assert len(prepared) == 3
