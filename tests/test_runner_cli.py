import csv
import json
import math

import pytest

from mmwsim.allocation import AllocMode
from mmwsim.cli import main
from mmwsim.runner import (RECORD_FIELDS, desk_scale_config, emit,
                           prepare_realization, run_campaign, run_realization)
from mmwsim.scenario import NetworkConfig


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


def test_cli_bad_override_is_config_error(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path,
                 "--override", "n_t=-4"]) == 1


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
            for p in plist:
                fh.write(f"{g},{u},{p.gain.real!r},{p.gain.imag!r},"
                         f"{p.aod_az_deg!r},{p.aod_el_deg!r},"
                         f"{p.aoa_az_deg!r},{p.aoa_el_deg!r},"
                         f"{p.bounces},{p.path_length_m!r}\n")
    cfg2 = _small_cfg(n_realizations=1, trace_file=str(trace))
    ctx2 = prepare_realization(cfg2, 0)
    assert ctx.inputs.sweeps == ctx2.inputs.sweeps


def test_sweep_rsrp_is_read_from_the_allocators_rows():
    # the sweep and the allocators share one row matrix R = W_ue^H H per
    # pair: every swept RSRP is p_max |R W_gnb|^2 at (ue_beam, gnb_beam), bit
    # for bit.  (Per-entry scalar arithmetic sums or squares in another
    # order than the array kernels and may differ in the last bit.)
    cfg = desk_scale_config(n_realizations=1)
    inputs = prepare_realization(cfg, 0).inputs
    n_bpls = 0
    for ue, bpls in inputs.sweeps.items():
        tables = {}
        for b in bpls:
            if b.gnb not in tables:
                c = inputs.true_rows[(ue, b.gnb)] @ inputs.gnb_book.matrix
                tables[b.gnb] = cfg.p_max_w * (c.real ** 2 + c.imag ** 2)
            assert tables[b.gnb][b.ue_beam, b.gnb_beam] == b.rsrp
            n_bpls += 1
    assert n_bpls > 0
