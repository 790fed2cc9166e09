"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

1. Runs every workload for one realization through ``run.py``, untraced
   and traced, and checks that each metric named in ``BENCHMARK.json`` is
   reported with its unit.
2. Checks that every output check passes on a real allocation and fires
   on a deliberately corrupted copy of it or of its link reports.
3. Checks that ``run.py`` fails without printing a result when the
   simulator sources are missing.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench_run(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE, timeout=170,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_metrics_reported() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the defined workloads")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = bench_run("--workload", name, "--seed", "1",
                                  "--seconds", "0", "--realizations", "1",
                                  "--trace", str(trace))
            if rc != 0 or not lines:
                expect(False, f"{name} trace={trace} runs")
                continue
            out = json.loads(lines[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}
                   and out["attempted"] >= 1,
                   f"{name} trace={trace} result keys")
            got = out["metrics"]
            missing = [m["name"] for m in spec[key]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(got) - {m["name"] for m in spec[key]})
            expect(not missing and not extra,
                   f"{name} trace={trace} reports every {key} metric with "
                   f"its unit (missing {missing}, extra {extra})")


def _tiny_realization():
    """Results of every mode on the first tiny realization with 2-6 UEs."""
    from mmwsim import runner
    from mmwsim.allocation import AllocMode
    wl = WORKLOADS["tiny-oracle"]
    cfg = wl.config(str(ROOT), 1)
    for r in range(100):
        ctx = runner.prepare_realization(cfg, r)
        if 2 <= ctx.dep.n_ues <= 6:
            return cfg, {m: runner.run_realization(ctx, AllocMode(m), cfg, r)
                         for m in wl.modes}
    raise RuntimeError("no tiny realization with 2-6 UEs")


def _kinds(results, cfg) -> set:
    return {f["kind"] for f in checks.check_results(results, cfg, True)}


def check_output_checks() -> None:
    cfg, by_mode = _tiny_realization()
    expect(not _kinds(list(by_mode.values()), cfg),
           "output checks pass on an unmodified realization")

    def corrupted(mode: str, edit, kind: str) -> None:
        bad = dict(by_mode)
        bad[mode] = copy.deepcopy(by_mode[mode])
        edit(bad[mode])
        expect(kind in _kinds(list(bad.values()), cfg),
               f"'{kind}' check fires on a corrupted {mode} result")

    def low_sinr(rr):
        i = next(i for i, rep in enumerate(rr.reports) if rep.served)
        rr.reports[i] = dataclasses.replace(
            rr.reports[i], sinr_db=cfg.sinr_min_db - 0.5)

    def over_panel(rr):
        alloc = rr.allocation
        ue = next(iter(alloc.serving))
        bpl = alloc.serving[ue]
        for k in range(cfg.n_rf_gnb_sec):
            fake = 1000 + k
            alloc.serving[fake] = dataclasses.replace(bpl, ue=fake)
            alloc.per_gnb[bpl.gnb].append(fake)

    def served_twice(rr):
        alloc = rr.allocation
        ue = next(iter(alloc.serving))
        alloc.per_gnb.setdefault(alloc.serving[ue].gnb + 1, []).append(ue)

    def wrong_power(rr):
        st = next(iter(rr.allocation.states.values()))
        st.p_per_ue *= 2.0

    def wrong_norm(rr):
        st = next(iter(rr.allocation.states.values()))
        st.w_combined = st.w_combined * 1.01

    def beats_oracle(rr):
        rr.reports[0] = dataclasses.replace(
            rr.reports[0], rate_bps=rr.reports[0].rate_bps + 1e9)

    corrupted("ciaba", low_sinr, "sinr")
    corrupted("5gnr", over_panel, "cap")
    corrupted("diaba", served_twice, "once")
    corrupted("dbf", wrong_power, "power")
    corrupted("ciaba", wrong_norm, "power")
    corrupted("diaba", beats_oracle, "dominance")


def check_fails_without_sources() -> None:
    bare = ROOT / "perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench_run("--workload", "tiny-oracle", "--seconds", "1",
                          cwd=bare)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           "run.py fails without a result when src/ is missing")
    shutil.rmtree(bare)


def main() -> int:
    check_output_checks()
    check_fails_without_sources()
    check_metrics_reported()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
