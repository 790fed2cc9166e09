"""One workload process: set up, run the campaign back to back, check it.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one
thread.  Prints one JSON object as its only line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json_number(x):
    return x if x is None or math.isfinite(x) else str(x)


def select_realizations(cfg, quota: tuple, limit: int = 5000) -> list:
    """First realization ids, in order, that fill ``quota`` per UE count."""
    from mmwsim.scenario import generate_deployment
    need = [[lo, hi, k] for lo, hi, k in quota]
    chosen = []
    for r in range(limit):
        n = generate_deployment(cfg, r).n_ues
        slot = next((q for q in need if q[2] and q[0] <= n
                     and (q[1] is None or n <= q[1])), None)
        if slot is not None:
            slot[2] -= 1
            chosen.append(r)
            if not any(q[2] for q in need):
                return chosen
    raise RuntimeError(f"UE-count quota {quota} not filled in {limit} "
                       "realizations")


def run_pass(cfg, modes: list, ids: list, out_dir: str):
    """The campaign once, as `mmwsim oracle-check` drives it: per
    realization, so a refused operation does not abort the others.

    Returns (CampaignResult, errors, seconds per realization + emit).
    """
    from checks import failure
    from mmwsim import runner
    from mmwsim.errors import GuardRailError, SimError

    result = runner.CampaignResult(cfg=cfg, modes=list(modes))
    errors, times = [], []
    for r in ids:
        t0 = time.perf_counter()
        ctx = runner.prepare_realization(cfg, r)
        for mode in modes:
            try:
                result.results.append(runner.run_realization(ctx, mode, cfg, r))
            except GuardRailError as exc:
                errors.append(failure(r, mode.value, "refused", str(exc)))
            except SimError as exc:
                errors.append(failure(r, mode.value, "error",
                                      f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    runner.emit(result, out_dir)
    times.append(time.perf_counter() - t0)
    return result, errors, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--realizations", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmwsim" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    import mmwsim  # noqa: F401  (set-up covers the package import)
    cfg = wl.config(str(ROOT), args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from mmwsim.allocation import AllocMode
    from mmwsim.scenario import generate_deployment

    import checks
    import tracing

    modes = [AllocMode(m) for m in wl.modes]
    if args.realizations:
        ids = list(range(args.realizations))
    else:
        ids = select_realizations(cfg, wl.ue_quota)
    ue_counts = [generate_deployment(cfg, r).n_ues for r in ids]
    os.makedirs(args.out, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # Passes run back to back until the time is up.  Each realization (and
    # emit) is timed per pass and counts with its median over the passes: on
    # a shared host the same work can run up to 1.8x slower for seconds at a
    # time.
    passes, first, digests, deterministic = [], None, None, True
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_no = len(passes)
        result, errors, times = run_pass(cfg, modes, ids, args.out)
        passes.append(times)
        d = {name: _sha256(os.path.join(args.out, name))
             for name in ("records.csv", "summary.json")}
        if first is None:
            first, digests = (result, errors), d
        deterministic = deterministic and d == digests
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    result, errors = first
    failures = errors + checks.check_results(result.results, cfg,
                                             wl.oracle_dominance)
    failed_ops = len({(f["realization"], f["mode"]) for f in failures})
    ops = len(ids) * len(modes)
    served = {m.value: sum(rep.served for rr in result.per_mode(m)
                           for rep in rr.reports) for m in modes}
    out = {
        "workload": wl.name, "seed": args.seed, "setup_s": setup_s,
        "campaign_s": sum(map(statistics.median, zip(*passes))),
        "pass_s": [sum(p) for p in passes],
        "input": {"realizations": len(ids), "realization_ids": ids,
                  "ues": sum(ue_counts), "modes": len(modes)},
        "digests": digests, "deterministic": deterministic,
        "served": served,
        "modes": {m.value: {k: _json_number(result.mode_summary(m).get(k))
                            for k in ("coverage", "median_sinr_db")}
                  for m in modes},
        "attempted": ops * len(passes),
        "failed": failed_ops * len(passes),
        "failures": failures,
        "correct": deterministic and all(f["kind"] in checks.KNOWN_KINDS
                                         for f in failures),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, cfg, served,
                                              len(passes))
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
