"""mmwsim benchmark: one workload per call, end-to-end or traced per layer.

    python3 perfbench/run.py --workload hotspot-exact --seed 1 --seconds 40 --trace 0

Each workload runs in a fresh worker process with BLAS pinned to one
thread.  A run is a closed loop with one client: the workload's fixed
campaign runs back to back until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: process start to campaign start (interpreter, ``import
  mmwsim``, config load and validation); median of eight fresh processes.
- ``campaign_s``: wall time of the workload's campaign, ``emit`` included;
  each realization counts with its median over the run's passes.  The input size
  (realizations x UEs x modes) is printed beside it.
- ``peak_rss_mib``: peak resident memory of the worker process.
- ``ok_op_share``: 1 - failed_op_share.  One operation is one
  (realization, mode) allocation; it fails when it raises ``SimError`` or
  fails an output check (``checks.py``).  ``failed_op_share`` itself is zero
  on most workloads, so the gated form is its complement.

``--trace 1`` splits the time between the campaign untraced and traced,
and reports the per-layer metrics of ``tracing.py`` plus the tracing
overhead.

The last line of standard output is the JSON result; the full record
(environment, failures, result digests) goes to ``perfbench-out/``.
``--realizations N`` replaces the campaign by realizations 0..N-1, for the
self-test and for audits of failed operations over long campaigns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COMPUTED, LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7          # extra fresh processes timed for setup_s
TIME_LIMIT_S = 170.0      # whole run, all worker processes included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("campaign_s", "s"),
              ("peak_rss_mib", "MiB"), ("ok_op_share", "share"))
UNITS = dict(END_TO_END + tuple((n, u) for n, u, _ in LAYER_METRICS))


class BenchError(Exception):
    pass


def spawn(args: list, deadline: float) -> dict:
    """Run one worker to completion; its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED}, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{' '.join(cmd)}")
    return json.loads(lines[-1])


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def describe(res: dict) -> list:
    """Human-readable lines about one worker result."""
    env, inp = res["env"], res["input"]
    lines = [
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"threads={env['threads']} commit={env['commit']} seed={env['seed']}",
        f"campaign_s={res['campaign_s']:.3f} s for {inp['realizations']} "
        f"realizations x {inp['ues']} UEs x {inp['modes']} modes "
        f"(median pass per realization; passes took "
        f"{', '.join(f'{p:.2f}' for p in res['pass_s'])} s)",
        f"peak_rss_mib={res['peak_rss_mib']:.1f}",
        f"failed_op_share={res['failed'] / res['attempted']:.6f} "
        f"({res['failed']} of {res['attempted']} operations)",
    ]
    for f in res["failures"]:
        lines.append(f"  failed op: workload={res['workload']} "
                     f"realization={f['realization']} mode={f['mode']} "
                     f"kind={f['kind']}: {f['reason']}")
    if res["digests"]:
        lines.append("fingerprint: " + " ".join(
            f"{k} sha256={v}" for k, v in res["digests"].items())
            + f" deterministic={res['deterministic']}")
    for mode, s in res.get("modes", {}).items():
        lines.append(f"  {mode}: coverage={s['coverage']} "
                     f"median_sinr_db={s['median_sinr_db']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--realizations", type=int, default=0,
                        help="campaign of realizations 0..N-1 instead of the "
                             "workload's own")
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}"
    out_dir = ROOT / "perfbench-out" / tag
    # a traced run splits its time between the untraced and traced campaign
    seconds = args.seconds / (1 + args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(seconds),
              "--realizations", str(args.realizations)]
    try:
        if args.trace == 0:
            setups = [spawn(common + ["--out", str(out_dir), "--setup-only"],
                            deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            res = spawn(common + ["--out", str(out_dir)], deadline)
            setups.append(res["setup_s"])
            metrics = {
                "setup_s": metric("setup_s", statistics.median(setups)),
                "campaign_s": metric("campaign_s", res["campaign_s"]),
                "peak_rss_mib": metric("peak_rss_mib", res["peak_rss_mib"]),
                "ok_op_share": metric(
                    "ok_op_share", 1.0 - res["failed"] / res["attempted"]),
            }
            correct = res["correct"]
            record = {"untraced": res, "setup_samples_s": setups}
        else:
            base = spawn(common + ["--out", str(out_dir)], deadline)
            res = spawn(common + ["--out", str(out_dir) + "-traced",
                                  "--trace", "1"], deadline)
            layers = dict(res.get("layers", {}))
            layers["trace.campaign_s"] = res["campaign_s"]
            layers["trace.overhead_s"] = res["campaign_s"] - base["campaign_s"]
            layers["ops.failed_share"] = res["failed"] / res["attempted"]
            metrics = {n: metric(n, layers.get(n, 0.0))
                       for n, _, _ in LAYER_METRICS}
            # tracing must not change results
            correct = (base["correct"] and res["correct"]
                       and base["digests"] == res["digests"])
            record = {"untraced": base, "traced": res}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "correct": correct,
                   "metrics": metrics, "computed": list(COMPUTED),
                   "wall_s": time.monotonic() - start})
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    record_path = out_dir.parent / f"{tag}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in describe(res):
        print(line)
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
