"""Per-layer tracing from outside the simulator.

The simulator is not edited: each layer is timed by replacing, for the
duration of a run, the module attributes through which ``runner``,
``allocation`` and ``metrics`` call into the other modules.  Each call
becomes a span (name, start, end, parent span, realization, mode, error);
spans stay in memory and are written out when the run ends.  Cheap,
high-rate calls (candidate building, the ``column_powers`` kernel) are
counted instead of spanned.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# span tuple layout
ID, NAME, START, END, PARENT, REAL, MODE, ERROR = range(8)

MODES = ("5gnr", "diaba", "ciaba", "dbf", "cbf-tdma", "oracle")
ZF_MODES = ("5gnr", "diaba", "ciaba", "dbf", "oracle")

# (name, unit, better) of every per-layer metric the traced run reports.
# Metrics marked "computed" in COMPUTED are derived from array shapes, not
# measured.
LAYER_METRICS = (
    [(f"allocation.{m}_s", "s", "lower") for m in MODES]
    + [("allocation.oracle_refusals", "count", "lower")]
    + [(f"allocation.{m}.served", "count", "higher") for m in MODES]
    + [("allocation.candidates", "count", "lower")]
    + [(f"allocation.{m}.useful_ratio", "ratio", "higher") for m in ZF_MODES]
    + [("precoder.zf_calls", "count", "lower"),
       ("precoder.zf_s", "s", "lower"),
       ("precoder.rank_deficient", "count", "lower"),
       ("metrics.evaluate_calls", "count", "lower"),
       ("metrics.report_s", "s", "lower"),
       ("kernel.column_powers_calls", "count", "lower"),
       ("kernel.column_powers_gflop", "GFLOP", "lower"),
       ("kernel.column_powers_gb", "GB", "lower"),
       ("kernel.row_build_calls", "count", "lower"),
       ("kernel.row_build_gflop", "GFLOP", "lower"),
       ("kernel.row_build_gb", "GB", "lower"),
       ("channel.synth_s", "s", "lower"),
       ("channel.paths", "count", "lower"),
       ("channel.assemble_s", "s", "lower"),
       ("channel.assemble_calls", "count", "lower"),
       ("channel.block_bytes", "B", "lower"),
       ("beamsweep.sweep_s", "s", "lower"),
       ("beamsweep.bpls", "count", "lower"),
       ("beamsweep.monitored_ratio", "ratio", "higher"),
       ("csi.quantize_s", "s", "lower"),
       ("csi.merge_ratio", "ratio", "lower"),
       ("codebook.build_s", "s", "lower"),
       ("codebook.builds", "count", "lower"),
       ("runner.prepare_s", "s", "lower"),
       ("runner.rows_s", "s", "lower"),
       ("runner.row_bytes", "B", "lower"),
       ("runner.emit_s", "s", "lower"),
       ("scenario.deploy_s", "s", "lower"),
       ("scenario.ues", "count", "higher"),
       ("trace.campaign_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("ops.failed_share", "share", "lower")])

COMPUTED = ("kernel.column_powers_gflop", "kernel.column_powers_gb",
            "kernel.row_build_gflop", "kernel.row_build_gb",
            "channel.block_bytes", "runner.row_bytes")


class Tracer:
    """Span recorder that patches module attributes while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.per_realization: dict = defaultdict(lambda: defaultdict(float))
        self.candidates: set = set()
        self.pass_no = 0
        self.realization = None
        self.mode = None
        self._stack: list = []
        self._patched: list = []

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, wrapper_of) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper_of(original)))

    def span(self, module, attr, name, on_enter=None, on_exit=None) -> None:
        """Record a span around every call of ``module.attr``."""
        tracer = self

        def wrapper_of(fn):
            def traced(*args, **kwargs):
                if on_enter is not None:
                    on_enter(tracer, args)
                label = name(args) if callable(name) else name
                sid = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)
                tracer._stack.append(sid)
                error = None
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    error = type(exc).__name__
                    raise
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[sid] = (sid, label, start, end, parent,
                                         tracer.realization, tracer.mode,
                                         error)
                if on_exit is not None:
                    on_exit(tracer, args, result)
                return result
            return traced

        self._patch(module, attr, wrapper_of)

    def count(self, module, attr, on_exit) -> None:
        """Call ``on_exit(tracer, args, result)`` after each call, no span."""
        tracer = self

        def wrapper_of(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_exit(tracer, args, result)
                return result
            return counted

        self._patch(module, attr, wrapper_of)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "realization",
                "mode", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- hooks --------------------------------------------------------------------

def _enter_prepare(tracer, args):
    tracer.realization = args[1]
    tracer.mode = None


def _enter_run(tracer, args):
    tracer.mode = args[1].value
    tracer.realization = args[3]


def _exit_deploy(tracer, args, dep):
    tracer.counts["scenario.ues"] += dep.n_ues


def _exit_synth(tracer, args, paths):
    tracer.counts["channel.paths"] += len(paths)


def _exit_assemble(tracer, args, channel):
    tracer.counts["channel.assemble_calls"] += 1
    per = tracer.per_realization[(tracer.pass_no, tracer.realization)]
    per["assemble_calls"] += 1
    per["block_bytes"] += channel.blocks.nbytes


def _exit_sweep(tracer, args, bpls):
    tracer.counts["beamsweep.bpls"] += len(bpls)


def _exit_quantize(tracer, args, qpaths):
    tracer.counts["csi.paths_in"] += len(args[0])
    tracer.counts["csi.paths_out"] += len(qpaths)


def _exit_codebook(tracer, args, book):
    tracer.counts["codebook.builds"] += 1


def _exit_candidates(tracer, args, cands):
    tracer.counts["allocation.candidates"] += len(cands.bpls)
    for b in cands.bpls:
        tracer.candidates.add((tracer.realization, b.ue, b.gnb, b.gnb_beam,
                               b.ue_beam))


def _exit_evaluate(tracer, args, powers):
    tracer.counts["metrics.evaluate_calls"] += 1


def _exit_column_powers(tracer, args, out):
    rows, w = args[0], args[1]
    m, k = rows.shape
    n = w.shape[1]
    tracer.counts["kernel.column_powers_calls"] += 1
    tracer.counts["kernel.column_powers_flop"] += 8.0 * m * k * n
    tracer.counts["kernel.column_powers_bytes"] += (
        rows.itemsize * m * k + w.itemsize * k * n + out.itemsize * m * n)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the campaign code calls through."""
    from mmwsim import allocation, metrics, runner

    tracer.span(runner, "prepare_realization", "runner.prepare",
                on_enter=_enter_prepare)
    tracer.span(runner, "run_realization", "runner.run", on_enter=_enter_run)
    tracer.span(runner, "emit", "runner.emit")
    tracer.span(runner, "generate_deployment", "scenario.deploy",
                on_exit=_exit_deploy)
    tracer.span(runner, "synthesize_paths", "channel.synth",
                on_exit=_exit_synth)
    tracer.span(runner, "assemble_channel", "channel.assemble",
                on_exit=_exit_assemble)
    tracer.span(runner, "default_full_codebook", "codebook.build",
                on_exit=_exit_codebook)
    tracer.span(runner, "sweep", "beamsweep.sweep", on_exit=_exit_sweep)
    tracer.span(runner, "quantize_paths", "csi.quantize",
                on_exit=_exit_quantize)
    tracer.span(runner, "allocate", lambda a: f"allocation.{a[1].value}")
    tracer.span(runner, "allocate_cbf_tdma", "allocation.cbf-tdma")
    tracer.span(runner, "network_report", "metrics.network_report")
    tracer.span(runner, "summarize", "metrics.summarize")
    tracer.span(metrics, "evaluate_allocation", "metrics.evaluate",
                on_exit=_exit_evaluate)
    tracer.span(allocation, "zf_stage", "precoder.zf")
    tracer.span(allocation, "dbf_from_rows", "precoder.zf")
    tracer.count(allocation, "build_candidates", _exit_candidates)
    tracer.count(allocation, "column_powers", _exit_column_powers)
    tracer.count(metrics, "column_powers", _exit_column_powers)


# -- per-layer metrics ----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cfg, served: dict, passes: int) -> dict:
    """Per-layer metrics of one campaign pass, from the spans and counts."""
    spans, c = tracer.spans, tracer.counts
    busy: dict = defaultdict(float)
    child_time: dict = defaultdict(float)
    zf_calls: dict = defaultdict(int)
    rank_deficient = refusals = 0
    for s in spans:
        dur = s[END] - s[START]
        busy[s[NAME]] += dur
        if s[PARENT] is not None:
            child_time[s[PARENT]] += dur
        if s[NAME] == "precoder.zf":
            zf_calls[s[MODE]] += 1
            rank_deficient += s[ERROR] == "RankDeficiencyError"
        elif s[NAME] == "allocation.oracle":
            refusals += s[ERROR] == "GuardRailError"
    # metrics-layer busy time: outermost metrics.* spans only
    report_s = sum(s[END] - s[START] for s in spans
                   if s[NAME].startswith("metrics.")
                   and (s[PARENT] is None
                        or not spans[s[PARENT]][NAME].startswith("metrics.")))
    rows_s = sum(s[END] - s[START] - child_time[s[ID]] for s in spans
                 if s[NAME] == "runner.prepare")

    # one row matrix w_c^H H per assembled channel (true and estimated):
    # (4 * 2^q UE beams, 4 n_r) @ (4 n_r, 4 n_t), complex128
    n_b, n_r4, n_t4 = 4 * 2 ** cfg.n_q_sweep_bits, 4 * cfg.n_r, 4 * cfg.n_t
    rows = c["channel.assemble_calls"]
    totals = {f"allocation.{m}_s": busy[f"allocation.{m}"] for m in MODES}
    totals.update({
        "allocation.oracle_refusals": refusals,
        "allocation.candidates": c["allocation.candidates"],
        "precoder.zf_calls": sum(zf_calls.values()),
        "precoder.zf_s": busy["precoder.zf"],
        "precoder.rank_deficient": rank_deficient,
        "metrics.evaluate_calls": c["metrics.evaluate_calls"],
        "metrics.report_s": report_s,
        "kernel.column_powers_calls": c["kernel.column_powers_calls"],
        "kernel.column_powers_gflop": c["kernel.column_powers_flop"] / 1e9,
        "kernel.column_powers_gb": c["kernel.column_powers_bytes"] / 1e9,
        "kernel.row_build_calls": rows,
        "kernel.row_build_gflop": rows * 8.0 * n_b * n_r4 * n_t4 / 1e9,
        "kernel.row_build_gb": rows * 16.0 * (
            n_b * n_r4 + n_r4 * n_t4 + n_b * n_t4) / 1e9,
        "channel.synth_s": busy["channel.synth"],
        "channel.paths": c["channel.paths"],
        "channel.assemble_s": busy["channel.assemble"],
        "channel.assemble_calls": rows,
        "beamsweep.sweep_s": busy["beamsweep.sweep"],
        "beamsweep.bpls": c["beamsweep.bpls"],
        "csi.quantize_s": busy["csi.quantize"],
        "codebook.build_s": busy["codebook.build"],
        "codebook.builds": c["codebook.builds"],
        "runner.prepare_s": busy["runner.prepare"],
        "runner.rows_s": rows_s,
        "runner.emit_s": busy["runner.emit"],
        "scenario.deploy_s": busy["scenario.deploy"],
        "scenario.ues": c["scenario.ues"],
    })
    out = {k: v / passes for k, v in totals.items()}
    for m in MODES:
        out[f"allocation.{m}.served"] = served.get(m, 0)
    for m in ZF_MODES:
        out[f"allocation.{m}.useful_ratio"] = _ratio(served.get(m, 0) * passes,
                                                     zf_calls[m])
    # candidates are keyed by realization, so repeated passes add none
    out["beamsweep.monitored_ratio"] = _ratio(len(tracer.candidates),
                                              out["beamsweep.bpls"])
    out["csi.merge_ratio"] = _ratio(c["csi.paths_out"], c["csi.paths_in"])
    per_real = tracer.per_realization.values()
    out["channel.block_bytes"] = max(
        (p["block_bytes"] for p in per_real), default=0.0)
    out["runner.row_bytes"] = max(
        (p["assemble_calls"] * 16 * n_b * n_t4 for p in per_real), default=0.0)
    return out
