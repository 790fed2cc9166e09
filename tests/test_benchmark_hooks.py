"""The traced benchmark (perfbench/tracing.py) times each layer by wrapping
module attributes of the simulator; this keeps every attribute it wraps,
and every argument its hooks read, in place."""

from pathlib import Path

from mmwsim import allocation, metrics, runner
from mmwsim.allocation import AllocMode
from mmwsim.scenario import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls_on_live_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    modules = (runner, allocation, metrics)
    before = [dict(vars(m)) for m in modules]
    cfg = load_config(str(ROOT / "configs" / "tiny.yaml"), ["n_q_csi_bits=4"])
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        ctx = runner.prepare_realization(cfg, 0)
        for mode in AllocMode:
            runner.run_realization(ctx, mode, cfg, 0)
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before

    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"runner.prepare", "scenario.deploy", "channel.synth",
            "channel.assemble", "codebook.build", "beamsweep.sweep",
            "csi.quantize", "precoder.zf", "metrics.evaluate",
            "allocation.oracle", "allocation.cbf-tdma"} <= names
    # the oracle builds its precoders through allocation.zf_stage, so the
    # traced run attributes its ZF work to the oracle
    assert any(span[tracing.NAME] == "precoder.zf"
               and span[tracing.MODE] == "oracle" for span in tracer.spans)
    # one gNB and one UE codebook per realization
    assert tracer.counts["codebook.builds"] == 2
    assert tracer.counts["allocation.candidates"] > 0
    # the sweep hook counts every swept BPL through len() of the sweep
    assert tracer.counts["beamsweep.bpls"] == sum(
        len(ctx.inputs.sweeps[u]) for u in ctx.inputs.sweeps) > 0
    assert tracer.counts["kernel.column_powers_calls"] > 0

    # channels are assembled through runner.assemble_channel: once per pair
    # for the true rows, and once per estimated pair an allocator read; each
    # estimate is quantized through runner.quantize_paths
    inputs = ctx.inputs
    assert inputs.est_rows is not inputs.true_rows
    n_pairs = ctx.dep.n_gnbs * ctx.dep.n_ues
    est_read = len(inputs.est_rows)
    assert 0 < est_read < n_pairs
    assert tracer.counts["channel.assemble_calls"] == n_pairs + est_read
    assert sum(span[tracing.NAME] == "csi.quantize"
               for span in tracer.spans) == est_read
