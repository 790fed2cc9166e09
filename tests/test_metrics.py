import math

import numpy as np
import pytest

from conftest import ORIENT, full, make_inputs, path, small_instance
from mmwsim import metrics
from mmwsim.allocation import AllocMode, allocate
from mmwsim.beamsweep import BeamPairLink
from mmwsim.channel import Paths, assemble_channel
from mmwsim.codebook import default_full_codebook
from mmwsim.metrics import (BeamRows, column_powers, dropped_report,
                            evaluate_allocation, link_report, network_report,
                            summarize, throughput)
from mmwsim.precoder import GnbPrecoderState
from mmwsim.scenario import NetworkConfig


# per-UE reference ops on full channel matrices, against which the row-based
# evaluate_allocation is checked

def rss(combiner: np.ndarray, true_channel, state: GnbPrecoderState,
        ue: int) -> float:
    """Received signal strength P_i |w_c^H H w_p,i|^2 on the true channel."""
    i = state.served.index(ue)
    row = combiner.conj() @ full(true_channel)
    return float(state.p_per_ue * column_powers(row[None, :],
                                                state.w_combined)[0, i])


def intra_interference(combiner: np.ndarray, true_channel,
                       state: GnbPrecoderState, ue: int) -> float:
    """Power leaked into this UE by co-scheduled columns (own column excluded)."""
    i = state.served.index(ue)
    row = combiner.conj() @ full(true_channel)
    powers = column_powers(row[None, :], state.w_combined)[0]
    return float(state.p_per_ue * (np.sum(powers) - powers[i]))


def inter_interference(combiner: np.ndarray, true_channels: dict,
                       all_states: dict, serving_gnb: int) -> float:
    """Incoherent power sum over all non-serving gNBs' precoder columns."""
    total = 0.0
    for g, state in all_states.items():
        if g == serving_gnb or state is None:
            continue
        ch = true_channels.get(g)
        if ch is None:
            continue
        row = combiner.conj() @ full(ch)
        total += state.p_per_ue * float(np.sum(
            column_powers(row[None, :], state.w_combined)))
    return total


def test_throughput_endpoints_and_interior():
    cfg = NetworkConfig()
    assert throughput(-6.0, cfg) == 0.0
    assert throughput(-5.0001, cfg) == 0.0
    assert throughput(20.05, cfg) == 2e9
    assert throughput(30.0, cfg) == 2e9
    assert throughput(10.0, cfg) == pytest.approx(1037829485.5911891, rel=1e-12)


def test_throughput_continuity_at_saturation():
    cfg = NetworkConfig()
    just_below = throughput(20.05 - 1e-9, cfg)
    assert just_below == pytest.approx(2e9, rel=0.005)


def test_column_powers_matches_naive():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    w = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    p = column_powers(rows, w)
    for i in range(3):
        for k in range(2):
            assert p[i, k] == pytest.approx(abs(rows[i] @ w[:, k]) ** 2)


def _two_gnb_instance():
    """Victim UE 0 on gNB 1; gNB 0 serves UE 1 on a beam that hits UE 0."""
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2)
    pairs = {
        (1, 0): [path(1e-5, 10.0, -170.0)],            # serving link
        (0, 0): [path(0.5e-5, 10.0, -170.0)],          # interference inlet
        (0, 1): [path(1e-5, 10.0, -170.0)],            # gNB 0's served UE
    }
    inputs = make_inputs(cfg, pairs, n_gnbs=2, n_ues=2)
    alloc = allocate(inputs, AllocMode.FIVEG_NR)
    return cfg, pairs, inputs, alloc


def _victim_combiner(cfg, alloc):
    """UE 0's serving combiner w_c from the shared UE codebook."""
    book = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    return book.matrix[:, alloc.serving[0].ue_beam]


def _assemble(cfg, rows):
    return assemble_channel(Paths.from_rows(rows), cfg, ORIENT, ORIENT)


@pytest.mark.parametrize("n_cols", [1, 6])
def test_column_powers_of_a_row_do_not_depend_on_its_stack(n_cols):
    # numpy runs a one-row product through gemv, whose last bits can differ
    # from the gemm a row gets in a stack; alone, first, last or in the
    # middle, a row's powers are the same
    rng = np.random.default_rng(n_cols)
    k = 256

    def draw(n):
        return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))

    w = draw(n_cols).T
    for _ in range(10):
        row = draw(1)
        alone = column_powers(row, w)
        assert alone.shape == (1, n_cols)
        for height in (2, 3, 8, 31):
            others = draw(height - 1)
            for pos in sorted({0, height // 2, height - 1}):
                stack = np.vstack([others[:pos], row, others[pos:]])
                assert np.array_equal(column_powers(stack, w)[pos], alone[0])


def test_reference_ops_against_hand_computation():
    cfg, pairs, inputs, alloc = _two_gnb_instance()
    assert 0 in alloc.serving and 1 in alloc.serving
    state0 = alloc.states[0]
    state1 = alloc.states[1]
    ch_01 = _assemble(cfg, pairs[(0, 0)])
    ch_11 = _assemble(cfg, pairs[(1, 0)])
    w_c = _victim_combiner(cfg, alloc)

    got_rss = rss(w_c, ch_11, state1, ue=0)
    got_inter = inter_interference(w_c, {0: ch_01, 1: ch_11},
                                   {0: state0, 1: state1}, serving_gnb=1)
    # hand evaluation: P_u |w_c^H H w|^2 per column
    expected_rss = state1.p_per_ue * abs(
        w_c.conj() @ full(ch_11) @ state1.w_combined[:, 0]) ** 2
    expected_inter = sum(
        state0.p_per_ue * abs(w_c.conj() @ full(ch_01) @
                              state0.w_combined[:, k]) ** 2
        for k in range(state0.w_combined.shape[1]))
    assert got_rss == pytest.approx(expected_rss, rel=1e-12)
    assert got_inter == pytest.approx(expected_inter, rel=1e-12)
    assert got_inter > 0.0


def test_intra_interference_single_ue_is_zero():
    cfg, pairs, inputs, alloc = _two_gnb_instance()
    ch_11 = _assemble(cfg, pairs[(1, 0)])
    w_c = _victim_combiner(cfg, alloc)
    assert intra_interference(w_c, ch_11, alloc.states[1], ue=0) == 0.0


def test_evaluate_allocation_matches_reference_ops():
    cfg, pairs, inputs, alloc = _two_gnb_instance()
    powers = evaluate_allocation(alloc.serving, alloc.states,
                                 inputs.true_rows)
    ch_01 = _assemble(cfg, pairs[(0, 0)])
    ch_11 = _assemble(cfg, pairs[(1, 0)])
    w_c = _victim_combiner(cfg, alloc)
    s, ia, ie = powers[0]
    assert s == pytest.approx(rss(w_c, ch_11, alloc.states[1], 0), rel=1e-12)
    assert ia == pytest.approx(
        intra_interference(w_c, ch_11, alloc.states[1], 0), abs=1e-30)
    assert ie == pytest.approx(
        inter_interference(w_c, {0: ch_01, 1: ch_11}, alloc.states,
                           serving_gnb=1), rel=1e-12)


def test_beam_rows_gain_is_vdot_bit_for_bit():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    pairs = [BeamRows(1e-4 * m, {}), BeamRows(np.zeros((2, 8), complex), {})]
    for seed in range(3):
        pairs += small_instance(seed).true_rows.values()
    for rows in pairs:
        assert rows.gain.shape == (len(rows.matrix),)
        for gain, row in zip(rows.gain, rows.matrix):
            vdot = np.float64(np.vdot(row, row).real)
            assert gain.tobytes() == vdot.tobytes()


def test_sinr_bounded_by_snr():
    cfg, pairs, inputs, alloc = _two_gnb_instance()
    reports, _ = network_report(alloc.serving, alloc.states,
                                inputs.true_rows, cfg, 2,
                                alloc.initial_gnbs)
    for r in reports:
        if r.served:
            assert r.sinr_db <= r.snr_db + 1e-9


def test_link_report_fields():
    cfg = NetworkConfig()
    bpl = BeamPairLink(ue=3, gnb=1, gnb_beam=2, ue_beam=5, rsrp=1e-9,
                       is_los=True, candidate_rank=2)
    rep = link_report(3, bpl, (1e-9, 0.0, 0.0), cfg.noise_w, cfg,
                      initial_gnb=0)
    assert rep.is_handover                       # committed gNB != initial
    assert rep.alloc_rank == 2
    assert rep.sinr_db == pytest.approx(rep.snr_db)
    assert rep.rate_bps > 0


def test_link_report_time_share_divides_rate():
    cfg = NetworkConfig()
    bpl = BeamPairLink(ue=0, gnb=0, gnb_beam=0, ue_beam=0, rsrp=1e-9,
                       is_los=True, candidate_rank=1)
    full = link_report(0, bpl, (1e-8, 0.0, 0.0), cfg.noise_w, cfg, 0)
    shared = link_report(0, bpl, (1e-8, 0.0, 0.0), cfg.noise_w, cfg, 0,
                         time_share=4)
    assert shared.rate_bps == pytest.approx(full.rate_bps / 4)
    assert shared.sinr_db == full.sinr_db


def test_dropped_report_and_summary():
    cfg = NetworkConfig()
    reports = [dropped_report(u, cfg.noise_w) for u in range(5)]
    summary = summarize(reports, cfg)
    assert summary["coverage"] == 0.0
    assert summary["sum_throughput_bps"] == 0.0
    assert summary["n_served"] == 0
    assert summary["median_sinr_db"] == -math.inf


def test_summarize_shares():
    cfg = NetworkConfig()
    bpl1 = BeamPairLink(0, 0, 0, 0, 1e-9, True, 1)
    bpl2 = BeamPairLink(1, 1, 0, 0, 1e-9, False, 3)
    reports = [
        link_report(0, bpl1, (1e-8, 0.0, 0.0), cfg.noise_w, cfg, 0),
        link_report(1, bpl2, (1e-8, 0.0, cfg.noise_w * 2), cfg.noise_w, cfg, 0),
        dropped_report(2, cfg.noise_w),
    ]
    s = summarize(reports, cfg)
    assert s["n_ues"] == 3 and s["n_served"] == 2
    assert s["coverage"] == pytest.approx(2 / 3)
    assert s["secondary_bpl_share"] == pytest.approx(0.5)
    assert s["los_share"] == pytest.approx(0.5)
    assert s["handover_share"] == pytest.approx(0.5)
    assert s["inter_inr_pos_share"] == pytest.approx(0.5)
    assert s["bpl_rank_histogram"] == {"1": 1, "3": 1}


def test_sum_throughput_adds_the_rates_in_ue_order(monkeypatch):
    # plain float additions, as Python 3.11's built-in sum makes them: from
    # 3.12 on sum is compensated, so with a compensated sum in its place
    # the total stays the same
    monkeypatch.setattr(metrics, "sum", lambda xs, start=0: math.fsum(xs)
                        + start, raising=False)
    rates = [0.1, 0.2, 0.3]
    assert 0.1 + 0.2 + 0.3 != math.fsum(rates)
    cfg = NetworkConfig()
    reports = []
    for ue, rate in enumerate(rates):
        reports.append(dropped_report(ue, cfg.noise_w))
        reports[-1].rate_bps = rate
    assert summarize(reports, cfg)["sum_throughput_bps"] == 0.1 + 0.2 + 0.3
