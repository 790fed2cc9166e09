"""Property tests of the IABA scan's ZF screen (``_Engine.zf_bounds``) on
constructed single-gNB engines: n members (none, for an empty gNB), each on
its own serving beam, and one UE with a few candidate beams, on random
rows."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import own_sinr
from mmwsim import allocation
from mmwsim.allocation import AllocationInputs
from mmwsim.beamsweep import BeamPairLink
from mmwsim.codebook import default_full_codebook
from mmwsim.metrics import BeamRows
from mmwsim.scenario import NetworkConfig

# RF chains enough for 17 UEs on one panel, 32 beams for n + K distinct ones
CFG = NetworkConfig(n_t=16, n_rf_gnb_sec=17, n_q_sweep_bits=3)
BOOK = default_full_codebook(CFG.n_q_sweep_bits, CFG.n_t)
K = 3                                  # candidates per case
SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def _rows(rng, m):
    dim = BOOK.matrix.shape[0]
    return 1e-4 * (rng.standard_normal((m, dim))
                   + 1j * rng.standard_normal((m, dim)))


def _case(seed, n, quantized):
    """Distinct beams and (true, estimated) rows: one per member, then K
    for the candidate UE; the estimate is the true rows themselves under
    exact CSI."""
    rng = np.random.default_rng(seed)
    beams = rng.choice(BOOK.n_beams, n + K, replace=False).tolist()
    true = _rows(rng, n + K)
    est = true + 0.1 * _rows(rng, n + K) if quantized else true
    return beams, true, est


def _engine(n, beams, true, est):
    """Engine whose gNB 0 serves UEs 0..n-1 on ``beams[:n]``, and UE n's K
    candidates on gNB 0 at ``beams[n:]``, UE beams 0..K-1."""
    def pairs(m):
        out = {(u, 0): BeamRows(m[u:u + 1], {0: 0}) for u in range(n)}
        out[(n, 0)] = BeamRows(m[n:], {j: j for j in range(K)})
        return out

    true_rows = pairs(true)
    est_rows = true_rows if est is true else pairs(est)
    inputs = AllocationInputs(cfg=CFG, n_gnbs=1, n_ues=n + 1, sweeps={},
                              monitored={}, true_rows=true_rows,
                              est_rows=est_rows, gnb_book=BOOK)
    engine = allocation._Engine(inputs, use_dbf=False)
    for u in range(n):
        engine.serving[u] = BeamPairLink(u, 0, beams[u], 0, 1.0, True, 1)
        engine.per_gnb[0].append(u)
    cands = [BeamPairLink(n, 0, beams[n + j], j, 1.0, True, j + 1)
             for j in range(K)]
    return engine, cands


def _assert_sound(engine, cands, bounds):
    """A finite bound, with its margin, is at least the full try's own
    SINR wherever the full build succeeds."""
    for bpl, bound in zip(cands, bounds):
        if math.isfinite(bound):
            own = own_sinr(engine, bpl)
            assert own is None or own <= bound * (1.0 + allocation._ZF_MARGIN)


def _zf_bounds(engine, cands):
    ue = cands[0].ue
    return engine.zf_bounds(ue, 0, cands, engine._inter_bounds(ue, cands))


def _cond_f(engine, cand):
    """cond_F of the H_bar the full build would solve for ``cand``."""
    ues = engine.per_gnb[0] + [cand.ue]
    serving = {**engine.serving, cand.ue: cand}
    est = np.array([engine.inputs.est_rows[(u, 0)][serving[u].ue_beam]
                    for u in ues])
    h = est @ BOOK.matrix[:, [serving[u].gnb_beam for u in ues]]
    return np.linalg.norm(h) * np.linalg.norm(np.linalg.inv(h))


@SETTINGS
@given(n=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1),
       quantized=st.booleans())
def test_zf_bound_is_sound(n, seed, quantized):
    engine, cands = _engine(n, *_case(seed, n, quantized))
    _assert_sound(engine, cands, _zf_bounds(engine, cands))


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), quantized=st.booleans())
def test_zf_bound_is_exact_on_empty_gnb(seed, quantized):
    # the lone UE's precoder column is its beam, whatever its estimated
    # row: the bound is its own SINR, and no estimated pair is read
    engine, cands = _engine(0, *_case(seed, 0, quantized))
    est_rows, engine.inputs.est_rows = engine.inputs.est_rows, {}
    bounds = _zf_bounds(engine, cands)
    engine.inputs.est_rows = est_rows
    for bpl, bound in zip(cands, bounds):
        assert math.isfinite(bound)
        assert abs(own_sinr(engine, bpl) / bound - 1.0) <= 1e-9


@SETTINGS
@given(n=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1),
       on_member=st.booleans())
def test_zf_bound_none_on_repeated_beam(n, seed, on_member):
    beams, true, est = _case(seed, n, quantized=False)
    if on_member:
        beams[n - 1] = beams[0]         # two members share a serving beam
    else:
        beams[n] = beams[n - 1]         # the first candidate's is a member's
    engine, cands = _engine(n, beams, true, est)
    bounds = _zf_bounds(engine, cands)
    if on_member:
        assert bounds == [math.inf] * K
    else:
        assert bounds[0] == math.inf
        # and the singular candidate costs the others nothing
        np.testing.assert_allclose(bounds[1:], _zf_bounds(engine, cands[1:]),
                                   rtol=1e-9)
        _assert_sound(engine, cands, bounds)


@SETTINGS
@given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
       quantized=st.booleans(), on_member=st.booleans())
def test_zf_bound_none_on_nearly_parallel_rows(n, seed, quantized, on_member):
    beams, true, est = _case(seed, n, quantized)
    # one estimated row a scaled copy of member 0's, up to 1e-7 relative
    copy = n - 1 if on_member and n > 1 else n
    rng = np.random.default_rng(seed + 1)
    est = est.copy()
    est[copy] = (0.5 - 2j) * est[0] + 1e-7 * _rows(rng, 1)[0]
    engine, cands = _engine(n, beams, true, est)
    bounds = _zf_bounds(engine, cands)
    assert _cond_f(engine, cands[0]) > allocation._ZF_COND_MAX
    if copy < n:
        assert bounds == [math.inf] * K
    else:
        assert bounds[0] == math.inf
        _assert_sound(engine, cands, bounds)


@SETTINGS
@given(n=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1),
       which=st.sampled_from(["member-est", "candidate-est",
                              "candidate-true"]))
def test_zf_bound_sound_on_zero_row(n, seed, which):
    beams, true, est = _case(seed, n, quantized=True)
    row = {"member-est": 0, "candidate-est": n, "candidate-true": n}[which]
    zeroed = true if which == "candidate-true" else est
    zeroed[row] = 0.0
    engine, cands = _engine(n, beams, true, est)
    _assert_sound(engine, cands, _zf_bounds(engine, cands))
