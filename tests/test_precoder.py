import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwsim import precoder
from mmwsim.allocation import AllocationInputs, gnb_precoder_state
from mmwsim.beamsweep import BeamPairLink
from mmwsim.codebook import default_full_codebook
from mmwsim.errors import DimensionMismatchError, RankDeficiencyError
from mmwsim.metrics import BeamRows
from mmwsim.precoder import COND_LIMIT, dbf_from_rows, zf_stage
from mmwsim.scenario import NetworkConfig


def _bpl(ue, gnb_beam):
    return BeamPairLink(ue=ue, gnb=0, gnb_beam=gnb_beam, ue_beam=0,
                        rsrp=1.0, is_los=True, candidate_rank=1)


def test_zf_stage_frozen_two_user_inverse():
    # aggregate [[1, .5], [.5, 1]] has right inverse [[4/3, -2/3], [-2/3, 4/3]]
    hbar = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    w_bb = zf_stage(hbar, [0, 1])
    expected = np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
    assert np.allclose(w_bb, expected, atol=1e-12)


def test_zf_stage_cancels_cross_terms():
    rng = np.random.default_rng(1)
    n = 5
    hbar = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w_bb = zf_stage(hbar, list(range(n)))
    assert np.allclose(hbar @ w_bb, np.eye(n), atol=1e-10)


def test_zf_stage_normalizes_composed_columns():
    rng = np.random.default_rng(2)
    w_rf = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    w_rf /= np.linalg.norm(w_rf, axis=0)
    hbar = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w_bb = zf_stage(hbar, [0, 1, 2], w_rf)
    norms = np.linalg.norm(w_rf @ w_bb, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_zf_stage_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        zf_stage(np.ones((1, 3), dtype=complex), [0])
    with pytest.raises(DimensionMismatchError):
        zf_stage(np.ones(2, dtype=complex), [0, 1])


def test_zf_stage_rank_deficiency():
    hbar = np.ones((2, 2), dtype=complex)
    with pytest.raises(RankDeficiencyError) as err:
        zf_stage(hbar, [3, 7])
    assert set(err.value.ues) == {3, 7}


def _one_gnb_inputs(rows_of_ue: dict) -> AllocationInputs:
    """One gNB whose UEs each have a single combined row (UE beam 0)."""
    cfg = NetworkConfig(n_t=16, n_r=4, n_q_sweep_bits=2, p_max_dbm=30.0)
    rows = {(u, 0): BeamRows(row[None, :], {0: 0})
            for u, row in rows_of_ue.items()}
    return AllocationInputs(cfg=cfg, n_gnbs=1, n_ues=len(rows), sweeps={},
                            monitored={}, true_rows=rows, est_rows=rows,
                            gnb_book=default_full_codebook(2, 16))


def _span_residual(basis, w):
    """Largest relative distance of a column of ``w`` from span(basis)."""
    coef = np.linalg.lstsq(basis, w, rcond=None)[0]
    return np.max(np.linalg.norm(w - basis @ coef, axis=0)
                  / np.linalg.norm(w, axis=0))


def test_rf_stage_selects_serving_beam_columns():
    bpls = [_bpl(0, 1), _bpl(1, 9)]
    rng = np.random.default_rng(6)
    fulls = {b.ue: rng.normal(size=64) + 1j * rng.normal(size=64) for b in bpls}
    inputs = _one_gnb_inputs(fulls)
    book = inputs.gnb_book.matrix
    serving = {0: bpls[0], 1: bpls[1]}
    state = gnb_precoder_state(inputs, 0, [0, 1], serving, use_dbf=False)
    assert state.w_combined.shape == (64, 2)
    # every composed column is built from the serving beams' codebook
    # columns, and from no other pair
    assert _span_residual(book[:, [1, 9]], state.w_combined) < 1e-12
    assert _span_residual(book[:, [1, 10]], state.w_combined) > 1e-3
    # each RF column follows its UE: reversing the served order reverses
    # the precoder's columns
    swapped = gnb_precoder_state(inputs, 0, [1, 0], serving, use_dbf=False)
    assert swapped.served == [1, 0]
    assert np.allclose(swapped.w_combined, state.w_combined[:, ::-1],
                       atol=1e-12)


def test_hbf_precoder_end_to_end():
    bpls = [_bpl(4, 1), _bpl(9, 6)]
    rng = np.random.default_rng(3)
    fulls = {b.ue: rng.normal(size=64) + 1j * rng.normal(size=64) for b in bpls}
    inputs = _one_gnb_inputs(fulls)
    state = gnb_precoder_state(inputs, 0, [4, 9], {4: bpls[0], 9: bpls[1]},
                               use_dbf=False)
    assert state.served == [4, 9]
    assert state.p_per_ue == pytest.approx(0.5)
    # the RF stage is the serving beams' codebook columns, in served order,
    # and the baseband stage zero-forces the effective channel through them;
    # ``take`` gives them in C order (``matrix[:, beams]`` in Fortran order,
    # whose row-times-matrix products differ in the last bits)
    w_rf = inputs.gnb_book.matrix.take([1, 6], axis=1)
    hbar = np.vstack([fulls[4] @ w_rf, fulls[9] @ w_rf])
    assert (state.w_combined.tobytes()
            == (w_rf @ zf_stage(hbar, [4, 9], w_rf)).tobytes())
    assert np.allclose(np.linalg.norm(state.w_combined, axis=0), 1.0,
                       atol=1e-12)
    # zero-forcing on the design channel: off-diagonal responses vanish
    resp = np.vstack([fulls[4], fulls[9]]) @ state.w_combined
    assert abs(resp[0, 1]) < 1e-10 * abs(resp[0, 0])
    assert abs(resp[1, 0]) < 1e-10 * abs(resp[1, 1])


def test_dbf_precoder_state_uses_rows_directly():
    bpls = [_bpl(0, 1), _bpl(1, 6)]
    rng = np.random.default_rng(5)
    fulls = {b.ue: rng.normal(size=64) + 1j * rng.normal(size=64) for b in bpls}
    state = gnb_precoder_state(_one_gnb_inputs(fulls), 0, [0, 1],
                               {0: bpls[0], 1: bpls[1]}, use_dbf=True)
    assert np.array_equal(state.w_combined,
                          dbf_from_rows(np.vstack([fulls[0], fulls[1]]),
                                        [0, 1]))


def test_dbf_from_rows_unit_norm_and_zero_forcing():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    w = dbf_from_rows(rows, list(range(4)))
    assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
    resp = rows @ w
    off = resp - np.diag(np.diag(resp))
    assert np.max(np.abs(off)) < 1e-10 * np.min(np.abs(np.diag(resp)))


def _svd_guarded_pinv(aggregate, ues):
    """``precoder._right_pinv`` as it was before its inverse certificate,
    verbatim: every call decides the guard by an SVD."""
    gram = aggregate @ aggregate.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT ** 2:
        raise RankDeficiencyError(ues, cond=float(np.sqrt(cond)))
    try:
        return aggregate.conj().T @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(ues) from exc


def _pinv_outcome(pinv, aggregate):
    """The right inverse's bytes, or the error's type and condition."""
    try:
        w = pinv(aggregate, [0])
    except RankDeficiencyError as exc:
        return type(exc), repr(exc.cond)
    return w.shape, w.tobytes()


def _aggregate(n, wide, kind, log_cond, log_scale, seed):
    """An n x n H_bar, or n x 64 DBF rows when ``wide``: random
    ("well"), with singular values spread over 10**log_cond ("near"), the
    same spread on a diagonal ("graded": its Gram matrix is exact, so the
    SVD can read a finite condition number past the guard that LU still
    inverts), with a repeated column (H_bar) or row (rows), or with a zero
    row (a pair without paths); the last two exactly singular."""
    rng = np.random.default_rng(seed)
    m = 64 if wide else n

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "near":
        u = np.linalg.qr(gauss(n, n))[0]
        v = np.linalg.qr(gauss(m, n))[0]
        a = (u * np.logspace(0.0, -log_cond, n)) @ v.conj().T
    elif kind == "graded":
        a = np.zeros((n, m), complex)
        a[range(n), range(n)] = (np.logspace(0.0, -log_cond, n)
                                 * np.exp(2j * np.pi * rng.random(n)))
    else:
        a = gauss(n, m)
        if kind == "zero":
            a[n - 1] = 0.0
        elif kind == "repeated" and n > 1:
            if wide:
                a[n - 1] = a[0]
            else:
                a[:, n - 1] = a[:, 0]
    return a * 10.0 ** log_scale


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(1, 16), wide=st.booleans(),
       kind=st.sampled_from(["well", "near", "graded", "repeated",
                             "zero"]),
       log_cond=st.floats(0.0, 16.0), log_scale=st.integers(-40, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_right_pinv_matches_the_svd_guard(n, wide, kind, log_cond, log_scale,
                                          seed):
    a = _aggregate(n, wide, kind, log_cond, log_scale, seed)
    assert (_pinv_outcome(precoder._right_pinv, a)
            == _pinv_outcome(_svd_guarded_pinv, a))


def test_right_pinv_runs_the_svd_only_without_a_certificate(monkeypatch):
    svds = []
    cond = np.linalg.cond

    def counted(x, *args):
        svds.append(x.shape)
        return cond(x, *args)

    # a Gram matrix with cond_2 1 (certified) and 1e16 (accepted by the
    # SVD); then DBF rows with a repeated row, whose Gram matrix the SVD
    # finds singular (two rows) or LU cannot invert (four rows)
    cases = [(4, False, "near", 0.0, 0, ((4, 4),)),
             (4, False, "near", 8.0, 1, ((4, 4),)),
             (2, True, "repeated", 0.0, 1, (RankDeficiencyError, "inf")),
             (4, True, "repeated", 0.0, 1, (RankDeficiencyError, "None"))]
    for n, wide, kind, log_cond, svd_runs, outcome in cases:
        a = _aggregate(n, wide, kind, log_cond, -5, 3)
        want = _pinv_outcome(_svd_guarded_pinv, a)
        svds.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cond", counted)
            assert _pinv_outcome(precoder._right_pinv, a) == want
        assert len(svds) == svd_runs
        assert want[:len(outcome)] == outcome
