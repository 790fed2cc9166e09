import numpy as np
import pytest

from mmwsim.allocation import AllocationInputs, gnb_precoder_state
from mmwsim.beamsweep import BeamPairLink
from mmwsim.codebook import default_full_codebook
from mmwsim.errors import (CapacityError, DimensionMismatchError,
                           RankDeficiencyError)
from mmwsim.metrics import BeamRows
from mmwsim.precoder import compose, dbf_from_rows, rf_stage, zf_stage
from mmwsim.scenario import NetworkConfig


def _bpl(ue, gnb_beam):
    return BeamPairLink(ue=ue, gnb=0, gnb_beam=gnb_beam, ue_beam=0,
                        rsrp=1.0, is_los=True, candidate_rank=1)


def test_rf_stage_selects_serving_beam_columns():
    book = default_full_codebook(2, 16)
    bpls = [_bpl(0, 1), _bpl(1, 9)]
    w_rf = rf_stage(bpls, book, n_rf_sec=4)
    assert w_rf.shape == (64, 2)
    assert np.array_equal(w_rf[:, 0], book.matrix[:, 1])
    assert np.array_equal(w_rf[:, 1], book.matrix[:, 9])


def test_rf_stage_panel_capacity():
    book = default_full_codebook(3, 16)
    bpls = [_bpl(u, u) for u in range(5)]    # five beams on panel 0
    with pytest.raises(CapacityError):
        rf_stage(bpls, book, n_rf_sec=4)
    rf_stage(bpls[:4], book, n_rf_sec=4)
    with pytest.raises(CapacityError):
        rf_stage([], book, n_rf_sec=4)


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


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatchError):
        compose(np.zeros((8, 2), dtype=complex), np.zeros((3, 3), dtype=complex))


def _one_gnb_inputs(rows_of_ue: dict) -> AllocationInputs:
    """One gNB whose UEs each have a single combined row (UE beam 0)."""
    cfg = NetworkConfig(n_t=16, n_r=4, n_q_sweep_bits=2, p_max_dbm=30.0)
    rows = {(u, 0): BeamRows(row[None, :], {0: 0})
            for u, row in rows_of_ue.items()}
    return AllocationInputs(cfg=cfg, n_gnbs=1, n_ues=len(rows), sweeps={},
                            monitored={}, true_rows=rows, est_rows=rows,
                            gnb_book=default_full_codebook(2, 16))


def test_hbf_precoder_end_to_end():
    bpls = [_bpl(4, 1), _bpl(9, 6)]
    rng = np.random.default_rng(3)
    fulls = {b.ue: rng.normal(size=64) + 1j * rng.normal(size=64) for b in bpls}
    inputs = _one_gnb_inputs(fulls)
    state = gnb_precoder_state(inputs, 0, [4, 9], {4: bpls[0], 9: bpls[1]},
                               use_dbf=False)
    assert state.served == [4, 9]
    assert state.p_per_ue == pytest.approx(0.5)
    assert np.array_equal(state.w_rf, rf_stage(bpls, inputs.gnb_book, 4))
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
    assert state.w_rf is None and state.w_bb is None
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
