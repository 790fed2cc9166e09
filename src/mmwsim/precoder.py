"""Two-stage hybrid precoding (RF beam selection + zero-forcing baseband)
and the fully digital reference precoder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codebook import FullCodebook
from .errors import CapacityError, DimensionMismatchError, RankDeficiencyError

COND_LIMIT = 1e12


@dataclass
class GnbPrecoderState:
    """Finalized precoder of one gNB for its ordered served-UE list."""

    gnb: int
    served: list                      # UE ids, column order
    w_rf: Optional[np.ndarray]        # (4 n_t, n_u); None for DBF
    w_bb: Optional[np.ndarray]        # (n_u, n_u) normalized; None for DBF
    w_combined: np.ndarray            # (4 n_t, n_u), unit-norm columns
    p_per_ue: float                   # W; p_max equally shared

    @property
    def n_served(self) -> int:
        return len(self.served)


def rf_stage(serving_bpls: list, gnb_book: FullCodebook,
             n_rf_sec: int) -> np.ndarray:
    """First stage: one full-array column per served UE, fixed to its serving beam."""
    panels = [int(gnb_book.panel[b.gnb_beam]) for b in serving_bpls]
    for p in range(4):
        count = panels.count(p)
        if count > n_rf_sec:
            raise CapacityError(
                f"panel {p} would serve {count} UEs with only {n_rf_sec} RF chains")
    if not serving_bpls:
        raise CapacityError("RF stage needs at least one served UE")
    return np.column_stack([gnb_book.matrix[:, b.gnb_beam] for b in serving_bpls])


def _right_pinv(aggregate: np.ndarray, ues: list) -> np.ndarray:
    """W with aggregate @ W = I, guarding against rank deficiency."""
    gram = aggregate @ aggregate.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT ** 2:
        raise RankDeficiencyError(ues, cond=float(np.sqrt(cond)))
    try:
        return aggregate.conj().T @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(ues) from exc


def zf_stage(hbar: np.ndarray, ues: list,
             w_rf: Optional[np.ndarray] = None) -> np.ndarray:
    """Zero-forcing baseband stage: hbar @ W_BB = I on the served UEs.

    ``hbar`` stacks the served UEs' effective-channel rows w_c^H H_hat W_RF
    in the order of ``ues``.  When ``w_rf`` is given, each column is
    normalized to make the composed precoder column unit-norm (the transmit
    power constraint).
    """
    if hbar.ndim != 2 or hbar.shape[0] != hbar.shape[1]:
        raise DimensionMismatchError(
            f"aggregate effective channel must be square, got {hbar.shape}")
    w_bb = _right_pinv(hbar, ues)
    if w_rf is not None:
        norms = np.linalg.norm(w_rf @ w_bb, axis=0)
        if np.any(norms == 0):
            raise RankDeficiencyError(ues)
        w_bb = w_bb / norms[None, :]
    return w_bb


def compose(w_rf: np.ndarray, w_bb: np.ndarray) -> np.ndarray:
    """Combined per-UE precoding columns W_RF @ W_BB."""
    if w_rf.shape[1] != w_bb.shape[0]:
        raise DimensionMismatchError(
            f"cannot compose {w_rf.shape} with {w_bb.shape}")
    return w_rf @ w_bb


def dbf_from_rows(rows: np.ndarray, ues: list) -> np.ndarray:
    """Digital ZF precoder from stacked w_c^H H_hat rows; unit-norm columns."""
    w = _right_pinv(np.atleast_2d(rows), ues)
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        raise RankDeficiencyError(ues)
    return w / norms[None, :]

