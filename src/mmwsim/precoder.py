"""Zero-forcing baseband stage of hybrid precoding, over the RF beams the
allocators fix, and the fully digital reference precoder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

COND_LIMIT = 1e12
# cond_F of the Gram matrix up to which its computed inverse certifies the
# guard of _right_pinv without an SVD
_CERTIFIED_COND = 1e12


@dataclass
class GnbPrecoderState:
    """Finalized precoder of one gNB for its ordered served-UE list."""

    served: list                      # UE ids, column order
    w_combined: np.ndarray            # (4 n_t, n_u), unit-norm columns
    p_per_ue: float                   # W; p_max equally shared

    @property
    def n_served(self) -> int:
        return len(self.served)


def _right_pinv(aggregate: np.ndarray, ues: list) -> np.ndarray:
    """W with aggregate @ W = I, guarding against rank deficiency.

    The guard rejects a Gram matrix G with cond_2(G) above COND_LIMIT**2.
    The inverse the build needs anyway settles most cases without an SVD:
    cond_F(G) = ||G||_F ||G^-1||_F is an upper bound on cond_2(G), and
    while cond_2(G) << 1/eps the computed inverse of an LU-based inversion
    has the norm of the true one to within rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 14).  So a G with a
    computed cond_F of at most _CERTIFIED_COND has cond_2 of about that at
    most, 12 orders of magnitude inside the guard; every other G is
    decided by the SVD as before.
    """
    gram = aggregate @ aggregate.conj().T
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = None
    # squared norms as Python floats: an overflow reads inf, never warns
    if inv is not None and (float(np.vdot(gram, gram).real)
                            * float(np.vdot(inv, inv).real)
                            <= _CERTIFIED_COND ** 2):
        return aggregate.conj().T @ inv
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT ** 2:
        raise RankDeficiencyError(ues, cond=float(np.sqrt(cond)))
    if inv is None:
        raise RankDeficiencyError(ues)
    return aggregate.conj().T @ inv


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


def dbf_from_rows(rows: np.ndarray, ues: list) -> np.ndarray:
    """Digital ZF precoder from stacked w_c^H H_hat rows; unit-norm columns."""
    w = _right_pinv(np.atleast_2d(rows), ues)
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        raise RankDeficiencyError(ues)
    return w / norms[None, :]

