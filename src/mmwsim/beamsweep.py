"""Exhaustive SSB beam sweep: each UE's beam pair links, strongest first."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MultiPanelChannel
from .codebook import FullCodebook


@dataclass(frozen=True)
class BeamPairLink:
    """One (UE, gNB, gNB beam, UE beam) link with its swept RSRP."""

    ue: int
    gnb: int
    gnb_beam: int
    ue_beam: int
    rsrp: float            # linear (W)
    is_los: bool           # dominant path of the coupled panel pair is LOS
    candidate_rank: int    # 1 = strongest across all of this UE's candidates


def _used_blocks(dominant: np.ndarray):
    """(UE panel, gNB panel) of every block some path enters."""
    return zip(*np.nonzero(dominant >= 0))


def combined_rows(channel: MultiPanelChannel,
                  ue_book: FullCodebook) -> np.ndarray:
    """R = W_ue^H H: the combined row w_c^H H of every UE beam, (n_beams, 4 n_t).

    A UE beam lives on one panel, so R is built block by block: the rows of
    panel p's beams at gNB panel q's columns are W_ue,p^H H_pq, and zero
    where no path enters block (p, q).
    """
    n_t, pp = channel.n_t, ue_book.per_panel
    rows = np.zeros((ue_book.n_beams, 4 * n_t), dtype=complex)
    for p, q in _used_blocks(channel.block_dominant_bounces):
        rows[p * pp:(p + 1) * pp, q * n_t:(q + 1) * n_t] = (
            ue_book.weights.conj().T @ channel.blocks[p, q])
    return rows


def rsrp_table(rows: np.ndarray, dominant: np.ndarray, gnb_book: FullCodebook,
               ue_book: FullCodebook, p_ssb: float) -> np.ndarray:
    """RSRP of every (UE beam, gNB beam) pair, p_ssb * |w_c^H H w_p|^2, from
    the pair's combined rows R and dominant-bounce table, block by block
    like R; zero where no path enters the block."""
    n_t = rows.shape[1] // 4
    pu, pg = ue_book.per_panel, gnb_book.per_panel
    table = np.zeros((ue_book.n_beams, gnb_book.n_beams))
    for p, q in _used_blocks(dominant):
        coupling = (rows[p * pu:(p + 1) * pu, q * n_t:(q + 1) * n_t]
                    @ gnb_book.weights)
        table[p * pu:(p + 1) * pu, q * pg:(q + 1) * pg] = p_ssb * (
            coupling.real ** 2 + coupling.imag ** 2)
    return table


@dataclass(frozen=True, eq=False)
class Sweep:
    """One UE's swept beam pairs above the detection floor, as rank-ordered
    arrays (descending rsrp, ties by gnb, gnb_beam, ue_beam).

    ``len()`` counts the pairs; indexing builds the ``BeamPairLink`` at that
    rank, so link objects exist only for the pairs a caller reads.
    """

    ue: int
    rsrp: np.ndarray       # (n,) float, linear (W)
    gnb: np.ndarray        # (n,) int
    gnb_beam: np.ndarray   # (n,) int
    ue_beam: np.ndarray    # (n,) int
    is_los: np.ndarray     # (n,) bool

    def __len__(self) -> int:
        return len(self.rsrp)

    def __getitem__(self, i: int) -> BeamPairLink:
        i = range(len(self))[i]
        return BeamPairLink(ue=self.ue, gnb=int(self.gnb[i]),
                            gnb_beam=int(self.gnb_beam[i]),
                            ue_beam=int(self.ue_beam[i]),
                            rsrp=float(self.rsrp[i]),
                            is_los=bool(self.is_los[i]), candidate_rank=i + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sweep):
            return NotImplemented
        return self.ue == other.ue and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("rsrp", "gnb", "gnb_beam", "ue_beam", "is_los"))


def sweep(ue: int, bounces: dict, rows: dict, gnb_book: FullCodebook,
          ue_book: FullCodebook, p_ssb: float, noise_w: float,
          detection_floor_db: float = -10.0) -> Sweep:
    """Exhaustive sweep over all gNBs and beam pairs for one UE.

    ``bounces`` maps gNB -> the pair's 4x4 dominant-bounce table
    (``MultiPanelChannel.block_dominant_bounces``) and ``rows`` maps gNB ->
    the pair's combined rows R.  Returns every beam pair whose rsrp clears
    the detection floor (relative to noise), sorted by descending rsrp with
    deterministic tie-breaking.
    """
    floor_w = noise_w * 10 ** (detection_floor_db / 10.0)
    parts = []
    for gnb, dominant in sorted(bounces.items()):
        table = rsrp_table(rows[gnb], dominant, gnb_book, ue_book, p_ssb)
        ub, gb = np.nonzero(table >= floor_w)
        los = dominant[ue_book.panel[ub], gnb_book.panel[gb]] == 0
        parts.append((table[ub, gb], np.full(len(ub), gnb), gb, ub, los))
    # every realization has a gNB (NetworkConfig.validate), so parts is not
    # empty
    rsrp, gnb, gb, ub, los = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((ub, gb, gnb, -rsrp))
    return Sweep(ue=ue, rsrp=rsrp[order], gnb=gnb[order], gnb_beam=gb[order],
                 ue_beam=ub[order], is_los=los[order])
