"""Exhaustive SSB beam sweep and the initial strongest-BPL association."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def combined_rows(channel: MultiPanelChannel,
                  ue_book: FullCodebook) -> np.ndarray:
    """R = W_ue^H H: the combined row w_c^H H of every UE beam, (n_beams, 4 n_t)."""
    return ue_book.matrix.conj().T @ channel.full()


def rsrp_table(rows: np.ndarray, gnb_book: FullCodebook,
               p_ssb: float) -> np.ndarray:
    """RSRP of every (UE beam, gNB beam) pair, p_ssb * |w_c^H H w_p|^2, from
    the pair's combined rows R."""
    coupling = rows @ gnb_book.matrix
    return p_ssb * (coupling.real ** 2 + coupling.imag ** 2)


def sweep(ue: int, channels: dict, rows: dict, gnb_book: FullCodebook,
          ue_book: FullCodebook, p_ssb: float, noise_w: float,
          detection_floor_db: float = -10.0) -> list[BeamPairLink]:
    """Exhaustive sweep over all gNBs and beam pairs for one UE.

    ``channels`` maps gNB -> channel (None when the pair has no paths) and
    ``rows`` maps gNB -> the pair's combined rows R.  Returns every beam pair
    whose rsrp clears the detection floor (relative to noise), sorted by
    descending rsrp with deterministic tie-breaking, and with candidate
    ranks assigned.
    """
    floor_w = noise_w * 10 ** (detection_floor_db / 10.0)
    found: list[tuple] = []
    for gnb in sorted(channels):
        ch = channels[gnb]
        if ch is None:
            continue
        table = rsrp_table(rows[gnb], gnb_book, p_ssb)
        ue_beams, gnb_beams = np.nonzero(table >= floor_w)
        for ub, gb in zip(ue_beams.tolist(), gnb_beams.tolist()):
            p = ue_book.panel[ub]
            q = gnb_book.panel[gb]
            found.append((float(table[ub, gb]), gnb, gb, ub,
                          bool(ch.block_dominant_bounces[p, q] == 0)))
    found.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    return [BeamPairLink(ue=ue, gnb=gnb, gnb_beam=gb, ue_beam=ub, rsrp=rsrp,
                         is_los=los, candidate_rank=i + 1)
            for i, (rsrp, gnb, gb, ub, los) in enumerate(found)]


def initial_association(candidates: list[BeamPairLink]) -> Optional[BeamPairLink]:
    """Strongest swept BPL, or None when the UE is uncovered."""
    if not candidates:
        return None
    return candidates[0]  # sweep output is sorted by candidate_rank
