"""Link-quality evaluation: RSS, interference, SINR and throughput.

All metrics are evaluated against TRUE channels, also when the precoders
were designed from quantized estimates; that mismatch is exactly the
residual-interference effect under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import NetworkConfig


class BeamRows:
    """One gNB-UE pair's combined rows w_c^H H, kept only at the UE beams
    its UE's candidates can use (``allocation.read_beams``).

    ``matrix`` stacks the kept rows, (n_kept, 4 n_t) complex, all zeros
    when the pair has no paths; ``index`` maps a kept UE beam to its row
    and is shared by every pair of the UE.  ``rows[beam]`` is that beam's
    row; reading a beam that was not kept raises KeyError.  ``gain`` holds
    each kept row's squared norm, with the bits of ``np.vdot(row, row)``.
    """

    __slots__ = ("matrix", "index", "gain")

    def __init__(self, matrix: np.ndarray, index: dict):
        self.matrix = matrix
        self.index = index
        self.gain = np.array([np.vdot(r, r).real for r in matrix])

    def __getitem__(self, beam: int) -> np.ndarray:
        return self.matrix[self.index[beam]]


@dataclass
class LinkReport:
    """Per-UE outcome of one finalized allocation."""

    ue: int
    served: bool
    gnb: int                 # -1 when dropped
    gnb_beam: int
    ue_beam: int
    rss_w: float
    i_intra_w: float
    i_inter_w: float
    noise_w: float
    sinr_db: float
    inr_db: float
    snr_db: float
    rate_bps: float
    alloc_rank: int          # candidate_rank of the serving BPL; 0 when dropped
    is_los: bool
    is_handover: bool


def column_powers(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|R @ W|^2 entrywise; the common kernel of every power metric.

    Each row of a product over two or more rows has the same bits whatever
    the other rows are, while numpy runs a one-row product through gemv,
    whose last bits can differ: a lone row is multiplied inside a two-row
    product, so a row's powers never depend on the stack it is read in.
    """
    m = (np.vstack([rows, rows]) @ w)[:1] if len(rows) == 1 else rows @ w
    return m.real ** 2 + m.imag ** 2


def gnb_powers(state, rows: np.ndarray, own_rows=()) -> tuple:
    """Powers the precoder ``state`` puts on ``rows``: each row's
    p |r W|^2 summed over the columns, and for the c-th served UE, whose
    row is ``own_rows[c]``, its power in its own column c.  Every power
    the allocators and the reports read comes from here."""
    powers = state.p_per_ue * column_powers(rows, state.w_combined)
    if not own_rows:
        return powers.sum(axis=1), np.empty(0)
    own_rows = list(own_rows)
    return powers.sum(axis=1), powers[own_rows, range(len(own_rows))]


def throughput(sinr_db: float, cfg: NetworkConfig) -> float:
    """Attenuated, truncated Shannon rate mapping."""
    if sinr_db < cfg.sinr_min_db:
        return 0.0
    if sinr_db >= cfg.sinr_max_db:
        return cfg.r_max_bps
    sinr = 10 ** (sinr_db / 10.0)
    return cfg.alpha_loss * cfg.bandwidth_hz * math.log2(1.0 + sinr)


def evaluate_allocation(serving: dict, states: dict, rows: dict) -> dict:
    """Signal and interference powers of every allocated UE; ``states``
    holds the precoder of each gNB that serves a UE, and only those.

    Returns ue -> (rss_w, i_intra_w, i_inter_w).  A UE's inter-cell terms
    are added in ascending gNB order from 0.0, as the allocation engine
    adds them, so its SINRs are these bit for bit.
    """
    ues = sorted(serving)
    idx = {u: k for k, u in enumerate(ues)}
    out = {u: [0.0, 0.0, 0.0] for u in ues}
    for g in sorted(states):
        state = states[g]
        stacked = np.vstack([rows[(u, g)][serving[u].ue_beam] for u in ues])
        sums, own = gnb_powers(state, stacked, [idx[u] for u in state.served])
        sums = sums.tolist()
        for u, s in zip(state.served, own.tolist()):
            out[u][:2] = s, sums[idx[u]] - s
        # only the other gNBs' UEs: adding to all and subtracting the own
        # terms again would not be exact
        for u, s in zip(ues, sums):
            if serving[u].gnb != g:
                out[u][2] += s
    return {u: tuple(v) for u, v in out.items()}


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


def link_report(ue: int, bpl, powers: tuple, noise_w: float,
                cfg: NetworkConfig, initial_gnb: int,
                time_share: int = 1) -> LinkReport:
    rss_w, i_intra, i_inter = powers
    sinr = rss_w / (i_intra + i_inter + noise_w)
    inr = (i_intra + i_inter) / noise_w
    snr = rss_w / noise_w
    sinr_db = _db(sinr)
    rate = throughput(sinr_db, cfg) / max(time_share, 1)
    return LinkReport(
        ue=ue, served=True, gnb=bpl.gnb, gnb_beam=bpl.gnb_beam,
        ue_beam=bpl.ue_beam, rss_w=rss_w, i_intra_w=i_intra,
        i_inter_w=i_inter, noise_w=noise_w, sinr_db=sinr_db,
        inr_db=_db(inr), snr_db=_db(snr), rate_bps=rate,
        alloc_rank=bpl.candidate_rank, is_los=bpl.is_los,
        is_handover=(initial_gnb >= 0 and bpl.gnb != initial_gnb))


def dropped_report(ue: int, noise_w: float) -> LinkReport:
    return LinkReport(
        ue=ue, served=False, gnb=-1, gnb_beam=-1, ue_beam=-1,
        rss_w=0.0, i_intra_w=0.0, i_inter_w=0.0, noise_w=noise_w,
        sinr_db=-math.inf, inr_db=-math.inf, snr_db=-math.inf,
        rate_bps=0.0, alloc_rank=0, is_los=False, is_handover=False)


def network_report(serving: dict, states: dict, rows: dict,
                   cfg: NetworkConfig, n_ues: int,
                   initial_gnbs: dict) -> tuple[list[LinkReport], dict]:
    """Per-UE LinkReports plus an aggregate summary for one allocation."""
    powers = evaluate_allocation(serving, states, rows)
    reports = []
    for ue in range(n_ues):
        if ue in serving:
            reports.append(link_report(
                ue, serving[ue], powers[ue], cfg.noise_w, cfg,
                initial_gnbs.get(ue, -1)))
        else:
            reports.append(dropped_report(ue, cfg.noise_w))
    return reports, summarize(reports, cfg)


def summarize(reports: list[LinkReport], cfg: NetworkConfig) -> dict:
    """Aggregate statistics of one realization/mode report set."""
    n = len(reports)
    served = [r for r in reports if r.served]
    covered = [r for r in served if r.sinr_db >= cfg.sinr_min_db]
    # distribution statistics run over all deployed UEs; dropped UEs enter
    # at -inf SINR / zero rate, so coverage gains move the median
    sinrs = [r.sinr_db for r in reports]
    rank_hist: dict[int, int] = {}
    for r in served:
        rank_hist[r.alloc_rank] = rank_hist.get(r.alloc_rank, 0) + 1

    # plain additions in UE order: built-in sum is compensated from 3.12 on
    total = 0.0
    for r in reports:
        total += r.rate_bps

    def share(pred) -> float:
        return sum(1 for r in served if pred(r)) / len(served) if served else 0.0

    return {
        "n_ues": n,
        "n_served": len(served),
        "coverage": len(covered) / n if n else 0.0,
        "median_sinr_db": float(np.median(sinrs)) if sinrs else None,
        "median_rate_bps": (float(np.median([r.rate_bps for r in reports]))
                            if reports else None),
        "sum_throughput_bps": float(total),
        "bpl_rank_histogram": {str(k): rank_hist[k] for k in sorted(rank_hist)},
        "secondary_bpl_share": share(lambda r: r.alloc_rank > 1),
        "los_share": share(lambda r: r.is_los),
        "nlos_share": share(lambda r: not r.is_los),
        "handover_share": share(lambda r: r.is_handover),
        "intra_inr_pos_share": share(lambda r: r.i_intra_w > r.noise_w),
        "inter_inr_pos_share": share(lambda r: r.i_inter_w > r.noise_w),
    }
