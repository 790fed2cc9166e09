"""BPL allocation engines: default 5G-NR, distributed/centralized
interference-aware allocation, the branch-and-bound oracle, and CBF TDMA."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import metrics
from .beamsweep import BeamPairLink, Sweep
from .codebook import N_SEC, FullCodebook
from .errors import CapacityError, GuardRailError, RankDeficiencyError
from .metrics import column_powers
from .precoder import (GnbPrecoderState, compose, dbf_from_rows, rf_stage,
                       zf_stage)
from .scenario import NetworkConfig


class AllocMode(str, Enum):
    FIVEG_NR = "5gnr"
    DIABA = "diaba"
    CIABA = "ciaba"
    ORACLE = "oracle"
    DBF_5GNR = "dbf"
    CBF_TDMA = "cbf-tdma"


@dataclass
class CandidateSet:
    """RSS-sorted candidate BPLs a UE may monitor, truncated to n_csi_rs."""

    ue: int
    bpls: list


@dataclass
class Allocation:
    """Finalized network-wide allocation with per-gNB precoder state."""

    serving: dict                    # ue -> BeamPairLink
    per_gnb: dict                    # gnb -> ordered served UE list
    mode: AllocMode
    states: dict = field(default_factory=dict)        # gnb -> GnbPrecoderState
    initial_gnbs: dict = field(default_factory=dict)  # ue -> initial-association gNB


@dataclass
class AllocationInputs:
    """Everything the allocators consume for one realization."""

    cfg: NetworkConfig
    n_gnbs: int
    n_ues: int
    sweeps: dict                     # ue -> beamsweep.Sweep
    monitored: dict                  # ue -> (dIABA, cIABA) candidate_ranks
    true_rows: dict                  # (ue, gnb) -> metrics.BeamRows of
                                     # R = W_ue^H H at the UE's read_beams
    est_rows: dict                   # same, against the estimated channels;
                                     # a pair may be built on first read
    gnb_book: FullCodebook


def candidate_ranks(sweep_result: Sweep, n_csi_rs) -> tuple:
    """Sweep ranks (0-based) of the BPLs a UE monitors: on its initial gNB,
    the one of its strongest BPL (dIABA), and network-wide (cIABA); at most
    ``n_csi_rs`` of each.

    One monitored BPL per transmit beam: a CSI-RS resource tracks a gNB
    beam, and the UE receives it with its best RX beam; weaker RX beams of
    an already-listed TX beam are duplicates, not alternatives.
    """
    gnb, gnb_beam = sweep_result.gnb, sweep_result.gnb_beam
    key = gnb * (int(gnb_beam.max(initial=0)) + 1) + gnb_beam
    ranks = np.sort(np.unique(key, return_index=True)[1])
    local = ranks[gnb[ranks] == gnb[0]] if len(ranks) else ranks
    limit = int(n_csi_rs) if math.isfinite(n_csi_rs) else None
    return local[:limit], ranks[:limit]


def build_candidates(inputs: AllocationInputs, ue: int,
                     mode: AllocMode) -> CandidateSet:
    """Monitored-BPL set per allocation mode: 5G-NR, DBF and CBF-TDMA
    monitor only the strongest BPL, dIABA its UE's candidates on the
    initial gNB, cIABA and the oracle those network-wide."""
    local, network = inputs.monitored[ue]
    if mode is AllocMode.DIABA:
        ranks = local
    elif mode in (AllocMode.CIABA, AllocMode.ORACLE):
        ranks = network
    else:
        ranks = network[:1]
    sweep_result = inputs.sweeps[ue]
    return CandidateSet(ue=ue, bpls=[sweep_result[i] for i in ranks.tolist()])


def read_beams(sweep_result: Sweep, monitored: tuple) -> np.ndarray:
    """Sorted UE beams any allocator may read for this UE: those of its
    monitored BPLs, the ``candidate_ranks`` pair.

    Padded with beams 0 and 1 to at least two: in a product over two or
    more rows each row has the bits it has in a product over all UE beams,
    while a single row goes through gemv, whose last bit can differ.
    """
    beams = np.unique(sweep_result.ue_beam[np.concatenate(monitored)])
    return beams if len(beams) >= 2 else np.union1d(beams, [0, 1])


def gnb_precoder_state(inputs: AllocationInputs, gnb: int, ues: list,
                       serving: dict, use_dbf: bool) -> GnbPrecoderState:
    """Precoder of one gNB for its ordered served UEs (``serving`` maps each
    to its BPL), designed on the estimated rows.

    HBF fixes one RF column per UE to its serving beam and zero-forces the
    effective channel w_c^H H_hat W_RF; DBF zero-forces the rows directly.
    Raises CapacityError or RankDeficiencyError when the set is infeasible.
    """
    bpls = [serving[u] for u in ues]
    est = np.array([inputs.est_rows[(u, gnb)][b.ue_beam]
                    for u, b in zip(ues, bpls)])
    if use_dbf:
        w_rf = w_bb = None
        w = dbf_from_rows(est, ues)
    else:
        w_rf = rf_stage(bpls, inputs.gnb_book, inputs.cfg.n_rf_gnb_sec)
        # a stack of one-row products, each a gemv as ``row @ w_rf`` is: a
        # single (n, 4 n_t) @ w_rf gemm changes the bits
        hbar = np.matmul(est[:, None, :], w_rf)[:, 0, :]
        w_bb = zf_stage(hbar, ues, w_rf)
        w = compose(w_rf, w_bb)
    return GnbPrecoderState(gnb=gnb, served=list(ues), w_rf=w_rf, w_bb=w_bb,
                            w_combined=w, p_per_ue=inputs.cfg.p_max_w / len(ues))


# relative slack on the oracle's bounds: a unit-norm column is unit-norm,
# and a sum of powers or rates is order-independent, only to a few ulps
_BOUND_MARGIN = 1e-9
# the ZF screen keeps a bound only where cond_F(H) = ||H||_F ||H^-1||_F, an
# upper bound on cond_2, is at most this: the full build inverts the Gram
# matrix H H^H, so its relative error there is about cond^2 eps ~ 2e-8
_ZF_COND_MAX = 1e4
# relative slack on the ZF screen's bound, about 450 times that error
_ZF_MARGIN = 1e-5


class _Engine:
    """Allocation state with per-UE SINR bookkeeping.

    Signal/intra/inter powers are tracked per UE.  A gNB change is first
    computed without touching the state (``_gnb_powers``,
    ``_inter_caused``, ``_inter_seen``); ``_apply`` is the only writer of a
    gNB's precoder and of the powers it contributes, so a tentative add
    leaves nothing to roll back.  The ``inter_vec`` memo holds only until
    a gNB's precoder changes: ``_apply`` clears its entries.
    ``_book_gram`` is B^H B for the gNB codebook B, which ``zf_bounds``
    reads.
    """

    def __init__(self, inputs: AllocationInputs, use_dbf: bool):
        cfg = inputs.cfg
        self.inputs = inputs
        self.use_dbf = use_dbf
        self.noise = cfg.noise_w
        self.p_max = cfg.p_max_w
        self.sinr_min_lin = 10 ** (cfg.sinr_min_db / 10.0)
        self.n_rf_total = 4 * cfg.n_t if use_dbf else cfg.n_rf_gnb
        self.serving: dict[int, BeamPairLink] = {}
        self.per_gnb: dict[int, list[int]] = {g: [] for g in range(inputs.n_gnbs)}
        self.states: dict[int, Optional[GnbPrecoderState]] = {
            g: None for g in range(inputs.n_gnbs)}
        self.sig: dict[int, float] = {}
        self.intra: dict[int, float] = {}
        self.inter: dict[int, dict[int, float]] = {}
        # gnb -> ue -> inter_vec; _apply clears a gNB's entries
        self._inter_memo: dict = {g: {} for g in range(inputs.n_gnbs)}
        # B has one block per panel, the same on every panel
        weights = inputs.gnb_book.weights
        self._book_gram = np.kron(np.eye(N_SEC), weights.conj().T @ weights)
        self._panel_of = inputs.gnb_book.panel.tolist()   # gNB beam -> panel
        # (gnb, panel) -> number of UEs served on it; commit and _drop keep
        # it current
        self._panel_load: Counter = Counter()

    # -- capacity -------------------------------------------------------

    def _panel(self, bpl: BeamPairLink) -> tuple:
        return bpl.gnb, self._panel_of[bpl.gnb_beam]

    def capacity_ok(self, bpl: BeamPairLink) -> bool:
        if len(self.per_gnb[bpl.gnb]) + 1 > self.n_rf_total:
            return False
        if self.use_dbf:
            return True
        return (self._panel_load[self._panel(bpl)] + 1
                <= self.inputs.cfg.n_rf_gnb_sec)

    # -- state-free power terms -------------------------------------------

    def _gnb_powers(self, g: int, ues: list, serving: dict) -> tuple:
        """Precoder of gNB ``g`` for ``ues`` (their BPLs in ``serving``) and
        each member's (signal, intra) power; raises Capacity/RankDeficiency."""
        state = gnb_precoder_state(self.inputs, g, ues, serving, self.use_dbf)
        rows = np.array([self.inputs.true_rows[(u, g)][serving[u].ue_beam]
                         for u in ues])
        powers = state.p_per_ue * column_powers(rows, state.w_combined)
        sums = powers.sum(axis=1)
        return state, {u: (float(powers[i, i]), float(sums[i] - powers[i, i]))
                       for i, u in enumerate(ues)}

    def _inter_caused(self, g: int, state: GnbPrecoderState) -> dict:
        """Interference ``state`` on gNB ``g`` causes each UE another gNB
        serves, in serving order."""
        others = [u for u, b in self.serving.items() if b.gnb != g]
        if not others:
            return {}
        rows = np.vstack([self.inputs.true_rows[(u, g)][self.serving[u].ue_beam]
                          for u in others])
        contrib = (state.p_per_ue *
                   column_powers(rows, state.w_combined)).sum(axis=1)
        return {u: float(c) for u, c in zip(others, contrib)}

    def _pos(self, bpl: BeamPairLink) -> int:
        """Position of ``bpl``'s UE beam in its UE's kept rows."""
        return self.inputs.true_rows[(bpl.ue, bpl.gnb)].index[bpl.ue_beam]

    def _inter_seen(self, bpl: BeamPairLink) -> dict:
        """Interference every other active gNB causes ``bpl``'s UE beam."""
        pos = self._pos(bpl)
        return {g: float(self.inter_vec(bpl.ue, g)[pos])
                for g in range(self.inputs.n_gnbs)
                if g != bpl.gnb and self.states[g] is not None}

    def inter_vec(self, ue: int, gnb: int) -> np.ndarray:
        """Interference the active gNB's current precoder causes this UE, for
        every kept UE beam at once, by position in the UE's kept rows
        (memoized until the precoder changes)."""
        memo = self._inter_memo[gnb]
        vec = memo.get(ue)
        if vec is None:
            state = self.states[gnb]
            vec = memo[ue] = state.p_per_ue * column_powers(
                self.inputs.true_rows[(ue, gnb)].matrix,
                state.w_combined).sum(axis=1)
        return vec

    def _inter_bounds(self, ue: int, bpls: list) -> list:
        """Interference the other active gNBs cause each candidate's UE
        beam: exact already, as their precoders do not change on a
        tentative add."""
        vecs = {g: self.inter_vec(ue, g) for g in range(self.inputs.n_gnbs)
                if self.states[g] is not None}
        total = sum(vecs.values())
        out = []
        for b in bpls:
            inter = 0.0
            if vecs:
                pos = self._pos(b)
                inter = float(total[pos])
                if b.gnb in vecs:
                    inter -= float(vecs[b.gnb][pos])
            out.append(inter)
        return out

    def candidate_bounds(self, ue: int, bpls: list, inters: list) -> list:
        """Upper bound on each candidate's own linear SINR if added now;
        ``inters`` are their ``_inter_bounds``.

        On a gNB already serving n UEs the candidate gets P_max/(n+1) on a
        unit-norm column, so its signal power is at most
        P_max/(n+1) ||w_c^H H||^2 over noise plus its inter-cell power.
        """
        bounds = []
        for b, inter in zip(bpls, inters):
            rows = self.inputs.true_rows[(ue, b.gnb)]
            gain = float(rows.gain[rows.index[b.ue_beam]])
            snr = self.p_max * gain / self.noise
            share = len(self.per_gnb[b.gnb]) + 1
            bounds.append(snr / share * self.noise / (self.noise + inter))
        return bounds

    def zf_bounds(self, ue: int, g: int, bpls: list, inters: list) -> list:
        """Upper bound on the own linear SINR ``try_candidate`` would give
        each of ``ue``'s candidates on gNB ``g``, from the ZF the full build
        solves; inf where there is no certified one.  ``inters`` are their
        ``_inter_bounds``.

        With B the codebook and E the estimated rows of the n members, then
        the candidate, H = E B[:, member beams + candidate beam] is the full
        build's H_bar.  Its ZF column is W_rf v / ||W_rf v|| with v =
        H^-1 e_last and ||W_rf v||^2 = v^H G v, G the Gram matrix of those
        beams, so the signal is P_max/(n+1) |t|^2 / v^H G v with t the true
        row times W_rf v, over noise plus the inter-cell bound: intra-cell
        power is never negative.  One product over the members' and the k
        candidates' rows and beams and one batched inverse serve all
        candidates.  On a gNB with no members, v = 1/H cancels and the bound
        is the lone UE's own SINR, P_max |r b|^2 / ||b||^2 over noise plus
        the inter-cell power, so E is read as the true rows there and no
        estimated pair is built.  There is no bound where the members repeat
        a serving beam, for a candidate on a member's beam (H is singular),
        for a singular stack, or for an H with cond_F = ||H||_F ||H^-1||_F
        above ``_ZF_COND_MAX``.
        """
        out = np.full(len(bpls), math.inf)
        members = self.per_gnb[g]
        n = len(members)
        beams = [self.serving[u].gnb_beam for u in members]
        if len(set(beams)) < n:
            return out.tolist()
        keep = [j for j, b in enumerate(bpls) if b.gnb_beam not in beams]
        if not keep:
            return out.tolist()
        cands = [bpls[j] for j in keep]
        est = self.inputs.est_rows if n else self.inputs.true_rows
        pair = est[(ue, g)]
        rows = np.array([est[(u, g)][self.serving[u].ue_beam] for u in members]
                        + [pair[b.ue_beam] for b in cands])
        sel = np.array(beams + [b.gnb_beam for b in cands])
        w = self.inputs.gnb_book.matrix[:, sel]
        c = rows @ w
        # candidate j's rows and columns of c: the members', then n + j
        k = len(cands)
        pos = np.empty((k, n + 1), dtype=int)
        pos[:, :n] = np.arange(n)
        pos[:, n] = n + np.arange(k)
        h = c[pos[:, :, None], pos[:, None, :]]
        cols = sel[pos]
        gram = self._book_gram[cols[:, :, None], cols[:, None, :]]
        if est is self.inputs.true_rows:
            c_true = c[n:]
        else:
            pair = self.inputs.true_rows[(ue, g)]
            c_true = np.array([pair[b.ue_beam] for b in cands]) @ w
        try:
            inv = np.linalg.inv(h)
        except np.linalg.LinAlgError:
            return out.tolist()
        inter = np.array([inters[j] for j in keep])
        with np.errstate(all="ignore"):
            cond = (np.linalg.norm(h, axis=(1, 2))
                    * np.linalg.norm(inv, axis=(1, 2)))
            v = inv[:, :, n]
            quad = np.einsum("ki,kij,kj->k", v.conj(), gram, v).real
            t = (c_true[np.arange(k)[:, None], pos] * v).sum(axis=1)
            bound = (self.p_max / (n + 1) * (t.real ** 2 + t.imag ** 2)
                     / quad / (self.noise + inter))
            ok = (cond <= _ZF_COND_MAX) & (quad > 0) & np.isfinite(bound)
        out[np.array(keep)[ok]] = bound[ok]
        return out.tolist()

    def _sinr(self, sig_intra: tuple, inter: dict) -> float:
        sig, intra = sig_intra
        return sig / (intra + sum(inter.values()) + self.noise)

    def sinr_lin(self, ue: int) -> float:
        return self._sinr((self.sig[ue], self.intra[ue]), self.inter[ue])

    # -- checks and changes -------------------------------------------------

    def try_candidate(self, bpl: BeamPairLink, check_network_wide: bool,
                      floor: float) -> Optional[tuple]:
        """The candidate's own linear SINR if it were added now, when that
        beats ``floor`` and no checked UE would fall below the threshold,
        with its gNB's precoder and powers for ``commit``; else None.
        Nothing is written.  The checks run in stages, each only if the one
        before passes: the candidate itself, then its gNB's other members,
        then (network-wide) every UE another gNB serves.  The caller has
        checked ``capacity_ok``.
        """
        g, ue = bpl.gnb, bpl.ue
        thresh = self.sinr_min_lin
        members = self.per_gnb[g]
        try:
            state, powers = self._gnb_powers(g, members + [ue],
                                             {**self.serving, ue: bpl})
        except (RankDeficiencyError, CapacityError):
            return None
        own = self._sinr(powers[ue], self._inter_seen(bpl))
        # the caller keeps only a feasible candidate above its incumbent
        if own < thresh or own <= floor:
            return None
        if any(self._sinr(powers[u], self.inter[u]) < thresh for u in members):
            return None
        if check_network_wide:
            for u, c in self._inter_caused(g, state).items():
                # g keeps its place in u's interference sum, or joins last
                inter = dict(self.inter[u])
                inter[g] = c
                if self._sinr((self.sig[u], self.intra[u]), inter) < thresh:
                    return None
        return own, state, powers

    def _apply(self, g: int, state: Optional[GnbPrecoderState],
               powers: dict) -> None:
        """Install gNB ``g``'s precoder (None when it serves nobody), its
        members' (signal, intra) powers and the interference it causes the
        UEs of the other gNBs."""
        self.states[g] = state
        self._inter_memo[g] = {}
        for u, (s, i) in powers.items():
            self.sig[u] = s
            self.intra[u] = i
        if state is None:
            for d in self.inter.values():
                d.pop(g, None)
        else:
            for u, c in self._inter_caused(g, state).items():
                self.inter[u][g] = c

    def commit(self, bpl: BeamPairLink, built: Optional[tuple] = None) -> bool:
        """Allocate for real; returns False (state unchanged) on failure.
        ``built`` is the (precoder, powers) ``try_candidate`` gave for
        ``bpl`` on the present state, if it ran."""
        if not self.capacity_ok(bpl):
            return False
        g, ue = bpl.gnb, bpl.ue
        if built is None:
            try:
                built = self._gnb_powers(g, self.per_gnb[g] + [ue],
                                         {**self.serving, ue: bpl})
            except (RankDeficiencyError, CapacityError):
                return False
        state, powers = built
        self.serving[ue] = bpl
        self.per_gnb[g].append(ue)
        self._panel_load[self._panel(bpl)] += 1
        self.inter[ue] = self._inter_seen(bpl)
        self._apply(g, state, powers)
        return True

    def _drop(self, ue: int) -> int:
        """Unserve one UE, leaving its gNB to be recomputed; returns it."""
        bpl = self.serving.pop(ue)
        g = bpl.gnb
        self.per_gnb[g].remove(ue)
        self._panel_load[self._panel(bpl)] -= 1
        del self.sig[ue], self.intra[ue], self.inter[ue]
        return g

    def remove_many(self, ues: list) -> None:
        for g in sorted({self._drop(u) for u in ues}):
            state, powers = None, {}
            while self.per_gnb[g]:
                try:
                    state, powers = self._gnb_powers(g, self.per_gnb[g],
                                                     self.serving)
                    break
                except RankDeficiencyError:
                    # borderline-conditioned survivor set; shed the weakest
                    # link on this gNB until the ZF rebuild is solvable
                    self._drop(min(self.per_gnb[g],
                                   key=lambda u: (self.serving[u].rsrp, -u)))
            self._apply(g, state, powers)

    def to_allocation(self, mode: AllocMode, initial_gnbs: dict) -> Allocation:
        return Allocation(serving=dict(self.serving),
                          per_gnb={g: list(l) for g, l in self.per_gnb.items()
                                   if l},
                          mode=mode,
                          states={g: s for g, s in self.states.items()
                                  if s is not None},
                          initial_gnbs=initial_gnbs)


def _ue_order(sweeps: dict) -> list:
    """UEs in descending order of their strongest swept RSRP."""
    covered = [(u, float(c.rsrp[0])) for u, c in sweeps.items() if len(c)]
    covered.sort(key=lambda t: (-t[1], t[0]))
    return [u for u, _ in covered]


def _initial_gnbs(sweeps: dict) -> dict:
    return {u: int(c.gnb[0]) for u, c in sweeps.items() if len(c)}


def _enforce_coverage(engine: _Engine, inputs: AllocationInputs) -> None:
    """Drop UEs until every allocated UE satisfies the coverage constraint.

    Uses the from-scratch evaluation that reporting uses, so finalized
    allocations are consistent with the emitted SINRs.
    """
    thresh = 10 ** (inputs.cfg.sinr_min_db / 10.0)
    while engine.serving:
        powers = metrics.evaluate_allocation(engine.serving, engine.states,
                                             inputs.true_rows)
        viol = [u for u, (s, ia, ie) in powers.items()
                if s / (ia + ie + engine.noise) < thresh]
        if not viol:
            break
        engine.remove_many(viol)


def allocate_5gnr(inputs: AllocationInputs,
                  use_dbf: bool = False) -> Allocation:
    """Interference-agnostic baseline: everyone gets their strongest BPL.

    Admissions can push previously allocated UEs below the coverage
    threshold; such UEs are dropped and never revisited.
    """
    mode = AllocMode.DBF_5GNR if use_dbf else AllocMode.FIVEG_NR
    engine = _Engine(inputs, use_dbf=use_dbf)
    initial = _initial_gnbs(inputs.sweeps)
    for ue in _ue_order(inputs.sweeps):
        cands = build_candidates(inputs, ue, mode)
        if not engine.commit(cands.bpls[0]):
            continue
        # the new admission reshapes its gNB's precoder and radiates into
        # every cell; any allocated link that sinks below the threshold is
        # dropped immediately and never revisited
        thresh = engine.sinr_min_lin
        while True:
            viol = [u for u in list(engine.serving)
                    if engine.sinr_lin(u) < thresh]
            if not viol:
                break
            engine.remove_many(viol)
    _enforce_coverage(engine, inputs)
    return engine.to_allocation(mode, initial)


def allocate_iaba(inputs: AllocationInputs, mode: AllocMode) -> Allocation:
    """Interference-aware allocation, distributed or centralized.

    Each UE scans its monitored candidates; a candidate is provisionally
    feasible only if no already-allocated link (serving gNB only for the
    distributed variant, network-wide for the centralized one) would drop
    below the coverage threshold.  The feasible candidate with the highest
    own SINR is committed.

    The scan runs in descending order of ``candidate_bounds`` and stops at
    the first candidate whose bound cannot reach the threshold or beat the
    incumbent.  It skips, without building a precoder, a candidate whose
    ``zf_bounds`` cannot either: the own SINR of the ZF the full build
    would solve, from one (n+1)x(n+1) beam-space system per candidate
    instead of a 4 n_t-row build, exact on a gNB with no members.  That
    bound is used only where the system's condition number is certified
    small (``_ZF_COND_MAX``), with the slack ``_ZF_MARGIN``; elsewhere the
    candidate gets the full try.  Skipped candidates would be rejected, so
    the scan commits what the full scan commits.  A gNB's ZF bounds are
    computed together, when the scan first reaches one of its candidates,
    for those whose ``candidate_bounds`` do not already rule them out.
    Each candidate's inter-cell interference is computed once per scan.
    """
    if mode not in (AllocMode.DIABA, AllocMode.CIABA):
        raise ValueError(f"allocate_iaba expects an IABA mode, got {mode}")
    network_wide = mode is AllocMode.CIABA
    engine = _Engine(inputs, use_dbf=False)
    initial = _initial_gnbs(inputs.sweeps)
    for ue in _ue_order(inputs.sweeps):
        cands = build_candidates(inputs, ue, mode)
        best = None                      # (bpl, (precoder, powers))
        best_sinr = -math.inf

        def loses(bound: float) -> bool:
            """Whether ``bound`` rules its candidate out at ``best_sinr``;
            true again at any later, higher ``best_sinr``."""
            return bound < engine.sinr_min_lin or bound <= best_sinr

        bpls = [b for b in cands.bpls if engine.capacity_ok(b)]
        inters = engine._inter_bounds(ue, bpls)
        bounds = engine.candidate_bounds(ue, bpls, inters)
        zfs: dict = {}                   # candidate index -> ZF bound
        on_gnb: dict = {}                # gNB -> its candidates' indices
        for j, b in enumerate(bpls):
            on_gnb.setdefault(b.gnb, []).append(j)
        # Scanning in descending bound order lets the loop stop as soon as
        # no remaining candidate can beat the incumbent or the threshold.
        for i in sorted(range(len(bpls)), key=lambda i: -bounds[i]):
            bpl = bpls[i]
            if loses(bounds[i]):
                break
            if i not in zfs:
                # the scan first reaches this gNB; its candidates left out
                # here lose already, so the scan stops before them
                live = [j for j in on_gnb[bpl.gnb] if not loses(bounds[j])]
                zfs.update(zip(live, engine.zf_bounds(
                    ue, bpl.gnb, [bpls[j] for j in live],
                    [inters[j] for j in live])))
            # skip, not stop: the order and its tie rule stay the same
            if loses(zfs[i] * (1.0 + _ZF_MARGIN)):
                continue
            tried = engine.try_candidate(bpl, check_network_wide=network_wide,
                                         floor=best_sinr)
            if tried is not None:
                best_sinr = tried[0]
                best = bpl, tried[1:]
        if best is not None:
            engine.commit(*best)
    _enforce_coverage(engine, inputs)
    return engine.to_allocation(mode, initial)


ORACLE_MAX_UES = 6
ORACLE_MAX_GNBS = 3
ORACLE_MAX_CANDIDATES = 4


def allocate_oracle(inputs: AllocationInputs) -> Allocation:
    """Branch-and-bound search over every BPL assignment, with the same
    result as exhaustive search (guard-railed).

    Each UE takes one of its monitored candidates or is dropped.  Returns
    the assignment satisfying all constraints with the highest sum
    throughput, lexicographically first on ties: the one scoring every
    assignment in ``itertools.product`` order would keep.
    """
    if inputs.n_gnbs > ORACLE_MAX_GNBS:
        raise GuardRailError(f"oracle limited to {ORACLE_MAX_GNBS} gNBs")
    if inputs.n_ues > ORACLE_MAX_UES:
        raise GuardRailError(f"oracle limited to {ORACLE_MAX_UES} UEs")
    initial = _initial_gnbs(inputs.sweeps)
    options: list[list] = []
    ue_ids = sorted(inputs.sweeps)
    for ue in ue_ids:
        cands = build_candidates(inputs, ue, AllocMode.ORACLE)
        if len(cands.bpls) > ORACLE_MAX_CANDIDATES:
            raise GuardRailError(
                f"oracle limited to {ORACLE_MAX_CANDIDATES} candidates per UE")
        options.append(cands.bpls + [None])

    best = _OracleScorer(inputs, ue_ids, options).search()
    serving = {}
    per_gnb: dict[int, list[int]] = {}
    for ue, opts, k in zip(ue_ids, options, best):
        if opts[k] is not None:
            serving[ue] = opts[k]
            per_gnb.setdefault(opts[k].gnb, []).append(ue)
    # gnb_precoder_state is deterministic: these are the precoders scored
    states = {g: gnb_precoder_state(inputs, g, ues, serving, use_dbf=False)
              for g, ues in per_gnb.items()}
    return Allocation(serving=serving, per_gnb=per_gnb, mode=AllocMode.ORACLE,
                      states=states, initial_gnbs=initial)


class _OracleScorer:
    """Sum throughput of the oracle's assignments from per-gNB power terms.

    An assignment (a ``choice``) picks one index into each UE's options:
    its candidate BPLs, then None for dropped.  A gNB's precoder depends
    only on the UEs it serves and their BPLs, so each distinct (gNB,
    sub-assignment) is built once and kept as compact power terms; every
    assignment is then scored from those, adding up the powers in the
    order of ``metrics.evaluate_allocation``, so each rate is the one it
    would give.

    ``search`` walks the assignments depth first, one UE per level, and
    scores only those whose prefix bounds say they may beat the best so
    far.
    """

    def __init__(self, inputs: AllocationInputs, ue_ids: list,
                 options: list):
        cfg = inputs.cfg
        self.inputs = inputs
        self.ue_ids = ue_ids
        self.options = options
        self.noise = cfg.noise_w
        self.thresh = 10 ** (cfg.sinr_min_db / 10.0)
        self.n_rf_sec = cfg.n_rf_gnb_sec
        # gnb_of[i][k]: gNB of UE i's option k (-1 for dropped); panel_of:
        # its panel (None for dropped); mark[i][k]: its 3-bit digit (at most
        # ORACLE_MAX_CANDIDATES + 1 options) in the code of the
        # sub-assignment of the gNB serving it
        panel = inputs.gnb_book.panel
        self.gnb_of = [[-1 if b is None else b.gnb for b in opts]
                       for opts in options]
        self.panel_of = [[None if b is None else int(panel[b.gnb_beam])
                          for b in opts] for opts in options]
        self.mark = [[(k + 1) << (3 * i) for k in range(len(opts))]
                     for i, opts in enumerate(options)]
        # stack[g]: gNB g's kept rows of every UE, in UE order; row[i][k]:
        # the stack row of UE i's option k (0 for dropped, never read).  A
        # UE keeps the same beams on every gNB, so rows line up across gNBs.
        rows = inputs.true_rows
        self.stack = [np.vstack([rows[(u, g)].matrix for u in ue_ids])
                      if ue_ids else None for g in range(inputs.n_gnbs)]
        self.row, start = [], 0
        for u, opts in zip(ue_ids, options):
            index = rows[(u, 0)].index
            self.row.append([0 if b is None else start + index[b.ue_beam]
                             for b in opts])
            start += len(index)
        # ceiling[i][k][n - 1]: a bound on UE i's throughput on option k
        # while its gNB serves n UEs (None: its SINR cannot reach the
        # threshold); rest[d]: the sum of the best ceilings alone of UEs d
        # and after (0 for a UE that can only be dropped)
        self.ceiling = [[None if b is None else self._ceilings(b, len(options))
                         for b in opts] for opts in options]
        best_alone = [max([0.0] + [c[0] for c in cs if c and c[0] is not None])
                      for cs in self.ceiling]
        self.rest = [sum(best_alone[d:]) for d in range(len(options) + 1)]
        self.terms: dict = {}      # (gnb, code) -> _gnb_terms(...)

    def _ceilings(self, bpl: BeamPairLink, n_max: int) -> list:
        """Throughput bound of ``bpl`` on a gNB serving 1..n_max UEs: the
        most ``metrics.throughput`` gives at an SINR of at most the SNR s of
        p_max / n on a unit-norm column, |r w|^2 <= ||r||^2.

        ``throughput`` is not monotone: alpha B log2(1 + SINR) may pass
        r_max_bps below sinr_max_db, where the cap cuts it back, so every
        s at or past sinr_max_db takes the larger of the two.  A leaf's
        SINR may round a few ulps above s, so the threshold and the cap
        tests see s with the margin; ``_total_bound`` inflates the sum.
        """
        cfg = self.inputs.cfg
        rows = self.inputs.true_rows[(bpl.ue, bpl.gnb)]
        gain = float(rows.gain[rows.index[bpl.ue_beam]])
        snr = cfg.p_max_w * gain / self.noise
        shannon = cfg.alpha_loss * cfg.bandwidth_hz
        s_max = 10 ** (cfg.sinr_max_db / 10.0)
        peak = max(cfg.r_max_bps, shannon * math.log2(1.0 + s_max))
        out = []
        for n in range(1, n_max + 1):
            s = snr / n
            s_up = s * (1.0 + _BOUND_MARGIN)
            if s_up < self.thresh:
                out.append(None)
            elif s_up >= s_max:
                out.append(peak)
            else:
                out.append(shannon * math.log2(1.0 + max(s, self.thresh)))
        return out

    def _gnb_bound(self, members: list) -> Optional[float]:
        """Bound on the summed throughput of the (UE, option) ``members``
        one gNB serves so far; None when they already fail ``rf_stage``
        (a panel over its RF chains) or a UE's threshold.

        Interference is never negative and a gNB's load only grows, so a
        member's throughput is at most its ``ceiling`` at the present load.
        """
        n = len(members)
        if n > self.n_rf_sec:
            panels = [self.panel_of[i][k] for i, k in members]
            if max(map(panels.count, panels)) > self.n_rf_sec:
                return None
        total = 0.0
        for i, k in members:
            ceiling = self.ceiling[i][k][n - 1]
            if ceiling is None:
                return None
            total += ceiling
        return total

    def _total_bound(self, depth: int, sums: list) -> Optional[float]:
        """The bound of a prefix of ``depth`` UEs whose gNBs' bounds are
        ``sums``: a UE not yet placed adds at most its best ceiling alone."""
        if None in sums:
            return None
        return (self.rest[depth] + sum(sums)) * (1.0 + _BOUND_MARGIN)

    def search(self) -> tuple:
        """The best choice: the first of the highest rate in product order.

        Leaves are visited in product order and a leaf replaces the best
        only with a higher rate, so skipping subtrees whose bound cannot
        beat the best keeps the exhaustive winner.
        """
        best = [-1.0, ()]                        # rate, choice
        self._descend([], [[] for _ in range(self.inputs.n_gnbs)],
                      [0.0] * self.inputs.n_gnbs, best)
        return best[1]

    def _descend(self, prefix: list, members: list, sums: list,
                 best: list) -> None:
        """Search below ``prefix``; ``members[g]`` holds the (i, k) it
        places on gNB g and ``sums[g]`` their ``_gnb_bound``."""
        i = len(prefix)
        if i == len(self.options):
            rate = self.rate(tuple(prefix))
            if rate is not None and rate > best[0]:
                best[:] = rate, tuple(prefix)
            return
        for k, g in enumerate(self.gnb_of[i]):
            prefix.append(k)
            if g >= 0:
                members[g].append((i, k))
                kept, sums[g] = sums[g], self._gnb_bound(members[g])
            bound = self._total_bound(i + 1, sums)
            if bound is not None and bound > best[0]:
                self._descend(prefix, members, sums, best)
            if g >= 0:
                members[g].pop()
                sums[g] = kept
            prefix.pop()

    def _gnb_terms(self, gnb: int, choice: tuple) -> Optional[tuple]:
        """Power terms of ``gnb``'s precoder for the UEs ``choice`` puts on
        it; None when the set is infeasible.

        Returns ``(powers, own, alone)``: ``powers[row[i][k]]`` is the power
        the precoder puts on UE i through the UE beam of its option k,
        summed over the columns; ``own[c]`` is the c-th served UE's power in
        its own column at its serving beam; ``alone`` is that power from a
        one-row product when the gNB serves one UE, else None.

        ``metrics.evaluate_allocation`` stacks one row per served UE of the
        network before the product.  With two or more rows numpy runs gemm,
        and each row's bits equal those of the stack used here
        (``read_beams`` keeps at least two rows per UE); a single row goes
        through gemv, whose last bit can differ, so an assignment that
        serves one UE reads ``alone``.
        """
        served = [i for i, k in enumerate(choice)
                  if self.gnb_of[i][k] == gnb]
        ues = [self.ue_ids[i] for i in served]
        serving = {self.ue_ids[i]: self.options[i][choice[i]] for i in served}
        try:
            state = gnb_precoder_state(self.inputs, gnb, ues, serving,
                                       use_dbf=False)
        except (CapacityError, RankDeficiencyError):
            return None
        w, p = state.w_combined, state.p_per_ue
        own_rows = [self.row[i][choice[i]] for i in served]
        cols = p * column_powers(self.stack[gnb], w)
        # array("d") keeps the cached terms compact, at 8 bytes a power
        powers = array("d", cols.sum(axis=1).tolist())
        own = array("d", cols[own_rows, range(len(served))].tolist())
        alone = None
        if len(served) == 1:
            row = self.stack[gnb][own_rows]
            alone = float((p * column_powers(row, w))[0, 0])
        return powers, own, alone

    def rate(self, choice: tuple) -> Optional[float]:
        """Sum throughput of one complete assignment, None if infeasible."""
        gnb_of, row = self.gnb_of, self.row
        served = [(i, k) for i, k in enumerate(choice) if gnb_of[i][k] >= 0]
        codes: dict = {}
        for i, k in served:
            g = gnb_of[i][k]
            codes[g] = codes.get(g, 0) + self.mark[i][k]
        found = {}
        for g, code in codes.items():
            key = (g, code)
            if key not in self.terms:
                self.terms[key] = self._gnb_terms(g, choice)
            if self.terms[key] is None:
                return None
            found[g] = self.terms[key]
        n = len(choice)
        sig, intra, inter = [0.0] * n, [0.0] * n, [0.0] * n
        for g in sorted(found):
            powers, own, _ = found[g]
            c = 0
            for i, k in served:
                if gnb_of[i][k] == g:
                    sig[i] = own[c]
                    intra[i] = powers[row[i][k]] - own[c]
                    c += 1
                else:
                    inter[i] += powers[row[i][k]]
        if len(served) == 1:
            (i, k), = served
            sig[i], intra[i] = found[gnb_of[i][k]][2], 0.0
        cfg = self.inputs.cfg
        total = 0.0
        for i, _ in served:
            sinr = sig[i] / (intra[i] + inter[i] + self.noise)
            if sinr < self.thresh:
                return None
            total += metrics.throughput(10.0 * math.log10(sinr), cfg)
        return total


def allocate_cbf_tdma(inputs: AllocationInputs) -> tuple[Allocation, list]:
    """CBF SU-MIMO TDMA reference: strongest BPL, full power, time sharing.

    Each gNB serves its n_g UEs one per slot at the full power p_max, so a
    UE's signal is p_max |r b|^2, with no intra-cell interference, and its
    rate is 1/n_g of the throughput.  Under uniformly random slot alignment
    gNB g puts on a UE's row the mean power of its n_g beams: exactly the
    interference of a precoder whose columns are those beams at p_max / n_g
    each.  UEs whose expected SINR falls below the coverage threshold are
    dropped and the rest evaluated again, until none is.  Returns the
    allocation, without precoder states, and its per-UE link reports.
    """
    cfg = inputs.cfg
    initial = _initial_gnbs(inputs.sweeps)
    serving = {}
    per_gnb: dict[int, list[int]] = {g: [] for g in range(inputs.n_gnbs)}
    for ue, swept in sorted(inputs.sweeps.items()):
        if len(swept):
            serving[ue] = best = swept[0]
            per_gnb[best.gnb].append(ue)

    while True:
        averaged = {g: GnbPrecoderState(
            gnb=g, served=ues, w_rf=None, w_bb=None, w_combined=(
                inputs.gnb_book.matrix[:, [serving[u].gnb_beam for u in ues]]),
            p_per_ue=cfg.p_max_w / len(ues))
            for g, ues in per_gnb.items() if ues}
        expected = metrics.evaluate_allocation(serving, averaged,
                                               inputs.true_rows)
        reports = {}
        for ue, bpl in serving.items():
            # the averaged state gives the own beam p_max / n_g, its slot p_max
            n_g = len(per_gnb[bpl.gnb])
            sig, _, inter = expected[ue]
            reports[ue] = metrics.link_report(
                ue, bpl, (sig * n_g, 0.0, inter), cfg.noise_w, cfg,
                initial.get(ue, -1), time_share=n_g)
        viol = [u for u, r in reports.items() if r.sinr_db < cfg.sinr_min_db]
        if not viol:
            break
        for u in viol:
            per_gnb[serving.pop(u).gnb].remove(u)

    alloc = Allocation(serving=serving,
                       per_gnb={g: l for g, l in per_gnb.items() if l},
                       mode=AllocMode.CBF_TDMA, states={},
                       initial_gnbs=initial)
    return alloc, [reports.get(ue) or metrics.dropped_report(ue, cfg.noise_w)
                   for ue in range(inputs.n_ues)]


def allocate(inputs: AllocationInputs, mode: AllocMode) -> Allocation:
    """Run one allocation mode other than CBF TDMA, whose time-shared link
    reports come from its own allocator (``allocate_cbf_tdma``)."""
    if mode is AllocMode.FIVEG_NR:
        return allocate_5gnr(inputs)
    if mode is AllocMode.DBF_5GNR:
        return allocate_5gnr(inputs, use_dbf=True)
    if mode in (AllocMode.DIABA, AllocMode.CIABA):
        return allocate_iaba(inputs, mode)
    if mode is AllocMode.ORACLE:
        return allocate_oracle(inputs)
    raise ValueError(f"allocate does not run mode {mode}")
