"""BPL allocation engines: default 5G-NR, distributed/centralized
interference-aware allocation, the exhaustive oracle, and CBF TDMA."""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import metrics
from .beamsweep import BeamPairLink, Sweep, initial_association
from .codebook import FullCodebook
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
    true_rows: dict                  # (ue, gnb) -> R = W_ue^H H, see metrics.Rows
    est_rows: dict                   # same, against the estimated channels;
                                     # a pair may be built on first read
    gnb_book: FullCodebook


def build_candidates(ue: int, sweep_result: Sweep, mode: AllocMode,
                     initial_gnb: int, n_csi_rs) -> CandidateSet:
    """Monitored-BPL set per allocation mode.

    5G-NR monitors only the strongest BPL; dIABA the top candidates on the
    initial serving gNB; cIABA the top candidates network-wide.
    """
    if mode in (AllocMode.FIVEG_NR, AllocMode.DBF_5GNR, AllocMode.CBF_TDMA):
        best = initial_association(sweep_result)
        return CandidateSet(ue=ue, bpls=[best] if best else [])
    ranks = np.arange(len(sweep_result))
    if mode is AllocMode.DIABA:
        ranks = ranks[sweep_result.gnb == initial_gnb]
    # one monitored BPL per transmit beam: a CSI-RS resource tracks a gNB
    # beam, and the UE receives it with its best RX beam; weaker RX beams of
    # an already-listed TX beam are duplicates, not alternatives
    if len(ranks):
        gnb_beam = sweep_result.gnb_beam[ranks]
        key = sweep_result.gnb[ranks] * (int(gnb_beam.max()) + 1) + gnb_beam
        _, first = np.unique(key, return_index=True)
        ranks = ranks[np.sort(first)]
    if math.isfinite(n_csi_rs):
        ranks = ranks[:int(n_csi_rs)]
    return CandidateSet(ue=ue, bpls=[sweep_result[i] for i in ranks.tolist()])


def gnb_precoder_state(inputs: AllocationInputs, gnb: int, ues: list,
                       serving: dict, use_dbf: bool) -> GnbPrecoderState:
    """Precoder of one gNB for its ordered served UEs (``serving`` maps each
    to its BPL), designed on the estimated rows.

    HBF fixes one RF column per UE to its serving beam and zero-forces the
    effective channel w_c^H H_hat W_RF; DBF zero-forces the rows directly.
    Raises CapacityError or RankDeficiencyError when the set is infeasible.
    """
    bpls = [serving[u] for u in ues]
    est = [inputs.est_rows[(u, gnb)][b.ue_beam] for u, b in zip(ues, bpls)]
    if use_dbf:
        w_rf = w_bb = None
        w = dbf_from_rows(np.vstack(est), ues)
    else:
        w_rf = rf_stage(bpls, inputs.gnb_book, inputs.cfg.n_rf_gnb_sec)
        # one row @ w_rf product per UE: stacking first changes the bits
        w_bb = zf_stage(np.vstack([row @ w_rf for row in est]), ues, w_rf)
        w = compose(w_rf, w_bb)
    return GnbPrecoderState(gnb=gnb, served=list(ues), w_rf=w_rf, w_bb=w_bb,
                            w_combined=w, p_per_ue=inputs.cfg.p_max_w / len(ues))


class _Engine:
    """Mutable allocation state with incremental SINR bookkeeping.

    Signal/intra/inter powers are tracked per UE; rebuilding one gNB's
    precoder touches only that gNB's contributions.
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
        self._version = {g: 0 for g in range(inputs.n_gnbs)}
        self._inter_memo: dict = {}
        self._bound_memo: dict = {}
        self._panel_of = inputs.gnb_book.panel.tolist()   # gNB beam -> panel

    # -- capacity -------------------------------------------------------

    def capacity_ok(self, bpl: BeamPairLink) -> bool:
        served = self.per_gnb[bpl.gnb]
        if len(served) + 1 > self.n_rf_total:
            return False
        if self.use_dbf:
            return True
        panel_of = self._panel_of
        panel = panel_of[bpl.gnb_beam]
        on_panel = sum(1 for u in served
                       if panel_of[self.serving[u].gnb_beam] == panel)
        return on_panel + 1 <= self.inputs.cfg.n_rf_gnb_sec

    # -- incremental metric bookkeeping -----------------------------------

    def _row(self, ue: int, gnb: int) -> np.ndarray:
        """True combined row of this UE's serving UE beam toward ``gnb``."""
        return self.inputs.true_rows[(ue, gnb)][self.serving[ue].ue_beam]

    def rebuild(self, gnb: int, update_others: bool) -> None:
        """Rebuild one gNB's precoder and refresh the powers it contributes.

        ``update_others=False`` refreshes only the served UEs' signal/intra
        terms (enough for a distributed tentative check).
        """
        self._version[gnb] += 1
        ues = self.per_gnb[gnb]
        if not ues:
            self.states[gnb] = None
            for u in self.serving:
                self.inter.get(u, {}).pop(gnb, None)
            return
        # may raise Capacity/RankDeficiency
        state = gnb_precoder_state(self.inputs, gnb, ues, self.serving,
                                   self.use_dbf)
        self.states[gnb] = state
        rows = np.vstack([self._row(u, gnb) for u in ues])
        powers = state.p_per_ue * column_powers(rows, state.w_combined)
        sums = powers.sum(axis=1)
        for i, u in enumerate(ues):
            self.sig[u] = float(powers[i, i])
            self.intra[u] = float(sums[i] - powers[i, i])
            self.inter.setdefault(u, {}).pop(gnb, None)
        if update_others:
            self.refresh_others(gnb)

    def _others(self, gnb: int) -> list:
        """Served UEs of every gNB but ``gnb``, in serving order."""
        return [u for u in self.serving if self.serving[u].gnb != gnb]

    def refresh_others(self, gnb: int) -> None:
        """Refresh the interference ``gnb``'s current precoder causes every
        UE another gNB serves."""
        state = self.states[gnb]
        others = self._others(gnb)
        if others:
            rows_o = np.vstack([self._row(u, gnb) for u in others])
            contrib = (state.p_per_ue *
                       column_powers(rows_o, state.w_combined)).sum(axis=1)
            for u, c in zip(others, contrib):
                self.inter.setdefault(u, {})[gnb] = float(c)

    def inter_vec(self, ue: int, gnb: int) -> np.ndarray:
        """Interference the active gNB's current precoder causes this UE, for
        every UE beam at once (memoized per precoder version)."""
        key = (ue, gnb, self._version[gnb])
        vec = self._inter_memo.get(key)
        if vec is None:
            state = self.states[gnb]
            vec = state.p_per_ue * column_powers(
                self.inputs.true_rows[(ue, gnb)], state.w_combined).sum(axis=1)
            self._inter_memo[key] = vec
        return vec

    def init_inter(self, ue: int) -> None:
        bpl = self.serving[ue]
        self.inter[ue] = {
            g: float(self.inter_vec(ue, g)[bpl.ue_beam])
            for g in range(self.inputs.n_gnbs)
            if g != bpl.gnb and self.states[g] is not None}

    def snr_bound(self, ue: int, gnb: int, ue_beam: int) -> float:
        """P_max * |w_c^H H|^2 / noise for this (UE beam, gNB) pair.

        ``candidate_bounds`` applies the power share p_per_ue / P_max and
        the interference to turn it into an SINR bound.
        """
        key = (ue, gnb, ue_beam)
        val = self._bound_memo.get(key)
        if val is None:
            row = self.inputs.true_rows[(ue, gnb)][ue_beam]
            val = self.p_max * float(np.real(np.vdot(row, row))) / self.noise
            self._bound_memo[key] = val
        return val

    def candidate_bounds(self, ue: int, bpls: list) -> list:
        """Upper bound on each candidate's own linear SINR if added now.

        On a gNB already serving n UEs the candidate gets P_max/(n+1) on a
        unit-norm column, so its signal power is at most
        P_max/(n+1) ||w_c^H H||^2; interference from the other gNBs is exact
        already (their precoders do not change on a tentative add).
        """
        vecs = {g: self.inter_vec(ue, g) for g in range(self.inputs.n_gnbs)
                if self.states[g] is not None}
        total = sum(vecs.values())
        bounds = []
        for b in bpls:
            inter = 0.0
            if vecs:
                inter = float(total[b.ue_beam])
                if b.gnb in vecs:
                    inter -= float(vecs[b.gnb][b.ue_beam])
            share = len(self.per_gnb[b.gnb]) + 1
            bounds.append(self.snr_bound(ue, b.gnb, b.ue_beam) / share
                          * self.noise / (self.noise + inter))
        return bounds

    def sinr_lin(self, ue: int) -> float:
        denom = self.intra[ue] + sum(self.inter.get(ue, {}).values()) + self.noise
        return self.sig[ue] / denom

    # -- snapshot / mutation ----------------------------------------------

    def snapshot(self):
        return (dict(self.serving),
                {g: list(l) for g, l in self.per_gnb.items()},
                dict(self.states),
                dict(self.sig), dict(self.intra),
                {u: dict(d) for u, d in self.inter.items()},
                dict(self._version))

    def restore(self, snap) -> None:
        (self.serving, self.per_gnb, self.states,
         self.sig, self.intra, self.inter, self._version) = snap

    def _add(self, bpl: BeamPairLink) -> None:
        self.serving[bpl.ue] = bpl
        self.per_gnb[bpl.gnb].append(bpl.ue)

    def try_candidate(self, bpl: BeamPairLink, check_network_wide: bool,
                      floor: float) -> Optional[float]:
        """Tentatively allocate, check the coverage constraint, roll back.

        Returns the candidate's own linear SINR when it beats ``floor`` and
        no checked UE would be degraded below the threshold, else None.  The
        checks run in stages, each only if the one before passes: the
        candidate itself, then its gNB's other members, then (network-wide)
        every other served UE, once the interference the rebuilt gNB causes
        them is refreshed.  Only the state the stages touch is saved and
        restored, keeping candidate scans cheap.
        """
        if not self.capacity_ok(bpl):
            return None
        g, ue = bpl.gnb, bpl.ue
        thresh = self.sinr_min_lin
        old_state, old_version = self.states[g], self._version[g]
        old_members = list(self.per_gnb[g])
        old_si = {u: (self.sig[u], self.intra[u]) for u in old_members}
        missing = object()
        old_inter_g = {}
        try:
            self._add(bpl)
            self.rebuild(g, update_others=False)
            self.init_inter(ue)
            own = self.sinr_lin(ue)
            # the caller keeps only a feasible candidate above its incumbent
            if own < thresh or own <= floor:
                return None
            if any(self.sinr_lin(u) < thresh for u in old_members):
                return None
            if check_network_wide:
                others = self._others(g)
                old_inter_g = {u: self.inter.get(u, {}).get(g, missing)
                               for u in others}
                self.refresh_others(g)
                if any(self.sinr_lin(u) < thresh for u in others):
                    return None
            return own
        except (RankDeficiencyError, CapacityError):
            return None
        finally:
            self.serving.pop(ue, None)
            self.per_gnb[g] = old_members
            # the tentative precoder fed no inter_vec memo entry (init_inter
            # skips the candidate's own gNB), so the old version's entries
            # still describe the restored state
            self.states[g], self._version[g] = old_state, old_version
            self.sig.pop(ue, None)
            self.intra.pop(ue, None)
            self.inter.pop(ue, None)
            for u, (s, i) in old_si.items():
                self.sig[u] = s
                self.intra[u] = i
            for u, v in old_inter_g.items():
                if v is missing:
                    self.inter.get(u, {}).pop(g, None)
                else:
                    self.inter.setdefault(u, {})[g] = v

    def commit(self, bpl: BeamPairLink) -> bool:
        """Allocate for real; returns False (state unchanged) on rank failure."""
        if not self.capacity_ok(bpl):
            return False
        snap = self.snapshot()
        try:
            self._add(bpl)
            self.rebuild(bpl.gnb, update_others=True)
            self.init_inter(bpl.ue)
            return True
        except (RankDeficiencyError, CapacityError):
            self.restore(snap)
            return False

    def remove_many(self, ues: list) -> None:
        affected = set()
        for u in ues:
            bpl = self.serving.pop(u)
            self.per_gnb[bpl.gnb].remove(u)
            affected.add(bpl.gnb)
            self.sig.pop(u, None)
            self.intra.pop(u, None)
            self.inter.pop(u, None)
        for g in sorted(affected):
            while True:
                try:
                    self.rebuild(g, update_others=True)
                    break
                except RankDeficiencyError:
                    # borderline-conditioned survivor set; shed the weakest
                    # link on this gNB until the ZF rebuild is solvable
                    weakest = min(self.per_gnb[g],
                                  key=lambda u: (self.serving[u].rsrp, -u))
                    self.serving.pop(weakest)
                    self.per_gnb[g].remove(weakest)
                    self.sig.pop(weakest, None)
                    self.intra.pop(weakest, None)
                    self.inter.pop(weakest, None)

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
        powers = metrics.evaluate_allocation(
            engine.serving, engine.per_gnb, engine.states, inputs.true_rows)
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
        cands = build_candidates(ue, inputs.sweeps[ue], mode,
                                 initial.get(ue, -1), inputs.cfg.n_csi_rs)
        if not cands.bpls:
            continue
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
    """
    if mode not in (AllocMode.DIABA, AllocMode.CIABA):
        raise ValueError(f"allocate_iaba expects an IABA mode, got {mode}")
    network_wide = mode is AllocMode.CIABA
    engine = _Engine(inputs, use_dbf=False)
    initial = _initial_gnbs(inputs.sweeps)
    for ue in _ue_order(inputs.sweeps):
        cands = build_candidates(ue, inputs.sweeps[ue], mode,
                                 initial.get(ue, -1), inputs.cfg.n_csi_rs)
        best_bpl = None
        best_sinr = -math.inf
        # Scanning in descending bound order lets the loop stop as soon as
        # no remaining candidate can beat the incumbent or the threshold.
        bpls = [b for b in cands.bpls if engine.capacity_ok(b)]
        bounds = engine.candidate_bounds(ue, bpls)
        order = sorted(range(len(bpls)), key=lambda i: -bounds[i])
        for i in order:
            bpl, bound = bpls[i], bounds[i]
            if bound < engine.sinr_min_lin or bound <= best_sinr:
                break
            own = engine.try_candidate(bpl, check_network_wide=network_wide,
                                       floor=best_sinr)
            if own is not None:
                best_sinr = own
                best_bpl = bpl
        if best_bpl is not None:
            engine.commit(best_bpl)
    _enforce_coverage(engine, inputs)
    return engine.to_allocation(mode, initial)


ORACLE_MAX_UES = 6
ORACLE_MAX_GNBS = 3
ORACLE_MAX_CANDIDATES = 4


def allocate_oracle(inputs: AllocationInputs) -> Allocation:
    """Exhaustive search over every BPL assignment (guard-railed).

    Enumerates each UE's monitored candidates plus the dropped option,
    keeps assignments satisfying all constraints, and returns the feasible
    assignment with the highest sum throughput (lexicographically first on
    ties).
    """
    cfg = inputs.cfg
    if inputs.n_gnbs > ORACLE_MAX_GNBS:
        raise GuardRailError(f"oracle limited to {ORACLE_MAX_GNBS} gNBs")
    if inputs.n_ues > ORACLE_MAX_UES:
        raise GuardRailError(f"oracle limited to {ORACLE_MAX_UES} UEs")
    initial = _initial_gnbs(inputs.sweeps)
    options: list[list] = []
    ue_ids = sorted(inputs.sweeps)
    for ue in ue_ids:
        cands = build_candidates(ue, inputs.sweeps[ue], AllocMode.CIABA,
                                 initial.get(ue, -1), cfg.n_csi_rs)
        if len(cands.bpls) > ORACLE_MAX_CANDIDATES:
            raise GuardRailError(
                f"oracle limited to {ORACLE_MAX_CANDIDATES} candidates per UE")
        options.append(cands.bpls + [None])

    scorer = _OracleScorer(inputs, ue_ids, options)
    best_rate = -1.0
    best: tuple = ()
    for choice in itertools.product(*(range(len(o)) for o in options)):
        rate = scorer.rate(choice)
        if rate is not None and rate > best_rate:
            best_rate = rate
            best = choice
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
    """

    def __init__(self, inputs: AllocationInputs, ue_ids: list,
                 options: list):
        cfg = inputs.cfg
        self.inputs = inputs
        self.ue_ids = ue_ids
        self.options = options
        self.noise = cfg.noise_w
        self.thresh = 10 ** (cfg.sinr_min_db / 10.0)
        # gnb_of[i][k]: gNB of UE i's option k (-1 for dropped); beams[i][k]:
        # its UE beam (0 for dropped, never read); slot[i][k]: its index in
        # a power-term vector; mark[i][k]: its 3-bit digit (at most
        # ORACLE_MAX_CANDIDATES + 1 options) in the code of the sub-assignment
        # of the gNB serving it
        self.gnb_of = [[-1 if b is None else b.gnb for b in opts]
                       for opts in options]
        self.beams = [[0 if b is None else b.ue_beam for b in opts]
                      for opts in options]
        self.slot, self.mark, n = [], [], 0
        for i, opts in enumerate(options):
            self.slot.append(list(range(n, n + len(opts))))
            self.mark.append([(k + 1) << (3 * i) for k in range(len(opts))])
            n += len(opts)
        self.terms: dict = {}      # (gnb, code) -> _gnb_terms(...)

    def _gnb_terms(self, gnb: int, choice: tuple) -> Optional[tuple]:
        """Power terms of ``gnb``'s precoder for the UEs ``choice`` puts on
        it; None when the set is infeasible.

        Returns ``(powers, own, alone)``: ``powers[slot[i][k]]`` is the power
        the precoder puts on UE i through the UE beam of its option k,
        summed over the columns; ``own[c]`` is the c-th served UE's power in
        its own column at its serving beam; ``alone`` is that power from a
        one-row product when the gNB serves one UE, else None.

        ``metrics.evaluate_allocation`` stacks one row per served UE of the
        network before the product.  With two or more rows numpy runs gemm,
        and each row's bits equal those of the pair's full R used here; a
        single row goes through gemv, whose last bit can differ, so an
        assignment that serves one UE reads ``alone``.
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
        rows = self.inputs.true_rows
        powers, own = array("d"), array("d")
        for i, ue in enumerate(self.ue_ids):
            cols = p * column_powers(rows[(ue, gnb)], w)
            powers.extend(cols.sum(axis=1)[self.beams[i]].tolist())
            if i in served:
                own.append(cols[self.beams[i][choice[i]], served.index(i)])
        alone = None
        if len(served) == 1:
            (i,) = served
            row = rows[(ues[0], gnb)][self.beams[i][choice[i]]][None, :]
            alone = float((p * column_powers(row, w))[0, 0])
        return powers, own, alone

    def rate(self, choice: tuple) -> Optional[float]:
        """Sum throughput of one complete assignment, None if infeasible."""
        gnb_of, slot = self.gnb_of, self.slot
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
                    intra[i] = powers[slot[i][k]] - own[c]
                    c += 1
                else:
                    inter[i] += powers[slot[i][k]]
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


CBF_SLOT_DRAWS = 10


def allocate_cbf_tdma(inputs: AllocationInputs,
                      rng: np.random.Generator) -> tuple[Allocation, list]:
    """CBF SU-MIMO TDMA reference: strongest BPL, full power, time sharing.

    Per-UE SINR averages interference over random co-slotted UEs on the
    other gNBs; throughput is divided by the serving gNB's UE count.  UEs
    whose expected SINR falls below the coverage threshold are dropped.
    Returns the allocation together with its per-UE link reports (the TDMA
    interference model is specific to this mode).
    """
    cfg = inputs.cfg
    initial = _initial_gnbs(inputs.sweeps)
    serving = {}
    per_gnb: dict[int, list[int]] = {g: [] for g in range(inputs.n_gnbs)}
    for ue, cands in sorted(inputs.sweeps.items()):
        best = initial_association(cands)
        if best is not None:
            serving[ue] = best
            per_gnb[best.gnb].append(ue)

    while True:
        reports_by_ue = _cbf_evaluate(serving, per_gnb, inputs, initial, rng)
        viol = [u for u, r in reports_by_ue.items()
                if r.sinr_db < cfg.sinr_min_db]
        if not viol:
            break
        for u in viol:
            bpl = serving.pop(u)
            per_gnb[bpl.gnb].remove(u)

    reports = []
    for ue in range(inputs.n_ues):
        if ue in serving:
            reports.append(reports_by_ue[ue])
        else:
            reports.append(metrics.dropped_report(ue, cfg.noise_w))
    alloc = Allocation(serving=serving,
                       per_gnb={g: l for g, l in per_gnb.items() if l},
                       mode=AllocMode.CBF_TDMA, states={},
                       initial_gnbs=initial)
    return alloc, reports


def _cbf_evaluate(serving: dict, per_gnb: dict, inputs: AllocationInputs,
                  initial: dict, rng: np.random.Generator) -> dict:
    """Expected-SINR link reports under random TDMA slot alignment."""
    cfg = inputs.cfg
    book = inputs.gnb_book
    # one co-slotted transmit beam per (gNB, slot draw)
    slot_beam: dict[int, list[np.ndarray]] = {}
    for g, ues in per_gnb.items():
        if not ues:
            continue
        picks = rng.integers(0, len(ues), size=CBF_SLOT_DRAWS)
        slot_beam[g] = [book.matrix[:, serving[ues[k]].gnb_beam]
                        for k in picks]
    out = {}
    for ue, bpl in sorted(serving.items()):
        w = book.matrix[:, bpl.gnb_beam]
        row = inputs.true_rows[(ue, bpl.gnb)][bpl.ue_beam]
        sig = float(cfg.p_max_w *
                    column_powers(row[None, :], w[:, None])[0, 0])
        inter = 0.0
        for g, beams in slot_beam.items():
            if g == bpl.gnb:
                continue
            row_g = inputs.true_rows[(ue, g)][bpl.ue_beam]
            contrib = [float(cfg.p_max_w *
                             column_powers(row_g[None, :], b[:, None])[0, 0])
                       for b in beams]
            inter += float(np.mean(contrib))
        out[ue] = metrics.link_report(
            ue, bpl, (sig, 0.0, inter), cfg.noise_w, cfg, initial.get(ue, -1),
            time_share=len(per_gnb[bpl.gnb]))
    return out


def allocate(inputs: AllocationInputs, mode: AllocMode,
             rng: Optional[np.random.Generator] = None):
    """Run one allocation mode; CBF TDMA also returns its link reports."""
    if mode is AllocMode.FIVEG_NR:
        return allocate_5gnr(inputs)
    if mode is AllocMode.DBF_5GNR:
        return allocate_5gnr(inputs, use_dbf=True)
    if mode in (AllocMode.DIABA, AllocMode.CIABA):
        return allocate_iaba(inputs, mode)
    if mode is AllocMode.ORACLE:
        return allocate_oracle(inputs)
    if mode is AllocMode.CBF_TDMA:
        if rng is None:
            rng = np.random.default_rng(inputs.cfg.seed)
        return allocate_cbf_tdma(inputs, rng)
    raise ValueError(f"unknown allocation mode: {mode}")
