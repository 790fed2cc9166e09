"""Output checks on finished allocations and their link reports.

One operation is one (realization, mode) allocation.  Each check returns
failure records; a failed operation counts toward ``failed_op_share``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

HBF_MODES = ("5gnr", "diaba", "ciaba", "oracle")
DOMINATED_MODES = ("5gnr", "diaba", "ciaba")   # the modes oracle-check compares
SINR_TOL_DB = 1e-9
RATE_TOL_BPS = 1e-6
NORM_TOL = 1e-9

# Kinds that are documented behaviour or a known finding of the simulator;
# they count as failed operations but do not mark the outputs incorrect.
KNOWN_KINDS = ("refused", "dominance")


def failure(realization, mode: str, kind: str, reason: str) -> dict:
    return {"realization": realization, "mode": mode, "kind": kind,
            "reason": reason}


def _sinr_db(rep) -> float:
    sinr = rep.rss_w / (rep.i_intra_w + rep.i_inter_w + rep.noise_w)
    return 10.0 * math.log10(sinr) if sinr > 0 else -math.inf


def check_sinr(rr, cfg) -> list:
    """Every served UE clears the coverage threshold on the true channel."""
    floor = cfg.sinr_min_db - SINR_TOL_DB
    bad = [rep.ue for rep in rr.reports
           if rep.served and min(rep.sinr_db, _sinr_db(rep)) < floor]
    return [f"served UEs {bad} below sinr_min_db"] if bad else []


def check_caps(rr, cfg) -> list:
    """Per-gNB and per-panel RF-chain budgets (HBF), per-gNB antennas (DBF)."""
    mode, alloc = rr.mode.value, rr.allocation
    if mode == "dbf":
        limit, panel_limit = 4 * cfg.n_t, None
    elif mode in HBF_MODES:
        limit, panel_limit = cfg.n_rf_gnb, cfg.n_rf_gnb_sec
    else:
        return []       # CBF TDMA serves one beam per slot
    per_panel = 2 ** cfg.n_q_sweep_bits    # beam ids are panel-major
    out = []
    for g, ues in alloc.per_gnb.items():
        if len(ues) > limit:
            out.append(f"gNB {g} serves {len(ues)} UEs > {limit}")
        if panel_limit is None:
            continue
        panels = Counter(alloc.serving[u].gnb_beam // per_panel for u in ues)
        over = {p: n for p, n in panels.items() if n > panel_limit}
        if over:
            out.append(f"gNB {g} panels {over} exceed {panel_limit} RF chains")
    return out


def check_served_once(rr, cfg) -> list:
    """Each UE is served at most once, consistently across the outputs."""
    alloc = rr.allocation
    listed = Counter(u for ues in alloc.per_gnb.values() for u in ues)
    out = [f"UE {u} listed {n} times" for u, n in listed.items() if n > 1]
    for g, ues in alloc.per_gnb.items():
        out += [f"UE {u} listed on gNB {g} but not served there"
                for u in ues if u not in alloc.serving
                or alloc.serving[u].gnb != g]
    if set(listed) != set(alloc.serving):
        out.append("serving map and per-gNB lists disagree")
    report_ues = Counter(rep.ue for rep in rr.reports)
    out += [f"UE {u} reported {n} times" for u, n in report_ues.items()
            if n > 1]
    if {rep.ue for rep in rr.reports if rep.served} != set(alloc.serving):
        out.append("served reports and serving map disagree")
    return out


def check_power(rr, cfg) -> list:
    """Equal power split sums to p_max; precoder columns have unit norm."""
    out = []
    for g, st in rr.allocation.states.items():
        if abs(st.p_per_ue * st.n_served - cfg.p_max_w) > NORM_TOL * cfg.p_max_w:
            out.append(f"gNB {g}: p_per_ue * n_served = "
                       f"{st.p_per_ue * st.n_served!r} != p_max")
        norms = np.linalg.norm(st.w_combined, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            out.append(f"gNB {g}: precoder column norms {norms.tolist()}")
    return out


CHECKS = (("sinr", check_sinr), ("cap", check_caps),
          ("once", check_served_once), ("power", check_power))


def check_dominance(by_mode: dict) -> list:
    """Oracle sum rate bounds the heuristics it is compared against."""
    oracle = by_mode.get("oracle")
    if oracle is None:
        return []
    oracle_rate = sum(r.rate_bps for r in oracle.reports)
    out = []
    for mode in DOMINATED_MODES:
        rr = by_mode.get(mode)
        if rr is None:
            continue
        rate = sum(r.rate_bps for r in rr.reports)
        if rate > oracle_rate + RATE_TOL_BPS:
            out.append(failure(
                rr.realization, mode, "dominance",
                f"{mode} sum rate {rate:.6g} b/s beats oracle "
                f"{oracle_rate:.6g} b/s by {rate - oracle_rate:.6g} b/s"))
    return out


def check_results(results: list, cfg, dominance: bool) -> list:
    """Failure records of every operation in ``results``."""
    out = []
    by_real: dict = {}
    for rr in results:
        for kind, check in CHECKS:
            for reason in check(rr, cfg):
                out.append(failure(rr.realization, rr.mode.value, kind, reason))
        by_real.setdefault(rr.realization, {})[rr.mode.value] = rr
    if dominance:
        for r in sorted(by_real):
            out += check_dominance(by_real[r])
    return out
