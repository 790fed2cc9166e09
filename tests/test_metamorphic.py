"""Metamorphic relations (Chen et al., ACM Computing Surveys 2018): input
transformations whose effect on the allocators' outcome is known without
knowing the outcome.

- Relabelling the UEs permutes the served map with the ids and moves no
  SINR.
- Adding the same number of dB to the transmit power and the noise power
  moves no link and no SINR.

Both run on desk realizations 0-1, with exact CSI and with 6-bit CSI and
4 CSI-RS.  The oracle is left out: it breaks ties in UE order.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from mmwsim.allocation import AllocMode
from mmwsim.channel import pair_rng, synthesize_paths
from mmwsim.runner import (RealizationContext, build_inputs,
                           desk_scale_config, run_realization)
from mmwsim.scenario import generate_deployment

MODES = (AllocMode.FIVEG_NR, AllocMode.DIABA, AllocMode.CIABA,
         AllocMode.DBF_5GNR, AllocMode.CBF_TDMA)
CSI = {"exact": {}, "6-bit": dict(n_q_csi_bits=6, n_csi_rs=4)}
CASES = [(csi, r) for csi in CSI for r in (0, 1)]
SINR_TOL_DB = 1e-9


@functools.lru_cache(maxsize=None)
def _realization(csi: str, realization: int):
    """Config, deployment and synthesized (gnb, ue) -> Paths."""
    cfg = desk_scale_config(**CSI[csi])
    dep = generate_deployment(cfg, realization)
    paths = {(g, u): synthesize_paths(dep, g, u,
                                      pair_rng(cfg, realization, g, u), cfg)
             for g in range(dep.n_gnbs) for u in range(dep.n_ues)}
    return cfg, dep, paths


def _outcome(cfg, dep, paths, ue_orientations) -> dict:
    """mode -> served ue -> ((gnb, gnb_beam, ue_beam), sinr_db)."""
    ctx = RealizationContext(dep=dep, inputs=build_inputs(
        cfg, dep.n_gnbs, dep.n_ues, paths, dep.gnb_panel_orientations,
        ue_orientations))
    return {mode: {r.ue: ((r.gnb, r.gnb_beam, r.ue_beam), r.sinr_db)
                   for r in run_realization(ctx, mode, cfg,
                                            dep.realization_id).reports
                   if r.served}
            for mode in MODES}


@functools.lru_cache(maxsize=None)
def _base(csi: str, realization: int) -> dict:
    cfg, dep, paths = _realization(csi, realization)
    return _outcome(cfg, dep, paths, dep.ue_panel_orientations)


def _mismatches(before: dict, after: dict) -> dict:
    """mode -> what moved between two outcomes keyed by the same UE ids."""
    bad = {}
    for mode in MODES:
        b, a = before[mode], after[mode]
        moved = ([f"served {sorted(b.keys() ^ a.keys())}"]
                 if b.keys() != a.keys() else [])
        for ue in sorted(b.keys() & a.keys()):
            if a[ue][0] != b[ue][0]:
                moved.append(f"ue {ue} link {b[ue][0]} -> {a[ue][0]}")
            elif not abs(a[ue][1] - b[ue][1]) <= SINR_TOL_DB:
                moved.append(f"ue {ue} sinr {b[ue][1] - a[ue][1]:+.3g} dB")
        if moved:
            bad[mode.value] = moved
    return bad


@pytest.mark.parametrize("csi, realization", CASES)
def test_relabelling_ues_permutes_the_outcome(csi, realization):
    cfg, dep, paths = _realization(csi, realization)
    perm = np.random.default_rng(realization).permutation(dep.n_ues)
    inv = np.argsort(perm)          # new id -> old id
    relabelled = {(g, int(perm[u])): p for (g, u), p in paths.items()}
    after = _outcome(cfg, dep, relabelled, dep.ue_panel_orientations[inv])
    back = {mode: {int(inv[ue]): v for ue, v in served.items()}
            for mode, served in after.items()}
    assert _mismatches(_base(csi, realization), back) == {}


@pytest.mark.parametrize("csi, realization", CASES)
def test_power_and_noise_shifted_together_move_nothing(csi, realization):
    cfg, dep, paths = _realization(csi, realization)
    shifted = replace(cfg, p_max_dbm=cfg.p_max_dbm + 7.0,
                      noise_dbm=cfg.noise_dbm + 7.0)
    after = _outcome(shifted, dep, paths, dep.ue_panel_orientations)
    assert _mismatches(_base(csi, realization), after) == {}
