"""The benchmark's workloads: profile, allocation modes and campaign shape.

Kept free of simulator imports so the parent process stays light; the
worker builds the configuration after its set-up clock has started.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

CAMPAIGN_MODES = ("5gnr", "diaba", "ciaba", "dbf", "cbf-tdma")

# acceptance "ordering" environment: dense hotspots force strongest-beam
# association to co-schedule correlated links (tests/test_acceptance.py)
ORDERING_ENV = dict(n_ue_hotspots=12, hotspot_fraction=1.0,
                    hotspot_radius_m=3.0)


@dataclass(frozen=True)
class Workload:
    """One campaign profile.

    The campaign is the first realizations of the seed, in id order, that
    fill ``ue_quota``: ((min UEs, max UEs or None, realizations), ...).
    Deployments draw a Poisson number of UEs, and campaign time grows with
    it (as 5^n_ues for the oracle), so a fixed quota per UE count keeps the
    campaign's size, not only its realization count, the same across seeds.
    """

    name: str
    why: str
    modes: tuple
    ue_quota: tuple
    overrides: dict = field(default_factory=dict)   # on desk_scale_config()
    config_file: str = ""                           # instead of the desk profile
    oracle_dominance: bool = False

    def config(self, root: str, seed: int):
        from mmwsim.runner import desk_scale_config
        from mmwsim.scenario import load_config
        if self.config_file:
            return load_config(os.path.join(root, self.config_file),
                               [f"seed={seed}"])
        return desk_scale_config(seed=seed, **self.overrides)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hotspot-exact",
        why="acceptance ordering profile, exact CSI: the IABA scan, ZF "
            "precoder builds and power kernels dominate",
        modes=CAMPAIGN_MODES, ue_quota=((60, 66, 3),),
        overrides=ORDERING_ENV),
    Workload(
        name="dense-quantized",
        why="256 gNBs/km2 (8 gNBs, ~31 UEs) with 6-bit CSI and 4 CSI-RS: "
            "per-pair sweep, CSI quantization, channel and row memory "
            "dominate; allocators barely show",
        modes=CAMPAIGN_MODES, ue_quota=((30, 33, 5),),
        overrides=dict(area_side_m=177.0, gnb_density=256.0, n_q_csi_bits=6,
                       n_csi_rs=4)),
    Workload(
        name="tiny-oracle",
        why="configs/tiny.yaml with the exhaustive oracle, its guard-rail "
            "refusals and the oracle-dominance check",
        modes=("oracle",) + CAMPAIGN_MODES, config_file="configs/tiny.yaml",
        ue_quota=tuple((n, n, k) for n, k in
                       ((0, 2), (1, 5), (2, 8), (3, 8), (4, 6), (5, 4), (6, 2)))
        + ((7, None, 1),),
        oracle_dominance=True),
)}
