"""Shared builders for constructed allocation scenarios."""

import math
import sys

import numpy as np
import pytest

from mmwsim.allocation import AllocationInputs
from mmwsim.channel import Paths
from mmwsim.runner import build_inputs
from mmwsim.scenario import NetworkConfig

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def path(gain, aod_az, aoa_az, aod_el=0.0, aoa_el=0.0, bounces=0,
         length_m=60.0) -> tuple:
    """One ray, as a row of ``Paths.from_rows``."""
    return (gain, aod_az, aod_el, aoa_az, aoa_el, bounces, length_m)


def full(channel) -> np.ndarray:
    """The (4 n_r, 4 n_t) full-array matrix of a block channel."""
    return channel.blocks.transpose(0, 2, 1, 3).reshape(4 * channel.n_r,
                                                        4 * channel.n_t)


def make_inputs(cfg: NetworkConfig, paths_by_pair: dict, n_gnbs: int,
                n_ues: int) -> AllocationInputs:
    """AllocationInputs from explicit (gnb, ue) -> lists of ``path`` rows,
    every panel of every node at ORIENT; quantized CSI when
    ``cfg.n_q_csi_bits`` is finite, as in a campaign."""
    paths = {key: Paths.from_rows(rows) for key, rows in paths_by_pair.items()}
    return build_inputs(cfg, n_gnbs, n_ues, paths, [ORIENT] * n_gnbs,
                        [ORIENT] * n_ues)


def small_instance(seed: int) -> AllocationInputs:
    """Random guard-rail-sized instance with explicit geometric paths
    (1-3 gNBs, 2-6 UEs, 4 CSI-RS)."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2,
                        n_csi_rs=4)
    n_gnbs = int(rng.integers(1, 4))
    n_ues = int(rng.integers(2, 7))
    pairs = {}
    for g in range(n_gnbs):
        for u in range(n_ues):
            plist = []
            for _ in range(int(rng.integers(1, 4))):
                amp = 10 ** rng.uniform(-6.5, -4.5)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                plist.append(path(
                    amp * np.exp(1j * phase),
                    rng.uniform(-180.0, 180.0), rng.uniform(-180.0, 180.0),
                    length_m=rng.uniform(30.0, 150.0)))
            pairs[(g, u)] = plist
    return make_inputs(cfg, pairs, n_gnbs, n_ues)


@pytest.fixture
def tiny_cfg():
    return NetworkConfig(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria checklist after the test summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
