"""Shared builders for constructed allocation scenarios."""

import sys

import numpy as np
import pytest

from mmwsim.allocation import AllocationInputs
from mmwsim.channel import PropagationPath, assemble_channel
from mmwsim.runner import build_inputs
from mmwsim.scenario import NetworkConfig

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def path(gain, aod_az, aoa_az, aod_el=0.0, aoa_el=0.0, bounces=0,
         length_m=60.0):
    return PropagationPath(gain=gain, aod_az_deg=aod_az, aod_el_deg=aod_el,
                           aoa_az_deg=aoa_az, aoa_el_deg=aoa_el,
                           bounces=bounces, path_length_m=length_m)


def make_inputs(cfg: NetworkConfig, paths_by_pair: dict, n_gnbs: int,
                n_ues: int) -> AllocationInputs:
    """AllocationInputs (exact CSI) from explicit (gnb, ue) -> path lists."""
    channels = {(g, u): assemble_channel(plist, cfg, ORIENT, ORIENT)
                for (g, u), plist in paths_by_pair.items() if plist}
    return build_inputs(cfg, n_gnbs, n_ues, channels)


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
