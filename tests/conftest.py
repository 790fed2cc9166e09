"""Shared builders for constructed allocation scenarios."""

import functools
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mmwsim.allocation import (AllocationInputs, AllocMode, build_candidates,
                               gnb_precoder_state)
from mmwsim.channel import Paths
from mmwsim.errors import RankDeficiencyError
from mmwsim.metrics import evaluate_allocation, throughput
from mmwsim.runner import build_inputs, prepare_realization
from mmwsim.scenario import NetworkConfig, load_config

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


def panel_loads(serving: dict, cfg: NetworkConfig) -> Counter:
    """(gnb, panel) -> number of UEs ``serving`` puts on it, counted from
    the beam ids, which are panel-major."""
    per_panel = 2 ** cfg.n_q_sweep_bits
    return Counter((b.gnb, b.gnb_beam // per_panel) for b in serving.values())


@functools.cache
def one_rf_chain_instance() -> AllocationInputs:
    """configs/tiny.yaml at seed 1, realization 6 (2 gNBs, 4 UEs) with one
    RF chain per panel.  Asserts that the assignment of monitored
    candidates with the highest sum throughput among those that pass ZF
    and the threshold puts two UEs on one panel, so a search that lost its
    RF-chain check would find another winner.  Cached: the brute force
    runs once, and its callers only read the inputs."""
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs"
                          / "tiny.yaml"), ["seed=1", "n_rf_gnb_sec=1"])
    inputs = prepare_realization(cfg, 6).inputs
    thresh = 10 ** (cfg.sinr_min_db / 10.0)
    ue_ids = sorted(inputs.sweeps)
    options = [build_candidates(inputs, u, AllocMode.CIABA).bpls + [None]
               for u in ue_ids]
    best = {False: 0.0, True: 0.0}     # over budget -> best sum throughput
    for combo in itertools.product(*options):
        serving = {u: b for u, b in zip(ue_ids, combo) if b is not None}
        per_gnb: dict = {}
        for u, b in serving.items():
            per_gnb.setdefault(b.gnb, []).append(u)
        try:
            states = {g: gnb_precoder_state(inputs, g, ues, serving, False)
                      for g, ues in per_gnb.items()}
        except RankDeficiencyError:
            continue
        sinrs = [s / (ia + ie + cfg.noise_w) for s, ia, ie in
                 evaluate_allocation(serving, states,
                                     inputs.true_rows).values()]
        if all(s >= thresh for s in sinrs):
            over = max(panel_loads(serving, cfg).values(), default=0) > 1
            best[over] = max(best[over], sum(
                throughput(10.0 * math.log10(s), cfg) for s in sinrs))
    assert best[True] > best[False] > 0.0
    return inputs


def own_sinr(engine, bpl):
    """The own SINR ``try_candidate`` computes for ``bpl`` on the engine's
    present state, whatever its floor; None where the full build fails."""
    try:
        _, powers = engine._gnb_powers(bpl.gnb,
                                       engine.per_gnb[bpl.gnb] + [bpl.ue],
                                       {**engine.serving, bpl.ue: bpl})
    except RankDeficiencyError:
        return None
    return engine._sinr(powers[bpl.ue], engine._inter_seen(bpl))


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
