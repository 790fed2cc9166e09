from pathlib import Path

import numpy as np
import pytest

from conftest import full
from mmwsim.beamsweep import (BeamPairLink, combined_rows, initial_association,
                              rsrp_table, sweep)
from mmwsim.channel import (MultiPanelChannel, Paths, assemble_channel,
                            pair_rng, synthesize_paths)
from mmwsim.codebook import default_full_codebook, estimation_grid
from mmwsim.csi import quantize_paths
from mmwsim.runner import desk_scale_config
from mmwsim.scenario import NetworkConfig, generate_deployment, load_config

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])
ROOT = Path(__file__).resolve().parents[1]


def _channel(cfg, rows):
    return assemble_channel(Paths.from_rows(rows), cfg, ORIENT, ORIENT)


def _sweep_inputs(cfg, channels):
    """The sweep's inputs from gNB -> channel (or None): the shared codebooks,
    gNB -> dominant-bounce table (or None) and gNB -> combined rows R."""
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    bounces = {g: None if ch is None else ch.block_dominant_bounces
               for g, ch in channels.items()}
    rows = {g: combined_rows(ch, ubook) for g, ch in channels.items()
            if ch is not None}
    return gbook, ubook, bounces, rows


def _sweep(cfg, channels, detection_floor_db=-10.0):
    """Sweep UE 0 over gNB -> channel (or None)."""
    gbook, ubook, bounces, rows = _sweep_inputs(cfg, channels)
    return sweep(0, bounces, rows, gbook, ubook, cfg.p_max_w, cfg.noise_w,
                 detection_floor_db)


def _path(gain, aod_az, aoa_az, bounces=0):
    return (gain, aod_az, 0.0, aoa_az, 0.0, bounces, 60.0)


@pytest.fixture
def small_cfg():
    return NetworkConfig(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2)


def test_rsrp_table_matches_per_pair_loop(small_cfg):
    cfg = small_cfg
    ch = _channel(cfg, [_path(1e-4, 11.0, -95.0), _path(5e-5, 40.0, 100.0, 1)])
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    table = rsrp_table(combined_rows(ch, ubook), ch.block_dominant_bounces,
                       gbook, ubook, p_ssb=1.0)
    h = full(ch)
    for ub in range(ubook.n_beams):
        for gb in range(gbook.n_beams):
            val = abs(ubook.matrix[:, ub].conj() @ h @ gbook.matrix[:, gb]) ** 2
            assert table[ub, gb] == pytest.approx(val, rel=1e-10, abs=1e-30)


def test_sweep_detection_floor(small_cfg):
    cfg = small_cfg
    noise = cfg.noise_w
    ch = _channel(cfg, [_path(1e-4, 0.0, 180.0)])
    found = _sweep(cfg, {0: ch}, detection_floor_db=-10.0)
    assert found
    floor = noise * 10 ** (-1.0)
    assert all(b.rsrp >= floor for b in found)
    # an absurdly high floor detects nothing
    assert len(_sweep(cfg, {0: ch}, detection_floor_db=200.0)) == 0


def test_sweep_sorted_with_ranks(small_cfg):
    cfg = small_cfg
    ch0 = _channel(cfg, [_path(1e-4, 0.0, 180.0)])
    ch1 = _channel(cfg, [_path(2e-4, 0.0, 180.0)])
    found = _sweep(cfg, {0: ch0, 1: ch1})
    rsrps = [b.rsrp for b in found]
    assert rsrps == sorted(rsrps, reverse=True)
    assert [b.candidate_rank for b in found] == list(range(1, len(found) + 1))
    assert found[0].gnb == 1  # stronger channel wins rank 1


def test_sweep_tie_break_deterministic(small_cfg):
    cfg = small_cfg
    # identical channels on both gNBs produce exact rsrp ties; order must be
    # (gnb, gnb_beam, ue_beam) ascending within a tie
    ch = _channel(cfg, [_path(1e-4, 0.0, 180.0)])
    found = list(_sweep(cfg, {0: ch, 1: ch}))
    for a, b in zip(found, found[1:]):
        assert (-a.rsrp, a.gnb, a.gnb_beam, a.ue_beam) <= \
               (-b.rsrp, b.gnb, b.gnb_beam, b.ue_beam)


def test_sweep_los_flag(small_cfg):
    cfg = small_cfg
    ch = _channel(cfg, [_path(1e-4, 0.0, 180.0, bounces=1)])
    found = _sweep(cfg, {0: ch})
    assert found and all(not b.is_los for b in found
                         if b.ue_beam // 4 == 2 and b.gnb_beam // 4 == 0)


def test_sweep_skips_missing_channels(small_cfg):
    cfg = small_cfg
    found = _sweep(cfg, {0: None})
    assert len(found) == 0


def test_initial_association(small_cfg):
    cfg = small_cfg
    ch = _channel(cfg, [_path(1e-4, 0.0, 180.0)])
    found = _sweep(cfg, {0: ch})
    best = initial_association(found)
    assert best == found[0] and best.candidate_rank == 1
    assert initial_association([]) is None


def _brute_force_sweep(cfg, channels, detection_floor_db=-10.0):
    """Every above-floor (UE beam, gNB beam) entry of every pair, as
    BeamPairLinks sorted by (-rsrp, gnb, gnb_beam, ue_beam), from the
    sweep's own inputs."""
    gbook, ubook, bounces, rows = _sweep_inputs(cfg, channels)
    floor = cfg.noise_w * 10 ** (detection_floor_db / 10.0)
    entries = []
    for g, dominant in bounces.items():
        if dominant is None:
            continue
        table = rsrp_table(rows[g], dominant, gbook, ubook, cfg.p_max_w)
        for ub in range(ubook.n_beams):
            for gb in range(gbook.n_beams):
                if table[ub, gb] >= floor:
                    los = dominant[ubook.panel[ub], gbook.panel[gb]] == 0
                    entries.append((float(table[ub, gb]), g, gb, ub,
                                    bool(los)))
    entries.sort(key=lambda e: (-e[0], e[1], e[2], e[3]))
    return [BeamPairLink(ue=0, gnb=g, gnb_beam=gb, ue_beam=ub, rsrp=r,
                         is_los=los, candidate_rank=i + 1)
            for i, (r, g, gb, ub, los) in enumerate(entries)]


def test_sweep_matches_brute_force_sort_with_ties(small_cfg):
    cfg = small_cfg
    # gNBs 0 and 2 carry the same channel (exact rsrp ties across gNBs); the
    # two-path channel of gNB 1 has LOS and NLOS blocks; gNB 3 has no paths
    tied = _channel(cfg, [_path(1e-4, 0.0, 180.0), _path(3e-5, 95.0, -60.0, 1)])
    other = _channel(cfg, [_path(8e-5, 30.0, 150.0),
                           _path(6e-5, -100.0, 10.0, 1)])
    channels = {0: tied, 1: other, 2: tied, 3: None}
    found = _sweep(cfg, channels)
    expected = _brute_force_sweep(cfg, channels)
    assert len(found) == len(expected) > 0
    assert list(found) == expected
    assert [found[i] for i in range(len(found))] == expected
    assert found[-1] == expected[-1]
    assert any(b.is_los for b in expected) and not all(
        b.is_los for b in expected)
    # the tie across gNBs 0 and 2 really occurs
    assert any(a.rsrp == b.rsrp and a.gnb != b.gnb
               for a, b in zip(expected, expected[1:]))
    with pytest.raises(IndexError):
        found[len(found)]


# per-panel products against the full-matrix ones they replaced --------------

def _full_matrix_rows(channel, ue_book):
    """R = W_ue^H H as one product with the full-array matrix."""
    return ue_book.matrix.conj().T @ full(channel)


def _full_matrix_rsrp(rows, gnb_book, p_ssb):
    coupling = rows @ gnb_book.matrix
    return p_ssb * (coupling.real ** 2 + coupling.imag ** 2)


def _assert_per_panel_products_equal(cfg, channels):
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    n_blocks = 0
    for ch in channels:
        rows = combined_rows(ch, ubook)
        expected = _full_matrix_rows(ch, ubook)
        assert np.array_equal(rows, expected)
        table = rsrp_table(rows, ch.block_dominant_bounces, gbook, ubook,
                           cfg.p_max_w)
        assert np.array_equal(
            table, _full_matrix_rsrp(expected, gbook, cfg.p_max_w))
        n_blocks += int((ch.block_dominant_bounces >= 0).sum())
    assert n_blocks > 0


def _realization_channels(cfg, n_q_csi_bits):
    """Every pair's channel of realization 0, from its true paths and, with
    a finite ``n_q_csi_bits``, from its quantized ones."""
    dep = generate_deployment(cfg, 0)
    grid = estimation_grid(n_q_csi_bits)
    for g in range(dep.n_gnbs):
        for u in range(dep.n_ues):
            paths = synthesize_paths(dep, g, u, pair_rng(cfg, 0, g, u), cfg)
            if len(paths):
                yield assemble_channel(quantize_paths(paths, grid), cfg,
                                       dep.gnb_panel_orientations[g],
                                       dep.ue_panel_orientations[u])


@pytest.mark.parametrize("profile,n_q", [("desk", float("inf")), ("desk", 6),
                                         ("tiny", float("inf"))])
def test_per_panel_products_equal_full_matrix_products(profile, n_q):
    # every pair of one realization: the block-by-block R and RSRP equal the
    # full-matrix products bit for bit
    cfg = (desk_scale_config(n_realizations=1) if profile == "desk" else
           load_config(str(ROOT / "configs" / "tiny.yaml")))
    _assert_per_panel_products_equal(cfg, _realization_channels(cfg, n_q))


def test_per_panel_products_on_hand_built_empty_blocks(small_cfg):
    # random blocks where the dominant table marks them used, zeros where
    # it marks them empty (a whole UE panel and a whole gNB panel included)
    cfg = small_cfg
    rng = np.random.default_rng(3)
    dominant = np.array([[0, -1, 1, -1], [-1, -1, -1, -1],
                         [1, 0, -1, -1], [0, 1, 1, -1]])
    blocks = (rng.standard_normal((4, 4, cfg.n_r, cfg.n_t))
              + 1j * rng.standard_normal((4, 4, cfg.n_r, cfg.n_t)))
    blocks[dominant < 0] = 0.0
    ch = MultiPanelChannel(blocks=blocks, block_dominant_bounces=dominant)
    _assert_per_panel_products_equal(cfg, [ch])
    rows = combined_rows(ch, default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r))
    assert not rows[4:8].any() and not rows[:, 3 * cfg.n_t:].any()
