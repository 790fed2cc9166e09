import numpy as np
import pytest

from mmwsim.beamsweep import (BeamPairLink, combined_rows, initial_association,
                              rsrp_table, sweep)
from mmwsim.channel import PropagationPath, assemble_channel
from mmwsim.codebook import default_full_codebook
from mmwsim.scenario import NetworkConfig

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def _channel(cfg, paths):
    return assemble_channel(paths, cfg, ORIENT, ORIENT)


def _sweep(cfg, channels, detection_floor_db=-10.0):
    """Sweep UE 0 over gNB -> channel (or None) with the shared codebooks."""
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    rows = {g: combined_rows(ch, ubook) for g, ch in channels.items()
            if ch is not None}
    return sweep(0, channels, rows, gbook, ubook, cfg.p_max_w, cfg.noise_w,
                 detection_floor_db)


def _path(gain, aod_az, aoa_az, bounces=0):
    return PropagationPath(gain=gain, aod_az_deg=aod_az, aod_el_deg=0.0,
                           aoa_az_deg=aoa_az, aoa_el_deg=0.0,
                           bounces=bounces, path_length_m=60.0)


@pytest.fixture
def small_cfg():
    return NetworkConfig(area_side_m=250.0, n_t=16, n_r=4, n_q_sweep_bits=2)


def test_rsrp_table_matches_per_pair_loop(small_cfg):
    cfg = small_cfg
    ch = _channel(cfg, [_path(1e-4, 11.0, -95.0), _path(5e-5, 40.0, 100.0, 1)])
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    table = rsrp_table(combined_rows(ch, ubook), gbook, p_ssb=1.0)
    full = ch.full()
    for ub in range(ubook.n_beams):
        for gb in range(gbook.n_beams):
            val = abs(ubook.matrix[:, ub].conj() @ full @ gbook.matrix[:, gb]) ** 2
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
    BeamPairLinks sorted by (-rsrp, gnb, gnb_beam, ue_beam)."""
    gbook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_t)
    ubook = default_full_codebook(cfg.n_q_sweep_bits, cfg.n_r)
    floor = cfg.noise_w * 10 ** (detection_floor_db / 10.0)
    entries = []
    for g, ch in channels.items():
        if ch is None:
            continue
        table = rsrp_table(combined_rows(ch, ubook), gbook, cfg.p_max_w)
        for ub in range(ubook.n_beams):
            for gb in range(gbook.n_beams):
                if table[ub, gb] >= floor:
                    los = ch.block_dominant_bounces[ubook.panel[ub],
                                                    gbook.panel[gb]] == 0
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
