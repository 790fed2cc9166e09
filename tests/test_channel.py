import cmath
import dataclasses
import math

import numpy as np
import pytest

from mmwsim.channel import (MultiPanelChannel, PropagationPath,
                            _expand_clusters, assemble_channel, direction_deg,
                            fspl_db, ingest_paths, pair_rng, panel_grid,
                            synthesize_paths, ula_steering, ura_steering,
                            wrap_angle_deg)
from mmwsim.errors import TraceParseError, TraceReferenceError
from mmwsim.runner import desk_scale_config
from mmwsim.scenario import NetworkConfig, generate_deployment

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def test_ula_steering_against_scalar_loop():
    # independent elementwise evaluation of the array response
    n, d, phi = 7, 0.5, 23.4
    vec = ula_steering(n, d, phi)
    for m in range(n):
        expected = cmath.exp(1j * m * 2 * math.pi * d *
                             math.sin(math.radians(phi))) / math.sqrt(n)
        assert vec[m] == pytest.approx(expected, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_ula_steering_frozen_quadrature():
    # n=4, phi=30 deg: element phases step by pi/2
    vec = ula_steering(4, 0.5, 30.0)
    expected = np.array([0.5, 0.5j, -0.5, -0.5j])
    assert np.allclose(vec, expected, atol=1e-12)


def test_ura_is_kronecker_of_linear_factors():
    a = ura_steering(4, 2, 0.5, 17.0, -9.0)
    ah = ula_steering(4, 0.5, 17.0)
    av = ula_steering(2, 0.5, -9.0)
    assert np.allclose(a, np.kron(ah, av), atol=1e-14)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_panel_grid():
    assert panel_grid(64) == (8, 8)
    assert panel_grid(16) == (4, 4)
    assert panel_grid(6) == (6, 1)


def test_fspl_frozen_value():
    # Friis free-space loss, 100 m at 28 GHz
    assert fspl_db(100.0, 28e9) == pytest.approx(101.39094384872776, abs=1e-9)


def test_wrap_and_direction():
    assert wrap_angle_deg(190.0) == pytest.approx(-170.0)
    assert wrap_angle_deg(-180.0) == pytest.approx(-180.0)
    az, el = direction_deg([0, 0, 0], [1, 1, math.sqrt(2)])
    assert az == pytest.approx(45.0)
    assert el == pytest.approx(45.0)


def _single_path(aod_az=0.0, aoa_az=0.0, gain=1.0 + 0j, bounces=0,
                 aod_el=0.0, aoa_el=0.0):
    return PropagationPath(gain=gain, aod_az_deg=aod_az, aod_el_deg=aod_el,
                           aoa_az_deg=aoa_az, aoa_el_deg=aoa_el,
                           bounces=bounces, path_length_m=50.0)


def test_assemble_single_path_block_placement_and_norm():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = assemble_channel([_single_path(aod_az=10.0, aoa_az=95.0)], cfg,
                          ORIENT, ORIENT)
    # AoD 10 deg -> gNB panel 0; AoA 95 deg -> UE panel 1
    assert ch.block_dominant_bounces[1, 0] == 0
    assert np.any(ch.blocks[1, 0] != 0)
    # all other blocks empty
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 0] = False
    assert not np.any(ch.blocks[mask])
    # K=1 normalization: ||H_block||_F = sqrt(n_r n_t / K) |gain| * 1
    assert np.linalg.norm(ch.blocks[1, 0]) == pytest.approx(
        math.sqrt(4 * 16), rel=1e-12)


def test_assemble_boundary_path_enters_both_adjacent_panels():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = assemble_channel([_single_path(aod_az=45.0, aoa_az=0.0)], cfg,
                          ORIENT, ORIENT)
    assert ch.block_dominant_bounces[0, 0] == 0
    assert ch.block_dominant_bounces[0, 1] == 0


def test_assemble_elevation_gating():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = assemble_channel([_single_path(aod_el=50.0)], cfg, ORIENT, ORIENT)
    assert not np.any(ch.blocks)
    assert np.all(ch.block_dominant_bounces == -1)


def test_assemble_per_block_k_normalization():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    # two equal-gain paths into the same block: scale sqrt(n_r n_t / 2) each
    paths = [_single_path(aod_az=-20.0, aoa_az=-20.0),
             _single_path(aod_az=20.0, aoa_az=20.0, bounces=1)]
    ch = assemble_channel(paths, cfg, ORIENT, ORIENT)
    one = assemble_channel(paths[:1], cfg, ORIENT, ORIENT)
    # rank-1 contribution of the first path inside the 2-path block is
    # attenuated by sqrt(2) relative to the single-path assembly
    a_r = one.blocks[0, 0]
    coeff = np.vdot(a_r, ch.blocks[0, 0]) / np.vdot(a_r, a_r)
    assert abs(coeff) < 1.0


def test_dominant_bounce_tracks_strongest_gain():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    paths = [_single_path(gain=0.1 + 0j, bounces=0),
             _single_path(aod_az=5.0, aoa_az=5.0, gain=1.0 + 0j, bounces=1)]
    ch = assemble_channel(paths, cfg, ORIENT, ORIENT)
    assert ch.block_dominant_bounces[0, 0] == 1


def test_full_matrix_block_layout():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = assemble_channel([_single_path(aod_az=100.0, aoa_az=-100.0)], cfg,
                          ORIENT, ORIENT)
    full = ch.full()
    assert full.shape == (16, 64)
    # UE panel 3 rows, gNB panel 1 columns
    assert np.allclose(full[12:16, 16:32], ch.blocks[3, 1])


def test_synthesize_paths_deterministic_and_geometric():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    dep = generate_deployment(cfg, 0)
    rng1 = pair_rng(cfg, 0, 1, 2)
    rng2 = pair_rng(cfg, 0, 1, 2)
    p1 = synthesize_paths(dep, 1, 2, rng1, cfg)
    p2 = synthesize_paths(dep, 1, 2, rng2, cfg)
    assert p1 == p2
    d = float(np.linalg.norm(dep.ue_positions[2] - dep.gnb_positions[1]))
    los_power = 0.0
    for p in p1:
        assert p.path_length_m >= d - 1e-9
        if p.is_los:
            assert p.path_length_m == pytest.approx(d)
            # each of the n_subpaths cluster rays carries an equal share
            assert abs(p.gain) == pytest.approx(
                10 ** (-fspl_db(d, cfg.carrier_hz) / 20.0)
                / math.sqrt(cfg.n_subpaths))
            los_power += abs(p.gain) ** 2
    assert los_power == pytest.approx(
        10 ** (-fspl_db(d, cfg.carrier_hz) / 10.0))


def _expand_clusters_per_subpath(paths, rng, cfg):
    """Cluster expansion one subpath at a time: three draws and one
    ``dataclasses.replace`` per diffuse ray, scalar wrap and clip."""
    n = cfg.n_subpaths
    if n <= 1 or cfg.cluster_spread_deg <= 0.0 or not paths:
        return paths
    s_az = cfg.cluster_spread_deg
    s_el = 0.5 * s_az
    scale = 1.0 / math.sqrt(n)
    out = []
    for p in paths:
        out.append(dataclasses.replace(p, gain=p.gain * scale))
        mag = abs(p.gain) * scale
        for _ in range(n - 1):
            daz = rng.normal(0.0, s_az, size=2)
            del_ = rng.normal(0.0, s_el, size=2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.append(dataclasses.replace(
                p,
                gain=mag * complex(math.cos(phi), math.sin(phi)),
                aod_az_deg=float(wrap_angle_deg(p.aod_az_deg + daz[0])),
                aoa_az_deg=float(wrap_angle_deg(p.aoa_az_deg + daz[1])),
                aod_el_deg=float(np.clip(p.aod_el_deg + del_[0], -90.0, 90.0)),
                aoa_el_deg=float(np.clip(p.aoa_el_deg + del_[1], -90.0, 90.0))))
    return out


def test_expand_clusters_equals_per_subpath_expansion():
    # every gNB-UE pair of a desk realization: the array expansion draws the
    # pair's stream in the per-subpath order and reproduces every ray exactly
    cfg = desk_scale_config(n_realizations=1)
    nominal_cfg = dataclasses.replace(cfg, n_subpaths=1)
    dep = generate_deployment(cfg, 0)
    n_rays = 0
    for g in range(dep.n_gnbs):
        for u in range(dep.n_ues):
            rng_a = pair_rng(cfg, 0, g, u)
            rng_b = pair_rng(cfg, 0, g, u)
            nominal = synthesize_paths(dep, g, u, rng_a, nominal_cfg)
            assert synthesize_paths(dep, g, u, rng_b, nominal_cfg) == nominal
            got = _expand_clusters(nominal, rng_a, cfg)
            assert got == _expand_clusters_per_subpath(nominal, rng_b, cfg)
            assert all(type(x) is float for p in got for x in (
                p.aod_az_deg, p.aod_el_deg, p.aoa_az_deg, p.aoa_el_deg))
            # both streams end in the same state
            assert rng_a.random() == rng_b.random()
            assert got == synthesize_paths(dep, g, u, pair_rng(cfg, 0, g, u),
                                           cfg)
            n_rays += len(got)
    assert n_rays > 0


def test_pair_rng_streams_independent():
    cfg = NetworkConfig()
    a = pair_rng(cfg, 0, 0, 0).uniform(size=4)
    b = pair_rng(cfg, 0, 0, 1).uniform(size=4)
    assert not np.allclose(a, b)


# trace-file ingestion --------------------------------------------------------

_HEADER = "gnb_id,ue_id,gain_re,gain_im,aod_az,aod_el,aoa_az,aoa_el,bounces,length_m"


def _write_trace(tmp_path, lines):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([_HEADER] + lines) + "\n")
    return str(path)


def test_ingest_valid_trace(tmp_path):
    path = _write_trace(tmp_path, [
        "0,0,0.5,-0.5,10,0,-170,0,0,40",
        "0,0,0.1,0,30,5,-150,2,1,90",
        "1,0,0.2,0,-10,0,170,0,0,55",
    ])
    paths = ingest_paths(path)
    assert set(paths) == {(0, 0), (1, 0)}
    assert len(paths[(0, 0)]) == 2
    assert paths[(0, 0)][0].gain == 0.5 - 0.5j


def test_ingest_semicolon_delimiter(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(_HEADER.replace(",", ";") + "\n" +
                    "0;0;1;0;0;0;0;0;0;10\n")
    paths = ingest_paths(str(path))
    assert (0, 0) in paths


def test_ingest_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TraceParseError) as err:
        ingest_paths(str(path))
    assert err.value.line == 1


@pytest.mark.parametrize("row", [
    "0,0,1,0,0,0,0,0,5,10",        # bounces out of range
    "0,0,0,0,0,0,0,0,0,10",        # zero gain
    "0,0,1,0,200,0,0,0,0,10",      # azimuth out of range
    "0,0,1,0,0,95,0,0,0,10",       # elevation out of range
    "0,0,1,0,0,0,0,0,0,-3",        # non-positive length
    "0,0,1,0,0,0,0,0,0",           # missing field
    "0,0,x,0,0,0,0,0,0,10",        # non-numeric
])
def test_ingest_rejects_malformed_rows(tmp_path, row):
    path = _write_trace(tmp_path, [row])
    with pytest.raises(TraceParseError) as err:
        ingest_paths(path)
    assert err.value.line == 2


def test_ingest_unknown_ids(tmp_path):
    path = _write_trace(tmp_path, ["5,0,1,0,0,0,0,0,0,10"])
    with pytest.raises(TraceReferenceError):
        ingest_paths(path, n_gnbs=4, n_ues=10)
    path = _write_trace(tmp_path, ["0,12,1,0,0,0,0,0,0,10"])
    with pytest.raises(TraceReferenceError):
        ingest_paths(path, n_gnbs=4, n_ues=10)
