import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import full
from mmwsim import runner, scenario
from mmwsim.channel import (D_OVER_LAMBDA, PANEL_HALF_WIDTH_DEG, Paths,
                            _expand_clusters, assemble_channel, direction_deg, fspl_db,
                            ingest_paths, pair_rng, panel_grid,
                            synthesize_paths, ula_steering, ura_steering,
                            wrap_angle_deg)
from mmwsim.codebook import estimation_grid
from mmwsim.csi import quantize_paths
from mmwsim.errors import TraceParseError, TraceReferenceError
from mmwsim.runner import desk_scale_config
from mmwsim.scenario import NetworkConfig, _azel, generate_deployment

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def test_ula_steering_against_scalar_loop():
    # independent elementwise evaluation of the array response
    n, d, phi = 7, 0.5, 23.4
    vec = ula_steering(n, d, phi)[:, 0]
    for m in range(n):
        expected = cmath.exp(1j * m * 2 * math.pi * d *
                             math.sin(math.radians(phi))) / math.sqrt(n)
        assert vec[m] == pytest.approx(expected, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_ula_steering_frozen_quadrature():
    # n=4, phi=30 deg: element phases step by pi/2
    vec = ula_steering(4, 0.5, 30.0)[:, 0]
    expected = np.array([0.5, 0.5j, -0.5, -0.5j])
    assert np.allclose(vec, expected, atol=1e-12)


def test_ura_is_kronecker_of_linear_factors():
    a = ura_steering(4, 2, 0.5, 17.0, -9.0)[:, 0]
    ah = ula_steering(4, 0.5, 17.0)[:, 0]
    av = ula_steering(2, 0.5, -9.0)[:, 0]
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
    return (gain, aod_az, aod_el, aoa_az, aoa_el, bounces, 50.0)


def _assemble(rows, cfg):
    return assemble_channel(Paths.from_rows(rows), cfg, ORIENT, ORIENT)


def test_assemble_single_path_block_placement_and_norm():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = _assemble([_single_path(aod_az=10.0, aoa_az=95.0)], cfg)
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
    ch = _assemble([_single_path(aod_az=45.0, aoa_az=0.0)], cfg)
    assert ch.block_dominant_bounces[0, 0] == 0
    assert ch.block_dominant_bounces[0, 1] == 0


def test_assemble_elevation_gating():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = _assemble([_single_path(aod_el=50.0)], cfg)
    assert not np.any(ch.blocks)
    assert np.all(ch.block_dominant_bounces == -1)


def test_assemble_per_block_k_normalization():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    # two equal-gain paths into the same block: scale sqrt(n_r n_t / 2) each
    paths = [_single_path(aod_az=-20.0, aoa_az=-20.0),
             _single_path(aod_az=20.0, aoa_az=20.0, bounces=1)]
    ch = _assemble(paths, cfg)
    one = _assemble(paths[:1], cfg)
    # rank-1 contribution of the first path inside the 2-path block is
    # attenuated by sqrt(2) relative to the single-path assembly
    a_r = one.blocks[0, 0]
    coeff = np.vdot(a_r, ch.blocks[0, 0]) / np.vdot(a_r, a_r)
    assert abs(coeff) < 1.0


def test_dominant_bounce_tracks_strongest_gain():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    paths = [_single_path(gain=0.1 + 0j, bounces=0),
             _single_path(aod_az=5.0, aoa_az=5.0, gain=1.0 + 0j, bounces=1)]
    ch = _assemble(paths, cfg)
    assert ch.block_dominant_bounces[0, 0] == 1


def test_full_matrix_block_layout():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    ch = _assemble([_single_path(aod_az=100.0, aoa_az=-100.0)], cfg)
    h = full(ch)
    assert h.shape == (16, 64)
    # UE panel 3 rows, gNB panel 1 columns
    assert np.allclose(h[12:16, 16:32], ch.blocks[3, 1])


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
    for gain, bounces, length in zip(p1.gain, p1.bounces, p1.length_m):
        assert length >= d - 1e-9
        if bounces == 0:
            assert length == pytest.approx(d)
            # each of the n_subpaths cluster rays carries an equal share
            assert abs(gain) == pytest.approx(
                10 ** (-fspl_db(d, cfg.carrier_hz) / 20.0)
                / math.sqrt(cfg.n_subpaths))
            los_power += abs(gain) ** 2
    assert los_power == pytest.approx(
        10 ** (-fspl_db(d, cfg.carrier_hz) / 10.0))


def _rows(paths):
    """The rays of a Paths record as Python-scalar row tuples."""
    return list(zip(*(getattr(paths, f).tolist() for f in (
        "gain", "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg",
        "bounces", "length_m"))))


def _expand_clusters_per_subpath(paths, rng, cfg):
    """Cluster expansion one subpath at a time: three draws and one row per
    diffuse ray, scalar wrap and clip."""
    n = cfg.n_subpaths
    if n <= 1 or cfg.cluster_spread_deg <= 0.0 or not len(paths):
        return paths
    s_az = cfg.cluster_spread_deg
    s_el = 0.5 * s_az
    scale = 1.0 / math.sqrt(n)
    out = []
    for gain, aod_az, aod_el, aoa_az, aoa_el, bounces, length in _rows(paths):
        out.append((gain * scale, aod_az, aod_el, aoa_az, aoa_el, bounces,
                    length))
        mag = abs(gain) * scale
        for _ in range(n - 1):
            daz = rng.normal(0.0, s_az, size=2)
            del_ = rng.normal(0.0, s_el, size=2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.append((
                mag * complex(math.cos(phi), math.sin(phi)),
                float(wrap_angle_deg(aod_az + daz[0])),
                float(np.clip(aod_el + del_[0], -90.0, 90.0)),
                float(wrap_angle_deg(aoa_az + daz[1])),
                float(np.clip(aoa_el + del_[1], -90.0, 90.0)),
                bounces, length))
    return Paths.from_rows(out)


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
            assert got.gain.dtype == complex and all(
                getattr(got, f).dtype == float for f in (
                    "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg",
                    "length_m"))
            # both streams end in the same state
            assert rng_a.random() == rng_b.random()
            assert got == synthesize_paths(dep, g, u, pair_rng(cfg, 0, g, u),
                                           cfg)
            n_rays += len(got)
    assert n_rays > 0


def _synthesize_per_pair(dep, gnb, ue, rng, cfg):
    """Path synthesis that computes both legs of every reflection for this
    pair, one row per nominal ray, then expands clusters per subpath."""
    g = dep.gnb_positions[gnb]
    u = dep.ue_positions[ue]
    lam = cfg.wavelength_m
    rows = []
    d_los = float(np.linalg.norm(u - g))
    los_draw = rng.uniform()
    scat_draws = rng.uniform(size=len(dep.scatterer_positions))
    if d_los > 0 and los_draw < math.exp(-d_los / cfg.d_blockage_m):
        mag = 10 ** (-fspl_db(d_los, cfg.carrier_hz) / 20.0)
        phase = -2.0 * math.pi * d_los / lam
        aod = direction_deg(g, u)
        aoa = direction_deg(u, g)
        rows.append((mag * complex(math.cos(phase), math.sin(phase)),
                     aod[0], aod[1], aoa[0], aoa[1], 0, d_los))
    to_s = dep.scatterer_positions - g
    from_u = dep.scatterer_positions - u
    for s_idx, (d1, d2) in enumerate(zip(to_s, from_u)):
        total = math.sqrt(d1.dot(d1)) + math.sqrt(d2.dot(d2))
        if total <= 0:
            continue
        if scat_draws[s_idx] >= math.exp(-total / cfg.d_blockage_m):
            continue
        loss_db = fspl_db(total, cfg.carrier_hz) + cfg.reflection_loss_db
        mag = 10 ** (-loss_db / 20.0)
        phase = -2.0 * math.pi * total / lam
        aod = _azel(d1)
        aoa = _azel(d2)
        rows.append((mag * complex(math.cos(phase), math.sin(phase)),
                     aod[0], aod[1], aoa[0], aoa[1], 1, total))
    return _expand_clusters_per_subpath(Paths.from_rows(rows), rng, cfg)


@pytest.mark.parametrize("overrides", [{}, dict(n_ue_hotspots=12,
                                                hotspot_fraction=1.0,
                                                hotspot_radius_m=3.0)])
def test_synthesize_paths_equals_per_pair_legs(overrides):
    # every gNB-UE pair of a desk and a hotspot realization: the per-node
    # leg tables give every ray bit for bit, and the stream ends in the
    # same state
    cfg = desk_scale_config(n_realizations=1, **overrides)
    dep = generate_deployment(cfg, 0)
    n_rays = 0
    for g in range(dep.n_gnbs):
        for u in range(dep.n_ues):
            rng_a = pair_rng(cfg, 0, g, u)
            rng_b = pair_rng(cfg, 0, g, u)
            got = synthesize_paths(dep, g, u, rng_a, cfg)
            assert got == _synthesize_per_pair(dep, g, u, rng_b, cfg)
            assert rng_a.random() == rng_b.random()
            n_rays += len(got)
    assert n_rays > 0


def test_scatterer_legs_built_once_per_node(monkeypatch):
    # one prepared realization computes each gNB's and each UE's legs once
    origins = []

    def counting(origin, scatterers):
        origins.append(tuple(origin.tolist()))
        return node_legs(origin, scatterers)

    node_legs = scenario._node_legs
    monkeypatch.setattr(scenario, "_node_legs", counting)
    cfg = desk_scale_config(n_realizations=1, n_q_csi_bits=6)
    ctx = runner.prepare_realization(cfg, 0)
    nodes = np.vstack([ctx.dep.gnb_positions, ctx.dep.ue_positions])
    assert sorted(origins) == sorted(map(tuple, nodes.tolist()))
    assert ctx.dep.n_ues > 0


def _assemble_per_block(paths, cfg, gnb_orientations, ue_orientations):
    """Block assembly that builds both steering matrices of every (UE
    panel, gNB panel) block from that block's own paths."""
    n_t, n_r = cfg.n_t, cfg.n_r
    nh_t, nv_t = panel_grid(n_t)
    nh_r, nv_r = panel_grid(n_r)
    blocks = np.zeros((4, 4, n_r, n_t), dtype=complex)
    dominant = np.full((4, 4), -1, dtype=int)
    aod_az, aod_el = paths.aod_az_deg, paths.aod_el_deg
    aoa_az, aoa_el = paths.aoa_az_deg, paths.aoa_el_deg
    gains, bounce = paths.gain, paths.bounces
    for p in range(4):
        loc_aoa = wrap_angle_deg(aoa_az - ue_orientations[p])
        ue_ok = (np.abs(loc_aoa) <= PANEL_HALF_WIDTH_DEG) & \
                (np.abs(aoa_el) <= PANEL_HALF_WIDTH_DEG)
        if not ue_ok.any():
            continue
        for q in range(4):
            loc_aod = wrap_angle_deg(aod_az - gnb_orientations[q])
            sel = ue_ok & (np.abs(loc_aod) <= PANEL_HALF_WIDTH_DEG) & \
                (np.abs(aod_el) <= PANEL_HALF_WIDTH_DEG)
            idx = np.nonzero(sel)[0]
            if len(idx) == 0:
                continue
            a_r = ura_steering(nh_r, nv_r, D_OVER_LAMBDA,
                               loc_aoa[idx], aoa_el[idx])
            a_t = ura_steering(nh_t, nv_t, D_OVER_LAMBDA,
                               loc_aod[idx], aod_el[idx])
            scale = math.sqrt(n_r * n_t / len(idx))
            blocks[p, q] = scale * (a_r * gains[idx]) @ a_t.conj().T
            dom = idx[np.argmax(np.abs(gains[idx]))]
            dominant[p, q] = bounce[dom]
    return blocks, dominant


def test_assemble_channel_matches_per_block_steering():
    # every gNB-UE pair of a desk realization, with its exact and its
    # quantized paths: per-panel steering gives every block bit for bit
    cfg = desk_scale_config(n_realizations=1)
    dep = generate_deployment(cfg, 0)
    grid = estimation_grid(6)
    n_blocks = 0
    for g in range(dep.n_gnbs):
        for u in range(dep.n_ues):
            plist = synthesize_paths(dep, g, u, pair_rng(cfg, 0, g, u), cfg)
            if not len(plist):
                continue
            for paths in (plist, quantize_paths(plist, grid)):
                args = (paths, cfg, dep.gnb_panel_orientations[g],
                        dep.ue_panel_orientations[u])
                ch = assemble_channel(*args)
                blocks, dominant = _assemble_per_block(*args)
                assert np.array_equal(ch.blocks, blocks)
                assert np.array_equal(ch.block_dominant_bounces, dominant)
                n_blocks += int((dominant >= 0).sum())
    assert n_blocks > 0


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
    assert paths[(0, 0)].gain[0] == 0.5 - 0.5j


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
    "0,0,nan,0,0,0,0,0,0,10",      # non-finite gain
    "0,0,1,inf,0,0,0,0,0,10",      # non-finite gain
    "0,0,1,0,0,0,0,0,0,nan",       # non-finite length
    "0,0,1,0,0,0,0,0,0,inf",       # non-finite length
])
def test_ingest_rejects_malformed_rows(tmp_path, row):
    path = _write_trace(tmp_path, [row])
    with pytest.raises(TraceParseError) as err:
        ingest_paths(path)
    assert err.value.line == 2


def test_ingest_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    plain = _write_trace(tmp_path, ["0,0,0.5,-0.5,10,0,-170,0,0,40",
                                    "1,0,0.2,0,-10,0,170,0,0,55"])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "trace.csv").read_bytes())
    assert ingest_paths(str(marked)) == ingest_paths(plain)


def test_ingest_undecodable_bytes_is_parse_error(tmp_path):
    path = tmp_path / "trace.bin"
    path.write_bytes((_HEADER + "\n0,0,1,0,0,0,0,0,0,10\n").encode()
                     + np.random.default_rng(0).bytes(3000))
    with pytest.raises(TraceParseError) as err:
        ingest_paths(str(path))
    assert err.value.line >= 3
    assert "UTF-8" in str(err.value)


def test_ingest_unknown_ids(tmp_path):
    path = _write_trace(tmp_path, ["5,0,1,0,0,0,0,0,0,10"])
    with pytest.raises(TraceReferenceError):
        ingest_paths(path, n_gnbs=4, n_ues=10)
    path = _write_trace(tmp_path, ["0,12,1,0,0,0,0,0,0,10"])
    with pytest.raises(TraceReferenceError):
        ingest_paths(path, n_gnbs=4, n_ues=10)
