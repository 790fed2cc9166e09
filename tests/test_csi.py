import math

import numpy as np
import pytest

from mmwsim.channel import PropagationPath, assemble_channel, wrap_angle_deg
from mmwsim.codebook import estimation_grid
from mmwsim.csi import quantize_paths, snap_azimuth, snap_elevation
from mmwsim.scenario import NetworkConfig

ORIENT = np.array([0.0, 90.0, 180.0, 270.0])


def _path(aod_az, aoa_az, gain=1e-4 + 0j, aod_el=0.0, aoa_el=0.0, bounces=0):
    return PropagationPath(gain=gain, aod_az_deg=aod_az, aod_el_deg=aod_el,
                           aoa_az_deg=aoa_az, aoa_el_deg=aoa_el,
                           bounces=bounces, path_length_m=50.0)


def test_snap_azimuth_lattice_centres():
    step = 5.625
    # 1.0 deg lies in cell [0, 5.625) whose centre is 2.8125
    assert snap_azimuth(1.0, step) == pytest.approx(2.8125)
    assert snap_azimuth(5.0, step) == pytest.approx(2.8125)
    assert snap_azimuth(-1.0, step) == pytest.approx(-2.8125)


def test_snap_azimuth_exact_boundary_goes_down():
    step = 5.625
    # an angle exactly on a cell edge snaps to the lower cell's centre
    assert snap_azimuth(5.625, step) == pytest.approx(2.8125)
    assert snap_azimuth(0.0, step) == pytest.approx(-2.8125)


def test_snap_azimuth_wraps():
    assert -180.0 <= snap_azimuth(179.9, 5.625) < 180.0


def test_snap_elevation_clamped_to_valid_centres():
    step = 5.625
    assert snap_elevation(89.9, step) <= 90.0 - step / 2 + 1e-9
    assert snap_elevation(-90.0, step) >= -90.0 + step / 2 - 1e-9
    assert snap_elevation(1.0, step) == pytest.approx(2.8125)


def test_snap_error_bounded_by_half_step():
    az_step, el_step = 5.625, 5.625
    rng = np.random.default_rng(0)
    for az in rng.uniform(-180, 180, size=200):
        err = abs(snap_azimuth(float(az), az_step) - az)
        err = min(err, 360 - err)
        assert err <= az_step / 2 + 1e-9
    for el in rng.uniform(-89, 89, size=200):
        assert abs(snap_elevation(float(el), el_step) - el) <= el_step / 2 + 1e-9


def test_quantize_exact_grid_is_identity():
    paths = [_path(10.0, -120.0), _path(33.0, 140.0, bounces=1)]
    grid = estimation_grid(math.inf)
    assert quantize_paths(paths, grid) == paths


def test_quantize_merges_colliding_paths_coherently():
    grid = estimation_grid(4)   # 5.625 deg steps
    # both paths fall in the same angular cell on every axis
    p1 = _path(1.0, 100.0, gain=1e-4 + 0j)
    p2 = _path(2.0, 101.0, gain=-0.4e-4 + 0j, bounces=1)
    out = quantize_paths([p1, p2], grid)
    assert len(out) == 1
    assert out[0].gain == pytest.approx(0.6e-4)
    # the stronger contributor defines bounce count and length
    assert out[0].bounces == 0


def test_quantize_preserves_distinct_paths():
    grid = estimation_grid(4)
    out = quantize_paths([_path(1.0, 100.0), _path(40.0, -100.0)], grid)
    assert len(out) == 2


def test_exact_csi_reconstruction_bit_identical():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    paths = [_path(10.0, -120.0), _path(-33.0, 140.0, bounces=1)]
    true = assemble_channel(paths, cfg, ORIENT, ORIENT)
    est = assemble_channel(quantize_paths(paths, estimation_grid(math.inf)),
                           cfg, ORIENT, ORIENT)
    assert np.array_equal(true.blocks, est.blocks)


def test_quantized_reconstruction_differs_but_close():
    cfg = NetworkConfig(area_side_m=250.0, n_t=16, n_r=4)
    paths = [_path(10.3, -120.7)]
    true = assemble_channel(paths, cfg, ORIENT, ORIENT)
    est = assemble_channel(quantize_paths(paths, estimation_grid(6)),
                           cfg, ORIENT, ORIENT)
    assert not np.array_equal(true.blocks, est.blocks)
    num = np.linalg.norm(true.full() - est.full())
    assert num / np.linalg.norm(true.full()) < 0.5


def test_rank_collapse_under_coarse_quantization():
    # two resolvable paths merge into one lattice point at n_q = 4,
    # collapsing the reconstructed block to rank 1
    cfg = NetworkConfig(area_side_m=250.0, n_t=64, n_r=16)
    paths = [_path(9.0, -120.0, gain=1e-4 + 0j),
             _path(10.5, -119.0, gain=1e-4 + 0j, bounces=1)]
    grid = estimation_grid(4)
    q = quantize_paths(paths, grid)
    assert len(q) == 1
    true = assemble_channel(paths, cfg, ORIENT, ORIENT)
    est = assemble_channel(q, cfg, ORIENT, ORIENT)
    s_true = np.linalg.svd(true.blocks[3, 0], compute_uv=False)
    s_est = np.linalg.svd(est.blocks[3, 0], compute_uv=False)
    assert s_true[1] > 1e-8 * s_true[0]
    assert s_est[1] <= 1e-10 * s_est[0]


def _snap_azimuth_scalar(az_deg, step):
    t = az_deg / step
    k = math.floor(t)
    centre = (t - 0.5) if t == k else (k + 0.5)
    return float(wrap_angle_deg(centre * step))


def _snap_elevation_scalar(el_deg, step):
    t = el_deg / step
    k = math.floor(t)
    centre = (t - 0.5) if t == k else (k + 0.5)
    lo, hi = -90.0 / step + 0.5, 90.0 / step - 0.5
    return float(min(max(centre, lo), hi) * step)


@pytest.mark.parametrize("n_q", [1, 4, 6, 8])
def test_array_snapping_equals_elementwise_scalar_snapping(n_q):
    grid = estimation_grid(n_q)
    az_step, el_step = grid.az_step_deg, grid.el_step_deg
    rng = np.random.default_rng(n_q)
    edges_az = az_step * np.arange(-int(180 / az_step) - 1,
                                   int(180 / az_step) + 2)
    edges_el = el_step * np.arange(-int(90 / el_step) - 1,
                                   int(90 / el_step) + 2)
    az = np.concatenate([rng.uniform(-180.0, 180.0, 500), edges_az,
                         [-180.0, 180.0, -90.0, 90.0, 0.0, -0.0]])
    el = np.concatenate([rng.uniform(-90.0, 90.0, 500), edges_el,
                         [-90.0, 90.0, 0.0, -0.0]])
    for angles, step, snap, scalar in (
            (az, az_step, snap_azimuth, _snap_azimuth_scalar),
            (el, el_step, snap_elevation, _snap_elevation_scalar)):
        expected = [scalar(float(a), step) for a in angles]
        one_by_one = [snap(float(a), step) for a in angles]
        assert all(type(x) is float for x in one_by_one)
        assert one_by_one == expected
        snapped = snap(angles, step)
        assert snapped.shape == angles.shape
        assert snapped.tolist() == expected
        # a 2-D block snaps elementwise too
        block = snap(angles[:len(angles) // 2 * 2].reshape(-1, 2), step)
        assert block.ravel().tolist() == expected[:len(angles) // 2 * 2]
