import math

import numpy as np
import pytest

from mmwsim.channel import ula_steering, ura_steering
from mmwsim.codebook import (EstimationGrid, build_sector_codebook,
                             default_full_codebook, estimation_grid,
                             full_codebook, resolution)
from mmwsim.errors import ConfigurationError


def test_sector_beam_azimuths():
    book = build_sector_codebook(2, 16)
    assert np.allclose(book.beam_azimuths_deg,
                       [-33.75, -11.25, 11.25, 33.75])
    book = build_sector_codebook(1, 16)
    assert np.allclose(book.beam_azimuths_deg, [-22.5, 22.5])


def test_sector_weights_are_boresight_steering_vectors():
    book = build_sector_codebook(3, 64)
    for i, az in enumerate(book.beam_azimuths_deg):
        expected = ura_steering(8, 8, 0.5, az, 0.0)
        assert np.allclose(book.weights[:, i], expected, atol=1e-14)
    norms = np.linalg.norm(book.weights, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_full_codebook_panel_major_layout():
    full = default_full_codebook(2, 16)
    assert full.n_beams == 16
    assert np.array_equal(full.panel, np.repeat(np.arange(4), 4))
    # beam 5 = panel 1, local index 1
    assert full.local_az_deg[5] == pytest.approx(-11.25)


def test_full_codebook_zero_padding_preserves_norm():
    full = default_full_codebook(2, 16)
    for b in range(full.n_beams):
        col = full.matrix[:, b]
        p = full.panel[b]
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)
        outside = np.delete(col.reshape(4, 16), p, axis=0)
        assert not np.any(outside)


def test_full_codebook_rejects_mismatched_books():
    b2 = build_sector_codebook(2, 16)
    b3 = build_sector_codebook(3, 16)
    with pytest.raises(ConfigurationError):
        full_codebook([b2, b2, b2, b3])
    with pytest.raises(ConfigurationError):
        full_codebook([b2, b2, b2])


def test_resolution_frozen_values():
    az, el = resolution(4)
    assert az == pytest.approx(360.0 / 64)    # 5.625 deg
    assert el == pytest.approx(180.0 / 32)    # 5.625 deg
    az6, el6 = resolution(6)
    assert az6 == pytest.approx(1.40625)
    assert el6 == pytest.approx(1.40625)


def test_resolution_rejects_inf_and_fractional():
    with pytest.raises(ConfigurationError):
        resolution(math.inf)
    with pytest.raises(ConfigurationError):
        resolution(2.5)


def test_estimation_grid_exact_sentinel():
    grid = estimation_grid(math.inf)
    assert isinstance(grid, EstimationGrid)
    assert grid.is_exact
    finite = estimation_grid(4)
    assert not finite.is_exact
    assert finite.az_step_deg == pytest.approx(5.625)


def test_codebook_size_one_bit_minimum():
    with pytest.raises(ConfigurationError):
        build_sector_codebook(0, 16)
