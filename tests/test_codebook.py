import math

import numpy as np
import pytest

from mmwsim.channel import D_OVER_LAMBDA, panel_grid, ura_steering
from mmwsim.codebook import (EstimationGrid, default_full_codebook,
                             estimation_grid, resolution)
from mmwsim.errors import ConfigurationError


def test_sector_beam_azimuths():
    book = default_full_codebook(2, 16)
    assert np.allclose(book.local_az_deg[:book.per_panel],
                       [-33.75, -11.25, 11.25, 33.75])
    book = default_full_codebook(1, 16)
    assert np.allclose(book.local_az_deg[:book.per_panel], [-22.5, 22.5])


def test_sector_weights_are_boresight_steering_vectors():
    book = default_full_codebook(3, 64)
    for i, az in enumerate(book.local_az_deg[:book.per_panel]):
        expected = ura_steering(8, 8, 0.5, az, 0.0)[:, 0]
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


def _merged_sector_books(n_q, n_elements):
    """Reference: the codebook as it was once built, one sector book of
    per-azimuth scalar steering vectors, merged four times beam by beam."""
    def ula(n, phi):
        phase = 2.0 * np.pi * D_OVER_LAMBDA * np.sin(np.deg2rad(phi))
        return np.exp(1j * np.arange(n) * phase) / np.sqrt(n)

    n_beams = 2 ** n_q
    step = 90.0 / n_beams
    azimuths = -45.0 + (np.arange(n_beams) + 0.5) * step
    n_h, n_v = panel_grid(n_elements)
    weights = np.column_stack([np.kron(ula(n_h, az), ula(n_v, 0.0))
                               for az in azimuths])
    matrix = np.zeros((4 * n_elements, 4 * n_beams), dtype=complex)
    panel = np.empty(4 * n_beams, dtype=int)
    local_az = np.empty(4 * n_beams)
    for p in range(4):
        for i in range(n_beams):
            b = p * n_beams + i
            matrix[p * n_elements:(p + 1) * n_elements, b] = weights[:, i]
            panel[b] = p
            local_az[b] = azimuths[i]
    return dict(n_q=n_q, per_panel=n_beams, matrix=matrix,
                sector_weights=np.array([weights] * 4), panel=panel,
                local_az_deg=local_az)


@pytest.mark.parametrize("n_q", range(1, 7))
def test_default_full_codebook_matches_merged_sector_books(n_q):
    for n in (4, 8, 12, 16, 64, 256):
        book = default_full_codebook(n_q, n)
        ref = _merged_sector_books(n_q, n)
        assert (book.n_q, book.per_panel) == (ref["n_q"], ref["per_panel"])
        for name in ("matrix", "panel", "local_az_deg"):
            got, want = getattr(book, name), ref[name]
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # one weight block serves every panel
        for block in ref["sector_weights"]:
            assert np.array_equal(book.weights, block)
        assert book.weights.flags.c_contiguous


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
        default_full_codebook(0, 16)
