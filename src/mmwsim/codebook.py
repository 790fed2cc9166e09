"""Beam codebooks for sweeping and the angular grid for channel estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import D_OVER_LAMBDA, panel_grid, ura_steering
from .errors import ConfigurationError

N_SEC = 4


@dataclass(frozen=True)
class SectorCodebook:
    """2^n_q steered beams covering the +-45 deg range of one sector panel."""

    n_q: int
    n_elements: int
    beam_azimuths_deg: np.ndarray   # (2^n_q,)
    weights: np.ndarray             # (n_elements, 2^n_q), unit-norm columns

    @property
    def n_beams(self) -> int:
        return len(self.beam_azimuths_deg)


@dataclass(frozen=True)
class FullCodebook:
    """Union of the four sector books with full-array beam embeddings."""

    n_q: int
    per_panel: int
    matrix: np.ndarray        # (4 * n_elements, n_beams); zero outside own panel
    panel: np.ndarray         # (n_beams,) owning panel index
    local_az_deg: np.ndarray  # (n_beams,)

    @property
    def n_beams(self) -> int:
        return self.matrix.shape[1]


def build_sector_codebook(n_q: int, n_elements: int) -> SectorCodebook:
    """Steered-beam codebook: 2^n_q azimuths at half-step offsets in (-45, 45)."""
    if n_q < 1:
        raise ConfigurationError("codebook size n_q must be >= 1 bit")
    n_beams = 2 ** n_q
    step = 90.0 / n_beams
    azimuths = -45.0 + (np.arange(n_beams) + 0.5) * step
    n_h, n_v = panel_grid(n_elements)
    weights = np.column_stack([
        ura_steering(n_h, n_v, D_OVER_LAMBDA, az, 0.0) for az in azimuths])
    return SectorCodebook(n_q=n_q, n_elements=n_elements,
                          beam_azimuths_deg=azimuths, weights=weights)


def full_codebook(sector_books: list[SectorCodebook]) -> FullCodebook:
    """Merge four sector books; beam ids are panel-major.

    A beam's full-array weight vector is its panel weight vector placed in
    that panel's element slice, zeros elsewhere (norm preserved).  Weights
    are panel-local, so the book does not depend on panel orientation and
    every node of one type shares it.
    """
    if len(sector_books) != N_SEC:
        raise ConfigurationError("expected one sector codebook per panel (4)")
    sizes = {b.n_beams for b in sector_books}
    if len(sizes) != 1:
        raise ConfigurationError("sector codebooks must have equal size")
    n_el = sector_books[0].n_elements
    per_panel = sector_books[0].n_beams
    n_beams = N_SEC * per_panel

    matrix = np.zeros((N_SEC * n_el, n_beams), dtype=complex)
    panel = np.empty(n_beams, dtype=int)
    local_az = np.empty(n_beams)
    for p, book in enumerate(sector_books):
        for i in range(per_panel):
            b = p * per_panel + i
            matrix[p * n_el:(p + 1) * n_el, b] = book.weights[:, i]
            panel[b] = p
            local_az[b] = book.beam_azimuths_deg[i]
    return FullCodebook(n_q=sector_books[0].n_q, per_panel=per_panel,
                        matrix=matrix, panel=panel, local_az_deg=local_az)


def default_full_codebook(n_q: int, n_elements: int) -> FullCodebook:
    book = build_sector_codebook(n_q, n_elements)
    return full_codebook([book] * N_SEC)


def resolution(n_q) -> tuple[float, float]:
    """Angular resolution (azimuth, elevation) of an n_q-bit estimation codebook."""
    if not math.isfinite(n_q):
        raise ConfigurationError("resolution is undefined for the exact-CSI "
                                 "sentinel; use exact-channel mode instead")
    if not (isinstance(n_q, (int, np.integer)) or float(n_q).is_integer()):
        raise ConfigurationError(f"n_q must be an integer, got {n_q!r}")
    n_q = int(n_q)
    az_step = 360.0 / (N_SEC * 2 ** n_q)
    el_step = 180.0 / (N_SEC * 2 ** (n_q - 1))
    return az_step, el_step


@dataclass(frozen=True)
class EstimationGrid:
    """Angular quantization lattice for channel estimation; n_q None = exact."""

    n_q: object                  # int or math.inf
    az_step_deg: float
    el_step_deg: float

    @property
    def is_exact(self) -> bool:
        return not math.isfinite(self.n_q)


def estimation_grid(n_q) -> EstimationGrid:
    if not math.isfinite(n_q):
        return EstimationGrid(n_q=math.inf, az_step_deg=0.0, el_step_deg=0.0)
    az_step, el_step = resolution(n_q)
    return EstimationGrid(n_q=int(n_q), az_step_deg=az_step, el_step_deg=el_step)
