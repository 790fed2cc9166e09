"""Beam codebooks for sweeping and the angular grid for channel estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import D_OVER_LAMBDA, panel_grid, ura_steering
from .errors import ConfigurationError
from .scenario import N_SEC


@dataclass(frozen=True)
class FullCodebook:
    """One node type's beams on all four sector panels; beam ids are
    panel-major."""

    n_q: int
    per_panel: int
    matrix: np.ndarray        # (4 * n_elements, n_beams); zero outside own panel
    weights: np.ndarray       # (n_elements, per_panel): every panel's block
    panel: np.ndarray         # (n_beams,) owning panel index
    local_az_deg: np.ndarray  # (n_beams,)

    @property
    def n_beams(self) -> int:
        return self.matrix.shape[1]


def default_full_codebook(n_q: int, n_elements: int) -> FullCodebook:
    """Steered-beam codebook: on every panel, 2^n_q azimuths at half-step
    offsets in (-45, 45).

    A beam's full-array weight vector is its panel weight vector placed in
    that panel's element slice, zeros elsewhere (norm preserved).  Weights
    are panel-local, so the book does not depend on panel orientation and
    every node of one type shares it.
    """
    if n_q < 1:
        raise ConfigurationError("codebook size n_q must be >= 1 bit")
    per_panel = 2 ** n_q
    azimuths = -45.0 + (np.arange(per_panel) + 0.5) * (90.0 / per_panel)
    n_h, n_v = panel_grid(n_elements)
    weights = ura_steering(n_h, n_v, D_OVER_LAMBDA, azimuths,
                           np.zeros(per_panel))
    matrix = np.zeros((N_SEC * n_elements, N_SEC * per_panel), dtype=complex)
    for p in range(N_SEC):
        matrix[p * n_elements:(p + 1) * n_elements,
               p * per_panel:(p + 1) * per_panel] = weights
    return FullCodebook(n_q=n_q, per_panel=per_panel, matrix=matrix,
                        weights=weights,
                        panel=np.repeat(np.arange(N_SEC), per_panel),
                        local_az_deg=np.tile(azimuths, N_SEC))


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
