"""Quantized channel estimation: propagation paths snapped to an angular lattice."""

from __future__ import annotations

import numpy as np

from .channel import PropagationPath, wrap_angle_deg
from .codebook import EstimationGrid


def _lattice_centre(t: np.ndarray) -> np.ndarray:
    """Nearest half-step lattice point in step units; exact ties go down."""
    k = np.floor(t)
    return np.where(t == k, t - 0.5, k + 0.5)


def snap_azimuth(az_deg, step: float):
    """Snap azimuths to the nearest half-step lattice point; exact ties go
    down.  A scalar gives a float, an array an array of the same shape."""
    out = wrap_angle_deg(_lattice_centre(np.asarray(az_deg) / step) * step)
    return float(out) if out.ndim == 0 else out


def snap_elevation(el_deg, step: float):
    """Elevation counterpart of ``snap_azimuth``, kept inside [-90, 90]."""
    centre = _lattice_centre(np.asarray(el_deg) / step)
    # lattice centres must stay inside [-90, 90]
    lo, hi = -90.0 / step + 0.5, 90.0 / step - 0.5
    out = np.minimum(np.maximum(centre, lo), hi) * step
    return float(out) if out.ndim == 0 else out


def quantize_paths(paths: list, grid: EstimationGrid) -> list:
    """Snap path angles to the estimation lattice and merge collisions.

    With the exact-CSI grid the input is returned unchanged.  Paths that end
    up with identical quantized angle 4-tuples are merged by coherent complex
    gain summation.  The result feeds ``assemble_channel`` like true paths.
    """
    if grid.is_exact or not paths:
        return list(paths)
    angles = np.array([(p.aod_az_deg, p.aoa_az_deg, p.aod_el_deg, p.aoa_el_deg)
                       for p in paths])
    az = snap_azimuth(angles[:, :2], grid.az_step_deg).tolist()
    el = snap_elevation(angles[:, 2:], grid.el_step_deg).tolist()
    merged: dict = {}
    for p, (aod_az, aoa_az), (aod_el, aoa_el) in zip(paths, az, el):
        key = (round(aod_az, 9), round(aod_el, 9),
               round(aoa_az, 9), round(aoa_el, 9))
        gain, bounces, length = p.gain, p.bounces, p.path_length_m
        prev = merged.get(key)
        if prev is not None:
            # keep the stronger contributor's bounce count and length
            if not abs(gain) > abs(prev.gain):
                bounces, length = prev.bounces, prev.path_length_m
            gain = prev.gain + gain
        merged[key] = PropagationPath(gain, aod_az, aod_el, aoa_az, aoa_el,
                                      bounces, length)   # keeps first position
    return list(merged.values())
