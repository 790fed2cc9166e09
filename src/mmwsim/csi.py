"""Quantized channel estimation: propagation paths snapped to an angular lattice."""

from __future__ import annotations

import numpy as np

from .channel import Paths, wrap_angle_deg
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


def quantize_paths(paths: Paths, grid: EstimationGrid) -> Paths:
    """Snap path angles to the estimation lattice and merge collisions.

    With the exact-CSI grid the input is returned unchanged.  Paths that end
    up with identical quantized angle 4-tuples are merged by coherent complex
    gain summation, in path order, at the position of the first; the
    stronger contributor (against the running sum) keeps its bounce count
    and length.  The result feeds ``assemble_channel`` like true paths.
    """
    if grid.is_exact or not len(paths):
        return paths
    az = snap_azimuth(np.column_stack([paths.aod_az_deg, paths.aoa_az_deg]),
                      grid.az_step_deg)
    el = snap_elevation(np.column_stack([paths.aod_el_deg, paths.aoa_el_deg]),
                        grid.el_step_deg)
    # lattice points are exact binary fractions at least one step apart, so
    # equal snapped floats are exactly the colliding paths
    groups: dict = {}
    for i, key in enumerate(map(tuple, np.column_stack([az, el]).tolist())):
        groups.setdefault(key, []).append(i)
    keep = [members[0] for members in groups.values()]
    gain, bounces, length = (paths.gain[keep], paths.bounces[keep],
                             paths.length_m[keep])
    for j, members in enumerate(groups.values()):
        acc = paths.gain[members[0]].item()
        for i in members[1:]:
            g = paths.gain[i].item()
            if abs(g) > abs(acc):
                bounces[j], length[j] = paths.bounces[i], paths.length_m[i]
            acc = acc + g
        gain[j] = acc
    return Paths(gain=gain, aod_az_deg=az[keep, 0], aod_el_deg=el[keep, 0],
                 aoa_az_deg=az[keep, 1], aoa_el_deg=el[keep, 1],
                 bounces=bounces, length_m=length)
