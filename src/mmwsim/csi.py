"""Quantized channel estimation: propagation paths snapped to an angular lattice."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import wrap_angle_deg
from .codebook import EstimationGrid


def snap_azimuth(az_deg: float, step: float) -> float:
    """Snap to the nearest half-step lattice point; exact ties go down."""
    t = az_deg / step
    k = np.floor(t)
    centre = (t - 0.5) if t == k else (k + 0.5)
    return float(wrap_angle_deg(centre * step))

def snap_elevation(el_deg: float, step: float) -> float:
    t = el_deg / step
    k = np.floor(t)
    centre = (t - 0.5) if t == k else (k + 0.5)
    # lattice centres must stay inside [-90, 90]
    lo, hi = -90.0 / step + 0.5, 90.0 / step - 0.5
    return float(min(max(centre, lo), hi) * step)


def quantize_paths(paths: list, grid: EstimationGrid) -> list:
    """Snap path angles to the estimation lattice and merge collisions.

    With the exact-CSI grid the input is returned unchanged.  Paths that end
    up with identical quantized angle 4-tuples are merged by coherent complex
    gain summation.  The result feeds ``assemble_channel`` like true paths.
    """
    if grid.is_exact:
        return list(paths)
    merged: dict = {}
    for p in paths:
        q = replace(
            p,
            aod_az_deg=snap_azimuth(p.aod_az_deg, grid.az_step_deg),
            aod_el_deg=snap_elevation(p.aod_el_deg, grid.el_step_deg),
            aoa_az_deg=snap_azimuth(p.aoa_az_deg, grid.az_step_deg),
            aoa_el_deg=snap_elevation(p.aoa_el_deg, grid.el_step_deg))
        key = (round(q.aod_az_deg, 9), round(q.aod_el_deg, 9),
               round(q.aoa_az_deg, 9), round(q.aoa_el_deg, 9))
        prev = merged.get(key)
        if prev is not None:
            # keep the stronger contributor's bounce count and length
            keep = q if abs(q.gain) > abs(prev.gain) else prev
            q = replace(q, gain=prev.gain + q.gain, bounces=keep.bounces,
                        path_length_m=keep.path_length_m)
        merged[key] = q   # a merged key keeps its first position
    return list(merged.values())
