"""Geometric propagation paths and multi-panel channel matrices.

Paths come either from the synthetic scatterer generator or from an external
trace file; both feed the same blockwise channel assembly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TraceParseError, TraceReferenceError
from .scenario import Deployment, NetworkConfig

SPEED_OF_LIGHT = 299792458.0
PANEL_HALF_WIDTH_DEG = 45.0   # angular gating around each panel boresight
D_OVER_LAMBDA = 0.5           # half-wavelength element spacing throughout


def wrap_angle_deg(a):
    """Wrap azimuth angles into [-180, 180)."""
    return (np.asarray(a) + 180.0) % 360.0 - 180.0


def direction_deg(src: np.ndarray, dst: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of the ray leaving ``src`` towards ``dst``."""
    return _azel(np.asarray(dst, dtype=float) - np.asarray(src, dtype=float))


def _azel(d: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of the direction vector ``d``."""
    az = math.degrees(math.atan2(d[1], d[0]))
    el = math.degrees(math.atan2(d[2], math.hypot(d[0], d[1])))
    if az >= 180.0:
        az -= 360.0
    return az, el


def fspl_db(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss (Friis)."""
    lam = SPEED_OF_LIGHT / carrier_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / lam)


def ula_steering(n: int, d_over_lambda: float, phi_deg: float) -> np.ndarray:
    """Unit-norm steering vector of an n-element uniform linear array."""
    m = np.arange(n)
    phase = 2.0 * np.pi * d_over_lambda * np.sin(np.deg2rad(phi_deg))
    return np.exp(1j * m * phase) / np.sqrt(n)


def ura_steering(n_h: int, n_v: int, d_over_lambda: float,
                 phi_deg: float, theta_deg: float) -> np.ndarray:
    """Planar-array steering vector: horizontal (x) vertical Kronecker product."""
    a_h = ula_steering(n_h, d_over_lambda, phi_deg)
    a_v = ula_steering(n_v, d_over_lambda, theta_deg)
    return np.kron(a_h, a_v)


def _ula_steering_many(n: int, d_over_lambda: float,
                       phi_deg: np.ndarray) -> np.ndarray:
    """Stacked ULA steering vectors, one column per angle; (n, k)."""
    m = np.arange(n)
    phase = 2.0 * np.pi * d_over_lambda * np.sin(np.deg2rad(phi_deg))
    return np.exp(1j * np.outer(m, phase)) / np.sqrt(n)


def _ura_steering_many(n_h: int, n_v: int, d_over_lambda: float,
                       phi_deg: np.ndarray,
                       theta_deg: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of ULA factors; (n_h * n_v, k)."""
    a_h = _ula_steering_many(n_h, d_over_lambda, phi_deg)
    a_v = _ula_steering_many(n_v, d_over_lambda, theta_deg)
    return (a_h[:, None, :] * a_v[None, :, :]).reshape(n_h * n_v, -1)


def panel_grid(n_elements: int) -> tuple[int, int]:
    """Horizontal/vertical element split of a sector panel (square if possible)."""
    side = math.isqrt(n_elements)
    if side * side == n_elements:
        return side, side
    return n_elements, 1


@dataclass(frozen=True)
class PropagationPath:
    """One LOS or reflected ray between a gNB and a UE (global angle frames)."""

    gain: complex
    aod_az_deg: float
    aod_el_deg: float
    aoa_az_deg: float
    aoa_el_deg: float
    bounces: int
    path_length_m: float

    @property
    def is_los(self) -> bool:
        return self.bounces == 0


@dataclass
class MultiPanelChannel:
    """4x4 block channel between a UE's and a gNB's sector panels.

    Block (p, q) has shape (n_r, n_t) and links UE panel p to gNB panel q.
    """

    blocks: np.ndarray               # (4, 4, n_r, n_t) complex
    block_dominant_bounces: np.ndarray  # (4, 4) int; -1 where block is empty

    @property
    def n_r(self) -> int:
        return self.blocks.shape[2]

    @property
    def n_t(self) -> int:
        return self.blocks.shape[3]

    def full(self) -> np.ndarray:
        """Stack the blocks into the (4 n_r, 4 n_t) full-array matrix."""
        return self.blocks.transpose(0, 2, 1, 3).reshape(4 * self.n_r,
                                                         4 * self.n_t)


def synthesize_paths(dep: Deployment, gnb: int, ue: int,
                     rng: np.random.Generator,
                     cfg: NetworkConfig) -> list[PropagationPath]:
    """Generate LOS + single-bounce paths for one gNB-UE pair.

    Scatterers are shared across all pairs of the realization, so nearby UEs
    see geometrically consistent (correlated) reflected paths.  LOS presence
    and per-scatterer visibility decay exponentially with path length.  Each
    geometric ray is expanded into a cluster of n_subpaths rays with Gaussian
    angular offsets around the nominal direction (diffuse local scattering);
    total cluster power equals the nominal ray power.
    """
    g = dep.gnb_positions[gnb]
    u = dep.ue_positions[ue]
    lam = cfg.wavelength_m
    paths: list[PropagationPath] = []

    d_los = float(np.linalg.norm(u - g))
    los_draw = rng.uniform()
    scat_draws = rng.uniform(size=len(dep.scatterer_positions))

    if d_los > 0 and los_draw < math.exp(-d_los / cfg.d_blockage_m):
        mag = 10 ** (-fspl_db(d_los, cfg.carrier_hz) / 20.0)
        phase = -2.0 * math.pi * d_los / lam
        aod = direction_deg(g, u)
        aoa = direction_deg(u, g)
        paths.append(PropagationPath(
            gain=mag * complex(math.cos(phase), math.sin(phase)),
            aod_az_deg=aod[0], aod_el_deg=aod[1],
            aoa_az_deg=aoa[0], aoa_el_deg=aoa[1],
            bounces=0, path_length_m=d_los))

    # each leg length is its own dot product, as np.linalg.norm takes it: a
    # row-wise array reduction sums in another order and moves the last bit
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
        paths.append(PropagationPath(
            gain=mag * complex(math.cos(phase), math.sin(phase)),
            aod_az_deg=aod[0], aod_el_deg=aod[1],
            aoa_az_deg=aoa[0], aoa_el_deg=aoa[1],
            bounces=1, path_length_m=total))
    return _expand_clusters(paths, rng, cfg)


def _expand_clusters(paths: list[PropagationPath], rng: np.random.Generator,
                     cfg: NetworkConfig) -> list[PropagationPath]:
    """Split each ray into n_subpaths diffuse rays of equal power.

    Each diffuse ray draws, in this order, its (aod, aoa) azimuth offsets,
    its (aod, aoa) elevation offsets and its phase: the pair's stream gives
    the same numbers as per-ray ``rng.normal`` and ``rng.uniform`` calls.
    """
    n = cfg.n_subpaths
    if n <= 1 or cfg.cluster_spread_deg <= 0.0 or not paths:
        return paths
    s_az = cfg.cluster_spread_deg
    s_el = 0.5 * s_az
    scale = 1.0 / math.sqrt(n)
    m = n - 1
    z = np.empty((len(paths) * m, 4))
    uni = np.empty(len(paths) * m)
    for i in range(len(uni)):
        rng.standard_normal(out=z[i])
        uni[i] = rng.random()
    nominal = np.repeat([(p.aod_az_deg, p.aoa_az_deg, p.aod_el_deg,
                          p.aoa_el_deg) for p in paths], m, axis=0)
    # loc + scale * draw, as rng.normal(loc, scale) and rng.uniform(low,
    # high) compute it
    az = wrap_angle_deg(nominal[:, :2] + (0.0 + s_az * z[:, :2])).tolist()
    el = np.clip(nominal[:, 2:] + (0.0 + s_el * z[:, 2:]), -90.0, 90.0).tolist()
    phi = (0.0 + 2.0 * math.pi * uni).tolist()
    out: list[PropagationPath] = []
    for j, p in enumerate(paths):
        out.append(PropagationPath(
            p.gain * scale, p.aod_az_deg, p.aod_el_deg, p.aoa_az_deg,
            p.aoa_el_deg, p.bounces, p.path_length_m))
        mag = abs(p.gain) * scale
        for i in range(j * m, (j + 1) * m):
            out.append(PropagationPath(
                mag * complex(math.cos(phi[i]), math.sin(phi[i])),
                az[i][0], el[i][0], az[i][1], el[i][1],
                p.bounces, p.path_length_m))
    return out


_TRACE_COLUMNS = ["gnb_id", "ue_id", "gain_re", "gain_im", "aod_az", "aod_el",
                  "aoa_az", "aoa_el", "bounces", "length_m"]


def ingest_paths(trace_file: str, n_gnbs: Optional[int] = None,
                 n_ues: Optional[int] = None) -> dict:
    """Load a path trace: map (gnb, ue) -> list of PropagationPath.

    Expects delimited text with a header row naming the columns of
    ``_TRACE_COLUMNS``; angles in degrees.
    """
    result: dict[tuple[int, int], list[PropagationPath]] = {}
    with open(trace_file, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delimiter = ";" if ";" in sample.split("\n", 1)[0] else ","
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            return result
        header = [h.strip() for h in header]
        if header != _TRACE_COLUMNS:
            raise TraceParseError(
                f"expected header {_TRACE_COLUMNS}, got {header}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(_TRACE_COLUMNS):
                raise TraceParseError(
                    f"expected {len(_TRACE_COLUMNS)} fields, got {len(row)}",
                    line=lineno)
            try:
                gnb = int(row[0])
                ue = int(row[1])
                gain = complex(float(row[2]), float(row[3]))
                aod_az, aod_el = float(row[4]), float(row[5])
                aoa_az, aoa_el = float(row[6]), float(row[7])
                bounces = int(row[8])
                length = float(row[9])
            except ValueError as exc:
                raise TraceParseError(str(exc), line=lineno) from exc
            if not 0 <= bounces <= 2:
                raise TraceParseError(
                    f"bounces must be in 0..2, got {bounces}", line=lineno)
            if abs(gain) <= 0:
                raise TraceParseError("path gain must be nonzero", line=lineno)
            if not (-180.0 <= aod_az < 180.0 and -180.0 <= aoa_az < 180.0):
                raise TraceParseError("azimuth out of [-180, 180)", line=lineno)
            if not (-90.0 <= aod_el <= 90.0 and -90.0 <= aoa_el <= 90.0):
                raise TraceParseError("elevation out of [-90, 90]", line=lineno)
            if length <= 0:
                raise TraceParseError("path length must be positive", line=lineno)
            if n_gnbs is not None and not 0 <= gnb < n_gnbs:
                raise TraceReferenceError(f"unknown gnb id {gnb} at line {lineno}")
            if n_ues is not None and not 0 <= ue < n_ues:
                raise TraceReferenceError(f"unknown ue id {ue} at line {lineno}")
            result.setdefault((gnb, ue), []).append(PropagationPath(
                gain=gain, aod_az_deg=aod_az, aod_el_deg=aod_el,
                aoa_az_deg=aoa_az, aoa_el_deg=aoa_el,
                bounces=bounces, path_length_m=length))
    return result


def _panel_steering(ok: np.ndarray, n_h: int, n_v: int, loc_az: np.ndarray,
                    el: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steering vectors of the paths one panel admits (mask ``ok``), and
    each path's column among them (valid where ``ok``)."""
    idx = np.nonzero(ok)[0]
    return (_ura_steering_many(n_h, n_v, D_OVER_LAMBDA, loc_az[idx], el[idx]),
            np.cumsum(ok) - 1)


def assemble_channel(paths, cfg: NetworkConfig,
                     gnb_orientations: np.ndarray,
                     ue_orientations: np.ndarray) -> MultiPanelChannel:
    """Build the 4x4 block channel from a path list.

    Each path enters block (p, q) only if its local azimuth lies within +-45
    deg of both panels' boresights and its elevations within +-45 deg (panels
    have no back lobe).  Blocks use the geometric-channel normalization with
    the block's own surviving path count.  A path's steering vector depends
    on one panel only, so each panel's is built once and every block takes
    its columns from them.
    """
    n_t, n_r = cfg.n_t, cfg.n_r
    nh_t, nv_t = panel_grid(n_t)
    nh_r, nv_r = panel_grid(n_r)
    blocks = np.zeros((4, 4, n_r, n_t), dtype=complex)
    dominant = np.full((4, 4), -1, dtype=int)

    if paths:
        aod_az = np.array([p.aod_az_deg for p in paths])
        aod_el = np.array([p.aod_el_deg for p in paths])
        aoa_az = np.array([p.aoa_az_deg for p in paths])
        aoa_el = np.array([p.aoa_el_deg for p in paths])
        gains = np.array([p.gain for p in paths], dtype=complex)
        bounce = np.array([p.bounces for p in paths])

        # only paths some UE panel admits can enter a block
        ue_side = {}    # UE panel -> (admitted mask, steering, columns)
        ue_any = np.zeros(len(paths), dtype=bool)
        for p in range(4):
            loc_aoa = wrap_angle_deg(aoa_az - ue_orientations[p])
            ok = (np.abs(loc_aoa) <= PANEL_HALF_WIDTH_DEG) & \
                (np.abs(aoa_el) <= PANEL_HALF_WIDTH_DEG)
            if ok.any():
                ue_side[p] = (ok, *_panel_steering(ok, nh_r, nv_r, loc_aoa,
                                                   aoa_el))
                ue_any |= ok
        for q in range(4):
            loc_aod = wrap_angle_deg(aod_az - gnb_orientations[q])
            gnb_ok = ue_any & (np.abs(loc_aod) <= PANEL_HALF_WIDTH_DEG) & \
                (np.abs(aod_el) <= PANEL_HALF_WIDTH_DEG)
            if not gnb_ok.any():
                continue
            a_t_q, col_t = _panel_steering(gnb_ok, nh_t, nv_t, loc_aod, aod_el)
            for p, (ue_ok, a_r_p, col_r) in ue_side.items():
                idx = np.nonzero(ue_ok & gnb_ok)[0]
                if len(idx) == 0:
                    continue
                # take() keeps the C order the per-block steering had
                a_r = a_r_p.take(col_r[idx], axis=1)
                a_t = a_t_q.take(col_t[idx], axis=1)
                scale = math.sqrt(n_r * n_t / len(idx))
                blocks[p, q] = scale * (a_r * gains[idx]) @ a_t.conj().T
                dom = idx[np.argmax(np.abs(gains[idx]))]
                dominant[p, q] = bounce[dom]

    return MultiPanelChannel(blocks=blocks, block_dominant_bounces=dominant)


def pair_rng(cfg: NetworkConfig, realization_id: int, gnb: int,
             ue: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one gNB-UE pair."""
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(1, realization_id, gnb, ue)))
