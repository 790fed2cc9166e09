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
from .scenario import Deployment, NetworkConfig, direction_deg

SPEED_OF_LIGHT = 299792458.0
PANEL_HALF_WIDTH_DEG = 45.0   # angular gating around each panel boresight
D_OVER_LAMBDA = 0.5           # half-wavelength element spacing throughout


def wrap_angle_deg(a):
    """Wrap azimuth angles into [-180, 180)."""
    return (np.asarray(a) + 180.0) % 360.0 - 180.0


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


_PATH_FIELDS = ("gain", "aod_az_deg", "aod_el_deg", "aoa_az_deg",
                "aoa_el_deg", "bounces", "length_m")
_PATH_DTYPES = (complex, float, float, float, float, int, float)


@dataclass(frozen=True, eq=False)
class Paths:
    """The LOS and reflected rays between one gNB and one UE, one array
    entry per ray (global angle frames); ``len()`` counts the rays."""

    gain: np.ndarray         # (k,) complex
    aod_az_deg: np.ndarray   # (k,)
    aod_el_deg: np.ndarray   # (k,)
    aoa_az_deg: np.ndarray   # (k,)
    aoa_el_deg: np.ndarray   # (k,)
    bounces: np.ndarray      # (k,) int; 0 = LOS
    length_m: np.ndarray     # (k,)

    @classmethod
    def from_rows(cls, rows) -> "Paths":
        """Rays from (gain, aod_az, aod_el, aoa_az, aoa_el, bounces,
        length_m) tuples."""
        cols = list(zip(*rows)) or [()] * len(_PATH_FIELDS)
        return cls(*(np.array(c, dtype=t) for c, t in zip(cols, _PATH_DTYPES)))

    def __len__(self) -> int:
        return len(self.gain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Paths):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in _PATH_FIELDS)


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


def synthesize_paths(dep: Deployment, gnb: int, ue: int,
                     rng: np.random.Generator, cfg: NetworkConfig) -> Paths:
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
    d_los = float(np.linalg.norm(u - g))
    los_draw = rng.uniform()
    scat_draws = rng.uniform(size=len(dep.scatterer_positions))

    # candidate ray 0 is the LOS, ray 1 + s reflects off scatterer s; the
    # legs of a reflection come from the per-node tables of the deployment
    g_length, g_az, g_el = dep.gnb_legs[:, gnb]
    u_length, u_az, u_el = dep.ue_legs[:, ue]
    total = g_length + u_length
    length = [d_los] + total.tolist()
    draws = [los_draw] + scat_draws.tolist()
    seen = [i for i, (d, x) in enumerate(zip(length, draws))
            if d > 0 and x < math.exp(-d / cfg.d_blockage_m)]
    gain = [_ray_gain(length[i], fspl_db(length[i], cfg.carrier_hz)
                      + (cfg.reflection_loss_db if i else 0.0), cfg)
            for i in seen]

    def ray(los_value, reflection_values):
        """The seen rays' entries: the LOS value, then one per scatterer."""
        return np.concatenate(([los_value], reflection_values))[seen]

    los_aod, los_aoa = direction_deg(g, u), direction_deg(u, g)
    rays = Paths(gain=np.array(gain, dtype=complex),
                 aod_az_deg=ray(los_aod[0], g_az),
                 aod_el_deg=ray(los_aod[1], g_el),
                 aoa_az_deg=ray(los_aoa[0], u_az),
                 aoa_el_deg=ray(los_aoa[1], u_el),
                 bounces=ray(0, np.ones(len(total), dtype=int)),
                 length_m=ray(d_los, total))
    return _expand_clusters(rays, rng, cfg)


def _ray_gain(length_m: float, loss_db: float, cfg: NetworkConfig) -> complex:
    """Complex gain of a ray: path loss magnitude, propagation phase."""
    mag = 10 ** (-loss_db / 20.0)
    phase = -2.0 * math.pi * length_m / cfg.wavelength_m
    return mag * complex(math.cos(phase), math.sin(phase))


def _expand_clusters(rays: Paths, rng: np.random.Generator,
                     cfg: NetworkConfig) -> Paths:
    """Split each ray into n_subpaths diffuse rays of equal power: the
    nominal ray, scaled, then its n_subpaths - 1 diffuse rays.

    Each diffuse ray draws, in this order, its (aod, aoa) azimuth offsets,
    its (aod, aoa) elevation offsets and its phase: the pair's stream gives
    the same numbers as per-ray ``rng.normal`` and ``rng.uniform`` calls.
    """
    n = cfg.n_subpaths
    if n <= 1 or cfg.cluster_spread_deg <= 0.0 or not len(rays):
        return rays
    s_az = cfg.cluster_spread_deg
    s_el = 0.5 * s_az
    scale = 1.0 / math.sqrt(n)
    k, m = len(rays), n - 1
    z = np.empty((k * m, 4))
    uni = []
    normal, draw, keep = rng.standard_normal, rng.random, uni.append
    for row in z:
        normal(out=row)
        keep(draw())
    nominal = np.repeat(np.column_stack(
        [rays.aod_az_deg, rays.aoa_az_deg, rays.aod_el_deg, rays.aoa_el_deg]),
        m, axis=0)
    # loc + scale * draw, as rng.normal(loc, scale) and rng.uniform(low,
    # high) compute it
    az = wrap_angle_deg(nominal[:, :2] + (0.0 + s_az * z[:, :2]))
    el = np.clip(nominal[:, 2:] + (0.0 + s_el * z[:, 2:]), -90.0, 90.0)
    phi = (0.0 + 2.0 * math.pi * np.array(uni)).tolist()
    # scalar abs() and math.cos/sin: NumPy's array versions differ from
    # them in the last bit on some inputs
    mag = np.repeat(np.array(list(map(abs, rays.gain.tolist()))) * scale, m)
    diffuse = np.empty(k * m, dtype=complex)
    diffuse.real = mag * np.array(list(map(math.cos, phi)))
    diffuse.imag = mag * np.array(list(map(math.sin, phi)))

    def cluster(nominal_col, diffuse_col):
        return np.column_stack([nominal_col, diffuse_col.reshape(k, m)]).ravel()

    return Paths(gain=cluster(rays.gain * scale, diffuse),
                 aod_az_deg=cluster(rays.aod_az_deg, az[:, 0]),
                 aod_el_deg=cluster(rays.aod_el_deg, el[:, 0]),
                 aoa_az_deg=cluster(rays.aoa_az_deg, az[:, 1]),
                 aoa_el_deg=cluster(rays.aoa_el_deg, el[:, 1]),
                 bounces=np.repeat(rays.bounces, n),
                 length_m=np.repeat(rays.length_m, n))


_TRACE_COLUMNS = ["gnb_id", "ue_id", "gain_re", "gain_im", "aod_az", "aod_el",
                  "aoa_az", "aoa_el", "bounces", "length_m"]


def ingest_paths(trace_file: str, n_gnbs: Optional[int] = None,
                 n_ues: Optional[int] = None) -> dict:
    """Load a path trace: map (gnb, ue) -> Paths.

    Expects delimited text with a header row naming the columns of
    ``_TRACE_COLUMNS``; angles in degrees.
    """
    rows: dict[tuple[int, int], list] = {}
    with open(trace_file, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delimiter = ";" if ";" in sample.split("\n", 1)[0] else ","
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            return {}
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
            if not all(map(math.isfinite, (gain.real, gain.imag, length))):
                raise TraceParseError("gain and length must be finite",
                                      line=lineno)
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
            rows.setdefault((gnb, ue), []).append(
                (gain, aod_az, aod_el, aoa_az, aoa_el, bounces, length))
    return {key: Paths.from_rows(r) for key, r in rows.items()}


def _gate(az: np.ndarray, el: np.ndarray, orientations):
    """Local azimuths (4, k) of the paths at all four panels of one side,
    and which of them each panel admits."""
    loc = wrap_angle_deg(az[None, :] - np.asarray(orientations)[:, None])
    return loc, (np.abs(loc) <= PANEL_HALF_WIDTH_DEG) & \
        (np.abs(el) <= PANEL_HALF_WIDTH_DEG)


def _steer(loc: np.ndarray, el: np.ndarray, ok: np.ndarray, n_elements: int):
    """Steering vectors of every admitted (panel, path), in row-major order
    (n_elements, admitted), and each (panel, path)'s column among them
    (valid where admitted)."""
    panel, path = np.nonzero(ok)
    n_h, n_v = panel_grid(n_elements)
    return (_ura_steering_many(n_h, n_v, D_OVER_LAMBDA, loc[panel, path],
                               el[path]),
            np.cumsum(ok).reshape(ok.shape) - 1)


def assemble_channel(paths: Paths, cfg: NetworkConfig,
                     gnb_orientations: np.ndarray,
                     ue_orientations: np.ndarray) -> MultiPanelChannel:
    """Build the 4x4 block channel from a pair's paths.

    Each path enters block (p, q) only if its local azimuth lies within +-45
    deg of both panels' boresights and its elevations within +-45 deg (panels
    have no back lobe).  Blocks use the geometric-channel normalization with
    the block's own surviving path count.  A path's steering vector depends
    on one panel only, so each side gates and steers its four panels in one
    pass and every block takes its columns from them.
    """
    n_t, n_r = cfg.n_t, cfg.n_r
    blocks = np.zeros((4, 4, n_r, n_t), dtype=complex)
    dominant = np.full((4, 4), -1, dtype=int)

    if len(paths):
        loc_r, ue_ok = _gate(paths.aoa_az_deg, paths.aoa_el_deg,
                             ue_orientations)
        loc_t, gnb_ok = _gate(paths.aod_az_deg, paths.aod_el_deg,
                              gnb_orientations)
        # only paths some panel of each side admits can enter a block
        used = ue_ok.any(axis=0) & gnb_ok.any(axis=0)
        ue_ok &= used
        gnb_ok &= used
        a_r_all, col_r = _steer(loc_r, paths.aoa_el_deg, ue_ok, n_r)
        a_t_all, col_t = _steer(loc_t, paths.aod_el_deg, gnb_ok, n_t)
        gains = paths.gain
        for p, q in zip(*np.nonzero(ue_ok.any(axis=1)[:, None]
                                    & gnb_ok.any(axis=1)[None, :])):
            idx = np.nonzero(ue_ok[p] & gnb_ok[q])[0]
            if len(idx) == 0:
                continue
            # take() keeps the C order the per-block steering had
            a_r = a_r_all.take(col_r[p, idx], axis=1)
            a_t = a_t_all.take(col_t[q, idx], axis=1)
            scale = math.sqrt(n_r * n_t / len(idx))
            blocks[p, q] = scale * (a_r * gains[idx]) @ a_t.conj().T
            dom = idx[np.argmax(np.abs(gains[idx]))]
            dominant[p, q] = paths.bounces[dom]

    return MultiPanelChannel(blocks=blocks, block_dominant_bounces=dominant)


def pair_rng(cfg: NetworkConfig, realization_id: int, gnb: int,
             ue: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for one gNB-UE pair."""
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(1, realization_id, gnb, ue)))
