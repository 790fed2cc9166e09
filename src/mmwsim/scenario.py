"""Network deployments and the global configuration.

Deployments are reproducible: the same (config, realization_id) always
yields the same gNB grid, UE draw and scatterer field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigurationError

INF = math.inf
N_SEC = 4                            # sector panels per node

# Fields that accept the infinity sentinel ("inf" in config files).
_INF_FIELDS = ("n_q_csi_bits", "n_csi_rs")
_BORESIGHT_OFFSETS = np.array([0.0, 90.0, 180.0, 270.0])


@dataclass(frozen=True)
class NetworkConfig:
    """Global simulation parameters; defaults mirror the baseline deployment."""

    area_side_m: float = 500.0
    gnb_density: float = 64.0        # gNBs per km^2
    ue_density: float = 1000.0       # UEs per km^2
    gnb_height_m: float = 6.0
    ue_height_m: float = 1.5
    carrier_hz: float = 28e9
    bandwidth_hz: float = 400e6
    p_max_dbm: float = 30.0
    noise_dbm: float = -78.0
    n_t: int = 256                   # elements per gNB sector panel
    n_r: int = 16                    # elements per UE sector panel
    n_rf_gnb_sec: int = 4            # RF chains per gNB panel
    n_q_sweep_bits: int = 4          # sweep codebook size (2^n beams per panel)
    n_q_csi_bits: float = INF        # estimation codebook size; inf = exact CSI
    n_csi_rs: float = INF            # monitored-BPL cap; inf = unlimited
    sinr_min_db: float = -5.0
    sinr_max_db: float = 20.05
    r_max_bps: float = 2e9
    alpha_loss: float = 0.75
    seed: int = 1
    n_realizations: int = 20

    # Synthetic propagation knobs.
    n_scatterers: int = 50
    d_blockage_m: float = 200.0
    reflection_loss_db: float = 13.0
    scatterer_height_max_m: float = 10.0
    n_subpaths: int = 5              # rays per cluster (LOS or reflection)
    cluster_spread_deg: float = 2.0  # azimuth std dev of intra-cluster rays
    n_ue_hotspots: int = 8           # UE gathering spots (0 = uniform drop)
    hotspot_fraction: float = 0.6    # share of UEs placed inside hotspots
    hotspot_radius_m: float = 5.0    # hotspot extent (2-sigma radius)
    detection_floor_db: float = -10.0    # keep BPL candidates with rsrp/N above this

    # Orientation knobs (the deployment geometry is otherwise fixed).
    gnb_base_orientation_deg: float = 0.0
    randomize_gnb_orientation: bool = False
    randomize_ue_orientation: bool = True

    enforce_nr_ssb_cap: bool = True      # gNB sweep codebook <= 64 beams (FR2)
    trace_file: Optional[str] = None     # replay external path traces instead of synthesis

    # Derived quantities -------------------------------------------------

    @property
    def area_km2(self) -> float:
        return (self.area_side_m / 1000.0) ** 2

    @property
    def p_max_w(self) -> float:
        return 10 ** ((self.p_max_dbm - 30.0) / 10.0)

    @property
    def noise_w(self) -> float:
        return 10 ** ((self.noise_dbm - 30.0) / 10.0)

    @property
    def n_rf_gnb(self) -> int:
        return N_SEC * self.n_rf_gnb_sec

    @property
    def wavelength_m(self) -> float:
        return 299792458.0 / self.carrier_hz

    def validate(self) -> "NetworkConfig":
        # NaN passes every range check below, and inf is a value only as
        # the "unlimited" sentinel of _INF_FIELDS
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not (
                    math.isfinite(value)
                    or (value == INF and f.name in _INF_FIELDS)):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.area_side_m <= 0:
            raise ConfigurationError("area_side_m must be positive")
        if self.gnb_density <= 0:
            raise ConfigurationError("gnb_density must be positive")
        if round(self.gnb_density * self.area_km2) < 1:
            raise ConfigurationError("area_side_m and gnb_density place no gNB")
        if self.ue_density < 0:
            raise ConfigurationError("ue_density must be non-negative")
        for name in ("n_t", "n_r", "n_rf_gnb_sec", "n_q_sweep_bits",
                     "n_realizations"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigurationError("carrier and bandwidth must be positive")
        if not self.sinr_min_db < self.sinr_max_db:
            raise ConfigurationError("sinr_min_db must be below sinr_max_db")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.n_subpaths < 1:
            raise ConfigurationError("n_subpaths must be >= 1")
        if self.d_blockage_m <= 0:
            raise ConfigurationError("d_blockage_m must be positive")
        for name in ("n_scatterers", "scatterer_height_max_m"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.alpha_loss <= 0:
            raise ConfigurationError("alpha_loss must be positive")
        if self.r_max_bps <= 0:
            raise ConfigurationError("r_max_bps must be positive")
        if self.n_ue_hotspots < 0:
            raise ConfigurationError("n_ue_hotspots must be non-negative")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot_fraction must be in [0, 1]")
        if self.hotspot_radius_m <= 0:
            raise ConfigurationError("hotspot_radius_m must be positive")
        if self.cluster_spread_deg < 0:
            raise ConfigurationError("cluster_spread_deg must be non-negative")
        for name in _INF_FIELDS:
            value = getattr(self, name)
            if math.isfinite(value) and not (
                    value >= 1 and float(value).is_integer()):
                raise ConfigurationError(f"{name} must be an integer >= 1 "
                                         f"or inf, got {value}")
        if self.enforce_nr_ssb_cap and N_SEC * 2 ** self.n_q_sweep_bits > 64:
            raise ConfigurationError(
                "gNB sweep codebook exceeds the 64-SSB FR2 cap "
                "(set enforce_nr_ssb_cap=false to lift)")
        return self


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


def _node_legs(origin: np.ndarray, scatterers: np.ndarray) -> list:
    """(length, azimuth, elevation) of one node's leg to each scatterer."""
    # each length is its own dot product, as np.linalg.norm takes it: a
    # row-wise array reduction sums in another order and moves the last bit
    return [(math.sqrt(d.dot(d)), *_azel(d)) for d in scatterers - origin]


def scatterer_legs(nodes: np.ndarray, scatterers: np.ndarray) -> np.ndarray:
    """(length, azimuth, elevation) of each node's straight leg to each
    scatterer, the direction taken from the node; (3, n_nodes, n_scat)."""
    legs = [_node_legs(x, scatterers) for x in nodes]
    return np.array(legs, dtype=float).reshape(
        len(nodes), len(scatterers), 3).transpose(2, 0, 1)


@dataclass(frozen=True)
class Deployment:
    """One network realization: gNB grid, PPP UEs and the shared scatterer field."""

    gnb_positions: np.ndarray          # (n_gnb, 3) m
    gnb_panel_orientations: np.ndarray  # (n_gnb, 4) boresight azimuths, deg
    ue_positions: np.ndarray           # (n_ue, 3) m
    ue_panel_orientations: np.ndarray  # (n_ue, 4) boresight azimuths, deg
    scatterer_positions: np.ndarray    # (n_scat, 3) m
    realization_id: int

    @property
    def n_gnbs(self) -> int:
        return len(self.gnb_positions)

    @property
    def n_ues(self) -> int:
        return len(self.ue_positions)

    # every pair of a realization reflects off the same scatterers, so each
    # node's legs are computed once, on first use
    @cached_property
    def gnb_legs(self) -> np.ndarray:
        return scatterer_legs(self.gnb_positions, self.scatterer_positions)

    @cached_property
    def ue_legs(self) -> np.ndarray:
        return scatterer_legs(self.ue_positions, self.scatterer_positions)


def _grid_positions(cfg: NetworkConfig) -> np.ndarray:
    """gNBs at cell centres of a uniform grid; trailing cells left empty."""
    n = int(round(cfg.gnb_density * cfg.area_km2))
    side = int(round(math.sqrt(n)))
    if side * side < n:
        side += 1
    spacing = cfg.area_side_m / side
    pos = []
    for row in range(side):
        for col in range(side):
            if len(pos) == n:
                break
            pos.append(((col + 0.5) * spacing, (row + 0.5) * spacing,
                        cfg.gnb_height_m))
    return np.array(pos, dtype=float).reshape(n, 3)


def generate_deployment(cfg: NetworkConfig, realization_id: int) -> Deployment:
    """Draw one reproducible network realization."""
    cfg.validate()
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(0, realization_id)))

    gnb_pos = _grid_positions(cfg)
    n_gnb = len(gnb_pos)
    if cfg.randomize_gnb_orientation:
        base = rng.uniform(0.0, 90.0, size=n_gnb)
    else:
        base = np.full(n_gnb, cfg.gnb_base_orientation_deg)
    gnb_orient = (base[:, None] + _BORESIGHT_OFFSETS[None, :]) % 360.0

    n_ue = int(rng.poisson(cfg.ue_density * cfg.area_km2))
    n_hot = int(round(cfg.hotspot_fraction * n_ue)) if cfg.n_ue_hotspots else 0
    xy = rng.uniform(0.0, cfg.area_side_m, size=(n_ue, 2))
    if n_hot:
        centres = rng.uniform(0.0, cfg.area_side_m, size=(cfg.n_ue_hotspots, 2))
        member = rng.integers(0, cfg.n_ue_hotspots, size=n_hot)
        offsets = rng.normal(0.0, cfg.hotspot_radius_m / 2.0, size=(n_hot, 2))
        xy[:n_hot] = np.clip(centres[member] + offsets, 0.0, cfg.area_side_m)
    ue_pos = np.column_stack([xy, np.full(n_ue, cfg.ue_height_m)])
    if cfg.randomize_ue_orientation:
        ue_base = rng.uniform(0.0, 360.0, size=n_ue)
    else:
        ue_base = np.zeros(n_ue)
    ue_orient = (ue_base[:, None] + _BORESIGHT_OFFSETS[None, :]) % 360.0

    scat_xy = rng.uniform(0.0, cfg.area_side_m, size=(cfg.n_scatterers, 2))
    scat_z = rng.uniform(0.0, cfg.scatterer_height_max_m, size=cfg.n_scatterers)
    scatterers = np.column_stack([scat_xy, scat_z])

    return Deployment(
        gnb_positions=gnb_pos,
        gnb_panel_orientations=gnb_orient,
        ue_positions=ue_pos,
        ue_panel_orientations=ue_orient,
        scatterer_positions=scatterers,
        realization_id=realization_id,
    )


# Configuration file handling ------------------------------------------------

def _coerce(name: str, value, target_type):
    if name in _INF_FIELDS and isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return INF
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
        raise ConfigurationError(f"cannot parse boolean for {name}: {value!r}")
    # int or float; a value neither converts ends as a ConfigurationError,
    # and so does a bool (YAML reads yes/no/on/off/true/false as bools)
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        if target_type is float:
            return float(value)
        iv = int(value)
        if iv == float(value):
            return iv
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "a number" if target_type is float else "an integer"
    raise ConfigurationError(f"{name} must be {kind}, got {value!r}")


def config_from_mapping(data: dict) -> NetworkConfig:
    known = {f.name: str(f.type) for f in fields(NetworkConfig)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigurationError(f"unknown configuration key: {key}")
        if key == "trace_file":
            kwargs[key] = None if value in (None, "") else str(value)
            continue
        ann = known[key]
        target = bool if "bool" in ann else int if ann == "int" else float
        kwargs[key] = _coerce(key, value, target)
    return NetworkConfig(**kwargs).validate()


def load_config(path: str, overrides: Optional[list[str]] = None) -> NetworkConfig:
    """Load a YAML configuration file, then apply ``key=value`` overrides."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must contain a mapping")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        key, _, raw = item.partition("=")
        data[key.strip()] = yaml.safe_load(raw)
    return config_from_mapping(data)


def apply_overrides(cfg: NetworkConfig, **changes) -> NetworkConfig:
    return replace(cfg, **changes).validate()
