import math

import numpy as np
import pytest

from mmwsim.errors import ConfigurationError
from mmwsim.scenario import (NetworkConfig, apply_overrides,
                             config_from_mapping, generate_deployment,
                             load_config)


def test_defaults_validate():
    cfg = NetworkConfig().validate()
    assert cfg.area_side_m == 500.0
    assert cfg.n_rf_gnb == 16
    assert math.isinf(cfg.n_q_csi_bits)
    assert math.isinf(cfg.n_csi_rs)


def test_derived_quantities():
    cfg = NetworkConfig()
    assert cfg.p_max_w == pytest.approx(1.0)                 # 30 dBm
    assert cfg.noise_w == pytest.approx(10 ** (-10.8))       # -78 dBm
    assert cfg.area_km2 == pytest.approx(0.25)
    assert cfg.wavelength_m == pytest.approx(299792458.0 / 28e9)


def test_grid_positions_desk_scale():
    # 250 m at 64 gNB/km^2 -> 4 gNBs on a 2x2 grid of cell centres
    cfg = NetworkConfig(area_side_m=250.0)
    dep = generate_deployment(cfg, 0)
    assert dep.n_gnbs == 4
    expected = {(62.5, 62.5), (187.5, 62.5), (62.5, 187.5), (187.5, 187.5)}
    got = {(x, y) for x, y, _ in dep.gnb_positions}
    assert got == expected
    assert np.all(dep.gnb_positions[:, 2] == cfg.gnb_height_m)


def test_grid_non_square_count():
    # density chosen so the gNB count is not a perfect square
    cfg = NetworkConfig(area_side_m=1000.0, gnb_density=5.0)
    dep = generate_deployment(cfg, 0)
    assert dep.n_gnbs == 5


def test_deployment_determinism():
    cfg = NetworkConfig(area_side_m=250.0)
    a = generate_deployment(cfg, 3)
    b = generate_deployment(cfg, 3)
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.scatterer_positions, b.scatterer_positions)
    c = generate_deployment(cfg, 4)
    assert not np.array_equal(a.ue_positions, c.ue_positions)


def test_ue_count_poisson_mean():
    cfg = NetworkConfig(area_side_m=250.0)
    counts = [generate_deployment(cfg, r).n_ues for r in range(30)]
    # lambda = 1000/km^2 * 0.0625 km^2 = 62.5
    assert 50 < np.mean(counts) < 75


def test_panel_orientations():
    cfg = NetworkConfig(area_side_m=250.0, randomize_ue_orientation=False)
    dep = generate_deployment(cfg, 0)
    assert np.allclose(dep.gnb_panel_orientations[0], [0, 90, 180, 270])
    assert np.allclose(dep.ue_panel_orientations[0], [0, 90, 180, 270])


def test_config_mapping_rejects_unknown_key():
    with pytest.raises(ConfigurationError):
        config_from_mapping({"bandwidht_hz": 1e6})


def test_config_mapping_inf_sentinel():
    cfg = config_from_mapping({"n_q_csi_bits": "inf", "n_csi_rs": 4})
    assert math.isinf(cfg.n_q_csi_bits)
    assert cfg.n_csi_rs == 4


def test_ssb_cap_enforced():
    with pytest.raises(ConfigurationError):
        NetworkConfig(n_q_sweep_bits=5).validate()
    NetworkConfig(n_q_sweep_bits=5, enforce_nr_ssb_cap=False).validate()


def test_validate_rejects_bad_values():
    # n_sec (four panels, fixed) and n_rf_ue (never read) are no keys
    for key in ("n_sec", "n_rf_ue"):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_mapping({key: 4 if key == "n_sec" else 1})
    with pytest.raises(ConfigurationError):
        NetworkConfig(sinr_min_db=21.0).validate()
    with pytest.raises(ConfigurationError):
        NetworkConfig(n_t=0).validate()


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("area_side_m: 250\nn_t: 64\n")
    cfg = load_config(str(path), ["seed=7", "n_csi_rs=inf"])
    assert cfg.area_side_m == 250.0
    assert cfg.n_t == 64
    assert cfg.seed == 7
    assert math.isinf(cfg.n_csi_rs)


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/cfg.yaml")


def test_apply_overrides_revalidates():
    cfg = NetworkConfig()
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, n_q_sweep_bits=6)
