import dataclasses
import pathlib

import numpy as np
import pytest

import oracles
from pisat import equilibrium, heating, model, simulate
from pisat.errors import (ConfigError, DimensionMismatch, NotMMatrix,
                          ParseError)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_benchmark_constants():
    scn = heating.benchmark_scenario()
    assert scn.n == 10
    np.testing.assert_allclose(scn.a, 0.167)
    np.testing.assert_allclose(scn.c, 2.0)
    assert scn.b_heat[9, 9] == pytest.approx(12.0)
    assert scn.b_heat[9, 0] == pytest.approx(-0.15)   # min(10, 1) = 1
    assert scn.b_heat[2, 6] == pytest.approx(-0.45)   # min(3, 7) = 3
    assert oracles.is_m_matrix_eig(scn.b_heat)
    np.testing.assert_allclose(scn.controller.p, 2.5)
    np.testing.assert_allclose(scn.controller.r, 0.2)
    np.testing.assert_allclose(scn.controller.s, 2.0)


def test_scenario_rejects_non_m_heat_matrix():
    # the plant proves the coupling on b_heat / c, a row scaling of it
    ctrl = model.ControllerSpec("decentralized", [1.0, 1.0], [0.1, 0.1],
                                [1.0, 1.0])
    scn = heating.HeatingScenario(np.ones(2), np.ones(2),
                                  np.array([[1.0, 2.0], [0.0, 1.0]]),
                                  20.0, -5.0, ctrl)
    with pytest.raises(NotMMatrix, match="input coupling must be an "
                                         "M-matrix"):
        heating.to_standard_form(scn)


def test_standard_form_constants():
    scn = heating.benchmark_scenario(t_ext=0.0)
    plant, w = heating.to_standard_form(scn)
    np.testing.assert_allclose(plant.a, 0.0835)
    np.testing.assert_allclose(plant.b, scn.b_heat / 2.0)
    np.testing.assert_allclose(w.componentwise_min(), 0.0835 * (0.0 - 20.0))


@pytest.mark.parametrize("a,c,t_ext", [
    (1e-300, 1e300, -5.0),                   # a / c underflows to 0
    (10.0, 1.0, heating.TemperatureSeries([0.0, 1.0], [0.0, -1e308])),
])
def test_standard_form_out_of_range_is_config_error(a, c, t_ext):
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    scn = heating.HeatingScenario([a], [c], [[1.0]], 0.0, t_ext, ctrl)
    with pytest.raises(ConfigError, match="standard form"):
        heating.to_standard_form(scn)


def test_no_forcing_at_comfort_temperature():
    scn = heating.benchmark_scenario(t_ext=20.0)
    _, w = heating.to_standard_form(scn)
    np.testing.assert_allclose(w.componentwise_min(), 0.0)


def test_twenty_below_comfort():
    scn = heating.benchmark_scenario(t_ext=0.0)
    _, w = heating.to_standard_form(scn)
    np.testing.assert_allclose(w.componentwise_min(), -1.67)


def test_benchmark_tuning_facts():
    # fixed regression: integral margin holds, anti-windup margin fails
    scn = heating.benchmark_scenario()
    plant, _ = heating.to_standard_form(scn)
    rep = model.check_tuning(plant, scn.controller)
    np.testing.assert_allclose(rep.integral_margin, 0.20875 - 0.2)
    np.testing.assert_allclose(rep.antiwindup_margin, 1.0 - 5.0)
    assert not rep.passed


def test_simulation_settles_to_solved_equilibrium():
    scn = heating.benchmark_scenario(t_ext=-12.0)
    plant, wsig = heating.to_standard_form(scn)
    w = wsig.componentwise_min()
    eq = equilibrium.solve_equilibrium(plant, scn.controller, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale
    traj = simulate.integrate(plant, scn.controller, w, np.zeros(10),
                              np.zeros(10), (0.0, 400.0), 0.05)
    np.testing.assert_allclose(traj.x[-1], eq.x0, atol=1e-5)
    np.testing.assert_allclose(traj.z[-1], eq.z0, atol=1e-4)


def test_capacity_doubling_dilates_time():
    # doubling every capacity halves A, B_std, and w; with the integral
    # gain also halved the trajectory is the same curve on a clock that
    # runs twice as slow (x matches, z doubles), exactly in floats
    scn = heating.benchmark_scenario(t_ext=-18.0)
    ctrl = scn.controller
    slow_ctrl = model.ControllerSpec("decentralized", ctrl.p, ctrl.r / 2.0,
                                     ctrl.s)
    slow = dataclasses.replace(scn, c=scn.c * 2.0, controller=slow_ctrl)
    plant1, w1 = heating.to_standard_form(scn)
    plant2, w2 = heating.to_standard_form(slow)
    t1 = simulate.integrate(plant1, scn.controller, w1.componentwise_min(),
                            np.zeros(10), np.zeros(10), (0.0, 40.0), 0.05)
    t2 = simulate.integrate(plant2, slow_ctrl, w2.componentwise_min(),
                            np.zeros(10), np.zeros(10), (0.0, 80.0), 0.10)
    np.testing.assert_array_equal(t2.x, t1.x)
    np.testing.assert_array_equal(t2.z, 2.0 * t1.z)
    np.testing.assert_allclose(t2.t, 2.0 * t1.t, atol=1e-12)


def test_cold_snap_shape():
    series = heating.synthetic_cold_snap()
    assert series.time_h.size == 337
    assert series.span_h == (0.0, 336.0)
    assert np.min(series.temp_degc) == pytest.approx(-20.0, abs=1e-9)
    # swing-only region well before the dip
    early = series.temp_degc[:48]
    assert np.max(np.abs(early)) == pytest.approx(3.0, abs=1e-6)
    # dip bottom holds near hour 100
    assert np.interp(100.0, series.time_h, series.temp_degc) < -13.0


def test_temperature_series_validation():
    with pytest.raises(ParseError):
        heating.TemperatureSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        heating.TemperatureSeries(np.array([0.0]), np.array([1.0]))


def test_scenario_json_round_trip(tmp_path):
    for variant in ("decentralized", "coordinating", "static"):
        scn = heating.benchmark_scenario(t_ext=heating.synthetic_cold_snap(),
                                         controller=variant)
        path = tmp_path / f"{variant}.json"
        oracles.save_scenario(scn, path)
        back = heating.load_scenario(path)
        np.testing.assert_array_equal(back.a, scn.a)
        np.testing.assert_array_equal(back.b_heat, scn.b_heat)
        assert back.controller.variant == scn.controller.variant
        if scn.controller.is_pi:
            np.testing.assert_array_equal(back.controller.p,
                                          scn.controller.p)
        else:
            np.testing.assert_array_equal(back.controller.k_static,
                                          scn.controller.k_static)
        np.testing.assert_array_equal(back.t_ext.temp_degc,
                                      scn.t_ext.temp_degc)
        # a second save is byte-identical
        path2 = tmp_path / f"{variant}2.json"
        oracles.save_scenario(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_bundled_benchmark_configs_are_the_reference_network(tmp_path):
    # the two bundled benchmark configs are the published ten-building
    # network, at a constant -15 degC and through the synthetic cold snap
    for name, t_ext in (("benchmark_constant.json", -15.0),
                        ("benchmark_cold_snap.json",
                         heating.synthetic_cold_snap())):
        path = tmp_path / name
        oracles.save_scenario(heating.benchmark_scenario(t_ext=t_ext), path)
        assert path.read_bytes() == (CONFIGS / name).read_bytes()


def test_scenario_json_rejects_malformed():
    with pytest.raises(ConfigError):
        heating.scenario_from_json({"a_kw_per_degc": [1.0]})


def test_default_cost_weights():
    scn = heating.benchmark_scenario()
    np.testing.assert_allclose(heating.default_cost_weights(scn),
                               0.167 / 2.0)
