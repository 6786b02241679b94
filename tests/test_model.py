import numpy as np
import pytest

import oracles
from conftest import random_instance
from pisat import equilibrium, model, sector, simulate
from pisat.errors import (CertificateFailure, DimensionMismatch, NotMMatrix,
                          UnsupportedVariant)


def _plant1():
    return model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))


def test_plant_rejects_non_m_matrix():
    with pytest.raises(NotMMatrix):
        model.PlantModel([1.0, 1.0], [[1.0, 2.0], [0.0, 1.0]],
                         sector.saturation_deadzone(2))


def test_plant_refuses_a_coupling_its_scaling_cannot_certify():
    # det B = eps: the scaling's relative column margins are about eps,
    # so below DOMINANCE_SLACK (1e-12) the plant's one proof of B fails
    # loudly, where the contraction map and gamma would fail later
    pair = sector.saturation_deadzone(2)
    plant = model.PlantModel([1.0, 1.0], [[1.0, -1.0 + 1e-9], [-1.0, 1.0]],
                             pair)
    assert np.all(plant.gain_scaling > 0.0)
    with pytest.raises(CertificateFailure):
        model.PlantModel([1.0, 1.0], [[1.0, -1.0 + 1e-13], [-1.0, 1.0]],
                         pair)


def test_plant_rejects_nonpositive_decay():
    with pytest.raises(ValueError):
        model.PlantModel([0.0], [[1.0]], sector.saturation_deadzone(1))


def test_plant_rejects_pair_width_mismatch():
    with pytest.raises(DimensionMismatch):
        model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(2))


def test_controller_factories_and_validation():
    ctrl = model.ControllerSpec("decentralized", [1.0, 2.0], [0.5, 0.5],
                                [0.5, 0.25])
    assert ctrl.variant == model.VARIANT_DECENTRALIZED and ctrl.n == 2
    coord = model.ControllerSpec("coordinating", [1.0, 2.0], [0.5, 0.5],
                                 [0.5, 0.25])
    assert coord.beta == pytest.approx(0.5)  # defaults to 1/n
    stat = model.ControllerSpec("static", k_static=np.eye(3))
    assert not stat.is_pi and stat.n == 3
    with pytest.raises(ValueError):
        model.ControllerSpec("decentralized", [1.0], [-0.5], [0.5])


def test_canonical_matrices_per_variant():
    p = np.array([1.0, 2.0])
    r = np.array([0.5, 0.25])
    s = np.array([0.5, 0.4])
    dec = model.ControllerSpec("decentralized", p, r, s)
    coord = model.ControllerSpec("coordinating", p, r, s, beta=0.3)
    k = np.array([[1.0, -0.5], [0.25, 2.0]])
    stat = model.ControllerSpec("static", k_static=k)
    zero = np.zeros((2, 2))
    want = {dec: (np.diag(p), np.diag(r), np.eye(2), np.diag(s)),
            coord: (np.diag(p), np.diag(r), np.eye(2), np.full((2, 2), 0.3)),
            stat: (k, zero, zero, zero)}
    for ctrl, mats in want.items():
        for got, expect in zip((ctrl.kx, ctrl.kz, ctrl.e, ctrl.s_aw), mats):
            np.testing.assert_array_equal(got, expect)
        assert ctrl.n == 2
    assert stat.kx is stat.k_static


def _derivative(plant, ctrl, x, z, w):
    # (dx, dz, u) of one controller from the integrator's stage kernel
    stage, us = simulate._stage_kernel(plant.pair,
                                       simulate._loop(plant, ctrl))
    dy = stage(np.concatenate((x, z)).astype(float),
               np.asarray(w, dtype=float), 0)
    return dy[:plant.n], dy[plant.n:], us[0]


def test_control_input_broadcast():
    ctrl = model.ControllerSpec("decentralized", [2.0], [1.0], [1.0])
    x = np.array([[1.0], [2.0]])
    z = np.array([[0.5], [0.0]])
    np.testing.assert_allclose(oracles.control_input(ctrl, x, z),
                               [[-2.5], [-4.0]])
    stat = model.ControllerSpec("static", k_static=[[3.0]])
    np.testing.assert_allclose(oracles.control_input(stat, x),
                               [[-3.0], [-6.0]])
    with pytest.raises(DimensionMismatch):
        oracles.control_input(stat, x, z)
    with pytest.raises(DimensionMismatch):
        oracles.control_input(ctrl, x)


def test_closed_loop_derivative_decentralized():
    plant = _plant1()
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    # x=1, z=2 -> u=-2, f=-1, h=-1
    dx, dz, u = _derivative(plant, ctrl, [1.0], [2.0], [0.3])
    assert u == pytest.approx(-2.0)
    assert dx == pytest.approx(-1.0 - 1.0 + 0.3)
    assert dz == pytest.approx(1.0 + 0.5 * -1.0)


def test_closed_loop_derivative_coordinating_sums_excess():
    plant = model.PlantModel([1.0, 1.0], np.eye(2),
                             sector.saturation_deadzone(2))
    ctrl = model.ControllerSpec("coordinating", [1.0, 1.0], [0.5, 0.5],
                                [0.5, 0.5], beta=0.25)
    x = np.array([3.0, -3.0])
    z = np.zeros(2)
    dx, dz, u = _derivative(plant, ctrl, x, z, np.zeros(2))
    # u = (-3, 3), h = (-2, 2), sum h = 0
    np.testing.assert_allclose(dz, x)


def test_disturbance_signal_interp_and_hold():
    w = model.DisturbanceSignal.sampled([0.0, 1.0, 3.0],
                                        [[0.0, 10.0], [2.0, 10.0],
                                         [2.0, 30.0]])
    np.testing.assert_allclose(w(0.5), [1.0, 10.0])
    np.testing.assert_allclose(w(2.0), [2.0, 20.0])
    np.testing.assert_allclose(w(-5.0), [0.0, 10.0])  # end hold
    np.testing.assert_allclose(w(99.0), [2.0, 30.0])
    np.testing.assert_allclose(w.componentwise_min(), [0.0, 10.0])
    out = w(np.array([0.0, 3.0]))
    assert out.shape == (2, 2)


def test_disturbance_on_time_grid():
    sampled = model.DisturbanceSignal.sampled([0.0, 1.0, 3.0],
                                              [[0.0, 10.0], [2.0, 10.0],
                                               [2.0, 30.0]])
    constant = model.DisturbanceSignal.constant([1.5, -2.0])
    t = np.array([[0.0, 3.0], [1.0, 2.0]])
    for w in (sampled, constant):
        out = w(t)
        assert out.shape == t.shape + (2,)
        for idx in np.ndindex(t.shape):
            np.testing.assert_array_equal(out[idx], w(t[idx]))


def test_disturbance_rejects_bad_axes():
    with pytest.raises(ValueError):
        model.DisturbanceSignal.sampled([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(DimensionMismatch):
        model.DisturbanceSignal.constant([[1.0, 2.0]])


def test_tuning_margins_and_variant_guard():
    plant = _plant1()
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    rep = model.check_tuning(plant, ctrl)
    assert rep.passed
    assert rep.integral_margin[0] == pytest.approx(0.5)
    assert rep.antiwindup_margin[0] == pytest.approx(0.5)
    bad = model.ControllerSpec("decentralized", [1.0], [0.5], [3.0])
    assert not model.check_tuning(plant, bad).passed
    with pytest.raises(UnsupportedVariant):
        model.check_tuning(plant,
                           model.ControllerSpec("static", k_static=[[1.0]]))


def test_error_coordinates_vanish_at_equilibrium(rng):
    plant, ctrl = random_instance(rng, 4)
    w = rng.uniform(-10.0, 10.0, 4)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale
    z_t, u_t = oracles.transform_to_error_coords(plant, ctrl, eq, eq.x0,
                                                 eq.z0)
    np.testing.assert_allclose(z_t, 0.0, atol=1e-9)
    np.testing.assert_allclose(u_t, 0.0, atol=1e-9)


def test_error_derivative_matches_pushed_forward_loop(rng):
    # the transformed vector field must equal the chain rule applied to
    # the original one at matching states
    for _ in range(20):
        plant, ctrl = random_instance(rng)
        n = plant.n
        w = rng.uniform(-10.0, 10.0, n)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-10 * eq.scale
        x = rng.uniform(-5.0, 5.0, n)
        z = rng.uniform(-5.0, 5.0, n)
        dx, dz, u = _derivative(plant, ctrl, x, z, w)
        du = -ctrl.p * dx - ctrl.r * dz
        z_t, u_t = oracles.transform_to_error_coords(plant, ctrl, eq, x, z)
        dz_t, du_t = oracles.error_coords_derivative(plant, ctrl, eq, z_t,
                                                     u_t)
        np.testing.assert_allclose(dz_t, -ctrl.r * dz, atol=1e-8)
        np.testing.assert_allclose(du_t, du, atol=1e-8)
