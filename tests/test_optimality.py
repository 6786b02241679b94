import pathlib

import numpy as np
import pytest

import oracles
from conftest import random_disturbance, random_instance
from pisat import cli, equilibrium, heating, model, optimality, sector
from pisat.errors import (ConditionViolated, DimensionTooLarge, SolverFailure,
                          UnsupportedVariant)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_simplex_matches_scipy(rng):
    for _ in range(60):
        plant, _ = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        mine = optimality.solve_weighted_l1_lp(gamma, plant, w)
        assert mine.status == "optimal"
        _, _, ref_cost = oracles.weighted_l1_linprog(gamma, plant.a,
                                                     plant.b, w)
        assert mine.cost == pytest.approx(ref_cost, abs=1e-8)
        assert np.all(np.abs(mine.v_star) <= 1.0 + 1e-12)


def _assert_same_path(c, a_eq, b_eq):
    y, pivots = optimality._simplex(c, a_eq, b_eq)
    y_ref, pivots_ref = oracles.simplex_loop(c, a_eq, b_eq)
    np.testing.assert_array_equal(y, y_ref)
    assert pivots == pivots_ref
    return pivots


def _allocation_lp(gamma, plant, w):
    gm = (gamma / plant.a)[:, None] * plant.b
    return optimality._allocation_lp(gm, gamma / plant.a * np.asarray(w))


def test_simplex_path_matches_loop_oracle(rng):
    # the vectorized pivots and ratio tests take Bland's path of the
    # row-by-row solver, bit for bit
    for n in range(1, 41):
        plant, _ = random_instance(rng, n)
        w = random_disturbance(rng, n)
        gamma = optimality.admissible_gamma(plant)
        pivots = _assert_same_path(*_allocation_lp(gamma, plant, w))
        assert optimality.solve_weighted_l1_lp(gamma, plant,
                                               w).pivots == pivots


def test_simplex_path_matches_loop_oracle_degenerate(rng):
    for n in (1, 2, 5, 12, 25):
        plant, _ = random_instance(rng, n)
        gamma = optimality.admissible_gamma(plant)
        # w = 0: the optimum x = 0 is a degenerate vertex
        _assert_same_path(*_allocation_lp(gamma, plant, np.zeros(n)))
        # a huge pull puts the optimum on a corner of the input box
        corner = 100.0 * np.sign(rng.uniform(-1.0, 1.0, n))
        _assert_same_path(*_allocation_lp(gamma, plant, corner))
    for n in (2, 3, 8, 20):
        # duplicate columns of B: ties in the ratio test and the pricing
        gm = rng.uniform(-1.0, 1.0, (n, n))
        gm[:, 1] = gm[:, 0]
        gm[:, -1] = gm[:, 0]
        _assert_same_path(*optimality._allocation_lp(
            gm, rng.uniform(-3.0, 3.0, n)))


@pytest.mark.parametrize("config", ["benchmark_constant.json",
                                    "textbook_single.json"])
def test_simplex_path_matches_loop_oracle_bundled(config):
    scn, _ = cli.load_config(CONFIGS / config)
    plant, wsig = heating.to_standard_form(scn)
    w = wsig.constant_value()
    _assert_same_path(*_allocation_lp(optimality.admissible_gamma(plant),
                                      plant, w))


def test_pivot_guard_scales_with_tableau():
    # Bland's path grows about as n^2.5 on generated ratio-4 networks
    # (7,852 pivots at n = 200, 9,713 at n = 230, 11,681 at n = 240), so
    # a fixed guard of 10,000 fails feasible, bounded problems; the guard
    # read from the n = 230 tableau's shape alone must allow more
    _, a_eq, _ = optimality._allocation_lp(np.eye(230), np.zeros(230))
    assert a_eq.shape == (690, 1150)
    assert optimality._pivot_budget(*a_eq.shape) > 10_000
    assert optimality._pivot_budget(3, 5) == 10_000


def test_pivot_guard_raises_when_exhausted(rng, monkeypatch):
    plant, _ = random_instance(rng, 6)
    w = random_disturbance(rng, 6)
    gamma = optimality.admissible_gamma(plant)
    assert optimality.solve_weighted_l1_lp(gamma, plant, w).pivots > 3
    monkeypatch.setattr(optimality, "_pivot_budget", lambda rows, cols: 3)
    with pytest.raises(SolverFailure, match="pivot guard exceeded"):
        optimality.solve_weighted_l1_lp(gamma, plant, w)


def test_lp_cost_zero_when_interior(rng):
    # small w keeps the unconstrained optimum x = 0 feasible
    plant, _ = random_instance(rng, 3)
    w = 0.05 * random_disturbance(rng, 3)
    gamma = optimality.admissible_gamma(plant)
    sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
    assert sol.cost == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(plant.b @ sol.v_star + w, 0.0, atol=1e-9)


def test_admissible_gamma_satisfies_condition(rng):
    for _ in range(40):
        plant, _ = random_instance(rng)
        gamma = optimality.admissible_gamma(plant)
        assert np.all(gamma > 0.0)
        assert np.max(gamma) == pytest.approx(1.0)
        assert optimality.check_gamma_condition(gamma, plant)


def test_single_agent_saturated_lp():
    # x = v - 2 with v in [-1, 1]: best is v = 1, x = -1, cost 1
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    sol = optimality.solve_weighted_l1_lp([1.0], plant, [-2.0])
    assert sol.v_star[0] == pytest.approx(1.0, abs=1e-10)
    assert sol.x_star[0] == pytest.approx(-1.0, abs=1e-10)
    assert sol.cost == pytest.approx(1.0, abs=1e-10)


def test_lp_feasibility_postcondition(rng):
    for _ in range(20):
        plant, _ = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        sol = optimality.solve_weighted_l1_lp(
            optimality.admissible_gamma(plant), plant, w)
        resid = -plant.a * sol.x_star + plant.b @ sol.v_star + w
        np.testing.assert_allclose(resid, 0.0, atol=1e-9)


def test_cost_scales_linearly_argmin_fixed(rng):
    plant, _ = random_instance(rng, 4)
    w = random_disturbance(rng, 4)
    gamma = optimality.admissible_gamma(plant)
    base = optimality.solve_weighted_l1_lp(gamma, plant, w)
    scaled = optimality.solve_weighted_l1_lp(3.0 * gamma, plant, w)
    # rescaling every objective weight preserves all reduced-cost signs,
    # so the pivot sequence and the returned vertex are unchanged
    np.testing.assert_allclose(scaled.v_star, base.v_star, atol=1e-12)
    assert scaled.cost == pytest.approx(3.0 * base.cost, rel=1e-12)


def test_admissible_gamma_known_triangular():
    plant = model.PlantModel([1.0, 1.0], [[1.0, -2.0], [0.0, 1.0]],
                             sector.saturation_deadzone(2))
    gamma = optimality.admissible_gamma(plant)
    np.testing.assert_allclose(gamma, [1.0 / 3.0, 1.0], atol=1e-12)


def test_gamma_condition_known_cases():
    plant = model.PlantModel([1.0, 1.0], [[2.0, -1.0], [-1.0, 2.0]],
                             sector.saturation_deadzone(2))
    assert optimality.check_gamma_condition([1.0, 1.0], plant)
    assert not optimality.check_gamma_condition([1.0, 100.0], plant)
    ident = model.PlantModel([2.0, 3.0], np.eye(2),
                             sector.saturation_deadzone(2))
    # gamma = a makes the product the identity
    assert optimality.check_gamma_condition([2.0, 3.0], ident)


def test_gamma_condition_rejects_lopsided_weights():
    # strongly coupled pair: overweighting agent 1 breaks dominance
    plant = model.PlantModel([1.0, 1.0], [[1.0, -0.8], [-0.8, 1.0]],
                             sector.saturation_deadzone(2))
    assert not optimality.check_gamma_condition([1.0, 0.05], plant)
    assert optimality.check_gamma_condition(
        optimality.admissible_gamma(plant), plant)


def test_brute_force_oracle_vertex_case():
    # huge pull makes v* = (1, 1) a box vertex, which the grid hits
    # exactly, so oracle and LP agree to solver precision
    plant = model.PlantModel([1.0, 1.0], [[2.0, -0.5], [-0.5, 2.0]],
                             sector.saturation_deadzone(2))
    w = np.array([-9.0, -9.0])
    gamma = optimality.admissible_gamma(plant)
    sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
    _, _, bf_cost = oracles.brute_force_oracle(gamma, plant.a, plant.b, w,
                                               grid=9)
    np.testing.assert_allclose(sol.v_star, [1.0, 1.0], atol=1e-9)
    assert sol.cost == pytest.approx(bf_cost, abs=1e-8)


def test_brute_force_oracle_within_resolution(rng):
    grid = 13
    for _ in range(20):
        plant, _ = random_instance(rng, int(rng.integers(1, 4)))
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
        _, _, bf_cost = oracles.brute_force_oracle(gamma, plant.a, plant.b,
                                                   w, grid=grid)
        # the convexity argument only guarantees first-pass resolution:
        # some coarse point sits within spacing/2 of the optimum in every
        # coordinate, and refinement never worsens the incumbent
        lip = float(np.sum(np.abs((gamma / plant.a)[:, None] * plant.b)))
        spacing = 2.0 / (grid - 1)
        assert sol.cost <= bf_cost + 1e-9
        assert bf_cost - sol.cost <= lip * 0.5 * spacing + 1e-9


def test_brute_force_dimension_guard(rng):
    plant, _ = random_instance(rng, 5)
    with pytest.raises(DimensionTooLarge):
        oracles.brute_force_oracle(np.ones(5), plant.a, plant.b, np.zeros(5))


def test_certificate_on_textbook_saturated():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec.decentralized([1.0], [0.5], [0.5])
    cert = optimality.certify_equilibrium_optimality([1.0], plant, ctrl,
                                                     [-2.0], tol=1e-7)
    assert cert.passed
    assert cert.equilibrium_cost == pytest.approx(1.0, abs=1e-9)
    assert cert.cost_gap <= 1e-7
    assert cert.sign_structure_error <= 1e-9


def test_certificate_random_instances(rng):
    for _ in range(30):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        cert = optimality.certify_equilibrium_optimality(gamma, plant, ctrl,
                                                         w, tol=1e-7)
        assert cert.passed, (cert.cost_gap, cert.sign_structure_error)


def test_certificate_uses_given_equilibrium(rng, monkeypatch):
    plant, ctrl = random_instance(rng, 5)
    w = random_disturbance(rng, 5)
    gamma = optimality.admissible_gamma(plant)
    own = optimality.certify_equilibrium_optimality(gamma, plant, ctrl, w,
                                                    tol=1e-7)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w, tol=1e-10)

    def no_solve(*args, **kwargs):
        raise AssertionError("equilibrium solved again")

    monkeypatch.setattr(equilibrium, "solve_equilibrium", no_solve)
    given = optimality.certify_equilibrium_optimality(gamma, plant, ctrl, w,
                                                      tol=1e-7, eq=eq)
    assert given.eq is eq
    assert given.passed
    assert given.equilibrium_cost == own.equilibrium_cost
    assert given.lp_cost == own.lp_cost


def test_certificate_guards():
    plant = model.PlantModel([1.0, 1.0], [[1.0, -0.8], [-0.8, 1.0]],
                             sector.saturation_deadzone(2))
    ctrl = model.ControllerSpec.decentralized([1.0, 1.0], [0.5, 0.5],
                                              [0.5, 0.5])
    with pytest.raises(ConditionViolated):
        optimality.certify_equilibrium_optimality([1.0, 0.05], plant, ctrl,
                                                  np.zeros(2))
    ident = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    d1 = model.ControllerSpec.decentralized([1.0], [0.5], [0.5])
    with pytest.raises(UnsupportedVariant):
        optimality.certify_equilibrium_optimality([1.0], ident, d1, [0.0])
