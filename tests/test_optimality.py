import dataclasses
import importlib.util
import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_disturbance, random_instance
from pisat import cli, equilibrium, heating, model, optimality, sector
from pisat.errors import (ConditionViolated, SolverFailure,
                          UnsupportedVariant)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CONSTANT_CONFIGS = ["benchmark_constant.json", "textbook_single.json"]


def test_simplex_matches_scipy(rng):
    for _ in range(60):
        plant, _ = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        mine = optimality.solve_weighted_l1_lp(gamma, plant, w)
        _, _, ref_cost = oracles.weighted_l1_linprog(gamma, plant.a,
                                                     plant.b, w)
        assert mine.cost == pytest.approx(ref_cost, abs=1e-8)
        assert np.all(np.abs(mine.v_star) <= 1.0 + 1e-12)


def _assert_matches_loop_oracle(gm, gw):
    # the bounded simplex reaches the optimum of the two-phase epigraph
    # solve it replaced; the paths differ, so the costs agree to 1e-12
    # relative (1e-12 absolute where the optimum is zero); a raw gm has no
    # loop pattern, so the simplex starts at the all-low pattern v = -1
    v, _, _, bland = optimality._bounded_simplex(
        gm, gw, np.zeros(gw.size, dtype=int))
    assert np.max(np.abs(v)) <= 1.0 + 1e-9
    cost = float(np.sum(np.abs(gm @ np.clip(v, -1.0, 1.0) + gw)))
    assert cost == pytest.approx(oracles.allocation_cost_loop(gm, gw),
                                 rel=1e-12, abs=1e-12)
    return bland


def _assert_plant_matches_loop_oracle(gamma, plant, w):
    sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
    assert np.all(np.abs(sol.v_star) <= 1.0)
    gm, gw = optimality._weighted_system(gamma, plant, np.asarray(w))
    assert sol.cost == pytest.approx(oracles.allocation_cost_loop(gm, gw),
                                     rel=1e-12, abs=1e-12)
    return sol


def _assert_starts_optimal(sol):
    # the loop's saturation pattern is an optimal basis: no step is taken
    assert (sol.pivots, sol.bound_flips, sol.bland_pivots) == (0, 0, 0)


def test_simplex_path_matches_loop_oracle(rng):
    # under an admissible gamma the simplex starts at the loop oracle's
    # optimum on every n
    for n in range(1, 41):
        plant, _ = random_instance(rng, n)
        w = random_disturbance(rng, n)
        sol = _assert_plant_matches_loop_oracle(
            optimality.admissible_gamma(plant), plant, w)
        _assert_starts_optimal(sol)


def test_simplex_path_matches_loop_oracle_degenerate(rng):
    for n in (1, 2, 5, 12, 25):
        plant, _ = random_instance(rng, n)
        gamma = optimality.admissible_gamma(plant)
        # w = 0: the optimum x = 0 is a degenerate vertex, every input free
        assert np.all(optimality._lcp_pattern(plant, np.zeros(n)) == 1)
        _assert_starts_optimal(_assert_plant_matches_loop_oracle(
            gamma, plant, np.zeros(n)))
        # a huge pull puts the optimum on a corner of the input box, every
        # input saturated
        corner = 100.0 * np.sign(rng.uniform(-1.0, 1.0, n))
        assert not np.any(optimality._lcp_pattern(plant, corner) == 1)
        _assert_starts_optimal(_assert_plant_matches_loop_oracle(
            gamma, plant, corner))
    for n in (2, 3, 8, 20):
        # duplicate columns of B: ties in the ratio test and the pricing
        gm = rng.uniform(-1.0, 1.0, (n, n))
        gm[:, 1] = gm[:, 0]
        gm[:, -1] = gm[:, 0]
        _assert_matches_loop_oracle(gm, rng.uniform(-3.0, 3.0, n))


def test_simplex_fully_degenerate_start(rng):
    # w = +-B 1 puts the optimum x = 0 on the box vertex v = -+1 and every
    # |u0| = 1 on a knot: the rows tie, each is free and basic at its
    # bound, and the start is the optimum
    for n in (1, 3, 10, 25):
        plant, _ = random_instance(rng, n)
        gamma = optimality.admissible_gamma(plant)
        for knot in (1.0, -1.0):
            w = knot * (plant.b @ np.ones(n))
            assert np.all(optimality._lcp_pattern(plant, w) == 1)
            sol = _assert_plant_matches_loop_oracle(gamma, plant, w)
            _assert_starts_optimal(sol)
            assert sol.cost == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(sol.v_star, -knot, rtol=0.0,
                                       atol=1e-12)
    fallbacks = 0
    for n in (4, 8, 15, 20):
        # gw = gm 1 on a raw gm puts the optimum on the all-low start
        # v = -1, where every basic value is zero; without the M-matrix
        # structure, n degenerate pivots do not reach the optimum and
        # Bland's rule takes over
        gm = rng.uniform(-1.0, 1.0, (n, n))
        fallbacks += _assert_matches_loop_oracle(gm, gm @ np.ones(n))
    assert fallbacks > 0


def test_bland_pricing_throughout_reaches_same_optimum(rng, monkeypatch):
    cases = []
    for n in (1, 2, 5, 12, 25, 40):
        plant, _ = random_instance(rng, n)
        cases.append((optimality.admissible_gamma(plant), plant,
                      random_disturbance(rng, n)))
    for config in CONSTANT_CONFIGS:
        plant, _, w = _bundled(config)
        cases.append((optimality.admissible_gamma(plant), plant, w))
    dantzig = [optimality.solve_weighted_l1_lp(*case) for case in cases]
    monkeypatch.setattr(optimality, "_stall_limit", lambda rows: 0)
    for case, ref in zip(cases, dantzig):
        sol = _assert_plant_matches_loop_oracle(*case)
        assert sol.bland_pivots == sol.pivots
        assert sol.cost == pytest.approx(ref.cost, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("config", ["benchmark_constant.json",
                                    "textbook_single.json"])
def test_simplex_path_matches_loop_oracle_bundled(config):
    plant, _, w = _bundled(config)
    _assert_starts_optimal(_assert_plant_matches_loop_oracle(
        optimality.admissible_gamma(plant), plant, w))


@pytest.mark.parametrize("n", [40, 100])
def test_pattern_start_is_optimal_on_generated_networks(tmp_path, n):
    scn, _ = cli.load_config(_generated_network(tmp_path, n))
    plant, wsig = heating.to_standard_form(scn)
    _assert_starts_optimal(_assert_plant_matches_loop_oracle(
        optimality.admissible_gamma(plant), plant, wsig.componentwise_min()))


def _violating_gamma(rng, plant):
    gamma = 10.0 ** rng.uniform(-3.0, 3.0, plant.n)
    assert not optimality.check_gamma_condition(gamma, plant)
    return gamma


def test_pattern_start_under_violating_gamma(rng):
    # the start stays primal feasible whatever gamma is, and the simplex
    # pivots on from it to the optimum
    steps = 0
    for n in (3, 8, 15, 25, 40):
        plant, _ = random_instance(rng, n)
        w = random_disturbance(rng, n)
        sol = _assert_plant_matches_loop_oracle(_violating_gamma(rng, plant),
                                                plant, w)
        steps += sol.pivots + sol.bound_flips
    assert steps > 0


def test_pattern_start_at_large_loads(rng):
    # loads x 1e7 saturate most inputs far past their knots; the free
    # block's solve still lands inside the box
    for n in (1, 4, 12, 30):
        plant, _ = random_instance(rng, n)
        w = 1e7 * random_disturbance(rng, n)
        _assert_starts_optimal(_assert_plant_matches_loop_oracle(
            optimality.admissible_gamma(plant), plant, w))
        if n > 1:   # one agent meets the condition at every gamma
            _assert_plant_matches_loop_oracle(_violating_gamma(rng, plant),
                                              plant, w)


def test_pivot_guard_scales_with_tableau(rng, monkeypatch):
    # the guard is read from the n x 3n system: 4 n^2 steps, never fewer
    # than 10,000; the path stays far below it (no step under an
    # admissible gamma, 2-42 under a random gamma on generated networks)
    assert optimality._pivot_budget(230, 690) == 4 * 230 ** 2
    assert optimality._pivot_budget(3, 9) == 10_000
    shapes = []
    budget = optimality._pivot_budget

    def recorded(rows, cols):
        shapes.append((rows, cols))
        return budget(rows, cols)

    monkeypatch.setattr(optimality, "_pivot_budget", recorded)
    plant, _ = random_instance(rng, 40)
    sol = optimality.solve_weighted_l1_lp(
        optimality.admissible_gamma(plant), plant,
        random_disturbance(rng, 40))
    assert shapes == [(40, 120)]
    assert sol.pivots + sol.bound_flips < 10 * 40


def test_pivot_guard_raises_when_exhausted(rng, monkeypatch):
    plant, _ = random_instance(rng, 40)
    w = random_disturbance(rng, 40)
    # under an admissible gamma the start is optimal and takes no step, so
    # a gamma that breaks the condition makes the simplex pivot
    gamma = _violating_gamma(rng, plant)
    # the guard counts every step, pivot or bound flip
    sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
    assert sol.pivots + sol.bound_flips > 3
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
    with pytest.raises(oracles.DimensionTooLarge):
        oracles.brute_force_oracle(np.ones(5), plant.a, plant.b, np.zeros(5))


def _certify(gamma, plant, ctrl, w):
    # the certificate on the equilibrium solved as certify solves it at
    # tol 1e-7: to a residual of 1e-10
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale
    return optimality.certify_equilibrium_optimality(gamma, plant, ctrl, w,
                                                     eq, tol=1e-7)


def test_certificate_on_textbook_saturated():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    cert = _certify([1.0], plant, ctrl, [-2.0])
    assert cert.passed
    assert cert.equilibrium_cost == pytest.approx(1.0, abs=1e-9)
    assert cert.cost_gap <= 1e-7
    assert cert.sign_structure_error <= 1e-9


def test_certificate_random_instances(rng):
    for _ in range(30):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        cert = _certify(gamma, plant, ctrl, w)
        assert cert.passed, (cert.cost_gap, cert.sign_structure_error)


def test_certificate_uses_given_equilibrium(rng, monkeypatch):
    plant, ctrl = random_instance(rng, 5)
    w = random_disturbance(rng, 5)
    gamma = optimality.admissible_gamma(plant)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale

    def no_solve(*args, **kwargs):
        raise AssertionError("equilibrium solved again")

    monkeypatch.setattr(equilibrium, "solve_equilibrium", no_solve)
    given = optimality.certify_equilibrium_optimality(gamma, plant, ctrl, w,
                                                      eq, tol=1e-7)
    assert given.passed


def test_certificate_guards():
    plant = model.PlantModel([1.0, 1.0], [[1.0, -0.8], [-0.8, 1.0]],
                             sector.saturation_deadzone(2))
    ctrl = model.ControllerSpec("decentralized", [1.0, 1.0], [0.5, 0.5],
                                [0.5, 0.5])
    with pytest.raises(ConditionViolated):
        _certify([1.0, 0.05], plant, ctrl, np.zeros(2))
    ident = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    d1 = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    with pytest.raises(UnsupportedVariant):
        _certify([1.0], ident, d1, [0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dual_value_never_exceeds_lp_optimum(seed, data):
    # weak duality: every y in the box bounds the optimum from below
    rng = np.random.default_rng(seed)
    plant, _ = random_instance(rng)
    w = random_disturbance(rng, plant.n)
    box = st.floats(-1.0, 1.0)
    y = np.array(data.draw(st.lists(box, min_size=plant.n,
                                    max_size=plant.n)))
    gamma = np.array(data.draw(st.lists(st.floats(0.1, 10.0),
                                        min_size=plant.n, max_size=plant.n)))
    gm, gw = optimality._weighted_system(gamma, plant, w)
    _, _, ref_cost = oracles.weighted_l1_linprog(gamma, plant.a, plant.b, w)
    assert optimality._dual_value(gm, gw, y) <= ref_cost + 1e-9


def _assert_certified_without_lp(cert, tol):
    assert cert.passed
    assert not cert.lp_fallback
    assert cert.lp is None and cert.lp_cost is None
    assert cert.dual_gap <= tol
    assert cert.dual_gap == cert.equilibrium_cost - cert.dual_bound


def test_dual_certificate_on_criterion_4_instances():
    # the seeded instances of acceptance criterion 4: the dual bound
    # certifies every equilibrium and the LP agrees with it
    rng = np.random.default_rng(20260814 + 4)
    for _ in range(100):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-11 * eq.scale
        cert = optimality.certify_equilibrium_optimality(
            gamma, plant, ctrl, w, eq, tol=1e-7)
        _assert_certified_without_lp(cert, 1e-7)
        lp_cost = optimality.solve_weighted_l1_lp(gamma, plant, w).cost
        assert cert.dual_bound <= lp_cost + 1e-9
        assert lp_cost <= cert.equilibrium_cost + 1e-9


def _bundled(config):
    scn, _ = cli.load_config(CONFIGS / config)
    plant, wsig = heating.to_standard_form(scn)
    return plant, scn.controller, wsig.componentwise_min()


@pytest.mark.parametrize("config", CONSTANT_CONFIGS)
def test_dual_certificate_on_bundled_configs(config):
    plant, ctrl, w = _bundled(config)
    cert = _certify(optimality.admissible_gamma(plant), plant, ctrl, w)
    _assert_certified_without_lp(cert, 1e-7)


@pytest.mark.parametrize("config", CONSTANT_CONFIGS)
def test_non_optimal_state_runs_fallback_and_fails(config):
    # pull one saturated input inside the box: x0 stays feasible but is
    # no longer optimal, so the dual gap opens and the LP confirms it
    plant, ctrl, w = _bundled(config)
    if config == "textbook_single.json":
        w = np.array([-2.0])    # saturates the single input
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale
    sat = np.flatnonzero(np.abs(eq.u0) > 1.0)
    assert sat.size > 0
    u0 = eq.u0.copy()
    u0[sat[0]] = 0.5 * np.sign(u0[sat[0]])
    x0 = (plant.b @ np.clip(u0, -1.0, 1.0) + w) / plant.a
    moved = dataclasses.replace(eq, u0=u0, x0=x0)
    cert = optimality.certify_equilibrium_optimality(
        optimality.admissible_gamma(plant), plant, ctrl, w, moved, tol=1e-7)
    assert cert.dual_gap > 1e-7
    assert cert.lp_fallback
    assert cert.lp_cost == cert.lp.cost
    assert cert.cost_gap == abs(cert.equilibrium_cost - cert.lp.cost)
    assert cert.cost_gap > 1e-7
    assert not cert.passed


@pytest.mark.parametrize("config", CONSTANT_CONFIGS)
def test_infeasible_start_pattern_raises_before_pivoting(config,
                                                         monkeypatch):
    # the moved u0 above names a pattern whose free input must leave the
    # box to zero its row: the start builder refuses it, and no pivot runs
    plant, ctrl, w = _bundled(config)
    if config == "textbook_single.json":
        w = np.array([-2.0])
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    u0 = eq.u0.copy()
    k = np.flatnonzero(np.abs(u0) > 1.0)[0]
    u0[k] = 0.5 * np.sign(u0[k])
    pieces = sector.saturation_deadzone(plant.n).piece_of(u0)
    gm, gw = optimality._weighted_system(optimality.admissible_gamma(plant),
                                         plant, w)
    pivots = []
    monkeypatch.setattr(optimality, "_pivot",
                        lambda *args: pivots.append(args))
    with pytest.raises(SolverFailure, match="start pattern infeasible: "
                       rf"basic y_{k} = "):
        optimality._bounded_simplex(gm, gw, pieces)
    assert pivots == []


def _generated_network(tmp_path, n):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / f"net{n}.json"
    gen.write_json(gen.random_network(np.random.default_rng(5), n, 4.0,
                                      f"net{n}"), str(path))
    return str(path)


def test_certify_makes_no_simplex_call(monkeypatch, tmp_path):
    calls = []
    simplex = optimality._bounded_simplex

    def counted(*args):
        calls.append(1)
        return simplex(*args)

    monkeypatch.setattr(optimality, "_bounded_simplex", counted)
    configs = [str(CONFIGS / c) for c in CONSTANT_CONFIGS]
    configs.append(_generated_network(tmp_path, 40))
    for k, config in enumerate(configs):
        out = tmp_path / f"certify{k}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["certify", "--config", config,
                             "--out", str(out)]) in (0, 2)
        opt = next(c for c in json.loads(out.read_text())["checks"]
                   if c["name"] == "allocation_optimality")
        assert opt["status"] == "pass"
        assert opt["lp_fallback"] is False
        assert "lp_cost" not in opt and "lp_status" not in opt
    assert calls == []
    assert cli.main(["lp", "--config", configs[-1],
                     "--out", str(tmp_path / "lp.json")]) == 0
    assert calls == [1]
