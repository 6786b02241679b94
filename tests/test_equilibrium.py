import pathlib
import time

import numpy as np
import pytest

import oracles
from conftest import random_disturbance, random_instance, random_pwl_pair
from pisat import cli, equilibrium, heating, model, sector
from pisat.errors import (CertificateFailure, MaxIterationsExceeded,
                          UnsupportedVariant)

BENCHMARK = (pathlib.Path(__file__).resolve().parent.parent / "configs"
             / "benchmark_constant.json")


def _textbook():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    return plant, ctrl


def test_analytic_unsaturated():
    # w = -0.3: u0 = 0.3 keeps |u| < 1, so x0 = 0 and z0 = -u0 / r
    plant, ctrl = _textbook()
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-0.3])
    assert eq.residual_stationary <= 1e-10 * eq.scale
    assert eq.x0[0] == pytest.approx(0.0, abs=1e-9)
    assert eq.z0[0] == pytest.approx(-0.6, abs=1e-9)
    assert eq.u0[0] == pytest.approx(0.3, abs=1e-9)


def test_analytic_saturated():
    # w = -2: f = 1 at best, x0 = (1 - 2)/1 = -1, u0 solves the excess
    # balance h(u0) = -x0 / s = 2 so u0 = 3, z0 = (1 - 3)/0.5 = -4
    plant, ctrl = _textbook()
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-2.0])
    assert eq.residual_stationary <= 1e-10 * eq.scale
    assert eq.x0[0] == pytest.approx(-1.0, abs=1e-9)
    assert eq.z0[0] == pytest.approx(-4.0, abs=1e-9)
    assert eq.u0[0] == pytest.approx(3.0, abs=1e-9)


def test_contraction_constants_identity_case():
    # s = a = b = 1: b_hat = 1, k = 3, lambda = 2/3, mu = 2/3
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [1.0])
    cmap = equilibrium.build_contraction(plant, ctrl, [0.5])
    assert cmap.k == pytest.approx(3.0)
    assert cmap.lam == pytest.approx(2.0 / 3.0)
    assert cmap.contraction_bound == pytest.approx(2.0 / 3.0)


def test_build_contraction_rechecks_the_plants_scaling():
    # with unit scaling the second column of this M-matrix is not
    # dominant, so a wrong scaling in the plant fails the map, loudly
    b = np.array([[1.0, -2.0], [0.0, 1.0]])
    plant = model.PlantModel([1.0, 1.0], b, sector.saturation_deadzone(2))
    ctrl = model.ControllerSpec("decentralized", [1.0, 1.0], [0.5, 0.5],
                                [1.0, 1.0])
    assert equilibrium.build_contraction(plant, ctrl, [0.0, 0.0]).n == 2
    object.__setattr__(plant, "gain_scaling", np.ones(2))
    with pytest.raises(CertificateFailure):
        equilibrium.build_contraction(plant, ctrl, [0.0, 0.0])


def test_fixed_point_is_stationary(rng):
    for _ in range(30):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-11
        # back-substituted states satisfy both stationarity equations
        f0 = sector.eval_f(plant.pair, eq.u0)
        np.testing.assert_allclose(plant.a * eq.x0, plant.b @ f0 + w,
                                   atol=1e-9)
        h0 = eq.u0 - f0
        np.testing.assert_allclose(eq.x0 + ctrl.s * h0, 0.0, atol=1e-9)
        np.testing.assert_allclose(-ctrl.p * eq.x0 - ctrl.r * eq.z0, eq.u0,
                                   atol=1e-9)


def test_matches_newton_oracle(rng):
    for _ in range(40):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-12 * eq.scale
        x0, z0, u0 = oracles.equilibrium_newton(plant.a, plant.b, ctrl.p,
                                                ctrl.r, ctrl.s, w)
        np.testing.assert_allclose(eq.u0, u0, atol=1e-8)
        np.testing.assert_allclose(eq.x0, x0, atol=1e-8)
        np.testing.assert_allclose(eq.z0, z0, atol=1e-8)


def test_bound_strictly_below_one(rng):
    for _ in range(50):
        plant, ctrl = random_instance(rng)
        cmap = equilibrium.build_contraction(plant, ctrl,
                                             random_disturbance(rng, plant.n))
        assert 0.0 < cmap.contraction_bound < 1.0


def test_measured_ratio_respects_bound(rng):
    for _ in range(25):
        plant, ctrl = random_instance(rng)
        cmap = equilibrium.build_contraction(plant, ctrl,
                                             random_disturbance(rng, plant.n))
        measured = equilibrium.measure_contraction(cmap, 200, rng)
        assert measured <= cmap.contraction_bound + 1e-12


def test_measured_ratio_tight_for_linear_map():
    # identity pair makes T affine with diagonal slope, so the measured
    # ratio equals the exact operator norm max(lam, mu)
    plant = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [1.0])
    cmap = equilibrium.build_contraction(plant, ctrl, [0.2])
    measured = equilibrium.measure_contraction(cmap, 100)
    assert measured == pytest.approx(cmap.contraction_bound, rel=1e-12)


def test_restarts_agree(rng):
    plant, ctrl = random_instance(rng, 5)
    w = random_disturbance(rng, 5)
    spread = equilibrium.probe_uniqueness(plant, ctrl, w, restarts=50,
                                          rng=rng).spread
    assert spread <= 1e-6


def test_probe_reports_solves(rng):
    # each distinct pattern is solved once, and the count repeats
    plant, ctrl = random_instance(rng, 5)
    w = random_disturbance(rng, 5)
    probes = [equilibrium.probe_uniqueness(plant, ctrl, w, restarts=20,
                                           rng=np.random.default_rng(9))
              for _ in range(2)]
    assert probes[0].spread == probes[1].spread == 0.0
    assert 0 < probes[0].solves == probes[1].solves <= 4 * 20
    with pytest.raises(UnsupportedVariant):
        equilibrium.probe_uniqueness(
            plant, model.ControllerSpec("coordinating", ctrl.p, ctrl.r,
                                        ctrl.s), w)


def test_requires_decentralized_variant():
    plant, _ = _textbook()
    coord = model.ControllerSpec("coordinating", [1.0], [0.5], [0.5])
    with pytest.raises(UnsupportedVariant):
        equilibrium.build_contraction(plant, coord, [0.0])


def test_residual_scales_iterate_error():
    # the pattern loop ends on an exact solve: a repeated solve returns
    # the same point, at a residual far below any caller's tolerance
    plant, ctrl = _textbook()
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-0.7])
    again = equilibrium.solve_equilibrium(plant, ctrl, [-0.7])
    assert eq.residual_stationary <= 1e-13 * eq.scale
    np.testing.assert_array_equal(eq.u0, again.u0)


def _benchmark():
    scn, _ = cli.load_config(BENCHMARK)
    plant, wsig = heating.to_standard_form(scn)
    return plant, scn.controller, wsig.componentwise_min()


def _solve_scaled(w_scale, s_scale):
    # the bundled network with its load and its s scaled, solved within
    # 1 s to a residual of at most 1e-10 scale
    plant, ctrl, w = _benchmark()
    ctrl = model.ControllerSpec("decentralized", ctrl.p, ctrl.r,
                                s_scale * ctrl.s)
    w = w_scale * w
    start = time.perf_counter()
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert time.perf_counter() - start < 1.0
    scale = max(1.0, float(np.max(np.abs(w / (ctrl.s * plant.a)))),
                float(np.max(np.abs(eq.u0))))
    assert eq.scale == scale
    assert eq.residual_stationary <= 1e-10 * scale
    return plant, ctrl, w, eq


@pytest.mark.parametrize("w_scale, s_scale", [(1e3, 1.0), (1e5, 1.0),
                                              (1.0, 1e-4), (1e2, 1e-1),
                                              (1e6, 1.0), (1e7, 1e-3)])
def test_solve_returns_at_floating_point_floor(w_scale, s_scale):
    # well-posed problems whose stationary residual cannot reach the
    # absolute 1e-10: a large load, or a bound of 0.9999986 with s / 1e4
    plant, ctrl, w, eq = _solve_scaled(w_scale, s_scale)
    _, _, u0 = oracles.equilibrium_newton(plant.a, plant.b, ctrl.p, ctrl.r,
                                          ctrl.s, w, tol=1e-9 * eq.scale)
    np.testing.assert_allclose(eq.u0, u0, rtol=0.0, atol=1e-8 * eq.scale)


@pytest.mark.parametrize("s_scale", [1e-7, 1e-8])
def test_solve_near_one_bound(s_scale):
    # the contraction map's step stalls far above the tolerance here, and
    # the Newton oracle stalls too; the pattern loop settles in as many
    # rounds as at s x 1 and lands on the rounding floor
    _, _, _, eq = _solve_scaled(1.0, s_scale)
    assert eq.iterations == _solve_scaled(1.0, 1.0)[3].iterations


def test_solve_returns_custom_pair_rounding_floor():
    # a custom pair's residual floor grows with its table values over
    # s a, which the scale does not track: the solve returns its exact
    # pattern solve and leaves the verdict to its caller
    pair = sector.custom_pwl([sector.PwlFunction([-3.0, 0.0, 2.2],
                                                 [-0.9, 0.0, 1.54],
                                                 0.1, 0.2)])
    plant = model.PlantModel([1.0], [[1.0]], pair)
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [1e-6])
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-3e-7])
    assert eq.residual_stationary == pytest.approx(1.504e-10, rel=1e-3)
    assert eq.scale == 1.0 and eq.iterations == 2


def _random_problem(rng, pwl: bool):
    plant, ctrl = random_instance(rng)
    if pwl:
        plant = model.PlantModel(plant.a, plant.b,
                                 random_pwl_pair(rng, plant.n))
    w = random_disturbance(rng, plant.n)
    return plant, ctrl, w, equilibrium.build_contraction(plant, ctrl, w)


def _loop_rows(plant, ctrl, w, restarts, rng):
    # the solve, or the ends of a stack of random starts: exactly the
    # distinct ends of its single-start runs, bit for bit, after as many
    # rounds as the longest of them and with no more solves than theirs
    if restarts is None:
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-10 * eq.scale
        return eq.u0
    start = plant.pair.piece_of(rng.uniform(-8.0, 8.0, (restarts, plant.n)))
    u, rounds, solves = equilibrium._pattern_loop(plant, ctrl, w, start)
    singles = [equilibrium._pattern_loop(plant, ctrl, w, start[row:row + 1])
               for row in range(restarts)]
    assert all(len(end) == 1 for end, _, _ in singles)
    assert 1 <= len(u) <= restarts
    assert ({end.tobytes() for end in u}
            == {end[0].tobytes() for end, _, _ in singles})
    assert 1 <= rounds <= 4 and rounds == max(r for _, r, _ in singles)
    assert solves <= sum(k for _, _, k in singles)
    return u


@pytest.mark.parametrize("restarts", [None, 7])
def test_pattern_loop_matches_plain_iteration(rng, restarts):
    # the pattern loop reaches in a few solves the fixed point that the
    # plain contraction loop crawls to; that loop, run 1000x tighter,
    # stands in for it
    for trial in range(30):
        plant, ctrl, w, cmap = _random_problem(rng, pwl=trial % 2 == 1)
        u = _loop_rows(plant, ctrl, w, restarts, rng)
        for tol in (1e-6, 1e-9):
            ref, _, _ = oracles.iterate_plain(cmap, -cmap.w_hat / cmap.k,
                                              1e-3 * tol)
            assert np.max(np.sum(np.abs(cmap.scaling_d * u - ref),
                                 axis=-1)) <= tol


@pytest.mark.parametrize("restarts", [None, 7])
def test_pattern_loop_matches_newton_oracle(rng, restarts):
    # the pattern loop's rows land on the solve, and both on Newton's root
    for _ in range(30):
        plant, ctrl, w, _ = _random_problem(rng, pwl=False)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-10 * eq.scale
        u = _loop_rows(plant, ctrl, w, restarts, rng)
        np.testing.assert_allclose(u, np.broadcast_to(eq.u0, u.shape),
                                   rtol=0.0, atol=1e-12 * eq.scale)
        _, _, u0 = oracles.equilibrium_newton(plant.a, plant.b, ctrl.p,
                                              ctrl.r, ctrl.s, w)
        np.testing.assert_allclose(u, np.broadcast_to(u0, u.shape),
                                   atol=1e-8)


def test_returning_pattern_raises(monkeypatch):
    # a predictor that alternates between two patterns is a cycle: two
    # solves cannot take four rounds, and the loop raises instead of
    # spinning
    plant, ctrl, w = _benchmark()
    calls = []

    def alternating(phi, rhs):
        calls.append(rhs)
        return np.full(rhs.shape, 1 + len(calls) % 2)

    monkeypatch.setattr(equilibrium, "_next_pieces", alternating)
    with pytest.raises(MaxIterationsExceeded,
                       match="the patterns cycle by round 4"):
        equilibrium.solve_equilibrium(plant, ctrl, w)
    assert len(calls) == 2


def _scripted_walk(monkeypatch, start, *successors):
    # the one-agent saturation loop, whose predictor returns the given
    # successors call by call, one row per new pattern in frontier order
    plant, ctrl = _textbook()
    calls = iter(successors)
    monkeypatch.setattr(equilibrium, "_next_pieces",
                        lambda phi, rhs: np.array(next(calls)))
    return equilibrium._pattern_loop(plant, ctrl, np.array([-0.3]),
                                     np.array(start))


def test_path_through_three_patterns_ends(monkeypatch):
    # 1 -> 0 -> 2 -> 2 ends without raising after three rounds on three
    # solves, the edge of the cycle bound
    u, rounds, solves = _scripted_walk(monkeypatch, [[1]], [[0]], [[2]],
                                       [[2]])
    assert (len(u), rounds, solves) == (1, 3, 3)


def test_starts_joining_one_path_share_its_end(monkeypatch):
    # starts on patterns 1 and 0 of the path 1 -> 0 -> 2 -> 2 join it at
    # depths 0 and 1; the walk solves each pattern once and gives one end
    u, rounds, solves = _scripted_walk(monkeypatch, [[1], [0]],
                                       [[0], [2]], [[2]])
    assert (len(u), rounds, solves) == (1, 3, 3)


def _roadmap_cases():
    # the first 400 seed-3 draws, every second with a custom pair
    rng = np.random.default_rng(3)
    return [_random_problem(rng, pwl=trial % 2 == 1)[:3]
            for trial in range(400)]


def test_roadmap_cases_settle_in_four_rounds():
    # at every s the patterns, not the contraction bound, set the rounds
    worst = 0
    for plant, ctrl, w in _roadmap_cases():
        for s_scale in (1.0, 1e-2, 1e-4):
            scaled = model.ControllerSpec("decentralized", ctrl.p, ctrl.r,
                                          s_scale * ctrl.s)
            eq = equilibrium.solve_equilibrium(plant, scaled, w)
            assert eq.residual_stationary <= 1e-10 * eq.scale
            worst = max(worst, eq.iterations)
    assert worst <= 4


def test_saturated_instance_near_one_bound_solves_fast():
    # instance 102 (n = 3, saturation) at s / 1e4 has bound 0.999992; the
    # contraction iteration took 441,223 map evaluations on it
    plant, ctrl, w = _roadmap_cases()[102]
    assert plant.n == 3 and plant.pair.kind == sector.KIND_SATURATION
    ctrl = model.ControllerSpec("decentralized", ctrl.p, ctrl.r,
                                1e-4 * ctrl.s)
    start = time.perf_counter()
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert time.perf_counter() - start < 1.0
    assert eq.cmap.contraction_bound > 0.99999
    assert eq.residual_stationary <= 1e-10 * eq.scale
