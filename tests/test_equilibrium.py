import pathlib
import time

import numpy as np
import pytest

import oracles
from conftest import random_disturbance, random_instance, random_pwl_pair
from pisat import cli, equilibrium, heating, model, sector
from pisat.errors import MaxIterationsExceeded, UnsupportedVariant

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
    assert eq.x0[0] == pytest.approx(0.0, abs=1e-9)
    assert eq.z0[0] == pytest.approx(-0.6, abs=1e-9)
    assert eq.u0[0] == pytest.approx(0.3, abs=1e-9)


def test_analytic_saturated():
    # w = -2: f = 1 at best, x0 = (1 - 2)/1 = -1, u0 solves the excess
    # balance h(u0) = -x0 / s = 2 so u0 = 3, z0 = (1 - 3)/0.5 = -4
    plant, ctrl = _textbook()
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-2.0])
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


def test_fixed_point_is_stationary(rng):
    for _ in range(30):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w, tol=1e-11)
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
        eq = equilibrium.solve_equilibrium(plant, ctrl, w, tol=1e-12)
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
    cmap = equilibrium.build_contraction(plant, ctrl, w)
    spread = equilibrium.probe_uniqueness(cmap, restarts=50, rng=rng).spread
    assert spread <= 1e-6


def test_probe_reports_evaluations_and_prediction(rng, monkeypatch):
    plant, ctrl = random_instance(rng, 5)
    cmap = equilibrium.build_contraction(plant, ctrl,
                                         random_disturbance(rng, 5))
    probe = equilibrium.probe_uniqueness(cmap, restarts=20, u_tol=1e-9)
    assert probe.spread <= 1e-6
    assert 0 < probe.evaluations <= probe.predicted <= equilibrium.PROBE_BUDGET
    # an iteration that runs through the budget is inconclusive, not an
    # error
    def exhausted(*args):
        raise MaxIterationsExceeded("budget spent")

    monkeypatch.setattr(equilibrium, "iterate_fixed_point", exhausted)
    spent = equilibrium.probe_uniqueness(cmap, restarts=20, u_tol=1e-9)
    assert spent.spread is None
    assert spent.evaluations == equilibrium.PROBE_BUDGET
    assert spent.predicted == probe.predicted


def test_iteration_budget_enforced():
    plant, ctrl = _textbook()
    cmap = equilibrium.build_contraction(plant, ctrl, [-2.0])
    with pytest.raises(MaxIterationsExceeded):
        equilibrium.iterate_fixed_point(cmap, np.array([50.0]), 1e-14, 3)


def test_fixed_point_reports_last_step():
    plant, ctrl = _textbook()
    cmap = equilibrium.build_contraction(plant, ctrl, [-2.0])
    g = cmap.contraction_bound
    fp = equilibrium.iterate_fixed_point(cmap, np.array([50.0]), 1e-12)
    assert 0.0 <= fp.last_step <= 1e-12 * (1.0 - g) / g
    assert not hasattr(fp, "deltas")
    with pytest.raises(MaxIterationsExceeded, match="last step"):
        equilibrium.iterate_fixed_point(cmap, np.array([50.0]), 1e-14, 3)


def test_requires_decentralized_variant():
    plant, _ = _textbook()
    coord = model.ControllerSpec("coordinating", [1.0], [0.5], [0.5])
    with pytest.raises(UnsupportedVariant):
        equilibrium.build_contraction(plant, coord, [0.0])


def test_residual_scales_iterate_error():
    # stopping rule: the returned point is within tol of the fixed point
    # in the scaled 1-norm, so re-solving at tighter tol moves it little
    plant, ctrl = _textbook()
    eq_loose = equilibrium.solve_equilibrium(plant, ctrl, [-0.7], tol=1e-6)
    eq_tight = equilibrium.solve_equilibrium(plant, ctrl, [-0.7], tol=1e-13)
    assert abs(eq_loose.u0[0] - eq_tight.u0[0]) <= 1e-5


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
    # the map's step stalls far above the tolerance here, and the Newton
    # oracle stalls too; the solve on the saturation pattern still lands
    # on the rounding floor
    _, _, _, eq = _solve_scaled(1.0, s_scale)
    assert eq.pattern_solved


def test_solve_names_residual_above_tolerance():
    # no point rounds to a residual of 1e-30 scale: the pass stalls, the
    # pattern solve stops on the rounding floor, and the solve says so
    plant, ctrl, w = _benchmark()
    with pytest.raises(MaxIterationsExceeded,
                       match=r"stationary residual .* above tol \* scale"):
        equilibrium.solve_equilibrium(plant, ctrl, w, tol=1e-30)


def test_pattern_solve_is_kept_unless_its_residual_is_larger():
    # seed 3 draws instances, all with custom pairs, whose iteration
    # already lands on a smaller residual than the pattern solve
    rng = np.random.default_rng(3)
    kept = []
    for trial in range(120):
        plant, ctrl, w, cmap = _random_problem(rng, pwl=trial % 2 == 1)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        fp = equilibrium.iterate_fixed_point(cmap, -cmap.w_hat / cmap.k,
                                             equilibrium.DEFAULT_TOL)
        own = fp.zeta / cmap.scaling_d
        residual = equilibrium.stationary_residual(plant, ctrl, own, w)
        if eq.pattern_solved:
            assert eq.residual_stationary <= residual
        else:
            np.testing.assert_array_equal(eq.u0, own)
            assert eq.residual_stationary == residual
        kept.append(eq.pattern_solved)
    assert 0 < kept.count(False) < kept.count(True)


def _random_problem(rng, pwl: bool):
    plant, ctrl = random_instance(rng)
    if pwl:
        plant = model.PlantModel(plant.a, plant.b,
                                 random_pwl_pair(rng, plant.n))
    w = random_disturbance(rng, plant.n)
    return plant, ctrl, w, equilibrium.build_contraction(plant, ctrl, w)


@pytest.mark.parametrize("restarts", [None, 7])
def test_accelerated_matches_plain_iteration(rng, restarts):
    # the plain loop, run 1000x tighter, stands in for the fixed point
    for trial in range(30):
        plant, ctrl, w, cmap = _random_problem(rng, pwl=trial % 2 == 1)
        shape = (cmap.n,) if restarts is None else (restarts, cmap.n)
        zeta0 = rng.uniform(-50.0, 50.0, shape)
        g = cmap.contraction_bound
        for tol in (1e-6, 1e-9):
            fp = equilibrium.iterate_fixed_point(cmap, zeta0, tol)
            ref, _, _ = oracles.iterate_plain(cmap, zeta0, 1e-3 * tol)
            assert fp.zeta.shape == shape
            assert np.max(np.sum(np.abs(fp.zeta - ref), axis=-1)) <= tol
            assert fp.last_step <= tol * (1.0 - g) / g


@pytest.mark.parametrize("restarts", [None, 7])
def test_accelerated_matches_newton_oracle(rng, restarts):
    for _ in range(30):
        plant, ctrl, w, cmap = _random_problem(rng, pwl=False)
        _, _, u0 = oracles.equilibrium_newton(plant.a, plant.b, ctrl.p,
                                              ctrl.r, ctrl.s, w)
        shape = (cmap.n,) if restarts is None else (restarts, cmap.n)
        zeta0 = rng.uniform(-50.0, 50.0, shape)
        g = cmap.contraction_bound
        for tol in (1e-6, 1e-9):
            fp = equilibrium.iterate_fixed_point(cmap, zeta0, tol)
            dist = np.sum(np.abs(fp.zeta - cmap.scaling_d * u0), axis=-1)
            assert np.max(dist) <= tol
            assert fp.last_step <= tol * (1.0 - g) / g


def _record_map_calls(monkeypatch) -> list:
    calls = []
    plain = equilibrium.ContractionMap.__call__

    def recorded(self, zeta):
        out = plain(self, zeta)
        calls.append((np.array(zeta), out))
        return out

    monkeypatch.setattr(equilibrium.ContractionMap, "__call__", recorded)
    return calls


def _assert_plain_step(fp, calls):
    # the result is the image T(zeta) of the last evaluation, and every
    # evaluation went through ContractionMap.__call__
    assert fp.iterations == len(calls)
    last_in, last_out = calls[-1]
    assert fp.last_step > 0.0
    assert fp.last_step == np.max(np.sum(np.abs(last_out - last_in), axis=-1))
    np.testing.assert_array_equal(fp.zeta, last_out)


@pytest.mark.parametrize("restarts", [None, 5])
def test_fixed_point_returns_plain_step(monkeypatch, restarts):
    plant, ctrl, w = _benchmark()
    cmap = equilibrium.build_contraction(plant, ctrl, w)
    calls = _record_map_calls(monkeypatch)
    shape = (cmap.n,) if restarts is None else (restarts, cmap.n)
    zeta0 = np.random.default_rng(3).uniform(-20.0, 20.0, shape)
    fp = equilibrium.iterate_fixed_point(cmap, zeta0, 1e-6)
    _assert_plain_step(fp, calls)


def test_stalled_step_returns_last_plain_step(monkeypatch):
    # on a large load the map's own rounding keeps the step above
    # 1e-16 (1 - g) / g; the iteration returns at once, not after
    # max_iter, and its last step says that it stalled
    plant, ctrl, w = _benchmark()
    cmap = equilibrium.build_contraction(plant, ctrl, 1e6 * w)
    g = cmap.contraction_bound
    calls = _record_map_calls(monkeypatch)
    fp = equilibrium.iterate_fixed_point(cmap, -cmap.w_hat / cmap.k, 1e-16)
    assert len(calls) < 100
    assert fp.last_step > 1e-16 * (1.0 - g) / g
    _assert_plain_step(fp, calls)
