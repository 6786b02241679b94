import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_disturbance, random_instance, random_pwl_pair
from pisat import cli, equilibrium, heating, model, sector, simulate
from pisat.errors import (CertificateFailure, DimensionMismatch,
                          NonFiniteState, ParseError)


def _linear_loop():
    plant = model.PlantModel([1.0, 1.5], [[2.0, -0.3], [-0.4, 1.8]],
                             sector.identity_zero(2))
    ctrl = model.ControllerSpec("decentralized", [1.0, 0.8], [0.4, 0.5],
                                [0.5, 0.5])
    return plant, ctrl


def test_rk4_matches_matrix_exponential():
    plant, ctrl = _linear_loop()
    w = np.array([0.7, -0.4])
    x0 = np.array([1.0, -2.0])
    z0 = np.array([0.5, 0.0])
    traj = simulate.integrate(plant, ctrl, w, x0, z0, (0.0, 3.0), 0.01)
    xs, zs = oracles.linear_loop_solution(plant.a, plant.b, ctrl.p, ctrl.r,
                                          w, x0, z0, traj.t[::50])
    np.testing.assert_allclose(traj.x[::50], xs, atol=1e-9)
    np.testing.assert_allclose(traj.z[::50], zs, atol=1e-9)


def test_fourth_order_on_smooth_problem():
    plant, ctrl = _linear_loop()
    w = np.array([0.7, -0.4])
    x0 = np.array([1.0, -2.0])
    z0 = np.array([0.5, 0.0])
    errs = []
    for dt in (0.08, 0.04):
        traj = simulate.integrate(plant, ctrl, w, x0, z0, (0.0, 2.0), dt)
        xs, _ = oracles.linear_loop_solution(plant.a, plant.b, ctrl.p,
                                             ctrl.r, w, x0, z0,
                                             [traj.t[-1]])
        errs.append(float(np.max(np.abs(traj.x[-1] - xs[0]))))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_rk4_step_and_its_stage_loads(monkeypatch):
    # one step of y' = lam y is R(z) y with z = h lam, where R is RK4's
    # stability function; the bound is 4 ulps of the sum of R's terms
    for h in (0.1, 1.0):
        for z in np.linspace(-2.7, 0.0, 28):
            terms = np.array([1.0, z, z * z / 2.0, z ** 3 / 6.0,
                              z ** 4 / 24.0])
            got = simulate._rk4(np.array([1.0]), h,
                                lambda y, j: (z / h) * y)
            assert abs(got[0] - terms.sum()) <= (
                4 * np.finfo(float).eps * np.abs(terms).sum())
    # a staged step hands stages 0..3 the loads w0, wm, wm and w1
    calls = []

    def recording_kernel(pair, loop):
        loads = np.zeros((4, pair.n))

        def stage(y, j):
            calls.append((j, float(loads[j, 0])))
            return np.zeros_like(y)
        return stage, np.zeros((4, pair.n)), loads

    monkeypatch.setattr(simulate, "_stage_kernel", recording_kernel)
    plant = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    ramp = model.DisturbanceSignal.sampled([0.0, 2.0], [[0.0], [2.0]])
    simulate.integrate(plant, ctrl, ramp, [1.0], [0.0], (1.0, 1.5), 0.5)
    assert calls == [(0, 1.0), (1, 1.25), (2, 1.25), (3, 1.5)]


def test_partial_final_step_lands_on_t_end():
    plant, ctrl = _linear_loop()
    traj = simulate.integrate(plant, ctrl, np.zeros(2), np.ones(2),
                              np.zeros(2), (0.0, 1.03), 0.25)
    assert traj.t[-1] == pytest.approx(1.03, abs=1e-12)
    assert traj.t.size == 6  # 4 full steps plus the 0.03 remainder
    np.testing.assert_allclose(np.diff(traj.t)[:-1], 0.25)


def test_span_far_below_one_step_is_one_step():
    # the whole span, however short, is the one (partial) step
    plant, ctrl = _linear_loop()
    traj = simulate.integrate(plant, ctrl, np.zeros(2), np.ones(2),
                              np.zeros(2), (0.0, 1e-14), 0.25)
    assert traj.t.tolist() == [0.0, 1e-14]
    assert traj.counts == simulate.StepCounts(0, 1, 0, 0)


def test_blowup_aborts():
    plant = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    ctrl = model.ControllerSpec("decentralized", [50.0], [1.0], [0.5])
    with pytest.warns(UserWarning, match="stability"):
        with pytest.raises(NonFiniteState):
            simulate.integrate(plant, ctrl, [0.0], [1.0], [0.0],
                               (0.0, 40.0), 1.0)
    with pytest.raises(NonFiniteState, match=r"\(step 1\)"):
        simulate.integrate(plant, ctrl, [0.0], [np.nan], [0.0],
                           (0.0, 1.0), 0.01)


def test_blowup_limit_grows_with_the_start():
    # a stable loop started beyond BLOWUP_LIMIT decays; only growth
    # past the limit times the largest initial |state| aborts
    plant = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    traj = simulate.integrate(plant, ctrl, [0.0], [5e12], [0.0],
                              (0.0, 1.0), 0.01)
    assert np.all(np.isfinite(traj.x)) and np.max(np.abs(traj.x)) <= 5e12


def _assert_near_oracle(got, want):
    # normwise to 1e-12: an affine step rounds unlike the staged one
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_trajectories_match_loop_reference(rng):
    # sampled load, saturating inputs, and a 0.03 partial last step
    plant, dec = random_instance(rng, 5)
    coord = model.ControllerSpec("coordinating", dec.p, dec.r, dec.s)
    stat = model.ControllerSpec(
        "static", k_static=model.default_static_gain(plant))
    wsig = model.DisturbanceSignal.sampled(np.linspace(-0.1, 1.2, 9),
                                           rng.uniform(-10.0, 10.0, (9, 5)))
    x0 = rng.uniform(-3.0, 3.0, 5)
    z0 = rng.uniform(-3.0, 3.0, 5)
    for ctrl in (dec, coord, stat):
        z_init = z0 if ctrl.is_pi else None
        traj = simulate.integrate(plant, ctrl, wsig, x0, z_init,
                                  (0.0, 1.03), 0.05)
        t, x, z, u, v = oracles.integrate_loop(plant, ctrl, wsig, x0,
                                               z_init, (0.0, 1.03), 0.05)
        assert traj.t.size == 22
        assert np.any(np.abs(traj.u) > 1.0)
        np.testing.assert_array_equal(traj.t, t)
        _assert_near_oracle((traj.x, traj.u, traj.v), (x, u, v))
        if ctrl.is_pi:
            _assert_near_oracle((traj.z,), (z,))
        else:
            assert z is None
            # exact +0.0: a -0.0 would print as "-0.0" in trajectory.csv
            np.testing.assert_array_equal(traj.z, 0.0)
            assert not np.any(np.signbit(traj.z))
            assert np.any(traj.x < 0.0)


def _runs_from_one_start(plant, ctrls, wsig, x0, z0, t_span, dt):
    # one run per controller from one start (static ones without z0)
    return [simulate.integrate(plant, c, wsig, x0, z0 if c.is_pi else None,
                               t_span, dt) for c in ctrls]


def _assert_runs_match_oracle(plant, ctrls, wsig, x0, z0, t_span, dt):
    runs = _runs_from_one_start(plant, ctrls, wsig, x0, z0, t_span, dt)
    for ctrl, run in zip(ctrls, runs):
        z_init = z0 if ctrl.is_pi else None
        t, x, z, u, v = oracles.integrate_loop(plant, ctrl, wsig, x0,
                                               z_init, t_span, dt)
        np.testing.assert_array_equal(run.t, t)
        _assert_near_oracle((run.x, run.u, run.v), (x, u, v))
        if ctrl.is_pi:
            _assert_near_oracle((run.z,), (z,))
        else:
            np.testing.assert_array_equal(run.z, 0.0)
            assert not np.any(np.signbit(run.z))
    return runs


def _three_controllers(plant, dec):
    return [dec, model.ControllerSpec("coordinating", dec.p, dec.r, dec.s),
            model.ControllerSpec("static",
                                 k_static=model.default_static_gain(plant))]


def _cold_snap():
    cfg = (pathlib.Path(__file__).resolve().parent.parent / "configs"
           / "benchmark_cold_snap.json")
    scn, _ = cli.load_config(cfg)
    plant, wsig = heating.to_standard_form(scn)
    return plant, _three_controllers(plant, scn.controller), wsig


def test_runs_match_oracle_on_cold_snap():
    # inputs first saturate near t = 81 h; the sampled load steps in
    # scans while a run's pattern holds
    plant, ctrls, wsig = _cold_snap()
    n = plant.n
    runs = _assert_runs_match_oracle(plant, ctrls, wsig, np.zeros(n),
                                     np.zeros(n), (0.0, 120.0), 0.05)
    assert all(np.any(np.abs(run.u) > 1.0) for run in runs)
    assert all(run.counts.blocks > 0 for run in runs)


@pytest.mark.parametrize("flip", [False, True])
def test_whole_cold_snap_runs_take_every_step(flip, monkeypatch):
    # each controller's 336 h run takes its 6720 steps one way or the
    # other; with ``flip`` every scan fails at its last step, as rounding
    # at a kink may make it, so each committed scan ends in a staged step
    if flip:
        scan = simulate._PatternMaps.scan

        def failing(self, block, w, limit):
            return min(scan(self, block, w, limit), len(w) - 1)
        monkeypatch.setattr(simulate._PatternMaps, "scan", failing)
    plant, ctrls, wsig = _cold_snap()
    n = plant.n
    runs = _runs_from_one_start(plant, ctrls, wsig, np.zeros(n),
                                np.zeros(n), (0.0, 336.0), 0.05)
    assert all(run.counts.affine + run.counts.staged == 6720
               for run in runs)
    if flip:
        assert all(run.counts.staged >= run.counts.blocks for run in runs)


@pytest.mark.parametrize("n, hold, kind", [
    pytest.param(10, 2, "saturation", id="10-2"),
    pytest.param(40, 8, "saturation", id="40-8"),
    pytest.param(10, 2, "split", id="10-2-split"),
    pytest.param(10, 2, "padded", id="10-2-padded"),
    pytest.param(10, 2, "identity", id="10-2-identity")])
def test_map_is_built_once_its_pattern_holds_n_over_5_steps(n, hold, kind,
                                                            rng):
    # a pattern held through one staged step fewer than max(1, n // 5)
    # gets no map, one held through exactly that many gets one; a step on
    # another pattern, or one whose four stage inputs are not on one
    # pattern (``split``), starts the count again.  The identity has one
    # piece, so its stage inputs, however they differ, hold one pattern
    plant, ctrl = random_instance(rng, n)
    if kind in ("padded", "identity"):
        pair = (random_pwl_pair(rng, n) if kind == "padded"
                else sector.identity_zero(n))
        plant = model.PlantModel(plant.a, plant.b, pair)
    maps = simulate._PatternMaps(plant, ctrl, 0.05, np.zeros(n))
    # on the padded pair, 5 lies beyond every knot: the right extension
    linear, other = np.zeros((4, n)), np.full((4, n), 5.0)
    if kind == "padded":
        assert np.any(np.diff(plant.pair.knots, axis=0) == 0.0)
    if kind == "split":
        other[3] = 0.0
    if kind == "identity":
        other = rng.uniform(-5.0, 5.0, (4, n))
    for us in [linear] * (hold - 1) + [other] + [linear] * (hold - 1):
        maps.observe(us)
    if kind == "identity":
        assert maps.built == 1 and maps.live is not None
        return
    assert maps.built == 0 and maps.live is None
    maps.observe(linear)
    assert maps.built == 1 and maps.live is not None


def _assert_loop_matches_oracle(plant, ctrl, w, x0, z0, t_span, dt):
    traj = simulate.integrate(plant, ctrl, w, x0, z0, t_span, dt)
    wsig = (w if isinstance(w, model.DisturbanceSignal)
            else model.DisturbanceSignal.constant(w))
    t, x, z, u, v = oracles.integrate_loop(plant, ctrl, wsig, x0, z0,
                                           t_span, dt)
    np.testing.assert_array_equal(traj.t, t)
    _assert_near_oracle((traj.x, traj.u, traj.v), (x, u, v))
    if z is not None:
        _assert_near_oracle((traj.z,), (z,))
    assert traj.counts.affine + traj.counts.staged == traj.t.size - 1
    return traj


def test_partial_last_step_is_staged():
    # the h = dt map is live when the 0.03 remainder comes; stepping the
    # remainder with it would move the end state far beyond 1e-12
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    args = (plant, ctrl, [-3.0], [3.0], [0.0])
    whole = _assert_loop_matches_oracle(*args, (0.0, 4.0), 0.05)
    partial = _assert_loop_matches_oracle(*args, (0.0, 4.03), 0.05)
    assert whole.counts.affine > 0
    assert np.any(np.abs(partial.u) > 1.0)
    assert partial.counts == simulate.StepCounts(
        whole.counts.affine, whole.counts.staged + 1, whole.counts.patterns,
        whole.counts.blocks)


def _probe_run(plant, ctrl, w):
    # certify's storage probe: from one above the equilibrium state for
    # 10 / min(a) hours
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    return _assert_loop_matches_oracle(plant, ctrl, w, eq.x0 + 1.0, eq.z0,
                                       (0.0, 10.0 / float(np.min(plant.a))),
                                       0.05)


def test_block_steps_match_loop_reference_on_bundled_network():
    scn, _ = cli.load_config(pathlib.Path(__file__).resolve().parent.parent
                             / "configs" / "benchmark_constant.json")
    plant, wsig = heating.to_standard_form(scn)
    traj = _probe_run(plant, scn.controller, wsig(0.0))
    # at n = 10 scans double from 8 to 256 steps (six scans) on each of
    # the two patterns, and then take 256 steps each
    assert traj.counts.blocks <= 12 + traj.counts.affine / 256


@pytest.mark.parametrize("n", range(2, 13))
def test_block_steps_match_loop_reference(n):
    rng = np.random.default_rng(n)
    plant, ctrl = random_instance(rng, n)
    traj = _probe_run(plant, ctrl, random_disturbance(rng, n))
    assert traj.counts.blocks > 0


@pytest.mark.parametrize("n", range(2, 13))
def test_sampled_block_steps_match_loop_reference(n):
    # the probe's run under a load that drifts by up to +-1 between five
    # samples: each block takes its forcing from one product
    rng = np.random.default_rng(n)
    plant, ctrl = random_instance(rng, n)
    w = random_disturbance(rng, n)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    t1 = 10.0 / float(np.min(plant.a))
    wsig = model.DisturbanceSignal.sampled(
        np.linspace(0.0, t1, 5), w + rng.uniform(-1.0, 1.0, (5, n)))
    traj = _assert_loop_matches_oracle(plant, ctrl, wsig, eq.x0 + 1.0,
                                       eq.z0, (0.0, t1), 0.05)
    assert traj.counts.blocks > 0


def _saturating_loop():
    return (model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1)),
            model.ControllerSpec("decentralized", [1.0], [0.5], [0.5]))


def _scan_log(monkeypatch):
    # (steps asked, steps held) of every scan, in order
    log, scan = [], simulate._PatternMaps.scan

    def logged(self, block, w, limit):
        held = scan(self, block, w, limit)
        log.append((len(w), held))
        return held
    monkeypatch.setattr(simulate._PatternMaps, "scan", logged)
    return log


def _assert_kink_falls_back(monkeypatch, w, kink):
    # step 0 is staged and builds the saturated map; scans of 8 and 16
    # steps hold, and the scan of 32 from step 25 holds up to the kink:
    # the input leaves saturation at step ``kink``, so step kink - 1 is
    # staged, and so is step kink, the first on the new pattern, which
    # builds its map; the scans then start again at 8 and double, the
    # last cut to the 160 full steps
    log = _scan_log(monkeypatch)
    plant, ctrl = _saturating_loop()
    traj = _assert_loop_matches_oracle(plant, ctrl, w, [6.0], [0.0],
                                       (0.0, 8.0), 0.05)
    sat = np.abs(traj.u[:, 0]) > 1.0
    assert np.flatnonzero(~sat)[0] == kink and not np.any(sat[kink:])
    assert log == [(8, 8), (16, 16), (32, kink - 26), (8, 8), (16, 16),
                   (32, 32), (103 - kink, 103 - kink)]
    assert traj.counts == simulate.StepCounts(157, 3, 2, 7)


def test_block_across_a_kink_falls_back(monkeypatch):
    _assert_kink_falls_back(monkeypatch, [0.0], 41)


def test_sampled_block_across_a_kink_falls_back(monkeypatch):
    # a load ramping from 0 to 0.4 moves the kink to step 43
    _assert_kink_falls_back(
        monkeypatch,
        model.DisturbanceSignal.sampled([0.0, 8.0], [[0.0], [0.4]]), 43)


def test_blowup_inside_a_block_names_its_step(monkeypatch):
    # the identity keeps one piece, so its map is live from step 1 and
    # the scans take 8, 16 and then 32 steps from step 25, under the
    # constant load and under the sampled one alike; RK4 grows 1.8-fold a
    # step at this dt, and the state leaves the limit at step 45, so that
    # scan holds its first 19 steps and the staged step 44 raises
    log = _scan_log(monkeypatch)
    plant = model.PlantModel([1.0], [[1.0]], sector.identity_zero(1))
    ctrl = model.ControllerSpec("decentralized", [50.0], [1.0], [0.5])
    args = ([1.0], [0.0], (0.0, 20.0), 0.063)
    _, x, z, _, _ = oracles.integrate_loop(
        plant, ctrl, model.DisturbanceSignal.constant([0.0]), *args)
    first = int(np.argmax(np.maximum(np.abs(x), np.abs(z))[:, 0] > 1e12))
    assert first == 45
    messages = []
    for w in ([0.0], model.DisturbanceSignal.sampled([0.0, 30.0],
                                                     [[0.0], [0.0]])):
        with pytest.warns(UserWarning, match="stability"):
            with pytest.raises(NonFiniteState) as caught:
                simulate.integrate(plant, ctrl, w, *args)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"(step {first})")
    assert log == [(8, 8), (16, 16), (32, 19)] * 2


@pytest.mark.parametrize("full", [63, 64])
def test_partial_last_step_after_blocks_is_staged(full, monkeypatch):
    # the last scan, which the doubling asks to take 32 steps from step
    # 49, is cut to end at the last full step, 63 or 64, and the 0.03
    # remainder after it is one staged step of h = 0.03
    log = _scan_log(monkeypatch)
    plant, ctrl = _saturating_loop()
    args = (plant, ctrl, [-3.0], [3.0], [0.0])
    whole = _assert_loop_matches_oracle(*args, (0.0, 0.05 * full), 0.05)
    partial = _assert_loop_matches_oracle(*args, (0.0, 0.05 * full + 0.03),
                                          0.05)
    assert whole.t.size == full + 1
    last = (full - 49, full - 49)
    assert log == [(8, 6), (8, 8), (16, 6), (8, 8), (16, 16), last] * 2
    assert partial.counts == simulate.StepCounts(
        whole.counts.affine, whole.counts.staged + 1, whole.counts.patterns,
        whole.counts.blocks)


def test_held_pattern_takes_logarithmically_many_scans():
    # the identity is one pattern: step 0 is staged and builds its map,
    # and the scans double from 8 steps, so 8 (2^s - 1) steps take s
    # scans, up to the 256-step cap at n = 2
    plant, ctrl = _linear_loop()
    for scans in (1, 3, 6):
        steps = 1 + 8 * (2 ** scans - 1)
        traj = _assert_loop_matches_oracle(plant, ctrl, [0.7, -0.4],
                                           [1.0, -2.0], [0.5, 0.0],
                                           (0.0, 0.01 * steps), 0.01)
        assert traj.counts == simulate.StepCounts(steps - 1, 1, 1, scans)


def test_scan_failing_at_its_first_step_stays_staged(monkeypatch):
    # a live map whose every scan fails at its first step is tried again
    # at every staged step after it is built, with its length of 8 kept,
    # and the run stays staged
    log = _scan_log(monkeypatch)
    scan = simulate._PatternMaps.scan

    def failing(self, block, w, limit):
        scan(self, block, w, limit)
        return 0
    monkeypatch.setattr(simulate._PatternMaps, "scan", failing)
    plant, ctrl = _linear_loop()
    traj = _assert_loop_matches_oracle(plant, ctrl, [0.7, -0.4],
                                       [1.0, -2.0], [0.5, 0.0], (0.0, 3.0),
                                       0.01)
    # one scan at each of steps 1 to 299 of the 300, each asking 8 steps
    # or as many as are left
    assert [asked for asked, _ in log] == [min(8, 300 - k)
                                           for k in range(1, 300)]
    assert traj.counts == simulate.StepCounts(0, 300, 1, 0)


@pytest.mark.parametrize("sampled", [False, True])
def test_scans_that_commit_nothing_leave_no_rows_behind(sampled,
                                                         monkeypatch):
    # every scan writes its states into the trajectory and then commits
    # none of them, so each of those rows must be written over by the
    # staged step that takes it: the run equals, bit for bit, the run
    # whose maps are never live, where a scan row left behind would pass
    # any oracle that allows rounding
    rng = np.random.default_rng(7)
    plant, ctrl = random_instance(rng, 5)
    w = random_disturbance(rng, 5)
    if sampled:
        w = model.DisturbanceSignal.sampled(
            [0.0, 1.0, 3.0], w + rng.uniform(-1.0, 1.0, (3, 5)))
    args = (plant, ctrl, w, rng.uniform(-3.0, 3.0, 5),
            rng.uniform(-3.0, 3.0, 5), (0.0, 3.0), 0.01)
    scan, observe = simulate._PatternMaps.scan, simulate._PatternMaps.observe
    asked = []

    def committing_nothing(self, block, w, limit):
        scan(self, block, w, limit)
        asked.append(len(w))
        return 0

    def never_live(self, us):
        observe(self, us)
        self.live = None
    monkeypatch.setattr(simulate._PatternMaps, "scan", committing_nothing)
    scanned = simulate.integrate(*args)
    monkeypatch.setattr(simulate._PatternMaps, "observe", never_live)
    staged = simulate.integrate(*args)
    assert sum(asked) > 1000
    assert scanned.counts == staged.counts
    assert scanned.counts.affine == 0 and scanned.counts.patterns > 0
    for got, want in zip((scanned.x, scanned.z, scanned.u, scanned.v),
                         (staged.x, staged.z, staged.u, staged.v)):
        np.testing.assert_array_equal(got, want)


def test_chattering_run_stays_staged():
    # the load swings so that the input crosses its saturation kink
    # inside every step: no pattern holds, so no map is built
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("static", k_static=[[1.0]])
    k = np.arange(42)
    wsig = model.DisturbanceSignal.sampled((k - 0.5) * 0.1,
                                           -2.0 + 20.0 * (-1.0) ** k)
    traj = _assert_loop_matches_oracle(plant, ctrl, wsig, [-1.0], None,
                                       (0.0, 4.0), 0.1)
    assert np.all((traj.u[1:-1:2, 0] > 1.0) & (traj.u[2::2, 0] < 1.0))
    assert traj.counts == simulate.StepCounts(0, 40, 0, 0)


def test_controllers_end_on_different_patterns(rng):
    plant, dec = random_instance(rng, 4)
    runs = _assert_runs_match_oracle(
        plant, _three_controllers(plant, dec),
        model.DisturbanceSignal.constant(random_disturbance(rng, 4)),
        rng.uniform(-3.0, 3.0, 4), rng.uniform(-3.0, 3.0, 4), (0.0, 3.0),
        0.01)
    # each controller ends on its own pattern, through maps of its own
    ends = {tuple((run.u[-1] > 1.0).astype(int) - (run.u[-1] < -1.0))
            for run in runs}
    assert len(ends) > 1
    assert all(run.counts.affine > 0 for run in runs)


# a stage's two products round otherwise than the branch formulas; the
# largest difference measured on 1,800 random stages up to n = 40 was
# 7.6e-16 of the largest |dy| (and of the largest |u|)
STAGE_RTOL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("kind", ["saturation", "custom"])
def test_stage_kernel_matches_branch_reference(kind, rng):
    saturated, dec = random_instance(rng, 6)
    pair = (saturated.pair if kind == "saturation"
            else random_pwl_pair(rng, 6))
    plant = model.PlantModel(saturated.a, saturated.b, pair)
    for ctrl in _three_controllers(plant, dec):
        stage, us, loads = simulate._stage_kernel(pair,
                                                  simulate._loop(plant, ctrl))
        x = rng.uniform(-5.0, 5.0, (4, 6))
        z = rng.uniform(-5.0, 5.0, (4, 6)) if ctrl.is_pi else None
        w = rng.uniform(-10.0, 10.0, (4, 6))
        y = np.concatenate((x, np.zeros_like(x) if z is None else z), axis=1)
        loads[:] = w
        dy = np.array([stage(y[j], j) for j in range(4)])
        dx, dz, u = oracles.closed_loop_derivative_branches(plant, ctrl, x,
                                                            z, w)
        if dz is None:
            # exact +0.0, as the static row's z must stay
            np.testing.assert_array_equal(dy[:, 6:], 0.0)
            assert not np.any(np.signbit(dy[:, 6:]))
            dz = dy[:, 6:]
        want = np.concatenate((dx, dz), axis=1)
        np.testing.assert_allclose(dy, want, rtol=0, atol=STAGE_RTOL
                                   * np.abs(want).max())
        np.testing.assert_allclose(us, u, rtol=0,
                                   atol=STAGE_RTOL * np.abs(u).max())
        assert np.any(np.abs(u) > 1.0) and np.any(np.abs(u) < 1.0)


@pytest.mark.parametrize("kind", ["identity", "custom"])
def test_affine_steps_on_identity_and_custom_pairs(kind, rng):
    saturated, dec = random_instance(rng, 3)
    pair = (sector.identity_zero(3) if kind == "identity"
            else random_pwl_pair(rng, 3))
    plant = model.PlantModel(saturated.a, saturated.b, pair)
    w = random_disturbance(rng, 3)
    x0 = rng.uniform(-3.0, 3.0, 3)
    z0 = rng.uniform(-3.0, 3.0, 3)
    for ctrl in _three_controllers(plant, dec):
        traj = _assert_loop_matches_oracle(plant, ctrl, w, x0,
                                           z0 if ctrl.is_pi else None,
                                           (0.0, 4.0), 0.02)
        assert traj.counts.affine > 0 and traj.counts.patterns > 0


# RK4 run on a basis and the hand expansion sum the same terms in other
# orders; at the stability limit the largest difference measured on five
# seeds was 3.1e-15 of an output's largest entry at n = 40 (4.5e-15 at
# n = 100)
MAP_RTOL = 1e-13


@pytest.mark.parametrize("n", [1, 3, 10, 40])
@pytest.mark.parametrize("kind", ["saturation", "identity", "custom"])
def test_affine_step_matches_closed_form(kind, n, rng):
    saturated, dec = random_instance(rng, n)
    pair = {"saturation": saturated.pair, "identity": sector.identity_zero(n),
            "custom": random_pwl_pair(rng, n)}[kind]
    plant = model.PlantModel(saturated.a, saturated.b, pair)
    cols = np.arange(n)
    for ctrl in _three_controllers(plant, dec):
        loop = simulate._loop(plant, ctrl)
        # a step at RK4's stability limit, so that every power of A shows
        h = simulate.stable_dt(plant, ctrl, math.inf)
        for w_const in (random_disturbance(rng, n), None):
            piece = rng.integers(0, len(pair.slope), n)
            mat, tw, bias, lo, hi = simulate._affine_step(loop, pair, piece,
                                                          h, w_const)
            want = oracles.affine_rk4_closed_form(plant, ctrl, piece, h,
                                                  w_const)
            assert (tw is None) == (w_const is not None)
            for got, ref in zip((mat, tw, bias), want):
                if ref is not None:
                    assert got.shape == ref.shape
                    np.testing.assert_allclose(
                        got, ref, rtol=0, atol=MAP_RTOL * np.abs(ref).max())
            np.testing.assert_array_equal(lo, np.tile(pair.lo[piece, cols], 4))
            np.testing.assert_array_equal(hi, np.tile(pair.hi[piece, cols], 4))


def test_identity_pair_steps_on_one_map():
    # the identity's knot at 0 does not split its one affine piece: the
    # inputs from [-3, 2] cross 0, and still one map serves the run
    plant, ctrl = _linear_loop()
    crossings = []
    for x0 in ([-3.0, 2.0], [3.0, 3.0]):
        traj = _assert_loop_matches_oracle(plant, ctrl, [0.7, -0.4], x0,
                                           [0.5, 0.0], (0.0, 3.0), 0.01)
        assert traj.counts.patterns == 1
        crossings.append(np.count_nonzero(np.diff(np.sign(traj.u), axis=0)))
    assert crossings == [2, 0]


def test_padded_identity_pair_steps_on_one_map():
    # an identity component padded to its neighbour's three knots keeps
    # one affine piece, so the run builds one map as the identity does
    plant, ctrl = _linear_loop()
    pair = sector.custom_pwl([
        sector.PwlFunction([0.0], [0.0], 1.0, 1.0),
        sector.PwlFunction([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 1.0, 1.0)])
    padded = model.PlantModel(plant.a, plant.b, pair)
    traj = _assert_loop_matches_oracle(padded, ctrl, [0.7, -0.4],
                                       [-3.0, 2.0], [0.5, 0.0], (0.0, 3.0),
                                       0.01)
    assert traj.counts.patterns == 1


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       sampled=st.booleans())
def test_affine_steps_match_staged_reference(n, seed, sampled):
    rng = np.random.default_rng(seed)
    plant, dec = random_instance(rng, n)
    if sampled:
        w = model.DisturbanceSignal.sampled(
            np.linspace(0.0, 3.0, 7), rng.uniform(-10.0, 10.0, (7, n)))
    else:
        w = random_disturbance(rng, n)
    x0 = rng.uniform(-5.0, 5.0, n)
    z0 = rng.uniform(-5.0, 5.0, n)
    for ctrl in _three_controllers(plant, dec):
        _assert_loop_matches_oracle(plant, ctrl, w, x0,
                                    z0 if ctrl.is_pi else None, (0.0, 3.0),
                                    0.02)


def test_warns_once_per_coarse_controller():
    plant, ctrl = _linear_loop()
    stat = model.ControllerSpec(
        "static", k_static=model.default_static_gain(plant))
    fast = model.ControllerSpec("decentralized", [9.0, 8.0], [0.4, 0.5],
                                [0.1, 0.1])
    bounds = [simulate.stable_dt(plant, c, math.inf)
              for c in (ctrl, stat, fast)]
    dt = 0.5 * (bounds[2] + min(bounds[:2]))
    assert bounds[2] < dt < min(bounds[:2])
    want = (f"dt={dt:g} exceeds the linear-regime stability estimate "
            f"{bounds[2]:.3g}; expect inaccuracy or blow-up")
    # each call checks its own controller: only the fast one warns
    for c, warned in ((ctrl, []), (fast, [want]), (stat, [])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate.integrate(plant, c, np.zeros(2), np.zeros(2),
                               np.zeros(2) if c.is_pi else None, (0.0, 1.0),
                               dt)
        assert [str(m.message) for m in caught] == warned


def test_stability_bound_reasonable():
    plant, ctrl = _linear_loop()
    bound = simulate.stable_dt(plant, ctrl, math.inf)
    assert 0.0 < bound < 10.0
    stat = model.ControllerSpec(
        "static", k_static=model.default_static_gain(plant))
    assert simulate.stable_dt(plant, stat, math.inf) > 0.0


def test_stable_dt_cuts_dt_to_the_bound(rng):
    # dt below the norm bound returns without the eigenvalues; either way
    # the result is min(dt, bound) exactly, the bound being stable_dt at
    # dt = inf
    for _ in range(5):
        plant, dec = random_instance(rng)
        for ctrl in _three_controllers(plant, dec):
            bound = simulate.stable_dt(plant, ctrl, math.inf)
            for dt in (1e-3 * bound, 0.3 * bound, bound, 1.0001 * bound,
                       10.0 * bound):
                assert simulate.stable_dt(plant, ctrl, dt) == min(dt, bound)


def test_step_count_past_the_float_range_raises_before_any_work(
        monkeypatch):
    # 1e300 / 1e-300 steps overflow to inf; the check comes before the
    # loop matrix, the load table or the state table is built
    plant, ctrl = _linear_loop()

    def unreachable(*args):
        raise AssertionError("integrate went on past the step check")

    monkeypatch.setattr(simulate, "stable_dt", unreachable)
    monkeypatch.setattr(simulate, "_as_signal", unreachable)
    with pytest.raises(ValueError, match="inf steps"):
        simulate.integrate(plant, ctrl, np.zeros(2), np.zeros(2),
                           np.zeros(2), (0.0, 1e300), 1e-300)


def test_step_cap_counts_steps_times_agents(monkeypatch):
    # a cap of 40 agent-steps lets two agents take 20 steps, not 21
    plant, ctrl = _linear_loop()
    monkeypatch.setattr(simulate, "MAX_AGENT_STEPS", 40)
    traj = simulate.integrate(plant, ctrl, np.zeros(2), np.zeros(2),
                              np.zeros(2), (0.0, 5.0), 0.25)
    assert traj.t.size == 21
    with pytest.raises(ValueError, match="at most 20$"):
        simulate.integrate(plant, ctrl, np.zeros(2), np.zeros(2),
                           np.zeros(2), (0.0, 5.25), 0.25)


def test_state_argument_guards():
    plant, ctrl = _linear_loop()
    stat = model.ControllerSpec("static", k_static=np.eye(2))
    with pytest.raises(DimensionMismatch):
        simulate.integrate(plant, ctrl, np.zeros(2), np.zeros(2), None,
                           (0.0, 1.0), 0.1)
    with pytest.raises(DimensionMismatch):
        simulate.integrate(plant, stat, np.zeros(2), np.zeros(2),
                           np.zeros(2), (0.0, 1.0), 0.1)
    # controllers three wide on a plant of two
    for c in (model.ControllerSpec("decentralized", *np.ones((3, 3))),
              model.ControllerSpec("static", k_static=np.eye(3))):
        with pytest.raises(DimensionMismatch):
            simulate.integrate(plant, c, np.zeros(2), np.zeros(2),
                               np.zeros(3) if c.is_pi else None,
                               (0.0, 1.0), 0.1)
    # loads and starts of the wrong width
    zero = np.zeros(2)
    for w, x0, z0 in ((np.zeros(3), zero, zero), ([[0.5, 0.5]], zero, zero),
                      (zero, np.zeros(3), zero), (zero, zero, np.zeros(1))):
        with pytest.raises(DimensionMismatch):
            simulate.integrate(plant, ctrl, w, x0, z0, (0.0, 1.0), 0.1)
    # a scalar load is the same on every agent
    scalar = simulate.integrate(plant, ctrl, 0.7, zero, zero, (0.0, 1.0), 0.1)
    vector = simulate.integrate(plant, ctrl, [0.7, 0.7], zero, zero,
                                (0.0, 1.0), 0.1)
    np.testing.assert_array_equal(scalar.x, vector.x)
    # a step or a horizon that is not finite
    sat_plant, sat_ctrl = _saturating_loop()
    for t_span, dt in (((0.0, 1.0), math.inf), ((0.0, math.inf), 0.1),
                       ((-math.inf, 1.0), 0.1)):
        with pytest.raises(ValueError, match="finite"):
            simulate.integrate(sat_plant, sat_ctrl, [0.0], [0.0], [0.0],
                               t_span, dt)


def test_costs_manufactured_trapezoid():
    t = np.array([0.0, 1.0, 2.0])
    x = np.array([[0.0], [1.0], [0.0]])
    zeros = np.zeros((3, 1))
    traj = simulate.Trajectory(t, x, zeros, zeros, zeros)
    rep = simulate.evaluate_costs(traj, [2.0])
    assert rep.j1 == pytest.approx(0.5)
    assert rep.jinf == pytest.approx(0.5)
    assert rep.j2 == pytest.approx(1.0)
    assert rep.horizon == pytest.approx(2.0)


def test_costs_zero_without_forcing():
    plant, ctrl = _linear_loop()
    traj = simulate.integrate(plant, ctrl, np.zeros(2), np.zeros(2),
                              np.zeros(2), (0.0, 5.0), 0.1)
    rep = simulate.evaluate_costs(traj, np.ones(2))
    assert rep.j1 == 0.0 and rep.jinf == 0.0 and rep.j2 == 0.0


def _edge_value_trajectory():
    # every column cycles through -0.0, the smallest subnormal, a huge
    # value, 0.1 and whole numbers
    vals = np.array([-0.0, 5e-324, 1e300, 0.1, 3.0, -7.0, 0.0, 1e16])
    cols = [np.roll(vals, k) for k in range(8)]
    return simulate.Trajectory(np.arange(vals.size, dtype=float),
                               *(np.stack(cols[2 * i:2 * i + 2], axis=1)
                                 for i in range(4)))


def test_csv_round_trip_and_determinism(tmp_path):
    plant, ctrl = _linear_loop()
    integrated = simulate.integrate(plant, ctrl, [0.3, -0.2], [1.0, 2.0],
                                    [0.0, -1.0], (0.0, 1.0), 0.05)
    for k, traj in enumerate((integrated, _edge_value_trajectory())):
        p1, p2 = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
        simulate.write_trajectory_csv(traj, p1)
        simulate.write_trajectory_csv(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # the bytes of repr(float(c)) per numpy cell, one line per row
        blocks = np.hstack([traj.t[:, None], traj.x, traj.z, traj.u,
                            traj.v])
        header = p1.read_text().split("\n", 1)[0]
        assert p1.read_bytes() == "".join(
            [header + "\n"] + [",".join(repr(float(c)) for c in row) + "\n"
                               for row in blocks]).encode("ascii")
        back = simulate.read_trajectory_csv(p1)
        # repr round-trips doubles exactly, the sign of zero included
        for name in ("t", "x", "z", "u", "v"):
            got, want = getattr(back, name), getattr(traj, name)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _repr_per_cell(traj) -> bytes:
    # the CSV as repr(float(c)) of every numpy cell, one line per row
    header = "t," + ",".join(f"{p}{i + 1}" for p in "xzuv"
                             for i in range(traj.n))
    blocks = np.hstack([traj.t[:, None], traj.x, traj.z, traj.u, traj.v])
    return "".join([header + "\n"] + [
        ",".join(repr(float(c)) for c in row) + "\n"
        for row in blocks]).encode("ascii")


def test_csv_reuses_u_text_only_for_bitwise_equal_v(tmp_path):
    # row 1's v equals its u under ==, but u1 = -0.0 where v1 = 0.0, so
    # its v cells are not its u text; row 0's v is its u bit for bit
    t = np.array([0.0, 1.0])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    u = np.array([[0.5, -0.25], [-0.0, 0.1]])
    v = np.array([[0.5, -0.25], [0.0, 0.1]])
    assert np.all(u == v)
    traj = simulate.Trajectory(t, x, np.zeros_like(x), u, v)
    path = tmp_path / "zero.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)
    assert path.read_text().splitlines()[2].endswith(",-0.0,0.1,0.0,0.1")


def test_csv_of_a_saturating_loop_is_repr_per_cell(tmp_path):
    # agent 1 starts saturated and leaves saturation, agent 2 never
    # saturates: rows of both kinds, those with v equal to u bit for
    # bit and those with one saturated input
    plant = model.PlantModel([1.0, 1.0], [[1.0, -0.1], [-0.1, 1.0]],
                             sector.saturation_deadzone(2))
    ctrl = model.ControllerSpec("decentralized", [1.0, 1.0], [0.5, 0.5],
                                [0.5, 0.5])
    traj = simulate.integrate(plant, ctrl, [0.0, 0.0], [6.0, 0.5],
                              [0.0, 0.0], (0.0, 8.0), 0.05)
    same = np.all(traj.u.view(np.int64) == traj.v.view(np.int64), axis=1)
    assert 0 < same.sum() < same.size
    assert np.all(traj.u[:, 1] == traj.v[:, 1])
    path = tmp_path / "sat.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


_CHUNK = simulate.CSV_CHUNK_ROWS
# the ends of the writer's fast path (1e-4 <= |x| < 1e16) and the values
# repr writes otherwise
_EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    9999999999999998.0, 1e16, np.nextafter(1e16, math.inf),
    0.5, 1.0, 1024.0, 0.1, 0.30000000000000004, 2.0 / 3.0, 1e22,
    np.nextafter(1e3, 0.0), np.nextafter(0.01, 0.0),
    math.inf, -math.inf, math.nan,
    # the ends of the frame's 1 to 4 integer groups; below each, the 15-
    # digit candidate carries into the next group (10000.0000000000)
    *(v for p in (1e4, 1e8, 1e12)
      for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))),
    # every power of two on the fast path, 2^-13 .. 2^53, whose lower
    # neighbour lies half as far as its upper one, and both neighbours
    *(v for p in 2.0 ** np.arange(-13, 54)
      for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)))])


def _random_cells(rng, shape) -> np.ndarray:
    # random mantissa bits under exponents mostly around the fast path
    # (2^-14 .. 2^54) and otherwise anywhere, random signs
    biased = np.where(rng.random(shape) < 0.8, rng.integers(1009, 1078, shape),
                      rng.integers(0, 2047, shape))
    bits = (rng.integers(0, 1 << 52, shape) | (biased << 52)
            | (rng.integers(0, 2, shape) << 63))
    cells = bits.view(float)
    # short decimals, whose shortest digits are fewer than 15
    short = rng.random(shape) < 0.3
    cells[short] = (rng.integers(-10 ** 6, 10 ** 6, shape)
                    / 10.0 ** rng.integers(-9, 11, shape))[short]
    edge = rng.random(shape) < 0.1
    cells[edge] = rng.choice(_EDGE_VALUES, shape)[edge]
    return cells


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
       n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_csv_text_is_repr_per_cell(tmp_path_factory, rows, n, seed):
    rng = np.random.default_rng(seed)
    t, x, z, u, v = (_random_cells(rng, (rows, w)) for w in (1, n, n, n, n))
    traj = simulate.Trajectory(t[:, 0], x, z, u, v)
    path = tmp_path_factory.mktemp("text") / "cells.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
       n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       share=st.sampled_from([0.3, 0.7, 1.0]))
def test_csv_text_where_v_copies_u_is_repr_per_cell(tmp_path_factory, rows,
                                                     n, seed, share):
    # v copies u in a random share of its cells, and in some others u and
    # v are zeros of opposite signs: equal under == but not bit for bit
    rng = np.random.default_rng(seed)
    t, x, z, u, v = (_random_cells(rng, (rows, w)) for w in (1, n, n, n, n))
    copied = rng.random(u.shape) < share
    v[copied] = u[copied]
    zeros = rng.random(u.shape) < 0.1
    u[zeros] = rng.choice([0.0, -0.0], u.shape)[zeros]
    v[zeros] = -u[zeros]
    traj = simulate.Trajectory(t[:, 0], x, z, u, v)
    path = tmp_path_factory.mktemp("copy") / "cells.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


@pytest.mark.parametrize("wide", [1e4, 12345678.9, -123456789012.5,
                                  9999999999999998.0])
@pytest.mark.parametrize("row", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_csv_frame_follows_each_chunks_widest_cell(tmp_path, wide, row):
    # every cell is below 1e4 but one, in the last row of the first chunk
    # or in the first or second row of the next: the chunks' frames differ
    rng = np.random.default_rng(7)
    rows, n = 2 * _CHUNK + 1, 2
    t, x, z, u, v = (np.where(rng.random((rows, w)) < 0.5,
                              rng.uniform(-1e4, 1e4, (rows, w)),
                              rng.integers(-10 ** 8, 10 ** 8, (rows, w))
                              / 10.0 ** rng.integers(4, 12, (rows, w)))
                     for w in (1, n, n, n, n))
    v[:, 0] = u[:, 0]
    u[row, 0] = v[row, 0] = wide
    x[row, 1] = -wide
    traj = simulate.Trajectory(t[:, 0], x, z, u, v)
    path = tmp_path / "frame.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


def test_csv_of_each_edge_value_is_its_repr(tmp_path):
    t = np.arange(_EDGE_VALUES.size, dtype=float)
    col = _EDGE_VALUES[:, None]
    traj = simulate.Trajectory(t, col, -col, col, -col)
    path = tmp_path / "edge.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


def test_csv_of_the_cold_snap_is_repr_per_cell(tmp_path):
    # simulate's decentralized run on the bundled cold snap: 6,721 rows,
    # not a multiple of the chunk, with the run's spread of magnitudes
    plant, ctrls, wsig = _cold_snap()
    n = plant.n
    traj = simulate.integrate(plant, ctrls[0], wsig, np.zeros(n),
                              np.zeros(n), (0.0, 336.0), 0.05)
    assert traj.t.size == 6721 and traj.t.size % _CHUNK
    path = tmp_path / "cold.csv"
    simulate.write_trajectory_csv(traj, path)
    assert path.read_bytes() == _repr_per_cell(traj)


def test_csv_static_writes_zero_z(tmp_path):
    plant, _ = _linear_loop()
    stat = model.ControllerSpec(
        "static", k_static=model.default_static_gain(plant))
    traj = simulate.integrate(plant, stat, np.zeros(2), np.ones(2), None,
                              (0.0, 0.5), 0.1)
    path = tmp_path / "s.csv"
    simulate.write_trajectory_csv(traj, path)
    back = simulate.read_trajectory_csv(path)
    np.testing.assert_array_equal(back.z, np.zeros_like(back.x))


def test_csv_rejects_mangled_header(tmp_path):
    path = tmp_path / "bad.csv"
    header = "t,x1,z1,u1,v1\n"
    for text, match in [("t,x1,z1,u1\n0.0,1.0,2.0,3.0\n", "unexpected header"),
                        (header + "0.0,1.0,2.0,3.0,4.0\n0.1,1.0,2.0,3.0\n",
                         "row 2 holds 4 cells, the header 5"),
                        (header + "0.0,1.0,2.0,3.0,4.0\n0.1,1.0,abc,3.0,4.0\n",
                         "'abc' to float64 at row 2, column 3"),
                        (header, "no data rows")]:
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            simulate.read_trajectory_csv(path)


def _trace(plant, ctrl, eq, traj):
    return simulate.lyapunov_trace(plant, ctrl, eq, traj,
                                   simulate.lyapunov_parameters(plant, ctrl))


def test_lyapunov_parameters_textbook():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    params = simulate.lyapunov_parameters(plant, ctrl)
    assert params.q[0] == pytest.approx(1.0)
    assert params.alpha == pytest.approx(1.0)
    assert params.beta_min == pytest.approx(0.25)
    assert params.gain_norm == pytest.approx(1.0)
    # gain^2 = 4 alpha beta exactly: the admissible range is unbounded
    assert math.isinf(params.epsilon_bound)
    assert params.epsilon == pytest.approx(1.0)


def test_lyapunov_epsilon_guard():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.1], [0.1])
    params = simulate.lyapunov_parameters(plant, ctrl)
    assert params.epsilon_bound == pytest.approx(0.04 / 0.96)


def test_lyapunov_trace_decreases_and_matches_fd(rng):
    for _ in range(5):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-10 * eq.scale
        x0 = eq.x0 + rng.uniform(-3.0, 3.0, plant.n)
        z0 = eq.z0 + rng.uniform(-3.0, 3.0, plant.n)
        traj = simulate.integrate(plant, ctrl, w, x0, z0, (0.0, 6.0), 0.002)
        trace = _trace(plant, ctrl, eq, traj)
        assert trace.passed
        assert trace.value[0] >= 0.0 and trace.value[-1] <= trace.value[0]
        # pointwise agreement is limited by finite-difference truncation
        # at saturation corners; the integral identity is the sharp check
        vdot_fd = np.gradient(trace.value, traj.t, edge_order=2)
        err = np.abs(trace.vdot_analytic[2:-2] - vdot_fd[2:-2])
        scale = np.maximum(1.0, np.abs(trace.vdot_analytic[2:-2]))
        assert float(np.max(err / scale)) < 5e-3
        swing = trace.value[-1] - trace.value[0]
        integ = np.trapezoid(trace.vdot_analytic, traj.t)
        assert abs(integ - swing) <= 1e-3 * (1.0 + abs(swing))


def test_lyapunov_zero_at_equilibrium(rng):
    plant, ctrl = random_instance(rng, 3)
    w = random_disturbance(rng, 3)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-12 * eq.scale
    traj = simulate.integrate(plant, ctrl, w, eq.x0, eq.z0, (0.0, 1.0), 0.01)
    trace = _trace(plant, ctrl, eq, traj)
    np.testing.assert_allclose(trace.value, 0.0, atol=1e-12)


def test_lyapunov_flags_increases(rng):
    plant, ctrl = random_instance(rng, 2)
    w = random_disturbance(rng, 2)
    eq = equilibrium.solve_equilibrium(plant, ctrl, w)
    assert eq.residual_stationary <= 1e-10 * eq.scale
    traj = simulate.integrate(plant, ctrl, w, eq.x0 + 2.0, eq.z0,
                              (0.0, 4.0), 0.01)
    rev = simulate.Trajectory(traj.t, traj.x[::-1], traj.z[::-1],
                              traj.u[::-1], traj.v[::-1])
    trace = _trace(plant, ctrl, eq, rev)
    assert not trace.passed
    assert trace.increase_steps.size > 0


def test_lyapunov_requires_integral_margin():
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [1.5], [0.5])
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-0.2])
    assert eq.residual_stationary <= 1e-10 * eq.scale
    traj = simulate.integrate(plant, ctrl, [-0.2], [1.0], [0.0],
                              (0.0, 1.0), 0.01)
    with pytest.raises(CertificateFailure):
        _trace(plant, ctrl, eq, traj)


def test_lyapunov_trace_on_one_step():
    # a probe of one step has two samples
    plant = model.PlantModel([1.0], [[1.0]], sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    eq = equilibrium.solve_equilibrium(plant, ctrl, [-0.2])
    traj = simulate.integrate(plant, ctrl, [-0.2], eq.x0 + 1.0, eq.z0,
                              (0.0, 0.05), 0.05)
    trace = _trace(plant, ctrl, eq, traj)
    assert trace.passed
