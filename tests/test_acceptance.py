"""End-to-end acceptance gate.

Each test covers one numbered criterion, records a PASS/FAIL line for the
terminal summary, and pins its tolerances inline.  Criterion 7 is a soft
qualitative check: it archives the cost table and never fails the suite,
emitting a warning artifact instead.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

import oracles
from conftest import (random_disturbance, random_instance, random_pwl_pair,
                      record_acceptance)
from pisat import (equilibrium, heating, model, optimality, sector, simulate)

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "artifacts"

_BATCH_SEED = 20260814
_solved: dict = {}


@pytest.fixture(scope="module")
def batch():
    """The 200 seeded instances shared by criteria 1-4."""
    rng = np.random.default_rng(_BATCH_SEED)
    out = []
    for _ in range(200):
        plant, ctrl = random_instance(rng)
        out.append((plant, ctrl, random_disturbance(rng, plant.n)))
    return out


def _ensure_solved(batch):
    """Solve every batch instance once; criterion 1 owns the timing."""
    if "results" not in _solved:
        rng = np.random.default_rng(_BATCH_SEED + 1)
        start = time.monotonic()
        results = []
        for plant, ctrl, w in batch:
            eq = equilibrium.solve_equilibrium(plant, ctrl, w)
            assert eq.residual_stationary <= 1e-11 * eq.scale
            spread = equilibrium.probe_uniqueness(plant, ctrl, w,
                                                  restarts=50,
                                                  rng=rng).spread
            results.append((eq, spread))
        _solved["results"] = results
        _solved["seconds"] = time.monotonic() - start
    return _solved["results"], _solved["seconds"]


def test_criterion_1_equilibrium_uniqueness(batch):
    results, seconds = _ensure_solved(batch)
    worst_resid = max(eq.residual_stationary for eq, _ in results)
    worst_spread = max(spread for _, spread in results)
    ok = worst_resid <= 1e-9 and worst_spread <= 1e-6 and seconds < 30.0
    record_acceptance(1, ok,
                      f"200 instances, residual<={worst_resid:.2e}, "
                      f"restart spread<={worst_spread:.2e}, {seconds:.1f}s")
    assert worst_resid <= 1e-9
    assert worst_spread <= 1e-6
    assert seconds < 30.0


def test_criterion_2_contraction_bound(batch):
    rng = np.random.default_rng(_BATCH_SEED + 2)
    worst_excess = -np.inf
    for plant, ctrl, w in batch:
        cmap = equilibrium.build_contraction(plant, ctrl, w)
        measured = equilibrium.measure_contraction(cmap, 1000, rng)
        worst_excess = max(worst_excess, measured - cmap.contraction_bound)
    ok = worst_excess <= 1e-12
    record_acceptance(2, ok, f"1e3 pairs per instance, "
                             f"max measured-bound={worst_excess:.2e}")
    assert worst_excess <= 1e-12


def test_criterion_3_global_stability(batch):
    results, _ = _ensure_solved(batch)
    rng = np.random.default_rng(_BATCH_SEED + 3)
    start = time.monotonic()
    worst_final = 0.0
    monitor_ok = True
    assert simulate.INCREASE_TOL == 1e-9
    for (plant, ctrl, w), (eq, _) in list(zip(batch, results))[:20]:
        n = plant.n
        params = simulate.lyapunov_parameters(plant, ctrl)
        horizon = 50.0 / float(np.min(plant.a))
        dt = min(0.05, 0.4 * simulate.stable_dt(plant, ctrl, math.inf))
        for _ in range(20):
            init = rng.standard_normal(2 * n)
            init *= rng.uniform(0.0, 100.0) / np.linalg.norm(init)
            traj = simulate.integrate(plant, ctrl, w, init[:n], init[n:],
                                      (0.0, horizon), dt)
            err = max(float(np.max(np.abs(traj.x[-1] - eq.x0))),
                      float(np.max(np.abs(traj.z[-1] - eq.z0))))
            worst_final = max(worst_final, err)
            trace = simulate.lyapunov_trace(plant, ctrl, eq, traj, params)
            monitor_ok = monitor_ok and trace.passed
    seconds = time.monotonic() - start
    ok = worst_final <= 1e-4 and monitor_ok and seconds < 300.0
    record_acceptance(3, ok,
                      f"20x20 runs, final error<={worst_final:.2e}, "
                      f"monitor clean={monitor_ok}, {seconds:.0f}s")
    assert worst_final <= 1e-4
    assert monitor_ok
    assert seconds < 300.0


def test_criterion_4_equilibrium_optimality():
    rng = np.random.default_rng(_BATCH_SEED + 4)
    start = time.monotonic()
    worst_gap = 0.0
    worst_bf_slack = -np.inf
    small = 0
    for _ in range(100):
        plant, ctrl = random_instance(rng)
        w = random_disturbance(rng, plant.n)
        gamma = optimality.admissible_gamma(plant)
        eq = equilibrium.solve_equilibrium(plant, ctrl, w)
        assert eq.residual_stationary <= 1e-11 * eq.scale
        sol = optimality.solve_weighted_l1_lp(gamma, plant, w)
        gap = abs(float(np.sum(gamma * np.abs(eq.x0))) - sol.cost)
        worst_gap = max(worst_gap, gap)
        if plant.n <= 3:
            small += 1
            _, _, bf_cost = oracles.brute_force_oracle(gamma, plant.a,
                                                       plant.b, w, grid=41)
            # provable accuracy of the grid search: the optimum sits
            # within half the first-pass spacing of some scanned point
            spacing = 2.0 / (41 - 1)
            a_inv_b = np.linalg.solve(np.diag(plant.a), plant.b)
            lip = float(np.sum(np.abs(gamma[:, None] * a_inv_b)))
            worst_bf_slack = max(worst_bf_slack,
                                 abs(bf_cost - sol.cost)
                                 - 0.5 * spacing * lip)
    seconds = time.monotonic() - start
    ok = worst_gap <= 1e-7 and worst_bf_slack <= 0.0 and seconds < 60.0
    record_acceptance(4, ok,
                      f"100 instances, LP gap<={worst_gap:.2e}, "
                      f"{small} brute-forced, {seconds:.0f}s")
    assert worst_gap <= 1e-7
    assert worst_bf_slack <= 0.0
    assert seconds < 60.0


def test_criterion_5_analytic_regression():
    # closed forms for a=b=p=1, r=s=0.5 under saturation:
    #   interior band: h(u0)=0 forces x0=0, u0=-w, z0=-u0/r
    #   saturated branch: f(u0)=1 gives x0=1+w, u0=1-x0/s,
    #   z0=(-u0-x0)/r
    plant = model.PlantModel(np.array([1.0]), np.array([[1.0]]),
                             sector.saturation_deadzone(1))
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    expected = {-0.3: (0.0, -0.6, 0.3), -2.0: (-1.0, -4.0, 3.0)}
    worst = 0.0
    for w, (x0, z0, u0) in expected.items():
        eq = equilibrium.solve_equilibrium(plant, ctrl, np.array([w]))
        assert eq.residual_stationary <= 1e-12 * eq.scale
        worst = max(worst, abs(eq.x0[0] - x0), abs(eq.z0[0] - z0),
                    abs(eq.u0[0] - u0))
    ok = worst <= 1e-9
    record_acceptance(5, ok, f"max coordinate error {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_6_integrator_order():
    scn = heating.benchmark_scenario()
    plant, wsig = heating.to_standard_form(scn)
    w = wsig.componentwise_min()
    n = plant.n

    def endpoint(dt):
        traj = simulate.integrate(plant, scn.controller, w, np.zeros(n),
                                  np.zeros(n), (0.0, 8.0), dt)
        assert float(np.max(np.abs(traj.u))) < 1.0  # smooth segment
        return np.concatenate([traj.x[-1], traj.z[-1]])

    coarse, mid, fine = endpoint(0.1), endpoint(0.05), endpoint(0.025)
    factor = (np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine))
    ok = 8.0 <= factor <= 32.0
    record_acceptance(6, ok, f"dt-halving factor {factor:.2f}")
    assert 8.0 <= factor <= 32.0


def test_criterion_7_benchmark_qualitative():
    start = time.monotonic()
    snap = heating.synthetic_cold_snap()
    scn = heating.benchmark_scenario(t_ext=snap)
    plant, wsig = heating.to_standard_form(scn)
    l_diag = heating.default_cost_weights(scn)
    n = plant.n
    base = scn.controller

    controllers = {
        "decentralized": base,
        "coordinating": model.ControllerSpec("coordinating", base.p, base.r,
                                             base.s),
        "static": model.ControllerSpec(
            "static", k_static=model.default_static_gain(plant)),
    }
    costs = {}
    for name, ctrl in controllers.items():
        z0 = None if name == "static" else np.zeros(n)
        traj = simulate.integrate(plant, ctrl, wsig, np.zeros(n), z0,
                                  (0.0, snap.span_h[1]), 0.05)
        costs[name] = simulate.evaluate_costs(traj, l_diag)
    seconds = time.monotonic() - start

    j1_order = (costs["decentralized"].j1 < costs["coordinating"].j1
                < costs["static"].j1)
    jinf_order = costs["coordinating"].jinf < costs["decentralized"].jinf

    ARTIFACTS.mkdir(exist_ok=True)
    table = ARTIFACTS / "benchmark_cost_table.csv"
    with open(table, "w", encoding="ascii") as fh:
        fh.write("controller,j1,jinf,j2\n")
        for name in ("decentralized", "coordinating", "static"):
            c = costs[name]
            fh.write(",".join([name] + [repr(float(v)) for v in
                                        (c.j1, c.jinf, c.j2)]) + "\n")
    warning = ARTIFACTS / "benchmark_warning.json"
    if j1_order and jinf_order:
        if warning.exists():
            warning.unlink()
    else:
        with open(warning, "w", encoding="ascii") as fh:
            json.dump({"j1_ordering_holds": j1_order,
                       "jinf_ordering_holds": jinf_order,
                       "cost_table": table.name}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")

    detail = (f"J1 order={j1_order}, Jinf order={jinf_order}, "
              f"table archived, {seconds:.0f}s"
              + ("" if j1_order and jinf_order else "; warning artifact"))
    record_acceptance(7, j1_order and jinf_order, detail + " [soft]")
    # soft criterion: the suite only requires the artifacts and budget
    assert table.exists()
    assert seconds < 120.0


def test_criterion_8_sector_lemmas(rng):
    start = time.monotonic()
    pairs = [sector.saturation_deadzone(3)]
    pairs += [random_pwl_pair(rng, int(rng.integers(1, 5)))
              for _ in range(3)]
    all_ok = True
    for pair in pairs:
        all_ok &= oracles.sector_audit(pair, 300, rng=rng).passed
        for _ in range(50):
            x0 = rng.uniform(-3.0, 3.0, pair.n)
            all_ok &= oracles.sector_audit(sector.shift_pair(pair, x0), 300,
                                           rng=rng).passed
        for _ in range(50):
            d = rng.uniform(0.1, 5.0, pair.n)
            all_ok &= oracles.sector_audit(sector.scale_pair(pair, d), 300,
                                           rng=rng).passed
    seconds = time.monotonic() - start
    ok = all_ok and seconds < 10.0
    record_acceptance(8, ok, f"4 pairs x 101 audits, {seconds:.1f}s")
    assert all_ok
    assert seconds < 10.0
