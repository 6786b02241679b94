"""Batch command line: certify, simulate, compare, equilibrium, lp.

Every subcommand reads a scenario config (JSON), runs without prompting,
and writes machine-readable reports.  Outputs carry no timestamps and
all floating-point values at full precision, so reruns with the same
inputs produce byte-identical files.

Exit codes: 0 all checks passed, 1 a certificate or solver check
failed, 2 warnings only, 64 usage or config problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from . import equilibrium, heating, matrixlab, model, optimality, simulate
from .errors import (ConditionViolated, ConfigError, GapTooLarge, ParseError,
                     PisatError, UnsupportedVariant)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_WARN = 2
EXIT_USAGE = 64
SCHEMA_VERSION = 4

_RUN_KEYS = {"dt_h", "t_end_h", "seed", "controller", "tol", "out_dir"}
_DEF_DT = 0.05
_DEF_SEED = 0
_DEF_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_config(path) -> tuple[heating.HeatingScenario, dict]:
    """Read a config file: a bare scenario or {scenario, run}.

    The scenario entry may be inline or a path to a scenario file
    (relative to the config).  Run options (all optional, unknown keys
    rejected): dt_h, t_end_h, seed, controller, tol, out_dir.
    Command-line flags override them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "scenario" in data:
        extra = set(data) - {"scenario", "run"}
        if extra:
            raise ConfigError(f"{path}: unknown top-level keys "
                              f"{sorted(extra)}")
        run = data.get("run", {})
        if not isinstance(run, dict):
            raise ConfigError(f"{path}: run section must be an object")
        bad = set(run) - _RUN_KEYS
        if bad:
            raise ConfigError(f"{path}: unknown run keys {sorted(bad)}; "
                              f"allowed: {sorted(_RUN_KEYS)}")
        entry = data["scenario"]
        if isinstance(entry, str):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), entry)
            scn = heating.load_scenario(ref)
        else:
            scn = heating.scenario_from_json(entry)
        return scn, dict(run)
    return heating.scenario_from_json(data), {}


def _pick(flag, run: dict, key: str, default):
    if flag is not None:
        return flag
    if key in run and run[key] is not None:
        return run[key]
    return default


def _positive(value, source: str) -> float:
    # a step, horizon, tolerance or weight must be finite and positive
    problem = ConfigError(f"{source} must be a finite positive number, "
                          f"got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise problem from None
    if not (math.isfinite(number) and number > 0.0):
        raise problem
    return number


def _resolve_controller(scn: heating.HeatingScenario, name: str | None,
                        plant: model.PlantModel | None = None
                        ) -> heating.HeatingScenario:
    # the static default gain needs the plant: every command passes the
    # one it built, except certify when it failed to build (it fails here)
    if name is None or name == scn.controller.variant:
        return scn
    if name == model.VARIANT_STATIC:
        if plant is None:
            plant, _ = heating.to_standard_form(scn)
        ctrl = model.ControllerSpec.static(model.default_static_gain(plant))
    elif name in model.PI_VARIANTS:
        base = scn.controller
        if not base.is_pi:
            raise ConfigError("config carries no PI gains; cannot build "
                              f"the {name} controller")
        if name == model.VARIANT_DECENTRALIZED:
            ctrl = model.ControllerSpec.decentralized(base.p, base.r, base.s)
        else:
            ctrl = model.ControllerSpec.coordinating(base.p, base.r, base.s)
    else:
        raise ConfigError(f"unknown controller variant {name!r}")
    return dataclasses.replace(scn, controller=ctrl)


def _reference_disturbance(wsig: model.DisturbanceSignal) -> np.ndarray:
    # certificates freeze the worst (componentwise smallest) load
    if wsig.is_constant:
        return wsig.constant_value()
    return wsig.componentwise_min()


def _t_end_default(scn: heating.HeatingScenario) -> float:
    if isinstance(scn.t_ext, heating.TemperatureSeries):
        return scn.t_ext.span_h[1]
    return 336.0


# ---------------------------------------------------------------- certify


def cmd_certify(args) -> int:
    scn, run = load_config(args.config)
    name = _pick(args.controller, run, "controller", None)
    dt = _positive(_pick(args.dt, run, "dt_h", _DEF_DT),
                   "--dt or run.dt_h")
    seed = int(_pick(args.seed, run, "seed", _DEF_SEED))
    tol = _positive(_pick(args.tol, run, "tol", _DEF_TOL),
                    "--tol or run.tol")
    checks: list[dict] = []

    try:
        plant, wsig = heating.to_standard_form(scn)
    except PisatError as exc:
        # without a plant the static default gain fails here as before
        scn = _resolve_controller(scn, name)
        checks.append({"name": "input_matrix_m", "status": "fail",
                       "detail": str(exc)})
        return _finish_certify(args, scn, None, checks)
    scn = _resolve_controller(scn, name, plant)
    ctrl = scn.controller
    checks.append({"name": "input_matrix_m", "status": "pass",
                   "m_matrix": True,
                   "dominance_scaling":
                       matrixlab.column_dominance_scaling(plant.b)})
    w_ref = _reference_disturbance(wsig)

    if ctrl.is_pi:
        tr = model.check_tuning(plant, ctrl)
        ok = bool(tr.passed)
        checks.append({"name": "tuning_margins",
                       "status": "pass" if ok else "warn",
                       "integral_margin": tr.integral_margin,
                       "antiwindup_margin": tr.antiwindup_margin})
    else:
        checks.append({"name": "tuning_margins", "status": "not_applicable",
                       "detail": "static feedback has no PI gains"})

    eq = None
    if ctrl.variant == model.VARIANT_DECENTRALIZED:
        # one solve and its map serve every check, optimality too
        eq = equilibrium.solve_equilibrium(plant, ctrl, w_ref,
                                           tol=min(1e-10, 1e-3 * tol))
        cmap = eq.cmap
        # both thresholds grow with the problem's scale, as the solver's
        # own acceptance does: rounding sets their floor
        checks.append({"name": "equilibrium_residual",
                       "status": "pass" if eq.residual_stationary
                       <= 1e-8 * eq.scale else "fail",
                       "residual": eq.residual_stationary,
                       "scale": eq.scale,
                       "iterations": eq.iterations,
                       "k": cmap.k,
                       "x0": eq.x0, "z0": eq.z0, "u0": eq.u0})
        rng = np.random.default_rng(seed)
        measured = equilibrium.measure_contraction(cmap, 100, rng)
        checks.append({"name": "contraction_ratio",
                       "status": "pass" if measured
                       <= cmap.contraction_bound + 1e-9 else "fail",
                       "bound": cmap.contraction_bound,
                       "measured": measured})
        spread = equilibrium.probe_uniqueness(cmap, restarts=20, u_tol=1e-9,
                                              rng=np.random.default_rng(seed))
        checks.append({"name": "uniqueness_probe",
                       "status": "pass" if spread <= 1e-6 * eq.scale
                       else "fail",
                       "input_spread": spread, "restarts": 20,
                       "scale": eq.scale})
    else:
        for name in ("equilibrium_residual", "contraction_ratio",
                     "uniqueness_probe"):
            checks.append({"name": name, "status": "not_applicable",
                           "detail": "contraction analysis covers the "
                                     "decentralized variant only"})

    if eq is not None:
        checks.append(_storage_check(plant, ctrl, eq, w_ref, dt))
    else:
        checks.append({"name": "storage_decrease",
                       "status": "not_applicable",
                       "detail": "needs the decentralized equilibrium"})

    checks.append(_optimality_check(plant, ctrl, w_ref, tol, eq))
    return _finish_certify(args, scn, w_ref, checks)


def _finish_certify(args, scn, w_ref, checks) -> int:
    report = _certify_report(args, scn, w_ref, checks)
    lines = [f"certify {report['scenario']} "
             f"controller={report['controller']} n={report['n']}"]
    for c in checks:
        detail = c.get("detail", "")
        lines.append(f"  {c['name']:<24}{c['status']:<16}{detail}".rstrip())
    lines.append(f"overall: {report['status']}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _emit(report, args.out)
    return _exit_from_status(report["status"])


def _storage_check(plant, ctrl, eq, w_ref, dt) -> dict:
    try:
        params = simulate.lyapunov_parameters(plant, ctrl)
    except PisatError as exc:
        return {"name": "storage_decrease", "status": "fail",
                "detail": str(exc)}
    horizon = 10.0 / float(np.min(plant.a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = simulate.integrate(plant, ctrl, w_ref, eq.x0 + 1.0, eq.z0,
                                  (0.0, horizon), dt)
    stability_warning = "; ".join(str(c.message) for c in caught) or None
    try:
        trace = simulate.lyapunov_trace(plant, ctrl, eq, traj)
    except PisatError as exc:
        return {"name": "storage_decrease", "status": "fail",
                "detail": str(exc), "stability_warning": stability_warning}
    return {"name": "storage_decrease",
            "status": "pass" if trace.passed else "fail",
            "epsilon": params.epsilon,
            "epsilon_bound": params.epsilon_bound,
            "alpha": params.alpha,
            "beta_min": params.beta_min,
            "gain_norm": params.gain_norm,
            "horizon_h": horizon,
            "increase_steps": int(trace.increase_steps.size),
            "stability_warning": stability_warning,
            "value_initial": float(trace.value[0]),
            "value_final": float(trace.value[-1])}


def _optimality_check(plant, ctrl, w_ref, tol, eq) -> dict:
    gamma = optimality.admissible_gamma(plant)
    try:
        cert = optimality.certify_equilibrium_optimality(gamma, plant, ctrl,
                                                         w_ref, tol=tol, eq=eq)
    except (ConditionViolated, UnsupportedVariant) as exc:
        return {"name": "allocation_optimality", "status": "not_applicable",
                "detail": str(exc), "gamma": gamma}
    check = {"name": "allocation_optimality",
             "status": "pass" if cert.passed else "fail",
             "gamma": gamma,
             "equilibrium_cost": cert.equilibrium_cost,
             "dual_bound": cert.dual_bound,
             "dual_gap": cert.dual_gap,
             "lp_fallback": cert.lp_fallback,
             "sign_structure_error": cert.sign_structure_error,
             "tolerance": cert.tolerance}
    if cert.lp_fallback:
        check.update(lp_cost=cert.lp_cost, cost_gap=cert.cost_gap,
                     lp_status=cert.lp.status)
    return check


def _certify_report(args, scn, w_ref, checks) -> dict:
    statuses = [c["status"] for c in checks]
    if "fail" in statuses:
        overall = "fail"
    elif "warn" in statuses:
        overall = "warn"
    else:
        overall = "pass"
    return {"schema_version": SCHEMA_VERSION,
            "command": "certify",
            "scenario": scn.name,
            "controller": scn.controller.variant,
            "n": scn.n,
            "w_ref": w_ref,
            "checks": checks,
            "status": overall}


def _exit_from_status(status: str) -> int:
    return {"pass": EXIT_PASS, "warn": EXIT_WARN}.get(status, EXIT_FAIL)


# --------------------------------------------------------------- simulate


def _z_rest(ctrl, n):
    # PI loops start with an empty integrator; static feedback has none
    return np.zeros(n) if ctrl.is_pi else None


def _rk4_diagnostics(traj) -> dict:
    # RK4 evaluates the vector field four times per step; a stacked
    # evaluation counts once, however many controllers it steps
    steps = traj.t.size - 1
    return {"rk4_steps": steps, "derivative_evaluations": 4 * steps}


def cmd_simulate(args) -> int:
    scn, run = load_config(args.config)
    plant, wsig = heating.to_standard_form(scn)
    scn = _resolve_controller(scn, _pick(args.controller, run, "controller",
                                         None), plant)
    dt = _positive(_pick(args.dt, run, "dt_h", _DEF_DT),
                   "--dt or run.dt_h")
    t_end = _positive(_pick(args.t_end, run, "t_end_h",
                            _t_end_default(scn)), "--t-end or run.t_end_h")
    out_dir = args.out
    if out_dir is None and run.get("out_dir") is not None:
        # paths inside a config resolve against the config, not the cwd
        out_dir = os.path.join(os.path.dirname(os.path.abspath(args.config)),
                               run["out_dir"])
    if out_dir is None:
        raise ConfigError("simulate needs --out or run.out_dir")
    os.makedirs(out_dir, exist_ok=True)
    ctrl = scn.controller
    traj = simulate.integrate(plant, ctrl, wsig, np.zeros(plant.n),
                              _z_rest(ctrl, plant.n), (0.0, t_end), dt)
    costs = simulate.evaluate_costs(traj, heating.default_cost_weights(scn))
    csv_path = os.path.join(out_dir, "trajectory.csv")
    simulate.write_trajectory_csv(traj, csv_path)
    report = {"schema_version": SCHEMA_VERSION,
              "command": "simulate",
              "scenario": scn.name,
              "controller": scn.controller.variant,
              "n": scn.n,
              "dt_h": dt,
              "t_end_h": t_end,
              "trajectory_csv": "trajectory.csv",
              "costs": {"j1": costs.j1, "jinf": costs.jinf, "j2": costs.j2,
                        "horizon_h": costs.horizon},
              "diagnostics": _rk4_diagnostics(traj),
              "final_max_abs_x": float(np.max(np.abs(traj.x[-1])))}
    _emit(report, os.path.join(out_dir, "costs.json"))
    return EXIT_PASS


# ---------------------------------------------------------------- compare


def cmd_compare(args) -> int:
    scn, run = load_config(args.config)
    names = list(args.controllers)
    if len(names) < 2:
        raise ConfigError("compare needs at least two controllers")
    dt = _positive(_pick(args.dt, run, "dt_h", _DEF_DT),
                   "--dt or run.dt_h")
    t_end = _positive(_pick(args.t_end, run, "t_end_h",
                            _t_end_default(scn)), "--t-end or run.t_end_h")
    # the plant and the load do not depend on the controller, so every
    # controller is one row of a single stacked integration
    plant, wsig = heating.to_standard_form(scn)
    l_diag = heating.default_cost_weights(scn)
    ctrls = [_resolve_controller(scn, name, plant).controller
             for name in names]
    n = plant.n
    trajs = simulate.integrate(plant, ctrls, wsig, np.zeros((len(ctrls), n)),
                               [_z_rest(c, n) for c in ctrls], (0.0, t_end),
                               dt)
    rows = []
    for name, traj in zip(names, trajs):
        costs = simulate.evaluate_costs(traj, l_diag)
        rows.append({"controller": name, "j1": costs.j1, "jinf": costs.jinf,
                     "j2": costs.j2,
                     "final_max_abs_x": float(np.max(np.abs(traj.x[-1])))})

    header = f"{'controller':<16}{'j1':>14}{'jinf':>14}{'j2':>14}"
    lines = [header]
    for row in rows:
        lines.append(f"{row['controller']:<16}{row['j1']:>14.6g}"
                     f"{row['jinf']:>14.6g}{row['j2']:>14.6g}")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "comparison.csv"), "w",
                  encoding="ascii") as fh:
            fh.write("controller,j1,jinf,j2,final_max_abs_x\n")
            for row in rows:
                fh.write(",".join([row["controller"]]
                                  + [repr(float(row[k])) for k in
                                     ("j1", "jinf", "j2", "final_max_abs_x")])
                         + "\n")
        report = {"schema_version": SCHEMA_VERSION,
                  "command": "compare",
                  "scenario": scn.name,
                  "dt_h": dt,
                  "t_end_h": t_end,
                  "diagnostics": _rk4_diagnostics(trajs),
                  "rows": rows}
        _emit(report, os.path.join(args.out, "comparison.json"))
    return EXIT_PASS


# ------------------------------------------------------------ equilibrium


def cmd_equilibrium(args) -> int:
    scn, run = load_config(args.config)
    plant, wsig = heating.to_standard_form(scn)
    scn = _resolve_controller(scn, _pick(args.controller, run, "controller",
                                         None), plant)
    if scn.controller.variant != model.VARIANT_DECENTRALIZED:
        raise ConfigError("equilibrium solving requires the decentralized "
                          "controller")
    w_ref = _reference_disturbance(wsig)
    eq = equilibrium.solve_equilibrium(
        plant, scn.controller, w_ref,
        tol=_positive(args.tol, "--tol"))
    report = {"schema_version": SCHEMA_VERSION,
              "command": "equilibrium",
              "scenario": scn.name,
              "n": scn.n,
              "w_ref": w_ref,
              "x0": eq.x0, "z0": eq.z0, "u0": eq.u0,
              "residual": eq.residual_stationary,
              "iterations": eq.iterations,
              "contraction_bound": eq.cmap.contraction_bound,
              "k": eq.cmap.k}
    _emit(report, args.out)
    return EXIT_PASS


# --------------------------------------------------------------------- lp


def cmd_lp(args) -> int:
    scn, run = load_config(args.config)
    plant, wsig = heating.to_standard_form(scn)
    w_ref = _reference_disturbance(wsig)
    if args.gamma is not None:
        gamma = np.array([_positive(v, "each --gamma value")
                          for v in args.gamma.split(",")])
        if gamma.size != plant.n:
            raise ConfigError(f"--gamma needs {plant.n} values")
    else:
        gamma = optimality.admissible_gamma(plant)
    sol = optimality.solve_weighted_l1_lp(gamma, plant, w_ref)
    report = {"schema_version": SCHEMA_VERSION,
              "command": "lp",
              "scenario": scn.name,
              "n": scn.n,
              "gamma": gamma,
              "gamma_condition": optimality.check_gamma_condition(gamma,
                                                                  plant),
              "w_ref": w_ref,
              "x_star": sol.x_star,
              "v_star": sol.v_star,
              "cost": sol.cost,
              "diagnostics": {"pivots": sol.pivots,
                              "bound_flips": sol.bound_flips,
                              "bland_pivots": sol.bland_pivots},
              "lp_status": sol.status}
    _emit(report, args.out)
    return EXIT_PASS if sol.status == "optimal" else EXIT_FAIL


# ------------------------------------------------------------------ wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="pisat",
                     description="Certify and simulate saturated networks "
                                 "under decentralized PI control.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    variants = sorted(model.ALL_VARIANTS)

    cert = sub.add_parser("certify", help="run the certificate suite")
    cert.add_argument("--config", required=True)
    cert.add_argument("--out", default=None, help="report path (stdout)")
    cert.add_argument("--controller", choices=variants, default=None)
    cert.add_argument("--dt", type=float, default=None)
    cert.add_argument("--seed", type=int, default=None)
    cert.add_argument("--tol", type=float, default=None,
                      help="optimality gap tolerance")
    cert.set_defaults(func=cmd_certify)

    sim = sub.add_parser("simulate", help="integrate and write a trajectory")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument("--controller", choices=variants, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--t-end", type=float, default=None)
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="cost table across controllers")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--controllers", nargs="+", choices=variants,
                      required=True)
    cmp_.add_argument("--out", default=None, help="output directory")
    cmp_.add_argument("--dt", type=float, default=None)
    cmp_.add_argument("--t-end", type=float, default=None)
    cmp_.set_defaults(func=cmd_compare)

    eqp = sub.add_parser("equilibrium", help="solve the stationary point")
    eqp.add_argument("--config", required=True)
    eqp.add_argument("--out", default=None)
    eqp.add_argument("--controller", choices=variants, default=None)
    eqp.add_argument("--tol", type=float, default=1e-10)
    eqp.set_defaults(func=cmd_equilibrium)

    lpp = sub.add_parser("lp", help="solve the weighted allocation program")
    lpp.add_argument("--config", required=True)
    lpp.add_argument("--out", default=None)
    lpp.add_argument("--gamma", default=None,
                     help="comma-separated positive weights")
    lpp.set_defaults(func=cmd_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_PASS
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ParseError, GapTooLarge, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"pisat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PisatError as exc:
        print(f"pisat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
