"""Batch command line: certify, simulate, compare, equilibrium, lp.

Every subcommand reads a scenario config (JSON), runs without prompting,
and writes machine-readable reports.  Outputs carry no timestamps and
all floating-point values at full precision, so reruns with the same
inputs produce byte-identical files.  Each command starts from one run
context: the config, every setting of ``_SETTINGS`` resolved (flag,
then run key, then default) and checked, and the standard form.  The
equilibrium's stationary residual is judged against ``RESIDUAL_TOL``
times its scale (in certify, min(RESIDUAL_TOL, 1e-3 tol) times it).

Exit codes: 0 all checks passed, 1 a certificate or solver check
failed, 2 warnings only, 64 usage or config problem.  Errors and
Python warnings print one line each on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import equilibrium, heating, model, optimality, simulate
from .errors import (ConditionViolated, ConfigError, NonFiniteState,
                     ParseError, PisatError, UnsupportedVariant)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_WARN = 2
EXIT_USAGE = 64
SCHEMA_VERSION = 13
RESIDUAL_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _plain(value):
    # numpy arrays become lists and numpy scalars Python numbers
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_plain,
                      allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, scn: heating.HeatingScenario, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "scenario": scn.name, **fields}


def _positive(value, source: str) -> float:
    # a step, horizon, tolerance or weight: finite, positive, not true
    problem = ConfigError(f"{source} must be a finite positive number, "
                          f"got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise problem from None
    if isinstance(value, bool) or not (math.isfinite(number) and number > 0):
        raise problem
    return number


def _seed(value, source: str) -> int:
    if type(value) is not int or value < 0:  # not true, not 1.5
        raise ConfigError(f"{source} must be a non-negative integer, "
                          f"got {value!r}")
    return value


def _variant(value, source: str) -> str:
    if value not in model.ALL_VARIANTS:
        raise ConfigError(f"{source} must be one of "
                          f"{list(model.ALL_VARIANTS)}, got {value!r}")
    return value


def _t_end_default(scn: heating.HeatingScenario) -> float:
    if isinstance(scn.t_ext, heating.TemperatureSeries):
        return scn.t_ext.span_h[1]
    return 336.0


# argparse dest -> (flag, run key, default or a function of the
# scenario, check), resolved on every command whose parser has the dest
_SETTINGS = {
    "controller": ("--controller", "controller",
                   lambda scn: scn.controller.variant, _variant),
    "dt": ("--dt", "dt_h", 0.05, _positive),
    "t_end": ("--t-end", "t_end_h", _t_end_default, _positive),
    "seed": ("--seed", "seed", 0, _seed),
    "tol": ("--tol", "tol", 1e-6, _positive),
}
_RUN_KEYS = {key for _, key, _, _ in _SETTINGS.values()} | {"out_dir"}


def load_config(path) -> tuple[heating.HeatingScenario, dict]:
    """Read a config file: a bare scenario or {scenario, run}.

    The scenario entry may be inline or a path to a scenario file, and
    run.out_dir must be a string; both resolve relative to the config,
    and the returned run section holds out_dir so resolved.  Other run
    options (all optional, unknown keys rejected): dt_h, t_end_h, seed,
    controller, tol.  The commands check their values and let
    command-line flags override them.
    """
    data = heating.read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "scenario" not in data:
        return heating.scenario_from_json(data), {}
    extra = set(data) - {"scenario", "run"}
    if extra:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(extra)}")
    run = data.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError(f"{path}: run section must be an object")
    bad = set(run) - _RUN_KEYS
    if bad:
        raise ConfigError(f"{path}: unknown run keys {sorted(bad)}; "
                          f"allowed: {sorted(_RUN_KEYS)}")
    base = os.path.dirname(os.path.abspath(path))
    out_dir = run.get("out_dir")
    if out_dir is not None:
        if not isinstance(out_dir, str):
            raise ConfigError(f"{path}: run.out_dir must be a string, "
                              f"got {out_dir!r}")
        run = {**run, "out_dir": os.path.join(base, out_dir)}
    entry = data["scenario"]
    if isinstance(entry, str):
        scn = heating.load_scenario(os.path.join(base, entry))
    else:
        scn = heating.scenario_from_json(entry)
    return scn, run


def _resolve_controller(scn: heating.HeatingScenario, name: str,
                        plant: model.PlantModel) -> heating.HeatingScenario:
    # name is a checked variant; only the static default gain needs plant
    base = scn.controller
    if name == base.variant:
        return scn
    static = name == model.VARIANT_STATIC
    if not (static or base.is_pi):
        raise ConfigError("config carries no PI gains; cannot build "
                          f"the {name} controller")
    ctrl = model.ControllerSpec(
        name, p=base.p, r=base.r, s=base.s,
        k_static=model.default_static_gain(plant) if static else None)
    return dataclasses.replace(scn, controller=ctrl)


def _context(args) -> argparse.Namespace:
    """Load the config; return ``args`` with each ``_SETTINGS`` dest
    resolved and checked, plus ``run`` (the config's run section), ``scn``
    (its controller resolved), the standard form ``plant``/``wsig`` and
    the reference load ``w_ref``."""
    scn, run = load_config(args.config)
    ctx = argparse.Namespace(**vars(args), run=run)
    for dest, (flag, key, default, check) in _SETTINGS.items():
        if dest not in vars(args):
            continue
        value = getattr(args, dest)
        if value is None:
            value = run.get(key)
        if value is None:
            value = default(scn) if callable(default) else default
        setattr(ctx, dest, check(value, f"{flag} or run.{key}"))
    ctx.plant, ctx.wsig = heating.to_standard_form(scn)
    # certificates freeze the worst (componentwise smallest) load
    ctx.w_ref = ctx.wsig.componentwise_min()
    ctx.scn = _resolve_controller(
        scn, getattr(ctx, "controller", scn.controller.variant), ctx.plant)
    return ctx


# ---------------------------------------------------------------- certify


def cmd_certify(args) -> int:
    ctx = _context(args)
    plant, ctrl = ctx.plant, ctx.scn.controller
    checks = [{"name": "input_matrix_m", "status": "pass", "m_matrix": True,
               "dominance_scaling": plant.gain_scaling / plant.a}]
    w_ref = ctx.w_ref
    if ctrl.is_pi:
        tr = model.check_tuning(plant, ctrl)
        checks.append({"name": "tuning_margins",
                       "status": "pass" if tr.passed else "warn",
                       "integral_margin": tr.integral_margin,
                       "antiwindup_margin": tr.antiwindup_margin})
    else:
        checks.append({"name": "tuning_margins", "status": "not_applicable",
                       "detail": "static feedback has no PI gains"})

    eq = None
    if ctrl.variant == model.VARIANT_DECENTRALIZED:
        # one solve and its map serve every check, optimality too
        eq = equilibrium.solve_equilibrium(plant, ctrl, w_ref)
        cmap = eq.cmap
        # both thresholds grow with the problem's scale: rounding sets
        # their floor; the optimality check reads this equilibrium, so
        # its residual must also lie 1e3 times below that check's tol
        bound = min(RESIDUAL_TOL, 1e-3 * ctx.tol) * eq.scale
        checks.append({"name": "equilibrium_residual",
                       "status": "pass" if eq.residual_stationary
                       <= bound else "fail",
                       "residual": eq.residual_stationary,
                       "scale": eq.scale,
                       "iterations": eq.iterations,
                       "k": cmap.k,
                       "x0": eq.x0, "z0": eq.z0, "u0": eq.u0})
        measured = equilibrium.measure_contraction(
            cmap, 100, np.random.default_rng(ctx.seed))
        checks.append({"name": "contraction_ratio",
                       "status": "pass" if measured
                       <= cmap.contraction_bound + 1e-9 else "fail",
                       "bound": cmap.contraction_bound,
                       "measured": measured})
        probe = equilibrium.probe_uniqueness(
            plant, ctrl, w_ref, restarts=20,
            rng=np.random.default_rng(ctx.seed))
        checks.append({"name": "uniqueness_probe",
                       "status": "pass" if probe.spread
                       <= 1e-6 * eq.scale else "fail",
                       "input_spread": probe.spread, "restarts": 20,
                       "scale": eq.scale, "solves": probe.solves})
        checks.append(_storage_check(plant, ctrl, eq, w_ref, ctx.dt))
    else:
        for name in ("equilibrium_residual", "contraction_ratio",
                     "uniqueness_probe"):
            checks.append({"name": name, "status": "not_applicable",
                           "detail": "contraction analysis covers the "
                                     "decentralized variant only"})
        checks.append({"name": "storage_decrease",
                       "status": "not_applicable",
                       "detail": "needs the decentralized equilibrium"})

    checks.append(_optimality_check(plant, ctrl, w_ref, ctx.tol, eq))

    # print the text report, write the JSON one, exit on the worst status
    statuses = {c["status"] for c in checks}
    status = next((s for s in ("fail", "warn") if s in statuses), "pass")
    scn = ctx.scn
    lines = [f"certify {scn.name} controller={scn.controller.variant} "
             f"n={scn.n}"]
    for c in checks:
        detail = c.get("detail", "")
        lines.append(f"  {c['name']:<24}{c['status']:<16}{detail}".rstrip())
    lines.append(f"overall: {status}")
    sys.stdout.write("\n".join(lines) + "\n")
    if ctx.out:
        _emit(_report("certify", scn, controller=scn.controller.variant,
                      n=scn.n, w_ref=ctx.w_ref, checks=checks, status=status),
              ctx.out)
    return {"pass": EXIT_PASS, "warn": EXIT_WARN, "fail": EXIT_FAIL}[status]


def _storage_check(plant, ctrl, eq, w_ref, dt) -> dict:
    try:
        params = simulate.lyapunov_parameters(plant, ctrl)
    except PisatError as exc:
        return {"name": "storage_decrease", "status": "fail",
                "detail": str(exc)}
    horizon = 10.0 / float(np.min(plant.a))
    # a step beyond RK4's stability estimate would fail the probe on a
    # blow-up of the integrator, not on the storage function
    dt = simulate.stable_dt(plant, ctrl, dt)
    # no flag sets the probe's span, so a step cap names it with --dt
    traj = _integrate(f"--dt, on the storage probe's horizon 10 / min(a) = "
                      f"{horizon:.3g} h", plant, ctrl, w_ref, eq.x0 + 1.0,
                      eq.z0, (0.0, horizon), dt)
    try:
        trace = simulate.lyapunov_trace(plant, ctrl, eq, traj, params)
    except PisatError as exc:
        return {"name": "storage_decrease", "status": "fail",
                "detail": str(exc), "dt_h": dt, **_rk4_diagnostics(traj)}
    return {"name": "storage_decrease",
            "status": "pass" if trace.passed else "fail",
            "epsilon": params.epsilon,
            "epsilon_bound": (params.epsilon_bound if math.isfinite(
                params.epsilon_bound) else None),     # null: unbounded
            "alpha": params.alpha,
            "beta_min": params.beta_min,
            "gain_norm": params.gain_norm,
            "horizon_h": horizon,
            "dt_h": dt,
            "increase_steps": int(trace.increase_steps.size),
            "value_initial": float(trace.value[0]),
            "value_final": float(trace.value[-1]),
            "vdot_max": float(trace.vdot_analytic.max()),
            **_rk4_diagnostics(traj)}


def _optimality_check(plant, ctrl, w_ref, tol, eq) -> dict:
    gamma = optimality.admissible_gamma(plant)
    try:
        cert = optimality.certify_equilibrium_optimality(gamma, plant, ctrl,
                                                         w_ref, eq, tol=tol)
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
        # a simplex that returns has found the optimum; failures raise
        check.update(lp_cost=cert.lp_cost, cost_gap=cert.cost_gap,
                     lp_status="optimal")
    return check


# --------------------------------------------------------------- simulate


def _z_rest(ctrl, n):
    # PI loops start with an empty integrator; static feedback has none
    return np.zeros(n) if ctrl.is_pi else None


def _rk4_diagnostics(*trajs) -> dict:
    # a staged step evaluates the vector field four times, an affine step
    # not at all; a block is one scan's committed affine steps; several
    # runs report the sums of their counts
    c = simulate.StepCounts(*map(sum, zip(*(t.counts for t in trajs))))
    return {"rk4_steps": c.affine + c.staged, "affine_steps": c.affine,
            "staged_steps": c.staged, "patterns": c.patterns,
            "blocks": c.blocks, "derivative_evaluations": 4 * c.staged}


def _integrate(source: str, *args) -> simulate.Trajectory:
    # with the step and the span checked, integrate raises ValueError
    # only for a run past its step cap, which ``source`` names
    try:
        return simulate.integrate(*args)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _run_from_rest(ctx, ctrl) -> simulate.Trajectory:
    # simulate's and compare's run
    n = ctx.plant.n
    return _integrate("--t-end and --dt", ctx.plant, ctrl, ctx.wsig,
                      np.zeros(n), _z_rest(ctrl, n), (0.0, ctx.t_end),
                      ctx.dt)


def _out_dir(ctx) -> str | None:
    # --out (relative to the working directory), then run.out_dir
    return ctx.out if ctx.out is not None else ctx.run.get("out_dir")


def cmd_simulate(args) -> int:
    ctx = _context(args)
    out_dir = _out_dir(ctx)
    if out_dir is None:
        raise ConfigError("simulate needs --out or run.out_dir")
    scn = ctx.scn
    ctrl = scn.controller
    traj = _run_from_rest(ctx, ctrl)
    costs = simulate.evaluate_costs(traj, heating.default_cost_weights(scn))
    os.makedirs(out_dir, exist_ok=True)
    simulate.write_trajectory_csv(traj, os.path.join(out_dir,
                                                     "trajectory.csv"))
    report = _report("simulate", scn, controller=ctrl.variant, n=scn.n,
                     dt_h=ctx.dt, t_end_h=ctx.t_end,
                     trajectory_csv="trajectory.csv",
                     costs={"j1": costs.j1, "jinf": costs.jinf,
                            "j2": costs.j2, "horizon_h": costs.horizon},
                     diagnostics=_rk4_diagnostics(traj),
                     final_max_abs_x=float(np.max(np.abs(traj.x[-1]))))
    _emit(report, os.path.join(out_dir, "costs.json"))
    return EXIT_PASS


# ---------------------------------------------------------------- compare


def cmd_compare(args) -> int:
    ctx = _context(args)
    names = list(ctx.controllers)
    if len(names) < 2:
        raise ConfigError("compare needs at least two controllers")
    # every controller runs the simulate command's integration, from rest,
    # on one forcing table, freed before the costs are taken so that it
    # does not add to their peak memory
    ctx.wsig = ctx.wsig.shared()
    trajs = []
    for name in names:
        ctrl = _resolve_controller(ctx.scn, name, ctx.plant).controller
        try:
            trajs.append(_run_from_rest(ctx, ctrl))
        except NonFiniteState as exc:
            raise NonFiniteState(f"{name}: {exc}") from exc
    del ctx.wsig
    l_diag = heating.default_cost_weights(ctx.scn)
    rows = []
    for name, traj in zip(names, trajs):
        costs = simulate.evaluate_costs(traj, l_diag)
        rows.append({"controller": name, "j1": costs.j1, "jinf": costs.jinf,
                     "j2": costs.j2,
                     "final_max_abs_x": float(np.max(np.abs(traj.x[-1])))})

    lines = [f"{'controller':<16}{'j1':>14}{'jinf':>14}{'j2':>14}"]
    for row in rows:
        lines.append(f"{row['controller']:<16}{row['j1']:>14.6g}"
                     f"{row['jinf']:>14.6g}{row['j2']:>14.6g}")
    sys.stdout.write("\n".join(lines) + "\n")

    out_dir = _out_dir(ctx)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w",
                  encoding="ascii") as fh:
            fh.write("controller,j1,jinf,j2,final_max_abs_x\n")
            for row in rows:
                fh.write(",".join([row["controller"]]
                                  + [repr(float(row[k])) for k in
                                     ("j1", "jinf", "j2", "final_max_abs_x")])
                         + "\n")
        report = _report("compare", ctx.scn, dt_h=ctx.dt, t_end_h=ctx.t_end,
                         diagnostics=_rk4_diagnostics(*trajs), rows=rows)
        _emit(report, os.path.join(out_dir, "comparison.json"))
    return EXIT_PASS


# ------------------------------------------------------------ equilibrium


def cmd_equilibrium(args) -> int:
    ctx = _context(args)
    scn = ctx.scn
    if scn.controller.variant != model.VARIANT_DECENTRALIZED:
        raise ConfigError("equilibrium solving requires the decentralized "
                          "controller")
    eq = equilibrium.solve_equilibrium(ctx.plant, scn.controller, ctx.w_ref)
    _emit(_report("equilibrium", scn, n=scn.n, w_ref=ctx.w_ref,
                  x0=eq.x0, z0=eq.z0, u0=eq.u0,
                  residual=eq.residual_stationary,
                  iterations=eq.iterations,
                  contraction_bound=eq.cmap.contraction_bound,
                  k=eq.cmap.k), ctx.out)
    bound = RESIDUAL_TOL * eq.scale
    if not eq.residual_stationary <= bound:
        print(f"pisat: stationary residual {eq.residual_stationary:.3e} "
              f"above {bound:.3e} (RESIDUAL_TOL * scale)", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# --------------------------------------------------------------------- lp


def cmd_lp(args) -> int:
    ctx = _context(args)
    plant = ctx.plant
    if ctx.gamma is not None:
        gamma = np.array([_positive(v, "each --gamma value")
                          for v in ctx.gamma.split(",")])
        if gamma.size != plant.n:
            raise ConfigError(f"--gamma needs {plant.n} values")
        # the simplex works on diag(gamma / a) B and gamma / a w
        with np.errstate(all="ignore"):
            gm, gw = optimality._weighted_system(gamma, plant, ctx.w_ref)
            underflow = np.min(gamma / plant.a) < np.finfo(float).tiny
        if underflow or not (np.all(np.isfinite(gm))
                             and np.all(np.isfinite(gw))):
            raise ConfigError("--gamma: gamma / a must be normal floats, "
                              "and diag(gamma / a) B and diag(gamma / a) w "
                              "finite")
    else:
        gamma = optimality.admissible_gamma(plant)
    sol = optimality.solve_weighted_l1_lp(gamma, plant, ctx.w_ref)
    # every simplex failure raises, so a returned solution is optimal
    _emit(_report("lp", ctx.scn, n=ctx.scn.n, gamma=gamma,
                  gamma_condition=optimality.check_gamma_condition(gamma,
                                                                   plant),
                  w_ref=ctx.w_ref, x_star=sol.x_star, v_star=sol.v_star,
                  cost=sol.cost,
                  diagnostics={"pivots": sol.pivots,
                               "bound_flips": sol.bound_flips},
                  lp_status="optimal"), ctx.out)
    return EXIT_PASS


# ------------------------------------------------------------------ wiring


@functools.cache
def build_parser() -> _Parser:
    # built once per process: each command looks up its helpers, such as
    # _context, when it runs, so the parser binds only the commands
    parser = _Parser(prog="pisat",
                     description="Certify and simulate saturated networks "
                                 "under decentralized PI control.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    variants = sorted(model.ALL_VARIANTS)

    cert = sub.add_parser("certify", help="run the certificate suite")
    cert.add_argument("--config", required=True)
    cert.add_argument("--out", help="report path (stdout)")
    cert.add_argument("--controller", choices=variants)
    cert.add_argument("--dt", type=float)
    cert.add_argument("--seed", type=int)
    cert.add_argument("--tol", type=float, help="optimality gap tolerance")
    cert.set_defaults(func=cmd_certify)

    sim = sub.add_parser("simulate", help="integrate and write a trajectory")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--controller", choices=variants)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-end", type=float)
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="cost table across controllers")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--controllers", nargs="+", choices=variants,
                      required=True)
    cmp_.add_argument("--out", help="output directory")
    cmp_.add_argument("--dt", type=float)
    cmp_.add_argument("--t-end", type=float)
    cmp_.set_defaults(func=cmd_compare)

    eqp = sub.add_parser("equilibrium", help="solve the stationary point")
    eqp.add_argument("--config", required=True)
    eqp.add_argument("--out")
    eqp.add_argument("--controller", choices=variants)
    eqp.set_defaults(func=cmd_equilibrium)

    lpp = sub.add_parser("lp", help="solve the weighted allocation program")
    lpp.add_argument("--config", required=True)
    lpp.add_argument("--out")
    lpp.add_argument("--gamma", help="comma-separated positive weights")
    lpp.set_defaults(func=cmd_lp)
    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    # one stderr line per warning, as for errors; the filters still
    # decide which warnings show
    print(f"pisat: warning: {message}", file=sys.stderr)


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
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"pisat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PisatError as exc:
        print(f"pisat: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
