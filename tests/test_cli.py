import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
import weakref

import numpy as np
import pytest

import oracles
from pisat import cli, equilibrium, heating, matrixlab, model, simulate
from pisat.errors import NotMMatrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"
TEXTBOOK = str(CONFIGS / "textbook_single.json")
BENCHMARK = str(CONFIGS / "benchmark_constant.json")


def _run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(list(argv))


def _quiet_scenario(tmp_path, name="quiet"):
    # exterior pinned to the comfort setpoint, so the forcing is zero
    ctrl = model.ControllerSpec("decentralized", [1.0], [0.5], [0.5])
    scn = heating.HeatingScenario(np.array([1.0]), np.array([1.0]),
                                  np.array([[1.0]]), 20.0, 20.0, ctrl,
                                  name=name)
    path = tmp_path / f"{name}.json"
    oracles.save_scenario(scn, path)
    return str(path)


def test_certify_textbook_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _run("certify", "--config", TEXTBOOK, "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    report = json.loads(out.read_text())
    assert report["schema_version"] == 13
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"input_matrix_m", "tuning_margins", "equilibrium_residual",
            "contraction_ratio", "uniqueness_probe", "storage_decrease",
            "allocation_optimality"} <= names
    assert all(c["status"] == "pass" for c in report["checks"])
    by_name = {c["name"]: c for c in report["checks"]}
    # w = -0.3 settles on the linear piece the loop starts from
    assert by_name["equilibrium_residual"]["iterations"] == 1
    assert "pattern_solve" not in by_name["equilibrium_residual"]
    assert set(by_name["uniqueness_probe"]) == {
        "name", "status", "input_spread", "restarts", "scale", "solves"}


def test_certify_solves_equilibrium_once(monkeypatch):
    calls = _count_calls(monkeypatch, equilibrium, "solve_equilibrium")
    assert _run("certify", "--config", TEXTBOOK) == 0
    assert len(calls) == 1
    calls.clear()
    assert _run("certify", "--config", TEXTBOOK, "--tol", "1e-9") == 0
    assert len(calls) == 1


def test_certify_judges_residual_below_rounding_as_fail(tmp_path, capsys):
    # no point rounds to a residual of 1e-303 scale: the report says so
    out = tmp_path / "report.json"
    assert _run("certify", "--config", BENCHMARK, "--tol", "1e-300",
                "--out", str(out)) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    check = {c["name"]: c for c in report["checks"]}["equilibrium_residual"]
    assert check["status"] == "fail"
    assert 0.0 < check["residual"] <= cli.RESIDUAL_TOL * check["scale"]


def test_certify_benchmark_warns(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _run("certify", "--config", BENCHMARK, "--out", str(out)) == 2
    assert "overall: warn" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["status"] == "warn"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["tuning_margins"]["status"] == "warn"
    assert by_name["equilibrium_residual"]["status"] == "pass"


def test_certify_static_marks_not_applicable(tmp_path):
    out = tmp_path / "report.json"
    code = _run("certify", "--config", TEXTBOOK, "--controller", "static",
                "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("equilibrium_residual", "contraction_ratio",
                 "uniqueness_probe", "storage_decrease"):
        assert by_name[name]["status"] == "not_applicable"
    assert by_name["input_matrix_m"]["status"] == "pass"


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command, code, solves", [
    ("certify", 2, 8), ("lp", 0, 4), ("equilibrium", 0, 3)])
def test_linear_solves_per_command(command, code, solves, monkeypatch):
    # the plant's one proof of B gives every scaling of it: certify's
    # report, the contraction map, gamma and the storage weights; lp adds
    # its pattern loop's two rounds and the start's one solve on the free
    # block
    calls = _count_calls(monkeypatch, np.linalg, "solve")
    assert _run(command, "--config", BENCHMARK) == code
    assert len(calls) == solves


@pytest.mark.parametrize("config", [BENCHMARK, TEXTBOOK])
def test_certify_reports_the_dominance_scaling_of_b(config, tmp_path):
    out = tmp_path / "report.json"
    _run("certify", "--config", config, "--out", str(out))
    check = json.loads(out.read_text())["checks"][0]
    assert check["name"] == "input_matrix_m"
    plant, _ = heating.to_standard_form(cli.load_config(config)[0])
    np.testing.assert_allclose(check["dominance_scaling"],
                               matrixlab.column_dominance_scaling(plant.b),
                               rtol=1e-12, atol=0.0)


def test_certify_builds_contraction_once(monkeypatch):
    # the solve's map serves the ratio check and the uniqueness probe
    calls = _count_calls(monkeypatch, equilibrium, "build_contraction")
    assert _run("certify", "--config", BENCHMARK) == 2
    assert len(calls) == 1


def test_certify_large_load_probe_passes(tmp_path):
    # load x 1e5: the rows' spread decides the check at any load
    data = json.loads(pathlib.Path(BENCHMARK).read_text())
    data["t_ext"] = {"constant_degc": 20.0 + 1e5 * (-35.0)}
    cfg = tmp_path / "large_load.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert _run("certify", "--config", str(cfg), "--out", str(out)) == 2
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["uniqueness_probe"]["status"] == "pass"
    assert by_name["uniqueness_probe"]["input_spread"] <= 1e-6


@pytest.mark.parametrize("factor", [1e6, 1e7])
def test_certify_scales_thresholds_with_load(tmp_path, factor):
    # load x 1e6: residual 1.5e-8 at max |u0| 1.75e7, at the
    # floating-point floor of that scale; x 1e7 is ten times further out
    data = json.loads(pathlib.Path(BENCHMARK).read_text())
    data["t_ext"] = {"constant_degc": 20.0 + factor * (-35.0)}
    cfg = tmp_path / "huge_load.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert _run("certify", "--config", str(cfg), "--out", str(out)) == 2
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    resid = by_name["equilibrium_residual"]
    probe = by_name["uniqueness_probe"]
    assert resid["status"] == "pass"
    assert probe["status"] == "pass"
    u0 = np.array(resid["u0"])
    assert resid["scale"] == probe["scale"] >= float(np.max(np.abs(u0)))
    assert resid["residual"] <= 1e-8 * resid["scale"]
    assert probe["input_spread"] <= 1e-6 * probe["scale"]


def _certify_all_pass(tmp_path, data):
    # certify writes its report within 5 s, exits 0 and passes every check
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert _run("certify", "--config", str(cfg), "--out", str(out)) == 0
    assert time.perf_counter() - start < 5.0
    checks = json.loads(out.read_text())["checks"]
    assert {c["status"] for c in checks} == {"pass"}
    return {c["name"]: c for c in checks}


@pytest.mark.parametrize("s_scale", [1e-4, 1e-7, 1e-8])
def test_certify_near_one_bound_passes(tmp_path, s_scale):
    # s / 1e4: bound 0.9999986, which the contraction iteration crawled
    # at; the pattern loop's rounds do not depend on s, so the probe's
    # restarts settle as fast as at s x 1 and agree
    data = json.loads(pathlib.Path(BENCHMARK).read_text())
    data["controller"]["s_degc"] = [s_scale * s
                                    for s in data["controller"]["s_degc"]]
    probe = _certify_all_pass(tmp_path, data)["uniqueness_probe"]
    assert probe["input_spread"] <= 1e-6 * probe["scale"]


def test_certify_generated_network_near_one_bound_passes(tmp_path):
    # the third perfbench network drawn from seed 11, with s / 1e4
    # (bound 0.9999975): the Anderson pass spun 39 s on it and raised
    gen = _gen()
    rng = np.random.default_rng(11)
    for n, ratio in ((1, 4.0), (3, 36.0), (12, 20.0)):
        data = gen.random_network(rng, n, ratio, "seed11")
    data["controller"]["s_degc"] = [1e-4 * s
                                    for s in data["controller"]["s_degc"]]
    _certify_all_pass(tmp_path, data)


def test_certify_storage_probe_starts_far_from_zero(tmp_path):
    # outdoor deviation x 1e3 and s / 1e8 put z0 near 1e13, beyond the
    # integrator's blow-up limit; the probe measures growth from there,
    # and every check passes
    data = json.loads(pathlib.Path(BENCHMARK).read_text())
    data["t_ext"] = {"constant_degc": 20.0 + 1e3 * (-35.0)}
    data["controller"]["s_degc"] = [1e-8 * s
                                    for s in data["controller"]["s_degc"]]
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert _run("certify", "--config", str(cfg), "--out", str(out)) == 0
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert np.max(np.abs(by_name["equilibrium_residual"]["z0"])) > 1e12
    assert by_name["storage_decrease"]["status"] == "pass"


def _gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _scaled(data, load=1.0, s=1.0, a=1.0):
    # outdoor deviation from the setpoint x load, anti-windup s x s and
    # heat loss a x a
    data = json.loads(json.dumps(data))
    x_c = data["x_c_degc"]
    data["t_ext"] = {"constant_degc": x_c + load * (
        data["t_ext"]["constant_degc"] - x_c)}
    data["controller"]["s_degc"] = [s * v
                                    for v in data["controller"]["s_degc"]]
    data["a_kw_per_degc"] = [a * v for v in data["a_kw_per_degc"]]
    return data


def _certify_checks(tmp_path, data):
    cfg = tmp_path / "scaled.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    code = _run("certify", "--config", str(cfg), "--out", str(out))
    return code, {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def _n40_from_seed_11():
    # the n = 40 network drawn after the n = 12 one from seed 11
    gen = _gen()
    rng = np.random.default_rng(11)
    gen.random_network(rng, 12, 20.0, "seed11")
    return gen.random_network(rng, 40, 4.0, "seed11")


@pytest.mark.parametrize("n, iterations, solves", [(None, 2, 23), (12, 3, 33),
                                                   (40, 3, 42)])
def test_certify_pattern_loop_counters_are_pinned(tmp_path, n, iterations,
                                                  solves):
    # the bundled network and seed-5 networks at ratio 4: the loop's rounds
    # and distinct solves, pinned as integers (the floats' last digits
    # can move with the BLAS thread count)
    data = (json.loads(pathlib.Path(BENCHMARK).read_text()) if n is None
            else _gen().random_network(np.random.default_rng(5), n, 4.0,
                                       "seed5"))
    _, by_name = _certify_checks(tmp_path, data)
    assert by_name["equilibrium_residual"]["iterations"] == iterations
    assert by_name["uniqueness_probe"]["solves"] == solves


@pytest.mark.parametrize("base, s", [("textbook", 1.0), ("textbook", 1e-2),
                                     ("n40", 1.0)])
def test_certify_contraction_ratio_holds_at_large_load(tmp_path, base, s):
    # load x 1e7 and a x 1e2 (|u0| = 6e6 on the textbook network): the
    # load cancels in T(a) - T(b), but its rounding measured a ratio of
    # 0.990000002668 against the bound 0.99, beyond the 1e-9 allowance
    data = (json.loads(pathlib.Path(TEXTBOOK).read_text())
            if base == "textbook" else _n40_from_seed_11())
    code, by_name = _certify_checks(tmp_path,
                                    _scaled(data, load=1e7, s=s, a=1e2))
    ratio = by_name["contraction_ratio"]
    assert ratio["status"] == "pass"
    assert ratio["measured"] <= ratio["bound"] + 1e-9
    assert code == 0
    assert np.max(np.abs(by_name["equilibrium_residual"]["u0"])) > 1e6


def test_certify_fails_storage_margin_before_the_probe(tmp_path,
                                                       monkeypatch):
    # a x 1e-2 breaks a_i p_i > r_i on the bundled network: the storage
    # check fails on it without the probe's 239,521 RK4 steps
    calls = _count_calls(monkeypatch, simulate, "integrate")
    data = _scaled(json.loads(pathlib.Path(BENCHMARK).read_text()), a=1e-2)
    code, by_name = _certify_checks(tmp_path, data)
    storage = by_name["storage_decrease"]
    assert code == 1 and storage["status"] == "fail"
    assert "a_i p_i > r_i" in storage["detail"]
    assert calls == []


def test_certify_storage_names_merged_knots(tmp_path):
    # s x 1e-8 and load x 1e7 put |u0| near 1.7e16, where shifting a
    # coordinate's knots -1 and 1 by -u0 rounds both to one value; the
    # shifted pair would read f~ = -2 where it is 0 and V start negative
    data = _scaled(json.loads(pathlib.Path(BENCHMARK).read_text()),
                   load=1e7, s=1e-8)
    code, by_name = _certify_checks(tmp_path, data)
    storage = by_name["storage_decrease"]
    assert code == 1 and storage["status"] == "fail"
    assert "merges" in storage["detail"]
    assert "value_initial" not in storage


def test_certify_fails_merged_knots_before_the_probe(tmp_path, monkeypatch):
    # the probe builds its error plant, the pair shifted to u0, before it
    # steps: merged knots fail the check with no RK4 step, and the entry
    # carries no step or RK4 counters
    calls = _count_calls(monkeypatch, simulate, "integrate")
    data = _scaled(json.loads(pathlib.Path(BENCHMARK).read_text()),
                   load=1e7, s=1e-8)
    code, by_name = _certify_checks(tmp_path, data)
    storage = by_name["storage_decrease"]
    assert code == 1 and storage["status"] == "fail"
    assert "merges" in storage["detail"]
    assert set(storage) == {"name", "status", "detail"}
    assert calls == []


# z0 lies near 1e12 here; a probe that integrated z itself kept only the
# rounding of z in z - z0, and read increases on the steps each case's
# comment counts; the probe integrates the error z - z0 instead
@pytest.mark.parametrize("base, s", [(BENCHMARK, 1e-4),    # 129 of 2,396
                                     (TEXTBOOK, 1e-4),     # 1 of 200
                                     (TEXTBOOK, 1e-8)],    # 8 of 200
                         ids=["bundled-s1e-4", "textbook-s1e-4",
                              "textbook-s1e-8"])
def test_certify_storage_holds_at_large_load(tmp_path, base, s):
    data = _scaled(json.loads(pathlib.Path(base).read_text()), load=1e7, s=s)
    _, by_name = _certify_checks(tmp_path, data)
    storage = by_name["storage_decrease"]
    assert storage["status"] == "pass"
    assert storage["increase_steps"] == 0


# the rest of that sweep, load x 1, 1e3, 1e7 by s x 1, 1e-4, 1e-8 on both
# bases: the 14 cells the two tests above leave out all pass the probe
@pytest.mark.parametrize("base", [BENCHMARK, TEXTBOOK],
                         ids=["bundled", "textbook"])
@pytest.mark.parametrize("load, s", [(load, s) for load in (1.0, 1e3, 1e7)
                                     for s in (1.0, 1e-4, 1e-8)
                                     if load < 1e7 or s == 1.0])
def test_certify_storage_holds_across_the_sweep(tmp_path, base, load, s):
    data = _scaled(json.loads(pathlib.Path(base).read_text()), load=load, s=s)
    code, by_name = _certify_checks(tmp_path, data)
    storage = by_name["storage_decrease"]
    assert code in (0, 2)
    assert storage["status"] == "pass"
    assert storage["increase_steps"] == 0


def test_certify_storage_rises_on_the_loop_at_a_times_100(tmp_path):
    # a x 1e2 on the bundled network breaks p_i s_i < 1 (antiwindup
    # margin -4 on every agent); V rises on probe steps 5 and 6, where
    # the analytic dV/dt reaches +0.0148, so the loop itself raises V and
    # rounding does not; at a x 1 dV/dt stays negative along the probe
    bundled = json.loads(pathlib.Path(BENCHMARK).read_text())
    code, by_name = _certify_checks(tmp_path, _scaled(bundled, a=1e2))
    storage = by_name["storage_decrease"]
    assert code == 1 and storage["status"] == "fail"
    assert storage["increase_steps"] == 2
    assert storage["vdot_max"] > 0.0
    assert by_name["tuning_margins"]["status"] == "warn"
    assert max(by_name["tuning_margins"]["antiwindup_margin"]) < 0.0
    _, by_name = _certify_checks(tmp_path, bundled)
    assert by_name["storage_decrease"]["vdot_max"] < 0.0


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_every_report_is_strict_json(tmp_path):
    # Infinity and NaN are not JSON (RFC 8259), and jq and JSON.parse
    # reject them; the textbook network's unbounded epsilon reads null
    for cfg in ("benchmark_cold_snap", "benchmark_constant",
                "run_cold_snap", "textbook_single"):
        for command in ("certify", "equilibrium", "lp", "simulate",
                        "compare"):
            out = tmp_path / cfg / command
            out.parent.mkdir(exist_ok=True)
            argv = [command, "--config", str(CONFIGS / f"{cfg}.json")]
            if command == "compare":
                argv += ["--controllers", "decentralized", "static"]
            if command not in ("simulate", "compare"):
                out = out.with_suffix(".json")
            assert _run(*argv, "--out", str(out)) in (cli.EXIT_PASS,
                                                      cli.EXIT_WARN)
    reports = sorted(tmp_path.rglob("*.json"))
    assert len(reports) == 4 * 5
    for path in reports:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    storage, = (c for c in json.loads(
        (tmp_path / "textbook_single" / "certify.json").read_text())["checks"]
        if c["name"] == "storage_decrease")
    assert storage["epsilon_bound"] is None and storage["epsilon"] == 1.0
    with pytest.raises(ValueError):
        cli._emit({"bound": math.inf}, str(tmp_path / "inf.json"))


def test_certify_reports_unit_scale_on_bundled_load(tmp_path):
    out = tmp_path / "report.json"
    assert _run("certify", "--config", TEXTBOOK, "--out", str(out)) == 0
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("equilibrium_residual", "uniqueness_probe"):
        assert by_name[name]["scale"] >= 1.0
        assert by_name[name]["status"] == "pass"


def _textbook_plant():
    scn, _ = cli.load_config(TEXTBOOK)
    return heating.to_standard_form(scn)[0], scn.controller


def test_certify_probe_step_is_cut_to_stability_bound(tmp_path):
    # the storage probe steps with the run's dt, cut to the integrator's
    # RK4 stability estimate (1.46 h on the textbook loop), and reports
    # the step it took
    bound = simulate.stable_dt(*_textbook_plant(), math.inf)
    assert 0.05 < bound < 1.5
    steps = []
    for dt, want in (([], 0.05), (["--dt", "1.5"], bound)):
        out = tmp_path / f"report{len(steps)}.json"
        assert _run("certify", "--config", TEXTBOOK, "--out", str(out),
                    *dt) == 0
        storage = next(c for c in json.loads(out.read_text())["checks"]
                       if c["name"] == "storage_decrease")
        assert storage["dt_h"] == want
        assert "stability_warning" not in storage
        steps.append(storage["rk4_steps"])
    assert steps == [200, math.ceil(10.0 / bound)]


@pytest.mark.parametrize("argv, code", [
    (("certify",), 0), (("simulate", "--t-end", "5"), 0),
    (("equilibrium",), 64)])
def test_static_override_builds_standard_form_once(monkeypatch, tmp_path,
                                                   argv, code):
    calls = _count_calls(monkeypatch, heating, "to_standard_form")
    extra = ("--out", str(tmp_path / "sim")) if argv[0] == "simulate" else ()
    assert _run(*argv, "--config", TEXTBOOK, "--controller", "static",
                *extra) == code
    assert len(calls) == 1


def test_static_override_fails_without_standard_form(monkeypatch, tmp_path,
                                                     capsys):
    # the static default gain needs the plant: no report, as for any
    # other solver error
    def broken(scn):
        raise NotMMatrix("input coupling must be an M-matrix")

    monkeypatch.setattr(heating, "to_standard_form", broken)
    static_out = tmp_path / "static.json"
    assert _run("certify", "--config", TEXTBOOK, "--controller", "static",
                "--out", str(static_out)) == 1
    assert not static_out.exists()
    assert "NotMMatrix" in capsys.readouterr().err


def _textbook_with(tmp_path, **fields):
    data = json.loads(pathlib.Path(TEXTBOOK).read_text())
    data.update(fields)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


@pytest.mark.parametrize("fields,quantity", [
    ({"a_kw_per_degc": [1e300], "c_kwh_per_degc": [1e-10]}, "a must be"),
    ({"b_heat_kw": [[1e300]], "c_kwh_per_degc": [1e-10]}, "matrix entries"),
    ({"a_kw_per_degc": [10.0], "t_ext": {"constant_degc": -1e308}},
     "constant disturbance"),
    ({"a_kw_per_degc": [1e-300], "b_heat_kw": [[1e10]]}, "static gain"),
])
@pytest.mark.parametrize("command", ["certify", "equilibrium", "lp"])
def test_overflowing_standard_form_is_config_error(fields, quantity, command,
                                                   tmp_path, capsys):
    # finite scenario values whose standard form (a / c, b / c or the
    # load) leaves the floating-point range
    err = _assert_usage_error([command, "--config",
                               _textbook_with(tmp_path, **fields)], capsys)
    assert quantity in err


@pytest.mark.parametrize("command",
                         ["certify", "equilibrium", "lp", "simulate"])
def test_non_m_coupling_fails_with_one_line(command, tmp_path, capsys):
    # b_heat is upper triangular with a positive coupling: no M-matrix
    ctrl = {"variant": "decentralized", "p_per_degc": [1.0, 1.0],
            "r_per_degc_h": [0.5, 0.5], "s_degc": [0.5, 0.5]}
    cfg = _textbook_with(tmp_path, a_kw_per_degc=[1.0, 1.0],
                         c_kwh_per_degc=[1.0, 1.0],
                         b_heat_kw=[[1.0, 2.0], [0.0, 1.0]], controller=ctrl)
    out = tmp_path / "out"
    assert _run(command, "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pisat: NotMMatrix: input coupling must be an M-matrix"]
    assert not out.exists()


def test_overflowing_standard_form_prints_one_line(tmp_path):
    # the overflow is part of the error message, not a numpy warning
    # printed before it
    cfg = _textbook_with(tmp_path, a_kw_per_degc=[1e300],
                         c_kwh_per_degc=[1e-10])
    proc = subprocess.run([sys.executable, "-m", "pisat", "lp", "--config",
                           cfg], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 64
    assert proc.stderr.splitlines() == [
        "pisat: ConfigError: standard form out of floating-point range: "
        "a must be finite (overflow encountered in divide)"]


@pytest.mark.parametrize("name, argv, code, error", [
    ("textbook_single", ["--dt", "1.5", "--t-end", "3"], 0, None),
    ("benchmark_cold_snap", ["--dt", "100"], 1,
     "pisat: NonFiniteState: state left +-1e+12 near t=300 (step 3)")])
def test_warning_prints_one_line(name, argv, code, error, tmp_path):
    # a warning is one stderr line, as an error is, not Python's two-line
    # format with the source line
    config = str(CONFIGS / f"{name}.json")
    proc = subprocess.run([sys.executable, "-m", "pisat", "simulate",
                           "--config", config, "--out", str(tmp_path),
                           *argv], capture_output=True, text=True,
                          env=_src_env())
    scn, _ = cli.load_config(config)
    bound = simulate.stable_dt(heating.to_standard_form(scn)[0],
                               scn.controller, math.inf)
    warning = (f"pisat: warning: dt={argv[1]} exceeds the linear-regime "
               f"stability estimate {bound:.3g}; expect inaccuracy or "
               f"blow-up")
    assert proc.returncode == code
    assert proc.stderr.splitlines() == [warning] + ([error] if error else [])


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert _run("simulate", "--config", TEXTBOOK, "--out", str(out),
                "--t-end", "30") == 0
    traj = simulate.read_trajectory_csv(out / "trajectory.csv")
    costs = json.loads((out / "costs.json").read_text())
    assert costs["schema_version"] == 13
    assert costs["costs"]["j1"] > 0.0
    assert costs["final_max_abs_x"] == pytest.approx(
        float(np.max(np.abs(traj.x[-1]))))
    assert traj.t[-1] == pytest.approx(30.0)


def test_simulate_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("simulate", "--config", TEXTBOOK, "--out", str(out),
                    "--t-end", "20") == 0
        outs.append(out)
    for fname in ("trajectory.csv", "costs.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_zero_forcing_zero_costs(tmp_path):
    cfg = _quiet_scenario(tmp_path)
    out = tmp_path / "quiet_run"
    assert _run("simulate", "--config", cfg, "--out", str(out),
                "--t-end", "10") == 0
    costs = json.loads((out / "costs.json").read_text())
    assert costs["costs"]["j1"] == 0.0
    assert costs["costs"]["jinf"] == 0.0
    assert costs["costs"]["j2"] == 0.0
    assert costs["final_max_abs_x"] == 0.0


def test_simulate_static_override_zero_z_columns(tmp_path):
    out = tmp_path / "static_run"
    assert _run("simulate", "--config", TEXTBOOK, "--controller", "static",
                "--out", str(out), "--t-end", "10") == 0
    traj = simulate.read_trajectory_csv(out / "trajectory.csv")
    assert traj.z is None or not np.any(traj.z)


def test_simulate_horizon_below_one_step(tmp_path, capsys):
    out = tmp_path / "short"
    assert _run("simulate", "--config", TEXTBOOK, "--out", str(out),
                "--t-end", "1e-14") == 0
    assert "Traceback" not in capsys.readouterr().err
    traj = simulate.read_trajectory_csv(out / "trajectory.csv")
    assert traj.t.tolist() == [0.0, 1e-14]


def test_certify_fast_decay_probe_steps_at_stability_bound(tmp_path):
    # decay 200 / h: the run's dt 0.05 h is four times the RK4 stability
    # estimate, where one probe step took V from 0.584 to 43,089; the
    # probe steps at the estimate instead, and its storage decreases
    cfg = _textbook_with(tmp_path, a_kw_per_degc=[200.0])
    scn, _ = cli.load_config(cfg)
    bound = simulate.stable_dt(heating.to_standard_form(scn)[0],
                               scn.controller, math.inf)
    assert bound < 0.05 / 4.0
    out = tmp_path / "report.json"
    assert _run("certify", "--config", cfg, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    check = {c["name"]: c for c in report["checks"]}["storage_decrease"]
    assert check["status"] == "pass" and check["increase_steps"] == 0
    assert check["dt_h"] == bound
    assert check["rk4_steps"] == math.ceil(check["horizon_h"] / bound)
    assert check["value_final"] < check["value_initial"]


def test_certify_cut_probe_step_takes_the_eigenvalues_once(tmp_path,
                                                          monkeypatch):
    # the probe's cut dt is the stability bound itself, which the norm
    # test cannot clear; integrate's warning check reuses the spectrum
    simulate._spectral_dt.cache_clear()
    calls = _count_calls(monkeypatch, np.linalg, "eigvals")
    cfg = _textbook_with(tmp_path, a_kw_per_degc=[200.0])
    assert _run("certify", "--config", cfg) == 0
    assert calls == ["eigvals"]


@pytest.mark.parametrize("cap, argv, code, error", [
    (20, ["--dt", "0.25", "--t-end", "5.25"], 64, "ConfigError"),
    (None, ["--dt", "5.0", "--t-end", "500"], 1, "NonFiniteState")])
def test_failed_simulate_leaves_no_directory(cap, argv, code, error,
                                             monkeypatch, tmp_path, capsys):
    # a run refused for its step cap (one agent, 21 steps past a cap of
    # 20), and a run that blows up
    if cap is not None:
        monkeypatch.setattr(simulate, "MAX_AGENT_STEPS", cap)
    out = tmp_path / "out"
    assert _run("simulate", "--config", TEXTBOOK, "--out", str(out),
                *argv) == code
    assert capsys.readouterr().err.startswith(f"pisat: {error}: ")
    assert not out.exists()


def test_simulate_blowup_fails(tmp_path, capsys):
    out = tmp_path / "boom"
    code = _run("simulate", "--config", TEXTBOOK, "--out", str(out),
                "--dt", "5.0", "--t-end", "500")
    assert code == 1
    assert "NonFiniteState" in capsys.readouterr().err


def test_compare_blowup_names_the_controller(capsys):
    # static runs through at dt = 10 h; decentralized, run after it,
    # blows up, and the message says which controller did
    code = _run("compare", "--config",
                str(CONFIGS / "benchmark_cold_snap.json"), "--controllers",
                "static", "decentralized", "--dt", "10")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "pisat: NonFiniteState: decentralized: state left +-1e+12 near "
        "t=140 (step 14)"]


def test_compare_is_simulate_per_controller(tmp_path):
    # each row of comparison.csv holds the text of that controller's
    # simulate costs, and comparison.json's counters are their sums
    cold = str(CONFIGS / "benchmark_cold_snap.json")
    names = ("decentralized", "coordinating", "static")
    assert _run("compare", "--config", cold, "--controllers", *names,
                "--out", str(tmp_path / "cmp")) == 0
    lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    sims = []
    for name, line in zip(names, lines[1:], strict=True):
        out = tmp_path / name
        assert _run("simulate", "--config", cold, "--controller", name,
                    "--out", str(out)) == 0
        sims.append(json.loads((out / "costs.json").read_text()))
        costs = sims[-1]["costs"]
        assert line.split(",") == [name] + [
            repr(v) for v in (costs["j1"], costs["jinf"], costs["j2"],
                              sims[-1]["final_max_abs_x"])]
    diag = json.loads((tmp_path / "cmp" / "comparison.json").read_text())[
        "diagnostics"]
    assert diag == {k: sum(sim["diagnostics"][k] for sim in sims)
                    for k in _RK4_COUNTERS}


def _count_interp(monkeypatch):
    calls, interp = [], np.interp

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return interp(*args, **kwargs)
    monkeypatch.setattr(np, "interp", counted)
    return calls


def test_compare_samples_the_forcing_once(monkeypatch):
    # the three controllers integrate on one forcing table, so compare
    # interpolates once per agent over the 3 stage times of every step
    cold = str(CONFIGS / "benchmark_cold_snap.json")
    n = len(json.loads(pathlib.Path(cold).read_text())["a_kw_per_degc"])
    calls = _count_interp(monkeypatch)
    assert _run("compare", "--config", cold, "--controllers",
                "decentralized", "coordinating", "static",
                "--t-end", "24") == 0
    assert calls == [3 * 480] * n


def test_simulate_drops_the_forcing_before_writing(tmp_path, monkeypatch):
    # simulate's one run keeps no forcing table past its integrate call
    cold = str(CONFIGS / "benchmark_cold_snap.json")
    tables, call = [], model.DisturbanceSignal.__call__

    def sample(self, t):
        table = call(self, t)
        tables.append(weakref.ref(table))
        return table
    monkeypatch.setattr(model.DisturbanceSignal, "__call__", sample)
    written, write = [], simulate.write_trajectory_csv

    def checked(traj, path):
        written.append([ref() is None for ref in tables])
        write(traj, path)
    monkeypatch.setattr(simulate, "write_trajectory_csv", checked)
    calls = _count_interp(monkeypatch)
    assert _run("simulate", "--config", cold, "--t-end", "24",
                "--out", str(tmp_path)) == 0
    n = len(json.loads(pathlib.Path(cold).read_text())["a_kw_per_degc"])
    assert written == [[True]] and calls == [3 * 480] * n


def test_compare_table_and_files(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = _run("compare", "--config", BENCHMARK, "--controllers",
                "decentralized", "coordinating", "static",
                "--out", str(out), "--t-end", "40")
    assert code == 0
    table = capsys.readouterr().out
    for name in ("decentralized", "coordinating", "static"):
        assert name in table
    rows = oracles.read_comparison_csv(out / "comparison.csv")
    assert [r["controller"] for r in rows] == ["decentralized",
                                               "coordinating", "static"]
    report = json.loads((out / "comparison.json").read_text())
    assert len(report["rows"]) == 3
    for row, jrow in zip(rows, report["rows"]):
        assert row["j1"] == pytest.approx(jrow["j1"])


def test_compare_duplicates_are_identical_rows(tmp_path):
    out = tmp_path / "dup"
    code = _run("compare", "--config", TEXTBOOK, "--controllers",
                "decentralized", "decentralized", "--out", str(out),
                "--t-end", "20")
    assert code == 0
    rows = oracles.read_comparison_csv(out / "comparison.csv")
    assert len(rows) == 2
    assert rows[0] == rows[1]


def test_compare_rejects_single_controller():
    assert _run("compare", "--config", TEXTBOOK,
                "--controllers", "static") == 64


def test_equilibrium_report(tmp_path):
    out = tmp_path / "eq.json"
    assert _run("equilibrium", "--config", TEXTBOOK, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    # textbook regression: w = -0.3 settles inside the linear band
    np.testing.assert_allclose(report["x0"], [0.0], atol=1e-9)
    np.testing.assert_allclose(report["z0"], [-0.6], atol=1e-9)
    np.testing.assert_allclose(report["u0"], [0.3], atol=1e-9)
    assert report["residual"] <= 1e-10
    assert report["iterations"] == 1
    assert "pattern_solve" not in report
    assert 0.0 < report["contraction_bound"] < 1.0


def test_equilibrium_on_pattern_reaches_rounding_floor(tmp_path):
    # the solve on the saturation pattern lands far below the contraction
    # iteration's own residual (7.5e-11 on the bundled network)
    out = tmp_path / "eq.json"
    assert _run("equilibrium", "--config", BENCHMARK, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["residual"] <= 1e-13


def test_equilibrium_reports_then_fails_above_residual_tol(monkeypatch,
                                                           tmp_path, capsys):
    # the bundled network rounds to a residual of about 1e-14 scale
    monkeypatch.setattr(cli, "RESIDUAL_TOL", 1e-30)
    out = tmp_path / "eq.json"
    assert _run("equilibrium", "--config", BENCHMARK, "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert report["residual"] > 1e-30
    err = capsys.readouterr().err
    assert "residual" in err and "Traceback" not in err


def test_equilibrium_takes_no_tol():
    assert _run("equilibrium", "--config", TEXTBOOK, "--tol", "1") == 64


def test_equilibrium_iterations_bounded_and_repeatable(tmp_path):
    counts = []
    for k in range(2):
        out = tmp_path / f"eq{k}.json"
        assert _run("equilibrium", "--config", BENCHMARK,
                    "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["residual"] <= 1e-10
        counts.append(report["iterations"])
    assert counts[0] == counts[1] <= 4


def test_equilibrium_requires_pi_variant():
    assert _run("equilibrium", "--config", TEXTBOOK,
                "--controller", "static") == 64


def test_lp_report(tmp_path):
    out = tmp_path / "lp.json"
    assert _run("lp", "--config", BENCHMARK, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["lp_status"] == "optimal"
    assert report["gamma_condition"] is True
    assert report["cost"] == pytest.approx(0.4597947668800342, abs=1e-9)
    assert len(report["v_star"]) == 10
    assert np.all(np.abs(report["v_star"]) <= 1.0 + 1e-12)


_RK4_COUNTERS = ("rk4_steps", "affine_steps", "staged_steps", "patterns",
                 "blocks", "derivative_evaluations")


def _assert_rk4_counters(diag, steps):
    assert set(diag) == set(_RK4_COUNTERS)
    assert diag["rk4_steps"] == steps
    assert diag["affine_steps"] + diag["staged_steps"] == steps
    assert diag["derivative_evaluations"] == 4 * diag["staged_steps"]


_LOPSIDED = "1,1,1,1,1,1,1,1,10,10"


def test_diagnostics_counters_repeat(tmp_path):
    # deterministic counters: two runs of each command report the same
    # ones
    diags = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert _run("simulate", "--config", BENCHMARK, "--t-end", "40",
                    "--out", str(out / "sim")) == 0
        assert _run("compare", "--config", BENCHMARK, "--t-end", "40",
                    "--controllers", "decentralized", "coordinating",
                    "static", "--out", str(out / "cmp")) == 0
        # a gamma that breaks the condition, so the simplex pivots from
        # the loop's pattern
        assert _run("lp", "--config", BENCHMARK, "--gamma", _LOPSIDED,
                    "--out", str(out / "lp.json")) == 0
        # exit 2: the benchmark's tuning margins only warn
        assert _run("certify", "--config", BENCHMARK,
                    "--out", str(out / "certify.json")) == 2
        reports = (out / "sim" / "costs.json", out / "cmp" / "comparison.json",
                   out / "lp.json")
        diags[run] = [json.loads(p.read_text())["diagnostics"]
                      for p in reports]
        storage, = (c for c in json.loads(
            (out / "certify.json").read_text())["checks"]
            if c["name"] == "storage_decrease")
        diags[run].append({k: storage[k] for k in _RK4_COUNTERS})
        assert all(json.loads(p.read_text())["schema_version"] == 13
                   for p in reports + (out / "certify.json",))
    assert diags["a"] == diags["b"]
    sim, cmp_, lp, probe = diags["a"]
    _assert_rk4_counters(sim, 800)
    _assert_rk4_counters(cmp_, 3 * 800)
    # the constant load holds a pattern long enough to build its map,
    # and then long enough that its scans double past their first 8 steps
    assert sim["affine_steps"] > 0 and sim["patterns"] > 0
    assert 0 < sim["blocks"] and 8 * sim["blocks"] < sim["affine_steps"]
    assert set(lp) == {"pivots", "bound_flips"}
    assert lp["pivots"] > 0
    # the storage probe runs 10 / min(a) hours at the default step
    scn, _ = cli.load_config(BENCHMARK)
    plant, _ = heating.to_standard_form(scn)
    _assert_rk4_counters(probe,
                         math.ceil(10.0 / float(np.min(plant.a)) / 0.05
                                   - 1e-9))


def test_cold_snap_simulate_counts_sampled_blocks(tmp_path):
    # the cold snap's sampled load steps in scans while a pattern holds;
    # its counters repeat across runs
    diags = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert _run("simulate", "--config",
                    str(CONFIGS / "benchmark_cold_snap.json"),
                    "--out", str(out)) == 0
        report = json.loads((out / "costs.json").read_text())
        assert report["schema_version"] == 13
        diags.append(report["diagnostics"])
    assert diags[0] == diags[1]
    diag = diags[0]
    _assert_rk4_counters(diag, diag["rk4_steps"])
    assert 0 < diag["blocks"] and 8 * diag["blocks"] < diag["affine_steps"]
    # pinned under the build and scan rules
    assert diag == dict(zip(_RK4_COUNTERS, (6720, 6675, 45, 12, 80, 180)))


def test_rk4_counters_are_pinned(tmp_path):
    # the counters of the cold snap's compare (the sums of its three
    # controllers' runs) and of the bundled network's storage probe, under
    # the build and scan rules
    cold = str(CONFIGS / "benchmark_cold_snap.json")
    assert _run("compare", "--config", cold, "--controllers",
                "decentralized", "coordinating", "static",
                "--out", str(tmp_path)) == 0
    assert _run("certify", "--config", BENCHMARK,
                "--out", str(tmp_path / "certify.json")) == 2
    cmp_ = json.loads((tmp_path / "comparison.json").read_text())
    storage, = (c for c in json.loads(
        (tmp_path / "certify.json").read_text())["checks"]
        if c["name"] == "storage_decrease")
    assert cmp_["diagnostics"] == dict(zip(_RK4_COUNTERS,
                                           (20160, 20067, 93, 22, 206, 372)))
    assert ({k: storage[k] for k in _RK4_COUNTERS}
            == dict(zip(_RK4_COUNTERS, (2396, 2389, 7, 2, 16, 28))))


def test_parser_is_built_once_per_process(monkeypatch, tmp_path):
    # every in-process main shares one parser, and the commands still
    # look up the module's _context when they run
    assert cli.build_parser() is cli.build_parser()
    seen = []
    context = cli._context

    def spy(args):
        seen.append(args.command)
        return context(args)
    monkeypatch.setattr(cli, "_context", spy)
    assert _run("equilibrium", "--config", TEXTBOOK,
                "--out", str(tmp_path / "eq.json")) == 0
    assert _run("lp", "--config", TEXTBOOK,
                "--out", str(tmp_path / "lp.json")) == 0
    assert seen == ["equilibrium", "lp"]


def test_lp_rejects_bad_gamma():
    assert _run("lp", "--config", BENCHMARK, "--gamma", "1,2") == 64
    assert _run("lp", "--config", BENCHMARK,
                "--gamma", ",".join(["-1"] * 10)) == 64


def test_usage_errors(tmp_path):
    assert _run("frobnicate") == 64
    assert _run("certify") == 64
    assert _run("certify", "--config", str(tmp_path / "missing.json")) == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("certify", "--config", str(bad)) == 64
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(
        {"scenario": "textbook_single.json", "run": {"dt": 0.1}}))
    assert _run("certify", "--config", str(unknown)) == 64
    assert _run("simulate", "--config", TEXTBOOK) == 64  # nowhere to write


def _assert_usage_error(argv, capsys):
    # exit 64 with a one-line message on stderr, never a traceback
    assert cli.main(list(argv)) == 64
    err = capsys.readouterr().err
    assert err.startswith("pisat: ConfigError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


_COORDINATING = {"variant": "coordinating", "p_per_degc": [1.0],
                 "r_per_degc_h": [0.5], "s_degc": [0.5]}


@pytest.mark.parametrize("key,value", [
    ("controller", {**_COORDINATING, "p_per_degc": [-1.0]}),
    ("controller", {**_COORDINATING, "beta": -0.5}),
    ("a_kw_per_degc", [math.nan]),
    ("c_kwh_per_degc", [math.inf]),
    ("b_heat_kw", [[math.nan]]),
    ("x_c_degc", math.nan),
    ("t_ext", {"constant_degc": math.nan}),
    ("t_ext", {"time_h": [0.0, 1.0]}),
    ("t_ext", {"time_h": [0.0, 1.0], "temp_degc": [math.nan, -1.0]}),
    # sizes that disagree
    ("a_kw_per_degc", [1.0, 1.0]),
    ("controller", {**_COORDINATING, "variant": "decentralized",
                    "p_per_degc": [1.0, 1.0]}),
    ("t_ext", {"time_h": [0.0, 1.0, 2.0], "temp_degc": [-1.0, -1.0]}),
    # a controller as wide as a network of two, on a network of one
    ("controller", {**_COORDINATING, "p_per_degc": [1.0, 1.0],
                    "r_per_degc_h": [0.5, 0.5], "s_degc": [0.5, 0.5]}),
    ("controller", {"variant": "static", "k_static": [[1.0, 0.0],
                                                      [0.0, 1.0]]}),
    ("controller", {**_COORDINATING, "beta": math.inf}),
    ("controller", {**_COORDINATING, "variant": "proportional"}),
    # JSON true where a number belongs, which numpy reads as 1
    ("x_c_degc", True),
    ("t_ext", {"constant_degc": True}),
    ("a_kw_per_degc", [True]),
    ("controller", {**_COORDINATING, "beta": True}),
    ("controller", {**_COORDINATING, "p_per_degc": [True]}),
])
def test_malformed_scenario_values(key, value, tmp_path, capsys):
    data = json.loads(pathlib.Path(TEXTBOOK).read_text())
    data[key] = value
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(data))
    _assert_usage_error(["certify", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("config,gamma", [
    pytest.param(config, gamma, id=gamma) for config, gamma in [
        (BENCHMARK, "1,,2"), (BENCHMARK, "x"),
        (BENCHMARK, ",".join(["1"] * 9 + ["nan"])),
        (BENCHMARK, ",".join(["inf"] + ["1"] * 9)),
        # diag(gamma) A^-1 B overflows, and gamma / a underflows
        (BENCHMARK, ",".join(["1e308"] + ["1"] * 9)),
        (TEXTBOOK, "1e-320")]])
def test_lp_rejects_unparsable_or_non_finite_gamma(config, gamma, capsys):
    err = _assert_usage_error(["lp", "--config", config, "--gamma", gamma],
                              capsys)
    assert "--gamma" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "0"],
    ["simulate", "--dt", "nan"],
    ["simulate", "--t-end", "inf"],
    ["compare", "--controllers", "decentralized", "static", "--t-end", "-5"],
    ["compare", "--controllers", "decentralized", "static", "--dt", "-0.1"],
    # steps past the float range
    ["simulate", "--t-end", "1e300", "--dt", "1e-300"],
    ["compare", "--controllers", "decentralized", "static", "--t-end",
     "1e300", "--dt", "1e-300"],
    ["certify", "--tol", "nan"],
    ["certify", "--tol", "0"],
    ["certify", "--dt", "inf"],
    ["certify", "--tol", "inf"],
    ["certify", "--seed", "-1"],
])
def test_bad_step_horizon_and_tolerance_flags(argv, tmp_path, capsys):
    argv = argv[:1] + ["--config", TEXTBOOK] + argv[1:]
    if argv[0] in ("simulate", "compare"):
        argv += ["--out", str(tmp_path / "out")]
    _assert_usage_error(argv, capsys)


@pytest.mark.parametrize("command", [
    ["simulate"], ["compare", "--controllers", "decentralized", "static"],
    ["certify"]])
def test_step_cap_is_config_error(command, monkeypatch, tmp_path, capsys):
    # the textbook network has one agent: 20 steps of 0.25 h pass a cap
    # of 20, 21 do not; certify's storage probe spans 10 / a = 10 h, so
    # there 20 steps of 0.5 h pass and steps of 0.49 h do not
    monkeypatch.setattr(simulate, "MAX_AGENT_STEPS", 20)
    argv = (command[:1] + ["--config", TEXTBOOK,
                           "--out", str(tmp_path / "out")] + command[1:])
    if command[0] == "certify":
        fits, past = ["--dt", "0.5"], ["--dt", "0.49"]
    else:
        fits = ["--dt", "0.25", "--t-end", "5"]
        past = ["--dt", "0.25", "--t-end", "5.25"]
    assert _run(*argv, *fits) == 0
    _assert_usage_error(argv + past, capsys)


def test_certify_step_cap_names_the_storage_probe(tmp_path, capsys):
    # decay a = 1e-6 /h: the probe spans its fixed horizon 10 / a = 1e7 h,
    # 2e8 steps of the default dt, which no flag sets; --dt 100 clears it
    data = json.loads(pathlib.Path(TEXTBOOK).read_text())
    data["c_kwh_per_degc"] = [1e6]
    data["controller"]["r_per_degc_h"] = [5e-7]
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps(data))
    err = _assert_usage_error(["certify", "--config", str(cfg)], capsys)
    assert "storage probe's horizon 10 / min(a) = 1e+07 h" in err
    assert "2e+08 steps" in err
    assert _run("certify", "--config", str(cfg), "--dt", "100") == 0


@pytest.mark.parametrize("command,run", [
    (["simulate"], {"dt_h": 0}),
    (["simulate"], {"t_end_h": "long"}),
    (["compare", "--controllers", "decentralized", "static"],
     {"t_end_h": -5.0}),
    (["certify"], {"tol": -1e-6}),
    (["certify"], {"dt_h": None, "tol": "tight"}),
    (["certify"], {"seed": "x"}),
    (["certify"], {"seed": -3}),
    (["certify"], {"seed": 1.5}),
    (["certify"], {"seed": True}),
    (["simulate"], {"out_dir": 5}),
    (["simulate"], {"out_dir": ["a"]}),
    (["simulate"], {"dt_h": True}),
    (["certify"], {"tol": True}),
])
def test_bad_step_horizon_and_tolerance_run_keys(command, run, tmp_path,
                                                 capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": TEXTBOOK, "run": run}))
    argv = command[:1] + ["--config", str(cfg)] + command[1:]
    if command[0] in ("simulate", "compare") and "out_dir" not in run:
        argv += ["--out", str(tmp_path / "out")]
    _assert_usage_error(argv, capsys)


@pytest.mark.parametrize("config", [
    [TEXTBOOK],                                  # a top-level list
    {"scenario": TEXTBOOK, "runs": {}},          # an unknown top-level key
    {"scenario": TEXTBOOK, "run": [["dt_h", 0.1]]},  # a run that is a list
])
def test_malformed_config_layout(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    _assert_usage_error(["certify", "--config", str(cfg)], capsys)


def test_inline_scenario_config_matches_the_bare_scenario(tmp_path,
                                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": json.loads(pathlib.Path(TEXTBOOK).read_text())}))
    assert _run("certify", "--config", TEXTBOOK) == 0
    bare = capsys.readouterr().out
    assert _run("certify", "--config", str(cfg)) == 0
    assert capsys.readouterr().out == bare


def test_static_config_cannot_build_a_pi_controller(tmp_path, capsys):
    data = json.loads(pathlib.Path(TEXTBOOK).read_text())
    data["controller"] = {"variant": "static", "k_static": [[1.0]]}
    cfg = tmp_path / "static.json"
    cfg.write_text(json.dumps(data))
    assert _run("certify", "--config", str(cfg)) == 0
    err = _assert_usage_error(["certify", "--config", str(cfg),
                               "--controller", "decentralized"], capsys)
    assert "config carries no PI gains" in err


def test_seed_flag_only_on_certify(tmp_path):
    # simulate and compare draw no random numbers, so they take no --seed
    assert _run("simulate", "--config", TEXTBOOK, "--seed", "1",
                "--out", str(tmp_path / "sim")) == 64
    assert _run("compare", "--config", TEXTBOOK, "--controllers",
                "decentralized", "static", "--seed", "1") == 64
    assert _run("certify", "--config", TEXTBOOK, "--seed", "1") == 0


_REQUIRED = {"compare": ["--controllers", "decentralized", "static"]}


def _settings_taken():
    # (command, dest) for each settings row the command's parser defines
    parser = cli.build_parser()
    return [(command, dest)
            for command in ("certify", "simulate", "compare", "equilibrium",
                            "lp")
            for dest in cli._SETTINGS
            if dest in vars(parser.parse_args(
                [command, "--config", TEXTBOOK, *_REQUIRED.get(command, [])]))]


# dest -> (flag value, run value, default on the textbook config)
_PRECEDENCE = {"controller": ("coordinating", "static", "decentralized"),
               "dt": (0.2, 0.1, 0.05), "t_end": (7.0, 5.0, 336.0),
               "seed": (3, 2, 0), "tol": (1e-5, 1e-4, 1e-6)}


def test_readme_settings_table_matches_settings():
    # every (flag, run key) row of the README's settings table is a
    # setting, and every setting has its row
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| setting | flag | `run` key | default | commands |")
    rows = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, key = (cell.strip().strip("`")
                     for cell in line.split("|")[2:4])
        rows.add((flag, None if key == "none" else key))
    assert rows == {(flag, key) for flag, key, _, _ in cli._SETTINGS.values()}


class _Resolved(Exception):
    pass


@pytest.mark.parametrize("command,dest", _settings_taken())
def test_flag_beats_run_key_beats_default(command, dest, tmp_path,
                                          monkeypatch):
    flag, key = cli._SETTINGS[dest][:2]
    flag_value, run_value, default = _PRECEDENCE[dest]
    context = cli._context

    def stop(args):
        ctx = context(args)
        if dest == "controller":
            assert ctx.scn.controller.variant == ctx.controller
        raise _Resolved(getattr(ctx, dest))

    monkeypatch.setattr(cli, "_context", stop)

    def resolved(run, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": TEXTBOOK, "run": run}))
        with pytest.raises(_Resolved) as caught:
            cli.main([command, "--config", str(cfg),
                      *_REQUIRED.get(command, []), *argv])
        return caught.value.args[0]

    run = {key: run_value}
    assert resolved(run, flag, str(flag_value)) == flag_value
    assert resolved(run) == run_value
    assert resolved({}) == default


def test_config_scenario_reference_and_run_defaults(tmp_path):
    scn_path = _quiet_scenario(tmp_path, name="ref")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": "ref.json",
         "run": {"dt_h": 0.1, "t_end_h": 5.0, "out_dir": "nested/out"}}))
    assert _run("simulate", "--config", str(cfg)) == 0
    out = tmp_path / "nested" / "out"
    traj = simulate.read_trajectory_csv(out / "trajectory.csv")
    assert traj.t[-1] == pytest.approx(5.0)
    assert traj.t[1] - traj.t[0] == pytest.approx(0.1)


def test_compare_writes_to_run_out_dir(tmp_path, capsys):
    # compare resolves its output directory as simulate does: --out,
    # then run.out_dir (relative to the config)
    scn_path = _quiet_scenario(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": pathlib.Path(scn_path).name,
         "run": {"dt_h": 0.1, "t_end_h": 2.0, "out_dir": "cmp_out"}}))
    argv = ("compare", "--config", str(cfg),
            "--controllers", "decentralized", "static")
    assert _run(*argv) == 0
    table = capsys.readouterr().out
    out = tmp_path / "cmp_out"
    rows = oracles.read_comparison_csv(out / "comparison.csv")
    assert [r["controller"] for r in rows] == ["decentralized", "static"]
    report = json.loads((out / "comparison.json").read_text())
    # two rows of 20 steps
    assert report["diagnostics"]["rk4_steps"] == 40
    flag_out = tmp_path / "flag_out"
    assert _run(*argv, "--out", str(flag_out)) == 0
    assert capsys.readouterr().out == table
    assert ((flag_out / "comparison.csv").read_bytes()
            == (out / "comparison.csv").read_bytes())


def _src_env():
    # a subprocess finds the package in src/ without an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point_help():
    # python -m pisat runs the same command line as the pisat script
    proc = subprocess.run([sys.executable, "-m", "pisat", "--help"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: pisat")


def test_console_script_smoke():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from pisat.cli import main; "
                           "sys.exit(main(['frobnicate']))"],
                          capture_output=True, env=_src_env())
    assert proc.returncode == 64
