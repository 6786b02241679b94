"""pisat benchmark: seeded CLI workloads, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_small --seed 1 \
        --seconds 30 --trace 0

All commands run in this one process through ``pisat.cli.main``.  With
``--trace 0`` the workload runs whole command cycles until ``--seconds``
are used and reports end-to-end timings; with ``--trace 1`` it runs cycle
0 untraced, traced and untraced again, and reports per-layer numbers plus
the tracing overhead.  End-to-end timings are scaled to a reference
machine speed (see ``SpeedProbe``).  Every command's outputs are checked.
A readable table goes to stdout, the full record to ``perfbench/out/``,
and the last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import NamedTuple

# Keep the load within one core per process: BLAS must not start threads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "out")
SETUP_REPEATS = 21
# Timings are scaled to a reference machine speed.  While a run measures,
# a timer signal runs the calibration kernel every PROBE_PERIOD_S, inside
# ops too, and the kernel also runs between ops.  An op's time (less the
# kernel's) is multiplied by CAL_REF_S over the median kernel time of the
# samples taken just before, during and just after the op.
CAL_ITERS = 300
CAL_REF_S = 0.006
PROBE_PERIOD_S = 0.25
PISAT_MODULES = ("cli", "equilibrium", "heating", "matrixlab", "model",
                 "optimality", "sector", "simulate")
WORKLOADS = ("cold_snap", "certify_small", "wide")
TRACE_METRICS = ["trace.overhead_s", "trace.overhead_share"]

END_TO_END = {      # name -> unit
    "setup_s": "s",
    "primary_ms_p50": "ms",
    "secondary_ms_p50": "ms",
    "cmd_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("us_per_call", "us_per_step")):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if "_per_" in name or name.endswith("_share"):
        return "ratio"
    return "count"


# ------------------------------------------------------------- calibration


def calibrate() -> float:
    """Seconds the calibration kernel takes right now.

    The kernel is a fixed loop of the operations pisat spends its time
    on: interpreter work and small numpy calls (matmul, clip, interp).
    Both slow down together when the shared core is busy.
    """
    m = np.eye(40) * 0.5 + 0.01
    knots = np.linspace(-2.0, 2.0, 9)
    values = np.clip(knots, -1.0, 1.0)
    x = np.ones((20, 40))
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        u = x @ m
        f = np.clip(u, -1.0, 1.0)
        x = 0.5 * x + 0.1 * (f - u) + 0.01 * np.interp(u[0], knots, values)
    return time.perf_counter() - t0


def speed(cals: list) -> float:
    """Machine speed relative to the reference: 1.0 at CAL_REF_S."""
    return CAL_REF_S / statistics.median(cals)


class SpeedProbe:
    """Samples the machine speed every PROBE_PERIOD_S while entered.

    The shared cores of a small host switch between fast and slow phases
    every few seconds.  A SIGALRM handler runs the calibration kernel,
    between the bytecodes of whatever runs, so long ops are sampled while
    they run.  ``spent`` counts the handler's seconds, which callers take
    out of their own timings.
    """

    def __init__(self):
        self.samples = []       # (perf_counter at end, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel = calibrate()
        t1 = time.perf_counter()
        self.samples.append((t1, kernel))
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int = 0) -> float:
        """Speed over the samples from index ``first`` on."""
        return speed([k for _, k in self.samples[first:]])


class Stopwatch:
    """Wall seconds since start, less the probe's handler time."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self.t0 = time.perf_counter()
        self.spent0 = probe.spent if probe else 0.0

    def seconds(self) -> float:
        spent = self.probe.spent - self.spent0 if self.probe else 0.0
        return time.perf_counter() - self.t0 - spent


# ------------------------------------------------------------------- setup


def _import_pisat() -> dict:
    import importlib
    for name in [m for m in sys.modules
                 if m == "pisat" or m.startswith("pisat.")]:
        del sys.modules[name]
    importlib.import_module("pisat")
    return {m: importlib.import_module("pisat." + m) for m in PISAT_MODULES}


def setup(name: str, seed: int, out: str):
    """Import pisat and write the seeded inputs, several times.

    Returns the workload, the pisat modules and the set-up time: the
    median over the repeats, each at reference speed by the probe samples
    taken just before, during and just after it.
    """
    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            first = len(probe.samples)
            probe.sample()
            watch = Stopwatch(probe)
            mods = _import_pisat()
            wl = workloads.setup(name, seed, os.path.join(out, "inputs"))
            seconds = watch.seconds()
            probe.sample()
            times.append(seconds * probe.speed(first))
    return wl, mods, statistics.median(times)


def environment() -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:       # older numpy has no dict form
        blas = "unknown"
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


# ------------------------------------------------------------------- ops


class Sample(NamedTuple):
    """One op as run: when, how long, and its result."""

    op: object
    start: float        # perf_counter at the start of the CLI call
    end: float          # perf_counter after its output check
    seconds: float      # the CLI call, less probe time
    speed: float        # machine speed around the op; 1.0 if not probed
    problems: list
    stdout: str


def run_op(cli, op, traced, watch) -> tuple[float, list, str]:
    """Run one CLI command; return its seconds, problems and stdout.

    ``traced(fn)``, when given, runs the command call as a traced op.
    ``watch`` was started just before the call.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if traced is None:
                code = cli.main(op.argv)
            else:
                code = traced(lambda: cli.main(op.argv))
    except Exception:       # a crash is a failed op, not a dead benchmark
        return (watch.seconds(),
                [f"{op.command} raised: {traceback.format_exc(limit=3)}"],
                stdout.getvalue())
    seconds = watch.seconds()
    if code not in op.exit_codes:
        return seconds, [f"{op.command} exited {code}: "
                         f"{stderr.getvalue().strip()[-300:]}"], \
            stdout.getvalue()
    try:
        problems = op.check(stdout.getvalue())
    except Exception:
        problems = [f"{op.command} check raised: "
                    f"{traceback.format_exc(limit=3)}"]
    return seconds, problems, stdout.getvalue()


def run_cycle(cli, wl, i: int, out: str, record, tracer=None,
              probe=None) -> float:
    """Run cycle ``i`` into ``out``; pass a Sample per op to ``record``.

    With a probe, the kernel also runs before the first op and after each
    op, so every op is scaled by the samples next to it.  Returns the
    cycle's wall seconds.
    """
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    if probe:
        probe.sample()
    for k, op in enumerate(wl.cycle(i, out)):
        traced = None if tracer is None else \
            functools.partial(tracer.run_op, k, op.command)
        first = len(probe.samples) - 1 if probe else 0
        watch = Stopwatch(probe)
        seconds, problems, stdout = run_op(cli, op, traced, watch)
        end = time.perf_counter()
        if probe:
            probe.sample()
        record(Sample(op, watch.t0, end, seconds,
                      probe.speed(first) if probe else 1.0, problems,
                      stdout))
    return time.perf_counter() - t0


def warm_up(cli, out: str) -> None:
    """Touch every command once on a 1-agent network, untimed."""
    cfg = os.path.join("configs", "textbook_single.json")
    warm = os.path.join(out, "warm")
    os.makedirs(warm, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in ("certify", "equilibrium", "lp"):
            cli.main([cmd, "--config", cfg, "--out",
                      os.path.join(warm, cmd + ".json")])
        cli.main(["simulate", "--config", cfg, "--t-end", "2", "--out", warm])


# -------------------------------------------------------------- measuring


class Tally:
    """Every op of a run in order, with its outcome."""

    def __init__(self):
        self.samples = []
        self.failed = 0
        self.problems = []

    def record(self, sample: Sample) -> None:
        self.samples.append(sample)
        if sample.problems:
            self.failed += 1
            self.problems.extend(sample.problems)

    def fail_late(self, command: str, problems: list) -> None:
        """Add problems of a late check to the last ``command`` op."""
        if not problems:
            return
        i = max(k for k, s in enumerate(self.samples)
                if s.op.command == command)
        if not self.samples[i].problems:
            self.failed += 1
        self.samples[i] = self.samples[i]._replace(
            problems=self.samples[i].problems + problems)
        self.problems.extend(problems)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def seconds(self) -> dict:
        """Command -> op seconds, at reference speed if probed."""
        out = {}
        for s in self.samples:
            out.setdefault(s.op.command, []).append(s.seconds * s.speed)
        return out

    def busy(self, lo: int = 0, hi: int | None = None) -> float:
        """Op seconds of samples lo..hi, at reference speed if probed."""
        return sum(s.seconds * s.speed for s in self.samples[lo:hi])


def percentile_tail(values: list) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return f"p{q}", cuts[q - 1]
    return None


def measure(wl, cli, seconds: float, out: str):
    tally = Tally()
    spent, cycles, i = 0.0, [], 0
    with SpeedProbe() as probe:
        # start another cycle only while at least half of one still fits
        while not cycles or spent + 0.5 * statistics.median(cycles) < seconds:
            cycles.append(run_cycle(cli, wl, i, out, tally.record,
                                    probe=probe))
            spent += cycles[-1]
            i += 1
    ref = tally.seconds()
    busy = tally.busy()
    metrics = {
        "primary_ms_p50": 1e3 * statistics.median(ref[wl.primary]),
        "secondary_ms_p50": 1e3 * statistics.median(ref[wl.secondary]),
        "cmd_per_s": tally.attempted / busy,
    }
    unit, scale = ("s", 1.0) if wl.name == "cold_snap" else ("ms", 1e3)
    table = []
    for cmd, vals in sorted(ref.items()):
        table.append((f"{cmd}_{unit}_p50", scale * statistics.median(vals),
                      unit, len(vals)))
        tail = percentile_tail(vals)
        if tail:
            table.append((f"{cmd}_{unit}_{tail[0]}", scale * tail[1], unit,
                          len(vals)))
    if "certify" in ref:
        n = len(ref["certify"])
        table.append(("certify_per_s", n / busy, "1/s", n))
    table.append(("cycles", len(cycles), "count", len(cycles)))
    table.append(("machine_speed", probe.speed(), "ratio",
                  len(probe.samples)))
    return tally, probe, metrics, table, sum(cycles)


def trace_run(wl, cli, mods, out: str):
    """Cycle 0 untraced, traced, untraced; compare outputs, gather layers.

    Each traced command must leave the same files and stdout as its
    untraced twin, which shows that the wrappers change nothing.  The
    overhead is the traced cycle's busy time minus the mean of the
    untraced cycles before and after it, each op at reference speed by
    the kernel samples taken between ops.  No timer probe runs inside
    ops here, so per-layer times are plain wall seconds.
    """
    from tracer import Tracer
    tally = Tally()
    probe = SpeedProbe()        # sampled between ops only: not entered
    reference = []

    def record_untraced(sample):
        reference.append(sample)
        tally.record(sample)

    def record_traced(sample):
        ref = reference[len(tally.samples) - len(reference)]
        tally.record(sample._replace(problems=sample.problems
                                     + output_differences(ref, sample)))

    run_cycle(cli, wl, 0, os.path.join(out, "untraced"), record_untraced,
              probe=probe)
    n = len(tally.samples)
    tracer = Tracer()
    tracer.install(mods)
    try:
        run_cycle(cli, wl, 0, os.path.join(out, "traced"), record_traced,
                  tracer=tracer, probe=probe)
    finally:
        tracer.uninstall()
    run_cycle(cli, wl, 0, os.path.join(out, "untraced-again"), tally.record,
              probe=probe)
    untraced = 0.5 * (tally.busy(lo=0, hi=n) + tally.busy(lo=2 * n))
    traced = tally.busy(lo=n, hi=2 * n)
    tracer.dump(os.path.join(out, "spans.jsonl"))
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_share"] = (traced - untraced) / untraced
    return tally, layers, (untraced, traced)


def output_differences(ref: Sample, sample: Sample) -> list:
    """Problems if ``sample`` left other files or stdout than ``ref``."""
    problems = []
    if sample.stdout != ref.stdout:
        problems.append(f"stdout of {sample.op.command} differs from "
                        f"{ref.op.argv}")
    for pa, pb in zip(ref.op.outputs, sample.op.outputs):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{pb} differs from {pa}")
    return problems


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def missing_from_checkout() -> list:
    """Files of the checkout the benchmark needs but cannot find."""
    return [rel for rel in ("src/pisat/cli.py",
                            "configs/benchmark_cold_snap.json",
                            "configs/benchmark_constant.json",
                            "configs/textbook_single.json")
            if not os.path.isfile(os.path.join(ROOT, rel))]


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_from_checkout()
    if missing:
        print(f"perfbench: not a full pisat checkout, missing {missing}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                            f"{args.trace}")
    wl, mods, setup_s = setup(args.workload, args.seed, out)
    cli = mods["cli"]
    warm_up(cli, out)
    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": wl.inputs,
              "environment": environment()}
    if args.trace:
        tally, layers, (untraced, traced) = trace_run(wl, cli, mods, out)
        tally.fail_late(wl.primary, wl.late_check())
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(layers.items())}
        record["cycle_s"] = {"untraced": untraced, "traced": traced}
    else:
        tally, probe, e2e, table, wall = measure(wl, cli, args.seconds, out)
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # only now: the late check holds a whole trajectory in memory
        tally.fail_late(wl.primary, wl.late_check())
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
        record["table"] = [
            {"name": n, "value": v, "unit": u, "samples": s}
            for n, v, u, s in table + [
                ("setup_s", setup_s, "s", SETUP_REPEATS),
                ("failed_frac", tally.failed / tally.attempted, "ratio",
                 tally.attempted),
                ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1)]]
        record["measured_s"] = wall
        record["ops"] = [[x.op.command, x.start, x.end, x.seconds, x.speed]
                         for x in tally.samples]
        record["speed_probe"] = probe.samples
    record["problems"] = tally.problems[:50]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record["result"] = result
    with open(os.path.join(out, "result.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _print_human(record)
    print(json.dumps(result, sort_keys=True))
    return 0


def _print_human(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['why']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for row in record.get("table", []):
        print(f"  {row['name']:<28}{row['value']:>14.6g} {row['unit']:<6}"
              f" n={row['samples']}")
    for p in record["problems"]:
        print("  FAILED " + p.strip().replace("\n", " | "))


if __name__ == "__main__":
    sys.exit(main())
