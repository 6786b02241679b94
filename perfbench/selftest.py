"""Self-test of the benchmark: tracing changes nothing and repeats exactly.

For each workload, seed SEED goes twice through the traced run of
``run.trace_run`` (cycle 0 untraced, traced, untraced).  The test passes
when

- every command passes its output check,
- each traced command leaves the same files and stdout as its untraced
  twin,
- the deterministic counters of the two traced runs are identical, and
- the metric names, units and workload reasons agree with BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # noqa: I001  (pins BLAS threads before numpy is imported)
import workloads
from tracer import DETERMINISTIC, Tracer

OUT = os.path.join(run.OUT, "selftest")
SEED = 1


def benchmark_json_problems() -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end {e2e} != run.END_TO_END")
    names = sorted(Tracer().layer_metrics()) + run.TRACE_METRICS
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    want = {n: run.per_layer_unit(n) for n in names}
    if layers != want:
        problems.append(f"per_layer differs: {sorted(set(layers) ^ set(want))}")
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if whys != workloads.WHY:
        problems.append("workload reasons differ from workloads.WHY")
    return problems


def check_workload(name: str) -> list:
    out = os.path.join(OUT, name)
    wl, mods, _ = run.setup(name, SEED, out)
    run.warm_up(mods["cli"], out)
    problems, counters = [], []
    for k in range(2):
        tally, layers, _ = run.trace_run(wl, mods["cli"], mods,
                                         os.path.join(out, f"run{k}"))
        tally.fail_late(wl.primary, wl.late_check())
        problems += tally.problems
        counters.append({c: layers[c] for c in DETERMINISTIC})
    if counters[0] != counters[1]:
        problems.append(f"counters differ: {counters[0]} vs {counters[1]}")
    print(f"{name}: counters {json.dumps(counters[0], sort_keys=True)}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--workload", choices=run.WORKLOADS, default=None)
    args = ap.parse_args(argv)
    missing = run.missing_from_checkout()
    if missing:
        print(f"selftest: not a full pisat checkout, missing {missing}")
        return 2
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    problems = benchmark_json_problems()
    for name in [args.workload] if args.workload else run.WORKLOADS:
        problems += [f"{name}: {p}" for p in check_workload(name)]
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
