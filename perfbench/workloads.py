"""The three benchmark workloads: their inputs, command cycles and checks.

A workload is set up once per seed (its scenario files are written under
the run's output directory) and then runs in cycles.  A cycle is a fixed
list of ``pisat`` CLI commands; cycle ``i`` of a seed always runs the same
commands on the same files.  Every command carries a check of its outputs
that runs after the command has been timed.  A workload may also have a
late check, run once after the run's memory has been read; it holds the
checks that need much memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_COST_TABLE = os.path.join(HERE, "reference",
                                    "benchmark_cost_table.csv")
COLD_SNAP = os.path.join("configs", "benchmark_cold_snap.json")
CONSTANT = os.path.join("configs", "benchmark_constant.json")
CONTROLLERS = ("decentralized", "coordinating", "static")
# 336 h of weather at dt = 0.05 h: 6,720 RK4 steps plus the initial row
COLD_SNAP_ROWS = 6721
COST_RTOL = 1e-12
RESIDUAL_MAX = 1e-9

# Every cycle sweeps the sizes 2..12 once.  Each size has its own
# contraction ratio (see gen.py): the ratios spread evenly over gen's band
# and are dealt to the sizes in reverse, the largest ratio to n=2, so
# every network of a cycle costs about the same (0.2-0.6 s to certify)
# and the per-op medians sit where the costs are dense.  Every cycle has
# the same mix of sizes and contraction bounds; cycles differ only in the
# random parameters of their networks.
SMALL_SIZES = tuple(range(2, 13))
SMALL_PER_CYCLE = len(SMALL_SIZES)
SMALL_RATIOS = gen.ratios(SMALL_PER_CYCLE)[::-1]
SMALL_POOL = 4 * SMALL_PER_CYCLE
# Twelve n=40 networks to one n=100 network keeps the certify and lp
# medians on n=40, while the n=100 work shows in cmd_per_s and the traced
# layers.  The lp time of an n=40 network varies by about 20% with its
# random parameters (the pivot count and fill), so a steady lp median
# needs about 24 networks in a run: two cycles.  That fits in 30 s only at
# the low end of the contraction band (certify takes 0.8 s at n=40 and
# 3.5 s at n=100, against 4.4 s and 12 s at ratio 36), so wide leaves the
# slow-contraction regime to certify_small and tests size alone.
WIDE_N40_PER_CYCLE = 12
WIDE_RATIO = gen.PARAMS["b_diag_over_s_a"][0]
WIDE_CYCLES = 2

WHY = {
    "cold_snap": "simulate plus a 3-controller compare on the bundled cold "
                 "snap: RK4, sampled disturbance, saturation and CSV "
                 "writing; no solver work",
    "certify_small": "certify, equilibrium and lp on the bundled constant "
                     "network and random n=2..12 networks: per-call "
                     "overhead, scaled-pair contraction map, storage probe",
    "wide": "certify and lp on random n=40 and n=100 networks: the same "
            "layers with large arrays, where the sector loop and the "
            "dense simplex grow",
}


@dataclass
class Op:
    """One CLI command, its accepted exit codes and its output check.

    ``check`` returns a list of problems; an empty list means the outputs
    are correct.  ``outputs`` are the files the command writes, compared
    byte for byte between traced and untraced runs.
    """

    command: str
    argv: list
    exit_codes: tuple
    check: Callable[[str], list]
    outputs: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    primary: str
    secondary: str
    cycle: Callable[[int, str], list]
    inputs: dict
    late_check: Callable[[], list] = lambda: []


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= COST_RTOL * max(abs(want), 1e-300)


def reference_costs() -> dict:
    """Reference j1, jinf, j2 per controller on the bundled cold snap."""
    with open(REFERENCE_COST_TABLE, "r", encoding="ascii") as fh:
        return {row["controller"]: {k: float(row[k]) for k in
                                    ("j1", "jinf", "j2")}
                for row in csv.DictReader(fh)}


def _cost_problems(label: str, got: dict, want: dict) -> list:
    return [f"{label} {k}={got[k]!r} differs from reference {want[k]!r}"
            for k in ("j1", "jinf", "j2") if not _rel_close(got[k], want[k])]


# ---------------------------------------------------------------- cold_snap


def scan_trajectory(path: str) -> tuple[int, str, list]:
    """Rows, sha256 and problems of a trajectory CSV, read row by row.

    Every field must parse as a float and every row must be as wide as
    the header.  Only one row is held at a time.
    """
    digest = hashlib.sha256()
    rows = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        width = header.count(b",") + 1
        if not header.startswith(b"t,") or (width - 1) % 4:
            return 0, "", [f"{path}: unexpected header"]
        for line in fh:
            digest.update(line)
            fields = line.split(b",")
            try:
                for f in fields:
                    float(f)
            except ValueError:
                return rows, "", [f"{path}: row {rows + 1} does not parse"]
            if len(fields) != width:
                return rows, "", [f"{path}: row {rows + 1} is ragged"]
            rows += 1
    return rows, digest.hexdigest(), []


def _cold_snap(seed: int) -> Workload:
    from pisat import simulate

    ref = reference_costs()
    first = {}      # the first trajectory's sha256; every later one matches
    last = []       # path of the latest trajectory, for the late check

    def late_check() -> list:
        """Parse the latest trajectory whole, as pisat reads it back."""
        if not last:
            return []
        traj = simulate.read_trajectory_csv(last[-1])
        if traj.t.size != COLD_SNAP_ROWS:
            return [f"trajectory has {traj.t.size} rows, "
                    f"expected {COLD_SNAP_ROWS}"]
        return []

    def cycle(i: int, out: str) -> list:
        sim_dir = os.path.join(out, "simulate")
        cmp_dir = os.path.join(out, "compare")

        def check_simulate(stdout: str) -> list:
            path = os.path.join(sim_dir, "trajectory.csv")
            rows, digest, problems = scan_trajectory(path)
            last[:] = [path]
            if rows != COLD_SNAP_ROWS:
                problems.append(f"trajectory has {rows} rows, "
                                f"expected {COLD_SNAP_ROWS}")
            if digest != first.setdefault("sha256", digest):
                problems.append(f"{path} differs from the first trajectory")
            costs = _load(os.path.join(sim_dir, "costs.json"))["costs"]
            return problems + _cost_problems("simulate", costs,
                                             ref["decentralized"])

        def check_compare(stdout: str) -> list:
            with open(os.path.join(cmp_dir, "comparison.csv"), "r",
                      encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
            if [r["controller"] for r in rows] != list(CONTROLLERS):
                return [f"compare rows {[r['controller'] for r in rows]}"]
            problems = []
            for r in rows:
                got = {k: float(r[k]) for k in ("j1", "jinf", "j2")}
                problems += _cost_problems(r["controller"], got,
                                           ref[r["controller"]])
            return problems

        return [
            Op("simulate", ["simulate", "--config", COLD_SNAP,
                            "--out", sim_dir], (0,), check_simulate,
               [os.path.join(sim_dir, f) for f in ("trajectory.csv",
                                                   "costs.json")]),
            Op("compare", ["compare", "--config", COLD_SNAP,
                           "--controllers", *CONTROLLERS, "--out", cmp_dir],
               (0,), check_compare,
               [os.path.join(cmp_dir, f) for f in ("comparison.csv",
                                                   "comparison.json")]),
        ]

    return Workload("cold_snap", "simulate", "compare", cycle,
                    {"config": COLD_SNAP,
                     "reference": os.path.relpath(REFERENCE_COST_TABLE)},
                    late_check)


# ------------------------------------------------- certify_small and wide


def _network_ops(config: str, out: str, tag: str, with_equilibrium: bool,
                 expect_warn_only_tuning: bool = False) -> list:
    """certify, then (optionally) equilibrium, then lp on one network.

    The lp check compares its cost with the certify report's equilibrium
    cost, so the commands of one network must run in this order.
    """
    cert_path = os.path.join(out, f"{tag}-certify.json")
    eq_path = os.path.join(out, f"{tag}-equilibrium.json")
    lp_path = os.path.join(out, f"{tag}-lp.json")

    def check_certify(stdout: str) -> list:
        report = _load(cert_path)
        bad = {c["name"]: c["status"] for c in report["checks"]
               if c["status"] != "pass"}
        want = {"tuning_margins": "warn"} if expect_warn_only_tuning else {}
        if bad != want:
            return [f"{tag}: certify checks not passing as expected: {bad}"]
        return []

    def check_equilibrium(stdout: str) -> list:
        residual = _load(eq_path)["residual"]
        if not residual <= RESIDUAL_MAX:
            return [f"{tag}: equilibrium residual {residual!r}"]
        return []

    def check_lp(stdout: str) -> list:
        lp = _load(lp_path)
        opt = next(c for c in _load(cert_path)["checks"]
                   if c["name"] == "allocation_optimality")
        gap = abs(lp["cost"] - opt["equilibrium_cost"])
        if lp["lp_status"] != "optimal" or not gap <= opt["tolerance"]:
            return [f"{tag}: lp cost {lp['cost']!r} vs equilibrium cost "
                    f"{opt['equilibrium_cost']!r}"]
        return []

    cert_codes = (2,) if expect_warn_only_tuning else (0,)
    ops = [Op("certify", ["certify", "--config", config, "--out", cert_path],
              cert_codes, check_certify, [cert_path])]
    if with_equilibrium:
        ops.append(Op("equilibrium", ["equilibrium", "--config", config,
                                      "--out", eq_path], (0,),
                      check_equilibrium, [eq_path]))
    ops.append(Op("lp", ["lp", "--config", config, "--out", lp_path], (0,),
                  check_lp, [lp_path]))
    return ops


def _certify_small(seed: int, inputs_dir: str) -> Workload:
    specs = [(SMALL_SIZES[k % SMALL_PER_CYCLE],
              SMALL_RATIOS[k % SMALL_PER_CYCLE]) for k in range(SMALL_POOL)]
    paths = gen.networks(seed, specs, inputs_dir, "small")

    def cycle(i: int, out: str) -> list:
        ops = _network_ops(CONSTANT, out, "bundled", True,
                           expect_warn_only_tuning=True)
        for j in range(SMALL_PER_CYCLE):
            k = (i * SMALL_PER_CYCLE + j) % SMALL_POOL
            ops += _network_ops(paths[k], out, f"small{k:03d}", True)
        return ops

    return Workload("certify_small", "certify", "equilibrium", cycle,
                    {"bundled": CONSTANT, "pool": len(paths),
                     "per_cycle": SMALL_PER_CYCLE,
                     "specs": specs, "params": gen.PARAMS})


def _wide(seed: int, inputs_dir: str) -> Workload:
    n40 = WIDE_N40_PER_CYCLE * WIDE_CYCLES
    specs = ([(40, WIDE_RATIO)] * n40 + [(100, WIDE_RATIO)] * WIDE_CYCLES)
    paths = gen.networks(seed, specs, inputs_dir, "wide")

    def cycle(i: int, out: str) -> list:
        ops = []
        for j in range(WIDE_N40_PER_CYCLE):
            k = (i * WIDE_N40_PER_CYCLE + j) % n40
            ops += _network_ops(paths[k], out, f"wide{k:03d}", False)
        k = n40 + i % WIDE_CYCLES
        return ops + _network_ops(paths[k], out, f"wide{k:03d}", False)

    return Workload("wide", "certify", "lp", cycle,
                    {"pool": len(paths), "specs": specs,
                     "n40_per_cycle": WIDE_N40_PER_CYCLE,
                     "params": gen.PARAMS})


def setup(name: str, seed: int, inputs_dir: str) -> Workload:
    """Write the seeded inputs of workload ``name`` and return it."""
    if name == "cold_snap":
        return _cold_snap(seed)
    if name == "certify_small":
        return _certify_small(seed, inputs_dir)
    if name == "wide":
        return _wide(seed, inputs_dir)
    raise KeyError(name)
