"""Spans around the calls into each pisat layer, installed from outside.

The tracer replaces public functions of the pisat modules (and the
``__call__`` of ``DisturbanceSignal`` and ``ContractionMap``) by wrappers.
pisat calls across and within its modules through module attributes and
module globals, so nested calls are caught as well.  Each span records its
name, start, end, parent span and the CLI command (op) it belongs to; its
self time is its duration minus the durations of its child spans.

The hot callables run 10^5 times and more per cycle, so they are not kept
as single spans but aggregated per (name, parent name) into call counts,
total and self time.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

SECTOR_KINDS = {"saturation_deadzone": "saturation",
                "identity_zero": "identity"}


def _eval_f_name(args, kwargs):
    kind = getattr(args[0] if args else kwargs.get("pair"), "kind", None)
    return "sector.eval_f." + SECTOR_KINDS.get(kind, "custom")


def _lp_name(args, kwargs):
    plant = args[1] if len(args) > 1 else kwargs.get("plant")
    n = plant.n
    bucket = "n_le12" if n <= 12 else "n40" if n <= 40 else "n100"
    return "optimality.solve_weighted_l1_lp." + bucket


def _count_iterations(tracer, args, kwargs, result):
    tracer.counters["equilibrium.solve_equilibrium.iterations"] += \
        result.iterations


def _count_steps(tracer, args, kwargs, result):
    tracer.counters["simulate.integrate.steps"] += result.t.size - 1


def _count_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["simulate.write_trajectory_csv.bytes"] += \
        os.path.getsize(path)


class Tracer:
    """Collects spans and hot-call aggregates while installed."""

    def __init__(self):
        self.spans = []     # (id, name, op, parent id, start, end, self)
        self.hot = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(int)
        self.ops = {}       # op id -> command
        self._stack = []    # [span id, name, start, child time]
        self._op = None
        self._next = 0
        self._patched = []

    # ------------------------------------------------------------ install

    def install(self, pisat_modules) -> None:
        """Wrap the traced callables of the given pisat modules."""
        m = pisat_modules
        self._wrap(m["sector"], "eval_f", _eval_f_name, hot=True)
        self._wrap(m["model"], "closed_loop_derivative",
                   "model.closed_loop_derivative", hot=True)
        self._wrap(m["model"].DisturbanceSignal, "__call__",
                   "model.disturbance", hot=True)
        self._wrap(m["equilibrium"].ContractionMap, "__call__",
                   "equilibrium.map", hot=True)
        for fn in ("build_contraction", "iterate_fixed_point",
                   "measure_contraction", "probe_uniqueness"):
            self._wrap(m["equilibrium"], fn, "equilibrium." + fn)
        self._wrap(m["equilibrium"], "solve_equilibrium",
                   "equilibrium.solve_equilibrium",
                   on_return=_count_iterations)
        self._wrap(m["optimality"], "solve_weighted_l1_lp", _lp_name)
        self._wrap(m["optimality"], "certify_equilibrium_optimality",
                   "optimality.certify_equilibrium_optimality")
        self._wrap(m["simulate"], "integrate", "simulate.integrate",
                   on_return=_count_steps)
        self._wrap(m["simulate"], "write_trajectory_csv",
                   "simulate.write_trajectory_csv", on_return=_count_bytes)
        for fn in ("lyapunov_trace", "evaluate_costs"):
            self._wrap(m["simulate"], fn, "simulate." + fn)
        for fn in ("to_standard_form", "scenario_from_json"):
            self._wrap(m["heating"], fn, "heating." + fn)
        ml = m["matrixlab"]
        for fn, obj in sorted(vars(ml).items()):
            if (callable(obj) and not fn.startswith("_")
                    and getattr(obj, "__module__", None) == ml.__name__):
                self._wrap(ml, fn, "matrixlab." + fn)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, owner, attr, name, hot=False, on_return=None):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if orig is None:
            return      # the layer no longer has this callable
        clock = time.perf_counter
        stack = self._stack
        named = callable(name)

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if named else name
            frame = [None, label, clock(), 0.0]
            if not hot:
                frame[0] = self._next
                self._next += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                self_s = dur - frame[3]
                if hot:
                    agg = self.hot[(label, parent[1] if parent else None)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_s
                else:
                    self.spans.append((frame[0], label, self._op,
                                       parent[0] if parent else None,
                                       frame[2], end, self_s))
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    # ----------------------------------------------------------------- ops

    def run_op(self, op_id: int, command: str, fn):
        """Run ``fn()`` as the root span ``cli.<command>`` of one op."""
        self._op = op_id
        self.ops[op_id] = command
        sid = self._next
        self._next += 1
        frame = [sid, "cli." + command, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, frame[1], op_id, None, frame[2], end,
                               end - frame[2] - frame[3]))
            self._op = None

    def dump(self, path: str) -> None:
        """Write spans and hot aggregates as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, op, parent, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "op": op,
                                     "parent": parent, "start": start,
                                     "end": end, "self_s": self_s}) + "\n")
            for (name, parent), (calls, total, self_s) in sorted(
                    self.hot.items(), key=lambda kv: (kv[0][0],
                                                      str(kv[0][1]))):
                fh.write(json.dumps({"name": name, "parent_name": parent,
                                     "calls": calls, "s": total,
                                     "self_s": self_s}) + "\n")

    # ------------------------------------------------------------- metrics

    def layer_metrics(self) -> dict:
        """Per-layer numbers of everything traced so far (see PER_LAYER)."""
        names = {sid: name for sid, name, *_ in self.spans}
        calls = defaultdict(int)
        total = defaultdict(float)
        self_t = defaultdict(float)
        for (name, _parent), (c, t, s) in self.hot.items():
            calls[name] += c
            total[name] += t
            self_t[name] += s
        rounds = 0
        cert_ops = {op for op, cmd in self.ops.items() if cmd == "certify"}
        in_certify = defaultdict(int)
        ml_calls, ml_s = 0, 0.0
        for sid, name, op, parent, start, end, s in self.spans:
            calls[name] += 1
            self_t[name] += s
            pname = names.get(parent)
            if name.startswith("matrixlab."):
                ml_calls += 1
                if not (pname or "").startswith("matrixlab."):
                    ml_s += end - start
                continue
            if pname != name:       # inclusive time once per nesting
                total[name] += end - start
            if (name == "equilibrium.iterate_fixed_point"
                    and pname == "equilibrium.solve_equilibrium"):
                rounds += 1
            if op in cert_ops:
                in_certify[name] += 1

        def per_call_us(name):
            return 1e6 * total[name] / calls[name] if calls[name] else 0.0

        lp = "optimality.solve_weighted_l1_lp."
        solves = calls["equilibrium.solve_equilibrium"]
        steps = self.counters["simulate.integrate.steps"]
        cli_names = [n for n in calls if n.startswith("cli.")]
        out = {
            "sector.eval_f.custom.calls": calls["sector.eval_f.custom"],
            "sector.eval_f.custom.s": total["sector.eval_f.custom"],
            "sector.eval_f.custom.us_per_call":
                per_call_us("sector.eval_f.custom"),
            "sector.eval_f.saturation.calls":
                calls["sector.eval_f.saturation"],
            "sector.eval_f.saturation.s": total["sector.eval_f.saturation"],
            "sector.eval_f.saturation.us_per_call":
                per_call_us("sector.eval_f.saturation"),
            "model.disturbance.calls": calls["model.disturbance"],
            "model.disturbance.s": total["model.disturbance"],
            "model.closed_loop_derivative.calls":
                calls["model.closed_loop_derivative"],
            "model.closed_loop_derivative.self_s":
                self_t["model.closed_loop_derivative"],
            "simulate.integrate.calls": calls["simulate.integrate"],
            "simulate.integrate.steps": steps,
            "simulate.integrate.self_s": self_t["simulate.integrate"],
            "simulate.integrate.us_per_step":
                1e6 * total["simulate.integrate"] / steps if steps else 0.0,
            "simulate.write_trajectory_csv.s":
                total["simulate.write_trajectory_csv"],
            "simulate.write_trajectory_csv.bytes":
                self.counters["simulate.write_trajectory_csv.bytes"],
            "simulate.lyapunov_trace.s": total["simulate.lyapunov_trace"],
            "simulate.evaluate_costs.s": total["simulate.evaluate_costs"],
            "equilibrium.solve_equilibrium.calls": solves,
            "equilibrium.solve_equilibrium.s":
                total["equilibrium.solve_equilibrium"],
            "equilibrium.solve_equilibrium.iterations":
                self.counters["equilibrium.solve_equilibrium.iterations"],
            "equilibrium.map.calls": calls["equilibrium.map"],
            "equilibrium.map.us_per_call": per_call_us("equilibrium.map"),
            "equilibrium.rounds_per_solve": rounds / solves if solves else 0.0,
            "equilibrium.solves_per_certify":
                in_certify["equilibrium.solve_equilibrium"] / len(cert_ops)
                if cert_ops else 0.0,
            "equilibrium.builds_per_certify":
                in_certify["equilibrium.build_contraction"] / len(cert_ops)
                if cert_ops else 0.0,
            "equilibrium.probe_uniqueness.s":
                total["equilibrium.probe_uniqueness"],
            "equilibrium.measure_contraction.s":
                total["equilibrium.measure_contraction"],
            "optimality.certify_equilibrium_optimality.self_s":
                self_t["optimality.certify_equilibrium_optimality"],
            "matrixlab.calls": ml_calls,
            "matrixlab.s": ml_s,
            "heating.to_standard_form.calls":
                calls["heating.to_standard_form"],
            "heating.to_standard_form.s": total["heating.to_standard_form"],
            "heating.scenario_from_json.s":
                total["heating.scenario_from_json"],
            "cli.s": sum(total[n] for n in cli_names),
        }
        for bucket in ("n_le12", "n40", "n100"):
            out[lp + bucket + ".calls"] = calls[lp + bucket]
            out[lp + bucket + ".s"] = total[lp + bucket]
        return out


# Deterministic counters: two traced runs of the same cycle must agree.
DETERMINISTIC = (
    "equilibrium.solve_equilibrium.iterations",
    "equilibrium.solve_equilibrium.calls",
    "equilibrium.map.calls",
    "simulate.integrate.steps",
    "simulate.write_trajectory_csv.bytes",
    "optimality.solve_weighted_l1_lp.n_le12.calls",
    "optimality.solve_weighted_l1_lp.n40.calls",
    "optimality.solve_weighted_l1_lp.n100.calls",
    "sector.eval_f.custom.calls",
    "sector.eval_f.saturation.calls",
    "model.disturbance.calls",
    "model.closed_loop_derivative.calls",
)
