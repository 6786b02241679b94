"""Seeded workload inputs for the pisat benchmark.

Every input is a scenario JSON file in the format that
``pisat.heating.scenario_from_json`` reads, so the program under test
sees only the generated files.  The generator does not use pisat.  The
same seed always gives the same files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Ranges (and fixed values) of the random networks, in the units of the
# scenario layer.
# Both tuning rules hold by construction in the standard form
# (decay = a / c): decay * p > r and p * s < 1, so every check of
# `pisat certify` is expected to pass.  The anti-windup gain s sets
# b_ii / (s_i a_i) to a ratio given per network, the same for all its
# agents.  The ratio sets the contraction bound of the equilibrium map
# and so the iterations of a solve: about 250 at ratio 4 (bound 0.89),
# about 1,700 at ratio 36 (bound 0.986, as the bundled
# configs/benchmark_constant.json).  The workloads choose the ratios, so
# networks of one size and ratio cost about the same whatever the seed.
PARAMS = {
    "a_kw_per_degc": [0.18, 0.22],
    "c_kwh_per_degc": [0.4, 0.5],
    "b_diag_kw": [0.8, 1.0],
    "b_offdiag_row_share": [0.25, 0.35],
    "r_over_decay_p": [0.5, 0.9],
    "s_times_p": [0.6, 0.9],
    "t_ext_degc": 16.5,
    "x_c_degc": 20.0,
    "b_diag_over_s_a": [4.0, 36.0],
}


def ratios(count: int) -> list[float]:
    """``count`` contraction ratios spread evenly over the band."""
    lo, hi = PARAMS["b_diag_over_s_a"]
    return np.linspace(lo, hi, count).tolist()


def random_network(rng: np.random.Generator, n: int, ratio: float,
                   name: str) -> dict:
    """One random constant-weather network as a scenario JSON object.

    ``ratio`` is b_ii / (s_i a_i), the same for every agent.
    """
    u = lambda key, size=None: rng.uniform(*PARAMS[key], size)  # noqa: E731
    a = u("a_kw_per_degc", n)
    c = u("c_kwh_per_degc", n)
    diag = u("b_diag_kw", n)
    off = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    row = off.sum(axis=1)
    share = u("b_offdiag_row_share", n)
    scale = np.where(row > 0.0, share * diag / np.maximum(row, 1e-30), 0.0)
    b = np.diag(diag) - off * scale[:, None]
    s = diag / (ratio * a)
    p = u("s_times_p", n) / s
    r = u("r_over_decay_p", n) * (a / c) * p
    return {
        "name": name,
        "a_kw_per_degc": a.tolist(),
        "c_kwh_per_degc": c.tolist(),
        "b_heat_kw": b.tolist(),
        "x_c_degc": PARAMS["x_c_degc"],
        "t_ext": {"constant_degc": PARAMS["t_ext_degc"]},
        "controller": {"variant": "decentralized",
                       "p_per_degc": p.tolist(),
                       "r_per_degc_h": r.tolist(),
                       "s_degc": s.tolist()},
    }


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def networks(seed: int, specs, out_dir: str, prefix: str) -> list[str]:
    """Write one random network per (n, ratio) of ``specs``; return paths."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, (n, ratio) in enumerate(specs):
        path = os.path.join(out_dir, f"{prefix}{i:03d}_n{n}.json")
        write_json(random_network(rng, int(n), ratio, f"{prefix}{i:03d}"),
                   path)
        paths.append(path)
    return paths
