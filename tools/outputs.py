"""Run a fixed matrix of pisat commands and keep everything they output.

Usage: python tools/outputs.py SRC OUT

SRC is the directory that holds the ``pisat`` package to run (the
``src`` of a checkout); OUT is a directory that must not exist yet.
Every command runs in a fresh interpreter with only SRC on its path and
one BLAS thread:

- ``simulate`` with each controller and a 3-controller ``compare`` on
  both cold-snap configs;
- ``certify``, ``equilibrium``, ``lp`` and a 20 h ``simulate`` on
  ``benchmark_constant``, ``textbook_single`` and the seed-5, ratio-4
  networks of ``perfbench/gen.py`` at n = 3, 12, 40 and 100.

Run r writes ``OUT/runs/r/stdout``, ``stderr``, ``exit`` and the files
the command wrote, under ``files/``; OUT's own path reads ``OUT`` in the
two streams.  The configs come from this checkout, so two trees written
from two versions of the package take the same inputs, and
``diff -r OUT1 OUT2`` shows every output that differs.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CONTROLLERS = ("decentralized", "coordinating", "static")
# the networks perfbench's generator draws in this order from seed 5
NETWORKS = [(3, 4.0), (12, 4.0), (40, 4.0), (100, 4.0)]


def _gen():
    # read perfbench's generator in place; nothing is written beside it
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def matrix(inputs: pathlib.Path) -> list[tuple[str, list[str], bool]]:
    """(label, argv, writes a directory) of every run; the generated
    networks are written into ``inputs``."""
    runs = []
    for cfg in (CONFIGS / "benchmark_cold_snap.json",
                CONFIGS / "run_cold_snap.json"):
        for ctrl in CONTROLLERS:
            runs.append((f"{cfg.stem}-simulate-{ctrl}",
                         ["simulate", "--config", str(cfg),
                          "--controller", ctrl], True))
        runs.append((f"{cfg.stem}-compare",
                     ["compare", "--config", str(cfg),
                      "--controllers", *CONTROLLERS], True))
    nets = _gen().networks(5, NETWORKS, str(inputs), "seed5_")
    for cfg in [CONFIGS / "benchmark_constant.json",
                CONFIGS / "textbook_single.json", *map(pathlib.Path, nets)]:
        for cmd in ("certify", "equilibrium", "lp"):
            runs.append((f"{cfg.stem}-{cmd}",
                         [cmd, "--config", str(cfg)], False))
        runs.append((f"{cfg.stem}-simulate-20h",
                     ["simulate", "--config", str(cfg), "--t-end", "20"],
                     True))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 64
    src, out = (pathlib.Path(p).resolve() for p in argv)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    runs = matrix(out / "inputs")
    for label, args, to_dir in runs:
        run = out / "runs" / label
        files = run / "files"
        files.mkdir(parents=True)
        dest = files if to_dir else files / "report.json"
        proc = subprocess.run([sys.executable, "-m", "pisat", *args,
                               "--out", str(dest)],
                              cwd=run, env=env, capture_output=True)
        for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (run / name).write_bytes(data.replace(str(out).encode(), b"OUT"))
        (run / "exit").write_text(f"{proc.returncode}\n")
        print(f"{label}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
