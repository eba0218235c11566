"""Per-layer timing of CSV output: ``cli._write_csv`` in microseconds per value.

Usage, from the root of a checkout:

    python3 benchmarks/csv_kernel.py --parent PARENT_DIR --change CHANGE_DIR

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts (each with ``src/passiflow``)
of the two commits to compare.  The three blocks come from CLI runs of the
change checkout, made once into a temporary directory:

- ``spacetime``: one boundary-PI line run's ``spacetime.csv`` (grid 200,
  horizon 2, the CFL step; the line runs of perfbench's ``closed_loops``);
- ``mu_trajectory``: the paper-scale SVM's ``mu_trajectory.csv`` (300 points
  per class, seed 0; perfbench's ``svm_paper``);
- ``lyapunov``: a parallel-RLC plant run's 201 x 2 ``lyapunov.csv``.

In each of ``--rounds`` rounds, the two checkouts alternating in which goes
first, a fresh interpreter per checkout, pinned to one CPU, imports its
``passiflow.cli`` and writes each block ``--repeats`` times to a new file,
through ``blocks=`` where its ``_write_csv`` takes blocks and one row list per
row otherwise (as the parent's callers did).  It reports the fastest
microseconds per value over all rounds and the median of the rounds'
medians.  The change's interpreter also times its
kernel (``cli._csv_floats``) against the ``%`` row format on blocks of 2 and 7
columns and a few sizes, which is how ``cli._SMALL`` was chosen.  The result
is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = {
    "spacetime": {"schema": 1, "kind": "tline",
                  "tline": {"grid": 200, "horizon": 2.0, "target_vc1": 1.2,
                            "gains": {"K_P": 1.0, "K_I": 1.5}}},
    "mu_trajectory": {"schema": 1, "kind": "svm", "svm": {"seed": 0, "n_per_class": 300}},
    "lyapunov": {"schema": 1, "kind": "plant",
                 "plant": {"name": "parallel_rlc", "controller": "power_shaping",
                           "params": {"R": 1.0, "L": 1.0, "C": 1.0, "G": 1.0},
                           "gains": {"K": 1.0}, "horizon": 40.0,
                           "initial_state": [1.5, -0.5]},
                 "integrator": {"step": 0.01, "record_every": 20}},
}

# Runs in each checkout's interpreter: argv is the checkout's src, the .npz of
# blocks, the repeats, the CPU and whether to time the kernel's size cut-over.
TIMER = r"""
import inspect, json, os, statistics, sys, tempfile, time
from pathlib import Path
src, blocks_path, repeats, cpu, cutover = sys.argv[1:]
sys.path.insert(0, src)
os.sched_setaffinity(0, {int(cpu)})
import numpy as np
from passiflow import cli

takes_blocks = "blocks" in inspect.signature(cli._write_csv).parameters


def write(path, a):
    header = [f"c{k}" for k in range(a.shape[1])]
    if takes_blocks:
        cli._write_csv(path, header, blocks=[(a,)])
    else:
        cli._write_csv(path, header, (row.tolist() for row in a))


def timed(fn, count):
    times = []
    for _ in range(count):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


result = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, a in np.load(blocks_path).items():
        paths = iter(Path(tmp) / f"{name}{k}.csv" for k in range(10 ** 6))
        write(next(paths), a)                                 # warm: tables, imports
        times = timed(lambda: write(next(paths), a), int(repeats))
        result[name] = {"values": a.size, "us_per_value_min": min(times) / a.size * 1e6,
                        "us_per_value_median": statistics.median(times) / a.size * 1e6}
        for path in Path(tmp).glob(f"{name}*.csv"):
            path.unlink()
if cutover == "1":
    rng = np.random.default_rng(0)
    rows = []
    for cols in (2, 7):
        for size in (50, 100, 150, 200, 300, 400, 800):
            n = max(1, size // cols)
            a = rng.normal(size=(n, cols)) * 10.0 ** rng.integers(-8, 8, (n, cols))
            small, best = cli._SMALL, {"kernel_us": [], "rows_us": []}
            try:
                for _ in range(200):            # interleaved, so drift hits both alike
                    for key, limit in (("kernel_us", 0), ("rows_us", 10 ** 9)):
                        cli._SMALL = limit
                        best[key] += timed(lambda: cli._csv_floats(a), 1)
            finally:
                cli._SMALL = small
            rows.append({"cols": cols, "values": a.size,
                         **{key: min(times) * 1e6 for key, times in best.items()}})
    result["cutover"] = rows
print(json.dumps(result))
"""


def build_blocks(change: Path, out: Path) -> dict:
    sys.path.insert(0, str(change / "src"))
    from passiflow import cli

    blocks = {}
    for name, cfg in CONFIGS.items():
        if name == "spacetime":
            from passiflow.tline import LineParams, cfl_limit
            cfg = {**cfg, "integrator": {"step": cfl_limit(LineParams(), 200)}}
        code, _ = cli.run(cfg, out / name)
        if code != 0:
            raise SystemExit(f"{name} run exited {code}")
        blocks[name] = np.loadtxt(out / name / f"{name}.csv", delimiter=",", skiprows=1)
    return blocks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        blocks = build_blocks(args.change.resolve(), Path(tmp))
        np.savez(Path(tmp) / "blocks.npz", **blocks)
        report = {"shapes": {name: list(a.shape) for name, a in blocks.items()}}
        runs = {"parent": [], "change": []}
        for round_ in range(args.rounds):       # alternating, so drift hits both alike
            for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                proc = subprocess.run(
                    [sys.executable, "-c", TIMER, str(getattr(args, side).resolve() / "src"),
                     str(Path(tmp) / "blocks.npz"), str(args.repeats), str(args.cpu),
                     "1" if side == "change" and round_ == 0 else "0"],
                    capture_output=True, text=True, check=True)
                runs[side].append(json.loads(proc.stdout))
        for side, results in runs.items():
            report[side] = {name: {"values": results[0][name]["values"],
                                   "us_per_value_min": min(r[name]["us_per_value_min"]
                                                           for r in results),
                                   "us_per_value_median": statistics.median(
                                       r[name]["us_per_value_median"] for r in results)}
                            for name in blocks}
        report["cutover"] = runs["change"][0]["cutover"]
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
