"""Paired runs of two passiflow checkouts: alternating, on one CPU, with a
per-metric verdict.

Usage, from the root of a checkout:

    python3 benchmarks/pairs.py --probe closed_loops --parent PARENT_DIR --change CHANGE_DIR

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts (``git archive`` exports do)
of the two commits to compare.  Their ``src/``, ``perfbench/`` and
``tests/oracles.py`` (which perfbench's ``qp_mixed`` loads) are copied to
``a`` and ``b`` in a new temporary directory.  Each of ``--pairs`` pairs runs
the probe once per side, each run a fresh process pinned to ``--cpu``, the
parent first in even pairs and the change first in odd ones.  ``--probe``
picks what one run measures:

- ``svm_paper``, ``closed_loops``, ``qp_mixed``: that checkout's
  ``perfbench/run.py --workload W --seed S --trace 0``, read from its last
  JSON line (``wall_s``, ``setup_s``, ``peak_rss_mb``, failed and attempted
  operations) and its summary line's ``median raw pass`` (``raw_pass_s``);
- ``csv``: ``cli._write_csv``'s microseconds per value, ``--repeats`` writes
  to new files, on three blocks the checkout's CLI writes (a boundary-PI line
  run's ``spacetime.csv``, grid 200; the paper-scale svm's
  ``mu_trajectory.csv``; a parallel-RLC ``lyapunov.csv``);
- ``rk4_floats``: microseconds per ``integrate(floats=True)`` RK4 step,
  ``--repeats`` calls on each of the four plant loops of perfbench's
  ``closed_loops``, with the rhs, start and settings ``cli.run`` passes;
- ``sample_memory``: ``VmHWM`` after one and after two paper-scale svm
  ``cli.run`` calls, with the rows ``integrate`` held for its samples and the
  samples it kept.

Only perfbench reads ``--seed``; the layer probes run fixed configs.  The
result is one JSON object on standard output: the options, each side's
``src/`` line count, per metric each side's median and minimum, the change's
wins (ties count for neither), the parent's interquartile spread
(``statistics.quantiles(n=4)``), also over the parent's median, and a
verdict; then each side's failed and attempted operations, and every pair's
order, directories and readings.  The verdict is ``gain`` when at least 10
pairs ran, the change won at least 9 in 10, the medians differ by more than
that spread and the change failed no larger share of its operations than
the parent; ``regression`` when the change's median is worse than the
parent's by more than the metric's ``BENCHMARK.json`` bound, which is a
fraction of the parent's median (0.2 for ``wall_s`` is 20%); ``unresolved``
when the spread over the parent's median is wider than the bound, unless
every change run beats every parent run; else ``none``.  Metrics without a
bound get ``gain`` or ``none``.  A probe's ``same_*`` entries read true
where every run of both sides produced the same bytes.

Measurement traps the runner handles:

- About 0.2 MB of perfbench's ``peak_rss_mb`` follows the checkout
  directory, not the code.  The copies sit in sibling directories of equal
  path length and swap directories once, before pair ``pairs // 2``.
- perfbench's host-probe scaling can misstate ``wall_s``: it moves with the
  work sharing the probe's CPU, not only with the host.  ``raw_pass_s`` is
  reported beside it.
- The svm run's peak memory is bimodal on unchanged code, so every pair's
  reading is kept, not only the medians.
- Under ``--workload all`` the last line of ``run.py`` holds only
  ``qp_mixed``, so each run covers one workload.

The runner drives the benchmark and is not part of it: ``perfbench/``
changes only with the benchmark itself.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("svm_paper", "closed_loops", "qp_mixed")

SVM = {"schema": 1, "kind": "svm", "svm": {"seed": 0, "n_per_class": 300}}
CSV_CONFIGS = {
    "spacetime": {"schema": 1, "kind": "tline",
                  "tline": {"grid": 200, "horizon": 2.0, "target_vc1": 1.2,
                            "gains": {"K_P": 1.0, "K_I": 1.5}}},
    "mu_trajectory": SVM,
    "lyapunov": {"schema": 1, "kind": "plant",
                 "plant": {"name": "parallel_rlc", "controller": "power_shaping",
                           "params": {"R": 1.0, "L": 1.0, "C": 1.0, "G": 1.0},
                           "gains": {"K": 1.0}, "horizon": 40.0,
                           "initial_state": [1.5, -0.5]},
                 "integrator": {"step": 0.01, "record_every": 20}},
}
PRLC = {"R": 1.0, "G": 2.0, "L": 1.0, "C": 1.0}
LOOPS = {   # perfbench's closed_loops plants: parameters, gains, horizon, a fixed start
    "prlc-power_shaping": ("parallel_rlc", "power_shaping", PRLC, {"K": 1.0}, 40.0,
                           [1.5, -0.5]),
    "prlc-krasovskii_pi": ("parallel_rlc", "krasovskii_pi", {**PRLC, "G": 0.5},
                           {"K_P": 1.0, "K_I": 1.0}, 40.0, [1.5, -0.5]),
    "hvac-power_shaping": ("hvac", "power_shaping", {},
                           {"k": 1.0, "k1": 10.0, "k2": 10.0, "alpha": 10.0}, 20.0,
                           [3.0, 5.0, 8.0, 12.0]),
    "hvac-dyn_feedback": ("hvac", "dyn_feedback", {}, {"k1": 1.0, "kd": 2.0, "ki": 5.0}, 10.0,
                          [3.0, 5.0, 8.0, 12.0]),
}


def _sha1(path) -> str:
    # file_digest reads in chunks: reading samples.csv whole would raise VmHWM
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha1").hexdigest()


def _run(cli, cfg, out) -> None:
    code, _ = cli.run(cfg, out)
    if code != 0:
        raise SystemExit(f"{out.name} run exited {code}")


def csv_probe(repeats: int) -> dict:
    import numpy as np
    from passiflow import cli
    from passiflow.tline import LineParams, cfl_limit

    result = {"metrics": {}, "blocks": {}, "same_artifacts": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in CSV_CONFIGS.items():
            if name == "spacetime":
                cfg = {**cfg, "integrator": {"step": cfl_limit(LineParams(), 200)}}
            out = Path(tmp) / name
            _run(cli, cfg, out)
            a = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
            header = [f"c{k}" for k in range(a.shape[1])]
            times = []
            for k in range(repeats + 1):        # the first warms tables and imports
                path = out / f"w{k}.csv"
                start = time.perf_counter()
                cli._write_csv(path, header, blocks=[(a,)])
                times.append(time.perf_counter() - start)
                digest = _sha1(path)
                path.unlink()
            us = [t / a.size * 1e6 for t in times[1:]]
            result["metrics"] |= {f"{name}.us_per_value_min": min(us),
                                  f"{name}.us_per_value_median": statistics.median(us)}
            result["blocks"][name] = {"shape": list(a.shape), "values": a.size}
            result["same_artifacts"][name] = [digest]
    return result


def rk4_floats_probe(repeats: int) -> dict:
    from passiflow import cli
    from passiflow.ode import integrate

    loops = {}

    def capture(rhs, x0, cfg, **kw):
        loops[name] = (rhs, x0, cfg)
        return integrate(rhs, x0, cfg, **kw)

    cli.integrate = capture
    with tempfile.TemporaryDirectory() as tmp:
        for name, (plant, controller, params, gains, horizon, x0) in LOOPS.items():
            _run(cli, {"schema": 1, "kind": "plant",
                       "plant": {"name": plant, "controller": controller, "params": params,
                                 "gains": gains, "horizon": horizon, "initial_state": x0},
                       "integrator": {"step": 0.01, "record_every": 20}}, Path(tmp) / name)
    cli.integrate = integrate
    result = {"metrics": {}, "loops": {}, "same_states": {}}
    for name, (rhs, x0, cfg) in loops.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            traj = integrate(rhs, x0, cfg, floats=True)
            times.append(time.perf_counter() - start)
        steps = traj.stats.rk4_steps
        us = [t / steps * 1e6 for t in times]
        result["metrics"] |= {f"{name}.us_per_step_min": min(us),
                              f"{name}.us_per_step_median": statistics.median(us)}
        result["loops"][name] = {"d": traj.states.shape[1], "steps": steps}
        result["same_states"][name] = [hashlib.sha1(traj.states.tobytes()).hexdigest()]
    return result


def sample_memory_probe(_repeats: int) -> dict:
    from passiflow import cli, primal_dual

    integrate, buffers = primal_dual.integrate, []

    def wrapped(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        buffers.append({"rows": traj.states.base.shape[0], "samples": traj.times.size})
        return traj

    primal_dual.integrate = wrapped
    result = {"metrics": {}, "buffers": buffers, "same_artifacts": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for metric in ("vm_hwm_mb_after_one_run", "vm_hwm_mb_after_two_runs"):
            out = Path(tmp) / metric
            _run(cli, SVM, out)
            with open("/proc/self/status") as fh:
                hwm = next(line for line in fh if line.startswith("VmHWM:"))
            result["metrics"][metric] = int(hwm.split()[1]) / 1024.0
            for path in sorted(out.iterdir()):
                result["same_artifacts"].setdefault(path.name, []).append(_sha1(path))
    return result


PROBES = {"csv": csv_probe, "rk4_floats": rk4_floats_probe, "sample_memory": sample_memory_probe}


def run_probe(probe: str, repeats: int, root: Path, seed: int) -> dict:
    """One run of ``probe`` in a fresh interpreter on the checkout at ``root``."""
    if probe in WORKLOADS:
        cmd = ["perfbench/run.py", "--workload", probe, "--seed", str(seed), "--trace", "0"]
    else:
        cmd = ["-c", f"import json, sys; sys.path[:0] = {[str(root / 'src'), str(HERE)]!r}; "
                     f"import pairs; print(json.dumps(pairs.PROBES[{probe!r}]({repeats})))"]
    out = subprocess.run([sys.executable, *cmd], cwd=root, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if probe in WORKLOADS:
        raw = float(re.search(r"median raw pass ([0-9.]+) s", out).group(1))
        result = {"metrics": {**{k: m["value"] for k, m in result["metrics"].items()},
                              "raw_pass_s": raw},
                  "failed": result["failed"], "attempted": result["attempted"]}
    return result


def drive(parent: Path, change: Path, work: Path, pairs: int, seed: int, run_one) -> list:
    """``pairs`` pairs of ``run_one(checkout, seed)``, alternating which side
    runs first, on copies of the two checkouts in ``work/a`` and ``work/b``
    that swap directories once, halfway; one record per pair."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for root, name in ((parent, "a"), (change, "b")):
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, work / name / part, ignore=skip)
        (work / name / "tests").mkdir()
        shutil.copy2(root / "tests" / "oracles.py", work / name / "tests")
    dirs = {"parent": "a", "change": "b"}
    records = []
    for pair in range(pairs):
        if pair and pair == pairs // 2:
            (work / "a").rename(work / "swap")
            (work / "b").rename(work / "a")
            (work / "swap").rename(work / "b")
            dirs = {"parent": "b", "change": "a"}
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        record = {"first": order[0], "dirs": dirs}
        for side in order:
            record[side] = run_one(work / dirs[side], seed)
        records.append(record)
    return records


def operations(records: list) -> dict:
    """Each side's failed and attempted operations over every pair; the
    layer probes count none (a failing run stops the runner)."""
    return {side: {key: sum(r[side].get(key, 0) for r in records)
                   for key in ("failed", "attempted")}
            for side in ("parent", "change")}


def summarize(records: list, spec: dict) -> dict:
    """Per metric: each side's median and minimum, the change's wins, the
    parent's interquartile spread and the verdict; ``spec`` maps a metric to
    its ``(better, bound)``, the bound a fraction of the parent's median, and
    a metric it lacks is lower-better unbounded."""
    ops = operations(records)
    share = {side: n["failed"] / n["attempted"] if n["attempted"] else 0.0
             for side, n in ops.items()}
    summary = {}
    for name in records[0]["parent"]["metrics"]:
        better, bound = spec.get(name, ("lower", None))
        sign = 1 if better == "lower" else -1
        parent = [r["parent"]["metrics"][name] for r in records]
        change = [r["change"]["metrics"][name] for r in records]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        medians = statistics.median(parent), statistics.median(change)
        scale = abs(medians[0])
        gap = sign * (medians[0] - medians[1])      # > 0: the change is better
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        if (len(records) >= 10 and 10 * wins >= 9 * len(records) and gap > q3 - q1
                and share["change"] <= share["parent"]):
            verdict = "gain"
        elif bound is not None and -gap > bound * scale:
            verdict = "regression"
        elif (bound is not None and q3 - q1 > bound * scale
              and not all(sign * (p - c) > 0 for p in parent for c in change)):
            verdict = "unresolved"
        else:
            verdict = "none"
        summary[name] = {"better": better, "bound": bound,
                         "parent_median": medians[0], "change_median": medians[1],
                         "parent_min": min(parent), "change_min": min(change),
                         "change_wins": wins, "parent_spread": q3 - q1,
                         "parent_spread_rel": (q3 - q1) / scale if scale else None,
                         "verdict": verdict}
    return summary


def same_outputs(records: list) -> dict:
    """Each ``same_*`` entry of the probe: per name, whether every run of
    both sides gave one digest."""
    runs = [r[side] for r in records for side in ("parent", "change")]
    return {key: {name: len({d for run in runs for d in run[key][name]}) == 1
                  for name in runs[0][key]}
            for key in runs[0] if key.startswith("same_")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", required=True, choices=(*WORKLOADS, *PROBES))
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: a spread needs two runs a side")
    os.sched_setaffinity(0, {args.cpu})         # every run inherits it
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        records = drive(*checkouts.values(), Path(tmp), args.pairs, args.seed,
                        functools.partial(run_probe, args.probe, args.repeats))
    report = {"probe": args.probe, "seed": args.seed, "pairs": args.pairs,
              "repeats": args.repeats, "cpu": args.cpu,
              "checkouts": {side: str(root) for side, root in checkouts.items()},
              "src_lines": {side: sum(p.read_bytes().count(b"\n")
                                      for p in (root / "src").rglob("*.py"))
                            for side, root in checkouts.items()},
              "metrics": summarize(records, spec), **same_outputs(records),
              "operations": operations(records), "per_pair": records}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
