"""Peak memory of the paper-scale SVM run, and the sample buffer behind it:
``VmHWM`` after one and after two ``cli.run`` calls of the svm kind at
dataset seed 0 (600 points, perfbench's ``svm_paper`` operation), with the
rows ``integrate`` held for its samples and the samples it kept.

Usage, from the root of a checkout:

    python3 benchmarks/sample_memory.py --parent PARENT_DIR --change CHANGE_DIR

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts (each with ``src/passiflow``)
of the two commits to compare.  In each of ``--rounds`` rounds, the two
checkouts alternating in which goes first, a fresh interpreter per checkout,
pinned to one CPU, runs the config twice through its ``cli.run`` and reads
its own ``VmHWM`` after each call.  ``primal_dual.integrate`` is wrapped to
read, per call, the rows of the array behind ``Trajectory.states`` (the
buffer as it stood at the end, grown or not) and the samples kept.  Each
side reports every round's two readings, their medians, the rows and
samples, and whether both calls and both sides wrote the same bytes.  The
result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CONFIG = {"schema": 1, "kind": "svm", "svm": {"seed": 0, "n_per_class": 300}}

# Runs in each checkout's interpreter: argv is the checkout's src, the config
# as JSON and the CPU.
PROBE = r"""
import hashlib, json, os, sys, tempfile
from pathlib import Path
src, config, cpu = sys.argv[1:]
sys.path.insert(0, src)
os.sched_setaffinity(0, {int(cpu)})
from passiflow import cli, primal_dual

buffers = []


def wrapped(*args, **kwargs):
    traj = integrate(*args, **kwargs)
    buffers.append({"rows": traj.states.base.shape[0], "samples": traj.times.size})
    return traj


def vm_hwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0


integrate = primal_dual.integrate
primal_dual.integrate = wrapped
result = {"vm_hwm_mb": [], "digests": []}
with tempfile.TemporaryDirectory() as tmp:
    for call in range(2):
        out = Path(tmp) / str(call)
        code, _ = cli.run(json.loads(config), out)
        if code != 0:
            raise SystemExit(f"svm run exited {code}")
        result["vm_hwm_mb"].append(vm_hwm_mb())
        digests = {}
        for path in sorted(out.iterdir()):
            # file_digest reads in chunks: reading samples.csv whole would
            # raise the next call's VmHWM
            with open(path, "rb") as fh:
                digests[path.name] = hashlib.file_digest(fh, "sha1").hexdigest()
        result["digests"].append(digests)
result["buffers"] = buffers
print(json.dumps(result))
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args()
    runs = {"parent": [], "change": []}
    for round_ in range(args.rounds):       # alternating, so drift hits both alike
        for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, str(getattr(args, side).resolve() / "src"),
                 json.dumps(CONFIG), str(args.cpu)],
                capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    report = {}
    for side, results in runs.items():
        first = [r["vm_hwm_mb"][0] for r in results]
        second = [r["vm_hwm_mb"][1] for r in results]
        report[side] = {"vm_hwm_mb_after_one_run": first,
                        "vm_hwm_mb_after_two_runs": second,
                        "median_after_one_run": statistics.median(first),
                        "median_after_two_runs": statistics.median(second),
                        "buffers": results[0]["buffers"]}
    report["same_artifacts"] = len({json.dumps(d) for results in runs.values()
                                    for r in results for d in r["digests"]}) == 1
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
