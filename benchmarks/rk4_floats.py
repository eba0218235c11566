"""Per-layer timing of the float RK4 step: microseconds per
``integrate(floats=True)`` step on each of the four CLI plant loops.

Usage, from the root of a checkout:

    python3 benchmarks/rk4_floats.py --parent PARENT_DIR --change CHANGE_DIR

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts (each with ``src/passiflow``)
of the two commits to compare.  The loops are the plant runs of perfbench's
``closed_loops`` (its parameters, gains, step and horizons, at fixed starts):

- ``prlc-power_shaping``: parallel RLC under power shaping, 2 states;
- ``prlc-krasovskii_pi``: parallel RLC under Krasovskii PI, 3 states;
- ``hvac-power_shaping``: two-zone HVAC under power shaping, 4 states;
- ``hvac-dyn_feedback``: two-zone HVAC under dynamic feedback, 6 states.

In each of ``--rounds`` rounds, the two checkouts alternating in which goes
first, a fresh interpreter per checkout, pinned to one CPU, runs each config
once through its ``cli.run`` to capture the ``rhs``, start and
``IntegratorConfig`` the CLI hands to ``integrate``, then times
``--repeats`` calls of ``integrate(rhs, x0, cfg, floats=True)`` on them.  It
reports the fastest microseconds per RK4 step over all rounds and the median
of the rounds' medians, and checks that both checkouts sample the same states
bit for bit.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PRLC = {"R": 1.0, "G": 2.0, "L": 1.0, "C": 1.0}
LOOPS = {
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
CONFIGS = {
    key: {"schema": 1, "kind": "plant",
          "plant": {"name": name, "controller": controller, "params": params, "gains": gains,
                    "horizon": horizon, "initial_state": x0},
          "integrator": {"step": 0.01, "record_every": 20}}
    for key, (name, controller, params, gains, horizon, x0) in LOOPS.items()
}

# Runs in each checkout's interpreter: argv is the checkout's src, the configs
# as JSON, the repeats and the CPU.
TIMER = r"""
import hashlib, json, os, statistics, sys, tempfile, time
from pathlib import Path
src, configs, repeats, cpu = sys.argv[1:]
sys.path.insert(0, src)
os.sched_setaffinity(0, {int(cpu)})
from passiflow import cli
from passiflow.ode import integrate

loops = {}


def capture(rhs, x0, cfg, **kw):
    loops[name] = (rhs, x0, cfg)
    return integrate(rhs, x0, cfg, **kw)


cli.integrate = capture
with tempfile.TemporaryDirectory() as tmp:
    for name, cfg in json.loads(configs).items():
        code, _ = cli.run(cfg, Path(tmp) / name)
        if code != 0:
            raise SystemExit(f"{name} run exited {code}")
cli.integrate = integrate

result = {}
for name, (rhs, x0, cfg) in loops.items():
    times = []
    for _ in range(int(repeats)):
        start = time.perf_counter()
        traj = integrate(rhs, x0, cfg, floats=True)
        times.append(time.perf_counter() - start)
    steps = traj.stats.rk4_steps
    result[name] = {"d": traj.states.shape[1], "steps": steps,
                    "us_per_step_min": min(times) / steps * 1e6,
                    "us_per_step_median": statistics.median(times) / steps * 1e6,
                    "states_sha1": hashlib.sha1(traj.states.tobytes()).hexdigest()}
print(json.dumps(result))
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args()
    runs = {"parent": [], "change": []}
    for round_ in range(args.rounds):       # alternating, so drift hits both alike
        for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
            proc = subprocess.run(
                [sys.executable, "-c", TIMER, str(getattr(args, side).resolve() / "src"),
                 json.dumps(CONFIGS), str(args.repeats), str(args.cpu)],
                capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    report = {}
    for side, results in runs.items():
        report[side] = {name: {"d": results[0][name]["d"], "steps": results[0][name]["steps"],
                               "us_per_step_min": min(r[name]["us_per_step_min"]
                                                      for r in results),
                               "us_per_step_median": statistics.median(
                                   r[name]["us_per_step_median"] for r in results)}
                        for name in LOOPS}
    report["same_states"] = {name: len({r[name]["states_sha1"]
                                        for results in runs.values() for r in results}) == 1
                             for name in LOOPS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
