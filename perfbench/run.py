"""passiflow benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload svm_paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

For each workload it times ``SETUP_REPEATS`` fresh interpreters that import
``passiflow`` and build the workload's configs (``setup_s``), computes an
independent reference for every operation (untimed), then starts one worker
process that runs the workload's fixed number of closed-loop passes over
the operations, fewer only if they would not end within ``--seconds`` (see
``worker.py``).  Every result is checked against its reference.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``tracing.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A failed operation (an exception out of ``cli.run``, an unexpected exit code,
an audit FAIL or a result off its reference) is counted, never raised.  The
benchmark exits non-zero only when it cannot measure at all, for instance
when ``src/passiflow`` is missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# The worker may start a pass up to ``--seconds`` in; the margin lets that
# pass end.  Past the timeout the worker is killed and every operation of the
# workload counts as failed.
WORKER_MARGIN_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def _timed_out(ops, seconds: float, trace: bool) -> dict:
    """What the worker would have reported, for a worker killed at its
    timeout: every operation failed, the time it was given as ``wall_s``,
    and as ``peak_rss_mb`` the largest ``ru_maxrss`` of this process's
    children, an upper bound that includes this process's own peak."""
    import tracing

    reason = {"code": None, "error": f"TimeoutExpired: worker killed after {seconds:.0f} s"}
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    data = {"passes": 0, "wall_s": seconds, "median_raw_pass_s": seconds, "probe_unit_ms": [],
            "outcomes": [[reason] * len(ops)], "peak_rss_mb": peak_kb / 1024.0}
    if trace:
        data["layers"] = dict.fromkeys(tracing.LAYER_METRICS, 0)
        data["layer_counts_repeat"] = False
    return data


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """(result object, report lines) for one workload."""
    import hostprobe
    import references
    import workloads

    out = OUT_ROOT / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out)]
    try:
        setup = []
        if not trace:
            probe = hostprobe.HostProbe()
            probe.start()
            try:
                for _ in range(SETUP_REPEATS):
                    t0 = time.perf_counter()
                    # captured output makes the wait end at the child's exit; a
                    # bare wait with a timeout polls in 50 ms steps
                    subprocess.run(cmd + ["--setup-only"], check=True, capture_output=True,
                                   timeout=SETUP_TIMEOUT_S)
                    setup.append((t0, time.perf_counter()))
            finally:
                units = probe.stop()
            setup = [hostprobe.scaled_s([span], units)[0] for span in setup]
        ops = workloads.build_ops(workload, seed, out)
        refs = [references.reference(op) for op in ops]
        timeout = seconds + WORKER_MARGIN_S
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            data = _timed_out(ops, timeout, trace)
        else:
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
            data = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT_ROOT.is_dir() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()

    attempted = 0
    failures = collections.Counter()
    for outcomes in data["outcomes"]:
        for op, ref, outcome in zip(ops, refs, outcomes, strict=True):
            attempted += 1
            reason = references.check(op, outcome, ref)
            if reason is not None:
                failures[f"{op.name}: {reason}"] += 1
    failed = sum(failures.values())
    lines = []
    if trace:
        import tracing

        metrics = {name: {"value": data["layers"][name], "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
        lines.append(f"{workload}: traced {data['passes']} pass(es) of {len(ops)} op(s); "
                     f"ops_failed {failed}/{attempted}; counts repeat across passes: "
                     f"{data['layer_counts_repeat']}")
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics = {
            "wall_s": {"value": data["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(
            f"{workload}: wall_s {metrics['wall_s']['value']:.4f} s "
            f"(median of {data['passes']} pass(es) of {len(ops)} op(s), scaled to the "
            f"reference host speed; median raw pass {data['median_raw_pass_s']:.4f} s), "
            f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)}), "
            f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB, "
            f"ops_failed {failed}/{attempted} ops")
        if data["probe_unit_ms"]:
            units = data["probe_unit_ms"]
            lines.append(f"  host probe unit {statistics.median(units):.4f} ms (median over "
                         f"passes, {min(units):.4f}-{max(units):.4f} ms; reference "
                         f"{data['ref_unit_ms']:.4f} ms)")
    lines += [f"  failed x{count}: {reason}" for reason, count in failures.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="svm_paper, closed_loops, qp_mixed or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "passiflow" / "__init__.py").is_file():
        print(f"perfbench: no passiflow sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    # One CPU for this process and its children, so that the worker's host
    # probe times the CPU the passes run on; BLAS gets that one CPU too.
    os.sched_setaffinity(0, {cpus[0]})
    for var in THREAD_VARS:
        os.environ[var] = "1"            # before numpy loads BLAS, here and in workers
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    print("provenance: " + json.dumps(provenance(len(cpus), cpus[0]), sort_keys=True))
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
