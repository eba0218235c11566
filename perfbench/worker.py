"""Timed passes over one workload, in a fresh process started by ``run.py``.

The process imports ``passiflow``, builds the workload's configs and then
runs passes back to back: each pass calls ``cli.run`` once per operation,
sequentially, and only the ``cli.run`` calls are timed.  It prints one JSON
line: the pass time scaled to a reference host speed (see ``hostprobe.py``),
each operation's outcome, peak RSS, the host probe's unit times and, when
traced, the per-layer metrics.  With ``--setup-only`` it stops after
building the configs; ``run.py`` times that to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from passiflow import cli  # noqa: E402

import workloads  # noqa: E402
import hostprobe  # noqa: E402
from tracing import Tracer  # noqa: E402

def _last_csv_row(path) -> list[float]:
    """The last row of a CSV file, read from its end so that the worker's
    peak RSS stays that of ``cli.run``."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        chunk = 1 << 16
        while True:
            fh.seek(max(0, size - chunk))
            lines = fh.read().splitlines()
            if len(lines) >= 2 or chunk >= size:
                break
            chunk *= 2
    return [float(v) for v in lines[-1].split(b",")]


def _outcome(op, code, summary, out_dir) -> dict:
    """What :func:`references.check` needs from one finished operation."""
    outcome = {"code": code, "summary": {k: v for k, v in summary.items() if k != "config"}}
    if code != 0:
        return outcome
    if op.kind == "plant":
        outcome["final"] = summary["final_state"]
    elif op.kind == "tline":
        outcome["final"] = _last_csv_row(out_dir / "spacetime.csv")[1:]
    elif op.kind == "solve":
        outcome["final"] = _last_csv_row(out_dir / "trajectory.csv")[1:]
    return outcome


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (``VmHWM``).

    Not ``getrusage``: Linux carries the peak of the process that started
    this one across ``exec`` into ``ru_maxrss``, which would then report
    ``run.py``'s peak whenever that was higher.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(ops, out: Path, tracer=None) -> tuple[list[tuple[float, float]], list[dict]]:
    """One closed-loop pass: (start and end of each ``cli.run`` call, outcomes)."""
    spans = []
    outcomes = []
    for op in ops:
        op_dir = out / op.name
        t0 = time.perf_counter()
        try:
            code, summary = cli.run(op.cfg, op_dir, strict=op.strict)
        except Exception as exc:  # a crash is a failed operation, not a harness crash
            spans.append((t0, time.perf_counter()))
            outcomes.append({"code": None, "error": f"{type(exc).__name__}: {exc}"})
            continue
        spans.append((t0, time.perf_counter()))
        outcomes.append(_outcome(op, code, summary, op_dir))
        if tracer is not None:
            tracer.add_bytes_written(op_dir)
    return spans, outcomes


def measure(ops, out: Path, passes: int, seconds: float, trace: bool) -> dict:
    """``passes`` passes, or fewer when the next one, as long as the last,
    would end after ``seconds`` (there is always one).

    The pass count is fixed per workload, not set by a time budget, so that
    a faster change takes as many samples as its parent.  Traced runs
    alternate an untraced and a traced pass, so that the tracing overhead is
    measured on the same machine state.
    """
    spans, traced_spans, outcomes, layers = [], [], [], []
    probe = hostprobe.HostProbe()
    probe.start()
    start = time.perf_counter()
    last = 0.0
    try:
        while not spans or (len(spans) < passes and time.perf_counter() - start + last <= seconds):
            t0 = time.perf_counter()
            pass_spans, pass_outcomes = run_pass(ops, out)
            spans.append(pass_spans)
            outcomes.append(pass_outcomes)
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    pass_spans, pass_outcomes = run_pass(ops, out, tracer)
                finally:
                    tracer.uninstall()
                traced_spans.append(pass_spans)
                outcomes.append(pass_outcomes)
                layers.append(tracer.metrics())
            last = time.perf_counter() - t0
    finally:
        units = probe.stop()
    scaled = [hostprobe.scaled_s(s, units) for s in spans]
    result = {"passes": len(spans),
              "wall_s": statistics.median(w for w, _ in scaled),
              "median_raw_pass_s": statistics.median(sum(t1 - t0 for t0, t1 in s) for s in spans),
              "probe_unit_ms": [1e3 * u for _, u in scaled],
              "ref_unit_ms": 1e3 * hostprobe.REF_UNIT_S,
              "outcomes": outcomes,
              "peak_rss_mb": peak_rss_mb()}
    if trace:
        times = [name for name in layers[0] if name.endswith("_s")]
        # counts are deterministic: report the first pass's, and whether they repeat
        metrics = dict(layers[0])
        metrics.update({name: statistics.median(m[name] for m in layers) for name in times})
        traced = statistics.median(hostprobe.scaled_s(s, units)[0] for s in traced_spans)
        metrics["trace.overhead_s"] = traced - result["wall_s"]
        result["layers"] = metrics
        result["layer_counts_repeat"] = all(
            m[name] == layers[0][name] for m in layers for name in m if name not in times)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    ops = workloads.build_ops(args.workload, args.seed, out)
    if args.setup_only:
        return 0
    result = measure(ops, out, workloads.PASSES[args.workload], args.seconds, bool(args.trace))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
