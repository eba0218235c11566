"""Checks of the benchmark itself: step-count derivation, failure counting,
pass-time scaling, refusal outside a checkout, and agreement with
``BENCHMARK.json``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from passiflow import ode, primal_dual
from passiflow.ode import IntegratorConfig
from passiflow.primal_dual import AffineInequalities, ConvexProblem, FlowState, quadratic_oracle

import hostprobe
import references
import worker
import workloads
from tracing import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_solve(monkeypatch, prob, init, cfg):
    """Tracer metrics of one ``solve``, and the length of every RK4 step taken."""
    lengths = []
    real_step = ode._rk4_step

    def counting_step(rhs, t, x, h):
        lengths.append(h)
        return real_step(rhs, t, x, h)

    monkeypatch.setattr(ode, "_rk4_step", counting_step)
    tracer = Tracer()
    tracer.install()
    try:
        result = primal_dual.solve(prob, init, cfg=cfg)
    finally:
        tracer.uninstall()
    return result, tracer.metrics(), lengths


def test_guarded_step_counts_match_hand_count(monkeypatch):
    # min (x - 3)^2 / 2  s.t.  x - 1 <= 0, from x = 0 and mu = 0.  The
    # constraint is reached once, at t = ln 1.5; the multiplier then rises to
    # its optimum 2 and never returns to zero, so there is one event batch.
    prob = ConvexProblem(n=1, f=quadratic_oracle([[1.0]], [-3.0]),
                         ineq=AffineInequalities([[1.0]], [1.0]))
    h = 2.0 ** -4
    cfg = IntegratorConfig(step=h, event_tol=h / 2 ** 10, max_time=50.0)
    result, m, lengths = _traced_solve(monkeypatch, prob, FlowState([0.0], mu=[0.0]), cfg)

    assert result.converged
    assert m["ode.event_batches"] == 1
    assert m["ode.rk4_steps"] == len(lengths)
    # The event costs the step that crosses, ten bisection steps (the window
    # halves from h to h / 2^10 = event_tol) and the step landing on the crossing.
    assert m["ode.rk4_steps"] - m["ode.advancing_steps"] == 1 + 10 + 1
    full_steps = sum(1 for step in lengths if step == h)
    assert m["ode.advancing_steps"] == full_steps - 1
    assert m["ode.guard_evals"] == len(lengths) + 1
    assert m["ode.rhs_evals"] == 4 * len(lengths) + m["ode.advancing_steps"]


def test_unguarded_step_counts(monkeypatch):
    prob = ConvexProblem(n=1, f=quadratic_oracle([[1.0]], [-3.0]))
    cfg = IntegratorConfig(step=2.0 ** -4, max_time=50.0)
    _, m, lengths = _traced_solve(monkeypatch, prob, FlowState([0.0]), cfg)

    assert m["ode.guard_evals"] == 0
    assert m["ode.rk4_steps"] == m["ode.advancing_steps"] == len(lengths)
    assert m["ode.useful_step_ratio"] == 1.0


def test_scaled_pass_time_follows_the_probe():
    ref = hostprobe.REF_UNIT_S
    spans = [(0.0, 1.0), (2.0, 3.0)]            # two cli.run calls of 1 s
    # Units inside the calls took twice the reference: the host ran at half
    # speed.  The unit between the calls does not count.
    units = [(0.5, 2 * ref), (2.5, 2 * ref), (1.5, 9.0)]
    scaled, mean_unit = hostprobe.scaled_s(spans, units)
    assert mean_unit == 2 * ref
    assert scaled == pytest.approx((2.0 - 4 * ref) / 2)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_crashing_svm_seed_is_a_counted_failure(tmp_path):
    # ode._clamp raises "undershot zero ... missing guard?" on dataset seed 4.
    # The benchmark must record it as a failed operation, not crash.
    ops = workloads._svm_ops(4)
    _, outcomes = worker.run_pass(ops, tmp_path)
    reason = references.check(ops[0], outcomes[0], references.reference(ops[0]))
    assert reason is not None
    assert "ValueError: component" in reason
    assert "missing guard?" in reason


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "svm_paper", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == LAYER_METRICS
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
