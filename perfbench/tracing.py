"""Per-layer spans and counters, recorded from outside the library.

:class:`Tracer` wraps public functions of each ``passiflow`` module for the
duration of a traced pass and restores them afterwards; nothing under
``src/`` changes.  Names imported by value are patched where they are looked
up: ``integrate`` in ``primal_dual``, ``tline`` and ``cli``, and ``solve`` in
``svm`` and ``cli``.

A span's self time is its duration minus the time covered by spans opened
while it was the innermost one.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from pathlib import Path

from passiflow import cli, ode, plants, primal_dual, svm, tline

#: Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "ode.integrate_s": ("s", "lower"),
    "ode.self_s": ("s", "lower"),
    "ode.rhs_evals": ("count", "lower"),
    "ode.guard_evals": ("count", "lower"),
    "ode.rk4_steps": ("count", "lower"),
    "ode.advancing_steps": ("count", "lower"),
    "ode.useful_step_ratio": ("ratio", "higher"),
    "ode.event_batches": ("count", "lower"),
    "ode.samples": ("count", "lower"),
    "primal_dual.solve_s": ("s", "lower"),
    "primal_dual.postpass_s": ("s", "lower"),
    "primal_dual.rhs_s": ("s", "lower"),
    "primal_dual.rhs_calls": ("count", "lower"),
    "primal_dual.constraint_s": ("s", "lower"),
    "primal_dual.switch_events": ("count", "lower"),
    "plants.rhs_s": ("s", "lower"),
    "plants.lyap_s": ("s", "lower"),
    "tline.rhs_s": ("s", "lower"),
    "tline.lyap_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_LOOP_BUILDERS = ("prlc_power_shaping_loop", "prlc_krasovskii_pi_loop",
                  "hvac_power_shaping_loop", "dyn_feedback_loop")
_INTEGRATE_SIGNATURE = inspect.signature(ode.integrate)


def step_counts(rhs_evals: int, guard_evals: int, guarded: bool,
                stop_when_converged: bool) -> tuple[int, int]:
    """(RK4 steps, advancing steps) of one ``integrate`` call from its counters.

    Every RK4 step costs four rhs evaluations.  A guarded call evaluates the
    guards once at the start and once after every RK4 step (plain, bisection
    or landing step), and ``solve`` always stops on convergence, which costs
    one more rhs evaluation after each step that advances without an event:
    RK4 = guards - 1 and advancing = rhs - 4 RK4.  An unguarded call only
    advances: RK4 = rhs / 4, or rhs / 5 with the convergence check.
    """
    if guarded:
        rk4 = guard_evals - 1
        return rk4, rhs_evals - 4 * rk4
    rk4 = rhs_evals // (5 if stop_when_converged else 4)
    return rk4, rk4


class Tracer:
    """Span totals and counters for one or more traced passes."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def timed(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.total[name] += dt
                self.child[name] += self._stack.pop()
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
        return wrapper

    def self_time(self, name) -> float:
        return self.total[name] - self.child[name]

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layer boundaries; undo with :meth:`uninstall`."""
        for module in (primal_dual, tline, cli):
            self._patch(module, "integrate",
                        self.timed(f"ode.integrate@{module.__name__}",
                                   self._counting_integrate(ode.integrate)))
        solve = self.timed("primal_dual.solve", self._counting_solve(primal_dual.solve))
        for module in (svm, cli):
            self._patch(module, "solve", solve)
        self._patch(primal_dual, "interconnected_rhs",
                    self.timed("primal_dual.rhs", primal_dual.interconnected_rhs))
        for meth in ("g_values", "g_jacobian"):
            self._patch(primal_dual.ConvexProblem, meth,
                        self.timed("primal_dual.constraint",
                                   getattr(primal_dual.ConvexProblem, meth)))
        for builder in _LOOP_BUILDERS:
            self._patch(plants, builder, self._wrapping_loop(getattr(plants, builder)))
        self._patch(tline, "tline_rhs", self.timed("tline.rhs", tline.tline_rhs))
        self._patch(tline, "closed_loop_lyapunov",
                    self.timed("tline.lyap", tline.closed_loop_lyapunov))
        self._patch(cli, "run", self.timed("cli.run", cli.run))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _counting_integrate(self, integrate):
        def wrapper(*args, **kwargs):
            bound = _INTEGRATE_SIGNATURE.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n = {"rhs": 0, "guard": 0}
            rhs = self.timed("ode.rhs_callback", a["rhs"])

            def counted_rhs(t, x):
                n["rhs"] += 1
                return rhs(t, x)
            a["rhs"] = counted_rhs
            guards = a["guards"]
            if guards is not None:
                if not callable(guards):
                    raise TypeError("only a vectorized guard callable is traced")
                timed_guards = self.timed("ode.guard_callback", guards)

                def counted_guards(t, x):
                    n["guard"] += 1
                    return timed_guards(t, x)
                a["guards"] = counted_guards
            try:
                traj = integrate(*bound.args, **bound.kwargs)
            finally:
                rk4, advancing = step_counts(n["rhs"], n["guard"], guards is not None,
                                             a["stop_when_converged"])
                self.counts["ode.rhs_evals"] += n["rhs"]
                self.counts["ode.guard_evals"] += n["guard"]
                self.counts["ode.rk4_steps"] += rk4
                self.counts["ode.advancing_steps"] += advancing
            self.counts["ode.event_batches"] += len({t for t, _ in traj.events})
            self.counts["ode.samples"] += traj.times.size
            return traj
        return wrapper

    def _counting_solve(self, solve):
        def wrapper(*args, **kwargs):
            result = solve(*args, **kwargs)
            self.counts["primal_dual.switch_events"] += result.switch_count
            return result
        return wrapper

    def _wrapping_loop(self, builder):
        def wrapper(*args, **kwargs):
            rhs, lyap = builder(*args, **kwargs)
            return self.timed("plants.rhs", rhs), self.timed("plants.lyap", lyap)
        return wrapper

    # -- report ---------------------------------------------------------------

    def add_bytes_written(self, out_dir):
        self.counts["cli.bytes_written"] += sum(
            f.stat().st_size for f in Path(out_dir).rglob("*") if f.is_file())

    def metrics(self) -> dict:
        """Layer metrics accumulated so far (``trace.overhead_s`` excluded)."""
        integrate_s = sum(v for k, v in self.total.items() if k.startswith("ode.integrate@"))
        callbacks_s = self.total["ode.rhs_callback"] + self.total["ode.guard_callback"]
        rk4 = self.counts["ode.rk4_steps"]
        out = {
            "ode.integrate_s": integrate_s,
            "ode.self_s": integrate_s - callbacks_s,
            "ode.useful_step_ratio": self.counts["ode.advancing_steps"] / rk4 if rk4 else 0.0,
            "primal_dual.solve_s": self.total["primal_dual.solve"],
            "primal_dual.postpass_s": (self.total["primal_dual.solve"]
                                       - self.total["ode.integrate@passiflow.primal_dual"]),
            "primal_dual.rhs_s": self.total["primal_dual.rhs"],
            "primal_dual.rhs_calls": self.calls["primal_dual.rhs"],
            "primal_dual.constraint_s": self.total["primal_dual.constraint"],
            "plants.rhs_s": self.total["plants.rhs"],
            "plants.lyap_s": self.total["plants.lyap"],
            "tline.rhs_s": self.total["tline.rhs"],
            "tline.lyap_s": self.total["tline.lyap"],
            "cli.run_s": self.total["cli.run"],
            "cli.self_s": self.self_time("cli.run"),
        }
        for name in ("ode.rhs_evals", "ode.guard_evals", "ode.rk4_steps",
                     "ode.advancing_steps", "ode.event_batches", "ode.samples",
                     "primal_dual.switch_events", "cli.bytes_written"):
            out[name] = self.counts[name]
        return out
