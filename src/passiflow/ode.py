"""Fixed-step RK4 integration with zero-crossing events.

Every flow in this library (gradient flows, switched multiplier dynamics,
circuit and line simulations) runs through :func:`integrate`.  The scheme is
deliberately plain: classical fourth-order Runge-Kutta with a constant step,
plus bisection of guard sign changes along the RK4 map from the step start
(not along the exact solution, so on a switched field an event time can be
off by O(step) whatever ``event_tol`` is).  A fixed step keeps switch
bookkeeping and storage audits deterministic and reproducible; there is no
adaptive error control and no stiff path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DivergenceError",
    "IntegratorConfig",
    "IntegrationStats",
    "Trajectory",
    "integrate",
    "finite_diff_gradient",
    "write_csv",
]


class DivergenceError(RuntimeError):
    """State became non-finite during integration.

    Carries the last finite state and its time so callers can report where
    the blow-up started.
    """

    def __init__(self, t: float, last_state: np.ndarray):
        super().__init__(f"non-finite state at t={t:.6g}")
        self.t = t
        self.last_state = np.asarray(last_state)


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs for :func:`integrate` and convergence detection.

    ``step`` is the RK4 step and ``max_time`` the integrated span.
    ``event_tol`` is the bracket width bisection reaches on a guard's sign
    change along the RK4 map from the step start; it does not bound the
    crossing-time error, which is O(step) on a switched rhs.
    ``convergence_tol`` and ``convergence_window`` define convergence (see
    :func:`integrate`), and every ``record_every``-th step is sampled.  The
    clamp slack is the module constant :data:`CLAMP_TOL`.
    """

    step: float = 1e-3
    max_time: float = 10.0
    event_tol: float = 1e-10
    convergence_tol: float = 1e-6
    convergence_window: int = 5
    record_every: int = 1

    def __post_init__(self):
        for name in ("step", "max_time", "event_tol", "convergence_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"IntegratorConfig.{name} must be finite and > 0")
        if self.convergence_window < 1:
            raise ValueError("IntegratorConfig.convergence_window must be >= 1")
        if self.record_every < 1:
            raise ValueError("IntegratorConfig.record_every must be >= 1")


@dataclass
class IntegrationStats:
    """Counts of one :func:`integrate` call: calls into ``rhs`` (four per
    RK4 step, one per convergence check; ``primal_dual.solve`` answers some
    from a cache), RK4 steps (bisection and crossing steps included), event
    batches, and components truncated by the clamp.
    """

    rhs_evals: int = 0
    rk4_steps: int = 0
    bisection_steps: int = 0
    event_batches: int = 0
    clamp_truncations: int = 0


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, one state row per time.

    ``events`` holds ``(time, tag)`` pairs for localized guard crossings;
    every event time is also a sample, so switched-storage audits can
    evaluate both sides of a switch.  ``stats`` is set by :func:`integrate`.
    """

    times: np.ndarray
    states: np.ndarray
    events: list[tuple[float, str]] = field(default_factory=list)
    stats: IntegrationStats | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states count must equal times count")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for t, _ in self.events:
            if not (self.times[0] <= t <= self.times[-1]):
                raise ValueError(f"event time {t} outside trajectory span")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path, events_path=None) -> None:
        """Write ``t,x0,...,xn`` rows; events go to a sidecar ``t,tag`` CSV."""
        write_csv(path, ["t"] + [f"x{k}" for k in range(self.states.shape[1])],
                  ([t] + z.tolist() for t, z in zip(self.times.tolist(), self.states)))
        if events_path is not None:
            write_csv(events_path, ["t", "tag"], self.events)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CRLF CSV lines, numbers as ``%.17g``.

    Strings are written as they are (no quoting); the first row's cell types
    fix the line format.  Rows are consumed lazily, so pass a generator.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(c, str) else "%.17g" for c in row) + "\r\n"
            fh.write(line % tuple(row))


#: Largest negative excursion, relative to ``max(1, |rate|)``, that a
#: clamped-nonnegative component may show after a plain step before it is
#: treated as an integration error rather than crossing residue.
CLAMP_TOL = 1e-8


def _rk4_step(rhs, t, x, h):
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    config: IntegratorConfig,
    guards: Callable[[float, np.ndarray], np.ndarray] | None = None,
    guard_labels: Sequence[str] | None = None,
    clamp_nonneg: Sequence[int] | None = None,
    stop_when_converged: bool = False,
) -> Trajectory:
    """Integrate ``xdot = rhs(t, x)`` from 0 to ``max_time``.

    Parameters
    ----------
    rhs : callable
        Vector field ``rhs(t, x) -> xdot``.
    x0 : array_like
        Finite initial state.
    config : IntegratorConfig
    guards : optional
        Callable ``guards(t, x)`` returning all guard values as one 1-D
        array.  Whenever a guard changes sign inside a step, bisection
        brackets the sign change to a width ``<= event_tol`` (see
        :class:`IntegratorConfig`), an event is recorded, and integration
        restarts from the bracket's far end.
    guard_labels : optional
        Event tags, aligned with the guards; defaults to ``guard<k>``.
    clamp_nonneg : optional
        Indices whose components are truncated at zero when they undershoot
        by less than :data:`CLAMP_TOL` after an accepted step.  A larger
        undershoot raises ``ValueError`` -- guards are supposed to catch the
        crossing first.
    stop_when_converged : bool
        Stop early once ``|rhs|_inf < convergence_tol`` holds over
        ``convergence_window`` consecutive accepted steps.

    Returns
    -------
    Trajectory
        Samples every ``record_every``-th step plus all event samples and
        the final state, with the call's :class:`IntegrationStats`.

    Each accepted state (the initial state, each step's state and each event
    landing, after the clamp) is read-only and stays one array object while
    it is current, so ``rhs`` may cache on its identity; RK4 stage states and
    bisection probes stay writable.  Samples keep the accepted states
    themselves; ``Trajectory.states`` is a fresh writable array.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("initial state must be finite")
    x.flags.writeable = False
    h = config.step
    t = 0.0
    t_end = float(config.max_time)
    stats = IntegrationStats()

    n_guards = 0
    if guards is not None:
        s_cur = guards(t, x)
        n_guards = s_cur.size
        if guard_labels is None:
            guard_labels = [f"guard{k}" for k in range(n_guards)]
    clamp_idx = None if clamp_nonneg is None else np.asarray(clamp_nonneg, dtype=int)

    times = [t]
    states = [x]
    events: list[tuple[float, str]] = []
    quiet = 0
    step_index = 0

    def _record(tv, xv):
        times.append(tv)
        states.append(xv)

    def _clamp(xv, rate, extra_slack=0.0):
        # extra_slack > 0 only at event restarts: a guard can miss a dip
        # that starts and ends inside one step, and the restart of an
        # unrelated event may land mid-dip.  The dip depth is bounded by
        # one step's travel, so that is the slack granted there; plain
        # steps keep the strict bound so a genuinely missing guard is
        # still caught.
        if clamp_idx is None:
            return xv
        neg = clamp_idx[xv[clamp_idx] < 0.0]
        if neg.size == 0:
            return xv
        slack = CLAMP_TOL * np.maximum(1.0, np.abs(rate[neg])) + extra_slack
        bad = np.flatnonzero(xv[neg] < -slack)
        if bad.size:
            k = bad[0]
            raise ValueError(f"component {neg[k]} undershot zero by {-xv[neg[k]]:.3e} "
                             f"(> clamp slack {slack[k]:.3e}); missing guard?")
        xv[neg] = 0.0
        stats.clamp_truncations += neg.size
        return xv

    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        h_step = min(h, t_end - t)
        x_new, k1 = _rk4_step(rhs, t, x, h_step)
        stats.rk4_steps += 1
        if not np.isfinite(x_new).all():
            raise DivergenceError(t, x)

        any_crossed = False
        if n_guards:
            s_new = guards(t + h_step, x_new)
            any_crossed = (s_cur * s_new < 0.0).any()

        if any_crossed:
            # One vector bisection localizes the earliest crossing among all
            # triggered guards; per-guard bisections would cost quadratically
            # when a cluster of guards crosses in the same step.
            lo, hi = 0.0, h_step
            s_lo = s_cur
            s_hi = s_new
            while hi - lo > config.event_tol:
                mid = 0.5 * (lo + hi)
                x_mid, _ = _rk4_step(rhs, t, x, mid)
                stats.rk4_steps += 1
                stats.bisection_steps += 1
                s_mid = guards(t + mid, x_mid)
                if (s_lo * s_mid < 0.0).any():
                    hi, s_hi = mid, s_mid
                else:
                    lo, s_lo = mid, s_mid
            # All guards flipped inside the localization window count as one
            # simultaneous batch of events; restart on the post-crossing side
            # so switched bookkeeping sees the new signs at the sample.
            flipped = np.nonzero(s_lo * s_hi < 0.0)[0]
            x_cross, _ = _rk4_step(rhs, t, x, hi)
            stats.rk4_steps += 1
            if not np.isfinite(x_cross).all():
                raise DivergenceError(t, x)
            x_cross = _clamp(x_cross, k1,
                             extra_slack=h_step * max(1.0, np.max(np.abs(k1))))
            x_cross.flags.writeable = False
            t = t + hi
            x = x_cross
            for j in flipped:
                events.append((t, guard_labels[j]))
            stats.event_batches += 1
            _record(t, x)
            s_cur = guards(t, x)
            step_index += 1
            quiet = 0
            continue

        x_new = _clamp(x_new, k1)
        x_new.flags.writeable = False
        t = t + h_step
        x = x_new
        step_index += 1
        if step_index % config.record_every == 0:
            _record(t, x)
        if n_guards:
            s_cur = s_new

        if stop_when_converged:
            rate = rhs(t, x)
            stats.rhs_evals += 1
            if np.abs(rate).max() < config.convergence_tol:
                quiet += 1
                if quiet >= config.convergence_window:
                    break
            else:
                quiet = 0

    if times[-1] != t:
        _record(t, x)
    stats.rhs_evals += 4 * stats.rk4_steps
    return Trajectory(np.array(times), np.array(states), events, stats)


def finite_diff_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient ``(f(x+h e_k) - f(x-h e_k)) / 2h``.

    The independent check used throughout the tests against every analytic
    gradient in the library; accuracy is O(h^2) for smooth ``f``.
    """
    x = np.asarray(x, dtype=float)
    if not h > 0:
        raise ValueError("h must be > 0")
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite finite-difference evaluation")
    return g
