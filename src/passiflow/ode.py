"""RK4 integration with zero-crossing events.

Every flow in this library (gradient flows, switched multiplier dynamics,
circuit and line simulations) runs through :func:`integrate`.  The scheme is
deliberately plain: classical fourth-order Runge-Kutta with the configured
step (or a grown one, see below), plus a bracketing search for guard sign
changes along the RK4 map from the step start (not along the exact
solution, so on a switched field an event time can be off by O(step)
whatever ``event_tol`` is).  The search probes the bracket's midpoint, or,
while a guard the caller marks as smooth changes sign over it, that guard's
secant root estimate, with the regula falsi weighting of Anderson and
Bjorck (BIT 13, 1973).  A caller that checks convergence may let the step
grow between events (``grow_step``): an embedded third-order estimate sets
the next step, never below the configured one, and no step is rejected
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).  Every step is
deterministic, so switch bookkeeping and storage audits are reproducible;
there is no stiff path.  An unguarded fixed-step run whose rhs works on
plain floats may step a tuple of them instead of an array (``floats=True``),
per component in the array path's operation order and so bit for bit.
This module writes no files: :mod:`passiflow.cli` writes every artifact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DivergenceError",
    "IntegratorConfig",
    "IntegrationStats",
    "Trajectory",
    "integrate",
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

    ``step`` is the RK4 step (the floor of a grown step, see :func:`integrate`)
    and ``max_time`` the integrated span.
    ``event_tol`` is the bracket width the event search reaches on a guard's
    sign change along the RK4 map from the step start; it does not bound the
    crossing-time error, which is O(step) on a switched rhs.
    ``convergence_tol`` and ``convergence_window`` define convergence (see
    :func:`integrate`), and every ``record_every``-th step is sampled; both
    count steps, whatever their length.  ``convergence_tol * step`` is also
    the local error tolerance of a grown step.  The clamp slack is the
    module constant :data:`CLAMP_TOL`.
    """

    step: float = 1e-3
    max_time: float = 10.0
    event_tol: float = 1e-10
    convergence_tol: float = 1e-6
    convergence_window: int = 5
    record_every: int = 1

    def __post_init__(self):
        # bool is an Integral: True and False are refused, as the CLI refuses them
        for name in ("step", "max_time", "event_tol", "convergence_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < np.inf:
                raise ValueError(f"IntegratorConfig.{name} must be finite and > 0")
        for name in ("convergence_window", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"IntegratorConfig.{name} must be an integer >= 1")


@dataclass
class IntegrationStats:
    """Counts of one :func:`integrate` call: calls into ``rhs`` (four per
    RK4 step, one per convergence check; ``primal_dual.solve`` answers some
    from a cache), RK4 steps (probes, crossing and landing steps included),
    event-search probes, event batches, and components truncated by the
    clamp.  ``bisection_steps`` counts every probe, midpoint and secant alike.
    Only calls that :func:`integrate` itself makes count; evaluations inside
    ``on_sample`` (``primal_dual.solve``'s storage) do not.  A run on floats
    counts as the array path does: four rhs calls per RK4 step, no events.
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


#: Largest negative excursion, relative to ``max(1, |rate|)``, that a
#: clamped-nonnegative component may show after a plain step before it is
#: treated as an integration error rather than crossing residue.
CLAMP_TOL = 1e-8

#: Step growth of ``integrate(grow_step=True)``: the safety factor on the
#: optimal step and the bounds of one step's change factor.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0


def _rk4_step(rhs, t, x, h):
    """The RK4 state after ``h``, with the first and last stage rates."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1, k4


def _rk4_floats(rhs, t, x, h):
    """:func:`_rk4_step`'s state on a tuple of floats, in its operation order."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, tuple([a + 0.5 * h * b for a, b in zip(x, k1)]))
    k3 = rhs(t + 0.5 * h, tuple([a + 0.5 * h * b for a, b in zip(x, k2)]))
    k4 = rhs(t + h, tuple([a + h * b for a, b in zip(x, k3)]))
    return tuple([a + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                  for a, p, q, r, s in zip(x, k1, k2, k3, k4)])


def _anderson_bjorck(s_new, s_old):
    """Factor for the kept end's secant values after the other end moved, on
    the same side of the crossing, from values ``s_old`` to ``s_new``:
    ``1 - s_new / s_old``, or 1/2 where that is not positive (1 where
    ``s_old`` is 0)."""
    m = 1.0 - np.divide(s_new, s_old, out=np.zeros_like(s_new), where=s_old != 0.0)
    return np.where(m > 0.0, m, 0.5)


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    config: IntegratorConfig,
    guards: Callable[[float, np.ndarray], np.ndarray] | None = None,
    guard_labels: Sequence[str] | None = None,
    clamp_nonneg: Sequence[int] | None = None,
    stop_when_converged: bool = False,
    on_sample: Callable[[float, np.ndarray], None] | None = None,
    smooth_guards: Sequence[int] = (),
    grow_step: bool = False,
    floats: bool = False,
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
        array.  Whenever a guard changes sign inside a step, a search
        brackets the sign change to a width ``<= event_tol`` (see
        :class:`IntegratorConfig`), the step is shortened to land on the
        bracket's far end, and an event is recorded for every guard that
        changed sign over the bracket or reached exactly 0 at its far end.
        Each probe is one RK4 step from the step start and one guard call.
    guard_labels : optional
        Event tags, aligned with the guards; defaults to ``guard<k>``.
    clamp_nonneg : optional
        Indices whose components are truncated at zero when they undershoot
        by less than :data:`CLAMP_TOL` ``* max(1, |k1_i|)``, with ``k1`` the
        step-start rate, plus one step's travel
        ``min(h, step) * max(1, |k1|_inf)`` at an event landing, ``h`` the
        length of the step that crossed.  A larger undershoot raises
        ``ValueError`` -- guards are supposed to catch the crossing first.
    stop_when_converged : bool
        Stop early once ``|rhs|_inf < convergence_tol`` holds over
        ``convergence_window`` consecutive accepted steps.
    grow_step : bool
        Let the step grow while no event fires; needs
        ``stop_when_converged``.  After each plain step, whose convergence
        check evaluates the rate ``k5`` at the accepted state, the embedded
        third-order solution with weights (1/6, 1/3, 1/3, 0, 1/6) gives the
        error ``err = h/6 * |k4 - k5|_inf``, and the next step is
        ``max(step, h * min(MAX_FACTOR, max(MIN_FACTOR,
        SAFETY * (tol / err)^(1/4))))`` with ``tol = convergence_tol * step``.
        ``step`` is the floor and no step is rejected, so up to the first
        grown step the run equals the fixed-step run.  Each event landing
        resets the step to ``step``.  The rate is the one the check
        evaluates anyway, so growth adds no ``rhs`` call.
    floats : bool
        Step a tuple of Python floats, which ``rhs`` takes and returns as a
        sequence, per component in the array path's operation order: the
        samples, stats and ``DivergenceError`` equal the array path's bit for
        bit, without numpy's cost per small array.  A run with ``guards``,
        ``clamp_nonneg``, ``stop_when_converged`` or ``on_sample`` refuses it.
    smooth_guards : sequence of int
        Indices of guards that are continuous along the RK4 map inside a
        step.  While one of them changes sign over the bracket, the search
        probes the earliest of their secant root estimates, shifted by
        ``event_tol / 2`` toward the end the last probe did not move; it
        probes the midpoint when that estimate leaves the bracket or two
        secant probes in a row did not halve it.  Guards that can jump mid
        step must stay unmarked: every guard is bisected by default.
    on_sample : optional
        Callable ``on_sample(t, x)``, called once per sample in time order
        with the sampled accepted state itself (read-only): the initial
        state after the first guard evaluation, each sampled step before its
        convergence check, each event landing before the guards are
        evaluated there, and the final state.  Its return value is ignored.

    Returns
    -------
    Trajectory
        Samples every ``record_every``-th step plus all event samples and
        the final state, with the call's :class:`IntegrationStats`.

    A plain step and an event landing are accepted by one path: the finite
    check, the clamp, the read-only flag and the time and state update.

    Each accepted state (the initial state, each step's state and each event
    landing, after the clamp) is read-only and stays one array object while
    it is current, so ``rhs`` may cache on its identity; RK4 stage states and
    search probes stay writable.  A step's state is the object the guards
    saw, and the clamp writes only ``clamp_nonneg`` entries of it.  Each
    sample is copied once into one growing array (1024 rows to start,
    doubling); ``Trajectory.states`` is its filled rows, writable and
    sharing no memory with any accepted state.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("initial state must be finite")
    if grow_step and not stop_when_converged:
        raise ValueError("grow_step needs stop_when_converged")
    if floats and (guards is not None or clamp_nonneg is not None
                   or stop_when_converged or on_sample is not None):
        raise ValueError("floats takes no guards, clamp_nonneg, stop_when_converged or on_sample")
    x.flags.writeable = False
    h = config.step
    grow_tol = config.convergence_tol * config.step
    t = 0.0
    t_end = float(config.max_time)
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    stats = IntegrationStats()

    n_guards = 0
    if guards is not None:
        s_cur = guards(t, x)
        n_guards = s_cur.size
        if guard_labels is None:
            guard_labels = [f"guard{k}" for k in range(n_guards)]
    clamp_idx = None if clamp_nonneg is None else np.asarray(clamp_nonneg, dtype=int)
    smooth_idx = np.asarray(smooth_guards, dtype=int)
    tol = config.event_tol

    times: list[float] = []
    states = np.empty((1024,) + x.shape)
    events: list[tuple[float, str]] = []
    quiet = 0
    step_index = 0

    def _record(tv, xv):
        nonlocal states
        k = len(times)
        if k == states.shape[0]:
            grown = np.empty((2 * k,) + states.shape[1:])
            grown[:k] = states
            states = grown
        states[k] = xv
        times.append(tv)
        if on_sample is not None:
            on_sample(tv, xv)

    _record(t, x)
    if floats:      # steps to t_stop, so the array loop below takes no step
        x = tuple(x.tolist())
        while t < t_stop:
            h_step = min(h, t_end - t)
            x_new = _rk4_floats(rhs, t, x, h_step)
            if not all(map(math.isfinite, x_new)):
                raise DivergenceError(t, np.array(x))
            x, t = x_new, t + h_step
            stats.rk4_steps += 1
            if stats.rk4_steps % config.record_every == 0:
                _record(t, x)
    while t < t_stop:
        h_step = min(h, t_end - t)
        x_new, k1, k4 = _rk4_step(rhs, t, x, h_step)
        stats.rk4_steps += 1
        landing = False
        travel = 0.0
        if n_guards:
            s_new = guards(t + h_step, x_new)
            landing = (s_cur * s_new < 0.0).any()

        if landing:
            # One vector search localizes a crossing among all triggered
            # guards (the earliest, unless a guard crosses more than once
            # within the step); per-guard searches would cost quadratically
            # when a cluster of guards crosses in the same step.
            lo, hi = 0.0, h_step
            s_lo = s_cur
            s_hi = s_new
            # Secant values of the smooth guards at lo and hi; Anderson-Bjorck
            # scales the kept end's when one end moves twice in a row.
            w_lo, w_hi = s_lo[smooth_idx], s_hi[smooth_idx]
            last = 0        # the end the last probe moved: -1 lo, +1 hi
            slow = 0        # secant probes in a row that did not halve the bracket
            zero_hit = False
            while hi - lo > tol:
                width = hi - lo
                probe = 0.5 * (lo + hi)
                secant = False
                if zero_hit:
                    # A guard is exactly 0 at hi, so the crossing is there.
                    probe = hi - 0.5 * tol
                elif slow < 2:
                    change = w_lo * w_hi < 0.0
                    if change.any():
                        a, b = w_lo[change], w_hi[change]
                        # The earliest root estimate, shifted toward the end
                        # the last probe did not move so that the bracket closes.
                        root = lo + width * float(np.min(a / (a - b))) - 0.5 * tol * last
                        if lo < root < hi:
                            probe, secant = root, True
                x_mid, _, _ = _rk4_step(rhs, t, x, probe)
                stats.rk4_steps += 1
                stats.bisection_steps += 1
                s_mid = guards(t + probe, x_mid)
                hit = (s_mid == 0.0) & (s_lo != 0.0)
                w_mid = s_mid[smooth_idx]
                if ((s_lo * s_mid < 0.0) | hit).any():
                    if last == 1:
                        w_lo = w_lo * _anderson_bjorck(w_mid, w_hi)
                    hi, s_hi, w_hi, last = probe, s_mid, w_mid, 1
                    zero_hit = hit.any()
                else:
                    if last == -1:
                        w_hi = w_hi * _anderson_bjorck(w_mid, w_lo)
                    lo, s_lo, w_lo, last = probe, s_mid, w_mid, -1
                slow = slow + 1 if secant and hi - lo > 0.5 * width else 0
            # All guards flipped inside the localization window count as one
            # simultaneous batch of events; landing on the post-crossing side
            # lets switched bookkeeping see the new signs at the sample.
            flipped = np.nonzero((s_lo * s_hi < 0.0) | ((s_hi == 0.0) & (s_lo != 0.0)))[0]
            # A guard can miss a dip that starts and ends inside one step,
            # and the landing of an unrelated event may fall mid-dip.  The
            # dip depth is bounded by one step's travel, so that is the clamp
            # slack granted at a landing, never more than at the fixed step;
            # plain steps keep the strict bound so a genuinely missing guard
            # is still caught.
            travel = min(h_step, config.step) * max(1.0, np.max(np.abs(k1)))
            h_step = hi
            x_new, _, _ = _rk4_step(rhs, t, x, h_step)
            stats.rk4_steps += 1

        if not np.isfinite(x_new).all():
            raise DivergenceError(t, x)
        neg = () if clamp_idx is None else clamp_idx[x_new[clamp_idx] < 0.0]
        if len(neg):
            slack = CLAMP_TOL * np.maximum(1.0, np.abs(k1[neg])) + travel
            bad = np.flatnonzero(x_new[neg] < -slack)
            if bad.size:
                k = bad[0]
                raise ValueError(f"component {neg[k]} undershot zero by {-x_new[neg[k]]:.3e} "
                                 f"(> clamp slack {slack[k]:.3e}); missing guard?")
            x_new[neg] = 0.0
            stats.clamp_truncations += neg.size
        x = x_new
        x.flags.writeable = False
        t = t + h_step
        step_index += 1

        if landing:
            events.extend((t, guard_labels[j]) for j in flipped)
            stats.event_batches += 1
            _record(t, x)
            s_cur = guards(t, x)
            quiet = 0
            h = config.step
            continue

        if step_index % config.record_every == 0:
            _record(t, x)
        if n_guards:
            s_cur = s_new

        if stop_when_converged:
            rate = rhs(t, x)
            stats.rhs_evals += 1
            if grow_step:
                err = h_step / 6.0 * np.abs(k4 - rate).max()
                factor = MAX_FACTOR if err == 0.0 else SAFETY * (grow_tol / err) ** 0.25
                h = max(config.step, h_step * min(MAX_FACTOR, max(MIN_FACTOR, factor)))
            if np.abs(rate).max() < config.convergence_tol:
                quiet += 1
                if quiet >= config.convergence_window:
                    break
            else:
                quiet = 0

    if times[-1] != t:
        _record(t, x)
    stats.rhs_evals += 4 * stats.rk4_steps
    return Trajectory(np.array(times), states[:len(times)], events, stats)

