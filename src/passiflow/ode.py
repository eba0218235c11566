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
plain floats may step a tuple of them instead of an array (``floats=True``)
by a straight-line RK4 step generated once per state dimension, per
component in the array path's operation order and so bit for bit (a NaN's
payload and sign aside).
This module writes no files: :mod:`passiflow.cli` writes every artifact.
"""

from __future__ import annotations

import functools
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
    "rk4_gain",
    "rk4_limit",
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
        # bool is an Integral and np.bool_ compares as 0 or 1: True and False
        # are refused, as the CLI refuses them
        for name in ("step", "max_time", "event_tol", "convergence_tol"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not 0 < value < np.inf:
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
    ``final_state`` is the last row of ``states``.  A streamed run (an
    :func:`integrate` call with a ``sink``) keeps no rows: its ``states`` is
    ``None``, and ``final_state`` is given as a copy of the last sample.
    """

    times: np.ndarray
    states: np.ndarray | None
    events: list[tuple[float, str]] = field(default_factory=list)
    stats: IntegrationStats | None = None
    final_state: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.states is not None:
            self.states = np.asarray(self.states, dtype=float)
            if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
                raise ValueError("states count must equal times count")
            if self.times.size:
                self.final_state = self.states[-1]
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for t, _ in self.events:
            if not (self.times[0] <= t <= self.times[-1]):
                raise ValueError(f"event time {t} outside trajectory span")


#: Largest negative excursion, relative to ``max(1, |rate|)``, that a
#: clamped-nonnegative component may show after a plain step before it is
#: treated as an integration error rather than crossing residue.
CLAMP_TOL = 1e-8

#: Step growth of ``integrate(grow_step=True)``: the safety factor on the
#: optimal step and the bounds of one step's change factor.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0

#: Most bytes of sample rows that :func:`integrate` reserves before its first
#: step (64 MiB), so that a tiny step over a long span cannot reserve address
#: space without bound; a run that fills them doubles its buffer.
SAMPLE_BUFFER_BYTES = 64 * 2**20

#: RK4's stability region (Hairer & Wanner, *Solving ODEs II*, IV.2) reaches
#: -2.78529 on the real axis and holds the left half-disc of radius 2.61559,
#: which the bounds round down; ``RK4_MARGIN`` allows eigenvalue roundoff.
RK4_MARGIN = 1 + 1e-6
RK4_REAL_BOUND = 2.785
RK4_DISC_BOUND = 2.6155


def rk4_gain(z):
    """``|R(z)|``, with ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` the stability
    polynomial of RK4: a linear mode ``hλ = z`` grows over a step where it
    exceeds 1.  A ``z`` whose powers overflow, where ``|R|`` reads nan,
    reads inf."""
    gain = np.abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24))))
    return np.where(np.isnan(gain), np.inf, gain)


def rk4_limit(lam):
    """The largest step at which RK4 keeps every rate of ``lam`` along its
    last axis, ``|R(h lambda)| <= RK4_MARGIN``.  Rates in the left half-plane,
    where RK4's region is star-shaped about 0 and within ``|z| < 3``, are
    bisected along their rays; a zero rate bounds nothing."""
    size = np.abs(lam)
    with np.errstate(all="ignore"):
        ray = np.where(size > 0, lam / size, -1)
        lo, hi = np.zeros(size.shape), np.full(size.shape, 3.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            inside = rk4_gain(mid * ray) <= RK4_MARGIN
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        return np.min(lo / size, axis=-1)


def _rk4_step(rhs, t, x, h):
    """The RK4 state after ``h``, with the first and last stage rates."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1, k4


@functools.cache
def _rk4_floats(d):
    """``step(rhs, t, x, h)``: :func:`_rk4_step`'s state on a tuple of ``d``
    floats, each component by the same IEEE operations in the same order, so
    bit for bit except a NaN's payload and sign, which numpy's array step
    does not give the same from call to call.
    The step is straight-line code generated once per ``d`` (as ``namedtuple``
    generates a class): ``x`` and each rate are unpacked into locals, each
    stage state is one tuple display, and a rate whose length is not ``d``
    raises ``ValueError``."""
    def tup(term):
        return "(" + "".join(term.format(i=i) + ", " for i in range(d)) + ")"

    src = f"""\
def step(rhs, t, x, h):
    k = {tup("x{i}")} = x
    try:
        k = {tup("a{i}")} = rhs(t, x)
        k = {tup("b{i}")} = rhs(t + 0.5 * h, {tup("x{i} + 0.5 * h * a{i}")})
        k = {tup("c{i}")} = rhs(t + 0.5 * h, {tup("x{i} + 0.5 * h * b{i}")})
        k = {tup("e{i}")} = rhs(t + h, {tup("x{i} + h * c{i}")})
    except ValueError:  # from unpacking k, or from rhs while k held a good rate
        if len(k) != {d}:
            raise ValueError(f"rhs returned a rate of length {{len(k)}} "
                             f"for a state of length {d}") from None
        raise
    return {tup("x{i} + h / 6.0 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})")}
"""
    namespace = {}
    exec(src, namespace)
    return namespace["step"]


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
    sink: Callable[[float, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate ``xdot = rhs(t, x)`` from 0 to ``max_time``.

    Parameters
    ----------
    rhs : callable
        Vector field ``rhs(t, x) -> xdot``.
    x0 : array_like
        Finite initial state, at least 1-D (1-D on floats).
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
        Step a tuple of Python floats, which ``rhs`` takes as a tuple and
        returns as a sequence of the state's length, by a straight-line step
        generated for that length (:func:`_rk4_floats`) in the array path's
        operation order: the samples, stats and ``DivergenceError`` equal the
        array path's bit for bit (a NaN's payload and sign aside, which numpy
        does not keep either), without numpy's cost per small array.  A run
        with ``guards``, ``clamp_nonneg``, ``stop_when_converged`` or
        ``on_sample`` refuses it.
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
    sink : optional
        Callable ``sink(t, x)`` that takes each sample in place of the sample
        array: called with the samples ``on_sample`` gets, just before it,
        and with the same read-only state (on floats, a tuple of floats
        after the initial state).  Its return value is ignored.

    Returns
    -------
    Trajectory
        Samples every ``record_every``-th step plus all event samples and
        the final state, with the call's :class:`IntegrationStats`.  With a
        ``sink`` it holds the sample times, the events, the stats and a
        copy of the final state, and ``states`` is ``None``.

    A plain step and an event landing are accepted by one path: the finite
    check, the clamp, the read-only flag and the time and state update.

    Each accepted state (the initial state, each step's state and each event
    landing, after the clamp) is read-only and stays one array object while
    it is current, so ``rhs`` may cache on its identity; RK4 stage states and
    search probes stay writable.  A step's state is the object the guards
    saw, and the clamp writes only ``clamp_nonneg`` entries of it.  Without
    a ``sink``, each sample is copied once into one array of
    ``ceil(max_time / step) // record_every + 2`` rows, at most
    :data:`SAMPLE_BUFFER_BYTES`: a fixed-step run's samples, with a row to
    spare when ``record_every`` divides its steps.  A grown step takes fewer
    samples; event landings may take more, and a full array is copied into
    one of twice its rows.  Rows never written are never touched, so they
    cost address space, not memory.  ``Trajectory.states`` is the filled
    rows, a view of that array, writable and sharing no memory with any
    accepted state.  A ``sink`` gets each sample instead, and no array is
    made: a run that streams its samples (to a file, say) holds none of them.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range.
    ValueError
        If ``x0`` is 0-d, or on floats not 1-D; if a rate's shape is not the
        state's: checked on the first step, and on floats a rate's length at
        every stage.
    """
    x = np.array(x0, dtype=float)
    if x.ndim == 0 or (floats and x.ndim != 1):
        need = "1-D on floats" if floats else "at least 1-D"
        raise ValueError(f"x0 must be {need}, got shape {x.shape}")
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
    states = None
    if sink is None:
        row_cap = max(1, SAMPLE_BUFFER_BYTES // max(1, x.nbytes))
        steps = math.ceil(min(t_end / h, row_cap * config.record_every))
        states = np.empty((min(row_cap, steps // config.record_every + 2),) + x.shape)
    events: list[tuple[float, str]] = []
    quiet = 0
    step_index = 0

    def _record(tv, xv):
        nonlocal states
        if sink is not None:
            sink(tv, xv)
        else:
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
        step = _rk4_floats(len(x))
        while t < t_stop:
            h_step = min(h, t_end - t)
            x_new = step(rhs, t, x, h_step)
            if not all(map(math.isfinite, x_new)):
                raise DivergenceError(t, np.array(x))
            x, t = x_new, t + h_step
            stats.rk4_steps += 1
            if stats.rk4_steps % config.record_every == 0:
                _record(t, x)
    while t < t_stop:
        h_step = min(h, t_end - t)
        x_new, k1, k4 = _rk4_step(rhs, t, x, h_step)
        if step_index == 0 and np.shape(k1) != x.shape:     # once: it may broadcast
            raise ValueError(f"rhs returned a rate of shape {np.shape(k1)} "
                             f"for a state of shape {x.shape}")
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
    if sink is not None:
        return Trajectory(np.array(times), None, events, stats, np.array(x, dtype=float))
    return Trajectory(np.array(times), states[:len(times)], events, stats)

