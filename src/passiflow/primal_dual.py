"""Primal-dual gradient flows with switched positive projection.

A constrained convex problem (smooth objective, affine equalities, smooth
convex inequalities) is solved by integrating the saddle-point dynamics

    -tau_x xdot   = grad f(x) + A^T lam + sum_i mu_i grad g_i(x)
    tau_lam lamdot = A x - b
    tau_mu_i mudot_i = (g_i(x))^+_{mu_i}

where the positive projection ``(g)^+_mu`` equals ``g`` for ``mu > 0`` and
``max(0, g)`` at ``mu = 0``, keeping multipliers in the nonnegative orthant.
The multiplier flow is a state-dependent switched system; the set of indices
where the projection clamps is tracked for storage accounting, and the
switched Krasovskii storage is audited along every solve.

All inequalities form one block, :class:`AffineInequalities`: affine rows
``G x - h`` evaluated as one product, then any nonlinear oracle rows.

:func:`interconnected_rhs`, the one implementation of the flow, maps the
packed state ``(x, lam, mu)`` to ``(xdot, lamdot, mudot)``, reading the problem
from a :class:`PreparedFlow` that :func:`prepare_flow` builds once per solve.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .brayton_moser import StorageTrace, default_audit_tol
from .ode import IntegratorConfig, Trajectory, integrate

__all__ = [
    "ScalarOracle",
    "quadratic_oracle",
    "AffineInequalities",
    "ConvexProblem",
    "FlowState",
    "TimeConstants",
    "KKTReport",
    "SwitchEvent",
    "SolveResult",
    "kkt_residual",
    "equality_flow_rhs",
    "PreparedFlow",
    "prepare_flow",
    "interconnected_rhs",
    "damping_injection_rhs",
    "augmented_problem",
    "switched_storage",
    "solve",
    "storage_switch_audit",
]


@dataclass(frozen=True)
class ScalarOracle:
    """A scalar function with analytic gradient and Hessian."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def quadratic_oracle(Q0, c) -> ScalarOracle:
    """``f(x) = 0.5 x^T Q0 x + c^T x`` with ``Q0`` symmetrized, halved before
    the sum so that no finite entry overflows."""
    Q0 = np.asarray(Q0, dtype=float)
    Q0 = 0.5 * Q0 + 0.5 * Q0.T
    c = np.asarray(c, dtype=float)
    return ScalarOracle(
        value=lambda x: float(0.5 * x @ Q0 @ x + c @ x),
        grad=lambda x: Q0 @ x + c,
        hess=lambda x: Q0,
    )


class AffineInequalities:
    """Constraint block ``g(x) <= 0``: the rows ``G x - h`` evaluated in one
    shot (``G`` may be ``(0, n)``), then one row per oracle in ``oracles``."""

    def __init__(self, G, h, oracles: Sequence[ScalarOracle] = ()):
        self.G = np.atleast_2d(np.asarray(G, dtype=float))
        self.h = np.atleast_1d(np.asarray(h, dtype=float))
        if self.G.shape[0] != self.h.shape[0]:
            raise ValueError("G rows must match h length")
        self.oracles = tuple(oracles)
        self.p = self.G.shape[0] + len(self.oracles)

    def values(self, x):
        if not self.oracles:
            return self.G @ x - self.h
        r = self.G.shape[0]
        g = np.empty(self.p)
        g[:r] = self.G @ x - self.h
        for k, o in enumerate(self.oracles):
            g[r + k] = o.value(x)
        return g

    def jacobian(self, x):
        if not self.oracles:
            return self.G
        r = self.G.shape[0]
        J = np.empty((self.p, self.G.shape[1]))
        J[:r] = self.G
        for k, o in enumerate(self.oracles):
            J[r + k] = o.grad(x)
        return J


@dataclass(frozen=True)
class ConvexProblem:
    """minimize f(x)  s.t.  A x = b,  g_i(x) <= 0.

    ``A`` may be empty (shape (0, n)).  ``ineq`` is one
    :class:`AffineInequalities` block; omitted, it is the empty ``(0, n)``
    block.  Convexity is not checked.
    """

    n: int
    f: ScalarOracle
    A: np.ndarray = None
    b: np.ndarray = None
    ineq: AffineInequalities = None

    def __post_init__(self):
        A = np.zeros((0, self.n)) if self.A is None else np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.zeros(A.shape[0]) if self.b is None else np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape != (b.shape[0], self.n):
            raise ValueError("A must be m x n with b of length m")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.ineq is None:
            object.__setattr__(self, "ineq", AffineInequalities(np.zeros((0, self.n)), np.zeros(0)))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.ineq.p

    def g_values(self, x) -> np.ndarray:
        return self.ineq.values(x)

    def g_jacobian(self, x) -> np.ndarray:
        return self.ineq.jacobian(x)


@dataclass
class FlowState:
    """Primal point, equality multipliers, and nonnegative inequality multipliers."""

    x: np.ndarray
    lam: np.ndarray = None
    mu: np.ndarray = None

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.lam = np.zeros(0) if self.lam is None else np.atleast_1d(np.asarray(self.lam, dtype=float))
        self.mu = np.zeros(0) if self.mu is None else np.atleast_1d(np.asarray(self.mu, dtype=float))
        if self.mu.size and self.mu.min() < 0:
            raise ValueError("mu must be componentwise nonnegative")

    def pack(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.mu])

    @staticmethod
    def unpack(z, n, m, p) -> "FlowState":
        z = np.asarray(z, dtype=float)
        s = FlowState.__new__(FlowState)
        s.x = z[:n]
        s.lam = z[n:n + m]
        s.mu = z[n + m:n + m + p]
        return s


@dataclass(frozen=True)
class TimeConstants:
    """Positive diagonal time constants for the x, lambda, and mu flows."""

    tau_x: np.ndarray
    tau_lam: np.ndarray
    tau_mu: np.ndarray

    @staticmethod
    def ones(n, m, p) -> "TimeConstants":
        return TimeConstants(np.ones(n), np.ones(m), np.ones(p))

    def __post_init__(self):
        for name in ("tau_x", "tau_lam", "tau_mu"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.size and arr.min() <= 0:
                raise ValueError(f"{name} must be strictly positive")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class KKTReport:
    stationarity: float
    eq_violation: float
    ineq_violation: float
    comp_slack: float
    dual_feas: float

    def is_optimal(self, tol: float = 1e-6) -> bool:
        return (
            self.stationarity <= tol
            and self.eq_violation <= tol
            and self.ineq_violation <= tol
            and self.comp_slack <= tol
            and self.dual_feas >= -tol
        )


def kkt_residual(prob: ConvexProblem, s: FlowState) -> KKTReport:
    grad_L = prob.f.grad(s.x).copy()
    if prob.m:
        grad_L += prob.A.T @ s.lam
    g = prob.g_values(s.x)
    if prob.p:
        grad_L += prob.g_jacobian(s.x).T @ s.mu
    return KKTReport(
        stationarity=float(np.max(np.abs(grad_L), initial=0.0)),
        eq_violation=float(np.max(np.abs(prob.A @ s.x - prob.b), initial=0.0)),
        ineq_violation=float(np.max(g, initial=0.0)) if prob.p else 0.0,
        comp_slack=float(np.max(np.abs(s.mu * g), initial=0.0)) if prob.p else 0.0,
        dual_feas=float(np.min(s.mu)) if prob.p else 0.0,
    )


def equality_flow_rhs(prob: ConvexProblem, s: FlowState, u, tc: TimeConstants):
    """Equality-constrained flow with exogenous input on the primal channel.

    Returns ``(xdot, lamdot, y)`` with ``y = -x``; the inequality multipliers
    play no role here.
    """
    u = np.zeros(prob.n) if u is None else np.asarray(u, dtype=float)
    xdot = -(prob.f.grad(s.x) + prob.A.T @ s.lam + u) / tc.tau_x
    lamdot = (prob.A @ s.x - prob.b) / tc.tau_lam
    return xdot, lamdot, -s.x


#: The per-problem data of the flow; see :func:`prepare_flow`.
PreparedFlow = namedtuple("PreparedFlow", "n m p grad A At b values oracles Jt tc proj_tol")


def prepare_flow(prob: ConvexProblem, tc: TimeConstants | None = None,
                 proj_tol: float = 1e-10) -> PreparedFlow:
    """What every :func:`interconnected_rhs` call on ``prob`` shares: the
    sizes, ``f.grad``, ``A``, ``A.T``, ``b``, the constraint ``values``, the
    oracle rows as ``(row, oracle)`` pairs, the transpose of a private buffer
    of stacked constraint gradients with the affine rows filled (``G`` itself
    without oracle rows), ``tc`` (``None`` when every time constant is 1:
    dividing by it would be exact) and ``proj_tol``.  Wrong-sized ``tc`` raises."""
    n, m, p = prob.n, prob.m, prob.p
    if tc is not None:
        for name, size in (("tau_x", n), ("tau_lam", m), ("tau_mu", p)):
            if getattr(tc, name).shape != (size,):
                raise ValueError(f"{name} must have {size} entries, one per state")
        if all(np.all(a == 1.0) for a in (tc.tau_x, tc.tau_lam, tc.tau_mu)):
            tc = None
    G, oracles = prob.ineq.G, prob.ineq.oracles
    J = np.concatenate([G, np.empty((len(oracles), n))]) if oracles else G
    return PreparedFlow(n, m, p, prob.f.grad, prob.A, prob.A.T, prob.b, prob.ineq.values,
                        tuple(enumerate(oracles, G.shape[0])), J.T, tc, proj_tol)


_EMPTY = np.zeros(0)


def interconnected_rhs(flow: PreparedFlow, z, g=None, v=None):
    """Power-conserving interconnection of the equality flow and the
    projected multiplier flow, the one implementation of the flow.

    ``flow`` is :func:`prepare_flow` of the problem and ``z`` the packed
    state ``(x, lam, mu)``; returns ``(xdot, lamdot, mudot)``.
    With the injection port ``v`` at zero this is exactly the primal-dual
    dynamics of the full problem; ``v`` enters the primal channel.  ``g``,
    when given, is the constraint values at ``x`` already computed.
    """
    n, m, p, grad, A, At, b, values, oracles, Jt, tc, proj_tol = flow
    x = z[:n]
    grad_L = grad(x)
    if v is not None:
        grad_L = grad_L + v
    lamdot = mudot = _EMPTY
    if m:
        grad_L = grad_L + At @ z[n:n + m]
        lamdot = A @ x - b
    if p:
        mu = z[n + m:]
        for k, o in oracles:
            Jt[:, k] = o.grad(x)
        grad_L = grad_L + Jt @ np.maximum(mu, 0.0)
        if g is None:
            g = values(x)
        # mu within proj_tol of zero (or transiently below, mid-step) takes
        # the clamped branch; everything else flows freely along g.
        mudot = np.where(mu <= proj_tol, np.maximum(0.0, g), g)
    xdot = -grad_L
    if tc is None:
        return xdot, lamdot, mudot
    return xdot / tc.tau_x, lamdot / tc.tau_lam, mudot / tc.tau_mu


def damping_injection_rhs(prob: ConvexProblem, s: FlowState, k: float):
    """Interconnected flow with ``v = k A^T (Ax - b)``, unit time constants.

    Identical to the plain primal-dual flow of the augmented problem whose
    objective is ``f + 0.5 k |Ax - b|^2`` (see :func:`augmented_problem`).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    v = k * (prob.A.T @ (prob.A @ s.x - prob.b)) if prob.m else np.zeros(prob.n)
    return interconnected_rhs(prepare_flow(prob), s.pack(), v=v)


def augmented_problem(prob: ConvexProblem, k: float) -> ConvexProblem:
    """Same constraints, objective ``f + 0.5 k |Ax - b|^2``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    A, b, f = prob.A, prob.b, prob.f
    AtA = A.T @ A

    def value(x):
        r = A @ x - b
        return f.value(x) + 0.5 * k * float(r @ r)

    return ConvexProblem(
        n=prob.n,
        f=ScalarOracle(
            value=value,
            grad=lambda x: f.grad(x) + k * (A.T @ (A @ x - b)),
            hess=lambda x: f.hess(x) + k * AtA,
        ),
        A=A,
        b=b,
        ineq=prob.ineq,
    )


def switched_storage(sdot, sigma, tc: TimeConstants) -> float:
    """Krasovskii storage with the clamped multiplier rates dropped.

    ``0.5 xdot^T tau_x xdot + 0.5 lamdot^T tau_lam lamdot
    + 0.5 sum_{i not in sigma} tau_mu_i mudot_i^2``; ``sigma`` is the clamp
    set as a boolean mask over the multipliers.
    """
    xdot, lamdot, mudot = sdot
    keep = ~sigma
    val = 0.5 * float(xdot @ (tc.tau_x * xdot)) + 0.5 * float(lamdot @ (tc.tau_lam * lamdot))
    return val + 0.5 * float((tc.tau_mu[keep] * mudot[keep] ** 2).sum())


class SwitchEvent(NamedTuple):
    time: float
    jump: float
    entered: tuple
    left: tuple


@dataclass
class SolveResult:
    trajectory: Trajectory
    kkt: KKTReport
    storage: StorageTrace
    converged: bool
    final: FlowState

    @property
    def switch_count(self) -> int:
        return len(self.storage.switch_events)

    def summary(self) -> dict:
        """The run's KKT report, counts, storage verdict and switch audit."""
        return {
            "kkt": asdict(self.kkt),
            "iterations": int(self.trajectory.times.size),
            "switch_count": self.switch_count,
            "converged": self.converged,
            **self.storage.report(),
            "switch_audit": storage_switch_audit(self.storage),
        }


def solve(
    prob: ConvexProblem,
    init: FlowState,
    tc: TimeConstants | None = None,
    cfg: IntegratorConfig | None = None,
    grow_step: bool = False,
    sink: Callable[[float, np.ndarray], None] | None = None,
) -> SolveResult:
    """Integrate the primal-dual flow until the rates settle.

    Guards are attached to every multiplier and every constraint value so
    projection switches are localized; the switched storage is evaluated at
    every sample, both sides of each switch included, as ``integrate``
    records it (the storage hook is its ``sink``), and returned as the
    trace.  ``grow_step`` is ``integrate``'s: the step grows between events.
    It stays off by default so that a direct call takes the configured step
    throughout; ``svm.train_svm`` and the CLI's ``solve`` kind turn it on.
    ``sink`` is ``integrate``'s too: given, the storage hook hands each
    packed sample to it first, and the trajectory keeps no ``states``;
    without one, the hook keeps each sampled accepted state and ``states``
    stacks them after the run.  The switches are classified from what the
    storage hook keeps of each sample either way, so a streamed solve
    returns the same result.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    n, m, p = prob.n, prob.m, prob.p
    if tc is None:
        tc = TimeConstants.ones(n, m, p)
    if init.mu.size != p or init.lam.size != m or init.x.size != n:
        raise ValueError("initial state dimensions do not match problem")
    proj_tol = cfg.event_tol
    flow = prepare_flow(prob, tc, proj_tol)

    # One constraint-value slot: g at the last state the guards saw, or the
    # last read-only state the flow saw, reused when that object comes again
    # read-only.  A guarded step state comes back as the accepted state once
    # integrate's clamp has written its multiplier entries, which leaves
    # g(x) as it was.
    g_z = g_last = None

    def g_at(z):
        nonlocal g_z, g_last
        if z is not g_z or z.flags.writeable:
            g_z, g_last = z, prob.g_values(z[:n])
        return g_last

    # One rate slot: the last read-only (accepted, see integrate) state
    # evaluated and its read-only rate, returned when that array comes again
    # (each probe's and landing step's k1, the convergence check and k1
    # after a sample); the flow is autonomous.  Writable stage states are
    # never stored.
    slot_z = slot_rate = None

    def rhs(t, z):
        nonlocal slot_z, slot_rate
        if z is slot_z:
            return slot_rate
        if z.flags.writeable:
            return np.concatenate(interconnected_rhs(flow, z))
        rate = np.concatenate(interconnected_rhs(flow, z, g_at(z)))
        rate.flags.writeable = False
        slot_z, slot_rate = z, rate
        return rate

    guards = None
    labels = None
    clamp = None
    if p:
        # A constraint-value crossing only changes the projection set while
        # its multiplier is clamped, so the g-guard is armed only at exact
        # zeros (which arise post-clamp, after the mu-guard has fired);
        # otherwise converged support vectors (g = 0, mu > 0) would chatter
        # events on every step, and a threshold above zero would flip the
        # gate an instant before the mu crossing and mask the real event.
        # The mu-guards are smooth along a step's RK4 map, so the event
        # search may probe their secant roots; a gated g-guard jumps from
        # 1.0 to g where its gate flips mid-bracket, and a secant through
        # that jump points anywhere, so the g-guards stay on bisection.
        def guards(t, z):
            mu = z[n + m:]
            return np.concatenate([mu, np.where(mu <= 0.0, g_at(z), 1.0)])
        labels = [f"m{i}" for i in range(p)] + [f"g{i}" for i in range(p)]
        clamp = list(range(n + m, n + m + p))

    # The clamp mask is active_set (tests/oracles.py) at max(mu, 0), which is
    # <= proj_tol iff mu is.
    def clamped(z, g):
        return (z[n + m:] <= proj_tol) & (g < -proj_tol)

    # Storage trace along the samples, computed as integrate records them;
    # supply is identically zero for the unforced interconnection, so PASS
    # means the switched storage never rises.  The last sample is the final
    # state, so its rate decides convergence.  Each sample's clamp mask and
    # a copy of its x are kept for the switch classification below: p bools
    # and n floats a sample, where the state has n + m + p floats.
    storage, masks, xs, kept = [], [], [], []
    last_rate = None

    def sample(t, z):
        nonlocal last_rate
        if sink is None:
            kept.append(z)
        else:
            sink(t, z)
        last_rate = rhs(t, z)
        sdot = (last_rate[:n], last_rate[n:n + m], last_rate[n + m:])
        mask = clamped(z, g_at(z))
        storage.append(switched_storage(sdot, mask, tc))
        masks.append(mask)
        xs.append(z[:n].copy())

    traj = integrate(rhs, init.pack(), cfg, guards=guards, guard_labels=labels,
                     clamp_nonneg=clamp, stop_when_converged=True,
                     smooth_guards=range(p), grow_step=grow_step, sink=sample)
    if sink is None:
        traj = replace(traj, states=np.array(kept))
    storage_vals = np.array(storage)

    # One switch event per batch of simultaneous guard crossings.  The
    # crossing sample sits razor-edge on the switching surface, so clamp-set
    # membership before and after is read off the neighboring samples'
    # masks; the storage jump is the clamped-term difference of the flipped
    # indices, with the constraint values at the crossing state.
    switch_events: list[SwitchEvent] = []
    batches: dict[float, set] = {}
    for t_e, tag in traj.events:
        batches.setdefault(t_e, set()).add(int(tag[1:]))
    for t_e in sorted(batches):
        k = int(np.searchsorted(traj.times, t_e))
        was, now = masks[k - 1], masks[min(k + 1, len(masks) - 1)]
        flips = [i for i in sorted(batches[t_e]) if was[i] != now[i]]
        if not flips:
            continue
        g = prob.g_values(xs[k])
        jump = 0.0
        for i in flips:
            term = g[i] ** 2 / (2.0 * tc.tau_mu[i])
            jump += -term if now[i] else term
        switch_events.append(SwitchEvent(t_e, jump, tuple(i for i in flips if now[i]),
                                         tuple(i for i in flips if was[i])))

    trace = StorageTrace(traj.times, storage_vals, np.zeros_like(storage_vals),
                         switch_events=switch_events)
    final = FlowState.unpack(traj.final_state, n, m, p)
    return SolveResult(
        trajectory=traj,
        kkt=kkt_residual(prob, final),
        storage=trace,
        converged=bool(np.max(np.abs(last_rate), initial=0.0) < cfg.convergence_tol),
        final=final,
    )


def storage_switch_audit(trace: StorageTrace) -> dict:
    """Check the two switch cases of the hybrid dissipation argument.

    At every event where an index enters the clamp set the storage must not
    rise (the clamped rate term is dropped); at every event where an index
    leaves, the storage must be continuous to within the audit slack
    :func:`~passiflow.brayton_moser.default_audit_tol` of the storage.
    Passes vacuously with no switches.
    """
    audit_tol = default_audit_tol(trace.storage)
    worst_enter = 0.0
    worst_leave = 0.0
    ok = True
    for ev in trace.switch_events:
        if ev.entered:
            worst_enter = max(worst_enter, ev.jump)
            if ev.jump > audit_tol:
                ok = False
        if ev.left:
            worst_leave = max(worst_leave, abs(ev.jump))
            if abs(ev.jump) > audit_tol:
                ok = False
    return {
        "verdict": "PASS" if ok else "FAIL",
        "n_events": len(trace.switch_events),
        "worst_enter_jump": worst_enter,
        "worst_leave_jump": worst_leave,
        "audit_tol": audit_tol,
    }
