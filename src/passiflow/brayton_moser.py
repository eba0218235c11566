"""Pseudo-gradient (Brayton-Moser) systems and passivity bookkeeping.

A plant here is described by ``Q(x) xdot = grad P(x) + G(x) u`` with an
indefinite metric ``Q`` and a mixed potential ``P`` carrying units of power.
This module provides the admissible-pair transform that re-expresses the same
vector field through a sign-definite pair, Krasovskii storage in velocities,
and a trajectory-level audit of the dissipation inequality
``S(t_j) - S(t_i) <= integral of u^T y``, with zero supply for Lyapunov
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ode import Trajectory

__all__ = [
    "PseudoGradientSystem",
    "AdmissiblePair",
    "StorageTrace",
    "mixed_potential_rate",
    "admissible_pair",
    "neg_semidefinite_symmetric_part",
    "krasovskii_storage",
    "passivity_audit",
    "lyapunov_audit",
    "default_audit_tol",
]


@dataclass(frozen=True)
class PseudoGradientSystem:
    """Oracles for ``Q(x) xdot = grad P(x) + G(x) u`` and the Hessian of ``P``."""

    n: int
    m: int
    Q: Callable[[np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], float]
    grad_P: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    hess_P: Callable[[np.ndarray], np.ndarray]

    def xdot(self, x, u) -> np.ndarray:
        """Velocity obtained by solving the pseudo-gradient relation for xdot."""
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rhs = self.grad_P(x) + self.G(x) @ u
        return np.linalg.solve(self.Q(x), rhs)


@dataclass(frozen=True)
class AdmissiblePair:
    """Transformed pair (P~, Q~) describing the same vector field.

    Construction (see :func:`admissible_pair`):
    ``P~(x) = lam * P(x) + 0.5 * grad P(x)^T M grad P(x)`` and
    ``Q~(x) = (lam I + hess P(x) M) Q(x)``, with the input matrix transported
    the same way, ``G~ = (lam I + hess P M) G``.
    """

    system: PseudoGradientSystem
    lam: float
    M: np.ndarray

    def _factor(self, x):
        return self.lam * np.eye(self.system.n) + self.system.hess_P(x) @ self.M

    def tilde_P(self, x) -> float:
        g = self.system.grad_P(x)
        return self.lam * self.system.P(x) + 0.5 * g @ self.M @ g

    def grad_tilde_P(self, x) -> np.ndarray:
        return self._factor(x) @ self.system.grad_P(x)

    def tilde_Q(self, x) -> np.ndarray:
        return self._factor(x) @ self.system.Q(x)

    def tilde_G(self, x) -> np.ndarray:
        return self._factor(x) @ self.system.G(x)

    def residual(self, x, u) -> float:
        """|Q~ xdot - grad P~ - G~ u| along the original dynamics at x."""
        xdot = self.system.xdot(x, u)
        r = self.tilde_Q(x) @ xdot - self.grad_tilde_P(x) - self.tilde_G(x) @ np.atleast_1d(u)
        return float(np.max(np.abs(r)))


def mixed_potential_rate(sys: PseudoGradientSystem, x, xdot, u):
    """Rate of the mixed potential and the power-shaping output.

    Returns ``(Pdot, y)`` with ``Pdot = xdot^T Q(x) xdot + u^T y`` and
    ``y = -G(x)^T xdot``.
    """
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (sys.n,) or xdot.shape != (sys.n,) or u.shape != (sys.m,):
        raise ValueError("dimension mismatch")
    y = -sys.G(x).T @ xdot
    pdot = xdot @ sys.Q(x) @ xdot + u @ y
    return float(pdot), y


def admissible_pair(sys: PseudoGradientSystem, lam: float, M: np.ndarray) -> AdmissiblePair:
    """Build the (P~, Q~) transform; asymmetric ``M`` is rejected.

    :meth:`AdmissiblePair.residual` evaluates the gradient-structure identity
    ``Q~(x) xdot = grad P~(x) + G~(x) u`` along the original dynamics.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (sys.n, sys.n):
        raise ValueError("M must be n x n")
    if np.max(np.abs(M - M.T)) > 1e-12 * (1.0 + np.max(np.abs(M))):
        raise ValueError("M must be symmetric")
    return AdmissiblePair(sys, float(lam), M)


def neg_semidefinite_symmetric_part(A):
    """(is the symmetric part <= 0 up to 1e-10, its largest eigenvalue)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    eig_max = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    return eig_max <= 1e-10, eig_max


def krasovskii_storage(M, xdot) -> float:
    """Velocity storage ``0.5 * xdot^T M xdot`` for symmetric PD ``M``."""
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > 1e-12 * (1.0 + np.max(np.abs(M))):
        raise ValueError("M must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("M must be positive definite") from exc
    xdot = np.asarray(xdot, dtype=float)
    return float(0.5 * xdot @ M @ xdot)


def default_audit_tol(storage_values) -> float:
    """Scale-aware slack for discrete dissipation checks, from the finite
    values only: a non-finite value fails the audit instead of widening it."""
    size = np.abs(np.asarray(storage_values, dtype=float))
    return 1e-6 * (1.0 + float(np.max(size, where=np.isfinite(size), initial=0.0)))


@dataclass
class StorageTrace:
    """Per-sample storage, cumulative supply, and switch events.

    ``margin[k] = (supply[k] - storage[k]) - max_{i<=k}(supply[i] - storage[i])``
    so the dissipation inequality over every sample pair holds exactly when
    ``min(margin) >= -audit_tol``.
    """

    times: np.ndarray
    storage: np.ndarray
    supply_integral: np.ndarray
    switch_events: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.storage = np.asarray(self.storage, dtype=float)
        self.supply_integral = np.asarray(self.supply_integral, dtype=float)
        if self.supply_integral.size and abs(self.supply_integral[0]) > 0:
            raise ValueError("supply integral must start at 0")

    @property
    def margin(self) -> np.ndarray:
        """Per sample; non-finite wherever the storage or the supply is."""
        d = self.supply_integral - self.storage
        with np.errstate(invalid="ignore"):     # inf - inf, read as NaN
            return d - np.maximum.accumulate(d)

    def report(self, audit_tol: float | None = None) -> dict:
        """``verdict`` (PASS/FAIL), ``min_margin`` and ``worst_time``, the time
        of the worst margin.  A non-finite storage value has a non-finite
        margin, which fails the audit; the first one is the worst."""
        if audit_tol is None:
            audit_tol = default_audit_tol(self.storage)
        m = self.margin
        k = int(np.argmin(np.where(np.isfinite(m), m, -np.inf)))
        return {"verdict": "PASS" if m[k] >= -audit_tol else "FAIL",
                "min_margin": float(m[k]), "worst_time": float(self.times[k])}


def passivity_audit(
    traj: Trajectory,
    storage: Callable[[float, np.ndarray], float],
    port_u: Callable[[float, np.ndarray], np.ndarray],
    port_y: Callable[[float, np.ndarray], np.ndarray],
):
    """Check ``S(t_j) - S(t_i) <= supply(t_j) - supply(t_i)`` over all i <= j.

    Storage and both ports are sampled at every trajectory point; the supply
    integral is trapezoidal.  Returns ``(StorageTrace, verdict_dict)``, the
    verdict of :meth:`StorageTrace.report` at :func:`default_audit_tol`.
    """
    ts = traj.times
    S = np.array([storage(t, x) for t, x in zip(ts, traj.states)], dtype=float)
    uy = np.array(
        [np.dot(np.atleast_1d(port_u(t, x)), np.atleast_1d(port_y(t, x)))
         for t, x in zip(ts, traj.states)],
        dtype=float,
    )
    supply = np.concatenate([[0.0], np.cumsum(0.5 * (uy[1:] + uy[:-1]) * np.diff(ts))])
    trace = StorageTrace(ts, S, supply)
    return trace, trace.report()


def lyapunov_audit(times, V) -> dict:
    """Check ``V(t_j) <= V(t_i) + default_audit_tol(V)`` over all sample pairs i <= j.

    The zero-supply case of :class:`StorageTrace`: a Lyapunov function
    sampled along a trajectory must never rise above its running minimum.
    Returns the verdict dict of :meth:`StorageTrace.report`.
    """
    V = np.asarray(V, dtype=float)
    return StorageTrace(times, V, np.zeros_like(V)).report()
