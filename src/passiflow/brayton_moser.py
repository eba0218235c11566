"""Pseudo-gradient (Brayton-Moser) systems and passivity bookkeeping.

A plant here is described by ``Q(x) xdot = grad P(x) + G(x) u`` with an
indefinite metric ``Q`` and a mixed potential ``P`` carrying units of power.
This module provides the admissible-pair transform that re-expresses the same
vector field through a sign-definite pair, Krasovskii storage in velocities,
and a trajectory-level audit of the dissipation inequality
``S(t_j) - S(t_i) <= integral of u^T y``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ode import Trajectory, finite_diff_gradient, finite_diff_jacobian, write_csv

__all__ = [
    "PseudoGradientSystem",
    "AdmissiblePair",
    "StorageTrace",
    "mixed_potential_rate",
    "admissible_pair",
    "neg_semidefinite_symmetric_part",
    "krasovskii_storage",
    "passivity_audit",
    "default_audit_tol",
]


@dataclass(frozen=True)
class PseudoGradientSystem:
    """Oracles for ``Q(x) xdot = grad P(x) + G(x) u``.

    ``hess_P`` may be omitted; it then falls back to central differences of
    ``grad_P`` and the fallback is flagged on the instance.
    """

    n: int
    m: int
    Q: Callable[[np.ndarray], np.ndarray]
    P: Callable[[np.ndarray], float]
    grad_P: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    hess_P: Callable[[np.ndarray], np.ndarray] | None = None
    hess_is_numeric: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.hess_P is None:
            grad = self.grad_P
            object.__setattr__(
                self, "hess_P", lambda x: finite_diff_jacobian(grad, x, 1e-5)
            )
            object.__setattr__(self, "hess_is_numeric", True)

    def xdot(self, x, u) -> np.ndarray:
        """Velocity obtained by solving the pseudo-gradient relation for xdot."""
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rhs = self.grad_P(x) + self.G(x) @ u
        return np.linalg.solve(self.Q(x), rhs)

    def check_consistency(self, x, rel_tol: float = 1e-5) -> dict:
        """Spot-check oracle shapes, gradient accuracy and Hessian symmetry at x."""
        x = np.asarray(x, dtype=float)
        Q = self.Q(x)
        G = self.G(x)
        g = self.grad_P(x)
        H = self.hess_P(x)
        if Q.shape != (self.n, self.n) or G.shape != (self.n, self.m):
            raise ValueError("oracle dimensions inconsistent")
        fd = finite_diff_gradient(self.P, x, 1e-6)
        scale = 1.0 + np.max(np.abs(fd))
        grad_err = np.max(np.abs(g - fd)) / scale
        sym_err = np.max(np.abs(H - H.T))
        return {"grad_rel_err": grad_err, "hess_sym_err": sym_err,
                "grad_ok": grad_err <= rel_tol,
                "hess_ok": sym_err <= (1e-10 if not self.hess_is_numeric else 1e-4)}


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
    max_residual: float = float("nan")

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


def admissible_pair(
    sys: PseudoGradientSystem,
    lam: float,
    M: np.ndarray,
    sample_points=None,
    sample_inputs=None,
) -> AdmissiblePair:
    """Build the (P~, Q~) transform and verify it reproduces the dynamics.

    When ``sample_points`` are supplied, the gradient-structure identity
    ``Q~(x) xdot = grad P~(x) + G~(x) u`` is evaluated along the original
    dynamics at each point and the maximum residual is stored on the result.
    Asymmetric ``M`` is rejected.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (sys.n, sys.n):
        raise ValueError("M must be n x n")
    if np.max(np.abs(M - M.T)) > 1e-12 * (1.0 + np.max(np.abs(M))):
        raise ValueError("M must be symmetric")
    pair = AdmissiblePair(sys, float(lam), M)
    if sample_points is not None:
        if sample_inputs is None:
            sample_inputs = [np.zeros(sys.m)] * len(sample_points)
        res = max(pair.residual(x, u) for x, u in zip(sample_points, sample_inputs))
        pair = AdmissiblePair(sys, float(lam), M, max_residual=res)
    return pair


def neg_semidefinite_symmetric_part(A, tol: float = 1e-10):
    """(is the symmetric part <= 0, its largest eigenvalue)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    eig_max = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    return eig_max <= tol, eig_max


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
    """Scale-aware slack for discrete dissipation checks."""
    return 1e-6 * (1.0 + float(np.max(np.abs(storage_values), initial=0.0)))


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
        d = self.supply_integral - self.storage
        return d - np.maximum.accumulate(d)

    def verdict(self, audit_tol: float | None = None):
        """(PASS/FAIL, min margin, time of the worst margin)."""
        if audit_tol is None:
            audit_tol = default_audit_tol(self.storage)
        m = self.margin
        k = int(np.argmin(m))
        ok = m[k] >= -audit_tol
        return ("PASS" if ok else "FAIL"), float(m[k]), float(self.times[k])

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "storage", "supply", "margin"],
                  zip(self.times.tolist(), self.storage.tolist(),
                      self.supply_integral.tolist(), self.margin.tolist()))

    def summary_json(self, path, audit_tol: float | None = None) -> dict:
        verdict, min_margin, worst_time = self.verdict(audit_tol)
        payload = {"verdict": verdict, "min_margin": min_margin, "worst_time": worst_time}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        return payload


def passivity_audit(
    traj: Trajectory,
    storage: Callable[[float, np.ndarray], float],
    port_u: Callable[[float, np.ndarray], np.ndarray],
    port_y: Callable[[float, np.ndarray], np.ndarray],
    audit_tol: float | None = None,
):
    """Check ``S(t_j) - S(t_i) <= supply(t_j) - supply(t_i)`` over all i <= j.

    Storage and both ports are sampled at every trajectory point; the supply
    integral is trapezoidal.  Returns ``(StorageTrace, verdict_dict)`` where
    the verdict carries the PASS/FAIL flag, the worst margin, and its time.
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
    verdict, min_margin, worst_time = trace.verdict(audit_tol)
    return trace, {"verdict": verdict, "min_margin": min_margin, "worst_time": worst_time}
