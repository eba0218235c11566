"""Hard-margin SVM trained by the primal-dual gradient flow.

Two Gaussian point clouds are generated from a counter-based PRNG, the
max-margin separating hyperplane problem is posed over (beta, beta0), and
the multiplier flow of :mod:`passiflow.primal_dual` drives every data
constraint.  At convergence the nonzero multipliers mark the support
vectors and the primal weight vector satisfies the representer identity
``beta = sum_i mu_i y_i x_i``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ode import IntegratorConfig
from .primal_dual import (
    AffineInequalities,
    ConvexProblem,
    FlowState,
    SolveResult,
    quadratic_oracle,
    solve,
)

__all__ = [
    "Dataset",
    "Hyperplane",
    "DEFAULT_MEAN_A",
    "DEFAULT_MEAN_B",
    "DEFAULT_COV",
    "DEFAULT_INTEGRATOR",
    "generate_gaussian_classes",
    "build_svm_problem",
    "train_svm",
    "support_vectors",
]

DEFAULT_MEAN_A = (0.0, 0.0)
DEFAULT_MEAN_B = (0.0, 6.0)
DEFAULT_COV = ((1.0, 1.5), (1.5, 3.0))
# The constraint coupling has spectral norm ~115 on the default data scale,
# so RK4 keeps every mode up to about step 0.0225 (ode.RK4_DISC_BOUND over
# 1 + 115).  Step 0.01 is set by the storage audit instead: at seed 0 it
# passes at steps 0.01-0.015 and fails at 0.02, where the first event batch
# raises the storage by 0.86.
# train_svm grows the step between events, with step as the floor and
# convergence_tol * step = 1e-9 as the local error tolerance.
DEFAULT_INTEGRATOR = IntegratorConfig(step=1e-2, max_time=400.0, convergence_tol=1e-7,
                                      convergence_window=10, record_every=20)


@dataclass(frozen=True)
class Dataset:
    """Labeled 2-D points; exactly half the rows carry each label."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] != labels.shape[0]:
            raise ValueError("points must be (2N, 2) with matching labels")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if set(np.unique(labels)) - {1.0, -1.0}:
            raise ValueError("labels must be +1/-1")
        if np.sum(labels == 1.0) != np.sum(labels == -1.0):
            raise ValueError("classes must be balanced")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Hyperplane:
    """Separating line ``x^T beta + beta0 = 0``."""

    beta: np.ndarray
    beta0: float

    @property
    def margin(self) -> float:
        return 2.0 / float(np.linalg.norm(self.beta))

    def decision(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float) @ np.asarray(self.beta) + self.beta0


def _philox_normals(seed: int, count: int) -> np.ndarray:
    """Standard normals from Philox raw words via Box-Muller.

    One normal pair consumes two 64-bit words w1, w2:
    ``u1 = ((w1 >> 11) + 1) * 2^-53`` in (0, 1],
    ``u2 = (w2 >> 11) * 2^-53`` in [0, 1),
    ``z1 = sqrt(-2 ln u1) cos(2 pi u2)``, ``z2 = ... sin(2 pi u2)``.
    The scheme is spelled out so datasets are reproducible from the seed
    alone, independent of any library's normal-sampling internals.
    """
    pairs = (count + 1) // 2
    raw = np.random.Philox(key=seed).random_raw(2 * pairs)
    w1 = raw[0::2]
    w2 = raw[1::2]
    u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (w2 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


def generate_gaussian_classes(
    seed: int,
    n_per_class: int = 300,
    mean_a=DEFAULT_MEAN_A,
    mean_b=DEFAULT_MEAN_B,
    cov=DEFAULT_COV,
) -> Dataset:
    """Two equal-size Gaussian classes sharing one covariance.

    Class a (label +1) is drawn first, then class b (label -1), each point
    as ``mean + chol(cov) @ z`` with consecutive normal pairs ``z`` from
    :func:`_philox_normals`.  Deterministic per seed.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2) or np.max(np.abs(cov - cov.T)) > 1e-12:
        raise ValueError("cov must be symmetric 2x2")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cov must be positive definite") from exc
    z = _philox_normals(int(seed), 4 * n_per_class).reshape(2 * n_per_class, 2)
    pts_a = np.asarray(mean_a, dtype=float) + z[:n_per_class] @ chol.T
    pts_b = np.asarray(mean_b, dtype=float) + z[n_per_class:] @ chol.T
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return Dataset(np.vstack([pts_a, pts_b]), labels)


def build_svm_problem(data: Dataset) -> ConvexProblem:
    """Max-margin problem over w = (beta1, beta2, beta0).

    minimize (beta1^2 + beta2^2)/2  s.t.  1 - y_i (beta^T x_i + beta0) <= 0.

    The offset beta0 carries no cost curvature, so the objective Hessian is
    only positive semidefinite -- a deliberate exception to the strict
    convexity the generic flow assumes; the constraint geometry pins beta0.
    """
    if data.size == 0:
        raise ValueError("dataset must be nonempty")
    G = -data.labels[:, None] * np.column_stack([data.points, np.ones(data.size)])
    h = -np.ones(data.size)
    return ConvexProblem(
        n=3,
        f=quadratic_oracle(np.diag([1.0, 1.0, 0.0]), np.zeros(3)),
        ineq=AffineInequalities(G, h),
    )


def train_svm(data: Dataset, cfg: IntegratorConfig = DEFAULT_INTEGRATOR,
              sink: Callable[[float, np.ndarray], None] | None = None) -> SolveResult:
    """Run the primal-dual flow from the origin with zero multipliers, at
    unit time constants.  ``sink`` is :func:`~passiflow.primal_dual.solve`'s:
    given, each sample ``(beta1, beta2, beta0, mu...)`` goes to it and none
    is kept.

    The step grows between events (``solve(grow_step=True)``): once the
    active set settles, the flow is smooth and a longer step reaches
    convergence in far fewer steps.  ``cfg.step`` stays the step of the
    event phase and the floor.  A run that stops unconverged warns with its
    final stationarity.  A non-separable draw has no feasible point and
    never converges, but a separable draw can also converge slowly and need
    a longer ``max_time``.
    """
    prob = build_svm_problem(data)
    init = FlowState(np.zeros(3), mu=np.zeros(data.size))
    result = solve(prob, init, cfg=cfg, grow_step=True, sink=sink)
    if not result.converged:
        warnings.warn(
            f"SVM flow stopped unconverged at t = {result.trajectory.times[-1]:g}: final "
            f"stationarity {result.kkt.stationarity:.3g} against convergence_tol "
            f"{cfg.convergence_tol:.3g}. A non-separable draw never converges; a "
            "separable one may need a longer max_time", stacklevel=2)
    return result


def support_vectors(data: Dataset, final: FlowState, tol: float = 1e-6):
    """Indices with active multipliers, the trained hyperplane, and residuals.

    Returns ``(indices, hyperplane, report)`` where the report carries the
    representer residual ``|beta - sum mu_i y_i x_i|``, the dual balance
    ``|sum mu_i y_i|``, and the margin.
    """
    mu = final.mu
    beta = final.x[:2]
    beta0 = float(final.x[2])
    idx = np.nonzero(mu > tol)[0]
    ymu = data.labels * mu
    representer = float(np.linalg.norm(beta - data.points.T @ ymu))
    dual_balance = float(abs(np.sum(ymu)))
    plane = Hyperplane(beta.copy(), beta0)
    report = {
        "representer_residual": representer,
        "dual_balance": dual_balance,
        "margin": plane.margin,
        "n_support": int(idx.size),
    }
    return idx, plane, report
