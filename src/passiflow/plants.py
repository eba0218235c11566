"""Worked physical plants and every controller derived for them.

Three concrete systems -- the parallel RLC circuit, topologically complete
RLC networks, and a two-zone thermal (HVAC) model -- plus the generic
dynamic-state-feedback machinery for contracting nonlinear systems
``xdot = f(x) + g(x) u``.  Each controller ships with its closed-loop
Lyapunov/storage evaluator so simulations can be audited for monotone
decrease, and each plant exposes its pseudo-gradient description for
cross-checking against the plain state-space right-hand side.

A dynamic-feedback system may give ``Gamma`` and its closed loop in closed
form; the HVAC system gives both.  A generic loop rhs call evaluates ``f``,
``g``, ``Gamma`` and the port output ``y = g^T M xdot`` once and solves the
Gram system for ``alpha``.  The rhs of each loop the CLI runs is one scalar
formula instead: the state unpacked to Python floats once, numpy's operation
order, its ``** 2`` and the zero entries of its matrix products kept, so
that it equals the matrix form bit for bit.  The CLI steps these loops on
floats (``integrate(floats=True)``), so no stage is packed into an array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brayton_moser import PseudoGradientSystem
from .primal_dual import ScalarOracle

__all__ = [
    "ParallelRLC",
    "CompleteRLC",
    "HvacParams",
    "DynFeedbackSystem",
    "CertificateUnavailable",
    "RankDeficientInput",
    "prlc_rhs",
    "prlc_equilibrium",
    "prlc_bm",
    "prlc_power_shaping",
    "prlc_shaped_potential",
    "prlc_power_shaping_loop",
    "prlc_krasovskii_pi",
    "prlc_krasovskii_pi_loop",
    "complete_rlc_rhs",
    "complete_rlc_bm",
    "complete_rlc_storage",
    "hvac_rhs",
    "hvac_bm",
    "hvac_equilibrium",
    "hvac_gamma",
    "hvac_power_shaping",
    "hvac_shaping_offsets",
    "hvac_shaped_potential",
    "hvac_power_shaping_loop",
    "hvac_dyn_feedback",
    "dyn_feedback_alpha",
    "dyn_feedback_rhs",
    "dyn_feedback_control",
    "dyn_feedback_loop",
]


class CertificateUnavailable(UserWarning):
    """Raised as a warning when a passivity certificate's parameter condition fails."""


class RankDeficientInput(ValueError):
    """The input matrix ``g(x)`` lost column rank, so ``alpha`` is undefined."""


def _packed(rates):
    """``rhs(t, x) = np.array(rates(*x))`` on Python floats, which round as
    float64 does at a fraction of a numpy scalar's cost.  A float ``** 2``
    past the float range raises where numpy's gives inf: numpy scalars then.
    The CLI steps on floats: a tuple ``x`` gets ``rates(*x)``, not packed."""

    def rhs(t, x):
        floats = type(x) is tuple
        try:
            k = rates(*(x if floats else x.tolist()))
        except OverflowError:
            k = rates(*np.asarray(x))
        return k if floats else np.array(k)

    return rhs


# ---------------------------------------------------------------------------
# Parallel RLC circuit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelRLC:
    """Series R-L branch driven by a source, parallel G-C load."""

    R: float = 1.0
    G: float = 1.0
    L: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if min(self.R, self.G, self.L, self.C) <= 0:
            raise ValueError("all RLC parameters must be strictly positive")

    @property
    def admissible_certificate_holds(self) -> bool:
        """Parameter condition under which the shaped pair is sign-definite."""
        return self.G ** 2 * self.L >= self.C


def prlc_rhs(p: ParallelRLC, state, Vs: float) -> np.ndarray:
    """((Vs - R i - v) / L, (i - G v) / C) for state (i, v)."""
    i, v = state
    return np.array([(Vs - p.R * i - v) / p.L, (i - p.G * v) / p.C])


def prlc_equilibrium(p: ParallelRLC, v_star: float):
    """(i*, Vs*) consistent with holding the capacitor voltage at v*."""
    i_star = p.G * v_star
    return i_star, v_star + p.R * i_star


def prlc_bm(p: ParallelRLC) -> PseudoGradientSystem:
    """Mixed-potential description: diag(-L, C) xdot = grad P - (1, 0) Vs.

    ``P(i, v) = -G v^2 / 2 + v i + R i^2 / 2``.
    """
    R, G = p.R, p.G

    return PseudoGradientSystem(
        n=2,
        m=1,
        Q=lambda x: np.diag([-p.L, p.C]),
        P=lambda x: -0.5 * G * x[1] ** 2 + x[0] * x[1] + 0.5 * R * x[0] ** 2,
        grad_P=lambda x: np.array([x[1] + R * x[0], x[0] - G * x[1]]),
        hess_P=lambda x: np.array([[R, 1.0], [1.0, -G]]),
        G=lambda x: np.array([[-1.0], [0.0]]),
    )


def _check_power_shaping(p: ParallelRLC, K: float):
    """Refuse ``K < 0``; warn the caller's caller when ``G^2 L < C``."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if not p.admissible_certificate_holds:
        warnings.warn("G^2 L < C: shaped-pair certificate unavailable for this parameter set",
                      CertificateUnavailable, stacklevel=3)


def prlc_power_shaping(p: ParallelRLC, state, i_star: float, K: float) -> float:
    """Source voltage ``Vs = -K (i - i*) + (R + 1/G) i*``.

    Warns (without refusing) when ``G^2 L < C``: the shaped-pair certificate
    behind this law is then unavailable, though the control value itself is
    still well defined.
    """
    _check_power_shaping(p, K)
    i = state[0]
    return -K * (i - i_star) + (p.R + 1.0 / p.G) * i_star


def prlc_shaped_potential(p: ParallelRLC, state, i_star: float, K: float) -> float:
    """Closed-loop potential ``(Gv - i)^2 / 2G + (R + 1/G + K)(i - i*)^2 / 2``."""
    i, v = state
    return (
        (p.G * v - i) ** 2 / (2.0 * p.G)
        + 0.5 * (p.R + 1.0 / p.G + K) * (i - i_star) ** 2
    )


def prlc_power_shaping_loop(p: ParallelRLC, i_star: float, K: float):
    """(rhs, lyapunov) for the power-shaped closed loop over state (i, v);
    ``K`` is checked, and the certificate warning given, once, here."""
    _check_power_shaping(p, K)
    R, G, L, C = p.R, p.G, p.L, p.C
    feedforward = (p.R + 1.0 / p.G) * i_star

    def rates(i, v):
        Vs = -K * (i - i_star) + feedforward
        return (Vs - R * i - v) / L, (i - G * v) / C

    def lyap(t, x):
        return prlc_shaped_potential(p, x, i_star, K)

    return _packed(rates), lyap


def prlc_krasovskii_pi(p: ParallelRLC, state, ctrl_state: float,
                       i_star: float, v_star: float, K_P: float, K_I: float):
    """PI law on the current error: ``Vs = -K_P (i - i*) - K_I z + R i* + v*``.

    ``ctrl_state`` is the accumulated integral ``z`` of ``i - i*``; its rate
    is returned alongside the control so the caller can integrate it jointly
    with the plant.  No parameter condition is needed here.
    """
    if K_P < 0 or K_I < 0:
        raise ValueError("K_P and K_I must be >= 0")
    i = state[0]
    Vs = -K_P * (i - i_star) - K_I * ctrl_state + p.R * i_star + v_star
    return Vs, i - i_star


def prlc_krasovskii_pi_loop(p: ParallelRLC, i_star: float, v_star: float,
                            K_P: float, K_I: float):
    """(rhs, lyapunov) over augmented state (i, v, z).

    The Lyapunov function is the velocity storage plus the integral-error
    penalty: ``L i_t^2 / 2 + C v_t^2 / 2 + K_I (i - i*)^2 / 2``.
    """
    if K_P < 0 or K_I < 0:
        raise ValueError("K_P and K_I must be >= 0")
    R, G, L, C = p.R, p.G, p.L, p.C
    R_i_star = p.R * i_star

    def rates(i, v, z):
        Vs = -K_P * (i - i_star) - K_I * z + R_i_star + v_star
        return (Vs - R * i - v) / L, (i - G * v) / C, i - i_star

    rhs = _packed(rates)

    def lyap(t, x):
        di, dv, _ = rhs(t, x)
        return 0.5 * p.L * di ** 2 + 0.5 * p.C * dv ** 2 + 0.5 * K_I * (x[0] - i_star) ** 2

    return rhs, lyap


# ---------------------------------------------------------------------------
# Topologically complete RLC networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteRLC:
    """Network reduced to inductor currents i and capacitor voltages v.

    -L di/dt = grad_i P - Bs Vs,   C dv/dt = grad_v P,
    P(i, v) = i^T Gamma v + content(i) - cocontent(v).

    ``content``/``cocontent`` are the resistive potentials (convex for
    passive resistors); ``Bs`` is the constant source incidence matrix.
    """

    L: np.ndarray
    C: np.ndarray
    Gamma: np.ndarray
    content: ScalarOracle
    cocontent: ScalarOracle
    Bs: np.ndarray

    def __post_init__(self):
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        Gamma = np.atleast_2d(np.asarray(self.Gamma, dtype=float))
        Bs = np.atleast_2d(np.asarray(self.Bs, dtype=float))
        for name, Mx in (("L", L), ("C", C)):
            if np.linalg.eigvalsh(0.5 * (Mx + Mx.T))[0] <= 0:
                raise ValueError(f"{name} must be positive definite")
        if Gamma.shape != (L.shape[0], C.shape[0]):
            raise ValueError("Gamma must be n_L x n_C")
        if Bs.shape[0] != L.shape[0]:
            raise ValueError("Bs must have n_L rows")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "Bs", Bs)

    @property
    def n_L(self) -> int:
        return self.L.shape[0]

    @property
    def n_C(self) -> int:
        return self.C.shape[0]

    @property
    def n_E(self) -> int:
        return self.Bs.shape[1]

    def split(self, state):
        state = np.asarray(state, dtype=float)
        return state[: self.n_L], state[self.n_L:]


def complete_rlc_rhs(c: CompleteRLC, state, Vs) -> np.ndarray:
    i, v = c.split(state)
    Vs = np.atleast_1d(np.asarray(Vs, dtype=float))
    grad_i = c.Gamma @ v + c.content.grad(i)
    grad_v = c.Gamma.T @ i - c.cocontent.grad(v)
    di = np.linalg.solve(c.L, c.Bs @ Vs - grad_i)
    dv = np.linalg.solve(c.C, grad_v)
    return np.concatenate([di, dv])


def complete_rlc_bm(c: CompleteRLC) -> PseudoGradientSystem:
    n = c.n_L + c.n_C

    def P(x):
        i, v = c.split(x)
        return float(i @ c.Gamma @ v + c.content.value(i) - c.cocontent.value(v))

    def grad_P(x):
        i, v = c.split(x)
        return np.concatenate([c.Gamma @ v + c.content.grad(i),
                               c.Gamma.T @ i - c.cocontent.grad(v)])

    def hess_P(x):
        i, v = c.split(x)
        H = np.zeros((n, n))
        H[: c.n_L, : c.n_L] = c.content.hess(i)
        H[: c.n_L, c.n_L:] = c.Gamma
        H[c.n_L:, : c.n_L] = c.Gamma.T
        H[c.n_L:, c.n_L:] = -c.cocontent.hess(v)
        return H

    def Q(x):
        Qm = np.zeros((n, n))
        Qm[: c.n_L, : c.n_L] = -c.L
        Qm[c.n_L:, c.n_L:] = c.C
        return Qm

    def G(x):
        Gm = np.zeros((n, c.n_E))
        Gm[: c.n_L, :] = -c.Bs
        return Gm

    return PseudoGradientSystem(n=n, m=c.n_E, Q=Q, P=P, grad_P=grad_P,
                                hess_P=hess_P, G=G)


def complete_rlc_storage(c: CompleteRLC, rates) -> float:
    """Velocity storage ``i_t^T L i_t / 2 + v_t^T C v_t / 2``."""
    di, dv = c.split(rates)
    return float(0.5 * di @ c.L @ di + 0.5 * dv @ c.C @ dv)


# ---------------------------------------------------------------------------
# Two-zone HVAC thermal network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HvacParams:
    """Two zones coupled through a 3R2C wall, each with an air supply.

    The supply temperature must stay away from both zone temperatures at
    runtime; several control expressions divide by ``T_s - T_i``.
    """

    C1: float = 10.0
    C2: float = 10.0
    C3: float = 40.0
    C4: float = 40.0
    R31: float = 5.0
    R42: float = 5.0
    R34: float = 5.0
    R10: float = 5.0
    R20: float = 5.0
    c_p: float = 1.0
    T_s: float = 10.0
    T_inf: float = 30.0

    def __post_init__(self):
        vals = (self.C1, self.C2, self.C3, self.C4, self.R31, self.R42,
                self.R34, self.R10, self.R20, self.c_p)
        if min(vals) <= 0:
            raise ValueError("capacitances, resistances and c_p must be positive")

    @property
    def cap(self) -> np.ndarray:
        return np.array([self.C1, self.C2, self.C3, self.C4])


def _hvac_rates(h: HvacParams):
    """``(T0, T1, T2, T3, u0, u1) -> Tdot`` of :func:`hvac_rhs`, on scalars."""
    R31, R42, R34, R10, R20 = h.R31, h.R42, h.R34, h.R10, h.R20
    C1, C2, C3, C4, c_p, T_s, T_inf = h.C1, h.C2, h.C3, h.C4, h.c_p, h.T_s, h.T_inf

    def rates(T0, T1, T2, T3, u0, u1):
        q1 = (T2 - T0) / R31 + (T_inf - T0) / R10 + u0 * c_p * (T_s - T0)
        q2 = (T3 - T1) / R42 + (T_inf - T1) / R20 + u1 * c_p * (T_s - T1)
        q3 = (T0 - T2) / R31 + (T3 - T2) / R34
        q4 = (T1 - T3) / R42 + (T2 - T3) / R34
        return q1 / C1, q2 / C2, q3 / C3, q4 / C4

    return rates


def hvac_rhs(h: HvacParams, T, u) -> np.ndarray:
    """Capacitance-scaled heat balances of the four temperature nodes."""
    return np.array(_hvac_rates(h)(*np.asarray(T, dtype=float).tolist(),
                                   *np.asarray(u, dtype=float).tolist()))


def hvac_bm(h: HvacParams) -> PseudoGradientSystem:
    """Pseudo-gradient form with resistor-network potential P(T).

    ``Q = -diag(C)`` and the input matrix couples each zone to its supply:
    column i is ``-c_p (T_s - T_i)`` on the zone row.
    """

    def P(T):
        return float(
            (T[2] - T[0]) ** 2 / (2 * h.R31)
            + (T[3] - T[1]) ** 2 / (2 * h.R42)
            + (T[2] - T[3]) ** 2 / (2 * h.R34)
            + (h.T_inf - T[0]) ** 2 / (2 * h.R10)
            + (h.T_inf - T[1]) ** 2 / (2 * h.R20)
        )

    def grad_P(T):
        return np.array([
            -(T[2] - T[0]) / h.R31 - (h.T_inf - T[0]) / h.R10,
            -(T[3] - T[1]) / h.R42 - (h.T_inf - T[1]) / h.R20,
            (T[2] - T[0]) / h.R31 + (T[2] - T[3]) / h.R34,
            (T[3] - T[1]) / h.R42 - (T[2] - T[3]) / h.R34,
        ])

    def hess_P(T):
        H = np.zeros((4, 4))
        H[0, 0] = 1 / h.R31 + 1 / h.R10
        H[1, 1] = 1 / h.R42 + 1 / h.R20
        H[2, 2] = 1 / h.R31 + 1 / h.R34
        H[3, 3] = 1 / h.R42 + 1 / h.R34
        H[0, 2] = H[2, 0] = -1 / h.R31
        H[1, 3] = H[3, 1] = -1 / h.R42
        H[2, 3] = H[3, 2] = -1 / h.R34
        return H

    def G(T):
        Gm = np.zeros((4, 2))
        Gm[0, 0] = -h.c_p * (h.T_s - T[0])
        Gm[1, 1] = -h.c_p * (h.T_s - T[1])
        return Gm

    return PseudoGradientSystem(
        n=4, m=2,
        Q=lambda T: -np.diag(h.cap),
        P=P, grad_P=grad_P, hess_P=hess_P, G=G,
    )


def hvac_equilibrium(h: HvacParams, T1_star: float, T2_star: float):
    """Wall temperatures and mass flows holding the zones at their targets.

    Solves the two wall balances for (T3*, T4*), then reads off u* from the
    zone balances.
    """
    for Tz in (T1_star, T2_star):
        if abs(h.T_s - Tz) < 1e-12:
            raise ValueError("target equal to supply temperature (division by zero)")
    # (T1-T3)/R31 + (T4-T3)/R34 = 0 ;  (T2-T4)/R42 + (T3-T4)/R34 = 0
    Amat = np.array([
        [1.0 / h.R31 + 1.0 / h.R34, -1.0 / h.R34],
        [-1.0 / h.R34, 1.0 / h.R42 + 1.0 / h.R34],
    ])
    rhs = np.array([T1_star / h.R31, T2_star / h.R42])
    T3_star, T4_star = np.linalg.solve(Amat, rhs)
    u1 = -((T3_star - T1_star) / h.R31 + (h.T_inf - T1_star) / h.R10) / (h.c_p * (h.T_s - T1_star))
    u2 = -((T4_star - T2_star) / h.R42 + (h.T_inf - T2_star) / h.R20) / (h.c_p * (h.T_s - T2_star))
    T_star = np.array([T1_star, T2_star, T3_star, T4_star])
    return T_star, np.array([u1, u2])


def hvac_gamma(h: HvacParams, T) -> np.ndarray:
    """Integrated output port: ``Gamma_i = -c_p (T_s - T_i)^2 / 2``."""
    T = np.asarray(T, dtype=float)
    return -0.5 * h.c_p * np.array([(T[0] - h.T_s) ** 2, (T[1] - h.T_s) ** 2])


def hvac_shaping_offsets(h: HvacParams, targets, k, k1, k2):
    """(T*, u*, a): the equilibrium and the offsets ``a = -k K_I^-1 u* - Gamma(T*)``
    of the shaped potential, the design's ``k K_I^-1 G(T*)^+ grad P(T*) - Gamma(T*)``
    because the equilibrium holds ``G(T*) u* = -grad P(T*)``."""
    T_star, u_star = hvac_equilibrium(h, *targets)
    a = -k * np.array([1.0 / k1, 1.0 / k2]) * u_star - hvac_gamma(h, T_star)
    return T_star, u_star, a


def hvac_power_shaping(h: HvacParams, T, Tdot, targets, k: float,
                       k1: float, k2: float, alpha: float) -> np.ndarray:
    """Integral-of-output law with optional output damping.

    ``u_i = -(alpha/k) c_p (T_s - T_i) Tdot_i - (k_i/k)(Gamma_i + a_i)``, with the
    offsets ``a`` of :func:`hvac_shaping_offsets`; at ``T*`` and ``Tdot = 0`` it is ``u*``.
    """
    if min(k, k1, k2) <= 0 or alpha < 0:
        raise ValueError("k, k1, k2 must be > 0 and alpha >= 0")
    T = np.asarray(T, dtype=float)
    Tdot = np.asarray(Tdot, dtype=float)
    for Tz in T[:2]:
        if abs(h.T_s - Tz) < 1e-12:
            raise ValueError("zone temperature equals supply temperature")
    _, _, a = hvac_shaping_offsets(h, targets, k, k1, k2)
    damping = -(alpha / k) * h.c_p * (h.T_s - T[:2]) * Tdot[:2]
    return damping - (np.array([k1, k2]) / k) * (hvac_gamma(h, T) + a)


def hvac_shaped_potential(h: HvacParams, T, a, k, k1, k2) -> float:
    """Closed-loop potential ``k P(T) + sum_i k_i (Gamma_i + a_i)^2 / 2``.

    ``P`` is the potential of :func:`hvac_bm`, and ``a`` are the offsets of
    :func:`hvac_shaping_offsets` for the targets.
    """
    gam = hvac_gamma(h, T)
    kvec = np.array([k1, k2])
    return float(k * hvac_bm(h).P(np.asarray(T, dtype=float)) + 0.5 * np.sum(kvec * (gam + a) ** 2))


def hvac_power_shaping_loop(h: HvacParams, targets, k, k1, k2, alpha):
    """(rhs, lyapunov) over state T; the Tdot/u implicit loop is solved exactly.

    Substituting the control into the zone balances gives
    ``Tdot_i (C_i + (alpha/k) c_p^2 (T_s - T_i)^2) = q_i(T) - c_p (T_s - T_i) w_i(T)``
    with ``w`` the integral part of the law, so the closed loop stays an
    explicit ODE.  The gains are checked once, here, as the law checks them.
    """
    if min(k, k1, k2) <= 0 or alpha < 0:
        raise ValueError("k, k1, k2 must be > 0 and alpha >= 0")
    _, _, a = hvac_shaping_offsets(h, targets, k, k1, k2)
    a1, a2 = a.tolist()
    kw1, kw2 = (np.array([k1, k2]) / k).tolist()
    damping = alpha / k
    heat = _hvac_rates(h)
    C1, C2, c_p, T_s = h.C1, h.C2, h.c_p, h.T_s

    def rates(T0, T1, T2, T3):
        f1, f2, f3, f4 = heat(T0, T1, T2, T3, 0.0, 0.0)          # u = 0 part
        b1, b2 = c_p * (T_s - T0), c_p * (T_s - T1)
        w1 = kw1 * (-0.5 * c_p * (T0 - T_s) ** 2 + a1)        # integral part of the law
        w2 = kw2 * (-0.5 * c_p * (T1 - T_s) ** 2 + a2)
        return ((f1 * C1 - b1 * w1) / (C1 + damping * b1 * b1),
                (f2 * C2 - b2 * w2) / (C2 + damping * b2 * b2), f3, f4)

    def lyap(t, T):
        return hvac_shaped_potential(h, T, a, k, k1, k2)

    return _packed(rates), lyap


# ---------------------------------------------------------------------------
# Dynamic state feedback for contracting systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynFeedbackSystem:
    """Contracting plant ``xdot = f(x) + g(x) u`` with metric M.

    ``jac_g(x, k)`` is the Jacobian of the k-th input column.  ``gamma``
    (the potential whose gradient is ``M g``) may be closed form; otherwise
    it is evaluated as a straight-line path integral from the origin, which
    is well defined exactly when the integrability assumption holds.
    ``loop_rhs(gamma_star, k1, kd, ki)`` may give the closed loop in closed
    form: the ``rhs(t, z)`` of :func:`dyn_feedback_loop`, bit for bit.  It
    stands for this system's own ``f``, ``g`` and ``M``.
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    jac_f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    jac_g: Callable[[np.ndarray, int], np.ndarray]
    M: np.ndarray
    gamma: Callable[[np.ndarray], np.ndarray] | None = None
    loop_rhs: Callable[[np.ndarray, float, float, float], Callable] | None = None

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        np.linalg.cholesky(M)  # symmetric PD required
        object.__setattr__(self, "M", M)

    def gamma_value(self, x) -> np.ndarray:
        if self.gamma is not None:
            return np.asarray(self.gamma(x), dtype=float)
        # Straight-path quadrature of (M g)^T dx; closure is guaranteed by A3.
        d = np.asarray(x, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        s = 0.5 * (nodes + 1.0)
        out = np.zeros(self.m)
        for sk, wk in zip(s, weights):
            out += 0.5 * wk * (self.g(sk * d).T @ self.M @ d)
        return out

    def check_assumptions(self, samples) -> dict:
        """Numerically probe contraction, annihilator, and integrability.

        Over all samples: A1 is the largest eigenvalue of
        ``M J_f + J_f^T M`` (must be < 0); A2 the largest entry of
        ``g_perp dg_k/dx`` and A3 that of ``M dg_k/dx - (M dg_k/dx)^T``
        (each must be <= 1e-8).  The rows of ``g_perp`` are an orthonormal
        basis of the left null space of ``g(x)``: the rows of ``vh`` in
        ``svd(g(x)^T)`` past its rank, where singular values at or below
        ``max(n, m) * eps * s_max`` count as zero (the rank cut of
        ``scipy.linalg.null_space``).
        """
        a1 = -np.inf
        a2 = 0.0
        a3 = 0.0
        for x in samples:
            x = np.asarray(x, dtype=float)
            J = self.jac_f(x)
            a1 = max(a1, float(np.linalg.eigvalsh(self.M @ J + J.T @ self.M)[-1]))
            g = self.g(x)
            _, s, vh = np.linalg.svd(g.T, full_matrices=True)
            rank = int(np.sum(s > max(g.shape) * np.finfo(float).eps * s.max(initial=0.0)))
            g_perp = vh[rank:]
            for k in range(self.m):
                Jg = self.jac_g(x, k)
                a2 = max(a2, float(np.max(np.abs(g_perp @ Jg), initial=0.0)))
                MJg = self.M @ Jg
                a3 = max(a3, float(np.max(np.abs(MJg - MJg.T))))
        return {
            "contraction_max_eig": a1, "A1": a1 < 0,
            "annihilator_residual": a2, "A2": a2 <= 1e-8,
            "integrability_residual": a3, "A3": a3 <= 1e-8,
        }


def dyn_feedback_alpha(sys: DynFeedbackSystem, x, xdot, g=None) -> np.ndarray:
    """``alpha = -(g^T g)^{-1} g^T gdot``, the unique matrix with gdot + g alpha = 0.

    ``g`` is ``sys.g(x)`` when the caller already has it.  The Gram system
    is solved, and :class:`RankDeficientInput` raised when ``g`` is rank
    deficient.
    """
    x = np.asarray(x, dtype=float)
    if g is None:
        g = sys.g(x)
    gdot = np.column_stack([sys.jac_g(x, k) @ xdot for k in range(sys.m)])
    gram = g.T @ g
    try:
        np.linalg.cholesky(gram)  # PD gram == full column rank
    except np.linalg.LinAlgError as exc:
        raise RankDeficientInput("input matrix is rank deficient") from exc
    return -np.linalg.solve(gram, g.T @ gdot)


def _plant_port(sys: DynFeedbackSystem, x, u):
    """``(g, xdot, y)`` at (x, u): input matrix, plant rate, output ``g^T M xdot``."""
    g = sys.g(x)
    xdot = sys.f(x) + g @ u
    return g, xdot, g.T @ sys.M @ xdot


def dyn_feedback_rhs(sys: DynFeedbackSystem, x, u, vdot):
    """One step of the plant + feedback-state dynamics.

    Returns ``(xdot, udot, y)`` with ``udot = alpha u + beta + vdot``,
    ``beta = -g^T M xdot`` and output ``y = g^T M xdot``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    g, xdot, y = _plant_port(sys, x, u)
    udot = dyn_feedback_alpha(sys, x, xdot, g) @ u - y + np.asarray(vdot, dtype=float)
    return xdot, udot, y


def dyn_feedback_control(sys: DynFeedbackSystem, x, xdot, x_star,
                         k1: float, kd: float, ki: float) -> np.ndarray:
    """``vdot = (1/k1)(-kd y - ki (Gamma(x) - Gamma(x*)))``."""
    if k1 <= 0 or ki <= 0 or kd < 0:
        raise ValueError("need k1 > 0, ki > 0, kd >= 0")
    y = sys.g(np.asarray(x, dtype=float)).T @ sys.M @ np.asarray(xdot, dtype=float)
    return (-kd * y - ki * (sys.gamma_value(x) - sys.gamma_value(x_star))) / k1


def dyn_feedback_loop(sys: DynFeedbackSystem, x_star, k1: float, kd: float, ki: float):
    """(rhs, lyapunov) over augmented state (x, u) for the full control loop.

    The Lyapunov function is ``k1 xdot^T M xdot / 2 + ki |Gamma - Gamma*|^2 / 2``.
    """
    if k1 <= 0 or ki <= 0 or kd < 0:
        raise ValueError("need k1 > 0, ki > 0, kd >= 0")
    gamma_star = sys.gamma_value(x_star)
    if sys.loop_rhs is not None:
        rhs = sys.loop_rhs(gamma_star, k1, kd, ki)
    else:
        def rhs(t, z):
            x, u = z[: sys.n], z[sys.n:]
            g, xdot, y = _plant_port(sys, x, u)
            vdot = (-kd * y - ki * (sys.gamma_value(x) - gamma_star)) / k1
            udot = dyn_feedback_alpha(sys, x, xdot, g) @ u - y + vdot
            return np.concatenate([xdot, udot])

    def lyap(t, z):
        x, u = z[: sys.n], z[sys.n:]
        _, xdot, _ = _plant_port(sys, x, u)
        err = sys.gamma_value(x) - gamma_star
        return float(0.5 * k1 * xdot @ sys.M @ xdot + 0.5 * ki * err @ err)

    return rhs, lyap


def hvac_dyn_feedback(h: HvacParams) -> DynFeedbackSystem:
    """HVAC as a contracting system with metric diag(C), closed-form Gamma
    and closed loop."""
    heat = _hvac_rates(h)
    C1, C2, c_p, T_s = h.C1, h.C2, h.c_p, h.T_s
    jac = -hvac_bm(h).hess_P(h.cap) / h.cap[:, None]   # hess_P is constant

    def g(T):
        Gm = np.zeros((4, 2))
        Gm[0, 0] = c_p * (T_s - T[0]) / C1
        Gm[1, 1] = c_p * (T_s - T[1]) / C2
        return Gm

    dg = (-c_p / C1, -c_p / C2)   # d g[k, k] / d T_k

    def jac_g(T, k):
        J = np.zeros((4, 4))
        J[k, k] = dg[k]
        return J

    def zone_alpha(d, d_rate):
        # g is zero off its zone entries d_k, so alpha = diag(-d_k ddot_k / d_k^2).
        # Scaling by 1 / d_k^2 is the Gram solve's own arithmetic, so this agrees
        # with dyn_feedback_alpha to the last bit: both raise where d_k^2 is 0,
        # and both pass a NaN d_k on, so that a diverging run reports its divergence.
        if d * d == 0.0:
            raise RankDeficientInput("input matrix is rank deficient")
        return -(d * d_rate) * (1.0 / (d * d))

    def loop_rhs(gamma_star, k1, kd, ki):
        gs0, gs1 = gamma_star.tolist()

        def rates(T0, T1, T2, T3, u0, u1):
            f0, f1, f2, f3 = heat(T0, T1, T2, T3, 0.0, 0.0)
            d0, d1 = c_p * (T_s - T0) / C1, c_p * (T_s - T1) / C2   # g's zone entries
            # numpy's products sum each entry from +0.0, over g's zeros too
            xd0 = f0 + (0.0 + d0 * u0 + 0.0 * u1)
            xd1 = f1 + (0.0 + 0.0 * u0 + d1 * u1)
            zu = 0.0 + 0.0 * u0 + 0.0 * u1
            xd2, xd3 = f2 + zu, f3 + zu
            m0, m1 = 0.0 + d0 * C1, 0.0 + d1 * C2      # g^T M: zone entries,
            z0, z1 = 0.0 + d0 * 0.0, 0.0 + d1 * 0.0    # and the others
            y0 = 0.0 + m0 * xd0 + z0 * xd1 + z0 * xd2 + z0 * xd3
            y1 = 0.0 + z1 * xd0 + m1 * xd1 + z1 * xd2 + z1 * xd3
            v0 = (-kd * y0 - ki * (-0.5 * c_p * (T0 - T_s) ** 2 - gs0)) / k1
            v1 = (-kd * y1 - ki * (-0.5 * c_p * (T1 - T_s) ** 2 - gs1)) / k1
            a0, a1 = zone_alpha(d0, dg[0] * xd0), zone_alpha(d1, dg[1] * xd1)
            return (xd0, xd1, xd2, xd3, (0.0 + a0 * u0 + 0.0 * u1) - y0 + v0,
                    (0.0 + 0.0 * u0 + a1 * u1) - y1 + v1)

        return _packed(rates)

    return DynFeedbackSystem(
        n=4, m=2,
        f=lambda T: hvac_rhs(h, T, np.zeros(2)), jac_f=lambda T: jac,
        g=g, jac_g=jac_g,
        M=np.diag(h.cap),
        gamma=lambda T: hvac_gamma(h, T),
        loop_rhs=loop_rhs,
    )
