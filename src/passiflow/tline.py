"""Finite-difference lossy transmission line with boundary circuits.

The line occupies z in [0, 1] and obeys the telegrapher's equations
``-L i_t = v_z + R i`` and ``C v_t = -G v - i_z``.  A current source and an
R0-C0 shunt terminate z = 0; an R1-C1 load terminates z = 1.  Space is
discretized on a collocated grid with second-order central stencils inside
and one-sided second-order stencils at the ends; the end-node voltages are
eliminated algebraically through the boundary circuits, so the semidiscrete
system is a plain ODE.

Beyond simulation the module provides the closed-form equilibrium profile,
the nonzero equilibrium supply that blocks energy-based stabilization, a
feasible-parameter search for the shaped-pair stability certificate, the
boundary PI law, its shaped Lyapunov functional, and discrete checks of the
line's conservation laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ode import IntegratorConfig, Trajectory, integrate

__all__ = [
    "LineParams",
    "LineState",
    "AdmissibleLineParams",
    "unpack_state",
    "tline_rhs",
    "tline_equilibrium",
    "dissipation_obstacle_report",
    "admissible_params_search",
    "boundary_pi_control",
    "closed_loop_lyapunov",
    "tline_pi_loop",
    "simulate_open_loop",
    "line_energy",
    "conservation_check",
    "cfl_limit",
]


@dataclass(frozen=True)
class LineParams:
    """Per-unit-length line constants plus the two boundary circuits.

    ``L, C, C0, C1`` must be strictly positive; the resistive parameters
    may be zero so lossless conservation checks are expressible.  The
    equilibrium profile and the dissipation report additionally need
    ``R, G > 0``.
    """

    R: float = 1.0
    L: float = 1.0
    C: float = 1.0
    G: float = 1.0
    R0: float = 1.0
    C0: float = 1.0
    R1: float = 1.0
    C1: float = 1.0

    def __post_init__(self):
        if min(self.L, self.C, self.C0, self.C1) <= 0:
            raise ValueError("L, C, C0, C1 must be strictly positive")
        if min(self.R, self.G, self.R0, self.R1) < 0:
            raise ValueError("resistive parameters must be nonnegative")

    def certificate_compatible(self, tol: float = 1e-9) -> bool:
        """Boundary pairing conditions: R1 = sqrt(L/C) and C0 R0 = C1 R1."""
        return (
            abs(self.R1 - np.sqrt(self.L / self.C)) <= tol * (1 + self.R1)
            and abs(self.C0 * self.R0 - self.C1 * self.R1) <= tol * (1 + self.C0 * self.R0)
        )


@dataclass
class LineState:
    """Grid samples of current and voltage plus the boundary capacitors."""

    i: np.ndarray
    v: np.ndarray
    vC0: float
    vC1: float

    def __post_init__(self):
        self.i = np.asarray(self.i, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.i.shape != self.v.shape or self.i.ndim != 1 or self.i.size < 9:
            raise ValueError("need matching i, v profiles on M+1 >= 9 nodes")
        if not (np.all(np.isfinite(self.i)) and np.all(np.isfinite(self.v))
                and np.isfinite(self.vC0) and np.isfinite(self.vC1)):
            raise ValueError("state must be finite")

    @property
    def M(self) -> int:
        return self.i.size - 1

    def pack(self) -> np.ndarray:
        """Dynamic components only: the end-node voltages are algebraic."""
        return np.concatenate([self.i, self.v[1:-1], [self.vC0, self.vC1]])


def _unpack(p: LineParams, y: np.ndarray, M: int):
    i = y[: M + 1]
    v = np.empty(M + 1)
    v[1:-1] = y[M + 1: 2 * M]
    vC0 = y[2 * M]
    vC1 = y[2 * M + 1]
    v[0] = vC0 - i[0] * p.R0
    v[-1] = p.R1 * i[-1] + vC1
    return i, v, vC0, vC1


def unpack_state(p: LineParams, y: np.ndarray, M: int) -> LineState:
    i, v, vC0, vC1 = _unpack(p, y, M)
    return LineState(i, v, float(vC0), float(vC1))


def _dz(values: np.ndarray, dz: float) -> np.ndarray:
    """Second-order spatial derivative stencils (central + one-sided ends)."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * dz)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dz)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dz)
    return out


def cfl_limit(p: LineParams, M: int) -> float:
    """Largest admissible RK4 step: 0.9 dz sqrt(LC)."""
    return 0.9 * (1.0 / M) * np.sqrt(p.L * p.C)


def tline_rhs(p: LineParams, y: np.ndarray, I0: float, M: int) -> np.ndarray:
    """Semidiscrete right-hand side over the packed state vector."""
    dz = 1.0 / M
    i, v, vC0, vC1 = _unpack(p, y, M)
    v_z = _dz(v, dz)
    i_z = _dz(i, dz)
    di = -(v_z + p.R * i) / p.L
    dv_int = -(p.G * v[1:-1] + i_z[1:-1]) / p.C
    dvC0 = (I0 - i[0]) / p.C0
    dvC1 = i[-1] / p.C1
    return np.concatenate([di, dv_int, [dvC0, dvC1]])


def tline_equilibrium(p: LineParams, vC1_star: float, M: int):
    """Steady profile for a held load voltage, and the source current feeding it.

    i*(z) = (G/w) vC1* sinh(w (1-z)),  v*(z) = vC1* cosh(w (1-z)),  w = sqrt(RG);
    the current entering at z = 0 equals the source current, and the source
    capacitor sits at ``v*(0) + i*(0) R0``.
    """
    if p.R <= 0 or p.G <= 0:
        raise ValueError("equilibrium profile requires R > 0 and G > 0")
    z = np.linspace(0.0, 1.0, M + 1)
    w = np.sqrt(p.R * p.G)
    i_star = (p.G / w) * vC1_star * np.sinh(w * (1.0 - z))
    v_star = vC1_star * np.cosh(w * (1.0 - z))
    I0_star = float(i_star[0])
    vC0_star = float(v_star[0] + i_star[0] * p.R0)
    return LineState(i_star, v_star, vC0_star, float(vC1_star)), I0_star


def dissipation_obstacle_report(p: LineParams, vC1_star: float, M: int = 200) -> dict:
    """Equilibrium supply through the energy-based port pair.

    The product ``I0* vC0*`` is strictly positive for any nonzero operating
    point, and balances the total resistive dissipation (line quadrature
    plus boundary resistors) -- the reason this port pair cannot stabilize
    a nonzero equilibrium with a passive controller.
    """
    eq, I0_star = tline_equilibrium(p, vC1_star, M)
    supply = I0_star * eq.vC0
    z = np.linspace(0.0, 1.0, M + 1)
    line_loss = np.trapezoid(p.R * eq.i ** 2 + p.G * eq.v ** 2, z)
    boundary_loss = p.R0 * eq.i[0] ** 2 + p.R1 * eq.i[-1] ** 2
    quad = float(line_loss + boundary_loss)
    rel_gap = abs(supply - quad) / max(abs(quad), 1e-300) if vC1_star else 0.0
    return {"supply": float(supply), "dissipation_quadrature": quad, "rel_gap": rel_gap}


@dataclass(frozen=True)
class AdmissibleLineParams:
    """Feasible certificate parameters for the shaped line pair.

    ``tau = RC/(LG)`` is fixed by the line; ``zeta`` and ``lambda_prime``
    are the chosen feasible point of the two defining inequalities; the
    remaining fields are scaled so the plain (unnormalized) multiplier is
    exactly 1, which is the normalization the boundary / Lyapunov
    construction uses: ``beta = 1/lambda_prime``, ``alpha = tau beta``,
    ``theta = beta C / G``, ``m2 = zeta theta / sqrt(LC)``.
    """

    tau: float
    zeta: float
    lambda_prime: float
    alpha: float
    beta: float
    m2: float
    theta: float

    def feasibility_residuals(self) -> dict:
        """The three defining inequalities; all must be <= 0."""
        t, z2, lp = self.tau, self.zeta ** 2, self.lambda_prime
        return {
            "lower": -lp,
            "upper": lp - t * (1.0 - z2),
            "quadratic": (lp - t) * (lp + 1.0) + 0.25 * (t + 1.0) ** 2 * z2,
            "zeta_bound": z2 - 4.0 * t / (1.0 + t) ** 2,
        }

    def is_feasible(self, tol: float = 1e-12) -> bool:
        return all(r <= tol for r in self.feasibility_residuals().values())


def _bisect_root(fun, lo, hi, tol=1e-14):
    f_lo = fun(lo)
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def admissible_params_search(p: LineParams) -> AdmissibleLineParams:
    """Pick a strictly feasible certificate point for this line.

    ``zeta^2`` is set to half its admissible bound ``4 tau / (1+tau)^2``;
    the multiplier ratio is then the midpoint of the interval cut out by
    the linear bound and the quadratic inequality, whose positive root is
    localized by bisection.  Feasibility holds for every positive ``tau``,
    so failure here indicates a programming error, not a bad input.
    """
    if min(p.R, p.G) <= 0:
        raise ValueError("certificate search requires R > 0 and G > 0")
    tau = (p.R * p.C) / (p.L * p.G)
    zeta2 = 2.0 * tau / (1.0 + tau) ** 2
    zeta = np.sqrt(zeta2)

    def quad(lp):
        return (lp - tau) * (lp + 1.0) + 0.25 * (tau + 1.0) ** 2 * zeta2

    if quad(0.0) >= 0:
        raise RuntimeError("internal error: quadratic not negative at 0")
    hi = max(tau, 1.0)
    while quad(hi) <= 0:
        hi *= 2.0
    root_pos = _bisect_root(quad, 0.0, hi)
    upper = min(root_pos, tau * (1.0 - zeta2))
    lam_prime = 0.5 * upper
    beta = 1.0 / lam_prime
    alpha = tau * beta
    theta = beta * p.C / p.G
    m2 = zeta * theta / np.sqrt(p.L * p.C)
    rec = AdmissibleLineParams(tau, float(zeta), float(lam_prime),
                               float(alpha), float(beta), float(m2), float(theta))
    if not rec.is_feasible(1e-12):
        raise RuntimeError("internal error: search produced infeasible record")
    return rec


def boundary_pi_control(p: LineParams, vC0: float, targets, K_P: float,
                        K_I: float, vC0_dot: float) -> float:
    """Source current ``I0 = i0* - K_P vC0dot - K_I (vC0 - vC0*)``."""
    if K_P < 0 or K_I < 0:
        raise ValueError("gains must be >= 0")
    i0_star, vC0_star = targets
    return i0_star - K_P * vC0_dot - K_I * (vC0 - vC0_star)


def closed_loop_lyapunov(p: LineParams, state: LineState, targets,
                         adm: AdmissibleLineParams, K_I: float) -> float:
    """Shaped closed-loop functional of the PI-controlled line.

    It vanishes at the continuous target profile.  At the sampled
    equilibrium of ``tline_equilibrium`` it is the square of the stencil's
    O(dz^2) residual in ``R i* + v_z``, so O(dz^4): 6.0e-8 ... 1.3e-11 at
    M = 25 ... 200 (``LineParams()``, vC1* = 1, K_I = 1).

    Trapezoidal quadrature of
    ``(alpha (1 - zeta^2) - 1)/(2R) (R i + v_z)^2 + Delta^2
    + (v_z + R i*)^2 / (2R) + (G v + i*_z)^2 / (2G)``
    plus the boundary terms ``R0 (i0 - i0*)^2 / 2 + R1 i1^2 / 2
    + K_I (vC0 - vC0*)^2 / 2``, with
    ``Delta = zeta sqrt(C/2)(R i + v_z) - sqrt(L/2)(G v + i_z)``.
    """
    M = state.M
    dz = 1.0 / M
    z = np.linspace(0.0, 1.0, M + 1)
    w = np.sqrt(p.R * p.G)
    i0_star, vC0_star, vC1_star = targets
    i_star = (p.G / w) * vC1_star * np.sinh(w * (1.0 - z))
    i_star_z = -p.G * vC1_star * np.cosh(w * (1.0 - z))
    v_z = _dz(state.v, dz)
    i_z = _dz(state.i, dz)
    ri_vz = p.R * state.i + v_z
    gv_iz = p.G * state.v + i_z
    delta = adm.zeta * np.sqrt(p.C / 2.0) * ri_vz - np.sqrt(p.L / 2.0) * gv_iz
    coeff = (adm.alpha * (1.0 - adm.zeta ** 2) - 1.0) / (2.0 * p.R)
    integrand = (
        coeff * ri_vz ** 2
        + delta ** 2
        + (v_z + p.R * i_star) ** 2 / (2.0 * p.R)
        + (p.G * state.v + i_star_z) ** 2 / (2.0 * p.G)
    )
    value = np.trapezoid(integrand, z)
    value += 0.5 * p.R0 * (state.i[0] - i0_star) ** 2
    value += 0.5 * p.R1 * state.i[-1] ** 2
    value += 0.5 * K_I * (state.vC0 - vC0_star) ** 2
    return float(value)


def tline_pi_loop(p: LineParams, M: int, vC1_star: float, K_P: float, K_I: float):
    """(rhs, lyapunov, equilibrium, I0_star) for the PI-controlled line.

    The PI law references ``vC0dot``, which itself depends on the applied
    current, so the pair is resolved exactly:
    ``I0 (1 + K_P/C0) = i0* - K_I (vC0 - vC0*) + (K_P/C0) i0``.
    """
    eq, I0_star = tline_equilibrium(p, vC1_star, M)
    adm = admissible_params_search(p)
    targets3 = (eq.i[0], eq.vC0, vC1_star)

    def applied_current(y):
        i0 = y[0]
        vC0 = y[2 * M]
        num = I0_star - K_I * (vC0 - eq.vC0) + (K_P / p.C0) * i0
        return num / (1.0 + K_P / p.C0)

    def rhs(t, y):
        return tline_rhs(p, y, applied_current(y), M)

    def lyap(t, y):
        return closed_loop_lyapunov(p, unpack_state(p, y, M), targets3, adm, K_I)

    return rhs, lyap, eq, I0_star


def simulate_open_loop(p: LineParams, state0: LineState, I0: float,
                       cfg: IntegratorConfig) -> Trajectory:
    """Integrate the line under a constant source current."""
    M = state0.M
    limit = float(cfl_limit(p, M))
    if cfg.step > limit:
        raise ValueError(
            f"step {float(cfg.step)!r} violates the stability guard {limit!r} at M={M}"
        )
    return integrate(lambda t, y: tline_rhs(p, y, I0, M), state0.pack(), cfg)


def line_energy(p: LineParams, state: LineState) -> float:
    """Stored energy: field quadrature plus the boundary capacitors."""
    z = np.linspace(0.0, 1.0, state.M + 1)
    field = 0.5 * np.trapezoid(p.L * state.i ** 2 + p.C * state.v ** 2, z)
    return float(field + 0.5 * p.C0 * state.vC0 ** 2 + 0.5 * p.C1 * state.vC1 ** 2)


def conservation_check(p: LineParams, traj: Trajectory, M: int) -> dict:
    """Discrete residuals of the line's conserved functionals.

    Lossless (R = G = 0): total current and total voltage change only
    through the boundary fluxes ``v/L`` and ``i/C``, reported as
    ``residual_current`` and ``residual_voltage``.  Lossy (R, G > 0): the
    weighted functional with current weight ``(sqrt(G)/C) cosh(w z)`` and
    voltage weight ``(sqrt(R)/L) sinh(w z)`` changes only through its
    boundary flux, reported as ``residual_functional``.  A line with one of
    R, G zero has neither law and an empty report.  Time derivatives are
    centered differences across samples, so residuals shrink at second
    order in both mesh width and step.
    """
    z = np.linspace(0.0, 1.0, M + 1)
    if p.R == 0 and p.G == 0:
        one, zero = np.ones(M + 1), np.zeros(M + 1)
        weights = {"residual_current": (one, zero), "residual_voltage": (zero, one)}
    elif p.R > 0 and p.G > 0:
        w = np.sqrt(p.R * p.G)
        weights = {"residual_functional": ((np.sqrt(p.G) / p.C) * np.cosh(w * z),
                                           (np.sqrt(p.R) / p.L) * np.sinh(w * z))}
    else:
        return {}
    ts = traj.times
    states = [unpack_state(p, y, M) for y in traj.states]
    report = {}
    for name, (wi, wv) in weights.items():
        # functional int(wi i + wv v) dz and its boundary flux, per sample
        series = np.array([np.trapezoid(wi * s.i + wv * s.v, z) for s in states])
        flux = np.array([(wi[0] * s.v[0] - wi[-1] * s.v[-1]) / p.L
                         + (wv[0] * s.i[0] - wv[-1] * s.i[-1]) / p.C for s in states])
        deriv = (series[2:] - series[:-2]) / (ts[2:] - ts[:-2])
        report[name] = float(np.max(np.abs(deriv - flux[1:-1])))
    return report
