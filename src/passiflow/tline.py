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

A packed state holds the current on the M+1 nodes, the voltage on the M-1
interior nodes and the two capacitor voltages, 2M+2 numbers.  The
unpacking, the stencil, the closed-loop functional and the stored energy
work over the last axis: one formula serves one packed state ``(2M+2,)``
and a C-contiguous block ``(B, 2M+2)`` of samples, and gives each row of a
block bit for bit the value of that state alone.  The right-hand side takes
one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ode import RK4_DISC_BOUND, RK4_REAL_BOUND, IntegratorConfig, Trajectory, integrate, rk4_limit

__all__ = [
    "LineParams",
    "LineState",
    "AdmissibleLineParams",
    "unpack",
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
    "step_guard",
    "set_by",
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


def unpack(p: LineParams, y: np.ndarray, M: int):
    """``(i, v, vC0, vC1)`` of packed states over the last axis.

    One state ``(2M+2,)`` gives the profiles ``(M+1,)`` and the capacitor
    voltages as scalars; a block ``(B, 2M+2)`` of samples gives ``(B, M+1)``
    profiles and ``(B,)`` capacitor voltages, row for row the same numbers.
    The end-node voltages come from the boundary circuits.  Per-node
    columns are read through the transpose, which keeps one state's
    scalars plain numpy scalars rather than 0-d arrays.
    """
    yt = y.T
    i = y[..., : M + 1]
    v = np.empty(i.shape)
    vt = v.T
    vt[1:-1] = yt[M + 1: 2 * M]
    vC0 = yt[2 * M]
    vC1 = yt[2 * M + 1]
    vt[0] = vC0 - yt[0] * p.R0
    vt[-1] = p.R1 * yt[M] + vC1
    return i, v, vC0, vC1


def unpack_state(p: LineParams, y: np.ndarray, M: int) -> LineState:
    """One packed state as a validated :class:`LineState`."""
    i, v, vC0, vC1 = unpack(p, y, M)
    return LineState(i, v, float(vC0), float(vC1))


def _dz(values: np.ndarray, dz: float) -> np.ndarray:
    """Second-order derivative stencils over the last axis (central + one-sided ends)."""
    out = np.empty_like(values)
    v, o = values.T, out.T
    o[1:-1] = (v[2:] - v[:-2]) / (2 * dz)
    o[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dz)
    o[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dz)
    return out


def cfl_limit(p: LineParams, M: int) -> float:
    """The RK4 step limit of the line under a constant source current,
    :func:`step_guard` on the open line: the least of five terms, each
    :data:`~passiflow.ode.RK4_REAL_BOUND` over the largest modulus of real
    rates, or :data:`~passiflow.ode.RK4_DISC_BOUND` over that of a complex
    pair:

    - the interior wave bound ``0.9 dz sqrt(LC)``;
    - the end rows, whose real rate ``-(1.5 R0 M + R) / L`` comes from
      eliminating the end-node voltage (the last row's the same with ``R1``);
    - the source block, ``(i0, vC0)`` with the rates
      ``[[-(1.5 M R0 + R)/L, 1.5 M/L], [-1/(C0 + K_P), -K_I/(C0 + K_P)]]``;
    - the load block, ``(iM, vC1)`` with ``[[-(1.5 M R1 + R)/L, -1.5 M/L],
      [1/C1, 0]]``;
    - the interior voltage rows' own rate ``-G/C``, besides the wave.  The
      current rows' own rate ``-R/L`` needs no term: the end term's rate
      exceeds it, and is it when ``R0 = R1 = 0``.

    The blocks leave out the end currents' coupling to the interior, so where
    one is least the line's dense spectrum caps it: one rule for this, for
    :func:`simulate_open_loop` and for the boundary-PI loop's config reader.
    At the default :class:`LineParams` the wave bound binds at every grid;
    the end term once ``max(R0, R1)`` exceeds about ``2.06 sqrt(L/C)``, and a
    block's for a small boundary capacitor or a large ``K_I`` against ``C0 +
    K_P``.  The limit is not the largest stable step: over random lines at
    grids 8-50 it lies below the dense spectrum's by a median 2.2 times (up to
    3.2) where the wave bound binds, and up to 2 where an end row does.  Nor
    is the spectrum taken where those bind (60 ms at grid 200): 1 of 1,308 and
    1 of 1,029 such lines read max |R(h lambda)| 1.106 and 1.010."""
    return step_guard(p, M, rhs=lambda t, y: tline_rhs(p, y, 0.0, M))[0]


def _block_limit(trace: float, det: float) -> float:
    """The RK4 step limit of a 2x2 block of rates with ``trace <= 0`` and
    ``det > 0``, whose eigenvalues lie in the closed left half-plane."""
    disc = trace * trace - 4.0 * det
    if disc >= 0:
        return RK4_REAL_BOUND / (0.5 * (disc ** 0.5 - trace))
    return RK4_DISC_BOUND / det ** 0.5


def step_guard(p: LineParams, M: int, K_P: float = 0.0, K_I: float = 0.0, rhs=None):
    """``(limit, row)``: :func:`cfl_limit` under the PI gains ``K_P, K_I``,
    and the parameter of the rows whose term sets it (``"R0"`` or ``"R1"``
    for an end row, ``"R"`` for the current rows when both end resistors are
    0, ``"C0"`` or ``"C1"`` for a capacitor block, ``"G"`` for the interior
    voltage rows), else None.  Where a block's term is least, the spectrum of
    ``rhs(t, y)``, the line's affine right-hand side, caps it."""
    wave = 0.9 * (1.0 / M) * np.sqrt(p.L * p.C)
    stiff = 1.5 * max(p.R0, p.R1) * M + p.R     # L times the stiffer end row's rate
    end = RK4_REAL_BOUND * p.L / stiff if stiff else np.inf
    # each end current's own rate, and its rate per volt on its capacitor;
    # the PI law's K_P adds to the source capacitor
    rate0, rate1 = (1.5 * M * p.R0 + p.R) / p.L, (1.5 * M * p.R1 + p.R) / p.L
    couple, C0 = 1.5 * M / p.L, p.C0 + K_P
    end_row = "R" if max(p.R0, p.R1) == 0 else "R0" if p.R0 >= p.R1 else "R1"
    limit, row = min([(wave, None), (end, end_row),
                      (_block_limit(-rate0 - K_I / C0, (rate0 * K_I + couple) / C0), "C0"),
                      (_block_limit(-rate1, couple / p.C1), "C1"),
                      (RK4_REAL_BOUND * p.C / p.G if p.G else np.inf, "G")],
                     key=lambda term: term[0])
    if row in ("C0", "C1") and rhs is not None:
        with np.errstate(all="ignore"):     # affine: the linear part is exact column by column
            at_rest = rhs(0.0, np.zeros(2 * M + 2))
            J = np.column_stack([rhs(0.0, e) - at_rest for e in np.eye(2 * M + 2)])
            limit = min(limit, rk4_limit(np.linalg.eigvals(J)) if np.isfinite(J).all() else 0.0)
    return limit, row


def set_by(row, prefix: str = "") -> str:
    """How a guard message names the rows of :func:`step_guard`."""
    rows = {"G": "interior voltage rows' own rate", "R": "current rows' own rate",
            "C0": "capacitor row", "C1": "capacitor row"}.get(row, "end row")
    return f", set by the {rows} of {prefix}{row}" if row else ""


def tline_rhs(p: LineParams, y: np.ndarray, I0: float, M: int) -> np.ndarray:
    """Semidiscrete right-hand side over the packed state vector.

    ``-(v_z + R i) / L`` and ``-(G v + i_z) / C``, with ``v_z`` and ``i_z``
    the stencils of :func:`_dz` over the profiles of :func:`unpack`.  The
    rate is written straight into its packed output: the voltage block
    first holds the interior ``v_z``, then ``i_z``.  Each entry goes through
    the same IEEE operations in the same order as that form; dividing by
    ``-L`` in place of negating first is exact.
    """
    two_dz = 2 * (1.0 / M)
    i0, iM = float(y[0]), float(y[M])
    vC0, vC1 = float(y[2 * M]), float(y[2 * M + 1])
    v0 = vC0 - i0 * p.R0
    vM = p.R1 * iM + vC1
    v = y[M + 1: 2 * M]                      # the interior voltages v1 .. v(M-1)
    v1, v2, vM2, vM1 = float(v[0]), float(v[1]), float(v[-2]), float(v[-1])
    dy = np.empty(2 * M + 2)
    di, dv = dy[: M + 1], dy[M + 1: 2 * M]
    np.subtract(v[2:], v[:-2], out=dv[1:-1])
    dv[0] = v2 - v0
    dv[-1] = vM - vM2
    np.divide(dv, two_dz, out=dv)
    np.multiply(y[1:M], p.R, out=di[1:-1])
    np.add(dv, di[1:-1], out=di[1:-1])
    di[0] = (-3 * v0 + 4 * v1 - v2) / two_dz + p.R * i0
    di[-1] = (3 * vM - 4 * vM1 + vM2) / two_dz + p.R * iM
    np.divide(di, -p.L, out=di)
    # the interior voltages alone are dynamic, so only their i_z is needed
    np.subtract(y[2: M + 1], y[: M - 1], out=dv)
    np.divide(dv, two_dz, out=dv)
    np.add(p.G * v, dv, out=dv)
    np.divide(dv, -p.C, out=dv)
    dy[2 * M] = (I0 - i0) / p.C0
    dy[2 * M + 1] = iM / p.C1
    return dy


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
    are the chosen feasible point of the four defining inequalities; the
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
        """The four defining inequalities by name; all must be <= 0."""
        t, z2, lp = self.tau, self.zeta ** 2, self.lambda_prime
        return {
            "lower": -lp,
            "upper": lp - t * (1.0 - z2),
            "quadratic": (lp - t) * (lp + 1.0) + 0.25 * (t + 1.0) ** 2 * z2,
            "zeta_bound": z2 - 4.0 * t / (1.0 + t) ** 2,
        }

    def is_feasible(self) -> bool:
        """Every residual at most 1e-12."""
        return all(r <= 1e-12 for r in self.feasibility_residuals().values())


def admissible_params_search(p: LineParams) -> AdmissibleLineParams:
    """Pick a strictly feasible certificate point for this line.

    ``zeta^2`` is set to half its admissible bound ``4 tau / (1+tau)^2``,
    which turns the quadratic inequality into ``lp^2 + (1 - tau) lp - tau/2
    <= 0``.  The multiplier ratio is then the midpoint of the interval cut
    out by the linear bound and that quadratic's positive root
    ``tau / ((1 - tau) + hypot(1, tau))``.  The root binds only below
    ``tau`` = 0.393, where that form has no cancellation.  It rounds to 0
    only where ``tau`` underflows, which raises; any other failure here
    indicates a programming error, not a bad input.
    """
    if min(p.R, p.G) <= 0:
        raise ValueError("certificate search requires R > 0 and G > 0")
    tau = (p.R * p.C) / (p.L * p.G)
    zeta2 = 2.0 * tau / (1.0 + tau) ** 2
    zeta = np.sqrt(zeta2)
    root_pos = tau / ((1.0 - tau) + np.hypot(1.0, tau))
    upper = min(root_pos, tau * (1.0 - zeta2))
    lam_prime = 0.5 * upper
    if not lam_prime > 0:
        raise RuntimeError(f"no positive multiplier ratio at tau = {tau!r}")
    beta = 1.0 / lam_prime
    alpha = tau * beta
    theta = beta * p.C / p.G
    m2 = zeta * theta / np.sqrt(p.L * p.C)
    rec = AdmissibleLineParams(tau, float(zeta), float(lam_prime),
                               float(alpha), float(beta), float(m2), float(theta))
    if not rec.is_feasible():
        raise RuntimeError("internal error: search produced infeasible record")
    return rec


def boundary_pi_control(p: LineParams, vC0: float, targets, K_P: float,
                        K_I: float, vC0_dot: float) -> float:
    """Source current ``I0 = i0* - K_P vC0dot - K_I (vC0 - vC0*)``."""
    if K_P < 0 or K_I < 0:
        raise ValueError("gains must be >= 0")
    i0_star, vC0_star = targets
    return i0_star - K_P * vC0_dot - K_I * (vC0 - vC0_star)


def closed_loop_lyapunov(p: LineParams, y: np.ndarray, targets,
                         adm: AdmissibleLineParams, K_I: float):
    """Shaped closed-loop functional of the PI-controlled line.

    ``y`` is one packed state ``(2M+2,)`` or a C-contiguous block
    ``(B, 2M+2)`` of packed samples; the value is a ``float`` for one state
    and a ``(B,)`` array for a block, equal row for row to the values of the
    single states.

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
    The boundary terms are squared by libm ``pow`` (``np.float_power``),
    as ``** 2`` squares a scalar; an array's ``** 2`` multiplies exactly
    and differs in the last bit on about 1 draw in 1,000.
    """
    M = y.shape[-1] // 2 - 1
    i, v, vC0, _ = unpack(p, y, M)
    dz = 1.0 / M
    i0_star, vC0_star, vC1_star = targets
    z = np.linspace(0.0, 1.0, M + 1)
    w = np.sqrt(p.R * p.G)
    i_star = (p.G / w) * vC1_star * np.sinh(w * (1.0 - z))
    i_star_z = -p.G * vC1_star * np.cosh(w * (1.0 - z))
    v_z = _dz(v, dz)
    i_z = _dz(i, dz)
    ri_vz = p.R * i + v_z
    gv = p.G * v
    gv_iz = gv + i_z
    delta = adm.zeta * np.sqrt(p.C / 2.0) * ri_vz - np.sqrt(p.L / 2.0) * gv_iz
    integrand = (adm.alpha * (1.0 - adm.zeta ** 2) - 1.0) / (2.0 * p.R) * ri_vz ** 2
    integrand += delta ** 2
    integrand += (v_z + p.R * i_star) ** 2 / (2.0 * p.R)
    integrand += (gv + i_star_z) ** 2 / (2.0 * p.G)
    value = np.trapezoid(integrand, z)
    it = i.T
    value += 0.5 * p.R0 * np.float_power(it[0] - i0_star, 2)
    value += 0.5 * p.R1 * np.float_power(it[-1], 2)
    value += 0.5 * K_I * np.float_power(vC0 - vC0_star, 2)
    return value if np.ndim(value) else float(value)


def tline_pi_loop(p: LineParams, M: int, vC1_star: float, K_P: float, K_I: float):
    """(rhs, lyapunov, equilibrium, I0_star) for the PI-controlled line.

    ``lyapunov(t, y)`` evaluates :func:`closed_loop_lyapunov` on one packed
    state or on a block ``(B, 2M+2)`` of them; ``t`` is not used.

    The PI law references ``vC0dot``, which itself depends on the applied
    current, so the pair is resolved exactly:
    ``I0 (1 + K_P/C0) = i0* - K_I (vC0 - vC0*) + (K_P/C0) i0``.
    """
    if K_P < 0 or K_I < 0:
        raise ValueError("gains must be >= 0")
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
        return closed_loop_lyapunov(p, y, targets3, adm, K_I)

    return rhs, lyap, eq, I0_star


def simulate_open_loop(p: LineParams, state0: LineState, I0: float,
                       cfg: IntegratorConfig) -> Trajectory:
    """Integrate the line under a constant source current; a step past
    :func:`cfl_limit` raises ``ValueError`` naming the rows that set it."""
    M = state0.M

    def rhs(t, y):
        return tline_rhs(p, y, I0, M)

    limit, row = step_guard(p, M, rhs=rhs)
    if cfg.step > limit:
        raise ValueError(f"step {float(cfg.step)!r} violates the stability guard "
                         f"{float(limit)!r} at M={M}{set_by(row)}")
    return integrate(rhs, state0.pack(), cfg)


def line_energy(p: LineParams, y: np.ndarray):
    """Stored energy: field quadrature plus the boundary capacitors.

    ``y`` is one packed state or a C-contiguous block ``(B, 2M+2)``; a
    ``float`` for one state, a ``(B,)`` array for a block.  The capacitor
    voltages are squared by libm ``pow``, as in :func:`closed_loop_lyapunov`.
    """
    i, v, vC0, vC1 = unpack(p, y, y.shape[-1] // 2 - 1)
    z = np.linspace(0.0, 1.0, i.shape[-1])
    field = 0.5 * np.trapezoid(p.L * i ** 2 + p.C * v ** 2, z)
    value = field + 0.5 * p.C0 * np.float_power(vC0, 2) + 0.5 * p.C1 * np.float_power(vC1, 2)
    return value if np.ndim(value) else float(value)


def conservation_check(p: LineParams, traj: Trajectory, M: int) -> dict:
    """Discrete residuals of the line's conserved functionals.

    Lossless (R = G = 0): total current and total voltage change only
    through the boundary fluxes ``v/L`` and ``i/C``, reported as
    ``residual_current`` and ``residual_voltage``.  Lossy (R, G > 0): the
    weighted functional with current weight ``(sqrt(G)/C) cosh(w z)`` and
    voltage weight ``(sqrt(R)/L) sinh(w z)`` changes only through its
    boundary flux, reported as ``residual_functional``.  A line with one of
    R, G zero has neither law and an empty report.  Time derivatives are
    centered differences across samples.  Residuals shrink at second order
    in mesh width and step only for smooth data, such as the lossy line
    started at its equilibrium.  A source step on a line at rest leaves a
    front in the data, and the residuals are then first order at best:
    ``residual_current`` reads 5.19e-3, 2.68e-3, 1.36e-3, 1.21e-3, 5.34e-4
    at M = 16 ... 256 (lossless, unit step, step ``cfl_limit``, horizon 0.5).
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
    i, v, _, _ = unpack(p, traj.states, M)
    it, vt = i.T, v.T
    report = {}
    for name, (wi, wv) in weights.items():
        # functional int(wi i + wv v) dz and its boundary flux, per sample
        series = np.trapezoid(wi * i + wv * v, z)
        flux = ((wi[0] * vt[0] - wi[-1] * vt[-1]) / p.L
                + (wv[0] * it[0] - wv[-1] * it[-1]) / p.C)
        deriv = (series[2:] - series[:-2]) / (ts[2:] - ts[:-2])
        report[name] = float(np.max(np.abs(deriv - flux[1:-1])))
    return report
