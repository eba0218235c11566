"""Independent references used to freeze expected values in tests.

Except for the storage and switch references at the end, nothing here
touches the gradient-flow code paths: the primal-dual flow is written out
per part from the problem (:func:`reference_flow`), gradients are checked
by central differences, QPs are solved by brute enumeration of active sets
over the KKT linear systems, the toy SVM by its closed form, and the SVM
training flow is written out a second time from the problem data to
cross-check the generic primal-dual flow.  The clamp set, a boolean mask in
``passiflow.primal_dual.solve``, is :func:`active_set` here, an index set;
the storage and the switch classification of ``solve`` are written out per
sample and per event batch from it.  The transmission line's stencil and
closed-loop functional are written out for one state, as the references of
their block evaluation, and its right-hand side over whole profiles, as the
reference of the one-buffer rate.  The CLI's CSV writer is kept in text
mode, as the reference of the binary one.  The four plant loops the CLI runs
are written out at the very end as they were before their scalar closed
forms: numpy arrays for ``g``, ``M``, ``Gamma`` and ``alpha``, and numpy's
products.
"""

import itertools

import numpy as np

from passiflow.plants import RankDeficientInput, hvac_gamma, hvac_shaping_offsets
from passiflow.primal_dual import (
    FlowState,
    SwitchEvent,
    switched_storage,
)
from passiflow.tline import LineState


def finite_diff_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient ``(f(x+h e_k) - f(x-h e_k)) / 2h``.

    The independent check against every analytic gradient in the library;
    accuracy is O(h^2) for smooth ``f``.
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


def check_consistency(sys, x) -> dict:
    """Oracle shapes, gradient accuracy against :func:`finite_diff_gradient`
    and Hessian symmetry of a ``PseudoGradientSystem`` ``sys`` at ``x``."""
    x = np.asarray(x, dtype=float)
    if sys.Q(x).shape != (sys.n, sys.n) or sys.G(x).shape != (sys.n, sys.m):
        raise ValueError("oracle dimensions inconsistent")
    fd = finite_diff_gradient(sys.P, x, 1e-6)
    H = sys.hess_P(x)
    return {"grad_ok": np.max(np.abs(sys.grad_P(x) - fd)) <= 1e-5 * (1.0 + np.max(np.abs(fd))),
            "hess_ok": np.max(np.abs(H - H.T)) <= 1e-10}


def lagrangian(prob, s) -> float:
    """f(x) + lam^T (Ax - b) + mu^T g(x)."""
    val = prob.f.value(s.x)
    if prob.m:
        val += s.lam @ (prob.A @ s.x - prob.b)
    if prob.p:
        val += s.mu @ prob.g_values(s.x)
    return float(val)


def positive_projection(gval: float, mu: float) -> float:
    """``g`` when ``mu > 0``; ``max(0, g)`` when ``mu = 0``.  Rejects ``mu < 0``."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu > 0:
        return float(gval)
    return float(max(0.0, gval))


def active_set(s, gvals, tol: float = 1e-10) -> frozenset:
    """Indices where the projection clamps: ``mu_i = 0`` and ``g_i <= 0``.

    Ties ``mu_i = 0 = g_i`` are excluded; the multiplier rate vanishes on
    both branches there, and leaving the index out keeps the switched
    storage continuous.
    """
    g = np.asarray(gvals, dtype=float)
    if s.mu.size and s.mu.min() < -tol:
        raise ValueError("mu must be nonnegative")
    return frozenset(np.nonzero((s.mu <= tol) & (g < -tol))[0].tolist())


def enumerate_qp_kkt(Q0, c, A=None, b=None, G=None, h=None, tol=1e-9):
    """Solve min 0.5 x'Q0x + c'x s.t. Ax=b, Gx<=h by active-set enumeration.

    Tries every subset of inequality constraints as the active set, solves
    the equality-constrained KKT system, and returns the unique primal-dual
    point that is primal and dual feasible.  Returns (x, lam, mu) or None
    when no subset qualifies (infeasible/unbounded inputs).
    """
    Q0 = np.atleast_2d(np.asarray(Q0, dtype=float))
    n = Q0.shape[0]
    c = np.asarray(c, dtype=float)
    A = np.zeros((0, n)) if A is None else np.atleast_2d(np.asarray(A, dtype=float))
    b = np.zeros(A.shape[0]) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    G = np.zeros((0, n)) if G is None else np.atleast_2d(np.asarray(G, dtype=float))
    h = np.zeros(G.shape[0]) if h is None else np.atleast_1d(np.asarray(h, dtype=float))
    m, p = A.shape[0], G.shape[0]

    for size in range(p + 1):
        for active in itertools.combinations(range(p), size):
            Ga = G[list(active)]
            k = m + size
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = Q0
            KKT[:n, n:n + m] = A.T
            KKT[:n, n + m:] = Ga.T
            KKT[n:n + m, :n] = A
            KKT[n + m:, :n] = Ga
            rhs = np.concatenate([-c, b, h[list(active)]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = sol[n:n + m]
            mu_active = sol[n + m:]
            if np.any(mu_active < -tol):
                continue
            if p and np.any(G @ x - h > tol):
                continue
            mu = np.zeros(p)
            mu[list(active)] = np.maximum(mu_active, 0.0)
            return x, lam, mu
    return None


def make_random_qp(rng, n_max=5, m_max=2, p_max=4):
    """A well-posed random QP together with its enumerated KKT point.

    Rejection-samples until the enumeration oracle succeeds with moderate
    multipliers and a cleanly separated active set, so the flow endpoints
    are compared against unambiguous references.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(0, min(m_max, max(n - 1, 0)) + 1))
        p = int(rng.integers(0, p_max + 1))
        W = rng.normal(size=(n, n))
        Q0 = W.T @ W / n + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        x_feas = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = A @ x_feas
        G = rng.normal(size=(p, n))
        norms = np.linalg.norm(G, axis=1) if p else np.zeros(0)
        if p:
            G /= norms[:, None]
        h = (G @ x_feas + rng.uniform(-0.2, 1.0, size=p)) if p else np.zeros(0)
        out = enumerate_qp_kkt(Q0, c, A, b, G, h)
        if out is None:
            continue
        x, lam, mu = out
        g_star = G @ x - h if p else np.zeros(0)
        active = mu > 1e-9
        strict = True
        if p:
            if np.any(active) and mu[active].min() < 0.05:
                strict = False          # weakly active constraint
            inactive_slack = -g_star[~active] if np.any(~active) else np.array([1.0])
            if inactive_slack.size and inactive_slack.min() < 0.05:
                strict = False          # near-active inactive constraint
        if not strict or np.max(np.abs(x)) > 10 or (mu.size and mu.max() > 50):
            continue
        return {"Q0": Q0, "c": c, "A": A, "b": b, "G": G, "h": h,
                "x_star": x, "lam_star": lam, "mu_star": mu}


def two_point_svm():
    """Closed-form hard-margin SVM for points (+1, 0), (-1, 0), labels +1/-1.

    Optimum: beta = (1, 0), beta0 = 0, margin 2, both points support
    vectors with mu = 1/2 each.
    """
    points = np.array([[1.0, 0.0], [-1.0, 0.0]])
    labels = np.array([1.0, -1.0])
    return points, labels, np.array([1.0, 0.0]), 0.0, np.array([0.5, 0.5])


def svm_flow_rhs(data, s, tc, proj_tol=1e-10):
    """SVM training flow written directly from the data, as ``(betadot, mudot)``.

    -tau_beta betadot = beta - sum_i mu_i y_i x_i
    -tau_beta0 beta0dot = -sum_i mu_i y_i
    tau_mu_i mudot_i = (g_i)^+_{mu_i},  g_i = 1 - y_i (beta^T x_i + beta0)

    ``data`` has ``points`` and ``labels``, ``s`` has ``x`` and ``mu``, and
    ``tc`` has ``tau_x`` and ``tau_mu``.  It should agree componentwise with
    the generic interconnected flow on the problem built by
    ``passiflow.svm.build_svm_problem``.
    """
    beta = s.x[:2]
    beta0 = s.x[2]
    mu = np.maximum(s.mu, 0.0)
    ymu = data.labels * mu
    betadot = -(beta - data.points.T @ ymu) / tc.tau_x[:2]
    beta0dot = np.sum(ymu) / tc.tau_x[2]
    g = 1.0 - data.labels * (data.points @ beta + beta0)
    mudot = np.where(s.mu <= proj_tol, np.maximum(0.0, g), g) / tc.tau_mu
    return np.concatenate([betadot, [beta0dot]]), mudot


def reference_flow(prob, s, v=None, tc=None, proj_tol: float = 1e-10, g=None):
    """The projected primal-dual flow of ``prob`` at ``s`` as
    ``(xdot, lamdot, mudot)``, from the problem's attributes and a fresh
    ``ineq.jacobian`` per call; ``s`` may carry negative multipliers (use
    ``FlowState.unpack``).  ``v`` enters the primal channel, ``tc=None``
    means unit time constants, and ``g`` is the constraint values at
    ``s.x`` if already computed.  ``passiflow.primal_dual.interconnected_rhs``
    must equal it bit for bit.
    """
    x = s.x
    grad_L = prob.f.grad(x)
    if v is not None:
        grad_L = grad_L + v
    A = prob.A
    if A.shape[0]:
        grad_L = grad_L + A.T @ s.lam
        lamdot = A @ x - prob.b
    else:
        lamdot = np.zeros(0)
    ineq = prob.ineq
    if ineq.p:
        grad_L = grad_L + ineq.jacobian(x).T @ np.maximum(s.mu, 0.0)
        if g is None:
            g = ineq.values(x)
        mudot = np.where(s.mu <= proj_tol, np.maximum(0.0, g), g)
    else:
        mudot = np.zeros(0)
    xdot = -grad_L
    if tc is not None:
        xdot = xdot / tc.tau_x
        lamdot = lamdot / tc.tau_lam
        mudot = mudot / tc.tau_mu
    return xdot, lamdot, mudot


def sigma_at(prob, z, proj_tol):
    """The clamp set at packed state ``z`` as a ``frozenset`` of indices:
    ``active_set`` at the sample with ``mu`` clipped to zero."""
    n, m, p = prob.n, prob.m, prob.p
    s = FlowState.unpack(z, n, m, p)
    g = prob.g_values(s.x)
    return active_set(FlowState(s.x, s.lam, np.maximum(s.mu, 0.0)), g, proj_tol)


def reference_storage(prob, traj, tc, proj_tol):
    """Switched storage at every sample of a ``solve`` trajectory.

    Per sample: the rates of :func:`reference_flow`, the clamp set from
    :func:`sigma_at` as a mask, and
    :func:`passiflow.primal_dual.switched_storage` of the two.
    ``proj_tol`` is the ``event_tol`` the solve ran with.
    """
    n, m, p = prob.n, prob.m, prob.p
    out = np.empty(traj.times.size)
    for k, z in enumerate(traj.states):
        rates = reference_flow(prob, FlowState.unpack(z, n, m, p), tc=tc, proj_tol=proj_tol)
        mask = np.zeros(p, dtype=bool)
        mask[list(sigma_at(prob, z, proj_tol))] = True
        out[k] = switched_storage(rates, mask, tc)
    return out


def reference_switch_events(prob, traj, tc, proj_tol):
    """The switch events of a ``solve`` trajectory, one batch at a time.

    Events at one time form a batch.  The clamp sets before and after are
    :func:`sigma_at` at the samples next to the crossing sample; each
    flipped index whose membership differs enters or leaves, and the jump
    is the clamped-term difference ``-/+ g_i^2 / (2 tau_mu_i)`` with ``g``
    at the crossing state.  Batches at the first sample, or with no index
    entering or leaving, give no event.
    """
    batches = {}
    for t_e, tag in traj.events:
        batches.setdefault(t_e, set()).add(int(tag[1:]))
    events = []
    for t_e in sorted(batches):
        k = int(np.searchsorted(traj.times, t_e))
        if k == 0:
            continue
        sigma_pre = sigma_at(prob, traj.states[k - 1], proj_tol)
        sigma_post = sigma_at(prob, traj.states[min(k + 1, traj.times.size - 1)], proj_tol)
        g = prob.g_values(traj.states[k][:prob.n])
        jump = 0.0
        entered, left = [], []
        for i in sorted(batches[t_e]):
            was, now = i in sigma_pre, i in sigma_post
            if was == now:
                continue
            term = g[i] ** 2 / (2.0 * tc.tau_mu[i])
            if now:
                entered.append(i)
                jump -= term
            else:
                left.append(i)
                jump += term
        if entered or left:
            events.append(SwitchEvent(t_e, jump, tuple(sorted(entered)), tuple(sorted(left))))
    return events


def reference_line_state(p, y, M):
    """One packed line state as a ``LineState``, unpacked component by component."""
    i = y[: M + 1]
    v = np.empty(M + 1)
    v[1:-1] = y[M + 1: 2 * M]
    v[0] = y[2 * M] - i[0] * p.R0
    v[-1] = p.R1 * i[-1] + y[2 * M + 1]
    return LineState(i, v, float(y[2 * M]), float(y[2 * M + 1]))


def reference_line_energy(p, state) -> float:
    """``passiflow.tline.line_energy`` on one ``LineState``, the capacitor
    voltages squared as scalars, by ``** 2``."""
    z = np.linspace(0.0, 1.0, state.M + 1)
    field = 0.5 * np.trapezoid(p.L * state.i ** 2 + p.C * state.v ** 2, z)
    return float(field + 0.5 * p.C0 * state.vC0 ** 2 + 0.5 * p.C1 * state.vC1 ** 2)


def reference_dz(values: np.ndarray, dz: float) -> np.ndarray:
    """The line's second-order stencil on one profile, node by node."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * dz)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dz)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dz)
    return out


def reference_tline_rhs(p, y, I0, M) -> np.ndarray:
    """``passiflow.tline.tline_rhs`` written over whole profiles: ``v`` with
    its end nodes unpacked, the stencil of :func:`reference_dz`, and each
    block negated before its division.  No finiteness check, so non-finite
    states pass through."""
    dz = 1.0 / M
    i = y[: M + 1]
    v = np.empty(M + 1)
    v[1:-1] = y[M + 1: 2 * M]
    v[0] = y[2 * M] - i[0] * p.R0
    v[-1] = p.R1 * i[-1] + y[2 * M + 1]
    v_z = reference_dz(v, dz)
    i_z = (i[2:] - i[:-2]) / (2 * dz)
    dy = np.empty(2 * M + 2)
    dy[: M + 1] = -(v_z + p.R * i) / p.L
    dy[M + 1: 2 * M] = -(p.G * v[1:-1] + i_z) / p.C
    dy[2 * M] = (I0 - i[0]) / p.C0
    dy[2 * M + 1] = i[-1] / p.C1
    return dy


def reference_closed_loop_lyapunov(p, state, targets, adm, K_I) -> float:
    """``passiflow.tline.closed_loop_lyapunov`` on one ``LineState``, written
    per state: the target profile and the coefficients computed first, the
    field integrand summed as one expression and the boundary terms squared
    as scalars, by ``** 2``."""
    dz = 1.0 / state.M
    i0_star, vC0_star, vC1_star = targets
    z = np.linspace(0.0, 1.0, state.M + 1)
    w = np.sqrt(p.R * p.G)
    i_star = (p.G / w) * vC1_star * np.sinh(w * (1.0 - z))
    i_star_z = -p.G * vC1_star * np.cosh(w * (1.0 - z))
    delta_ri = adm.zeta * np.sqrt(p.C / 2.0)
    delta_gv = np.sqrt(p.L / 2.0)
    coeff = (adm.alpha * (1.0 - adm.zeta ** 2) - 1.0) / (2.0 * p.R)
    v_z = reference_dz(state.v, dz)
    i_z = reference_dz(state.i, dz)
    ri_vz = p.R * state.i + v_z
    gv_iz = p.G * state.v + i_z
    delta = delta_ri * ri_vz - delta_gv * gv_iz
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


def reference_write_csv(path, header, rows) -> None:
    """``passiflow.cli._write_csv`` and ``_write_events`` in text mode, each
    row formatted as a ``str`` and encoded by the file: the reference of
    their binary writers."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(c, str) else "%.17g" for c in row) + "\r\n"
            fh.write(line % tuple(row))


def reference_prlc_power_shaping_rhs(p, x, i_star, K) -> np.ndarray:
    """The rate of ``passiflow.plants.prlc_power_shaping_loop`` at ``x``."""
    i, v = x.tolist()
    Vs = -K * (i - i_star) + (p.R + 1.0 / p.G) * i_star
    return np.array([(Vs - p.R * i - v) / p.L, (i - p.G * v) / p.C])


def reference_prlc_krasovskii_pi_rhs(p, x, i_star, v_star, K_P, K_I) -> np.ndarray:
    """The rate of ``passiflow.plants.prlc_krasovskii_pi_loop`` at ``x = (i, v, z)``."""
    i, v, z = x.tolist()
    Vs = -K_P * (i - i_star) - K_I * z + p.R * i_star + v_star
    di, dv = np.array([(Vs - p.R * i - v) / p.L, (i - p.G * v) / p.C])
    return np.array([di, dv, i - i_star])


def reference_hvac_rhs(h, T, u) -> np.ndarray:
    """``passiflow.plants.hvac_rhs``: the four heat balances over ``C_i``."""
    T0, T1, T2, T3 = np.asarray(T, dtype=float).tolist()
    u0, u1 = np.asarray(u, dtype=float).tolist()
    q1 = (T2 - T0) / h.R31 + (h.T_inf - T0) / h.R10 + u0 * h.c_p * (h.T_s - T0)
    q2 = (T3 - T1) / h.R42 + (h.T_inf - T1) / h.R20 + u1 * h.c_p * (h.T_s - T1)
    q3 = (T0 - T2) / h.R31 + (T3 - T2) / h.R34
    q4 = (T1 - T3) / h.R42 + (T2 - T3) / h.R34
    return np.array([q1 / h.C1, q2 / h.C2, q3 / h.C3, q4 / h.C4])


def reference_hvac_power_shaping_rhs(h, T, targets, k, k1, k2, alpha) -> np.ndarray:
    """The rate of ``passiflow.plants.hvac_power_shaping_loop`` at ``T``, the
    law's ``Gamma + a`` as a numpy array."""
    _, _, a = hvac_shaping_offsets(h, targets, k, k1, k2)
    kw = (np.array([k1, k2]) / k).tolist()
    damping = alpha / k
    T = np.asarray(T, dtype=float)
    dT = reference_hvac_rhs(h, T, (0.0, 0.0))
    gam_a = (hvac_gamma(h, T) + a).tolist()
    for i, Ci in enumerate((h.C1, h.C2)):
        b = h.c_p * (h.T_s - T.item(i))
        w = kw[i] * gam_a[i]
        dT[i] = (dT.item(i) * Ci - b * w) / (Ci + damping * b * b)
    return dT


def reference_hvac_dyn_feedback_rhs(h, z, x_star, k1, kd, ki) -> np.ndarray:
    """The rate of ``passiflow.plants.dyn_feedback_loop`` for
    ``hvac_dyn_feedback(h)`` at ``z = (T, u)``: ``g(T)`` a 4 x 2 array,
    ``M = diag(C)``, ``alpha`` the diagonal 2 x 2 array of the Gram solve's
    arithmetic, raising :class:`RankDeficientInput` where ``d_k^2`` is 0."""
    x, u = z[:4], z[4:]
    g = np.zeros((4, 2))
    g[0, 0] = h.c_p * (h.T_s - x[0]) / h.C1
    g[1, 1] = h.c_p * (h.T_s - x[1]) / h.C2
    xdot = reference_hvac_rhs(h, x, np.zeros(2)) + g @ u
    y = g.T @ np.diag(h.cap) @ xdot
    vdot = (-kd * y - ki * (hvac_gamma(h, x) - hvac_gamma(h, x_star))) / k1
    dg = (-h.c_p / h.C1, -h.c_p / h.C2)
    a = []
    for k in range(2):
        d = g.item(k, k)
        if d * d == 0.0:
            raise RankDeficientInput("input matrix is rank deficient")
        a.append(-(d * (dg[k] * float(xdot[k]))) * (1.0 / (d * d)))
    udot = np.array([[a[0], 0.0], [0.0, a[1]]]) @ u - y + vdot
    return np.concatenate([xdot, udot])
