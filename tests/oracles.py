"""Independent reference solvers used to freeze expected values in tests.

Except for the storage reference at the end, nothing here touches the
gradient-flow code paths: QPs are solved by brute enumeration of active sets
over the KKT linear systems, the toy SVM by its closed form, and the SVM
training flow is written out a second time from the problem data to
cross-check the generic primal-dual flow.  The storage post-pass of ``solve``
is written out per sample with the clamp set as an index set from
``active_set``, as the reference for the boolean-mask form ``solve`` uses.
"""

import itertools

import numpy as np

from passiflow.primal_dual import FlowState, _sigma_at, interconnected_rhs, switched_storage


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


def reference_storage(prob, traj, tc, proj_tol):
    """Switched storage at every sample of a ``solve`` trajectory.

    Per sample: the flow rates, the clamp set as a ``frozenset`` of indices
    (``_sigma_at``, i.e. ``active_set`` at the sample with ``mu`` clipped to
    zero), and :func:`passiflow.primal_dual.switched_storage` of the two.
    ``proj_tol`` is the ``event_tol`` the solve ran with.
    """
    n, m, p = prob.n, prob.m, prob.p
    out = np.empty(traj.times.size)
    for k, z in enumerate(traj.states):
        rates = interconnected_rhs(prob, FlowState.unpack(z, n, m, p), tc=tc, proj_tol=proj_tol)
        out[k] = switched_storage(rates, _sigma_at(prob, z, n, m, p, proj_tol), tc)
    return out
