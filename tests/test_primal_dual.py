import numpy as np
import pytest
import dataclasses

from oracles import (
    active_set,
    enumerate_qp_kkt,
    finite_diff_gradient,
    lagrangian,
    make_random_qp,
    positive_projection,
    reference_flow,
    reference_storage,
    reference_switch_events,
    sigma_at,
)

from passiflow import cli, ode, primal_dual, svm
from passiflow.brayton_moser import StorageTrace
from passiflow.ode import IntegratorConfig
from passiflow.primal_dual import (
    AffineInequalities,
    ConvexProblem,
    FlowState,
    SwitchEvent,
    TimeConstants,
    augmented_problem,
    damping_injection_rhs,
    equality_flow_rhs,
    interconnected_rhs,
    kkt_residual,
    prepare_flow,
    quadratic_oracle,
    solve,
    storage_switch_audit,
    switched_storage,
)


def simple_qp():
    """min ||x||^2/2 s.t. x1 + x2 = 2; optimum x = (1, 1), lam = -1."""
    return ConvexProblem(
        n=2,
        f=quadratic_oracle(np.eye(2), np.zeros(2)),
        A=np.array([[1.0, 1.0]]),
        b=np.array([2.0]),
    )


def one_d_nonneg():
    """min x^2/2 s.t. -x <= 0 from an infeasible start; optimum (0, mu=0)."""
    return ConvexProblem(
        n=1,
        f=quadratic_oracle(np.eye(1), np.zeros(1)),
        ineq=AffineInequalities(np.array([[-1.0]]), np.array([0.0])),
    )


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: AffineInequalities(np.ones((2, 1)), np.ones(3)), ValueError,
                 "G rows must match h length", id="AffineInequalities"),
    pytest.param(lambda: ConvexProblem(n=2, f=quadratic_oracle(np.eye(2), np.zeros(2)),
                                       A=np.ones((1, 3)), b=np.ones(1)),
                 ValueError, "A must be m x n with b of length m", id="ConvexProblem"),
    pytest.param(lambda: FlowState(np.zeros(1), mu=np.array([-1.0])), ValueError,
                 "mu must be componentwise nonnegative", id="FlowState"),
    pytest.param(lambda: TimeConstants(np.ones(1), np.zeros(1), np.ones(0)), ValueError,
                 "tau_lam must be strictly positive", id="TimeConstants"),
    pytest.param(lambda: solve(simple_qp(), FlowState(np.zeros(3), lam=np.zeros(1))),
                 ValueError, "initial state dimensions do not match problem", id="solve"),
    pytest.param(lambda: augmented_problem(simple_qp(), -1.0), ValueError,
                 "k must be >= 0", id="augmented_problem"),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestLagrangianAndKKT:
    def test_unconstrained_equals_objective(self):
        prob = ConvexProblem(n=2, f=quadratic_oracle(np.eye(2), np.zeros(2)))
        x = np.array([0.3, -0.4])
        assert lagrangian(prob, FlowState(x)) == pytest.approx(0.5 * x @ x)

    def test_equality_term_arithmetic(self):
        prob = ConvexProblem(n=2, f=quadratic_oracle(np.eye(2), np.zeros(2)),
                             A=np.array([[1.0, 0.0]]), b=np.array([1.0]))
        val = lagrangian(prob, FlowState(np.zeros(2), lam=np.array([2.0])))
        assert val == pytest.approx(-2.0)

    def test_random_qp_matches_termwise_sum(self):
        rng = np.random.default_rng(5)
        Q0 = np.diag(rng.uniform(0.5, 2.0, 3))
        c = rng.normal(size=3)
        A = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        G = rng.normal(size=(2, 3))
        h = rng.normal(size=2)
        prob = ConvexProblem(n=3, f=quadratic_oracle(Q0, c), A=A, b=b,
                             ineq=AffineInequalities(G, h))
        x = rng.normal(size=3)
        lam = rng.normal(size=2)
        mu = rng.uniform(0.0, 1.0, 2)
        expect = (0.5 * x @ Q0 @ x + c @ x
                  + sum(lam[i] * (A[i] @ x - b[i]) for i in range(2))
                  + sum(mu[i] * (G[i] @ x - h[i]) for i in range(2)))
        assert lagrangian(prob, FlowState(x, lam, mu)) == pytest.approx(expect)

    def test_kkt_zero_at_unconstrained_minimum(self):
        prob = ConvexProblem(n=2, f=quadratic_oracle(np.eye(2), np.zeros(2)))
        rep = kkt_residual(prob, FlowState(np.zeros(2)))
        assert rep.is_optimal(1e-12)

    def test_kkt_residuals_at_analytic_qp_solution(self):
        rep = kkt_residual(simple_qp(), FlowState(np.array([1.0, 1.0]),
                                                  lam=np.array([-1.0])))
        assert rep.stationarity <= 1e-12
        assert rep.eq_violation <= 1e-12

    def test_eq_violation_value(self):
        rep = kkt_residual(simple_qp(), FlowState(np.zeros(2), lam=np.zeros(1)))
        assert rep.eq_violation == pytest.approx(2.0)


class TestEqualityFlow:
    def test_zero_rhs_at_kkt_point(self):
        tc = TimeConstants.ones(2, 1, 0)
        xd, ld, y = equality_flow_rhs(simple_qp(), FlowState(np.array([1.0, 1.0]),
                                                             lam=np.array([-1.0])),
                                      None, tc)
        assert np.max(np.abs(xd)) < 1e-14
        assert np.max(np.abs(ld)) < 1e-14
        assert np.allclose(y, [-1.0, -1.0])

    def test_pure_gradient_descent_value(self):
        prob = ConvexProblem(n=1, f=quadratic_oracle(np.eye(1), np.zeros(1)))
        xd, _, _ = equality_flow_rhs(prob, FlowState(np.array([3.0])), None,
                                     TimeConstants.ones(1, 0, 0))
        assert xd[0] == pytest.approx(-3.0)

    def test_rhs_consistent_with_flow_map(self):
        # integrator consistency: one tiny step moves along the reported rate
        from passiflow.ode import integrate
        prob = simple_qp()
        tc = TimeConstants.ones(2, 1, 0)
        z0 = np.array([0.5, -0.2, 0.3])

        def rhs(t, z):
            s = FlowState(z[:2], lam=z[2:])
            xd, ld, _ = equality_flow_rhs(prob, s, None, tc)
            return np.concatenate([xd, ld])

        h = 1e-7
        traj = integrate(rhs, z0, IntegratorConfig(step=h, max_time=h))
        fd = (traj.final_state - z0) / h
        assert np.max(np.abs(fd - rhs(0.0, z0))) < 1e-6


class TestProjectionAndActiveSet:
    def test_projection_clamped_branch(self):
        assert positive_projection(-1.0, 0.0) == 0.0

    def test_projection_free_branch(self):
        assert positive_projection(-1.0, 0.5) == -1.0

    def test_projection_positive_value_passes(self):
        assert positive_projection(2.0, 0.0) == 2.0

    def test_projection_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            positive_projection(1.0, -0.1)

    def test_active_set_empty_when_mu_positive(self):
        s = FlowState(np.zeros(1), mu=np.array([0.5, 1.0]))
        assert active_set(s, np.array([-1.0, -1.0])) == frozenset()

    def test_active_set_picks_clamped_index(self):
        s = FlowState(np.zeros(1), mu=np.array([0.0, 1.0]))
        assert active_set(s, np.array([-1.0, -1.0])) == frozenset({0})

    def test_active_set_excludes_positive_g(self):
        s = FlowState(np.zeros(1), mu=np.array([0.0]))
        assert active_set(s, np.array([1.0])) == frozenset()

    def test_tie_is_not_active(self):
        s = FlowState(np.zeros(1), mu=np.array([0.0]))
        assert active_set(s, np.array([0.0])) == frozenset()


class TestInterconnectedFlow:
    def test_zero_rhs_at_kkt_point(self):
        prob = one_d_nonneg()
        s = FlowState(np.zeros(1), mu=np.zeros(1))
        xd, ld, md = interconnected_rhs(prepare_flow(prob), s.pack())
        assert np.max(np.abs(np.concatenate([xd, ld, md]))) < 1e-14

    def test_reduces_to_equality_flow_without_inequalities(self):
        prob = simple_qp()
        tc = TimeConstants.ones(2, 1, 0)
        s = FlowState(np.array([0.4, 0.1]), lam=np.array([0.7]))
        v = np.array([0.3, -0.2])
        xd_a, ld_a, md = interconnected_rhs(prepare_flow(prob, tc), s.pack(), v=v)
        xd_b, ld_b, _ = equality_flow_rhs(prob, s, v, tc)
        assert np.allclose(xd_a, xd_b)
        assert np.allclose(ld_a, ld_b)
        assert md.size == 0

    def test_infeasible_start_converges_to_constrained_optimum(self):
        prob = one_d_nonneg()
        res = solve(prob, FlowState(np.array([-1.0]), mu=np.zeros(1)),
                    cfg=IntegratorConfig(step=5e-3, max_time=60.0,
                                         convergence_tol=1e-9))
        assert res.converged
        assert abs(res.final.x[0]) < 1e-6
        assert res.kkt.comp_slack <= 1e-6


class TestFlowMatchesReference:
    """The prepared flow is the reference flow of ``oracles`` bit for bit,
    signs of zeros included, with one ``PreparedFlow`` reused across states."""

    PROJ_TOL = 1e-10
    TAU_KINDS = ("none", "ones", "random")

    @staticmethod
    def random_problem(rng, equalities, oracle_rows):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1)) if equalities else 0
        r = int(rng.integers(0 if oracle_rows else 1, 4))
        W = rng.normal(size=(n, n))
        c = np.zeros(n) if rng.random() < 0.5 else rng.normal(size=n)
        h = rng.normal(size=r)
        h[:1] = 0.0                 # g = 0 exactly at x = 0
        oracles = [quadratic_oracle(np.eye(n) * rng.uniform(0.5, 2.0), rng.normal(size=n))
                   for _ in range(oracle_rows)]
        return ConvexProblem(n=n, f=quadratic_oracle(W.T @ W, c),
                             A=rng.normal(size=(m, n)), b=rng.normal(size=m),
                             ineq=AffineInequalities(rng.normal(size=(r, n)), h, oracles))

    def states(self, rng, prob):
        n, m, p = prob.n, prob.m, prob.p
        # mu below zero (an RK4 stage), exactly zero or negative zero,
        # within proj_tol of zero, and well inside the orthant.  The first
        # state is the origin with no positive mu: with c = 0 every rate of
        # x is a zero whose sign is checked.
        mu_pool = np.array([-1e-3, -1e-12, -0.0, 0.0, 0.5 * self.PROJ_TOL, self.PROJ_TOL,
                            2.0 * self.PROJ_TOL, 0.3, 1.7])
        yield np.concatenate([np.zeros(n + m), rng.choice(mu_pool[:4], size=p)])
        for _ in range(11):
            yield np.concatenate([rng.normal(size=n + m), rng.choice(mu_pool, size=p)])

    @pytest.mark.parametrize("equalities", [False, True])
    @pytest.mark.parametrize("oracle_rows", [0, 1, 2])
    @pytest.mark.parametrize("taus", TAU_KINDS)
    def test_random_problems_and_states(self, equalities, oracle_rows, taus):
        rng = np.random.default_rng([5, equalities, oracle_rows, self.TAU_KINDS.index(taus)])
        for _ in range(8):
            prob = self.random_problem(rng, equalities, oracle_rows)
            n, m, p = prob.n, prob.m, prob.p
            tc = {"none": None, "ones": TimeConstants.ones(n, m, p),
                  "random": TimeConstants(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m),
                                          rng.uniform(0.5, 2.0, p))}[taus]
            flow = prepare_flow(prob, tc, self.PROJ_TOL)
            for z in self.states(rng, prob):
                s = FlowState.unpack(z, n, m, p)
                for g in (None, prob.g_values(z[:n])):
                    for v in (None, rng.normal(size=n)):
                        rates = interconnected_rhs(flow, z, g=g, v=v)
                        refs = reference_flow(prob, s, v=v, tc=tc, proj_tol=self.PROJ_TOL, g=g)
                        assert len(rates) == 3
                        for rate, ref in zip(rates, refs):
                            assert rate.shape == ref.shape
                            assert np.array_equal(rate, ref)
                            assert np.array_equal(np.signbit(rate), np.signbit(ref))


class TestTimeConstantSizes:
    """Each time constant must have one entry per state of its block."""

    @pytest.mark.parametrize("field, taus", [
        ("tau_x", {"tau_x": [2.0], "tau_lam": [1.0], "tau_mu": [1.0]}),
        ("tau_x", {"tau_x": [1.0, 2.0, 3.0], "tau_lam": [1.0], "tau_mu": [1.0]}),
        ("tau_lam", {"tau_x": [1.0, 2.0], "tau_lam": [], "tau_mu": [1.0]}),
        ("tau_mu", {"tau_x": [1.0, 2.0], "tau_lam": [1.0], "tau_mu": [1.0, 1.0]}),
    ])
    def test_wrong_size_is_a_value_error_naming_the_field(self, field, taus):
        prob = ConvexProblem(n=2, f=quadratic_oracle(np.eye(2), np.zeros(2)),
                             A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                             ineq=AffineInequalities(np.array([[1.0, 0.0]]), np.array([0.2])))
        init = FlowState(np.zeros(2), lam=np.zeros(1), mu=np.zeros(1))
        with pytest.raises(ValueError, match=field):
            solve(prob, init, tc=TimeConstants(**taus), cfg=IntegratorConfig(max_time=0.1))


class TestDampingInjection:
    def test_zero_gain_identical_to_plain_flow(self):
        prob = simple_qp()
        s = FlowState(np.array([0.2, -0.5]), lam=np.array([0.4]))
        plain = interconnected_rhs(prepare_flow(prob), s.pack())
        damped = damping_injection_rhs(prob, s, 0.0)
        for a, b in zip(plain, damped):
            assert np.allclose(a, b)

    def test_matches_augmented_problem_rhs(self):
        prob = simple_qp()
        aug = augmented_problem(prob, 3.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            s = FlowState(rng.normal(size=2), lam=rng.normal(size=1))
            a = damping_injection_rhs(prob, s, 3.0)
            b = interconnected_rhs(prepare_flow(aug), s.pack())
            for ra, rb in zip(a, b):
                assert np.max(np.abs(ra - rb), initial=0.0) < 1e-12

    def test_equilibrium_unchanged_by_gain(self):
        prob = simple_qp()
        for k in (0.0, 1.0, 10.0):
            s = FlowState(np.array([1.0, 1.0]), lam=np.array([-1.0]))
            rates = damping_injection_rhs(prob, s, k)
            assert max(np.max(np.abs(r), initial=0.0) for r in rates) < 1e-12

    def test_augmented_objective_adds_the_penalty(self):
        aug = augmented_problem(simple_qp(), 3.0)
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.normal(size=2)
            r = x[0] + x[1] - 2.0
            assert aug.f.value(x) == pytest.approx(0.5 * x @ x + 1.5 * r * r, rel=1e-14)
            assert np.max(np.abs(finite_diff_gradient(aug.f.value, x) - aug.f.grad(x))) < 1e-8

    def test_trajectories_match_augmented_problem(self):
        # bitwise-comparable runs over unit time
        prob = simple_qp()
        aug = augmented_problem(prob, 2.0)
        cfg = IntegratorConfig(step=1e-3, max_time=1.0)
        init = FlowState(np.array([0.3, -0.3]), lam=np.array([0.1]))
        from passiflow.ode import integrate

        def rhs_damped(t, z):
            s = FlowState(z[:2], lam=z[2:])
            xd, ld, _ = damping_injection_rhs(prob, s, 2.0)
            return np.concatenate([xd, ld])

        def rhs_aug(t, z):
            xd, ld, _ = interconnected_rhs(prepare_flow(aug), z)
            return np.concatenate([xd, ld])

        za = integrate(rhs_damped, init.pack(), cfg).final_state
        zb = integrate(rhs_aug, init.pack(), cfg).final_state
        assert np.max(np.abs(za - zb)) < 1e-10

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            damping_injection_rhs(simple_qp(), FlowState(np.zeros(2), lam=np.zeros(1)), -1.0)


class TestSwitchedStorage:
    def test_zero_at_equilibrium(self):
        tc = TimeConstants.ones(2, 1, 2)
        val = switched_storage((np.zeros(2), np.zeros(1), np.zeros(2)), np.zeros(2, bool), tc)
        assert val == 0.0

    def test_reduces_to_quadratic_form_without_inequalities(self):
        tc = TimeConstants(np.array([2.0, 3.0]), np.array([4.0]), np.zeros(0))
        xd = np.array([1.0, -1.0])
        ld = np.array([0.5])
        val = switched_storage((xd, ld, np.zeros(0)), np.zeros(0, bool), tc)
        assert val == pytest.approx(0.5 * (2 + 3) + 0.5 * 4 * 0.25)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(7)
        tc = TimeConstants(rng.uniform(0.5, 2, 3), rng.uniform(0.5, 2, 2),
                           rng.uniform(0.5, 2, 4))
        xd, ld, md = rng.normal(size=3), rng.normal(size=2), rng.normal(size=4)
        sigma = np.array([False, True, False, True])
        brute = (0.5 * sum(tc.tau_x[i] * xd[i] ** 2 for i in range(3))
                 + 0.5 * sum(tc.tau_lam[i] * ld[i] ** 2 for i in range(2))
                 + 0.5 * sum(tc.tau_mu[i] * md[i] ** 2 for i in range(4) if not sigma[i]))
        assert switched_storage((xd, ld, md), sigma, tc) == pytest.approx(brute)


class TestSolve:
    def test_equality_qp_reaches_analytic_optimum(self):
        res = solve(simple_qp(), FlowState(np.zeros(2), lam=np.zeros(1)),
                    cfg=IntegratorConfig(step=5e-3, max_time=80.0,
                                         convergence_tol=1e-9))
        assert res.converged
        assert np.max(np.abs(res.final.x - [1.0, 1.0])) < 1e-6
        assert abs(res.final.lam[0] + 1.0) < 1e-6
        assert res.kkt.is_optimal(1e-6)

    def test_inactive_inequality_does_not_move_optimum(self):
        prob = ConvexProblem(
            n=2,
            f=quadratic_oracle(np.eye(2), np.zeros(2)),
            A=np.array([[1.0, 1.0]]),
            b=np.array([2.0]),
            ineq=AffineInequalities(np.array([[1.0, 0.0]]), np.array([100.0])),
        )
        res = solve(prob, FlowState(np.zeros(2), lam=np.zeros(1), mu=np.zeros(1)),
                    cfg=IntegratorConfig(step=5e-3, max_time=80.0,
                                         convergence_tol=1e-9))
        assert np.max(np.abs(res.final.x - [1.0, 1.0])) < 1e-6
        assert res.final.mu[0] < 1e-8

    def test_matches_enumeration_oracle_with_active_inequality(self):
        Q0 = np.eye(2)
        c = np.array([-2.0, 0.0])
        G = np.array([[1.0, 0.0]])
        h = np.array([1.0])
        x_star, _, mu_star = enumerate_qp_kkt(Q0, c, G=G, h=h)
        prob = ConvexProblem(n=2, f=quadratic_oracle(Q0, c),
                             ineq=AffineInequalities(G, h))
        res = solve(prob, FlowState(np.zeros(2), mu=np.zeros(1)),
                    cfg=IntegratorConfig(step=5e-3, max_time=80.0,
                                         convergence_tol=1e-9))
        assert np.max(np.abs(res.final.x - x_star)) < 1e-6
        assert np.max(np.abs(res.final.mu - mu_star)) < 1e-6

    def test_mu_stays_nonnegative_along_trajectory(self):
        prob = one_d_nonneg()
        res = solve(prob, FlowState(np.array([2.0]), mu=np.array([1.5])),
                    cfg=IntegratorConfig(step=5e-3, max_time=40.0))
        assert res.trajectory.states[:, 1].min() >= 0.0

    def test_starting_at_kkt_point_stays_there(self):
        res = solve(simple_qp(), FlowState(np.array([1.0, 1.0]), lam=np.array([-1.0])),
                    cfg=IntegratorConfig(step=5e-3, max_time=2.0,
                                         convergence_tol=1e-8))
        traj = res.trajectory
        rates = np.diff(traj.states, axis=0) / np.diff(traj.times)[:, None]
        assert np.max(np.abs(rates)) < 1e-8

    def test_storage_nonincreasing_between_switches(self):
        prob = one_d_nonneg()
        res = solve(prob, FlowState(np.array([-1.0]), mu=np.array([0.8])),
                    cfg=IntegratorConfig(step=2e-3, max_time=40.0))
        assert res.storage.report()["verdict"] == "PASS"


def forced_switch_problem():
    """min |x - (2,0)|^2/2 s.t. x1 >= 0 and x1 <= 1.

    Starting at x1 = -1 with both multipliers positive: mu2 decays to zero
    while its constraint is strictly slack (a projection activation), then
    x1 rises through 1 so g2 crosses zero (a deactivation) and settles at
    the constrained optimum x = (1, 0), mu2 = 1.
    """
    prob = ConvexProblem(
        n=2,
        f=quadratic_oracle(np.eye(2), np.array([-2.0, 0.0])),
        ineq=AffineInequalities(np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                np.array([0.0, 1.0])),
    )
    init = FlowState(np.array([-1.0, 0.0]), mu=np.array([0.5, 0.5]))
    return prob, init


class TestSwitchAudit:
    def test_no_switches_passes_vacuously(self):
        res = solve(simple_qp(), FlowState(np.zeros(2), lam=np.zeros(1)),
                    cfg=IntegratorConfig(step=5e-3, max_time=10.0))
        audit = storage_switch_audit(res.storage)
        assert audit["verdict"] == "PASS"
        assert audit["n_events"] == 0

    @pytest.mark.parametrize("entered, left, jump, verdict", [
        ((0,), (), 1e-3, "FAIL"),       # the storage may not rise where an index enters
        ((0,), (), -1e-3, "PASS"),      # but it may drop
        ((), (0,), -1e-3, "FAIL"),      # nor jump either way where one leaves
        ((), (0,), 1e-6, "PASS"),       # within the slack 1e-6 (1 + max |storage|)
    ])
    def test_a_jump_past_the_slack_fails(self, entered, left, jump, verdict):
        trace = StorageTrace(np.arange(3.0), np.array([1.0, 0.5, 0.25]), np.zeros(3),
                             switch_events=[SwitchEvent(1.0, jump, entered, left)])
        audit = storage_switch_audit(trace)
        assert audit["verdict"] == verdict
        assert audit["audit_tol"] == 2e-6
        assert audit["worst_enter_jump"] == (max(jump, 0.0) if entered else 0.0)
        assert audit["worst_leave_jump"] == (abs(jump) if left else 0.0)

    def test_forced_activation_and_deactivation(self):
        prob, init = forced_switch_problem()
        res = solve(prob, init, cfg=IntegratorConfig(step=2e-3, max_time=60.0,
                                                     convergence_tol=1e-9))
        assert res.converged
        x_star, _, mu_star = enumerate_qp_kkt(np.eye(2), np.array([-2.0, 0.0]),
                                              G=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                              h=np.array([0.0, 1.0]))
        assert np.max(np.abs(res.final.x - x_star)) < 1e-6
        activations = [ev for ev in res.storage.switch_events if ev.entered]
        deactivations = [ev for ev in res.storage.switch_events if ev.left]
        assert len(activations) >= 1
        assert len(deactivations) >= 1
        # activation while the constraint is strictly slack drops a strictly
        # positive storage term
        assert min(ev.jump for ev in activations) < -1e-8
        # deactivation through a zero crossing is continuous
        assert max(abs(ev.jump) for ev in deactivations) <= 1e-6
        assert storage_switch_audit(res.storage)["verdict"] == "PASS"


class TestStepGrowth:
    """``solve(grow_step=...)``: fixed steps by default, grown ones on request."""

    @pytest.mark.parametrize("grow_step", [False, True])
    def test_plain_steps_are_step_unless_growth_is_asked_for(self, monkeypatch, grow_step):
        # perfbench's hand count of a guarded solve relies on the default.
        calls = []
        real_step = ode._rk4_step

        def counting_step(rhs, t, x, h):
            calls.append((t, h))
            return real_step(rhs, t, x, h)

        monkeypatch.setattr(ode, "_rk4_step", counting_step)
        prob, init = forced_switch_problem()
        cfg = IntegratorConfig(step=1e-2, max_time=60.0)
        grow = {"grow_step": True} if grow_step else {}     # off: the default
        res = solve(prob, init, cfg=cfg, **grow)
        assert res.converged and res.trajectory.times[-1] < cfg.max_time
        stats = res.trajectory.stats
        assert stats.event_batches >= 2
        # The first RK4 step from each start time is a plain or crossing
        # step; the probes and the landing from that start follow it.
        first = {}
        for t, h in calls:
            first.setdefault(t, h)
        assert len(first) == stats.rk4_steps - stats.bisection_steps - stats.event_batches
        if grow_step:
            assert min(first.values()) == cfg.step < max(first.values())
        else:
            assert set(first.values()) == {cfg.step}

    def test_random_qps_match_the_oracle_in_fewer_steps(self):
        # 12 draws, each run at the fixed and at the grown step: 21,383
        # against 7,469 RK4 steps in total.
        cfg = IntegratorConfig(step=0.02, max_time=200.0, convergence_tol=1e-8)
        rng = np.random.default_rng(1)
        steps = {False: 0, True: 0}
        for _ in range(12):
            qp = make_random_qp(rng)
            n, m, p = qp["c"].size, qp["b"].size, qp["h"].size
            prob = ConvexProblem(n=n, f=quadratic_oracle(qp["Q0"], qp["c"]), A=qp["A"],
                                 b=qp["b"], ineq=AffineInequalities(qp["G"], qp["h"]))
            init = FlowState(np.zeros(n), np.zeros(m), np.zeros(p))
            runs = {grow: solve(prob, init, cfg=cfg, grow_step=grow) for grow in (False, True)}
            for grow, res in runs.items():
                assert res.storage.report()["verdict"] == "PASS"
                assert storage_switch_audit(res.storage)["verdict"] == "PASS"
                steps[grow] += res.trajectory.stats.rk4_steps
            grown = runs[True]
            assert grown.trajectory.stats.rk4_steps <= runs[False].trajectory.stats.rk4_steps
            assert grown.converged >= runs[False].converged
            if grown.converged:
                star = np.concatenate([qp["x_star"], qp["lam_star"], qp["mu_star"]])
                assert np.max(np.abs(grown.trajectory.final_state - star)) < 1e-6
        assert steps[True] < steps[False] / 2


def build_problem(problem_cfg: dict):
    """The ``ConvexProblem`` the CLI's solve reader builds from a ``problem`` block."""
    inputs, diags = cli._read({"kind": "solve", "problem": problem_cfg})
    assert not diags, diags
    return inputs[0]


MIXED_CONFIG = {
    "objective": {"Q0": [[1.0, 0.0], [0.0, 1.0]], "c": [-2.0, 0.0]},
    "inequalities": {
        "affine": {"G": [[-1.0, 0.0], [1.0, 0.0]], "h": [0.0, 1.0]},
        "named": [{"name": "ball", "params": {"center": [0.5, -0.25], "radius": 1.1}}],
    },
}


class TestOneInequalityBlock:
    """Affine rows and named constraints share one ``AffineInequalities``."""

    def setup_method(self):
        self.prob = build_problem(MIXED_CONFIG)
        self.G = np.array(MIXED_CONFIG["inequalities"]["affine"]["G"])
        self.h = np.array(MIXED_CONFIG["inequalities"]["affine"]["h"])
        self.center = np.array([0.5, -0.25])

    def test_mixed_config_builds_one_block_affine_rows_first(self):
        ineq = self.prob.ineq
        assert type(ineq) is AffineInequalities
        assert np.array_equal(ineq.G, self.G)
        assert np.array_equal(ineq.h, self.h)
        assert len(ineq.oracles) == 1
        assert ineq.p == self.prob.p == 3

    def test_jacobian_stacks_affine_rows_over_the_ball_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=2)
            expect = np.vstack([self.G, 2.0 * (x - self.center)])
            assert np.array_equal(self.prob.g_jacobian(x), expect)

    def test_jacobian_is_a_fresh_array_per_call(self):
        x0, x1 = np.array([0.1, 0.2]), np.array([-0.7, 0.4])
        J0 = self.prob.g_jacobian(x0)
        J0_copy = J0.copy()
        self.prob.g_jacobian(x1)
        assert np.array_equal(J0, J0_copy)

    def test_values_match_the_per_row_construction(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.normal(size=2)
            d = x - self.center
            expect = [float(r @ x - hv) for r, hv in zip(self.G, self.h)]
            expect.append(float(d @ d - 1.1 ** 2))
            np.testing.assert_allclose(self.prob.g_values(x), expect, rtol=1e-15, atol=1e-15)

    def test_named_only_problem_runs_through_the_cli(self, tmp_path):
        cfg = {"schema": 1, "kind": "solve",
               "problem": {"objective": MIXED_CONFIG["objective"],
                           "inequalities": {"named": MIXED_CONFIG["inequalities"]["named"]}},
               "integrator": {"step": 0.01, "max_time": 20.0}}
        assert build_problem(cfg["problem"]).ineq.G.shape == (0, 2)
        code, payload = cli.run(cfg, tmp_path)
        assert code == 0
        assert payload["verdict"] == "PASS"


class TestStoragePostPass:
    def test_mask_form_equals_the_index_set_reference(self):
        prob = build_problem(MIXED_CONFIG)
        tc = TimeConstants(np.array([0.5, 2.0]), np.zeros(0), np.array([1.5, 0.7, 3.0]))
        init = FlowState(np.array([-1.0, 0.5]), mu=np.array([0.5, 0.5, 0.0]))
        cfg = IntegratorConfig(step=5e-3, max_time=12.0)
        res = solve(prob, init, tc=tc, cfg=cfg)
        assert res.switch_count >= 1
        ref = reference_storage(prob, res.trajectory, tc, cfg.event_tol)
        assert np.array_equal(res.storage.storage, ref)

        flow = prepare_flow(prob, tc, cfg.event_tol)
        clamped_samples = 0
        for z in res.trajectory.states:
            sigma = sigma_at(prob, z, cfg.event_tol)
            _, _, mudot = interconnected_rhs(flow, z)
            assert all(mudot[i] == 0.0 for i in sigma)
            clamped_samples += bool(sigma)
        assert clamped_samples > 0


class TestSwitchClassification:
    """``solve`` classifies each event batch from its clamp mask; the per-batch
    index-set classification in ``oracles`` is the reference."""

    def test_mixed_ball_problem_matches_the_reference(self):
        prob = build_problem(MIXED_CONFIG)
        tc = TimeConstants(np.array([0.5, 2.0]), np.zeros(0), np.array([1.5, 0.7, 3.0]))
        init = FlowState(np.array([-1.0, 0.5]), mu=np.array([0.5, 0.5, 0.0]))
        cfg = IntegratorConfig(step=5e-3, max_time=12.0)
        res = solve(prob, init, tc=tc, cfg=cfg)
        ref = reference_switch_events(prob, res.trajectory, tc, cfg.event_tol)
        assert ref and res.storage.switch_events == ref

    def test_small_svm_matches_the_reference(self):
        data = svm.generate_gaussian_classes(seed=1, n_per_class=5)   # the golden svm data
        res = svm.train_svm(data)
        prob = svm.build_svm_problem(data)
        tc = TimeConstants.ones(prob.n, prob.m, prob.p)
        ref = reference_switch_events(prob, res.trajectory, tc,
                                      svm.DEFAULT_INTEGRATOR.event_tol)
        assert ref and res.storage.switch_events == ref


class TestStorageDuringIntegration:
    """``solve`` computes the storage in ``integrate``'s sample hook, reusing
    the rates and constraint values integration already has; the per-sample
    and per-batch references in ``oracles`` must match it bit for bit."""

    @staticmethod
    def check(prob, init, tc, cfg):
        res = solve(prob, init, tc=tc, cfg=cfg)
        storage = reference_storage(prob, res.trajectory, tc, cfg.event_tol)
        assert res.storage.storage.tobytes() == storage.tobytes()
        assert res.storage.switch_events == reference_switch_events(prob, res.trajectory, tc,
                                                                    cfg.event_tol)
        return res

    def test_random_qp_with_an_equality_row_and_the_ball(self):
        rng = np.random.default_rng(6)
        qp = make_random_qp(rng)
        n, m, p = qp["c"].size, qp["b"].size, qp["h"].size
        assert m >= 1
        prob = build_problem({
            "objective": {"Q0": qp["Q0"].tolist(), "c": qp["c"].tolist()},
            "equalities": {"A": qp["A"].tolist(), "b": qp["b"].tolist()},
            "inequalities": {
                "affine": {"G": qp["G"].tolist(), "h": qp["h"].tolist()},
                "named": [{"name": "ball", "params": {"center": [0.0] * n, "radius": 2.0}}],
            },
        })
        tc = TimeConstants(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m),
                           rng.uniform(0.5, 2.0, p + 1))
        init = FlowState(rng.normal(size=n), np.zeros(m), np.full(p + 1, 0.5))
        res = self.check(prob, init, tc, IntegratorConfig(step=1e-2, max_time=10.0))
        assert any(e.entered for e in res.storage.switch_events)
        assert any(e.left for e in res.storage.switch_events)

    def test_small_svm(self):
        data = svm.generate_gaussian_classes(seed=0, n_per_class=10)
        prob = svm.build_svm_problem(data)
        init = FlowState(np.zeros(3), mu=np.zeros(data.size))
        res = self.check(prob, init, TimeConstants.ones(prob.n, prob.m, prob.p),
                         svm.DEFAULT_INTEGRATOR)
        assert res.storage.switch_events


class TestStepStartRateReuse:
    """``solve``'s rhs answers a repeated accepted state from its one slot;
    every rate it returns, reused or not, must be a fresh evaluation's bits."""

    @staticmethod
    def checked_solve(monkeypatch, prob, init, tc, cfg):
        real_integrate = primal_dual.integrate
        reused = []

        def integrate(rhs, x0, cfg, **kwargs):
            last_read_only = None

            def checked(t, z):
                nonlocal last_read_only
                rate = rhs(t, z)
                s = FlowState.unpack(z.copy(), prob.n, prob.m, prob.p)
                fresh = np.concatenate(reference_flow(prob, s, tc=tc, proj_tol=cfg.event_tol))
                assert rate.tobytes() == fresh.tobytes(), t
                reused.append(rate is last_read_only)
                if not rate.flags.writeable:
                    last_read_only = rate
                return rate

            return real_integrate(checked, x0, cfg, **kwargs)

        monkeypatch.setattr(primal_dual, "integrate", integrate)
        res = solve(prob, init, tc=tc, cfg=cfg)
        assert res.trajectory.stats.event_batches > 0
        assert any(reused)
        return res

    def test_random_qp_with_events_and_nonunit_time_constants(self, monkeypatch):
        rng = np.random.default_rng(4)
        qp = make_random_qp(rng)
        n, m, p = qp["c"].size, qp["b"].size, qp["h"].size
        prob = ConvexProblem(n=n, f=quadratic_oracle(qp["Q0"], qp["c"]), A=qp["A"],
                             b=qp["b"], ineq=AffineInequalities(qp["G"], qp["h"]))
        tc = TimeConstants(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m),
                           rng.uniform(0.5, 2.0, p))
        self.checked_solve(monkeypatch, prob, FlowState(np.zeros(n), np.zeros(m), np.zeros(p)),
                           tc, IntegratorConfig(step=1e-2, max_time=10.0))

    @pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
    def test_small_svm(self, monkeypatch):
        data = svm.generate_gaussian_classes(seed=0, n_per_class=10)
        prob = svm.build_svm_problem(data)
        init = FlowState(np.zeros(3), mu=np.zeros(data.size))
        cfg = dataclasses.replace(svm.DEFAULT_INTEGRATOR, max_time=20.0)
        self.checked_solve(monkeypatch, prob, init, None, cfg)
