import numpy as np
import pytest

from passiflow.brayton_moser import (
    StorageTrace,
    admissible_pair,
    krasovskii_storage,
    lyapunov_audit,
    mixed_potential_rate,
    neg_semidefinite_symmetric_part,
    passivity_audit,
)
from passiflow.ode import IntegratorConfig, integrate
from passiflow.plants import ParallelRLC, prlc_bm, prlc_rhs


@pytest.fixture
def rlc():
    return ParallelRLC(R=1.0, G=2.0, L=1.0, C=1.0)


@pytest.fixture
def rlc_bm(rlc):
    return prlc_bm(rlc)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: admissible_pair(prlc_bm(ParallelRLC()), 1.0, np.eye(3)), ValueError,
                 "M must be n x n", id="admissible_pair"),
    pytest.param(lambda: krasovskii_storage(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2)),
                 ValueError, "M must be symmetric", id="krasovskii_storage"),
    pytest.param(lambda: StorageTrace(np.arange(2.0), np.ones(2), np.ones(2)), ValueError,
                 "supply integral must start at 0", id="StorageTrace"),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestMixedPotentialRate:
    def test_zero_velocity_gives_zero(self, rlc_bm):
        pdot, y = mixed_potential_rate(rlc_bm, np.array([0.3, -0.2]), np.zeros(2), [0.0])
        assert pdot == 0.0
        assert np.all(y == 0.0)

    def test_negative_definite_metric_forces_sign(self):
        from passiflow.brayton_moser import PseudoGradientSystem
        sys_nd = PseudoGradientSystem(
            n=2, m=1,
            Q=lambda x: -np.eye(2),
            P=lambda x: 0.5 * x @ x,
            grad_P=lambda x: x,
            hess_P=lambda x: np.eye(2),
            G=lambda x: np.array([[1.0], [0.0]]),
        )
        pdot, _ = mixed_potential_rate(sys_nd, np.ones(2), np.array([0.4, -0.7]), [0.0])
        assert pdot < 0.0

    def test_matches_chain_rule_along_arc(self, rlc, rlc_bm):
        # oracle: centered difference of P along a short integrated arc
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=2)
        Vs = 0.8
        cfg = IntegratorConfig(step=1e-4, max_time=2e-3)
        traj = integrate(lambda t, x: prlc_rhs(rlc, x, Vs), x0, cfg)
        k = traj.times.size // 2
        h = traj.times[k + 1] - traj.times[k]
        pdot_fd = (rlc_bm.P(traj.states[k + 1]) - rlc_bm.P(traj.states[k - 1])) / (2 * h)
        xdot = prlc_rhs(rlc, traj.states[k], Vs)
        pdot, _ = mixed_potential_rate(rlc_bm, traj.states[k], xdot, [Vs])
        assert abs(pdot - pdot_fd) < 1e-4

    def test_dimension_mismatch_rejected(self, rlc_bm):
        with pytest.raises(ValueError):
            mixed_potential_rate(rlc_bm, np.zeros(3), np.zeros(3), [0.0])


class TestAdmissiblePair:
    def test_identity_transform(self, rlc_bm):
        pair = admissible_pair(rlc_bm, 1.0, np.zeros((2, 2)))
        x = np.array([0.4, -1.1])
        assert pair.tilde_P(x) == pytest.approx(rlc_bm.P(x))
        assert np.allclose(pair.tilde_Q(x), rlc_bm.Q(x))

    def test_rlc_shaped_pair_published_values(self):
        # With C = 1 the scaling M = diag(0, 2C/G) reproduces the published
        # shaped pair exactly: Q~ = [[-L, 2C/G], [0, -C]] and
        # P~ = (Gv - i)^2 / 2G + (R + 1/G) i^2 / 2.
        p = ParallelRLC(R=1.0, G=2.0, L=1.0, C=1.0)
        sys_bm = prlc_bm(p)
        pair = admissible_pair(sys_bm, 1.0, np.diag([0.0, 2.0 * p.C / p.G]))
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(20, 2)):
            i, v = x
            expect_P = (p.G * v - i) ** 2 / (2 * p.G) + 0.5 * (p.R + 1 / p.G) * i ** 2
            assert pair.tilde_P(x) == pytest.approx(expect_P, abs=1e-12)
            assert np.allclose(pair.tilde_Q(x),
                               [[-p.L, 2 * p.C / p.G], [0.0, -p.C]], atol=1e-12)

    def test_gradient_structure_residual_small(self, rlc_bm):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 2))
        us = rng.normal(size=(100, 1))
        pair = admissible_pair(rlc_bm, 1.0, np.diag([0.0, 1.0]))
        assert max(pair.residual(x, u) for x, u in zip(pts, us)) < 1e-8

    def test_asymmetric_M_rejected(self, rlc_bm):
        with pytest.raises(ValueError, match="symmetric"):
            admissible_pair(rlc_bm, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstructed_dynamics_match_original(self, rlc_bm):
        # both descriptions generate the same vector field
        rng = np.random.default_rng(2)
        M = rng.normal(size=(2, 2))
        M = 0.05 * (M + M.T)
        pair = admissible_pair(rlc_bm, 1.0, M)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            xdot_orig = rlc_bm.xdot(x, u)
            xdot_tilde = np.linalg.solve(
                pair.tilde_Q(x), pair.grad_tilde_P(x) + pair.tilde_G(x) @ u)
            assert np.max(np.abs(xdot_orig - xdot_tilde)) < 1e-8


class TestNegSemidefinite:
    def test_negative_identity(self):
        ok, eig = neg_semidefinite_symmetric_part(-np.eye(3))
        assert ok and eig == pytest.approx(-1.0)

    def test_skew_matrix_passes_with_zero(self):
        ok, eig = neg_semidefinite_symmetric_part(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert ok and abs(eig) < 1e-12

    def test_rlc_parameter_condition(self):
        # shaped metric is sign-definite exactly when G^2 L >= C
        for G, expect in ((2.0, True), (0.5, False)):
            p = ParallelRLC(R=1.0, G=G, L=1.0, C=1.0)
            pair = admissible_pair(prlc_bm(p), 1.0, np.diag([0.0, 2.0 / p.G]))
            ok, _ = neg_semidefinite_symmetric_part(pair.tilde_Q(np.zeros(2)))
            assert ok is expect

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            neg_semidefinite_symmetric_part(np.zeros((2, 3)))


class TestKrasovskiiStorage:
    def test_zero_velocity(self):
        assert krasovskii_storage(np.eye(2), np.zeros(2)) == 0.0

    def test_diagonal_circuit_metric(self):
        L, C = 2.0, 3.0
        val = krasovskii_storage(np.diag([L, C]), np.array([0.5, -1.0]))
        assert val == pytest.approx(0.5 * L * 0.25 + 0.5 * C * 1.0)

    def test_random_pd_matches_elementwise_sum(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(4, 4))
        M = B @ B.T + 4 * np.eye(4)
        xd = rng.normal(size=4)
        brute = 0.5 * sum(M[i, j] * xd[i] * xd[j] for i in range(4) for j in range(4))
        val = krasovskii_storage(M, xd)
        assert val == pytest.approx(brute)
        assert val > 0

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            krasovskii_storage(np.diag([1.0, -1.0]), np.ones(2))


class TestPassivityAudit:
    def test_constant_storage_zero_input_passes_with_zero_margin(self):
        cfg = IntegratorConfig(step=0.1, max_time=1.0)
        traj = integrate(lambda t, x: np.zeros_like(x), [1.0], cfg)
        trace, verdict = passivity_audit(
            traj,
            storage=lambda t, x: 1.0,
            port_u=lambda t, x: np.zeros(1),
            port_y=lambda t, x: np.zeros(1),
        )
        assert verdict["verdict"] == "PASS"
        assert verdict["min_margin"] == 0.0

    def _rlc_ramp_audit(self, step):
        p = ParallelRLC(R=1.0, G=2.0, L=1.0, C=1.0)
        ramp = lambda t: 0.5 * t
        cfg = IntegratorConfig(step=step, max_time=4.0)
        traj = integrate(lambda t, x: prlc_rhs(p, x, ramp(t)), [0.2, -0.1], cfg)

        def storage(t, x):
            xd = prlc_rhs(p, x, ramp(t))
            return 0.5 * p.L * xd[0] ** 2 + 0.5 * p.C * xd[1] ** 2

        return passivity_audit(
            traj,
            storage=storage,
            port_u=lambda t, x: np.array([0.5]),           # dVs/dt
            port_y=lambda t, x: prlc_rhs(p, x, ramp(t))[:1],  # di/dt
        )

    def test_rlc_ramp_krasovskii_ports_pass(self):
        _, verdict = self._rlc_ramp_audit(1e-3)
        assert verdict["verdict"] == "PASS"

    def test_corrupted_storage_fails(self):
        p = ParallelRLC(R=1.0, G=2.0, L=1.0, C=1.0)
        ramp = lambda t: 0.5 * t
        cfg = IntegratorConfig(step=1e-3, max_time=4.0)
        traj = integrate(lambda t, x: prlc_rhs(p, x, ramp(t)), [0.2, -0.1], cfg)

        def bad_storage(t, x):
            xd = prlc_rhs(p, x, ramp(t))
            return -(0.5 * p.L * xd[0] ** 2 + 0.5 * p.C * xd[1] ** 2)

        _, verdict = passivity_audit(
            traj, storage=bad_storage,
            port_u=lambda t, x: np.array([0.5]),
            port_y=lambda t, x: prlc_rhs(p, x, ramp(t))[:1],
        )
        assert verdict["verdict"] == "FAIL"

    def test_pass_stable_under_step_refinement(self):
        for step in (2e-3, 1e-3, 5e-4):
            _, verdict = self._rlc_ramp_audit(step)
            assert verdict["verdict"] == "PASS"

    def test_trace_report_names_verdict_margin_and_time(self):
        trace, _ = self._rlc_ramp_audit(1e-2)
        assert set(trace.report()) == {"verdict", "min_margin", "worst_time"}


class TestLyapunovAudit:
    def test_nonincreasing_values_pass_with_zero_margin(self):
        audit = lyapunov_audit([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 2.0, 0.5])
        assert audit == {"verdict": "PASS", "min_margin": 0.0, "worst_time": 0.0}

    def test_rise_above_the_running_minimum_fails_at_its_worst_sample(self):
        # V rises 0.25 above its running minimum at t = 2 and 1.5 above it at t = 4
        audit = lyapunov_audit([0.0, 1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 1.25, 0.5, 2.0])
        assert audit == {"verdict": "FAIL", "min_margin": -1.5, "worst_time": 4.0}

    def test_an_infinite_value_fails_at_its_first_sample(self):
        # the slack scales with the finite values only, so inf cannot widen it
        audit = lyapunov_audit([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, np.inf, np.inf])
        assert audit == {"verdict": "FAIL", "min_margin": -np.inf, "worst_time": 2.0}

    def test_slack_scales_with_the_values(self):
        # default slack 1e-6 (1 + max |V|) forgives a rise of 1e-6 at |V| ~ 1
        assert lyapunov_audit([0.0, 1.0], [1.0, 1.0 + 1e-6])["verdict"] == "PASS"
        trace = StorageTrace([0.0, 1.0], [1.0, 1.0 + 1e-6], [0.0, 0.0])
        assert trace.report(0.0)["verdict"] == "FAIL"
