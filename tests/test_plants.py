import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from oracles import (
    check_consistency,
    finite_diff_gradient,
    reference_hvac_dyn_feedback_rhs,
    reference_hvac_power_shaping_rhs,
    reference_prlc_krasovskii_pi_rhs,
    reference_prlc_power_shaping_rhs,
)

from passiflow.brayton_moser import passivity_audit
from passiflow.ode import DivergenceError, IntegratorConfig, integrate
from passiflow.plants import (
    CertificateUnavailable,
    CompleteRLC,
    DynFeedbackSystem,
    HvacParams,
    ParallelRLC,
    RankDeficientInput,
    complete_rlc_bm,
    complete_rlc_rhs,
    complete_rlc_storage,
    dyn_feedback_alpha,
    dyn_feedback_control,
    dyn_feedback_loop,
    dyn_feedback_rhs,
    hvac_bm,
    hvac_dyn_feedback,
    hvac_equilibrium,
    hvac_gamma,
    hvac_power_shaping,
    hvac_power_shaping_loop,
    hvac_rhs,
    hvac_shaped_potential,
    hvac_shaping_offsets,
    prlc_bm,
    prlc_equilibrium,
    prlc_krasovskii_pi,
    prlc_krasovskii_pi_loop,
    prlc_power_shaping,
    prlc_power_shaping_loop,
    prlc_rhs,
)
from passiflow.primal_dual import ScalarOracle


def monotone_nonincreasing(values, tol=1e-6):
    v = np.asarray(values)
    return np.all(np.diff(v) <= tol * (1.0 + np.abs(v[:-1])))


GOOD_RLC = ParallelRLC(R=1.0, G=2.0, L=1.0, C=1.0)   # G^2 L >= C
BAD_RLC = ParallelRLC(R=1.0, G=0.5, L=1.0, C=1.0)    # G^2 L < C


class TestParallelRLC:
    def test_rhs_zero_at_equilibrium(self):
        i_star, Vs_star = prlc_equilibrium(GOOD_RLC, v_star=1.5)
        rates = prlc_rhs(GOOD_RLC, [i_star, 1.5], Vs_star)
        assert np.max(np.abs(rates)) < 1e-12

    def test_rhs_unit_substitution(self):
        p = ParallelRLC(R=1.0, G=1.0, L=1.0, C=1.0)
        assert np.allclose(prlc_rhs(p, [0.0, 0.0], 1.0), [1.0, 0.0])

    def test_rhs_matches_pseudo_gradient_form(self):
        rng = np.random.default_rng(0)
        bm = prlc_bm(GOOD_RLC)
        for _ in range(20):
            x = rng.normal(size=2)
            Vs = rng.normal()
            assert np.max(np.abs(bm.xdot(x, [Vs]) - prlc_rhs(GOOD_RLC, x, Vs))) < 1e-10

    def test_bm_oracles_self_consistent(self):
        bm = prlc_bm(GOOD_RLC)
        rep = check_consistency(bm, np.array([0.7, -0.4]))
        assert rep["grad_ok"] and rep["hess_ok"]

    def test_equilibrium_values(self):
        assert prlc_equilibrium(GOOD_RLC, 0.0) == (0.0, 0.0)
        p = ParallelRLC(R=1.0, G=0.5, L=1.0, C=1.0)
        i_star, Vs_star = prlc_equilibrium(p, 2.0)
        assert i_star == pytest.approx(1.0)
        assert Vs_star == pytest.approx(3.0)

    def test_closed_loop_settles_at_equilibrium_formula(self):
        i_star, Vs_star = prlc_equilibrium(GOOD_RLC, 1.0)
        rhs, _ = prlc_power_shaping_loop(GOOD_RLC, i_star, K=1.0)
        traj = integrate(rhs, [0.0, 0.0], IntegratorConfig(step=1e-2, max_time=60.0))
        assert np.max(np.abs(traj.final_state - [i_star, 1.0])) < 1e-9


class TestPowerShaping:
    def test_equilibrium_consistency(self):
        i_star, Vs_star = prlc_equilibrium(GOOD_RLC, 1.0)
        assert prlc_power_shaping(GOOD_RLC, [i_star, 1.0], i_star, K=2.0) \
            == pytest.approx(Vs_star)

    def test_zero_gain_is_feedforward(self):
        i_star, _ = prlc_equilibrium(GOOD_RLC, 1.0)
        val = prlc_power_shaping(GOOD_RLC, [5.0, -3.0], i_star, K=0.0)
        assert val == pytest.approx((GOOD_RLC.R + 1 / GOOD_RLC.G) * i_star)

    def test_warns_when_certificate_unavailable(self):
        with pytest.warns(CertificateUnavailable):
            prlc_power_shaping(BAD_RLC, [0.0, 0.0], 0.5, K=1.0)

    def test_loop_warns_once_when_built_and_never_while_running(self):
        i_star, _ = prlc_equilibrium(BAD_RLC, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rhs, _ = prlc_power_shaping_loop(BAD_RLC, i_star, K=1.0)
            assert [w.category for w in caught] == [CertificateUnavailable]
            assert caught[0].filename == __file__
            traj = integrate(rhs, [0.0, 0.0], IntegratorConfig(step=1e-2, max_time=1.0))
        assert traj.stats.rk4_steps == 100
        assert len(caught) == 1

    def test_loop_refuses_a_negative_gain_when_built(self):
        with pytest.raises(ValueError, match="K must be >= 0"):
            prlc_power_shaping_loop(GOOD_RLC, 2.0, K=-1.0)

    def test_shaped_potential_monotone_along_loop(self):
        i_star, _ = prlc_equilibrium(GOOD_RLC, 1.0)
        rhs, lyap = prlc_power_shaping_loop(GOOD_RLC, i_star, K=1.0)
        traj = integrate(rhs, [-0.5, 0.8], IntegratorConfig(step=1e-2, max_time=40.0))
        V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
        assert monotone_nonincreasing(V)

    def test_converges_from_twenty_random_starts(self):
        rng = np.random.default_rng(1)
        i_star, _ = prlc_equilibrium(GOOD_RLC, 1.0)
        rhs, lyap = prlc_power_shaping_loop(GOOD_RLC, i_star, K=1.0)
        for _ in range(20):
            x0 = rng.uniform(-2.0, 2.0, size=2)
            traj = integrate(rhs, x0, IntegratorConfig(step=1e-2, max_time=60.0,
                                                       record_every=20), floats=True)
            assert np.max(np.abs(traj.final_state - [i_star, 1.0])) < 1e-6
            V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
            assert monotone_nonincreasing(V)


class TestKrasovskiiPI:
    def test_equilibrium_consistency(self):
        i_star, Vs_star = prlc_equilibrium(BAD_RLC, 1.0)
        Vs, zdot = prlc_krasovskii_pi(BAD_RLC, [i_star, 1.0], 0.0, i_star, 1.0,
                                      K_P=1.0, K_I=1.0)
        assert Vs == pytest.approx(Vs_star)
        assert zdot == pytest.approx(0.0)

    def test_loop_refuses_a_negative_gain_when_built(self):
        with pytest.raises(ValueError, match="K_P and K_I must be >= 0"):
            prlc_krasovskii_pi_loop(BAD_RLC, 0.5, 1.0, K_P=1.0, K_I=-1.0)

    def test_converges_without_parameter_condition(self):
        # the shaped-pair condition fails here, the PI law still stabilizes
        assert not BAD_RLC.admissible_certificate_holds
        i_star, _ = prlc_equilibrium(BAD_RLC, 1.0)
        rhs, lyap = prlc_krasovskii_pi_loop(BAD_RLC, i_star, 1.0, K_P=1.0, K_I=1.0)
        traj = integrate(rhs, [0.0, 0.0, 0.0],
                         IntegratorConfig(step=1e-2, max_time=80.0))
        assert np.max(np.abs(traj.final_state[:2] - [i_star, 1.0])) < 1e-6

    def test_storage_audit_passes_along_loop(self):
        i_star, _ = prlc_equilibrium(BAD_RLC, 1.0)
        rhs, lyap = prlc_krasovskii_pi_loop(BAD_RLC, i_star, 1.0, K_P=1.0, K_I=1.0)
        traj = integrate(rhs, [0.5, -0.5, 0.0],
                         IntegratorConfig(step=1e-2, max_time=80.0, record_every=5))
        V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
        assert monotone_nonincreasing(V)

    def test_converges_from_twenty_random_starts(self):
        rng = np.random.default_rng(2)
        i_star, _ = prlc_equilibrium(BAD_RLC, 1.0)
        rhs, lyap = prlc_krasovskii_pi_loop(BAD_RLC, i_star, 1.0, K_P=1.0, K_I=1.0)
        for _ in range(20):
            x0 = np.concatenate([rng.uniform(-2.0, 2.0, size=2), [0.0]])
            traj = integrate(rhs, x0, IntegratorConfig(step=1e-2, max_time=120.0,
                                                       record_every=20), floats=True)
            assert np.max(np.abs(traj.final_state[:2] - [i_star, 1.0])) < 1e-5
            V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
            assert monotone_nonincreasing(V)


def quadratic_resistor(coeff, n=1):
    return ScalarOracle(
        value=lambda x: float(0.5 * coeff * x @ x),
        grad=lambda x: coeff * x,
        hess=lambda x: coeff * np.eye(n),
    )


def _complete_rlc(**changes):
    net = {"L": np.eye(2), "C": np.eye(1), "Gamma": np.ones((2, 1)),
           "content": quadratic_resistor(0.5, 2), "cocontent": quadratic_resistor(0.8),
           "Bs": np.ones((2, 1))}
    return CompleteRLC(**{**net, **changes})


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: ParallelRLC(R=0.0), ValueError,
                 "all RLC parameters must be strictly positive", id="ParallelRLC"),
    pytest.param(lambda: prlc_krasovskii_pi(ParallelRLC(), (0.0, 0.0), 0.0, 1.0, 1.0, -1.0, 1.0),
                 ValueError, "K_P and K_I must be >= 0", id="prlc_krasovskii_pi"),
    pytest.param(lambda: _complete_rlc(L=-np.eye(2)), ValueError,
                 "L must be positive definite", id="CompleteRLC-L"),
    pytest.param(lambda: _complete_rlc(Gamma=np.ones((1, 1))), ValueError,
                 "Gamma must be n_L x n_C", id="CompleteRLC-Gamma"),
    pytest.param(lambda: _complete_rlc(Bs=np.ones((1, 1))), ValueError,
                 "Bs must have n_L rows", id="CompleteRLC-Bs"),
    pytest.param(lambda: HvacParams(C1=0.0), ValueError,
                 "capacitances, resistances and c_p must be positive", id="HvacParams"),
    pytest.param(lambda: hvac_power_shaping(HvacParams(), np.full(4, 5.0), np.zeros(4),
                                            (2.5, 6.0), 0.0, 1.0, 1.0, 1.0),
                 ValueError, "k, k1, k2 must be > 0 and alpha >= 0", id="hvac_power_shaping-k"),
    pytest.param(lambda: hvac_power_shaping(HvacParams(), np.array([10.0, 5.0, 16.0, 16.0]),
                                            np.zeros(4), (2.5, 6.0), 1.0, 1.0, 1.0, 1.0),
                 ValueError, "zone temperature equals supply temperature",
                 id="hvac_power_shaping-zone"),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestCompleteRLC:
    def make_scalar_network(self):
        return CompleteRLC(
            L=np.array([[2.0]]),
            C=np.array([[3.0]]),
            Gamma=np.array([[1.0]]),
            content=quadratic_resistor(0.5),
            cocontent=quadratic_resistor(0.8),
            Bs=np.array([[1.0]]),
        )

    def test_zero_state_zero_input_gives_zero_rates(self):
        net = self.make_scalar_network()
        assert np.max(np.abs(complete_rlc_rhs(net, np.zeros(2), [0.0]))) == 0.0

    def test_scalar_network_matches_hand_expansion(self):
        net = self.make_scalar_network()
        rng = np.random.default_rng(3)
        for _ in range(10):
            i, v = rng.normal(size=2)
            Vs = rng.normal()
            expect = np.array([(Vs - v - 0.5 * i) / 2.0, (i - 0.8 * v) / 3.0])
            assert np.allclose(complete_rlc_rhs(net, [i, v], [Vs]), expect)

    def test_reduces_to_parallel_rlc(self):
        p = GOOD_RLC
        net = CompleteRLC(
            L=np.array([[p.L]]),
            C=np.array([[p.C]]),
            Gamma=np.array([[1.0]]),
            content=quadratic_resistor(p.R),
            cocontent=quadratic_resistor(p.G),
            Bs=np.array([[1.0]]),
        )
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=2)
            Vs = rng.normal()
            assert np.allclose(complete_rlc_rhs(net, x, [Vs]), prlc_rhs(p, x, Vs))

    def test_bm_form_matches_rhs(self):
        net = CompleteRLC(
            L=np.array([[2.0, 0.3], [0.3, 1.5]]),
            C=np.array([[3.0]]),
            Gamma=np.array([[1.0], [-1.0]]),
            content=quadratic_resistor(0.5, 2),
            cocontent=quadratic_resistor(0.8),
            Bs=np.array([[1.0], [0.0]]),
        )
        bm = complete_rlc_bm(net)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=3)
            Vs = rng.normal(size=1)
            assert np.max(np.abs(bm.xdot(x, Vs) - complete_rlc_rhs(net, x, Vs))) < 1e-10
        rep = check_consistency(bm, rng.normal(size=3))
        assert rep["grad_ok"] and rep["hess_ok"]

    def test_passivity_audit_under_ramp_source(self):
        net = self.make_scalar_network()
        ramp = lambda t: 0.4 * t
        cfg = IntegratorConfig(step=1e-3, max_time=5.0)
        traj = integrate(lambda t, x: complete_rlc_rhs(net, x, [ramp(t)]),
                         [0.3, -0.2], cfg)
        trace, verdict = passivity_audit(
            traj,
            storage=lambda t, x: complete_rlc_storage(
                net, complete_rlc_rhs(net, x, [ramp(t)])),
            port_u=lambda t, x: np.array([0.4]),
            port_y=lambda t, x: net.Bs.T @ complete_rlc_rhs(net, x, [ramp(t)])[:1],
        )
        assert verdict["verdict"] == "PASS"

    def test_storage_nonnegative_zero_only_at_rest(self):
        net = self.make_scalar_network()
        rng = np.random.default_rng(6)
        for _ in range(10):
            rates = rng.normal(size=2)
            assert complete_rlc_storage(net, rates) > 0.0
        assert complete_rlc_storage(net, np.zeros(2)) == 0.0


class TestHvacModel:
    def test_uniform_temperature_no_flow_is_stationary(self):
        h = HvacParams(T_s=30.0, T_inf=30.0)
        T = np.full(4, 30.0)
        assert np.max(np.abs(hvac_rhs(h, T, np.zeros(2)))) == 0.0

    def test_grad_P_matches_finite_differences(self):
        h = HvacParams()
        bm = hvac_bm(h)
        rng = np.random.default_rng(7)
        for _ in range(10):
            T = rng.uniform(-5.0, 35.0, size=4)
            fd = finite_diff_gradient(bm.P, T, 1e-6)
            scale = 1.0 + np.max(np.abs(fd))
            assert np.max(np.abs(bm.grad_P(T) - fd)) / scale < 1e-6

    def test_bm_form_matches_rhs(self):
        h = HvacParams()
        bm = hvac_bm(h)
        rng = np.random.default_rng(8)
        for _ in range(10):
            T = rng.uniform(-5.0, 35.0, size=4)
            u = rng.normal(size=2)
            assert np.max(np.abs(bm.xdot(T, u) - hvac_rhs(h, T, u))) < 1e-10

    def test_equilibrium_flows_hold_all_nodes(self):
        h = HvacParams()
        T_star, u_star = hvac_equilibrium(h, 2.5, 6.0)
        assert np.max(np.abs(hvac_rhs(h, T_star, u_star))) < 1e-12

    def test_target_equal_to_supply_rejected(self):
        h = HvacParams()
        with pytest.raises(ValueError):
            hvac_equilibrium(h, h.T_s, 6.0)


class TestHvacPowerShaping:
    def test_control_at_target_is_equilibrium_flow(self):
        h = HvacParams()
        T_star, u_star = hvac_equilibrium(h, 2.5, 6.0)
        u = hvac_power_shaping(h, T_star, np.zeros(4), (2.5, 6.0),
                               k=1.0, k1=2.0, k2=3.0, alpha=0.7)
        assert np.max(np.abs(u - u_star)) < 1e-10

    def test_zero_alpha_drops_damping_term(self):
        h = HvacParams()
        rng = np.random.default_rng(9)
        T = rng.uniform(0.0, 9.0, size=4)
        Td = rng.normal(size=4)
        u_without = hvac_power_shaping(h, T, Td, (2.5, 6.0), 1.0, 1.0, 1.0, 0.0)
        u_still = hvac_power_shaping(h, T, np.zeros(4), (2.5, 6.0), 1.0, 1.0, 1.0, 0.0)
        assert np.allclose(u_without, u_still)

    def test_closed_loop_converges_with_monotone_potential(self):
        h = HvacParams()
        T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
        rhs, lyap = hvac_power_shaping_loop(h, (2.5, 6.0), 1.0, 10.0, 10.0, 10.0)
        traj = integrate(rhs, [4.0, 5.0, 16.0, 16.0],
                         IntegratorConfig(step=0.05, max_time=1500.0, record_every=100))
        assert np.max(np.abs(traj.final_state[:2] - [2.5, 6.0])) < 1e-4
        V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
        assert monotone_nonincreasing(V)

    def test_shaped_potential_is_stationary_at_the_target(self):
        h = HvacParams()
        gains = (2.0, 10.0, 5.0)
        T_star, _, a = hvac_shaping_offsets(h, (2.5, 6.0), *gains)
        grad = finite_diff_gradient(lambda T: hvac_shaped_potential(h, T, a, *gains),
                                    T_star, 1e-6)
        assert np.max(np.abs(grad)) < 1e-6
        _, lyap = hvac_power_shaping_loop(h, (2.5, 6.0), *gains, 1.0)
        T = T_star + np.array([0.3, -0.2, 1.0, 0.5])
        assert lyap(0.0, T) == hvac_shaped_potential(h, T, a, *gains)

    def test_lyapunov_is_the_shaped_potential(self):
        h = HvacParams()
        _, lyap = hvac_power_shaping_loop(h, (2.5, 6.0), 1.0, 10.0, 10.0, 10.0)
        T = np.array([4.0, 5.0, 16.0, 16.0])
        values = [lyap(0.0, T + 0.1 * k) for k in range(10)]
        _, _, a = hvac_shaping_offsets(h, (2.5, 6.0), 1.0, 10.0, 10.0)
        assert values == [hvac_shaped_potential(h, T + 0.1 * k, a, 1.0, 10.0, 10.0)
                          for k in range(10)]

    @pytest.mark.parametrize("k, k1, k2, alpha", [
        (0.0, 10.0, 10.0, 10.0), (1.0, 0.0, 10.0, 10.0), (1.0, 10.0, 0.0, 10.0),
        (-1.0, 10.0, 10.0, 10.0), (1.0, 10.0, 10.0, -1.0),
    ])
    def test_loop_refuses_the_gains_the_law_refuses(self, k, k1, k2, alpha):
        h = HvacParams()
        T = np.array([4.0, 5.0, 16.0, 16.0])
        with pytest.raises(ValueError) as law:
            hvac_power_shaping(h, T, np.zeros(4), (2.5, 6.0), k, k1, k2, alpha)
        with pytest.raises(ValueError) as loop:
            hvac_power_shaping_loop(h, (2.5, 6.0), k, k1, k2, alpha)
        assert str(loop.value) == str(law.value)

    def test_converges_from_twenty_random_starts(self):
        h = HvacParams()
        rhs, lyap = hvac_power_shaping_loop(h, (2.5, 6.0), 1.0, 10.0, 10.0, 10.0)
        rng = np.random.default_rng(10)
        for _ in range(20):
            T0 = np.concatenate([rng.uniform(1.0, 7.0, 2), rng.uniform(2.0, 20.0, 2)])
            traj = integrate(rhs, T0, IntegratorConfig(step=0.05, max_time=400.0,
                                                       record_every=100), floats=True)
            assert np.max(np.abs(traj.final_state[:2] - [2.5, 6.0])) < 1e-2
            V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
            assert monotone_nonincreasing(V)


class TestDynFeedback:
    def setup_method(self):
        self.h = HvacParams()
        self.sys = hvac_dyn_feedback(self.h)
        self.T_star, self.u_star = hvac_equilibrium(self.h, 2.5, 6.0)

    def test_assumptions_hold_on_operating_box(self):
        rng = np.random.default_rng(11)
        samples = [rng.uniform(0.0, 9.0, size=4) for _ in range(50)]
        rep = self.sys.check_assumptions(samples)
        assert rep["A1"] and rep["A2"] and rep["A3"]

    def test_assumption_failures_are_reported(self):
        # g(x) = [1, x0]^T has the one-dimensional left null space
        # [-x0, 1] / sqrt(1 + x0^2), so the residual does not depend on the basis.
        sys_bad = DynFeedbackSystem(
            n=2, m=1,
            f=lambda x: -x, jac_f=lambda x: -np.eye(2),
            g=lambda x: np.array([[1.0], [x[0]]]),
            jac_g=lambda x, k: np.array([[0.0, 0.0], [1.0, 0.0]]),
            M=np.eye(2),
        )
        rep = sys_bad.check_assumptions([np.array([0.5, 1.0]), np.array([2.0, -1.0])])
        assert rep["A1"]
        assert abs(rep["annihilator_residual"] - 1.0 / np.sqrt(1.25)) <= 1e-12
        assert not rep["A2"]
        assert rep["integrability_residual"] == 1.0
        assert not rep["A3"]

    def test_constant_input_matrix_gives_zero_alpha(self):
        sys_const = DynFeedbackSystem(
            n=2, m=1,
            f=lambda x: -x, jac_f=lambda x: -np.eye(2),
            g=lambda x: np.array([[1.0], [0.0]]),
            jac_g=lambda x, k: np.zeros((2, 2)),
            M=np.eye(2),
        )
        alpha = dyn_feedback_alpha(sys_const, np.ones(2), np.ones(2))
        assert np.max(np.abs(alpha)) == 0.0

    def test_alpha_closed_form_for_hvac(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            T = rng.uniform(0.0, 9.0, size=4)
            Td = rng.normal(size=4)
            alpha = dyn_feedback_alpha(self.sys, T, Td)
            expect = np.diag([Td[0] / (self.h.T_s - T[0]), Td[1] / (self.h.T_s - T[1])])
            assert np.max(np.abs(alpha - expect)) < 1e-10

    def test_alpha_annihilation_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            T = rng.uniform(0.0, 9.0, size=4)
            Td = rng.normal(size=4)
            alpha = dyn_feedback_alpha(self.sys, T, Td)
            g = self.sys.g(T)
            gdot = np.column_stack([self.sys.jac_g(T, k) @ Td for k in range(2)])
            assert np.max(np.abs(gdot + g @ alpha)) <= 1e-10

    def test_rank_deficient_input_rejected(self):
        sys_bad = DynFeedbackSystem(
            n=2, m=1,
            f=lambda x: -x, jac_f=lambda x: -np.eye(2),
            g=lambda x: np.zeros((2, 1)),
            jac_g=lambda x, k: np.zeros((2, 2)),
            M=np.eye(2),
        )
        with pytest.raises(ValueError, match="rank deficient"):
            dyn_feedback_alpha(sys_bad, np.ones(2), np.ones(2))

    def test_closed_form_alpha_rejects_a_zone_at_the_supply_temperature(self):
        # the Gram solve, and the closed-form zone alpha of the loop's rhs
        T = np.array([self.h.T_s, 5.0, 16.0, 16.0])
        with pytest.raises(ValueError, match="rank deficient"):
            dyn_feedback_alpha(self.sys, T, np.ones(4))
        rhs, _ = dyn_feedback_loop(self.sys, self.T_star, 1.0, 2.0, 5.0)
        with pytest.raises(RankDeficientInput, match="rank deficient"):
            rhs(0.0, np.concatenate([T, [0.3, -0.2]]))

    def test_loop_rhs_evaluates_the_input_matrix_once(self):
        calls = []

        def counted_g(T):
            calls.append(1)
            return self.sys.g(T)

        # the generic path: the closed-form loop evaluates no g matrix
        sys_counted = dataclasses.replace(self.sys, g=counted_g, loop_rhs=None)
        rhs, _ = dyn_feedback_loop(sys_counted, self.T_star, 1.0, 2.0, 5.0)
        rhs(0.0, np.array([4.0, 5.0, 16.0, 16.0, 0.3, -0.2]))
        assert len(calls) == 1

    @pytest.mark.parametrize("k1, kd, ki", [(0.0, 2.0, 5.0), (1.0, -1.0, 5.0), (1.0, 2.0, 0.0)])
    def test_loop_refuses_the_gains_the_control_law_refuses(self, k1, kd, ki):
        x = np.array([4.0, 5.0, 16.0, 16.0])
        with pytest.raises(ValueError) as law:
            dyn_feedback_control(self.sys, x, np.zeros(4), self.T_star, k1, kd, ki)
        with pytest.raises(ValueError) as loop:
            dyn_feedback_loop(self.sys, self.T_star, k1, kd, ki)
        assert str(loop.value) == str(law.value)

    def test_loop_rhs_is_the_feedback_rhs_under_the_control_law(self):
        k1, kd, ki = 1.5, 2.0, 5.0
        rhs, _ = dyn_feedback_loop(self.sys, self.T_star, k1, kd, ki)
        rng = np.random.default_rng(20)
        for _ in range(20):
            z = np.concatenate([rng.uniform(0.0, 9.0, 2), rng.uniform(2.0, 20.0, 2),
                                rng.normal(size=2)])
            x, u = z[:4], z[4:]
            xdot = self.sys.f(x) + self.sys.g(x) @ u
            vd = dyn_feedback_control(self.sys, x, xdot, self.T_star, k1, kd, ki)
            xd, ud, _ = dyn_feedback_rhs(self.sys, x, u, vd)
            assert np.array_equal(rhs(0.0, z), np.concatenate([xd, ud]))

    def test_rest_at_equilibrium_stays(self):
        xd, ud, y = dyn_feedback_rhs(self.sys, self.T_star, self.u_star, np.zeros(2))
        assert np.max(np.abs(xd)) < 1e-12
        assert np.max(np.abs(ud)) < 1e-12
        assert np.max(np.abs(y)) < 1e-12

    def test_feedback_state_rate_matches_expanded_form(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            T = rng.uniform(0.0, 9.0, size=4)
            u = rng.normal(size=2)
            vd = rng.normal(size=2)
            xd, ud, _ = dyn_feedback_rhs(self.sys, T, u, vd)
            expect = np.array([
                (u[0] / (self.h.T_s - T[0]) - self.h.c_p * (self.h.T_s - T[0])) * xd[0] + vd[0],
                (u[1] / (self.h.T_s - T[1]) - self.h.c_p * (self.h.T_s - T[1])) * xd[1] + vd[1],
            ])
            assert np.max(np.abs(ud - expect)) < 1e-10

    def test_passivity_audit_under_random_vdot(self):
        rng = np.random.default_rng(15)
        steps = rng.normal(size=20) * 0.3

        def vdot_sig(t):
            k = min(int(t), 19)
            return np.array([steps[k], -steps[19 - k]])

        def rhs(t, z):
            xd, ud, _ = dyn_feedback_rhs(self.sys, z[:4], z[4:], vdot_sig(t))
            return np.concatenate([xd, ud])

        z0 = np.concatenate([[4.0, 5.0, 16.0, 16.0], [0.0, 0.0]])
        traj = integrate(rhs, z0, IntegratorConfig(step=0.01, max_time=20.0))
        M = self.sys.M

        def xdot_of(z):
            return self.sys.f(z[:4]) + self.sys.g(z[:4]) @ z[4:]

        trace, verdict = passivity_audit(
            traj,
            storage=lambda t, z: 0.5 * xdot_of(z) @ M @ xdot_of(z),
            port_u=lambda t, z: vdot_sig(t),
            port_y=lambda t, z: self.sys.g(z[:4]).T @ M @ xdot_of(z),
        )
        assert verdict["verdict"] == "PASS"

    def test_control_is_zero_at_rest_target(self):
        vd = dyn_feedback_control(self.sys, self.T_star, np.zeros(4), self.T_star,
                                  k1=1.0, kd=2.0, ki=5.0)
        assert np.max(np.abs(vd)) == 0.0

    def test_control_matches_published_port_law(self):
        # with k1 = 1 the law reads
        # vdot_i = -kd c_p (T_s - T_i) Tdot_i + ki c_p ((T_s - T_i)^2 - a_i)/2,
        # a_i = (T_i* - T_s)^2
        rng = np.random.default_rng(16)
        kd, ki = 0.7, 1.3
        a = (self.T_star[:2] - self.h.T_s) ** 2
        for _ in range(10):
            T = rng.uniform(0.0, 9.0, size=4)
            u = rng.normal(size=2)
            xd = self.sys.f(T) + self.sys.g(T) @ u
            vd = dyn_feedback_control(self.sys, T, xd, self.T_star, 1.0, kd, ki)
            expect = np.array([
                -kd * self.h.c_p * (self.h.T_s - T[0]) * xd[0]
                + 0.5 * ki * self.h.c_p * ((self.h.T_s - T[0]) ** 2 - a[0]),
                -kd * self.h.c_p * (self.h.T_s - T[1]) * xd[1]
                + 0.5 * ki * self.h.c_p * ((self.h.T_s - T[1]) ** 2 - a[1]),
            ])
            assert np.max(np.abs(vd - expect)) < 1e-10

    def test_numeric_gamma_matches_closed_form_differences(self):
        sys_numeric = DynFeedbackSystem(
            n=4, m=2,
            f=self.sys.f, jac_f=self.sys.jac_f,
            g=self.sys.g, jac_g=self.sys.jac_g,
            M=self.sys.M,
        )
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(0.0, 9.0, size=4)
            diff_numeric = sys_numeric.gamma_value(x) - sys_numeric.gamma_value(self.T_star)
            diff_closed = hvac_gamma(self.h, x) - hvac_gamma(self.h, self.T_star)
            assert np.max(np.abs(diff_numeric - diff_closed)) < 1e-8

    def test_closed_loop_dissipation_rate_bound(self):
        # dV_d/dt <= -kd |y|^2 along the loop, checked discretely
        kd, ki = 2.0, 5.0
        rhs, lyap = dyn_feedback_loop(self.sys, self.T_star, 1.0, kd, ki)
        z0 = np.concatenate([[4.0, 5.0, 16.0, 16.0], [0.0, 0.0]])
        traj = integrate(rhs, z0, IntegratorConfig(step=0.02, max_time=40.0))
        V = np.array([lyap(t, z) for t, z in zip(traj.times, traj.states)])
        y_sq = []
        for z in traj.states:
            xd = self.sys.f(z[:4]) + self.sys.g(z[:4]) @ z[4:]
            y = self.sys.g(z[:4]).T @ self.sys.M @ xd
            y_sq.append(y @ y)
        y_sq = np.array(y_sq)
        dt = np.diff(traj.times)
        dV = np.diff(V)
        bound = -kd * 0.5 * (y_sq[1:] + y_sq[:-1]) * dt
        assert np.all(dV <= bound + 1e-6 * (1.0 + np.abs(V[:-1])))

    def test_closed_loop_converges_with_monotone_storage(self):
        rhs, lyap = dyn_feedback_loop(self.sys, self.T_star, 1.0, 2.0, 5.0)
        z0 = np.concatenate([[4.0, 5.0, 16.0, 16.0], [0.0, 0.0]])
        traj = integrate(rhs, z0, IntegratorConfig(step=0.05, max_time=1500.0,
                                                   record_every=100))
        assert np.max(np.abs(traj.final_state[:2] - [2.5, 6.0])) < 1e-4
        V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
        assert monotone_nonincreasing(V)

    def test_converges_from_twenty_random_starts(self):
        rhs, lyap = dyn_feedback_loop(self.sys, self.T_star, 1.0, 2.0, 5.0)
        rng = np.random.default_rng(18)
        for _ in range(20):
            z0 = np.concatenate([rng.uniform(1.0, 7.0, 2),
                                 rng.uniform(2.0, 20.0, 2), [0.0, 0.0]])
            traj = integrate(rhs, z0, IntegratorConfig(step=0.05, max_time=300.0,
                                                       record_every=100), floats=True)
            assert np.max(np.abs(traj.final_state[:2] - [2.5, 6.0])) < 1e-3
            V = [lyap(t, z) for t, z in zip(traj.times, traj.states)]
            assert monotone_nonincreasing(V)

    def test_endpoint_insensitive_to_feedback_state_start(self):
        # contraction forgets the controller initial condition
        rhs, _ = dyn_feedback_loop(self.sys, self.T_star, 1.0, 2.0, 5.0)
        finals = []
        for u0 in ([0.0, 0.0], [1.0, -1.0]):
            z0 = np.concatenate([[4.0, 5.0, 16.0, 16.0], u0])
            traj = integrate(rhs, z0, IntegratorConfig(step=0.05, max_time=600.0,
                                                       record_every=200))
            finals.append(traj.final_state)
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-4


def assert_same_bits(got, ref):
    """Equal values, NaN where NaN, and the sign of every zero.  A NaN's sign
    bit is not compared: no artifact shows it."""
    assert np.array_equal(got, ref, equal_nan=True)
    num = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[num]), np.signbit(ref[num]))


def bit_probes(rng, base, zero_slots):
    """States around ``base``: seeded draws at magnitudes from the subnormal
    range to 1e150, each component of ``base`` in turn +-inf or NaN, and
    every pattern of +-0.0 over the components ``zero_slots``."""
    n = base.size
    for k, bad in itertools.product(range(n), (np.inf, -np.inf, np.nan)):
        x = base.copy()
        x[k] = bad
        yield x
    for _ in range(200):
        yield base + rng.normal(size=n) * rng.uniform(0.1, 3.0)
    for exp in range(-300, 151, 25):
        yield rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(exp - 25, exp, size=n)
        yield base + rng.normal(size=n) * 10.0 ** exp
    for signs in itertools.product((0.0, -0.0), repeat=len(zero_slots)):
        for x in (base.copy(), base + rng.normal(size=n)):
            x[list(zero_slots)] = signs
            yield x


def cli_loops():
    """The four loops the CLI plant kind runs, by name, each with seeded starts
    (signed zeros among them) and a config as the CLI's own runs use."""
    h = HvacParams()
    T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
    rng = np.random.default_rng(36)
    rlc = [rng.uniform(-2.0, 2.0, 2) for _ in range(4)] + [np.array([-0.0, 0.0])]
    zones = [np.concatenate([rng.uniform(1.0, 7.0, 2), rng.uniform(2.0, 20.0, 2)])
             for _ in range(4)] + [np.array([2.5, 6.0, -0.0, 0.0])]
    i_good, _ = prlc_equilibrium(GOOD_RLC, 1.0)
    i_bad, _ = prlc_equilibrium(BAD_RLC, 1.0)
    cfg = IntegratorConfig(step=0.01, max_time=10.005, record_every=20)
    return {
        "prlc-power_shaping": (prlc_power_shaping_loop(GOOD_RLC, i_good, K=1.0)[0], rlc, cfg),
        "prlc-krasovskii_pi": (prlc_krasovskii_pi_loop(BAD_RLC, i_bad, 1.0, K_P=1.0, K_I=1.0)[0],
                               [np.append(x, z) for x, z in zip(rlc, (0.0, -0.0) * 3)], cfg),
        "hvac-power_shaping": (hvac_power_shaping_loop(h, (2.5, 6.0), 1.0, 10.0, 10.0, 10.0)[0],
                               zones, cfg),
        "hvac-dyn_feedback": (dyn_feedback_loop(hvac_dyn_feedback(h), T_star, 1.0, 2.0, 5.0)[0],
                              [np.append(T, u) for T, u in zip(zones, ([0.0, -0.0], [0.3, -0.2])
                                                               * 3)], cfg),
    }


class TestFloatStepping:
    """The CLI steps its plant loops on floats (``integrate(floats=True)``),
    bit for bit as on arrays."""

    @pytest.mark.parametrize("name", list(cli_loops()))
    def test_float_path_equals_the_array_path_bitwise(self, name):
        rhs, starts, cfg = cli_loops()[name]
        for x0 in starts:
            ref = integrate(rhs, x0, cfg)
            got = integrate(rhs, x0, cfg, floats=True)
            assert np.array_equal(got.times, ref.times)
            assert_same_bits(got.states, ref.states)
            assert got.stats == ref.stats

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_unstable_step_diverges_at_the_same_state(self):
        # At step 5 a zone passes the range of a float's ** 2 on the way.
        rhs, starts, _ = cli_loops()["hvac-dyn_feedback"]
        cfg = IntegratorConfig(step=5.0, max_time=100.0)
        errors = []
        for floats in (False, True):
            with pytest.raises(DivergenceError) as err:
                integrate(rhs, starts[0], cfg, floats=floats)
            errors.append(err.value)
        assert errors[0].t == errors[1].t > 0.0
        assert_same_bits(errors[1].last_state, errors[0].last_state)

    def test_a_zone_at_the_supply_temperature_raises_on_both_paths(self):
        rhs, _, cfg = cli_loops()["hvac-dyn_feedback"]
        for floats in (False, True):
            with pytest.raises(RankDeficientInput):
                integrate(rhs, [HvacParams().T_s, 5.0, 16.0, 16.0, 0.3, -0.2], cfg,
                          floats=floats)


RLC_LOOPS = [
    (GOOD_RLC, 1.0, 1.0), (GOOD_RLC, 1.0, 0.0),
    (ParallelRLC(R=0.3, G=1.7, L=2.5, C=0.4), -0.6, 3.0),
]


class TestLoopClosedForms:
    """Each CLI plant loop's scalar rhs equals the matrix form it replaced bit
    for bit (``oracles.reference_*``)."""

    @pytest.mark.parametrize("p, v_star, K", RLC_LOOPS)
    def test_power_shaping_rhs_matches_the_reference_bitwise(self, p, v_star, K):
        i_star, _ = prlc_equilibrium(p, v_star)
        rhs, _ = prlc_power_shaping_loop(p, i_star, K)
        for x in bit_probes(np.random.default_rng(30), np.array([i_star, v_star]), (0, 1)):
            assert_same_bits(rhs(0.0, x), reference_prlc_power_shaping_rhs(p, x, i_star, K))

    @pytest.mark.parametrize("p, v_star, K_I", RLC_LOOPS)
    def test_krasovskii_pi_rhs_matches_the_reference_bitwise(self, p, v_star, K_I):
        i_star, _ = prlc_equilibrium(p, v_star)
        rhs, _ = prlc_krasovskii_pi_loop(p, i_star, v_star, 1.0, K_I)
        base = np.array([i_star, v_star, 0.0])
        for x in bit_probes(np.random.default_rng(31), base, (0, 1, 2)):
            assert_same_bits(rhs(0.0, x),
                             reference_prlc_krasovskii_pi_rhs(p, x, i_star, v_star, 1.0, K_I))

    @pytest.mark.parametrize("h, gains", [
        (HvacParams(), (1.0, 10.0, 10.0, 10.0)), (HvacParams(), (2.0, 3.0, 0.5, 0.0)),
        (HvacParams(T_s=-5.0, T_inf=-0.0), (1.0, 10.0, 10.0, 10.0)),
    ])
    def test_hvac_power_shaping_rhs_matches_the_reference_bitwise(self, h, gains):
        rhs, _ = hvac_power_shaping_loop(h, (2.5, 6.0), *gains)
        near = [np.nextafter(h.T_s, -np.inf), h.T_s, np.nextafter(h.T_s, np.inf)]
        probes = itertools.chain(
            bit_probes(np.random.default_rng(32), np.array([4.0, 5.0, 16.0, 16.0]), (0, 1, 2, 3)),
            (np.array([T0, 5.0, 16.0, 16.0]) for T0 in near),
        )
        for T in probes:
            assert_same_bits(rhs(0.0, T),
                             reference_hvac_power_shaping_rhs(h, T, (2.5, 6.0), *gains))

    @pytest.mark.parametrize("h, k1, kd, ki", [
        (HvacParams(), 1.0, 2.0, 5.0), (HvacParams(), 1.5, 0.0, 5.0),
        # T_inf = -0.0 and T_s < 0 let a zone's rate at u = 0 be -0.0
        (HvacParams(T_s=-5.0, T_inf=-0.0), 1.0, 2.0, 5.0),
    ])
    def test_hvac_dyn_feedback_rhs_matches_the_reference_bitwise(self, h, k1, kd, ki):
        T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
        rhs, _ = dyn_feedback_loop(hvac_dyn_feedback(h), T_star, k1, kd, ki)
        base = np.array([4.0, 5.0, 16.0, 16.0, 0.3, -0.2])
        # the zones on their targets with zero u = 0 rates, so y = 0, Gamma = Gamma*
        rest = np.array([2.5, 6.0, -25.0, -18.0, 0.0, 0.0])
        near = [np.nextafter(h.T_s, -np.inf), np.nextafter(h.T_s, np.inf)]
        probes = itertools.chain(
            bit_probes(np.random.default_rng(33), base, (4, 5)),
            bit_probes(np.random.default_rng(34), base, (0, 2, 3, 4, 5)),
            bit_probes(np.random.default_rng(35), rest, (4, 5)),
            (np.array([T0, 5.0, 16.0, 16.0, u0, -0.2]) for T0 in near for u0 in (0.0, -0.0)),
        )
        with np.errstate(all="ignore"):        # the reference's products past 1e300
            for z in probes:
                try:
                    ref = reference_hvac_dyn_feedback_rhs(h, z, T_star, k1, kd, ki)
                except RankDeficientInput:
                    with pytest.raises(RankDeficientInput):
                        rhs(0.0, z)
                    continue
                assert_same_bits(rhs(0.0, z), ref)

    def test_a_zone_at_the_supply_temperature_raises_in_both(self):
        h = HvacParams()
        T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
        rhs, _ = dyn_feedback_loop(hvac_dyn_feedback(h), T_star, 1.0, 2.0, 5.0)
        for z in ([h.T_s, 5.0, 16.0, 16.0, 0.3, -0.2], [4.0, h.T_s, 16.0, 16.0, 0.0, -0.0]):
            z = np.array(z)
            with pytest.raises(RankDeficientInput):
                reference_hvac_dyn_feedback_rhs(h, z, T_star, 1.0, 2.0, 5.0)
            with pytest.raises(RankDeficientInput):
                rhs(0.0, z)

    def test_a_nan_zone_entry_passes_on_in_both(self):
        h = HvacParams()
        T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
        rhs, _ = dyn_feedback_loop(hvac_dyn_feedback(h), T_star, 1.0, 2.0, 5.0)
        z = np.array([np.nan, 5.0, 16.0, 16.0, 0.3, -0.2])
        out = rhs(0.0, z)
        assert np.isnan(out[0]) and np.isnan(out[4])
        assert np.array_equal(out, reference_hvac_dyn_feedback_rhs(h, z, T_star, 1.0, 2.0, 5.0),
                              equal_nan=True)

    def test_a_square_past_the_float_range_overflows_as_numpy_does(self):
        # Python's float ** 2 raises OverflowError where numpy's gives inf
        h = HvacParams()
        T_star, _ = hvac_equilibrium(h, 2.5, 6.0)
        dyn, _ = dyn_feedback_loop(hvac_dyn_feedback(h), T_star, 1.0, 2.0, 5.0)
        shaped, _ = hvac_power_shaping_loop(h, (2.5, 6.0), 1.0, 10.0, 10.0, 10.0)
        with np.errstate(all="ignore"):
            for big in (1e200, -1e200):
                z = np.array([big, 5.0, 16.0, 16.0, 0.3, -0.2])
                assert np.array_equal(dyn(0.0, z),
                                      reference_hvac_dyn_feedback_rhs(h, z, T_star, 1.0, 2.0, 5.0),
                                      equal_nan=True)
                assert np.array_equal(
                    shaped(0.0, z[:4]),
                    reference_hvac_power_shaping_rhs(h, z[:4], (2.5, 6.0), 1.0, 10.0, 10.0, 10.0),
                    equal_nan=True)
