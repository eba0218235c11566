import numpy as np
import pytest
from oracles import svm_flow_rhs, two_point_svm

from passiflow.ode import IntegratorConfig
from passiflow.primal_dual import (FlowState, TimeConstants, interconnected_rhs, kkt_residual,
                                   prepare_flow, solve, storage_switch_audit)
from passiflow.svm import (
    DEFAULT_COV,
    DEFAULT_INTEGRATOR,
    DEFAULT_MEAN_A,
    DEFAULT_MEAN_B,
    Dataset,
    build_svm_problem,
    generate_gaussian_classes,
    support_vectors,
    train_svm,
)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: Dataset(np.zeros((2, 2)), np.array([1.0])), ValueError,
                 "points must be (2N, 2) with matching labels", id="Dataset-shape"),
    pytest.param(lambda: Dataset(np.array([[0.0, np.inf], [1.0, 1.0]]), np.array([1.0, -1.0])),
                 ValueError, "points must be finite", id="Dataset-finite"),
    pytest.param(lambda: Dataset(np.zeros((2, 2)), np.array([1.0, 0.0])), ValueError,
                 "labels must be +1/-1", id="Dataset-labels"),
    pytest.param(lambda: generate_gaussian_classes(seed=0, cov=[[1.0, 0.5], [0.0, 1.0]]),
                 ValueError, "cov must be symmetric 2x2", id="generate_gaussian_classes"),
    pytest.param(lambda: build_svm_problem(Dataset(np.zeros((0, 2)), np.zeros(0))),
                 ValueError, "dataset must be nonempty", id="build_svm_problem"),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


class TestDataGeneration:
    def test_paper_scale_defaults(self):
        data = generate_gaussian_classes(seed=0)
        assert data.points.shape == (600, 2)
        assert np.sum(data.labels == 1) == 300
        assert np.all(np.isfinite(data.points))

    def test_deterministic_per_seed(self):
        a = generate_gaussian_classes(seed=5, n_per_class=1, cov=np.eye(2))
        b = generate_gaussian_classes(seed=5, n_per_class=1, cov=np.eye(2))
        assert np.array_equal(a.points, b.points)
        c = generate_gaussian_classes(seed=6, n_per_class=1, cov=np.eye(2))
        assert not np.array_equal(a.points, c.points)

    def test_sample_covariance_converges(self):
        # law of large numbers: 1e5 points within 5 percent per entry
        n = 100_000
        data = generate_gaussian_classes(seed=1, n_per_class=n,
                                         mean_a=(0, 0), mean_b=(50, 50))
        pts = data.points[:n]
        emp = np.cov(pts.T)
        cov = np.asarray(DEFAULT_COV)
        assert np.max(np.abs(emp - cov) / np.abs(cov)) < 0.05

    def test_sample_mean_matches(self):
        n = 100_000
        data = generate_gaussian_classes(seed=2, n_per_class=n)
        assert np.max(np.abs(data.points[:n].mean(axis=0)
                             - np.asarray(DEFAULT_MEAN_A))) < 0.05
        assert np.max(np.abs(data.points[n:].mean(axis=0)
                             - np.asarray(DEFAULT_MEAN_B))) < 0.05

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(ValueError):
            generate_gaussian_classes(seed=0, cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_unbalanced_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1.0, 1.0, -1.0]))


class TestProblemConstruction:
    def test_constraint_values_at_origin(self):
        data = generate_gaussian_classes(seed=3, n_per_class=10)
        prob = build_svm_problem(data)
        g = prob.g_values(np.zeros(3))
        assert np.allclose(g, 1.0)

    def test_objective_hessian_is_psd_with_free_offset(self):
        data = generate_gaussian_classes(seed=3, n_per_class=5)
        prob = build_svm_problem(data)
        H = prob.f.hess(np.zeros(3))
        assert np.allclose(H, np.diag([1.0, 1.0, 0.0]))

    def test_two_point_toy_reaches_closed_form(self):
        points, labels, beta_star, beta0_star, mu_star = two_point_svm()
        data = Dataset(points, labels)
        res = train_svm(data, cfg=IntegratorConfig(step=5e-3, max_time=80.0,
                                                   convergence_tol=1e-9))
        assert res.converged
        assert np.max(np.abs(res.final.x[:2] - beta_star)) < 1e-6
        assert abs(res.final.x[2] - beta0_star) < 1e-6
        assert np.max(np.abs(res.final.mu - mu_star)) < 1e-6


class TestSpecializedFlow:
    def test_rest_state_rates(self):
        data = generate_gaussian_classes(seed=4, n_per_class=10)
        tc = TimeConstants.ones(3, 0, data.size)
        s = FlowState(np.zeros(3), mu=np.zeros(data.size))
        (bdot, mudot) = svm_flow_rhs(data, s, tc)
        assert np.max(np.abs(bdot)) == 0.0
        assert np.allclose(mudot, 1.0)  # max(0, g) with g = 1 everywhere

    def test_agrees_with_generic_flow_at_random_states(self):
        data = generate_gaussian_classes(seed=4, n_per_class=20)
        prob = build_svm_problem(data)
        tc = TimeConstants.ones(3, 0, data.size)
        rng = np.random.default_rng(8)
        flow = prepare_flow(prob, tc)
        for _ in range(100):
            s = FlowState(rng.normal(size=3),
                          mu=rng.uniform(0.0, 1.0, data.size) * (rng.random(data.size) > 0.3))
            bdot, mudot = svm_flow_rhs(data, s, tc)
            xd, _, md = interconnected_rhs(flow, s.pack())
            assert np.max(np.abs(bdot - xd)) < 1e-12
            assert np.max(np.abs(mudot - md)) < 1e-12

    def test_zero_rates_at_toy_optimum(self):
        points, labels, beta_star, beta0_star, mu_star = two_point_svm()
        data = Dataset(points, labels)
        tc = TimeConstants.ones(3, 0, 2)
        s = FlowState(np.concatenate([beta_star, [beta0_star]]), mu=mu_star)
        bdot, mudot = svm_flow_rhs(data, s, tc)
        assert np.max(np.abs(bdot)) < 1e-14
        assert np.max(np.abs(mudot)) < 1e-14


class TestTrainedModel:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained():
        data = generate_gaussian_classes(seed=9, n_per_class=25)
        res = train_svm(data, cfg=IntegratorConfig(step=5e-3, max_time=200.0,
                                                   convergence_tol=1e-8,
                                                   convergence_window=10,
                                                   record_every=10))
        return data, res

    def test_toy_support_vectors_and_residual(self):
        points, labels, beta_star, beta0_star, mu_star = two_point_svm()
        data = Dataset(points, labels)
        res = train_svm(data, cfg=IntegratorConfig(step=5e-3, max_time=80.0,
                                                   convergence_tol=1e-9))
        idx, plane, rep = support_vectors(data, res.final, tol=1e-8)
        assert idx.tolist() == [0, 1]
        assert rep["representer_residual"] <= 1e-8
        assert plane.margin == pytest.approx(2.0, abs=1e-6)

    def test_complementary_slackness(self, trained):
        data, res = trained
        assert res.kkt.comp_slack <= 1e-5

    def test_representer_identity_and_dual_balance(self, trained):
        data, res = trained
        _, _, rep = support_vectors(data, res.final)
        assert rep["representer_residual"] <= 1e-5
        assert rep["dual_balance"] <= 1e-5

    def test_all_points_classified_with_margin(self, trained):
        data, res = trained
        _, plane, _ = support_vectors(data, res.final)
        scores = data.labels * plane.decision(data.points)
        assert scores.min() >= 1.0 - 1e-4

    def test_support_vectors_on_supporting_hyperplanes(self, trained):
        data, res = trained
        idx, plane, _ = support_vectors(data, res.final)
        prob = build_svm_problem(data)
        g = prob.g_values(res.final.pack()[:3])
        assert 2 <= idx.size < data.size / 2
        assert np.max(np.abs(g[idx])) <= 1e-5

    def test_mu_nonnegative_throughout(self, trained):
        _, res = trained
        assert res.trajectory.states[:, 3:].min() >= 0.0


def test_grown_steps_match_slsqp_pass_both_audits_and_take_fewer_steps():
    """train_svm grows the step between events; the hyperplane still agrees
    with SLSQP on the same max-margin QP."""
    from scipy.optimize import minimize

    data = generate_gaussian_classes(seed=9, n_per_class=25)
    grown = train_svm(data)
    assert grown.converged
    assert grown.storage.report()["verdict"] == "PASS"
    assert storage_switch_audit(grown.storage)["verdict"] == "PASS"
    rows = data.labels[:, None] * np.column_stack([data.points, np.ones(data.size)])
    ref = minimize(lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2), np.zeros(3),
                   jac=lambda w: np.array([w[0], w[1], 0.0]),
                   constraints=[{"type": "ineq", "fun": lambda w: rows @ w - 1.0,
                                 "jac": lambda w: rows}],
                   method="SLSQP", options={"ftol": 1e-12, "maxiter": 500})
    assert ref.success
    _, plane, _ = support_vectors(data, grown.final)
    assert np.concatenate([plane.beta, [plane.beta0]]) == pytest.approx(ref.x, abs=1e-6)
    fixed = solve(build_svm_problem(data), FlowState(np.zeros(3), mu=np.zeros(data.size)),
                  cfg=DEFAULT_INTEGRATOR)
    assert fixed.converged
    assert grown.trajectory.stats.rk4_steps < fixed.trajectory.stats.rk4_steps


def test_slow_separable_draw_warns_with_its_stationarity_not_inseparability():
    """Dataset seed 0 with 5 points per class is linearly separable (an LP
    finds a strictly separating line) but is not converged at t = 100."""
    from scipy.optimize import linprog

    data = generate_gaussian_classes(seed=0, n_per_class=5)
    A_ub = -data.labels[:, None] * np.column_stack([data.points, np.ones(data.size)])
    lp = linprog(np.zeros(3), A_ub=A_ub, b_ub=-np.ones(data.size),
                 bounds=[(None, None)] * 3)
    assert lp.status == 0

    cfg = IntegratorConfig(step=0.01, max_time=100.0)
    with pytest.warns(UserWarning) as record:
        result = train_svm(data, cfg=cfg)
    assert not result.converged
    message = str(record[0].message)
    assert "stopped unconverged at t = 100:" in message
    assert f"final stationarity {result.kkt.stationarity:.3g}" in message
    assert "convergence_tol 1e-06" in message
    assert "separable one may need a longer max_time" in message
    assert "regenerate" not in message
