import csv

import numpy as np
import pytest

from passiflow import primal_dual
from passiflow.ode import (
    DivergenceError,
    IntegratorConfig,
    Trajectory,
    finite_diff_gradient,
    integrate,
    write_csv,
)
from passiflow.primal_dual import AffineInequalities, ConvexProblem, FlowState, quadratic_oracle


class TestTrajectory:
    def test_strictly_increasing_times_required(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_states_count_must_match(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))

    def test_event_inside_span(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), events=[(2.0, "x")])

    def test_csv_roundtrip(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.arange(6.0).reshape(3, 2),
                          events=[(0.5, "hit")])
        traj.to_csv(tmp_path / "t.csv", tmp_path / "e.csv")
        rows = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x0,x1"
        assert len(rows) == 4
        erows = (tmp_path / "e.csv").read_text().strip().splitlines()
        assert erows[1].endswith("hit")

    def test_write_csv_matches_csv_writer(self, tmp_path):
        rows = [(0.1, -0.0, 1e-300, "tag"), (np.float64(2.0 / 3.0), np.inf, -7, "m12")]
        write_csv(tmp_path / "a.csv", ["t", "x", "y", "tag"], iter(rows))
        with open(tmp_path / "b.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y", "tag"])
            for row in rows:
                w.writerow([c if isinstance(c, str) else f"{float(c):.17g}" for c in row])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestIntegrate:
    def test_constant_field_stays_put(self):
        cfg = IntegratorConfig(step=0.1, max_time=1.0)
        traj = integrate(lambda t, x: np.zeros_like(x), [1.0], cfg)
        assert np.all(traj.states == 1.0)

    def test_exponential_decay_matches_closed_form(self):
        # oracle: x(t) = exp(-t)
        cfg = IntegratorConfig(step=0.01, max_time=1.0)
        traj = integrate(lambda t, x: -x, [1.0], cfg)
        assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-8

    def test_rk4_order_on_linear_system(self):
        # oracle: matrix exponential of a rotation+damping system
        A = np.array([[0.0, 1.0], [-4.0, -0.3]])
        from scipy.linalg import expm
        x_exact = expm(A * 1.0) @ np.array([1.0, 0.0])
        errs = []
        for h in (0.02, 0.01, 0.005):
            traj = integrate(lambda t, x: A @ x, [1.0, 0.0],
                             IntegratorConfig(step=h, max_time=1.0))
            errs.append(np.max(np.abs(traj.final_state - x_exact)))
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 3.9

    def test_guard_event_at_analytic_crossing(self):
        # x(t) = exp(-t) crosses 0.5 at t = ln 2
        cfg = IntegratorConfig(step=0.01, max_time=1.0, event_tol=1e-10)
        traj = integrate(lambda t, x: -x, [1.0], cfg,
                         guards=lambda t, x: x - 0.5, guard_labels=["half"])
        assert len(traj.events) == 1
        t_star, tag = traj.events[0]
        assert tag == "half"
        assert abs(t_star - np.log(2.0)) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_last_state(self):
        cfg = IntegratorConfig(step=0.1, max_time=10.0)
        with pytest.raises(DivergenceError) as err:
            integrate(lambda t, x: x ** 3, [2.0], cfg)
        assert np.all(np.isfinite(err.value.last_state))

    def test_clamped_component_truncates_tiny_undershoot(self):
        # rate -1 until the guard stops it at zero; clamp kills the residue
        cfg = IntegratorConfig(step=0.01, max_time=1.0)
        traj = integrate(lambda t, x: np.array([-1.0 if x[0] > 0 else 0.0]),
                         [0.5], cfg, guards=lambda t, x: x.copy(),
                         clamp_nonneg=[0])
        assert traj.final_state[0] == 0.0

    def test_large_undershoot_is_an_error(self):
        cfg = IntegratorConfig(step=0.5, max_time=1.0)
        with pytest.raises(ValueError, match="undershot"):
            integrate(lambda t, x: np.array([-1.0]), [0.1], cfg, clamp_nonneg=[0])

    def test_large_undershoot_names_the_first_offending_component(self):
        cfg = IntegratorConfig(step=0.5, max_time=1.0)
        with pytest.raises(ValueError, match=r"^component 2 undershot zero by 4\.000e-01 "
                                             r"\(> clamp slack 1\.000e-08\); missing guard\?$"):
            integrate(lambda t, x: np.array([-1e-9, 0.0, -1.0, -2.0]),
                      [0.0, 0.0, 0.1, 0.1], cfg, clamp_nonneg=[0, 1, 2, 3])

    def test_event_time_error_is_not_bounded_by_event_tol(self):
        # mu' = -1 while mu > 0, then 0: the true crossing is at t = mu0.
        # Bisection runs on the RK4 map tau -> RK4(mu0, tau), whose k4 stage
        # sees the zero branch once tau > mu0: mu0 - 5 tau / 6 vanishes at
        # tau = 1.2 mu0, and a tighter event_tol does not move it.
        mu0 = 1e-3
        for tol in (1e-10, 1e-14):
            cfg = IntegratorConfig(step=0.01, max_time=0.05, event_tol=tol)
            traj = integrate(lambda t, x: np.array([-1.0 if x[0] > 0 else 0.0]), [mu0], cfg,
                             guards=lambda t, x: x.copy(), clamp_nonneg=[0])
            (t_event, _), = traj.events
            assert t_event == pytest.approx(1.2e-3, abs=2 * tol)
            assert abs(t_event - mu0) > 1e3 * tol

    def test_max_time_not_multiple_of_step_hits_end_exactly(self):
        cfg = IntegratorConfig(step=0.3, max_time=1.0)
        traj = integrate(lambda t, x: -x, [1.0], cfg)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


    def test_infinite_or_nan_config_values_are_rejected(self):
        for name in ("step", "max_time", "event_tol", "convergence_tol"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"IntegratorConfig.{name} must be finite"):
                    IntegratorConfig(**{name: bad})

    def test_accepted_states_are_read_only_and_stage_states_are_not(self):
        # x' = -x crossing 0.5 and 0.25: plain steps, convergence checks,
        # bisection probes and two event landings.
        seen = []

        def rhs(t, x):
            seen.append(("rhs", t, x.copy(), x.flags.writeable))
            return -x

        def guards(t, x):
            seen.append(("guards", t, x.copy(), x.flags.writeable))
            return np.array([x[0] - 0.5, x[0] - 0.25])

        cfg = IntegratorConfig(step=0.05, max_time=2.0, convergence_tol=1e-9)
        traj = integrate(rhs, [1.0], cfg, guards=guards, stop_when_converged=True)
        stats = traj.stats
        assert stats.event_batches == 2
        # rhs sees an accepted state as each RK4 step's k1 and at each
        # convergence check, and a stage state three times per RK4 step;
        # guards see the initial state and each landing as accepted states,
        # and each step's candidate end and each probe as writable ones.
        rhs_flags = [w for kind, _, _, w in seen if kind == "rhs"]
        checks = stats.rhs_evals - 4 * stats.rk4_steps
        assert rhs_flags.count(False) == stats.rk4_steps + checks
        assert rhs_flags.count(True) == 3 * stats.rk4_steps
        guard_flags = [w for kind, _, _, w in seen if kind == "guards"]
        assert guard_flags.count(False) == 1 + stats.event_batches
        # Every read-only state is the trajectory's sample at its time.
        samples = dict(zip(traj.times.tolist(), traj.states))
        for _, t, x, writable in seen:
            assert writable or np.array_equal(x, samples[t])
        assert traj.states.flags.writeable
        traj.states[0, 0] = 7.0


class TestIntegrationStats:
    def test_counts_on_the_one_constraint_hand_count_problem(self, monkeypatch):
        # min (x - 3)^2 / 2  s.t.  x - 1 <= 0, from x = 0 and mu = 0: the
        # constraint is reached once and the multiplier never returns to 0.
        prob = ConvexProblem(n=1, f=quadratic_oracle([[1.0]], [-3.0]),
                             ineq=AffineInequalities([[1.0]], [1.0]))
        h = 2.0 ** -4
        cfg = IntegratorConfig(step=h, event_tol=h / 2 ** 10, max_time=50.0)
        calls = []
        real_rhs = primal_dual.interconnected_rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(primal_dual, "interconnected_rhs", counted)
        result = primal_dual.solve(prob, FlowState([0.0], mu=[0.0]), cfg=cfg)
        traj = result.trajectory
        stats = traj.stats
        assert result.converged
        assert stats.event_batches == 1
        assert stats.bisection_steps == 10  # the window halves from h to h / 2^10
        # Advancing steps: one sample each (record_every 1), one convergence
        # check each; the event adds the crossing step, the bisection and
        # the landing step, and one sample.
        advancing = traj.times.size - 1 - stats.event_batches
        assert stats.rk4_steps == advancing + 1 + 10 + 1
        assert stats.rhs_evals == 4 * stats.rk4_steps + advancing
        # solve answers the repeats of an accepted state from its slot: every
        # convergence check but the last is the next step's k1, and the ten
        # probes and the landing step reuse the crossing step's k1.  It
        # evaluates the flow once more per sample (storage) and once at the
        # end (final rate check).
        assert len(calls) == (stats.rhs_evals - (advancing - 1) - (stats.bisection_steps + 1)
                              + traj.times.size + 1)
        assert stats.clamp_truncations == 0

    def test_clamp_truncations_are_counted(self):
        cfg = IntegratorConfig(step=0.01, max_time=1.0)
        traj = integrate(lambda t, x: np.array([-1.0 if x[0] > 0 else 0.0]),
                         [0.5], cfg, guards=lambda t, x: x.copy(), clamp_nonneg=[0])
        assert traj.final_state[0] == 0.0
        assert traj.stats.clamp_truncations == 1


class TestFiniteDiffGradient:
    def test_constant_gives_zero(self):
        assert np.all(finite_diff_gradient(lambda x: 3.0, np.ones(4)) == 0.0)

    def test_quadratic_is_exact_to_rounding(self):
        g = finite_diff_gradient(lambda x: 0.5 * x @ x, np.array([1.0, 2.0]), h=1e-6)
        assert np.allclose(g, [1.0, 2.0], atol=1e-9)

    def test_error_shrinks_second_order(self):
        f = lambda x: np.sin(x[0]) * np.exp(x[1])
        x = np.array([0.7, -0.3])
        exact = np.array([np.cos(x[0]) * np.exp(x[1]), np.sin(x[0]) * np.exp(x[1])])
        errs = [np.max(np.abs(finite_diff_gradient(f, x, h) - exact))
                for h in (1e-3, 5e-4, 2.5e-4)]
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) > 1.8

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(1), h=0.0)
