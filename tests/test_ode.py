import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_gradient

from passiflow import ode, primal_dual, svm
from passiflow.ode import (
    DivergenceError,
    IntegratorConfig,
    Trajectory,
    integrate,
)
from passiflow.primal_dual import (
    AffineInequalities,
    ConvexProblem,
    FlowState,
    ScalarOracle,
    TimeConstants,
    quadratic_oracle,
)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: integrate(lambda t, x: -x, [np.nan], IntegratorConfig()),
                 ValueError, "initial state must be finite", id="integrate-nan"),
    pytest.param(lambda: integrate(lambda t, x: -x, [1.0, np.inf], IntegratorConfig()),
                 ValueError, "initial state must be finite", id="integrate-inf"),
    *(pytest.param(lambda kw=kw: integrate(lambda t, x: x, [1.0], IntegratorConfig(),
                                           floats=True, **kw),
                   ValueError, "floats takes no guards, clamp_nonneg or stop_when_converged",
                   id=f"integrate-floats-{next(iter(kw))}")
      for kw in ({"guards": lambda t, x: x}, {"clamp_nonneg": [0]},
                 {"stop_when_converged": True})),
    # bool is an Integral and np.bool_ compares as 0 or 1, but True is not a
    # step of 1.0 or a count of 1
    *(pytest.param(lambda name=name, value=value: IntegratorConfig(**{name: value}),
                   ValueError, f"IntegratorConfig.{name} must be {message}",
                   id=f"config-{name}-{value!r}")
      for name, message in [("step", "finite and > 0"), ("max_time", "finite and > 0"),
                            ("event_tol", "finite and > 0"),
                            ("convergence_tol", "finite and > 0"),
                            ("convergence_window", "an integer >= 1"),
                            ("record_every", "an integer >= 1")]
      for value in (True, np.True_)),
    # a rate shorter or longer than the state, which zip would cut or numpy broadcast
    *(pytest.param(lambda rate=rate, floats=floats: integrate(
                       rate, [1.0, 2.0], IntegratorConfig(step=0.1, max_time=0.3),
                       floats=floats),
                   ValueError, f"rhs returned a rate of {message}", id=f"integrate-rate-{key}")
      for key, rate, floats, message in [
          ("floats-1", lambda t, x: (-x[0],), True, "length 1 for a state of length 2"),
          ("floats-3", lambda t, x: (-x[0], -x[1], 0.0), True,
           "length 3 for a state of length 2"),
          ("array-1", lambda t, x: -x[:1], False, "shape (1,) for a state of shape (2,)"),
          ("array-scalar", lambda t, x: -x[0], False, "shape () for a state of shape (2,)")]),
    # a start that the array path cannot mark read-only, or the float path unpack
    *(pytest.param(lambda x0=x0, floats=floats: integrate(
                       lambda t, x: x, x0, IntegratorConfig(step=0.1, max_time=0.3),
                       floats=floats),
                   ValueError, f"x0 must be {message}", id=f"integrate-x0-{key}")
      for key, x0, floats, message in [
          ("array-0d", 1.0, False, "at least 1-D, got shape ()"),
          ("floats-0d", 1.0, True, "1-D on floats, got shape ()"),
          ("floats-2d", [[1.0, 2.0]], True, "1-D on floats, got shape (1, 2)")]),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


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

    def test_float_path_equals_the_array_path_bitwise(self):
        # The off-grid horizon ends in a short step and an off-grid sample.
        def rates(t, x):
            a, b = x
            return b * t - a * a, -a - 0.3 * b

        cfg = IntegratorConfig(step=0.01, max_time=1.005, record_every=7)
        ref = integrate(lambda t, x: np.array(rates(t, x)), [1.0, -0.0], cfg)
        got = integrate(rates, [1.0, -0.0], cfg, floats=True)
        assert got.times.tolist() == ref.times.tolist()
        assert got.states.tobytes() == ref.states.tobytes()
        assert got.stats == ref.stats and got.stats.rhs_evals == 4 * 101

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_float_path_diverges_as_the_array_path_does(self):
        cfg = IntegratorConfig(step=0.1, max_time=10.0)
        errors = []
        for floats, rhs in ((False, lambda t, x: x * x * x),
                            (True, lambda t, x: (x[0] * x[0] * x[0],))):
            with pytest.raises(DivergenceError) as err:
                integrate(rhs, [2.0], cfg, floats=floats)
            errors.append(err.value)
        assert errors[0].t == errors[1].t > 0.0
        assert errors[1].last_state.tobytes() == errors[0].last_state.tobytes()

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

    def test_landing_grants_one_step_of_clamp_slack(self):
        # x0' = -1 while x0 > 0 has no guard; the guard x1 - 0.04 with x1 = t
        # lands the first step at t = 0.04, where the RK4 map (its k4 stage
        # sees the zero branch) has taken x0 from 0.025 to -0.0083: beyond
        # CLAMP_TOL, within one step's travel 0.1 * max(1, |k1|) = 0.1.
        def rhs(t, x):
            return np.array([-1.0 if x[0] > 0 else 0.0, 1.0])

        traj = integrate(rhs, [0.025, 0.0], IntegratorConfig(step=0.1, max_time=0.2),
                         guards=lambda t, x: x[1:] - 0.04, clamp_nonneg=[0])
        assert traj.times[1] == traj.events[0][0] == pytest.approx(0.04)
        assert traj.states[1, 0] == 0.0
        assert traj.stats.clamp_truncations == 1
        # The same undershoot after a plain step of the landing's length raises.
        with pytest.raises(ValueError, match=r"undershot zero by 8\.333e-03"):
            integrate(rhs, [0.025, 0.0], IntegratorConfig(step=0.04, max_time=0.1),
                      clamp_nonneg=[0])

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

    def test_guard_exactly_zero_at_a_probe_is_localized(self):
        # x = t: the first probe, the midpoint 0.05 of the step, finds the
        # guard exactly 0.  That zero is the crossing; one probe just before
        # it closes the bracket, and the landing is on it.
        traj = integrate(lambda t, x: np.ones(1), [0.0], IntegratorConfig(step=0.1, max_time=0.3),
                         guards=lambda t, x: x - 0.05)
        assert traj.events == [(0.05, "guard0")]
        assert traj.times[1] == 0.05
        assert traj.stats.bisection_steps == 2

    def test_max_time_not_multiple_of_step_hits_end_exactly(self):
        cfg = IntegratorConfig(step=0.3, max_time=1.0)
        traj = integrate(lambda t, x: -x, [1.0], cfg)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


    def test_infinite_or_nan_config_values_are_rejected(self):
        for name in ("step", "max_time", "event_tol", "convergence_tol"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"IntegratorConfig.{name} must be finite"):
                    IntegratorConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["convergence_window", "record_every"])
    @pytest.mark.parametrize("bad", [2.5, 1.5, 2.0, 0, -3])
    def test_counts_must_be_integers_of_at_least_one(self, name, bad):
        with pytest.raises(ValueError, match=f"IntegratorConfig.{name} must be an integer >= 1"):
            IntegratorConfig(**{name: bad})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = IntegratorConfig(step=0.1, max_time=1.0, record_every=np.int64(2))
        traj = integrate(lambda t, x: -x, [1.0], cfg)
        assert np.allclose(traj.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

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


# Every float, with its edges drawn often: +-0.0, subnormals, +-inf and nan.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                         np.inf, -np.inf, np.nan, 1.0, 1e308]),
                        st.floats(width=64))


def _bits(values):
    """Each float's bits, or None for every NaN whatever its payload and sign:
    numpy's array step does not give the same NaN bits from call to call."""
    a = np.array(values, dtype=float)
    return [None if v != v else b for v, b in zip(a.tolist(), a.view(np.uint64).tolist())]


class TestFloatStep:
    """``ode._rk4_floats(d)``, the straight-line step on a tuple of ``d``
    floats, against :func:`ode._rk4_step` on arrays: every value's bits,
    +-0.0 included, except a NaN's payload and sign."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 8).flatmap(lambda d: st.tuples(
        st.lists(EDGE_FLOATS, min_size=d, max_size=d),
        st.lists(st.lists(EDGE_FLOATS, min_size=d, max_size=d), min_size=4, max_size=4),
        EDGE_FLOATS, EDGE_FLOATS)))
    def test_step_equals_the_array_step_bitwise(self, case):
        x, rates, t, h = case
        seen = {"floats": [], "array": []}

        def rhs(key, wrap):
            def f(tv, xv):
                seen[key].append(_bits([tv, *xv]))
                return wrap(rates[len(seen[key]) - 1])
            return f

        got = ode._rk4_floats(len(x))(rhs("floats", tuple), t, tuple(x), h)
        with np.errstate(all="ignore"):
            ref, _, _ = ode._rk4_step(rhs("array", np.array), t, np.array(x), h)
        assert type(got) is tuple and len(got) == len(x)
        assert _bits(got) == _bits(ref)
        assert seen["floats"] == seen["array"] and len(seen["array"]) == 4


class TestSecantEventSearch:
    """A guard marked smooth is searched at secant root estimates."""

    H = 0.01
    TOL = 1e-10

    def search(self, smooth_guards):
        # mu' = -(1 + 2 mu) from mu0 = 4e-3 crosses 0 at 0.5 ln(1.008) ~ 3.98e-3,
        # inside the first step; the RK4 map in the probe length is a quartic,
        # so no secant estimate is exact.  Returns the guard values at each
        # probe, the landing's value and the event time.
        seen = []

        def guards(t, x):
            seen.append((t, x[0]))
            return x.copy()

        cfg = IntegratorConfig(step=self.H, max_time=self.H, event_tol=self.TOL)
        traj = integrate(lambda t, x: -(1.0 + 2.0 * x), [4e-3], cfg, guards=guards,
                         smooth_guards=smooth_guards)
        (t_event, _), = traj.events
        probes = traj.stats.bisection_steps
        # seen: the initial state, the crossing step's end, the probes, the
        # landing, and the step from the landing to max_time.
        assert len(seen) == 1 + 1 + probes + 1 + 1
        return seen[2:2 + probes], seen[2 + probes], t_event

    def test_secant_probes_close_the_bracket_on_the_post_crossing_side(self):
        probes, (t_land, mu_land), t_event = self.search([0])
        assert t_land == t_event
        # The last probe before the crossing and the landing bracket the
        # crossing to event_tol; the landing is past it.
        lo = max(t for t, mu in probes if mu > 0.0)
        assert t_event - lo <= self.TOL
        assert mu_land <= 0.0
        assert t_event == pytest.approx(0.5 * np.log(1.008), abs=1e-9)
        assert len(probes) <= 6

    def test_bisection_takes_a_probe_per_halving(self):
        probes, (_, mu_land), t_event = self.search(())
        assert len(probes) == int(np.ceil(np.log2(self.H / self.TOL))) == 27
        assert mu_land <= 0.0
        assert t_event == pytest.approx(0.5 * np.log(1.008), abs=1e-9)


class TestStepGrowth:
    """``grow_step``: the step grows between events, never below ``step``."""

    CFG = IntegratorConfig(step=0.01, max_time=10.0)
    X0 = [1.0, 0.0, 1.0]

    @staticmethod
    def rhs(t, x):
        # A damped oscillator, x0 = exp(-t/10) (cos wt + sin(wt) / (10 w)),
        # crosses zero at t1 = (pi - atan(10 w)) / w ~ 1.68, then every pi / w.
        # The fast mode x2 = exp(-50 t) puts the error estimate above the
        # tolerance at step until t ~ 0.26, so the floor holds the step there.
        return np.array([x[1], -x[0] - 0.2 * x[1], -50.0 * x[2]])

    def run(self, monkeypatch, grow_step):
        """The trajectory, every step sampled, and the ``(t, h)`` of every RK4
        step taken."""
        calls = []
        real_step = ode._rk4_step

        def counting_step(rhs, t, x, h):
            calls.append((t, h))
            return real_step(rhs, t, x, h)

        monkeypatch.setattr(ode, "_rk4_step", counting_step)
        traj = integrate(self.rhs, self.X0, self.CFG, guards=lambda t, x: x[:1].copy(),
                         stop_when_converged=True, grow_step=grow_step)
        return traj, calls

    def test_no_step_is_shorter_than_step_but_probes_landings_and_the_last(self, monkeypatch):
        traj, calls = self.run(monkeypatch, True)
        w = np.sqrt(0.99)
        t1 = (np.pi - np.arctan(10.0 * w)) / w
        assert [t for t, _ in traj.events] == pytest.approx(t1 + np.pi / w * np.arange(3),
                                                            abs=1e-6)
        assert max(h for _, h in calls) > 2 * self.CFG.step
        # The first RK4 step from each start time is a plain or crossing
        # step; the probes and the landing from that start follow it.
        first = {}
        for t, h in calls:
            first.setdefault(t, h)
        for t, h in first.items():
            assert h >= self.CFG.step or h == self.CFG.max_time - t
        assert traj.times[-1] == self.CFG.max_time

    def test_the_step_after_each_landing_is_step(self, monkeypatch):
        traj, calls = self.run(monkeypatch, True)
        assert len(traj.events) == 3
        for t_event, _ in traj.events:
            assert next(h for t, h in calls if t == t_event) == self.CFG.step
        # ... and the step grows again before the next event.
        grown = [t for t, h in calls if h > self.CFG.step]
        assert all(any(t > t_event for t in grown) for t_event, _ in traj.events)

    def test_samples_equal_the_fixed_step_run_up_to_the_first_grown_step(self, monkeypatch):
        grown, calls = self.run(monkeypatch, True)
        fixed, _ = self.run(monkeypatch, False)
        t_grow = next(t for t, h in calls if h > self.CFG.step)
        assert t_grow > 0.0
        k = int(np.searchsorted(grown.times, t_grow, side="right"))
        assert k > 1
        assert np.array_equal(grown.times[:k], fixed.times[:k])
        assert np.array_equal(grown.states[:k], fixed.states[:k])
        assert grown.times.size < fixed.times.size

    def test_landing_clamp_slack_stays_one_step_of_travel(self):
        # x0' = -1 while x0 > 0, x1' = 1: the rates are constant, so the step
        # grows fivefold per step, 0.01, 0.05, 0.25, 1.25, and x0 = 0.1 at
        # t = 0.31.  The guard x1 - 0.61 lands the 1.25 step at 0.3, where
        # the RK4 map (as in test_landing_grants_one_step_of_clamp_slack)
        # has taken x0 to -0.05: more than step * max(1, |k1|) = 0.01, the
        # slack of the fixed-step run, though less than 1.25 * max(1, |k1|).
        def rhs(t, x):
            return np.array([-1.0 if x[0] > 0 else 0.0, 1.0])

        with pytest.raises(ValueError, match=r"undershot zero by 5\.000e-02 "
                                             r"\(> clamp slack 1\.000e-02\)"):
            integrate(rhs, [0.41, 0.0], self.CFG, guards=lambda t, x: x[1:] - 0.61,
                      clamp_nonneg=[0], stop_when_converged=True, grow_step=True)

    def test_growth_needs_the_convergence_check(self):
        with pytest.raises(ValueError, match="grow_step needs stop_when_converged"):
            integrate(self.rhs, self.X0, self.CFG, grow_step=True)


class TestSampleBuffer:
    """Without a ``sink``, ``integrate`` keeps each sample as its accepted
    state and stacks them once the run ends; a ``sink`` gets those states."""

    @pytest.mark.parametrize("step, crossings, max_time, samples, landing_samples", [
        # > 2048 samples
        pytest.param(0.01, (), 21.0, 2101, (), id="crossings0-21.0"),
        # the landing is sample 1024
        pytest.param(0.01, (1023.5,), 15.0, 1502, (1024,), id="crossings1-15.0"),
        # landings at samples 1024 and 2048
        pytest.param(0.01, (1023.5, 2047.0), 25.0, 2502, (1024, 2048), id="crossings2-25.0"),
        # three landings in the last step, the third one sample 10
        pytest.param(0.125, (7.25, 7.5, 7.75), 1.0, 12, (8, 9, 10), id="crossings3-last-step"),
        # a landing in every step
        pytest.param(0.125, tuple(0.16 + 0.3 * j for j in range(27)), 1.0, 29, range(1, 28),
                     id="crossings27"),
    ])
    def test_states_are_the_accepted_states(self, step, crossings, max_time, samples,
                                            landing_samples):
        # x0' = 1 reaches c = k step after k plain steps; a crossing half a
        # step after sample 1023 lands as sample 1024, and one 1023.5 steps
        # after that landing as sample 2048.
        cs = [c * step for c in crossings]
        cfg = IntegratorConfig(step=step, max_time=max_time, convergence_tol=1e-12)

        def run(sink=None):
            seen = {}

            def rhs(t, x):
                if not x.flags.writeable:
                    seen.setdefault(t, (x, x.copy()))
                return np.array([1.0, -x[1]])

            traj = integrate(rhs, [0.0, 1.0], cfg,
                             guards=(lambda t, x: x[0] - np.array(cs)) if cs else None,
                             stop_when_converged=True, sink=sink)
            return traj, seen

        hooked = []
        streamed, streamed_seen = run(lambda t, x: hooked.append((t, x)))
        traj, seen = run()
        assert traj.times.size == samples
        assert traj.times.tolist() == streamed.times.tolist()
        landings = sorted({t for t, _ in traj.events})
        assert len(landings) == len(cs)
        for k, t_e in zip(landing_samples, landings, strict=True):
            assert traj.times[k] == t_e
        # The sink sees every sample in time order, as the read-only object
        # that rhs saw at that time; the keeping run's rows are those states.
        assert [t for t, _ in hooked] == traj.times.tolist()
        for (t, x), row in zip(hooked, traj.states, strict=True):
            obj, value = streamed_seen[t]
            assert x is obj and not x.flags.writeable
            assert np.array_equal(row, value)
            kept, kept_value = seen[t]
            assert np.array_equal(row, kept_value)
            assert not np.shares_memory(traj.states, kept)
        assert traj.states.flags.writeable
        traj.states[-1, 0] = 7.0
        assert seen[traj.times[-1]][0][0] != 7.0

    @pytest.mark.parametrize("x0", [[1.0, 2.0], []])
    @pytest.mark.parametrize("floats", [False, True])
    def test_a_fixed_step_run_keeps_its_sample_count(self, x0, floats):
        # 10 steps, sampled at steps 3, 6 and 9, then the final state
        cfg = IntegratorConfig(step=0.1, max_time=1.0, record_every=3)
        rhs = (lambda t, x: tuple(-v for v in x)) if floats else (lambda t, x: -x)
        traj = integrate(rhs, x0, cfg, floats=floats)
        assert traj.times.tolist() == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.states.shape == (5, len(x0))

    def test_a_floats_sink_gets_the_initial_array_then_tuples(self):
        cfg = IntegratorConfig(step=0.1, max_time=1.0, record_every=3)

        def rhs(t, x):
            return (-x[0], x[0] - 0.5 * x[1])

        hooked = []
        streamed = integrate(rhs, [1.0, 2.0], cfg, floats=True,
                             sink=lambda t, x: hooked.append((t, x)))
        traj = integrate(rhs, [1.0, 2.0], cfg, floats=True)
        assert streamed.states is None
        assert [t for t, _ in hooked] == traj.times.tolist() == streamed.times.tolist()
        first, *rest = (x for _, x in hooked)
        assert isinstance(first, np.ndarray) and not first.flags.writeable
        assert rest and all(type(x) is tuple for x in rest)
        assert np.array([first, *rest]).tobytes() == traj.states.tobytes()
        assert np.array_equal(streamed.final_state, traj.final_state)


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

        g_calls = []
        real_values = AffineInequalities.values

        def counted_values(self, x):
            g_calls.append(1)
            return real_values(self, x)

        monkeypatch.setattr(primal_dual, "interconnected_rhs", counted)
        monkeypatch.setattr(AffineInequalities, "values", counted_values)
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
        # solve's sample hook evaluates the flow at every sample, and solve's
        # slot answers every later call at that state: the convergence check
        # and the next step's k1, the ten probes' and the landing step's k1
        # included.  So the flow runs at three stage states per RK4 step and
        # once per sample; the convergence verdict reads the last sample's
        # rate.  With rhs_evals = 4 rk4 + advancing, rk4 = advancing + 12 and
        # samples = advancing + 2 that equals the second form.
        assert len(calls) == 3 * stats.rk4_steps + traj.times.size
        assert len(calls) == stats.rhs_evals - (advancing - 1) - (stats.bisection_steps + 1)
        assert len(calls) == 1938
        # Constraint values: inside the flow at the three stage states of
        # each RK4 step, and once at every other state integrate visits, the
        # initial state and each RK4 step's end: by the guards, or at the
        # landing by the sample hook's flow, and the other of the two and the
        # storage mask reuse it.  The switch classification evaluates the
        # crossing sample, and reads its two neighbours' storage masks; the
        # KKT report evaluates one more.
        assert len(g_calls) == (3 * stats.rk4_steps + (1 + stats.rk4_steps)
                                + result.switch_count + 1)
        assert len(g_calls) == 1951
        assert stats.clamp_truncations == 0

    def test_counts_on_a_problem_with_an_equality_and_a_ball_row(self, monkeypatch):
        # min |x|^2 / 2 - 2 x0 - x1  s.t.  x0 + x1 + x2 = 1, x0 - x1 <= 0.5,
        # -x2 <= 0 and |x - (0.5, 0.5, 0)|^2 <= 0.36, at non-unit time
        # constants: the oracle row fills its gradient row at every flow
        # evaluation, and the clamp set gains and loses indices.
        center = np.array([0.5, 0.5, 0.0])
        ball = ScalarOracle(value=lambda x: float((x - center) @ (x - center) - 0.36),
                            grad=lambda x: 2.0 * (x - center), hess=lambda x: 2.0 * np.eye(3))
        prob = ConvexProblem(n=3, f=quadratic_oracle(np.eye(3), [-2.0, -1.0, 0.0]),
                             A=[[1.0, 1.0, 1.0]], b=[1.0],
                             ineq=AffineInequalities([[1.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
                                                     [0.5, 0.0], [ball]))
        tc = TimeConstants([1.0, 0.5, 2.0], [1.5], [0.7, 1.0, 2.0])
        h = 2.0 ** -5
        cfg = IntegratorConfig(step=h, event_tol=h / 2 ** 12, max_time=40.0)
        calls = {"rhs": 0, "g": 0}
        real_rhs, real_g = primal_dual.interconnected_rhs, ConvexProblem.g_values

        def counted_rhs(*args, **kwargs):
            calls["rhs"] += 1
            return real_rhs(*args, **kwargs)

        def counted_g(self, x):
            calls["g"] += 1
            return real_g(self, x)

        monkeypatch.setattr(primal_dual, "interconnected_rhs", counted_rhs)
        monkeypatch.setattr(ConvexProblem, "g_values", counted_g)
        result = primal_dual.solve(prob, FlowState(np.zeros(3), lam=[0.0], mu=[0.0, 0.5, 0.0]),
                                   tc=tc, cfg=cfg)
        stats = result.trajectory.stats
        assert result.converged
        assert [(e.entered, e.left) for e in result.storage.switch_events] == [
            ((2,), ()), ((), (2,)), ((), (0,)), ((2,), ())]
        assert (stats.rk4_steps, stats.bisection_steps, stats.event_batches) == (1180, 31, 4)
        # The flow: three stage states per RK4 step and every sample.
        # g_values: the guards' slot at the initial state and after every
        # RK4 step, one per switch event, the KKT report.
        assert calls["rhs"] == 3 * stats.rk4_steps + result.trajectory.times.size == 4686
        assert calls["g"] == 1 + stats.rk4_steps + result.switch_count + 1 == 1186

    @pytest.mark.parametrize("grow_step", [False, True])
    def test_call_counts_follow_the_step_counts_on_many_events(self, monkeypatch, grow_step):
        # The identities perfbench's tracer (tracing.step_counts) uses to
        # infer RK4 and advancing steps from the calls it counts: the guards
        # run once at the start and once after every RK4 step, and the rhs
        # four times per RK4 step plus once per convergence check, which
        # solve makes after every step that advances without an event.  A
        # grown step reads its error from that check's rate: no extra call.
        calls = {"rhs": 0, "guards": 0}
        lengths = []
        real_integrate, real_step = primal_dual.integrate, ode._rk4_step

        def counting_integrate(rhs, x0, cfg, guards=None, **kwargs):
            def counted_rhs(t, x):
                calls["rhs"] += 1
                return rhs(t, x)

            def counted_guards(t, x):
                calls["guards"] += 1
                return guards(t, x)
            return real_integrate(counted_rhs, x0, cfg, guards=counted_guards, **kwargs)

        def counting_step(rhs, t, x, h):
            lengths.append(h)
            return real_step(rhs, t, x, h)

        monkeypatch.setattr(primal_dual, "integrate", counting_integrate)
        monkeypatch.setattr(ode, "_rk4_step", counting_step)
        data = svm.generate_gaussian_classes(seed=0, n_per_class=10)
        cfg = dataclasses.replace(svm.DEFAULT_INTEGRATOR, max_time=10.0)
        result = primal_dual.solve(svm.build_svm_problem(data),
                                   FlowState(np.zeros(3), mu=np.zeros(data.size)), cfg=cfg,
                                   grow_step=grow_step)
        stats = result.trajectory.stats
        assert stats.event_batches > 10
        assert stats.rk4_steps == len(lengths)
        assert (max(lengths) > cfg.step) == grow_step
        assert calls["guards"] == stats.rk4_steps + 1
        # Each event batch costs a crossing step, its probes and a landing
        # step; every other RK4 step is a plain step and gets a check.
        checks = stats.rk4_steps - stats.bisection_steps - 2 * stats.event_batches
        assert calls["rhs"] == stats.rhs_evals == 4 * stats.rk4_steps + checks

    def test_clamp_truncations_are_counted(self):
        cfg = IntegratorConfig(step=0.01, max_time=1.0)
        traj = integrate(lambda t, x: np.array([-1.0 if x[0] > 0 else 0.0]),
                         [0.5], cfg, guards=lambda t, x: x.copy(), clamp_nonneg=[0])
        assert traj.final_state[0] == 0.0
        assert traj.stats.clamp_truncations == 1


class TestRK4Region:
    """The points of RK4's stability region that :mod:`passiflow.ode` states."""

    RAYS = np.exp(1j * np.linspace(0.5 * np.pi, 1.5 * np.pi, 20001))

    def test_limit_on_the_real_and_imaginary_axes(self):
        assert ode.rk4_limit(np.array([-1.0])) == pytest.approx(2.78529, abs=5e-6)
        assert ode.rk4_limit(np.array([1j, -1j])) == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_least_limit_over_left_half_plane_rays_is_the_half_disc_radius(self):
        limits = ode.rk4_limit(self.RAYS[:, None])
        assert limits.min() == pytest.approx(2.61559, abs=5e-6)
        assert ode.rk4_limit(self.RAYS) == limits.min()

    def test_a_zero_rate_bounds_nothing_and_an_overflowing_z_reads_inf(self):
        assert ode.rk4_limit(np.array([0.0])) == np.inf
        assert ode.rk4_limit(np.array([-1.0, 0.0])) == ode.rk4_limit(np.array([-1.0]))
        with np.errstate(all="ignore"):
            gain = ode.rk4_gain(np.array([1e200 + 1e200j, -1e300, -1.0]))
        assert gain[:2].tolist() == [np.inf, np.inf] and gain[2] == pytest.approx(3 / 8)

    def test_the_rounded_down_bounds_lie_inside_the_region(self):
        assert ode.rk4_gain(-ode.RK4_REAL_BOUND) <= 1
        assert ode.rk4_gain(ode.RK4_DISC_BOUND * self.RAYS).max() <= 1
        assert 0 < ode.rk4_limit(np.array([-1.0])) - ode.RK4_REAL_BOUND < 1e-3
        assert 0 < ode.rk4_limit(self.RAYS) - ode.RK4_DISC_BOUND < 1e-3


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
