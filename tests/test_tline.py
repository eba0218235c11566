import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    reference_closed_loop_lyapunov,
    reference_dz,
    reference_line_energy,
    reference_line_state,
    reference_tline_rhs,
)
from passiflow import tline
from passiflow.ode import IntegratorConfig, integrate
from passiflow.tline import (
    LineParams,
    LineState,
    admissible_params_search,
    boundary_pi_control,
    cfl_limit,
    closed_loop_lyapunov,
    conservation_check,
    dissipation_obstacle_report,
    line_energy,
    simulate_open_loop,
    tline_equilibrium,
    tline_pi_loop,
    tline_rhs,
)

GRIDS = (25, 50, 100, 200)


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: LineParams(L=0.0), ValueError,
                 "L, C, C0, C1 must be strictly positive", id="LineParams-L"),
    pytest.param(lambda: LineParams(R=-1.0), ValueError,
                 "resistive parameters must be nonnegative", id="LineParams-R"),
    pytest.param(lambda: LineState(np.zeros(5), np.zeros(5), 0.0, 0.0), ValueError,
                 "need matching i, v profiles on M+1 >= 9 nodes", id="LineState"),
    pytest.param(lambda: tline_equilibrium(LineParams(G=0.0), 1.0, 16), ValueError,
                 "equilibrium profile requires R > 0 and G > 0", id="tline_equilibrium"),
    pytest.param(lambda: admissible_params_search(LineParams(R=0.0)), ValueError,
                 "certificate search requires R > 0 and G > 0", id="admissible_params_search"),
    pytest.param(lambda: boundary_pi_control(LineParams(), 0.0, (0.0, 0.0), -1.0, 1.0, 0.0),
                 ValueError, "gains must be >= 0", id="boundary_pi_control"),
    # K_P = -C0 would divide by zero in the applied current
    pytest.param(lambda: tline_pi_loop(LineParams(), 16, 1.0, -1.0, 1.0), ValueError,
                 "gains must be >= 0", id="tline_pi_loop-K_P"),
    pytest.param(lambda: tline_pi_loop(LineParams(), 16, 1.0, 1.0, -1.0), ValueError,
                 "gains must be >= 0", id="tline_pi_loop-K_I"),
])
def test_input_checks_raise_their_messages(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def equilibrium_residual(p, M):
    eq, I0_star = tline_equilibrium(p, 1.0, M)
    return float(np.max(np.abs(tline_rhs(p, eq.pack(), I0_star, M))))


def test_equilibrium_residual_is_second_order_in_the_mesh_width():
    # 6.0e-4, 1.5e-4, 3.9e-5, 9.7e-6 for M = 25 ... 200
    res = [equilibrium_residual(LineParams(), M) for M in GRIDS]
    assert res[0] < 1e-3
    ratios = [a / b for a, b in zip(res, res[1:])]
    assert all(3.8 < r < 4.2 for r in ratios), ratios


def test_closed_loop_functional_vanishes_at_the_target():
    # The sampled target profile is exact; only the spatial stencil
    # applied to it leaves an O(dz^2) residual, which the functional squares.
    p = LineParams()
    adm = admissible_params_search(p)
    values = []
    for M in GRIDS:
        eq, _ = tline_equilibrium(p, 1.0, M)
        values.append(closed_loop_lyapunov(p, eq.pack(), (eq.i[0], eq.vC0, 1.0), adm, 1.0))
    assert min(values) >= 0.0
    assert values[0] < 1e-7
    ratios = [a / b for a, b in zip(values, values[1:])]
    assert all(r > 14.0 for r in ratios), ratios


# 10^[-1.5, 1.5] for each of R, G, L, C: tau = RC / (LG) spans [1e-6, 1e6].
_decades = st.floats(-1.5, 1.5).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None, database=None)
@given(R=_decades, G=_decades, L=_decades, C=_decades)
@example(R=10 ** -1.5, G=10 ** 1.5, L=10 ** 1.5, C=10 ** -1.5)      # tau = 1e-6
@example(R=10 ** 1.5, G=10 ** -1.5, L=10 ** -1.5, C=10 ** 1.5)      # tau = 1e6
def test_certificate_search_is_feasible_for_every_tau(R, G, L, C):
    rec = admissible_params_search(LineParams(R=R, G=G, L=L, C=C))
    assert rec.tau == pytest.approx(R * C / (L * G))
    assert rec.is_feasible(), rec.feasibility_residuals()


@pytest.mark.parametrize("M", [16, 50])
@pytest.mark.parametrize("K_P, K_I", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
def test_closed_loop_functional_nonincreasing_from_the_zero_state(M, K_P, K_I):
    p = LineParams()
    rhs, lyap, _, _ = tline_pi_loop(p, M, 1.0, K_P, K_I)
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    traj = integrate(rhs, zero.pack(), IntegratorConfig(step=cfl_limit(p, M), max_time=5.0))
    V = np.array([lyap(t, y) for t, y in zip(traj.times, traj.states)])
    assert V[0] > 1.0
    assert np.all(np.diff(V) <= 0.0)
    assert V[-1] < 0.1 * V[0]


@pytest.mark.parametrize("K_P, K_I", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
def test_pi_loop_applies_the_current_of_the_pi_law_at_its_own_vc0_rate(monkeypatch, K_P, K_I):
    # The PI law reads vC0dot, which depends on the applied current itself;
    # tline_pi_loop resolves the pair in closed form, so the current it
    # applies satisfies boundary_pi_control at the rate that current produces.
    p, M = LineParams(R=0.5, G=2.0, C0=2.0, R0=0.3), 16
    rhs, _, eq, I0_star = tline_pi_loop(p, M, 1.5, K_P, K_I)
    applied = []

    def recording_rhs(p_, y, I0, M_):
        applied.append(I0)
        return tline_rhs(p_, y, I0, M_)

    monkeypatch.setattr(tline, "tline_rhs", recording_rhs)
    rng = np.random.default_rng(23)
    for _ in range(20):
        y = rng.normal(size=2 * M + 2)
        vC0_dot = rhs(0.0, y)[2 * M]
        law = boundary_pi_control(p, y[2 * M], (I0_star, eq.vC0), K_P, K_I, vC0_dot)
        assert abs(applied[-1] - law) <= 1e-13 * abs(applied[-1])


def test_cfl_guard_message_tells_the_step_from_the_limit():
    # At M = 16 both numbers print as 0.05625 with a short float format.
    p, M = LineParams(), 16
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    limit = cfl_limit(p, M)
    with pytest.raises(ValueError, match="stability guard") as exc:
        simulate_open_loop(p, zero, 0.0, IntegratorConfig(step=limit * (1 + 1e-9), max_time=0.1))
    step_text, limit_text = re.findall(r"step (\S+) violates the stability guard (\S+) ",
                                       str(exc.value))[0]
    assert step_text != limit_text
    assert float(limit_text) == limit
    assert float(step_text) > limit


def test_cfl_limit_itself_is_an_admissible_step():
    p, M = LineParams(), 16
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    traj = simulate_open_loop(p, zero, 1.0, IntegratorConfig(step=cfl_limit(p, M), max_time=0.5))
    assert traj.times[-1] == pytest.approx(0.5)
    assert np.all(np.isfinite(traj.final_state))


def _wave_bound(p, M):
    """The interior term of :func:`cfl_limit`, the whole guard before it had an end-row term."""
    return 0.9 * (1.0 / M) * np.sqrt(p.L * p.C)


def _rk4_spectral_radius(p, M, h, K_P=1.0, K_I=1.0):
    """Largest ``|R(h lambda)|`` over the dense spectrum of the PI loop at
    vC1* = 1 and these gains, with ``R`` the RK4 stability polynomial.  The
    loop is affine, so its Jacobian is exact column by column."""
    rhs = tline_pi_loop(p, M, 1.0, K_P, K_I)[0]
    at_rest = rhs(0.0, np.zeros(2 * M + 2))
    J = np.column_stack([rhs(0.0, e) - at_rest for e in np.eye(2 * M + 2)])
    z = h * np.linalg.eigvals(J)
    return float(np.max(np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)))


def test_cfl_limit_at_the_default_line_is_the_wave_bound_bit_for_bit():
    p = LineParams()
    for M in range(8, 401):
        assert cfl_limit(p, M) == _wave_bound(p, M)


# (params, grid, whether 0.999 x the wave bound is accepted, max |R(h lambda)| there),
# at K_P = K_I = 1 unless the params name a gain
@pytest.mark.parametrize("params, M, accepted, radius", [
    ({}, 8, True, 0.957), ({}, 50, True, 0.993), ({}, 200, True, 0.998),
    ({"R0": 2.0}, 50, True, 0.993), ({"R0": 2.0}, 200, True, 0.998),
    # a conservative refusal: the end term h (1.5 R0 M + R) / L is 2.81 > 2.785,
    # yet the spectrum is stable
    ({"R0": 2.0}, 8, False, 0.957),
    ({"R0": 2.5}, 50, False, 1.717), ({"R0": 3.0}, 50, False, 4.313),
    ({"R1": 3.0}, 50, False, 4.296), ({"C": 10.0}, 50, False, 5.681),
    ({"L": 0.1}, 50, False, 5.858),
    # the boundary-capacitor rows; at the wave bound itself their blocks read 480, 5.55, 214
    ({"K_P": 0.0, "K_I": 100.0}, 8, False, 478.250), ({"C1": 0.01}, 8, False, 6.275),
    ({"C0": 0.01, "K_P": 0.0}, 8, False, 215.823),
    # the interior rows' own rate G/C: h G/C is 5.03 and 22.5 at the wave bound
    ({"C": 0.01, "L": 20.0}, 8, False, 13.738), ({"G": 200.0}, 8, False, 8965.509),
])
def test_step_guard_refuses_the_steps_the_dense_spectrum_shows_unstable(params, M, accepted,
                                                                        radius):
    K = [params.get(k, 1.0) for k in ("K_P", "K_I")]
    p = LineParams(**{k: v for k, v in params.items() if k not in ("K_P", "K_I")})
    h = 0.999 * _wave_bound(p, M)
    rho = _rk4_spectral_radius(p, M, h, *K)
    assert rho == pytest.approx(radius, abs=1e-3)
    assert (h <= tline._step_guard(p, M, *K)[0]) == accepted
    assert rho <= 1.0 or not accepted


@pytest.mark.parametrize("M", [8, 50])
@pytest.mark.parametrize("params, resistor", [
    ({"R0": 2.5}, "R0"), ({"R0": 10.0}, "R0"), ({"R1": 3.0}, "R1"),
    ({"R0": 100.0, "R1": 50.0}, "R0"), ({"C": 10.0}, "R0"), ({"L": 0.1}, "R0"),
])
def test_the_largest_step_an_end_row_bound_accepts_is_stable(params, resistor, M):
    # RK4's real stability limit is -2.7853; the guard's 2.785 keeps the end
    # rows' eigenvalue inside it (max |R| 0.99999 at R0 = 100, M = 50).
    p = LineParams(**params)
    assert tline._step_guard(p, M) == (cfl_limit(p, M), resistor)
    assert cfl_limit(p, M) < _wave_bound(p, M)
    assert _rk4_spectral_radius(p, M, cfl_limit(p, M)) <= 1.0


# (params, gains, max |R(h lambda)| of the dense spectrum at the guard itself)
@pytest.mark.parametrize("params, K, radius", [
    ({}, (0.0, 100.0), 0.9996), ({"C1": 0.01}, (1.0, 1.0), 0.9536),
    ({"C0": 0.01}, (0.0, 1.0), 1.0112),
])
def test_a_capacitor_row_bound_is_stable_a_few_percent_below_the_guard(params, K, radius):
    # The blocks leave out the end currents' coupling to the interior
    # voltages, so at the guard itself the dense spectrum can lie just past
    # RK4's region (the line reader refuses that step); 0.96 times the guard
    # is inside it.
    p = LineParams(**params)
    limit, row = tline._step_guard(p, 8, *K)
    assert row[0] == "C" and limit < _wave_bound(p, 8)
    assert _rk4_spectral_radius(p, 8, limit, *K) == pytest.approx(radius, abs=1e-4)
    assert _rk4_spectral_radius(p, 8, 0.96 * limit, *K) <= 1.0


@pytest.mark.parametrize("params", [{"C": 0.01, "L": 20.0}, {"G": 200.0}])
def test_the_interior_voltage_rows_bound_is_stable_at_the_guard(params):
    p = LineParams(**params)
    assert tline._step_guard(p, 8, 1.0, 1.0) == (2.785 * p.C / p.G, "G")
    assert _rk4_spectral_radius(p, 8, 2.785 * p.C / p.G) == pytest.approx(0.9986, abs=1e-4)


@pytest.mark.parametrize("M", [8, 50])
def test_the_current_rows_bound_is_the_end_term_when_both_end_resistors_are_0(M):
    # with R0 = R1 = 0 the end term 2.785 L / (1.5 max(R0, R1) M + R) is the
    # current rows' own rate R/L, so it is R that sets it
    p = LineParams(R0=0.0, R1=0.0, R=200.0)
    assert tline._step_guard(p, M, 1.0, 1.0) == (2.785 * p.L / p.R, "R")
    assert _rk4_spectral_radius(p, M, 2.785 * p.L / p.R) == pytest.approx(0.9996, abs=1e-4)


@pytest.mark.parametrize("params, M, set_by", [
    ({"R1": 3.0}, 16, "the end row of R1"),
    ({"R0": 0.0, "R1": 0.0, "R": 200.0}, 8, "the current rows' own rate of R"),
])
def test_guard_message_names_the_rows_that_set_it(params, M, set_by):
    p = LineParams(**params)
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    with pytest.raises(ValueError, match=rf"guard \S+ at M={M}, set by {set_by}$"):
        simulate_open_loop(p, zero, 0.0, IntegratorConfig(step=_wave_bound(p, M), max_time=0.1))


def test_conservation_residuals_of_a_lossy_line_decay_at_second_order():
    # From the equilibrium under its own source current the flux balance of
    # the weighted functional is exact up to the stencil: 7.3e-4, 1.9e-4,
    # 4.7e-5, 1.2e-5, 3.0e-6 at M = 16 ... 256.
    p = LineParams()
    res = []
    for M in (16, 32, 64, 128, 256):
        eq, I0_star = tline_equilibrium(p, 1.0, M)
        traj = simulate_open_loop(p, eq, I0_star,
                                  IntegratorConfig(step=cfl_limit(p, M), max_time=0.5))
        report = conservation_check(p, traj, M)
        # the plain current and voltage balances omit the loss terms
        assert set(report) == {"residual_functional"}
        res.append(report["residual_functional"])
    assert res[0] < 1e-3
    ratios = [a / b for a, b in zip(res, res[1:])]
    assert all(3.8 < r < 4.2 for r in ratios), ratios


def test_conservation_residuals_of_a_lossless_line_are_reported():
    p, M = LineParams(R=0.0, G=0.0), 32
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    traj = simulate_open_loop(p, zero, 1.0, IntegratorConfig(step=cfl_limit(p, M), max_time=0.5))
    report = conservation_check(p, traj, M)
    assert set(report) == {"residual_current", "residual_voltage"}


@pytest.mark.parametrize("R, G", [(0.0, 1.0), (1.0, 0.0)])
def test_a_line_with_one_of_r_g_zero_has_an_empty_report(R, G):
    p, M = LineParams(R=R, G=G), 16
    zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    traj = simulate_open_loop(p, zero, 1.0, IntegratorConfig(step=cfl_limit(p, M), max_time=0.1))
    assert conservation_check(p, traj, M) == {}


def test_conservation_residuals_of_a_switched_on_lossless_line_are_first_order():
    # A unit source step on a line at rest puts a front into the data, so the
    # residual halves per doubling: 5.19e-3, 2.68e-3, 1.36e-3 at M = 16, 32,
    # 64 (and falls slower beyond).  Second order holds only for smooth data,
    # as in the lossy test above.
    p = LineParams(R=0.0, G=0.0)
    res = []
    for M in (16, 32, 64):
        zero = LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
        traj = simulate_open_loop(p, zero, 1.0,
                                  IntegratorConfig(step=cfl_limit(p, M), max_time=0.5))
        res.append(conservation_check(p, traj, M)["residual_current"])
    assert 5.0e-3 < res[0] < 5.4e-3
    ratios = [a / b for a, b in zip(res, res[1:])]
    assert all(1.8 < r < 2.1 for r in ratios), (res, ratios)


def test_dissipation_obstacle_gap_falls_fourfold_per_doubling():
    # rel_gap 3.0e-4, 7.6e-5, 1.9e-5, 4.7e-6 at M = 25 ... 200: the
    # trapezoidal quadrature of the line loss is second order.
    gaps = [dissipation_obstacle_report(LineParams(), 1.0, M)["rel_gap"] for M in GRIDS]
    assert gaps[0] < 4e-4
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(3.8 < r < 4.2 for r in ratios), ratios


# -- one formula over the last axis: blocks equal single states bit for bit ----

BLOCKS = (1, 7, 32)
LINE_GRIDS = (8, 16, 200)
# The boundary draws' line: a small L shrinks the field terms that the end
# nodes' current stencils feed, so the squared boundary terms dominate.
BOUNDARY_LINE = LineParams(L=1e-4, R0=2.0, R1=3.0)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def pow_hazards(rng, base: float, size: int) -> np.ndarray:
    """``size`` values ``x`` whose ``x - base`` squares differently by
    ``** 2`` on a scalar (libm ``pow``) and by an exact multiplication,
    which is what an array's ``** 2`` does.  With glibc about 1 draw in
    1,000 does; where none does, any draws serve."""
    x = base + rng.uniform(-2.0, 2.0, 5000 * size)
    hazard = np.array([d ** 2 != d * d for d in (x - base).tolist()])
    return np.concatenate([x[hazard], x[~hazard]])[:size]


def boundary_lyapunov_draws(p, eq, M, B, rng) -> np.ndarray:
    """Packed states on the target profile except at the two end nodes.

    ``i_M`` and, on alternate rows, ``i0 - i0*`` or ``vC0 - vC0*`` are
    :func:`pow_hazards`; the capacitor voltages keep both end-node voltages
    on the target, so the voltage stencils stay small.
    """
    Y = np.tile(eq.pack(), (B, 1))
    i0 = pow_hazards(rng, eq.i[0], B)
    vC0 = eq.v[0] + i0 * p.R0
    odd = slice(1, None, 2)
    vC0[odd] = pow_hazards(rng, eq.vC0, B)[odd]
    i0[odd] = (vC0[odd] - eq.v[0]) / p.R0
    iM = pow_hazards(rng, 0.0, B)
    Y[:, 0], Y[:, M], Y[:, 2 * M], Y[:, 2 * M + 1] = i0, iM, vC0, eq.v[-1] - p.R1 * iM
    return Y


@pytest.mark.parametrize("M", LINE_GRIDS)
def test_unpack_state_returns_the_packed_state_bitwise(M):
    # End-node voltages that obey the boundary circuits are what pack drops
    # and unpack_state recomputes.
    p = LineParams(R0=0.7, R1=1.3)
    rng = np.random.default_rng(M)
    for _ in range(20):
        i, v = rng.normal(size=(2, M + 1))
        vC0, vC1 = rng.normal(size=2).tolist()
        v[0], v[M] = vC0 - p.R0 * i[0], p.R1 * i[M] + vC1
        s = LineState(i, v, vC0, vC1)
        got = tline.unpack_state(p, s.pack(), M)
        assert isinstance(got.vC0, float) and isinstance(got.vC1, float)
        for a, b in ((got.i, s.i), (got.v, s.v), (got.vC0, s.vC0), (got.vC1, s.vC1)):
            assert bitwise_equal(a, b)
    for k in (0, M, M + 1, 2 * M, 2 * M + 1):
        y = s.pack()
        y[k] = np.nan
        with pytest.raises(ValueError, match="state must be finite"):
            tline.unpack_state(p, y, M)


@pytest.mark.parametrize("M", LINE_GRIDS)
@pytest.mark.parametrize("B", BLOCKS)
def test_block_unpack_and_stencil_equal_each_state_bitwise(M, B):
    p = LineParams(R0=0.7, R1=1.3)
    Y = np.random.default_rng([M, B]).normal(size=(B, 2 * M + 2))
    i, v, vC0, vC1 = tline.unpack(p, Y, M)
    assert i.shape == v.shape == (B, M + 1) and vC0.shape == vC1.shape == (B,)
    for k, y in enumerate(Y):
        ref = reference_line_state(p, y, M)
        one = tline.unpack(p, y, M)
        # one state's capacitor voltages are numpy scalars, not 0-d arrays
        assert not isinstance(one[2], np.ndarray) and not isinstance(one[3], np.ndarray)
        for got in ((i[k], v[k], vC0[k], vC1[k]), one):
            assert all(bitwise_equal(a, b) for a, b in zip(got, (ref.i, ref.v, ref.vC0, ref.vC1)))
    dz = 1.0 / M
    for values in (i, v, Y):
        block = tline._dz(values, dz)
        for k in range(B):
            ref = reference_dz(np.ascontiguousarray(values[k]), dz)
            assert bitwise_equal(block[k], ref)
            assert bitwise_equal(tline._dz(values[k], dz), ref)


@pytest.mark.parametrize("M", (8, 9, 16, 50, 200))
def test_rhs_equals_the_whole_profile_reference_bitwise(M):
    # Parameters from 1e-3 to 1e3, on some draws with R0, R1 or every
    # resistance 0; states and source currents scaled from 1e-300 to 1e300,
    # every third draw with inf or nan at an end, a capacitor or inside.
    # Only a NaN's sign may differ: -(a)/L is computed as a/(-L).
    rng = np.random.default_rng(M)
    ends = np.array([0, 1, M - 1, M, M + 1, M + 2, 2 * M - 2, 2 * M - 1, 2 * M, 2 * M + 1])
    for k in range(60):
        vals = 10.0 ** rng.uniform(-3.0, 3.0, 8)        # R L C G R0 C0 R1 C1
        vals[[[], [4], [6], [0, 3, 4, 6]][k % 4]] = 0.0
        p = LineParams(*vals)
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        y = scale * rng.normal(size=2 * M + 2)
        I0 = scale * rng.normal()
        if k % 3 == 0:
            at = np.append(rng.choice(ends, 2), rng.integers(2 * M + 2))
            y[at] = rng.choice([np.inf, -np.inf, np.nan], 3)
        with np.errstate(all="ignore"):
            got, ref = tline_rhs(p, y, I0, M), reference_tline_rhs(p, y, I0, M)
        assert np.array_equal(got, ref, equal_nan=True)
        number = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number]))


@pytest.mark.parametrize("M", LINE_GRIDS)
@pytest.mark.parametrize("B", BLOCKS)
@pytest.mark.parametrize("draw", ["random", "boundary"])
def test_block_lyapunov_equals_the_per_state_reference_bitwise(M, B, draw):
    p = LineParams() if draw == "random" else BOUNDARY_LINE
    K_I = 1.5
    eq, _ = tline_equilibrium(p, 1.0, M)
    adm = admissible_params_search(p)
    targets = (eq.i[0], eq.vC0, 1.0)
    rng = np.random.default_rng([M, B, draw == "boundary"])
    if draw == "random":
        Y = rng.normal(size=(B, 2 * M + 2))
    else:
        Y = boundary_lyapunov_draws(p, eq, M, B, rng)
    ref = [reference_closed_loop_lyapunov(p, reference_line_state(p, y, M), targets, adm, K_I)
           for y in Y]
    block = closed_loop_lyapunov(p, Y, targets, adm, K_I)
    assert isinstance(block, np.ndarray) and block.shape == (B,)
    assert bitwise_equal(block, ref)
    for y, r in zip(Y, ref):
        one = closed_loop_lyapunov(p, y, targets, adm, K_I)
        assert type(one) is float and bitwise_equal(one, r)


@pytest.mark.parametrize("M", LINE_GRIDS)
@pytest.mark.parametrize("B", BLOCKS)
@pytest.mark.parametrize("draw", ["random", "boundary"])
def test_block_line_energy_equals_each_state_bitwise(M, B, draw):
    p = LineParams(C0=0.6, C1=1.7)
    rng = np.random.default_rng([M, B, 7])
    if draw == "random":
        Y = rng.normal(size=(B, 2 * M + 2))
    else:
        # a line at rest but for its capacitors: the capacitor terms dominate
        Y = np.zeros((B, 2 * M + 2))
        Y[:, 2 * M], Y[:, 2 * M + 1] = pow_hazards(rng, 0.0, B), pow_hazards(rng, 0.0, B)
    ref = [reference_line_energy(p, reference_line_state(p, y, M)) for y in Y]
    block = line_energy(p, Y)
    assert isinstance(block, np.ndarray) and block.shape == (B,)
    assert bitwise_equal(block, ref)
    for y, r in zip(Y, ref):
        one = line_energy(p, y)
        assert type(one) is float and bitwise_equal(one, r)
