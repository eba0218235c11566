import re

import numpy as np
import pytest

from passiflow.ode import IntegratorConfig, integrate
from passiflow.tline import (
    LineParams,
    LineState,
    admissible_params_search,
    cfl_limit,
    closed_loop_lyapunov,
    conservation_check,
    dissipation_obstacle_report,
    simulate_open_loop,
    tline_equilibrium,
    tline_pi_loop,
    tline_rhs,
)

GRIDS = (25, 50, 100, 200)


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
        values.append(closed_loop_lyapunov(p, eq, (eq.i[0], eq.vC0, 1.0), adm, 1.0))
    assert min(values) >= 0.0
    assert values[0] < 1e-7
    ratios = [a / b for a, b in zip(values, values[1:])]
    assert all(r > 14.0 for r in ratios), ratios


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
