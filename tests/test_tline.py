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
