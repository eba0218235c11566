"""Independent references for every operation, computed once and untimed.

None of these goes through the gradient flow or the RK4 integrator:

* ``svm``: SLSQP on the same 3-variable max-margin QP;
* ``solve``: active-set enumeration (``enumerate_qp_kkt`` in
  ``tests/oracles.py``) of the affine part; the ball is inactive at the
  optimum by construction;
* ``plant`` and ``tline``: ``scipy.integrate.solve_ivp`` (DOP853, tight
  tolerances) on the same closed-loop right-hand side;
* ``audit``: nothing to compare; the audit verdict must be PASS.

:func:`check` turns one operation's outcome into ``None`` (correct) or the
reason it failed.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from passiflow import plants, svm, tline

import workloads

# Relative tolerances, each with a wide margin over the agreement a correct
# run shows: the SVM hyperplane agrees with SLSQP to ~5e-8, QP endpoints with
# the enumeration to ~1e-8, and plant endpoints with DOP853 to ~1e-11.  The
# line runs at the CFL-guard step, where RK4's own error is ~7e-6 relative
# (shrinking 16x per step halving); a wrong rhs or control law is off by far
# more than any of these.
SVM_REL_TOL = 1e-6
QP_TOL = 1e-6
ODE_TOL = {"plant": 1e-8, "tline": 1e-4}
_IVP = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-12}


def _svm_reference(cfg):
    blk = cfg["svm"]
    data = svm.generate_gaussian_classes(seed=blk["seed"], n_per_class=blk["n_per_class"])
    rows = data.labels[:, None] * np.column_stack([data.points, np.ones(data.size)])
    res = minimize(
        lambda w: 0.5 * (w[0] ** 2 + w[1] ** 2),
        np.zeros(3),
        jac=lambda w: np.array([w[0], w[1], 0.0]),
        constraints=[{"type": "ineq", "fun": lambda w: rows @ w - 1.0,
                      "jac": lambda w: rows}],
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 500},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP reference failed: {res.message}")
    w = res.x
    return {"beta": w[:2], "beta0": w[2], "margin": 2.0 / np.linalg.norm(w[:2])}


def _plant_loop(blk):
    """(rhs, x0) of the closed loop a ``plant`` config describes."""
    name, controller = blk["name"], blk["controller"]
    gains, params = blk["gains"], blk["params"]
    x0 = np.asarray(blk["initial_state"], dtype=float)
    if name == "parallel_rlc":
        p = plants.ParallelRLC(**params)
        i_star, _ = plants.prlc_equilibrium(p, 1.0)
        if controller == "power_shaping":
            rhs, _ = plants.prlc_power_shaping_loop(p, i_star, gains["K"])
            return rhs, x0
        rhs, _ = plants.prlc_krasovskii_pi_loop(p, i_star, 1.0, gains["K_P"], gains["K_I"])
        return rhs, np.concatenate([x0, [0.0]])
    h = plants.HvacParams(**params)
    if controller == "power_shaping":
        rhs, _ = plants.hvac_power_shaping_loop(h, (2.5, 6.0), gains["k"], gains["k1"],
                                                gains["k2"], gains["alpha"])
        return rhs, x0
    T_star, _ = plants.hvac_equilibrium(h, 2.5, 6.0)
    rhs, _ = plants.dyn_feedback_loop(plants.hvac_dyn_feedback(h), T_star,
                                      gains["k1"], gains["kd"], gains["ki"])
    return rhs, np.concatenate([x0, [0.0, 0.0]])


def _plant_reference(cfg):
    blk = cfg["plant"]
    rhs, x0 = _plant_loop(blk)
    sol = solve_ivp(rhs, (0.0, blk["horizon"]), x0, **_IVP)
    return {"final": sol.y[:, -1]}


def _tline_reference(cfg):
    blk = cfg["tline"]
    p = tline.LineParams()
    M = blk["grid"]
    rhs, _, _, _ = tline.tline_pi_loop(p, M, blk["target_vc1"], blk["gains"]["K_P"],
                                       blk["gains"]["K_I"])
    y0 = np.zeros(2 * M + 2)
    sol = solve_ivp(rhs, (0.0, blk["horizon"]), y0, **_IVP)
    s = tline.unpack_state(p, sol.y[:, -1], M)
    return {"final": np.concatenate([s.i, s.v, [s.vC0, s.vC1]])}


def _solve_reference(cfg):
    prob = cfg["problem"]
    aff = prob["inequalities"]["affine"]
    eq = prob.get("equalities", {"A": None, "b": None})
    x, lam, mu = workloads.load_oracles().enumerate_qp_kkt(
        prob["objective"]["Q0"], prob["objective"]["c"], eq["A"], eq["b"], aff["G"], aff["h"])
    return {"final": np.concatenate([x, lam, mu, [0.0]])}


_REFERENCES = {
    "svm": _svm_reference,
    "plant": _plant_reference,
    "tline": _tline_reference,
    "solve": _solve_reference,
    "audit": lambda cfg: {},
}


def reference(op) -> dict:
    return _REFERENCES[op.kind](op.cfg)


def _max_rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return np.inf
    return float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))


def check(op, outcome: dict, ref: dict) -> str | None:
    """``None`` when the outcome is correct, else why the operation failed."""
    if outcome.get("error"):
        return outcome["error"]
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}"
    summary = outcome["summary"]
    if op.kind == "svm":
        rel = abs(summary["margin"] - ref["margin"]) / ref["margin"]
        plane = np.concatenate([summary["beta"], [summary["beta0"]]])
        plane_ref = np.concatenate([ref["beta"], [ref["beta0"]]])
        rel = max(rel, _max_rel_err(plane, plane_ref))
        if rel > SVM_REL_TOL:
            return f"hyperplane off the SLSQP reference by {rel:.2e} (relative)"
        return None
    if op.kind == "solve":
        if summary["verdict"] != "PASS":
            return "storage audit FAIL"
        if summary["switch_audit"]["verdict"] != "PASS":
            return "switch audit FAIL"
        err = _max_rel_err(outcome["final"], ref["final"])
        if err > QP_TOL:
            return f"KKT point off the enumerated reference by {err:.2e}"
        return None
    if op.kind == "audit":
        return None if summary["verdict"] == "PASS" else "audit FAIL"
    if summary["lyapunov_monotone"] != "PASS":
        return "Lyapunov audit FAIL"
    err = _max_rel_err(outcome["final"], ref["final"])
    if err > ODE_TOL[op.kind]:
        return f"final state off the solve_ivp reference by {err:.2e}"
    return None
