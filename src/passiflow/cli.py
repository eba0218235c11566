"""Configuration-driven experiment runner.

One JSON config describes one experiment: a convex-problem solve, an SVM
training run, a plant/controller closed loop, a transmission-line run, or a
re-audit of a stored storage trace; :data:`KINDS` holds how each kind is
validated, run and exposed as a subcommand.  Outputs are deterministic for a
fixed config and seed: trajectory/storage CSVs with 17-significant-digit
floats and a ``summary.json`` that echoes the fully defaulted config, so
every run is self-describing.

Exit codes: 0 ok, 2 validation failure, 3 divergence.  Under ``--strict``,
4 if any ``verdict``, ``lyapunov_monotone`` or ``switch_audit.verdict`` of
the summary is FAIL, else 3 if ``converged`` is false.  So for ``plant``
and ``tline`` runs ``--strict`` gates only the Lyapunov audit verdict; the
distance to the target (``target_error``, ``profile_error``) is reported in
``summary.json`` but never sets the exit code.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import numbers
import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import plants, svm as svm_mod, tline as tline_mod
from .brayton_moser import StorageTrace, lyapunov_audit
from .ode import DivergenceError, IntegratorConfig, integrate, write_csv
from .primal_dual import (
    AffineInequalities,
    ConvexProblem,
    FlowState,
    ScalarOracle,
    TimeConstants,
    quadratic_oracle,
    solve,
    storage_switch_audit,
)

__all__ = ["main", "run", "validate", "load_config", "KINDS", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_AUDIT = 4


# -- named nonlinear inequalities registered for problem files --------------

def _ball_constraint(params: dict, n: int) -> ScalarOracle:
    center = np.asarray(params.get("center", np.zeros(n)), dtype=float)
    radius = float(params["radius"])

    return ScalarOracle(
        value=lambda x: float((x - center) @ (x - center) - radius ** 2),
        grad=lambda x: 2.0 * (x - center),
        hess=lambda x: 2.0 * np.eye(n),
    )


NAMED_INEQUALITIES = {"ball": _ball_constraint}

_DEFAULT_INTEGRATOR = {
    "step": 1e-3,
    "max_time": 10.0,
    "event_tol": 1e-10,
    "convergence_tol": 1e-6,
    "convergence_window": 5,
    "record_every": 1,
}


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _integrator(cfg: dict, **override) -> dict:
    """The defaults, updated by the config's integrator block, then by ``override``."""
    return {**_DEFAULT_INTEGRATOR, **cfg.get("integrator", {}), **override}


def _echoed(cfg: dict) -> dict:
    echo = json.loads(json.dumps(cfg))
    echo["integrator"] = _integrator(echo)
    echo.setdefault("schema", SCHEMA_VERSION)
    return echo


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class _Diagnostics(list):
    """Validation messages and the checks that append them."""

    def need(self, cond, msg):
        if not cond:
            self.append(msg)

    def need_num(self, path, value, low, strict=True):
        ok = isinstance(value, numbers.Real) and (value > low if strict else value >= low)
        self.need(ok, f"{path}: must be a number {'>' if strict else '>='} {low:g}")


def validate(cfg: dict) -> list[str]:
    """Full precondition sweep; returns diagnostics, never runs or raises."""
    if not isinstance(cfg, dict):
        return ["config: must be a JSON object"]
    diags = _Diagnostics()
    try:
        _validate(cfg, diags)
    except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
        diags.append(f"config: malformed field ({type(exc).__name__}: {exc})")
    return list(diags)


def _validate(cfg: dict, d: _Diagnostics) -> None:
    d.need(cfg.get("schema", SCHEMA_VERSION) == SCHEMA_VERSION,
           f"schema: expected version {SCHEMA_VERSION}")
    kind = cfg.get("kind")
    d.need(kind in KINDS, f"kind: must be one of {'/'.join(KINDS)}, got {kind!r}")

    integ = cfg.get("integrator", {})
    for key in ("step", "max_time", "event_tol", "convergence_tol"):
        if key in integ:
            d.need_num(f"integrator.{key}", integ[key], 0)
    for key in ("convergence_window", "record_every"):
        if key in integ:
            d.need_num(f"integrator.{key}", integ[key], 1, strict=False)

    if kind in KINDS:
        KINDS[kind].validate(cfg, d)


def _check_solve(cfg: dict, d: _Diagnostics) -> None:
    prob = cfg.get("problem")
    if not isinstance(prob, dict):
        d.append("problem: missing block")
        return
    obj = prob.get("objective", {})
    Q0 = np.asarray(obj.get("Q0", []), dtype=float)
    square = Q0.ndim == 2 and Q0.shape[0] == Q0.shape[1] and Q0.size > 0
    d.need(square, "problem.objective.Q0: must be a square matrix")
    if not square:
        return
    d.need(np.linalg.eigvalsh(0.5 * (Q0 + Q0.T))[0] > 0,
           "problem.objective.Q0: must be positive definite")
    n = Q0.shape[0]
    c = np.asarray(obj.get("c", np.zeros(n)), dtype=float)
    d.need(c.shape == (n,), "problem.objective.c: length must match Q0")
    sizes = {"x": n, "lam": 0, "mu": 0}
    eq = prob.get("equalities")
    if eq is not None:
        A = np.asarray(eq.get("A", []), dtype=float)
        b = np.asarray(eq.get("b", []), dtype=float)
        d.need(A.ndim == 2 and A.shape[1] == n, "problem.equalities.A: must be m x n")
        d.need(A.shape[0] == b.shape[0], "problem.equalities.b: rows must match A")
        sizes["lam"] = b.shape[0]
    ineq = prob.get("inequalities")
    if ineq is not None:
        if "affine" in ineq:
            G = np.asarray(ineq["affine"].get("G", []), dtype=float)
            h = np.asarray(ineq["affine"].get("h", []), dtype=float)
            d.need(G.ndim == 2 and G.shape[1] == n, "problem.inequalities.affine.G: must be p x n")
            d.need(G.shape[0] == h.shape[0], "problem.inequalities.affine.h: rows must match G")
            sizes["mu"] = h.shape[0]
        for k, entry in enumerate(ineq.get("named", [])):
            d.need(entry.get("name") in NAMED_INEQUALITIES,
                   f"problem.inequalities.named: unknown name {entry.get('name')!r}")
            if entry.get("name") == "ball":
                _check_ball(entry.get("params", {}), n,
                            f"problem.inequalities.named[{k}].params", d)
        sizes["mu"] += len(ineq.get("named", []))
    init, taus = cfg.get("init", {}), cfg.get("time_constants", {})
    for key, size in sizes.items():
        x0 = np.atleast_1d(np.asarray(init.get(key, np.zeros(size)), dtype=float))
        d.need(x0.shape == (size,) and np.isfinite(x0).all(),
               f"init.{key}: must have {size} finite entries")
        tau = np.atleast_1d(np.asarray(taus.get(f"tau_{key}", np.ones(size)), dtype=float))
        d.need(tau.shape == (size,) and (tau > 0).all(),
               f"time_constants.tau_{key}: must have {size} entries, all > 0")
    d.need((np.asarray(init.get("mu", []), dtype=float) >= 0).all(), "init.mu: must be >= 0")


def _check_ball(params: dict, n: int, path: str, d: _Diagnostics) -> None:
    d.need_num(f"{path}.radius", params.get("radius"), 0)
    center = np.asarray(params.get("center", np.zeros(n)), dtype=float)
    d.need(center.shape == (n,) and np.isfinite(center).all(),
           f"{path}.center: must have {n} finite entries")


def _check_svm(cfg: dict, d: _Diagnostics) -> None:
    blk = cfg.get("svm", {})
    d.need_num("svm.n_per_class", blk.get("n_per_class", 300), 1, strict=False)
    seed = blk.get("seed", cfg.get("seed", 0))
    d.need(isinstance(seed, numbers.Integral) and seed >= 0, "svm.seed: must be an integer >= 0")
    cov = np.asarray(blk.get("cov", svm_mod.DEFAULT_COV), dtype=float)
    symmetric = cov.shape == (2, 2) and np.allclose(cov, cov.T)
    d.need(symmetric, "svm.cov: must be symmetric 2x2")
    if symmetric:
        d.need(np.linalg.eigvalsh(cov)[0] > 0, "svm.cov: must be positive definite")


# plant: (parameter names, default targets, default initial state,
#         {controller: {gain: whether it must be > 0 rather than >= 0}})
_PLANTS = {
    "parallel_rlc": (("R", "G", "L", "C"), {"v_star": 1.0}, [0.0, 0.0],
                     {"power_shaping": {"K": False},
                      "krasovskii_pi": {"K_P": False, "K_I": False}}),
    "hvac": (tuple(f.name for f in fields(plants.HvacParams)), {"T1": 2.5, "T2": 6.0},
             [4.0, 5.0, 16.0, 16.0],
             {"power_shaping": {"k": True, "k1": True, "k2": True, "alpha": False},
              "dyn_feedback": {"k1": True, "kd": False, "ki": False}}),
}


def _check_plant(cfg: dict, d: _Diagnostics) -> None:
    blk = cfg.get("plant", {})
    name = blk.get("name")
    controller = blk.get("controller")
    d.need(name in _PLANTS, f"plant.name: unknown plant {name!r}")
    d.need_num("plant.horizon", blk.get("horizon", 10.0), 0)
    if name not in _PLANTS:
        return
    param_names, target_defaults, initial_state, controllers = _PLANTS[name]
    d.need(controller in controllers, f"plant.controller: {controller!r} not available for {name}")
    params, gains = blk.get("params", {}), blk.get("gains", {})
    allowed_gains = controllers.get(controller)
    if allowed_gains is None:           # unknown controller, reported above
        allowed_gains = dict.fromkeys(gains, False)
    for section, values, allowed in (("params", params, param_names),
                                     ("gains", gains, allowed_gains),
                                     ("targets", blk.get("targets", {}), target_defaults)):
        for key in values:
            d.need(key in allowed, f"plant.{section}.{key}: unknown; expected one of "
                                   f"{', '.join(allowed)}")
    for gname, gval in gains.items():
        d.need_num(f"plant.gains.{gname}", gval, 0, strict=allowed_gains.get(gname, False))
    for key, val in params.items():
        if key not in ("T_s", "T_inf"):
            d.need_num(f"plant.params.{key}", val, 0)
    x0 = np.asarray(blk.get("initial_state", initial_state), dtype=float)
    d.need(x0.shape == (len(initial_state),) and np.isfinite(x0).all(),
           f"plant.initial_state: must have {len(initial_state)} finite entries")
    targets = {**target_defaults, **blk.get("targets", {})}
    for key, val in targets.items():
        d.need(isinstance(val, numbers.Real), f"plant.targets.{key}: must be a number")
    if name == "hvac":
        # hvac_equilibrium and the dynamic feedback divide by T_s - T_i
        T_s = params.get("T_s", plants.HvacParams.T_s)
        for key, val in targets.items():
            d.need(abs(val - T_s) >= 1e-12, f"plant.targets.{key}: must differ from T_s {T_s:g}")
        if controller == "dyn_feedback":
            d.need(np.all(np.abs(x0[:2] - T_s) >= 1e-12),
                   f"plant.initial_state: zone temperatures must differ from T_s {T_s:g}")
            d.need(np.shape(blk.get("initial_input", [0.0, 0.0])) == (2,),
                   "plant.initial_input: must have 2 entries")


def _check_tline(cfg: dict, d: _Diagnostics) -> None:
    blk = cfg.get("tline", {})
    params = blk.get("params", {})
    for key, val in params.items():     # LineParams rejects unknown keys below
        d.need_num(f"tline.params.{key}", val, 0, strict=key in ("L", "C", "C0", "C1"))
    for gname, gval in blk.get("gains", {}).items():
        d.need(gname in ("K_P", "K_I"), f"tline.gains.{gname}: unknown; expected K_P or K_I")
        d.need_num(f"tline.gains.{gname}", gval, 0, strict=False)
    d.need_num("tline.grid", blk.get("grid", 100), 8, strict=False)
    d.need_num("tline.horizon", blk.get("horizon", 10.0), 0)
    try:
        limit = tline_mod.cfl_limit(tline_mod.LineParams(**params), int(blk.get("grid", 100)))
        d.need(_integrator(cfg)["step"] <= limit,
               f"integrator.step: violates stability guard {limit:.3g} at this grid")
    except (TypeError, ValueError) as exc:
        d.append(f"tline.params: {exc}")


def _check_audit(cfg: dict, d: _Diagnostics) -> None:
    blk = cfg.get("audit", {})
    d.need("trace_csv" in blk, "audit.trace_csv: missing path")
    if "trace_csv" in blk:
        path = Path(blk["trace_csv"])
        d.need(path.is_file(), f"audit.trace_csv: no file {blk['trace_csv']}")
        if path.is_file():   # the column names as _run_audit reads them
            rows = np.genfromtxt(path, delimiter=",", names=True, max_rows=1)
            names = rows.dtype.names or ()
            d.need("t" in names, f"audit.trace_csv: no column t in {', '.join(names)}")
            d.need("storage" in names or "V" in names,
                   f"audit.trace_csv: no column storage or V in {', '.join(names)}")
    if "audit_tol" in blk:
        d.need_num("audit.audit_tol", blk["audit_tol"], 0)


# ---------------------------------------------------------------------------
# experiment bodies: each writes its artifacts and returns its summary
# ---------------------------------------------------------------------------

def _build_problem(prob_cfg: dict) -> ConvexProblem:
    obj = prob_cfg["objective"]
    Q0 = np.asarray(obj["Q0"], dtype=float)
    n = Q0.shape[0]
    c = np.asarray(obj.get("c", np.zeros(n)), dtype=float)
    eq = prob_cfg.get("equalities")
    A = np.asarray(eq["A"], dtype=float) if eq else None
    b = np.asarray(eq["b"], dtype=float) if eq else None
    ineq_cfg = prob_cfg.get("inequalities")
    ineq = None
    if ineq_cfg:
        affine = ineq_cfg.get("affine", {"G": np.zeros((0, n)), "h": np.zeros(0)})
        named = [NAMED_INEQUALITIES[entry["name"]](entry.get("params", {}), n)
                 for entry in ineq_cfg.get("named", [])]
        ineq = AffineInequalities(affine["G"], affine["h"], named)
    return ConvexProblem(n=n, f=quadratic_oracle(Q0, c), A=A, b=b, ineq=ineq)


def _run_solve(cfg: dict, out: Path) -> dict:
    prob = _build_problem(cfg["problem"])
    sizes = {"x": prob.n, "lam": prob.m, "mu": prob.p}
    init_cfg = cfg.get("init", {})
    tc_cfg = cfg.get("time_constants", {})
    init = FlowState(*(np.asarray(init_cfg.get(k, np.zeros(size)), dtype=float)
                       for k, size in sizes.items()))
    tc = TimeConstants(*(np.asarray(tc_cfg.get(f"tau_{k}", np.ones(size)), dtype=float)
                         for k, size in sizes.items()))
    result = solve(prob, init, tc=tc, cfg=IntegratorConfig(**_integrator(cfg)))
    result.trajectory.to_csv(out / "trajectory.csv", out / "events.csv")
    result.storage.to_csv(out / "storage.csv")
    return {**result.summary(), "switch_audit": storage_switch_audit(result.storage)}


def _run_svm(cfg: dict, out: Path) -> dict:
    blk = cfg.get("svm", {})
    seed = int(blk.get("seed", cfg.get("seed", 0)))
    data = svm_mod.generate_gaussian_classes(
        seed=seed,
        n_per_class=int(blk.get("n_per_class", 300)),
        mean_a=blk.get("mean_a", svm_mod.DEFAULT_MEAN_A),
        mean_b=blk.get("mean_b", svm_mod.DEFAULT_MEAN_B),
        cov=blk.get("cov", svm_mod.DEFAULT_COV),
    )
    write_csv(out / "dataset.csv", ["x1", "x2", "label"],
              np.column_stack([data.points, data.labels]))
    icfg = IntegratorConfig(**_integrator(cfg)) if "integrator" in cfg else None
    result = svm_mod.train_svm(data, cfg=icfg)
    traj = result.trajectory
    times = traj.times.tolist()
    write_csv(out / "beta_trajectory.csv", ["t", "beta1", "beta2", "beta0"],
              ([t] + z[:3].tolist() for t, z in zip(times, traj.states)))
    write_csv(out / "mu_trajectory.csv", ["t"] + [f"mu{i}" for i in range(data.size)],
              ([t] + z[3:].tolist() for t, z in zip(times, traj.states)))
    idx, plane, report = svm_mod.support_vectors(data, result.final,
                                                 tol=blk.get("sv_tol", 1e-6))
    return {
        "seed": seed,
        "support_vector_indices": [int(k) for k in idx],
        "beta": [float(b) for b in plane.beta],
        "beta0": float(plane.beta0),
        "representer_residual": report["representer_residual"],
        "margin": report["margin"],
        "dual_balance": report["dual_balance"],
        "kkt": result.kkt.as_dict(),
        "converged": result.converged,
        "switch_count": result.switch_count,
    }


def _run_plant(cfg: dict, out: Path) -> dict:
    blk = cfg["plant"]
    name = blk["name"]
    controller = blk["controller"]
    gains = blk.get("gains", {})
    params = blk.get("params", {})
    _, target_defaults, initial_state, _ = _PLANTS[name]
    targets = {**target_defaults, **blk.get("targets", {})}
    x0 = np.asarray(blk.get("initial_state", initial_state), dtype=float)
    icfg = IntegratorConfig(**_integrator(cfg, max_time=float(blk.get("horizon", 10.0))))

    if name == "parallel_rlc":
        p = plants.ParallelRLC(**{"R": 1.0, "G": 1.0, "L": 1.0, "C": 1.0, **params})
        v_star = float(targets["v_star"])
        i_star, Vs_star = plants.prlc_equilibrium(p, v_star)
        if controller == "power_shaping":
            rhs, lyap = plants.prlc_power_shaping_loop(p, i_star, float(gains.get("K", 1.0)))
        else:
            rhs, lyap = plants.prlc_krasovskii_pi_loop(
                p, i_star, v_star, float(gains.get("K_P", 1.0)), float(gains.get("K_I", 1.0)))
            x0 = np.concatenate([x0, [0.0]])
        target_state = np.array([i_star, v_star])
        extra = {"i_star": i_star, "v_star": v_star, "Vs_star": Vs_star}
    else:
        h = plants.HvacParams(**params)
        T1s = float(targets["T1"])
        T2s = float(targets["T2"])
        T_star, u_star = plants.hvac_equilibrium(h, T1s, T2s)
        if controller == "power_shaping":
            rhs, lyap = plants.hvac_power_shaping_loop(
                h, (T1s, T2s), float(gains.get("k", 1.0)), float(gains.get("k1", 1.0)),
                float(gains.get("k2", 1.0)), float(gains.get("alpha", 1.0)))
            target_state = T_star
        else:
            sysd = plants.hvac_dyn_feedback(h)
            rhs, lyap = plants.dyn_feedback_loop(
                sysd, T_star, float(gains.get("k1", 1.0)),
                float(gains.get("kd", 1.0)), float(gains.get("ki", 1.0)))
            x0 = np.concatenate([x0, blk.get("initial_input", [0.0, 0.0])])
            target_state = np.concatenate([T_star, u_star])
        extra = {"T_star": [float(x) for x in T_star], "u_star": [float(x) for x in u_star]}

    traj = integrate(rhs, x0, icfg, stop_when_converged=False)
    traj.to_csv(out / "trajectory.csv")
    V = np.array([lyap(t, z) for t, z in zip(traj.times, traj.states)])
    write_csv(out / "lyapunov.csv", ["t", "V"], zip(traj.times.tolist(), V.tolist()))
    audit = lyapunov_audit(traj.times, V)
    return {
        "plant": name,
        "controller": controller,
        "final_state": [float(v) for v in traj.final_state],
        "target_error": float(np.max(np.abs(traj.final_state[: target_state.size]
                                            - target_state))),
        "lyapunov_monotone": audit["verdict"],
        "min_margin": audit["min_margin"],
        "worst_time": audit["worst_time"],
        **extra,
    }


def _run_tline(cfg: dict, out: Path) -> dict:
    blk = cfg.get("tline", {})
    p = tline_mod.LineParams(**blk.get("params", {}))
    M = int(blk.get("grid", 100))
    vC1_star = float(blk.get("target_vc1", 0.0))
    gains = blk.get("gains", {})
    icfg = IntegratorConfig(**_integrator(cfg, max_time=float(blk.get("horizon", 10.0))))
    zero = tline_mod.LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    if vC1_star == 0.0 and not gains:
        traj = integrate(lambda t, y: tline_mod.tline_rhs(p, y, 0.0, M), zero.pack(), icfg)
        lyap_vals = np.array([tline_mod.line_energy(p, tline_mod.unpack_state(p, y, M))
                              for y in traj.states])
        summary = {"mode": "open_loop_zero", "final_energy": float(lyap_vals[-1])}
    else:
        rhs, lyap, eq, I0_star = tline_mod.tline_pi_loop(
            p, M, vC1_star, float(gains.get("K_P", 1.0)), float(gains.get("K_I", 1.0)))
        traj = integrate(rhs, zero.pack(), icfg)
        lyap_vals = np.array([lyap(t, y) for t, y in zip(traj.times, traj.states)])
        final = tline_mod.unpack_state(p, traj.final_state, M)
        audit = lyapunov_audit(traj.times, lyap_vals)
        summary = {
            "mode": "boundary_pi",
            "I0_star": float(I0_star),
            "profile_error": float(max(np.max(np.abs(final.i - eq.i)),
                                       np.max(np.abs(final.v - eq.v)))),
            "final_vC1": float(final.vC1),
            "lyapunov_monotone": audit["verdict"],
            "min_margin": audit["min_margin"],
        }

    header = (["t"] + [f"i{k}" for k in range(M + 1)]
              + [f"v{k}" for k in range(M + 1)] + ["vC0", "vC1"])
    line_states = (tline_mod.unpack_state(p, y, M) for y in traj.states)
    write_csv(out / "spacetime.csv", header, ([t] + s.i.tolist() + s.v.tolist() + [s.vC0, s.vC1]
                                              for t, s in zip(traj.times.tolist(), line_states)))
    write_csv(out / "lyapunov.csv", ["t", "V"], zip(traj.times.tolist(), lyap_vals.tolist()))
    return summary


def _run_audit(cfg: dict, out: Path) -> dict:
    blk = cfg["audit"]
    rows = np.genfromtxt(blk["trace_csv"], delimiter=",", names=True)
    trace = StorageTrace(rows["t"],
                         rows["storage"] if "storage" in rows.dtype.names else rows["V"],
                         rows["supply"] if "supply" in rows.dtype.names
                         else np.zeros(rows["t"].size))
    return trace.report(blk.get("audit_tol"))


# validate(cfg, diagnostics), run(cfg, out) -> summary, subcommand flags as
# (flag, type, key in the kind's config block, help), runs without a config
Kind = namedtuple("Kind", "validate run flags runs_without_config", defaults=((), False))

KINDS = {
    "solve": Kind(_check_solve, _run_solve),
    "svm": Kind(_check_svm, _run_svm,
                (("--n", int, "n_per_class", "points per class"),), True),
    "plant": Kind(_check_plant, _run_plant,
                  (("--plant", str, "name", "plant name"),
                   ("--controller", str, "controller", "controller name"),
                   ("--horizon", float, "horizon", "simulated time"))),
    "tline": Kind(_check_tline, _run_tline,
                  (("--target", float, "target_vc1", "target vC1"),
                   ("--grid", int, "grid", "grid intervals M"),
                   ("--horizon", float, "horizon", "simulated time")), True),
    "audit": Kind(_check_audit, _run_audit),
}


def _exit_code(summary: dict, strict: bool) -> int:
    """0 ok, 3 divergence.  Under ``--strict``, 4 if any ``verdict``,
    ``lyapunov_monotone`` or ``switch_audit.verdict`` of the summary is
    FAIL, else 3 if ``converged`` is false."""
    if "error" in summary:
        return EXIT_DIVERGENCE
    if not strict:
        return EXIT_OK
    verdicts = (summary.get("verdict"), summary.get("lyapunov_monotone"),
                summary.get("switch_audit", {}).get("verdict"))
    if "FAIL" in verdicts:
        return EXIT_AUDIT
    return EXIT_OK if summary.get("converged", True) else EXIT_DIVERGENCE


def run(cfg: dict, out_dir, strict: bool = False) -> tuple[int, dict]:
    """Validate, run, and write artifacts; returns (exit_code, summary)."""
    diags = validate(cfg)
    if diags:
        return EXIT_VALIDATION, {"validation_errors": diags}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]
    try:
        summary = KINDS[kind].run(cfg, out)
    except DivergenceError as exc:
        summary = {"error": str(exc)}
    code = _exit_code(summary, strict)
    payload = {"config": _echoed(cfg), "kind": kind, "exit_code": code, **summary}
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
    return code, payload


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passiflow",
        description="Gradient-flow optimization and passivity-audited plant simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *KINDS, "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", action="append", default=[], help="experiment config JSON")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the svm seed")
        sp.add_argument("--strict", action="store_true",
                        help="nonzero exit on non-convergence or audit failure; plant and "
                             "tline runs gate only the Lyapunov audit, not the distance "
                             "to the target")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for multiple configs")
        for flag, typ, key, text in KINDS[name].flags if name in KINDS else ():
            sp.add_argument(flag, type=typ, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    kind = KINDS.get(args.command)
    stems = [Path(path).stem for path in args.config]
    repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
    if repeated and args.command != "validate":
        parser.error("configs would share an output directory; repeated file stem "
                     + ", ".join(map(repr, repeated)))

    configs = [load_config(path) for path in args.config]
    if not configs:
        if kind is None or not kind.runs_without_config:
            parser.error("--config is required for this subcommand")
        configs = [{"schema": SCHEMA_VERSION, "kind": args.command, args.command: {}}]

    # Subcommand flags and --seed fold into the loaded configs.
    for cfg in configs:
        if not isinstance(cfg, dict):
            continue                    # validate() reports it
        if kind is not None:
            cfg.setdefault("kind", args.command)
            values = {key: getattr(args, key) for _, _, key, _ in kind.flags
                      if getattr(args, key) is not None}
            if values:
                cfg.setdefault(args.command, {}).update(values)
        if args.seed is not None and cfg.get("kind") == "svm":
            cfg.setdefault("svm", {})["seed"] = args.seed

    if args.command == "validate":
        worst = EXIT_OK
        for path_or_idx, cfg in enumerate(configs):
            diags = validate(cfg)
            if diags:
                worst = EXIT_VALIDATION
                for d in diags:
                    print(f"config[{path_or_idx}]: {d}", file=sys.stderr)
            else:
                print(f"config[{path_or_idx}]: ok")
        return worst

    out_dirs = ([Path(args.out) / stem for stem in stems] if len(configs) > 1
                else [Path(args.out)])
    strict = [args.strict] * len(configs)
    if args.jobs > 1 and len(configs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, configs, out_dirs, strict))
    else:
        results = map(run, configs, out_dirs, strict)
    worst = EXIT_OK
    for code, summary in results:
        print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                         sort_keys=True, default=float))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
