"""Configuration-driven experiment runner.

One JSON config describes one experiment: a convex-problem solve, an SVM
training run, a plant/controller closed loop, a transmission-line run, or a
re-audit of a stored storage trace.  Outputs are deterministic for a fixed
config and seed: trajectory/storage CSVs with 17-significant-digit floats
and a ``summary.json`` that echoes the fully defaulted config, so every run
is self-describing.

Exit codes: 0 ok, 2 validation failure, 3 divergence (always) or
non-convergence (under ``--strict``), 4 audit failure (under ``--strict``).
For ``plant`` and ``tline`` runs ``--strict`` gates only the Lyapunov audit
verdict; the distance to the target (``target_error``, ``profile_error``)
is reported in ``summary.json`` but never sets the exit code.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from . import plants, svm as svm_mod, tline as tline_mod
from .brayton_moser import StorageTrace
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

__all__ = ["main", "run", "validate", "load_config", "SCHEMA_VERSION"]

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


def _integrator_config(cfg: dict) -> IntegratorConfig:
    merged = dict(_DEFAULT_INTEGRATOR)
    merged.update(cfg.get("integrator", {}))
    return IntegratorConfig(**merged)


def _echoed(cfg: dict) -> dict:
    echo = json.loads(json.dumps(cfg))
    merged = dict(_DEFAULT_INTEGRATOR)
    merged.update(echo.get("integrator", {}))
    echo["integrator"] = merged
    echo.setdefault("schema", SCHEMA_VERSION)
    return echo


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(cfg: dict) -> list[str]:
    """Full precondition sweep; returns diagnostics, never runs or raises."""
    if not isinstance(cfg, dict):
        return ["config: must be a JSON object"]
    diags: list[str] = []
    try:
        _validate(cfg, diags)
    except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
        diags.append(f"config: malformed field ({type(exc).__name__}: {exc})")
    return diags


def _validate(cfg: dict, diags: list[str]) -> None:
    def need(cond, msg):
        if not cond:
            diags.append(msg)

    def need_num(path, value, low, strict=True):
        ok = isinstance(value, numbers.Real) and (value > low if strict else value >= low)
        need(ok, f"{path}: must be a number {'>' if strict else '>='} {low:g}")

    need(cfg.get("schema", SCHEMA_VERSION) == SCHEMA_VERSION,
         f"schema: expected version {SCHEMA_VERSION}")
    kind = cfg.get("kind")
    need(kind in {"solve", "svm", "plant", "tline", "audit"},
         f"kind: must be one of solve/svm/plant/tline/audit, got {kind!r}")

    integ = cfg.get("integrator", {})
    for key in ("step", "max_time", "event_tol", "convergence_tol"):
        if key in integ:
            need_num(f"integrator.{key}", integ[key], 0)
    for key in ("convergence_window", "record_every"):
        if key in integ:
            need_num(f"integrator.{key}", integ[key], 1, strict=False)

    if kind == "solve":
        prob = cfg.get("problem")
        if not isinstance(prob, dict):
            diags.append("problem: missing block")
        else:
            obj = prob.get("objective", {})
            Q0 = np.asarray(obj.get("Q0", []), dtype=float)
            need(Q0.ndim == 2 and Q0.shape[0] == Q0.shape[1] and Q0.size > 0,
                 "problem.objective.Q0: must be a square matrix")
            if Q0.ndim == 2 and Q0.shape[0] == Q0.shape[1] and Q0.size:
                sym = 0.5 * (Q0 + Q0.T)
                need(np.linalg.eigvalsh(sym)[0] > 0,
                     "problem.objective.Q0: must be positive definite")
                n = Q0.shape[0]
                c = np.asarray(obj.get("c", np.zeros(n)), dtype=float)
                need(c.shape == (n,), "problem.objective.c: length must match Q0")
                eq = prob.get("equalities")
                if eq is not None:
                    A = np.asarray(eq.get("A", []), dtype=float)
                    b = np.asarray(eq.get("b", []), dtype=float)
                    need(A.ndim == 2 and A.shape[1] == n,
                         "problem.equalities.A: must be m x n")
                    need(A.shape[0] == b.shape[0],
                         "problem.equalities.b: rows must match A")
                ineq = prob.get("inequalities")
                if ineq is not None:
                    if "affine" in ineq:
                        G = np.asarray(ineq["affine"].get("G", []), dtype=float)
                        h = np.asarray(ineq["affine"].get("h", []), dtype=float)
                        need(G.ndim == 2 and G.shape[1] == n,
                             "problem.inequalities.affine.G: must be p x n")
                        need(G.shape[0] == h.shape[0],
                             "problem.inequalities.affine.h: rows must match G")
                    for entry in ineq.get("named", []):
                        need(entry.get("name") in NAMED_INEQUALITIES,
                             f"problem.inequalities.named: unknown name {entry.get('name')!r}")

    elif kind == "svm":
        blk = cfg.get("svm", {})
        need_num("svm.n_per_class", blk.get("n_per_class", 300), 1, strict=False)
        cov = np.asarray(blk.get("cov", svm_mod.DEFAULT_COV), dtype=float)
        need(cov.shape == (2, 2) and np.allclose(cov, cov.T), "svm.cov: must be symmetric 2x2")
        if cov.shape == (2, 2) and np.allclose(cov, cov.T):
            need(np.linalg.eigvalsh(cov)[0] > 0, "svm.cov: must be positive definite")

    elif kind == "plant":
        blk = cfg.get("plant", {})
        name = blk.get("name")
        controller = blk.get("controller")
        combos = {
            "parallel_rlc": {"power_shaping", "krasovskii_pi"},
            "hvac": {"power_shaping", "dyn_feedback"},
        }
        need(name in combos, f"plant.name: unknown plant {name!r}")
        if name in combos:
            need(controller in combos[name],
                 f"plant.controller: {controller!r} not available for {name}")
        gains = blk.get("gains", {})
        for gname, gval in gains.items():
            need_num(f"plant.gains.{gname}", gval, 0, strict=False)
        params = blk.get("params", {})
        if name == "parallel_rlc":
            for key in ("R", "G", "L", "C"):
                if key in params:
                    need_num(f"plant.params.{key}", params[key], 0)
        if name == "hvac":
            for key, val in params.items():
                if key not in ("T_s", "T_inf"):
                    need_num(f"plant.params.{key}", val, 0)
        need_num("plant.horizon", blk.get("horizon", 10.0), 0)

    elif kind == "tline":
        blk = cfg.get("tline", {})
        params = blk.get("params", {})
        for key in ("L", "C", "C0", "C1"):
            if key in params:
                need_num(f"tline.params.{key}", params[key], 0)
        for key in ("R", "G", "R0", "R1"):
            if key in params:
                need_num(f"tline.params.{key}", params[key], 0, strict=False)
        gains = blk.get("gains", {})
        for gname in ("K_P", "K_I"):
            if gname in gains:
                need_num(f"tline.gains.{gname}", gains[gname], 0, strict=False)
        need_num("tline.grid", blk.get("grid", 100), 8, strict=False)
        need_num("tline.horizon", blk.get("horizon", 10.0), 0)
        mblk = dict(_DEFAULT_INTEGRATOR)
        mblk.update(integ)
        try:
            lp = tline_mod.LineParams(**params)
            limit = tline_mod.cfl_limit(lp, int(blk.get("grid", 100)))
            need(mblk["step"] <= limit,
                 f"integrator.step: violates stability guard {limit:.3g} at this grid")
        except (TypeError, ValueError) as exc:
            diags.append(f"tline.params: {exc}")

    elif kind == "audit":
        blk = cfg.get("audit", {})
        need("trace_csv" in blk, "audit.trace_csv: missing path")
        if "audit_tol" in blk:
            need_num("audit.audit_tol", blk["audit_tol"], 0)


# ---------------------------------------------------------------------------
# experiment bodies
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


def _run_solve(cfg: dict, out: Path, strict: bool) -> tuple[int, dict]:
    prob = _build_problem(cfg["problem"])
    icfg = _integrator_config(cfg)
    init_cfg = cfg.get("init", {})
    init = FlowState(
        np.asarray(init_cfg.get("x", np.zeros(prob.n)), dtype=float),
        np.asarray(init_cfg.get("lam", np.zeros(prob.m)), dtype=float),
        np.asarray(init_cfg.get("mu", np.zeros(prob.p)), dtype=float),
    )
    tc_cfg = cfg.get("time_constants", {})
    tc = TimeConstants(
        np.asarray(tc_cfg.get("tau_x", np.ones(prob.n)), dtype=float),
        np.asarray(tc_cfg.get("tau_lam", np.ones(prob.m)), dtype=float),
        np.asarray(tc_cfg.get("tau_mu", np.ones(prob.p)), dtype=float),
    )
    result = solve(prob, init, tc=tc, cfg=icfg)
    result.trajectory.to_csv(out / "trajectory.csv", out / "events.csv")
    result.storage.to_csv(out / "storage.csv")
    summary = result.summary()
    summary["switch_audit"] = storage_switch_audit(result.storage)
    code = EXIT_OK
    if strict and not result.converged:
        code = EXIT_DIVERGENCE
    if strict and (summary["verdict"] == "FAIL"
                   or summary["switch_audit"]["verdict"] == "FAIL"):
        code = EXIT_AUDIT
    return code, summary


def _run_svm(cfg: dict, out: Path, strict: bool, seed_override) -> tuple[int, dict]:
    blk = cfg.get("svm", {})
    seed = int(seed_override if seed_override is not None else blk.get("seed", cfg.get("seed", 0)))
    data = svm_mod.generate_gaussian_classes(
        seed=seed,
        n_per_class=int(blk.get("n_per_class", 300)),
        mean_a=blk.get("mean_a", svm_mod.DEFAULT_MEAN_A),
        mean_b=blk.get("mean_b", svm_mod.DEFAULT_MEAN_B),
        cov=blk.get("cov", svm_mod.DEFAULT_COV),
    )
    write_csv(out / "dataset.csv", ["x1", "x2", "label"],
              np.column_stack([data.points, data.labels]))
    icfg = None
    if "integrator" in cfg:
        icfg = _integrator_config(cfg)
    result = svm_mod.train_svm(data, cfg=icfg)
    traj = result.trajectory
    times = traj.times.tolist()
    write_csv(out / "beta_trajectory.csv", ["t", "beta1", "beta2", "beta0"],
              ([t] + z[:3].tolist() for t, z in zip(times, traj.states)))
    write_csv(out / "mu_trajectory.csv", ["t"] + [f"mu{i}" for i in range(data.size)],
              ([t] + z[3:].tolist() for t, z in zip(times, traj.states)))
    idx, plane, report = svm_mod.support_vectors(data, result.final,
                                                 tol=blk.get("sv_tol", 1e-6))
    summary = {
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
    code = EXIT_OK
    if strict and not result.converged:
        code = EXIT_DIVERGENCE
    return code, summary


_HVAC_PARAM_KEYS = ("C1", "C2", "C3", "C4", "R31", "R42", "R34", "R10", "R20",
                    "c_p", "T_s", "T_inf")


def _run_plant(cfg: dict, out: Path, strict: bool) -> tuple[int, dict]:
    blk = cfg["plant"]
    name = blk["name"]
    controller = blk["controller"]
    gains = blk.get("gains", {})
    targets = blk.get("targets", {})
    horizon = float(blk.get("horizon", 10.0))
    icfg = _integrator_config({"integrator": {**cfg.get("integrator", {}), "max_time": horizon}})

    if name == "parallel_rlc":
        p = plants.ParallelRLC(**{k: blk.get("params", {}).get(k, 1.0) for k in "RGLC"})
        v_star = float(targets.get("v_star", 1.0))
        i_star, Vs_star = plants.prlc_equilibrium(p, v_star)
        x0 = np.asarray(blk.get("initial_state", [0.0, 0.0]), dtype=float)
        if controller == "power_shaping":
            rhs, lyap = plants.prlc_power_shaping_loop(p, i_star, float(gains.get("K", 1.0)))
        else:
            rhs, lyap = plants.prlc_krasovskii_pi_loop(
                p, i_star, v_star, float(gains.get("K_P", 1.0)), float(gains.get("K_I", 1.0)))
            x0 = np.concatenate([x0, [0.0]])
        target_state = np.array([i_star, v_star])
        extra = {"i_star": i_star, "v_star": v_star, "Vs_star": Vs_star}
    else:
        h = plants.HvacParams(**{k: blk.get("params", {}).get(k, getattr(plants.HvacParams, k))
                                 for k in _HVAC_PARAM_KEYS})
        T1s = float(targets.get("T1", 2.5))
        T2s = float(targets.get("T2", 6.0))
        T_star, u_star = plants.hvac_equilibrium(h, T1s, T2s)
        x0 = np.asarray(blk.get("initial_state", [4.0, 5.0, 16.0, 16.0]), dtype=float)
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

    try:
        traj = integrate(rhs, x0, icfg, stop_when_converged=False)
    except DivergenceError as exc:
        return EXIT_DIVERGENCE, {"error": str(exc)}
    traj.to_csv(out / "trajectory.csv")
    V = np.array([lyap(t, z) for t, z in zip(traj.times, traj.states)])
    write_csv(out / "lyapunov.csv", ["t", "V"], zip(traj.times.tolist(), V.tolist()))
    trace = StorageTrace(traj.times, V, np.zeros_like(V))
    verdict, min_margin, worst_time = trace.verdict()
    err = float(np.max(np.abs(traj.final_state[: target_state.size] - target_state)))
    summary = {
        "plant": name,
        "controller": controller,
        "final_state": [float(v) for v in traj.final_state],
        "target_error": err,
        "lyapunov_monotone": verdict,
        "min_margin": min_margin,
        "worst_time": worst_time,
        **extra,
    }
    code = EXIT_OK
    if strict and verdict == "FAIL":
        code = EXIT_AUDIT
    return code, summary


def _run_tline(cfg: dict, out: Path, strict: bool) -> tuple[int, dict]:
    blk = cfg["tline"]
    p = tline_mod.LineParams(**blk.get("params", {}))
    M = int(blk.get("grid", 100))
    vC1_star = float(blk.get("target_vc1", 0.0))
    gains = blk.get("gains", {})
    horizon = float(blk.get("horizon", 10.0))
    step = min(cfg.get("integrator", {}).get("step", _DEFAULT_INTEGRATOR["step"]),
               tline_mod.cfl_limit(p, M))
    icfg = _integrator_config({"integrator": {**cfg.get("integrator", {}),
                                              "step": step, "max_time": horizon}})
    zero = tline_mod.LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
    if vC1_star == 0.0 and not gains:
        traj = integrate(lambda t, y: tline_mod.tline_rhs(p, y, 0.0, M), zero.pack(), icfg)
        lyap_vals = np.array([tline_mod.line_energy(p, tline_mod.unpack_state(p, y, M))
                              for y in traj.states])
        summary = {"mode": "open_loop_zero", "final_energy": float(lyap_vals[-1])}
        verdict = "PASS"
    else:
        rhs, lyap, eq, I0_star = tline_mod.tline_pi_loop(
            p, M, vC1_star, float(gains.get("K_P", 1.0)), float(gains.get("K_I", 1.0)))
        try:
            traj = integrate(rhs, zero.pack(), icfg)
        except DivergenceError as exc:
            return EXIT_DIVERGENCE, {"error": str(exc)}
        lyap_vals = np.array([lyap(t, y) for t, y in zip(traj.times, traj.states)])
        final = tline_mod.unpack_state(p, traj.final_state, M)
        prof_err = float(max(np.max(np.abs(final.i - eq.i)), np.max(np.abs(final.v - eq.v))))
        summary = {
            "mode": "boundary_pi",
            "I0_star": float(I0_star),
            "profile_error": prof_err,
            "final_vC1": float(final.vC1),
        }
        trace = StorageTrace(traj.times, lyap_vals, np.zeros_like(lyap_vals))
        verdict, min_margin, worst_time = trace.verdict()
        summary["lyapunov_monotone"] = verdict
        summary["min_margin"] = min_margin

    header = (["t"] + [f"i{k}" for k in range(M + 1)]
              + [f"v{k}" for k in range(M + 1)] + ["vC0", "vC1"])
    line_states = (tline_mod.unpack_state(p, y, M) for y in traj.states)
    write_csv(out / "spacetime.csv", header, ([t] + s.i.tolist() + s.v.tolist() + [s.vC0, s.vC1]
                                              for t, s in zip(traj.times.tolist(), line_states)))
    write_csv(out / "lyapunov.csv", ["t", "V"], zip(traj.times.tolist(), lyap_vals.tolist()))
    code = EXIT_OK
    if strict and verdict == "FAIL":
        code = EXIT_AUDIT
    return code, summary


def _run_audit(cfg: dict, out: Path, strict: bool) -> tuple[int, dict]:
    blk = cfg["audit"]
    rows = np.genfromtxt(blk["trace_csv"], delimiter=",", names=True)
    trace = StorageTrace(rows["t"],
                         rows["storage"] if "storage" in rows.dtype.names else rows["V"],
                         rows["supply"] if "supply" in rows.dtype.names
                         else np.zeros(rows["t"].size))
    verdict, min_margin, worst_time = trace.verdict(blk.get("audit_tol"))
    summary = {"verdict": verdict, "min_margin": min_margin, "worst_time": worst_time}
    code = EXIT_AUDIT if (strict and verdict == "FAIL") else EXIT_OK
    return code, summary


def run(cfg: dict, out_dir, seed=None, strict: bool = False) -> tuple[int, dict]:
    """Validate, run, and write artifacts; returns (exit_code, summary)."""
    diags = validate(cfg)
    if diags:
        return EXIT_VALIDATION, {"validation_errors": diags}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]
    try:
        if kind == "solve":
            code, summary = _run_solve(cfg, out, strict)
        elif kind == "svm":
            code, summary = _run_svm(cfg, out, strict, seed)
        elif kind == "plant":
            code, summary = _run_plant(cfg, out, strict)
        elif kind == "tline":
            code, summary = _run_tline(cfg, out, strict)
        else:
            code, summary = _run_audit(cfg, out, strict)
    except DivergenceError as exc:
        code, summary = EXIT_DIVERGENCE, {"error": str(exc)}
    payload = {"config": _echoed(cfg), "kind": kind, "exit_code": code, **summary}
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
    return code, payload


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", action="append", default=[], help="experiment config JSON")
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--strict", action="store_true",
                    help="nonzero exit on non-convergence or audit failure; plant and "
                         "tline runs gate only the Lyapunov audit, not the distance "
                         "to the target")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for multiple configs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passiflow",
        description="Gradient-flow optimization and passivity-audited plant simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "solve", "svm", "plant", "tline", "audit", "validate"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "svm":
            sp.add_argument("--n", type=int, default=None, help="points per class")
        if name == "plant":
            sp.add_argument("--plant", default=None)
            sp.add_argument("--controller", default=None)
            sp.add_argument("--horizon", type=float, default=None)
        if name == "tline":
            sp.add_argument("--target", type=float, default=None, help="target vC1")
            sp.add_argument("--grid", type=int, default=None)
            sp.add_argument("--horizon", type=float, default=None)
    args = parser.parse_args(argv)

    configs = [load_config(path) for path in args.config]
    if not configs:
        if args.command == "svm":
            configs = [{"schema": SCHEMA_VERSION, "kind": "svm", "svm": {}}]
        elif args.command == "tline":
            configs = [{"schema": SCHEMA_VERSION, "kind": "tline", "tline": {}}]
        else:
            parser.error("--config is required for this subcommand")

    # Subcommand-specific overrides fold into the loaded configs.
    for cfg in configs:
        if args.command not in ("run", "validate"):
            cfg.setdefault("kind", args.command)
        if args.command == "svm":
            if args.n is not None:
                cfg.setdefault("svm", {})["n_per_class"] = args.n
            if args.seed is not None:
                cfg.setdefault("svm", {})["seed"] = args.seed
        if args.command == "plant":
            blk = cfg.setdefault("plant", {})
            if args.plant is not None:
                blk["name"] = args.plant
            if args.controller is not None:
                blk["controller"] = args.controller
            if args.horizon is not None:
                blk["horizon"] = args.horizon
        if args.command == "tline":
            blk = cfg.setdefault("tline", {})
            if args.target is not None:
                blk["target_vc1"] = args.target
            if args.grid is not None:
                blk["grid"] = args.grid
            if args.horizon is not None:
                blk["horizon"] = args.horizon

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

    jobs = []
    for idx, cfg in enumerate(configs):
        stem = Path(args.config[idx]).stem if idx < len(args.config) else args.command
        out_dir = Path(args.out) / stem if len(configs) > 1 else Path(args.out)
        jobs.append((cfg, out_dir))

    if args.jobs > 1 and len(jobs) > 1:
        cfgs, out_dirs = zip(*jobs)
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, cfgs, out_dirs, [args.seed] * len(jobs),
                                    [args.strict] * len(jobs)))
    else:
        results = (run(cfg, out_dir, seed=args.seed, strict=args.strict)
                   for cfg, out_dir in jobs)
    worst = EXIT_OK
    for code, summary in results:
        print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                         sort_keys=True, default=float))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
