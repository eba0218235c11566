"""Configuration-driven experiment runner.

One JSON config describes one experiment: a convex-problem solve, an SVM
training run, a plant/controller closed loop, a transmission-line run, or a
re-audit of a stored storage trace; :data:`KINDS` holds how each kind is
read, run and exposed as a subcommand.  Each kind has one reader, the only
code that looks at its config.  It states each field's default and bound
where it reads the field and returns either the run's inputs or
diagnostics, so ``validate`` reports exactly what ``run`` refuses.  A config
file that cannot be read or parsed is a diagnostic of that config, a block
that is not a JSON object one of that block, and a name or a path that is
not a string one of that field.  So is a number field holding a non-number
(a word, ``true``, an object), a ragged array or an integer past the float
range; the checks after it still run.  So is a key no reader knows (``<path>:
unknown; expected one of ...``), at the top level (``schema``, ``kind``,
``integrator`` and the kind's own blocks) as in every block, where one call
reads a block and checks its keys.  So is a field no run reads (``<path>:
unused; ...``): ``plant.initial_input`` without an input state; a plant's or
a line's ``integrator.max_time``, ``event_tol``, ``convergence_tol`` and
``convergence_window``, as such a run reads only ``step``, ``record_every``
and its ``horizon``; and an audit's ``integrator`` block.  The svm dataset
seed is ``svm.seed``, which ``--seed`` writes; without an svm config
``--seed`` exits 2, and a top-level ``seed`` is an unknown key.  ``run``
and ``validate`` take any kind and need ``--config``, and ``validate``
takes no flag but ``--config`` and ``--seed``; a kind subcommand
takes only configs of its kind, and without ``--config`` it starts from
``{"schema": 1, "kind": <kind>}`` and its flags, so its reader names what
is missing, as for a config file that lacks those fields.  This module
writes and reads every artifact, among them the ``storage.csv`` that a solve
writes and an ``audit`` reads back; no other module of the package writes a
file.  The sample CSVs (``trajectory.csv``, ``beta_trajectory.csv``,
``mu_trajectory.csv``, ``spacetime.csv``) are written as the run integrates,
and no run holds its samples; each file takes its name only when the run
ends, so a run that raises or exits 3 leaves none of them, as when they were
written after the run.  Outputs are deterministic for a fixed config and seed:
trajectory/storage CSVs with 17-significant-digit floats and a
``summary.json`` that echoes the config as given, with ``schema`` filled in
and, for every kind that integrates, the ``integrator`` block the run used:
the config's keys over the defaults (``svm.DEFAULT_INTEGRATOR`` for svm),
with a plant's or line's horizon as ``max_time``.  No other block is
defaulted in the echo.  A ``tline`` run is the boundary-PI loop from rest to
the load voltage ``target_vc1``, which it needs, so its ``R`` and ``G`` must
be > 0, and its step at most the loop's ``tline.step_guard``.  A ``solve``
config's ``integrator.step`` must keep RK4 stable with no inequality active
and with any one affine row active alone, where the flow is linear.  A row
is checked even if a run would never activate it; a named row (``ball``),
whose rates depend on the state, is not.  The ``solve`` and ``svm`` kinds
grow the RK4 step between events, with ``integrator.step`` as its floor.
``record_every`` and ``convergence_window`` count steps, so a grown run
samples more sparsely, and ``converged`` reads the final rate alone, so a
grown run may reach ``max_time`` with ``converged`` true (the golden
``solve`` config ends at t = 30.0, where the fixed step stops at 28.10).

Exit codes: 0 ok, 2 validation failure (among them an output directory
that cannot be made, as under an existing file: with nowhere to put it, no
``summary.json`` is written), 3 divergence (a non-finite state, as when an
HVAC zone under dynamic feedback nears the supply temperature and the
feedback input blows up) or an input matrix that is exactly rank
deficient (:class:`passiflow.plants.RankDeficientInput`, a zone at the
supply temperature); both end with an ``error`` entry in ``summary.json``.
Under ``--strict``, 4 if any ``verdict``, ``lyapunov_monotone`` or
``switch_audit.verdict`` of the summary is FAIL, else 3 if ``converged`` is
false.  ``solve`` and ``svm`` summaries carry the audit of the switched
storage (``verdict``, ``min_margin``, ``worst_time``) and ``switch_audit``,
so ``--strict`` gates both for either kind.  ``plant`` and ``tline``
summaries carry the audit of ``lyapunov.csv`` (``lyapunov_monotone``,
``min_margin``, ``worst_time``), and for them ``--strict`` gates only that
verdict; the distance to the target (``target_error``, ``profile_error``) is
reported in ``summary.json`` but never sets the exit code.  A parallel-RLC
power-shaping run with ``G^2 L < C`` has no certificate: it warns, and its
``summary.json`` reads ``"certificate": "unavailable"``.  ``summary.json`` is strict JSON: a
non-finite number in it, such as the margin of an overflowed Lyapunov
value, is written as ``null``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
import warnings
from collections import namedtuple
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import plants, svm as svm_mod, tline as tline_mod
from .brayton_moser import StorageTrace, lyapunov_audit
from .ode import DivergenceError, IntegratorConfig, RK4_MARGIN, integrate, rk4_gain, rk4_limit
from .primal_dual import (
    AffineInequalities,
    ConvexProblem,
    FlowState,
    ScalarOracle,
    TimeConstants,
    quadratic_oracle,
    solve,
)

__all__ = ["main", "run", "validate", "load_config", "KINDS", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_AUDIT = 4


_TOP_LEVEL = ("schema", "kind", "integrator")


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class _Unreadable(str):
    """The diagnostic of a config file that cannot be read or parsed."""


def _load(path):
    """The config at ``path``, or its :class:`_Unreadable` diagnostic."""
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:    # a JSONDecodeError is a ValueError
        return _Unreadable(f"config: cannot read {path} ({type(exc).__name__}: {exc})")


# ---------------------------------------------------------------------------
# reading: one reader per kind checks its config and builds the run's inputs
# ---------------------------------------------------------------------------

def _holds_non_number(value) -> bool:
    """Whether a JSON value is or nests ``true``, ``false`` or a string, which
    numpy would read as 1.0, 0.0 or the number the string spells."""
    return isinstance(value, (bool, str)) or (isinstance(value, (list, tuple))
                                              and any(map(_holds_non_number, value)))


class _Diagnostics(list):
    """Validation messages and the checks that append them."""

    def need(self, cond, msg):
        if not cond:
            self.append(msg)

    def need_num(self, path, value, low=None, strict=True, integer=False):
        # abs, not float: float() of an integer past the float range raises
        ok = (not isinstance(value, bool)
              and isinstance(value, numbers.Integral if integer else numbers.Real)
              and abs(value) <= sys.float_info.max)
        bound = ""
        if low is not None:
            ok = ok and (value > low if strict else value >= low)
            bound = f" {'>' if strict else '>='} {low:g}"
        self.need(ok, f"{path}: must be {'an integer' if integer else 'a number'}{bound}")

    def block(self, path, value, keys) -> dict:
        """``value`` if it is a JSON object, with a diagnostic for each of its
        keys not in ``keys``; else one diagnostic, and ``{}``."""
        if not isinstance(value, dict):
            self.append(f"{path}: must be a JSON object")
            return {}
        self.known(path, value, keys)
        return value

    def known(self, prefix, block, keys):
        for key in block:
            if key not in keys:
                self.append(f"{prefix + '.' if prefix else ''}{key}: unknown; "
                            f"expected one of {', '.join(keys)}")

    def string(self, path, value, msg, among=None) -> bool:
        """Whether ``value`` is a string, and one of ``among`` if given; else
        ``<path>: <msg>`` is a diagnostic, or ``<path>: missing; expected one
        of ...`` where ``among`` is given and ``value`` is None.  A list or an
        object is neither looked up nor opened as a path."""
        ok = isinstance(value, str) and (among is None or value in among)
        if value is None and among is not None:
            msg = f"missing; expected one of {', '.join(among)}"
        self.need(ok, f"{path}: {msg}")
        return ok

    def array(self, path, value):
        """``value`` as a float array; a non-number or a non-finite entry is a
        diagnostic, and a value numpy cannot read (a word, an object, a ragged
        list, an integer past the float range) gives an empty array."""
        try:
            arr, ok = np.asarray(value, dtype=float), not _holds_non_number(value)
        except (TypeError, ValueError, OverflowError):
            arr, ok = np.empty(0), False
        self.need(ok, f"{path}: must hold numbers")
        self.need(np.isfinite(arr).all(), f"{path}: must be finite")
        return arr

    def vector(self, path, value, size):
        """``value`` as ``size`` finite floats; else a diagnostic, and zeros."""
        try:
            vec = np.atleast_1d(np.asarray(value, dtype=float))
        except (TypeError, ValueError, OverflowError):
            vec = None
        if (vec is None or vec.shape != (size,) or not np.isfinite(vec).all()
                or _holds_non_number(value)):
            self.append(f"{path}: must have {size} finite entries")
            return np.zeros(size)
        return vec


def validate(cfg: dict) -> list[str]:
    """Full precondition sweep; returns diagnostics, never runs or raises."""
    return _read(cfg)[1]


def _read(cfg: dict):
    """(inputs, diagnostics) of ``cfg``: the schema, kind and integrator
    checks, then the kind's reader.  The inputs hold only without diagnostics."""
    if isinstance(cfg, _Unreadable):
        return None, [str(cfg)]
    if not isinstance(cfg, dict):
        return None, ["config: must be a JSON object"]
    d = _Diagnostics()
    inputs = None
    try:
        schema = cfg.get("schema", SCHEMA_VERSION)
        d.need(schema == SCHEMA_VERSION and not isinstance(schema, bool),
               f"schema: expected version {SCHEMA_VERSION}")
        kind = cfg.get("kind")
        known_kind = d.string("kind", kind, f"must be one of {'/'.join(KINDS)}, got {kind!r}",
                              KINDS)
        integ = d.block("integrator", cfg.get("integrator", {}),
                        [f.name for f in fields(IntegratorConfig)])
        for key in ("step", "max_time", "event_tol", "convergence_tol"):
            if key in integ:
                d.need_num(f"integrator.{key}", integ[key], 0)
        for key in ("convergence_window", "record_every"):
            if key in integ:
                d.need_num(f"integrator.{key}", integ[key], 1, strict=False, integer=True)
        if known_kind:
            inputs = KINDS[kind].read(cfg, integ, d)
    except (TypeError, ValueError, KeyError, AttributeError, IndexError, OverflowError) as exc:
        d.append(f"config: malformed field ({type(exc).__name__}: {exc})")
    return inputs, list(d)


# -- named nonlinear inequalities registered for problem files --------------

def _ball(params, n: int, path: str, d: _Diagnostics) -> ScalarOracle:
    params = d.block(path, params, ("center", "radius"))
    radius = params.get("radius")
    d.need_num(f"{path}.radius", radius, 0)
    center = d.vector(f"{path}.center", params.get("center", np.zeros(n)), n)
    try:
        r2 = float(radius ** 2)
    except (TypeError, OverflowError):  # a non-number is reported above
        r2 = np.inf if isinstance(radius, numbers.Real) else 0.0
    d.need(np.isfinite(r2), f"{path}.radius: its square must be finite")

    return ScalarOracle(
        value=lambda x: float((dx := x - center) @ dx - r2),
        grad=lambda x: 2.0 * (x - center),
        hess=lambda x: 2.0 * np.eye(n),
    )


NAMED_INEQUALITIES = {"ball": _ball}


def _read_solve(cfg: dict, integ: dict, d: _Diagnostics):
    d.known("", cfg, (*_TOP_LEVEL, "problem", "init", "time_constants"))
    if cfg.get("problem") is None:
        d.append("problem: missing block")
        return None
    prob = d.block("problem", cfg["problem"], ("objective", "equalities", "inequalities"))
    obj = d.block("problem.objective", prob.get("objective", {}), ("Q0", "c"))
    Q0 = d.array("problem.objective.Q0", obj.get("Q0", []))
    square = Q0.ndim == 2 and Q0.shape[0] == Q0.shape[1] and Q0.size > 0
    d.need(square, "problem.objective.Q0: must be a square matrix")
    if not square:
        return None
    d.need(np.linalg.eigvalsh(0.5 * Q0 + 0.5 * Q0.T)[0] > 0,   # halved first: no overflow
           "problem.objective.Q0: must be positive definite")
    n = Q0.shape[0]
    c = d.array("problem.objective.c", obj.get("c", np.zeros(n)))
    d.need(c.shape == (n,), "problem.objective.c: length must match Q0")
    A, b, G, h, named = np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0), []
    if prob.get("equalities") is not None:
        eq = d.block("problem.equalities", prob["equalities"], ("A", "b"))
        A = d.array("problem.equalities.A", eq.get("A", []))
        b = d.array("problem.equalities.b", eq.get("b", []))
        d.need(A.ndim == 2 and A.shape[1] == n, "problem.equalities.A: must be m x n")
        d.need(b.shape == A.shape[:1], "problem.equalities.b: rows must match A")
    if prob.get("inequalities") is not None:
        ineq = d.block("problem.inequalities", prob["inequalities"], ("affine", "named"))
        if "affine" in ineq:
            affine = d.block("problem.inequalities.affine", ineq["affine"], ("G", "h"))
            G = d.array("problem.inequalities.affine.G", affine.get("G", []))
            h = d.array("problem.inequalities.affine.h", affine.get("h", []))
            d.need(G.ndim == 2 and G.shape[1] == n, "problem.inequalities.affine.G: must be p x n")
            d.need(h.shape == G.shape[:1], "problem.inequalities.affine.h: rows must match G")
        entries = ineq.get("named", [])
        d.need(isinstance(entries, list), "problem.inequalities.named: must be a list")
        for k, entry in enumerate(entries if isinstance(entries, list) else []):
            path = f"problem.inequalities.named[{k}]"
            entry = d.block(path, entry, ("name", "params"))
            name = entry.get("name")
            if d.string(f"{path}.name", name, f"unknown name {name!r}", NAMED_INEQUALITIES):
                named.append(NAMED_INEQUALITIES[name](entry.get("params", {}), n,
                                                      f"{path}.params", d))
    sizes = {"x": n, "lam": b.shape[0], "mu": h.shape[0] + len(named)}
    init = d.block("init", cfg.get("init", {}), sizes)
    taus = d.block("time_constants", cfg.get("time_constants", {}),
                   [f"tau_{key}" for key in sizes])
    start, tc = {}, {}
    for key, size in sizes.items():
        start[key] = d.vector(f"init.{key}", init.get(key, np.zeros(size)), size)
        tau = np.atleast_1d(d.array(f"time_constants.tau_{key}",
                                    taus.get(f"tau_{key}", np.ones(size))))
        d.need(tau.shape == (size,) and (tau > 0).all(),
               f"time_constants.tau_{key}: must have {size} entries, all > 0")
        tc[f"tau_{key}"] = tau
    d.need((start["mu"] >= 0).all(), "init.mu: must be >= 0")
    if d:
        return None
    # With every mu held at 0 (mode 0, bordered by a zero row) the flow is
    # linear whatever the rows, and so it is with affine row i alone active
    # (mode i + 1).  A step that RK4 grows in a mode is refused, mode 0 first.
    # A named row's rates depend on x, so its modes are not checked.
    icfg = IntegratorConfig(**integ)
    tau = np.concatenate([tc["tau_x"], tc["tau_lam"]])[:, None]
    N, p = n + len(b), len(h)
    with np.errstate(all="ignore"):
        modes = np.zeros((p + 1, N + 1, N + 1))
        modes[:, :N, :N] = np.block([[-0.5 * Q0 - 0.5 * Q0.T, -A.T],
                                     [A, np.zeros((len(b), len(b)))]]) / tau
        modes[1:, :n, N] = -G / tc["tau_x"]
        modes[1:, N, :n] = G / tc["tau_mu"][:p, None]
        finite = np.isfinite(modes).all(axis=(1, 2))
        lam = np.full((p + 1, N + 1), np.inf, complex)
        lam[finite] = np.linalg.eigvals(modes[finite])
        growth = rk4_gain(icfg.step * lam).max(axis=1)
    if (growth > RK4_MARGIN).any():
        limit = rk4_limit(lam)
        k = 0 if growth[0] > RK4_MARGIN else 1 + int(np.argmin(limit[1:]))
        mode = f"only row {k - 1} of problem.inequalities.affine.G" if k else "no inequality"
        by = (" with any one row active" if k else ", set by problem.objective.Q0"
              f"{' and problem.equalities.A' if len(b) else ''} over time_constants")
        d.append(f"integrator.step: {icfg.step:g} is past RK4's stability region with {mode} "
                 f"active (max |R(h lambda)| {growth[k]:.7g} > 1), which holds up to step "
                 f"{limit[k]:.3g}{by}")
        return None
    problem = ConvexProblem(n=n, f=quadratic_oracle(Q0, c), A=A, b=b,
                            ineq=AffineInequalities(G, h, named))
    return problem, FlowState(**start), TimeConstants(**tc), icfg


def _read_svm(cfg: dict, integ: dict, d: _Diagnostics):
    d.known("", cfg, (*_TOP_LEVEL, "svm"))
    blk = d.block("svm", cfg.get("svm", {}),
                  ("n_per_class", "seed", "mean_a", "mean_b", "cov", "sv_tol"))
    n_per_class, seed = blk.get("n_per_class", 300), blk.get("seed", 0)
    d.need_num("svm.n_per_class", n_per_class, 1, strict=False, integer=True)
    # the Philox key of svm.generate_gaussian_classes
    d.need(isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
           and 0 <= seed < 2 ** 128,
           "svm.seed: must be an integer in [0, 2**128)")
    mean_a = d.vector("svm.mean_a", blk.get("mean_a", svm_mod.DEFAULT_MEAN_A), 2)
    mean_b = d.vector("svm.mean_b", blk.get("mean_b", svm_mod.DEFAULT_MEAN_B), 2)
    cov = d.array("svm.cov", blk.get("cov", svm_mod.DEFAULT_COV))
    finite = np.isfinite(cov).all()
    # the symmetry bound of svm.generate_gaussian_classes
    symmetric = finite and cov.shape == (2, 2) and np.max(np.abs(cov - cov.T)) <= 1e-12
    d.need(symmetric or not finite, "svm.cov: must be symmetric 2x2")
    if symmetric:
        d.need(np.linalg.eigvalsh(cov)[0] > 0, "svm.cov: must be positive definite")
    sv_tol = blk.get("sv_tol", 1e-6)
    d.need_num("svm.sv_tol", sv_tol, 0, strict=False)
    if d:
        return None
    data = {"seed": int(seed), "n_per_class": int(n_per_class), "mean_a": mean_a,
            "mean_b": mean_b, "cov": cov}
    return data, sv_tol, replace(svm_mod.DEFAULT_INTEGRATOR, **integ)


def _horizon(kind: str, blk: dict, integ: dict, d: _Diagnostics):
    """``horizon`` of the ``kind`` block ``blk``; it sets the integrator's ``max_time``."""
    horizon = blk.get("horizon", 10.0)
    d.need_num(f"{kind}.horizon", horizon, 0)
    for key in ("max_time", "event_tol", "convergence_tol", "convergence_window"):
        d.need(key not in integ, f"integrator.{key}: unused; a {kind} run reads only "
               f"integrator.step and record_every, and {kind}.horizon sets its simulated time")
    return horizon


# plant: (parameter class, default targets, default initial state,
#         {controller: {gain: whether it must be > 0 rather than >= 0}})
_PLANTS = {
    "parallel_rlc": (plants.ParallelRLC, {"v_star": 1.0}, [0.0, 0.0],
                     {"power_shaping": {"K": False},
                      "krasovskii_pi": {"K_P": False, "K_I": False}}),
    "hvac": (plants.HvacParams, {"T1": 2.5, "T2": 6.0}, [4.0, 5.0, 16.0, 16.0],
             {"power_shaping": {"k": True, "k1": True, "k2": True, "alpha": False},
              "dyn_feedback": {"k1": True, "kd": False, "ki": True}}),
}


def _read_plant(cfg: dict, integ: dict, d: _Diagnostics):
    d.known("", cfg, (*_TOP_LEVEL, "plant"))
    blk = d.block("plant", cfg.get("plant", {}),
                  ("name", "controller", "params", "gains", "targets", "initial_state",
                   "initial_input", "horizon"))
    name, controller = blk.get("name"), blk.get("controller")
    known_plant = d.string("plant.name", name, f"unknown plant {name!r}", _PLANTS)
    horizon = _horizon("plant", blk, integ, d)
    if not known_plant:
        return None
    param_cls, target_defaults, initial_state, controllers = _PLANTS[name]
    gains = blk.get("gains", {})
    # an unknown controller is reported here; its gains are all known and need only be >= 0
    if d.string("plant.controller", controller, f"{controller!r} not available for {name}",
                controllers):
        strict = controllers[controller]
    else:
        strict = dict.fromkeys(gains if isinstance(gains, dict) else (), False)
    params = d.block("plant.params", blk.get("params", {}), [f.name for f in fields(param_cls)])
    gains = d.block("plant.gains", gains, strict)
    targets = d.block("plant.targets", blk.get("targets", {}), target_defaults)
    for key, val in params.items():
        d.need_num(f"plant.params.{key}", val, None if key in ("T_s", "T_inf") else 0)
    for key, val in gains.items():
        d.need_num(f"plant.gains.{key}", val, 0, strict=strict.get(key, False))
    targets = {**target_defaults, **targets}
    for key, val in targets.items():
        d.need_num(f"plant.targets.{key}", val)
    x0 = d.vector("plant.initial_state", blk.get("initial_state", initial_state),
                  len(initial_state))
    if controller == "dyn_feedback":
        x0 = np.concatenate([x0, d.vector("plant.initial_input",
                                          blk.get("initial_input", [0.0, 0.0]), 2)])
    else:
        d.need("initial_input" not in blk,
               "plant.initial_input: unused; only the dyn_feedback controller has an input state")
    if d:
        return None
    p = param_cls(**params)
    if name == "hvac":
        # hvac_equilibrium and the dynamic feedback divide by T_s - T_i
        for key, val in targets.items():
            d.need(abs(val - p.T_s) >= 1e-12,
                   f"plant.targets.{key}: must differ from T_s {p.T_s:g}")
        d.need(controller != "dyn_feedback" or np.all(np.abs(x0[:2] - p.T_s) >= 1e-12),
               f"plant.initial_state: zone temperatures must differ from T_s {p.T_s:g}")
    gains = {key: float(gains.get(key, 1.0)) for key in strict}
    targets = {key: float(val) for key, val in targets.items()}
    icfg = IntegratorConfig(**integ, max_time=float(horizon))
    return name, controller, p, targets, gains, x0, icfg


def _read_tline(cfg: dict, integ: dict, d: _Diagnostics):
    d.known("", cfg, (*_TOP_LEVEL, "tline"))
    blk = d.block("tline", cfg.get("tline", {}),
                  ("params", "gains", "grid", "horizon", "target_vc1"))
    params = d.block("tline.params", blk.get("params", {}),
                     [f.name for f in fields(tline_mod.LineParams)])
    gains = d.block("tline.gains", blk.get("gains", {}), ("K_P", "K_I"))
    vC1_star = blk.get("target_vc1")
    d.need(vC1_star is not None, "tline.target_vc1: missing; the load voltage to hold (--target)")
    if vC1_star is not None:
        d.need_num("tline.target_vc1", vC1_star)
    for key, val in params.items():
        # the loop's equilibrium profile and certificate need R > 0 and G > 0
        d.need_num(f"tline.params.{key}", val, 0, strict=key not in ("R0", "R1"))
    for key, val in gains.items():
        d.need_num(f"tline.gains.{key}", val, 0, strict=False)
    grid = blk.get("grid", 100)
    d.need_num("tline.grid", grid, 8, strict=False, integer=True)
    horizon = _horizon("tline", blk, integ, d)
    if d:
        return None
    p = tline_mod.LineParams(**params)
    icfg = IntegratorConfig(**integ, max_time=float(horizon))
    K = [float(gains.get(k, 1.0)) for k in ("K_P", "K_I")]
    loop = failure = None
    try:
        with np.errstate(over="ignore"):    # an overflow is reported below
            loop = tline_mod.tline_pi_loop(p, grid, float(vC1_star), *K)
    except ValueError:              # LineState refuses a non-finite profile
        failure = "tline.target_vc1: equilibrium profile not finite with these tline.params"
    except (ArithmeticError, RuntimeError) as exc:
        failure = f"tline.params: no stability certificate for tau = RC/(LG) ({exc!r})"
    # with no loop to probe, the guard's terms alone decide
    limit, row = tline_mod.step_guard(p, grid, *K, rhs=loop[0] if loop else None)
    d.need(icfg.step <= limit, f"integrator.step: violates stability guard {limit:.3g} at this "
                               f"grid{tline_mod.set_by(row, 'tline.params.')}")
    d.need(failure is None, failure)
    return p, grid, loop, icfg


def _read_audit(cfg: dict, integ: dict, d: _Diagnostics):
    d.known("", cfg, (*_TOP_LEVEL, "audit"))
    d.need("integrator" not in cfg, "integrator: unused; an audit integrates nothing")
    blk = d.block("audit", cfg.get("audit", {}), ("trace_csv", "audit_tol"))
    path = blk.get("trace_csv")
    if path is None:
        d.append("audit.trace_csv: missing path")
    elif d.string("audit.trace_csv", path, f"must be a path, got {path!r}"):
        d.need(Path(path).is_file(), f"audit.trace_csv: no file {path}")
    if "audit_tol" in blk:
        d.need_num("audit.audit_tol", blk["audit_tol"], 0)
    if d:
        return None
    with open(path) as fh, warnings.catch_warnings():
        # no data row is the diagnostic below, not also a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        names = [name.strip() for name in fh.readline().split(",")]
        try:        # loadtxt parses in far less memory than genfromtxt
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:              # a non-numeric cell or a ragged row
            data = np.empty((0, 0))
    d.need(data.size > 0 and data.shape[1] == len(names),
           f"audit.trace_csv: needs rows of {len(names)} numbers under its header")
    d.need("t" in names, f"audit.trace_csv: no column t in {', '.join(names)}")
    d.need("storage" in names or "V" in names,
           f"audit.trace_csv: no column storage or V in {', '.join(names)}")
    if d:
        return None
    cols = dict(zip(names, data.T))
    d.need(np.isfinite(data).all(), "audit.trace_csv: every cell must be finite")
    d.need((np.diff(cols["t"]) > 0).all(), "audit.trace_csv: t must be strictly increasing")
    d.need(cols.get("supply", [0.0])[0] == 0, "audit.trace_csv: supply must start at 0")
    if d:
        return None
    trace = StorageTrace(cols["t"], cols["storage"] if "storage" in cols else cols["V"],
                         cols.get("supply", np.zeros(len(data))))
    return trace, blk.get("audit_tol")


# ---------------------------------------------------------------------------
# experiment bodies: each writes its artifacts and returns its summary
# ---------------------------------------------------------------------------

# Values formatted at once by :func:`_csv_floats`.  A call costs about 60 us
# plus 0.1-0.2 us a value on a 2-vCPU x86 host, and its temporaries peak at
# about 400 bytes a value, so 2,048 values keep them under 1 MB.
_CHUNK = 2048


class _CsvWriter:
    """A CSV file of ``header``, then CRLF lines with every number as
    ``%.17g`` writes it, written inside a ``with`` block.

    :meth:`write` takes a block: a tuple of float arrays of equal length
    whose columns are written side by side, row by row.  It cuts the block
    into chunks of as many rows as ``_CHUNK`` values allow and formats each
    by :func:`_csv_floats`: 0.15-0.25 us a value on a large block on a
    2-vCPU x86 host, where one ``bytes %`` a row takes 0.3-0.8 us.

    With a state ``width``, the writer is also an ``integrate`` sink: each
    call ``writer(t, x)`` copies one sample into a buffer of ``chunks``
    whole chunks of rows, and each full buffer, and the last part-filled
    one, is written as the block ``columns(times, states)``; by default
    ``(times, states)``, a row ``t`` and then ``x``.  So a run's samples
    reach the file as it integrates, and at most one buffer of them is held.

    The lines go to ``<path>.part``, which becomes ``path`` when the ``with``
    block ends and is removed if it raises: a failed run leaves no file at
    ``path`` (an earlier one there stays as it was), and none half written.
    """

    def __init__(self, path, header, width=None, columns=None, chunks=1):
        self.path = Path(path)
        self.part = self.path.with_name(self.path.name + ".part")
        self.header = ",".join(header).encode("ascii") + b"\r\n"
        self.per_chunk = max(1, _CHUNK // len(header))
        self.filled = 0
        if width is not None:
            self.times = np.empty(chunks * self.per_chunk)
            self.states = np.empty((len(self.times), width))
            self.columns = columns or (lambda times, states: (times, states))

    def __enter__(self):
        self.fh = open(self.part, "wb")
        self.fh.write(self.header)
        return self

    def __call__(self, t, x):
        k = self.filled
        self.times[k] = t
        self.states[k] = x
        self.filled = k + 1
        if self.filled == len(self.times):
            self.flush()

    def flush(self):
        """Write the buffered samples, if any, as one block."""
        if self.filled:
            self.write(self.columns(self.times[:self.filled], self.states[:self.filled]))
            self.filled = 0

    def write(self, block):
        for k in range(0, len(block[0]), self.per_chunk):
            self.fh.write(_csv_floats(np.column_stack([col[k:k + self.per_chunk]
                                                       for col in block])))

    def __exit__(self, exc_type, *_):
        done = False
        try:
            with self.fh:
                if exc_type is None:
                    self.flush()
                    done = True
        finally:
            if done:
                self.part.replace(self.path)
            else:
                self.part.unlink()


def _write_csv(path, header, blocks) -> None:
    """Write ``header``, then each of ``blocks`` by :meth:`_CsvWriter.write`."""
    with _CsvWriter(path, header) as csv:
        for block in blocks:
            csv.write(block)


def _write_events(path, events) -> None:
    """Write ``t,tag``, then one CRLF line per ``(t, tag)`` event."""
    with open(path, "wb") as fh:
        fh.write(b"t,tag\r\n" + b"".join(b"%.17g,%s\r\n" % (t, tag.encode("ascii"))
                                          for t, tag in events))


def _csv_floats(a) -> bytes:
    """The CSV lines of the 2-D float array ``a``: each value as
    ``b"%.17g" % x`` writes it, ``,`` between values and CRLF after each row.

    Each finite nonzero ``|x| = f 2^e`` (``np.frexp``) is scaled to its 17
    significant digits, ``|x| 10^(16 - X)`` in [1e16, 1e17), where ``X`` is
    the decimal exponent that ``%.17g`` prints: ``floor(log10(2^(e - 1)))``
    or one more, decided exactly by the least double from which ``%.17g``
    prints the larger.  ``f 10^(16 - X)`` is a Dekker product with
    ``10^(16 - X) = (hi + lo) 2^B`` as a double-double, scaled by
    ``2^(e + B)``; its high part is an even integer, so ``rint`` of its low
    part rounds the sum half-even.  The product is exact where ``lo`` is 0
    (``0 <= 16 - X <= 22``, every exact tie among them).  Elsewhere it errs
    by below 1e-14 of a unit, and a value within the guard band of
    ``_csv_tables`` around a half unit is written by ``%``, as are nan and
    inf.  The digits then fill a 48-byte slot per value, six 8-byte words:
    ``"-0.000"`` and digit 1 with a dot slot, four words of four digits each
    with a dot slot, and ``"e+308"`` with the separator.  A mask picked by
    (layout class, significant digits, sign) zeroes every byte not in
    ``%g``'s text (fixed notation for -4 <= X < 17 without trailing zeros
    or a trailing dot, ``e+XX`` otherwise, ``-0`` for -0.0), and the zeros
    are deleted.
    """
    a = np.asarray(a, dtype=float)
    rows, cols = a.shape
    x = a.ravel()
    T = _csv_tables()
    take = np.take
    ax = np.abs(x)
    f, e = np.frexp(ax)
    ei = np.add(e, T.e_bias, dtype=np.intp)
    xi = take(T.x_row, ei)                  # the row of X
    xi += ax >= take(T.x_next, ei)
    bad = ~np.isfinite(f)
    f[bad] = 0.0
    xi[bad] = 0
    hh, hl, lo, hi, half = take(T.scale, xi, axis=0).T
    b, cls = take(T.layout, xi, axis=0).T
    b += ei
    b <<= 52
    scale = b.view(np.float64)              # 2^(e + B), from its exponent bits
    fh = (f.view(np.uint64) & 0xFFFFFFFFF8000000).view(np.float64)   # top 26 bits
    fl = f - fh
    p = f * hi
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * lo
    err *= scale
    rounded = np.rint(err)
    by_percent = np.flatnonzero((np.abs(err - rounded) > half) | bad)
    p *= scale
    digits = np.add(p, rounded, dtype=np.int64, casting="unsafe")    # 0 for 0.0
    g = np.empty((5, x.size), np.int64)     # digit 1, then four groups of four
    high = digits // 100000000
    low = digits - high * 100000000
    np.floor_divide(low, 10000, out=g[3])
    np.subtract(low, g[3] * 10000, out=g[4])
    low = high // 10000
    np.subtract(high, low * 10000, out=g[2])
    np.floor_divide(low, 10000, out=g[0])
    np.subtract(low, g[0] * 10000, out=g[1])
    cls += take(T.last_digit, g + T.group_offset).max(axis=0)
    cls += np.signbit(x)
    words = np.empty((6, x.size), np.uint64)
    take(T.head, g[0], out=words[0])
    take(T.quad, g[1:], out=words[1:5])
    take(T.tail, xi, out=words[5])
    text = np.bitwise_and(words.T, take(T.mask, cls, axis=0), order="C")
    text = text.view(np.uint8).reshape(rows, cols, 48)
    text[:, -1, 45:47] = np.frombuffer(b"\r\n", np.uint8)
    text = text.reshape(-1, 48)
    for i in by_percent:
        value = np.frombuffer(b"%.17g" % x[i], np.uint8)
        text[i, :45] = 0
        text[i, :value.size] = value
    return text.tobytes().translate(None, b"\0")


_CsvTables = namedtuple("_CsvTables", "e_bias x_row x_next scale layout last_digit group_offset "
                                      "head quad tail mask")


@functools.cache
def _csv_tables() -> _CsvTables:
    """The read-only tables of :func:`_csv_floats`, built from Python
    integers on first use (about 5 ms)."""
    x_min, x_max, e_bias = -324, 308, 1074      # decimal exponents; frexp's e >= -1073
    nx = x_max - x_min + 1
    # per X, row X - x_min: 10^(16 - X) = (hi + lo) 2^B, hi in [1, 2) split
    # as hh + hl of 26 bits each, and half a unit less the guard band; the
    # exponent bits of 2^B less e_bias, and the mask row of the layout class
    scale = np.empty((nx, 5))
    layout = np.empty((nx, 2), np.intp)
    x_next = np.empty(nx + 1)
    for row, X in enumerate(range(x_min, x_max + 1)):
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        B = num.bit_length() - den.bit_length()
        num, den = (num, den << B) if B >= 0 else (num << -B, den)
        if num < den:
            B, num = B - 1, 2 * num
        hi = num / den                                  # correctly rounded
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)
        hh = hi * 134217729.0 - (hi * 134217729.0 - hi)
        # the double-double errs by below 1e-14 of a unit; the guard is wider
        scale[row] = hh, hi - hh, lo, hi, 0.5 - 1e-9 if lo else 0.5
        cls = X if 0 <= X < 17 else 16 - X if -4 <= X < 0 else 21 + (abs(X) >= 100)
        layout[row] = 1023 - e_bias + B, 36 * cls
        # the least double from which %.17g prints X: 10^X less half a unit
        num, den = (2 * 10 ** 17 - 1) * 10 ** max(X - 17, 0), 2 * 10 ** max(17 - X, 0)
        d = num / den
        p, q = d.as_integer_ratio()
        x_next[row] = math.nextafter(d, math.inf) if p * den < num * q else d
    x_next[nx] = math.inf
    # the row of X = floor(log10(2^(e - 1))) per frexp exponent e
    x_row = ((np.arange(-e_bias, 1025) - 1) * 78913 >> 18) - x_min
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)     # of 0..9999
    quad = np.full((10000, 8), ord("."), np.uint8)      # 4 digits, each with a dot slot
    quad[:, ::2] = digits.T + ord("0")
    # twice the place of the last nonzero digit (digit 1 is place 1), 0 if none
    last = (np.arange(1, 5, dtype=np.uint8)[:, None] * (digits != 0)).max(axis=0)
    last_digit = np.zeros((5, 10000), np.int8)
    last_digit[0, 1:10] = 2
    for k in (1, 2, 3, 4):
        last_digit[k] = np.where(last > 0, 2 * (4 * k - 3 + last), 0)
    head = np.tile(np.frombuffer(b"-0.000..", np.uint8), (10, 1))
    head[:, 6] = np.arange(10) + ord("0")
    X = np.arange(x_min, x_max + 1)
    tail = np.zeros((nx, 8), np.uint8)                  # e, sign, 3 digits, ",", "\n"
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(X < 0, ord("-"), ord("+"))
    for col, div in ((2, 100), (3, 10), (4, 1)):
        tail[:, col] = np.abs(X) // div % 10 + ord("0")
    tail[:, 5:7] = np.frombuffer(b",\n", np.uint8)
    # the kept bytes per (class, significant digits nd, sign): class X for a
    # fixed X >= 0, 16 - X for a fixed X < 0, 21 and 22 for 2- and 3-digit
    # exponents; nd = 0 is a zero.  A row end keeps its "\n" besides.
    c = np.arange(48)
    cls = np.arange(23)[:, None, None, None]
    nd = np.arange(18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    X = np.where(cls < 17, cls, 16 - cls)
    whole = np.where(cls < 17, cls + 1, np.where(cls < 21, 0, 1))    # digits before the dot
    place = np.where(c >= 8, (c - 8) // 2 + 1, 0)        # digit place - 1 of cols 6..39
    digit = (c >= 6) & (c < 40) & (c % 2 == 0)
    dot = (c >= 6) & (c < 40) & (c % 2 == 1)
    number = nd > 0
    mask = (((c == 0) & (neg == 1))
            | (number & (cls >= 17) & (cls < 21) & (c >= 1) & (c <= 1 - X))
            | ((c == 6) & (nd == 0))
            | (number & digit & (place < np.maximum(nd, whole)))
            | (number & dot & (place == whole - 1) & (nd > whole))
            | (number & (c >= 40) & (c < 45) & ((cls == 22) | ((cls == 21) & (c != 42))))
            | (c == 45))
    tables = _CsvTables(e_bias, x_row, x_next[x_row + 1], scale, layout, last_digit.ravel(),
                        np.arange(5)[:, None] * 10000, head.view(np.uint64).ravel(),
                        quad.view(np.uint64).ravel(), tail.view(np.uint64).ravel(),
                        (mask.reshape(-1, 48) * np.uint8(255)).view(np.uint64))
    for table in tables[1:]:
        table.flags.writeable = False
    return tables


def _run_solve(inputs, out: Path) -> dict:
    problem, init, tc, icfg = inputs
    width = problem.n + problem.m + problem.p
    with _CsvWriter(out / "trajectory.csv", ["t", *(f"x{k}" for k in range(width))],
                    width) as trajectory:
        result = solve(problem, init, tc=tc, cfg=icfg, grow_step=True, sink=trajectory)
    traj, trace = result.trajectory, result.storage
    _write_events(out / "events.csv", traj.events)
    _write_csv(out / "storage.csv", ["t", "storage", "supply", "margin"],
               blocks=[(trace.times, trace.storage, trace.supply_integral, trace.margin)])
    return result.summary()


def _run_svm(inputs, out: Path) -> dict:
    data_args, sv_tol, icfg = inputs
    data = svm_mod.generate_gaussian_classes(**data_args)
    _write_csv(out / "dataset.csv", ["x1", "x2", "label"], blocks=[(data.points, data.labels)])
    with (_CsvWriter(out / "beta_trajectory.csv", ["t", "beta1", "beta2", "beta0"], 3) as beta,
          _CsvWriter(out / "mu_trajectory.csv", ["t", *(f"mu{i}" for i in range(data.size))],
                     data.size) as mu):
        result = svm_mod.train_svm(data, cfg=icfg,
                                   sink=lambda t, z: (beta(t, z[:3]), mu(t, z[3:])))
    idx, plane, report = svm_mod.support_vectors(data, result.final, tol=sv_tol)
    return {
        "seed": data_args["seed"],
        "support_vector_indices": [int(k) for k in idx],
        "beta": [float(b) for b in plane.beta],
        "beta0": float(plane.beta0),
        "representer_residual": report["representer_residual"],
        "margin": report["margin"],
        "dual_balance": report["dual_balance"],
        **result.summary(),
    }


def _lyapunov_report(out: Path, times, V) -> dict:
    """Write ``lyapunov.csv``; return its audit's verdict, worst margin and time."""
    _write_csv(out / "lyapunov.csv", ["t", "V"], blocks=[(times, V)])
    audit = lyapunov_audit(times, V)
    return {"lyapunov_monotone": audit.pop("verdict"), **audit}


def _run_plant(inputs, out: Path) -> dict:
    name, controller, p, targets, gains, x0, icfg = inputs
    if name == "parallel_rlc":
        v_star = targets["v_star"]
        i_star, Vs_star = plants.prlc_equilibrium(p, v_star)
        if controller == "power_shaping":
            rhs, lyap = plants.prlc_power_shaping_loop(p, i_star, **gains)
        else:
            rhs, lyap = plants.prlc_krasovskii_pi_loop(p, i_star, v_star, **gains)
            x0 = np.concatenate([x0, [0.0]])
        target_state = np.array([i_star, v_star])
        extra = {"i_star": i_star, "v_star": v_star, "Vs_star": Vs_star}
        if controller == "power_shaping" and not p.admissible_certificate_holds:
            extra["certificate"] = "unavailable"
    else:
        T_zones = (targets["T1"], targets["T2"])
        T_star, u_star = plants.hvac_equilibrium(p, *T_zones)
        if controller == "power_shaping":
            rhs, lyap = plants.hvac_power_shaping_loop(p, T_zones, **gains)
            target_state = T_star
        else:
            rhs, lyap = plants.dyn_feedback_loop(plants.hvac_dyn_feedback(p), T_star, **gains)
            target_state = np.concatenate([T_star, u_star])
        extra = {"T_star": [float(x) for x in T_star], "u_star": [float(x) for x in u_star]}

    V = []

    def columns(times, states):
        V.extend(lyap(t, z) for t, z in zip(times, states))
        return times, states

    with _CsvWriter(out / "trajectory.csv", ["t", *(f"x{k}" for k in range(len(x0)))],
                    len(x0), columns) as trajectory:
        traj = integrate(rhs, x0, icfg, floats=True, sink=trajectory)
    return {
        "plant": name,
        "controller": controller,
        "final_state": [float(v) for v in traj.final_state],
        "target_error": float(np.max(np.abs(traj.final_state[: target_state.size]
                                            - target_state))),
        **_lyapunov_report(out, traj.times, np.array(V)),
        **extra,
    }


# Whole chunks of a block of a line run's samples, so that no chunk but the
# file's last is cut short.  At 200 intervals a chunk holds 5 samples, and
# a block of 15 keeps its temporaries near 0.3 MB.
_BLOCK = 3


def _run_tline(inputs, out: Path) -> dict:
    p, M, (rhs, lyap, eq, I0_star), icfg = inputs
    header = (["t"] + [f"i{k}" for k in range(M + 1)]
              + [f"v{k}" for k in range(M + 1)] + ["vC0", "vC1"])
    V = []

    def columns(times, states):
        V.append(lyap(times, states))
        return (times, *tline_mod.unpack(p, states, M))

    with _CsvWriter(out / "spacetime.csv", header, 2 * M + 2, columns, _BLOCK) as spacetime:
        traj = integrate(rhs, np.zeros(2 * M + 2), icfg, sink=spacetime)      # from rest
    final = tline_mod.unpack_state(p, traj.final_state, M)
    return {
        "mode": "boundary_pi",
        "I0_star": float(I0_star),
        "profile_error": float(max(np.max(np.abs(final.i - eq.i)),
                                   np.max(np.abs(final.v - eq.v)))),
        "final_vC1": float(final.vC1),
        **_lyapunov_report(out, traj.times, np.concatenate(V)),
    }


def _run_audit(inputs, out: Path) -> dict:
    trace, audit_tol = inputs
    return trace.report(audit_tol)


# read(cfg, integrator block, diagnostics) -> inputs, the last of them the
# run's IntegratorConfig for a kind that integrates; run(inputs, out) ->
# summary; subcommand flags as (flag, type, key in the kind's config block, help)
Kind = namedtuple("Kind", "read run flags", defaults=((),))

KINDS = {
    "solve": Kind(_read_solve, _run_solve),
    "svm": Kind(_read_svm, _run_svm, (("--n", int, "n_per_class", "points per class"),)),
    "plant": Kind(_read_plant, _run_plant,
                  (("--plant", str, "name", "plant name"),
                   ("--controller", str, "controller", "controller name"),
                   ("--horizon", float, "horizon", "simulated time"))),
    "tline": Kind(_read_tline, _run_tline,
                  (("--target", float, "target_vc1", "target vC1"),
                   ("--grid", int, "grid", "grid intervals M"),
                   ("--horizon", float, "horizon", "simulated time"))),
    "audit": Kind(_read_audit, _run_audit),
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
    inputs, diags = _read(cfg)
    if diags:
        return EXIT_VALIDATION, {"validation_errors": diags}
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:          # a file at out_dir, or a path under one
        return EXIT_VALIDATION, {"validation_errors": [
            f"out: cannot make directory {out} ({type(exc).__name__}: {exc})"]}
    kind = cfg["kind"]
    try:
        summary = KINDS[kind].run(inputs, out)
    except (DivergenceError, plants.RankDeficientInput) as exc:
        summary = {"error": str(exc)}
    code = _exit_code(summary, strict)
    echo = dict(cfg)
    if isinstance(inputs[-1], IntegratorConfig):    # the settings the run used
        echo["integrator"] = asdict(inputs[-1])
    echo.setdefault("schema", SCHEMA_VERSION)
    payload = {"config": echo, "kind": kind, "exit_code": code, **summary}
    # Plain JSON values, each non-finite float as None: JSON has no NaN.
    payload = json.loads(json.dumps(payload, default=float), parse_constant=lambda _: None)
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
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
        sp.add_argument("--config", action="append", default=[], required=name not in KINDS,
                        help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override the svm seed")
        if name == "validate":          # it runs nothing and writes nothing
            continue
        sp.add_argument("--out", default="out", help="output directory")
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

    configs = [_load(path) for path in args.config]
    if not configs:
        configs = [{"schema": SCHEMA_VERSION, "kind": args.command}]

    # Subcommand flags and --seed fold into the loaded configs, and a kind
    # subcommand takes only its own kind; validate() reports a config or a
    # block that is not a JSON object.
    for i, cfg in enumerate(configs):
        if not isinstance(cfg, dict):
            continue
        if kind is not None:
            if cfg.setdefault("kind", args.command) != args.command:
                parser.error(f"kind: {args.config[i]} has kind {cfg['kind']!r}, and the "
                             f"{args.command} subcommand takes only {args.command!r}; run "
                             "takes any kind")
            values = {key: getattr(args, key) for _, _, key, _ in kind.flags
                      if getattr(args, key) is not None}
            if values and isinstance(cfg.setdefault(args.command, {}), dict):
                cfg[args.command].update(values)
        if (args.seed is not None and cfg.get("kind") == "svm"
                and isinstance(cfg.setdefault("svm", {}), dict)):
            cfg["svm"]["seed"] = args.seed
    if args.seed is not None and not any(isinstance(cfg, dict) and cfg.get("kind") == "svm"
                                         for cfg in configs):
        parser.error("--seed: unused; it sets svm.seed, and no config is an svm config")

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

    if args.jobs < 1:
        parser.error("--jobs: must be >= 1")
    out_dirs = ([Path(args.out) / stem for stem in stems] if len(configs) > 1
                else [Path(args.out)])
    strict = [args.strict] * len(configs)
    if args.jobs > 1 and len(configs) > 1:
        import concurrent.futures       # only --jobs needs it; saves every import ~5 ms
        # fork starts all max_workers at the first submit: start no idle ones
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(args.jobs, len(configs))) as pool:
            results = list(pool.map(run, configs, out_dirs, strict))
    else:
        results = map(run, configs, out_dirs, strict)
    worst = EXIT_OK
    for code, summary in results:
        print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                         sort_keys=True, allow_nan=False))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
