"""Workload inputs: the CLI configs one pass over a workload hands to ``cli.run``.

Every input is generated from the workload seed, so one seed always gives
the same configs.  See ``README.md`` for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import functools
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("svm_paper", "closed_loops", "qp_mixed")

# Passes per run, sized so that a run measures 20-35 s at this commit's
# speed on the 2-vCPU tuning host (a raw pass: svm_paper 13-17 s,
# closed_loops 1.8-2.5 s, qp_mixed 2.5-3.9 s).  Fixed, so that parent and
# change take the same number of samples; ``--seconds`` only caps a run that
# is far slower.
PASSES = {"svm_paper": 2, "closed_loops": 12, "qp_mixed": 7}

# The svm CLI kind draws its dataset from its own seed, so the workload seed
# cannot vary the data without changing the problem.  Seed 0 is the ROADMAP
# baseline.  At this commit seeds 1 and 4 raise "component ... undershot zero
# ... missing guard?" from ode._clamp, and seed 2 exits 3 at max_time 400;
# timing such a run would make the later fix look like a wall_s regression,
# and convergence time differs from seed to seed.  test_perfbench.py runs
# seed 4 to keep the defect visible.
SVM_DATA_SEED = 0

PLANT_STEP = 0.01
PLANT_RECORD_EVERY = 20
# (plant, controller, params, gains, horizon).  Parameters and gains are the
# ones the ``*_twenty_random_starts`` tests use; horizons keep one pass short.
PLANT_PAIRS = (
    ("parallel_rlc", "power_shaping", {"R": 1.0, "G": 2.0, "L": 1.0, "C": 1.0},
     {"K": 1.0}, 40.0),
    ("parallel_rlc", "krasovskii_pi", {"R": 1.0, "G": 0.5, "L": 1.0, "C": 1.0},
     {"K_P": 1.0, "K_I": 1.0}, 40.0),
    ("hvac", "power_shaping", {}, {"k": 1.0, "k1": 10.0, "k2": 10.0, "alpha": 10.0}, 20.0),
    ("hvac", "dyn_feedback", {}, {"k1": 1.0, "kd": 2.0, "ki": 5.0}, 10.0),
)

TLINE_GRID = 200
TLINE_HORIZON = 2.0
TLINE_RUNS = 2

# The QP set is drawn once from QP_POOL_SEED; the workload seed turns each
# problem by a random orthogonal change of variables and shuffles its rows.
# The flow is equivariant under both, so every seed does the same work and
# wall_s measures the code rather than the draw (convergence time of a fresh
# random QP varies tenfold).
QP_POOL_SEED = 0
QP_COUNT = 4
QP_MIN_DECAY = 0.4
QP_INTEGRATOR = {"step": 0.02, "max_time": 200.0, "convergence_tol": 1e-8}


@dataclass
class Op:
    """One ``cli.run`` call; ``kind`` selects its reference check."""

    name: str
    kind: str
    cfg: dict
    strict: bool = False


@functools.cache
def load_oracles():
    """``tests/oracles.py``: the QP active-set enumeration reference."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _svm_ops(data_seed):
    cfg = {"schema": 1, "kind": "svm", "svm": {"seed": data_seed, "n_per_class": 300}}
    return [Op("svm", "svm", cfg)]


def _plant_ops(seed):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name, controller, params, gains, horizon in PLANT_PAIRS:
        if name == "parallel_rlc":
            x0 = rng.uniform(-2.0, 2.0, size=2)
        else:
            x0 = np.concatenate([rng.uniform(1.0, 7.0, 2), rng.uniform(2.0, 20.0, 2)])
        blk = {"name": name, "controller": controller, "params": params,
               "gains": gains, "horizon": horizon,
               "initial_state": [float(v) for v in x0]}
        cfg = {"schema": 1, "kind": "plant", "plant": blk,
               "integrator": {"step": PLANT_STEP, "record_every": PLANT_RECORD_EVERY}}
        ops.append(Op(f"{name}-{controller}", "plant", cfg))
    return ops


def _tline_ops(seed):
    from passiflow.tline import LineParams, cfl_limit

    rng = np.random.default_rng([seed, 2])
    step = cfl_limit(LineParams(), TLINE_GRID)
    ops = []
    for k in range(TLINE_RUNS):
        blk = {"grid": TLINE_GRID, "horizon": TLINE_HORIZON,
               "target_vc1": float(rng.uniform(0.5, 2.0)),
               "gains": {"K_P": float(rng.uniform(0.5, 2.0)),
                         "K_I": float(rng.uniform(0.5, 2.0))}}
        cfg = {"schema": 1, "kind": "tline", "tline": blk, "integrator": {"step": step}}
        ops.append(Op(f"tline{k}", "tline", cfg))
    return ops


def _decay_rate(qp) -> float:
    """Decay rate of the flow linearised at the KKT point: minus the largest
    real part of the eigenvalues of [[-Q0, -C^T], [C, 0]], where C stacks the
    equality rows and the active inequality rows."""
    C = np.vstack([qp["A"], qp["G"][qp["mu_star"] > 1e-9]])
    n, r = qp["Q0"].shape[0], C.shape[0]
    J = np.zeros((n + r, n + r))
    J[:n, :n] = -qp["Q0"]
    J[:n, n:] = -C.T
    J[n:, :n] = C
    return float(-np.max(np.linalg.eigvals(J).real))


def random_qp(rng, oracles):
    """A QP from ``oracles.make_random_qp`` with 2-5 variables, at most one
    equality and 2-5 affine inequality rows.

    Draws whose linearised flow decays slower than ``QP_MIN_DECAY`` are
    rejected: they need hundreds of time units to settle to the convergence
    tolerance and would end at ``max_time``.
    """
    while True:
        qp = oracles.make_random_qp(rng, n_max=5, m_max=1, p_max=5)
        if qp["Q0"].shape[0] >= 2 and qp["G"].shape[0] >= 2 \
                and _decay_rate(qp) >= QP_MIN_DECAY:
            return qp


def transform_qp(qp, rng):
    """The same QP in coordinates ``U x`` (``U`` random orthogonal), with the
    equality and inequality rows shuffled."""
    n = qp["Q0"].shape[0]
    U, R = np.linalg.qr(rng.normal(size=(n, n)))
    U *= np.sign(np.diag(R))
    eq_rows = rng.permutation(qp["A"].shape[0])
    ineq_rows = rng.permutation(qp["G"].shape[0])
    return {"Q0": U @ qp["Q0"] @ U.T, "c": U @ qp["c"],
            "A": qp["A"][eq_rows] @ U.T, "b": qp["b"][eq_rows],
            "G": qp["G"][ineq_rows] @ U.T, "h": qp["h"][ineq_rows]}


def _qp_ops(seed, out):
    oracles = load_oracles()
    pool_rng = np.random.default_rng([QP_POOL_SEED, 3])
    pool = [random_qp(pool_rng, oracles) for _ in range(QP_COUNT)]
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k, base in enumerate(pool):
        qp = transform_qp(base, rng)
        x_star, _, _ = oracles.enumerate_qp_kkt(qp["Q0"], qp["c"], qp["A"], qp["b"],
                                                qp["G"], qp["h"])
        # The ball is centred on the optimum with radius 1, so it is inactive
        # there (value -1) and the affine KKT point is also the mixed one.
        problem = {
            "objective": {"Q0": qp["Q0"].tolist(), "c": qp["c"].tolist()},
            "inequalities": {
                "affine": {"G": qp["G"].tolist(), "h": qp["h"].tolist()},
                "named": [{"name": "ball",
                           "params": {"center": x_star.tolist(), "radius": 1.0}}],
            },
        }
        if qp["A"].shape[0]:
            problem["equalities"] = {"A": qp["A"].tolist(), "b": qp["b"].tolist()}
        solve_cfg = {"schema": 1, "kind": "solve", "problem": problem,
                     "integrator": dict(QP_INTEGRATOR)}
        ops.append(Op(f"qp{k}", "solve", solve_cfg, strict=True))
        audit_cfg = {"schema": 1, "kind": "audit",
                     "audit": {"trace_csv": str(Path(out) / f"qp{k}" / "storage.csv")}}
        ops.append(Op(f"qp{k}-audit", "audit", audit_cfg, strict=True))
    return ops


def build_ops(workload: str, seed: int, out) -> list[Op]:
    """The operations of one pass over ``workload``, in the order they run."""
    if workload == "svm_paper":
        return _svm_ops(SVM_DATA_SEED)
    if workload == "closed_loops":
        return _plant_ops(seed) + _tline_ops(seed)
    if workload == "qp_mixed":
        return _qp_ops(seed, out)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
