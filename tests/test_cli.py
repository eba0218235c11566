import concurrent.futures
import dataclasses
import functools
import gc
import inspect
import json
import operator
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_line_state, reference_write_csv
from passiflow import brayton_moser, cli, ode, plants, primal_dual, svm, tline
from passiflow.brayton_moser import lyapunov_audit
from passiflow.ode import Trajectory
from test_artifacts_golden import CONFIGS
from test_tline import _rk4_spectral_radius


@pytest.mark.parametrize("kind", ["solve", "svm"])
def test_converged_is_written_as_a_json_bool(tmp_path, kind):
    code, payload = cli.run(CONFIGS[kind], tmp_path)
    assert code == 0
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["converged"] is True
    assert payload["converged"] is True


def _plant_cfg(**gains):
    return {"schema": 1, "kind": "plant",
            "plant": {"name": "hvac", "controller": "dyn_feedback", "gains": gains}}


def _svm_cfg(svm=None, **integrator):
    return {"schema": 1, "kind": "svm", "svm": svm or {}, "integrator": integrator}


@pytest.mark.parametrize("cfg, field", [
    (_svm_cfg(step="x"), "integrator.step"),
    ({"schema": 1, "kind": "svm", "svm": {"n_per_class": "abc"}}, "svm.n_per_class"),
    (_plant_cfg(k1="big"), "plant.gains.k1"),
    (_svm_cfg(stpe=0.01), "integrator.stpe"),
    (_svm_cfg(clamp_tol=-1), "integrator.clamp_tol"),
    (_svm_cfg({"n_per_class": 2.5}), "svm.n_per_class"),
    ({"schema": 1, "kind": "tline", "tline": {"grid": 10.5}}, "tline.grid"),
    (_svm_cfg(record_every=2.5), "integrator.record_every"),
    (_svm_cfg(convergence_window=1.5), "integrator.convergence_window"),
])
def test_wrong_typed_field_is_a_diagnostic(cfg, field):
    diags = cli.validate(cfg)
    assert [d for d in diags if d.startswith(field + ":")], diags


def test_unknown_integrator_key_names_the_known_ones():
    diags = cli.validate(_svm_cfg(stpe=0.01))
    assert diags == ["integrator.stpe: unknown; expected one of step, max_time, event_tol, "
                     "convergence_tol, convergence_window, record_every"]


def test_malformed_block_is_a_diagnostic():
    diags = cli.validate({"schema": 1, "kind": "solve",
                          "problem": {"objective": {"Q0": "abc"}}})
    assert diags == ["problem.objective.Q0: must hold numbers",
                     "problem.objective.Q0: must be a square matrix"]
    # an array numpy cannot read leaves the checks after it running
    diags = cli.validate({"schema": 1, "kind": "solve",
                          "problem": {"objective": {"Q0": [[1.0]]},
                                      "equalities": {"A": {"a": 1}, "b": [0.0]}},
                          "time_constants": {"tau_q": 1}})
    assert "problem.equalities.A: must hold numbers" in diags
    assert [d for d in diags if d.startswith("time_constants.tau_q: unknown")], diags
    assert not [d for d in diags if d.startswith("config:")], diags


@pytest.mark.parametrize("cov", [
    [[np.inf, 1.5], [1.5, 3.0]],                # symmetric
    [[1.0, np.inf], [1.5, 3.0]],                # asymmetric
])
def test_infinite_svm_cov_is_reported_as_not_finite(cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diags = cli.validate({"schema": 1, "kind": "svm", "svm": {"cov": cov}})
    assert diags == ["svm.cov: must be finite"]


def test_run_reports_a_wrong_typed_field_with_exit_code_2(tmp_path):
    code, payload = cli.run(_plant_cfg(k1="big"), tmp_path)
    assert code == cli.EXIT_VALIDATION
    assert payload["validation_errors"]


@pytest.mark.parametrize("under", ["afile", "afile/x"])
def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    (tmp_path / "afile").write_text("")
    out = tmp_path / under
    code, payload = cli.run(_tiny_solve_cfg(-1.0), out)
    error = "FileExistsError" if under == "afile" else "NotADirectoryError"
    assert code == cli.EXIT_VALIDATION
    [diag] = payload["validation_errors"]
    assert diag.startswith(f"out: cannot make directory {out} ({error}: ")
    assert diag.endswith(f"{str(out)!r})")
    assert cli.main(["svm", "--n", "5", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["validation_errors"] == [diag]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def _tiny_solve_cfg(c):
    return {"schema": 1, "kind": "solve",
            "problem": {"objective": {"Q0": [[1.0]], "c": [c]},
                        "inequalities": {"affine": {"G": [[1.0]], "h": [0.5]}}},
            "integrator": {"step": 0.01, "max_time": 5.0}}


def _two_configs_argv(tmp_path):
    argv = ["run"]
    for name, c in (("first", -1.0), ("second", 0.25)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_tiny_solve_cfg(c)))
        argv += ["--config", str(path)]
    return argv


def test_parallel_jobs_print_one_summary_per_config_in_order(tmp_path, capsys):
    argv = _two_configs_argv(tmp_path)

    assert cli.main(argv + ["--out", str(tmp_path / "seq")]) == 0
    sequential = capsys.readouterr().out.splitlines()
    assert cli.main(argv + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out.splitlines()

    assert len(sequential) == 2
    assert parallel == sequential
    # the two configs have different optima, so the order is visible
    first, second = (json.loads(line) for line in parallel)
    assert first["kkt"] != second["kkt"]
    for stem in ("first", "second"):
        assert (tmp_path / "par" / stem / "summary.json").is_file()


def test_jobs_start_no_more_workers_than_configs(tmp_path, monkeypatch):
    # Under fork, ProcessPoolExecutor starts all max_workers processes at the
    # first submit; the stand-in records the request and starts no process.
    requested = []

    def pool(max_workers):
        requested.append(max_workers)
        return concurrent.futures.ThreadPoolExecutor(1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    argv = _two_configs_argv(tmp_path) + ["--out", str(tmp_path / "out"), "--jobs", "500"]
    assert cli.main(argv) == 0
    assert requested == [2]
    assert (tmp_path / "out" / "second" / "summary.json").is_file()


def test_importing_the_cli_does_not_load_scipy():
    # passiflow/__init__ imports every submodule, so this covers the library;
    # concurrent.futures is for --jobs alone and costs every import ~5 ms.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, passiflow.cli; "
         "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False False"


# -- exit codes through cli.run ------------------------------------------------

def _with(cfg, **blocks):
    """A deep copy of ``cfg`` with top-level ``blocks`` merged into it."""
    out = json.loads(json.dumps(cfg))
    for key, value in blocks.items():
        out[key] = {**out.get(key, {}), **value} if isinstance(value, dict) else value
    return out


def _prlc_cfg(step, horizon):
    return {"schema": 1, "kind": "plant",
            "plant": {"name": "parallel_rlc", "controller": "power_shaping",
                      "initial_state": [1.0, -1.0], "horizon": horizon},
            "integrator": {"step": step}}


def _audit_cfg(tmp_path, storage):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,storage\n" + "".join(f"{k},{s}\n" for k, s in enumerate(storage)))
    return {"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}}


@pytest.mark.parametrize("kind", ["solve", "svm", "plant", "tline", "audit"])
def test_every_kind_exits_0(tmp_path, kind):
    cfg = _audit_cfg(tmp_path, [2.0, 1.0, 1.0, 0.5]) if kind == "audit" else CONFIGS[kind]
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == payload["exit_code"] == 0, payload
    saved = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert saved["exit_code"] == 0


@pytest.mark.parametrize("cfg, field", [
    ({"schema": 1, "kind": "solve", "problem": {"objective": {"Q0": [[-1.0]]}}},
     "problem.objective.Q0"),
    ({"schema": 1, "kind": "svm", "svm": {"cov": [[1.0, 2.0], [0.0, 1.0]]}}, "svm.cov"),
    ({"schema": 1, "kind": "plant", "plant": {"name": "hvac", "controller": "krasovskii_pi"}},
     "plant.controller"),
    ({"schema": 1, "kind": "tline", "tline": {"grid": 16, "target_vc1": 1.0},
      "integrator": {"step": 0.1}}, "integrator.step"),
    ({"schema": 1, "kind": "audit", "audit": {}}, "audit.trace_csv"),
    ({"schema": 1, "kind": "bogus"}, "kind"),
    ({"schema": 1, "kind": "solve", "problem": {"objective": {"Q0": [[1.0, 2.0]]}}},
     "problem.objective.Q0"),
])
def test_every_kind_exits_2_on_a_bad_field(tmp_path, cfg, field):
    code, payload = cli.run(cfg, tmp_path)
    assert code == cli.EXIT_VALIDATION == 2
    assert [d for d in payload["validation_errors"] if d.startswith(field + ":")], payload


def _line_cfg(params, grid, step):
    return {"schema": 1, "kind": "tline",
            "tline": {"params": params, "grid": grid, "horizon": 5.0, "target_vc1": 1.0},
            "integrator": {"step": step}}


@pytest.mark.parametrize("params, resistor", [({"R0": 2.5}, "R0"), ({"R0": 3.0}, "R0"),
                                              ({"R1": 3.0}, "R1"), ({"C": 10.0}, "R0"),
                                              ({"L": 0.1}, "R0")])
def test_a_line_step_past_its_end_row_bound_exits_2(tmp_path, params, resistor):
    # 0.999 times the interior wave bound 0.9 dz sqrt(LC): accepted before the
    # guard had an end-row term, and then exit 3 or 4 under --strict
    p = tline.LineParams(**params)
    cfg = _line_cfg(params, 50, 0.999 * 0.9 * (1.0 / 50) * np.sqrt(p.L * p.C))
    limit = tline.cfl_limit(p, 50)
    diags = cli.validate(cfg)
    assert diags == [f"integrator.step: violates stability guard {limit:.3g} at this grid, "
                     f"set by the end row of tline.params.{resistor}"]
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


# grid-8 lines that ran unstable at the wave bound 0.1125, each exiting 4 under
# --strict, before the guard had the boundary-capacitor rows' terms
@pytest.mark.parametrize("params, gains, row", [
    ({}, {"K_P": 0.0, "K_I": 100.0}, "C0"),
    ({"C1": 0.01}, {}, "C1"),
    ({"C0": 0.01}, {"K_P": 0.0}, "C0"),
])
def test_a_line_step_past_its_capacitor_row_bound_exits_2(tmp_path, params, gains, row):
    cfg = _with(_line_cfg(params, 8, 0.9 / 8), tline={"gains": gains})
    K = [gains.get(k, 1.0) for k in ("K_P", "K_I")]
    p = tline.LineParams(**params)
    limit = tline.step_guard(p, 8, *K, rhs=tline.tline_pi_loop(p, 8, 1.0, *K)[0])[0]
    diags = cli.validate(cfg)
    assert diags == [f"integrator.step: violates stability guard {limit:.3g} at this grid, "
                     f"set by the capacitor row of tline.params.{row}"]
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", [{"C": 0.01, "L": 20.0}, {"G": 200.0}])
def test_a_line_step_past_its_interior_voltage_rows_bound_exits_2(tmp_path, params):
    # at the wave bound (0.0503 and 0.1125) h G/C is 5.03 and 22.5, past RK4's
    # -2.785; the first exited 4 under --strict before the guard had this term
    p = tline.LineParams(**params)
    cfg = _line_cfg(params, 8, 0.9 / 8 * np.sqrt(p.L * p.C))
    diags = cli.validate(cfg)
    assert diags == [f"integrator.step: violates stability guard {2.785 * p.C / p.G:.3g} at "
                     "this grid, set by the interior voltage rows' own rate of tline.params.G"]
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


def test_a_line_step_past_the_current_rows_bound_exits_2(tmp_path):
    # with R0 = R1 = 0 the end term is the current rows' own rate R/L; the
    # guard named it the end row of R0
    cfg = _line_cfg({"R0": 0.0, "R1": 0.0, "R": 200.0}, 8, 0.05)
    diags = cli.validate(cfg)
    assert diags == ["integrator.step: violates stability guard 0.0139 at this grid, set by "
                     "the current rows' own rate of tline.params.R"]
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


def test_a_line_step_within_a_capacitor_row_bound_that_rk4_grows_exits_2(tmp_path):
    # C0 0.01 with K_P 0 at grid 8: the source block's term 0.03363 leaves out
    # the end current's coupling to the interior, and at it the loop's
    # spectrum reads 1.0111.  The reader accepted it; its strict run to
    # horizon 5 exited 4, with profile_error 11.2.  The guard is capped by
    # that spectrum's limit.
    cfg = _with(_line_cfg({"C0": 0.01}, 8, 0.03363), tline={"gains": {"K_P": 0.0}})
    assert tline.step_guard(tline.LineParams(C0=0.01), 8, 0.0, 1.0)[1] == "C0"
    diags = cli.validate(cfg)
    assert diags == ["integrator.step: violates stability guard 0.0335 at this grid, set by "
                     "the capacitor row of tline.params.C0"]
    p = tline.LineParams(C0=0.01)
    assert _rk4_spectral_radius(p, 8, 0.03363, 0.0, 1.0) == pytest.approx(1.0111, abs=1e-4)
    limit = tline.step_guard(p, 8, 0.0, 1.0, rhs=tline.tline_pi_loop(p, 8, 1.0, 0.0, 1.0)[0])[0]
    assert _rk4_spectral_radius(p, 8, 0.999 * limit, 0.0, 1.0) <= 1.0
    assert cli.validate(_with(cfg, integrator={"step": 0.999 * limit})) == []
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params, target, step, diags", [
    ({"R": 1000.0, "G": 1000.0}, 1.0, 1.0,
     ["integrator.step: violates stability guard 0.00275 at this grid, set by the end row of "
      "tline.params.R0", "tline.target_vc1: equilibrium profile not finite with these "
      "tline.params"]),
    # no loop to probe: the capacitor block's own term 0.0336 decides
    ({"C0": 0.01, "G": 1e-300}, 1.0, 0.034,
     ["integrator.step: violates stability guard 0.0336 at this grid, set by the capacitor row "
      "of tline.params.C0", "tline.params: no stability certificate for tau = RC/(LG) ("]),
    ({}, 1e308, 0.01, ["tline.target_vc1: equilibrium profile not finite with these tline.params"]),
])
def test_a_line_whose_loop_cannot_be_built_still_gets_its_step_checked(params, target, step,
                                                                       diags):
    cfg = _with(_line_cfg(params, 8, step), tline={"target_vc1": target, "gains": {"K_P": 0.0}})
    got = cli.validate(cfg)
    assert len(got) == len(diags) and all(g.startswith(e) for g, e in zip(got, diags))


def _block_bound_lines(seed, n, open_line):
    """``n`` random lines at grids 8 and 16 whose guard a capacitor block sets,
    as ``(params, grid, (K_P, K_I))``: log-uniform ``R``, ``G`` in [0.05, 5],
    ``L``, ``C`` in [0.1, 10], ``R0``, ``R1`` in [0.01, 10], ``C0``, ``C1``
    in [0.005, 2] and gains in [0.01, 10], or no gains for the open line."""
    rng = np.random.default_rng(seed)
    ranges = {"R": (0.05, 5), "G": (0.05, 5), "L": (0.1, 10), "C": (0.1, 10),
              "R0": (0.01, 10), "R1": (0.01, 10), "C0": (0.005, 2), "C1": (0.005, 2)}
    lines = []
    while len(lines) < n:
        params = {k: float(np.exp(rng.uniform(*np.log(r)))) for k, r in ranges.items()}
        M = int(rng.choice([8, 16]))
        K = (0.0, 0.0) if open_line else tuple(np.exp(rng.uniform(*np.log([0.01, 10]), 2)))
        if tline.step_guard(tline.LineParams(**params), M, *K)[1] in ("C0", "C1"):
            lines.append((params, M, K))
    return lines


def test_the_line_step_rule_keeps_rk4_stable_on_random_capacitor_row_bound_loops():
    # Where a block sets the guard, the reader's limit is capped by the loop's
    # dense spectrum (on 9 of these 40): stable just below it, refused just
    # above it.
    capped = 0
    for params, M, K in _block_bound_lines(0, 40, open_line=False):
        p = tline.LineParams(**params)
        term, row = tline.step_guard(p, M, *K)
        limit = tline.step_guard(p, M, *K, rhs=tline.tline_pi_loop(p, M, 1.0, *K)[0])[0]
        capped += limit < term
        assert _rk4_spectral_radius(p, M, 0.999 * limit, *K) <= ode.RK4_MARGIN
        cfg = _with(_line_cfg(params, M, 0.999 * limit),
                    tline={"gains": {"K_P": K[0], "K_I": K[1]}})
        assert cli.validate(cfg) == []
        assert cli.validate(_with(cfg, integrator={"step": 1.001 * limit})) == [
            f"integrator.step: violates stability guard {limit:.3g} at this grid, set by the "
            f"capacitor row of tline.params.{row}"]
    assert capped == 9


def test_the_line_step_rule_keeps_rk4_stable_on_random_capacitor_row_bound_open_lines():
    # None of these 40 is capped by its spectrum; tests/test_tline.py has one
    # that is.
    for params, M, _ in _block_bound_lines(1, 40, open_line=True):
        p = tline.LineParams(**params)
        zero = tline.LineState(np.zeros(M + 1), np.zeros(M + 1), 0.0, 0.0)
        limit = tline.cfl_limit(p, M)
        assert _rk4_spectral_radius(p, M, 0.999 * limit, 0.0, 0.0) <= ode.RK4_MARGIN
        with pytest.raises(ValueError, match="set by the capacitor row of C"):
            tline.simulate_open_loop(p, zero, 1.0, ode.IntegratorConfig(step=1.001 * limit,
                                                                         max_time=1.0))
        traj = tline.simulate_open_loop(p, zero, 1.0, ode.IntegratorConfig(step=0.999 * limit,
                                                                             max_time=1.0))
        assert np.isfinite(traj.final_state).all()


# at the guard itself the loop's spectrum reads 0.9536 and 0.9996 (tests/test_tline.py)
@pytest.mark.parametrize("params, gains", [({"C1": 0.01}, {}), ({}, {"K_P": 0.0, "K_I": 100.0})])
def test_a_line_step_at_a_capacitor_row_bound_that_rk4_keeps_is_accepted(params, gains):
    K = [gains.get(k, 1.0) for k in ("K_P", "K_I")]
    limit, row = tline.step_guard(tline.LineParams(**params), 8, *K)
    assert row[0] == "C"
    assert cli.validate(_with(_line_cfg(params, 8, limit), tline={"gains": gains})) == []


@pytest.mark.parametrize("name, growth, rows", [
    ("solve", "2.12734", "problem.objective.Q0"),
    ("solve_eq", "1.382138", "problem.objective.Q0 and problem.equalities.A"),
])
def test_a_solve_step_that_rk4_grows_with_no_inequality_active_exits_2(tmp_path, name, growth,
                                                                      rows):
    # The golden solve at step 1.5 raised the clamp's "undershot zero ... missing
    # guard?" ValueError out of cli.run; h lambda_max(Q) is -3.31 there, past -2.785.
    cfg = _with(CONFIGS[name], integrator={"step": 1.5})
    diags = cli.validate(cfg)
    assert len(diags) == 1 and re.fullmatch(
        r"integrator\.step: 1\.5 is past RK4's stability region with no inequality active "
        rf"\(max \|R\(h lambda\)\| {growth} > 1\), which holds up to step (\S+), set by "
        rf"{rows} over time_constants", diags[0])
    limit = float(re.search(r"up to step (\S+),", diags[0])[1])
    assert cli.validate(_with(cfg, integrator={"step": 0.999 * limit})) == []
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


def test_the_solve_step_bound_is_rk4s_real_limit_over_the_stiffest_rate():
    # no equality: the rates are -eig(Q0) = -2.207, -0.793, so the bound is 2.7853 / 2.207
    q = np.linalg.eigvalsh(np.array(CONFIGS["solve"]["problem"]["objective"]["Q0"]))[-1]
    assert cli.validate(_with(CONFIGS["solve"], integrator={"step": 2.785 / q})) == []
    assert cli.validate(_with(CONFIGS["solve"], integrator={"step": 2.786 / q})) != []


def _solve_with_affine(name, G, **blocks):
    """The golden ``name`` config, or the one-variable ``_tiny_solve_cfg``, with
    affine rows ``G`` and top-level ``blocks`` merged in."""
    cfg = _with(CONFIGS[name] if name in CONFIGS else _tiny_solve_cfg(-1.0), **blocks)
    cfg["problem"]["inequalities"]["affine"]["G"] = G
    return cfg


# Each raised the clamp's "undershot zero ... missing guard?" ValueError out
# of cli.run at step 0.01, where the row's mode has the rates -0.5 +- 1e6 i.
@pytest.mark.parametrize("name, G", [("tiny", [[1e6]]), ("solve", [[1e6, 0.0]])])
def test_a_solve_step_that_rk4_grows_with_one_affine_row_active_exits_2(tmp_path, name, G):
    cfg = _solve_with_affine(name, G)
    diags = cli.validate(cfg)
    assert len(diags) == 1 and re.fullmatch(
        r"integrator\.step: 0\.01 is past RK4's stability region with only row 0 of "
        r"problem\.inequalities\.affine\.G active \(max \|R\(h lambda\)\| 4\.166666e\+14 > 1\), "
        r"which holds up to step (\S+) with any one row active", diags[0])
    limit = float(re.search(r"up to step (\S+) ", diags[0])[1])
    assert cli.validate(_with(cfg, integrator={"step": 0.99 * limit})) == []
    code, payload = cli.run(cfg, tmp_path / "out", strict=True)
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


def _mode_radius(cfg, active, h):
    """Largest ``|eig|`` of RK4's step matrix ``I + hJ + ... + (hJ)^4/24`` over the
    mode of ``cfg`` with the affine rows ``active`` free and every other
    multiplier at 0.  The flow is affine there, so the Jacobian ``J`` of
    :func:`primal_dual.interconnected_rhs` over x, lam and those rows is
    exact column by column."""
    problem, _, tc, _ = cli._read(_with(cfg, integrator={"step": 1e-9}))[0]
    flow = primal_dual.prepare_flow(problem, tc)
    n, m = problem.n, problem.m
    keep = [*range(n + m), *(n + m + i for i in active)]
    z0 = np.zeros(n + m + problem.p)
    z0[keep[n + m:]] = 1.0

    def rate(z):
        return np.concatenate(primal_dual.interconnected_rhs(flow, z))[keep]

    hJ = h * np.column_stack([rate(z0 + e) - rate(z0) for e in np.eye(z0.size)[keep]])
    step = np.eye(len(keep))
    for k in (4, 3, 2, 1):
        step = np.eye(len(keep)) + hJ @ step / k
    return np.max(np.abs(np.linalg.eigvals(step)))


@pytest.mark.parametrize("name, G, blocks, active", [
    ("solve", [[1.0, 1.0]], {}, []),
    ("solve_eq", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], {}, []),
    ("tiny", [[1e6]], {}, [0]),
    ("solve", [[1e6, 0.0]], {}, [0]),
    ("solve", [[20.0, -5.0]], {"time_constants": {"tau_x": [1.0, 2.0], "tau_mu": [0.5, 1.0]}},
     [0]),
])
def test_the_step_limit_is_where_the_modes_dense_spectrum_leaves_rk4s_region(name, G, blocks,
                                                                             active):
    cfg = _solve_with_affine(name, G, **blocks)
    problem, _, tc, _ = cli._read(_with(cfg, integrator={"step": 1e-9}))[0]
    # the reader's rates of the mode, rebuilt here from the problem
    Q = problem.f.hess(np.zeros(problem.n))
    rows = np.vstack([problem.A, problem.ineq.G[active]])
    rates = np.block([[-Q, -rows.T], [rows, np.zeros((len(rows), len(rows)))]])
    rates /= np.concatenate([tc.tau_x, tc.tau_lam, tc.tau_mu[active]])[:, None]
    limit = ode.rk4_limit(np.linalg.eigvals(rates))
    assert _mode_radius(cfg, active, 0.999 * limit) <= 1 + 1e-6
    assert _mode_radius(cfg, active, 1.001 * limit) > 1 + 1e-6
    diags = cli.validate(_with(cfg, integrator={"step": 1.01 * limit}))
    mode = "only row 0 of problem.inequalities.affine.G" if active else "no inequality"
    assert len(diags) == 1 and f"region with {mode} active" in diags[0]
    assert f"holds up to step {limit:.3g}" in diags[0]


def test_a_line_step_within_the_guard_is_accepted_at_every_grid():
    # the default line's guard is its interior wave bound; R0 = 2 is measured stable there
    for M in range(8, 401):
        step = 0.999 * tline.cfl_limit(tline.LineParams(), M)
        assert cli.validate(_line_cfg({}, M, step)) == []
        if M in (50, 200):
            assert cli.validate(_line_cfg({"R0": 2.0}, M, step)) == []


@pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
@pytest.mark.parametrize("kind", ["solve", "svm"])
def test_non_convergence_exits_3_only_under_strict(tmp_path, kind):
    cfg = _with(CONFIGS[kind], integrator={"max_time": 0.05})
    code, payload = cli.run(cfg, tmp_path / "strict", strict=True)
    assert code == 3 and payload["converged"] is False
    code, payload = cli.run(cfg, tmp_path / "lax")
    assert code == 0 and payload["converged"] is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strict", [False, True])
def test_divergence_exits_3_with_or_without_strict(tmp_path, strict):
    # RK4 at step 10 is unstable for this loop; the state overflows.
    code, payload = cli.run(_prlc_cfg(10.0, 1e4), tmp_path, strict=strict)
    assert code == 3
    assert payload["error"].startswith("non-finite state")
    assert json.loads((tmp_path / "summary.json").read_text())["exit_code"] == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hvac_zone_reaching_the_supply_temperature_exits_3(tmp_path):
    # The zones warm from 9.8 onto T_s = 10, where g(x) loses rank and the
    # feedback input blows up within a few steps.
    cfg = {"schema": 1, "kind": "plant",
           "plant": {"name": "hvac", "controller": "dyn_feedback",
                     "initial_state": [9.8, 9.8, 16.0, 16.0],
                     "gains": {"k1": 1.0, "kd": 0.0, "ki": 1.0}, "horizon": 20.0},
           "integrator": {"step": 0.01}}
    code, payload = cli.run(cfg, tmp_path)
    assert code == payload["exit_code"] == cli.EXIT_DIVERGENCE == 3
    assert payload["error"].startswith("non-finite state")
    assert json.loads((tmp_path / "summary.json").read_text())["exit_code"] == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hvac_zone_past_the_square_range_still_exits_3(tmp_path):
    # RK4 at step 5 is unstable for this loop: a zone passes |T - T_s| > 1.3e154,
    # where a Python float's ** 2 raises OverflowError and numpy's gives inf.
    cfg = {"schema": 1, "kind": "plant",
           "plant": {"name": "hvac", "controller": "dyn_feedback",
                     "gains": {"k1": 1.0, "kd": 2.0, "ki": 5.0}, "horizon": 100.0},
           "integrator": {"step": 5.0}}
    code, payload = cli.run(cfg, tmp_path)
    assert code == cli.EXIT_DIVERGENCE == 3
    assert payload["error"].startswith("non-finite state")


def test_rising_lyapunov_function_exits_4_only_under_strict(tmp_path):
    # Step 2 keeps RK4 finite over the horizon but not monotone.
    cfg = _prlc_cfg(2.0, 20.0)
    code, payload = cli.run(cfg, tmp_path / "strict", strict=True)
    assert code == 4 and payload["lyapunov_monotone"] == "FAIL"
    code, payload = cli.run(cfg, tmp_path / "lax")
    assert code == 0 and payload["lyapunov_monotone"] == "FAIL"


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("controller, x0", [("power_shaping", [1e200, 1e200]),
                                            ("krasovskii_pi", [1e300, -1e300])])
def test_an_overflowed_lyapunov_margin_is_written_as_json_null(tmp_path, capsys,
                                                               controller, x0):
    # The Lyapunov values overflow to inf, so the audit's margin is NaN.
    cfg = _prlc_blk_cfg(controller=controller, initial_state=x0, horizon=1.0)
    cfg["integrator"] = {"step": 0.01}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["plant", "--config", str(path), "--out", str(tmp_path), "--strict"]) == 4
    printed = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    saved = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_refuse_constant)
    assert saved["lyapunov_monotone"] == "FAIL" and saved["min_margin"] is None
    assert printed == {k: v for k, v in saved.items() if k != "config"}
    assert cli.run(cfg, tmp_path, strict=True) == (4, saved)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowed_lyapunov_value_fails_the_line_audit(tmp_path):
    # A stable run at the step guard whose functional overflows: at
    # vC1* = 1e154 the target profile's terms square past the float range, so
    # the functional is inf from rest through t = 1.008, until the state nears
    # the profile, while the state stays finite.  The audit's slack scales
    # with the finite values only, so the first inf is its worst margin.
    cfg = {"schema": 1, "kind": "tline",
           "tline": {"grid": 50, "horizon": 2.0, "target_vc1": 1e154},
           "integrator": {"step": tline.cfl_limit(tline.LineParams(), 50)}}
    code, payload = cli.run(cfg, tmp_path, strict=True)
    assert code == cli.EXIT_AUDIT and payload["lyapunov_monotone"] == "FAIL"
    assert np.isfinite(payload["final_vC1"])
    assert np.isfinite(np.loadtxt(tmp_path / "spacetime.csv", delimiter=",", skiprows=1)).all()
    t, V = np.loadtxt(tmp_path / "lyapunov.csv", delimiter=",", skiprows=1).T
    assert not np.isfinite(V[0]) and np.isfinite(V[-1])
    assert payload["worst_time"] == t[~np.isfinite(V)][0]


def test_q0_near_the_float_range_is_symmetrized_without_overflow(tmp_path):
    # Q0 is halved before it is symmetrized, so 1e308 + 1e308 never forms.
    cfg = _with(_full_configs("x")["solve"],
                problem={"objective": {"Q0": [[1e308, 0.0], [0.0, 1.0]], "c": [-2.0, -1.0]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diags = cli.validate(cfg)
    # no Q0 diagnostic: the rate -1e308 leaves RK4's region at any step above 2.785e-308
    assert diags == ["integrator.step: 0.01 is past RK4's stability region with no inequality "
                     "active (max |R(h lambda)| inf > 1), which holds up to step 2.79e-308, "
                     "set by problem.objective.Q0 and problem.equalities.A over time_constants"]
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags


def test_rising_storage_trace_exits_4_only_under_strict(tmp_path):
    cfg = _audit_cfg(tmp_path, [1.0, 0.5, 2.0])
    code, payload = cli.run(cfg, tmp_path / "strict", strict=True)
    assert code == 4 and payload["verdict"] == "FAIL"
    assert payload["min_margin"] == -1.5 and payload["worst_time"] == 2.0
    code, _ = cli.run(cfg, tmp_path / "lax")
    assert code == 0


@pytest.mark.parametrize("G, certificate", [(0.5, "unavailable"), (2.0, None)])
def test_summary_says_when_the_shaped_pair_certificate_is_unavailable(tmp_path, G, certificate):
    # G^2 L < C at G = 0.5: the loop warns, and the summary says so beside the
    # audit, which then fails; a certified run writes no certificate key.
    cfg = _prlc_blk_cfg(params={"R": 1.0, "G": G, "L": 1.0, "C": 1.0}, gains={"K": 1.0},
                        horizon=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, payload = cli.run(cfg, tmp_path)
    assert code == 0
    assert [w.category for w in caught] == [plants.CertificateUnavailable] * bool(certificate)
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved.get("certificate") == payload.get("certificate") == certificate
    assert saved["lyapunov_monotone"] == ("FAIL" if certificate else "PASS")


def test_validate_subcommand_prints_each_config_verdict(tmp_path, capsys):
    paths = []
    for name, cfg in (("good", _tiny_solve_cfg(-1.0)), ("typo", _svm_cfg(stpe=0.01)),
                      ("list", [1, 2])):
        paths += ["--config", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    assert cli.main(["validate", *paths[:2]]) == cli.EXIT_OK
    assert capsys.readouterr().out == "config[0]: ok\n"
    assert cli.main(["validate", *paths]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "config[0]: ok\n"
    assert err == ("config[1]: integrator.stpe: unknown; expected one of step, max_time, "
                   "event_tol, convergence_tol, convergence_window, record_every\n"
                   "config[2]: config: must be a JSON object\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, text, error", [("bad", "{not json", "JSONDecodeError"),
                                               ("missing", None, "FileNotFoundError")])
def test_a_config_file_that_cannot_be_read_is_a_diagnostic(tmp_path, capsys, command, name,
                                                            text, error):
    good, bad = tmp_path / "good.json", tmp_path / f"{name}.json"
    good.write_text(json.dumps(_tiny_solve_cfg(-1.0)))
    if text is not None:
        bad.write_text(text)
    argv = [command, "--config", str(bad), "--config", str(good)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    expected = f"config: cannot read {bad} ({error}: "
    if command == "validate":
        assert err.startswith(f"config[0]: {expected}") and err.count("\n") == 1
        assert out == "config[1]: ok\n"
    else:
        first, second = map(json.loads, out.splitlines())
        assert len(first["validation_errors"]) == 1
        assert first["validation_errors"][0].startswith(expected)
        assert second["exit_code"] == cli.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["good"]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_run_and_validate_need_a_config(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--out", "out"], ["--strict"], ["--jobs", "3"],
                                   ["--strict", "--out", "/proc/nope", "--jobs", "3"]])
def test_validate_refuses_the_flags_of_a_run(tmp_path, capsys, flags):
    # validate reads only --config and --seed; it used to accept these and exit 0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_tiny_solve_cfg(-1.0)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--config", str(path), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: unrecognized arguments: {' '.join(flags)}")


# (flags, the field of its kind that a run from these flags alone misses)
_FLAGS_ALONE = {"solve": ([], "problem"), "svm": (["--n", "5"], None),
                "plant": ([], "plant.name"), "tline": ([], "tline.target_vc1"),
                "audit": ([], "audit.trace_csv")}


@pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
@pytest.mark.parametrize("kind", list(cli.KINDS))
def test_every_kind_subcommand_runs_from_its_flags_or_names_what_is_missing(tmp_path, capsys,
                                                                            kind):
    flags, missing = _FLAGS_ALONE[kind]
    out = tmp_path / "out"
    code = cli.main([kind, *flags, "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    if missing is None:
        assert code == summary["exit_code"] == 0
        assert (out / "summary.json").is_file()
    else:
        assert code == cli.EXIT_VALIDATION
        [diag] = summary["validation_errors"]
        assert diag.startswith(f"{missing}: missing"), diag
        assert not out.exists()


@pytest.mark.parametrize("blk, diag", [
    ({}, "plant.name: missing; expected one of parallel_rlc, hvac"),
    ({"name": "hvac"}, "plant.controller: missing; expected one of power_shaping, dyn_feedback"),
    ({"name": "parallel_rlc"},
     "plant.controller: missing; expected one of power_shaping, krasovskii_pi"),
])
def test_a_missing_plant_or_controller_names_the_choices(tmp_path, blk, diag):
    code, payload = cli.run({"schema": 1, "kind": "plant", "plant": blk}, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == [diag]
    assert not (tmp_path / "out").exists()


def test_a_line_config_without_a_target_exits_2(tmp_path, capsys):
    # At vC1* = 0 the loop would start at its own equilibrium and write zeros.
    cfg = {"schema": 1, "kind": "tline", "tline": {"grid": 16, "horizon": 1.0}}
    diag = "tline.target_vc1: missing; the load voltage to hold (--target)"
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == [diag]
    assert not (tmp_path / "out").exists()
    assert cli.main(["tline", "--grid", "16", "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["validation_errors"] == [diag]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, echo", [
    (["svm"], {}),
    (["svm", "--n", "5"], {"svm": {"n_per_class": 5}}),
    (["plant", "--plant", "hvac", "--horizon", "1"],
     {"plant": {"name": "hvac", "horizon": 1.0}}),
    (["tline", "--target", "1"], {"tline": {"target_vc1": 1.0}}),
])
def test_a_run_from_flags_alone_holds_only_its_kind_and_the_flags_given(monkeypatch, argv,
                                                                        echo):
    # summary.json echoes the config that run receives, and the integrator
    # block of the run: so `passiflow svm` echoes no empty svm block.
    ran = []
    monkeypatch.setattr(cli, "run", lambda cfg, out, strict: ran.append(cfg) or (0, {}))
    assert cli.main(argv) == 0
    assert ran == [{"schema": 1, "kind": argv[0], **echo}]


@pytest.mark.parametrize("command", ["svm", "tline", "audit"])
def test_a_kind_subcommand_refuses_a_config_of_another_kind(tmp_path, capsys, monkeypatch,
                                                            command):
    monkeypatch.chdir(tmp_path)
    Path("plant.json").write_text(json.dumps(CONFIGS["plant"]))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", "plant.json", "--out", "out"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: kind: plant.json has kind 'plant', and the {command} subcommand takes "
        f"only {command!r}; run takes any kind")
    assert not Path("out").exists()
    assert cli.main(["run", "--config", "plant.json", "--out", "out"]) == 0


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_1_exit_2(tmp_path, capsys, jobs):
    argv = _two_configs_argv(tmp_path) + ["--out", str(tmp_path / "out"), "--jobs", jobs]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: --jobs: must be >= 1")
    assert not (tmp_path / "out").exists()


# -- subcommand flags fold into the config --------------------------------------

def _csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


@pytest.mark.parametrize("command, flags, base, full", [
    ("svm", ["--n", "5"],
     {"svm": {"seed": 1}, "integrator": CONFIGS["svm"]["integrator"]},
     CONFIGS["svm"]),
    ("plant", ["--plant", "hvac", "--controller", "dyn_feedback", "--horizon", "2"],
     {"plant": {"gains": CONFIGS["plant"]["plant"]["gains"]},
      "integrator": CONFIGS["plant"]["integrator"]},
     CONFIGS["plant"]),
    ("plant", ["--plant", "hvac", "--controller", "power_shaping", "--horizon", "1"],
     None, {"schema": 1, "kind": "plant",
            "plant": {"name": "hvac", "controller": "power_shaping", "horizon": 1.0}}),
    ("tline", ["--grid", "16", "--target", "1", "--horizon", "1"],
     None, {"schema": 1, "kind": "tline",
            "tline": {"grid": 16, "horizon": 1.0, "target_vc1": 1.0}}),
])
def test_subcommand_flags_write_what_the_full_config_writes(tmp_path, command, flags,
                                                            base, full):
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps(full))
    assert cli.main(["run", "--config", str(full_path), "--out", str(tmp_path / "run")]) == 0
    argv = [command, *flags, "--out", str(tmp_path / command)]
    if base is not None:
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps({"schema": 1, **base}))
        argv += ["--config", str(base_path)]
    assert cli.main(argv) == 0
    written = _csv_bytes(tmp_path / command)
    assert written and written == _csv_bytes(tmp_path / "run")
    if base is None:        # beside the integrator block it ran with, only the flags given
        echo = json.loads((tmp_path / command / "summary.json").read_text())["config"]
        assert {key: value for key, value in echo.items() if key != "integrator"} == full


# -- malformed configs get diagnostics ------------------------------------------

def _hvac_cfg(**blk):
    return {"schema": 1, "kind": "plant",
            "plant": {"name": "hvac", "controller": "power_shaping", "horizon": 0.1, **blk}}


def _prlc_blk_cfg(**blk):
    return {"schema": 1, "kind": "plant",
            "plant": {"name": "parallel_rlc", "controller": "power_shaping",
                      "horizon": 0.1, **blk}}


def _ball_cfg(**entry):
    cfg = _tiny_solve_cfg(-1.0)
    cfg["problem"]["inequalities"]["named"] = [{"name": "ball", **entry}]
    return cfg


@pytest.mark.parametrize("cfg, field", [
    (_with(_tiny_solve_cfg(-1.0), time_constants={"tau_x": [0]}), "time_constants.tau_x"),
    (_with(_tiny_solve_cfg(-1.0), time_constants={"tau_mu": [1.0, 1.0]}),
     "time_constants.tau_mu"),
    (_with(_tiny_solve_cfg(-1.0), init={"mu": [-1]}), "init.mu"),
    (_with(_tiny_solve_cfg(-1.0), init={"x": [0.0, 0.0]}), "init.x"),
    (_prlc_blk_cfg(initial_state=[0.0, 0.0, 0.0]), "plant.initial_state"),
    (_hvac_cfg(targets={"T1": 10.0}), "plant.targets.T1"),
    (_hvac_cfg(controller="dyn_feedback", initial_state=[10.0, 5.0, 16.0, 16.0]),
     "plant.initial_state"),
    ({"schema": 1, "kind": "audit", "audit": {"trace_csv": "no/such/trace.csv"}},
     "audit.trace_csv"),
    ({"schema": 1, "kind": "svm", "svm": {"seed": -1}}, "svm.seed"),
    ({"schema": 1, "kind": "svm", "svm": {"seed": "abc"}}, "svm.seed"),
    (_prlc_blk_cfg(params={"X": 1.0}), "plant.params.X"),
    (_prlc_blk_cfg(gains={"K_P": 1.0}), "plant.gains.K_P"),
    (_hvac_cfg(params={"R": 1.0}), "plant.params.R"),
    (_ball_cfg(), "problem.inequalities.named[0].params.radius"),
    (_ball_cfg(params={"radius": 1.0, "center": [0.0, 0.0]}),
     "problem.inequalities.named[0].params.center"),
    ({"schema": 1, "kind": "svm", "svm": {"mean_a": "abc"}}, "svm.mean_a"),
    ({"schema": 1, "kind": "svm", "svm": {"mean_b": [0, 0, 0]}}, "svm.mean_b"),
    ({"schema": 1, "kind": "svm", "svm": {"sv_tol": "abc"}}, "svm.sv_tol"),
    ({"schema": 1, "kind": "svm", "svm": {"cov": [[1.0, 1.5], [1.5 + 1e-10, 3.0]]}},
     "svm.cov"),
    ({"schema": 1, "kind": "tline", "tline": {"target_vc1": "x"}}, "tline.target_vc1"),
    ({"schema": 1, "kind": "tline", "tline": {"target_vc1": 1.0, "params": {"R": 0}}},
     "tline.params.R"),
    ({"schema": 1, "kind": "tline", "tline": {"params": {"R": 0}}}, "tline.params.R"),
    ({"schema": 1, "kind": "tline", "tline": {"gains": {"K_P": 1.0}, "params": {"G": 0}}},
     "tline.params.G"),
    (_hvac_cfg(controller="dyn_feedback", initial_input=["a", "b"]), "plant.initial_input"),
    (_hvac_cfg(controller="dyn_feedback", initial_input=[float("nan"), 0.0]),
     "plant.initial_input"),
    (_hvac_cfg(params={"T_inf": "x"}), "plant.params.T_inf"),
    (_hvac_cfg(params={"T_s": "x"}), "plant.params.T_s"),
    (_prlc_blk_cfg(horizn=1.0), "plant.horizn"),
    ({"schema": 1, "kind": "svm", "svm": {"n_per_clas": 5}}, "svm.n_per_clas"),
    ({"schema": 1, "kind": "tline", "tline": {"target_vc": 1.0}}, "tline.target_vc"),
    ({"schema": 1, "kind": "solve", "problem": {**_tiny_solve_cfg(-1.0)["problem"],
                                                "inequalites": {}}},
     "problem.inequalites"),
    ({**_tiny_solve_cfg(-1.0), "integrater": {"step": 0.01}}, "integrater"),
    ({"schema": 1, "kind": "svm", "seed": 3}, "seed"),
    ({"schema": 1, "kind": "solve", "problem": {"objective": {"Q0": [[1.0]]},
                                                "equalities": {"A": [[1.0]], "b": [[1.0]]}}},
     "problem.equalities.b"),
    (_with(_tiny_solve_cfg(-1.0), problem={"inequalities": {"affine": {"G": [[1.0]],
                                                                       "h": [[0.5]]}}}),
     "problem.inequalities.affine.h"),
    ({**_prlc_blk_cfg(), "integrator": {"max_time": 0.5}}, "integrator.max_time"),
    ({"schema": 1, "kind": "tline", "integrator": {"max_time": 0.5}}, "integrator.max_time"),
    ({"schema": 1, "kind": "svm", "svm": {"seed": 2 ** 128}}, "svm.seed"),
    (_prlc_blk_cfg(horizon=float("inf")), "plant.horizon"),
    (_hvac_cfg(params={"T_inf": float("nan")}), "plant.params.T_inf"),
    ({"schema": 1, "kind": "tline", "tline": {"params": {"L": float("inf")}}}, "tline.params.L"),
])
def test_malformed_config_is_a_diagnostic_not_a_traceback(tmp_path, cfg, field):
    code, payload = cli.run(cfg, tmp_path)
    assert code == cli.EXIT_VALIDATION
    assert [d for d in payload["validation_errors"] if d.startswith(field + ":")], payload


def _blocks():
    """(config, keys): each block of a config, and the keys that reach it
    from the top level.  Each config validates, the audit's once its
    ``trace_csv`` names a trace."""
    solve = {**_tiny_solve_cfg(-1.0), "init": {}, "time_constants": {}}
    solve["problem"]["equalities"] = {"A": [[1.0]], "b": [0.0]}
    solve["problem"]["inequalities"]["named"] = [{"name": "ball", "params": {"radius": 1.0}}]
    plant = _hvac_cfg(params={}, gains={}, targets={})
    line = {"schema": 1, "kind": "tline",
            "tline": {"grid": 8, "params": {}, "gains": {}, "target_vc1": 1.0}}
    ineq = ("problem", "inequalities")
    cases = [(solve, keys) for keys in (
        ("integrator",), ("problem",), ("problem", "objective"), ("problem", "equalities"),
        ineq, (*ineq, "affine"), (*ineq, "named"), (*ineq, "named", 0),
        (*ineq, "named", 0, "params"), ("init",), ("time_constants",))]
    cases += [(_svm_cfg({}), ("svm",)), (plant, ("plant",)), (line, ("tline",)),
              ({"schema": 1, "kind": "audit", "audit": {}}, ("audit",))]
    cases += [(plant, ("plant", key)) for key in ("params", "gains", "targets")]
    cases += [(line, ("tline", key)) for key in ("params", "gains")]
    return cases


def _block_path(keys):
    """How diagnostics name the block that ``keys`` reach."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _block_cases():
    """(config, path) with the block at ``path`` replaced by a non-object."""
    for cfg, keys in _blocks():
        path = _block_path(keys)
        values = ("ball", 5, {"name": "ball"}) if keys[-1] == "named" else ([1, 2], "ball", 5)
        for value in values:
            cfg = json.loads(json.dumps(cfg))
            functools.reduce(operator.getitem, keys[:-1], cfg)[keys[-1]] = value
            yield pytest.param(cfg, path, id=f"{path}={value!r}")


@pytest.mark.parametrize("cfg, path", _block_cases())
def test_a_block_that_is_not_an_object_gets_one_diagnostic_naming_it(tmp_path, cfg, path):
    # Not read element by element ("integrator.1: unknown"), nor a string
    # one character at a time, nor raised inside the reader ("config:
    # malformed field (AttributeError ...)").
    diags = cli.validate(cfg)
    kind = "a list" if path.endswith("named") else "a JSON object"
    assert diags.count(f"{path}: must be {kind}") == 1, diags
    assert not [d for d in diags if d.startswith("config:")], diags
    assert not [d for d in diags if re.match(re.escape(path) + r"(\.\d|\[)", d)], diags
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, keys", [pytest.param(cfg, keys, id=_block_path(keys))
                                       for cfg, keys in _blocks() if keys[-1] != "named"])
def test_an_unknown_key_in_any_block_gets_one_diagnostic_naming_it(tmp_path, cfg, keys):
    # ``named`` is a list, so it has no keys
    cfg = json.loads(json.dumps(cfg))
    if cfg["kind"] == "audit":
        (tmp_path / "trace.csv").write_text("t,storage\n0,2\n1,1\n")
        cfg["audit"]["trace_csv"] = str(tmp_path / "trace.csv")
    functools.reduce(operator.getitem, keys, cfg)["bogus"] = 1.0
    diags = cli.validate(cfg)
    assert len(diags) == 1, diags
    assert diags[0].startswith(f"{_block_path(keys)}.bogus: unknown; expected one of "), diags
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [
    _prlc_blk_cfg(initial_input=[5.0, 7.0, 9.0]),
    _prlc_blk_cfg(controller="krasovskii_pi", initial_input=[5.0, 7.0, 9.0]),
    _hvac_cfg(initial_input=[5.0, 7.0, 9.0]),
    _hvac_cfg(initial_input="abc"),
], ids=["parallel_rlc/power_shaping", "parallel_rlc/krasovskii_pi", "hvac/power_shaping",
        "hvac/power_shaping/string"])
def test_initial_input_is_unused_without_an_input_state(tmp_path, cfg):
    diags = cli.validate(cfg)
    assert diags == ["plant.initial_input: unused; "
                     "only the dyn_feedback controller has an input state"]
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["plant", "tline"])
@pytest.mark.parametrize("key, value", [("max_time", 0.5), ("event_tol", 0.5),
                                        ("convergence_tol", 123), ("convergence_window", 7)])
def test_a_plant_or_line_refuses_the_integrator_settings_it_never_reads(tmp_path, kind,
                                                                       key, value):
    # It has no events and ends at its horizon: each of these would change no
    # artifact byte, only the integrator block that summary.json echoes.
    cfg = _with(CONFIGS[kind], integrator={key: value})
    diags = cli.validate(cfg)
    assert len(diags) == 1 and diags[0].startswith(f"integrator.{key}: unused; "), diags
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("integrator", [{}, {"step": 0.01},
                                        dataclasses.asdict(ode.IntegratorConfig())],
                         ids=["empty", "step", "full"])
def test_an_audit_refuses_an_integrator_block(tmp_path, integrator):
    cfg = {**_audit_cfg(tmp_path, [2.0, 1.0, 0.5]), "integrator": integrator}
    diags = cli.validate(cfg)
    assert diags == ["integrator: unused; an audit integrates nothing"]
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


# (config with a non-string in a name field, its diagnostic, the diagnostic of
# a check that runs after it)
@pytest.mark.parametrize("cfg, diag, later", [
    ({"schema": 1, "kind": ["solve"], "integrator": {"stpe": 1}},
     "kind: must be one of solve/svm/plant/tline/audit, got ['solve']",
     "integrator.stpe: unknown; expected one of step, max_time, event_tol, "
     "convergence_tol, convergence_window, record_every"),
    (_hvac_cfg(name=["hvac"], horizon=-1.0), "plant.name: unknown plant ['hvac']",
     "plant.horizon: must be a number > 0"),
    (_hvac_cfg(controller={"a": 1}, initial_state=[1.0]),
     "plant.controller: {'a': 1} not available for hvac",
     "plant.initial_state: must have 4 finite entries"),
    (_with(_ball_cfg(), problem={"inequalities": {"named": [{"name": ["ball"]}]}},
           init={"x": [0.0, 0.0]}),
     "problem.inequalities.named[0].name: unknown name ['ball']",
     "init.x: must have 1 finite entries"),
    ({"schema": 1, "kind": "audit", "audit": {"trace_csv": 5, "audit_tol": -1.0}},
     "audit.trace_csv: must be a path, got 5",
     "audit.audit_tol: must be a number > 0"),
], ids=["kind", "plant.name", "plant.controller", "named.name", "audit.trace_csv"])
def test_a_non_string_name_field_gets_a_diagnostic_naming_it(tmp_path, cfg, diag, later):
    diags = cli.validate(cfg)
    assert diags == [diag, later]
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION and payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, block", [(["svm", "--seed", "3"], "svm"),
                                         (["plant", "--horizon", "1"], "plant")])
def test_flags_leave_a_block_that_is_not_an_object_to_its_diagnostic(tmp_path, capsys,
                                                                     argv, block):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "kind": block, block: [1]}))
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["validation_errors"][0] == \
        f"{block}: must be a JSON object"


@pytest.mark.parametrize("cfg, field", [
    # cosh(sqrt(RG)) overflows in the equilibrium profile
    ({"schema": 1, "kind": "tline",
      "tline": {"grid": 8, "params": {"R": 1000, "G": 1000}, "target_vc1": 1.0}},
     "tline.target_vc1"),
    # (1 + tau)^2 overflows in the certificate search
    ({"schema": 1, "kind": "tline",
      "tline": {"grid": 8, "params": {"G": 1e-300}, "target_vc1": 1.0}}, "tline.params"),
    ({"schema": 1, "kind": "tline", "tline": {"grid": 8, "target_vc1": 1e308}},
     "tline.target_vc1"),
    (_ball_cfg(params={"radius": 1e200}), "problem.inequalities.named[0].params.radius"),
    # plants.dyn_feedback_control refuses ki = 0
    (_hvac_cfg(controller="dyn_feedback", gains={"k1": 1.0, "kd": 2.0, "ki": 0.0},
               horizon=60.0), "plant.gains.ki"),
    # tau = RC/(LG) underflows to 0, and with it the certificate's multiplier ratio
    ({"schema": 1, "kind": "tline",
      "tline": {"grid": 8, "params": {"R": 1e-200, "G": 1e200}, "target_vc1": 1.0}},
     "tline.params"),
])
def test_inputs_the_library_refuses_are_diagnostics_not_tracebacks(tmp_path, cfg, field):
    diags = cli.validate(cfg)
    assert [d for d in diags if d.startswith(field + ":")], diags
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    assert payload["validation_errors"] == diags
    assert not (tmp_path / "out").exists()


def _full_configs(trace_csv):
    """One config per kind (two plants) with every optional field it reads set;
    a plant or a line reads only the step and the sampling of the integrator
    block, and an audit reads none."""
    integrator = {"step": 0.01, "record_every": 2}
    flow = {**integrator, "event_tol": 1e-10, "convergence_tol": 1e-6, "convergence_window": 5,
            "max_time": 1.0}
    return {
        "solve": {
            "schema": 1, "kind": "solve",
            "problem": {
                "objective": {"Q0": [[2.0, 0.5], [0.5, 1.0]], "c": [-2.0, -1.0]},
                "equalities": {"A": [[1.0, -1.0]], "b": [0.0]},
                "inequalities": {
                    "affine": {"G": [[1.0, 1.0]], "h": [0.5]},
                    "named": [{"name": "ball", "params": {"center": [0.0, 0.0], "radius": 0.6}}],
                },
            },
            "init": {"x": [0.1, 0.2], "lam": [0.0], "mu": [0.0, 0.5]},
            "time_constants": {"tau_x": [1.0, 2.0], "tau_lam": [1.0], "tau_mu": [1.0, 0.5]},
            "integrator": flow,
        },
        "svm": {
            "schema": 1, "kind": "svm",
            "svm": {"n_per_class": 5, "seed": 1, "mean_a": [0.0, 0.0], "mean_b": [0.0, 6.0],
                    "cov": [[1.0, 1.5], [1.5, 3.0]], "sv_tol": 1e-6},
            "integrator": flow,
        },
        "parallel_rlc": {
            "schema": 1, "kind": "plant",
            "plant": {"name": "parallel_rlc", "controller": "krasovskii_pi",
                      "params": {"R": 1.0, "G": 0.5, "L": 1.0, "C": 1.0},
                      "gains": {"K_P": 1.0, "K_I": 1.0}, "targets": {"v_star": 1.0},
                      "initial_state": [0.5, -0.5], "horizon": 0.1},
            "integrator": integrator,
        },
        "hvac": {
            "schema": 1, "kind": "plant",
            "plant": {"name": "hvac", "controller": "dyn_feedback",
                      "params": dataclasses.asdict(plants.HvacParams()),
                      "gains": {"k1": 1.0, "kd": 2.0, "ki": 5.0},
                      "targets": {"T1": 2.5, "T2": 6.0},
                      "initial_state": [4.0, 5.0, 16.0, 16.0], "initial_input": [0.1, 0.2],
                      "horizon": 0.1},
            "integrator": integrator,
        },
        "tline": {
            "schema": 1, "kind": "tline",
            "tline": {"params": dataclasses.asdict(tline.LineParams()), "grid": 16,
                      "horizon": 0.1, "target_vc1": 1.0, "gains": {"K_P": 1.0, "K_I": 1.0}},
            "integrator": integrator,
        },
        "audit": {"schema": 1, "kind": "audit",
                  "audit": {"trace_csv": trace_csv, "audit_tol": 1e-9}},
    }


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _leaf_paths(child, path + (k,))
    else:
        yield path


def _diagnostic_path(path):
    """How diagnostics name a leaf: ``problem.inequalities.named[0].params.center``
    for ``("problem", "inequalities", "named", 0, "params", "center", 1)``."""
    while isinstance(path[-1], int):
        path = path[:-1]
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@pytest.mark.parametrize("name", ["solve", "svm", "parallel_rlc", "hvac", "tline", "audit"])
def test_every_leaf_replaced_by_a_string_is_a_diagnostic(tmp_path, monkeypatch, name):
    # ... or by an empty list, an empty object or an integer past the float
    # range, and every numeric leaf replaced by NaN, inf, -inf, true, false
    # or the string "1".
    monkeypatch.chdir(tmp_path)                 # so that the trace path "x" names no file
    trace = tmp_path / "trace.csv"
    trace.write_text("t,storage\n0,2\n1,1\n")
    cfg = _full_configs(str(trace))[name]
    assert cli.validate(cfg) == []
    escaped = []
    for path in _leaf_paths(cfg):
        leaf = functools.reduce(operator.getitem, path, cfg)
        numeric = isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
        for bad in ("x", [], {}, 10 ** 400,
                    *((np.nan, np.inf, -np.inf, True, False, "1") if numeric else ())):
            mutant = json.loads(json.dumps(cfg))
            functools.reduce(operator.getitem, path[:-1], mutant)[path[-1]] = bad
            try:
                code, payload = cli.run(mutant, tmp_path / "out")
            except Exception as exc:            # noqa: BLE001 -- what escapes is the finding
                code, payload = f"{type(exc).__name__}: {exc}", {}
            # each replacement's diagnostic names its leaf, up to a list index,
            # and none is the catch-all "config: malformed field"
            diags = payload.get("validation_errors", [])
            named = any(d.startswith(_diagnostic_path(path) + ":") for d in diags)
            if (code != cli.EXIT_VALIDATION or not named
                    or any(d.startswith("config:") for d in diags)):
                escaped.append((path, bad, code))
    assert escaped == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header, missing", [
    ("time,value", ["t", "storage or V"]),
    ("t,supply", ["storage or V"]),
])
def test_audit_trace_without_its_columns_is_a_diagnostic(tmp_path, header, missing):
    trace = tmp_path / "trace.csv"
    trace.write_text(header + "\n0,1\n1,0.5\n")
    cfg = {"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}}
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    for column in missing:
        assert [d for d in payload["validation_errors"]
                if d.startswith(f"audit.trace_csv: no column {column} in ")], payload


@pytest.mark.filterwarnings("error::UserWarning")        # the diagnostic alone
@pytest.mark.parametrize("body, code", [("0,1\n", 0), ("", 2), ("\r\n", 2), ("0,1,2\n1,0,0\n", 2),
                                        ("0,1\n1,abc\n", 2), ("0,1\n1,0.5,0\n", 2)])
def test_audit_trace_needs_one_full_row_per_sample(tmp_path, body, code):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,storage\n" + body)
    cfg = {"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}}
    got, payload = cli.run(cfg, tmp_path / "out")
    assert got == code
    if code == 0:
        assert payload["verdict"] == "PASS"
    else:
        assert payload["validation_errors"] == [
            "audit.trace_csv: needs rows of 2 numbers under its header"]


@pytest.mark.filterwarnings("error::UserWarning")
def test_empty_audit_trace_is_a_diagnostic(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("")
    cfg = {"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}}
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    assert "audit.trace_csv: needs rows of 1 numbers under its header" in payload["validation_errors"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("t,storage,supply\n0,1,0.5\n1,0.5,0.7\n", "supply must start at 0"),
    ("t,V\n0,1\n1,nan\n", "every cell must be finite"),
    ("t,storage\n1,1\nnan,0.5\n", "every cell must be finite"),
    ("t,storage\n0,1\n0,0.5\n", "t must be strictly increasing"),
    ("t,storage\n0,1\n2,0.5\n1,0.2\n", "t must be strictly increasing"),
])
def test_malformed_audit_trace_is_a_diagnostic(tmp_path, text, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    cfg = {"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}}
    code, payload = cli.run(cfg, tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    assert f"audit.trace_csv: {message}" in payload["validation_errors"], payload
    assert not (tmp_path / "out").exists()


# -- main ----------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
def test_seed_flag_is_echoed_in_the_config(tmp_path):
    path = tmp_path / "svm.json"
    path.write_text(json.dumps(CONFIGS["svm"]))        # svm.seed is 1
    assert cli.main(["run", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 0
    saved = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert saved["seed"] == 3
    assert saved["config"]["svm"]["seed"] == 3


@pytest.mark.parametrize("argv", [["run", "--config", "plant.json"],
                                  ["plant", "--config", "plant.json"],
                                  ["validate", "--config", "plant.json"],
                                  ["run", "--config", "plant.json", "--config", "audit.json"],
                                  ["tline"]],
                         ids=["run", "plant", "validate", "run-two", "tline-no-config"])
def test_seed_without_an_svm_config_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("plant.json").write_text(json.dumps(CONFIGS["plant"]))
    Path("audit.json").write_text(json.dumps(_audit_cfg(tmp_path, [2.0, 1.0])))
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "3", *(["--out", "out"] if argv[0] != "validate" else [])])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].endswith(
        "error: --seed: unused; it sets svm.seed, and no config is an svm config"), errors
    assert not Path("out").exists()


@pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
def test_seed_sets_the_svm_config_among_others(tmp_path):
    paths = []
    for name in ("svm", "plant"):
        paths += ["--config", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(CONFIGS[name]))
    assert cli.main(["run", *paths, "--seed", "3", "--out", str(tmp_path / "out")]) == 0
    svm_summary = json.loads((tmp_path / "out" / "svm" / "summary.json").read_text())
    plant_summary = json.loads((tmp_path / "out" / "plant" / "summary.json").read_text())
    assert svm_summary["seed"] == 3
    assert plant_summary["config"]["plant"] == CONFIGS["plant"]["plant"]


@pytest.mark.filterwarnings("ignore:SVM flow stopped unconverged")
@pytest.mark.parametrize("cfg", [
    {"schema": 1, "kind": "svm", "svm": {"seed": 1, "n_per_class": 5}},
    # A partial block is applied over svm.DEFAULT_INTEGRATOR, not over the
    # generic defaults (step 1e-3, convergence_tol 1e-6, record_every 1).
    {"kind": "svm", "svm": {"n_per_class": 5}, "integrator": {"max_time": 50.0}},
    # A plant's or a line's horizon is the max_time it runs with.
    CONFIGS["plant"], CONFIGS["tline"],
], ids=["no_block", "partial_block", "plant", "tline"])
def test_svm_integrator_echoes_the_settings_it_ran_with(tmp_path, monkeypatch, cfg):
    ran = []
    for module in (cli, primal_dual, tline):    # each calls integrate by its own name
        def recording(rhs, y0, icfg, *args, real=module.integrate, **kwargs):
            ran.append(icfg)
            return real(rhs, y0, icfg, *args, **kwargs)
        monkeypatch.setattr(module, "integrate", recording)
    code, payload = cli.run(cfg, tmp_path)
    assert code == 0
    assert [dataclasses.asdict(icfg) for icfg in ran] == [payload["config"]["integrator"]]
    kind = cfg["kind"]
    if kind == "svm":
        assert ran == [dataclasses.replace(svm.DEFAULT_INTEGRATOR, **cfg.get("integrator", {}))]
    else:
        csv = "trajectory.csv" if kind == "plant" else "spacetime.csv"
        last = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=1)[-1, 0]
        assert ran[0].max_time == cfg[kind]["horizon"] == last


def test_svm_summary_reports_its_storage_and_switch_audits(tmp_path):
    code, payload = cli.run(CONFIGS["svm"], tmp_path)
    assert code == 0
    rows = np.loadtxt(tmp_path / "beta_trajectory.csv", delimiter=",", skiprows=1)
    assert payload["iterations"] == len(rows)
    assert payload["verdict"] == payload["switch_audit"]["verdict"] == "PASS"
    assert payload["min_margin"] >= 0.0 and 0.0 <= payload["worst_time"] <= rows[-1, 0]
    assert payload["switch_audit"]["n_events"] == payload["switch_count"] == 16


@pytest.mark.parametrize("kind", ["solve", "svm"])
def test_failed_switch_audit_exits_4_only_under_strict(tmp_path, monkeypatch, kind):
    real = primal_dual.storage_switch_audit
    monkeypatch.setattr(primal_dual, "storage_switch_audit",
                        lambda trace: {**real(trace), "verdict": "FAIL"})
    code, payload = cli.run(CONFIGS[kind], tmp_path / "strict", strict=True)
    assert code == cli.EXIT_AUDIT and payload["switch_audit"]["verdict"] == "FAIL"
    assert payload["verdict"] == "PASS" and payload["converged"] is True
    code, _ = cli.run(CONFIGS[kind], tmp_path / "lax")
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("kind", ["plant", "tline"])
def test_lyapunov_report_is_the_audit_of_lyapunov_csv(tmp_path, kind):
    code, payload = cli.run(CONFIGS[kind], tmp_path)
    assert code == 0
    t, V = np.loadtxt(tmp_path / "lyapunov.csv", delimiter=",", skiprows=1).T
    audit = lyapunov_audit(t, V)
    assert payload["lyapunov_monotone"] == audit.pop("verdict")
    assert {key: payload[key] for key in ("min_margin", "worst_time")} == audit


@pytest.mark.parametrize("events", [
    pytest.param([], id="header-only"),
    pytest.param([(0.5, "g0"), (1.25, "g12"), (-0.0, "g3"), (5e-324, "g1"),
                  (1.7976931348623157e308, "g4"), (np.float64(2.0 / 3.0), "m12")], id="float-str"),
])
def test_write_events_is_the_text_writers_bytes(tmp_path, events):
    cli._write_events(tmp_path / "a.csv", iter(events))
    reference_write_csv(tmp_path / "b.csv", ["t", "tag"], iter(events))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solve_csv_roundtrip(tmp_path):
    # One row per sample under each header, one per event with its tag last,
    # and the audit kind reads storage.csv back to the run's own verdict.
    cfg = _tiny_solve_cfg(-1.0)
    problem, init, tc, icfg = cli._read(cfg)[0]
    traj = primal_dual.solve(problem, init, tc=tc, cfg=icfg, grow_step=True).trajectory
    code, payload = cli.run(cfg, tmp_path / "run")
    assert code == 0 and payload["iterations"] == traj.times.size
    rows = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,x0,x1"
    assert len(rows) == traj.times.size + 1
    storage = (tmp_path / "run" / "storage.csv").read_text().splitlines()
    assert storage[0] == "t,storage,supply,margin"
    assert len(storage) == len(rows)
    erows = (tmp_path / "run" / "events.csv").read_text().splitlines()
    assert erows == ["t,tag"] + [f"{t:.17g},{tag}" for t, tag in traj.events]
    assert len(erows) == 2 and erows[1].endswith(",g0")
    audit_cfg = {"schema": 1, "kind": "audit",
                 "audit": {"trace_csv": str(tmp_path / "run" / "storage.csv")}}
    code, audit = cli.run(audit_cfg, tmp_path / "audit")
    assert code == 0
    assert {key: audit[key] for key in ("verdict", "min_margin", "worst_time")} == \
        {key: payload[key] for key in ("verdict", "min_margin", "worst_time")}


def test_no_module_but_the_cli_opens_a_file():
    for module in (brayton_moser, ode, plants, primal_dual, svm, tline):
        assert "open(" not in inspect.getsource(module), module.__name__


@pytest.mark.parametrize("kind, switches", [("solve", 2), ("solve_eq", 3)])
def test_solve_grows_its_step_to_the_fixed_step_optimum(tmp_path, kind, switches):
    # The fixed-step flow of the same inputs takes 2,812 (solve) and 2,387
    # (solve_eq) samples; the grown run about 300 and 420.
    problem, init, tc, icfg = cli._read(CONFIGS[kind])[0]
    fixed = primal_dual.solve(problem, init, tc=tc, cfg=icfg)
    code, payload = cli.run(CONFIGS[kind], tmp_path)
    assert code == 0
    assert payload["iterations"] < fixed.trajectory.times.size / 4
    final = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[-1, 1:]
    assert np.max(np.abs(final - fixed.trajectory.final_state)) < 1e-5
    assert payload["converged"] is True
    assert payload["verdict"] == payload["switch_audit"]["verdict"] == "PASS"
    assert payload["switch_count"] == fixed.switch_count == switches


def test_configs_with_the_same_stem_are_rejected(tmp_path, capsys):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "x.json"
        path.write_text(json.dumps(_tiny_solve_cfg(-1.0)))
        paths.append(str(path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", paths[0], "--config", paths[1],
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "stem 'x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kinds_match_the_subcommands():
    parser = cli._parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert set(sub.choices) == set(cli.KINDS) | {"run", "validate"}
    for kind in cli.KINDS:
        assert not [d for d in cli.validate({"kind": kind}) if d.startswith("kind:")]


@pytest.mark.parametrize("gain", ["k", "k1", "k2"])
def test_hvac_power_shaping_divisor_gains_must_be_positive(tmp_path, gain):
    code, payload = cli.run(_hvac_cfg(gains={gain: 0.0}), tmp_path)
    assert code == cli.EXIT_VALIDATION
    assert f"plant.gains.{gain}: must be a number > 0" in payload["validation_errors"]


@pytest.mark.parametrize("M", [8, 200])
@pytest.mark.parametrize("K", [1, 7, 32, 75, 300])
def test_spacetime_blocks_equal_each_sample_unpacked_alone(tmp_path, monkeypatch, M, K):
    # A line run unpacks its samples a block at a time as integrate streams
    # them to the writer; each spacetime.csv row must be the row of its
    # sample unpacked alone, bit for bit, over full and partial blocks, and
    # each block's functional values are those of its samples.  A block is
    # _BLOCK whole chunks of the writer: 3 x 97 samples at grid 8, 3 x 5 at
    # grid 200.
    p = tline.LineParams(R0=0.7, R1=1.3)
    rng = np.random.default_rng([M, K])
    times, states = np.cumsum(rng.uniform(0.1, 1.0, K)), rng.normal(size=(K, 2 * M + 2))

    def streaming(rhs, x0, cfg, sink):
        for t, y in zip(times, states):
            sink(t, y)
        return Trajectory(times, None, final_state=states[-1].copy())

    V = []

    def lyap(t, y):
        V.append(y[:, 0] + t)
        return V[-1]

    rhs, _, eq, I0_star = tline.tline_pi_loop(p, M, 1.0, 1.0, 1.0)
    monkeypatch.setattr(cli, "integrate", streaming)
    cli._run_tline((p, M, (rhs, lyap, eq, I0_star), None), tmp_path)
    rows_per_block = {8: 291, 200: 15}[M]
    assert rows_per_block == cli._BLOCK * (cli._CHUNK // (2 * M + 5))
    full, rest = divmod(K, rows_per_block)
    assert [len(v) for v in V] == [rows_per_block] * full + [rest] * (rest > 0)
    assert np.concatenate(V).tolist() == (states[:, 0] + times).tolist()
    lines = (tmp_path / "spacetime.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    expected = [[t] + s.i.tolist() + s.v.tolist() + [s.vC0, s.vC1]
                for t, s in zip(times.tolist(), (reference_line_state(p, y, M) for y in states))]
    assert rows == expected
    assert np.array_equal(np.signbit(rows), np.signbit(expected))


def test_a_line_run_formats_spacetime_csv_in_whole_chunks(tmp_path, monkeypatch):
    # A block of the streamed samples is whole chunks of the writer (5
    # samples of 405 columns at grid 200), so only the file's last chunk is
    # short.  Blocks of 16 samples would format one-row chunks: 27 of a
    # horizon-2 run's 111.
    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return csv_floats(a)

    csv_floats = cli._csv_floats
    monkeypatch.setattr(cli, "_csv_floats", recording)
    cfg = _with(_line_cfg({}, 200, tline.cfl_limit(tline.LineParams(), 200)),
                tline={"horizon": 0.5})
    assert cli.run(cfg, tmp_path)[0] == 0
    rows = [n for n, width in shapes if width == 405]
    assert len(rows) > 10 and set(rows[:-1]) == {5} and rows[-1] <= 5


def test_line_run_goes_through_the_traced_names(tmp_path, monkeypatch):
    # Benchmark tracing wraps tline.tline_rhs and tline.closed_loop_lyapunov
    # by name: the line run must call both through the module, the rhs four
    # times per RK4 step and the functional once per block of samples.
    cfg = {"schema": 1, "kind": "tline",
           "tline": {"grid": 16, "horizon": 0.2, "target_vc1": 1.0,
                     "gains": {"K_P": 1.0, "K_I": 1.0}}}
    code, _ = cli.run(cfg, tmp_path / "plain")
    assert code == 0
    calls = {"tline_rhs": 0, "closed_loop_lyapunov": 0}
    trajectories = []

    def counting(name):
        inner = getattr(tline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    def recording(integrate):
        def wrapper(*args, **kwargs):
            trajectories.append(integrate(*args, **kwargs))
            return trajectories[-1]
        return wrapper

    for name in calls:
        monkeypatch.setattr(tline, name, counting(name))
    monkeypatch.setattr(cli, "integrate", recording(cli.integrate))
    code, _ = cli.run(cfg, tmp_path / "counted")
    assert code == 0
    [traj] = trajectories
    assert calls["tline_rhs"] == traj.stats.rhs_evals == 4 * traj.stats.rk4_steps > 0
    rows = cli._BLOCK * (cli._CHUNK // (2 * 16 + 5))     # samples per block at grid 16
    assert calls["closed_loop_lyapunov"] == -(-traj.times.size // rows) > 1
    for name in ("spacetime.csv", "lyapunov.csv", "summary.json"):
        assert (tmp_path / "counted" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def _traced_peak(monkeypatch, call):
    """``call()``'s traced peak in bytes outside its ``_csv_floats`` calls,
    whose temporaries ``_CHUNK`` bounds whatever the run's length."""
    peaks = []
    csv_floats = cli._csv_floats

    def untraced(a):
        peaks.append(tracemalloc.get_traced_memory()[1])
        try:
            return csv_floats(a)
        finally:
            tracemalloc.reset_peak()

    monkeypatch.setattr(cli, "_csv_floats", untraced)
    tracemalloc.start()
    try:
        result = call()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return max(peaks), result


def _csv_rows(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def test_cli_runs_stream_their_samples_and_hold_no_sample_buffer(tmp_path, monkeypatch):
    # integrate hands each sample to the CSV writers and keeps none, so what
    # a CLI run holds does not grow by a row a sample.  The svm run of 100
    # points per class writes 542 rows of 204 floats (0.88 MB), more than
    # the run's traced peak.  The golden solve's rows are 12 KB, below the run's
    # fixed costs (its config, its reader, a writer's 512-row chunk), so its
    # run is held against the library call of the same inputs, which buffers.
    for cfg in (CONFIGS["svm"], CONFIGS["solve"]):
        assert cli.run(cfg, tmp_path / "warm")[0] == 0      # imports and tables
    svm_cfg = {"schema": 1, "kind": "svm", "svm": {"seed": 0, "n_per_class": 100}}
    peak, (code, _) = _traced_peak(monkeypatch, lambda: cli.run(svm_cfg, tmp_path / "svm"))
    beta, mu = (_csv_rows(tmp_path / "svm" / name)
                for name in ("beta_trajectory.csv", "mu_trajectory.csv"))
    data_args, _, icfg = cli._read(svm_cfg)[0]
    traj = svm.train_svm(svm.generate_gaussian_classes(**data_args), cfg=icfg).trajectory
    states = np.column_stack([traj.times, traj.states])
    assert np.array_equal(np.column_stack([beta, mu[:, 1:]]), states)
    assert code == 0 and states.shape == (542, 204) and peak < states.nbytes

    problem, init, tc, scfg = cli._read(CONFIGS["solve"])[0]
    peak, (code, _) = _traced_peak(monkeypatch,
                                   lambda: cli.run(CONFIGS["solve"], tmp_path / "solve"))
    library_peak, result = _traced_peak(monkeypatch, lambda: primal_dual.solve(
        problem, init, tc=tc, cfg=scfg, grow_step=True))
    traj = result.trajectory
    assert np.array_equal(_csv_rows(tmp_path / "solve" / "trajectory.csv"),
                          np.column_stack([traj.times, traj.states]))
    assert code == 0 and peak < library_peak


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning",
                            "ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_failed_run_leaves_the_files_it_left_before_streaming(tmp_path, monkeypatch):
    # A run writes its sample CSV as it integrates, to <name>.part, which
    # becomes <name> only when the run ends.  A run that raises out of
    # cli.run (svm dataset seed 4: the clamp's ValueError, unchanged) or
    # exits 3 (a plant loop that diverges after writing a chunk) leaves what
    # it left when the CSV was written after the run: no sample CSV, no
    # .part file and no open file, and an earlier run's CSV as it was.
    with pytest.raises(ValueError) as direct:
        svm.train_svm(svm.generate_gaussian_classes(seed=4))
    assert "missing guard?" in str(direct.value)
    with pytest.raises(ValueError) as raised:
        cli.run({"schema": 1, "kind": "svm", "svm": {"seed": 4}}, tmp_path / "svm")
    assert str(raised.value) == str(direct.value)
    gc.collect()
    assert sorted(p.name for p in (tmp_path / "svm").iterdir()) == ["dataset.csv"]

    chunks = []
    csv_floats = cli._csv_floats
    monkeypatch.setattr(cli, "_csv_floats", lambda a: chunks.append(a.shape) or csv_floats(a))
    plant = tmp_path / "plant"
    plant.mkdir()
    (plant / "trajectory.csv").write_bytes(b"an earlier run\r\n")
    code, payload = cli.run(_prlc_cfg(2.0, 1e5), plant)       # RK4 grows its modes
    assert code == 3 and payload["error"] == "non-finite state at t=1454"
    assert chunks == [(682, 3)]
    gc.collect()
    assert sorted(p.name for p in plant.iterdir()) == ["summary.json", "trajectory.csv"]
    assert (plant / "trajectory.csv").read_bytes() == b"an earlier run\r\n"
