import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from passiflow import cli
from test_artifacts_golden import CONFIGS


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


@pytest.mark.parametrize("cfg, field", [
    ({"schema": 1, "kind": "svm", "svm": {}, "integrator": {"step": "x"}}, "integrator.step"),
    ({"schema": 1, "kind": "svm", "svm": {"n_per_class": "abc"}}, "svm.n_per_class"),
    (_plant_cfg(k1="big"), "plant.gains.k1"),
])
def test_wrong_typed_field_is_a_diagnostic(cfg, field):
    diags = cli.validate(cfg)
    assert [d for d in diags if d.startswith(field + ":")], diags


def test_malformed_block_is_a_diagnostic():
    diags = cli.validate({"schema": 1, "kind": "solve",
                          "problem": {"objective": {"Q0": "abc"}}})
    assert diags and diags[0].startswith("config: malformed field")


def test_run_reports_a_wrong_typed_field_with_exit_code_2(tmp_path):
    code, payload = cli.run(_plant_cfg(k1="big"), tmp_path)
    assert code == cli.EXIT_VALIDATION
    assert payload["validation_errors"]


def _tiny_solve_cfg(c):
    return {"schema": 1, "kind": "solve",
            "problem": {"objective": {"Q0": [[1.0]], "c": [c]},
                        "inequalities": {"affine": {"G": [[1.0]], "h": [0.5]}}},
            "integrator": {"step": 0.01, "max_time": 5.0}}


def test_parallel_jobs_print_one_summary_per_config_in_order(tmp_path, capsys):
    paths = []
    for name, c in (("first", -1.0), ("second", 0.25)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_tiny_solve_cfg(c)))
        paths.append(str(path))
    argv = ["run", "--config", paths[0], "--config", paths[1]]

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


def test_importing_the_cli_does_not_load_scipy():
    # passiflow/__init__ imports every submodule, so this covers the library.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, passiflow.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
