"""Byte-level regression check of every CLI artifact.

One small config per CLI kind runs through ``cli.run`` into ``tmp_path``,
and the SHA-256 of every file it writes is compared with a recorded digest.
The digests pin the exact floating-point results of this numpy/BLAS build;
a deliberate numerical change must re-record them and say why.
"""

import hashlib
import json

from passiflow import cli

CONFIGS = {
    "solve": {
        "schema": 1, "kind": "solve",
        "problem": {
            "objective": {"Q0": [[2.0, 0.5], [0.5, 1.0]], "c": [-2.0, -1.0]},
            "inequalities": {
                "affine": {"G": [[1.0, 1.0]], "h": [0.5]},
                "named": [{"name": "ball", "params": {"center": [0.0, 0.0], "radius": 0.6}}],
            },
        },
        "integrator": {"step": 0.01, "max_time": 30.0},
    },
    # Non-unit time constants, an equality row and the ball: the switched
    # storage with tau weights, one entering (m1/g1) and two leaving (g0, g2)
    # switches in events.csv.
    "solve_eq": {
        "schema": 1, "kind": "solve",
        "problem": {
            "objective": {"Q0": [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]],
                          "c": [-3.0, -2.0, 1.0]},
            "equalities": {"A": [[1.0, 1.0, 1.0]], "b": [1.0]},
            "inequalities": {
                "affine": {"G": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], "h": [0.8, 0.5]},
                "named": [{"name": "ball", "params": {"center": [0.0, 0.0, 0.0], "radius": 1.5}}],
            },
        },
        "init": {"mu": [0.0, 2.0, 0.0]},
        "time_constants": {"tau_x": [1.0, 2.0, 0.5], "tau_lam": [1.5], "tau_mu": [0.5, 2.0, 1.0]},
        "integrator": {"step": 0.01, "max_time": 40.0},
    },
    "svm": {
        "schema": 1, "kind": "svm", "svm": {"seed": 1, "n_per_class": 5},
        "integrator": {"step": 0.01, "max_time": 100.0, "record_every": 5},
    },
    "plant": {
        "schema": 1, "kind": "plant",
        "plant": {"name": "hvac", "controller": "dyn_feedback",
                  "gains": {"k1": 1.0, "kd": 2.0, "ki": 5.0}, "horizon": 2.0},
        "integrator": {"step": 0.01, "record_every": 10},
    },
    "tline": {
        "schema": 1, "kind": "tline",
        "tline": {"grid": 16, "horizon": 1.0, "target_vc1": 1.0,
                  "gains": {"K_P": 1.0, "K_I": 1.0}},
    },
    # The default of `passiflow tline`: the open loop from rest, whose
    # Lyapunov column is the stored energy.
    "tline_open": {"schema": 1, "kind": "tline", "tline": {"grid": 16, "horizon": 1.0}},
}

# Recorded before the CSV writer, the flow rhs and the clamp were rewritten
# for speed.  Only the solve and svm summaries changed since, because
# "converged" is now written as true rather than 1.0; with 1.0 they were
# 5a08fa67f3e52d51... (solve) and 5ad21a01a53c0452... (svm).  The solve_eq
# digests were recorded before the storage trace moved into integrate's
# sample hook.  The solve_eq and svm digests were re-recorded when solve's
# multiplier guards moved to the secant event search, which finds another
# sign change of the RK4 map inside the same step for some events (solve_eq's
# m1 moved from t = 2.74000 to 2.74217, against 2.73946 at step 1e-4), so the
# sample times after them shifted, by at most 2.17e-3 (solve_eq) and 2.33e-3
# (svm).  The tline_open digests were recorded when the closed line's loop
# moved into the config reader.
GOLDEN = {
    "audit/summary.json":
        "e92f51374867b877da4734742d2dd85adb06b150895d6f8313178bd941b9c9ff",
    "plant/lyapunov.csv":
        "fc82ba5de02d93911d48173dcc1ab24cbc0ad55dcf590cfd90f087cb86608806",
    "plant/summary.json":
        "0e5a35fb7b8f4a02e77a8f32103c498b41fe063672cb056b469159af74dfd27d",
    "plant/trajectory.csv":
        "717d89439278dbbe303d651d3a2b9222387bbc05c4d785e04635c8181d752722",
    "solve/events.csv":
        "9d96e37ac9988b14dd491346944b1bc0841c8cf7f142e42d1727ac792407c4da",
    "solve/storage.csv":
        "b65cf51178ad2f1a1f03b487ee0fa25022efd67fe7e2d22023403ccef088a927",
    "solve/summary.json":
        "9b685ab806864729d2f22b05df4bb043ac3494f56e2b52d6d265442e4911fa9e",
    "solve/trajectory.csv":
        "0bba359c18d853ad042bda256973eb7f5b5ad79714b7577528d892e78014799d",
    "solve_eq/events.csv":
        "30fe04cb1f256609990b88592f70455144bb6fe5b7fb3cc4f689c4be176e094b",
    "solve_eq/storage.csv":
        "531d01c508947e2b7751d10c823b9dce546c1d8b8e24e892ccfdbfbcd6c58cd0",
    "solve_eq/summary.json":
        "b73ae0699746b929eb28cbcbd2bfee43eb69814ce0c501007ca2ede2dfc1c1b8",
    "solve_eq/trajectory.csv":
        "0d676fad3ff821bc41f2ff7afd4bd2579d23d44c82fe4c8d5327ebd130b8d886",
    "svm/beta_trajectory.csv":
        "0e3b103387db51b3902effaf2a8fa98ab4dadb4082fc8dc9f9225aa7e5ee539e",
    "svm/dataset.csv":
        "ecada696e573358b07bcef158910cd0c2be52afd9bd436705c2b42663a09144f",
    "svm/mu_trajectory.csv":
        "1ae2773a48ddb2148b0e77b0c70696f9ea7c82c890be35d51064d9adfb0d1c56",
    "svm/summary.json":
        "02f748aefe9d53a62fa67c9f4fe44d507f81176fdff264511713f67634738f65",
    "tline/lyapunov.csv":
        "9f89255d02eddbfbadf5b305eb9082cd308c8f97b5b1dbe5cbd4d30faf3309af",
    "tline/spacetime.csv":
        "9d5ddfeb0f62ae30574464264e68f6bafe42dd51210740806eb45ddaa39e2ada",
    "tline/summary.json":
        "6a93ec41ef4e9e713ab13fb1b87fe66f38344820d656c367354a6331b4b2a1d1",
    "tline_open/lyapunov.csv":
        "df98b16ccb8b3df0bd93c411f27a66f833b429bfb2702d268bf33ab7dd9d125a",
    "tline_open/spacetime.csv":
        "1ceea9ede58056b2d7b867a5b986009b3744910b6e5a6aa53d93fea1ae585abc",
    "tline_open/summary.json":
        "30e7f5d971a680a497fc30e8310f6f2666821e8694b20eae1f572dde13492fb1",
}


def run_all(out):
    """Run every config (and an audit of the solve's storage) into ``out``;
    return ``{relative path: sha256}`` of everything written."""
    for kind, cfg in CONFIGS.items():
        code, _ = cli.run(cfg, out / kind)
        assert code == 0, kind
    trace = out / "solve" / "storage.csv"
    code, _ = cli.run({"schema": 1, "kind": "audit", "audit": {"trace_csv": str(trace)}},
                      out / "audit")
    assert code == 0
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.parent.name == "audit":
            data = data.replace(json.dumps(str(trace)).encode(), b'"<trace_csv>"')
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_every_artifact_matches_its_recorded_digest(tmp_path):
    assert run_all(tmp_path) == GOLDEN
