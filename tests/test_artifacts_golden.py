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
    # The other three plant loops the CLI offers, with the parameters and
    # gains of the closed_loops benchmark workload.
    "plant_rlc_ps": {
        "schema": 1, "kind": "plant",
        "plant": {"name": "parallel_rlc", "controller": "power_shaping",
                  "params": {"R": 1.0, "G": 2.0, "L": 1.0, "C": 1.0},
                  "gains": {"K": 1.0}, "initial_state": [-0.5, 0.8], "horizon": 4.0},
        "integrator": {"step": 0.01, "record_every": 10},
    },
    "plant_rlc_pi": {
        "schema": 1, "kind": "plant",
        "plant": {"name": "parallel_rlc", "controller": "krasovskii_pi",
                  "params": {"R": 1.0, "G": 0.5, "L": 1.0, "C": 1.0},
                  "gains": {"K_P": 1.0, "K_I": 1.0}, "initial_state": [1.5, -0.7],
                  "horizon": 4.0},
        "integrator": {"step": 0.01, "record_every": 10},
    },
    "plant_hvac_ps": {
        "schema": 1, "kind": "plant",
        "plant": {"name": "hvac", "controller": "power_shaping",
                  "gains": {"k": 1.0, "k1": 10.0, "k2": 10.0, "alpha": 10.0},
                  "initial_state": [3.0, 7.5, 12.0, 18.0], "horizon": 4.0},
        "integrator": {"step": 0.01, "record_every": 10},
    },
    "tline": {
        "schema": 1, "kind": "tline",
        "tline": {"grid": 16, "horizon": 1.0, "target_vc1": 1.0,
                  "gains": {"K_P": 1.0, "K_I": 1.0}},
    },
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
# moved into the config reader.  The svm digests were re-recorded when
# train_svm began to grow the step between events and a partial svm
# integrator block began to fill in from svm.DEFAULT_INTEGRATOR
# (convergence_tol 1e-6 -> 1e-7, convergence_window 5 -> 10).  The run now
# ends at t = 70.22 (was 55.31) with 437 samples (was 1,118); the samples up
# to the first grown step are unchanged, the support set [4, 8] and the 16
# switches too.  Largest absolute change: summary.json 4.32e-6 (beta0),
# beta_trajectory.csv 4.32e-6 and mu_trajectory.csv 1.31e-6 on the final row.
# The solve and solve_eq digests were re-recorded when the CLI's solve kind
# began to grow the step between events, as train_svm does.  The step grows
# from the second step on, so only the first two samples are unchanged.
# solve: 298 samples (was 2,812), ending at max_time, t = 30.0 (was 28.10),
# still converged; solve_eq: 421 samples (was 2,387), ending at t = 30.06
# (was 23.84).  Switch counts (2 and 3), event tags and both audit verdicts
# are unchanged.  Largest absolute change, solve / solve_eq: trajectory.csv
# 8.16e-7 / 1.06e-6 and storage.csv 3.6e-13 / 7.1e-13 on the final row;
# events.csv 1.41e-6 (g1) / 5.54e-4 (m1 and g1, at t = 2.7416, was 2.7422)
# in the event times; summary.json 8.16e-7 (kkt.dual_feas) / 9.43e-7
# (kkt.stationarity), besides iterations and solve_eq's worst_time, which
# moved from 0.0 to the last sample with a min_margin of -8.4e-15 (was 0.0).
# The plant_rlc_ps, plant_rlc_pi and plant_hvac_ps digests were recorded
# before the four plant loops became scalar closed-form closures, which keep
# every artifact byte for byte.
# The eight summary.json digests of audit, the four plants, tline, tline_open
# and svm were re-recorded when each reader became the one place that
# resolves a run's integrator settings and the summaries began to report what
# the run audited; every CSV keeps its digest.  The four plant summaries and
# both line summaries echo integrator.max_time as the horizon that ran (2.0,
# 4.0, 4.0, 4.0, 1.0, 1.0; was 10.0).  audit echoes no integrator block.
# tline gains worst_time 0.0; tline_open gains the Lyapunov audit of its
# energy (PASS, min_margin 0.0, worst_time 0.0).  svm gains the solve's
# iterations (437), storage verdict (PASS, min_margin 0.0, worst_time 0.0)
# and switch_audit (PASS over the 16 switches).
# The tline_open summary.json digest was re-recorded when the CLI's open-line
# mode was deleted: a line config without a target now runs the boundary-PI
# loop at vC1* = 0, which stays at rest as the open line at zero source
# current did, so both CSVs keep their digests.  The summary's mode reads
# boundary_pi (was open_loop_zero) and gains I0_star, profile_error and
# final_vC1, each 0.0, in place of final_energy 0.0.
# The three tline_open digests were deleted with their config when a line
# config without target_vc1 became a diagnostic: at vC1* = 0 the loop starts
# at its own equilibrium, so every cell it wrote was 0.  No other digest moved.
GOLDEN = {
    "audit/summary.json":
        "8efacb56309599e012fb351253e58407e50f732294ebdfdead4aa1e05d50025e",
    "plant/lyapunov.csv":
        "fc82ba5de02d93911d48173dcc1ab24cbc0ad55dcf590cfd90f087cb86608806",
    "plant/summary.json":
        "f578a53e0703f31e8ae9ad0c4427e879df7951b1a19e2b620c0d7c42e49de9ec",
    "plant/trajectory.csv":
        "717d89439278dbbe303d651d3a2b9222387bbc05c4d785e04635c8181d752722",
    "plant_hvac_ps/lyapunov.csv":
        "70b6ddf60433792cf5f1959a2c79b03cae07b7228e9bdd64c653e7ebf61e89af",
    "plant_hvac_ps/summary.json":
        "caec850e60df492ecb4612d4dfbca8af046b4feac68dc08c17fea403668dd627",
    "plant_hvac_ps/trajectory.csv":
        "4eed09a48c28ac942b91761e271075cb950c2e7bb6dfaf721b07da3eb1c41e7f",
    "plant_rlc_pi/lyapunov.csv":
        "3dbe2dd05a34d66c70f8adb00291dec2301e6ad588b9db9214f77c40f9333366",
    "plant_rlc_pi/summary.json":
        "c0412a2519a5c6c5555e30f5b0ee3d62b8cb6efb21253e791746cda29aafc773",
    "plant_rlc_pi/trajectory.csv":
        "8d8a8bd3636428a47fa0ba496b4e17c32134246c81c1afbafa92f452353d8212",
    "plant_rlc_ps/lyapunov.csv":
        "86e93cc33cd5b6b94e6b4fa5864382ddd76c4474a19f9068927a889acb38ecd2",
    "plant_rlc_ps/summary.json":
        "76543f7c0b3bb318a85f80b1c495b20e0c00dcc79a09bcbf8112c97932e42009",
    "plant_rlc_ps/trajectory.csv":
        "1ea6cdf2683b8af826a43bdca27b7cbb853ada1f92c47a8b64e935a5507b55cb",
    "solve/events.csv":
        "774c291e7ca9e611f9b0748c0713942931ae4062a7199d15a39bc548d0dcca01",
    "solve/storage.csv":
        "92938a07de27929a28799d3eb885df40d000cd18fb2498b8afcb41df3a6bd41e",
    "solve/summary.json":
        "6d3fd6a9270582b7f522da648ff3cd99d9adff1c718ca3441740289ce4429792",
    "solve/trajectory.csv":
        "dee59fdd66f0d22ed6ea5741fb1fbd5e01afcbfbf8912a1a898652e1c35f1c21",
    "solve_eq/events.csv":
        "b557ca0302a6d4eb378913d51519d37c34dfb35532586475aa20fbb696694bf5",
    "solve_eq/storage.csv":
        "968e0cfaf84ea80e04d025f0bb32bad43d8e75f272ca11617cf6b6db35b8e376",
    "solve_eq/summary.json":
        "a2c4890be05423d980830ac2dd3be0c3ab8fb77224aefef48ca8de0115d827b4",
    "solve_eq/trajectory.csv":
        "e66e6a67eaa719c09a62f7928bf2fa1ec9873887a0966d3450390ee429ee9e80",
    "svm/beta_trajectory.csv":
        "76f2a621def8f4a2c8bd5b9364dfe880c5ff49c08ba27df017483c46449b6b41",
    "svm/dataset.csv":
        "ecada696e573358b07bcef158910cd0c2be52afd9bd436705c2b42663a09144f",
    "svm/mu_trajectory.csv":
        "11d29b8a1a5ea094249bbe0bc71b41260aa32ec76f3977d7b7c3a140d7e36249",
    "svm/summary.json":
        "632ec33d5ccaf353feeb51370240099b14f1c6a52e486951f2f9eff3d36abf7c",
    "tline/lyapunov.csv":
        "9f89255d02eddbfbadf5b305eb9082cd308c8f97b5b1dbe5cbd4d30faf3309af",
    "tline/spacetime.csv":
        "9d5ddfeb0f62ae30574464264e68f6bafe42dd51210740806eb45ddaa39e2ada",
    "tline/summary.json":
        "bb623d37c2a71ebf7d90782c5e5b5ecbdbf760f4b2e184e3d92ab085b39c54b7",
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
