"""Checks of ``benchmarks/pairs.py``, the paired runner: its statistics on
synthetic pairs, and its driver's bookkeeping with a stub probe."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

SPEC = {"wall_s": ("lower", 0.2)}
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _records(parent, change, failed=(0, 0)):
    return [{side: {"metrics": {"wall_s": value}, "failed": fails, "attempted": 10}
             for side, value, fails in zip(("parent", "change"), (p, c), failed)}
            for p, c in zip(parent, change)]


def _verdict(parent, change, spec=SPEC):
    return pairs.summarize(_records(parent, change), spec)["wall_s"]


def test_ties_count_for_neither_side():
    summary = _verdict([1.0] * 10, [1.0] * 5 + [0.9] * 5)
    assert summary["change_wins"] == 5
    assert _verdict([1.0] * 10, [1.0] * 10)["change_wins"] == 0


@pytest.mark.parametrize("losses, verdict", [(1, "gain"), (2, "none")])
def test_a_gain_needs_nine_wins_in_ten(losses, verdict):
    change = [p - 0.3 if k < 10 - losses else p + 0.01 for k, p in enumerate(PARENT)]
    summary = _verdict(PARENT, change)
    assert summary["change_wins"] == 10 - losses
    assert summary["verdict"] == verdict


def test_a_gain_needs_a_gap_wider_than_the_spread():
    summary = _verdict(PARENT, [p - 0.001 for p in PARENT])
    assert summary["change_wins"] == 10 and summary["parent_spread"] > 0.001
    assert summary["verdict"] == "none"


def test_a_gain_needs_ten_pairs():
    assert _verdict([1.0, 1.1], [0.5, 0.6])["verdict"] == "none"


def test_worse_by_more_than_the_bound_is_a_regression():
    assert _verdict(PARENT, [p + 0.3 for p in PARENT])["verdict"] == "regression"
    assert _verdict(PARENT, [p + 0.1 for p in PARENT])["verdict"] == "none"


def test_bounds_are_fractions_of_the_parent_median():
    mb = [41.6, 41.62, 41.65, 41.68, 41.7, 41.7, 41.72, 41.75, 41.78, 41.8]
    summary = _verdict(mb, [m + 0.2 for m in mb], {"wall_s": ("lower", 0.1)})
    assert summary["parent_spread"] > 0.1 and summary["verdict"] == "none"
    assert summary["parent_spread_rel"] == pytest.approx(summary["parent_spread"] / 41.7)
    s = [0.34, 0.342, 0.344, 0.346, 0.348, 0.35, 0.352, 0.354, 0.356, 0.358]
    assert _verdict(s, [v + 0.1 for v in s])["verdict"] == "regression"
    assert _verdict(s, [v + 0.05 for v in s])["verdict"] == "none"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_wins():
    wide = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    summary = _verdict(wide, list(reversed(wide)))
    assert summary["parent_spread"] > 0.2 and summary["verdict"] == "unresolved"
    assert _verdict(wide[:8], [0.9] * 8)["verdict"] == "none"     # 8 pairs: no gain either


def test_more_failed_operations_withhold_a_gain():
    change = [p - 0.3 for p in PARENT]
    summary = pairs.summarize(_records(PARENT, change, failed=(0, 1)), SPEC)["wall_s"]
    assert summary["change_wins"] == 10 and summary["verdict"] == "none"
    assert pairs.summarize(_records(PARENT, change, failed=(1, 1)), SPEC)["wall_s"][
        "verdict"] == "gain"
    assert pairs.operations(_records(PARENT, change, failed=(0, 1))) == \
        {"parent": {"failed": 0, "attempted": 100}, "change": {"failed": 10, "attempted": 100}}


def test_higher_better_metrics_win_upward():
    summary = _verdict(PARENT, [p + 0.3 for p in PARENT], {"wall_s": ("higher", 0.2)})
    assert summary["change_wins"] == 10 and summary["verdict"] == "gain"


def test_unbounded_metrics_are_never_regressions():
    assert _verdict(PARENT, [p + 5.0 for p in PARENT], {})["verdict"] == "none"


def _checkout(root, side):
    (root / "src").mkdir(parents=True)
    (root / "src" / "side").write_text(side)
    (root / "perfbench").mkdir()
    (root / "tests").mkdir()
    (root / "tests" / "oracles.py").write_text("")
    return root


def test_the_driver_alternates_swaps_once_and_passes_one_seed(tmp_path):
    calls = []

    def stub(root, seed):
        calls.append((root.name, (root / "src" / "side").read_text(), seed))
        return {"metrics": {"wall_s": 1.0}}

    work = tmp_path / "work"
    work.mkdir()
    records = pairs.drive(_checkout(tmp_path / "p", "parent"),
                          _checkout(tmp_path / "c", "change"), work, 10, 7, stub)
    assert [r["first"] for r in records] == ["parent", "change"] * 5
    assert [side for _, side, _ in calls] == ["parent", "change", "change", "parent"] * 5
    # every run found its own side's tree; the trees swap once, before pair 5
    assert [r["dirs"] for r in records] == [{"parent": "a", "change": "b"}] * 5 \
        + [{"parent": "b", "change": "a"}] * 5
    assert all(name == records[k // 2]["dirs"][side]
               for k, (name, side, _) in enumerate(calls))
    assert {seed for _, _, seed in calls} == {7}
    assert sorted(p.name for p in work.iterdir()) == ["a", "b"]


def test_same_outputs_needs_one_digest_per_name_over_every_run():
    def run(*digests):
        return {"same_states": {"x": list(digests)}}

    assert pairs.same_outputs([{"parent": run("d"), "change": run("d")}] * 2) == \
        {"same_states": {"x": True}}
    assert pairs.same_outputs([{"parent": run("d", "e"), "change": run("d", "e")}]) == \
        {"same_states": {"x": False}}
