"""tools/ab.py, the A/B runner, on canned perfbench/run.py output: no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = {"wall_rel": "lower", "ops_per_ref": "higher"}


def canned(wall_rel, ops_per_ref, failed=0, attempted=100):
    """run.py's standard output: metric lines, the env stamp, the result line."""
    metrics = {"wall_rel": {"value": wall_rel, "unit": "ref"},
               "ops_per_ref": {"value": ops_per_ref, "unit": "ops/ref"}}
    return "\n".join([
        f"wall_rel {wall_rel!r} ref",
        f"ops_per_ref {ops_per_ref!r} ops/ref",
        "error_rate 0.0 failed/attempted (0 of 100)",
        json.dumps({"env": {"seed": 7, "python": "3.11.7"}}),
        json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def pair(workload, parent, change):
    return {"workload": workload, "seed": 1, "first": "parent",
            "parent": ab.parse(canned(*parent)), "change": ab.parse(canned(*change))}


class TestPlan:
    def test_first_side_alternates_over_the_run_and_each_workload(self):
        runs = ab.plan(["a", "b", "c"], 4, 100)
        assert [(w, s) for w, s, _ in runs] == [
            (w, 100 + 3 * p + i) for p in range(4) for i, w in enumerate("abc")]
        firsts = [first for *_, first in runs]
        assert firsts == ["parent", "change"] * 6
        for w in "abc":
            mine = [first for name, _, first in runs if name == w]
            assert all(x != y for x, y in zip(mine, mine[1:]))

    def test_even_workload_count_still_alternates_per_workload(self):
        runs = ab.plan(["a", "b"], 3, 1)
        for w in "ab":
            mine = [first for name, _, first in runs if name == w]
            assert mine in (["parent", "change", "parent"], ["change", "parent", "change"])


class TestSummary:
    def test_parse_reads_the_last_two_lines(self):
        got = ab.parse(canned(1.5, 20.0, failed=2, attempted=50))
        assert got["env"] == {"seed": 7, "python": "3.11.7"}
        assert got["result"]["failed"] == 2 and got["result"]["attempted"] == 50
        assert got["result"]["metrics"]["wall_rel"]["value"] == 1.5

    def test_medians_quartiles_wins_and_totals(self):
        pairs = [
            pair("w", (1.0, 40.0), (0.5, 41.0)),
            pair("w", (2.0, 30.0), (2.5, 29.0, 1)),
            pair("other", (9.0, 1.0), (9.0, 1.0)),
            pair("w", (3.0, 20.0), (2.0, 21.0)),
            pair("w", (4.0, 10.0), (4.5, 11.0)),
        ]
        summary = ab.summarize(pairs, METRICS)
        assert list(summary) == ["w", "other"]
        w = summary["w"]
        assert w["pairs"] == 4
        assert w["wall_rel"] == {
            "better": "lower",
            "parent_median": 2.5, "parent_q1": 1.25, "parent_q3": 3.75,
            "change_median": 2.25, "change_q1": 0.875, "change_q3": 4.0,
            "change_wins": 2,
        }
        assert w["ops_per_ref"]["parent_median"] == 25.0
        assert w["ops_per_ref"]["change_wins"] == 3
        assert w["failed"] == {"parent": 0, "change": 1}
        assert w["attempted"] == {"parent": 400, "change": 400}
        other = summary["other"]["wall_rel"]
        assert other["parent_q1"] == other["parent_q3"] == 9.0    # one pair
        assert other["change_wins"] == 0                          # a tie is no win


class TestRefusal:
    def test_refuses_a_changed_benchmark(self, tmp_path, monkeypatch):
        bench = {"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
                 "run_seconds": 1,
                 "workloads": [{"name": "w"}], "end_to_end": []}
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text("")
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
               "commit.gpgsign=false"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
            subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 2}))
        monkeypatch.setattr(ab, "ROOT", tmp_path)
        monkeypatch.setattr(ab, "_make_trees", lambda *a: pytest.fail("trees were made"))
        with pytest.raises(SystemExit, match="BENCHMARK.json differs"):
            ab.main(["--parent", "HEAD", "--out", str(tmp_path / "out.json")])
        assert not (tmp_path / "out.json").exists()
