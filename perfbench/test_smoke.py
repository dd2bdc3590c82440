"""Smoke test for the benchmark: every workload on --small inputs, untraced and traced.

Checks that each run prints every metric declared in BENCHMARK.json once,
with its unit, that the result line has the agreed keys, and that no
operation failed.  Runs in seconds:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_small_runs_print_every_metric_once_with_no_failures():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines = _run(workload, trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
            printed = [line.split() for line in lines[:-1]]
            for name, unit in {**declared, "error_rate": "failed/attempted"}.items():
                rows = [row for row in printed if row[0] == name]
                assert len(rows) == 1, (workload, name, rows)
                assert rows[0][2] == unit, (workload, name, rows)
            error_rate = [row for row in printed if row[0] == "error_rate"][0]
            assert float(error_rate[1]) == 0.0


if __name__ == "__main__":
    test_small_runs_print_every_metric_once_with_no_failures()
    print("ok")
