"""A/B runs of perfbench/run.py: a parent commit against the working tree.

    python tools/ab.py --parent REV --out BENCH_<n>.json [--seed 1] [--what TEXT]

`git archive REV` is extracted into one temporary tree, and the working
tree's tracked files, uncommitted edits included, are copied into another
(`git add` a new file first).  It refuses to run if the benchmark's
paths or BENCHMARK.json differ between the two, since each side would then
measure something else.  For each of 10 pairs and every workload of
BENCHMARK.json it runs each tree's own

    <BENCHMARK.json command> --workload W --seed S --seconds T --trace 0

from that tree's root, T being BENCHMARK.json's run_seconds, with
PYTHONPATH unset, so each side imports its own src/.  Pairs run in order,
every workload of one pair before the next pair, and the seeds count up
from --seed in that order.  The side that runs first alternates from one
pair to the next within each workload, and over the whole run when the
number of workloads is odd.  The file is rewritten after every pair, so an
interrupted run keeps what it measured.

The output file has BENCH_24.json's keys: what, command, alternation,
hardware, summary_method, summary and pairs.  Each pair holds both sides'
printed env and result lines.  The summary gives, per workload and
end-to-end metric of BENCHMARK.json, the parent and change median, q1 and
q3, and change_wins, the pairs where the change read better by that
metric's `better`; and each side's failed and attempted totals.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def plan(workloads, pairs: int, seed: int):
    """(workload, seed, side that runs first) for every run, in run order.
    The first side alternates over the pairs of each workload, and over the
    whole run when the number of workloads is odd."""
    runs = []
    for p in range(pairs):
        for w, workload in enumerate(workloads):
            runs.append((workload, seed + len(runs), SIDES[(p + w) % 2]))
    return runs


def parse(stdout: str) -> dict:
    """run.py's last two lines: the env stamp and the result line."""
    lines = stdout.strip().splitlines()
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"env": env["env"], "result": result}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, metrics) -> dict:
    """Per workload: medians, quartiles and change wins of each metric
    (name -> "lower" or "higher"), and each side's failed and attempted."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {"pairs": len(runs)}
        for name, better in metrics.items():
            values = {s: [r[s]["result"]["metrics"][name]["value"] for r in runs]
                      for s in SIDES}
            stats = {"better": better}
            for side in SIDES:
                q1, q3 = _quartiles(values[side])
                stats[f"{side}_median"] = statistics.median(values[side])
                stats[f"{side}_q1"], stats[f"{side}_q3"] = q1, q3
            sign = -1 if better == "lower" else 1
            stats["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                       zip(values["parent"], values["change"]))
            entry[name] = stats
        for key in ("failed", "attempted"):
            entry[key] = {s: sum(r[s]["result"][key] for r in runs) for s in SIDES}
        summary[workload] = entry
    return summary


def _git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kwargs).stdout


def _make_trees(parent: str, work: Path) -> dict:
    trees = {s: work / s for s in SIDES}
    data = _git("archive", "--format=tar", parent)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(trees["parent"])
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            dest = trees["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest)
    return trees


def _hardware() -> str:
    model = platform.processor() or "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{model}, nproc {os.cpu_count()}, {platform.python_implementation()} "
            f"{platform.python_version()}, {platform.system()} {platform.release()}")


def _run(tree: Path, command, env) -> dict:
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(command)} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    return parse(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to measure against")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--what", default="", help="what the change is")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    compared = [*bench["paths"], "BENCHMARK.json"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent = _git("rev-parse", "--verify", args.parent + "^{commit}", text=True).strip()
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)

    # compares the parent with the working tree's tracked files, as copied below
    if subprocess.run(["git", "diff", "--quiet", parent, "--", *compared],
                      cwd=ROOT).returncode:
        sys.exit(f"error: {' or '.join(compared)} differs between {parent[:12]} "
                 "and the working tree, so the two sides would not run one benchmark")
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        trees = _make_trees(parent, Path(work))
        pairs = []
        head = _git("rev-parse", "HEAD", text=True).strip()
        tail = ["--seconds", f"{bench['run_seconds']:g}", "--trace", "0"]
        for workload, seed, first in plan(workloads, PAIRS, args.seed):
            command = [*bench["command"], "--workload", workload, "--seed", str(seed), *tail]
            runs = {side: _run(trees[side], command, env)
                    for side in (SIDES if first == "parent" else SIDES[::-1])}
            pairs.append({"workload": workload, "seed": seed, "first": first,
                          **{side: runs[side] for side in SIDES}})
            parent_rel, change_rel = (runs[s]["result"]["metrics"]["wall_rel"]["value"]
                                      for s in SIDES)
            print(f"{workload} seed {seed}: wall_rel parent {parent_rel:.4f}, "
                  f"change {change_rel:.4f}", file=sys.stderr)
            out = {
                "what": f"{args.what} parent = git archive of {parent}; change = the "
                        f"tracked files of the working tree at {head}, uncommitted edits "
                        "included; written by tools/ab.py.".lstrip(),
                "command": " ".join([*bench["command"], "--workload W --seed S", *tail]),
                "alternation": "the first side alternates from one pair to the next; "
                               "pairs run in order, each pair's workloads in the order "
                               f"{', '.join(workloads)}, seeds counting up from {args.seed}",
                "hardware": _hardware(),
                "summary_method": "medians over pairs; quartiles by "
                                  "statistics.quantiles(n=4), exclusive method; "
                                  "change_wins counts pairs where the change read better",
                "summary": summarize(pairs, metrics),
                "pairs": pairs,
            }
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
