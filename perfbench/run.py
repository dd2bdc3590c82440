"""Benchmark for iasltools: three workloads, timed end to end, plus a traced run.

    python3 perfbench/run.py --workload sumset-laws --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; iasltools is imported from ./src, with no
install step.  Each pass of a workload runs in a fresh interpreter
(perfbench/worker.py), so set-up, imports and caches are paid the way a
user pays them.  Workloads (see BENCHMARK.json for why each exists):

    sumset-laws     run_check on the four sum-set law checks over {0..7}
    labeling-sweep  run_check on the weak and strong structure checks, with
                    labels of size <= 2 from {0..3}
    search-batch    the CLI in two subprocesses: `uniform` over every 4th of
                    the 553 non-bipartite graphs on <= 5 vertices, `minsize`
                    over a seeded sample of connected 6-vertex graphs

--trace 0 repeats passes for about --seconds seconds (the last pass may
end up to half a pass later) and reports the end-to-end metrics:

    setup_s      median, over several fresh interpreters, of the time from
                 spawn to inputs ready (imports, corpus, batch files)
    wall_rel     wall_s / ref_s: the pass time in units of the benchmark's
                 own reference loop (worker.reference_loop)
    ops_per_ref  operations per pass / wall_rel
    peak_rss_mb  peak RSS of the process(es) that did the work

and prints, outside the result line,

    wall_s       median pass time, up to the last verdict checked
    ops_per_s    operations per pass / wall_s (OPERATION says what one is)
    ref_s        median time of the reference loop, run in every pass's
                 process just before and just after its timed section
    error_rate   failed / attempted operations; also carried in the result
                 line as "failed" and "attempted"

The gated figures are the relative ones.  On a shared 2-core VM the host's
speed drifts by up to a third over minutes; wall_s follows it, and the ratio
to a loop timed in the same process, moments apart, cancels much of it while
still following every change to the program.

--trace 1 alternates untraced and traced passes (TRACE_PAIRS of each) and
reports the per-layer metrics (see tracing.py) of the traced pass with the
median wall time, whose spans are in perfbench/_out/.
--small shrinks every input for the smoke test (test_smoke.py).

Standard output: one line per metric ("name value unit"), an environment
stamp, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from tracing import TARGETS
from worker import CLI, HERE, ROOT, SUMSET_CHECKS, SWEEP_CHECKS

WORKER = os.path.join(HERE, "worker.py")

OPERATION = {
    "sumset-laws": "one pair verdict",
    "labeling-sweep": "one labeling or one classify cross-check",
    "search-batch": "one batch line",
}
SETUP_SHARE = 0.05         # of --seconds spent on extra set-up-only interpreters (at least 2)
STARTUP_SAMPLES = 3         # fresh `oracle list` processes for cli.startup_s
TRACE_PAIRS = 3             # untraced and traced passes, alternating, in a traced run
WORKER_TIMEOUT = 170.0
# layers reported as calls and self time; run_check and cli.main are the
# roots whose self time is oracle.self_s and cli.self_s
LAYER_NAMES = sorted({name for name, *_ in TARGETS} - {"oracle.run_check", "cli.main"})


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # bytecode caches always on, so imports cost the same in any caller's
    # environment; kept out of src/, inside the benchmark's directory
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "_cache", "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, extra=()) -> dict:
    """One worker process; its set-up time is from spawn to its READY line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.small:
        cmd.append("--small")
    start = perf_counter()
    # own session, so a stuck worker is killed together with its CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(),
                            text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(WORKER_TIMEOUT, kill_group)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "READY":
        raise BenchError(f"{args.workload} worker ({mode}) exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = ready - start
    for note in result.get("errors", ()):
        print(f"error: {note}", file=sys.stderr)
    return result


def timed_run(args):
    setups = []
    start = perf_counter()
    while len(setups) < 2 or perf_counter() - start < SETUP_SHARE * args.seconds:
        setups.append(spawn(args, "setup")["setup_s"])
    # passes until the next one, at the mean pass time so far, would end
    # more than half a pass after --seconds
    passes = []
    start = perf_counter()
    while True:
        passes.append(spawn(args, "pass"))
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > args.seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    ref = statistics.median(r for p in passes for r in p["ref_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": wall / ref,
        "ops_per_ref": passes[0]["ops"] / (wall / ref),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    notes = {
        "passes": len(passes), "setup_samples": len(setups),
        "ops_per_pass": passes[0]["ops"],
        "error_rate": failed / attempted,
        "wall_s": wall,
        "ops_per_s": passes[0]["ops"] / wall,
        "ref_s": ref,
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    return attempted, failed, metrics, notes


def cli_startup_s() -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI, "oracle", "list"],
                              stdout=subprocess.DEVNULL, cwd=ROOT, env=worker_env(),
                              timeout=60, check=False)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"`oracle list` exited with code {proc.returncode}")
    return statistics.median(times)


def traced_run(args):
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    batch = args.workload == "search-batch"
    plains, traces = [], []
    for i in range(TRACE_PAIRS):
        # the first untraced pass also times both batches with --parallel
        plains.append(spawn(args, "pass", ["--with-parallel"] if batch and i == 0 else []))
        spans_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}-{i}.json")
        traces.append((spawn(args, "trace", ["--trace-out", spans_file]), spans_file))
    plain = plains[0]
    plain_wall = statistics.median(p["wall_s"] for p in plains)
    # the traced pass with the median wall time gives every per-layer figure
    traced, spans_file = sorted(traces, key=lambda ts: ts[0]["wall_s"])[TRACE_PAIRS // 2]
    t = traced["trace"]
    calls, self_s = t["calls"], t["self_s"]
    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("search.find_k_uniform", "search.min_ground_set_size"):
        for key in ("p50_ms", "tail_ms", "tail_pct"):
            m[f"{name}.{key}"] = t["latency"][name][key]
    for kind in ("exhausted", "witness", "budget_exceeded"):
        m[f"search.{kind}"] = t["certificates"].get(kind, 0)
    m["oracle.self_s"] = self_s.get("oracle.run_check", 0.0)
    for cid in SUMSET_CHECKS + SWEEP_CHECKS:
        m[f"oracle.{cid}.s"] = t["check_s"][cid]
    m["oracle.ops"] = t["oracle_ops"]
    m["cli.startup_s"] = startup = cli_startup_s()
    m["cli.self_s"] = self_s.get("cli.main", 0.0)
    m["cli.lines"] = t["cli_lines"]
    m["cli.output_bytes"] = t["cli_output_bytes"]
    m["cli.serial_wall_s"] = sum(plain["cli_wall_s"].values())
    m["cli.parallel_wall_s"] = sum(plain.get("parallel_wall_s", {}).values())
    m["trace.wall_s"] = traced["wall_s"]
    # the traced pass runs each CLI batch in-process; add back the interpreter
    # start-ups it skips so the difference is the cost of tracing alone
    skipped = len(plain["cli_wall_s"]) * startup
    m["trace.overhead_s"] = traced["wall_s"] + skipped - plain_wall
    m["trace.accounted_s"] = t["timed_self_s"]
    m["trace.unaccounted_s"] = traced["wall_s"] - t["timed_self_s"]
    # the --parallel pass re-runs every batch line
    passes = plains + [ts[0] for ts in traces]
    attempted = sum(p["ops"] for p in passes) + (plain["ops"] if batch else 0)
    failed = sum(p["failed"] for p in passes) + plain.get("parallel_failed", 0)
    notes = {
        "error_rate": failed / attempted,
        "ops_per_pass": plain["ops"],
        "untraced_wall_s": [p["wall_s"] for p in plains],
        "traced_wall_s": [ts[0]["wall_s"] for ts in traces],
        "tail_samples": {n: t["latency"][n]["samples"] for n in t["latency"]},
        "spans_file": os.path.relpath(spans_file, ROOT),
    }
    return attempted, failed, m, notes


def environment(args, notes) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git")),
                              check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "iasltools")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "operation": OPERATION[args.workload],
        **notes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(OPERATION))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "iasltools", "__init__.py")):
        print("error: no src/iasltools in this checkout; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, values, notes = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for name, unit in (("wall_s", "s"), ("ops_per_s", "ops/s"), ("ref_s", "s")):
        if name in notes:
            print(f"{name} {notes[name]!r} {unit}")
    print(f"error_rate {notes['error_rate']!r} failed/attempted ({failed} of {attempted})")
    print(json.dumps({"env": environment(args, notes)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
