"""One benchmark process: build a workload's inputs, then run and check one pass.

run.py starts this file in a fresh interpreter with the checkout's src/
on PYTHONPATH.  It prints "READY" once the inputs exist (run.py times
set-up up to that line), then one JSON line with the pass's figures.

    --mode setup   build the inputs and stop
    --mode pass    run one timed pass: wall time, reference-loop time, operations,
                   failures, peak RSS
    --mode trace   the same pass with every iasltools layer wrapped by tracing.Tracer

Every check below uses the benchmark's own arithmetic (counting formulas,
a graph6 codec, bipartiteness, witness re-verification), never the code
under test.  Results are checked field by field, so extra keys in the
program's output are not failures.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from math import comb
from time import perf_counter

from tracing import Tracer, latency_summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI = "from iasltools.cli import console_main; console_main()"
CLI_TIMEOUT = 150

SUMSET_CHECKS = (
    "edge-size-bounds",
    "max-sumset-iff-disjoint-differences",
    "edge-size-product-minus-neglect",
    "saturated-class-size",
)
SWEEP_CHECKS = ("weak-iff-singleton-endpoints", "strong-iff-disjoint-differences")

# Labeled graph counts (OEIS A001187 connected, A001832 connected bipartite),
# indexed by vertex count; n = 0 is the one empty graph, which is both.
CONNECTED = (1, 1, 1, 4, 38, 728, 26704)
CONNECTED_BIPARTITE = (1, 1, 1, 3, 19, 195)

# Input sizes.  The oracle workloads run acceptance criteria 1 and 4 one size
# down (criterion 1 is {0..8}, criterion 4 labels from {0..4}), and
# search-batch a quarter of the uniform graphs, so that a pass takes about
# 3 s and a run's median is taken over ten or more passes; --small runs the
# same code paths on inputs that take well under a second.
FULL = {
    "max_element": 7,            # sumset-laws: subsets of {0..7}
    "sweep": (3, 2),             # labeling-sweep: (max_element, max_label_size)
    "uniform_max_n": 5,          # search-batch: non-bipartite graphs on <= 5 vertices ...
    "uniform_stride": 4,         # ... every 4th of them in graph6 order (139 of 553)
    "minsize_n": 6,              # search-batch: connected 6-vertex graphs ...
    "minsize_lines": 2000,       # ... sampled this many per pass
}
SMALL = {
    "max_element": 4,
    "sweep": (2, 2),
    "uniform_max_n": 4,
    "uniform_stride": 1,
    "minsize_n": 5,
    "minsize_lines": 40,
}
# uniform --element-bound/--size-bound: 6/3 refutes the same graphs at three times the cost
UNIFORM_BOUNDS = (5, 3)


class SetupError(RuntimeError):
    """The generated inputs do not have the size the benchmark expects."""


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic

def subset_pairs(max_element: int) -> int:
    """Ordered pairs of non-empty subsets of {0..max_element}."""
    return ((1 << (max_element + 1)) - 1) ** 2


def sweep_counts(max_element: int, max_size: int) -> tuple[int, int]:
    """Labelings and classify cross-checks per weak/strong check: every graph
    on <= 4 vertices with <= 4 edges, every labeling from the subsets of
    {0..max_element} of size <= max_size, one cross-check per 199 labelings."""
    labels = sum(comb(max_element + 1, s) for s in range(1, max_size + 1))
    labelings = sum(
        sum(comb(comb(n, 2), e) for e in range(5)) * labels ** n for n in range(5)
    )
    return labelings, labelings // 199


def reference_loop() -> list[tuple[int, int]]:
    """Fixed pure-Python work (sum-set sizes of small frozensets, counted in a
    dict) that shares no code with iasltools and takes about 0.15 s.  Each
    pass times it just before and just after its timed section, so run.py
    can state the pass in units of this loop: on a shared host the speed
    drifts by a third over minutes and moves both, while a change to the
    program moves only the pass."""
    sets = [frozenset(c) for r in range(1, 5) for c in combinations(range(9), r)]
    sizes = Counter()
    for a in sets:
        for b in sets:
            sizes[len({x + y for x in a for y in b})] += 1
    return sorted(sizes.items())


def timed_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def encode_graph6(n: int, edges) -> str:
    """graph6 for n <= 62: size byte, then the upper triangle by columns."""
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + sum(1 << (5 - b) for b in range(6) if bits[k + b])))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = [(ord(c) - 63) >> (5 - b) & 1 for c in text[1:] for b in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, bit in zip(pairs, bits) if bit]


def is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = [s]
        for v in queue:
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def witness_ok(line: str, rec: dict) -> bool:
    """A minsize line: a set-indexer over a ground set of the minimum size."""
    n, edges = decode_graph6(line)
    cert = rec.get("certificate") or {}
    witness = cert.get("witness") or {}
    size = n.bit_length()                    # 2^m - 1 >= n non-empty subsets
    ground = cert.get("ground_set")
    labels = witness.get("labels")
    if not (rec.get("command") == "minsize" and rec.get("graph6") == line
            and cert.get("kind") == "witness" and rec.get("size") == size
            and cert.get("size") == size and witness.get("graph6") == line
            and isinstance(ground, list) and len(set(ground)) == size
            and isinstance(labels, list) and len(labels) == n):
        return False
    allowed = set(ground)
    sets = []
    for lab in labels:
        if not (isinstance(lab, list) and lab
                and all(type(x) is int for x in lab) and set(lab) <= allowed):
            return False
        sets.append(frozenset(lab))
    if len(set(sets)) != n:
        return False
    sums = [frozenset(x + y for x in sets[u] for y in sets[v]) for u, v in edges]
    return len(set(sums)) == len(sums)


def exhausted_ok(line: str, rec: dict) -> bool:
    """A uniform line: the search exhausted its space (the graph is not bipartite)."""
    cert = rec.get("certificate") or {}
    return (rec.get("command") == "uniform" and rec.get("graph6") == line
            and rec.get("k") == 2 and cert.get("kind") == "exhausted"
            and cert.get("witness") is None)


# ---------------------------------------------------------------------------
# set-up

def setup(workload: str, seed: int, sizes: dict, workdir: str) -> dict:
    from iasltools import cli, graph, oracle

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(oracle.__file__).startswith(src):
        raise SetupError(f"iasltools imported from {oracle.__file__}, not from {src}")
    state = {"oracle": oracle, "cli": cli}
    # oracle workloads: the details every check must report, and each
    # reported count is that many operations
    if workload == "sumset-laws":
        state["checks"] = SUMSET_CHECKS
        state["corpus"] = oracle.Corpus(max_element=sizes["max_element"])
        state["expect"] = {"pairs": subset_pairs(sizes["max_element"])}
    elif workload == "labeling-sweep":
        state["checks"] = SWEEP_CHECKS
        m, s = sizes["sweep"]
        state["corpus"] = oracle.Corpus(max_element=m, max_label_size=s)
        labelings, cross = sweep_counts(m, s)
        state["expect"] = {"labelings": labelings, "classify_crosschecks": cross}
    else:
        max_n = sizes["uniform_max_n"]
        uniform = []
        for n in range(max_n + 1):
            for g in graph.enumerate_graphs(n, connected_only=True):
                if not is_bipartite(n, g.edges):
                    uniform.append(encode_graph6(n, g.edges))
        want = sum(CONNECTED[n] - CONNECTED_BIPARTITE[n] for n in range(max_n + 1))
        if len(uniform) != want:
            raise SetupError(f"{len(uniform)} non-bipartite graphs, expected {want}")
        n6 = sizes["minsize_n"]
        pool = [encode_graph6(n6, g.edges)
                for g in graph.enumerate_graphs(n6, connected_only=True)]
        if len(pool) != CONNECTED[n6]:
            raise SetupError(f"{len(pool)} connected graphs on {n6}, expected {CONNECTED[n6]}")
        # Sorted, so the inputs do not depend on the order enumerate_graphs
        # yields.  The uniform subset is the same for every seed, which only
        # orders it: one isomorphism class's copies cost from 1 to 115 ms each,
        # so a seeded subset would move wall_s from seed to seed.
        uniform = sorted(uniform)[::sizes["uniform_stride"]]
        pool.sort()
        rng = random.Random(seed)
        rng.shuffle(uniform)
        minsize = rng.sample(pool, sizes["minsize_lines"])
        eb, sb = UNIFORM_BOUNDS
        batches = []
        for name, lines, extra, checker, code in (
            ("uniform", uniform,
             ["--k", "2", "--element-bound", str(eb), "--size-bound", str(sb)],
             exhausted_ok, 1),
            ("minsize", minsize, [], witness_ok, 0),
        ):
            path = os.path.join(workdir, f"{name}.g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            batches.append((name, [name, "--graph", path, *extra], lines, checker, code))
        state["batches"] = batches
        state["ops_per_pass"] = len(uniform) + len(minsize)
    if "checks" in state:
        state["ops_per_pass"] = len(state["checks"]) * sum(state["expect"].values())
    return state


# ---------------------------------------------------------------------------
# timed sections: each returns (failed operations, error notes, extra figures)

def _crash(errors: list, what: str) -> None:
    errors.append(f"{what} raised: {traceback.format_exc(limit=3)}")


def run_oracle_checks(state, tracer):
    """A check that fails, miscounts or raises fails all of its operations."""
    failed, errors, ops = 0, [], 0
    expect = state["expect"]
    per_check = sum(expect.values())
    for cid in state["checks"]:
        if tracer:
            tracer.op = cid
        try:
            check = state["oracle"].run_check(cid, corpus=state["corpus"])
        except Exception:       # a crash is a failed operation, not the end of the run
            _crash(errors, cid)
            failed += per_check
            continue
        d = check.details
        ops += sum(d.get(key, 0) for key in expect)
        if check.verdict != "pass" or any(d.get(k) != v for k, v in expect.items()):
            failed += per_check
            errors.append(f"{cid}: {check.verdict} {d}")
    return failed, errors, {"oracle_ops": ops}


def cli_subprocess(argv):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv], stdout=subprocess.PIPE,
        cwd=ROOT, timeout=CLI_TIMEOUT, check=False,
    )
    return proc.returncode, proc.stdout, perf_counter() - start


def cli_in_process(cli):
    def run(argv):
        start = perf_counter()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode("utf-8"), perf_counter() - start
    return run


def check_batch(lines, out: bytes, code: int, want_code: int, checker, errors, name):
    """Failed lines of one batch; a wrong exit code or line count fails them all."""
    got = out.decode("utf-8", "replace").splitlines()
    if code != want_code or len(got) != len(lines):
        errors.append(f"{name}: exit code {code} (expected {want_code}), "
                      f"{len(got)} lines for {len(lines)} inputs")
        return len(lines)
    failed = 0
    for line, text in zip(lines, got):
        try:
            ok = checker(line, json.loads(text))
        except (ValueError, TypeError, AttributeError, IndexError):
            ok = False
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{name}: bad line for {line}: {text[:300]}")
    return failed


def run_search_batch(state, tracer, run_cli):
    failed, errors = 0, []
    walls, outputs = {}, {}
    lines_out = bytes_out = 0
    for name, argv, lines, checker, want_code in state["batches"]:
        if tracer:
            tracer.op = name
        try:
            code, out, walls[name] = run_cli(argv)
        except Exception:       # a crash is a failed operation, not the end of the run
            _crash(errors, name)
            failed += len(lines)
            continue
        outputs[name] = out
        lines_out += out.count(b"\n")
        bytes_out += len(out)
        failed += check_batch(lines, out, code, want_code, checker, errors, name)
    return failed, errors, {
        "cli_wall_s": walls, "outputs": outputs,
        "cli_lines": lines_out, "cli_output_bytes": bytes_out,
    }


def run_parallel(state, serial_outputs):
    """Both batches again with --parallel; output must match serial byte for byte."""
    failed, errors, walls = 0, [], {}
    for name, argv, lines, _, _ in state["batches"]:
        _, out, walls[name] = cli_subprocess([*argv, "--parallel"])
        if out != serial_outputs.get(name):
            failed += len(lines)
            errors.append(f"{name}: --parallel output differs from serial output")
    return failed, errors, walls


# ---------------------------------------------------------------------------

def trace_summary(tracer, extra):
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "timed_self_s": tracer.phase_self_s["timed"],
        "check_s": {cid: sum(tracer.durations("oracle.run_check", cid))
                    for cid in SUMSET_CHECKS + SWEEP_CHECKS},
        "latency": {name: latency_summary(tracer.durations(name))
                    for name in ("search.find_k_uniform", "search.min_ground_set_size")},
        "certificates": dict(tracer.certificates),
        "oracle_ops": extra.get("oracle_ops", 0),
        "cli_lines": extra.get("cli_lines", 0),
        "cli_output_bytes": extra.get("cli_output_bytes", 0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sumset-laws", "labeling-sweep", "search-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--with-parallel", action="store_true",
                    help="search-batch: also run both batches with --parallel")
    ap.add_argument("--trace-out", help="trace mode: write the spans to this file")
    args = ap.parse_args(argv)
    sizes = SMALL if args.small else FULL

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        state = setup(args.workload, args.seed, sizes, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        ref_before = timed_reference()
        if tracer:
            tracer.phase = "timed"
        start = perf_counter()
        if "checks" in state:
            failed, errors, extra = run_oracle_checks(state, tracer)
        else:
            run_cli = cli_in_process(state["cli"]) if tracer else cli_subprocess
            failed, errors, extra = run_search_batch(state, tracer, run_cli)
        wall = perf_counter() - start
        if tracer:
            tracer.uninstall()
        ref_after = timed_reference()
        who = resource.RUSAGE_CHILDREN if args.workload == "search-batch" else resource.RUSAGE_SELF
        result = {
            "wall_s": wall,
            "ref_s": [ref_before, ref_after],
            "ops": state["ops_per_pass"],
            "failed": failed,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
            "cli_wall_s": extra.get("cli_wall_s", {}),
        }
        if args.with_parallel and args.workload == "search-batch":
            pfailed, perrors, result["parallel_wall_s"] = run_parallel(
                state, extra["outputs"])
            result["parallel_failed"] = pfailed
            errors += perrors
        if tracer:
            result["trace"] = trace_summary(tracer, extra)
            if args.trace_out:
                tracer.dump(args.trace_out)
        result["errors"] = errors[:5]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
