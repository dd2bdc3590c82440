"""Command-line surface for construction, classification, search, the
theorem checks, graph operations, and format conversion.

Exit codes: 0 success or pass, 1 counterexample or an explicit none,
2 usage error or malformed input, 3 search budget exhausted, and 141
when the reader of standard output closed it early (as in `| head`),
with nothing printed to stderr.  JSON
output is the contract and is byte-stable for identical inputs; text
output is a short human summary.  A graph argument is a graph6 string,
or a path to a file of graph6 lines which switches the command into
batch mode (one result line per input line, input order preserved).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import (
    NoConstruction, canonical_iasi, strongly_uniform_iasi, two_uniform_iasi,
    weakly_uniform_iasi,
)
from .graph import (
    PRODUCT_KINDS, Graph, GraphError, complement, contract_edge, corona, join,
    line_graph, parse_graph6, product, rooted_product, subdivide_edge, to_dot,
    total_graph, union, write_graph6,
)
from .graph6 import Graph6Error
from .intset import IntegerSet
from .labeling import SetLabeling, classify, labeling_from_json, labeling_to_json
from .oracle import CHECK_IDS, Corpus, run_check, run_suite
from .search import SearchConfig, find_k_uniform, min_ground_set_size

__all__ = ["main", "console_main"]

_CONSTRUCT_KINDS = ("canonical", "two-uniform", "weakly-uniform", "strongly-uniform")
_BINARY_OPS = ("union", "join") + PRODUCT_KINDS + ("corona", "rooted")
_UNARY_OPS = ("complement", "line", "total", "subdivide", "contract")
_CERTIFICATE_CODES = {"witness": 0, "exhausted": 1, "budget_exceeded": 3}


class _CliError(Exception):
    """Carries a diagnostic for exit code 2."""


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="iasltools",
        description="integer additive set-labelings of finite simple graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--parallel", action="store_true",
                       help="accepted for compatibility; runs serially")
        p.add_argument("--element-bound", type=int, default=None)
        p.add_argument("--size-bound", type=int, default=None)
        p.add_argument("--time-budget", type=float, default=None)

    p = sub.add_parser("classify", help="classify a set-labeling")
    p.add_argument("--graph", help="graph6 string or file (optional if the "
                                   "labeling JSON carries its graph)")
    p.add_argument("--labels", required=True,
                   help="JSON array of integer arrays, a labeling JSON object, "
                        "or a file of labeling JSON lines")
    common(p)

    p = sub.add_parser("construct", help="build a labeling with a fixed recipe")
    p.add_argument("--kind", choices=_CONSTRUCT_KINDS, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=None, help="edge label size target")
    common(p)

    p = sub.add_parser("minsize", help="smallest ground set supporting the graph")
    p.add_argument("--graph", required=True)
    common(p)

    p = sub.add_parser("uniform", help="bounded search for a k-uniform labeling")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("any", "weak", "strong"), default="any")
    common(p)

    p = sub.add_parser("oracle", help="run registered claim checks")
    p.add_argument("action", choices=("run", "list"))
    p.add_argument("target", nargs="?", default="all", help="check id or 'all'")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="override graph corpus size for graph-based checks")
    p.add_argument("--max-element", type=int, default=None,
                   help="override the integer range for arithmetic scans")
    common(p)

    p = sub.add_parser("product", help="derived graphs from the operation toolbox")
    p.add_argument("--kind", choices=_BINARY_OPS + _UNARY_OPS, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", help="second operand (binary operations)")
    p.add_argument("--root", type=int, default=0, help="root vertex (rooted product)")
    p.add_argument("--edge", type=int, nargs=2, metavar=("U", "V"),
                   help="edge to subdivide or contract")
    p.add_argument("--shared", default=None,
                   help="JSON map of second-operand vertex to first-operand "
                        "vertex (union overlap)")
    common(p)

    p = sub.add_parser("convert", help="re-encode a graph (graph6, JSON, DOT)")
    p.add_argument("--graph", required=True)
    common(p)

    return top


# ---------------------------------------------------------------------------
# input plumbing

def _argument_lines(value: str, what: str) -> tuple[list[str], bool]:
    """Literal value, or the non-empty lines of a file (batch mode)."""
    if os.path.isfile(value):
        with open(value, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise _CliError(f"{what} file {value!r} has no non-empty lines")
        return lines, True
    return [value], False


def _parse_graph(text: str) -> Graph:
    try:
        return parse_graph6(text)
    except Graph6Error as exc:
        raise _CliError(f"graph6 input: {exc}") from exc


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(
            f"{what}: line {exc.lineno} column {exc.colno} (byte {exc.pos}): "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise _CliError(f"{what}: arrays or objects nested too deeply") from exc


def _parse_shared(text: str) -> dict[int, int]:
    """--shared: a JSON object mapping second-operand to first-operand ids."""
    raw = _parse_json(text, "shared JSON")
    if not isinstance(raw, dict):
        raise _CliError("shared JSON: expected an object of integer vertex ids")
    for key, value in raw.items():
        if not (key.isdecimal() and str(int(key)) == key and type(value) is int):
            raise _CliError(f"shared JSON: {json.dumps(key)}: {json.dumps(value)} "
                            "is not a pair of integer vertex ids")
    return {int(key): value for key, value in raw.items()}


def _labeling_from_args(graph_text: str | None, labels_text: str) -> SetLabeling:
    payload = _parse_json(labels_text, "labels JSON")
    bare = not isinstance(payload, dict)
    if bare and graph_text is None:
        raise _CliError("--graph is required when --labels is a bare array")
    try:
        if bare:
            return SetLabeling(_parse_graph(graph_text), [IntegerSet(l) for l in payload])
        return labeling_from_json(payload)
    except (ValueError, TypeError) as exc:
        raise _CliError(f"{'labels' if bare else 'labeling JSON'}: {exc}") from exc


def _config(ns) -> SearchConfig:
    flags = ("element_bound", "size_bound", "time_budget")
    return SearchConfig(**{
        name: getattr(ns, name) for name in flags if getattr(ns, name) is not None
    })


def _echo(ns, cfg: SearchConfig) -> dict:
    return {**cfg.to_json(), "format": ns.format}


# ---------------------------------------------------------------------------
# per-line work: each runner returns (exit code, payload or raw string)

def _run_classify(ns, cfg, graph_text, labels_text):
    f = _labeling_from_args(graph_text, labels_text)
    report = classify(f)
    code = 0 if report.is_iasl and report.is_iasi else 1
    if ns.format == "text":
        parts = [
            "IASL" if report.is_iasl else "not IASL",
            "IASI" if report.is_iasi else "not IASI",
        ]
        if report.is_weak:
            parts.append("weak")
        if report.is_strong:
            parts.append("strong")
        if report.edge_uniform_k is not None:
            parts.append(f"k={report.edge_uniform_k}")
        return code, ", ".join(parts)
    return code, {
        "command": "classify",
        "config": _echo(ns, cfg),
        "input": labeling_to_json(f),
        "report": report.to_json(),
    }


def _run_construct(ns, cfg, graph_text):
    g = _parse_graph(graph_text)
    kind = ns.kind
    if kind == "canonical":
        out = canonical_iasi(g)
    elif kind == "two-uniform":
        out = two_uniform_iasi(g)
    elif ns.k is None:
        raise _CliError(f"--k is required for {kind}")
    elif kind == "weakly-uniform":
        out = weakly_uniform_iasi(g, ns.k)
    else:
        out = strongly_uniform_iasi(g, ns.k)
    code = 1 if isinstance(out, NoConstruction) else 0
    if ns.format == "text":
        if code:
            return code, f"none: {out.reason}"
        fixes = f", {len(out.repair_log)} repairs" if out.repaired else ""
        return code, f"ok: {out.note}{fixes}"
    return code, {
        "command": "construct", "kind": kind,
        "config": _echo(ns, cfg), "graph6": write_graph6(g),
        "outcome": out.to_json(),
    }


def _run_minsize(ns, cfg, graph_text):
    g = _parse_graph(graph_text)
    size, cert = min_ground_set_size(g, cfg)
    code = _CERTIFICATE_CODES[cert.kind]
    if ns.format == "text":
        if code == 3:
            return code, "budget exhausted"
        if size is None:
            return code, "none within bounds"
        labels = json.dumps([l.to_list() for l in cert.witness.labels])
        return code, f"{size} with witness {labels}"
    return code, {
        "command": "minsize", "config": _echo(ns, cfg),
        "graph6": write_graph6(g), "size": size,
        "certificate": cert.to_json(),
    }


def _run_uniform(ns, cfg, graph_text):
    g = _parse_graph(graph_text)
    if ns.k < 1:
        raise _CliError("--k must be positive")
    cert = find_k_uniform(g, ns.k, cfg, mode=ns.mode)
    code = _CERTIFICATE_CODES[cert.kind]
    if ns.format == "text":
        if code == 0:
            labels = json.dumps([l.to_list() for l in cert.witness.labels])
            return code, f"witness {labels}"
        return code, "budget exhausted" if code == 3 else "exhausted: none"
    return code, {
        "command": "uniform", "config": _echo(ns, cfg),
        "graph6": write_graph6(g), "k": ns.k, "mode": ns.mode,
        "certificate": cert.to_json(),
    }


def _run_product(ns, cfg, graph_text):
    g = _parse_graph(graph_text)
    kind = ns.kind
    if kind in _BINARY_OPS:
        if ns.graph2 is None:
            raise _CliError(f"--graph2 is required for {kind}")
        h = _parse_graph(ns.graph2)
    elif kind in ("subdivide", "contract") and ns.edge is None:
        raise _CliError(f"--edge U V is required for {kind}")
    extra = {}
    try:
        if kind == "union":
            res = union(g, h, _parse_shared(ns.shared) if ns.shared else {})
            out, extra = res.graph, {"map_first": list(res.map_first),
                                     "map_second": list(res.map_second)}
        elif kind == "join":
            out = join(g, h)
        elif kind in PRODUCT_KINDS:
            out = product(kind, g, h)
        elif kind == "corona":
            out = corona(g, h)
        elif kind == "rooted":
            out = rooted_product(g, h, ns.root)
        elif kind == "complement":
            out = complement(g)
        elif kind == "line":
            res = line_graph(g)
            out, extra = res.graph, {"vertex_edges": [list(e) for e in res.vertex_edges]}
        elif kind == "total":
            res = total_graph(g)
            out = res.graph
            extra = {"vertex_part": list(res.vertex_part),
                     "edge_part": list(res.edge_part)}
        elif kind == "subdivide":
            out = subdivide_edge(g, tuple(ns.edge))
        else:
            res = contract_edge(g, tuple(ns.edge))
            out, extra = res.graph, {"vertex_map": list(res.vertex_map)}
    except GraphError as exc:
        raise _CliError(f"{kind}: {exc}") from exc
    if ns.format == "text":
        return 0, f"{write_graph6(out)} ({out.vertex_count} vertices, " \
                  f"{out.edge_count} edges)"
    body = {
        "command": "product", "kind": kind, "config": _echo(ns, cfg),
        "graph6": write_graph6(out),
        "vertex_count": out.vertex_count, "edge_count": out.edge_count,
    }
    if out.names:
        body["names"] = list(out.names)
    body.update(extra)
    return 0, body


def _run_convert(ns, cfg, graph_text):
    g = _parse_graph(graph_text)
    if ns.format == "dot":
        return 0, to_dot(g)
    if ns.format == "text":
        return 0, write_graph6(g)
    return 0, {
        "command": "convert", "config": _echo(ns, cfg),
        "graph6": write_graph6(g),
        "vertex_count": g.vertex_count,
        "edges": [list(e) for e in g.edges],
    }


def _run_oracle(ns, cfg) -> tuple[int, object]:
    if ns.action == "list":
        if ns.format == "text":
            return 0, "\n".join(CHECK_IDS)
        return 0, {"command": "oracle", "checks": list(CHECK_IDS)}
    corpus = Corpus(max_vertices=ns.max_vertices, max_element=ns.max_element)
    if ns.target == "all":
        suite = run_suite(corpus, cfg)
        verdict = suite.verdict
        payload = {
            "command": "oracle", "target": "all", "config": _echo(ns, cfg),
            **suite.to_json(),
        }
        if ns.format == "text":
            lines = [f"{c.verdict:15s} {c.check_id}" for c in suite.checks]
            lines.append(f"verdict: {verdict}")
            payload = "\n".join(lines)
    else:
        if ns.target not in CHECK_IDS:
            raise _CliError(
                f"unknown check {ns.target!r}; try 'oracle list'"
            )
        check = run_check(ns.target, corpus, cfg)
        verdict = check.verdict
        payload = {
            "command": "oracle", "target": ns.target, "config": _echo(ns, cfg),
            "result": check.to_json(),
        }
        if ns.format == "text":
            payload = f"{verdict} {check.check_id}"
    code = {"pass": 0, "counterexample": 1, "inconclusive": 3}[verdict]
    return code, payload


# ---------------------------------------------------------------------------
# dispatch

def _emit(payload, batch: bool) -> str:
    if isinstance(payload, str):
        return payload
    if batch:
        return json.dumps(payload, sort_keys=True)
    return json.dumps(payload, sort_keys=True, indent=2)


def _combine(codes) -> int:
    for level in (2, 3, 1):
        if level in codes:
            return level
    return 0


def _map_lines(lines, worker, batch):
    """Run worker over batch lines, output order following input order.

    Batch runs trap per-line failures as error records so one bad line
    cannot hide the rest; single runs let the failure surface."""
    if not batch:
        return [worker(lines[0])]
    results = []
    for idx, line in enumerate(lines, 1):
        try:
            results.append(worker(line))
        except (_CliError, ValueError) as exc:
            results.append((2, {"error": f"line {idx}: {exc}"}))
    return results


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    out = sys.stdout
    try:
        cfg = _config(ns)
        if ns.format == "dot" and ns.command != "convert":
            raise _CliError("--format dot is only available for convert")
        if ns.command == "oracle":
            code, payload = _run_oracle(ns, cfg)
            print(_emit(payload, batch=False), file=out)
            return code

        if ns.command == "classify":
            lines, batch = _argument_lines(ns.labels, "labels")
            if batch and ns.graph is not None:
                raise _CliError(
                    "batch classify reads self-contained labeling JSON lines; "
                    "drop --graph"
                )
            worker = lambda line: _run_classify(ns, cfg, ns.graph, line)
        else:
            lines, batch = _argument_lines(ns.graph, "graph")
            runner = {
                "construct": _run_construct,
                "minsize": _run_minsize,
                "uniform": _run_uniform,
                "product": _run_product,
                "convert": _run_convert,
            }[ns.command]
            if ns.command == "uniform":
                cfg.check_label_universe()
            worker = lambda line: runner(ns, cfg, line)

        results = _map_lines(lines, worker, batch)
        for code, payload in results:
            print(_emit(payload, batch), file=out)
        return _combine({code for code, _ in results})
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_BROKEN_PIPE = 141                        # 128 + SIGPIPE, as a shell reports it


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so the interpreter's
        # own flush at exit finds nothing to write (the recipe in the
        # Python docs for the signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = _BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
