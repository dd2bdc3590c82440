"""Command-line behavior: exit codes, formats, batch mode, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from iasltools import oracle, search
from iasltools.cli import main
from iasltools.graph import empty_graph, enumerate_graphs, path_graph, write_graph6


CAP_12_4 = ("error: 1092 labels within {0..12} of size <= 4 exceed the cap of 1023; "
            "lower element_bound or size_bound\n")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestClassify:
    def test_worked_example_text(self):
        code, out, _ = run("classify", "--graph", "A_", "--labels", "[[1],[2]]",
                           "--format", "text")
        assert code == 0
        assert out.strip() == "IASL, IASI, weak, strong, k=1"

    def test_json_report(self):
        code, out, _ = run("classify", "--graph", "A_", "--labels", "[[1],[2]]")
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "classify"
        assert payload["report"]["is_iasi"] is True
        assert payload["config"]["element_bound"] == 8

    def test_failing_labeling_exits_one(self):
        code, out, _ = run("classify", "--graph", "A_", "--labels", "[[1],[1]]")
        assert code == 1
        assert json.loads(out)["report"]["is_iasl"] is False

    def test_self_contained_labeling_object(self):
        code, out, _ = run("classify", "--labels",
                           '{"graph6": "A_", "labels": [[1], [2]]}')
        assert code == 0

    def test_bare_array_requires_graph(self):
        code, _, err = run("classify", "--labels", "[[1],[2]]")
        assert code == 2
        assert "--graph" in err

    def test_label_count_mismatch(self):
        code, _, err = run("classify", "--graph", "A_", "--labels", "[[1]]")
        assert code == 2

    @pytest.mark.parametrize("argv, err", [
        (("--labels", '{"graph6": "A_", "labels": [[0], 5]}'),
         'labeling JSON: "labels" must be a list of integer lists'),
        (("--labels", '{"graph6": "A_", "labels": 5}'),
         'labeling JSON: "labels" must be a list of integer lists'),
        (("--labels", '{"graph6": "A_", "labels": [[0], "ab"]}'),
         'labeling JSON: "labels" must be a list of integer lists'),
        (("--labels", '{"graph6": 5, "labels": [[0], [1]]}'),
         'labeling JSON: "graph6" must be a string'),
        (("--labels", '{"graph6": "A_", "labels": [[0], [true]]}'),
         "labeling JSON: elements must be integers"),
        (("--graph", "A_", "--labels", "[[0],[true]]"),
         "labels: elements must be integers"),
    ], ids=["label-int", "labels-int", "label-str", "graph6-int", "label-true",
            "bare-true"])
    def test_malformed_labeling_exits_two(self, argv, err):
        code, out, stderr = run("classify", *argv, "--format", "text")
        assert (code, out, stderr) == (2, "", f"error: {err}\n")


class TestDiagnostics:
    def test_malformed_graph6_names_byte(self):
        code, out, err = run("classify", "--graph", "@bad",
                             "--labels", "[[1],[2]]")
        assert code == 2
        assert not out
        assert "byte" in err

    def test_malformed_json_names_position(self):
        code, _, err = run("classify", "--graph", "A_", "--labels", "[[1],")
        assert code == 2
        assert "line 1" in err and "byte" in err

    @pytest.mark.parametrize("argv", [
        ("classify", "--graph", "A_", "--labels"),
        ("product", "--kind", "union", "--graph", "A_", "--graph2", "A_", "--shared"),
    ], ids=["labels", "shared"])
    def test_deeply_nested_json_exits_two(self, argv):
        code, out, err = run(*argv, "[" * 5000 + "]" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_unknown_flag(self):
        code, _, _ = run("classify", "--graph", "A_", "--labels", "[[1],[2]]",
                         "--bogus")
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = run("--help")
        assert code == 0

    def test_dot_format_restricted(self):
        code, _, err = run("classify", "--graph", "A_", "--labels", "[[1],[2]]",
                           "--format", "dot")
        assert code == 2
        assert "convert" in err


class TestConstruct:
    def test_canonical(self):
        code, out, _ = run("construct", "--kind", "canonical", "--graph", "Bw")
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"]["constructed"] is True
        assert payload["outcome"]["labeling"]["labels"] == [[1], [2], [4]]

    def test_refusal_exits_one(self):
        code, out, _ = run("construct", "--kind", "two-uniform", "--graph", "Bw")
        payload = json.loads(out)
        assert code == 1
        assert payload["outcome"]["constructed"] is False
        assert payload["outcome"]["odd_cycle"] == [0, 1, 2]

    def test_uniform_kinds_need_k(self):
        code, _, err = run("construct", "--kind", "weakly-uniform",
                           "--graph", "A_")
        assert code == 2
        assert "--k" in err

    @pytest.mark.parametrize("kind, k", [
        ("weakly-uniform", "1"),
        ("strongly-uniform", "0"),
    ])
    def test_library_value_error_exits_two(self, kind, k):
        code, out, err = run("construct", "--kind", kind, "--graph", "Bw", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error: k must be")
        assert "Traceback" not in err

    def test_canonical_beyond_element_bound_exits_two(self):
        code, out, err = run("construct", "--kind", "canonical",
                             "--graph", write_graph6(path_graph(21)))
        assert (code, out) == (2, "")
        assert err == "error: sum 2^19+2^20=1572864 on edge (19,20) exceeds bound 1048576\n"

    def test_two_uniform_past_vertex_twenty_exits_two(self):
        assert run("construct", "--kind", "two-uniform",
                   "--graph", write_graph6(empty_graph(22))) == (
            2, "", "error: element 2^21=2097152 of vertex 21 exceeds bound 1048576\n")

    @pytest.mark.parametrize("k", [10 ** 400, (2 ** 53 + 1) ** 2],
                             ids=["past-float", "square-past-float-precision"])
    def test_huge_square_k_exits_two(self, k):
        # both are perfect squares: the square branch refuses its
        # progressions at the element bound, even on the triangle Bw
        root = isqrt(k)
        assert run("construct", "--kind", "strongly-uniform", "--graph", "Bw",
                   "--k", str(k)) == (
            2, "", f"error: a {root}-term progression with a prime difference above "
                   f"{root} exceeds bound 1048576\n")

    def test_weakly_uniform(self):
        code, out, _ = run("construct", "--kind", "weakly-uniform",
                           "--graph", "Cl", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["labeling"]["labels"] == [
            [0], [0, 1, 2], [1], [4, 5, 6]]


class TestSearchCommands:
    def test_minsize_worked_example(self):
        code, out, _ = run("minsize", "--graph", "Bw", "--format", "text")
        assert code == 0
        assert out.strip() == "2 with witness [[0], [1], [0, 1]]"

    def test_minsize_json(self):
        code, out, _ = run("minsize", "--graph", "Bw")
        payload = json.loads(out)
        assert payload["size"] == 2
        assert payload["certificate"]["kind"] == "witness"

    def test_uniform_witness(self):
        code, out, _ = run("uniform", "--graph", "Bw", "--k", "3")
        assert code == 0
        assert json.loads(out)["certificate"]["kind"] == "witness"

    def test_uniform_exhausted_exits_one(self):
        code, out, _ = run("uniform", "--graph", "Bw", "--k", "2",
                           "--element-bound", "6", "--size-bound", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["certificate"]["kind"] == "exhausted"
        assert payload["config"]["element_bound"] == 6

    def test_budget_exits_three(self):
        code, out, _ = run("minsize", "--graph", "D~{", "--time-budget", "0.0")
        assert code == 3
        assert json.loads(out)["certificate"]["kind"] == "budget_exceeded"

    @pytest.mark.parametrize("argv,field", [
        (("uniform", "--graph", "Bw", "--k", "2", "--element-bound", "-1",
          "--format", "text"), "element_bound"),
        (("minsize", "--graph", "Bw", "--time-budget", "nan"), "time_budget"),
        (("uniform", "--graph", "Bw", "--k", "2", "--element-bound", "10",
          "--size-bound", "9"), "labels within {0..10}"),
        (("uniform", "--graph", "Bw", "--k", "0"), "--k must be positive"),
        (("minsize", "--graph", "Bw", "--time-budget", "inf"), "time_budget"),
        (("uniform", "--graph", "Bw", "--k", "2", "--time-budget", "1e309"),
         "time_budget"),
    ])
    def test_meaningless_search_config_exits_two(self, argv, field):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err

    def test_minsize_ignores_size_bound(self):
        # the label-universe cap belongs to the k-uniform search only
        outs = [run("minsize", "--graph", "Bw", "--element-bound", "12",
                    "--size-bound", s, "--format", "text") for s in ("4", "3")]
        assert outs[0] == outs[1] == (0, "2 with witness [[0], [1], [0, 1]]\n", "")

    def test_uniform_mode_flag(self):
        code, out, _ = run("uniform", "--graph", "Bw", "--k", "3",
                           "--mode", "weak")
        assert code == 1


class TestOracleCommand:
    def test_list(self):
        code, out, _ = run("oracle", "list", "--format", "text")
        assert code == 0
        assert len(out.strip().splitlines()) == 21

    def test_single_check(self):
        code, out, _ = run("oracle", "run", "edge-size-bounds",
                           "--max-element", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["verdict"] == "pass"

    def test_unknown_check(self):
        code, _, err = run("oracle", "run", "bogus-check")
        assert code == 2
        assert "oracle list" in err

    @pytest.mark.parametrize("argv", [
        ("edge-size-bounds", "--max-element", "-1"),
        ("iasl-existence", "--max-vertices", "9"),
        ("iasl-existence", "--max-vertices", "0"),
        ("all", "--max-vertices", "7"),
        ("edge-size-bounds", "--max-element", "13"),
    ])
    def test_meaningless_corpus_exits_two(self, argv):
        code, out, err = run("oracle", "run", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: max_")

    def test_corpus_override(self):
        code, out, _ = run("oracle", "run", "two-uniform-iff-bipartite",
                           "--max-vertices", "3")
        assert code == 0
        assert "3" in json.loads(out)["result"]["corpus"]

    def test_rejected_label_universe_runs_no_check(self, monkeypatch):
        ran = []
        monkeypatch.setattr(oracle, "run_check", lambda cid, *a: ran.append(cid))
        assert run("oracle", "run", "all", "--element-bound", "12") == (2, "", CAP_12_4)
        assert ran == []

    def test_rejected_label_universe_exits_two_even_if_no_search_runs(self):
        # every connected graph on at most 2 vertices is bipartite, so no
        # uniform check would search; the cap is still checked up front
        assert run("oracle", "run", "all", "--max-vertices", "2",
                   "--element-bound", "12") == (2, "", CAP_12_4)


    @pytest.mark.parametrize("check", ["two-uniform-iff-bipartite",
                                       "edge-size-equals-class-count"])
    def test_single_check_refuses_the_same_bounds(self, check):
        # neither check would search here; one check refuses what all refuse
        assert run("oracle", "run", check, "--max-vertices", "2",
                   "--element-bound", "12") == (2, "", CAP_12_4)


class TestProductConvert:
    def test_cartesian(self):
        code, out, _ = run("product", "--kind", "cartesian",
                           "--graph", "A_", "--graph2", "A_")
        payload = json.loads(out)
        assert code == 0
        assert payload["vertex_count"] == 4
        assert payload["edge_count"] == 4
        assert payload["names"][1] == "(0,1)"

    def test_binary_requires_second_operand(self):
        code, _, err = run("product", "--kind", "join", "--graph", "A_")
        assert code == 2
        assert "--graph2" in err

    def test_line(self):
        code, out, _ = run("product", "--kind", "line", "--graph", "Bw")
        payload = json.loads(out)
        assert payload["graph6"] == "Bw"
        assert payload["vertex_edges"] == [[0, 1], [0, 2], [1, 2]]

    @pytest.mark.parametrize("kind", ["subdivide", "contract"])
    def test_contract_needs_edge(self, kind):
        assert run("product", "--kind", kind, "--graph", "Bw") == (
            2, "", f"error: --edge U V is required for {kind}\n")

    def test_subdivide(self):
        code, out, _ = run("product", "--kind", "subdivide", "--graph", "Bw",
                           "--edge", "0", "1")
        payload = json.loads(out)
        assert payload["vertex_count"] == 4

    @pytest.mark.parametrize("kind", ["subdivide", "contract"])
    def test_negative_endpoint_is_not_an_edge(self, kind):
        # -1 must not wrap around to the last vertex, which is adjacent to 0
        assert run("product", "--kind", kind, "--graph", "Bw", "--edge", "-1", "0") == (
            2, "", f"error: {kind}: edge (-1,0) not in graph\n")

    @pytest.mark.parametrize("shared, err", [
        ("[1]", "expected an object of integer vertex ids"),
        ("5", "expected an object of integer vertex ids"),
        ('{"0": true}', '"0": true is not a pair of integer vertex ids'),
        ('{"0": 1.7}', '"0": 1.7 is not a pair of integer vertex ids'),
        ('{"x": 1}', '"x": 1 is not a pair of integer vertex ids'),
    ], ids=["array", "number", "bool-value", "float-value", "word-key"])
    def test_shared_must_map_integer_ids(self, shared, err):
        assert run("product", "--kind", "union", "--graph", "Bw", "--graph2", "A_",
                   "--shared", shared) == (2, "", f"error: shared JSON: {err}\n")

    def test_convert_json_preserves_structure(self):
        code, out, _ = run("convert", "--graph", "Bw")
        payload = json.loads(out)
        assert payload["vertex_count"] == 3
        assert payload["edges"] == [[0, 1], [0, 2], [1, 2]]

    def test_convert_dot_preserves_counts(self):
        code, out, _ = run("convert", "--graph", "Bw", "--format", "dot")
        assert code == 0
        assert out.count("--") == 3
        assert out.count("label=") == 3


class TestPinnedPaths:
    """Exit code and SHA-256 of stdout for command paths that no other
    test runs in process.  A change that alters these bytes must update
    the digests on purpose."""

    @pytest.mark.parametrize("argv, code, digest", [
        (("product", "--kind", "union", "--graph", "A_", "--graph2", "A_"), 0,
         "73595a6f0b6beeab2a8d32050a1c65bdf0f3b6ae39f9a80fa658cba3d61a72a7"),
        (("product", "--kind", "union", "--graph", "Bw", "--graph2", "A_",
          "--shared", '{"0": 1}'), 0,
         "ca12c1286bbea40c1490024cf52f488c62870e76490fd91440296c780181e2e7"),
        (("product", "--kind", "join", "--graph", "A_", "--graph2", "Bw"), 0,
         "b1689e24105b0afabb58e4330a7239d09082040659852a40f22ed03d12646ac4"),
        (("product", "--kind", "corona", "--graph", "A_", "--graph2", "Bw"), 0,
         "660fa7f618dc80d63b672a80295315fcd943fe88ee8ca46b0d9c8edf23790e1b"),
        (("product", "--kind", "rooted", "--graph", "Bw", "--graph2", "A_",
          "--root", "1"), 0,
         "2cef844abb08fc4c50bb67f91b66b17eeb290c644815193fd17a06ec9a8cf6ed"),
        (("product", "--kind", "complement", "--graph", "Cr"), 0,
         "63d6b47099d45ec28d898990a2e5a6bad400115ef078fef2bfe0ddee8a6e3d04"),
        (("product", "--kind", "total", "--graph", "Bw"), 0,
         "76de201abc5764c6abb9d8ac1d60de09165c468bceb3a762f7bb311149bfdf3c"),
        (("product", "--kind", "contract", "--graph", "Bw", "--edge", "0", "1"), 0,
         "38d502b86b7e0df9d5fcb0663265db422d11e9056abc8f0347ac343fa7f6fa24"),
        (("product", "--kind", "cartesian", "--graph", "A_", "--graph2", "Bw",
          "--format", "text"), 0,
         "cb2d4ab08a1cd851e409923c7f449d680d9b66b965f0a34e4d66e1a0605b80b1"),
        (("construct", "--kind", "canonical", "--graph", "Bw", "--format", "text"), 0,
         "46c4fcbb63910c0eb56b4fe2f70991397a15bbfc58754230d2c176e0706f25d3"),
        (("construct", "--kind", "two-uniform", "--graph", "Bw", "--format", "text"), 1,
         "6431ea5d3cf5af22ea8233b9539980a71ffae1ad0c0f264bb76bdf85ca9827e4"),
        (("construct", "--kind", "strongly-uniform", "--graph", "Cr", "--k", "4",
          "--format", "text"), 0,
         "cf71a4071600cc1dae917ca6c1545ffa0b20fd3188a86741ab192261b5bb495d"),
        (("minsize", "--graph", "Bw", "--element-bound", "0"), 1,
         "66a77878e1fe09111600a25671de50b534a8a8dcf0b86b1e9a0db3699ea7cb41"),
        (("minsize", "--graph", "Bw", "--element-bound", "0", "--format", "text"), 1,
         "4ed575b80e239450ac5a222993f307f30776e4807a7f0f5af40929dc5fccad2b"),
        (("minsize", "--graph", "Bw", "--time-budget", "0"), 3,
         "96b2f82a65d5126b577f1cf6dffc8912432a1c9d73dcf1c3a70046083b34afc1"),
        (("minsize", "--graph", "Bw", "--time-budget", "0", "--format", "text"), 3,
         "16628cde04e2b3b729626b6de4e4c1073e7ad666442486776d0c273c0ff58725"),
        (("uniform", "--graph", "Bw", "--k", "3", "--format", "text"), 0,
         "09129384f750f6180bf181758f2ef0ccb6c525b8ba64e535715f06b804f6a9f6"),
        (("uniform", "--graph", "Bw", "--k", "2", "--element-bound", "6",
          "--size-bound", "3", "--format", "text"), 1,
         "0c3a10022925aa4227da8523e4fd3764026599cc64262b17757099fa374b7fce"),
        (("uniform", "--graph", "Bw", "--k", "3", "--time-budget", "0"), 3,
         "7dc651a35732f4f42259a04557f073f17d1de0479ed205b10422a776fc5bc461"),
        (("uniform", "--graph", "Bw", "--k", "3", "--time-budget", "0",
          "--format", "text"), 3,
         "16628cde04e2b3b729626b6de4e4c1073e7ad666442486776d0c273c0ff58725"),
        (("convert", "--graph", "Bw", "--format", "text"), 0,
         "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e"),
        (("oracle", "list"), 0,
         "5ca05ec57b1b9bd8289c3b375cf132072f83b90d4a9115f3fb353ebc61d70665"),
        (("oracle", "run", "edge-size-bounds", "--max-element", "3",
          "--format", "text"), 0,
         "68647562e41855a7fe99cf7df68f4b1c870f33a468e1b9459701f5655ce4113e"),
        (("oracle", "run", "all", "--max-vertices", "2", "--max-element", "2",
          "--format", "text"), 0,
         "d00ae3f861a9e4bdafdbd0210705ca1e5ed49d0646ef3fc261ccbc0b80893f2f"),
    ], ids=[
        "union", "union-shared", "join", "corona", "rooted", "complement", "total",
        "contract",
        "product-text", "construct-text", "construct-none-text",
        "construct-strong-text", "minsize-exhausted", "minsize-exhausted-text",
        "minsize-budget", "minsize-budget-text", "uniform-witness-text",
        "uniform-exhausted-text", "uniform-budget", "uniform-budget-text",
        "convert-text", "oracle-list", "oracle-run-text", "oracle-run-all-text",
    ])
    def test_stdout_digest(self, argv, code, digest):
        got, out, err = run(*argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBatch:
    def test_maps_lines_in_order(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\nCr\n")
        code, out, _ = run("minsize", "--graph", str(path))
        sizes = [json.loads(l)["size"] for l in out.strip().splitlines()]
        assert code == 0
        assert sizes == [2, 2, 3]

    def test_bad_line_reported_in_place(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\n@bad\nBw\n")
        code, out, _ = run("minsize", "--graph", str(path))
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 2
        assert "size" in lines[0]
        assert "line 2" in lines[1]["error"]
        assert "size" in lines[2]

    def test_library_value_error_reported_in_place(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\n")
        code, out, _ = run("construct", "--kind", "weakly-uniform",
                           "--graph", str(path), "--k", "1")
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 2
        assert [l["error"] for l in lines] == [
            "line 1: k must be at least 2, got 1",
            "line 2: k must be at least 2, got 1",
        ]

    @pytest.mark.parametrize("k, searches", [(2, 1), (3, 5)])
    def test_uniform_batch_shares_odd_cycle_verdicts(self, tmp_path, monkeypatch,
                                                     k, searches):
        """One invocation searches C3 once: at k=2 it refutes every line, at
        k=3 its witness sends each line to its own search.  Each line is
        the payload of the graph's own run."""
        lines = ["C~", "D~{", "Cx", "Bw"]            # K4, K5, a paw, K3
        flags = ("--k", str(k), "--element-bound", "5", "--size-bound", "3")
        singles = [json.dumps(json.loads(run("uniform", "--graph", g, *flags)[1]),
                              sort_keys=True) for g in lines]
        search._uniform_table.cache_clear()          # the batch starts cold
        calls = []
        backtrack = search._backtrack
        monkeypatch.setattr(search, "_backtrack",
                            lambda *args: calls.append(1) or backtrack(*args))
        path = tmp_path / "graphs.g6"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run("uniform", "--graph", str(path), *flags)
        assert out.splitlines() == singles
        assert len(calls) == searches
        assert code == 1                              # K5 is exhausted at both k

    def test_file_without_graphs_exits_two(self, tmp_path):
        path = tmp_path / "blank.g6"
        path.write_text("\n  \n\n")
        assert run("uniform", "--graph", str(path), "--k", "2") == (
            2, "", f"error: graph file {str(path)!r} has no non-empty lines\n")

    def test_rejected_label_universe_is_one_error(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\nCr\nD~{\n")
        assert run("uniform", "--graph", str(path), "--k", "2",
                   "--element-bound", "12") == (2, "", CAP_12_4)

    def test_parallel_is_byte_identical(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("A_\nBw\nCr\nD~{\nDqK\n")
        _, serial, _ = run("uniform", "--graph", str(path), "--k", "2")
        _, parallel, _ = run("uniform", "--graph", str(path), "--k", "2",
                             "--parallel")
        assert serial == parallel

    def test_classify_batch_reads_labeling_lines(self, tmp_path):
        path = tmp_path / "labelings.jsonl"
        path.write_text(
            '{"graph6": "A_", "labels": [[1], [2]]}\n'
            '{"graph6": "A_", "labels": [[1], [1]]}\n'
        )
        code, out, _ = run("classify", "--labels", str(path))
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 1
        assert lines[0]["report"]["is_iasl"] is True
        assert lines[1]["report"]["is_iasl"] is False

    def test_malformed_labeling_line_reported_in_place(self, tmp_path):
        path = tmp_path / "labelings.jsonl"
        path.write_text(
            '{"graph6": "A_", "labels": [[1], [2]]}\n'
            '{"graph6": "A_", "labels": [[0], 5]}\n'
            '{"graph6": "A_", "labels": [[0], [true]]}\n'
            '{"graph6": "A_", "labels": [[1], [1]]}\n'
        )
        code, out, _ = run("classify", "--labels", str(path))
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 2
        assert lines[0]["report"]["is_iasl"] is True
        assert lines[1:3] == [
            {"error": 'line 2: labeling JSON: "labels" must be a list of integer lists'},
            {"error": "line 3: labeling JSON: elements must be integers"},
        ]
        assert lines[3]["report"]["is_iasl"] is False

    def test_classify_batch_rejects_graph_flag(self, tmp_path):
        path = tmp_path / "labelings.jsonl"
        path.write_text('{"graph6": "A_", "labels": [[1], [2]]}\n')
        code, _, err = run("classify", "--graph", "A_", "--labels", str(path))
        assert code == 2


class TestEntryPoints:
    @staticmethod
    def _cli_env():
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return {**os.environ, "PYTHONPATH": path}

    @pytest.mark.parametrize("module", ["iasltools", "iasltools.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        env = self._cli_env()

        def oracle_list(*interpreter_args):
            return subprocess.run(
                [sys.executable, *interpreter_args, "oracle", "list"],
                capture_output=True, text=True, env=env, timeout=120,
            )

        script = oracle_list("-c", "from iasltools.cli import console_main; console_main()")
        assert script.returncode == 0
        assert json.loads(script.stdout)["checks"] == list(oracle.CHECK_IDS)
        ran = oracle_list("-m", module)
        assert (ran.returncode, ran.stdout) == (script.returncode, script.stdout)
        # no runpy warning: importing the package must not import cli first
        assert ran.stderr == ""

    def test_minsize_on_a_thousand_vertices(self):
        # an edgeless graph: 1,000 twins, searched without recursion
        ran = subprocess.run(
            [sys.executable, "-m", "iasltools", "minsize",
             "--graph", write_graph6(empty_graph(1000)),
             "--element-bound", "12", "--size-bound", "3"],
            capture_output=True, text=True, env=self._cli_env(), timeout=120,
        )
        assert (ran.returncode, ran.stderr) == (0, "")
        assert json.loads(ran.stdout)["size"] == 10

    def test_reader_closing_the_pipe_early(self, tmp_path):
        """`minsize --graph FILE | head -1`: the output is several times a
        pipe's default 64 KiB, so the writer meets the closed pipe."""
        graphs = list(enumerate_graphs(6, connected_only=True))[:500]
        path = tmp_path / "batch.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        proc = subprocess.Popen(
            [sys.executable, "-m", "iasltools", "minsize", "--graph", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._cli_env(),
        )
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert stderr == b""
        assert first["graph6"] == write_graph6(graphs[0])

    def test_reader_gone_before_the_first_write(self):
        """A short output still buffered at the end meets the closed pipe on
        the final flush, and then not again when the interpreter exits."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            ran = subprocess.run(
                [sys.executable, "-m", "iasltools", "oracle", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=self._cli_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (ran.returncode, ran.stderr) == (141, b"")


class TestDeterminism:
    COMMANDS = [
        ("classify", "--graph", "A_", "--labels", "[[1],[2]]"),
        ("construct", "--kind", "canonical", "--graph", "Cr"),
        ("minsize", "--graph", "Bw"),
        ("uniform", "--graph", "Cr", "--k", "2"),
        ("product", "--kind", "strong", "--graph", "A_", "--graph2", "A_"),
        ("convert", "--graph", "Bw"),
        ("oracle", "run", "saturated-class-size", "--max-element", "3"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_double_run_identical(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second


# ---------------------------------------------------------------------------
# every input ends in a verdict or one diagnostic line

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_INTS = st.sampled_from(["0", "1", "2", "3", "-1", "12", "13", str(10 ** 30)])
_BUDGETS = st.sampled_from(["0", "0.05", "0.1", "-0.5", "nan", "inf", "1e309"])
_SMALL_GRAPHS = ["Bw", "Cr", "C~", "D~{", "A_", "@", "", "~", "B", "Bx", "C~~",
                 "~?@", "A\x7f", "Dé"]
_THOUSAND = write_graph6(empty_graph(1000))
_GRAPHS = st.one_of(st.sampled_from(_SMALL_GRAPHS), st.just(_THOUSAND))
_JSON = st.sampled_from([
    "[[1],[2]]", "[[1],[1]]", "[[-1],[2]]", "[[1048577],[2]]", "[[true],[2]]",
    "[[1e999],[2]]", "[[NaN],[2]]", "[]", "{}", '{"graph6": "A_", "labels": [[1], [2]]}',
    '{"5": 0}', '{"0": 99}', '{"01": 0}', "[" * 100_000 + "]" * 100_000,
])
_COMMON = {"--element-bound": _INTS, "--size-bound": _INTS,
           "--format": st.sampled_from(["json", "text", "dot"])}


def _command(*words, required, optional):
    """argv for one subcommand: the required flags, then any of the optional."""
    def argv(flags):
        out = list(words)
        for flag, value in flags.items():
            out += [flag, *value] if isinstance(value, tuple) else [flag, value]
        return out
    return st.fixed_dictionaries(required, optional={**_COMMON, **optional}).map(argv)


_ARGV = st.one_of(
    _command("minsize", required={"--graph": _GRAPHS, "--time-budget": _BUDGETS},
             optional={}),
    _command("uniform", required={"--graph": _GRAPHS, "--k": _INTS,
                                  "--time-budget": _BUDGETS},
             optional={"--mode": st.sampled_from(["any", "weak", "strong"])}),
    _command("classify", required={"--labels": _JSON}, optional={"--graph": _GRAPHS}),
    _command("construct", required={
        "--kind": st.sampled_from(["canonical", "two-uniform", "weakly-uniform",
                                   "strongly-uniform"]),
        "--graph": _GRAPHS}, optional={"--k": _INTS}),
    _command("product", required={
        "--kind": st.sampled_from(["union", "join", "cartesian", "corona", "rooted",
                                   "complement", "line", "subdivide", "contract"]),
        "--graph": st.sampled_from(_SMALL_GRAPHS)},
        optional={"--graph2": st.sampled_from(_SMALL_GRAPHS), "--root": _INTS,
                  "--edge": st.tuples(_INTS, _INTS), "--shared": _JSON}),
    _command("convert", required={"--graph": _GRAPHS}, optional={}),
    _command("oracle", "list", required={}, optional={}),
    _command("oracle", "run", "no-such-check", required={}, optional={}),
)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestHostileInput:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_ARGV)
    @example(["minsize", "--graph", _THOUSAND, "--element-bound", "12", "--size-bound", "3"])
    @example(["construct", "--kind", "strongly-uniform", "--graph", "Bw", "--k", str(10 ** 400)])
    def test_verdict_or_one_error_line(self, argv):
        # Hypothesis lifts the recursion limit by 2,000 while a test runs;
        # give main the 1,000 free frames of a fresh interpreter instead
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 1000)
        try:
            code, out, err = run(*argv)
        finally:
            sys.setrecursionlimit(limit)
        assert code in (0, 1, 2, 3)             # 141 needs a closed pipe
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
            if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
                json.loads(out, parse_constant=_reject_constant)
