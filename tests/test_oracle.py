"""The claim-check registry: verdicts, fault injection, certificates."""

import hashlib
import itertools
import json

import pytest

from iasltools.graph import (
    complete_graph, cycle_graph, empty_graph, enumerate_graphs, parse_graph6,
    path_graph, star_graph, write_graph6,
)
from iasltools import oracle, search
from iasltools.intset import IntegerSet, sumset
from iasltools.labeling import (
    ClassificationReport, SetLabeling, classify, labeling_to_json,
    strong_structure_check, weak_structure_check,
)
from iasltools.oracle import CHECK_IDS, Corpus, run_check, run_suite
from iasltools.search import MAX_ELEMENT_BOUND, Certificate, SearchConfig


SMALL = Corpus(max_vertices=3, max_element=3)

WEAK_STRONG = ("weak-iff-singleton-endpoints", "strong-iff-disjoint-differences")

# over the 14 labels within {0..3}: 196 + 1 + 1 + 1 labelings put the first
# stride-199 cross-check on the last labeling of a graph, a 0-vertex one
STRIDE_GRAPHS = (path_graph(2), empty_graph(0), empty_graph(0), empty_graph(0),
                 path_graph(3), complete_graph(3), star_graph(3))
STRIDE_CORPUS = Corpus(graphs=STRIDE_GRAPHS, max_element=3, max_label_size=3)


def labels_up_to(max_element, max_size):
    """Non-empty subsets of {0..max_element} of at most max_size elements,
    ascending by bitmask."""
    return [
        tuple(e for e in range(max_element + 1) if mask >> e & 1)
        for mask in range(1, 1 << (max_element + 1))
        if bin(mask).count("1") <= max_size
    ]


def reference_walk(graphs, labels, lhs_table, rhs_table, lhs_fn, rhs_fn):
    """Every labeling of every graph in itertools.product order, compared on
    both tables, with lhs_fn and rhs_fn checked on every 199th labeling:
    the first five records and the number of labelings."""
    records = []
    index = 0
    for g in graphs:
        for combo in itertools.product(labels, repeat=g.vertex_count):
            index += 1
            left = all(lhs_table(combo[u], combo[v]) for u, v in g.edges)
            right = all(rhs_table(combo[u], combo[v]) for u, v in g.edges)
            if left != right:
                records.append({
                    "graph6": write_graph6(g), "labels": [list(s) for s in combo],
                    "classify_side": left, "structure_side": right,
                })
            if index % 199 == 0:
                f = SetLabeling(g, [IntegerSet(s) for s in combo])
                if lhs_fn(f) != left or rhs_fn(f)[0] != right:
                    records.append({
                        "graph6": write_graph6(g), "labels": [list(s) for s in combo],
                        "note": "table path disagrees with classify path",
                    })
    return records[:5], index


class TestRegistry:
    def test_count_and_order_stable(self):
        # `oracle list` and `oracle run all` print in this order
        assert CHECK_IDS == (
            "iasl-existence",
            "iasi-existence",
            "subgraph-heredity",
            "ground-set-lower-bound",
            "uniform-ground-set-binomial",
            "edge-size-bounds",
            "edge-size-product-minus-neglect",
            "saturated-class-size",
            "adjacent-edge-ratio",
            "uniform-iasl-ratio-condition",
            "uniform-vertices-equal-neglect",
            "two-uniform-iff-bipartite",
            "max-identity-iff-singleton-endpoint",
            "weak-iff-singleton-endpoints",
            "weakly-uniform-iff-bipartite",
            "max-sumset-iff-disjoint-differences",
            "strong-iff-disjoint-differences",
            "strongly-uniform-iff-bipartite-or-square",
            "line-graph-formula-iasi",
            "total-graph-formula-iasi",
            "edge-size-equals-class-count",
        )

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown check"):
            run_check("no-such-check")

    def test_every_check_passes_on_small_corpus(self):
        for cid in CHECK_IDS:
            check = run_check(cid, corpus=SMALL)
            assert check.verdict == "pass", (cid, check.counterexamples[:1])

    def test_json_schema(self):
        check = run_check("edge-size-bounds", corpus=Corpus(max_element=3))
        payload = json.loads(json.dumps(check.to_json(), sort_keys=True))
        assert payload["check"] == "edge-size-bounds"
        assert payload["verdict"] == "pass"
        assert payload["counterexamples"] == []
        assert "{0..3}" in payload["corpus"]
        assert payload["config"]["element_bound"] == 8

    def test_descriptions_scope_the_domain(self):
        check = run_check("two-uniform-iff-bipartite", corpus=SMALL)
        assert "3" in check.corpus


class TestCorpus:
    @pytest.mark.parametrize("field, value", [
        ("max_element", -1),
        ("max_vertices", 0),
        ("max_vertices", 7),
        ("max_label_size", 0),
        ("ks", ()),
        ("ks", (2, 0)),
    ])
    def test_meaningless_domains_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Corpus(**{field: value})

    def test_boundary_values_accepted(self):
        Corpus(max_element=0, max_vertices=1, max_label_size=1, ks=(1,))
        Corpus(max_vertices=6)

    def test_max_element_capped_at_the_search_bound(self):
        # the arithmetic checks enumerate every subset of {0..max_element}
        with pytest.raises(ValueError, match="max_element must be at most 12, got 13"):
            Corpus(max_element=MAX_ELEMENT_BOUND + 1)
        assert Corpus(max_element=MAX_ELEMENT_BOUND).max_element == MAX_ELEMENT_BOUND

    def test_only_none_means_default(self):
        check = run_check("edge-size-bounds", corpus=Corpus(max_element=0))
        assert check.verdict == "pass"
        assert "{0..0}" in check.corpus
        assert check.details == {"pairs": 1}


class TestVerdicts:
    def test_empty_domain_is_inconclusive(self):
        check = run_check("iasi-existence", corpus=Corpus(graphs=()))
        assert check.verdict == "inconclusive"
        assert check.reason == "empty domain"

    def test_empty_graph_corpus_leaves_arithmetic_checks_alone(self):
        suite = run_suite(Corpus(graphs=(), max_element=2))
        verdicts = {c.check_id: (c.verdict, c.reason) for c in suite.checks}
        graph_free = {
            "edge-size-bounds", "edge-size-product-minus-neglect",
            "saturated-class-size", "adjacent-edge-ratio",
            "max-identity-iff-singleton-endpoint",
            "max-sumset-iff-disjoint-differences", "edge-size-equals-class-count",
        }
        for cid, verdict in verdicts.items():
            expected = ("pass", "") if cid in graph_free else ("inconclusive", "empty domain")
            assert verdict == expected, cid

    def test_budget_is_inconclusive(self):
        check = run_check(
            "ground-set-lower-bound",
            corpus=Corpus(graphs=(complete_graph(4),)),
            config=SearchConfig(time_budget=0.0),
        )
        assert check.verdict == "inconclusive"
        assert check.reason == "budget"

    @pytest.mark.parametrize("cid", [
        "two-uniform-iff-bipartite",
        "weakly-uniform-iff-bipartite",
        "strongly-uniform-iff-bipartite-or-square",
    ])
    def test_uniform_search_budget_is_inconclusive(self, cid):
        check = run_check(
            cid,
            corpus=Corpus(graphs=(complete_graph(4),), ks=(2,)),
            config=SearchConfig(time_budget=0.0),
        )
        assert check.verdict == "inconclusive"
        assert check.reason == "budget"
        assert check.details == {}

    def test_weakly_uniform_skips_k_below_two(self):
        check = run_check("weakly-uniform-iff-bipartite",
                          Corpus(max_vertices=2, ks=(1,)))
        assert (check.verdict, check.reason) == ("inconclusive", "empty domain")
        mixed = run_check("weakly-uniform-iff-bipartite",
                          Corpus(max_vertices=3, ks=(1, 2)))
        alone = run_check("weakly-uniform-iff-bipartite",
                          Corpus(max_vertices=3, ks=(2,)))
        assert mixed.verdict == "pass"
        assert mixed.details == alone.details

    @pytest.mark.parametrize("cid", [
        "uniform-iasl-ratio-condition", "uniform-vertices-equal-neglect",
    ])
    def test_supplied_graphs_are_described_as_supplied(self, cid):
        default = run_check(cid, Corpus(max_element=2))
        assert default.corpus.startswith("connected test graphs, ")
        supplied = run_check(cid, Corpus(graphs=(path_graph(3),), max_element=2))
        assert supplied.corpus.startswith("1 supplied graphs, ")
        empty = run_check(cid, Corpus(graphs=()))
        assert empty.corpus.startswith("0 supplied graphs, ")
        assert (empty.verdict, empty.reason) == ("inconclusive", "empty domain")

    def test_counterexample_caps_but_counts(self):
        graphs = tuple(
            g for g in [complete_graph(3), cycle_graph(4), star_graph(3),
                        cycle_graph(5), complete_graph(4), star_graph(4)]
        )
        check = run_check("total-graph-formula-iasi", corpus=Corpus(graphs=graphs))
        assert check.verdict == "counterexample"
        assert len(check.counterexamples) <= 5


class TestFaultInjection:
    @pytest.mark.parametrize("cid", [
        "edge-size-bounds",
        "edge-size-product-minus-neglect",
        "max-sumset-iff-disjoint-differences",
        "max-identity-iff-singleton-endpoint",
    ])
    def test_broken_arithmetic_is_caught(self, monkeypatch, cid):
        real = oracle._size_rows

        def broken(max_element):
            # drops one sum whenever it can; must be caught
            for sizes in real(max_element):
                yield [size - 1 if size > 1 else size for size in sizes]

        monkeypatch.setattr(oracle, "_size_rows", broken)
        check = run_check(cid, corpus=Corpus(max_element=3))
        assert check.verdict == "counterexample"
        assert check.counterexamples

    def test_size_rows_match_sumset(self):
        # row and column i stand for the subset of {0..5} with bit mask i + 1
        subsets = [IntegerSet(e for e in range(6) if mask >> e & 1)
                   for mask in range(1, 64)]
        rows = list(oracle._size_rows(5))
        assert rows == [[len(sumset(a, b)) for b in subsets] for a in subsets]

    @pytest.mark.parametrize("cid, attr", [
        ("weak-iff-singleton-endpoints", "is_weak"),
        ("strong-iff-disjoint-differences", "is_strong"),
    ])
    def test_flipped_classify_is_caught(self, monkeypatch, cid, attr):
        def flipped(f):
            report = classify(f)
            return ClassificationReport(**{**vars(report), attr: not getattr(report, attr)})

        monkeypatch.setattr(oracle, "classify", flipped)
        check = run_check(cid, corpus=STRIDE_CORPUS)
        assert check.verdict == "counterexample"
        assert check.counterexamples[0]["note"] == \
            "table path disagrees with classify path"

    @pytest.mark.parametrize("name, cid, real", [
        ("weak_structure_check", "weak-iff-singleton-endpoints", weak_structure_check),
        ("strong_structure_check", "strong-iff-disjoint-differences",
         strong_structure_check),
    ])
    def test_broken_structure_check_is_caught(self, monkeypatch, name, cid, real):
        monkeypatch.setattr(oracle, name, lambda f: (not real(f)[0], None))
        check = run_check(cid, corpus=STRIDE_CORPUS)
        assert check.verdict == "counterexample"
        assert all("note" in r for r in check.counterexamples)

    @pytest.mark.parametrize("mutant, in_both_tables", [
        (lambda a, b: (a, b) == ((1,), (0,)), False),
        (lambda a, b: True, False),
        # equal tables: only the cross-checks can see it
        (lambda a, b: (a, b) == ((1,), (0,)), True),
    ])
    def test_mutant_table_gives_the_walk_counterexamples(self, mutant, in_both_tables):
        def lhs(a, b):
            sums = {x + y for x in a for y in b}
            return (len(sums) == max(len(a), len(b))) != mutant(a, b)

        def rhs(a, b):
            return (min(len(a), len(b)) == 1) != (in_both_tables and mutant(a, b))

        def is_weak(f):
            return classify(f).is_weak

        check = oracle.TheoremCheck("mutant", "", SearchConfig(), "pass")
        details = oracle._weak_strong_engine(check, STRIDE_CORPUS, lhs, rhs, is_weak,
                                             weak_structure_check)
        records, labelings = reference_walk(STRIDE_GRAPHS, labels_up_to(3, 3), lhs, rhs,
                                            is_weak, weak_structure_check)
        assert records
        assert check.verdict == "counterexample"
        assert check.counterexamples == records
        assert details == {"labelings": labelings, "classify_crosschecks": labelings // 199}


class TestGroundSetLowerBound:
    """The check re-derives min_ground_set_size's answer with its own
    arithmetic, so a search that misses or misreports a witness fails it."""

    def test_brute_force_matches_the_search_engine(self):
        graphs = [g for n in range(5) for g in enumerate_graphs(n)]
        for m in range(1, 4):
            for ground in itertools.combinations(range(4), m):
                table = search._ground_table(ground)
                for g in graphs:
                    found = search._backtrack(g, table, search._Deadline(60.0))
                    assert oracle._indexes(g, ground) == (found is not None), \
                        (write_graph6(g), ground)

    def test_brute_force_rules_out_a_ground_set(self):
        # K7's 21 edge sums clash over every labeling from {0,1,2}, not {0,1,3}
        assert not oracle._indexes(complete_graph(7), (0, 1, 2))
        assert oracle._indexes(complete_graph(7), (0, 1, 3))

    @pytest.mark.parametrize("labels, ground, size, verdict", [
        ([[0], [1], [2], [0, 1]], [0, 1, 2], 3, "pass"),
        # a valid witness over four elements, where three suffice
        ([[0], [1], [2], [3]], [0, 1, 2, 3], 4, "counterexample"),
        ([[0], [1], [2], [0]], [0, 1, 2], 3, "counterexample"),         # repeated label
        ([[0], [1], [2], [0, 1]], [0, 1, 2, 3], 3, "counterexample"),   # ground too big
        ([[0], [1], [3], [0, 1]], [0, 1, 2], 3, "counterexample"),      # label outside
        ([[0, 1], [1], [1, 2], [0]], [0, 1, 2], 3, "counterexample"),   # sums clash
        ([[0], [1], [9], [0, 1]], [0, 1, 9], 3, "counterexample"),      # past the bound
    ], ids=["honest", "overstated", "repeated", "wide", "outside", "clash", "bound"])
    def test_certificate_is_re_verified(self, monkeypatch, labels, ground, size, verdict):
        p4 = path_graph(4)
        f = SetLabeling(p4, [IntegerSet(lab) for lab in labels])

        def stub(g, config):
            return size, Certificate("witness", config, "stub", f,
                                     {"size": size, "ground_set": ground,
                                      "lower_bound": 3})

        monkeypatch.setattr(oracle, "min_ground_set_size", stub)
        check = run_check("ground-set-lower-bound", corpus=Corpus(graphs=(p4,)))
        assert check.verdict == verdict
        assert check.details == {"graphs": 1}


class TestCounterexampleCertificates:
    def test_total_graph_record_is_self_contained(self):
        check = run_check("total-graph-formula-iasi",
                          corpus=Corpus(graphs=(complete_graph(3),)))
        assert check.verdict == "counterexample"
        record = check.counterexamples[0]
        g = parse_graph6(record["total_graph6"])
        f = SetLabeling(g, [IntegerSet(l) for l in record["formula_labels"]])
        rep = classify(f)
        assert not (rep.is_iasl and rep.is_iasi)

    def test_line_graph_record_is_self_contained(self):
        check = run_check(
            "line-graph-formula-iasi",
            corpus=Corpus(graphs=(parse_graph6("DR_"), complete_graph(3))),
        )
        assert check.verdict == "counterexample"
        record = check.counterexamples[0]
        assert record["graph6"] == "DR_"
        g = parse_graph6(record["line_graph6"])
        f = SetLabeling(g, [IntegerSet(l) for l in record["formula_labels"]])
        assert not classify(f).is_iasi

    def test_search_side_witness_would_be_recorded(self):
        # feed the bipartite check a labeled triangle corpus with a k that
        # exists: the recorded witness must re-verify as a counterexample
        check = run_check(
            "weakly-uniform-iff-bipartite",
            corpus=Corpus(graphs=(complete_graph(3),), ks=(2,)),
        )
        # no weakly 2-uniform labeling of a triangle exists: still a pass
        assert check.verdict == "pass"
        assert check.details["graphs"] == 1

    @pytest.mark.parametrize("cid, ks, mode, leading", [
        ("two-uniform-iff-bipartite", None, "any", {}),
        ("weakly-uniform-iff-bipartite", (2,), "weak", {"k": 2}),
        ("strongly-uniform-iff-bipartite-or-square", (2,), "strong", {"k": 2}),
    ])
    def test_search_side_witness_record(self, monkeypatch, cid, ks, mode, leading):
        """A witness found for a non-bipartite graph is recorded with these
        keys, in this order."""
        triangle = complete_graph(3)
        f = SetLabeling(triangle, [IntegerSet([v]) for v in (0, 1, 3)])
        calls = []

        def found(g, k, config, mode="any"):
            calls.append((write_graph6(g), k, mode))
            return Certificate("witness", config, "stub", f)

        monkeypatch.setattr(oracle, "find_k_uniform", found)
        check = run_check(cid, corpus=Corpus(graphs=(triangle,), ks=ks))
        assert calls == [("Bw", 2, mode)]
        assert check.verdict == "counterexample"
        expected = {"graph6": "Bw", **leading, "direction": "search",
                    "witness": labeling_to_json(f)}
        assert [list(r.items()) for r in check.counterexamples] == [
            list(expected.items())
        ]


class TestSpecificChecks:
    def test_k1_anomaly_documented(self):
        check = run_check("weakly-uniform-iff-bipartite", corpus=SMALL)
        assert "k=1" in check.details["note"]

    def test_strongly_uniform_branches_counted(self):
        check = run_check("strongly-uniform-iff-bipartite-or-square", corpus=SMALL)
        assert check.verdict == "pass"
        branches = check.details["branches"]
        assert branches["completely-uniform"] > 0
        assert branches["none"] > 0

    def test_additive_variant_rejected_with_evidence(self):
        check = run_check("edge-size-equals-class-count",
                          corpus=Corpus(max_element=3))
        evidence = check.details["additive_variant_rejected"]
        assert evidence["size"] == 3
        assert evidence["cardinality_sum"] == 4

    def test_heredity_counts_restrictions(self):
        check = run_check("subgraph-heredity", corpus=SMALL)
        assert check.details["restrictions_checked"] > 0

    def test_weak_strong_engines_crosscheck(self):
        corpus = Corpus(graphs=(path_graph(3), complete_graph(3)),
                        max_element=3, max_label_size=2)
        for cid in ("weak-iff-singleton-endpoints",
                    "strong-iff-disjoint-differences"):
            check = run_check(cid, corpus=corpus)
            assert check.verdict == "pass"
            assert check.details["classify_crosschecks"] > 0


class TestWeakStrongCoverage:
    @pytest.mark.parametrize("cid", WEAK_STRONG)
    def test_crosschecks_are_the_product_walks_every_199th(self, monkeypatch, cid):
        seen = []

        def recording(f):
            seen.append((write_graph6(f.graph), [l.to_list() for l in f.labels]))
            return classify(f)

        monkeypatch.setattr(oracle, "classify", recording)
        check = run_check(cid, corpus=STRIDE_CORPUS)
        walk = [
            (write_graph6(g), [list(s) for s in combo])
            for g in STRIDE_GRAPHS
            for combo in itertools.product(labels_up_to(3, 3), repeat=g.vertex_count)
        ]
        assert check.verdict == "pass"
        assert seen == walk[198::199]
        assert check.details == {"labelings": len(walk),
                                 "classify_crosschecks": len(walk) // 199}

    @pytest.mark.parametrize("cid, digest", [
        ("weak-iff-singleton-endpoints",
         "7899f967535263487836954e700d5f11e4ee548a5c07fe4fad5d720543945cca"),
        ("strong-iff-disjoint-differences",
         "244f7105a16808b805adeaa443fe51df51e79a96758b5f49cbe173618adbb9cd"),
    ])
    def test_default_domain_output_pinned(self, cid, digest):
        text = json.dumps(run_check(cid).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTracedNames:
    """The checks look these names up in the oracle module when they run,
    so a wrapper put there sees every call."""

    @pytest.mark.parametrize("name, cid, corpus", [
        ("classify", "subgraph-heredity", Corpus(max_vertices=2)),
        ("weak_structure_check", "weak-iff-singleton-endpoints",
         Corpus(graphs=(path_graph(3),), max_element=3)),
        ("strong_structure_check", "strong-iff-disjoint-differences",
         Corpus(graphs=(path_graph(3),), max_element=3)),
        ("find_k_uniform", "two-uniform-iff-bipartite", Corpus(max_vertices=3)),
        ("min_ground_set_size", "ground-set-lower-bound", Corpus(max_vertices=2)),
        ("enumerate_graphs", "iasl-existence", Corpus(max_vertices=2)),
        ("sumset", "saturated-class-size", Corpus(max_element=1)),
        ("compatibility_table", "edge-size-equals-class-count", Corpus(max_element=1)),
        ("difference_set", "max-sumset-iff-disjoint-differences", Corpus(max_element=1)),
        ("IntegerSet", "saturated-class-size", Corpus(max_element=1)),
    ])
    def test_wrapper_in_module_namespace_is_called(self, monkeypatch, name, cid, corpus):
        original = getattr(oracle, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, wrapper)
        check = run_check(cid, corpus=corpus)
        assert check.verdict == "pass"
        assert calls


class TestSuite:
    def test_shrunken_suite_passes_and_is_deterministic(self):
        corpus = Corpus(graphs=(complete_graph(2), path_graph(3), path_graph(4)),
                        max_element=3, max_label_size=2, ks=(2,))
        first = run_suite(corpus)
        second = run_suite(corpus)
        assert first.verdict == "pass"
        assert [c.check_id for c in first.checks] == list(CHECK_IDS)
        assert json.dumps(first.to_json(), sort_keys=True) == \
               json.dumps(second.to_json(), sort_keys=True)

    def test_zero_budget_suite_is_inconclusive(self):
        corpus = Corpus(graphs=(complete_graph(2), path_graph(3)),
                        max_element=3, max_label_size=2, ks=(2,))
        suite = run_suite(corpus, SearchConfig(time_budget=0.0))
        assert suite.verdict == "inconclusive"
        assert "counterexample" not in {c.verdict for c in suite.checks}

    def test_suite_verdict_prefers_counterexample(self):
        corpus = Corpus(graphs=(complete_graph(3),), ks=(2,))
        suite = run_suite(corpus)
        assert suite.verdict == "counterexample"
        bad = [c.check_id for c in suite.checks if c.verdict == "counterexample"]
        assert "total-graph-formula-iasi" in bad
