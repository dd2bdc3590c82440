"""Deterministic constructors, verify-then-repair, induced labelings."""

import json

import pytest

from iasltools.construct import (
    ConstructionError, ConstructionOutcome, NoConstruction, canonical_iasi,
    contraction_labeling, corona_labeling, homeomorphic_transfer,
    induced_labeling, line_graph_labeling, minor_labeling, rooted_labeling,
    strongly_uniform_iasi, subdivision_labeling, total_graph_labeling,
    two_uniform_iasi, weakly_uniform_iasi,
)
from iasltools.graph import (
    GraphError, complete_graph, cycle_graph, empty_graph, enumerate_graphs,
    path_graph, star_graph,
)
from iasltools.intset import ElementBoundError, iset
from iasltools.labeling import SetLabeling, classify


def labels_of(outcome):
    return [l.to_list() for l in outcome.labeling.labels]


class TestCanonical:
    def test_powers_of_two(self):
        out = canonical_iasi(path_graph(3))
        assert labels_of(out) == [[1], [2], [4]]
        assert not out.repaired
        assert out.report.is_iasl and out.report.is_iasi

    def test_never_repairs_on_small_graphs(self):
        for n in range(5):
            for g in enumerate_graphs(n):
                out = canonical_iasi(g)
                assert not out.repaired
                assert out.report.is_iasl and out.report.is_iasi

    def test_fixed_element_bound_guards_large_graphs(self):
        # {2^20} is within the bound, the edge sum 2^19 + 2^20 is not
        with pytest.raises(ElementBoundError):
            canonical_iasi(path_graph(21))

    def test_formula_report_equals_report_when_untouched(self):
        out = canonical_iasi(cycle_graph(4))
        assert out.formula_report == out.report


class TestTwoUniform:
    def test_k2(self):
        out = two_uniform_iasi(complete_graph(2))
        assert labels_of(out) == [[1], [0, 2]]
        assert out.report.edge_uniform_k == 2

    def test_even_cycle(self):
        out = two_uniform_iasi(cycle_graph(6))
        assert out.report.is_iasi
        assert out.report.edge_uniform_k == 2
        assert not out.repaired

    def test_odd_cycle_refused_with_certificate(self):
        out = two_uniform_iasi(complete_graph(3))
        assert isinstance(out, NoConstruction)
        assert out.odd_cycle == (0, 1, 2)
        payload = out.to_json()
        assert payload["constructed"] is False

    def test_edgeless_graph_is_vacuous(self):
        out = two_uniform_iasi(empty_graph(3))
        assert out.report.vacuous_edges


class TestWeaklyUniform:
    def test_c4_k3_exact_labels(self):
        out = weakly_uniform_iasi(cycle_graph(4), 3)
        assert labels_of(out) == [[0], [0, 1, 2], [1], [4, 5, 6]]
        assert out.report.edge_uniform_k == 3
        assert out.report.is_weak
        assert out.report.is_iasi

    def test_star_various_k(self):
        for k in (2, 3, 5):
            out = weakly_uniform_iasi(star_graph(4), k)
            assert out.report.edge_uniform_k == k
            assert out.report.is_weak and out.report.is_iasi

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            weakly_uniform_iasi(path_graph(2), 1)

    def test_odd_cycle_refused(self):
        assert isinstance(weakly_uniform_iasi(cycle_graph(5), 3), NoConstruction)

    def test_block_past_the_element_bound_is_refused_unbuilt(self):
        # the first k-block alone would hold 10**30 elements
        with pytest.raises(ElementBoundError, match=f"element {10**30 - 1} exceeds"):
            weakly_uniform_iasi(path_graph(2), 10 ** 30)


class TestStronglyUniform:
    def test_square_k_on_triangle(self):
        out = strongly_uniform_iasi(complete_graph(3), 4)
        assert out.report.is_strong
        assert out.report.edge_uniform_k == 4
        assert out.report.completely_uniform == (4, 2)

    def test_non_square_bipartite(self):
        out = strongly_uniform_iasi(path_graph(3), 3)
        assert out.report.is_strong
        assert out.report.edge_uniform_k == 3
        sizes = sorted(len(l) for l in out.labeling.labels)
        assert sizes == [1, 1, 3]

    def test_non_square_non_bipartite_refused(self):
        out = strongly_uniform_iasi(complete_graph(3), 3)
        assert isinstance(out, NoConstruction)
        assert out.odd_cycle is not None

    def test_k1_everywhere(self):
        out = strongly_uniform_iasi(cycle_graph(5), 1)
        assert out.report.edge_uniform_k == 1

    @pytest.mark.parametrize("k", [1025 ** 2, 10 ** 30, 1049, 10 ** 400],
                             ids=["square", "huge", "path", "past-float"])
    def test_progression_past_the_element_bound_is_refused_unbuilt(self, k):
        # a 1,025-term progression with difference > 1,025 ends past 2^20;
        # refused before the prime search and before any label is built
        with pytest.raises(ElementBoundError, match="-term progression"):
            strongly_uniform_iasi(path_graph(1000), k)

    def test_square_past_float_precision_is_a_square(self):
        # a float square root rounds (2^53 + 1)^2 to a non-root, which
        # would refuse the triangle as non-bipartite
        with pytest.raises(ElementBoundError, match=rf"^a {2 ** 53 + 1}-term progression"):
            strongly_uniform_iasi(complete_graph(3), (2 ** 53 + 1) ** 2)

    def test_1024_terms_pass_the_precheck(self):
        # 1,024 terms pass the pre-check; the labels themselves then hit the bound
        with pytest.raises(ElementBoundError, match="^element "):
            strongly_uniform_iasi(path_graph(2), 1024 ** 2)


class TestInducedLabelings:
    def setup_method(self):
        self.f2 = canonical_iasi(complete_graph(2)).labeling
        self.f3 = canonical_iasi(path_graph(3)).labeling

    def test_complement_reuses_labels(self):
        out = induced_labeling("complement", self.f3)
        assert out.labeling.graph.edges == ((0, 2),)
        assert labels_of(out) == [[1], [2], [4]]

    def test_union_checks_agreement(self):
        out = induced_labeling("union", self.f2, self.f3, shared={})
        assert out.labeling.graph.vertex_count == 5
        clash = SetLabeling(complete_graph(2), [iset(5), iset(6)])
        with pytest.raises(ConstructionError):
            induced_labeling("union", self.f2, clash, shared={0: 0})

    def test_union_with_agreeing_overlap(self):
        other = SetLabeling(path_graph(2), [iset(1), iset(9)])
        out = induced_labeling("union", self.f2, other, shared={0: 0})
        assert out.labeling.graph.vertex_count == 3
        assert out.report.is_iasl

    def test_join(self):
        out = induced_labeling("join", self.f2, self.f3)
        g = out.labeling.graph
        assert g.edge_count == 1 + 2 + 6
        assert out.report.is_iasl

    def test_cartesian_repair_trace(self):
        out = induced_labeling("cartesian", self.f2, self.f2)
        assert out.repaired
        assert labels_of(out) == [[2], [3], [19], [4]]
        entry = out.repair_log[0]
        assert entry.vertex == 2
        assert entry.original == iset(3)
        assert entry.replacement == iset(19)
        # raw formula was not vertex-injective; repaired labeling is
        assert not out.formula_report.is_iasl
        assert out.report.is_iasl

    def test_all_products_verify(self):
        for kind in ("cartesian", "direct", "strong", "lexicographic"):
            out = induced_labeling(kind, self.f3, self.f2)
            assert out.report.is_iasl, kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            induced_labeling("bogus", self.f2, self.f2)

    @pytest.mark.parametrize("kind, second, message", [
        ("complement", True, "complement takes a single labeling"),
        ("union", False, "second operand labeling is required"),
        ("cartesian", False, "second operand labeling is required"),
    ])
    def test_operand_count_checked(self, kind, second, message):
        with pytest.raises(ConstructionError, match=message):
            induced_labeling(kind, self.f3, self.f2 if second else None)


class TestCoronaRooted:
    def test_corona_repair_trace(self):
        f2 = canonical_iasi(complete_graph(2)).labeling
        out = corona_labeling(f2, f2)
        assert out.repaired
        assert labels_of(out) == [[1], [2], [17], [26], [34], [4]]
        assert [e.vertex for e in out.repair_log] == [2, 3, 4]
        assert out.report.is_iasl

    def test_rooted_multiplier_labels(self):
        f2 = canonical_iasi(path_graph(2)).labeling
        f3 = canonical_iasi(path_graph(3)).labeling
        out = rooted_labeling(f2, f3, 0)
        assert not out.repaired
        assert labels_of(out) == [[1], [2], [4], [8], [6], [12]]
        assert out.report.is_iasl and out.report.is_iasi

    def test_rooted_equal_labels_keep_the_last_multiple(self):
        # no multiple of two equal labels is injective: each copy keeps its
        # last multiplier (24, then 48) and the repair pass separates them
        f1 = canonical_iasi(complete_graph(2)).labeling
        f2 = SetLabeling(path_graph(3), [iset(1), iset(4), iset(4)])
        out = rooted_labeling(f1, f2, 0)
        assert not out.formula_report.is_iasl
        assert [(e.vertex, e.original, e.replacement) for e in out.repair_log] == [
            (3, iset(96), iset(864)), (5, iset(192), iset(1472))]
        assert labels_of(out) == [[1], [2], [96], [864], [192], [1472]]


class TestRewiring:
    def test_subdivision_keeps_edge_sum(self):
        f = canonical_iasi(path_graph(3)).labeling
        out = subdivision_labeling(f, (0, 1))
        assert labels_of(out) == [[1], [2], [4], [3]]
        assert not out.repaired

    def test_subdivision_repair_trace(self):
        f = SetLabeling(path_graph(3), [iset(1), iset(2), iset(3)])
        out = subdivision_labeling(f, (0, 1))
        assert out.repaired
        entry = out.repair_log[0]
        assert (entry.vertex, entry.original, entry.replacement) == (
            3, iset(3), iset(15))

    def test_subdivision_formula_counterexample_on_triangle(self):
        out = subdivision_labeling(canonical_iasi(complete_graph(3)).labeling, (0, 1))
        assert not out.repaired            # vertex labels stay distinct
        assert not out.formula_report.is_iasi
        kinds = {v.kind: v for v in out.formula_report.violations}
        assert kinds["edge-label-duplicate"].where == ((0, 2), (1, 3))

    def test_contraction_merges_by_sum(self):
        out = contraction_labeling(canonical_iasi(cycle_graph(4)).labeling, (0, 1))
        assert labels_of(out) == [[3], [4], [8]]
        assert out.labeling.graph == complete_graph(3)

    def test_minor_script(self):
        f = canonical_iasi(complete_graph(4)).labeling
        out = minor_labeling(f, [("delete-edge", (0, 1)), ("contract", (2, 3))])
        assert out.labeling.graph.vertex_count == 3
        assert labels_of(out) == [[1], [2], [12]]

    def test_minor_delete_vertex(self):
        f = canonical_iasi(path_graph(4)).labeling
        out = minor_labeling(f, [("delete-vertex", 0)])
        assert out.labeling.graph == path_graph(3)
        assert labels_of(out) == [[2], [4], [8]]

    @pytest.mark.parametrize("v", [3, 7, -1])
    def test_minor_delete_vertex_out_of_range(self, v):
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises(GraphError, match=f"^vertex {v} out of range$"):
            minor_labeling(f, [("delete-vertex", v)])

    def test_minor_bad_step(self):
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises((ConstructionError, ValueError)):
            minor_labeling(f, [("delete-edge", (0, 2))])

    @pytest.mark.parametrize("step, error, message", [
        (("delete-edge", (-1, 1)), GraphError, r"edge \(-1,1\) not in graph"),
        (("delete-edge", (1, 3)), GraphError, r"edge \(1,3\) not in graph"),
        (("contract", (-1, 1)), GraphError, r"edge \(-1,1\) not in graph"),
        (("merge", (0, 1)), ConstructionError, "unknown minor step 'merge'"),
    ], ids=["negative-edge", "edge-out-of-range", "negative-contract", "unknown"])
    def test_minor_step_refused(self, step, error, message):
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises(error, match=message):
            minor_labeling(f, [step])


class TestDerivedGraphFormulas:
    def test_line_graph_sums(self):
        out = line_graph_labeling(canonical_iasi(complete_graph(3)).labeling)
        assert out.labeling.graph == complete_graph(3)
        assert labels_of(out) == [[3], [5], [6]]
        assert not out.repaired
        assert out.formula_report.is_iasi

    def test_line_graph_known_failure(self):
        # first labeled graph whose line graph breaks the direct formula
        from iasltools.graph import parse_graph6
        g = parse_graph6("DR_")
        out = line_graph_labeling(canonical_iasi(g).labeling)
        assert not out.formula_report.is_iasi

    def test_total_graph_on_paths(self):
        for n in range(1, 6):
            out = total_graph_labeling(canonical_iasi(path_graph(n)).labeling)
            assert out.formula_report.is_iasl and out.formula_report.is_iasi

    def test_total_graph_counterexample_on_triangle(self):
        out = total_graph_labeling(canonical_iasi(complete_graph(3)).labeling)
        assert out.formula_report.is_iasl
        assert not out.formula_report.is_iasi
        assert out.report.is_iasl          # delivered labeling still injective


class TestTransfer:
    def test_push_across_subdivision_isomorphism(self):
        f = canonical_iasi(path_graph(3)).labeling
        # one subdivision of the first edge turns the path 0-1-2 into 0-3-1-2,
        # matched onto the 4-path 0-1-2-3
        out = homeomorphic_transfer(f, [(0, 1)], path_graph(4), [], [0, 2, 3, 1])
        assert out.labeling.graph == path_graph(4)
        assert labels_of(out) == [[1], [3], [2], [4]]

    def test_round_trip_restores_original(self):
        f = canonical_iasi(path_graph(3)).labeling
        out = homeomorphic_transfer(
            f, [(0, 1)], path_graph(3), [(0, 1)], [0, 1, 2, 3])
        assert out.labeling.graph == path_graph(3)
        assert labels_of(out) == [[1], [2], [4]]

    def test_bad_correspondence_rejected(self):
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises(ConstructionError):
            homeomorphic_transfer(f, [(0, 1)], path_graph(4), [], [0, 1, 2, 3])

    def test_non_bijection_rejected(self):
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises(ConstructionError):
            homeomorphic_transfer(f, [(0, 1)], path_graph(4), [], [0, 0, 2, 3])

    @pytest.mark.parametrize("h, second_pass", [
        (path_graph(3), [(0, 1), (0, 1)]),
        (complete_graph(3), [(0, 1), (0, 1)]),
        (path_graph(3), []),
    ], ids=["path-two-edges", "triangle-two-edges", "path-no-edges"])
    def test_script_is_read_once(self, h, second_pass):
        # a script whose second read would yield second_pass instead of
        # [(0, 1)] transfers exactly as the list [(0, 1)] does
        class Script:
            passes = iter([[(0, 1)], second_pass])

            def __iter__(self):
                return iter(next(self.passes))

        f = canonical_iasi(h).labeling
        script = Script()
        out = homeomorphic_transfer(f, [(0, 1)], h, script, range(4))
        want = homeomorphic_transfer(f, [(0, 1)], h, [(0, 1)], range(4))
        assert out == want and out.to_json() == want.to_json()
        assert next(script.passes) == second_pass

    def test_generator_script(self):
        f = canonical_iasi(path_graph(3)).labeling
        out = homeomorphic_transfer(
            f, [(0, 1)], path_graph(3), (e for e in [(0, 1)]), [0, 1, 2, 3])
        assert out == homeomorphic_transfer(
            f, [(0, 1)], path_graph(3), [(0, 1)], [0, 1, 2, 3])
        assert out.labeling.graph == path_graph(3)
        assert labels_of(out) == [[1], [2], [4]]


class TestOutcomeJson:
    def test_constructed_payload(self):
        out = induced_labeling("cartesian",
                               canonical_iasi(complete_graph(2)).labeling,
                               canonical_iasi(complete_graph(2)).labeling)
        payload = json.loads(json.dumps(out.to_json(), sort_keys=True))
        assert payload["constructed"] is True
        assert payload["repairs"][0]["vertex"] == 2
        assert payload["repairs"][0]["original"] == [3]
        assert payload["labeling"]["labels"][2] == [19]

    def test_refusal_payload(self):
        out = two_uniform_iasi(complete_graph(3))
        payload = out.to_json()
        assert payload["constructed"] is False
        assert payload["odd_cycle"] == [0, 1, 2]
