"""Classification of set-labelings and the structural equivalences."""

import dataclasses
import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from iasltools.graph import (
    Graph, complete_graph, cycle_graph, empty_graph, enumerate_graphs, parse_graph6,
    path_graph, write_graph6,
)
from iasltools import labeling, oracle
from iasltools._record import trusted
from iasltools.intset import (
    DEFAULT_ELEMENT_BOUND, CompatibilityTable, ElementBoundError, IntegerSet,
    compatibility_table, iset, sumset,
)
from iasltools.labeling import (
    ClassificationReport, EdgeRecord, LabelingError, SetLabeling, Violation,
    classify, ground_set, induced_edge_label, labeling_from_json, labeling_to_json,
    strong_structure_check, weak_structure_check,
)
from iasltools.search import SearchConfig, min_ground_set_size


def lab(g, *labels):
    return SetLabeling(g, [iset(*l) if isinstance(l, tuple) else iset(l)
                           for l in labels])


class TestSetLabeling:
    def test_label_count_must_match(self):
        with pytest.raises(LabelingError):
            SetLabeling(path_graph(3), [iset(1), iset(2)])

    def test_non_injective_is_allowed(self):
        # injectivity is a verdict, not a precondition
        f = lab(complete_graph(2), 1, 1)
        assert not classify(f).is_iasl

    def test_induced_edge_label(self):
        f = lab(path_graph(3), 1, 2, 4)
        assert induced_edge_label(f, 0, 1) == iset(3)
        assert induced_edge_label(f, 1, 0) == iset(3)
        with pytest.raises(LabelingError):
            induced_edge_label(f, 0, 2)

    @pytest.mark.parametrize("u, v", [(0, 2), (-1, 1), (1, -1), (5, 1), (1, 5)])
    def test_non_edge_has_no_edge_label(self, u, v):
        # -1 must not wrap around to vertex 2, whose edge 1-2 is labeled {6}
        f = lab(path_graph(3), 1, 2, 4)
        with pytest.raises(LabelingError, match=rf"^\({u},{v}\) is not an edge$"):
            induced_edge_label(f, u, v)

    @pytest.mark.parametrize("labels", [[iset(1), {2}], [iset(1), None]])
    def test_labels_must_be_integer_sets(self, labels):
        with pytest.raises(LabelingError, match="labels must be IntegerSet values"):
            SetLabeling(path_graph(2), labels)

    def test_ground_set(self):
        f = lab(path_graph(2), (0, 5), (2, 5))
        assert ground_set(f) == (0, 2, 5)


class TestClassify:
    def test_singleton_edge(self):
        rep = classify(lab(complete_graph(2), 1, 2))
        assert rep.is_iasl and rep.is_iasi
        assert rep.is_weak and rep.is_strong
        assert rep.edge_uniform_k == 1
        assert rep.vertex_uniform_l == 1
        assert rep.completely_uniform == (1, 1)
        assert not rep.vacuous_edges

    def test_powers_of_two_on_c4(self):
        rep = classify(lab(cycle_graph(4), 1, 2, 4, 8))
        assert rep.is_iasl and rep.is_iasi
        labels = [r.label for r in rep.per_edge]
        assert labels == [iset(3), iset(9), iset(6), iset(12)]

    def test_vertex_duplicate_witnessed(self):
        rep = classify(lab(path_graph(3), 3, 1, 3))
        assert not rep.is_iasl
        kinds = {v.kind: v for v in rep.violations}
        assert kinds["vertex-label-duplicate"].where == (0, 2)

    def test_edge_duplicate_with_distinct_vertex_labels(self):
        # {1,3}+{0,1} and {1,2,3}+{0,1} are both {1,2,3,4}
        f = lab(path_graph(3), (1, 3), (0, 1), (1, 2, 3))
        rep = classify(f)
        assert rep.is_iasl
        assert not rep.is_iasi
        kinds = {v.kind: v for v in rep.violations}
        assert kinds["edge-label-duplicate"].where == ((0, 1), (1, 2))

    def test_both_verdicts_reported_independently(self):
        # duplicate vertex labels on a graph with no edges: IASL no, IASI yes
        rep = classify(lab(empty_graph(2), 1, 1))
        assert not rep.is_iasl
        assert rep.is_iasi
        assert rep.vacuous_edges

    def test_weak_failure_witnessed(self):
        rep = classify(lab(complete_graph(2), (1, 2), (3, 4)))
        assert not rep.is_weak
        kinds = {v.kind for v in rep.violations}
        assert "weak-failure" in kinds

    def test_strong_without_weak(self):
        # |{0,1}+{0,2}| = 4 = product but > max
        rep = classify(lab(complete_graph(2), (0, 1), (0, 2)))
        assert rep.is_strong and not rep.is_weak

    def test_triangle_three_uniform(self):
        rep = classify(lab(complete_graph(3), (0, 1), (1, 2), (2, 3)))
        assert rep.is_iasl and rep.is_iasi
        assert rep.edge_uniform_k == 3
        assert rep.vertex_uniform_l == 2
        assert rep.completely_uniform == (3, 2)
        assert not rep.is_weak

    def test_per_edge_neglect(self):
        rep = classify(lab(complete_graph(2), (0, 1), (0, 1)))
        rec = rep.per_edge[0]
        assert rec.size == 3
        assert rec.neglecting_number == 1

    def test_report_json_shape(self):
        rep = classify(lab(complete_graph(2), 1, 2))
        payload = json.loads(json.dumps(rep.to_json()))
        assert payload["is_iasl"] is True
        assert payload["per_edge"][0]["label"] == [3]


class TestStructureChecks:
    def test_weak_iff_singleton_endpoint(self):
        good = lab(path_graph(3), 1, (0, 2), 2)
        ok, witness = weak_structure_check(good)
        assert ok and witness is None
        bad = lab(path_graph(2), (0, 1), (0, 2))
        ok, witness = weak_structure_check(bad)
        assert not ok and witness == (0, 1)

    def test_strong_shared_difference_witnessed(self):
        f = lab(complete_graph(2), (0, 1), (2, 3))
        ok, witness = strong_structure_check(f)
        assert not ok
        edge, shared = witness
        assert edge == (0, 1)
        assert 1 in shared

    def test_strong_on_disjoint_differences(self):
        ok, witness = strong_structure_check(lab(complete_graph(2), (0, 1), (0, 2)))
        assert ok and witness is None


# every labeling of every graph with <= 3 edges over tiny label space
_SMALL_GRAPHS = [g for n in range(4) for g in enumerate_graphs(n) if g.edge_count <= 3]
_LABELS = [IntegerSet(s) for s in
           [(a,) for a in range(4)] + [(a, b) for a in range(4) for b in range(a + 1, 4)]]


class TestEquivalencesExhaustive:
    def test_weak_and_strong_match_structure(self):
        from itertools import product as iproduct
        for g in _SMALL_GRAPHS:
            for combo in iproduct(range(len(_LABELS)), repeat=g.vertex_count):
                f = SetLabeling(g, [_LABELS[i] for i in combo])
                rep = classify(f)
                assert rep.is_weak == weak_structure_check(f)[0]
                assert rep.is_strong == strong_structure_check(f)[0]

    def test_edge_sizes_match_arithmetic(self):
        from itertools import product as iproduct
        g = path_graph(3)
        for combo in iproduct(range(len(_LABELS)), repeat=3):
            f = SetLabeling(g, [_LABELS[i] for i in combo])
            for rec in classify(f).per_edge:
                assert rec.size == len(sumset(f.labels[rec.u], f.labels[rec.v]))


graphs_strategy = st.sampled_from(
    [g for n in range(5) for g in enumerate_graphs(n)]
)
label_strategy = st.frozensets(st.integers(0, 6), min_size=1, max_size=3)


class TestEquivalencesProperty:
    @settings(max_examples=300, deadline=None)
    @given(graphs_strategy, st.data())
    def test_random_labelings(self, g, data):
        labels = [
            IntegerSet(data.draw(label_strategy)) for _ in range(g.vertex_count)
        ]
        f = SetLabeling(g, labels)
        rep = classify(f)
        assert rep.is_weak == weak_structure_check(f)[0]
        assert rep.is_strong == strong_structure_check(f)[0]
        assert rep.is_iasl == (len(set(labels)) == g.vertex_count)
        if rep.edge_uniform_k is not None and g.edges:
            sizes = {r.size for r in rep.per_edge}
            assert sizes == {rep.edge_uniform_k}


class TestJson:
    def test_round_trip(self):
        f = lab(cycle_graph(4), 1, 2, 4, 8)
        back = labeling_from_json(labeling_to_json(f))
        assert back == f

    def test_payload_shape(self):
        f = lab(complete_graph(2), (0, 2), 1)
        payload = labeling_to_json(f)
        assert payload == {"graph6": "A_", "labels": [[0, 2], [1]]}

    def test_bad_payloads(self):
        with pytest.raises((LabelingError, ValueError, KeyError)):
            labeling_from_json({"graph6": "A_"})
        with pytest.raises((LabelingError, ValueError)):
            labeling_from_json({"graph6": "A_", "labels": [[0]]})

    @pytest.mark.parametrize("payload", [
        {"graph6": 5, "labels": [[0], [1]]},
        {"graph6": "A_", "labels": 5},
        {"graph6": "A_", "labels": [[0], 5]},
        {"graph6": "A_", "labels": [[0], "ab"]},
        # JSON text is parsed by the caller, not here
        '{"graph6": "A_", "labels": [[0], [1]]}',
    ], ids=["graph6-int", "labels-int", "label-int", "label-str", "json-text"])
    def test_ill_typed_payload_is_a_labeling_error(self, payload):
        with pytest.raises(LabelingError):
            labeling_from_json(payload)


class TestKUniform:
    def test_edgeless_graph_is_k_uniform_for_every_k(self):
        rep = classify(lab(empty_graph(3), 0, 1, 2))
        assert all(rep.is_k_uniform(k) for k in range(1, 6))

    def test_graph_with_an_edge_is_not_k_uniform_for_a_wrong_k(self):
        rep = classify(lab(path_graph(2), (0, 1), 2))    # edge label {2,3}
        assert rep.is_k_uniform(2)
        assert not rep.is_k_uniform(1) and not rep.is_k_uniform(3)


# ---------------------------------------------------------------------------
# classify against a reference written from the definitions

def _braced(elements) -> str:
    return "{" + ",".join(str(x) for x in sorted(elements)) + "}"


def _reference_report(g, labels) -> dict:
    """classify(f).to_json() after a JSON round trip, for labels given as
    element tuples: each verdict from its definition, each violation kind
    at the first place its definition fails (every later duplicate of a
    vertex label, the first duplicate edge label only)."""
    sets = [frozenset(l) for l in labels]
    edges = [list(e) for e in g.edges]
    sums = [frozenset(x + y for x in sets[u] for y in sets[v]) for u, v in edges]
    products = [len(sets[u]) * len(sets[v]) for u, v in edges]
    widest = [max(len(sets[u]), len(sets[v])) for u, v in edges]

    def first(flags):
        return next((i for i, flag in enumerate(flags) if flag), None)

    violations = []
    for v, s in enumerate(sets):
        if s in sets[:v]:
            violations.append({"kind": "vertex-label-duplicate",
                               "where": [sets.index(s), v], "note": f"both get {_braced(s)}"})
    dup = first(s in sums[:i] for i, s in enumerate(sums))
    not_weak = first(len(s) != w for s, w in zip(sums, widest))
    not_strong = first(len(s) != p for s, p in zip(sums, products))
    for i, (u, v) in enumerate(edges):
        a, b, size = len(sets[u]), len(sets[v]), len(sums[i])
        if i == dup:
            violations.append({"kind": "edge-label-duplicate",
                               "where": [edges[sums.index(sums[i])], [u, v]],
                               "note": f"both get {_braced(sums[i])}"})
        if i == not_weak:
            violations.append({"kind": "weak-failure", "where": [[u, v]],
                               "note": f"size {size} != max({a},{b})"})
        if i == not_strong:
            violations.append({"kind": "strong-failure", "where": [[u, v]],
                               "note": f"size {size} != {a}*{b}"})
    edge_sizes = {len(s) for s in sums}
    vertex_sizes = {len(s) for s in sets}
    k = edge_sizes.pop() if len(edge_sizes) == 1 else None
    l = vertex_sizes.pop() if len(vertex_sizes) == 1 else None
    return {
        "is_iasl": len(set(sets)) == len(sets),
        "is_iasi": len(set(sums)) == len(sums),
        "is_weak": not_weak is None,
        "is_strong": not_strong is None,
        "edge_uniform_k": k,
        "vertex_uniform_l": l,
        "completely_uniform": [k, l] if k is not None and l is not None else None,
        "vacuous_edges": not edges,
        "per_edge": [
            {"u": u, "v": v, "label": sorted(s), "size": len(s),
             "neglecting_number": p - len(s), "weak": len(s) == w, "strong": len(s) == p}
            for (u, v), s, p, w in zip(edges, sums, products, widest)
        ],
        "violations": violations,
    }


_SUBSETS_OF_3 = [tuple(x for x in range(3) if mask >> x & 1) for mask in range(1, 8)]

# duplicate vertex labels, duplicate edge labels over distinct vertex labels
# ({0,2}+{0,1} = {0,1,2}+{0,1}), and both, on graphs past 3 vertices
_DUPLICATE_CASES = [
    (complete_graph(4), [(0,), (0,), (0,), (0,)]),
    (cycle_graph(4), [(0, 2), (0, 1), (0, 1, 2), (0, 1)]),
    (path_graph(3), [(1, 3), (0, 1), (1, 2, 3)]),
    (complete_graph(5), [(0, 1), (2,), (0, 1), (2,), (5, 9)]),
    (cycle_graph(5), [(0, 4), (1,), (0, 4), (3, 7), (1,)]),
    (empty_graph(3), [(6,), (6,), (6,)]),
    (path_graph(4), [(0, 1, 3), (0, 2), (1, 2), (0, 2)]),
]


class TestClassifyAgainstReference:
    def test_every_labeling_of_every_graph_on_at_most_three_vertices(self):
        cases = 0
        for n in range(4):
            for g in enumerate_graphs(n):
                for labels in product(_SUBSETS_OF_3, repeat=n):
                    rep = classify(SetLabeling(g, [IntegerSet(l) for l in labels]))
                    got = json.loads(json.dumps(rep.to_json()))
                    assert got == _reference_report(g, labels), (g.edges, labels)
                    cases += 1
        assert cases == 1 + 7 + 2 * 7 ** 2 + 8 * 7 ** 3

    @pytest.mark.parametrize("g, labels", _DUPLICATE_CASES,
                             ids=[str(i) for i in range(len(_DUPLICATE_CASES))])
    def test_duplicate_labels(self, g, labels):
        rep = classify(SetLabeling(g, [IntegerSet(l) for l in labels]))
        assert json.loads(json.dumps(rep.to_json())) == _reference_report(g, labels)
        assert not (rep.is_iasl and rep.is_iasi)


def _built_field_by_field(cls, values: dict):
    """The value a field-by-field frozen __init__ builds: one setattr per field."""
    out = object.__new__(cls)
    for name in cls._fields:
        object.__setattr__(out, name, values[name])
    return out


def _field_values(value) -> dict:
    return {name: getattr(value, name) for name in value._fields}


def _assert_indistinguishable(fast, built):
    assert type(fast) is type(built)
    assert fast == built and not fast != built
    assert hash(fast) == hash(built)
    assert repr(fast) == repr(built)
    assert _field_values(fast) == _field_values(built)
    assert list(vars(fast).items()) == list(vars(built).items())


class TestFastConstructors:
    """Values built by _record.trusted, without __init__ (an IntegerSet, a
    CompatibilityTable, an EdgeRecord, a Violation, a ClassificationReport,
    a Graph), cannot be told apart from values built through it."""

    @pytest.mark.parametrize("elements", [(0,), (1, 2, 5), (3, DEFAULT_ELEMENT_BOUND)])
    def test_trusted_integer_set(self, elements):
        fast = trusted(IntegerSet, elements=elements)
        built = IntegerSet(reversed(elements))
        _assert_indistinguishable(fast, built)
        assert str(fast) == str(built) and len(fast) == len(built)
        assert not fast < built and not built < fast and fast <= built
        assert len({fast, built}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.elements = (9,)
        assert fast.elements == elements

    def test_sumset_results(self):
        for a, b in [((0, 1), (0, 1)), ((1, 4), (2,)), ((0, 2, 7), (1, 3))]:
            got = sumset(IntegerSet(a), IntegerSet(b))
            _assert_indistinguishable(got, IntegerSet([x + y for x in a for y in b]))

    @pytest.mark.parametrize("a, b", [((1, 2), (3, 4)), ((0, 1, 2), (0, 1, 2)),
                                      ((0, 5), (0, 1, 3)), ((4,), (0, 9))])
    def test_compatibility_table(self, a, b):
        sa, sb = IntegerSet(a), IntegerSet(b)
        fast = compatibility_table(sa, sb)
        built = _built_field_by_field(CompatibilityTable, _field_values(fast))
        _assert_indistinguishable(fast, built)
        # the lazy classes: equal once read, and the values stay indistinguishable
        assert fast.classes == built.classes
        assert fast.classes[0][0] == a[0] + b[0]
        _assert_indistinguishable(fast, built)
        for name in ("index", "saturated_sums", "classes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fast, name, ())

    def test_edge_records_of_classify(self):
        f = lab(complete_graph(4), (0, 1), 2, (0, 1), (3, 5, 8))
        for rec in classify(f).per_edge:
            _assert_indistinguishable(
                rec, _built_field_by_field(EdgeRecord, _field_values(rec)))

    def test_edge_record_positional_and_keyword(self):
        values = dict(u=0, v=2, label=iset(1, 3), size=2, neglecting_number=0,
                      weak=True, strong=True)
        built = _built_field_by_field(EdgeRecord, values)
        _assert_indistinguishable(EdgeRecord(*values.values()), built)
        _assert_indistinguishable(EdgeRecord(**values), built)
        assert EdgeRecord(**values) != EdgeRecord(**{**values, "weak": False})

    def test_edge_record_still_frozen(self):
        rec = EdgeRecord(0, 1, iset(3), 1, 0, True, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.size = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rec.label
        assert rec.size == 1

    @pytest.mark.parametrize("labels", [
        [(0, 1), 2, (0, 1), (3, 5, 8)],          # every kind of violation
        [1, 2, 4, 8],                             # none
    ])
    def test_reports_and_violations_of_classify(self, labels):
        rep = classify(lab(complete_graph(4), *labels))
        _assert_indistinguishable(
            rep, _built_field_by_field(ClassificationReport, _field_values(rep)))
        for w in rep.violations:
            _assert_indistinguishable(
                w, _built_field_by_field(Violation, _field_values(w)))

    def test_report_positional_and_keyword(self):
        rep = classify(lab(path_graph(3), (0, 1), (0, 1), 3))
        values = _field_values(rep)
        built = _built_field_by_field(ClassificationReport, values)
        _assert_indistinguishable(ClassificationReport(*values.values()), built)
        _assert_indistinguishable(ClassificationReport(**values), built)
        # violations stay out of equality and hash, not out of repr
        other = ClassificationReport(**{**values, "violations": ()})
        assert other == rep and hash(other) == hash(rep)
        assert repr(other) != repr(rep)
        assert ClassificationReport(**{**values, "is_weak": not rep.is_weak}) != rep

    def test_violations_of_each_kind_match_the_constructor(self):
        rep = _classify_cold(lab(complete_graph(4), (0, 1), 2, (0, 1), (3, 5, 8)))
        assert sorted(w.kind for w in rep.violations) == [
            "edge-label-duplicate", "strong-failure", "vertex-label-duplicate",
            "weak-failure",
        ]
        for w in rep.violations:
            _assert_indistinguishable(w, Violation(w.kind, w.where, w.note))

    def test_report_of_classify_matches_the_constructor(self):
        rep = classify(lab(cycle_graph(4), (0, 1), 2, (0, 1), (3, 5)))
        _assert_indistinguishable(rep, ClassificationReport(**_field_values(rep)))

    def test_graphs_match_the_constructor(self):
        for g in enumerate_graphs(4):
            _assert_indistinguishable(g, Graph(g.vertex_count, g.edges))
        for g in (complete_graph(5), cycle_graph(7), empty_graph(3)):
            text = write_graph6(g)
            built = Graph(g.vertex_count, g.edges)
            assert write_graph6(built) == text       # seeds built's cached encoding
            _assert_indistinguishable(parse_graph6(text), built)

    def test_violation_positional_keyword_and_default(self):
        values = dict(kind="weak-failure", where=((0, 1),), note="size 3 != max(2,2)")
        built = _built_field_by_field(Violation, values)
        _assert_indistinguishable(Violation(*values.values()), built)
        _assert_indistinguishable(Violation(**values), built)
        _assert_indistinguishable(
            Violation("weak-failure", ((0, 1),)),
            _built_field_by_field(Violation, {**values, "note": ""}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.note = "x"


def _classify_cold(f):
    labeling._EDGES.clear()
    return classify(f)


def _sweep_crosschecked_labelings(monkeypatch):
    """The labelings the two labeling-sweep checks hand to classify: labels of
    size <= 2 from {0..3}, every 199th labeling of each check's domain."""
    seen = []

    def recording(f):
        seen.append(f)
        return classify(f)

    monkeypatch.setattr(oracle, "classify", recording)
    corpus = oracle.Corpus(max_element=3, max_label_size=2)
    for cid in ("weak-iff-singleton-endpoints", "strong-iff-disjoint-differences"):
        assert oracle.run_check(cid, corpus=corpus).verdict == "pass"
    monkeypatch.undo()
    return seen


def _minsize_witnesses():
    """The min_ground_set_size witness of each of the 804 graphs with <= 4
    vertices or connected on 5."""
    graphs = [g for n in range(5) for g in enumerate_graphs(n)]
    graphs += list(enumerate_graphs(5, connected_only=True))
    assert len(graphs) == 804
    return [min_ground_set_size(g)[1].witness for g in graphs]


class TestSumMemo:
    """classify keeps the finished record and violations of each edge it met,
    keyed by endpoints and label elements; a report built from them equals,
    byte for byte, one built from freshly computed sums."""

    @pytest.mark.parametrize("inputs", ["sweep", "minsize"])
    def test_warm_memo_keeps_every_report(self, monkeypatch, inputs):
        if inputs == "sweep":
            labelings = _sweep_crosschecked_labelings(monkeypatch)
            assert len(labelings) == 5810
        else:
            labelings = _minsize_witnesses()
        cold = [_classify_cold(f) for f in labelings]
        cold_json = [json.dumps(r.to_json()) for r in cold]
        cold_repr = [repr(r) for r in cold]
        for order in (1, -1):
            labeling._EDGES.clear()
            warm = [classify(f) for f in labelings[::order]][::order]
            assert warm == cold
            assert [json.dumps(r.to_json()) for r in warm] == cold_json
            assert [repr(r) for r in warm] == cold_repr
            assert 0 < len(labeling._EDGES) <= labeling._EDGES_CAP

    def test_memo_holds_at_most_its_cap(self):
        g = path_graph(33)
        labelings = [SetLabeling(g, [iset(v, 2 * v + shift + 1) for v in range(33)])
                     for shift in range(33)]          # 33 x 32 distinct edges
        cold = [_classify_cold(f) for f in labelings]
        labeling._EDGES.clear()
        for f, rep in zip(labelings[:32], cold):
            assert classify(f).to_json() == rep.to_json()
        assert len(labeling._EDGES) == labeling._EDGES_CAP == 1024
        # a hit on a full memo keeps it; the next miss clears it first
        assert classify(labelings[0]).to_json() == cold[0].to_json()
        assert len(labeling._EDGES) == labeling._EDGES_CAP
        assert classify(labelings[32]).to_json() == cold[32].to_json()
        assert len(labeling._EDGES) == 32
        first = labelings[0].labels
        assert (0, 1, first[0].elements, first[1].elements) not in labeling._EDGES
        assert classify(labelings[0]).to_json() == cold[0].to_json()
        assert len(labeling._EDGES) == 64

    def test_sum_past_the_element_bound_still_raises(self):
        f = lab(path_graph(3), 1, DEFAULT_ELEMENT_BOUND, 2)
        g = path_graph(33)
        fillers = [[lab(path_graph(2), 1, 2)],
                   [SetLabeling(g, [iset(v, 2 * v + shift + 1) for v in range(33)])
                    for shift in range(32)]]           # 32 x 32: a full memo
        for filler in fillers:
            labeling._EDGES.clear()
            for h in filler:
                classify(h)
            before = dict(labeling._EDGES)
            for _ in range(2):
                with pytest.raises(ElementBoundError):
                    classify(f)
                assert labeling._EDGES == before
        assert len(before) == labeling._EDGES_CAP

    def test_shared_records_and_violations_are_indistinguishable(self, cold_search):
        f = lab(path_graph(3), (0, 1), (0, 2), 7)
        first = classify(lab(path_graph(3), (0, 1), (0, 2), 9))
        second = classify(f)
        shared = second.per_edge[0]
        assert shared is first.per_edge[0]
        _assert_indistinguishable(
            shared, _built_field_by_field(EdgeRecord, _field_values(shared)))
        assert [w.kind for w in second.violations] == ["weak-failure"]
        assert second.violations[0] is first.violations[0]
        _assert_indistinguishable(
            second.violations[0],
            _built_field_by_field(Violation, _field_values(second.violations[0])))
        assert repr(second) == repr(_classify_cold(f))
