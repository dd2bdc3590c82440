"""The package's records behave as the dataclasses they replace, and
importing the CLI generates no code."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iasltools._record import Record
from iasltools.construct import ConstructionOutcome, NoConstruction, RepairEntry
from iasltools.graph import (
    BipartitenessResult, ContractionResult, Graph, LineGraphResult, SubgraphResult,
    TotalGraphResult, UnionResult,
)
from iasltools.intset import CompatibilityTable, IntegerSet
from iasltools.labeling import (
    ClassificationReport, EdgeRecord, SetLabeling, Violation, classify,
)
from iasltools.oracle import Corpus, SuiteResult, TheoremCheck, _Spec
from iasltools.search import BinomialBoundCheck, Certificate, SearchConfig

NO = dataclasses.MISSING
S, T = IntegerSet((1, 2)), IntegerSet((0, 3))
G, H = Graph(2, [(0, 1)]), Graph(2, [])
F, F2 = SetLabeling(G, (S, T)), SetLabeling(G, (T, S))
REPORT, REPORT2 = classify(F), classify(SetLabeling(G, (S, S)))
CONFIG = SearchConfig()
CHECK = TheoremCheck("c", "d", CONFIG, "pass")

# Each record as its dataclass declared it: class, frozen, order, then per
# field (name, default or NO, compared, a sample value, a different value).
# "list" and "dict" stand for default_factory=list and default_factory=dict.
RECORDS = [
    (IntegerSet, True, True, [("elements", NO, True, (1, 2), (0, 3))]),
    (CompatibilityTable, True, False, [
        ("first", NO, True, S, T), ("second", NO, True, T, S),
        ("index", NO, True, 4, 3), ("neglecting_number", NO, True, 0, 1),
        ("max_class_size", NO, True, 1, 2), ("saturated_sums", NO, True, (), (3,))]),
    (Graph, True, False, [
        ("vertex_count", NO, True, 3, 4), ("edges", NO, True, ((0, 1),), ((1, 2),)),
        ("names", None, False, None, ("a", "b", "c"))]),
    (BipartitenessResult, True, False, [
        ("bipartite", NO, True, True, False), ("coloring", NO, True, (0, 1), None),
        ("odd_cycle", NO, True, None, (0, 1, 2))]),
    (UnionResult, True, False, [
        ("graph", NO, True, G, H), ("map_first", NO, True, (0, 1), (1, 0)),
        ("map_second", NO, True, (2,), (0,))]),
    (LineGraphResult, True, False, [
        ("graph", NO, True, G, H), ("vertex_edges", NO, True, ((0, 1),), ((1, 2),))]),
    (TotalGraphResult, True, False, [
        ("graph", NO, True, G, H), ("vertex_part", NO, True, (0,), (1,)),
        ("edge_part", NO, True, (1,), (0,)),
        ("vertex_edges", NO, True, ((0, 1),), ((1, 2),))]),
    (ContractionResult, True, False, [
        ("graph", NO, True, G, H), ("vertex_map", NO, True, (0, 0), (0, 1))]),
    (SubgraphResult, True, False, [
        ("graph", NO, True, G, H), ("kept", NO, True, (0, 2), (1, 2))]),
    (SetLabeling, True, False, [
        ("graph", NO, True, G, H), ("labels", NO, True, (S, T), (T, S))]),
    (EdgeRecord, True, False, [
        ("u", NO, True, 0, 1), ("v", NO, True, 1, 2), ("label", NO, True, S, T),
        ("size", NO, True, 2, 3), ("neglecting_number", NO, True, 0, 1),
        ("weak", NO, True, True, False), ("strong", NO, True, False, True)]),
    (Violation, True, False, [
        ("kind", NO, True, "weak-failure", "strong-failure"),
        ("where", NO, True, ((0, 1),), ((1, 2),)), ("note", "", True, "", "x")]),
    (ClassificationReport, True, False, [
        ("is_iasl", NO, True, True, False), ("is_iasi", NO, True, True, False),
        ("is_weak", NO, True, False, True), ("is_strong", NO, True, True, False),
        ("edge_uniform_k", NO, True, 2, None), ("vertex_uniform_l", NO, True, 2, 1),
        ("completely_uniform", NO, True, (2, 2), None),
        ("vacuous_edges", NO, True, False, True),
        ("per_edge", NO, True, REPORT.per_edge, REPORT2.per_edge),
        ("violations", NO, False, REPORT.violations, REPORT2.violations)]),
    (RepairEntry, True, False, [
        ("vertex", NO, True, 1, 2), ("original", NO, True, S, T),
        ("replacement", NO, True, T, S), ("reason", NO, True, "dup", "other")]),
    (ConstructionOutcome, True, False, [
        ("labeling", NO, True, F, F2), ("repaired", NO, True, False, True),
        ("repair_log", NO, True, (), (RepairEntry(1, S, T, "dup"),)),
        ("report", NO, True, REPORT, REPORT2), ("formula_report", NO, True, REPORT, REPORT2),
        ("note", "", True, "", "n")]),
    (NoConstruction, True, False, [
        ("reason", NO, True, "odd", "even"), ("odd_cycle", None, True, None, (0, 1, 2))]),
    (SearchConfig, True, False, [
        ("element_bound", 8, True, 8, 5), ("size_bound", 4, True, 4, 2),
        ("time_budget", 60.0, True, 60.0, 1.5)]),
    (Certificate, False, False, [
        ("kind", NO, True, "witness", "exhausted"), ("config", NO, True, CONFIG, SearchConfig(1)),
        ("description", NO, True, "d", "e"), ("witness", None, True, None, F),
        ("data", "dict", True, {}, {"k": 2})]),
    (BinomialBoundCheck, True, False, [
        ("vertex_count", NO, True, 3, 4), ("ground_set_size", NO, True, 4, 5),
        ("label_size", NO, True, 2, 1), ("bound", NO, True, 6, 4),
        ("holds", NO, True, True, False)]),
    (Corpus, True, False, [
        ("graphs", None, True, None, (G,)), ("max_vertices", None, True, None, 3),
        ("max_element", None, True, None, 4), ("max_label_size", None, True, None, 2),
        ("ks", None, True, None, (1, 2))]),
    (TheoremCheck, False, False, [
        ("check_id", NO, True, "c", "d"), ("corpus", NO, True, "d", "e"),
        ("config", NO, True, CONFIG, SearchConfig(1)), ("verdict", NO, True, "pass", "fail"),
        ("reason", "", True, "", "budget"), ("counterexamples", "list", True, [], [{}]),
        ("details", "dict", True, {}, {"n": 1})]),
    (_Spec, True, False, [
        ("run", NO, True, len, abs), ("corpus", NO, True, "c", "d"),
        ("family", NO, True, None, len), ("defaults", NO, True, Corpus(), Corpus(ks=(2,))),
        ("default_note", NO, True, "", "n")]),
    (SuiteResult, False, False, [("checks", NO, True, [CHECK], [])]),
]


def _reference(cls, frozen, order, fields):
    spec = []
    for name, default, compared, _, _ in fields:
        if default in ("list", "dict"):
            f = dataclasses.field(default_factory={"list": list, "dict": dict}[default])
        else:
            f = dataclasses.field(default=default, compare=compared)
        spec.append((name, object, f))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen, order=order)


REFERENCES = {r[0]: _reference(*r) for r in RECORDS}


def _pair(record, **changes):
    """The record and its reference, built from the same sample values."""
    cls, frozen, order, fields = record
    values = {f[0]: f[3] for f in fields}
    values.update(changes)
    return cls(**values), REFERENCES[cls](**values)


@pytest.fixture(params=RECORDS, ids=[r[0].__name__ for r in RECORDS])
def record(request):
    return request.param


def test_every_record_is_listed():
    assert len(RECORDS) == len({r[0] for r in RECORDS}) == 23
    assert set(Record.__subclasses__()) == {r[0] for r in RECORDS}


def test_fields_and_repr(record):
    cls, frozen, order, fields = record
    ours, ref = _pair(record)
    assert cls._fields == cls.__match_args__ == tuple(f[0] for f in fields)
    assert repr(ours) == repr(ref)
    assert repr(cls(*[f[3] for f in fields])) == repr(ref)
    for name, _, _, _, other in fields:
        ours2, ref2 = _pair(record, **{name: other})
        assert repr(ours2) == repr(ref2)


def test_defaults(record):
    cls, frozen, order, fields = record
    required = {f[0]: f[3] for f in fields if f[1] is NO}
    ref = REFERENCES[cls]
    assert repr(cls(**required)) == repr(ref(**required))
    a, b = cls(**required), cls(**required)
    for name, default, _, _, _ in fields:
        if default in ("list", "dict"):
            assert getattr(a, name) == getattr(ref(**required), name)
            assert getattr(a, name) is not getattr(b, name)


def test_eq_and_ne_on_each_changed_field(record):
    cls, frozen, order, fields = record
    ours, ref = _pair(record)
    assert ours == _pair(record)[0] and not ours != _pair(record)[0]
    assert ours.__eq__(ref) is NotImplemented and ours != ref
    for name, _, compared, _, other in fields:
        ours2, ref2 = _pair(record, **{name: other})
        assert (ours == ours2) == (ref == ref2) == (not compared), name
        assert (ours != ours2) == (ref != ref2) == compared, name
        if frozen:
            assert (hash(ours) == hash(ours2)) == (hash(ref) == hash(ref2))


def test_hash_and_assignment(record):
    cls, frozen, order, fields = record
    ours, ref = _pair(record)
    name = fields[0][0]
    if frozen:
        assert hash(ours) == hash(ref)
        for value in (ours, ref):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot delete field '{name}'"):
                delattr(value, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.extra = 0
    else:
        for value in (ours, ref):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
            setattr(value, name, "new")
        assert getattr(ours, name) == "new" and repr(ours) == repr(ref)


def test_order(record):
    cls, frozen, order, fields = record
    ours, ref = _pair(record)
    ours2, ref2 = _pair(record, **{fields[0][0]: fields[0][4]})
    for x, y, rx, ry in [(ours, ours2, ref, ref2), (ours2, ours, ref2, ref),
                         (ours, ours, ref, ref)]:
        if order:
            assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
        else:
            with pytest.raises(TypeError):
                x < y
            with pytest.raises(TypeError):
                rx < ry


def test_integer_sets_sort_as_before():
    values = [IntegerSet(e) for e in [(3,), (0, 5), (1, 2), (0, 1, 9), (2,), (0, 5, 6)]]
    ref = REFERENCES[IntegerSet]
    assert [s.elements for s in sorted(values)] == \
        [r.elements for r in sorted(ref(s.elements) for s in values)]
    with pytest.raises(TypeError):
        IntegerSet((1,)) < (1,)


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Certificate()
    with pytest.raises(TypeError):
        NoConstruction("a", None, "extra")
    with pytest.raises(TypeError):
        NoConstruction("a", reason="b")
    with pytest.raises(TypeError):
        NoConstruction("a", cycle=None)


def test_cli_import_generates_no_code():
    # -S: a site .pth file may import typing before this check starts
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; before = set(sys.modules); import iasltools.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'}"
            " & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
