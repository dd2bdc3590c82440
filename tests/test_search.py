"""Bounded exact search: minimal ground sets and k-uniform labelings."""

import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import pytest

from iasltools import search
from iasltools.cli import main
from iasltools.graph import (
    Graph, complete_graph, cycle_graph, empty_graph, enumerate_graphs, path_graph,
    star_graph, write_graph6,
)
from iasltools.intset import iset
from iasltools.labeling import classify, ground_set
from iasltools.search import (
    SearchConfig, check_binomial_bound, find_k_uniform, min_ground_set_size,
)


class TestConfig:
    def test_defaults_and_json(self):
        cfg = SearchConfig()
        assert cfg.to_json() == {
            "element_bound": 8, "size_bound": 4, "time_budget": 60.0,
        }

    def test_frozen(self):
        with pytest.raises(Exception):
            SearchConfig().element_bound = 3

    @pytest.mark.parametrize("kwargs", [
        {"element_bound": -1},
        {"element_bound": 13, "size_bound": 1},
        {"size_bound": 0},
        {"time_budget": -0.5},
        {"time_budget": float("nan")},
        # valid configs, but 1,092 labels over {0..12} and 2,035 over
        # {0..10} exceed the 1,023 that the k-uniform search tabulates
        {"element_bound": 12},
        {"element_bound": 10, "size_bound": 9},
        # not finite: the budget is echoed into JSON, which has no Infinity
        {"time_budget": float("inf")},
        {"time_budget": 1e309},
    ])
    def test_meaningless_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            find_k_uniform(complete_graph(2), 2, SearchConfig(**kwargs))

    def test_label_universe_counts_at_most_b_plus_one_sizes(self, monkeypatch):
        calls = []

        def counting(n, size):
            calls.append(size)
            return comb(n, size)

        monkeypatch.setattr(search, "comb", counting)
        SearchConfig(element_bound=3, size_bound=10 ** 20).check_label_universe()
        assert calls == [1, 2, 3, 4]
        with pytest.raises(ValueError, match="8191 labels"):
            SearchConfig(element_bound=12, size_bound=10 ** 20).check_label_universe()
        assert len(calls) == 4 + 13

    @pytest.mark.parametrize("bounds", [
        (8, 4), (8, 9), (6, 3), (5, 3), (5, 2), (1, 4), (0, 1), (9, 9), (10, 4),
        (12, 3), (12, 4), (10, 9),
    ])
    def test_documented_bounds_accepted(self, bounds):
        element_bound, size_bound = bounds
        cfg = SearchConfig(element_bound=element_bound, size_bound=size_bound,
                           time_budget=0.0)
        assert cfg.to_json()["time_budget"] == 0.0


class TestMinGroundSet:
    def test_k2(self):
        size, cert = min_ground_set_size(complete_graph(2))
        assert size == 2
        assert cert.kind == "witness"
        assert [l.to_list() for l in cert.witness.labels] == [[0], [1]]

    def test_k3(self):
        size, cert = min_ground_set_size(complete_graph(3))
        assert size == 2
        assert [l.to_list() for l in cert.witness.labels] == [[0], [1], [0, 1]]
        assert ground_set(cert.witness) == (0, 1)

    def test_k4_and_star(self):
        assert min_ground_set_size(complete_graph(4))[0] == 3
        size, cert = min_ground_set_size(star_graph(3))
        assert size == 3
        assert [l.to_list() for l in cert.witness.labels] == [
            [0], [1], [0, 1], [2]]

    def test_k5(self):
        assert min_ground_set_size(complete_graph(5))[0] == 3

    def test_log_floor_on_connected_graphs(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n, connected_only=True):
                size, cert = min_ground_set_size(g)
                assert size is not None
                assert size >= n.bit_length()

    def test_witness_is_verified(self):
        for g in (path_graph(4), cycle_graph(5), star_graph(4)):
            size, cert = min_ground_set_size(g)
            rep = classify(cert.witness)
            assert rep.is_iasl and rep.is_iasi
            assert len(ground_set(cert.witness)) == size

    def test_budget_certificate(self):
        cfg = SearchConfig(time_budget=0.0)
        size, cert = min_ground_set_size(complete_graph(5), cfg)
        assert size is None
        assert cert.kind == "budget_exceeded"
        # byte-stable: no wall-clock readings inside
        assert "second" not in cert.description

    def test_certificate_json(self):
        _, cert = min_ground_set_size(complete_graph(2))
        payload = json.loads(json.dumps(cert.to_json(), sort_keys=True))
        assert payload["kind"] == "witness"
        assert payload["config"]["element_bound"] == 8
        assert payload["witness"]["labels"] == [[0], [1]]
        assert payload["ground_set"] == [0, 1]

    def test_empty_graph(self):
        size, cert = min_ground_set_size(empty_graph(0))
        assert size == 0


class TestKUniform:
    def test_bipartite_two_uniform_witness(self):
        cert = find_k_uniform(path_graph(3), 2)
        assert cert.kind == "witness"
        rep = classify(cert.witness)
        assert rep.is_iasl and rep.is_iasi
        assert rep.edge_uniform_k == 2

    def test_triangle_two_uniform_exhausted(self):
        cert = find_k_uniform(complete_graph(3), 2, SearchConfig(element_bound=6,
                                                                 size_bound=3))
        assert cert.kind == "exhausted"
        assert cert.witness is None

    def test_triangle_three_uniform_witness(self):
        cert = find_k_uniform(complete_graph(3), 3)
        assert cert.kind == "witness"
        assert [l.to_list() for l in cert.witness.labels] == [
            [0, 1], [1, 2], [2, 3]]

    def test_triangle_three_uniform_weak_mode_exhausted(self):
        # a witness exists but no weak one: mode must change the verdict
        cert = find_k_uniform(complete_graph(3), 3, mode="weak")
        assert cert.kind == "exhausted"

    def test_triangle_three_uniform_strong_mode_exhausted(self):
        cert = find_k_uniform(complete_graph(3), 3, mode="strong")
        assert cert.kind == "exhausted"

    def test_weak_mode_witness_is_weak(self):
        cert = find_k_uniform(path_graph(3), 3, mode="weak")
        assert cert.kind == "witness"
        rep = classify(cert.witness)
        assert rep.is_weak and rep.edge_uniform_k == 3

    def test_strong_mode_witness_is_strong(self):
        cert = find_k_uniform(path_graph(3), 4, mode="strong")
        assert cert.kind == "witness"
        rep = classify(cert.witness)
        assert rep.is_strong and rep.edge_uniform_k == 4

    def test_singleton_k(self):
        cert = find_k_uniform(cycle_graph(5), 1)
        assert cert.kind == "witness"
        assert classify(cert.witness).edge_uniform_k == 1

    def test_odd_cycles_exhaust_at_two(self):
        cfg = SearchConfig(element_bound=6, size_bound=3)
        for n in (3, 5):
            assert find_k_uniform(cycle_graph(n), 2, cfg).kind == "exhausted"

    def test_budget(self):
        cert = find_k_uniform(complete_graph(5), 2,
                              SearchConfig(time_budget=0.0))
        assert cert.kind == "budget_exceeded"

    @pytest.mark.parametrize("mode", ["any", "weak", "strong"])
    def test_zero_budget_stops_the_odd_cycle_search(self, mode):
        # a triangle plus a pendant vertex: the cycle is searched first
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        assert search._odd_girth(g, search._Deadline(60.0)) == 3 < g.vertex_count
        cert = find_k_uniform(g, 2, SearchConfig(element_bound=5, size_bound=3,
                                                 time_budget=0.0), mode=mode)
        assert cert.kind == "budget_exceeded"

    def test_zero_budget_builds_no_table(self, cold_search):
        table = search._uniform_table(9, 10, 2, "any")      # the one the search would use
        cert = find_k_uniform(complete_graph(3), 2,
                              SearchConfig(element_bound=9, size_bound=10, time_budget=0.0))
        assert cert.kind == "budget_exceeded"
        assert _rows_filled(table) == []
        assert search._uniform_table.cache_info().currsize == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            find_k_uniform(path_graph(2), 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown mode 'full'$"):
            find_k_uniform(path_graph(2), 2, mode="full")

    def test_more_vertices_than_labels_is_exhausted_at_once(self, cold_search):
        # 300 isolated vertices, all twins, and 255 labels at 8/4: the
        # search ends after its first deadline check, filling no row
        table = search._uniform_table(8, 4, 1, "any")
        assert search._backtrack(empty_graph(300), table, _Countdown(1)) is None
        assert _rows_filled(table) == []
        assert find_k_uniform(empty_graph(300), 1).kind == "exhausted"
        assert find_k_uniform(empty_graph(255), 1).kind == "witness"

    def test_budget_bounds_the_odd_girth(self, monkeypatch):
        # the fourth check (the third BFS tree) runs out before any search;
        # an odd cycle is not bipartite, so every vertex roots a tree, and
        # its 1,001 vertices are fewer than the 1,023 labels at 9/9
        monkeypatch.setattr(search, "_Deadline", lambda budget: _Countdown(3))
        monkeypatch.setattr(search, "_backtrack", lambda *args: pytest.fail("searched"))
        cfg = SearchConfig(element_bound=9, size_bound=9)
        assert find_k_uniform(cycle_graph(1001), 2, cfg).kind == "budget_exceeded"

    def test_more_vertices_than_labels_skips_the_odd_girth(self, monkeypatch):
        # 2,999 vertices and 255 labels at 8/4: exhausted without a BFS tree
        monkeypatch.setattr(search, "_odd_girth", lambda *args: pytest.fail("girth"))
        assert find_k_uniform(cycle_graph(2999), 2).kind == "exhausted"

    def test_odd_girth_trees_stop_at_the_best_cycle(self):
        # K300's first tree finds a triangle at depth 1, so every tree stops
        # there; 300 trees run to their ends would take 300 x 44,850 steps
        start = time.perf_counter()
        cert = find_k_uniform(complete_graph(300), 2, SearchConfig(element_bound=9,
                                                                   size_bound=9))
        assert cert.kind == "exhausted"
        assert time.perf_counter() - start < 3.0

    def test_bipartite_graph_takes_one_tree_per_component(self, monkeypatch):
        # the opening check, one BFS tree, and the search's own check: 3000
        # vertices are more than the 255 labels, so it is exhausted at once
        monkeypatch.setattr(search, "_Deadline", lambda budget: _Countdown(3))
        assert find_k_uniform(path_graph(3000), 2).kind == "exhausted"

    def test_exhausted_certificate_names_space(self):
        cfg = SearchConfig(element_bound=5, size_bound=2)
        cert = find_k_uniform(complete_graph(3), 2, cfg)
        payload = cert.to_json()
        assert payload["kind"] == "exhausted"
        assert "{0..5}" in payload["description"]
        assert payload["config"]["size_bound"] == 2

    def test_refuted_odd_cycle_stands_for_the_graph(self, monkeypatch, cold_search):
        searched = []
        backtrack = search._backtrack

        def spy(g, *args):
            searched.append(g.vertex_count)
            return backtrack(g, *args)

        monkeypatch.setattr(search, "_backtrack", spy)
        cfg = SearchConfig(element_bound=5, size_bound=3)
        cases = [
            (complete_graph(5), 2, "exhausted", [3]),       # C3 refutes K5
            (cycle_graph(5), 2, "exhausted", [5]),         # L = n: searched once
            (complete_graph(4), 3, "witness", [3, 4]),     # C3 has a witness
            (path_graph(4), 2, "witness", [4]),            # bipartite
        ]
        for g, k, kind, sizes in cases:
            searched.clear()
            assert find_k_uniform(g, k, cfg).kind == kind
            assert searched == sizes

    def test_deterministic_across_runs(self):
        a = find_k_uniform(cycle_graph(4), 2).to_json()
        b = find_k_uniform(cycle_graph(4), 2).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# a triangle plus a pendant vertex
_PAW = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


class TestOddCycleMemo:
    """The k-uniform label table keeps its verdicts on odd cycles."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_warm_memo_keeps_every_certificate(self, k, cold_search):
        graphs = _small_graphs() + list(enumerate_graphs(5, connected_only=True))
        cfg = SearchConfig(element_bound=4, size_bound=2)
        for mode in ("any", "weak", "strong"):
            cold = []
            for g in graphs:
                search._uniform_table.cache_clear()
                cold.append(find_k_uniform(g, k, cfg, mode).to_json())
            search._uniform_table.cache_clear()
            forward = [find_k_uniform(g, k, cfg, mode).to_json() for g in graphs]
            assert set(search._uniform_table(4, 2, k, mode).cycles) == {3, 5}
            search._uniform_table.cache_clear()
            backward = [find_k_uniform(g, k, cfg, mode).to_json()
                        for g in reversed(graphs)]
            assert forward == cold
            assert backward[::-1] == cold

    def test_each_odd_cycle_is_searched_once(self, monkeypatch, cold_search):
        searched = []
        backtrack = search._backtrack

        def spy(g, *args):
            searched.append(g.vertex_count)
            return backtrack(g, *args)

        monkeypatch.setattr(search, "_backtrack", spy)
        cfg = SearchConfig(element_bound=5, size_bound=3)
        cases = [
            (complete_graph(5), 2, "exhausted", [3]),      # C3 refutes K5
            (complete_graph(4), 2, "exhausted", []),       # ... and K4, unsearched
            (complete_graph(3), 2, "exhausted", []),       # ... and C3 itself
            (cycle_graph(5), 2, "exhausted", [5]),         # L = n: g's verdict kept
            (complete_graph(4), 3, "witness", [3, 4]),     # C3 has a witness
            (_PAW, 3, "witness", [4]),                     # ... so only g is searched
        ]
        for g, k, kind, sizes in cases:
            searched.clear()
            assert find_k_uniform(g, k, cfg).kind == kind
            assert searched == sizes
        assert search._uniform_table(5, 3, 2, "any").cycles == {3: True, 5: True}
        assert search._uniform_table(5, 3, 3, "any").cycles == {3: False}
        assert search._uniform_table.cache_info().currsize == 2

    def test_verdict_of_a_larger_graph_is_not_kept(self, cold_search):
        # at 4/2, k=3: C3 has a witness but K4 is exhausted
        cfg = SearchConfig(element_bound=4, size_bound=2)
        cold = []
        for g in (_PAW, complete_graph(3)):
            search._uniform_table.cache_clear()
            cold.append(find_k_uniform(g, 3, cfg).to_json())
        search._uniform_table.cache_clear()
        assert find_k_uniform(complete_graph(4), 3, cfg).kind == "exhausted"
        table = search._uniform_table(4, 2, 3, "any")
        assert table.cycles == {3: False}
        for g, expected in zip((_PAW, complete_graph(3)), cold):
            warm = find_k_uniform(g, 3, cfg)
            assert warm.kind == "witness"
            assert warm.to_json() == expected
        assert table.cycles == {3: False}

    def test_zero_budget_with_a_warm_memo(self, cold_search):
        cfg = SearchConfig(element_bound=5, size_bound=3)
        for k in (2, 3):
            find_k_uniform(complete_graph(4), k, cfg)
        tables = [search._uniform_table(5, 3, k, "any") for k in (2, 3)]
        warmed = [dict(t.cycles) for t in tables]
        broke = SearchConfig(element_bound=5, size_bound=3, time_budget=0.0)
        for g in (complete_graph(5), complete_graph(3), _PAW):
            for k in (2, 3):
                assert find_k_uniform(g, k, broke).kind == "budget_exceeded"
        assert [t.cycles for t in tables] == warmed == [{3: True}, {3: False}]


class TestBinomialBound:
    def test_holds_on_uniform_witnesses(self):
        from iasltools.construct import canonical_iasi, strongly_uniform_iasi
        for g in (path_graph(4), complete_graph(3), cycle_graph(5)):
            res = check_binomial_bound(g, canonical_iasi(g).labeling)
            assert res.holds
            res2 = check_binomial_bound(g, strongly_uniform_iasi(g, 4).labeling)
            assert res2.holds
            assert res2.label_size == 2

    def test_tight_case(self):
        # K3 over ground set {0,1} uses all three non-empty subsets
        _, cert = min_ground_set_size(complete_graph(3))
        # witness is not uniform (sizes 1,1,2), so use a singleton cover instead
        from iasltools.construct import canonical_iasi
        res = check_binomial_bound(complete_graph(3),
                                   canonical_iasi(complete_graph(3)).labeling)
        assert res.vertex_count <= res.bound

    def test_rejects_non_uniform(self):
        from iasltools.labeling import SetLabeling
        f = SetLabeling(path_graph(2), [iset(0), iset(1, 2)])
        with pytest.raises(ValueError):
            check_binomial_bound(path_graph(2), f)

    def test_rejects_non_indexer(self):
        from iasltools.labeling import SetLabeling
        f = SetLabeling(path_graph(3), [iset(1), iset(2), iset(1)])
        with pytest.raises(ValueError):
            check_binomial_bound(path_graph(3), f)

    def test_rejects_a_labeling_of_another_graph(self):
        from iasltools.construct import canonical_iasi
        f = canonical_iasi(path_graph(3)).labeling
        with pytest.raises(ValueError, match="^labeling does not belong to this graph$"):
            check_binomial_bound(complete_graph(3), f)

    def test_json(self):
        from iasltools.construct import canonical_iasi
        res = check_binomial_bound(path_graph(3),
                                   canonical_iasi(path_graph(3)).labeling)
        payload = res.to_json()
        assert payload["holds"] is True
        assert payload["label_size"] == 1


# ---------------------------------------------------------------------------
# the pruned searches against an unpruned enumerator

@lru_cache(maxsize=None)
def _sums(a, b):
    return frozenset(x + y for x in a for y in b)


def _nonempty_subsets(elements):
    return [frozenset(c) for size in range(1, len(elements) + 1)
            for c in combinations(elements, size)]


def _is_indexer(g, labels):
    """Distinct vertex labels and distinct edge sum sets."""
    edge_sums = {_sums(labels[u], labels[v]) for u, v in g.edges}
    return len(set(labels)) == len(labels) and len(edge_sums) == g.edge_count


def _brute_indexers(g, domain):
    """Every set-indexer of g with labels from domain, one tuple per labeling."""
    for labels in permutations(domain, g.vertex_count):
        if _is_indexer(g, labels):
            yield labels


def _modes(g, labels):
    """The (k, mode) pairs that the set-indexer labels satisfies."""
    pairs = [(labels[u], labels[v]) for u, v in g.edges]
    sizes = {len(_sums(a, b)) for a, b in pairs}
    if len(sizes) > 1:
        return set()
    modes = {"any"}
    if all(min(len(a), len(b)) == 1 for a, b in pairs):
        modes.add("weak")
    if all(len(_sums(a, b)) == len(a) * len(b) for a, b in pairs):
        modes.add("strong")
    return {(k, mode) for k in sizes or (1, 2, 3, 4) for mode in modes}


def _small_graphs(max_n=4):
    return [g for n in range(max_n + 1) for g in enumerate_graphs(n)]


def _witness_labels(cert):
    return [frozenset(l.to_list()) for l in cert.witness.labels]


def _brute_first_ground_set(g, element_bound):
    """(m, X) for the first X, by size then in combinations order, whose
    non-empty subsets carry a set-indexer of g; (None, None) if none does."""
    for m in range(element_bound + 2):
        for ground in combinations(range(element_bound + 1), m):
            if next(_brute_indexers(g, _nonempty_subsets(ground)), None) is not None:
                return m, list(ground)
    return None, None


def _shortest_odd_closed_walk(g):
    """Least odd L with a closed walk of L edges, by stepping every walk's
    end set; an odd closed walk, if any, has an odd cycle of <= n edges."""
    best = None
    for start in g.vertices():
        ends = {start}
        for length in range(1, g.vertex_count + 1):
            ends = {w for u in ends for w in g.vertices() if g.has_edge(u, w)}
            if length % 2 and start in ends and (best is None or length < best):
                best = length
    return best


class TestAgainstBruteForce:
    """Verdicts of the pruned engine (twin floors, compatibility lists)
    against every injective labeling, with sum sets as frozensets."""

    @pytest.mark.parametrize("bounds", [(3, 2), (2, 3)])
    def test_find_k_uniform_verdicts(self, bounds):
        element_bound, size_bound = bounds
        cfg = SearchConfig(element_bound=element_bound, size_bound=size_bound)
        domain = [s for s in _nonempty_subsets(range(element_bound + 1))
                  if len(s) <= size_bound]
        for g in _small_graphs():
            reachable = set()
            for labels in _brute_indexers(g, domain):
                reachable |= _modes(g, labels)
            for k in (1, 2, 3, 4):
                for mode in ("any", "weak", "strong"):
                    cert = find_k_uniform(g, k, cfg, mode=mode)
                    case = (write_graph6(g), k, mode)
                    assert cert.kind == (
                        "witness" if (k, mode) in reachable else "exhausted"
                    ), case
                    if cert.witness is not None:
                        found = _witness_labels(cert)
                        assert set(found) <= set(domain), case
                        assert _is_indexer(g, found), case
                        assert (k, mode) in _modes(g, found), case

    def test_min_ground_set_size(self):
        element_bound = 3
        cfg = SearchConfig(element_bound=element_bound)
        for g in _small_graphs():
            expected, _ = _brute_first_ground_set(g, element_bound)
            size, cert = min_ground_set_size(g, cfg)
            assert size == expected, write_graph6(g)
            if cert.witness is not None:
                found = _witness_labels(cert)
                ground = cert.to_json()["ground_set"]
                assert len(ground) == size
                assert set(found) <= set(_nonempty_subsets(ground))
                assert _is_indexer(g, found)

    @pytest.mark.parametrize("element_bound,expected,kind", [
        # {0,1,2} has 7 non-empty subsets, too few to index K6's 15 edges
        (8, (3, [0, 1, 3]), "witness"),
        (2, (None, None), "exhausted"),
    ], ids=["moves-past-a-failed-ground-set", "exhausted"])
    def test_min_ground_set_size_k6(self, element_bound, expected, kind):
        g = complete_graph(6)
        assert _brute_first_ground_set(g, element_bound) == expected
        size, cert = min_ground_set_size(g, SearchConfig(element_bound=element_bound))
        assert (size, cert.data.get("ground_set"), cert.kind) == (*expected, kind)

    @pytest.mark.parametrize("bounds", [(3, 2), (5, 3)])
    def test_pair_rule_keys_disallowed_pairs_zero(self, bounds):
        """A filled row keys an allowed pair by its sum set as a bitmask and
        every other pair 0, against the pair rule applied to the labels
        themselves."""
        for k in (1, 2, 3, 4):
            for mode in ("any", "weak", "strong"):
                labels = search._uniform_table(*bounds, k, mode).labels
                table = search._Table(labels, (k, mode))
                for i in range(len(labels)):
                    table.fill(i, search._Deadline(60.0))
                for i, a in enumerate(labels):
                    for j, b in enumerate(labels):
                        sums = {x + y for x in a for y in b}
                        ok = len(sums) == k and {
                            "any": True,
                            "weak": min(len(a), len(b)) == 1,
                            "strong": len(sums) == len(a) * len(b),
                        }[mode]
                        expected = sum(1 << x for x in sums) if ok else 0
                        assert table.key[i][j] == expected, (a, b, k, mode)
                    assert table.allowed[i] == [j for j in range(len(labels))
                                                if table.key[i][j]]

    def test_odd_girth(self):
        for g in _small_graphs(5):
            girth = search._odd_girth(g, search._Deadline(60.0))
            assert girth == _shortest_odd_closed_walk(g), write_graph6(g)

    def test_odd_girth_checks_the_deadline_before_each_tree(self):
        # a bipartite component needs only the tree of its first vertex
        for g, girth, trees in ((path_graph(6), None, 1), (cycle_graph(5), 5, 5)):
            with pytest.raises(search.BudgetExceeded):
                search._odd_girth(g, _Countdown(trees - 1))
            assert search._odd_girth(g, _Countdown(trees)) == girth

    def test_odd_cycle_refutation_keeps_every_verdict(self):
        """The verdict with the odd-cycle step equals a direct search of g."""
        cfg = SearchConfig(element_bound=3, size_bound=2)
        for g in _small_graphs(5):
            for k in (1, 2, 3, 4):
                for mode in ("any", "weak", "strong"):
                    table = search._uniform_table(3, 2, k, mode)
                    direct = search._backtrack(g, table, search._Deadline(60.0))
                    expected = "exhausted" if direct is None else "witness"
                    case = (write_graph6(g), k, mode)
                    assert find_k_uniform(g, k, cfg, mode=mode).kind == expected, case


# ---------------------------------------------------------------------------
# the lazily filled tables, the bitmask twin rule and the iterative search

def _rows_filled(table):
    return [i for i, row in enumerate(table.key) if row is not None]


def _frozenset_twins(g):
    """For each vertex, the largest smaller twin, from neighbourhood sets."""
    out = []
    for v in g.vertices():
        prev = -1
        for u in range(v):
            if g.adjacency[u] - {v} == g.adjacency[v] - {u}:
                prev = u
        out.append(prev)
    return tuple(out)


def _frozenset_search_order(g):
    """Components in order, BFS inside each, neighbours queued ascending,
    from the frozenset adjacency."""
    seen, order = set(), []
    for start in g.vertices():
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for v in queue:
            order.append(v)
            for w in sorted(g.adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


class _Countdown(search._Deadline):
    """A deadline that runs out at its checks-th check."""

    def __init__(self, checks):
        super().__init__(60.0)
        self.left = checks

    def check(self):
        self.left -= 1
        if self.left < 0:
            raise search.BudgetExceeded


def _sweep_graphs():
    """The 804 graphs with <= 4 vertices or connected on 5."""
    return _small_graphs() + list(enumerate_graphs(5, connected_only=True))


class TestGroundTables:
    def test_twin_masks_match_neighbourhood_sets(self):
        for g in _small_graphs(6):
            masks = g.masks
            assert search._twin_constraints(masks) == _frozenset_twins(g), write_graph6(g)

    def test_twin_floors_take_linear_time(self):
        # 4,000 isolated vertices are all twins; the budget does not bound
        # the twin floors, so only their own cost keeps this call short
        start = time.perf_counter()
        min_ground_set_size(empty_graph(4000),
                            SearchConfig(element_bound=12, time_budget=0.01))
        assert time.perf_counter() - start < 0.5

    def test_mask_search_order_matches_neighbourhood_sets(self):
        for g in _small_graphs(6):
            order = list(g.bfs[0])
            assert order == _frozenset_search_order(g), write_graph6(g)

    def test_zero_budget_builds_no_table(self, cold_search):
        table = search._ground_table((0, 1, 2))             # K5's first ground set
        size, cert = min_ground_set_size(
            complete_graph(5), SearchConfig(time_budget=0.0))
        assert (size, cert.kind) == (None, "budget_exceeded")
        assert _rows_filled(table) == []
        assert search._ground_table.cache_info().currsize == 1

    def test_build_cut_short_caches_nothing(self, cold_search):
        table = search._ground_table((0, 1, 2, 3, 4, 5))
        with pytest.raises(search.BudgetExceeded):
            table.fill(5, _Countdown(0))
        assert _rows_filled(table) == []
        # one check opens the search and one precedes each fill, so a
        # search cut at its 11th check has filled 9 rows, each whole
        with pytest.raises(search.BudgetExceeded):
            search._backtrack(complete_graph(12), table, _Countdown(10))
        filled = _rows_filled(table)
        assert len(filled) == 9
        for i in filled:
            a = table.labels[i]
            assert table.key[i] == [sum({1 << (x + y) for x in a for y in b})
                                    for b in table.labels]

    def test_rows_are_filled_for_labels_with_a_later_neighbour(self, cold_search):
        assert min_ground_set_size(empty_graph(5))[0] == 3
        assert _rows_filled(search._ground_table((0, 1, 2))) == []
        cert = find_k_uniform(path_graph(2), 1, SearchConfig(element_bound=9, size_bound=10))
        assert cert.kind == "witness"
        assert _rows_filled(search._uniform_table(9, 10, 1, "any")) == [0]
        # a witness's labels at vertices with a later neighbour have rows
        for g in _small_graphs():
            search._ground_table.cache_clear()
            size, cert = min_ground_set_size(g)
            ground = tuple(cert.data["ground_set"])
            order = list(g.bfs[0])
            table = search._ground_table(ground)
            rows = set(_rows_filled(table))
            for p, v in enumerate(order):
                if any(u in g.adjacency[v] for u in order[p + 1:]):
                    label = table.labels.index(cert.witness.labels[v])
                    assert label in rows, write_graph6(g)

    @pytest.mark.parametrize("element_bound", [2, 8])
    def test_certificates_do_not_depend_on_the_cache(self, element_bound):
        cfg = SearchConfig(element_bound=element_bound)
        graphs = _sweep_graphs()
        assert len(graphs) == 804

        def certificates(order, cold):
            out = {}
            for g in order:
                if cold:
                    search._ground_table.cache_clear()
                size, cert = min_ground_set_size(g, cfg)
                out[write_graph6(g)] = json.dumps([size, cert.to_json()], sort_keys=True)
            return out

        cold = certificates(graphs, cold=True)
        search._ground_table.cache_clear()
        assert certificates(graphs, cold=False) == cold
        assert certificates(graphs[::-1], cold=False) == cold

    def test_one_table_per_batch(self, tmp_path, cold_search):
        graphs = list(enumerate_graphs(5, connected_only=True))[:40]
        _batch_digest(tmp_path, graphs, "minsize")
        info = search._ground_table.cache_info()
        assert (info.misses, info.hits) == (1, 39)


class TestIterativeSearch:
    """The search keeps its positions on a stack: its depth is not the
    interpreter's recursion limit."""

    def test_a_thousand_vertices(self, cold_search):
        size, cert = min_ground_set_size(empty_graph(1024), SearchConfig(element_bound=12))
        assert (size, cert.kind) == (11, "witness")
        assert _rows_filled(search._ground_table(tuple(range(11)))) == []

    def test_a_long_path(self):
        # 1,200 vertices, each label filling its row: deeper than the
        # default recursion limit, with anchors on every position
        size, cert = min_ground_set_size(path_graph(1200), SearchConfig(element_bound=12))
        assert (size, cert.kind) == (11, "witness")
        assert _is_indexer(path_graph(1200), _witness_labels(cert))


# ---------------------------------------------------------------------------
# pinned output bytes

def _batch_digest(tmp_path, graphs, *argv):
    path = tmp_path / "batch.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    out = io.StringIO()
    with redirect_stdout(out):
        main([argv[0], "--graph", str(path), *argv[1:]])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _connected(max_n):
    return [g for n in range(max_n + 1) for g in enumerate_graphs(n, connected_only=True)]


class TestPinnedOutput:
    """SHA-256 of batch JSON Lines, recorded before the two searches
    shared one engine.  A pruning change that moves a witness must
    update these digests on purpose."""

    def test_minsize_connected_up_to_five(self, tmp_path):
        assert _batch_digest(tmp_path, _connected(5), "minsize") == (
            "f29b6e16a42bd7e3e31031f12fced3724f1cd8f8744d185194fe41c917cf90d9"
        )

    @pytest.mark.parametrize("mode,k,digest", [
        ("any", 2, "0040c040323e9a44bb13809e0cc09e61de31479121e17d108416183f38613c94"),
        ("weak", 2, "bf599d86ef84af54afbb3709bb0e982df0bb9b74f816b3df06e33dfea36f44d5"),
        ("strong", 3, "317bf3a346d44f70b6fbb35915eb16be63f549e1761385d9d6cad1c3b3ea72c1"),
    ], ids=["any", "weak", "strong"])
    def test_uniform_connected_up_to_four(self, tmp_path, mode, k, digest):
        assert _batch_digest(
            tmp_path, _connected(4), "uniform", "--k", str(k), "--mode", mode,
            "--element-bound", "5", "--size-bound", "3",
        ) == digest

    def test_uniform_connected_up_to_five(self, tmp_path):
        # recorded before non-bipartite graphs were refuted by an odd cycle
        assert _batch_digest(
            tmp_path, _connected(5), "uniform", "--k", "2",
            "--element-bound", "5", "--size-bound", "3",
        ) == "352907a10bda80c685901253887ddd6249324904c089784cd57af4cd2bbe5b94"
