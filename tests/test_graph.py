"""Graph core, bipartiteness certificates, and the operation toolbox."""

import random
import re
from collections import deque
from itertools import combinations, product as iproduct

import pytest

from iasltools import graph
from iasltools.graph import (
    DuplicateEdgeWarning, Graph, GraphError, build, complement, complete_graph,
    contract_edge, corona, cycle_graph, empty_graph, enumerate_graphs,
    induced_subgraph, is_bipartite, join, line_graph, pair_id, parse_graph6,
    path_graph, product, rooted_product, star_graph, subdivide_edge, to_dot,
    total_graph, union, write_graph6,
)
from iasltools.graph6 import decode_graph6, encode_graph6


def _edge_set(g: Graph):
    return set(g.edges)


class TestCore:
    def test_canonical_edge_order(self):
        g = build(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_duplicate_edge_warns_and_collapses(self):
        with pytest.warns(DuplicateEdgeWarning):
            g = build(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build(2, [(1, 1)])

    def test_vertex_range_enforced(self):
        with pytest.raises(GraphError):
            build(2, [(0, 2)])

    def test_adjacency_and_degree(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert g.adjacency[0] == frozenset({1, 2, 3})
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)

    @pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (-3, 0), (3, 1), (1, 3), (0, 2)])
    def test_has_edge_is_false_off_the_edges(self, u, v):
        # path 0-1-2: a negative id must not wrap around to vertex 2
        assert not path_graph(3).has_edge(u, v)

    def test_isolated_vertices(self):
        g = build(3, [(0, 1)])
        assert g.isolated_vertices() == (2,)

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert not build(4, [(0, 1), (2, 3)]).is_connected()
        assert empty_graph(0).is_connected()

    def test_equality_ignores_names(self):
        assert complete_graph(2) == build(2, [(0, 1)])

    def test_graph6_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph6(write_graph6(g)) == g

    def test_parsed_graph_equals_the_validated_one(self):
        for n in range(6):
            for g in enumerate_graphs(n):
                text = encode_graph6(n, g.edges)
                parsed = parse_graph6(text)
                built = Graph(*decode_graph6(text))
                assert parsed == built and hash(parsed) == hash(built)
                assert (parsed.edges, parsed.names) == (built.edges, None)
                assert write_graph6(parsed) is text
                assert write_graph6(built) == text

    def test_each_graph_is_encoded_once(self, monkeypatch):
        calls = []

        def counted(n, edges):
            calls.append(n)
            return encode_graph6(n, edges)

        monkeypatch.setattr(graph, "encode_graph6", counted)
        g, parsed = cycle_graph(5), parse_graph6("Dhc")
        assert [write_graph6(g), write_graph6(g), write_graph6(parsed)] == ["Dhc"] * 3
        assert calls == [5]


class TestFixedFamilies:
    @pytest.mark.parametrize("n,edges", [(1, 0), (2, 1), (3, 3), (4, 6), (5, 10)])
    def test_complete(self, n, edges):
        assert complete_graph(n).edge_count == edges

    def test_path_cycle_star(self):
        assert path_graph(5).edge_count == 4
        assert cycle_graph(5).edge_count == 5
        assert star_graph(4).edge_count == 4
        assert star_graph(4).vertex_count == 5
        assert empty_graph(3).edge_count == 0

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            path_graph(-1)


class TestBipartite:
    def test_even_cycle(self):
        res = is_bipartite(cycle_graph(6))
        assert res.bipartite
        for u, v in cycle_graph(6).edges:
            assert res.coloring[u] != res.coloring[v]

    def test_triangle_certificate(self):
        res = is_bipartite(complete_graph(3))
        assert not res.bipartite
        assert res.odd_cycle == (0, 1, 2)

    def test_odd_cycle_is_a_real_odd_cycle(self):
        g = cycle_graph(7)
        res = is_bipartite(g)
        cyc = res.odd_cycle
        assert len(cyc) % 2 == 1
        for i, v in enumerate(cyc):
            assert g.has_edge(v, cyc[(i + 1) % len(cyc)])

    def test_disconnected(self):
        g = build(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        res = is_bipartite(g)
        assert not res.bipartite
        assert set(res.odd_cycle) == {2, 3, 4}

    def test_matches_the_queue_reference(self):
        # the odd cycle reaches CLI output through NoConstruction, so the
        # whole result is pinned, not only the verdict
        rng = random.Random(20261020)
        graphs = [g for n in range(7) for g in enumerate_graphs(n)]
        for _ in range(2000):
            n, p = rng.randint(1, 40), rng.random() ** 2 / 2
            graphs.append(build(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        for g in graphs:
            assert is_bipartite(g) == _queue_is_bipartite(g), write_graph6(g)


def _queue_is_bipartite(g):
    """2-colouring by a queue BFS with an odd-cycle certificate, stopping
    at the first clash: the reference is_bipartite must reproduce."""
    color = [None] * g.vertex_count
    parent = [-1] * g.vertex_count
    for root in g.vertices():
        if color[root] is not None:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(g.adjacency[v]):
                if color[w] is None:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    up_v = [v]
                    while parent[up_v[-1]] != -1:
                        up_v.append(parent[up_v[-1]])
                    on_v_path = {x: i for i, x in enumerate(up_v)}
                    up_w = [w]
                    while up_w[-1] not in on_v_path:
                        up_w.append(parent[up_w[-1]])
                    cycle = up_v[: on_v_path[up_w[-1]] + 1][::-1] + up_w[:-1]
                    return graph.BipartitenessResult(False, None, tuple(cycle))
    return graph.BipartitenessResult(True, tuple(color), None)


class TestOperations:
    def test_complement(self):
        assert complement(complete_graph(4)).edge_count == 0
        assert _edge_set(complement(path_graph(4))) == {(0, 2), (0, 3), (1, 3)}

    def test_union_disjoint(self):
        res = union(path_graph(2), path_graph(3))
        assert res.graph.vertex_count == 5
        assert res.graph.edge_count == 3
        assert res.map_first == (0, 1)
        assert res.map_second == (2, 3, 4)

    def test_union_shared(self):
        # glue vertex 0 of the second path onto vertex 1 of the first
        res = union(path_graph(2), path_graph(3), {0: 1})
        assert res.graph.vertex_count == 4
        assert res.graph.edge_count == 3
        assert res.map_second[0] == 1

    def test_union_shared_must_be_injective(self):
        with pytest.raises(GraphError):
            union(path_graph(3), path_graph(3), {0: 1, 1: 1})

    def test_join(self):
        g = join(path_graph(2), empty_graph(2))
        # join adds every cross edge
        assert g.vertex_count == 4
        assert g.edge_count == 1 + 0 + 4

    def test_join_k1_k1_is_k2(self):
        assert join(empty_graph(1), empty_graph(1)) == complete_graph(2)

    @pytest.mark.parametrize("kind,count", [
        ("cartesian", 4), ("direct", 2), ("strong", 6), ("lexicographic", 6),
    ])
    def test_products_of_k2(self, kind, count):
        g = product(kind, complete_graph(2), complete_graph(2))
        assert g.vertex_count == 4
        assert g.edge_count == count

    def test_cartesian_ladder(self):
        g = product("cartesian", path_graph(3), complete_graph(2))
        assert g.vertex_count == 6
        assert g.edge_count == 7

    def test_lexicographic_is_ordered(self):
        a = product("lexicographic", path_graph(3), empty_graph(2))
        b = product("lexicographic", empty_graph(2), path_graph(3))
        assert a.edge_count != b.edge_count

    def test_product_names(self):
        g = product("cartesian", complete_graph(2), complete_graph(2))
        assert g.names[pair_id(1, 0, 2)] == "(1,0)"

    def test_unknown_product_kind(self):
        with pytest.raises(ValueError):
            product("tensor-ish", complete_graph(2), complete_graph(2))

    def test_corona(self):
        g = corona(cycle_graph(3), empty_graph(1))
        assert g.vertex_count == 6
        assert g.edge_count == 6
        g2 = corona(complete_graph(2), complete_graph(2))
        # 1 hub edge + per hub: 2 copy vertices, 1 copy edge, 2 spokes
        assert g2.vertex_count == 6
        assert g2.edge_count == 1 + 2 * (1 + 2)

    def test_rooted_product(self):
        g = rooted_product(cycle_graph(3), path_graph(3), 0)
        # each hub doubles as the root of its own path copy
        assert g.vertex_count == 3 + 3 * 2
        assert g.edge_count == 3 + 3 * 2

    def test_rooted_product_bad_root(self):
        with pytest.raises(GraphError):
            rooted_product(complete_graph(2), path_graph(2), 5)

    def test_line_graph(self):
        res = line_graph(complete_graph(3))
        assert res.graph == complete_graph(3)
        assert res.vertex_edges == ((0, 1), (0, 2), (1, 2))
        assert line_graph(path_graph(4)).graph == path_graph(3)
        assert line_graph(star_graph(3)).graph == complete_graph(3)

    def test_total_graph_p3_has_seven_edges(self):
        res = total_graph(path_graph(3))
        assert res.graph.vertex_count == 5
        assert res.graph.edge_count == 7
        assert res.vertex_part == (0, 1, 2)
        assert res.edge_part == (3, 4)
        assert _edge_set(res.graph) == {
            (0, 1), (1, 2),          # original adjacencies
            (3, 4),                  # the two edges share vertex 1
            (0, 3), (1, 3), (1, 4), (2, 4),  # incidences
        }

    def test_total_graph_k2_is_k3(self):
        assert total_graph(complete_graph(2)).graph == complete_graph(3)

    def test_subdivide(self):
        g = subdivide_edge(cycle_graph(3), (0, 1))
        assert g.vertex_count == 4
        assert _edge_set(g) == {(0, 2), (1, 2), (0, 3), (1, 3)}
        with pytest.raises(GraphError):
            subdivide_edge(path_graph(3), (0, 2))

    def test_contract(self):
        res = contract_edge(cycle_graph(4), (0, 1))
        assert res.graph == complete_graph(3)
        assert res.vertex_map == (0, 0, 1, 2)
        assert contract_edge(complete_graph(2), (0, 1)).graph == empty_graph(1)

    def test_contract_drops_parallel_edges(self):
        res = contract_edge(complete_graph(3), (0, 1))
        assert res.graph == complete_graph(2)

    def test_induced_subgraph(self):
        res = induced_subgraph(cycle_graph(5), [0, 1, 3])
        assert res.kept == (0, 1, 3)
        assert _edge_set(res.graph) == {(0, 1)}

    @pytest.mark.parametrize("make, names", [
        (lambda a: union(a, path_graph(2)).graph, ("a", "b", "0", "1")),
        (lambda a: union(path_graph(2), a, {0: 1}).graph, ("0", "1", "b")),
        (lambda a: join(a, empty_graph(1)), ("a", "b", "0")),
        (lambda a: subdivide_edge(a, (1, 0)), ("a", "b", "0-1")),
    ], ids=["union-first", "union-second", "join", "subdivide"])
    def test_names_propagate(self, make, names):
        assert make(Graph(2, [(0, 1)], names=("a", "b"))).names == names

    @pytest.mark.parametrize("make, message", [
        (lambda: Graph(2, [], names=("a",)), "names length must equal vertex count"),
        (lambda: union(path_graph(2), path_graph(2), {2: 0}), "correspondence 2->0 out"),
        (lambda: union(path_graph(2), path_graph(2), {0: -1}), "correspondence 0->-1 out"),
        (lambda: product("direct", empty_graph(0), path_graph(2)), "operands must be non-empty"),
        (lambda: product("strong", path_graph(2), empty_graph(0)), "operands must be non-empty"),
        (lambda: corona(empty_graph(0), path_graph(2)), "first operand must be non-empty"),
        (lambda: induced_subgraph(path_graph(3), [0, 3]), "vertex 3 out of range"),
        (lambda: induced_subgraph(path_graph(3), [-1, 1]), "vertex -1 out of range"),
        (lambda: contract_edge(path_graph(3), (-1, 0)), r"edge \(-1,0\) not in graph"),
    ], ids=["names", "union-j", "union-i", "product-first", "product-second", "corona",
            "induced-high", "induced-negative", "contract-negative"])
    def test_malformed_operands_rejected(self, make, message):
        with pytest.raises(GraphError, match=message):
            make()


class TestEnumerate:
    def test_labeled_counts(self):
        assert len(list(enumerate_graphs(3))) == 8
        assert len(list(enumerate_graphs(4))) == 64
        assert len(list(enumerate_graphs(6))) == 2 ** 15

    def test_connected_counts(self):
        # OEIS A001187
        assert len(list(enumerate_graphs(3, connected_only=True))) == 4
        assert len(list(enumerate_graphs(4, connected_only=True))) == 38
        assert len(list(enumerate_graphs(5, connected_only=True))) == 728
        assert len(list(enumerate_graphs(6, connected_only=True))) == 26704

    def test_no_isolated_count(self):
        # OEIS A006129
        assert len(list(enumerate_graphs(4, skip_isolated=True))) == 41
        assert len(list(enumerate_graphs(5, skip_isolated=True))) == 768
        assert len(list(enumerate_graphs(6, skip_isolated=True))) == 27449

    @pytest.mark.parametrize("n, message", [
        (-1, "negative vertex count -1"),
        (7, "n=7 exceeds enumeration cap 6"),
    ], ids=["negative", "over-cap"])
    def test_guard(self, n, message):
        graphs = enumerate_graphs(n)         # lazy: the first next() raises
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            next(graphs)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_build_then_filter(self, n):
        # Reference: a validated Graph for every mask, filtered afterwards
        # by is_connected() and isolated_vertices().
        slots = list(combinations(range(n), 2))
        every = [Graph(n, tuple(s for k, s in enumerate(slots) if mask >> k & 1))
                 for mask in range(1 << len(slots))]
        for connected_only, skip_isolated in iproduct((False, True), repeat=2):
            want = [g for g in every
                    if (not connected_only or g.is_connected())
                    and not (skip_isolated and g.isolated_vertices())]
            got = list(enumerate_graphs(n, connected_only, skip_isolated))
            # want[i] is Graph(n, got[i].edges) once the edges agree
            assert [(g.vertex_count, g.edges, g.names) for g in got] == [
                (w.vertex_count, w.edges, w.names) for w in want]
            assert got == want
            assert [hash(g) for g in got] == [hash(w) for w in want]
            if not (connected_only or skip_isolated):
                # every mask once; the filtered runs build theirs the same way
                assert [g.adjacency for g in got] == [w.adjacency for w in want]

    def test_deterministic_order(self):
        first = list(enumerate_graphs(4))[:5]
        second = list(enumerate_graphs(4))[:5]
        assert first == second
        assert first[0].edge_count == 0

    @pytest.mark.parametrize("n", range(7))
    def test_cut_rule_matches_is_connected(self, n):
        # g is disconnected exactly when some S holding vertex 0, not all
        # of V, has no edge of g leaving it
        slots = list(combinations(range(n), 2))
        cuts = [sum(1 << k for k, (u, v) in enumerate(slots) if (u in S) != (v in S))
                for r in range(n - 1)
                for S in ({0, *rest} for rest in combinations(range(1, n), r))]
        assert len(cuts) == max(2 ** (n - 1) - 1, 0)
        for mask in range(1 << len(slots)):
            g = Graph(n, tuple(s for k, s in enumerate(slots) if mask >> k & 1))
            assert all(mask & cut for cut in cuts) == g.is_connected(), mask

    @pytest.fixture
    def built(self, monkeypatch):
        """The graphs enumerate_graphs builds, as it builds them."""
        made, trusted = [], graph.trusted

        def counting(cls, **fields):
            made.append(fields["edges"])
            return trusted(cls, **fields)

        monkeypatch.setattr(graph, "trusted", counting)
        return made

    def test_builds_lazily(self, built):
        first = next(enumerate_graphs(6, connected_only=True))
        assert first == Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)))
        assert len(built) == 1

    def test_builds_only_accepted_graphs(self, built):
        assert sum(1 for _ in enumerate_graphs(6, connected_only=True)) == 26704
        assert len(built) == 26704


class TestDot:
    def test_lists_every_vertex_and_edge(self):
        g = build(3, [(0, 1)])
        text = to_dot(g)
        assert '2 [label="2"];' in text
        assert "0 -- 1;" in text
        assert text.count(" -- ") == g.edge_count

    def test_names_survive(self):
        g = product("cartesian", complete_graph(2), complete_graph(2))
        assert '"(0,1)"' in to_dot(g)
