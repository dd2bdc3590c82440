"""Bounded exact search: minimal ground sets and k-uniform labelings."""

import json

import pytest

from iasltools.graph import (
    complete_graph, cycle_graph, empty_graph, enumerate_graphs, path_graph,
    star_graph,
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

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            find_k_uniform(path_graph(2), 0)

    def test_exhausted_certificate_names_space(self):
        cfg = SearchConfig(element_bound=5, size_bound=2)
        cert = find_k_uniform(complete_graph(3), 2, cfg)
        payload = cert.to_json()
        assert payload["kind"] == "exhausted"
        assert "{0..5}" in payload["description"]
        assert payload["config"]["size_bound"] == 2

    def test_deterministic_across_runs(self):
        a = find_k_uniform(cycle_graph(4), 2).to_json()
        b = find_k_uniform(cycle_graph(4), 2).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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

    def test_json(self):
        from iasltools.construct import canonical_iasi
        res = check_binomial_bound(path_graph(3),
                                   canonical_iasi(path_graph(3)).labeling)
        payload = res.to_json()
        assert payload["holds"] is True
        assert payload["label_size"] == 1
