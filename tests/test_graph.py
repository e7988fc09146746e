import math

import numpy as np
import pytest

from prunerl.errors import CommunityFileError, DeadEdgeError, EdgeListParseError, PruneRLError
from prunerl.graph import Graph, load_communities, load_edge_list

from conftest import (complete_graph, degree_of, make_graph, neighbors, path_graph,
                      random_sparse_graph, shortest_path_distance)
from oracles import adjacency, prune_edges_oracle, random_prune_oracle


class TestLoadEdgeList:
    def test_karate_counts(self, karate):
        assert karate.node_count == 34
        assert karate.edge_count == 78
        assert karate.original_edge_count == 78

    def test_duplicate_collapse(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("0 1\n1 0\n")
        g = load_edge_list(p)
        assert g.edge_count == 1
        assert g.dropped_duplicates == 1

    def test_self_loop_dropped(self, tmp_path):
        p = tmp_path / "loop.txt"
        p.write_text("0 1\n3 3\n")
        g = load_edge_list(p)
        assert g.edge_count == 1
        assert g.dropped_self_loops == 1

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\nnot-an-edge\n")
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(p)

    def test_empty_edge_set_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only comments\n")
        with pytest.raises(PruneRLError, match="empty edge set"):
            load_edge_list(p)

    def test_sparse_ids_compacted_with_map(self, tmp_path):
        p = tmp_path / "sparse.txt"
        p.write_text("100 205\n205 999\n")
        g = load_edge_list(p)
        assert g.node_count == 3
        assert set(g.id_map) == {100, 205, 999}
        assert sorted(g.id_map.values()) == [0, 1, 2]

    def test_round_trip_identity(self, tmp_path, karate, rng):
        karate.random_prune(20, rng)
        out = tmp_path / "sparse_karate.txt"
        karate.save_edge_list(out, header_lines=["provenance test"])
        again = load_edge_list(out)
        assert again.live_edge_set() == karate.live_edge_set()


class TestLoadCommunities:
    def test_two_lines(self, tmp_path):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        p = tmp_path / "comm.txt"
        p.write_text("0 1 2\n3 4\n")
        assert load_communities(p, g) == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}

    def test_overlap_rejected(self, tmp_path):
        g = make_graph(3, [(0, 1), (1, 2)])
        p = tmp_path / "comm.txt"
        p.write_text("0 1\n1 2\n")
        with pytest.raises(CommunityFileError):
            load_communities(p, g)

    def test_unknown_node_named(self, tmp_path):
        g = make_graph(2, [(0, 1)])
        p = tmp_path / "comm.txt"
        p.write_text("0 1 7\n")
        with pytest.raises(CommunityFileError, match="7"):
            load_communities(p, g)


class TestPruning:
    def test_triangle_degrees(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        g.prune_edge(g.edge_id(0, 1))
        assert [degree_of(g, i) for i in range(3)] == [1, 1, 2]

    def test_path_becomes_unreachable(self):
        g = path_graph(3)
        g.prune_edge(g.edge_id(0, 1))
        assert degree_of(g, 0) == 0
        assert shortest_path_distance(g, 0, 2) == math.inf

    def test_double_prune_is_error(self):
        g = make_graph(2, [(0, 1)])
        g.prune_edge(0)
        with pytest.raises(DeadEdgeError):
            g.prune_edge(0)

    def test_directed_degrees(self):
        g = make_graph(3, [(0, 1), (1, 2)], directed=True)
        assert degree_of(g, 1) == (1, 1)
        g.prune_edge(g.edge_id(0, 1))
        assert degree_of(g, 1) == (0, 1)

    def test_degrees_match_adjacency_after_prune_sequence(self, karate, rng):
        for _ in range(40):
            karate.random_prune(1, rng)
            for n in range(karate.node_count):
                assert degree_of(karate, n) == len(neighbors(karate, n))

    def test_copy_is_independent(self, karate):
        clone = karate.copy()
        clone.prune_edge(0)
        assert karate.is_alive(0)
        assert not clone.is_alive(0)


class TestRandomPrune:
    def test_zero_is_noop(self, karate, rng):
        before = karate.live_edge_set()
        karate.random_prune(0, rng)
        assert karate.live_edge_set() == before

    def test_all_empties_graph(self, rng):
        g = complete_graph(4)
        g.random_prune(6, rng)
        assert g.edge_count == 0
        assert g.edge_kept_ratio() == 0.0

    def test_too_many_rejected(self, rng):
        g = complete_graph(4)
        with pytest.raises(PruneRLError):
            g.random_prune(7, rng)

    def test_k4_uniform(self, rng):
        # each of the 6 edges removed with frequency 1/6 +- 0.02 when count=1
        counts = np.zeros(6)
        trials = 10_000
        base = complete_graph(4)
        for _ in range(trials):
            g = base.copy()
            g.random_prune(1, rng)
            dead = set(range(6)) - set(int(e) for e in g.live_edge_ids())
            counts[dead.pop()] += 1
        assert np.all(np.abs(counts / trials - 1 / 6) < 0.02)


def graph_state(g):
    """Every array pruning writes, stale swap-remove entries included."""
    degrees = (g.in_degree, g.out_degree) if g.directed else (g.degree,)
    return [g.edge_count, g.alive, g._live_ids, g._live_pos, *degrees]


def assert_same_state(a, b):
    for x, y in zip(graph_state(a), graph_state(b), strict=True):
        np.testing.assert_array_equal(x, y)


class TestPruneEdges:
    @pytest.fixture(params=[False, True], ids=["undirected", "directed"])
    def graph(self, request):
        g = random_sparse_graph(60, 300, np.random.default_rng(3), directed=request.param)
        prune_edges_oracle(g, np.random.default_rng(4).permutation(300)[:50])
        return g

    @pytest.mark.parametrize("count", [1, 7, 120, 250])
    def test_matches_prune_edge_loop(self, graph, count):
        eids = np.random.default_rng(count).permutation(graph.live_edge_ids())[:count]
        loop = graph.copy()
        prune_edges_oracle(loop, eids)
        graph.prune_edges(eids)
        assert_same_state(graph, loop)

    def test_last_live_id_first(self, graph):
        live = graph.live_edge_ids()
        eids = [live[-1], live[0], live[-2]]
        loop = graph.copy()
        prune_edges_oracle(loop, eids)
        graph.prune_edges(eids)
        assert_same_state(graph, loop)

    @pytest.mark.parametrize("pick", [
        lambda live, dead: [live[0], dead, live[1]],
        lambda live, dead: [live[3], live[5], live[3]],
        lambda live, dead: [dead],
    ], ids=["dead", "repeated", "only-dead"])
    def test_bad_id_raises_and_changes_nothing(self, graph, pick):
        dead = int(np.flatnonzero(~graph.alive)[0])
        before = graph.copy()
        with pytest.raises(DeadEdgeError, match="is already pruned"):
            graph.prune_edges(pick(graph.live_edge_ids().tolist(), dead))
        assert_same_state(graph, before)

    def test_empty_is_noop(self, graph):
        before = graph.copy()
        graph.prune_edges([])
        graph.prune_edges(np.array([], dtype=np.int64))
        assert_same_state(graph, before)


class TestRandomPruneMatchesPerDrawLoop:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 37, "all"])
    def test_state_and_rng_match(self, count, directed):
        g = random_sparse_graph(40, 150, np.random.default_rng(5), directed=directed)
        random_prune_oracle(g, 30, np.random.default_rng(6))
        count = g.edge_count if count == "all" else count
        loop, rng_loop, rng = g.copy(), np.random.default_rng(7), np.random.default_rng(7)
        random_prune_oracle(loop, count, rng_loop)
        g.random_prune(count, rng)
        assert_same_state(g, loop)
        # the vectorized draw consumed the generator exactly as the loop did
        assert rng.integers(1 << 62) == rng_loop.integers(1 << 62)


class TestSampleSubgraph:
    def test_oversized_returns_all(self, rng):
        g = complete_graph(4)
        sub = g.sample_subgraph(100, rng)
        assert len(sub) == 6
        assert sorted(sub.eids.tolist()) == list(range(6))

    def test_k4_uniform_single(self, rng):
        counts = np.zeros(6)
        trials = 10_000
        g = complete_graph(4)
        for _ in range(trials):
            sub = g.sample_subgraph(1, rng)
            counts[sub.eids[0]] += 1
        assert np.all(np.abs(counts / trials - 1 / 6) < 0.02)

    def test_edge_ratio_snapshot(self, rng):
        g = make_graph(8, [(i, (i + 1) % 8) for i in range(8)])
        g.random_prune(2, rng)
        sub = g.sample_subgraph(3, rng)
        assert sub.edge_ratio == 0.75

    def test_no_dead_or_duplicate_edges(self, karate, rng):
        karate.random_prune(30, rng)
        for _ in range(50):
            sub = karate.sample_subgraph(16, rng)
            eids = sub.eids.tolist()
            assert len(set(eids)) == len(eids)
            assert all(karate.is_alive(eid) for eid in eids)

    def test_zero_live_edges_rejected(self, rng):
        g = make_graph(2, [(0, 1)])
        g.prune_edge(0)
        with pytest.raises(PruneRLError):
            g.sample_subgraph(1, rng)

    def test_degree_snapshot_survives_later_prunes(self, rng):
        g = complete_graph(4)
        sub = g.sample_subgraph(6, rng)
        g.random_prune(5, rng)
        assert np.all(sub.node_degrees == 3)

    @pytest.mark.parametrize("directed", [False, True])
    def test_node_snapshot_matches_live_graph(self, karate, rng, directed):
        g = karate.copy() if not directed else make_graph(
            5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 0), (2, 4)], directed=True)
        g.random_prune(2, rng)
        sub = g.sample_subgraph(4, rng)
        pairs = np.stack([g.src[sub.eids], g.dst[sub.eids]], axis=1)
        assert np.array_equal(sub.nodes[sub.ends], pairs)
        ends = sorted(set(pairs.ravel().tolist()))
        assert sub.nodes.tolist() == ends
        assert len(sub.hood_ptr) == len(ends) + 1
        for i, n in enumerate(ends):
            hood = sub.hood[sub.hood_ptr[i]:sub.hood_ptr[i + 1]].tolist()
            assert hood == [n] + sorted(neighbors(g, n))
            deg = degree_of(g, n)
            assert tuple(sub.node_degrees[i]) == (deg if directed else (deg,))
        expected = [[*np.atleast_1d(degree_of(g, u)), *np.atleast_1d(degree_of(g, v))]
                    for u, v in pairs.tolist()]
        assert np.array_equal(sub.node_degrees[sub.ends].reshape(len(sub), -1), expected)


class TestEdgeKeptRatio:
    def test_fresh_graph(self, karate):
        assert karate.edge_kept_ratio() == 1.0

    def test_partial(self, rng):
        g = make_graph(8, [(i, (i + 1) % 8) for i in range(8)])
        g.random_prune(2, rng)
        assert g.edge_kept_ratio() == 0.75


class TestArrayAdjacency:
    @pytest.fixture(params=["karate", "directed", "random"])
    def pruned_graph(self, request, karate, rng):
        if request.param == "karate":
            g = karate
        elif request.param == "directed":
            g = random_sparse_graph(30, 120, rng, directed=True)
        else:
            g = random_sparse_graph(200, 800, rng)
        for _ in range(g.edge_count // 3):
            g.random_prune(1, rng)
        return g

    def test_neighbors_match_dict_oracle(self, pruned_graph):
        adj = adjacency(pruned_graph)
        for u in range(pruned_graph.node_count):
            assert neighbors(pruned_graph, u) == list(adj[u])

    def test_edge_id_resolves_live_and_dead_edges(self, pruned_graph):
        g = pruned_graph
        assert not g.alive.all()
        for eid in range(g.original_edge_count):
            u, v = int(g.src[eid]), int(g.dst[eid])
            assert g.edge_id(u, v) == eid
            if not g.directed:
                assert g.edge_id(v, u) == eid
        assert g.edge_id(0, 0) is None

    def test_pruning_a_copy_leaves_the_original(self, pruned_graph, rng):
        g = pruned_graph
        before = (g.alive.copy(), g.live_edge_ids(), [neighbors(g, u) for u in range(g.node_count)],
                  [degree_of(g, u) for u in range(g.node_count)])
        clone = g.copy()
        clone.random_prune(clone.edge_count // 2, rng)
        after = (g.alive, g.live_edge_ids(), [neighbors(g, u) for u in range(g.node_count)],
                 [degree_of(g, u) for u in range(g.node_count)])
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        assert clone.edge_count < g.edge_count

    @pytest.mark.parametrize("edges, directed, message", [
        ([(0, 1), (2, 2)], False, r"self-loop \(2,2\) not allowed"),
        ([(0, 1), (1, 0)], False, r"duplicate edge \(1,0\)"),
        ([(0, 1), (0, 1)], True, r"duplicate edge \(0,1\)"),
        ([(0, 1), (1, 0), (2, 2)], False, r"duplicate edge \(1,0\)"),
        ([(0, 1), (2, 2), (1, 0)], False, r"self-loop \(2,2\) not allowed"),
    ])
    def test_constructor_rejects_loops_and_duplicates(self, edges, directed, message):
        with pytest.raises(PruneRLError, match=message):
            Graph(3, edges, directed=directed)

    def test_directed_reverse_edge_is_distinct(self):
        g = Graph(2, [(0, 1), (1, 0)], directed=True)
        assert (g.edge_id(0, 1), g.edge_id(1, 0)) == (0, 1)
