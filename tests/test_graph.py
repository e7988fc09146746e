import math
from dataclasses import fields

import numpy as np
import pytest

from prunerl.errors import (CommunityFileError, DataError, DeadEdgeError, EdgeListParseError,
                            PruneRLError)
from prunerl.graph import CandidateSubgraph, Graph, load_communities, load_edge_list, open_output

from conftest import (complete_graph, degree_of, edge_id, make_graph, neighbors, path_graph,
                      random_sparse_graph, shortest_path_distance)
from oracles import (adjacency, concat_oracle, copy_listed_oracle, edge_views,
                     load_edge_list_oracle, pick_oracle, prune_edges_oracle, sample_subgraph_oracle)


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

    def test_loops_only_rejected(self, tmp_path):
        p = tmp_path / "loops.txt"
        p.write_text("3 3\n4 4\n3 3\n")
        with pytest.raises(DataError, match="no usable edges after dropping loops/duplicates"):
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
        with open_output(out) as f:
            karate.save_edge_list(f, header_lines=["provenance test"])
        again = load_edge_list(out)
        assert again.live_edge_set() == karate.live_edge_set()

    def test_ids_beyond_int64_round_trip(self, tmp_path):
        big = 2 ** 64
        p = tmp_path / "big.txt"
        p.write_text(f"{big} {big + 1}\n{big + 1} {-big}\n{-big} 5\n5 {big}\n")
        g = load_edge_list(p)
        g.prune_edge(edge_id(g, g.id_map[5], g.id_map[big]))
        out = tmp_path / "again.txt"
        with open_output(out) as f:
            g.save_edge_list(f)
        again = load_edge_list(out)
        assert again.live_edge_set() == g.live_edge_set() == {
            (big, big + 1), (-big, big + 1), (-big, 5)}

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_dict_loader_oracle(self, tmp_path, directed):
        p = tmp_path / "edges.txt"
        for seed in range(300):
            p.write_text(random_edge_file(np.random.default_rng(seed)))
            id_map, edges, self_loops, duplicates = load_edge_list_oracle(p, directed)
            g = load_edge_list(p, directed=directed)
            assert list(g.id_map.items()) == list(id_map.items())
            assert all(type(x) is int for x in g.id_map)
            assert g.node_count == len(id_map)
            assert g.src.tolist() == [u for u, _ in edges]
            assert g.dst.tolist() == [v for _, v in edges]
            assert (g.dropped_self_loops, g.dropped_duplicates) == (self_loops, duplicates)


def random_edge_file(rng):
    """An edge list over small, negative and beyond-int64 ids, with comments,
    blank lines, repeats, a reversed repeat, a self-loop written twice and a
    node that appears only in a self-loop."""
    pool = [int(x) for x in rng.choice(60, size=int(rng.integers(3, 12)), replace=False) - 10]
    pool += [2 ** 63 + int(x) for x in rng.choice(50, size=3, replace=False)] + [-(2 ** 70)]
    rng.shuffle(pool)
    lines = [f"{pool[0]} {pool[1]}"]
    for _ in range(int(rng.integers(4, 40))):
        u, v = rng.integers(len(pool), size=2)
        lines.append(f"{pool[u]}\t{pool[v]}")
    u, v = rng.choice([line.split() for line in lines if len(set(line.split())) == 2])
    loop = pool[int(rng.integers(len(pool)))]
    lonely = 2 ** 65 + int(rng.integers(1000))
    for line in (f"{v} {u}", f"{loop} {loop}", f"{loop} {loop}", f"{lonely}  {lonely}",
                 "# a comment", ""):
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    return "\n".join(lines) + "\n"


class TestCopyListed:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_per_line_oracle(self, tmp_path, directed):
        """Listed edges, live or pruned, some reversed or repeated, at times
        with a pair of dataset nodes that may be no edge or an unknown id."""
        data, listed = tmp_path / "edges.txt", tmp_path / "listed.txt"
        for seed in range(200):
            rng = np.random.default_rng(seed)
            data.write_text(random_edge_file(rng))
            g = load_edge_list(data, directed=directed)
            g.random_prune(int(rng.integers(g.edge_count)), rng)
            ids = g.original_ids
            lines = []
            for e in rng.integers(g.original_edge_count, size=int(rng.integers(12))):
                u, v = ids[g.src[e]], ids[g.dst[e]]
                lines.append((v, u) if rng.random() < 0.3 else (u, v))
            for bad in ((ids[rng.integers(g.node_count)], ids[rng.integers(g.node_count)]),
                        (ids[0], 2 ** 66)):
                if rng.random() < 0.3:
                    lines.insert(int(rng.integers(len(lines) + 1)), bad)
            listed.write_text("".join(f"{a} {b}\n" for a, b in lines))
            try:
                want = copy_listed_oracle(g, listed)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    g.copy_listed(listed)
                assert str(got.value) == str(exc)
                continue
            assert_same_state(g.copy_listed(listed), want)

    @pytest.mark.parametrize("line", ["1 99", "99 1", "1 -1"])
    def test_unknown_node_id_names_no_edge(self, tmp_path, line):
        # an unknown id must not alias a real edge: 1 * 3 - 1 is edge (0, 2)'s key
        g = Graph(3, [(0, 2)], directed=True)
        p = tmp_path / "listed.txt"
        p.write_text(f"0 2\n{line}\n")
        with pytest.raises(DataError, match=f"listed.txt:2: edge \\({line.replace(' ', ', ')}\\)"):
            g.copy_listed(p)


class TestLoadCommunities:
    def test_two_lines(self, tmp_path):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        p = tmp_path / "comm.txt"
        p.write_text("0 1 2\n3 4\n")
        assert load_communities(p, g).tolist() == [0, 0, 0, 1, 1]

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
        g.prune_edge(edge_id(g, 0, 1))
        assert [degree_of(g, i) for i in range(3)] == [1, 1, 2]

    def test_path_becomes_unreachable(self):
        g = path_graph(3)
        g.prune_edge(edge_id(g, 0, 1))
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
        g.prune_edge(edge_id(g, 0, 1))
        assert degree_of(g, 1) == (0, 1)

    def test_degrees_match_adjacency_after_prune_sequence(self, karate, rng):
        for _ in range(40):
            karate.random_prune(1, rng)
            for n in range(karate.node_count):
                assert degree_of(karate, n) == len(neighbors(karate, n))

    def test_copy_is_independent(self, karate):
        clone = karate.copy()
        clone.prune_edge(0)
        assert karate.alive[0]
        assert not clone.alive[0]


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

    def test_k4_uniform_pairs(self, rng):
        # each of the 15 edge pairs removed with frequency 1/15 +- 0.015 when count=2
        counts = np.zeros((6, 6))
        trials = 10_000
        base = complete_graph(4)
        for _ in range(trials):
            g = base.copy()
            g.random_prune(2, rng)
            counts[tuple(np.flatnonzero(~g.alive))] += 1
        pairs = counts[np.triu_indices(6, 1)]
        assert pairs.sum() == trials
        assert np.all(np.abs(pairs / trials - 1 / 15) < 0.015)

    @pytest.mark.parametrize("directed", [False, True])
    def test_draw_ignores_pruning_history(self, directed):
        """One live set reached by two prune orders: the same seed prunes
        the same edges on both."""
        g = random_sparse_graph(40, 150, np.random.default_rng(5), directed=directed)
        dead = np.random.default_rng(6).permutation(150)[:60]
        forward, backward = g.copy(), g.copy()
        prune_edges_oracle(forward, dead)
        prune_edges_oracle(backward, dead[::-1])
        assert not np.array_equal(forward._live_ids[:90], backward._live_ids[:90])
        for count in (0, 1, 37, 90):
            a, b = forward.copy(), backward.copy()
            a.random_prune(count, np.random.default_rng(7))
            b.random_prune(count, np.random.default_rng(7))
            np.testing.assert_array_equal(a.alive, b.alive)


def graph_state(g):
    """The state pruning writes that leaves the graph: live count, liveness, degrees."""
    return [g.edge_count, g.alive, g.deg]


def assert_live_list(g):
    """The invariant sampling relies on: the first edge_count entries of the
    private live id list are the live ids, and `_live_pos` inverts them."""
    n = g.edge_count
    np.testing.assert_array_equal(np.sort(g._live_ids[:n]), g.live_edge_ids())
    np.testing.assert_array_equal(g._live_pos[g._live_ids[:n]], np.arange(n))


def assert_same_state(a, b):
    for x, y in zip(graph_state(a), graph_state(b), strict=True):
        np.testing.assert_array_equal(x, y)
    assert_live_list(a)
    assert_live_list(b)


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


class TestLiveListInvariant:
    @pytest.mark.parametrize("directed", [False, True])
    def test_holds_through_mixed_pruning(self, directed):
        """A random mix of one-edge, bulk and random prunes and kept-set
        copies keeps the live id list a permutation of the live ids."""
        rng = np.random.default_rng(8)
        g = random_sparse_graph(60, 300, rng, directed=directed)
        for _ in range(200):
            live = g.live_edge_ids()
            step = int(rng.integers(4))
            if step == 0:
                g.prune_edge(int(rng.choice(live)))
            elif step == 1:
                g.prune_edges(rng.permutation(live)[: int(rng.integers(min(live.size, 5) + 1))])
            elif step == 2:
                g.random_prune(int(rng.integers(min(live.size, 5) + 1)), rng)
            else:
                g = g.copy_keeping(live[rng.random(live.size) < 0.95])
            assert_live_list(g)
            if g.edge_count == 0:
                break
            sub = g.sample_subgraph(8, rng)
            assert g.alive[sub.eids].all()


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
        assert sub.edge_ratio.shape == (len(sub.nodes), 1)
        assert np.all(sub.edge_ratio == 0.75)

    def test_no_dead_or_duplicate_edges(self, karate, rng):
        karate.random_prune(30, rng)
        for _ in range(50):
            sub = karate.sample_subgraph(16, rng)
            eids = sub.eids.tolist()
            assert len(set(eids)) == len(eids)
            assert karate.alive[eids].all()

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

    @pytest.mark.parametrize("directed, shuffled", [(False, False), (True, False), (False, True),
                                                    (True, True)],
                             ids=["False", "True", "shuffled-undirected", "shuffled-directed"])
    def test_node_snapshot_matches_live_graph(self, karate, rng, directed, shuffled):
        """Each hood is its node, then its sorted live (out-)neighbours, and
        the snapshot equals the argsort oracle's field for field under the
        same rng. The shuffled cases list a random graph's edges in random
        order, so that no CSR row is in neighbour order by chance (karate's
        file nearly is), and sample every |H| up to all live edges."""
        if shuffled:
            h = random_sparse_graph(40, 150, rng, directed=directed)
            edges = np.stack([h.src, h.dst], axis=1)[rng.permutation(150)]
            g = make_graph(40, edges, directed=directed)
            g.random_prune(50, rng)
        else:
            g = karate.copy() if not directed else make_graph(
                5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 0), (2, 4)], directed=True)
            g.random_prune(2, rng)
        for size in range(1, g.edge_count + 1) if shuffled else [4]:
            seed = int(rng.integers(2**32))
            sub = g.sample_subgraph(size, np.random.default_rng(seed))
            want = sample_subgraph_oracle(g, size, np.random.default_rng(seed))
            for f in fields(CandidateSubgraph):
                got = getattr(sub, f.name)
                np.testing.assert_array_equal(got, getattr(want, f.name), f.name)
                assert got.dtype == getattr(want, f.name).dtype, f.name
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


class TestConcatAndPick:
    @pytest.mark.parametrize("directed", [False, True])
    def test_pick_equals_concat_of_edge_views(self, karate, rng, directed):
        """A pick from a concatenation is the concatenation of the picked
        candidates' one-edge views, field for field, for rows in any order,
        repeats included."""
        g = karate.copy() if not directed else make_graph(
            5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 0), (2, 4)], directed=True)
        subs = []
        for k in (1, 4, 9, 2, 16):  # a prune between samples moves degrees and ratios
            subs.append(g.sample_subgraph(k, rng))
            g.random_prune(1, rng)
        items = rng.integers(len(subs), size=12)
        cols = [int(rng.integers(len(subs[i]))) for i in items]
        starts = np.cumsum([0] + [len(s) for s in subs])
        got = pick_oracle(concat_oracle(subs), starts[items] + cols)
        want = concat_oracle(edge_views([subs[i] for i in items], cols))
        for f in fields(CandidateSubgraph):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), f.name)
        pairs = np.stack([g.src[got.eids], g.dst[got.eids]], axis=1)
        assert np.array_equal(got.nodes[got.ends], pairs)


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
            assert edge_id(g, u, v) == eid
            if not g.directed:
                assert edge_id(g, v, u) == eid
        assert edge_id(g, 0, 0) is None

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
        assert (edge_id(g, 0, 1), edge_id(g, 1, 0)) == (0, 1)
