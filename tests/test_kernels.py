"""The array kernels in metrics and baselines, and the list Louvain, against
the pure-Python oracles they replaced (tests/oracles.py), on randomly pruned
graphs: the small random suites, directed graphs, a ~2k-node undirected graph
and a 300-node directed one; the spanner on its own suite of small graphs."""

import numpy as np
import pytest

from prunerl import baselines
from prunerl.graph import Graph
from prunerl.metrics import (
    DENSE_PAGERANK_MAX_NODES,
    batch_spsp,
    bfs_distances,
    centered_ranks,
    louvain,
    modularity,
    pagerank,
    spearman_rho,
)
from prunerl.rewards import PagerankReward

from conftest import random_connected_graph, random_sparse_graph
from oracles import (
    adjacency,
    baswana_sen_spanner_oracle,
    batch_spsp_oracle,
    bfs_distances_oracle,
    jaccard_closed,
    l_spar_survivors,
    local_degree_survivors,
    louvain_oracle,
    modularity_oracle,
    pagerank_oracle,
)


def pruned(g, rng, share):
    g.random_prune(int(share * g.edge_count), rng)
    return g


def undirected_graphs():
    rng = np.random.default_rng(41)
    small = [pruned(random_connected_graph(12, rng, extra_edge_prob=0.3), rng, rng.random() / 2)
             for _ in range(20)]
    return small + [pruned(random_sparse_graph(2000, 10000, rng), rng, 0.25)]


def directed_graphs():
    rng = np.random.default_rng(42)
    small = [pruned(random_sparse_graph(15, 45, rng, directed=True), rng, rng.random() / 2)
             for _ in range(20)]
    return small + [pruned(random_sparse_graph(300, 1200, rng, directed=True), rng, 0.5)]


@pytest.fixture(scope="module")
def graphs():
    return undirected_graphs() + directed_graphs()


@pytest.fixture(scope="module")
def undirected(graphs):
    return [g for g in graphs if not g.directed]


def test_pagerank_is_bit_equal(graphs):
    # above the dense threshold the power iteration adds in the oracle's
    # order; at or below it one linear solve agrees with the oracle to rounding
    large = [g for g in graphs if g.node_count > DENSE_PAGERANK_MAX_NODES]
    assert {g.directed for g in large} == {False, True}
    for g in graphs:
        if g.node_count > DENSE_PAGERANK_MAX_NODES:
            assert np.array_equal(pagerank(g), pagerank_oracle(g))
        else:
            assert np.allclose(pagerank(g), pagerank_oracle(g), rtol=0, atol=1e-9)


def test_dense_pagerank_spreads_dangling_mass():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 5), (5, 2)], directed=True)
    g.prune_edge(6)  # 5 joins 4 as a dangling node
    assert g.node_count <= DENSE_PAGERANK_MAX_NODES
    assert (g.deg[:, 1] == 0).sum() == 2  # out-degrees
    got = pagerank(g)
    assert abs(got.sum() - 1.0) <= 1e-12
    assert np.allclose(got, pagerank_oracle(g), rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_pagerank_reward_does_not_depend_on_the_kernel(karate, seed):
    # the dense solve and the oracle's power iteration differ by ~1e-12;
    # grouping ties by gap makes their ranks, and so every reward, equal
    rng = np.random.default_rng(seed)
    base = pagerank_oracle(karate)
    spec, gp = PagerankReward(karate), karate.copy()
    for _ in range(50):
        gp.prune_edge(int(rng.choice(gp.live_edge_ids())))
        want = pagerank_oracle(gp)
        assert np.array_equal(centered_ranks(pagerank(gp)), centered_ranks(want))
        assert spec.after_prune(gp, None, None, rng) == spearman_rho(base, want) - 1.0


def test_distances_are_equal(graphs):
    rng = np.random.default_rng(5)
    for g in graphs:
        adj = adjacency(g)
        for s in rng.choice(g.node_count, size=min(8, g.node_count), replace=False).tolist():
            assert np.array_equal(bfs_distances(g, s), bfs_distances_oracle(g, s, adj))
        pairs = rng.integers(g.node_count, size=(64, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        got = batch_spsp(g, pairs)
        assert got.tolist() == batch_spsp_oracle(g, pairs.tolist())
        assert got.dtype == np.float64


def test_modularity_matches(undirected):
    rng = np.random.default_rng(6)
    for g in undirected:
        for labels in (rng.integers(0, 5, size=g.node_count), louvain(g, rng).labels):
            assert abs(modularity(g, labels) - modularity_oracle(g, labels)) <= 1e-12


def test_louvain_matches_oracle(undirected, karate):
    # one live edge set reached three ways (a random prune, a prune_edge loop
    # from the last id down, copy_keeping's bulk pass) gives one partition
    half = pruned(karate.copy(), np.random.default_rng(7), 0.5)
    for g in (half, undirected[-1]):
        fresh = Graph(g.node_count, np.stack([g.src, g.dst], axis=1))
        looped = fresh.copy()
        for eid in np.flatnonzero(~g.alive)[::-1].tolist():
            looped.prune_edge(eid)
        kept = fresh.copy_keeping(g.live_edge_ids())
        # the swap-remove lists, which sampling draws from, do differ
        assert not np.array_equal(looped._live_ids[: looped.edge_count],
                                  kept._live_ids[: kept.edge_count])
        for seed in range(3):
            want = louvain(g, np.random.default_rng(seed))
            for other in (looped, kept):
                got = louvain(other, np.random.default_rng(seed))
                assert np.array_equal(got.labels, want.labels)
                assert got.modularity == want.modularity
    for g in [karate, half, Graph(5, [])] + undirected:
        for seed in range(3):
            got = louvain(g, np.random.default_rng(seed))
            want = louvain_oracle(g, np.random.default_rng(seed))
            assert np.array_equal(got.labels, want.labels)
            assert got.modularity == want.modularity


def test_jaccard_scores_are_equal(undirected):
    for g in undirected:
        adj = adjacency(g)
        scores = baselines.jaccard_scores(g)
        alive = np.zeros(g.original_edge_count, dtype=bool)
        alive[g.live_edge_ids()] = True
        assert np.isnan(scores[~alive]).all()
        for eid in g.live_edge_ids().tolist():
            assert scores[eid] == jaccard_closed(g, int(g.src[eid]), int(g.dst[eid]), adj)


@pytest.mark.parametrize("method, oracle", [
    (baselines.local_degree, local_degree_survivors),
    (baselines.l_spar, l_spar_survivors),
])
def test_kept_sets_are_equal_at_every_probed_exponent(method, oracle, undirected, monkeypatch):
    search = baselines._exponent_search
    probes = []

    def spy(g, r, survivors_at):
        def recorded(x):
            kept = survivors_at(x)
            probes.append((x, kept))
            return kept
        return search(g, r, recorded)

    monkeypatch.setattr(baselines, "_exponent_search", spy)
    for g in undirected:
        kept_at = oracle(g)
        for r in (0.3, 0.7) if g.node_count < 100 else (0.5,):
            probes.clear()
            # a share of the live edges: a budget above them raises
            out = method(g, r=r * g.edge_kept_ratio())
            assert len(probes) >= 3
            for x, kept in probes:
                assert kept.tolist() == sorted(kept_at(x))
            x = out.method_params["alpha" if method is baselines.local_degree else "e"]
            assert set(out.live_edge_ids().tolist()) == kept_at(x)
        for x in (0.25, 1.0):
            assert set(method(g, 0.5, x).live_edge_ids().tolist()) == kept_at(x)


@pytest.mark.parametrize("t", [1, 3, 5, 7])
def test_spanner_matches_oracle(t):
    """200 random graphs on 3-60 nodes: sparse ones leave vertices isolated,
    and every third one is pre-pruned before the spanner runs."""
    rng = np.random.default_rng(43 + t)
    isolated = 0
    for i in range(200):
        n = int(rng.integers(3, 61))
        g = random_sparse_graph(n, int(rng.integers(1, min(n * (n - 1) // 2, 4 * n) + 1)), rng)
        if i % 3 == 0:
            pruned(g, rng, rng.random())
        isolated += bool((g.deg[:, 0] == 0).any())
        seed = int(rng.integers(2**31))
        got = baselines.baswana_sen_spanner(g, t, np.random.default_rng(seed))
        want = baswana_sen_spanner_oracle(g, t, np.random.default_rng(seed))
        assert np.array_equal(got.live_edge_ids(), want)
    assert isolated >= 50
