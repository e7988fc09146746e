import math

import numpy as np
import pytest
from scipy.stats import rankdata

from prunerl.errors import ConvergenceError, PruneRLError
from prunerl.graph import Graph
from prunerl.metrics import (
    DENSE_PAGERANK_MAX_NODES,
    TIE_EPS,
    UNREACHABLE,
    adjusted_rand_index,
    batch_spsp,
    centered_ranks,
    louvain,
    modularity,
    pagerank,
    spearman_rho,
)

from conftest import (
    floyd_warshall,
    make_graph,
    path_graph,
    random_connected_graph,
    random_sparse_graph,
    shortest_path_distance,
    star_graph,
    two_triangles,
)


def brute_force_ari(a, b):
    """Pair-counting ARI straight from the definition, O(n^2) pairs."""
    n = len(a)
    same_a = same_b = same_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            same_a += sa
            same_b += sb
            same_both += sa and sb
    total = n * (n - 1) / 2
    expected = same_a * same_b / total
    max_index = (same_a + same_b) / 2
    if max_index == expected:
        return 1.0
    return (same_both - expected) / (max_index - expected)


class TestPagerank:
    def test_directed_cycle_uniform(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert np.allclose(pagerank(g), 1 / 3, atol=1e-9)

    def test_isolated_pair_dangling_split(self):
        g = Graph(2, [(0, 1)])
        g.prune_edge(0)
        assert np.allclose(pagerank(g), 0.5, atol=1e-12)

    def test_star_hub_closed_form(self):
        # Undirected K1,4 with damping d: hub h and leaf l satisfy
        #   h = (1-d)/5 + d*4*(l/1),   l = (1-d)/5 + d*(h/4)
        # Substituting: h = (1-d)/5 + 4d*((1-d)/5) + d^2*h, so
        #   h = (1-d)(1+4d) / (5(1-d^2))
        d = 0.85
        hub_expected = (1 - d) * (1 + 4 * d) / (5 * (1 - d * d))
        scores = pagerank(star_graph(4), damping=d)
        assert abs(scores[0] - hub_expected) < 1e-9

    def test_sums_to_one(self, rng):
        for _ in range(20):
            g = random_connected_graph(10, rng)
            s = pagerank(g)
            assert np.all(s >= 0)
            assert abs(s.sum() - 1.0) < 1e-9

    def test_nonconvergence_carries_last_iterate(self):
        # tol and max_iter govern the power iteration, which runs above the
        # dense-solve threshold
        g = random_sparse_graph(300, 1500, np.random.default_rng(0))
        assert g.node_count > DENSE_PAGERANK_MAX_NODES
        with pytest.raises(ConvergenceError) as exc:
            pagerank(g, tol=0.0, max_iter=3)
        assert exc.value.last_iterate is not None
        assert len(exc.value.last_iterate) == 300


class TestCenteredRanks:
    def test_exact_ties_share_their_mean_rank(self):
        assert centered_ranks([3.0, 1.0, 3.0, 2.0]).tolist() == [1.0, -1.5, 1.0, -0.5]

    def test_ties_are_grouped_by_gap(self):
        assert TIE_EPS == 1e-9
        assert centered_ranks([1.0 + 5e-10, 1.0, 2.0]).tolist() == [-0.5, -0.5, 1.0]
        assert centered_ranks([1.0 + 2e-9, 1.0, 2.0]).tolist() == [0.0, -1.0, 1.0]

    def test_separated_scores_match_scipy(self, rng):
        for x in (rng.random(50), rng.integers(0, 10, size=50).astype(np.float64)):
            want = rankdata(x)
            assert np.array_equal(centered_ranks(x), want - want.mean())


class TestSpearman:
    def test_identical(self):
        assert spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman_rho([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_textbook_single_swap(self):
        # 1 - 6*sum(d^2)/(n(n^2-1)) with sum(d^2) = 2, n = 4 -> 0.8
        assert spearman_rho([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_zero_variance_rejected(self):
        with pytest.raises(PruneRLError):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_symmetry_and_monotone_invariance(self, rng):
        a = rng.random(20)
        b = rng.random(20)
        assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a))
        assert spearman_rho(np.exp(3 * a), b) == pytest.approx(spearman_rho(a, b))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(PruneRLError):
            spearman_rho([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(PruneRLError):
            spearman_rho([1.0, 2.0, 3.0], [1.0, bad, 2.0])

    def test_ties_use_average_ranks(self):
        # scipy.stats.spearmanr([1,1,2], [1,2,3]) = 0.866025...
        assert spearman_rho([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
            math.sqrt(3) / 2
        )


class TestLouvain:
    def test_two_triangles_exact(self, rng):
        part = louvain(two_triangles(), rng)
        assert part.labels[0] == part.labels[1] == part.labels[2]
        assert part.labels[3] == part.labels[4] == part.labels[5]
        assert part.labels[0] != part.labels[3]
        assert part.modularity == pytest.approx(0.5)

    def test_edgeless_graph_singletons(self, rng):
        g = Graph(3, [(0, 1)])
        g.prune_edge(0)
        part = louvain(g, rng)
        assert len(np.unique(part.labels)) == 3
        assert part.modularity == 0.0

    def test_karate_band(self, karate):
        qs = [louvain(karate, np.random.default_rng(s)).modularity for s in range(8)]
        assert all(0.38 <= q <= 0.42 for q in qs)

    def test_reported_modularity_recomputable(self, karate, rng):
        part = louvain(karate, rng)
        assert part.modularity == pytest.approx(modularity(karate, part.labels))


class TestModularity:
    def test_single_community_zero(self):
        g = two_triangles()
        assert modularity(g, np.zeros(6, dtype=np.int64)) == pytest.approx(0.0)

    def test_two_triangles_half(self):
        g = two_triangles()
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(g, labels) == pytest.approx(0.5)

    def test_label_permutation_invariant(self, karate, rng):
        part = louvain(karate, rng)
        relabeled = 1000 - part.labels
        assert modularity(karate, relabeled) == pytest.approx(
            modularity(karate, part.labels)
        )

    def test_empty_graph_convention(self):
        g = Graph(2, [(0, 1)])
        g.prune_edge(0)
        assert modularity(g, np.array([0, 1])) == 0.0


class TestARI:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_one_community_each(self):
        # no pair is split on either side, so the index is 0/0: defined as 1
        assert adjusted_rand_index([0, 0, 0], [7, 7, 7]) == 1.0

    def test_crossed_two_by_two(self):
        # all 6 pairs counted by hand: ARI = -0.5
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5)
        assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b))

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            a = rng.integers(0, 4, size=10).tolist()
            b = rng.integers(0, 3, size=10).tolist()
            assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b))
            assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))

    def test_chance_corrected_near_zero(self, rng):
        a = [i % 3 for i in range(30)]
        vals = []
        for _ in range(1000):
            b = rng.permutation(a).tolist()
            vals.append(adjusted_rand_index(a, b))
        assert abs(np.mean(vals)) < 0.02

    def test_too_few_nodes(self):
        with pytest.raises(PruneRLError):
            adjusted_rand_index([0], [0])

    def test_unequal_lengths(self):
        with pytest.raises(PruneRLError, match=r"\(3,\) vs \(4,\)"):
            adjusted_rand_index(np.array([0, 0, 1]), np.array([0, 0, 1, 1]))


class TestShortestPaths:
    def test_same_node_zero(self):
        assert shortest_path_distance(path_graph(4), 2, 2) == 0

    def test_path_graph(self):
        assert shortest_path_distance(path_graph(4), 0, 3) == 3

    def test_unreachable_is_typed(self):
        g = Graph(3, [(0, 1)])
        d = shortest_path_distance(g, 0, 2)
        assert d == UNREACHABLE
        assert not isinstance(d, int)

    def test_matches_floyd_warshall(self, rng):
        for _ in range(50):
            g = random_connected_graph(12, rng, extra_edge_prob=0.25)
            g.random_prune(int(rng.integers(0, 5)), rng)
            oracle = floyd_warshall(g)
            for u in range(12):
                for v in range(12):
                    d = shortest_path_distance(g, u, v)
                    assert (d == math.inf and oracle[u, v] == math.inf) or d == oracle[u, v]

    def test_triangle_inequality(self, karate):
        oracle = floyd_warshall(karate)
        n = karate.node_count
        for u in range(0, n, 5):
            for v in range(0, n, 5):
                for w in range(0, n, 5):
                    if np.isfinite(oracle[u, v]) and np.isfinite(oracle[v, w]):
                        assert oracle[u, w] <= oracle[u, v] + oracle[v, w]


class TestBatchSpsp:
    def test_empty(self, karate):
        assert batch_spsp(karate, np.empty((0, 2), dtype=np.int64)).shape == (0,)

    def test_duplicate_pair(self, karate):
        out = batch_spsp(karate, np.array([(0, 33), (0, 33)]))
        assert out[0] == out[1]

    def test_matches_per_pair(self, karate, rng):
        pairs = np.array([rng.integers(0, 34, size=2) for _ in range(20)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        batched = batch_spsp(karate, pairs)
        singles = [shortest_path_distance(karate, u, v) for u, v in pairs.tolist()]
        assert batched.tolist() == singles
