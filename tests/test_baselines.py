import itertools
import math

import numpy as np
import pytest

from prunerl.baselines import (
    AT_RATIO,
    baswana_sen_spanner,
    edge_forest_fire,
    jaccard_scores,
    l_spar,
    local_degree,
    random_edge,
    spanner_comparison_protocol,
)
from prunerl.errors import PruneRLError
from prunerl.graph import Graph

from conftest import (
    barbell_graph,
    complete_graph,
    edge_id,
    floyd_warshall,
    make_graph,
    random_connected_graph,
    star_graph,
)


class TestRandomEdge:
    def test_full_ratio_unchanged(self, karate, rng):
        out = random_edge(karate, 1.0, rng)
        assert out.live_edge_set() == karate.live_edge_set()

    def test_zero_ratio_rejected(self, karate, rng):
        with pytest.raises(PruneRLError):
            random_edge(karate, 0.0, rng)

    def test_exact_count(self, karate, rng):
        for r in (0.2, 0.4, 0.6, 0.8):
            out = random_edge(karate, r, rng)
            assert out.edge_count == round(r * 78)

    def test_k4_half_subset_uniform(self, rng):
        # round(0.5 * 6) = 3 kept; all C(6,3)=20 subsets equally likely
        g = complete_graph(4)
        counts = {}
        trials = 10_000
        for _ in range(trials):
            kept = frozenset(int(e) for e in random_edge(g, 0.5, rng).live_edge_ids())
            counts[kept] = counts.get(kept, 0) + 1
        assert len(counts) == 20
        freqs = np.array(list(counts.values())) / trials
        assert np.all(np.abs(freqs - 1 / 20) < 0.02)


class TestLocalDegree:
    def test_keep_count_law_degree_nine(self):
        # hub of degree 9 at alpha=0.5 keeps floor(9^0.5) = 3 edges
        g = star_graph(9)
        out = local_degree(g, alpha=0.5)
        # hub keeps 3, but each leaf (degree 1) keeps floor(1^0.5)=1 edge,
        # so every edge survives via the leaf side
        assert out.edge_count == 9

    def test_alpha_one_unchanged(self, karate):
        out = local_degree(karate, alpha=1.0)
        assert out.live_edge_set() == karate.live_edge_set()

    def test_hub_keep_rule_isolated(self):
        # connect each leaf to a private pendant so leaves rank low and the
        # hub's own keep count is observable: hub degree 9 keeps top 3 by
        # neighbor degree
        edges = [(0, i) for i in range(1, 10)]
        # give leaves 1..3 an extra pendant each -> their degree is 2
        edges += [(1, 10), (2, 11), (3, 12)]
        g = Graph(13, edges)
        out = local_degree(g, alpha=0.5)
        # hub keeps its 3 highest-degree neighbors (1, 2, 3); every node of
        # degree >= 1 keeps at least 1 edge, so pendant edges also survive
        for v in (1, 2, 3):
            assert edge_id(out, 0, v) in set(int(e) for e in out.live_edge_ids())

    def test_ratio_search_near_target(self, karate):
        out = local_degree(karate, r=0.6)
        assert abs(out.edge_count - round(0.6 * 78)) <= 2
        assert out.method_params["alpha"] is not None


class TestEdgeForestFire:
    def test_full_ratio_unchanged(self, karate, rng):
        out = edge_forest_fire(karate, 1.0, 0.5, rng)
        assert out.live_edge_set() == karate.live_edge_set()

    def test_exact_count(self, karate, rng):
        out = edge_forest_fire(karate, 0.5, 0.95, rng)
        assert out.edge_count == 39

    def test_p_near_zero_behaves_like_random(self, rng):
        # with p -> 0 no edges are traversed, so the kept set is rng jitter:
        # every edge of K4 should survive with roughly equal frequency
        g = complete_graph(4)
        counts = np.zeros(6)
        trials = 4000
        for _ in range(trials):
            out = edge_forest_fire(g, 0.5, 1e-9, rng)
            for e in out.live_edge_ids():
                counts[int(e)] += 1
        freqs = counts / trials  # expected 0.5 each
        assert np.all(np.abs(freqs - 0.5) < 0.05)

    def test_barbell_bridge_visited_more(self, rng):
        # every cross-side traversal uses the bridge, so its mean visit count
        # over many seeds must exceed the mean over peripheral edges; observed
        # through survival frequency at a harsh ratio
        g, bridge_eid = barbell_graph()
        bridge_kept = 0
        peripheral_kept = np.zeros(20)
        trials = 1000
        for _ in range(trials):
            out = edge_forest_fire(g, 0.3, 0.5, rng)
            live = set(int(e) for e in out.live_edge_ids())
            bridge_kept += bridge_eid in live
            for e in range(20):
                peripheral_kept[e] += e in live
        assert bridge_kept / trials > peripheral_kept.mean() / trials


class TestLSpar:
    def test_identical_closed_neighborhoods_score_one(self):
        # in K3 every pair has identical closed neighborhoods
        g = complete_graph(3)
        assert jaccard_scores(g)[edge_id(g, 0, 1)] == pytest.approx(1.0)

    def test_triangle_free_jaccard(self):
        # endpoints sharing no neighbors: |{u,v}| / |N[u] u N[v]|
        # = 2 / (deg(u) + deg(v))
        g = make_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert jaccard_scores(g)[edge_id(g, 0, 1)] == pytest.approx(2 / (3 + 3))

    def test_exponent_one_unchanged(self, karate):
        out = l_spar(karate, e=1.0)
        assert out.live_edge_set() == karate.live_edge_set()

    def test_keeps_most_similar_first(self):
        # two triangles joined by a middle edge (2,3): that edge has Jaccard
        # 1/3 while triangle edges score 0.6, so with a tiny exponent
        # (ceil(3^e) = 2 kept per endpoint) both endpoints exclude it and it
        # is the only pruned edge
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        out = l_spar(g, e=1e-9)
        live = out.live_edge_set()
        assert (2, 3) not in live
        assert len(live) == 6


class TestSpanner:
    def test_stretch_one_is_identity(self, rng):
        g = random_connected_graph(10, rng)
        out = baswana_sen_spanner(g, 1, rng)
        assert out.live_edge_set() == g.live_edge_set()

    def test_even_stretch_rejected(self, karate, rng):
        with pytest.raises(PruneRLError, match="odd"):
            baswana_sen_spanner(karate, 4, rng)

    def test_subgraph_and_connected(self, rng):
        for _ in range(10):
            g = random_connected_graph(12, rng)
            out = baswana_sen_spanner(g, 3, rng)
            assert out.live_edge_set() <= g.live_edge_set()
            assert np.all(np.isfinite(floyd_warshall(out)))

    @pytest.mark.parametrize("t", [3, 5, 7])
    def test_stretch_oracle(self, rng, t):
        for _ in range(30):
            g = random_connected_graph(12, rng, extra_edge_prob=0.35)
            out = baswana_sen_spanner(g, t, rng)
            base = floyd_warshall(g)
            sp = floyd_warshall(out)
            assert np.all(sp <= t * base + 1e-9)


class TestSpannerProtocol:
    def test_row_schema_and_even_mapping(self, rng, caplog):
        g = random_connected_graph(14, rng)

        def sparsify_to_count(count, rng_):
            out = g.copy()
            out.random_prune(out.edge_count - count, rng_)
            return out

        import logging

        with caplog.at_level(logging.INFO):
            rows = spanner_comparison_protocol(g, [3, 4], sparsify_to_count, rng,
                                               runs=2, n_pairs=30)
        assert [set(r) for r in rows] == [
            {"t", "mean_ratio", "spanner_rspsp", "agent_rspsp"}
        ] * 2
        # even stretch 4 runs as 3 internally; the row keeps the requested t
        # and the mapping is disclosed in the log
        assert rows[1]["t"] == 4
        assert any("mapped" in rec.message for rec in caplog.records)

    def test_single_run_degenerates(self, rng):
        g = random_connected_graph(10, rng)

        def sparsify_to_count(count, rng_):
            out = g.copy()
            out.random_prune(out.edge_count - count, rng_)
            return out

        rows = spanner_comparison_protocol(g, [3], sparsify_to_count, rng,
                                           runs=1, n_pairs=10)
        assert len(rows) == 1


class TestSubgraphInvariant:
    def test_every_baseline_outputs_subgraph(self, karate, rng):
        outs = [
            random_edge(karate, 0.5, rng),
            local_degree(karate, r=0.5),
            l_spar(karate, r=0.5),
            edge_forest_fire(karate, 0.5, 0.95, rng),
            baswana_sen_spanner(karate, 3, rng),
        ]
        for out in outs:
            assert out.live_edge_set() <= karate.live_edge_set()
            assert out.method_params["method"]


class TestPrunedInput:
    """Baselines that prune toward round(r*|E|) of the original edge count,
    run on a graph that already lost some edges."""

    @pytest.fixture
    def karate_38(self, karate):
        karate.random_prune(40, np.random.default_rng(1))
        return karate

    @pytest.mark.parametrize("method", list(AT_RATIO))
    def test_target_above_live_rejected(self, karate_38, method):
        with pytest.raises(PruneRLError, match="target of 58 edges exceeds the 38 still live"):
            AT_RATIO[method](karate_38, 0.75, np.random.default_rng(0))
        assert karate_38.edge_count == 38

    @pytest.mark.parametrize("method", ["random_edge", "edge_forest_fire"])
    def test_target_below_live_reached(self, karate_38, method):
        out = AT_RATIO[method](karate_38, 0.25, np.random.default_rng(0))
        assert out.edge_count == 20
        assert out.live_edge_set() <= karate_38.live_edge_set()
