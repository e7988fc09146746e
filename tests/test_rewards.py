import math

import numpy as np
import pytest

from prunerl.errors import ConfigError, PruneRLError
from prunerl.graph import Graph, load_communities
from prunerl.metrics import (
    PathQuerySet,
    adjusted_rand_index,
    batch_spsp,
    louvain,
    pagerank,
    spearman_rho,
)
from prunerl import rewards
from prunerl.rewards import (
    OBJECTIVES,
    CommunityReward,
    ModularityReward,
    PagerankReward,
    SpspReward,
    make_reward_spec,
    sample_training_pairs,
    spsp_penalty,
)

from conftest import (
    floyd_warshall,
    path_graph,
    random_connected_graph,
    star_graph,
    two_triangles,
)


def bridged_triangles():
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    labels = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    return g, labels


def training_reward(spec, gp, eid=None):
    """The reward paid for the prune that produced gp."""
    return spec.after_prune(gp, eid, None, None)


def base_ari(g, labels):
    return adjusted_rand_index(louvain(g, np.random.default_rng(0)).labels, labels)


class TestRewardPagerank:
    def test_unchanged_graph_zero(self, karate):
        assert training_reward(PagerankReward(karate), karate) == pytest.approx(0.0)

    def test_bounded(self, karate, rng):
        gp = karate.copy()
        gp.random_prune(20, rng)
        assert -2.0 <= training_reward(PagerankReward(karate), gp) <= 0.0

    def test_rank_degenerate_output_rejected(self):
        # prune everything: PageRank on the empty graph is uniform, so the
        # rank correlation is undefined and evaluation refuses
        g = star_graph(4)
        gp = g.copy()
        for eid in list(gp.live_edge_ids()):
            gp.prune_edge(int(eid))
        with pytest.raises(PruneRLError, match="variance"):
            PagerankReward(g).evaluate(gp, np.random.default_rng(0))

    def test_training_hook_tolerates_degenerate_ranks(self):
        # the episode-time hook maps the same situation to the worst reward
        # instead of aborting the episode
        g = star_graph(4)
        gp = g.copy()
        for eid in list(gp.live_edge_ids()):
            gp.prune_edge(int(eid))
        spec = PagerankReward(g)
        assert spec.after_prune(gp, None, None, None) == pytest.approx(-1.0)

    def test_star_leaf_prune_matches_oracle(self):
        g = star_graph(5)
        gp = g.copy()
        gp.prune_edge(g.edge_id(0, 5))
        expected = spearman_rho(pagerank(g), pagerank(gp)) - 1.0
        assert training_reward(PagerankReward(g), gp) == pytest.approx(expected)

    def test_rewards_over_a_prune_sequence_equal_spearman_rho(self, karate, rng):
        spec, base, gp = PagerankReward(karate), pagerank(karate), karate.copy()
        for eid in rng.permutation(gp.live_edge_ids())[:50]:
            gp.prune_edge(int(eid))
            rho = spearman_rho(base, pagerank(gp))
            assert spec.after_prune(gp, int(eid), None, rng) == rho - 1.0
            assert spec.evaluate(gp, rng) == rho

    def test_evaluation_is_rho(self, karate, rng):
        gp = karate.copy()
        gp.random_prune(20, rng)
        expected = spearman_rho(pagerank(karate), pagerank(gp))
        assert PagerankReward(karate).evaluate(gp, rng) == pytest.approx(expected)


class TestRewardCommunity:
    # without on_episode_start the episode Louvain seed is 0, the seed of the
    # baseline run on the original graph

    def test_label_term_values(self):
        g, labels = bridged_triangles()
        intra = g.edge_id(0, 1)
        inter = g.edge_id(2, 3)
        base = base_ari(g, labels)
        for edge, label_term in ((intra, 1.0), (inter, -1.0)):
            gp = g.copy()
            gp.prune_edge(edge)
            ari = adjusted_rand_index(
                louvain(gp, np.random.default_rng(0)).labels, labels
            )
            r = training_reward(CommunityReward(g, labels), gp, edge)
            assert r == pytest.approx(ari - base + label_term)

    def test_label_sign_switch_flips_term(self):
        g, labels = bridged_triangles()
        inter = g.edge_id(2, 3)
        gp = g.copy()
        gp.prune_edge(inter)
        r_pos = training_reward(CommunityReward(g, labels, label_sign=1.0), gp, inter)
        r_neg = training_reward(CommunityReward(g, labels, label_sign=-1.0), gp, inter)
        assert r_neg - r_pos == pytest.approx(2.0)

    def test_unlabeled_endpoint_rejected(self):
        # every endpoint a prune can reach is labeled, or the objective
        # refuses to be built
        g, _ = bridged_triangles()
        with pytest.raises(ConfigError, match="missing"):
            CommunityReward(g, {0: 0})

    def test_bridge_prune_recovers_ground_truth(self):
        # removing the inter-community edge leaves two clean triangles, which
        # Louvain labels exactly: ARI = 1, label term = -1 for an inter prune
        g, labels = bridged_triangles()
        inter = g.edge_id(2, 3)
        gp = g.copy()
        gp.prune_edge(inter)
        r = training_reward(CommunityReward(g, labels), gp, inter)
        assert r == pytest.approx(1.0 - base_ari(g, labels) - 1.0)
        assert CommunityReward(g, labels).evaluate(
            gp, np.random.default_rng(0), louvain_runs=3) == pytest.approx(1.0)

    def test_spec_requires_full_label_coverage(self):
        g, _ = bridged_triangles()
        with pytest.raises(ConfigError, match="missing"):
            CommunityReward(g, {0: 0, 1: 0})


class TestRewardSpsp:
    def test_unchanged_graph_zero(self, karate, rng):
        q = PathQuerySet.sample(karate, 50, rng)
        assert spsp_penalty(karate, q) == 0.0

    def test_unreachable_pair_counts_node_total(self):
        g = path_graph(3)
        q = PathQuerySet.from_graph(g, [(0, 2)])
        gp = g.copy()
        gp.prune_edge(g.edge_id(1, 2))
        # severed pair enters the mean as a flat |V| = 3, not a difference
        assert spsp_penalty(gp, q) == pytest.approx(3.0)

    def test_already_unreachable_contributes_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        q = PathQuerySet.from_graph(g, [(0, 2)])
        gp = g.copy()
        gp.prune_edge(0)
        assert spsp_penalty(gp, q) == 0.0

    def test_matches_floyd_warshall(self, rng):
        for _ in range(10):
            g = random_connected_graph(12, rng)
            q = PathQuerySet.sample(g, 30, rng)
            gp = g.copy()
            gp.random_prune(min(5, gp.edge_count - 1), rng)
            after = floyd_warshall(gp)
            diffs = []
            for (u, v), d0 in zip(q.pairs, q.baseline):
                d1 = after[u][v]
                if math.isinf(d1):
                    diffs.append(0.0 if math.isinf(d0) else 12.0)
                else:
                    diffs.append(d1 - d0)
            assert spsp_penalty(gp, q) == pytest.approx(np.mean(diffs))

    def test_monotone_in_pruning(self, karate, rng):
        q = PathQuerySet.sample(karate, 100, rng)
        gp = karate.copy()
        last = 0.0
        for _ in range(10):
            gp.random_prune(5, rng)
            cur = spsp_penalty(gp, q)
            assert cur >= last - 1e-12
            last = cur


class TestSampleTrainingPairs:
    def test_pair_count_law(self, karate, rng):
        ends = (int(karate.src[0]), int(karate.dst[0]))
        for k in (1, 4, 16):
            q = sample_training_pairs(karate, 0, k, rng)
            assert len(q.pairs) == 2 * k
            assert all(u != v for u, v in q.pairs)
            assert all(u in ends for u, _ in q.pairs)

    def test_zero_k_rejected(self, karate, rng):
        with pytest.raises(PruneRLError):
            sample_training_pairs(karate, 0, 0, rng)

    def test_baselines_finite_on_connected_graph(self, karate, rng):
        q = sample_training_pairs(karate, 5, 8, rng)
        assert all(math.isfinite(d) for d in q.baseline)

    def test_self_consistent_with_reward(self, karate, rng):
        q = sample_training_pairs(karate, 3, 8, rng)
        gp = karate.copy()
        gp.prune_edge(3)
        dists = batch_spsp(gp, q.pairs)
        manual = np.mean([
            34.0 if math.isinf(d1) else d1 - d0
            for d0, d1 in zip(q.baseline, dists)
        ])
        assert spsp_penalty(gp, q) == pytest.approx(manual)


class TestRewardModularity:
    def test_unchanged_graph_zero(self, karate):
        assert training_reward(ModularityReward(karate), karate) == pytest.approx(0.0)

    def test_pruning_bridge_improves(self):
        g, _ = bridged_triangles()
        gp = g.copy()
        gp.prune_edge(g.edge_id(2, 3))
        assert training_reward(ModularityReward(g), gp) > 0.0

    def test_edgeless_graph_scores_minus_baseline(self):
        g = two_triangles()
        base = louvain(g, np.random.default_rng(0)).modularity
        gp = g.copy()
        for eid in list(gp.live_edge_ids()):
            gp.prune_edge(int(eid))
        r = training_reward(ModularityReward(g), gp)
        assert r == pytest.approx(-base)

    def test_evaluation_averages_louvain_runs_on_one_rng(self, karate, rng):
        gp = karate.copy()
        gp.random_prune(20, rng)
        runs = np.random.default_rng(3)
        expected = np.mean([louvain(gp, runs).modularity for _ in range(4)])
        got = ModularityReward(karate).evaluate(
            gp, np.random.default_rng(3), louvain_runs=4)
        assert got == expected


class TestRewardSpecs:
    def test_factory_dispatch(self, karate, karate_labels_path):
        labels = load_communities(karate_labels_path, karate)
        assert isinstance(make_reward_spec("pagerank", karate), PagerankReward)
        assert isinstance(make_reward_spec("community", karate, labels=labels),
                          CommunityReward)
        assert isinstance(make_reward_spec("spsp", karate), SpspReward)
        assert isinstance(make_reward_spec("modularity", karate),
                          ModularityReward)
        with pytest.raises(ConfigError, match="unknown objective"):
            make_reward_spec("nonsense", karate)

    def test_factory_ignores_context_an_objective_does_not_take(self, karate):
        spec = make_reward_spec("spsp", karate, labels={0: 0}, label_sign=-1.0,
                                pairs_per_endpoint=3)
        assert spec.pairs_per_endpoint == 3

    def test_community_requires_labels(self, karate):
        with pytest.raises(ConfigError):
            make_reward_spec("community", karate)

    def test_only_spsp_is_lower_is_better(self):
        assert {name for name, cls in OBJECTIVES.items()
                if not cls.higher_is_better} == {"spsp"}

    @pytest.mark.parametrize("name", ["community", "modularity"])
    def test_evaluation_skips_the_training_baseline(self, name, karate,
                                                    karate_labels_path,
                                                    monkeypatch):
        labels = load_communities(karate_labels_path, karate)
        spec = make_reward_spec(name, karate, labels=labels)
        calls = []
        real = rewards.louvain
        monkeypatch.setattr(rewards, "louvain",
                            lambda g, rng: calls.append(g) or real(g, rng))
        spec.evaluate(karate, np.random.default_rng(0), louvain_runs=3)
        assert len(calls) == 3
        # the first training step adds the baseline run on the original graph
        spec.after_prune(karate, 0, None, None)
        assert len(calls) == 5

    def test_spsp_spec_negates_penalty(self, karate, rng):
        spec = SpspReward(karate, pairs_per_endpoint=4)
        g = karate.copy()
        spec.on_episode_start(karate, g, rng)
        edge = int(g.live_edge_ids()[0])
        ctx = spec.before_prune(g, edge, rng)
        g.prune_edge(edge)
        r = spec.after_prune(g, edge, ctx, rng)
        assert r == -spsp_penalty(g, ctx)
        assert r <= 0.0
