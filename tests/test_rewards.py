import math

import numpy as np
import pytest

from prunerl import baselines, metrics, rewards
from prunerl.agent import Agent
from prunerl.config import AgentConfig
from prunerl.errors import ConfigError, PruneRLError
from prunerl.graph import Graph, load_communities, load_edge_list
from prunerl.metrics import (
    adjusted_rand_index,
    batch_spsp,
    louvain,
    pagerank,
    sample_pairs,
    spearman_rho,
)
from prunerl.rewards import (
    OBJECTIVES,
    CommunityReward,
    ModularityReward,
    PagerankReward,
    SpspReward,
    make_reward_spec,
    sample_training_pairs,
)

from conftest import (
    DATA_DIR,
    barbell_graph,
    edge_id,
    floyd_warshall,
    path_graph,
    random_connected_graph,
    random_sparse_graph,
    star_graph,
    two_triangles,
)
from oracles import spsp_reward_oracle


def bridged_triangles():
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    labels = np.array([0, 0, 0, 1, 1, 1])
    return g, labels


def training_reward(spec, gp, eid=None):
    """The reward paid for the prune that produced gp."""
    return spec.after_prune(gp, eid, None)


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
        assert spec.after_prune(gp, None, None) == pytest.approx(-1.0)

    def test_star_leaf_prune_matches_oracle(self):
        g = star_graph(5)
        gp = g.copy()
        gp.prune_edge(edge_id(g, 0, 5))
        expected = spearman_rho(pagerank(g), pagerank(gp)) - 1.0
        assert training_reward(PagerankReward(g), gp) == pytest.approx(expected)

    def test_rewards_over_a_prune_sequence_equal_spearman_rho(self, karate, rng):
        spec, base, gp = PagerankReward(karate), pagerank(karate), karate.copy()
        for eid in rng.permutation(gp.live_edge_ids())[:50]:
            gp.prune_edge(int(eid))
            rho = spearman_rho(base, pagerank(gp))
            assert spec.after_prune(gp, int(eid), rng) == rho - 1.0
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
        intra = edge_id(g, 0, 1)
        inter = edge_id(g, 2, 3)
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
        inter = edge_id(g, 2, 3)
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
            CommunityReward(g, np.array([0, -1, -1, -1, -1, -1]))

    def test_bridge_prune_recovers_ground_truth(self):
        # removing the inter-community edge leaves two clean triangles, which
        # Louvain labels exactly: ARI = 1, label term = -1 for an inter prune
        g, labels = bridged_triangles()
        inter = edge_id(g, 2, 3)
        gp = g.copy()
        gp.prune_edge(inter)
        r = training_reward(CommunityReward(g, labels), gp, inter)
        assert r == pytest.approx(1.0 - base_ari(g, labels) - 1.0)
        assert CommunityReward(g, labels, louvain_runs=3).evaluate(
            gp, np.random.default_rng(0)) == pytest.approx(1.0)

    def test_spec_requires_full_label_coverage(self):
        g, _ = bridged_triangles()
        with pytest.raises(ConfigError, match="missing"):
            CommunityReward(g, np.array([0, 0, -1, -1, -1, -1]))

    @pytest.mark.parametrize("labels", [np.zeros(5, dtype=np.int64), np.zeros((6, 1)),
                                        {n: 0 for n in range(6)}])
    def test_labels_of_another_shape_rejected(self, labels):
        g, _ = bridged_triangles()
        with pytest.raises(ConfigError, match=r"must be a \(6,\) array"):
            CommunityReward(g, labels)


class TestRewardSpsp:
    def test_unchanged_graph_zero(self, karate, rng):
        pairs = sample_pairs(karate, 50, rng)
        assert SpspReward(karate).penalty(karate, pairs) == 0.0

    def test_unreachable_pair_counts_node_total(self):
        g = path_graph(3)
        gp = g.copy()
        gp.prune_edge(edge_id(g, 1, 2))
        # severed pair enters the mean as a flat |V| = 3, not a difference
        assert SpspReward(g).penalty(gp, [(0, 2)]) == pytest.approx(3.0)

    def test_already_unreachable_contributes_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        gp = g.copy()
        gp.prune_edge(0)
        assert SpspReward(g).penalty(gp, [(0, 2)]) == 0.0

    def test_matches_floyd_warshall(self, rng):
        for _ in range(10):
            g = random_connected_graph(12, rng)
            pairs = sample_pairs(g, 30, rng)
            gp = g.copy()
            gp.random_prune(min(5, gp.edge_count - 1), rng)
            before, after = floyd_warshall(g), floyd_warshall(gp)
            diffs = []
            for u, v in pairs:
                d0, d1 = before[u][v], after[u][v]
                if math.isinf(d1):
                    diffs.append(0.0 if math.isinf(d0) else 12.0)
                else:
                    diffs.append(d1 - d0)
            assert SpspReward(g).penalty(gp, pairs) == pytest.approx(np.mean(diffs))

    def test_pair_with_equal_endpoints_named(self, karate):
        with pytest.raises(PruneRLError, match=r"got \(4,4\)"):
            SpspReward(karate).penalty(karate, np.array([(0, 2), (4, 4), (5, 5)]))

    def test_monotone_in_pruning(self, karate, rng):
        spec, pairs = SpspReward(karate), sample_pairs(karate, 100, rng)
        gp = karate.copy()
        last = 0.0
        for _ in range(10):
            gp.random_prune(5, rng)
            cur = spec.penalty(gp, pairs)
            assert cur >= last - 1e-12
            last = cur

    def test_original_graph_searched_once_per_pair_draw(self, karate, monkeypatch):
        searched = []
        real = metrics._hop_distances
        monkeypatch.setattr(metrics, "_hop_distances",
                            lambda g, sources: searched.append(g) or real(g, sources))
        spec, rng = SpspReward(karate, spsp_pairs=40), np.random.default_rng(5)
        graphs = [karate.copy() for _ in range(3)]
        for gp in graphs:
            gp.random_prune(10, rng)
        for gp in graphs:
            spec.evaluate(gp, np.random.default_rng(0))
        spec.evaluate(graphs[0], np.random.default_rng(1))
        assert [g is karate for g in searched] == [True, False, False, False, True, False]
        searched.clear()
        baselines.spanner_comparison_protocol(karate, [3, 5], baselines.AT_RATIO["random_edge"],
                                              np.random.default_rng(0), runs=2, n_pairs=40)
        # the original once, then 2 spanners and the learned graph per stretch
        assert sum(g is karate for g in searched) == 1
        assert len(searched) == 1 + 2 * 3


def derived_distances(monkeypatch, g, eid, k, seed):
    """Prune edge `eid` from g and return the reward `SpspReward.after_prune`
    pays, with the pre- and post-prune distances it hands to
    `mean_path_increase`."""
    seen = []
    real = rewards.mean_path_increase
    monkeypatch.setattr(rewards, "mean_path_increase",
                        lambda *args: seen.append(args[:2]) or real(*args))
    spec = SpspReward(g, pairs_per_endpoint=k)
    g.prune_edge(eid)
    r = spec.after_prune(g, eid, np.random.default_rng(seed))
    (before, after), = seen
    return r, before, after


class TestSampleTrainingPairs:
    def test_pair_count_law(self, karate, rng):
        ends = (int(karate.src[0]), int(karate.dst[0]))
        for k in (1, 4, 16):
            pairs = sample_training_pairs(karate, 0, k, rng)
            assert pairs.shape == (2 * k, 2)
            assert all(u != v for u, v in pairs)
            assert all(u in ends for u, _ in pairs)

    def test_pairs_are_endpoint_major(self, karate, rng):
        pairs = sample_training_pairs(karate, 0, 5, rng)
        assert pairs.dtype == np.int64
        assert pairs[:, 0].tolist() == [karate.src[0]] * 5 + [karate.dst[0]] * 5
        assert pairs[:5, 1].tolist() == pairs[5:, 1].tolist()

    def test_zero_k_rejected(self, karate, rng):
        with pytest.raises(PruneRLError):
            sample_training_pairs(karate, 0, 0, rng)

    def test_baselines_finite_on_connected_graph(self, karate, monkeypatch):
        _, _, base = spsp_reward_oracle(karate.copy(), 5, 8, np.random.default_rng(0))
        _, before, _ = derived_distances(monkeypatch, karate, 5, 8, 0)
        assert before.tolist() == base.tolist()
        assert all(math.isfinite(d) for d in before)

    def test_self_consistent_with_reward(self, karate, monkeypatch):
        _, pairs, base = spsp_reward_oracle(karate.copy(), 3, 8, np.random.default_rng(0))
        r, before, after = derived_distances(monkeypatch, karate, 3, 8, 0)
        assert before.tolist() == base.tolist()
        assert after.tolist() == batch_spsp(karate, pairs).tolist()
        manual = np.mean([
            34.0 if math.isinf(d1) else d1 - d0
            for d0, d1 in zip(before, after)
        ])
        assert -r == pytest.approx(manual)


SPSP_GRAPHS = {
    "karate": lambda rng: load_edge_list(DATA_DIR / "karate.txt"),
    "karate-directed": lambda rng: load_edge_list(DATA_DIR / "karate.txt", directed=True),
    "barbell": lambda rng: barbell_graph()[0],
    "sparse": lambda rng: random_sparse_graph(40, 90, rng),
    "sparse-directed": lambda rng: random_sparse_graph(40, 140, rng, directed=True),
}


class TestSpspTrainingReward:
    @pytest.mark.parametrize("name", SPSP_GRAPHS)
    def test_one_search_pays_the_two_search_reward(self, name):
        # prunes every edge in a seeded order (barbell's bridge among them), so
        # pairs fall unreachable along the way
        for seed in range(4):
            g = SPSP_GRAPHS[name](np.random.default_rng(seed))
            gold, spec = g.copy(), SpspReward(g, pairs_per_endpoint=3 + 5 * seed)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for eid in np.random.default_rng(seed + 10).permutation(g.edge_count).tolist():
                want, _, _ = spsp_reward_oracle(gold, eid, spec.pairs_per_endpoint, oracle_rng)
                g.prune_edge(eid)
                assert spec.after_prune(g, eid, rng) == want
            assert rng.random() == oracle_rng.random()

    def test_one_hop_search_per_prune(self, karate, monkeypatch):
        searches = []
        real = metrics._hop_distances
        monkeypatch.setattr(metrics, "_hop_distances",
                            lambda g, sources: searches.append(sources) or real(g, sources))
        agent = Agent(karate, AgentConfig(t_max=6, emb_dim=8, hidden_dim=16, batch_size=4),
                      rng=np.random.default_rng(0))
        spec, rng = SpspReward(karate, pairs_per_endpoint=4), np.random.default_rng(0)
        prunes = sum(len(agent.run_episode(spec, rng).prunes) for _ in range(3))
        assert len(searches) == prunes


class TestRewardModularity:
    def test_unchanged_graph_zero(self, karate):
        assert training_reward(ModularityReward(karate), karate) == pytest.approx(0.0)

    def test_pruning_bridge_improves(self):
        g, _ = bridged_triangles()
        gp = g.copy()
        gp.prune_edge(edge_id(g, 2, 3))
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
        got = ModularityReward(karate, louvain_runs=4).evaluate(
            gp, np.random.default_rng(3))
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
        spec = make_reward_spec(name, karate, labels=labels, louvain_runs=3)
        calls = []
        real = rewards.louvain
        monkeypatch.setattr(rewards, "louvain",
                            lambda g, rng: calls.append(g) or real(g, rng))
        spec.evaluate(karate, np.random.default_rng(0))
        assert len(calls) == 3
        # the first training step adds the baseline run on the original graph
        spec.after_prune(karate, 0, None)
        assert len(calls) == 5

    def test_spsp_spec_negates_penalty(self, karate, rng):
        spec = SpspReward(karate, pairs_per_endpoint=4)
        g = karate.copy()
        spec.on_episode_start(g, rng)
        edge = int(g.live_edge_ids()[0])
        pairs = sample_training_pairs(g, edge, 4, np.random.default_rng(1))
        g.prune_edge(edge)
        r = spec.after_prune(g, edge, np.random.default_rng(1))
        # g is karate before this one prune, so the original graph's distances are its own
        assert r == -spec.penalty(g, pairs)
        assert r <= 0.0
