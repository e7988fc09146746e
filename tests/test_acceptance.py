"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test pins one capability of the workbench: metric fidelity against
independent oracles, gradient correctness of the Q-network, the stochastic
machinery (prioritized sampling, exploration schedule, target blending),
small-graph learning sanity, spanner guarantees, baseline exactness,
reproducibility, and variable-length evaluation. These are intentionally
heavier than the unit suites; the two learning checks train real agents.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from prunerl import baselines, cli, nnet
from prunerl.agent import Agent, AgentConfig, epsilon_at, train_loop
from prunerl.errors import PruneRLError
from prunerl.graph import Graph, load_communities, load_edge_list, open_output
from prunerl.metrics import (
    PathQuerySet,
    adjusted_rand_index,
    bfs_distances,
    louvain,
    modularity,
    pagerank,
)
from prunerl.qmodel import QModel
from prunerl.replay import ReplayBuffer, Transition
from prunerl.rewards import CommunityReward, SpspReward

from conftest import (
    DATA_DIR,
    barbell_graph,
    complete_graph,
    degree_of,
    floyd_warshall,
    neighbors,
    random_connected_graph,
    sampling_probabilities,
    two_triangles,
)
from gradcheck import grad_check, mul, sum_all

KARATE = DATA_DIR / "karate.txt"
KARATE_LABELS = DATA_DIR / "karate_communities.txt"


# ---------------------------------------------------------- 1. metric oracles


class TestMetricOracles:
    def test_bfs_matches_floyd_warshall_on_50_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            g = random_connected_graph(int(rng.integers(4, 13)), rng)
            if rng.random() < 0.3:  # also cover disconnected graphs
                g.random_prune(min(2, g.edge_count - 1), rng)
            dense = floyd_warshall(g)
            for s in range(g.node_count):
                d = bfs_distances(g, s)
                for v in range(g.node_count):
                    expect = dense[s, v]
                    got = d[v]
                    if math.isinf(expect):
                        assert math.isinf(got)
                    else:
                        assert got == expect

    def test_ari_matches_pair_counting_on_50_labelings(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            a = np.array([rng.integers(3) for _ in range(n)])
            b = np.array([rng.integers(3) for _ in range(n)])
            assert adjusted_rand_index(a, b) == pytest.approx(
                _brute_force_ari(a, b), abs=1e-12)

    def test_two_triangle_modularity_exact(self):
        g = two_triangles()
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(g, labels) == 0.5

    def test_pagerank_uniform_on_symmetric_graphs(self):
        for g in (complete_graph(7),
                  Graph(8, [(i, (i + 1) % 8) for i in range(8)])):
            pr = pagerank(g)
            assert np.max(np.abs(pr - 1.0 / g.node_count)) < 1e-9


def _brute_force_ari(a, b):
    """ARI from raw pair counts, no contingency-table shortcuts."""
    nodes = range(len(a))
    both = same_a = same_b = 0
    total = 0
    for u, v in itertools.combinations(nodes, 2):
        total += 1
        sa = a[u] == a[v]
        sb = b[u] == b[v]
        same_a += sa
        same_b += sb
        both += sa and sb
    expected = same_a * same_b / total
    max_index = (same_a + same_b) / 2.0
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


# ------------------------------------------------------- 2. gradient fidelity


class TestGradientFidelity:
    @pytest.mark.slow
    def test_full_network_gradients_100_trials(self):
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            g = random_connected_graph(5, rng, extra_edge_prob=0.5)
            model = QModel(5, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
            sub = g.sample_subgraph(min(4, g.edge_count), rng)
            w = nnet.Tensor(rng.normal(size=len(sub)))

            def loss_fn():
                return sum_all(mul(model.q_forward(sub), w))

            try:
                err = grad_check(loss_fn, model.parameters(),
                                 tolerance=1e-4, rng=np.random.default_rng(trial))
            except PruneRLError:
                # piecewise-linear activations: a coordinate can straddle a
                # kink at the default step; re-check with a tighter one
                err = grad_check(loss_fn, model.parameters(),
                                 tolerance=1e-4, h=1e-6,
                                 rng=np.random.default_rng(trial))
            worst = max(worst, err)
        assert worst < 1e-4


# ------------------------------------------- 3. sampling and schedule laws


class TestStochasticLaws:
    def test_prioritized_sampling_chi_square(self):
        rng = np.random.default_rng(7)
        g = complete_graph(5)
        sub = g.sample_subgraph(4, rng)
        buf = ReplayBuffer(capacity=16, alpha=0.6, beta=0.4)
        for p in range(1, 11):
            buf.add(Transition(sub, 0, 0.0, sub, True), priority=float(p))
        draws = 100_000
        counts = np.zeros(10, dtype=np.int64)
        for _ in range(200):
            idx, _, _ = buf.sample(500, rng)
            counts += np.bincount(idx, minlength=10)
        expected = sampling_probabilities(buf) * draws
        stat, pvalue = scipy.stats.chisquare(counts, expected)
        assert pvalue > 0.01

    def test_exploration_schedule_endpoints(self):
        cfg = AgentConfig()
        assert epsilon_at(cfg, 0) == 0.99
        assert epsilon_at(cfg, 10_000) == 0.05
        assert epsilon_at(cfg, 50_000) == 0.05

    def test_soft_update_geometric_convergence(self):
        rng = np.random.default_rng(3)
        policy = QModel(3, emb_dim=4, hidden_dim=8, rng=rng)
        target = QModel(3, emb_dim=4, hidden_dim=8, rng=rng)
        start = [t.data.copy() for t in target.parameters()]
        rate = 0.05
        n = 300  # (1 - rate)^300 < 1e-6: blend prediction and convergence
        for _ in range(n):
            target.soft_update_from(policy, rate)
        shrink = (1.0 - rate) ** n
        for t, p, s in zip(target.parameters(), policy.parameters(), start):
            predicted = p.data + shrink * (s - p.data)
            assert np.max(np.abs(t.data - predicted)) < 1e-6
            assert np.max(np.abs(t.data - p.data)) < 1e-6


# --------------------------------------------------- 4. learning sanity: bridge


class TestBridgeSurvival:
    @pytest.mark.slow
    def test_trained_policy_spares_the_bridge(self):
        """Two K5s joined by one bridge: pruning the bridge is catastrophic
        for shortest paths, so a sane learned policy prunes 8 of 21 edges
        without ever picking it."""
        wins = 0
        for seed in range(10):
            g, bridge_eid = barbell_graph()
            cfg = AgentConfig(emb_dim=16, hidden_dim=32, train_subgraph_len=12,
                              batch_size=16, eps_decay_steps=600, t_max=8,
                              seed=seed, lr=0.001, gamma=0.2)
            rng = np.random.default_rng(seed)
            agent = Agent(g, cfg, rng=rng)
            train_loop(agent, SpspReward(g, pairs_per_endpoint=16), 300, rng)
            sp = agent.sparsify(g, 13 / 21, 21, np.random.default_rng(seed + 1000))
            assert sp.edge_count == 13
            wins += sp.alive[bridge_eid]
        assert wins >= 9, f"bridge survived in only {wins}/10 seeds"


# ----------------------------------------------- 5. beats random-edge pruning


class TestBeatsRandom:
    @pytest.mark.slow
    def test_learned_pruning_preserves_more_modularity(self):
        g = load_edge_list(KARATE)
        labels = load_communities(KARATE_LABELS, g)
        cfg = AgentConfig(emb_dim=16, hidden_dim=32, train_subgraph_len=32,
                          batch_size=16, eps_decay_steps=600, t_max=8,
                          seed=0, lr=0.001, gamma=0.2)
        rng = np.random.default_rng(0)
        agent = Agent(g, cfg, rng=rng)
        # reward pruning of edges that cross the ground-truth communities
        reward = CommunityReward(g, labels, label_sign=-1.0)
        train_loop(agent, reward, 600, rng)

        def mean_modularity(sp, seed):
            return float(np.mean([
                louvain(sp, np.random.default_rng(10_000 + 97 * seed + j)).modularity
                for j in range(4)
            ]))

        for ratio in (0.6, 0.8):
            learned = [
                mean_modularity(agent.sparsify(g, ratio, 32,
                                               np.random.default_rng(s)), s)
                for s in range(8)
            ]
            random = [
                mean_modularity(
                    baselines.random_edge(g, ratio, np.random.default_rng(s)), s)
                for s in range(8)
            ]
            margin = float(np.mean(learned)) - float(np.mean(random))
            assert margin >= 0.02, (
                f"ratio {ratio}: learned {np.mean(learned):.4f} vs "
                f"random {np.mean(random):.4f} (margin {margin:+.4f})")


# -------------------------------------------------------- 6. spanner validity


class TestSpanner:
    def test_stretch_3_on_30_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_connected_graph(12, rng)
            sp = baselines.baswana_sen_spanner(g, 3, rng)
            assert sp.live_edge_set() <= g.live_edge_set()
            base = floyd_warshall(g)
            after = floyd_warshall(sp)
            for u in range(12):
                for v in range(u + 1, 12):
                    assert after[u, v] <= 3 * base[u, v]

    def test_comparison_protocol_matches_edge_budgets(self):
        g = load_edge_list(KARATE)
        rng = np.random.default_rng(5)
        requested = []

        def sparsify(g_, r, rng_):
            requested.append(g_.edge_budget(r))
            return baselines.random_edge(g_, r, rng_)

        rows = baselines.spanner_comparison_protocol(
            g, [3, 5], sparsify, rng, runs=4, n_pairs=64)
        assert [set(r) for r in rows] == [
            {"t", "mean_ratio", "spanner_rspsp", "agent_rspsp"}] * 2
        for row, count in zip(rows, requested):
            assert count == int(round(row["mean_ratio"] * g.original_edge_count))
            assert row["spanner_rspsp"] >= 0.0
            assert row["agent_rspsp"] >= 0.0


# ------------------------------------------------------ 7. baseline exactness


class TestBaselineExactness:
    def test_random_edge_exact_counts(self):
        g = load_edge_list(KARATE)
        for r in (0.25, 0.5, 0.8, 1.0):
            sp = baselines.random_edge(g, r, np.random.default_rng(0))
            assert sp.edge_count == round(r * 78)

    def test_local_degree_keep_count_law(self):
        # hub 0 has 9 leaves; every leaf also touches node 10, whose degree
        # (11, via two pendants) beats the hub's, so leaves spend their own
        # keep budget elsewhere and the hub's floor(9^alpha) is observable
        edges = [(0, i) for i in range(1, 10)]
        edges += [(10, i) for i in range(1, 10)]
        edges += [(10, 11), (10, 12)]
        g = Graph(13, edges)
        for alpha in (0.5, 0.7, 1.0):
            sp = baselines.local_degree(g, alpha=alpha)
            assert degree_of(sp, 0) == math.floor(9 ** alpha)

    def test_l_spar_scores_match_set_arithmetic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_connected_graph(8, rng)
            scores = baselines.jaccard_scores(g)
            for eid in g.live_edge_ids():
                u, v = int(g.src[eid]), int(g.dst[eid])
                nu = set(neighbors(g, u)) | {u}
                nv = set(neighbors(g, v)) | {v}
                expect = len(nu & nv) / len(nu | nv)
                assert scores[eid] == pytest.approx(expect)


# -------------------------------------- 8. determinism and persistence


class TestDeterminismAndPersistence:
    def _config(self, tmp_path, out_dir):
        import yaml

        path = tmp_path / "config.yaml"
        cfg = {
            "schema_version": 1,
            "dataset": str(KARATE),
            "seed": 7,
            "out_dir": str(out_dir),
            "objective": {"kind": "pagerank"},
            "agent": {"emb_dim": 8, "hidden_dim": 16, "train_subgraph_len": 8,
                      "batch_size": 8, "eps_decay_steps": 50, "t_max": 4},
            "train": {"episodes": 8, "checkpoint_every": 4},
        }
        with open(path, "w") as f:
            yaml.safe_dump(cfg, f)
        return path

    def test_seed_fixed_training_log_is_bit_exact(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            out = tmp_path / run
            config = self._config(tmp_path, out)
            assert cli.main(["train", "--config", str(config),
                             "--out", str(out)]) == cli.EXIT_OK
            logs.append((out / "training_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_checkpoint_roundtrip_and_resume_counters(self, tmp_path):
        g = load_edge_list(KARATE)
        cfg = AgentConfig(emb_dim=8, hidden_dim=16, train_subgraph_len=8,
                          batch_size=8, t_max=4, seed=1)
        agent = Agent(g, cfg, rng=np.random.default_rng(1))
        from prunerl.rewards import PagerankReward

        train_loop(agent, PagerankReward(g), 5, np.random.default_rng(2))
        ckpt = tmp_path / "agent.npz"
        agent.save(ckpt)

        resumed = Agent.load(ckpt, g)
        assert resumed.episodes_done == agent.episodes_done
        assert resumed.update_steps == agent.update_steps
        for a, b in zip(resumed.policy.parameters(), agent.policy.parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(resumed.target.parameters(), agent.target.parameters()):
            assert np.array_equal(a.data, b.data)

        before = resumed.episodes_done
        train_loop(resumed, PagerankReward(g), 3, np.random.default_rng(3))
        assert resumed.episodes_done == before + 3

    def test_sparsified_output_reloads_identically(self, tmp_path):
        g = load_edge_list(KARATE)
        sp = baselines.random_edge(g, 0.5, np.random.default_rng(4))
        out = tmp_path / "sparse.txt"
        with open_output(out) as f:
            sp.save_edge_list(f, header_lines=["determinism check"])
        reloaded = load_edge_list(out)
        assert reloaded.live_edge_set() == sp.live_edge_set()


# ------------------------------------------- 9. variable-length evaluation


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Small agent trained with 32-edge candidate subgraphs."""
    g = load_edge_list(KARATE)
    cfg = AgentConfig(emb_dim=8, hidden_dim=16, train_subgraph_len=32,
                      batch_size=8, t_max=4, seed=0)
    agent = Agent(g, cfg, rng=np.random.default_rng(0))
    from prunerl.rewards import PagerankReward

    train_loop(agent, PagerankReward(g), 20, np.random.default_rng(0))
    path = tmp_path_factory.mktemp("ckpt") / "agent.npz"
    agent.save(path)
    return path


class TestVariableEvalSubgraphLen:
    def test_eval_lengths_differ_from_training_length(self, checkpoint):
        g = load_edge_list(KARATE)
        agent = Agent.load(checkpoint, g)
        for h in (8, 64):
            sp = agent.sparsify(g, 0.5, h, np.random.default_rng(h))
            assert sp.edge_count == 39

    def test_h_sweep_emits_series_with_monotone_wall_time(self, tmp_path):
        # an untrained agent of the default size: with the small trained one a
        # karate prune costs about the same at |H|=8 and 64, so timing noise
        # decided the order
        checkpoint = tmp_path / "agent.npz"
        Agent(load_edge_list(KARATE), AgentConfig(), rng=np.random.default_rng(0)).save(checkpoint)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["h-sweep", "--dataset", str(KARATE), "--checkpoint",
                       str(checkpoint), "--ratio", "0.5", "--metric",
                       "pagerank", "--subgraph-lens", "8", "64",
                       "--seeds", "9", "--out", str(out)])
        assert rc == cli.EXIT_OK
        import csv

        with open(out) as f:
            rows = list(csv.DictReader(f))
        series = {}
        for r in rows:
            series.setdefault(int(r["subgraph_len"]), []).append(
                float(r["wall_time_s"]))
        assert set(series) == {8, 64}
        assert all(len(v) == 9 for v in series.values())
        # medians, so that one stalled run cannot flip the order
        assert np.median(series[64]) > np.median(series[8])
