"""The four sparsification objectives: PageRank rank preservation, community
structure, shortest-path preservation, and modularity.

This is the only module that knows what each objective computes. Each class
holds its objective's score once; evaluation (``evaluate``) and the training
reward (the ``before_prune``/``after_prune`` hooks) are both derived from it.
Training baselines on the original graph are computed on first use, so
evaluation never pays for them.
"""

import inspect
import math

import numpy as np

from .errors import ConfigError, PruneRLError
from .metrics import (
    PathQuerySet,
    adjusted_rand_index,
    batch_spsp,
    centered_ranks,
    louvain,
    pagerank,
    sample_pairs,
    spearman_rho_ranked,
)


def spsp_penalty(gp, queries):
    """Mean shortest-path increase over the query set (a penalty: lower is
    better). Pairs that become unreachable count as |V|; pairs that were
    already unreachable in the baseline contribute 0."""
    dists = batch_spsp(gp, queries.pairs)
    diffs = []
    for d0, d1 in zip(queries.baseline, dists):
        if d1 == math.inf:
            diffs.append(0.0 if d0 == math.inf else float(gp.node_count))
        else:
            diffs.append(float(d1 - d0))
    return float(np.mean(diffs)) if diffs else 0.0


def sample_training_pairs(gp, eid, k, rng):
    """Pair k random nodes against both endpoints of edge `eid`, about to be
    pruned, with baseline distances taken on the pre-prune graph. Exploits
    the fact that only paths through the pruned edge can change."""
    if k < 1:
        raise PruneRLError("need at least one sampled node per endpoint")
    n = gp.node_count
    if n <= 2:
        raise PruneRLError("graph too small to sample shortest-path pairs")
    ends = (int(gp.src[eid]), int(gp.dst[eid]))
    lo, hi = sorted(ends)
    # positions among the n - 2 other nodes in ascending order, stepped past the endpoints
    others = rng.choice(n - 2, size=k, replace=n - 2 < k)
    others += others >= lo
    others += others >= hi
    return PathQuerySet.from_graph(
        gp, [(endpoint, o) for endpoint in ends for o in others.tolist()])


# ---------------------------------------------------------------- objectives


class RewardSpec:
    """An objective on one original graph: ``evaluate`` scores a sparsified
    graph, and the before_prune/after_prune pair pays the agent inside
    episodes. The defaults fit a Louvain-based ``score(gp, rng)``: evaluation
    averages it over ``louvain_runs`` runs on the caller's rng, and training
    fixes one Louvain seed per episode. The original graph's score is taken
    on seed 0, which is also the episode seed until an episode draws one."""

    higher_is_better = True

    def __init__(self, g):
        self.graph = g
        self._episode_seed = 0
        self._base = None

    def evaluate(self, gp, rng, louvain_runs=8, spsp_pairs=8196):
        return float(np.mean([self.score(gp, rng) for _ in range(louvain_runs)]))

    def _training_score(self, gp):
        """Score on this episode's Louvain seed, minus the same score on the
        original graph (computed once, on the first training step)."""
        if self._base is None:
            self._base = self.score(self.graph, np.random.default_rng(0))
        return self.score(gp, np.random.default_rng(self._episode_seed)) - self._base

    def on_episode_start(self, g_original, g_working, rng):
        # fixed per episode to cut reward variance between steps
        self._episode_seed = int(rng.integers(1 << 31))

    def before_prune(self, g, eid, rng):
        return None

    def after_prune(self, g, eid, ctx, rng):
        raise NotImplementedError


class PagerankReward(RewardSpec):
    """Spearman rho between PageRank(G) and PageRank(G'). Rank-degenerate
    score vectors raise; the training reward is rho - 1, so an unchanged
    graph scores 0, and maps degenerate ranks to -1."""

    def __init__(self, g):
        self._base_ranks = centered_ranks(pagerank(g))

    def score(self, gp):
        return spearman_rho_ranked(self._base_ranks, pagerank(gp))

    def evaluate(self, gp, rng, louvain_runs=8, spsp_pairs=8196):
        return self.score(gp)

    def on_episode_start(self, g_original, g_working, rng):
        pass  # deterministic: no Louvain seed to draw

    def after_prune(self, g, eid, ctx, rng):
        # heavy episode pre-pruning can leave a graph whose PageRank is
        # uniform; that ranking carries no information, so score rho as 0
        # rather than aborting the episode
        try:
            return self.score(g) - 1.0
        except PruneRLError:
            return -1.0


class CommunityReward(RewardSpec):
    """ARI between Louvain(G') and the ground-truth labels. The training
    reward is ARI(G') - ARI(G) plus the label term: +label_sign when the
    pruned edge joins two same-label nodes, -label_sign otherwise."""

    def __init__(self, g, labels=None, label_sign=1.0):
        if not labels:
            raise ConfigError("community objective requires ground-truth labels "
                              "(labels_path / --labels)")
        missing = [n for n in range(g.node_count) if n not in labels]
        if missing:
            raise ConfigError(f"labels missing for {len(missing)} nodes (e.g. {missing[0]})")
        super().__init__(g)
        self.labels = labels
        self.label_sign = label_sign

    def score(self, gp, rng):
        return adjusted_rand_index(louvain(gp, rng).labels, self.labels)

    def after_prune(self, g, eid, ctx, rng):
        same = self.labels[int(g.src[eid])] == self.labels[int(g.dst[eid])]
        return self._training_score(g) + (self.label_sign if same else -self.label_sign)


class SpspReward(RewardSpec):
    """Shortest-path preservation, scored by ``spsp_penalty``. Evaluation
    samples ``spsp_pairs`` fixed pairs on the original graph. During training
    the query set is refreshed every timestep from the pruned edge's
    endpoints; the agent is paid the negated penalty so bigger damage means
    lower reward."""

    higher_is_better = False

    def __init__(self, g, pairs_per_endpoint=16):
        self.graph = g
        self.pairs_per_endpoint = pairs_per_endpoint
        self.queries = {}  # drawn pairs -> their PathQuerySet, searched once

    def evaluate(self, gp, rng, louvain_runs=8, spsp_pairs=8196):
        pairs = tuple(sample_pairs(self.graph, spsp_pairs, rng))
        if pairs not in self.queries:
            self.queries[pairs] = PathQuerySet.from_graph(self.graph, pairs)
        return spsp_penalty(gp, self.queries[pairs])

    def on_episode_start(self, g_original, g_working, rng):
        pass  # no Louvain seed to draw

    def before_prune(self, g, eid, rng):
        return sample_training_pairs(g, eid, self.pairs_per_endpoint, rng)

    def after_prune(self, g, eid, queries, rng):
        return -spsp_penalty(g, queries)


class ModularityReward(RewardSpec):
    """Louvain modularity of G'. The training reward is Q(G') - Q(G)."""

    def score(self, gp, rng):
        return louvain(gp, rng).modularity

    def after_prune(self, g, eid, ctx, rng):
        return self._training_score(g)


OBJECTIVES = {
    "pagerank": PagerankReward,
    "community": CommunityReward,
    "spsp": SpspReward,
    "modularity": ModularityReward,
}


def make_reward_spec(name, g, **context):
    """Build an objective by name. Context the objective's constructor does
    not take (labels for PageRank, say) is ignored."""
    if name not in OBJECTIVES:
        raise ConfigError(f"unknown objective {name!r}")
    cls = OBJECTIVES[name]
    params = inspect.signature(cls).parameters
    return cls(g, **{k: v for k, v in context.items() if k in params})
