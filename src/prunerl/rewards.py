"""The four sparsification objectives: PageRank rank preservation, community
structure, shortest-path preservation, and modularity.

This is the only module that knows what each objective computes. Each class
holds its objective's score once; evaluation (``evaluate``) and the training
reward (``after_prune``, called once per prune) are both derived from it.
Training baselines on the original graph are computed on first use, so
evaluation never pays for them. Shortest-path data is plain arrays: (k, 2)
int64 pairs and float distances with inf for unreachable pairs, and
``SpspReward.penalty`` is the one scorer of fixed pairs.
"""

import inspect

import numpy as np

from .errors import ConfigError, PruneRLError
from .metrics import (
    adjusted_rand_index,
    batch_spsp,
    centered_ranks,
    louvain,
    pagerank,
    sample_pairs,
    spearman_rho_ranked,
)


def mean_path_increase(before, after, node_count):
    """Mean rise from `before` to `after` hop distances (a penalty: lower is better):
    a pair cut off counts `node_count`, and a pair already cut off counts 0."""
    diffs = np.where(before == np.inf, 0.0, float(node_count))
    reach = after != np.inf  # only these are subtracted: inf - inf would warn
    diffs[reach] = after[reach] - before[reach]
    return float(np.mean(diffs)) if diffs.size else 0.0


def sample_training_pairs(gp, eid, k, rng):
    """(2k, 2) pairs of k random nodes against both endpoints of edge `eid`, the
    only paths its prune can change. The draw reads only |V| and the endpoints."""
    if k < 1:
        raise PruneRLError("need at least one sampled node per endpoint")
    n = gp.node_count
    if n <= 2:
        raise PruneRLError("graph too small to sample shortest-path pairs")
    ends = np.array([gp.src[eid], gp.dst[eid]])
    # positions among the n - 2 other nodes in ascending order, stepped past the endpoints
    others = rng.choice(n - 2, size=k, replace=n - 2 < k)
    others += others >= ends.min()
    others += others >= ends.max()
    # endpoint-major: each endpoint against every sampled node
    return np.stack([np.repeat(ends, k), np.tile(others, 2)], axis=1)


# ---------------------------------------------------------------- objectives


class RewardSpec:
    """An objective on one original graph, ``graph``: ``evaluate(gp, rng)``
    scores a sparsified graph. In an episode, ``on_episode_start(g_working,
    rng)`` sees its graph once random pre-pruning is done, and ``after_prune(g,
    eid, rng)`` pays each prune, once edge `eid` is gone from `g`. Evaluation
    budgets are constructor arguments, so every objective evaluates alike."""

    higher_is_better = True

    def __init__(self, g):
        self.graph = g

    def on_episode_start(self, g_working, rng):
        return None


class LouvainReward(RewardSpec):
    """An objective scored on a Louvain partition, ``score(gp, rng)``.
    Evaluation averages it over ``louvain_runs`` runs on the caller's rng, and
    training fixes one Louvain seed per episode. The original graph's score
    is taken on seed 0, which is also the episode seed until an episode draws
    one."""

    def __init__(self, g, louvain_runs=8):
        super().__init__(g)
        self.louvain_runs = louvain_runs
        self._episode_seed = 0
        self._base = None

    def evaluate(self, gp, rng):
        return float(np.mean([self.score(gp, rng) for _ in range(self.louvain_runs)]))

    def _training_score(self, gp):
        """Score on this episode's Louvain seed, minus the same score on the
        original graph (computed once, on the first training step)."""
        if self._base is None:
            self._base = self.score(self.graph, np.random.default_rng(0))
        return self.score(gp, np.random.default_rng(self._episode_seed)) - self._base

    def on_episode_start(self, g_working, rng):
        # fixed per episode to cut reward variance between steps
        self._episode_seed = int(rng.integers(1 << 31))


class PagerankReward(RewardSpec):
    """Spearman rho between PageRank(G) and PageRank(G'). Rank-degenerate
    score vectors raise; the training reward is rho - 1, so an unchanged
    graph scores 0, and maps degenerate ranks to -1."""

    def __init__(self, g):
        super().__init__(g)
        self._base_ranks = centered_ranks(pagerank(g))

    def _rho(self, gp):
        return spearman_rho_ranked(self._base_ranks, pagerank(gp))

    def evaluate(self, gp, rng):
        return self._rho(gp)

    def after_prune(self, g, eid, rng):
        # heavy episode pre-pruning can leave a graph whose PageRank is
        # uniform; that ranking carries no information, so score rho as 0
        # rather than aborting the episode
        try:
            return self._rho(g) - 1.0
        except PruneRLError:
            return -1.0


class CommunityReward(LouvainReward):
    """ARI between Louvain(G') and the ground-truth labels, the (|V|,) array
    `load_communities` returns (a negative entry: a node no community lists).
    The training reward is ARI(G') - ARI(G) plus the label term: +label_sign
    when the pruned edge joins two same-label nodes, -label_sign otherwise."""

    def __init__(self, g, labels=None, label_sign=1.0, louvain_runs=8):
        if labels is None:
            raise ConfigError("community objective requires ground-truth labels "
                              "(labels_path / --labels)")
        labels = np.asarray(labels)
        if labels.shape != (g.node_count,):
            raise ConfigError(f"labels must be a ({g.node_count},) array, got {labels.shape}")
        missing = np.flatnonzero(labels < 0)
        if missing.size:
            raise ConfigError(f"labels missing for {missing.size} nodes "
                              f"(e.g. {g.original_ids[missing[0]]})")
        super().__init__(g, louvain_runs)
        self.labels = labels
        self.label_sign = label_sign

    def score(self, gp, rng):
        return adjusted_rand_index(louvain(gp, rng).labels, self.labels)

    def after_prune(self, g, eid, rng):
        same = self.labels[g.src[eid]] == self.labels[g.dst[eid]]
        return self._training_score(g) + (self.label_sign if same else -self.label_sign)


class SpspReward(RewardSpec):
    """Shortest-path preservation, scored by ``mean_path_increase``. ``penalty(gp,
    pairs)`` scores fixed pairs against their distances in the original graph,
    and evaluation scores ``spsp_pairs`` pairs drawn on it; training redraws
    pairs against each pruned edge's endpoints and pays the negated penalty, so
    bigger damage means lower reward."""

    higher_is_better = False

    def __init__(self, g, pairs_per_endpoint=16, spsp_pairs=8196):
        super().__init__(g)
        self.pairs_per_endpoint = pairs_per_endpoint
        self.spsp_pairs = spsp_pairs
        self.base = {}  # pair array bytes -> their distances in the original graph

    def penalty(self, gp, pairs):
        """``mean_path_increase`` of (k, 2) pairs from the original graph to `gp`.
        The original graph is searched once per distinct pair array."""
        pairs = np.asarray(pairs, dtype=np.int64)
        key = pairs.tobytes()
        if key not in self.base:
            loops = pairs[:, 0] == pairs[:, 1]
            if loops.any():
                u, v = pairs[np.argmax(loops)].tolist()
                raise PruneRLError(f"SPSP pair must have distinct endpoints, got ({u},{v})")
            self.base[key] = batch_spsp(self.graph, pairs)
        return mean_path_increase(self.base[key], batch_spsp(gp, pairs), gp.node_count)

    def evaluate(self, gp, rng):
        return self.penalty(gp, sample_pairs(self.graph, self.spsp_pairs, rng))

    def after_prune(self, g, eid, rng):
        # one search after the prune gives the distances before it too: a shortest
        # path from u that used edge (u, v) began with it, never coming back to u, so
        # before(u, x) = min(after(u, x), 1 + after(v, x)); from v alike unless directed
        pairs = sample_training_pairs(g, eid, self.pairs_per_endpoint, rng)
        after = batch_spsp(g, pairs).reshape(2, -1)  # rows: from u, from v
        before = np.minimum(after, after[::-1] + [[1.0], [np.inf if g.directed else 1.0]])
        return -mean_path_increase(before.ravel(), after.ravel(), g.node_count)


class ModularityReward(LouvainReward):
    """Louvain modularity of G'. The training reward is Q(G') - Q(G)."""

    def score(self, gp, rng):
        return louvain(gp, rng).modularity

    def after_prune(self, g, eid, rng):
        return self._training_score(g)


OBJECTIVES = {
    "pagerank": PagerankReward,
    "community": CommunityReward,
    "spsp": SpspReward,
    "modularity": ModularityReward,
}


def make_reward_spec(name, g, **context):
    """Build an objective by name. Context the objective's constructor does
    not take (labels or louvain_runs for PageRank, say) is ignored."""
    if name not in OBJECTIVES:
        raise ConfigError(f"unknown objective {name!r}")
    cls = OBJECTIVES[name]
    params = inspect.signature(cls).parameters
    return cls(g, **{k: v for k, v in context.items() if k in params})
