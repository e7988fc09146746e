"""Classical sparsifiers: Random Edge, Local Degree, Edge Forest Fire,
L-Spar, and the randomized Baswana-Sen t-spanner.

Every method is a pure function of (input graph, request, rng) and returns a
pruned copy; no output edge is ever absent from the input.
"""

import logging
import math
from collections import deque

import numpy as np

from .errors import PruneRLError
from .metrics import PathQuerySet, live_matrix
from .rewards import spsp_penalty

log = logging.getLogger(__name__)


def random_edge(g, r, rng):
    """Prune exactly |E| - round(r*|E|) uniformly chosen edges."""
    target = g.edge_budget(r)
    out = g.copy()
    out.random_prune(out.edge_count - target, rng)
    out.method_params = {"method": "random_edge", "r": r}
    return out


def _exponent_search(g, r, survivors_at):
    """Binary-search an exponent in [0, 1] so the surviving edge count best
    matches `g.edge_budget(r)`. Returns (exponent, sorted kept edge ids); the
    kept count can miss the budget, and callers report the count achieved."""
    target = g.edge_budget(r)
    lo, hi = 0.0, 1.0
    best = None
    for _ in range(50):
        mid = (lo + hi) / 2.0
        kept = survivors_at(mid)
        if best is None or abs(len(kept) - target) < abs(len(best[1]) - target):
            best = (mid, kept)
        if len(kept) == target:
            break
        if len(kept) < target:
            lo = mid
        else:
            hi = mid
    # endpoints can beat every midpoint on extreme targets
    for cand in (0.0, 1.0):
        kept = survivors_at(cand)
        if abs(len(kept) - target) < abs(len(best[1]) - target):
            best = (cand, kept)
    return best


def _degree_ranked(g, key, keep_count, r, exponent):
    """Node v keeps the first keep_count(deg(v), x) of its live incident
    edges, ranked by (key(neighbors, eids), eid); an edge survives if either
    endpoint keeps it. The exponent x is searched toward round(r*|E|) unless
    given. Returns (x, sorted kept edge ids)."""
    indptr, nbrs, eids = g.live_csr()
    rows = np.repeat(np.arange(g.node_count), np.diff(indptr))
    ranked = eids[np.lexsort((eids, key(nbrs, eids), rows))]
    rank = np.arange(ranked.size) - indptr[rows]
    # counts are taken once per distinct degree with numpy's scalar power:
    # the vectorized power can round differently
    degrees, node_degree = np.unique(g.deg[:, 0], return_inverse=True)
    row_degree = node_degree[rows]

    def survivors(x):
        counts = np.array([keep_count(d, x) if d > 0 else 0 for d in degrees])
        kept = np.zeros(g.original_edge_count, dtype=bool)
        kept[ranked[rank < counts[row_degree]]] = True
        return np.flatnonzero(kept)

    if exponent is not None:
        return exponent, survivors(exponent)
    return _exponent_search(g, r, survivors)


def local_degree(g, r=None, alpha=None):
    """Keep each node's top floor(deg(v)^alpha) incident edges, ranked by the
    other endpoint's degree (descending); an edge survives if either endpoint
    keeps it. With alpha=None, alpha is searched to match round(r*|E|)."""
    if g.directed:
        raise PruneRLError("local_degree is defined for undirected graphs")
    if alpha is not None and not (0.0 <= alpha <= 1.0):
        raise PruneRLError(f"alpha must be in [0, 1], got {alpha}")
    if alpha is None and r is None:
        raise PruneRLError("local_degree needs either r or alpha")
    alpha, kept = _degree_ranked(g, lambda nbrs, eids: -g.deg[nbrs, 0],
                                 lambda d, a: int(math.floor(d ** a)), r, alpha)
    out = g.copy_keeping(kept)
    out.method_params = {"method": "local_degree", "alpha": alpha}
    return out


def jaccard_scores(g):
    """Jaccard similarity of the closed neighborhoods N(u)+{u}, N(v)+{v} of
    every live edge (u, v), indexed by edge id; nan for pruned edges."""
    indptr, nbrs, _ = g.live_csr()
    adj = live_matrix(g.node_count, indptr, nbrs)
    eids = g.live_edge_ids()
    u, v = g.src[eids], g.dst[eids]
    common = np.asarray((adj @ adj)[u, v]).ravel()  # open common neighbors
    # the closed neighborhoods share the common neighbors plus u and v
    sim = np.full(g.original_edge_count, np.nan)
    sim[eids] = (common + 2) / (g.deg[u, 0] + g.deg[v, 0] - common)
    return sim


def l_spar(g, r=None, e=None):
    """Rank each node's incident edges by closed-neighborhood Jaccard
    similarity; node v keeps its top ceil(deg(v)^e). The exponent is searched
    toward round(r*|E|) when not given."""
    if g.directed:
        raise PruneRLError("l_spar is defined for undirected graphs")
    if e is not None and not (0.0 < e <= 1.0):
        raise PruneRLError(f"exponent must be in (0, 1], got {e}")
    if e is None and r is None:
        raise PruneRLError("l_spar needs either r or e")
    sim = jaccard_scores(g)
    e, kept = _degree_ranked(g, lambda nbrs, eids: -sim[eids],
                             lambda d, x: int(math.ceil(d ** x)), r, e)
    out = g.copy_keeping(kept)
    out.method_params = {"method": "l_spar", "e": e}
    return out


def edge_forest_fire(g, r, p, rng):
    """Prune the edges least visited by repeated forest fires.

    Fires start at random nodes; each burning node ignites a geometric
    number (mean p/(1-p)) of its not-yet-burnt neighbors, bumping the visit
    count of every traversed edge. After 4|V| nodes have burnt, the
    |E| - round(r*|E|) lowest-visit edges are pruned, ties broken by rng.
    """
    if not (0.0 <= p < 1.0):
        raise PruneRLError(f"burn probability must be in [0, 1), got {p}")
    target = g.edge_budget(r)
    burn_budget = 4 * g.node_count
    visits = np.zeros(g.original_edge_count)
    indptr, nbrs, eids = (a.tolist() for a in g.live_csr())
    total_burnt = 0
    while total_burnt < burn_budget:
        start = int(rng.integers(g.node_count))
        burnt = {start}
        queue = deque([start])
        total_burnt += 1
        while queue:
            u = queue.popleft()
            fresh = [i for i in range(indptr[u], indptr[u + 1]) if nbrs[i] not in burnt]
            if not fresh:
                continue
            n_burn = min(int(rng.geometric(1.0 - p) - 1), len(fresh)) if p > 0 else 0
            if n_burn == 0:
                continue
            picked = rng.choice(len(fresh), size=n_burn, replace=False)
            for i in picked:
                v = nbrs[fresh[i]]
                visits[eids[fresh[i]]] += 1
                burnt.add(v)
                queue.append(v)
                total_burnt += 1
        if p == 0.0:
            break  # fires cannot spread; counts stay all-zero
    live = g.live_edge_ids()
    jitter = rng.random(live.size)
    order = np.lexsort((jitter, visits[live]))  # lowest visit count first
    out = g.copy()
    out.prune_edges(live[order[: out.edge_count - target]])
    out.method_params = {"method": "edge_forest_fire", "p": p, "burn_budget": burn_budget}
    return out


# fn(g, r, rng) per classical baseline; each looks its function up per call, as tracers wrap it
AT_RATIO = {
    "random_edge": lambda g, r, rng: random_edge(g, r, rng),
    "local_degree": lambda g, r, rng: local_degree(g, r=r),
    "edge_forest_fire": lambda g, r, rng: edge_forest_fire(g, r, 0.95, rng),
    "l_spar": lambda g, r, rng: l_spar(g, r=r),
}


def baswana_sen_spanner(g, t_stretch, rng):
    """Randomized (2k-1)-spanner via k rounds of cluster sampling.

    Requires odd t_stretch = 2k-1. The stretch guarantee is probabilistic in
    size but deterministic in stretch; tests verify it against an all-pairs
    oracle. Each round draws one number per cluster, in ascending center
    order, and reads only the state the round started from, so it runs as
    array passes over the residual edges.
    """
    if g.directed:
        raise PruneRLError("spanner construction is defined for undirected graphs")
    if t_stretch < 1 or t_stretch % 2 == 0:
        raise PruneRLError(
            f"stretch must be odd (t = 2k-1); got {t_stretch}, use {t_stretch - 1} or {t_stretch + 1}"
        )
    k = (t_stretch + 1) // 2
    n = g.node_count
    # the edge id doubles as a distinct pseudo-weight, which the algorithm
    # needs for tie-breaking; no_edge is above every id
    no_edge = g.original_edge_count
    residual = g.alive.copy()
    center = np.arange(n)  # cluster center per vertex, -1 once it leaves the clustering
    kept = np.zeros(g.original_edge_count, dtype=bool)
    sample_p = n ** (-1.0 / k)

    def lightest_per_cluster():
        """Each residual edge from both ends as (vertex, eid), sorted by
        (vertex, the other end's cluster, eid), with that cluster, the
        group's lowest eid and a mask of the group heads."""
        eids = np.flatnonzero(residual)
        v = np.concatenate([g.src[eids], g.dst[eids]])
        c = center[np.concatenate([g.dst[eids], g.src[eids]])]
        eids = np.tile(eids, 2)
        order = np.lexsort((eids, c, v))
        v, c, eids = v[order], c[order], eids[order]
        head = np.ones(v.size, dtype=bool)
        head[1:] = (v[1:] != v[:-1]) | (c[1:] != c[:-1])
        return v, eids, c, eids[head][np.cumsum(head) - 1], head

    for _ in range(k - 1):
        clusters = np.unique(center[center >= 0])
        sampled = np.zeros(n + 1, dtype=bool)  # entry n, which center -1 reads, stays False
        sampled[clusters[rng.random(clusters.size) < sample_p]] = True
        v, eids, c, lightest, head = lightest_per_cluster()
        # reach: the lowest edge id a vertex joins a sampled cluster by;
        # no_edge if none is adjacent (it connects to every adjacent cluster
        # and leaves), -1 if its own cluster is sampled (it does nothing)
        into = head & sampled[c]
        reach = np.full(n, no_edge)
        np.minimum.at(reach, v[into], eids[into])
        reach[sampled[center]] = -1
        # connect to every cluster no heavier than reach, and drop the
        # residual edges into those clusters
        hit = lightest <= reach[v]
        kept[eids[hit & head]] = True
        residual[eids[hit]] = False
        joins = head & (eids == reach[v])
        center = np.where(sampled[center], center, -1)
        center[v[joins]] = c[joins]
        # drop edges inside one cluster or at a vertex that left the clustering
        cs, cd = center[g.src], center[g.dst]
        residual &= (np.minimum(cs, cd) >= 0) & (cs != cd)

    # phase 2: every vertex connects once to each adjacent surviving cluster
    _, eids, _, _, head = lightest_per_cluster()
    kept[eids[head]] = True
    out = g.copy_keeping(np.flatnonzero(kept))
    out.method_params = {"method": "baswana_sen_spanner", "t": t_stretch, "k": k}
    return out


def spanner_comparison_protocol(g, stretch_values, sparsify, rng, runs, n_pairs):
    """Match a learned sparsifier against the spanner at equal edge budgets.

    For each stretch t: run the spanner `runs` times, average its kept-edge
    count and mean shortest-path increase over a fixed query set, then call
    ``sparsify(g, r, rng)``, a method of `AT_RATIO`'s form, at the ratio r of
    that mean count to |E|, and score its graph on the same queries. Even t is
    mapped down to the nearest valid odd stretch (logged).

    Returns rows (t, mean_ratio, spanner_rspsp, agent_rspsp).
    """
    queries = PathQuerySet.sample(g, n_pairs, rng)
    rows = []
    for t in stretch_values:
        t_eff = t if t % 2 == 1 else t - 1
        if t_eff != t:
            log.info("stretch %d mapped to %d (spanner needs t = 2k-1)", t, t_eff)
        counts, penalties = [], []
        for _ in range(runs):
            sp = baswana_sen_spanner(g, t_eff, rng)
            counts.append(sp.edge_count)
            penalties.append(spsp_penalty(sp, queries))
        mean_count = int(round(float(np.mean(counts))))
        learned = sparsify(g, mean_count / g.original_edge_count, rng)
        rows.append(
            {
                "t": t,
                "mean_ratio": float(np.mean(counts)) / g.original_edge_count,
                "spanner_rspsp": float(np.mean(penalties)),
                "agent_rspsp": spsp_penalty(learned, queries),
            }
        )
    return rows

