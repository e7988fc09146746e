"""Classical sparsifiers: Random Edge, Local Degree, Edge Forest Fire,
L-Spar, and the randomized Baswana-Sen t-spanner.

Every method is a pure function of (input graph, request, rng) and returns a
pruned copy; no output edge is ever absent from the input.
"""

import logging
import math
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix

from .errors import PruneRLError
from .metrics import PathQuerySet
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
    matches `g.edge_budget(r)`. Warns when no exponent lands within one edge."""
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
    exponent, kept = best
    if abs(len(kept) - target) > 1:
        log.warning(
            "exponent search: closest achievable kept count %d vs target %d",
            len(kept), target,
        )
    return exponent, kept


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
    n = g.node_count
    adj = csr_matrix((np.ones(nbrs.size, dtype=np.int64), nbrs, indptr), shape=(n, n))
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


def baswana_sen_spanner(g, t_stretch, rng):
    """Randomized (2k-1)-spanner via k rounds of cluster sampling.

    Requires odd t_stretch = 2k-1. The stretch guarantee is probabilistic in
    size but deterministic in stretch; tests verify it against an all-pairs
    oracle.
    """
    if g.directed:
        raise PruneRLError("spanner construction is defined for undirected graphs")
    if t_stretch < 1 or t_stretch % 2 == 0:
        raise PruneRLError(
            f"stretch must be odd (t = 2k-1); got {t_stretch}, use {t_stretch - 1} or {t_stretch + 1}"
        )
    k = (t_stretch + 1) // 2
    n = g.node_count
    # residual edge set as adjacency of dicts nbr -> eid; the edge id doubles
    # as a distinct pseudo-weight, which the algorithm needs for tie-breaking
    indptr, nbrs, eids = (a.tolist() for a in g.live_csr())
    work = [dict(zip(nbrs[indptr[u]:indptr[u + 1]], eids[indptr[u]:indptr[u + 1]]))
            for u in range(n)]
    residual_nodes = set(range(n))
    spanner = set()
    center = {v: v for v in range(n)}  # cluster center per residual vertex
    sample_p = n ** (-1.0 / k)

    def lightest_per_cluster(v):
        """center -> (neighbor, eid) of the lowest-id residual edge into
        that neighbor's cluster."""
        best = {}
        for u, eid in work[v].items():
            c = center[u]
            if c not in best or eid < best[c][1]:
                best[c] = (u, eid)
        return best

    for _ in range(k - 1):
        sampled = {c for c in set(center.values()) if rng.random() < sample_p}
        add_edges = set()
        remove_edges = set()
        new_center = {}
        for v in residual_nodes:
            if center[v] in sampled:
                continue
            best = lightest_per_cluster(v)
            sampled_adj = [c for c in best if c in sampled]
            if not sampled_adj:
                # connect once per adjacent cluster; v surrenders every
                # residual edge and leaves the clustering
                for c, (u, eid) in best.items():
                    add_edges.add(eid)
                remove_edges.update(work[v].values())
            else:
                closest = min(sampled_adj, key=lambda c: best[c][1])
                closest_w = best[closest][1]
                add_edges.add(closest_w)
                new_center[v] = closest
                # also connect to strictly lighter clusters, then drop edges
                # into the closest cluster and every strictly lighter one
                for c, (u, eid) in best.items():
                    if eid < closest_w:
                        add_edges.add(eid)
                for u, eid in work[v].items():
                    cu = center[u]
                    if cu == closest or best[cu][1] < closest_w:
                        remove_edges.add(eid)
        for node, c in center.items():
            if c in sampled:
                new_center[node] = c
        spanner |= add_edges
        for eid in remove_edges:
            a, b = int(g.src[eid]), int(g.dst[eid])
            work[a].pop(b, None)
            work[b].pop(a, None)
        center = new_center
        # drop edges that ended up inside one cluster, and vertices that
        # left the clustering
        for a in list(residual_nodes):
            if a not in center:
                for b in list(work[a]):
                    work[b].pop(a, None)
                work[a].clear()
                residual_nodes.discard(a)
        for a in residual_nodes:
            for b in [x for x in work[a] if center[a] == center[x]]:
                work[a].pop(b, None)
                work[b].pop(a, None)

    # phase 2: every vertex connects once to each adjacent surviving cluster
    for v in residual_nodes:
        for c, (u, eid) in lightest_per_cluster(v).items():
            spanner.add(eid)

    out = g.copy_keeping(spanner)
    out.method_params = {"method": "baswana_sen_spanner", "t": t_stretch, "k": k}
    return out


def spanner_comparison_protocol(g, stretch_values, sparsify_to_count, rng,
                                runs=16, n_pairs=512):
    """Match a learned sparsifier against the spanner at equal edge budgets.

    For each stretch t: run the spanner `runs` times, average its kept-edge
    count and mean shortest-path increase over a fixed query set, then call
    ``sparsify_to_count(edge_count, rng)`` to produce a learned sparsified
    graph of the same mean size and score it on the same queries. Even t is
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
        learned = sparsify_to_count(mean_count, rng)
        rows.append(
            {
                "t": t,
                "mean_ratio": float(np.mean(counts)) / g.original_edge_count,
                "spanner_rspsp": float(np.mean(penalties)),
                "agent_rspsp": spsp_penalty(learned, queries),
            }
        )
    return rows

