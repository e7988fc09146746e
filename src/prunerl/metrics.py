"""Structural metrics: PageRank, Spearman rank correlation, Louvain
communities, modularity, ARI, and BFS shortest paths.

All functions are pure given an immutable graph snapshot. Unreachability is
represented by ``math.inf``, never an integer; turning it into a penalty is
the reward module's business.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.stats import rankdata

from .errors import ConvergenceError, PruneRLError

UNREACHABLE = math.inf


@dataclass
class Partition:
    """Node-to-community labels plus the modularity of that split."""

    labels: dict  # node id -> community index
    modularity: float


@dataclass
class PathQuerySet:
    """(u, v) query pairs with per-pair baseline distances in a fixed graph."""

    pairs: list  # list[(u, v)]
    baseline: list = field(default_factory=list)  # distances, inf = unreachable

    @classmethod
    def from_graph(cls, g, pairs):
        for u, v in pairs:
            if u == v:
                raise PruneRLError(f"SPSP pair must have distinct endpoints, got ({u},{v})")
        q = cls(pairs=list(pairs))
        q.baseline = batch_spsp(g, q.pairs)
        return q

    @classmethod
    def sample(cls, g, max_pairs, rng):
        """Fixed random distinct pairs, capped at n*(n-1)/2 for undirected graphs."""
        n = g.node_count
        cap = n * (n - 1) // 2 if not g.directed else n * (n - 1)
        k = min(max_pairs, cap)
        seen = set()
        pairs = []
        while len(pairs) < k:
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            key = (u, v) if g.directed else (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((u, v))
        return cls.from_graph(g, pairs)


# ------------------------------------------------------------------- pagerank


def pagerank(g, damping=0.85, tol=1e-10, max_iter=200):
    """Power-iteration PageRank; dangling mass is spread uniformly.

    Returns a score vector summing to 1. Raises ConvergenceError (carrying
    the last iterate) if the L1 change never drops below tol.
    """
    n = g.node_count
    x = np.full(n, 1.0 / n)
    indptr, nbrs, _ = g.live_csr()
    out_deg = np.diff(indptr)  # live out-neighbors (undirected: live degree)
    dangling = out_deg == 0
    sources = np.repeat(np.arange(n), out_deg)
    for _ in range(max_iter):
        # push each node's mass along its live edges; bincount adds in
        # (source, edge id) order, the order of a loop over the adjacency
        share = x / np.maximum(out_deg, 1)
        nxt = np.bincount(nbrs, weights=share[sources], minlength=n)
        nxt = (1.0 - damping) / n + damping * (nxt + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations", last_iterate=x
    )


def average_ranks(scores):
    """Average ranks (ties share the mean of their rank positions)."""
    return rankdata(np.asarray(scores, dtype=np.float64), method="average")


def spearman_rho(a, b):
    """Spearman rank correlation: Pearson correlation of average ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise PruneRLError(f"spearman_rho needs two equal-length vectors (>=2), got {a.shape} vs {b.shape}")
    ra = average_ranks(a)
    rb = average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        raise PruneRLError("spearman_rho undefined: zero rank variance")
    return float((ra * rb).sum() / denom)


# -------------------------------------------------------------------- louvain


def modularity(g, partition_labels):
    """Q = sum_c [ m_c/m - (d_c/2m)^2 ] over live edges; 0 when edgeless."""
    if g.directed:
        raise PruneRLError("modularity requires an undirected graph")
    m = g.edge_count
    if m == 0:
        return 0.0
    labels = partition_labels.labels if isinstance(partition_labels, Partition) else partition_labels
    _, first, comm = np.unique([labels[n] for n in range(g.node_count)],
                               return_index=True, return_inverse=True)
    eids = g.live_edge_ids()
    cu, cv = comm[g.src[eids]], comm[g.dst[eids]]
    intra = np.bincount(cu[cu == cv], minlength=first.size).tolist()
    deg_sum = np.bincount(comm, weights=g.degree, minlength=first.size).tolist()
    q = 0.0
    for c in np.argsort(first).tolist():  # communities in order of their first node
        q += intra[c] / m - (deg_sum[c] / (2.0 * m)) ** 2
    return q


def louvain(g, rng, resolution=1.0, min_gain=1e-12):
    """Greedy modularity optimization (local moves + aggregation).

    Node visit order within each local-move sweep is shuffled with the
    caller's rng. Isolated nodes end up as singleton communities.
    """
    if g.directed:
        raise PruneRLError("louvain requires an undirected graph")
    n = g.node_count
    if g.edge_count == 0:
        return Partition(labels={i: i for i in range(n)}, modularity=0.0)

    # weighted working graph: list of dicts nbr->weight, loops[i] = self-loop weight
    adj = [dict() for _ in range(n)]
    for eid in g.live_edge_ids():
        u, v = int(g.src[eid]), int(g.dst[eid])
        adj[u][v] = adj[u].get(v, 0.0) + 1.0
        adj[v][u] = adj[v].get(u, 0.0) + 1.0
    loops = np.zeros(n)
    membership = np.arange(n)  # community of each current super-node
    node_of = [[i] for i in range(n)]  # original nodes inside each super-node
    m2 = 2.0 * g.edge_count

    while True:
        nn = len(adj)
        k = np.array([sum(a.values()) + 2.0 * loops[i] for i, a in enumerate(adj)])
        comm = np.arange(nn)
        comm_tot = k.copy()  # sum of degrees per community
        improved_any = False
        order = np.arange(nn)
        while True:
            moved = 0
            rng.shuffle(order)
            for i in order:
                ci = comm[i]
                # weights from i to each neighboring community
                w2c = {}
                for j, w in adj[i].items():
                    w2c[comm[j]] = w2c.get(comm[j], 0.0) + w
                comm_tot[ci] -= k[i]
                base = w2c.get(ci, 0.0) - resolution * comm_tot[ci] * k[i] / m2
                best_c, best_gain = ci, 0.0
                for c, w in w2c.items():
                    if c == ci:
                        continue
                    gain = (w - resolution * comm_tot[c] * k[i] / m2) - base
                    if gain > best_gain + min_gain:
                        best_gain = gain
                        best_c = c
                comm_tot[best_c] += k[i]
                if best_c != ci:
                    comm[i] = best_c
                    moved += 1
                    improved_any = True
            if moved == 0:
                break
        if not improved_any:
            break
        # aggregate communities into super-nodes
        uniq = {c: idx for idx, c in enumerate(sorted(set(int(c) for c in comm)))}
        new_n = len(uniq)
        new_adj = [dict() for _ in range(new_n)]
        new_loops = np.zeros(new_n)
        new_nodes = [[] for _ in range(new_n)]
        for i in range(nn):
            ci = uniq[int(comm[i])]
            new_nodes[ci].extend(node_of[i])
            new_loops[ci] += loops[i]
            for j, w in adj[i].items():
                cj = uniq[int(comm[j])]
                if ci == cj:
                    if i < j:
                        new_loops[ci] += w
                elif i != j:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
        # each undirected cross weight was added twice (once per direction)
        adj = new_adj
        loops = new_loops
        node_of = new_nodes
        if new_n == nn:
            break

    labels = {}
    for c, members in enumerate(node_of):
        for orig in members:
            labels[orig] = c
    q = modularity(g, labels)
    return Partition(labels=labels, modularity=q)


# ------------------------------------------------------------------------ ari


def adjusted_rand_index(a, b):
    """Chance-corrected Rand index between two labelings of the same nodes."""
    keys = sorted(a.keys()) if isinstance(a, dict) else list(range(len(a)))
    if isinstance(b, dict):
        if set(b.keys()) != set(keys):
            raise PruneRLError("adjusted_rand_index: label maps cover different nodes")
    la = np.array([a[k] for k in keys])
    lb = np.array([b[k] for k in keys])
    n = la.size
    if n < 2:
        raise PruneRLError("adjusted_rand_index needs at least 2 nodes")
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # both partitions trivially identical in structure
    return float((sum_ij - expected) / (max_index - expected))


# ---------------------------------------------------------------------- paths


def _hop_distances(g, sources):
    """Rows of hop distances from each source (inf where unreachable)."""
    indptr, nbrs, _ = g.live_csr()
    n = g.node_count
    live = csr_matrix((np.ones(nbrs.size), nbrs, indptr), shape=(n, n))
    # the CSR holds both directions of an undirected edge already; dijkstra
    # is what shortest_path dispatches to here, without its ~40 us of checks
    return dijkstra(live, directed=True, unweighted=True, indices=sources)


def bfs_distances(g, source):
    """Hop distances from source to every node (inf where unreachable)."""
    return _hop_distances(g, source)


def shortest_path_distance(g, u, v):
    """BFS hop count from u to v; UNREACHABLE (inf) when no path exists."""
    if u == v:
        return 0
    d = bfs_distances(g, u)[v]
    return UNREACHABLE if d == UNREACHABLE else int(d)


def batch_spsp(g, pairs):
    """Distances for many pairs, from one search over their distinct sources."""
    if not pairs:
        return []
    sources, row = np.unique([u for u, _ in pairs], return_inverse=True)
    dist = _hop_distances(g, sources)[row, [v for _, v in pairs]]
    return [UNREACHABLE if d == UNREACHABLE else int(d) for d in dist.tolist()]
