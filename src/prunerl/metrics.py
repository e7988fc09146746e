"""Structural metrics: PageRank, Spearman rank correlation, Louvain
communities, modularity, ARI, and BFS shortest paths.

All functions are pure given an immutable graph snapshot. Unreachability is
represented by ``math.inf``, never an integer; turning it into a penalty is
the reward module's business. The kernels are array code over the live
edges, except Louvain, whose sequential local moves run on Python lists.
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
        """The query set of `sample_pairs`' draw."""
        return cls.from_graph(g, sample_pairs(g, max_pairs, rng))


def sample_pairs(g, max_pairs, rng):
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
    return pairs


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


def centered_ranks(scores):
    """Average ranks (ties share the mean of their positions) less their mean."""
    ranks = rankdata(np.asarray(scores, dtype=np.float64), method="average")
    return ranks - ranks.mean()


def spearman_rho(a, b):
    """Spearman rank correlation: Pearson correlation of average ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise PruneRLError(f"spearman_rho needs two equal-length vectors (>=2), got {a.shape} vs {b.shape}")
    return spearman_rho_ranked(centered_ranks(a), b)


def spearman_rho_ranked(ra, b):
    """`spearman_rho(a, b)` from ra = centered_ranks(a), for a caller that
    correlates many vectors of a's length with the same `a`."""
    rb = centered_ranks(b)
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
    caller's rng. Isolated nodes end up as singleton communities. The
    working graph is Python lists, whose scalar reads cost less than numpy's.
    """
    if g.directed:
        raise PruneRLError("louvain requires an undirected graph")
    n = g.node_count
    if g.edge_count == 0:
        return Partition(labels={i: i for i in range(n)}, modularity=0.0)

    # unit-weight rows in live edge id order, which breaks ties (not CSR order once pruned)
    rows = [[] for _ in range(n)]
    eids = g.live_edge_ids()
    for u, v in zip(g.src[eids].tolist(), g.dst[eids].tolist()):
        rows[u].append((v, 1.0))
        rows[v].append((u, 1.0))
    k = [float(len(row)) for row in rows]  # weighted degree of each super-node
    label = np.arange(n)  # super-node of each original node
    m2 = 2.0 * g.edge_count

    while True:
        nn = len(rows)
        comm = list(range(nn))
        comm_tot = k.copy()  # sum of degrees per community
        # a node that stayed is skipped until a community it weighed gains or
        # loses a member, as when a neighbour moves: until then its choice is
        # the same (k is integral, so staying leaves the totals exact)
        seen = [-1] * nn  # move count at each node's last stay; -1: none yet
        deps = [(c,) for c in comm]  # the communities that stay weighed
        changed = [0] * nn  # move count at each community's last change
        clock = 0
        order = np.arange(nn)
        start = -1  # move count before the last sweep
        while clock != start:
            start = clock
            rng.shuffle(order)
            for i in order.tolist():
                for c in deps[i]:
                    if changed[c] > seen[i]:
                        break
                else:
                    continue  # nothing it weighed has changed since it stayed
                ci, ki = comm[i], k[i]
                # weights from i to each neighboring community, first seen first
                w2c = {}
                for j, w in rows[i]:
                    c = comm[j]
                    if c in w2c:
                        w2c[c] += w
                    else:
                        w2c[c] = w
                comm_tot[ci] -= ki
                base = w2c.pop(ci, 0.0) - resolution * comm_tot[ci] * ki / m2
                best_c, bar = ci, min_gain  # a tie keeps the first community seen
                for c, w in w2c.items():
                    gain = (w - resolution * comm_tot[c] * ki / m2) - base
                    if gain > bar:
                        best_c, bar = c, gain + min_gain
                comm_tot[best_c] += ki
                if best_c == ci:
                    seen[i], deps[i] = clock, (ci, *w2c)
                else:
                    comm[i] = best_c
                    clock += 1
                    changed[ci] = changed[best_c] = clock
        # aggregate communities into super-nodes (done once none merge); a
        # super-node's degree is its community's total, and its row meets
        # neighbours first seen first: members ascending, then row order
        kept, comm = np.unique(comm, return_inverse=True)
        label = comm[label]
        comm = comm.tolist()
        new_rows = [{} for _ in kept]
        for ci, row in zip(comm, rows):
            for j, w in row:
                cj = comm[j]
                if cj != ci:
                    new_rows[ci][cj] = new_rows[ci].get(cj, 0.0) + w
        rows = [list(acc.items()) for acc in new_rows]
        k = [comm_tot[c] for c in kept.tolist()]
        if len(kept) == nn:
            break

    labels = dict(enumerate(label.tolist()))
    return Partition(labels=labels, modularity=modularity(g, labels))


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
    na, nb = ia.max() + 1, ib.max() + 1
    table = np.bincount(ia * nb + ib, minlength=na * nb).reshape(na, nb)

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
    # int32 index arrays, which csr_matrix would otherwise copy them into
    live = csr_matrix((np.ones(nbrs.size), nbrs.astype(np.int32), indptr.astype(np.int32)),
                      shape=(n, n))
    # the CSR holds both directions of an undirected edge already; dijkstra
    # is what shortest_path dispatches to here, without its ~40 us of checks
    return dijkstra(live, directed=True, unweighted=True, indices=sources)


def bfs_distances(g, source):
    """Hop distances from source to every node (inf where unreachable)."""
    return _hop_distances(g, source)


def batch_spsp(g, pairs):
    """Distances for many pairs, from one search over their distinct sources."""
    if not pairs:
        return []
    sources, row = np.unique([u for u, _ in pairs], return_inverse=True)
    dist = _hop_distances(g, sources)[row, [v for _, v in pairs]]
    return [UNREACHABLE if d == UNREACHABLE else int(d) for d in dist.tolist()]
