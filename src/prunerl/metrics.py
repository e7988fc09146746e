"""Structural metrics: PageRank, Spearman rank correlation, Louvain
communities, modularity, ARI, and BFS shortest paths.

All functions are pure given an immutable graph snapshot. They read its live
edges, not the order they were pruned in, so Louvain too returns one partition
per live edge set and seed. Unreachability is represented by ``math.inf``,
never an integer; turning it into a penalty is the reward module's business.
Kernels are array code over the live edges (PageRank on a small graph is one
dense solve), except Louvain's list sweeps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import ConvergenceError, PruneRLError

UNREACHABLE = math.inf


@dataclass
class Partition:
    """Node-to-community labels plus the modularity of that split."""

    labels: np.ndarray  # (|V|,) community index of each node
    modularity: float


@dataclass
class PathQuerySet:
    """(u, v) query pairs with per-pair baseline distances in a fixed graph."""

    pairs: np.ndarray  # (k, 2) int64 node ids
    baseline: np.ndarray  # (k,) float hop distances, inf = unreachable

    @classmethod
    def from_graph(cls, g, pairs):
        pairs = np.asarray(pairs, dtype=np.int64)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            u, v = pairs[np.argmax(loops)].tolist()
            raise PruneRLError(f"SPSP pair must have distinct endpoints, got ({u},{v})")
        return cls(pairs=pairs, baseline=batch_spsp(g, pairs))

    @classmethod
    def sample(cls, g, max_pairs, rng):
        """The query set of `sample_pairs`' draw."""
        return cls.from_graph(g, sample_pairs(g, max_pairs, rng))


def sample_pairs(g, max_pairs, rng):
    """Fixed random distinct pairs as a (k, 2) array, capped at n*(n-1)/2 for
    undirected graphs. Each pair is two scalar draws: a vectorized draw would
    take another rng stream."""
    n = g.node_count
    cap = n * (n - 1) // 2 if not g.directed else n * (n - 1)
    k = min(max_pairs, cap)
    seen, pairs = set(), []
    while len(pairs) < k:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (u, v) if g.directed else (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


# ------------------------------------------------------------------- pagerank


# Up to this many nodes `pagerank` solves directly. At |E| = 5n on 2 cores the
# solve took 0.24/0.53/1.53 ms at n = 128/192/256, the iteration 0.47/0.56/0.57.
DENSE_PAGERANK_MAX_NODES = 128
# Sorted scores this close share a rank: over the iteration's error d/(1-d)*tol ~ 5.7e-10.
TIE_EPS = 1e-9


def pagerank(g, damping=0.85, tol=1e-10, max_iter=200):
    """PageRank, dangling mass spread uniformly. Small graphs solve (I - d*P - (d/n)
    1 dangling^T) x = (1 - d)/n, P[v, u] = 1/outdeg(u) per live edge u->v; larger ones
    iterate, and only they use tol and max_iter or raise ConvergenceError (last iterate)."""
    n = g.node_count
    indptr, nbrs, _ = g.live_csr()
    out_deg = np.diff(indptr)  # live out-neighbors (undirected: live degree)
    dangling = out_deg == 0
    if n <= DENSE_PAGERANK_MAX_NODES:
        sources = np.repeat(np.arange(n), out_deg)
        a = np.tile(np.where(dangling, -damping / n, 0.0), (n, 1))  # one n x n allocation
        a[nbrs, sources] = -damping / out_deg[sources]  # no duplicate edges to add up
        a.flat[:: n + 1] += 1.0
        return np.linalg.solve(a, np.full(n, (1.0 - damping) / n))
    # column u is u's live out-neighbours by edge id (a loop's summation order)
    push = live_matrix(n, indptr, nbrs).T
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = push @ (x / np.maximum(out_deg, 1))
        nxt = (1.0 - damping) / n + damping * (nxt + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise ConvergenceError(f"pagerank did not converge in {max_iter} iterations", last_iterate=x)


def centered_ranks(scores):
    """Average ranks less their mean; a gap > TIE_EPS starts a new tie group."""
    x = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(x).all():
        raise PruneRLError("cannot rank non-finite scores")
    order = np.argsort(x)
    starts = np.flatnonzero(np.diff(x[order], prepend=-np.inf) > TIE_EPS)
    sizes = np.diff(starts, append=x.size)
    # each group's mean rank, start + (size + 1)/2, less the mean rank (n + 1)/2
    return np.repeat(starts + (sizes - x.size) / 2.0, sizes)[np.argsort(order)]


def spearman_rho(a, b):
    """Spearman rank correlation: Pearson correlation of average ranks."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
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


def modularity(g, labels):
    """Q = sum_c [ m_c/m - (d_c/2m)^2 ] over live edges, for the (|V|,) array
    of each node's community; 0 when edgeless."""
    if g.directed:
        raise PruneRLError("modularity requires an undirected graph")
    m = g.edge_count
    if m == 0:
        return 0.0
    _, first, comm = np.unique(labels, return_index=True, return_inverse=True)
    eids = g.live_edge_ids()
    cu, cv = comm[g.src[eids]], comm[g.dst[eids]]
    intra = np.bincount(cu[cu == cv], minlength=first.size).tolist()
    deg_sum = np.bincount(comm, weights=g.deg[:, 0], minlength=first.size).tolist()
    q = 0.0
    for c in np.argsort(first).tolist():  # communities in order of their first node
        q += intra[c] / m - (deg_sum[c] / (2.0 * m)) ** 2
    return q


LOUVAIN_MIN_GAIN = 1e-12  # a move must beat staying put by more than this


def louvain(g, rng):
    """Greedy modularity optimization (local moves + aggregation).

    Node visit order within each local-move sweep is shuffled with the
    caller's rng. Isolated nodes end up as singleton communities. The
    working graph is Python lists, whose scalar reads cost less than numpy's.
    """
    if g.directed:
        raise PruneRLError("louvain requires an undirected graph")
    n = g.node_count
    if g.edge_count == 0:
        return Partition(labels=np.arange(n), modularity=0.0)

    # unit-weight rows, the live CSR rows: neighbours in edge id order, which breaks ties
    indptr, nbrs, _ = (a.tolist() for a in g.live_csr())
    rows = [[(v, 1.0) for v in nbrs[indptr[u]:indptr[u + 1]]] for u in range(n)]
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
                base = w2c.pop(ci, 0.0) - comm_tot[ci] * ki / m2
                best_c, bar = ci, LOUVAIN_MIN_GAIN  # a tie keeps the first community seen
                for c, w in w2c.items():
                    gain = (w - comm_tot[c] * ki / m2) - base
                    if gain > bar:
                        best_c, bar = c, gain + LOUVAIN_MIN_GAIN
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

    return Partition(labels=label, modularity=modularity(g, label))


# ------------------------------------------------------------------------ ari


def adjusted_rand_index(a, b):
    """Chance-corrected Rand index between two label arrays over the same nodes."""
    la, lb = np.asarray(a), np.asarray(b)
    if la.shape != lb.shape or la.ndim != 1:
        raise PruneRLError(f"adjusted_rand_index needs two equal-length label vectors, "
                           f"got {la.shape} vs {lb.shape}")
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


def live_matrix(n, indptr, nbrs):
    """The unit-weight n x n CSR of `Graph.live_csr` rows, int32-indexed as scipy keeps
    it (it would copy int64 indices); its `.T` is the CSC over the same arrays."""
    return csr_matrix((np.ones(nbrs.size), nbrs.astype(np.int32), indptr.astype(np.int32)),
                      shape=(n, n))


def _hop_distances(g, sources):
    """Rows of hop distances from each source (inf where unreachable)."""
    indptr, nbrs, _ = g.live_csr()
    # the CSR holds both directions of an undirected edge already; dijkstra
    # is what shortest_path dispatches to here, without its ~40 us of checks
    return dijkstra(live_matrix(g.node_count, indptr, nbrs), directed=True, unweighted=True,
                    indices=sources)


def bfs_distances(g, source):
    """Hop distances from source to every node (inf where unreachable)."""
    return _hop_distances(g, source)


def batch_spsp(g, pairs):
    """Hop distances of (k, 2) pairs (inf where unreachable), from one search
    over their distinct sources."""
    sources, row = np.unique(pairs[:, 0], return_inverse=True)
    return _hop_distances(g, sources)[row, pairs[:, 1]]
