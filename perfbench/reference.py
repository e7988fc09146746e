"""Independent scipy/numpy reference implementations that the benchmark
compares prunerl's metric kernels against, outside every timed region."""

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import shortest_path


def live_adjacency(g):
    """CSR adjacency of the live edges (both directions when undirected)."""
    eids = g.live_edge_ids()
    src, dst = g.src[eids], g.dst[eids]
    if not g.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    data = np.ones(src.size)
    return scipy.sparse.csr_matrix((data, (src, dst)), shape=(g.node_count, g.node_count))


def pagerank(g, damping=0.85, tol=1e-14, max_iter=1000):
    """Sparse power iteration with uniform teleport and dangling mass."""
    a = live_adjacency(g)
    n = g.node_count
    out_deg = np.asarray(a.sum(axis=1)).ravel()
    dangling = out_deg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.maximum(out_deg, 1))
    pt = (scipy.sparse.diags(inv) @ a).T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = (1.0 - damping) / n + damping * (pt @ x + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    return x


def hop_distances(g, sources):
    """Unweighted shortest-path lengths from each source (inf = unreachable)."""
    return shortest_path(live_adjacency(g), directed=g.directed, unweighted=True,
                         indices=np.asarray(sources))


def modularity(g, labels):
    """Newman modularity of a node -> community map over the live edges."""
    lab = np.array([labels[n] for n in range(g.node_count)])
    eids = g.live_edge_ids()
    m = eids.size
    lu, lv = lab[g.src[eids]], lab[g.dst[eids]]
    k = lab.max() + 1
    intra = np.bincount(lu[lu == lv], minlength=k)
    deg = np.bincount(np.concatenate([lu, lv]), minlength=k)
    return float((intra / m - (deg / (2.0 * m)) ** 2).sum())


def check_metrics(g, labels, rng, n_sources=16):
    """Compare prunerl's pagerank, bfs_distances and modularity with the
    references above. Returns [(check name, passed, detail)]."""
    from prunerl import metrics

    out = []
    diff = float(np.abs(metrics.pagerank(g) - pagerank(g)).max())
    out.append(("pagerank_vs_scipy", diff <= 1e-8, f"max |diff| {diff:.3g}"))

    sources = rng.choice(g.node_count, size=min(n_sources, g.node_count), replace=False)
    ref = hop_distances(g, sources)
    bad = sum(not np.array_equal(metrics.bfs_distances(g, int(s)), ref[i])
              for i, s in enumerate(sources))
    out.append(("bfs_vs_csgraph", bad == 0, f"{bad} of {len(sources)} sources differ"))

    q, q_ref = metrics.modularity(g, labels), modularity(g, labels)
    out.append(("modularity_vs_numpy", abs(q - q_ref) <= 1e-12,
                f"{q:.12f} vs {q_ref:.12f}"))
    return out
