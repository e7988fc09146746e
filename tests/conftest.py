import itertools
from pathlib import Path

import numpy as np
import pytest

from prunerl.graph import Graph, load_edge_list
from prunerl.metrics import UNREACHABLE, bfs_distances

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def make_graph(n, edges, directed=False):
    return Graph(n, edges, directed=directed)


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    """Hub is node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def two_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def barbell_graph():
    """Two K5s (nodes 0-4 and 5-9) joined by the single bridge (0, 5).

    Returns (graph, bridge edge id)."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    edges.append((0, 5))
    return Graph(10, edges), len(edges) - 1


def random_connected_graph(n, rng, extra_edge_prob=0.3):
    """Random connected simple graph: a random spanning tree plus extras."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u = int(order[i])
        v = int(order[int(rng.integers(i))])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_sparse_graph(n, m, rng, directed=False):
    """m distinct random edges on n nodes, in the order they were drawn."""
    edges = {}
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            edges.setdefault((u, v) if directed else (min(u, v), max(u, v)), (u, v))
    return Graph(n, list(edges.values()), directed=directed)


def neighbors(g, u):
    """Live neighbors of u (out-neighbors when directed), in edge id order."""
    lo, hi = g.indptr[u], g.indptr[u + 1]
    return g.nbrs[lo:hi][g.alive[g.eids[lo:hi]]].tolist()


def edge_id(g, u, v):
    """Stable id of edge (u, v) of g, live or pruned, or None if it never existed."""
    lo, hi = g.indptr[u], g.indptr[u + 1]
    hits = np.flatnonzero(g.nbrs[lo:hi] == v)
    return int(g.eids[lo + hits[0]]) if hits.size else None


def degree_of(g, u):
    if g.directed:
        return (int(g.deg[u, 0]), int(g.deg[u, 1]))
    return int(g.deg[u, 0])


def shortest_path_distance(g, u, v):
    """BFS hop count from u to v; UNREACHABLE (inf) when no path exists."""
    if u == v:
        return 0
    d = bfs_distances(g, u)[v]
    return UNREACHABLE if d == UNREACHABLE else int(d)


def sampling_probabilities(buf):
    """p_i^alpha / sum p_j^alpha over the items a ReplayBuffer stores."""
    w = buf.weight[: buf.size]
    return w / w.sum()


def floyd_warshall(g):
    """Dense all-pairs shortest hop counts; independent of the BFS code."""
    n = g.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for eid in g.live_edge_ids():
        u, v = int(g.src[eid]), int(g.dst[eid])
        dist[u, v] = 1.0
        if not g.directed:
            dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


@pytest.fixture
def karate():
    return load_edge_list(DATA_DIR / "karate.txt")


@pytest.fixture
def karate_labels_path():
    return DATA_DIR / "karate_communities.txt"


@pytest.fixture
def rng():
    return np.random.default_rng(0)
