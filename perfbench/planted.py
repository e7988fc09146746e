"""Seeded planted-partition graph generator.

The graph has ``n`` nodes split into ``k`` equal communities. Each community
gets a random spanning tree, consecutive communities are joined by one edge,
so the whole graph is connected; the remaining edges are drawn
intra-community with probability ``p_intra`` and inter-community otherwise.
The same seed always yields the same edge list, in the same order.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class PlantedGraph:
    node_count: int
    edges: list  # [(u, v)] with u < v, in generation order
    labels: np.ndarray  # node -> community index

    @property
    def community_count(self):
        return int(self.labels.max()) + 1

    def intra_share(self):
        same = sum(1 for u, v in self.edges if self.labels[u] == self.labels[v])
        return same / len(self.edges)

    def is_connected(self):
        parent = list(range(self.node_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parts = self.node_count
        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                parts -= 1
        return parts == 1

    def edge_list_text(self):
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def communities_text(self):
        lines = []
        for c in range(self.community_count):
            members = np.flatnonzero(self.labels == c)
            lines.append(" ".join(str(int(x)) for x in members))
        return "\n".join(lines) + "\n"


def planted_partition(seed, n=2000, m=10000, k=20, p_intra=0.9):
    """Connected planted-partition graph with exactly ``m`` distinct edges."""
    if n % k or not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError("n must be a multiple of k and n - 1 <= m <= n(n-1)/2")
    rng = np.random.default_rng(seed)
    size = n // k
    labels = np.repeat(np.arange(k), size)
    rng.shuffle(labels)
    members = np.argsort(labels, kind="stable").reshape(k, size)

    us, vs = [], []
    for group in members:  # random recursive tree inside each community
        order = rng.permutation(group)
        us.append(order[1:])
        vs.append(order[(rng.random(size - 1) * np.arange(1, size)).astype(np.int64)])
    chain = np.arange(k - 1)  # one edge from each community to the next
    us.append(members[chain, rng.integers(size, size=k - 1)])
    vs.append(members[chain + 1, rng.integers(size, size=k - 1)])

    seen = set()
    edges = []

    def take(u, v):
        for a, b in zip(u.tolist(), v.tolist()):
            if len(edges) == m:
                return
            key = (a, b) if a < b else (b, a)
            if a != b and key not in seen:
                seen.add(key)
                edges.append(key)

    take(np.concatenate(us), np.concatenate(vs))
    while len(edges) < m:
        batch = 2 * (m - len(edges))
        intra = rng.random(batch) < p_intra
        comm = rng.integers(k, size=batch)
        u = np.where(intra, members[comm, rng.integers(size, size=batch)],
                     rng.integers(n, size=batch))
        v = np.where(intra, members[comm, rng.integers(size, size=batch)],
                     rng.integers(n, size=batch))
        keep = intra | (labels[u] != labels[v])
        take(u[keep], v[keep])
    return PlantedGraph(node_count=n, edges=edges, labels=labels)
