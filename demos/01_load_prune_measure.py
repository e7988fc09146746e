"""Load a graph, prune some edges, and measure what the pruning cost us.

Walks the three core objects: Graph (edge list with stable edge ids and
live/dead bookkeeping), the metric functions, and the edge-kept ratio that
every sparsifier in this package is parameterized by.
"""

import numpy as np

from prunerl.graph import load_edge_list
from prunerl.metrics import PathQuerySet, louvain, pagerank, spearman_rho
from prunerl.rewards import spsp_penalty

g = load_edge_list("data/karate.txt")
print(f"karate club: {g.node_count} nodes, {g.edge_count} edges")

# PageRank before pruning
pr_before = pagerank(g)
top = np.argsort(pr_before)[::-1][:5]
print("top-5 nodes by PageRank:", [int(t) for t in top])

# prune 30 random edges and see what happens to the ranking
rng = np.random.default_rng(0)
queries = PathQuerySet.sample(g, 200, rng)  # fixed pairs, baseline distances
gp = g.copy()
gp.random_prune(30, rng)
print(f"\nafter pruning 30 edges: kept ratio = {gp.edge_kept_ratio():.3f}")

rho = spearman_rho(pr_before, pagerank(gp))
print(f"PageRank rank correlation vs original: {rho:.4f}")

spsp = spsp_penalty(gp, queries)
print(f"mean shortest-path increase over 200 pairs: {spsp:.4f} hops")

part = louvain(gp, rng)
print(f"Louvain on the pruned graph: {len(set(part.labels.values()))} "
      f"communities, modularity {part.modularity:.4f}")
