"""Run every classical sparsifier at the same edge budget and compare how
well each preserves PageRank rankings and shortest paths.

All methods keep round(r * |E|) edges (exactly, or as close as their keep
rule permits), so the comparison is at matched sparsity.
"""

import numpy as np

from prunerl import baselines
from prunerl.graph import load_edge_list
from prunerl.metrics import PathQuerySet, pagerank, spearman_rho
from prunerl.rewards import spsp_penalty

g = load_edge_list("data/karate.txt")
ratio = 0.5
rng = np.random.default_rng(0)
queries = PathQuerySet.sample(g, 200, np.random.default_rng(1))
pr = pagerank(g)

methods = {
    "random_edge": lambda: baselines.random_edge(g, ratio, rng),
    "local_degree": lambda: baselines.local_degree(g, r=ratio),
    "edge_forest_fire": lambda: baselines.edge_forest_fire(g, ratio, 0.95, rng),
    "l_spar": lambda: baselines.l_spar(g, r=ratio),
}

print(f"{'method':>18} {'kept':>5} {'pagerank rho':>13} {'spsp penalty':>13}")
for name, run in methods.items():
    sp = run()
    rho = spearman_rho(pr, pagerank(sp))
    spsp = spsp_penalty(sp, queries)
    print(f"{name:>18} {sp.edge_count:>5} {rho:>13.4f} {spsp:>13.4f}")

print("\nhigher rho is better (rank preservation); lower spsp penalty is "
      "better (mean hop increase, unreachable pairs count as |V|)")
