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

print(f"{'method':>18} {'kept':>5} {'pagerank rho':>13} {'spsp penalty':>13}")
for name, run in baselines.AT_RATIO.items():
    sp = run(g, ratio, rng)
    rho = spearman_rho(pr, pagerank(sp))
    spsp = spsp_penalty(sp, queries)
    print(f"{name:>18} {sp.edge_count:>5} {rho:>13.4f} {spsp:>13.4f}")

print("\nhigher rho is better (rank preservation); lower spsp penalty is "
      "better (mean hop increase, unreachable pairs count as |V|)")
