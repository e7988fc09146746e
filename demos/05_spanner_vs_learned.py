"""Match a learned sparsifier against a t-spanner at equal edge budgets.

The spanner guarantees every pairwise distance stretches by at most t but
does not get to choose its size; the comparison protocol runs the spanner
several times, averages its kept-edge count, and hands the same budget to
the learned sparsifier so the shortest-path penalties are comparable. Here
a quickly trained agent stands in for a long run.
"""

import numpy as np

from prunerl.agent import Agent, AgentConfig, train_loop
from prunerl.baselines import baswana_sen_spanner, spanner_comparison_protocol
from prunerl.graph import load_edge_list
from prunerl.rewards import SpspReward

g = load_edge_list("data/karate.txt")
rng = np.random.default_rng(0)

# the spanner alone: one quick draw to see its natural size
sp = baswana_sen_spanner(g, 3, rng)
print(f"3-spanner kept {sp.edge_count}/{g.original_edge_count} edges")

cfg = AgentConfig(emb_dim=16, hidden_dim=32, train_subgraph_len=16,
                  batch_size=16, eps_decay_steps=400, t_max=8,
                  lr=0.001, gamma=0.2)
agent = Agent(g, cfg, rng=rng)
print("training 150 episodes on the shortest-path objective...")
train_loop(agent, SpspReward(g, pairs_per_endpoint=8), 150, rng)

rows = spanner_comparison_protocol(g, [3, 5, 7],
                                   lambda g_, r, rng_: agent.sparsify(g_, r, 32, rng_),
                                   np.random.default_rng(1), runs=8,
                                   n_pairs=256)
print(f"\n{'t':>3} {'kept ratio':>11} {'spanner spsp':>13} {'learned spsp':>13}")
for r in rows:
    print(f"{r['t']:>3} {r['mean_ratio']:>11.4f} {r['spanner_rspsp']:>13.4f} "
          f"{r['agent_rspsp']:>13.4f}")
