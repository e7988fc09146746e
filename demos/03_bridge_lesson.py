"""Teach an agent not to cut the only bridge in a barbell graph.

Two 5-cliques joined by a single edge: pruning the bridge disconnects the
sides and sends shortest paths to the unreachable penalty, so an agent
trained on the shortest-path objective should learn to rank it last.
Takes about 20 seconds.
"""

import numpy as np

from prunerl.agent import Agent, AgentConfig, train_loop
from prunerl.graph import Graph
from prunerl.rewards import SpspReward


def barbell():
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    edges.append((0, 5))  # the bridge, edge id 20
    return Graph(10, edges)


g = barbell()
cfg = AgentConfig(emb_dim=16, hidden_dim=32, train_subgraph_len=12,
                  batch_size=16, eps_decay_steps=600, t_max=8,
                  lr=0.001, gamma=0.2)
rng = np.random.default_rng(0)
agent = Agent(g, cfg, rng=rng)

print("training 300 episodes on the shortest-path objective...")
train_loop(agent, SpspReward(g, pairs_per_endpoint=16), 300, rng)

# greedy pruning down to 13 of 21 edges, scoring all live edges each step
sp = agent.sparsify(g, 13 / 21, 21, np.random.default_rng(1))
bridge_alive = sp.alive[20]
print(f"pruned 8 edges; bridge alive: {bridge_alive}")

# inspect the learned Q-values on the full graph
sub = g.sample_subgraph(21, np.random.default_rng(2))
q = agent.policy.q_forward(sub).data
order = np.argsort(q)  # ascending; the agent prunes the argmax each step
ends = sub.nodes[sub.ends]  # (u, v) of each candidate edge
print("three edges the policy most wants to prune:",
      [tuple(ends[i].tolist()) for i in order[-3:]])
print("three edges it most wants to keep:",
      [tuple(ends[i].tolist()) for i in order[:3]])
