"""Train an agent to prune edges that cross community boundaries.

The community objective pays the agent the change in agreement between
Louvain's partition and ground-truth labels, plus a per-edge bonus keyed to
whether the pruned edge crossed communities (label_sign=-1 rewards cutting
inter-community edges). The result should preserve more modularity than
random pruning at the same budget. Takes about ten seconds.
"""

import numpy as np

from prunerl.agent import Agent, AgentConfig, train_loop
from prunerl.baselines import random_edge
from prunerl.graph import load_communities, load_edge_list
from prunerl.metrics import louvain
from prunerl.rewards import CommunityReward

g = load_edge_list("data/karate.txt")
labels = load_communities("data/karate_communities.txt", g)

cfg = AgentConfig(emb_dim=16, hidden_dim=32, train_subgraph_len=32,
                  batch_size=16, eps_decay_steps=600, t_max=8,
                  lr=0.001, gamma=0.2)
rng = np.random.default_rng(0)
agent = Agent(g, cfg, rng=rng)

print("training 600 episodes on the community objective...")
train_loop(agent, CommunityReward(g, labels, label_sign=-1.0), 600, rng)


def mean_modularity(sp, seed):
    # Louvain is stochastic; average a few runs per graph
    return float(np.mean([
        louvain(sp, np.random.default_rng(10_000 + 97 * seed + j)).modularity
        for j in range(4)
    ]))


for ratio in (0.6, 0.8):
    learned = [mean_modularity(agent.sparsify(g, ratio, 32,
                                              np.random.default_rng(s)), s)
               for s in range(8)]
    random = [mean_modularity(random_edge(g, ratio, np.random.default_rng(s)), s)
              for s in range(8)]
    print(f"ratio {ratio}: learned modularity {np.mean(learned):.4f}  "
          f"random {np.mean(random):.4f}  "
          f"margin {np.mean(learned) - np.mean(random):+.4f}")
