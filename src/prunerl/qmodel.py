"""Per-edge Q-value network: jointly trained node embeddings, a single-head
graph-attention node encoder over live 1-hop neighborhoods, a node MLP that
mixes in degrees and the edge-kept ratio, a symmetric edge encoder, and a
scalar value head.

Every edge in a candidate subgraph runs through the same network, so the
subgraph length is not fixed: any number of candidate edges can be scored.
"""

import numpy as np

from . import nnet
from .nnet import Linear, Tensor

ATTENTION_SLOPE = 0.2  # leaky slope inside attention scoring
HIDDEN_SLOPE = 0.01  # leaky slope in the encoder MLPs
EMB_SCALE = 0.1  # node embeddings start uniform in [-EMB_SCALE, EMB_SCALE]


class QModel:
    """Q-value function over candidate prune edges of one fixed graph.

    The embedding table is per-node, so a trained model is tied to the graph
    it was trained on (transductive).
    """

    def __init__(self, node_count, rng, emb_dim, hidden_dim, directed=False):
        self.node_count = node_count
        self.directed = directed
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        deg_dims = 2 if directed else 1

        self.embeddings = Tensor(
            rng.uniform(-EMB_SCALE, EMB_SCALE, size=(node_count, emb_dim)),
            name="embeddings",
        )
        self.gat_proj = Linear(emb_dim, emb_dim, rng, bias=False, name="gat_proj")
        self.gat_score = Linear(2 * emb_dim, 1, rng, name="gat_score")
        self.node_fc1 = Linear(emb_dim + deg_dims + 1, hidden_dim, rng, name="node_fc1")
        self.node_fc2 = Linear(hidden_dim, hidden_dim, rng, name="node_fc2")
        in_edge = hidden_dim if not directed else 2 * hidden_dim
        self.edge_fc1 = Linear(in_edge, hidden_dim, rng, name="edge_fc1")
        self.edge_fc2 = Linear(hidden_dim, hidden_dim, rng, name="edge_fc2")
        self.head = Linear(hidden_dim, 1, rng, name="head")
        # every parameter views one vector, so a blend of models is one array op
        params = self.parameters()
        self.flat, views = nnet.flat_views([p.data for p in params])
        for p, view in zip(params, views):
            p.data = view

    # -------------------------------------------------------------- parameters

    def parameters(self):
        out = [self.embeddings]
        for layer in (self.gat_proj, self.gat_score, self.node_fc1,
                      self.node_fc2, self.edge_fc1, self.edge_fc2, self.head):
            out.extend(layer.parameters())
        return out

    def soft_update_from(self, policy, rate):
        """Blend this model's parameters toward the policy's by `rate`."""
        np.add((1.0 - rate) * self.flat, rate * policy.flat, out=self.flat)

    # ----------------------------------------------------------------- scoring

    def q_forward(self, sub, grad=True):
        """Q-value per candidate edge of `sub`, a CandidateSubgraph (one
        sample, or a replay batch's gather): a Tensor of shape (len(sub),).
        Neighborhoods, degrees, and the edge ratio come from the snapshot, so
        replayed states stay evaluable after further pruning; callers acting
        on a live graph check `require_live` themselves.

        With grad=False the pass records no graph, and its Q-values, equal
        bit for bit to a recording pass's, are checked for finiteness.
        """
        gat_out = nnet.graph_attention(self.embeddings, self.gat_proj, self.gat_score,
                                       sub.hood_ptr, sub.hood, ATTENTION_SLOPE, grad)
        degs = sub.node_degrees / max(1, self.node_count - 1)  # feature scaling only
        x = nnet.concat_features(gat_out, (degs, sub.edge_ratio), grad)
        h = self.node_fc1(x, HIDDEN_SLOPE, grad)
        enc = self.node_fc2(h, HIDDEN_SLOPE, grad)
        # order-insensitive when undirected: Q(u,v) = Q(v,u)
        pair = nnet.pair_rows(enc, sub.ends, self.directed, grad)
        h = self.edge_fc1(pair, HIDDEN_SLOPE, grad)
        h = self.edge_fc2(h, HIDDEN_SLOPE, grad)
        q = nnet.reshape(self.head(h, grad=grad), (-1,), grad)
        return q if grad else Tensor(q, name="q")
