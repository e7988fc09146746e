"""Per-item reference implementations of the batched Q-network code.

`q_forward_oracle` scores one candidate subgraph at a time, projecting and
scoring every (center, neighbor) row of the attention layer on its own;
`double_dqn_target_oracle` makes two forward passes per transition. They are
the per-item forms of `QModel.q_forward_batch` and `agent.double_dqn_target`,
which tests compare against them.
"""

import numpy as np

from prunerl import nnet
from prunerl.nnet import Tensor
from prunerl.qmodel import ATTENTION_SLOPE, HIDDEN_SLOPE


def snapshot_dicts(sub):
    """The subgraph's node snapshot as {node: neighbors}, {node: degrees}."""
    neighborhoods, node_degrees = {}, {}
    for i, n in enumerate(sub.nodes.tolist()):
        neighborhoods[n] = tuple(sub.hood[sub.hood_ptr[i] + 1:sub.hood_ptr[i + 1]].tolist())
        node_degrees[n] = tuple(sub.node_degrees[i].tolist())
    return neighborhoods, node_degrees


def gat_node_encode_oracle(model, neighborhoods, nodes):
    centers, nbrs, segments = [], [], []
    for i, n in enumerate(nodes):
        hood = [n] + sorted(neighborhoods[n])
        centers.extend([n] * len(hood))
        nbrs.extend(hood)
        segments.extend([i] * len(hood))
    proj_centers = model.gat_proj(nnet.gather_rows(model.embeddings, centers))
    proj_nbrs = model.gat_proj(nnet.gather_rows(model.embeddings, nbrs))
    scores = model.gat_score(nnet.concat([proj_centers, proj_nbrs], axis=1))
    scores = nnet.leaky_relu(nnet.reshape(scores, (-1,)), ATTENTION_SLOPE)
    weights = nnet.segment_softmax(scores, segments, len(nodes))
    weighted = nnet.mul(nnet.reshape(weights, (-1, 1)), proj_nbrs)
    return nnet.segment_sum(weighted, segments, len(nodes))


def q_forward_oracle(model, sub):
    """Q-value per candidate edge of one subgraph; Tensor of shape (len(sub),)."""
    neighborhoods, node_degrees = snapshot_dicts(sub)
    nodes = sorted({n for e in sub.edges for n in (e.u, e.v)})
    pos = {n: i for i, n in enumerate(nodes)}
    gat_out = gat_node_encode_oracle(model, neighborhoods, nodes)
    degs = np.array([node_degrees[n] for n in nodes], dtype=np.float64)
    degs = degs / max(1, model.node_count - 1)
    ratio = np.full((len(nodes), 1), sub.edge_ratio)
    x = nnet.concat([gat_out, Tensor(degs), Tensor(ratio)], axis=1)
    h = nnet.leaky_relu(model.node_fc1(x), HIDDEN_SLOPE)
    enc = nnet.leaky_relu(model.node_fc2(h), HIDDEN_SLOPE)
    enc_u = nnet.gather_rows(enc, [pos[e.u] for e in sub.edges])
    enc_v = nnet.gather_rows(enc, [pos[e.v] for e in sub.edges])
    if model.directed:
        pair = nnet.concat([enc_u, enc_v], axis=1)
    else:
        pair = nnet.add(enc_u, enc_v)
    h = nnet.leaky_relu(model.edge_fc1(pair), HIDDEN_SLOPE)
    h = nnet.leaky_relu(model.edge_fc2(h), HIDDEN_SLOPE)
    return nnet.reshape(model.head(h), (-1,))


def double_dqn_target_oracle(batch, policy, target, gamma):
    out = np.empty(len(batch))
    for i, tr in enumerate(batch):
        if tr.done or gamma == 0.0:
            out[i] = tr.reward
        else:
            a = int(np.argmax(q_forward_oracle(policy, tr.next_state).data))
            out[i] = tr.reward + gamma * q_forward_oracle(target, tr.next_state).data[a]
    return out
