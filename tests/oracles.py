"""Reference implementations that tests compare the fast code against.

The op-by-op autodiff below (one graph node per matmul, add, gather, leaky
ReLU, softmax, ...) is the form the fused layers of `prunerl.nnet` replaced.
On it, `gat_encode_oracle` is the op-by-op form of `nnet.graph_attention`,
and `q_forward_batch_oracle` and `train_step_oracle` those of
`QModel.q_forward` over `concat_oracle` of a list of candidate
subgraphs and of `Agent.train_step`; they must agree with them bit for bit.
`train_step_oracle` reads the steps a replay buffer was given, kept per
slot as `Transition`s by `keep_transitions`, and scores the edges a step
reads through one-edge views (`edge_views`), built here one
`CandidateSubgraph` per edge, which `pick_oracle` gathers as index arrays. It updates the parameters with
`adam_step_oracle` and `soft_update_oracle`, the per-parameter forms of
`Adam.step` and `QModel.soft_update_from`, which update one flat vector each;
`taken_q_all_candidates_oracle` scores every candidate of the batch, and
agrees with the picked pass only to rounding, because its matrix products
sum over more rows. `q_forward_oracle` scores one candidate subgraph at a
time, projecting and scoring every (center, neighbor) row of the attention
layer on its own, and `double_dqn_target_oracle` makes two forward passes
per transition.

`concat_oracle` and `pick_oracle` lay snapshots out as the replay store's
two gathers, `SnapshotStore.candidates` and `SnapshotStore.rows`, must: a
concatenation of whole snapshots, and a few candidates picked from one.

`sample_subgraph_oracle` is `Graph.sample_subgraph` as it sorted each
closed neighbourhood with an argsort per sample; it must draw the same
candidates and lay out the same snapshot, field for field.

`prune_edges_oracle` is the per-edge loop that `Graph.prune_edges`
replaced; both must leave the same kept set, live edge count and degrees.
The private live id list, which sampling draws from, ends in swap-remove
order after the loop and in edge-id order after the bulk form.
`load_edge_list_oracle` is the dict/set loop that compacted ids and
dropped self-loops and repeats before `load_edge_list` did both with arrays,
and `copy_listed_oracle` the per-line edge lookup (`conftest.edge_id`) that `Graph.copy_listed`
replaced with one sorted-key search.

The graph kernels below walk a dict-of-dicts adjacency in Python, rebuilt
from the live edges in edge id order: the forms of `metrics.pagerank`,
`bfs_distances`, `batch_spsp` and `modularity`, of `baselines.jaccard_scores`,
and of the per-exponent survivor sets of `local_degree` and `l_spar`.
`baswana_sen_spanner_oracle` is the dict-and-set form of
`baselines.baswana_sen_spanner`, one vertex at a time, with each round's
cluster draw in ascending center order; both must keep the same edge ids.
`louvain_oracle` is the dict form of `metrics.louvain`; its dicts are filled
in `live_edge_ids()` order, which is edge id order.

`SumTreeReplay` is the sum-tree sampler that `ReplayBuffer` replaced with one
cumulative sum: it keeps the raw priorities beside a `SumTree` of their
powers and walks the tree once per draw. The two sum in other orders, so
they pick the same indices but agree on the weights only to rounding.
"""

import math
from collections import namedtuple

import numpy as np

from prunerl.errors import DataError, PruneRLError, ShapeError
from prunerl.graph import CandidateSubgraph, concat_ranges
from prunerl.metrics import Partition, modularity
from prunerl.nnet import BETA1, BETA2, EPS, Tensor, _scatter_rows
from prunerl.qmodel import ATTENTION_SLOPE, HIDDEN_SLOPE

from conftest import edge_id


# ------------------------------------------------------- op-by-op autodiff
# Every output is a checked Tensor, as every op output once was.


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b):
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def sub(a, b):
    """a - b as the removed `Tensor.__sub__` built it: a + b * -1."""
    return add(a, mul(b, Tensor(-1.0)))


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    out._backward = backward
    return out


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def backward(g):
        a._accum(g.reshape(a.data.shape))

    out._backward = backward
    return out


def concat(tensors, axis=1):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            t._accum(g[tuple(sl)])
            offset += s

    out._backward = backward
    return out


def gather_rows(a, idx):
    """Select rows (entries, if 1-D) of a 1-D or 2-D tensor, e.g. embedding
    rows by node id; backward sums the gradients of repeated rows."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"gather_rows needs a 1-D or 2-D tensor, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx], parents=(a,))

    def backward(g):
        a._accum(_scatter_rows(idx, g, a.data.shape[0]))

    out._backward = backward
    return out


def mean_all(a):
    n = a.data.size
    out = Tensor(a.data.mean(), parents=(a,))

    def backward(g):
        a._accum(np.broadcast_to(g / n, a.data.shape).copy())

    out._backward = backward
    return out


def leaky_relu(a, slope=0.01):
    mask = np.where(a.data > 0, 1.0, slope)
    out = Tensor(a.data * mask, parents=(a,))

    def backward(g):
        a._accum(g * mask)

    out._backward = backward
    return out


def segment_softmax(a, segments, num_segments):
    """Softmax of a 1-D tensor within each segment id."""
    segments = np.asarray(segments, dtype=np.int64)
    if a.data.ndim != 1 or segments.shape != a.data.shape:
        raise ShapeError(f"segment_softmax needs matching 1-D shapes, got {a.data.shape} and {segments.shape}")
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, a.data)
    e = np.exp(a.data - seg_max[segments])
    seg_sum = np.bincount(segments, weights=e, minlength=num_segments)
    p = e / seg_sum[segments]
    out = Tensor(p, parents=(a,))

    def backward(g):
        dot = np.bincount(segments, weights=g * p, minlength=num_segments)
        a._accum(p * (g - dot[segments]))

    out._backward = backward
    return out


def segment_sum(a, segments, num_segments):
    """Sum rows of a 2-D tensor into per-segment totals."""
    segments = np.asarray(segments, dtype=np.int64)
    out = Tensor(_scatter_rows(segments, a.data, num_segments), parents=(a,))

    def backward(g):
        a._accum(g[segments])

    out._backward = backward
    return out


def linear(layer, x):
    """x @ W + b of an `nnet.Linear`, as a matmul node and an add node."""
    y = matmul(x, layer.W)
    return y if layer.b is None else add(y, layer.b)


# ------------------------------------------------------------- Q-network


def gat_encode_oracle(model, hood_ptr, hood):
    """`nnet.graph_attention` with the model's attention layer, op by op."""
    count = len(hood_ptr) - 1
    segments = np.repeat(np.arange(count), np.diff(hood_ptr))
    uniq, rows = np.unique(hood, return_inverse=True)
    proj = linear(model.gat_proj, gather_rows(model.embeddings, uniq))
    proj_nbrs = gather_rows(proj, rows)
    w, d = model.gat_score.W, model.emb_dim
    center_part = matmul(proj, gather_rows(w, np.arange(d)))
    nbr_part = matmul(proj, gather_rows(w, np.arange(d, 2 * d)))
    scores = add(gather_rows(center_part, rows[hood_ptr[:-1]][segments]),
                 gather_rows(nbr_part, rows))
    scores = reshape(add(scores, model.gat_score.b), (-1,))
    scores = leaky_relu(scores, ATTENTION_SLOPE)
    weights = segment_softmax(scores, segments, count)
    weighted = mul(reshape(weights, (-1, 1)), proj_nbrs)
    return segment_sum(weighted, segments, count)


def q_forward_batch_oracle(model, subs):
    """`QModel.q_forward(concat_oracle(subs))` (recording), op by
    op, and where each item's candidates start, then their total."""
    if not subs or any(len(s) == 0 for s in subs):
        raise PruneRLError("q_forward needs nonempty candidate subgraphs")
    sizes = [len(s.nodes) for s in subs]
    hood_base = np.cumsum([0] + [len(s.hood) for s in subs[:-1]])
    hood_ends = np.concatenate([s.hood_ptr[1:] for s in subs]) + np.repeat(hood_base, sizes)
    gat_out = gat_encode_oracle(model, np.concatenate([[0], hood_ends]),
                                np.concatenate([s.hood for s in subs]))
    degs = np.concatenate([s.node_degrees for s in subs])
    degs = degs / max(1, model.node_count - 1)
    ratio = np.concatenate([s.edge_ratio for s in subs])
    x = concat([gat_out, Tensor(degs), Tensor(ratio)], axis=1)
    h = leaky_relu(linear(model.node_fc1, x), HIDDEN_SLOPE)
    enc = leaky_relu(linear(model.node_fc2, h), HIDDEN_SLOPE)
    counts = [len(s) for s in subs]
    node_base = np.cumsum([0] + sizes[:-1])
    ends = np.concatenate([s.ends for s in subs]) + np.repeat(node_base, counts)[:, None]
    enc_u = gather_rows(enc, ends[:, 0])
    enc_v = gather_rows(enc, ends[:, 1])
    pair = concat([enc_u, enc_v], axis=1) if model.directed else add(enc_u, enc_v)
    h = leaky_relu(linear(model.edge_fc1, pair), HIDDEN_SLOPE)
    h = leaky_relu(linear(model.edge_fc2, h), HIDDEN_SLOPE)
    return reshape(linear(model.head, h), (-1,)), np.cumsum([0] + counts)


def concat_oracle(subs):
    """All candidates of `subs` as one snapshot, item after item, each
    item's endpoint rows shifted past the node rows before it."""
    counts = [len(s.eids) for s in subs]
    if not subs or 0 in counts:
        raise PruneRLError("q_forward needs nonempty candidate subgraphs")
    sizes = [len(s.node_degrees) for s in subs]
    hood_base = np.cumsum([0] + [len(s.hood) for s in subs[:-1]])
    hood_ends = np.concatenate([s.hood_ptr[1:] for s in subs]) + np.repeat(hood_base, sizes)
    node_base = np.cumsum([0] + sizes[:-1])
    return CandidateSubgraph(
        eids=np.concatenate([s.eids for s in subs]),
        ends=np.concatenate([s.ends for s in subs]) + np.repeat(node_base, counts)[:, None],
        hood_ptr=np.concatenate([[0], hood_ends]),
        hood=np.concatenate([s.hood for s in subs]),
        node_degrees=np.concatenate([s.node_degrees for s in subs]),
        edge_ratio=np.concatenate([s.edge_ratio for s in subs]),
    )


def pick_oracle(sub, rows):
    """Candidates `rows` of `sub` alone, scored as in `sub` up to rounding:
    candidate i's node rows are 2i (source) and 2i + 1 (destination),
    unsorted."""
    nodes = sub.ends[rows].reshape(-1)
    starts = sub.hood_ptr[nodes]
    lens = sub.hood_ptr[nodes + 1] - starts
    hood_ptr = np.concatenate([[0], np.cumsum(lens)])
    return CandidateSubgraph(
        eids=sub.eids[rows],
        ends=np.arange(len(nodes)).reshape(-1, 2),
        hood_ptr=hood_ptr,
        hood=sub.hood[np.arange(hood_ptr[-1]) + np.repeat(starts - hood_ptr[:-1], lens)],
        node_degrees=sub.node_degrees[nodes],
        edge_ratio=sub.edge_ratio[nodes],
    )


def edge_views(subs, rows):
    """Candidate rows[i] of subs[i] as a one-edge `CandidateSubgraph` whose
    two nodes are its source and then its destination, unsorted. Their
    concatenation holds the arrays `pick_oracle(concat_oracle(subs), ...)`
    gathers: the same neighborhoods, degrees and edge ratios, node rows in
    the same order."""
    views = []
    for s, j in zip(subs, rows):
        ends = s.ends[j]
        hoods = [s.hood[s.hood_ptr[n]:s.hood_ptr[n + 1]] for n in ends]
        views.append(CandidateSubgraph(
            eids=s.eids[j:j + 1], ends=np.array([[0, 1]]),
            hood_ptr=np.cumsum([0] + [len(h) for h in hoods]), hood=np.concatenate(hoods),
            node_degrees=s.node_degrees[ends], edge_ratio=s.edge_ratio[ends]))
    return views


def td_loss_oracle(pred, targets, weights):
    """The weighted squared TD loss over Q(s, a) values, op by op, and the
    TD errors."""
    diff = sub(pred, Tensor(targets))
    return mean_all(mul(Tensor(weights), mul(diff, diff))), diff


def taken_q_all_candidates_oracle(model, batch):
    """Q(s, a) of each transition, gathered from an op-by-op pass over every
    candidate of the batch's states."""
    q, offsets = q_forward_batch_oracle(model, [tr.state for tr in batch])
    return gather_rows(q, offsets[:-1] + [tr.action for tr in batch])


# one agent step as `ReplayBuffer.add` takes it: `buffer.add(*transition)`
Transition = namedtuple("Transition", "state action reward next_state done")


def keep_transitions(buffer):
    """A list that keeps, by slot, each step `buffer.add` stores from here
    on, as a `Transition` of the objects the store packed."""
    slots, add = [None] * buffer.capacity, buffer.add

    def keeping(*step, priority=None):
        slots[buffer.write] = Transition(*step)
        add(*step, priority=priority)

    buffer.add = keeping
    return slots


def train_step_oracle(agent, rng, slots):
    """`Agent.train_step`, op by op, on the transitions `slots` keeps: an
    op-by-op policy pass over every candidate of the next states, then
    op-by-op target and recording passes over one-edge views of the edges
    they read."""
    cfg = agent.config
    idx, _, weights = agent.buffer.sample(cfg.batch_size, rng)
    batch = [slots[j] for j in idx]
    targets = np.array([tr.reward for tr in batch], dtype=np.float64)
    live = [i for i, tr in enumerate(batch) if not tr.done]
    if live:
        next_states = [batch[i].next_state for i in live]
        q, offsets = q_forward_batch_oracle(agent.policy, next_states)
        best = [int(np.argmax(q.data[lo:hi])) for lo, hi in zip(offsets[:-1], offsets[1:])]
        targets[live] += cfg.gamma * q_forward_batch_oracle(
            agent.target, edge_views(next_states, best))[0].data

    taken = edge_views([tr.state for tr in batch], [tr.action for tr in batch])
    loss, diff = td_loss_oracle(q_forward_batch_oracle(agent.policy, taken)[0], targets, weights)
    agent.optimizer.zero_grad()
    loss.backward()
    adam_step_oracle(agent.optimizer)
    agent.buffer.update_priorities(idx, diff.data.copy())
    soft_update_oracle(agent.target, agent.policy, cfg.soft_update_rate)
    agent.update_steps += 1
    return float(loss.data), diff.data


def adam_step_oracle(opt):
    """`nnet.Adam.step`, parameter by parameter, writing the parameters and
    the moments in place."""
    for p in opt.params:
        if p.grad is None:
            raise PruneRLError(f"missing gradient for parameter {p.name}")
        if not np.isfinite(p.grad).all():
            raise PruneRLError(f"non-finite gradient for parameter {p.name}")
    opt.step_count += 1
    b1c = 1.0 - BETA1 ** opt.step_count
    b2c = 1.0 - BETA2 ** opt.step_count
    for p, m, v in zip(opt.params, opt.m, opt.v):
        m[...] = BETA1 * m + (1.0 - BETA1) * p.grad
        v[...] = BETA2 * v + (1.0 - BETA2) * p.grad ** 2
        p.data -= opt.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
    opt.zero_grad()


def soft_update_oracle(target, policy, rate):
    """`QModel.soft_update_from`, parameter by parameter, in place."""
    for dst, src in zip(target.parameters(), policy.parameters()):
        dst.data[...] = (1.0 - rate) * dst.data + rate * src.data


def snapshot_dicts(sub):
    """A sample's node snapshot as {node: neighbors}, {node: degrees}."""
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
    proj_centers = linear(model.gat_proj, gather_rows(model.embeddings, centers))
    proj_nbrs = linear(model.gat_proj, gather_rows(model.embeddings, nbrs))
    scores = linear(model.gat_score, concat([proj_centers, proj_nbrs], axis=1))
    scores = leaky_relu(reshape(scores, (-1,)), ATTENTION_SLOPE)
    weights = segment_softmax(scores, segments, len(nodes))
    weighted = mul(reshape(weights, (-1, 1)), proj_nbrs)
    return segment_sum(weighted, segments, len(nodes))


def q_forward_oracle(model, sub):
    """Q-value per candidate edge of one subgraph; Tensor of shape (len(sub),)."""
    neighborhoods, node_degrees = snapshot_dicts(sub)
    pairs = sub.nodes[sub.ends].tolist()
    nodes = sorted({n for pair in pairs for n in pair})
    pos = {n: i for i, n in enumerate(nodes)}
    gat_out = gat_node_encode_oracle(model, neighborhoods, nodes)
    degs = np.array([node_degrees[n] for n in nodes], dtype=np.float64)
    degs = degs / max(1, model.node_count - 1)
    ratio = np.full((len(nodes), 1), sub.edge_ratio[0, 0])  # one ratio per sample
    x = concat([gat_out, Tensor(degs), Tensor(ratio)], axis=1)
    h = leaky_relu(linear(model.node_fc1, x), HIDDEN_SLOPE)
    enc = leaky_relu(linear(model.node_fc2, h), HIDDEN_SLOPE)
    enc_u = gather_rows(enc, [pos[u] for u, _ in pairs])
    enc_v = gather_rows(enc, [pos[v] for _, v in pairs])
    if model.directed:
        pair = concat([enc_u, enc_v], axis=1)
    else:
        pair = add(enc_u, enc_v)
    h = leaky_relu(linear(model.edge_fc1, pair), HIDDEN_SLOPE)
    h = leaky_relu(linear(model.edge_fc2, h), HIDDEN_SLOPE)
    return reshape(linear(model.head, h), (-1,))


def double_dqn_target_oracle(batch, policy, target, gamma):
    out = np.empty(len(batch))
    for i, tr in enumerate(batch):
        if tr.done or gamma == 0.0:
            out[i] = tr.reward
        else:
            a = int(np.argmax(q_forward_oracle(policy, tr.next_state).data))
            out[i] = tr.reward + gamma * q_forward_oracle(target, tr.next_state).data[a]
    return out


# ------------------------------------------------------------- graph pruning


def sample_subgraph_oracle(g, size, rng):
    """`Graph.sample_subgraph` before the graph kept `nbr_order`, for
    1 <= size and a live edge: the endpoints' CSR rows read in edge-id order,
    then one argsort on (segment, 0 for the node itself or 1 + neighbour)
    orders each hood."""
    picked = rng.choice(g._live_ids[: g.edge_count], size=min(size, g.edge_count), replace=False)
    pairs = np.stack([g.src[picked], g.dst[picked]], axis=1)
    nodes = np.unique(pairs)
    starts, counts = g.indptr[nodes], g.indptr[nodes + 1] - g.indptr[nodes]
    rows = concat_ranges(starts, counts)
    live = g.alive[g.eids[rows]]
    nbrs = g.nbrs[rows[live]]
    seg = np.concatenate([np.arange(nodes.size), np.repeat(np.arange(nodes.size), counts)[live]])
    order = np.argsort(seg * (g.node_count + 1) + np.concatenate([np.zeros_like(nodes), nbrs + 1]))
    return CandidateSubgraph(
        eids=picked,
        ends=np.searchsorted(nodes, pairs),
        hood_ptr=np.concatenate(([0], np.cumsum(np.bincount(seg)))),
        hood=np.concatenate([nodes, nbrs])[order],
        node_degrees=g.deg[nodes],
        edge_ratio=np.full((nodes.size, 1), g.edge_kept_ratio()),
    )


def prune_edges_oracle(g, eids):
    """`Graph.prune_edges` as one `prune_edge` call per id."""
    for eid in eids:
        g.prune_edge(int(eid))


def copy_listed_oracle(g, path):
    """The per-line loop that `Graph.copy_listed` replaced, on a well-formed
    file: each line resolved with `Graph.edge_id`, and the first line that
    names no edge of `g` raising DataError."""
    kept = []
    with open(path) as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                a, b = (int(x) for x in line.split())
                u, v = g.id_map.get(a), g.id_map.get(b)
                eid = None if u is None or v is None else edge_id(g, u, v)
                if eid is None:
                    raise DataError(f"{path}:{line_no}: edge ({a}, {b}) is not in the dataset")
                kept.append(eid)
    return g.copy_keeping(np.array(kept, dtype=np.int64))


def load_edge_list_oracle(path, directed=False):
    """What `load_edge_list` reads from a well-formed file: (id_map, edges,
    self_loops, duplicates), ids compacted in order of first appearance and
    edges in file order."""
    pairs = []
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if line and not line.startswith("#"):
                u, v = line.split()
                pairs.append((int(u), int(v)))
    id_map = {}
    for u, v in pairs:
        for x in (u, v):
            if x not in id_map:
                id_map[x] = len(id_map)
    seen = set()
    edges = []
    self_loops = 0
    duplicates = 0
    for u, v in pairs:
        cu, cv = id_map[u], id_map[v]
        if cu == cv:
            self_loops += 1
            continue
        key = (cu, cv) if directed else (min(cu, cv), max(cu, cv))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        edges.append((cu, cv))
    return id_map, edges, self_loops, duplicates


# ------------------------------------------------------------ graph kernels


def adjacency(g):
    """[{neighbor: eid}] of the live edges, each dict in edge id order
    (out-neighbors when directed)."""
    adj = [dict() for _ in range(g.node_count)]
    for eid in sorted(g.live_edge_ids().tolist()):
        u, v = int(g.src[eid]), int(g.dst[eid])
        adj[u][v] = eid
        if not g.directed:
            adj[v][u] = eid
    return adj


def pagerank_oracle(g, damping=0.85, tol=1e-10, max_iter=200):
    adj = adjacency(g)
    n = g.node_count
    x = np.full(n, 1.0 / n)
    out_deg = np.array([len(adj[u]) for u in range(n)], dtype=np.float64)
    dangling = out_deg == 0
    for _ in range(max_iter):
        nxt = np.zeros(n)
        for u in range(n):
            if out_deg[u]:
                share = x[u] / out_deg[u]
                for v in adj[u]:
                    nxt[v] += share
        nxt = (1.0 - damping) / n + damping * (nxt + x[dangling].sum() / n)
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise AssertionError("oracle pagerank did not converge")


def bfs_distances_oracle(g, source, adj=None):
    adj = adjacency(g) if adj is None else adj
    dist = np.full(g.node_count, math.inf)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == math.inf:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def batch_spsp_oracle(g, pairs):
    adj = adjacency(g)
    by_source = {u: bfs_distances_oracle(g, u, adj) for u, _ in pairs}
    out = []
    for u, v in pairs:
        d = by_source[u][v]
        out.append(math.inf if d == math.inf else int(d))
    return out


def modularity_oracle(g, labels):
    m = g.edge_count
    if m == 0:
        return 0.0
    intra, deg_sum = {}, {}
    for eid in g.live_edge_ids():
        u, v = int(g.src[eid]), int(g.dst[eid])
        if labels[u] == labels[v]:
            intra[labels[u]] = intra.get(labels[u], 0) + 1
    for n in range(g.node_count):
        deg_sum[labels[n]] = deg_sum.get(labels[n], 0) + int(g.deg[n, 0])
    q = 0.0
    for c, d in deg_sum.items():
        q += intra.get(c, 0) / m - (d / (2.0 * m)) ** 2
    return q


def jaccard_closed(g, u, v, adj=None):
    """Jaccard similarity of the closed neighborhoods N(u)+{u}, N(v)+{v}."""
    adj = adjacency(g) if adj is None else adj
    nu = set(adj[u]) | {u}
    nv = set(adj[v]) | {v}
    return len(nu & nv) / len(nu | nv)


def local_degree_survivors(g):
    """kept(a): edge ids kept at exponent a, each node keeping its top
    floor(deg^a) incident edges by (-neighbor degree, eid)."""
    adj, deg = adjacency(g), g.deg[:, 0]

    def kept(a):
        out = set()
        for v in range(g.node_count):
            inc = sorted(adj[v].items(), key=lambda kv: (-deg[kv[0]], kv[1]))
            k = int(math.floor(deg[v] ** a)) if deg[v] > 0 else 0
            out.update(eid for _, eid in inc[:k])
        return out

    return kept


def l_spar_survivors(g):
    """kept(x): edge ids kept at exponent x, each node keeping its top
    ceil(deg^x) incident edges by (-Jaccard, eid)."""
    adj = adjacency(g)
    sim = {eid: jaccard_closed(g, int(g.src[eid]), int(g.dst[eid]), adj)
           for eid in g.live_edge_ids().tolist()}

    def kept(x):
        out = set()
        for v in range(g.node_count):
            inc = sorted(adj[v].items(), key=lambda kv: (-sim[kv[1]], kv[1]))
            deg = g.deg[v, 0]
            k = int(math.ceil(deg ** x)) if deg > 0 else 0
            out.update(eid for _, eid in inc[:k])
        return out

    return kept


def baswana_sen_spanner_oracle(g, t_stretch, rng):
    """Sorted kept edge ids of `baselines.baswana_sen_spanner`, computed on a
    residual adjacency of dicts nbr -> eid, one vertex at a time. Each round
    samples the clusters in ascending center order."""
    k = (t_stretch + 1) // 2
    n = g.node_count
    work = adjacency(g)
    residual_nodes = set(range(n))
    spanner = set()
    center = {v: v for v in range(n)}  # cluster center per residual vertex
    sample_p = n ** (-1.0 / k)

    def lightest_per_cluster(v):
        """center -> (neighbor, eid) of the lowest-id residual edge into
        that neighbor's cluster."""
        best = {}
        for u, eid in work[v].items():
            c = center[u]
            if c not in best or eid < best[c][1]:
                best[c] = (u, eid)
        return best

    for _ in range(k - 1):
        sampled = {c for c in sorted(set(center.values())) if rng.random() < sample_p}
        add_edges = set()
        remove_edges = set()
        new_center = {}
        for v in residual_nodes:
            if center[v] in sampled:
                continue
            best = lightest_per_cluster(v)
            sampled_adj = [c for c in best if c in sampled]
            if not sampled_adj:
                # connect once per adjacent cluster; v surrenders every
                # residual edge and leaves the clustering
                for c, (u, eid) in best.items():
                    add_edges.add(eid)
                remove_edges.update(work[v].values())
            else:
                closest = min(sampled_adj, key=lambda c: best[c][1])
                closest_w = best[closest][1]
                add_edges.add(closest_w)
                new_center[v] = closest
                # also connect to strictly lighter clusters, then drop edges
                # into the closest cluster and every strictly lighter one
                for c, (u, eid) in best.items():
                    if eid < closest_w:
                        add_edges.add(eid)
                for u, eid in work[v].items():
                    cu = center[u]
                    if cu == closest or best[cu][1] < closest_w:
                        remove_edges.add(eid)
        for node, c in center.items():
            if c in sampled:
                new_center[node] = c
        spanner |= add_edges
        for eid in remove_edges:
            a, b = int(g.src[eid]), int(g.dst[eid])
            work[a].pop(b, None)
            work[b].pop(a, None)
        center = new_center
        # drop edges that ended up inside one cluster, and vertices that
        # left the clustering
        for a in list(residual_nodes):
            if a not in center:
                for b in list(work[a]):
                    work[b].pop(a, None)
                work[a].clear()
                residual_nodes.discard(a)
        for a in residual_nodes:
            for b in [x for x in work[a] if center[a] == center[x]]:
                work[a].pop(b, None)
                work[b].pop(a, None)

    # phase 2: every vertex connects once to each adjacent surviving cluster
    for v in residual_nodes:
        for c, (u, eid) in lightest_per_cluster(v).items():
            spanner.add(eid)
    return np.array(sorted(spanner), dtype=np.int64)


def louvain_oracle(g, rng, resolution=1.0, min_gain=1e-12):
    """The dict-of-dicts form of `metrics.louvain`: the same rng draws,
    visit order and first-seen tie order, on dict rows and numpy scalars."""
    n = g.node_count
    if g.edge_count == 0:
        return Partition(labels=np.arange(n), modularity=0.0)

    # weighted working graph: list of dicts nbr->weight, loops[i] = self-loop weight
    adj = [dict() for _ in range(n)]
    for eid in g.live_edge_ids():
        u, v = int(g.src[eid]), int(g.dst[eid])
        adj[u][v] = adj[u].get(v, 0.0) + 1.0
        adj[v][u] = adj[v].get(u, 0.0) + 1.0
    loops = np.zeros(n)
    node_of = [[i] for i in range(n)]  # original nodes inside each super-node
    m2 = 2.0 * g.edge_count

    while True:
        nn = len(adj)
        k = np.array([sum(a.values()) + 2.0 * loops[i] for i, a in enumerate(adj)])
        comm = np.arange(nn)
        comm_tot = k.copy()  # sum of degrees per community
        improved_any = False
        order = np.arange(nn)
        while True:
            moved = 0
            rng.shuffle(order)
            for i in order:
                ci = comm[i]
                # weights from i to each neighboring community
                w2c = {}
                for j, w in adj[i].items():
                    w2c[comm[j]] = w2c.get(comm[j], 0.0) + w
                comm_tot[ci] -= k[i]
                base = w2c.get(ci, 0.0) - resolution * comm_tot[ci] * k[i] / m2
                best_c, best_gain = ci, 0.0
                for c, w in w2c.items():
                    if c == ci:
                        continue
                    gain = (w - resolution * comm_tot[c] * k[i] / m2) - base
                    if gain > best_gain + min_gain:
                        best_gain = gain
                        best_c = c
                comm_tot[best_c] += k[i]
                if best_c != ci:
                    comm[i] = best_c
                    moved += 1
                    improved_any = True
            if moved == 0:
                break
        if not improved_any:
            break
        # aggregate communities into super-nodes
        uniq = {c: idx for idx, c in enumerate(sorted(set(int(c) for c in comm)))}
        new_n = len(uniq)
        new_adj = [dict() for _ in range(new_n)]
        new_loops = np.zeros(new_n)
        new_nodes = [[] for _ in range(new_n)]
        for i in range(nn):
            ci = uniq[int(comm[i])]
            new_nodes[ci].extend(node_of[i])
            new_loops[ci] += loops[i]
            for j, w in adj[i].items():
                cj = uniq[int(comm[j])]
                if ci == cj:
                    if i < j:
                        new_loops[ci] += w
                elif i != j:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
        adj = new_adj
        loops = new_loops
        node_of = new_nodes
        if new_n == nn:
            break

    labels = np.empty(n, dtype=np.int64)  # the array form `metrics.louvain` returns
    for c, members in enumerate(node_of):
        labels[members] = c
    q = modularity(g, labels)
    return Partition(labels=labels, modularity=q)


class SumTree:
    """Complete binary tree whose leaves hold priorities; internal nodes hold
    subtree sums, so prefix sampling is O(log n)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.tree = np.zeros(2 * capacity - 1)

    def update(self, leaf, value):
        idx = leaf + self.capacity - 1
        change = value - self.tree[idx]
        self.tree[idx] = value
        while idx != 0:
            idx = (idx - 1) // 2
            self.tree[idx] += change

    def get(self, leaf):
        return self.tree[leaf + self.capacity - 1]

    def total(self):
        return self.tree[0]

    def find(self, value):
        """Leaf index whose cumulative-priority interval contains value."""
        idx = 0
        while True:
            left = 2 * idx + 1
            if left >= len(self.tree):
                return idx - (self.capacity - 1)
            if value <= self.tree[left]:
                idx = left
            else:
                value -= self.tree[left]
                idx = left + 1


class SumTreeReplay:
    """The priorities and sampling of `ReplayBuffer` over a `SumTree`; it
    stores no transitions, so `sample` returns (indices, weights)."""

    def __init__(self, capacity, alpha=0.6, beta=0.4, priority_floor=1e-3):
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.priority_floor = priority_floor
        self.tree = SumTree(capacity)
        self.raw_priority = np.zeros(capacity)
        self.write = 0
        self.size = 0
        self.max_priority = 1.0

    def add(self, priority=None):
        p = self.max_priority if priority is None else priority
        self.raw_priority[self.write] = p
        self.tree.update(self.write, p ** self.alpha)
        self.write = (self.write + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.max_priority = max(self.max_priority, p)

    def sample(self, batch_size, rng):
        total = self.tree.total()
        idx = np.empty(batch_size, dtype=np.int64)
        for i in range(batch_size):
            idx[i] = self.tree.find(rng.random() * total)
        probs = np.array([self.tree.get(j) for j in idx]) / total
        weights = (self.size * probs) ** (-self.beta)
        min_prob = (self.raw_priority[: self.size] ** self.alpha).min() / total
        weights /= (self.size * min_prob) ** (-self.beta)
        return idx, weights

    def update_priorities(self, indices, td_errors):
        for j, td in zip(indices, td_errors):
            p = abs(float(td)) + self.priority_floor
            self.raw_priority[j] = p
            self.tree.update(int(j), p ** self.alpha)
            self.max_priority = max(self.max_priority, p)
