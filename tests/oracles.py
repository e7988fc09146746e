"""Reference implementations that tests compare the fast code against.

`q_forward_oracle` scores one candidate subgraph at a time, projecting and
scoring every (center, neighbor) row of the attention layer on its own;
`double_dqn_target_oracle` makes two forward passes per transition. They are
the per-item forms of `QModel.q_forward_batch` and `agent.double_dqn_target`.

The graph kernels below walk a dict-of-dicts adjacency in Python, rebuilt
from the live edges in edge id order: the forms of `metrics.pagerank`,
`bfs_distances`, `batch_spsp` and `modularity`, of `baselines.jaccard_scores`,
and of the per-exponent survivor sets of `local_degree` and `l_spar`.
`louvain_oracle` is the dict form of `metrics.louvain`; its dicts are filled
in `live_edge_ids()` order, which pruning's swap-removes reorder.
"""

import math

import numpy as np

from prunerl import nnet
from prunerl.metrics import Partition, modularity
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
    pairs = sub.nodes[sub.ends].tolist()
    nodes = sorted({n for pair in pairs for n in pair})
    pos = {n: i for i, n in enumerate(nodes)}
    gat_out = gat_node_encode_oracle(model, neighborhoods, nodes)
    degs = np.array([node_degrees[n] for n in nodes], dtype=np.float64)
    degs = degs / max(1, model.node_count - 1)
    ratio = np.full((len(nodes), 1), sub.edge_ratio)
    x = nnet.concat([gat_out, Tensor(degs), Tensor(ratio)], axis=1)
    h = nnet.leaky_relu(model.node_fc1(x), HIDDEN_SLOPE)
    enc = nnet.leaky_relu(model.node_fc2(h), HIDDEN_SLOPE)
    enc_u = nnet.gather_rows(enc, [pos[u] for u, _ in pairs])
    enc_v = nnet.gather_rows(enc, [pos[v] for _, v in pairs])
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
        deg_sum[labels[n]] = deg_sum.get(labels[n], 0) + int(g.degree[n])
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
    adj, deg = adjacency(g), g.degree

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
            k = int(math.ceil(g.degree[v] ** x)) if g.degree[v] > 0 else 0
            out.update(eid for _, eid in inc[:k])
        return out

    return kept


def louvain_oracle(g, rng, resolution=1.0, min_gain=1e-12):
    """The dict-of-dicts form of `metrics.louvain`: the same rng draws,
    visit order and first-seen tie order, on dict rows and numpy scalars."""
    n = g.node_count
    if g.edge_count == 0:
        return Partition(labels={i: i for i in range(n)}, modularity=0.0)

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

    labels = {}
    for c, members in enumerate(node_of):
        for orig in members:
            labels[orig] = c
    q = modularity(g, labels)
    return Partition(labels=labels, modularity=q)
