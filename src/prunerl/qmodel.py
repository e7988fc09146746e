"""Per-edge Q-value network: jointly trained node embeddings, a single-head
graph-attention node encoder over live 1-hop neighborhoods, a node MLP that
mixes in degrees and the edge-kept ratio, a symmetric edge encoder, and a
scalar value head.

Every edge in a candidate subgraph runs through the same network, so the
subgraph length is not fixed: any number of candidate edges can be scored.
"""

import json
import zipfile

import numpy as np

from . import nnet
from .errors import ConfigError, DataError, PruneRLError
from .nnet import Linear, Tensor

ATTENTION_SLOPE = 0.2  # leaky slope inside attention scoring
HIDDEN_SLOPE = 0.01  # leaky slope in the encoder MLPs


class SubgraphUnion:
    """The disjoint union of candidate subgraphs as one graph's index arrays,
    built once and shared by every pass over the same subgraphs."""

    def __init__(self, subs):
        if not subs or any(len(s) == 0 for s in subs):
            raise PruneRLError("q_forward needs nonempty candidate subgraphs")
        counts = [len(s) for s in subs]
        self.offsets = np.cumsum([0] + counts)
        if len(subs) == 1:  # every acting pass: ~45 us less than the concatenations
            (s,) = subs
            self.hoods = nnet.Neighborhoods(s.hood_ptr, s.hood)
            self.node_degrees, self.ends = s.node_degrees, s.ends
            self.ratio = np.full((len(s.nodes), 1), s.edge_ratio)
            return
        sizes = [len(s.nodes) for s in subs]
        hood_base = np.cumsum([0] + [len(s.hood) for s in subs[:-1]])
        hood_ends = np.concatenate([s.hood_ptr[1:] for s in subs]) + np.repeat(hood_base, sizes)
        self.hoods = nnet.Neighborhoods(np.concatenate([[0], hood_ends]),
                                        np.concatenate([s.hood for s in subs]))
        self.node_degrees = np.concatenate([s.node_degrees for s in subs])
        self.ratio = np.repeat([s.edge_ratio for s in subs], sizes)[:, None]
        # each item's endpoint rows, shifted past the nodes of the items before it
        node_base = np.cumsum([0] + sizes[:-1])
        self.ends = np.concatenate([s.ends for s in subs]) + np.repeat(node_base, counts)[:, None]

    def pick(self, rows):
        """Candidate rows `rows` alone, scored as in this union up to rounding:
        item i is row rows[i]'s source then destination node rows, unsorted,
        the order that keeps training bit-identical to its op-by-op oracle."""
        nodes = self.ends[rows].reshape(-1)
        starts, lens = self.hoods.ptr[nodes], self.hoods.lens[nodes]
        ptr = np.concatenate([[0], np.cumsum(lens)])
        picked = object.__new__(SubgraphUnion)
        picked.hoods = nnet.Neighborhoods(
            ptr, self.hoods.hood[np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], lens)])
        picked.node_degrees, picked.ratio = self.node_degrees[nodes], self.ratio[nodes]
        picked.ends = np.arange(len(nodes)).reshape(-1, 2)
        picked.offsets = np.arange(len(rows) + 1)
        return picked


class QModel:
    """Q-value function over candidate prune edges of one fixed graph.

    The embedding table is per-node, so a trained model is tied to the graph
    it was trained on (transductive).
    """

    def __init__(self, node_count, directed=False, emb_dim=64, hidden_dim=128,
                 rng=None, emb_scale=0.1):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.node_count = node_count
        self.directed = directed
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        deg_dims = 2 if directed else 1

        self.embeddings = Tensor(
            rng.uniform(-emb_scale, emb_scale, size=(node_count, emb_dim)),
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

    # -------------------------------------------------------------- parameters

    def parameters(self):
        out = [self.embeddings]
        for layer in (self.gat_proj, self.gat_score, self.node_fc1,
                      self.node_fc2, self.edge_fc1, self.edge_fc2, self.head):
            out.extend(layer.parameters())
        return out

    def copy_from(self, other):
        for dst, src in zip(self.parameters(), other.parameters()):
            dst.data = src.data.copy()

    def soft_update_from(self, policy, rate):
        """Blend this model's parameters toward the policy's by `rate`."""
        for dst, src in zip(self.parameters(), policy.parameters()):
            dst.data = (1.0 - rate) * dst.data + rate * src.data

    # ------------------------------------------------------------------ layers

    def gat_encode(self, hood_ptr, hood, grad=True):
        """Attention-weighted aggregation over closed 1-hop neighborhoods:
        node i attends over CSR segment `hood[hood_ptr[i]:hood_ptr[i + 1]]`,
        itself (listed first) included, so an isolated node attends only to
        itself. Returns shape (len(hood_ptr) - 1, emb_dim): a Tensor, or with
        grad=False an array."""
        return self._attend(nnet.Neighborhoods(hood_ptr, hood), grad)

    def _attend(self, hoods, grad):
        return nnet.graph_attention(self.embeddings, self.gat_proj, self.gat_score, hoods,
                                    ATTENTION_SLOPE, grad)

    def q_forward_batch(self, subs, grad=True):
        """Q-values of several candidate subgraphs (a list, or their
        SubgraphUnion) in one pass over their disjoint union: (Tensor of every
        Q-value, offsets), the values of subs[i] being entries
        offsets[i]:offsets[i + 1]. Neighborhoods, degrees, and the edge ratio
        come from each subgraph's snapshot, so replayed states stay evaluable
        after further pruning.

        With grad=False the pass records no graph, and its Q-values, equal
        bit for bit to a recording pass's, are checked for finiteness.
        """
        u = subs if isinstance(subs, SubgraphUnion) else SubgraphUnion(subs)
        gat_out = self._attend(u.hoods, grad)
        degs = u.node_degrees / max(1, self.node_count - 1)  # feature scaling only
        x = nnet.concat_features(gat_out, (degs, u.ratio), grad)
        h = self.node_fc1(x, HIDDEN_SLOPE, grad)
        enc = self.node_fc2(h, HIDDEN_SLOPE, grad)
        # order-insensitive when undirected: Q(u,v) = Q(v,u)
        pair = nnet.pair_rows(enc, u.ends, self.directed, grad)
        h = self.edge_fc1(pair, HIDDEN_SLOPE, grad)
        h = self.edge_fc2(h, HIDDEN_SLOPE, grad)
        q = nnet.reshape(self.head(h, grad=grad), (-1,), grad)
        return (q if grad else Tensor(q, name="q")), u.offsets

    def q_forward(self, sub, require_live_in=None, grad=True):
        """Q-value per candidate edge; Tensor of shape (len(sub),).

        Pass a graph as `require_live_in` to reject stale snapshots (`sparsify`
        does; acting checks every state, scored or not; replay training does not).
        """
        if require_live_in is not None:
            sub.require_live(require_live_in)
        return self.q_forward_batch([sub], grad)[0]

    # -------------------------------------------------------------- checkpoint

    def config(self):
        return {
            "node_count": self.node_count,
            "directed": self.directed,
            "emb_dim": self.emb_dim,
            "hidden_dim": self.hidden_dim,
        }

    def state_arrays(self):
        return {f"param_{i}_{p.name}": p.data for i, p in enumerate(self.parameters())}

    def load_state_arrays(self, arrays):
        for i, p in enumerate(self.parameters()):
            key = f"param_{i}_{p.name}"
            if key not in arrays:
                raise DataError(f"checkpoint missing parameter {key}")
            data = np.asarray(arrays[key], dtype=np.float64)
            if data.shape != p.data.shape:
                raise DataError(
                    f"checkpoint shape {data.shape} != model shape {p.data.shape} for {p.name}"
                )
            p.data = data.copy()

    @classmethod
    def from_config(cls, cfg, rng=None):
        return cls(
            node_count=int(cfg["node_count"]),
            directed=bool(cfg["directed"]),
            emb_dim=int(cfg["emb_dim"]),
            hidden_dim=int(cfg["hidden_dim"]),
            rng=rng,
        )


def save_checkpoint(path, model, extra=None, optimizer=None, agent_state=None,
                    extra_arrays=None):
    """Versioned binary checkpoint: parameter tensors with shape headers plus
    a JSON header describing the model and optional training state."""
    header = {
        "format_version": 1,
        "model": model.config(),
        "extra": extra or {},
        "agent_state": agent_state or {},
    }
    arrays = dict(model.state_arrays())
    if extra_arrays:
        arrays.update(extra_arrays)
    if optimizer is not None:
        header["optimizer"] = {"step_count": optimizer.step_count}
        for i, m in enumerate(optimizer.m):
            arrays[f"opt_m_{i}"] = m
        for i, v in enumerate(optimizer.v):
            arrays[f"opt_v_{i}"] = v
    arrays["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path, rng=None):
    """Load a checkpoint. Returns (model, header, raw arrays); raises
    ConfigError for a file that is not an npz archive with a JSON header."""
    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # ValueError: would need pickle
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a prunerl checkpoint (not an npz archive)")
    with z:
        arrays = {k: z[k] for k in z.files}
    try:
        header = json.loads(bytes(arrays.pop("__header__")).decode())
    except KeyError:
        raise ConfigError(f"{path}: not a prunerl checkpoint (no __header__ array)") from None
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConfigError(f"{path}: not a prunerl checkpoint (header is not JSON: {exc})") from None
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: not a prunerl checkpoint (header is not a JSON object)")
    if header.get("format_version") != 1:
        raise DataError(f"unsupported checkpoint version {header.get('format_version')}")
    missing = sorted({"model", "extra", "agent_state"} - header.keys())
    if missing:
        raise ConfigError(f"{path}: not a prunerl checkpoint (header lacks {', '.join(missing)})")
    model = QModel.from_config(header["model"], rng=rng)
    model.load_state_arrays(arrays)
    return model, header, arrays
