"""Graph representation, edge-list ingestion, pruning, and subgraph sampling.

The graph keeps a stable id per original edge and one array adjacency (CSR)
of all original edges. Pruning only flips a liveness flag, so the adjacency
is shared by every copy, and an edge id held by a stored candidate snapshot
still names the same endpoints long after the edge is gone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CommunityFileError, DataError, DeadEdgeError, EdgeListParseError, PruneRLError


@dataclass
class CandidateSubgraph:
    """A uniformly sampled batch of live edges presented to the agent.

    Degrees, 1-hop neighborhoods, and the edge-kept ratio are snapshots taken
    at sampling time, so a stored state stays evaluable after further pruning.
    Candidate edge j is edge id `eids[j]` with endpoints
    `nodes[ends[j]]` (source first). Node i's closed neighborhood,
    `hood[hood_ptr[i]:hood_ptr[i + 1]]`, is the node itself and then its
    sorted live (out-)neighbors.
    """

    eids: np.ndarray  # (k,) sampled live edge ids
    ends: np.ndarray  # (k, 2) endpoint rows into nodes
    nodes: np.ndarray  # sorted distinct endpoint ids
    hood_ptr: np.ndarray  # len(nodes) + 1 offsets into hood
    hood: np.ndarray  # closed neighborhoods, concatenated
    node_degrees: np.ndarray  # per node: (degree,), or (in, out) when directed
    edge_ratio: float

    def __len__(self):
        return len(self.eids)

    def require_live(self, g):
        """Raise DeadEdgeError if a candidate edge is pruned in `g` (a stale snapshot)."""
        dead = self.eids[~g.alive[self.eids]]
        if dead.size:
            raise DeadEdgeError(f"stale candidate edge id {dead[0]}")


class Graph:
    """Mutable edge-set view over an immutable original edge list.

    Undirected edges are stored once logically: (u, v) and (v, u) resolve to
    the same stable edge id. Self-loops and duplicates are rejected by the
    constructor (ingestion drops them before construction).
    """

    def __init__(self, node_count, edges, directed=False, id_map=None):
        if node_count <= 0:
            raise PruneRLError("graph must have at least one node")
        self.node_count = node_count
        self.directed = directed
        # original ids of compacted nodes; identity when not loaded from file
        self.id_map = id_map if id_map is not None else {i: i for i in range(node_count)}
        self.inverse_id_map = {c: o for o, c in self.id_map.items()}

        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = len(pairs)
        self.src, self.dst = pairs[:, 0].copy(), pairs[:, 1].copy()
        if m and (pairs.min() < 0 or pairs.max() >= node_count):
            raise PruneRLError(f"edge endpoint out of range for {node_count} nodes")
        # the first offending edge in id order names the error
        ends = pairs if directed else np.sort(pairs, axis=1)
        _, first = np.unique(ends[:, 0] * node_count + ends[:, 1], return_index=True)
        bad = np.flatnonzero((np.bincount(first, minlength=m) == 0) | (self.src == self.dst))
        if bad.size:
            u, v = int(self.src[bad[0]]), int(self.dst[bad[0]])
            raise PruneRLError(f"self-loop ({u},{u}) not allowed" if u == v
                               else f"duplicate edge ({u},{v})")
        # CSR of every original edge (both directions when undirected), rows
        # in (node, edge id) order: the order neighbours are visited in
        both = pairs if directed else np.concatenate([pairs, pairs[:, ::-1]])
        eids = np.tile(np.arange(m), 1 if directed else 2)
        order = np.argsort(both[:, 0] * (m + 1) + eids)
        row_len = np.bincount(both[:, 0], minlength=node_count)
        self.indptr = np.concatenate(([0], np.cumsum(row_len)))
        self.nbrs, self.eids = both[order, 1], eids[order]

        self.alive = np.ones(m, dtype=bool)
        self.original_edge_count = m
        self.edge_count = m
        # swap-remove list of live edge ids for O(1) uniform sampling
        self._live_ids = np.arange(m, dtype=np.int64)
        self._live_pos = np.arange(m, dtype=np.int64)

        if directed:
            self.out_degree = row_len
            self.in_degree = np.bincount(self.dst, minlength=node_count)
        else:
            self.degree = row_len

    # ------------------------------------------------------------------ basics

    def copy(self):
        g = object.__new__(Graph)
        g.node_count = self.node_count
        g.directed = self.directed
        g.id_map = self.id_map
        g.inverse_id_map = self.inverse_id_map
        g.src = self.src
        g.dst = self.dst
        g.indptr, g.nbrs, g.eids = self.indptr, self.nbrs, self.eids
        g.alive = self.alive.copy()
        g.original_edge_count = self.original_edge_count
        g.edge_count = self.edge_count
        g._live_ids = self._live_ids.copy()
        g._live_pos = self._live_pos.copy()
        if self.directed:
            g.out_degree = self.out_degree.copy()
            g.in_degree = self.in_degree.copy()
        else:
            g.degree = self.degree.copy()
        return g

    def edge_id(self, u, v):
        """Stable id of edge (u, v), live or pruned, or None if it never existed."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        hits = np.flatnonzero(self.nbrs[lo:hi] == v)
        return int(self.eids[lo + hits[0]]) if hits.size else None

    def is_alive(self, eid):
        return bool(self.alive[eid])

    def live_edge_ids(self):
        return self._live_ids[: self.edge_count].copy()

    def live_csr(self):
        """(indptr, nbrs, eids) of the live edges, rows in (node, edge id)
        order; undirected edges appear in both endpoints' rows."""
        deg = self.out_degree if self.directed else self.degree
        live = self.alive[self.eids]
        return np.concatenate(([0], np.cumsum(deg))), self.nbrs[live], self.eids[live]

    def edge_kept_ratio(self):
        return self.edge_count / self.original_edge_count

    # ----------------------------------------------------------------- pruning

    def prune_edge(self, eid):
        """Remove a live edge by id. Pruning a dead edge is a bookkeeping bug."""
        if not self.alive[eid]:
            raise DeadEdgeError(f"edge id {eid} is already pruned")
        u, v = int(self.src[eid]), int(self.dst[eid])
        self.alive[eid] = False
        if not self.directed:
            self.degree[u] -= 1
            self.degree[v] -= 1
        else:
            self.out_degree[u] -= 1
            self.in_degree[v] -= 1
        # swap-remove from the live id list
        pos = self._live_pos[eid]
        last = self._live_ids[self.edge_count - 1]
        self._live_ids[pos] = last
        self._live_pos[last] = pos
        self.edge_count -= 1

    def prune_edges(self, eids):
        """Remove live edges by id, leaving every array exactly as a
        `prune_edge` loop over the same ids in the same order would. A dead
        or repeated id raises before anything changes."""
        eids = np.asarray(eids, dtype=np.int64)
        alive = self.alive.copy()
        alive[eids] = False
        if self.edge_count - np.count_nonzero(alive) != eids.size:
            seen = set()
            for eid in eids.tolist():
                if eid in seen or not self.alive[eid]:
                    raise DeadEdgeError(f"edge id {eid} is already pruned")
                seen.add(eid)
        self.alive[:] = alive
        src = np.bincount(self.src[eids], minlength=self.node_count)
        dst = np.bincount(self.dst[eids], minlength=self.node_count)
        if not self.directed:
            self.degree -= src + dst
        else:
            self.out_degree -= src
            self.in_degree -= dst
        # the swap-removes of the loop, in order, on Python lists
        ids, pos = self._live_ids.tolist(), self._live_pos.tolist()
        n = self.edge_count
        for eid in eids.tolist():
            n -= 1
            p, last = pos[eid], ids[n]
            ids[p], pos[last] = last, p
        self._live_ids[:], self._live_pos[:] = ids, pos
        self.edge_count = n

    def random_prune(self, count, rng):
        """Prune `count` distinct live edges uniformly at random."""
        if count < 0 or count > self.edge_count:
            raise PruneRLError(
                f"cannot prune {count} of {self.edge_count} live edges"
            )
        # draw i is uniform over the edge_count - i edges still live then,
        # consuming the rng as one draw per prune would
        ids, n = self._live_ids[: self.edge_count].tolist(), self.edge_count
        picked = []
        for p in rng.integers(np.arange(n, n - count, -1)).tolist():
            n -= 1
            picked.append(ids[p])
            ids[p] = ids[n]
        self.prune_edges(picked)

    def sample_subgraph(self, size, rng):
        """Sample min(size, live) distinct live edges uniformly, with snapshots."""
        if size < 1:
            raise PruneRLError("subgraph size must be >= 1")
        if self.edge_count == 0:
            raise PruneRLError("cannot sample a subgraph from an edgeless graph")
        k = min(size, self.edge_count)
        picked = rng.choice(self._live_ids[: self.edge_count], size=k, replace=False)
        pairs = np.stack([self.src[picked], self.dst[picked]], axis=1)
        nodes = np.unique(pairs)
        # gather the nodes' CSR rows and keep the live entries; one sort on
        # (segment, 0 for the node itself or 1 + neighbour) orders each hood
        starts, counts = self.indptr[nodes], self.indptr[nodes + 1] - self.indptr[nodes]
        rows = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        live = self.alive[self.eids[rows]]
        nbrs = self.nbrs[rows[live]]
        seg = np.concatenate([np.arange(nodes.size), np.repeat(np.arange(nodes.size), counts)[live]])
        order = np.argsort(seg * (self.node_count + 1) + np.concatenate([np.zeros_like(nodes), nbrs + 1]))
        if self.directed:
            node_degrees = np.stack([self.in_degree[nodes], self.out_degree[nodes]], axis=1)
        else:
            node_degrees = self.degree[nodes][:, None]
        return CandidateSubgraph(
            eids=picked,
            ends=np.searchsorted(nodes, pairs),
            nodes=nodes,
            hood_ptr=np.concatenate(([0], np.cumsum(np.bincount(seg)))),
            hood=np.concatenate([nodes, nbrs])[order],
            node_degrees=node_degrees,
            edge_ratio=self.edge_kept_ratio(),
        )

    # --------------------------------------------------------------------- io

    def save_edge_list(self, path, header_lines=()):
        """Write live edges in stable edge-id order using original node ids."""
        with open(path, "w") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            for eid in sorted(self.live_edge_ids()):
                u = self.inverse_id_map[int(self.src[eid])]
                v = self.inverse_id_map[int(self.dst[eid])]
                f.write(f"{u} {v}\n")

    def live_edge_set(self):
        """Frozenset of live edges in original ids (canonical order if undirected)."""
        out = set()
        for eid in self.live_edge_ids():
            u = self.inverse_id_map[int(self.src[eid])]
            v = self.inverse_id_map[int(self.dst[eid])]
            out.add((u, v) if self.directed else (min(u, v), max(u, v)))
        return frozenset(out)


def load_edge_list(path, directed=False):
    """Load a whitespace-separated "u v" edge list ('#' lines are comments).

    Node ids are compacted to 0..|V|-1; the original ids are kept in
    ``Graph.id_map``. Self-loops and duplicate edges are dropped and counted
    in ``Graph.dropped_self_loops`` / ``Graph.dropped_duplicates``.
    """
    pairs = []
    with open(path) as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(path, line_no, raw.rstrip("\n"))
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(path, line_no, raw.rstrip("\n")) from None
            pairs.append((u, v))
    if not pairs:
        raise DataError(f"{path}: empty edge set")

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
    if not edges:
        raise DataError(f"{path}: no usable edges after dropping loops/duplicates")

    g = Graph(len(id_map), edges, directed=directed, id_map=id_map)
    g.dropped_self_loops = self_loops
    g.dropped_duplicates = duplicates
    return g


def load_communities(path, graph):
    """Load ground-truth communities: one community per line, space-separated ids.

    Returns a dict mapping compact node id -> community index. Communities
    must be non-overlapping, and every listed id must exist in the graph.
    """
    labels = {}
    with open(path) as f:
        idx = 0
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            for tok in line.split():
                try:
                    node = int(tok)
                except ValueError:
                    raise CommunityFileError(
                        f"{path}:{line_no}: node id {tok!r} is not an integer") from None
                if node not in graph.id_map:
                    raise CommunityFileError(f"{path}: node id {node} not in graph")
                cid = graph.id_map[node]
                if cid in labels:
                    raise CommunityFileError(
                        f"{path}: node id {node} appears in more than one community"
                    )
                labels[cid] = idx
            idx += 1
    return labels
