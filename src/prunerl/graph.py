"""Graph representation, edge-list ingestion, pruning, and subgraph sampling.

The graph keeps a stable id per original edge and one array adjacency (CSR)
of all original edges. Pruning only flips a liveness flag, so the adjacency
is shared by every copy, and an edge id held by a stored candidate snapshot
still names the same endpoints long after the edge is gone.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import CommunityFileError, DataError, DeadEdgeError, EdgeListParseError, PruneRLError


@dataclass
class CandidateSubgraph:
    """Candidate edges with the snapshot the agent scores them on: a sample
    of live edges, or a replay batch's gather of stored samples (see
    `replay.SnapshotStore`). `QModel.q_forward` reads this type alone.

    Degrees, 1-hop neighborhoods, and the edge-kept ratio are snapshots taken
    at sampling time, so a stored state stays evaluable after further pruning.
    Candidate edge j is edge id `eids[j]` with endpoints
    `nodes[ends[j]]` (source first). Node row i's closed neighborhood,
    `hood[hood_ptr[i]:hood_ptr[i + 1]]`, is the node itself and then its
    sorted live (out-)neighbors. A sample lists each endpoint once, sorted;
    a gather of several may list a node in several rows.
    """

    eids: np.ndarray  # (k,) candidate edge ids
    ends: np.ndarray  # (k, 2) endpoint rows into nodes
    hood_ptr: np.ndarray  # node rows + 1 offsets into hood
    hood: np.ndarray  # closed neighborhoods, concatenated
    node_degrees: np.ndarray  # per node row: (degree,), or (in, out) when directed
    edge_ratio: np.ndarray  # (node rows, 1) edge-kept ratio at sampling time

    def __len__(self):
        return len(self.eids)

    @property
    def nodes(self):
        """Node id of each node row: the head of its neighborhood."""
        return self.hood[self.hood_ptr[:-1]]

    def require_live(self, g):
        """Raise DeadEdgeError if a candidate edge is pruned in `g` (a stale snapshot)."""
        dead = self.eids[~g.alive[self.eids]]
        if dead.size:
            raise DeadEdgeError(f"stale candidate edge id {dead[0]}")


def concat_ranges(starts, lens):
    """Indices of the ranges [starts[i], starts[i] + lens[i]), concatenated."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)


def _edge_keys(pairs, node_count, directed):
    """One int key per edge that `pairs` ((m, 2) compact ids) names; (v, u) is (u, v) undirected."""
    ends = pairs if directed else np.sort(pairs, axis=1)
    return ends[:, 0] * node_count + ends[:, 1]


def _simple_edges(pairs, node_count, directed):
    """Mask of the rows of `pairs` ((m, 2) compact ids) that are neither a
    self-loop nor a repeat of an earlier row."""
    _, first = np.unique(_edge_keys(pairs, node_count, directed), return_index=True)
    simple = np.zeros(len(pairs), dtype=bool)
    simple[first] = True
    return simple & (pairs[:, 0] != pairs[:, 1])


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
        # original id -> compact id, compact ids in insertion order; identity
        # when not loaded from file
        self.id_map = id_map if id_map is not None else {i: i for i in range(node_count)}
        self.original_ids = list(self.id_map)  # compact id -> original id

        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = len(pairs)
        self.src, self.dst = pairs[:, 0].copy(), pairs[:, 1].copy()
        if m and (pairs.min() < 0 or pairs.max() >= node_count):
            raise PruneRLError(f"edge endpoint out of range for {node_count} nodes")
        simple = _simple_edges(pairs, node_count, directed)
        if not simple.all():  # the first offending edge in id order names the error
            u, v = (int(x) for x in pairs[np.argmin(simple)])
            raise PruneRLError(f"self-loop ({u},{u}) not allowed" if u == v
                               else f"duplicate edge ({u},{v})")
        # CSR of every original edge (both directions when undirected), rows in (node,
        # edge id) order, which PageRank's sums, Louvain's ties and Edge Forest Fire's
        # draws follow; nbr_order: each row's positions in neighbour order (lexsort: ~7x slower)
        both = pairs if directed else np.concatenate([pairs, pairs[:, ::-1]])
        eids = np.tile(np.arange(m), 1 if directed else 2)
        order = np.argsort(both[:, 0] * (m + 1) + eids)
        row_len = np.bincount(both[:, 0], minlength=node_count)
        self.indptr = np.concatenate(([0], np.cumsum(row_len)))
        self.nbrs, self.eids = both[order, 1], eids[order]
        self.nbr_order = np.argsort(both[order, 0] * node_count + self.nbrs)

        self.alive = np.ones(m, dtype=bool)
        self.original_edge_count = m
        self.edge_count = m
        # swap-remove list of live edge ids for O(1) uniform sampling; private
        # to sampling and pruning, so its order never leaves the graph
        self._live_ids = np.arange(m, dtype=np.int64)
        self._live_pos = np.arange(m, dtype=np.int64)
        # live degrees in the rows a snapshot stores: (degree,), or (in, out)
        cols = [np.bincount(self.dst, minlength=node_count), row_len] if directed else [row_len]
        self.deg = np.stack(cols, axis=1)

    # ------------------------------------------------------------------ basics

    def copy(self):
        """A graph with its own live state; the original edges and id maps are shared."""
        g = object.__new__(Graph)
        g.__dict__.update(self.__dict__)
        g.alive, g.deg = self.alive.copy(), self.deg.copy()
        g._live_ids, g._live_pos = self._live_ids.copy(), self._live_pos.copy()
        return g

    def live_edge_ids(self):
        """Ids of the live edges in edge-id order, whatever order they were pruned in."""
        return np.flatnonzero(self.alive)

    def live_csr(self):
        """(indptr, nbrs, eids) of the live edges, rows in (node, edge id)
        order; undirected edges appear in both endpoints' rows."""
        live = self.alive[self.eids]
        return np.concatenate(([0], np.cumsum(self.deg[:, -1]))), self.nbrs[live], self.eids[live]

    def edge_kept_ratio(self):
        return self.edge_count / self.original_edge_count

    def edge_budget(self, r):
        """round(r * |E_original|), the live edge count edge-kept ratio r asks
        for. Raises unless r is in (0, 1] and that many edges are still live."""
        if not (0.0 < r <= 1.0):
            raise PruneRLError(f"edge-kept ratio must be in (0, 1], got {r}")
        target = int(round(r * self.original_edge_count))
        if target > self.edge_count:
            raise PruneRLError(f"target of {target} edges exceeds the {self.edge_count} still live")
        return target

    # ----------------------------------------------------------------- pruning

    def prune_edge(self, eid):
        """Remove a live edge by id. Pruning a dead edge is a bookkeeping bug."""
        if not self.alive[eid]:
            raise DeadEdgeError(f"edge id {eid} is already pruned")
        self.alive[eid] = False
        self.deg[self.src[eid], -1] -= 1  # out (or undirected) degree of the source
        self.deg[self.dst[eid], 0] -= 1  # in (or undirected) degree of the destination
        # swap-remove from the live id list
        pos = self._live_pos[eid]
        last = self._live_ids[self.edge_count - 1]
        self._live_ids[pos] = last
        self._live_pos[last] = pos
        self.edge_count -= 1

    def prune_edges(self, eids):
        """Remove live edges by id. The kept set and degrees end as a
        `prune_edge` loop over the same ids would leave them; the live id
        list ends in edge-id order. A dead or repeated id raises before
        anything changes."""
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
        self.deg[:, -1] -= np.bincount(self.src[eids], minlength=self.node_count)
        self.deg[:, 0] -= np.bincount(self.dst[eids], minlength=self.node_count)
        self.edge_count -= eids.size
        live = np.flatnonzero(alive)
        self._live_ids[: live.size] = live
        self._live_pos[live] = np.arange(live.size)

    def random_prune(self, count, rng):
        """Prune `count` distinct live edges uniformly at random. The draw
        depends on the live set and `rng` alone, not on the pruning history."""
        if count < 0 or count > self.edge_count:
            raise PruneRLError(
                f"cannot prune {count} of {self.edge_count} live edges"
            )
        self.prune_edges(rng.choice(self.live_edge_ids(), count, replace=False))

    def copy_keeping(self, eids):
        """A copy in which only the ids of the array `eids` that are live here stay live."""
        out = self.copy()
        live = self.live_edge_ids()
        out.prune_edges(live[~np.isin(live, eids)])
        return out

    def sample_subgraph(self, size, rng):
        """Sample min(size, live) distinct live edges uniformly, with snapshots."""
        if size < 1:
            raise PruneRLError("subgraph size must be >= 1")
        if self.edge_count == 0:
            raise PruneRLError("cannot sample a subgraph from an edgeless graph")
        picked = rng.choice(self._live_ids[: self.edge_count], min(size, self.edge_count), replace=False)
        pairs = np.stack([self.src.take(picked), self.dst.take(picked)], axis=1)
        ends = np.sort(pairs, axis=None)  # np.unique(pairs) below, minus numpy 2's hash table
        nodes = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
        degs = self.deg.take(nodes, axis=0)  # `take`: a gather without fancy indexing's set-up
        # the nodes' CSR rows read in neighbour order, so their live entries
        # come out sorted; a hood is its node, then a live (out-)degree of them
        starts = self.indptr.take(nodes)
        pos = self.nbr_order.take(concat_ranges(starts, self.indptr.take(nodes + 1) - starts))
        hood_ptr = np.concatenate(([0], np.cumsum(degs[:, -1] + 1)))
        hood = np.empty(hood_ptr[-1], dtype=np.int64)
        hood[hood_ptr[:-1]] = nodes
        is_nbr = np.ones(hood.size, dtype=bool)
        is_nbr[hood_ptr[:-1]] = False
        hood[is_nbr] = self.nbrs.take(pos[self.alive.take(self.eids.take(pos))])
        return CandidateSubgraph(eids=picked, ends=np.searchsorted(nodes, pairs), hood_ptr=hood_ptr,
                                 hood=hood, node_degrees=degs,
                                 edge_ratio=np.full((nodes.size, 1), self.edge_kept_ratio()))

    # --------------------------------------------------------------------- io

    def _live_original_edges(self):
        """The live edges as (u, v) pairs of original node ids, in edge-id order."""
        ids, eids = self.original_ids, self.live_edge_ids()
        return [(ids[u], ids[v]) for u, v in zip(self.src[eids].tolist(), self.dst[eids].tolist())]

    def save_edge_list(self, f, header_lines=()):
        """Write '#' header lines, then the live edges in edge-id order using original node ids."""
        f.writelines(f"# {line}\n" for line in header_lines)
        f.writelines(f"{u} {v}\n" for u, v in self._live_original_edges())

    def live_edge_set(self):
        """Frozenset of live edges in original ids (canonical order if undirected)."""
        edges = self._live_original_edges()
        return frozenset(edges if self.directed else
                         [(u, v) if u <= v else (v, u) for u, v in edges])

    def copy_listed(self, path):
        """A copy in which only the edges an edge-list file names (in original
        node ids) stay live. Being a copy, it keeps every node, so
        metric vectors stay index-aligned even when the file omits nodes that
        became isolated. A line naming no edge of this graph raises DataError
        (the first such line)."""
        lines = list(_edge_lines(path))
        pairs = np.array([(self.id_map.get(a, -1), self.id_map.get(b, -1)) for _, a, b in lines],
                         dtype=np.int64).reshape(-1, 2)  # -1: a node id the dataset lacks
        edges = np.stack([self.src, self.dst], axis=1)
        keys = _edge_keys(np.concatenate([edges, pairs]), self.node_count, self.directed)
        # the first row with a line's key is its edge, as edges come first with distinct keys
        _, first, same = np.unique(keys, return_index=True, return_inverse=True)
        eids = first[same[len(edges):]]
        found = (pairs >= 0).all(axis=1) & (eids < len(edges))  # -1 can still form an edge's key
        if not found.all():
            line_no, a, b = lines[np.argmin(found)]
            raise DataError(f"{path}:{line_no}: edge ({a}, {b}) is not in the dataset")
        return self.copy_keeping(eids)


def read_text(path):
    """A text input, read whole as UTF-8; DataError names the first byte that is not."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def open_output(path=None):
    """A text output (os.devnull without a path), written as UTF-8 whatever the locale; text
    UTF-8 cannot hold is backslash-escaped, so the file reads back through `read_text`."""
    return open(os.devnull if path is None else path, "w", encoding="utf-8",
                errors="backslashreplace", newline="")


def _text_lines(path):
    """(line number, line) for each line of a text input that is not blank or a '#' comment."""
    return [(line_no, line) for line_no, line in enumerate(read_text(path).split("\n"), start=1)
            if line.lstrip()[:1] not in ("", "#")]


def _edge_lines(path):
    """(line number, u, v) for each "u v" line of an edge-list file. Blank and
    '#' lines are skipped; any other line raises EdgeListParseError."""
    for line_no, line in _text_lines(path):
        try:
            a, b = line.split()
            u, v = int(a), int(b)
        except ValueError:
            raise EdgeListParseError(path, line_no, line) from None
        yield line_no, u, v


def load_edge_list(path, directed=False):
    """Load a whitespace-separated "u v" edge list ('#' lines are comments).

    Node ids are compacted to 0..|V|-1; the original ids are kept in
    ``Graph.id_map``. Self-loops and duplicate edges are dropped and counted
    in ``Graph.dropped_self_loops`` / ``Graph.dropped_duplicates``.
    """
    id_map = {}  # original id -> compact id, in order of first appearance
    ids = []
    for _, u, v in _edge_lines(path):
        ids.append(id_map.setdefault(u, len(id_map)))
        ids.append(id_map.setdefault(v, len(id_map)))
    if not ids:
        raise DataError(f"{path}: empty edge set")

    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    simple = _simple_edges(pairs, len(id_map), directed)
    if not simple.any():
        raise DataError(f"{path}: no usable edges after dropping loops/duplicates")

    g = Graph(len(id_map), pairs[simple], directed=directed, id_map=id_map)
    g.dropped_self_loops = int(np.count_nonzero(pairs[:, 0] == pairs[:, 1]))
    g.dropped_duplicates = len(pairs) - len(g.src) - g.dropped_self_loops
    return g


def load_communities(path, graph):
    """Load ground-truth communities: one community per line, space-separated ids.

    Returns the int64 array of each compact node id's community index, -1
    for a node no line lists. Communities must be non-overlapping, and every
    listed id must exist in the graph.
    """
    labels = np.full(graph.node_count, -1, dtype=np.int64)
    for idx, (line_no, line) in enumerate(_text_lines(path)):
        at = f"{path}:{line_no}: node id"
        for tok in line.split():
            try:
                node = int(tok)
            except ValueError:
                raise CommunityFileError(f"{at} {tok!r} is not an integer") from None
            if (cid := graph.id_map.get(node, -1)) < 0:
                raise CommunityFileError(f"{at} {node} is not in the dataset")
            if labels[cid] == idx:
                raise CommunityFileError(f"{at} {node} is listed twice on this line")
            if labels[cid] >= 0:
                raise CommunityFileError(f"{at} {node} appears in more than one community")
            labels[cid] = idx
    return labels
