"""Prioritized experience replay over one array of priority weights, with the
replayed snapshots packed into one store.

Items are sampled with probability priority^alpha / sum(priority^alpha) and
corrected with importance weights (N * P(i))^-beta, normalized by the
largest weight in the buffer. Each slot keeps priority^alpha; a sample takes
one cumulative sum and one `searchsorted`, since the weight normalizer scans
every slot anyway and a sum tree's O(log N) draws would save nothing.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import PruneRLError
from .graph import CandidateSubgraph, concat_ranges

# sampled items: each one's state and next-state records in `store` (the
# state's again when done), action, reward and done flag
Batch = namedtuple("Batch", "store states next_states actions rewards done")


@dataclass
class Transition:
    """One agent step: state, chosen edge index, reward, next state."""

    state: CandidateSubgraph
    action: int
    reward: float
    next_state: CandidateSubgraph  # ignored when done
    done: bool

    def __post_init__(self):
        if not (0 <= self.action < len(self.state)):
            raise PruneRLError(
                f"action index {self.action} out of range for state of length {len(self.state)}"
            )


class SnapshotStore:
    """Sampled snapshots packed into flat arrays that grow on demand, one
    record each. Record r, row r of `rec` (edge, node row and hood starts,
    then their counts), spans rows of the edge arrays (`eids`, and `ends` as
    store node rows), of the node-row arrays (`deg`, `ratio`, and
    `hood_start` and `hood_len` into `hood`) and of `hood`.
    """

    SPACES = (("rec",), ("eids", "ends"), ("deg", "ratio", "hood_start", "hood_len"), ("hood",))
    REC, EDGE, NODE, HOOD = range(4)  # the index spaces, whose arrays SPACES names

    def __init__(self):
        self.used = [0] * len(self.SPACES)  # rows per space
        self.room = [0] * len(self.SPACES)  # rows the arrays of each space hold
        self._last = None  # the snapshot the last record holds

    def _grow(self, sub):
        """At least double the rows of each space short of room, so appends
        cost O(1) amortized; the first snapshot sets dtypes and widths."""
        first = dict(rec=np.zeros((0, 6), dtype=np.int64), eids=sub.eids, ends=sub.ends,
                     deg=sub.node_degrees, ratio=sub.edge_ratio, hood_start=sub.hood_ptr,
                     hood_len=sub.hood_ptr, hood=sub.hood)
        for space, names in enumerate(self.SPACES):
            room, need = self.room[space], self.used[space]
            if need > room:
                self.room[space] = max(need, 2 * room)
                for name in names:
                    old = self.__dict__.get(name, first[name])
                    arr = np.empty((self.room[space],) + old.shape[1:], old.dtype)
                    arr[:room] = old[:room]
                    setattr(self, name, arr)

    def add(self, sub):
        """Append a sampled snapshot, unless it is the last one added (the
        same object, as an episode hands a next state on); returns its record."""
        if sub is not self._last:
            self._last, ptr = sub, sub.hood_ptr
            r, e0, n0, h0 = self.used
            e, n, h = len(sub.eids), len(ptr) - 1, len(sub.hood)
            self.used[:] = r + 1, e0 + e, n0 + n, h0 + h
            if any(map(int.__gt__, self.used, self.room)):
                self._grow(sub)
            self.rec[r] = e0, n0, h0, e, n, h
            self.eids[e0:e0 + e] = sub.eids
            np.add(sub.ends, n0, out=self.ends[e0:e0 + e])
            self.deg[n0:n0 + n] = sub.node_degrees
            self.ratio[n0:n0 + n] = sub.edge_ratio
            np.add(ptr[:-1], h0, out=self.hood_start[n0:n0 + n])
            np.subtract(ptr[1:], ptr[:-1], out=self.hood_len[n0:n0 + n])
            self.hood[h0:h0 + h] = sub.hood
        return self.used[self.REC] - 1

    def drop_before(self, first):
        """Drop the records before `first`, which nothing refers to, once
        they fill more than half of some space, and renumber the rest from
        0: the store never holds more than twice what its live records need."""
        lo = [int(first), *self.rec[first, :3].tolist()]
        if all(2 * a <= n for a, n in zip(lo, self.used)):
            return False
        self.used[:] = [n - a for a, n in zip(lo, self.used)]
        for names, a, n in zip(self.SPACES, lo, self.used):
            for name in names:
                arr = getattr(self, name)
                arr[:n] = arr[a:a + n]
        self.rec[:self.used[self.REC], :3] -= lo[1:]
        self.ends[:self.used[self.EDGE]] -= lo[self.NODE]
        self.hood_start[:self.used[self.NODE]] -= lo[self.HOOD]
        return True

    def _snapshot(self, eids, ends, nrows, hood):
        """Candidates `eids`, `ends` over store node rows `nrows`, whose
        neighborhoods `hood` holds."""
        hood_ptr = np.concatenate(([0], np.cumsum(self.hood_len.take(nrows))))
        return CandidateSubgraph(eids=eids, ends=ends, hood_ptr=hood_ptr, hood=hood,
                                 node_degrees=self.deg.take(nrows, axis=0),
                                 edge_ratio=self.ratio.take(nrows, axis=0))

    def candidates(self, recs):
        """Every candidate of records `recs`, laid out as their snapshots'
        concatenation: item after item, each item's endpoint rows shifted past
        the node rows before it; also each item's first candidate and count."""
        e0, n0, h0, edges, nodes, hoods = self.rec.take(recs, axis=0).T
        erows, nrows = concat_ranges(e0, edges), concat_ranges(n0, nodes)
        ends = self.ends.take(erows, axis=0) - np.repeat(n0 - np.cumsum(nodes) + nodes, edges)[:, None]
        hood = self.hood.take(concat_ranges(h0, hoods))  # a record's hoods lie together
        sub = self._snapshot(self.eids.take(erows), ends, nrows, hood)
        return sub, np.cumsum(edges) - edges, edges

    def rows(self, recs, rows):
        """Candidate rows[i] of record recs[i] alone, item i's node rows 2i
        (source) and 2i + 1 (destination), unsorted: the order that keeps
        training bit-identical to its op-by-op oracle."""
        erows = self.rec.take(recs, axis=0)[:, 0] + rows
        nrows = self.ends.take(erows, axis=0).reshape(-1)
        hood = self.hood.take(concat_ranges(self.hood_start.take(nrows), self.hood_len.take(nrows)))
        return self._snapshot(self.eids.take(erows), np.arange(len(nrows)).reshape(-1, 2), nrows, hood)


class ReplayBuffer:
    """Ring buffer of transitions with proportional prioritized sampling. A
    slot keeps its action, reward and done flag, and its state's and next
    state's records in `store`."""

    def __init__(self, capacity, alpha=0.6, beta=0.4, priority_floor=1e-3):
        if capacity < 1:
            raise PruneRLError("replay capacity must be >= 1")
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.priority_floor = priority_floor
        self.store = SnapshotStore()
        self.recs = np.zeros((capacity, 2), dtype=np.int64)
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.done = np.zeros(capacity, dtype=bool)
        self.weight = np.zeros(capacity)  # priority ** alpha per slot
        self.write = 0
        self.size = 0
        self.max_priority = 1.0

    def __len__(self):
        return self.size

    def add(self, transition, priority=None):
        """Insert with the given raw priority (defaults to the current max,
        so fresh transitions are sampled at least once soon)."""
        p = self.max_priority if priority is None else priority
        if p <= 0:
            raise PruneRLError("transition priority must be positive")
        tr, w = transition, self.write
        state = self.store.add(tr.state)
        self.recs[w] = state, state if tr.done else self.store.add(tr.next_state)
        self.action[w], self.reward[w], self.done[w] = tr.action, tr.reward, tr.done
        self.weight[w] = p ** self.alpha
        self.write = (w + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.max_priority = max(self.max_priority, p)
        # the oldest slot's state is the first record a slot refers to (0
        # while the slot is unwritten)
        first = self.recs[self.write, 0]
        if self.store.drop_before(first):
            self.recs[:self.size] -= first

    def batch(self, slots):
        """The items in `slots`, repeats allowed."""
        return Batch(self.store, *self.recs[slots].T, self.action[slots], self.reward[slots],
                     self.done[slots])

    def sample(self, batch_size, rng):
        """Proportional sample; returns (indices, batch, weights)."""
        if self.size == 0:
            raise PruneRLError("cannot sample from an empty replay buffer")
        w = self.weight[: self.size]
        cdf = np.cumsum(w)
        total = cdf[-1]
        # side="left": a draw on a boundary takes the lower slot; the last
        # entry is the total, so no index passes size - 1
        idx = np.searchsorted(cdf, rng.random(batch_size) * total)
        weights = (self.size * (w[idx] / total)) ** (-self.beta)
        # normalize by the largest weight over the whole buffer (min priority)
        weights /= (self.size * (w.min() / total)) ** (-self.beta)
        return idx, self.batch(idx), weights

    def update_priorities(self, indices, td_errors):
        """Set priority to |TD error| plus the floor so nothing starves. A
        slot named twice keeps its last TD error."""
        p = np.abs(np.asarray(td_errors, dtype=np.float64)) + self.priority_floor
        self.weight[indices] = p ** self.alpha
        self.max_priority = max(self.max_priority, float(p.max()))
