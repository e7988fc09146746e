"""Prioritized experience replay over one array of priority weights, with the
replayed snapshots packed into one store.

Items are sampled with probability priority^alpha / sum(priority^alpha) and
corrected with importance weights (N * P(i))^-beta, normalized by the
largest weight in the buffer. Each slot keeps priority^alpha; a sample takes
one cumulative sum and one `searchsorted`, since the weight normalizer scans
every slot anyway and a sum tree's O(log N) draws would save nothing.
"""

from collections import namedtuple

import numpy as np

from .errors import PruneRLError
from .graph import CandidateSubgraph, concat_ranges

# sampled items: each one's state and next-state records in `store` (the
# state's again when done), action, reward and done flag
Batch = namedtuple("Batch", "store states next_states actions rewards done")


class SnapshotStore:
    """Sampled snapshots packed into flat arrays that grow on demand, one
    record each, and the records of each replay slot: slot s holds records
    `recs[s]`, its state's and its next state's (the state's again when
    done). Record r, row r of `rec` (edge, node row and hood starts, then
    the edge and node row counts), spans rows of the edge arrays (`eids`,
    and `ends` as store node rows), of the node-row arrays (`deg`, `ratio`
    and `hood_start` into `hood`) and of `hood`. A node row's hood is its
    last degree column plus one entries long, as a sample lays it out.
    """

    SPACES = (("rec",), ("eids", "ends"), ("deg", "ratio", "hood_start"), ("hood",))
    REC, EDGE, NODE, HOOD = range(4)  # the index spaces, whose arrays SPACES names

    def __init__(self, capacity):
        self.recs = np.zeros((capacity, 2), dtype=np.int64)  # 0 while a slot is unwritten
        self.used = [0] * len(self.SPACES)  # rows per space
        self.room = [0] * len(self.SPACES)  # rows the arrays of each space hold
        self._last = None  # the snapshot the last record holds

    def _grow(self, sub):
        """At least double the rows of each space short of room, so appends
        cost O(1) amortized; the first snapshot sets dtypes and widths."""
        first = dict(rec=np.zeros((0, 5), dtype=np.int64), eids=sub.eids, ends=sub.ends,
                     deg=sub.node_degrees, ratio=sub.edge_ratio, hood_start=sub.hood_ptr,
                     hood=sub.hood)
        for space, names in enumerate(self.SPACES):
            room, need = self.room[space], self.used[space]
            if need > room:
                self.room[space] = max(need, 2 * room)
                for name in names:
                    old = self.__dict__.get(name, first[name])
                    arr = np.empty((self.room[space],) + old.shape[1:], old.dtype)
                    arr[:room] = old[:room]
                    setattr(self, name, arr)

    def _add(self, sub):
        """Append a sampled snapshot, unless it is the last one added (the
        same object, as an episode hands a next state on); returns its record."""
        if sub is not self._last:
            self._last = sub
            r, e0, n0, h0 = self.used
            e, n, h = len(sub.eids), len(sub.node_degrees), len(sub.hood)
            self.used[:] = r + 1, e0 + e, n0 + n, h0 + h
            if any(map(int.__gt__, self.used, self.room)):
                self._grow(sub)
            self.rec[r] = e0, n0, h0, e, n
            self.eids[e0:e0 + e] = sub.eids
            np.add(sub.ends, n0, out=self.ends[e0:e0 + e])
            self.deg[n0:n0 + n] = sub.node_degrees
            self.ratio[n0:n0 + n] = sub.edge_ratio
            np.add(sub.hood_ptr[:-1], h0, out=self.hood_start[n0:n0 + n])
            self.hood[h0:h0 + h] = sub.hood
        return self.used[self.REC] - 1

    def put(self, slot, state, next_state, done):
        """Pack a step's snapshots as slot `slot`'s records (`next_state` only
        when not done), then drop the records no slot refers to any more."""
        rec = self._add(state)
        self.recs[slot] = rec, rec if done else self._add(next_state)
        # the oldest slot's state is the first record a slot refers to
        self._drop_before(self.recs[(slot + 1) % len(self.recs), 0])

    def _drop_before(self, first):
        """Drop the records before `first` once they fill more than half of
        some space, and renumber the rest from 0: the store never holds more
        than twice what its live records need. Only a full ring drops any (an
        unwritten oldest slot gives `first` 0), so every slot is renumbered."""
        lo = [int(first), *self.rec[first, :3].tolist()]
        if all(2 * a <= n for a, n in zip(lo, self.used)):
            return
        self.used[:] = [n - a for a, n in zip(lo, self.used)]
        for names, a, n in zip(self.SPACES, lo, self.used):
            for name in names:
                arr = getattr(self, name)
                arr[:n] = arr[a:a + n]
        self.rec[:self.used[self.REC], :3] -= lo[1:]
        self.ends[:self.used[self.EDGE]] -= lo[self.NODE]
        self.hood_start[:self.used[self.NODE]] -= lo[self.HOOD]
        self.recs -= first

    def _snapshot(self, eids, ends, nrows):
        """Candidates `eids`, `ends` over store node rows `nrows`, with those
        rows' neighborhoods."""
        deg = self.deg.take(nrows, axis=0)
        lens = deg[:, -1] + 1
        hood = self.hood.take(concat_ranges(self.hood_start.take(nrows), lens))
        return CandidateSubgraph(eids=eids, ends=ends, hood_ptr=np.concatenate(([0], np.cumsum(lens))),
                                 hood=hood, node_degrees=deg, edge_ratio=self.ratio.take(nrows, axis=0))

    def candidates(self, recs):
        """Every candidate of records `recs`, laid out as their snapshots'
        concatenation: item after item, each item's endpoint rows shifted past
        the node rows before it; also each item's first candidate and count."""
        e0, n0, _, edges, nodes = self.rec.take(recs, axis=0).T
        erows, nrows = concat_ranges(e0, edges), concat_ranges(n0, nodes)
        ends = self.ends.take(erows, axis=0) - np.repeat(n0 - np.cumsum(nodes) + nodes, edges)[:, None]
        return self._snapshot(self.eids.take(erows), ends, nrows), np.cumsum(edges) - edges, edges

    def rows(self, recs, rows):
        """Candidate rows[i] of record recs[i] alone, item i's node rows 2i
        (source) and 2i + 1 (destination), unsorted: the order that keeps
        training bit-identical to its op-by-op oracle."""
        erows = self.rec.take(recs, axis=0)[:, 0] + rows
        nrows = self.ends.take(erows, axis=0).reshape(-1)
        return self._snapshot(self.eids.take(erows), np.arange(len(nrows)).reshape(-1, 2), nrows)


class ReplayBuffer:
    """Ring buffer of agent steps with proportional prioritized sampling. A
    slot keeps its action, reward and done flag, and `store` its state's and
    next state's snapshots."""

    def __init__(self, capacity, alpha=0.6, beta=0.4, priority_floor=1e-3):
        if capacity < 1:
            raise PruneRLError("replay capacity must be >= 1")
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.priority_floor = priority_floor
        self.store = SnapshotStore(capacity)
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.done = np.zeros(capacity, dtype=bool)
        self.weight = np.zeros(capacity)  # priority ** alpha per slot
        self.write = 0
        self.size = 0
        self.max_priority = 1.0

    def __len__(self):
        return self.size

    def add(self, state, action, reward, next_state, done, priority=None):
        """Insert one step, candidate `action` of `state` taken (`next_state`
        is ignored when done), with the given raw priority (defaults to the
        current max, so fresh steps are sampled at least once soon)."""
        if not (0 <= action < len(state)):
            raise PruneRLError(f"action index {action} out of range for state of length {len(state)}")
        p = self.max_priority if priority is None else priority
        if p <= 0:
            raise PruneRLError("transition priority must be positive")
        w = self.write
        self.store.put(w, state, next_state, done)
        self.action[w], self.reward[w], self.done[w] = action, reward, done
        self.weight[w] = p ** self.alpha
        self.write = (w + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.max_priority = max(self.max_priority, p)

    def batch(self, slots):
        """The items in `slots`, repeats allowed."""
        return Batch(self.store, *self.store.recs[slots].T, self.action[slots], self.reward[slots],
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
