"""Prioritized experience replay over one array of priority weights.

Items are sampled with probability priority^alpha / sum(priority^alpha) and
corrected with importance weights (N * P(i))^-beta, normalized by the
largest weight in the buffer. Each slot keeps priority^alpha; a sample takes
one cumulative sum and one `searchsorted`, since the weight normalizer scans
every slot anyway and a sum tree's O(log N) draws would save nothing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PruneRLError
from .graph import CandidateSubgraph


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


class ReplayBuffer:
    """Ring buffer of transitions with proportional prioritized sampling."""

    def __init__(self, capacity, alpha=0.6, beta=0.4, priority_floor=1e-3):
        if capacity < 1:
            raise PruneRLError("replay capacity must be >= 1")
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta
        self.priority_floor = priority_floor
        self.data = [None] * capacity
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
        self.data[self.write] = transition
        self.weight[self.write] = p ** self.alpha
        self.write = (self.write + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.max_priority = max(self.max_priority, p)

    def sample(self, batch_size, rng):
        """Proportional sample; returns (indices, transitions, weights)."""
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
        return idx, [self.data[j] for j in idx], weights

    def update_priorities(self, indices, td_errors):
        """Set priority to |TD error| plus the floor so nothing starves. A
        slot named twice keeps its last TD error."""
        p = np.abs(np.asarray(td_errors, dtype=np.float64)) + self.priority_floor
        self.weight[indices] = p ** self.alpha
        self.max_priority = max(self.max_priority, float(p.max()))
