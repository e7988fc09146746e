"""How fast the machine runs right now, gauged with a fixed reference kernel.

A shared host changes speed by tens of percent over tens of seconds (other
tenants, frequency and cache pressure), and the change shows in thread CPU
time as much as in wall time. The benchmark therefore runs this kernel,
which does not depend on the program under test, between operations, about
RUNS_PER_S times per second of the run, and reports the run's times *at
reference speed*:

    measured wall time * REFERENCE_S / (kernel time over the run)

where the kernel time is the mean of the middle half of its runs.

A change to the program moves the numerator only. The kernel mixes the kinds
of work prunerl spends its time on: interpreted loops over adjacency sets
(pagerank, Louvain, BFS, graph sampling), many small numpy calls (the
Q-network's layers and their gradients) and loads scattered over more
memory than the caches hold. It shares the caches with the program, so it
is not wholly independent of it: how much of its table stays cached depends
on how much memory the program touches.
"""

import array
import statistics
import time

import numpy as np

# Kernel wall time that defines reference speed; about its time on an idle
# 2-core Xeon.
REFERENCE_S = 0.025
# Kernel runs per second of the run, so the kernel samples it evenly.
RUNS_PER_S = 1.5

_N = 2000
_ADJ = [{(u + 1) % _N, (u - 1) % _N, (u * 7 + 3) % _N} - {u} for u in range(_N)]
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((48, 16))
_W1 = _RNG.standard_normal((16, 32)) * 0.1
_W2 = _RNG.standard_normal((32, 1)) * 0.1
# one cycle through 2M slots (8 MB), visited in random order
_order = _RNG.permutation(2_000_000)
_next = np.empty(len(_order), dtype=np.int32)
_next[_order] = np.roll(_order, -1)
_CHASE = array.array("i", _next.tobytes())
del _order, _next


def bfs_sweeps():
    """Interpreted traversal of adjacency sets, as in pagerank, Louvain
    and subgraph sampling."""
    total = 0
    for src in (0, 401, 802, 1203, 1604):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    return total


def small_network():
    """Many small numpy calls: a two-layer network's forward and backward
    pass, as in the Q-network."""
    acc = 0.0
    for _ in range(200):
        h = _X @ _W1
        a = np.where(h > 0, h, 0.01 * h)
        y = a @ _W2
        g = np.ones_like(y) / len(y)
        ga = (g @ _W2.T) * np.where(h > 0, 1.0, 0.01)
        acc += float((_X.T @ ga).sum() + (a.T @ g).sum())
    return acc


def pointer_chase():
    """Dependent loads scattered over a table larger than the caches, as
    when the interpreter walks a large heap of graph objects."""
    i = 0
    for _ in range(80_000):
        i = _CHASE[i]
    return i


def kernel():
    """Fixed work, independent of the program under test, mixed so that it
    slows down with the machine about as much as prunerl does."""
    return bfs_sweeps(), small_network(), pointer_chase()


class Gauge:
    """Kernel timings taken through a run."""

    def __init__(self):
        self.times = []  # wall time of each kernel run
        self.last = None  # perf_counter when the last kernel run ended

    def measure(self, runs=None):
        """Run the kernel ``runs`` times; by default as many times as the
        time since the last measurement calls for, and at least once."""
        if runs is None:
            since = time.perf_counter() - self.last if self.last else 0.0
            runs = round(RUNS_PER_S * since)
        for _ in range(max(1, runs)):
            t0 = time.perf_counter()
            kernel()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def factor(self):
        """Wall time -> time at reference speed, over the whole run: the
        mean of the middle half of the kernel times, so a kernel run that a
        brief stall hit does not move it."""
        if not self.times:
            raise ValueError("no kernel timing to gauge speed by")
        xs = sorted(self.times)
        cut = len(xs) // 4
        return REFERENCE_S / statistics.fmean(xs[cut:len(xs) - cut])
