"""In-memory span tracing around prunerl's public functions, and the
arithmetic that turns spans into per-layer numbers.

A span records its name, wall and thread-CPU start/end, thread id, parent
span and an optional work size (candidate edges, query pairs). Counters for
calls too hot or too small for a span (``Tensor.__init__``,
``Graph.prune_edge``) are charged to the innermost open span of the calling
thread. Nothing is written until the caller asks for it.

Wrappers go where callers look the names up: a module-level function is
replaced in every ``prunerl`` module that imported it by name, and a method
is replaced on its class.
"""

import contextlib
import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict


def percentile(values, q):
    """The q-th percentile (linear interpolation between order statistics).

    A tail percentile (q > 50) is refused unless at least ten samples lie
    beyond it, so it never rests on a handful of outliers.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q > 50 and math.floor(n * (100 - q) / 100 + 1e-9) < 10:
        raise ValueError(f"p{q} needs >= 10 samples beyond it, have {n} samples")
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "wall0", "wall1",
                 "cpu0", "cpu1", "size", "counts")

    def __init__(self, id, name, parent, thread, wall0, cpu0, size=None):
        self.id = id
        self.name = name
        self.parent = parent  # parent span id, 0 for a root
        self.thread = thread
        self.wall0 = wall0
        self.wall1 = None
        self.cpu0 = cpu0
        self.cpu1 = None
        self.size = size
        self.counts = None

    @property
    def wall(self):
        return self.wall1 - self.wall0

    @property
    def cpu(self):
        return self.cpu1 - self.cpu0

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans from every thread of the process.

    A span opened on a thread with no open span of its own is parented to
    the innermost open span of the thread that created the tracer, so work a
    thread pool does for a call is charged to that call.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, size=None):
        stack = self._stack()
        home = stack or self._main_stack
        # CPU readings bracket the wall readings, so a child's clock reads
        # are charged to the child and never to its parent's self CPU
        cpu0 = time.thread_time_ns()
        span = Span(next(self._ids), name, home[-1].id if home else 0,
                    threading.get_ident(), time.perf_counter_ns(), cpu0, size)
        stack.append(span)
        return span

    def _close(self, span):
        span.wall1 = time.perf_counter_ns()
        span.cpu1 = time.thread_time_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around its own calls."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name):
        """Charge one ``name`` event to the innermost open span; an event
        with no span open anywhere is not recorded."""
        stack = self._stack() or self._main_stack
        if not stack:
            return
        span = stack[-1]
        if span.counts is None:
            span.counts = {}
        span.counts[name] = span.counts.get(name, 0) + 1

    # ------------------------------------------------------------- wrapping

    def traced(self, fn, name, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, size(args) if size else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def wrap_function(self, module, attr, name, size=None):
        """Replace ``module.attr`` in every prunerl module that holds it."""
        original = getattr(module, attr)
        wrapped = self.traced(original, name, size)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prunerl" or mod_name.startswith("prunerl.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, original))

    def wrap_method(self, cls, attr, name, size=None, count_only=False):
        original = cls.__dict__[attr]
        wrapped = self.counted(original, name) if count_only else self.traced(original, name, size)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_dict()) + "\n")


def _len_arg(i):
    return lambda args: len(args[i])


def install(tracer):
    """Wrap the public entry points of every prunerl layer."""
    from prunerl import agent, baselines, cli, graph, metrics, nnet, qmodel, replay, rewards

    for attr in ("load_edge_list", "load_communities"):
        tracer.wrap_function(graph, attr, f"graph.{attr}")
    for attr in ("pagerank", "louvain", "modularity", "bfs_distances",
                 "spearman_rho", "adjusted_rand_index"):
        tracer.wrap_function(metrics, attr, f"metrics.{attr}")
    tracer.wrap_function(metrics, "batch_spsp", "metrics.batch_spsp", size=_len_arg(1))
    for attr in ("random_edge", "local_degree", "edge_forest_fire", "l_spar"):
        tracer.wrap_function(baselines, attr, f"baselines.{attr}")
    tracer.wrap_function(cli, "main", "cli.main")

    for attr in ("train_step", "run_episode", "sparsify"):
        tracer.wrap_method(agent.Agent, attr, f"agent.{attr}")
    tracer.wrap_method(qmodel.QModel, "q_forward", "qmodel.q_forward", size=_len_arg(1))
    tracer.wrap_method(nnet.Tensor, "backward", "nnet.Tensor.backward")
    tracer.wrap_method(nnet.Tensor, "__init__", "nnet.Tensor", count_only=True)
    tracer.wrap_method(nnet.Adam, "step", "nnet.Adam.step")
    for attr in ("sample", "update_priorities", "add"):
        tracer.wrap_method(replay.ReplayBuffer, attr, f"replay.{attr}")
    tracer.wrap_method(graph.Graph, "sample_subgraph", "graph.sample_subgraph")
    tracer.wrap_method(graph.Graph, "copy", "graph.copy")
    tracer.wrap_method(graph.Graph, "prune_edge", "graph.prune_edge", count_only=True)
    for cls in (rewards.PagerankReward, rewards.CommunityReward,
                rewards.SpspReward, rewards.ModularityReward):
        tracer.wrap_method(cls, "after_prune", "rewards.after_prune")


# --------------------------------------------------------------- arithmetic


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class SpanTree:
    """Spans indexed by parent, with self time and subtree counts."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def self_wall(self, span):
        """Duration minus the part of it that child spans (any thread) cover."""
        kids = [(c.wall0, c.wall1) for c in self.children[span.id]]
        return span.wall - covered(kids, span.wall0, span.wall1)

    def self_cpu(self, span):
        """Thread CPU minus that of children on the same thread."""
        return span.cpu - sum(c.cpu for c in self.children[span.id]
                              if c.thread == span.thread)

    def subtree_counts(self, span):
        total = Counter(span.counts or {})
        todo = list(self.children[span.id])
        while todo:
            s = todo.pop()
            if s.counts:
                total.update(s.counts)
            todo.extend(self.children[s.id])
        return total

    def subtree_calls(self, span, name):
        n = 0
        todo = list(self.children[span.id])
        while todo:
            s = todo.pop()
            n += s.name == name
            todo.extend(self.children[s.id])
        return n

    def layer_times(self):
        """Per layer (name prefix): self CPU ns (busy) and self wall minus
        self CPU ns (wait). A span's wait is floored at 0: it goes negative
        only when its thread ran while other threads' children covered the
        interval, or by the few clock reads per child."""
        busy = Counter()
        wait = Counter()
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            sw, sc = self.self_wall(s), self.self_cpu(s)
            busy[layer] += sc
            wait[layer] += max(0, sw - sc)
        return busy, wait
