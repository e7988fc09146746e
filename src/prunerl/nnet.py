"""Minimal reverse-mode autodiff over numpy float64 arrays, built from fused
layers whose backward is written by hand: Linear with its bias and leaky
ReLU, the graph-attention block, edge-endpoint pairing, and the weighted TD
loss are one graph node each. Adam completes it.

Every layer takes `grad`. With grad=False it returns the bare array and
records no parents or closures, so an inference pass runs the same forward
code as a training pass. Finiteness is checked where bad values can enter:
a Tensor built from caller data is checked on construction, the loss where
it is built, and every gradient in `Adam.step` before any parameter moves.
Op outputs in between are not checked.
"""

import math

import numpy as np
from scipy.sparse import _sparsetools

from .errors import PruneRLError, ShapeError


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "_backward", "_parents", "name")

    def __init__(self, data, parents=(), backward=None, name=None, check=True):
        self.data = np.asarray(data, dtype=np.float64)
        if check and not np.isfinite(self.data).all():
            raise PruneRLError(f"non-finite values in tensor {name or ''}")
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        # depth-first post-order; iterative, as a recursive closure would be
        # a reference cycle keeping the graph alive until the next gc pass
        topo, seen, todo = [], set(), [(self, False)]
        while todo:
            t, expanded = todo.pop()
            if expanded:
                topo.append(t)
            elif id(t) not in seen:
                seen.add(id(t))
                todo.append((t, True))
                todo.extend((p, False) for p in reversed(t._parents))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name})"


def value(x):
    """The array behind a Tensor; a no-grad pass hands layers bare arrays."""
    return x.data if isinstance(x, Tensor) else x


def _node(data, parents, backward):
    """An op output: a graph node, not checked for finiteness."""
    return Tensor(data, parents, backward, check=False)


def _scatter_rows(idx, values, n):
    """Sum the rows of a 1-D or 2-D array into `n` rows by index; bincount
    adds in input order, as np.add.at does, at a fraction of its cost."""
    if values.ndim == 1:
        return np.bincount(idx, weights=values, minlength=n)
    width = values.shape[1]
    flat = ((idx * width)[:, None] + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * width).reshape(n, width)


def _leaky_relu_(y, slope):
    """Leaky ReLU in place: y * 1 above zero, y * slope at or below it."""
    return np.maximum(y, slope * y, out=y)


def _leaky_grad(g, y, slope):
    """Gradient through a leaky ReLU from its output (same sign as its input)."""
    return g * np.where(y > 0, 1.0, slope)


# ------------------------------------------------------------ fused layers


def reshape(a, shape, grad=True):
    out = value(a).reshape(shape)
    if not grad:
        return out
    return _node(out, (a,), lambda g: a._accum(g.reshape(a.data.shape)))


def concat_features(a, features, grad=True):
    """Columns of `a` followed by the constant columns of `features`."""
    out = np.concatenate([value(a)] + list(features), axis=1)
    if not grad:
        return out
    width = a.data.shape[1]
    return _node(out, (a,), lambda g: a._accum(g[:, :width]))


def pair_rows(a, ends, side_by_side, grad=True):
    """Rows ends[:, 0] and ends[:, 1] of a 2-D tensor, side by side or summed."""
    data = value(a)
    u, v = data.take(ends[:, 0], axis=0), data.take(ends[:, 1], axis=0)
    out = np.concatenate([u, v], axis=1) if side_by_side else u + v
    if not grad:
        return out
    n, width = data.shape

    def backward(g):
        gu, gv = (g[:, :width], g[:, width:]) if side_by_side else (g, g)
        a._accum(_scatter_rows(ends[:, 0], gu, n))
        a._accum(_scatter_rows(ends[:, 1], gv, n))

    return _node(out, (a,), backward)


class Linear:
    """y = x @ W + b with fan-in-scaled uniform init; called with a `slope`,
    the leaky ReLU of that in the same node."""

    def __init__(self, in_dim, out_dim, rng, bias=True, name="linear"):
        bound = 1.0 / math.sqrt(in_dim)
        self.W = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), name=f"{name}.W")
        self.b = Tensor(rng.uniform(-bound, bound, size=(out_dim,)), name=f"{name}.b") if bias else None

    def __call__(self, x, slope=None, grad=True):
        xd = value(x)
        y = xd @ self.W.data
        if self.b is not None:
            y += self.b.data
        if slope is not None:
            _leaky_relu_(y, slope)
        if not grad:
            return y
        W, b = self.W, self.b

        def backward(g):
            if slope is not None:
                g = _leaky_grad(g, y, slope)
            if b is not None:
                b._accum(g.sum(axis=0))
            x._accum(g @ W.data.T)
            W._accum(xd.T @ g)

        return _node(y, (x, W) if b is None else (x, W, b), backward)

    def parameters(self):
        return [self.W] + ([self.b] if self.b is not None else [])


def graph_attention(table, proj, score, ptr, hood, slope, grad=True):
    """Single-head attention over closed neighborhoods as one node: segment
    i, hood[ptr[i]:ptr[i + 1]], is node i's neighborhood with its center
    first, so an isolated node attends only to itself.

    Entry j of segment i, node n, is projected as table[n] @ proj.W and
    scored leaky_relu([center, entry] @ score.W + score.b); each segment
    returns the softmax-weighted sum of its entries' projections.
    """
    lens = np.diff(ptr)
    count = len(lens)
    segments = np.repeat(np.arange(count), lens)
    # each distinct node once, each entry's row in uniq, and its center's row:
    # np.unique(hood, return_inverse=True), through a mask over the table
    seen = np.zeros(table.data.shape[0], dtype=bool)
    seen[hood] = True
    uniq = np.flatnonzero(seen)
    remap = np.empty(len(seen), dtype=np.intp)
    remap[uniq] = np.arange(len(uniq))
    rows = remap.take(hood)
    center = np.repeat(rows.take(ptr[:-1]), lens)
    W, d, k = score.W.data, proj.W.data.shape[1], len(uniq)
    gathered = table.data.take(uniq, axis=0)
    p_uniq = gathered @ proj.W.data
    # the score of a [center, entry] row is one dot product per half of score.W:
    # take both per distinct node, then gather them (`take` skips fancy indexing's set-up)
    s_center, s_nbr = (p_uniq @ W[:d]).ravel(), (p_uniq @ W[d:]).ravel()
    s = s_center.take(center) + s_nbr.take(rows)
    s += score.b.data
    s = _leaky_relu_(s, slope)
    e = np.exp(s - np.repeat(np.maximum.reduceat(s, ptr[:-1]), lens))
    att = e / np.repeat(np.bincount(segments, weights=e, minlength=count), lens)
    # the weighted sums, the CSR matrix (att, rows, ptr) @ p_uniq, by scipy's kernel itself without
    # the matrix's per-call checks: it adds each att * p_uniq row to a zeroed row in entry order,
    # as a bincount over the products would; it reads int32 indices and flat C-order arrays
    rows32, ptr32 = rows.astype(np.int32), ptr.astype(np.int32)
    out = np.zeros((count, d))
    _sparsetools.csr_matvecs(count, k, d, ptr32, rows32, att, p_uniq.ravel(), out.ravel())
    if not grad:
        return out

    def backward(g):
        d_att = (g.take(segments, axis=0) * p_uniq.take(rows, axis=0)).sum(axis=1)
        dot = np.bincount(segments, weights=d_att * att, minlength=count)
        d_s = _leaky_grad(att * (d_att - dot.take(segments)), s, slope).reshape(-1, 1)
        score.b._accum(d_s.sum(axis=0))
        d_center = _scatter_rows(center, d_s[:, 0], k)[:, None]
        d_nbr = _scatter_rows(rows, d_s[:, 0], k)[:, None]
        # proj's three gradient terms, added in the order the op-by-op graph
        # (tests/oracles.py) added them, so that training stays bit-identical;
        # the transposed product (the CSC kernel on the same arrays) adds each
        # entry's att * g row to its node in entry order, as that graph's
        # bincount did; g can be a column slice (concat_features)
        d_proj = np.zeros((k, d))
        _sparsetools.csc_matvecs(k, count, d, ptr32, rows32, att, np.ascontiguousarray(g).ravel(),
                                 d_proj.ravel())
        d_proj = d_proj + d_nbr * W[d:, 0]
        d_proj = d_proj + d_center * W[:d, 0]
        score.W._accum(np.concatenate([p_uniq.T @ d_center, p_uniq.T @ d_nbr]))
        proj.W._accum(gathered.T @ d_proj)
        table._accum(_scatter_rows(uniq, d_proj @ proj.W.data.T, table.data.shape[0]))

    return _node(out, (table, proj.W, score.W, score.b), backward)


def weighted_mse(pred, targets, weights):
    """mean(weights * (pred - targets) ** 2) as one node, checked for
    finiteness, and the errors pred - targets."""
    diff = pred.data - targets

    def backward(g):
        g_sq = np.broadcast_to(g / diff.size, diff.shape) * weights
        pred._accum(g_sq * diff + g_sq * diff)

    return Tensor((weights * (diff * diff)).mean(), (pred,), backward, name="loss"), diff


# ------------------------------------------------------------------ optimizer

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's published defaults (ICLR 2015)


class Adam:
    """Adaptive-moment optimizer over `params`, whose data are views of the
    vector `flat`; clears gradients after each step; m, v view flat_m, flat_v."""

    def __init__(self, params, flat, lr):
        self.params = list(params)
        self.flat = flat
        self.lr = lr
        self.step_count = 0
        self.flat_m, self.m = flat_views([np.zeros_like(p.data) for p in self.params])
        self.flat_v, self.v = flat_views([np.zeros_like(p.data) for p in self.params])

    def step(self):
        """One update; raises before moving any parameter if a gradient is
        missing or not finite."""
        for p in self.params:
            if p.grad is None:
                raise PruneRLError(f"missing gradient for parameter {p.name}")
        g = np.concatenate([p.grad.ravel() for p in self.params])
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise PruneRLError(f"non-finite gradient for parameter {bad.name}")
        self.step_count += 1
        b1c, b2c = 1.0 - BETA1 ** self.step_count, 1.0 - BETA2 ** self.step_count
        # the per-parameter update's operations, in its order, on whole vectors
        np.add(BETA1 * self.flat_m, (1.0 - BETA1) * g, out=self.flat_m)
        np.add(BETA2 * self.flat_v, (1.0 - BETA2) * g ** 2, out=self.flat_v)
        self.flat -= self.lr * (self.flat_m / b1c) / (np.sqrt(self.flat_v / b2c) + EPS)
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def flat_views(arrays):
    """One vector holding `arrays` in order, and its views shaped like them."""
    flat = np.concatenate([a.ravel() for a in arrays])
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, [part.reshape(a.shape) for part, a in zip(parts, arrays)]
