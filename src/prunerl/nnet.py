"""Minimal reverse-mode autodiff over numpy float64 arrays, plus the layer
primitives the Q-network needs: linear, leaky ReLU, row gathers (embedding
lookup included), segment softmax/sum for variable-size neighborhoods, and
an Adam optimizer with a gradient finite-difference checker.
"""

import math

import numpy as np

from .errors import PruneRLError, ShapeError


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "_backward", "_parents", "name")

    def __init__(self, data, parents=(), backward=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
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

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _wrap(-1.0)))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ------------------------------------------------------------------- core ops


def add(a, b):
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b):
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        a._accum(g @ b.data.T)
        b._accum(a.data.T @ g)

    out._backward = backward
    return out


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def backward(g):
        a._accum(g.reshape(a.data.shape))

    out._backward = backward
    return out


def concat(tensors, axis=1):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            t._accum(g[tuple(sl)])
            offset += s

    out._backward = backward
    return out


def _scatter_rows(idx, values, n):
    """Sum the rows of a 1-D or 2-D array into `n` rows by index; bincount
    adds in input order, as np.add.at does, at a fraction of its cost."""
    if values.ndim == 1:
        return np.bincount(idx, weights=values, minlength=n)
    width = values.shape[1]
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * width).reshape(n, width)


def gather_rows(a, idx):
    """Select rows (entries, if 1-D) of a 1-D or 2-D tensor, e.g. embedding
    rows by node id; backward sums the gradients of repeated rows."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"gather_rows needs a 1-D or 2-D tensor, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx], parents=(a,))

    def backward(g):
        a._accum(_scatter_rows(idx, g, a.data.shape[0]))

    out._backward = backward
    return out


def sum_all(a):
    out = Tensor(a.data.sum(), parents=(a,))

    def backward(g):
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward
    return out


def mean_all(a):
    n = a.data.size
    out = Tensor(a.data.mean(), parents=(a,))

    def backward(g):
        a._accum(np.broadcast_to(g / n, a.data.shape).copy())

    out._backward = backward
    return out


def leaky_relu(a, slope=0.01):
    mask = np.where(a.data > 0, 1.0, slope)
    out = Tensor(a.data * mask, parents=(a,))

    def backward(g):
        a._accum(g * mask)

    out._backward = backward
    return out


def segment_softmax(a, segments, num_segments):
    """Softmax of a 1-D tensor within each segment id."""
    segments = np.asarray(segments, dtype=np.int64)
    if a.data.ndim != 1 or segments.shape != a.data.shape:
        raise ShapeError(f"segment_softmax needs matching 1-D shapes, got {a.data.shape} and {segments.shape}")
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, a.data)
    e = np.exp(a.data - seg_max[segments])
    seg_sum = np.bincount(segments, weights=e, minlength=num_segments)
    p = e / seg_sum[segments]
    out = Tensor(p, parents=(a,))

    def backward(g):
        dot = np.bincount(segments, weights=g * p, minlength=num_segments)
        a._accum(p * (g - dot[segments]))

    out._backward = backward
    return out


def segment_sum(a, segments, num_segments):
    """Sum rows of a 2-D tensor into per-segment totals."""
    segments = np.asarray(segments, dtype=np.int64)
    out = Tensor(_scatter_rows(segments, a.data, num_segments), parents=(a,))

    def backward(g):
        a._accum(g[segments])

    out._backward = backward
    return out


# --------------------------------------------------------------------- layers


class Linear:
    """y = x @ W + b with fan-in-scaled uniform init."""

    def __init__(self, in_dim, out_dim, rng, bias=True, name="linear"):
        bound = 1.0 / math.sqrt(in_dim)
        self.W = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), name=f"{name}.W")
        self.b = Tensor(rng.uniform(-bound, bound, size=(out_dim,)), name=f"{name}.b") if bias else None

    def __call__(self, x):
        y = matmul(x, self.W)
        if self.b is not None:
            y = add(y, self.b)
        return y

    def parameters(self):
        return [self.W] + ([self.b] if self.b is not None else [])


# ------------------------------------------------------------------ optimizer


class Adam:
    """Adaptive-moment optimizer; clears gradients after each step."""

    def __init__(self, params, lr=0.0002, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise PruneRLError(f"missing gradient for parameter {p.name}")
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * p.grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * p.grad ** 2
            p.data -= self.lr * (self.m[i] / b1c) / (np.sqrt(self.v[i] / b2c) + self.eps)
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_dict(self):
        return {
            "step_count": self.step_count,
            "m": [m.copy() for m in self.m],
            "v": [v.copy() for v in self.v],
        }

    def load_state_dict(self, state):
        self.step_count = int(state["step_count"])
        self.m = [np.array(m, dtype=np.float64) for m in state["m"]]
        self.v = [np.array(v, dtype=np.float64) for v in state["v"]]


# ----------------------------------------------------------------- grad check


def grad_check(model_fn, params, tolerance=1e-4, h=1e-5, max_coords=8, rng=None):
    """Central finite differences vs the analytic gradient.

    model_fn() must rebuild the scalar loss from the current parameter data.
    Checks a random subset of coordinates per parameter and returns the max
    relative error; raises if it exceeds the tolerance, naming the worst
    parameter.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = model_fn()
    loss.backward()
    analytic = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in params}

    worst = 0.0
    worst_name = None
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = float(model_fn().data)
            flat[c] = orig - h
            down = float(model_fn().data)
            flat[c] = orig
            fd = (up - down) / (2.0 * h)
            an = analytic[id(p)].reshape(-1)[c]
            denom = max(abs(fd), abs(an), 1e-3)
            rel = abs(fd - an) / denom
            if rel > worst:
                worst = rel
                worst_name = p.name
    if worst > tolerance:
        raise PruneRLError(
            f"gradient check failed: max relative error {worst:.3e} at {worst_name}"
        )
    return worst
