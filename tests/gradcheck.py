"""The finite-difference gradient checker, and the two ops that tests build
scalar losses over Q-values and layer outputs from."""

import numpy as np

from prunerl.errors import PruneRLError, ShapeError
from prunerl.nnet import _node


def mul(a, b):
    """Elementwise product of two same-shape tensors; grad checks build their
    scalar losses over Q-values from this and `sum_all`."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward(g):
        a._accum(g * b.data)
        b._accum(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def sum_all(a):
    return _node(a.data.sum(), (a,), lambda g: a._accum(np.broadcast_to(g, a.data.shape).copy()))


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
