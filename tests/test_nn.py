import numpy as np
import pytest

from prunerl import nnet
from prunerl.errors import PruneRLError, ShapeError
from prunerl.nnet import (
    Adam,
    Linear,
    Tensor,
    add,
    grad_check,
    leaky_relu,
    matmul,
    mean_all,
    segment_softmax,
    segment_sum,
    sum_all,
)
from prunerl.qmodel import ATTENTION_SLOPE, QModel

from conftest import path_graph


class TestPrimitives:
    def test_linear_identity(self, rng):
        layer = Linear(3, 3, rng)
        layer.W.data[:] = np.eye(3)
        layer.b.data[:] = 0.0
        x = Tensor(rng.random((2, 3)))
        assert np.allclose(layer(x).data, x.data)

    def test_leaky_relu_definition(self):
        out = leaky_relu(Tensor(np.array([[-1.0, 2.0]])), slope=0.01)
        assert np.allclose(out.data, [[-0.01, 2.0]])

    def test_segment_softmax_sums_per_segment(self, rng):
        x = Tensor(rng.standard_normal(7))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        out = segment_softmax(x, seg, 3)
        for s in range(3):
            assert np.sum(out.data[seg == s]) == pytest.approx(1.0)

    def test_shape_mismatch_error(self, rng):
        with pytest.raises((ShapeError, ValueError)):
            matmul(Tensor(rng.random((2, 3))), Tensor(rng.random((4, 2))))

    def test_nonfinite_rejected(self):
        with pytest.raises(PruneRLError):
            Tensor(np.array([1.0, np.nan]))

    def test_backward_needs_scalar(self, rng):
        with pytest.raises(ShapeError):
            Tensor(rng.random((2, 2))).backward()


class TestBackward:
    def test_affine_gradient_exact(self, rng):
        layer = Linear(4, 1, rng)

        def model():
            return sum_all(layer(Tensor(np.ones((1, 4)))))

        assert grad_check(model, layer.parameters(), rng=rng) < 1e-9

    def test_composite_ops_gradient(self, rng):
        w1 = Tensor(rng.standard_normal((3, 4)), name="w1")
        w2 = Tensor(rng.standard_normal((4, 2)), name="w2")
        x = Tensor(rng.standard_normal((2, 3)))
        # weights keep the loss from being the constant mean of a softmax
        coef = Tensor(rng.standard_normal(4))

        def model():
            h = leaky_relu(matmul(x, w1))
            # row-wise softmax of the (2, 2) logits, as two segments
            logits = nnet.reshape(matmul(h, w2), (4,))
            att = segment_softmax(logits, [0, 0, 1, 1], 2)
            return mean_all(nnet.mul(att, coef))

        assert grad_check(model, [w1, w2], rng=rng) < 1e-4

    def test_segment_ops_gradient(self, rng):
        w = Tensor(rng.standard_normal((7, 2)), name="w")
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        ones = Tensor(np.ones((2, 1)))

        def model():
            scores = nnet.reshape(matmul(w, ones), (7,))
            att = segment_softmax(scores, seg, 3)
            pooled = segment_sum(nnet.mul(nnet.reshape(att, (7, 1)), w), seg, 3)
            return sum_all(leaky_relu(pooled, ATTENTION_SLOPE))

        assert grad_check(model, [w], rng=rng) < 1e-4

    def test_corrupted_gradient_detected(self, rng):
        # negative control: an op whose backward is off by a factor of 2
        w = Tensor(rng.standard_normal((3, 3)), name="w")

        def double_backward_sum(t):
            out = Tensor(t.data.sum(), parents=(t,),
                         backward=lambda g: t._accum(2.0 * g * np.ones_like(t.data)))
            return out

        def model():
            return double_backward_sum(w)

        with pytest.raises(PruneRLError, match="gradient check failed"):
            grad_check(model, [w], rng=rng)


class TestOptimizers:
    def test_missing_gradient_rejected(self, rng):
        w = Tensor(rng.random(3), name="w")
        with pytest.raises(PruneRLError, match="missing gradient"):
            Adam([w], lr=0.1).step()

    def test_convex_monotone_descent(self, rng):
        # f(w) = ||Xw - y||^2 on a fixed batch must descend for 20 steps
        X = Tensor(rng.standard_normal((16, 4)))
        y = Tensor(-rng.standard_normal((16, 1)))
        w = Tensor(rng.standard_normal((4, 1)), name="w")
        # gradient descent below 1/L is strictly monotone on a convex quadratic
        lr = 0.002
        losses = []
        for _ in range(20):
            diff = add(matmul(X, w), y)
            loss = sum_all(nnet.mul(diff, diff))
            losses.append(float(loss.data))
            w.zero_grad()
            loss.backward()
            w.data -= lr * w.grad
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_adam_descends_overall(self, rng):
        X = Tensor(rng.standard_normal((16, 4)))
        y = Tensor(-rng.standard_normal((16, 1)))
        w = Tensor(rng.standard_normal((4, 1)), name="w")
        opt = Adam([w], lr=0.05)
        losses = []
        for _ in range(20):
            diff = add(matmul(X, w), y)
            loss = sum_all(nnet.mul(diff, diff))
            losses.append(float(loss.data))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_adam_state_round_trip(self, rng):
        w = Tensor(rng.random((2, 2)), name="w")
        opt = Adam([w], lr=0.01)
        for _ in range(3):
            loss = sum_all(nnet.mul(w, w))
            opt.zero_grad()
            loss.backward()
            opt.step()
        w2 = Tensor(w.data.copy(), name="w")
        opt2 = Adam([w2], lr=0.01)
        opt2.load_state_dict(opt.state_dict())
        for tensor, o in ((w, opt), (w2, opt2)):
            loss = sum_all(nnet.mul(tensor, tensor))
            o.zero_grad()
            loss.backward()
            o.step()
        assert np.array_equal(w.data, w2.data)


class TestGATEncode:
    def test_isolated_node_self_projection(self, rng):
        model = QModel(3, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
        out = model.gat_node_encode({0: ()}, [0])
        proj = model.embeddings.data[0:1] @ model.gat_proj.W.data
        assert np.allclose(out.data, proj, atol=1e-12)

    def test_identical_neighbors_uniform_attention(self, rng):
        model = QModel(4, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
        model.embeddings.data[:] = model.embeddings.data[0]
        out = model.gat_node_encode({0: (1, 2, 3)}, [0])
        proj = model.embeddings.data[0:1] @ model.gat_proj.W.data
        assert np.allclose(out.data, proj, atol=1e-10)

    def test_matches_dense_oracle(self, rng):
        # node 1 of the path 0-1-2, recomputed densely from the same formula
        model = QModel(3, directed=False, emb_dim=5, hidden_dim=8, rng=rng)
        out = model.gat_node_encode({1: (0, 2)}, [1]).data[0]

        h = model.embeddings.data @ model.gat_proj.W.data
        a = model.gat_score.W.data.reshape(-1)
        b = float(model.gat_score.b.data[0])
        hood = [1, 0, 2]  # self first, then sorted neighbors
        scores = []
        for j in hood:
            s = np.concatenate([h[1], h[j]]) @ a + b
            scores.append(s if s > 0 else ATTENTION_SLOPE * s)
        scores = np.array(scores)
        att = np.exp(scores - scores.max())
        att /= att.sum()
        expected = sum(att[i] * h[j] for i, j in enumerate(hood))
        assert np.allclose(out, expected, atol=1e-10)

    def test_finite_over_a_path(self, rng):
        model = QModel(6, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
        g = path_graph(6)
        hoods = {n: tuple(g.adj[n].keys()) for n in range(6)}
        out = model.gat_node_encode(hoods, list(range(6)))
        assert out.data.shape == (6, 4)
        assert np.all(np.isfinite(out.data))
