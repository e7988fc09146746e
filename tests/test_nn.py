import gc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from prunerl import nnet
from prunerl.errors import PruneRLError, ShapeError
from prunerl.graph import load_edge_list
from prunerl.nnet import Adam, Linear, Tensor
from prunerl.qmodel import ATTENTION_SLOPE, HIDDEN_SLOPE, QModel

import oracles
from conftest import DATA_DIR, neighbors, path_graph
from gradcheck import grad_check, mul, sum_all
from oracles import add, leaky_relu, matmul, mean_all, segment_softmax, segment_sum


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

    def test_gather_rows_rejects_other_ranks(self):
        for shape in ((), (2, 2, 2)):
            with pytest.raises(ShapeError):
                oracles.gather_rows(Tensor(np.zeros(shape)), [0])

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    def test_scatters_equal_add_at(self, rng, shape):
        # bincount adds in input order, so the sums equal np.add.at's bit for bit
        idx = rng.integers(0, 5, size=40)
        g = rng.standard_normal((40,) + shape[1:])
        x = Tensor(rng.standard_normal(shape))
        loss = sum_all(mul(oracles.gather_rows(x, idx), Tensor(g)))
        loss.backward()
        expected = np.zeros(shape)
        np.add.at(expected, idx, g)
        assert np.array_equal(x.grad, expected)
        if len(shape) == 2:
            assert np.array_equal(segment_sum(Tensor(g), idx, 5).data, expected)

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
            logits = oracles.reshape(matmul(h, w2), (4,))
            att = segment_softmax(logits, [0, 0, 1, 1], 2)
            return mean_all(mul(att, coef))

        assert grad_check(model, [w1, w2], rng=rng) < 1e-4

    def test_segment_ops_gradient(self, rng):
        w = Tensor(rng.standard_normal((7, 2)), name="w")
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        ones = Tensor(np.ones((2, 1)))

        def model():
            scores = oracles.reshape(matmul(w, ones), (7,))
            att = segment_softmax(scores, seg, 3)
            pooled = segment_sum(oracles.mul(oracles.reshape(att, (7, 1)), w), seg, 3)
            return sum_all(leaky_relu(pooled, ATTENTION_SLOPE))

        assert grad_check(model, [w], rng=rng) < 1e-4

    def test_backward_leaves_no_reference_cycle(self, rng):
        # a graph left in a cycle stays in memory until the collector runs
        gc.collect()
        gc.disable()
        try:
            w = Tensor(rng.random(3), name="w")
            sum_all(mul(w, w)).backward()
            assert gc.collect() == 0
        finally:
            gc.enable()

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


def grads_of(out, params, rng):
    """Gradients of sum(out * G) for a fixed random G, then cleared."""
    for p in params:
        p.zero_grad()
    sum_all(mul(out, Tensor(rng.standard_normal(out.shape)))).backward()
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    return grads


class TestFusedLayers:
    """Each fused node against the op-by-op graph it replaced: forward bit
    for bit, gradients to 1e-10."""

    def assert_matches(self, fused, oracle, params, seed=3):
        assert np.array_equal(fused.data, oracle.data)
        for a, b in zip(grads_of(fused, params, np.random.default_rng(seed)),
                        grads_of(oracle, params, np.random.default_rng(seed))):
            assert np.allclose(a, b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("slope", [None, HIDDEN_SLOPE, ATTENTION_SLOPE])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear(self, rng, slope, bias):
        layer = Linear(5, 4, rng, bias=bias)
        x = Tensor(rng.standard_normal((7, 5)), name="x")
        oracle = oracles.linear(layer, x)
        if slope is not None:
            oracle = leaky_relu(oracle, slope)
        self.assert_matches(layer(x, slope), oracle, [x] + layer.parameters())
        assert np.array_equal(layer(x, slope, grad=False), oracle.data)

    def test_attention(self, rng):
        model = QModel(9, emb_dim=5, hidden_dim=8, rng=rng)
        rows = [[n, *sorted(rng.choice(np.delete(np.arange(9), n), size=int(rng.integers(0, 5)),
                                       replace=False).tolist())] for n in (4, 0, 7, 2, 4, 8)]
        ptr, hood = np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows)
        params = [model.embeddings, model.gat_proj.W, model.gat_score.W, model.gat_score.b]
        self.assert_matches(attend(model, ptr, hood),
                            oracles.gat_encode_oracle(model, ptr, hood), params)
        assert np.array_equal(attend(model, ptr, hood, grad=False),
                              oracles.gat_encode_oracle(model, ptr, hood).data)

    @pytest.mark.parametrize("side_by_side", [True, False])
    def test_pair_rows(self, rng, side_by_side):
        enc = Tensor(rng.standard_normal((6, 3)), name="enc")
        ends = rng.integers(0, 6, size=(10, 2))
        u, v = oracles.gather_rows(enc, ends[:, 0]), oracles.gather_rows(enc, ends[:, 1])
        oracle = oracles.concat([u, v], axis=1) if side_by_side else add(u, v)
        self.assert_matches(nnet.pair_rows(enc, ends, side_by_side), oracle, [enc])

    def test_weighted_mse(self, rng):
        pred = Tensor(rng.standard_normal(12), name="pred")
        targets, weights = rng.standard_normal(12), rng.random(12)
        loss, diff = nnet.weighted_mse(pred, targets, weights)
        oracle_diff = oracles.sub(pred, Tensor(targets))
        oracle = mean_all(oracles.mul(Tensor(weights), oracles.mul(oracle_diff, oracle_diff)))
        assert np.array_equal(diff, oracle_diff.data)
        self.assert_matches(loss, oracle, [pred])

    def test_nonfinite_loss_rejected(self):
        pred = Tensor(np.ones(3))
        with pytest.raises(PruneRLError, match="loss"):
            nnet.weighted_mse(pred, np.array([0.0, np.inf, 0.0]), np.ones(3))

    def test_op_outputs_are_not_checked(self):
        layer = Linear(2, 1, np.random.default_rng(0))
        layer.W.data[0, 0] = np.nan
        out = layer(Tensor(np.ones((1, 2))))
        assert np.isnan(out.data).all()


def packed_adam(params, lr):
    """An Adam over `params`, their data first moved into views of one
    vector, as `QModel` lays out its parameters."""
    flat, views = nnet.flat_views([p.data for p in params])
    for p, view in zip(params, views):
        p.data = view
    return Adam(params, flat, lr)


class TestOptimizers:
    def test_missing_gradient_rejected(self, rng):
        w = Tensor(rng.random(3), name="w")
        with pytest.raises(PruneRLError, match="missing gradient"):
            packed_adam([w], lr=0.1).step()

    def test_nonfinite_gradient_moves_no_parameter(self, rng):
        w1, w2 = Tensor(rng.random(3), name="w1"), Tensor(rng.random(2), name="w2")
        opt = packed_adam([w1, w2], lr=0.1)
        w1.grad, w2.grad = np.ones(3), np.array([1.0, np.nan])
        before = [w1.data.copy(), w2.data.copy()]
        with pytest.raises(PruneRLError, match="non-finite gradient for parameter w2"):
            opt.step()
        assert np.array_equal(w1.data, before[0]) and np.array_equal(w2.data, before[1])
        assert opt.step_count == 0
        assert all(not m.any() for m in opt.m + opt.v)

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
            loss = sum_all(mul(diff, diff))
            losses.append(float(loss.data))
            w.zero_grad()
            loss.backward()
            w.data -= lr * w.grad
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_adam_descends_overall(self, rng):
        X = Tensor(rng.standard_normal((16, 4)))
        y = Tensor(-rng.standard_normal((16, 1)))
        w = Tensor(rng.standard_normal((4, 1)), name="w")
        opt = packed_adam([w], lr=0.05)
        losses = []
        for _ in range(20):
            diff = add(matmul(X, w), y)
            loss = sum_all(mul(diff, diff))
            losses.append(float(loss.data))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_adam_state_round_trip(self, rng):
        w = Tensor(rng.random((2, 2)), name="w")
        opt = packed_adam([w], lr=0.01)
        for _ in range(3):
            loss = sum_all(mul(w, w))
            opt.zero_grad()
            loss.backward()
            opt.step()
        w2 = Tensor(w.data.copy(), name="w")
        opt2 = packed_adam([w2], lr=0.01)
        # the optimizer's whole state: what `Agent.save` writes and `Agent.load` restores
        opt2.step_count = opt.step_count
        # into the existing views: rebinding the lists would detach them from
        # the flat moments that step() updates
        for own, saved in zip(opt2.m + opt2.v, opt.m + opt.v):
            own[...] = saved
        for tensor, o in ((w, opt), (w2, opt2)):
            loss = sum_all(mul(tensor, tensor))
            o.zero_grad()
            loss.backward()
            o.step()
        assert np.array_equal(w.data, w2.data)


def attend(model, ptr, hood, grad=True):
    """The model's attention layer over the closed neighborhoods (ptr, hood)."""
    return nnet.graph_attention(model.embeddings, model.gat_proj, model.gat_score, ptr, hood,
                                ATTENTION_SLOPE, grad)


def gat_encode(model, hoods):
    """Encode each node of {node: neighbors}, attending over itself first."""
    rows = [[n, *sorted(nbrs)] for n, nbrs in hoods.items()]
    return attend(model, np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows))


def karate_union(rng):
    """A model and the hoods of a union like the one the TD targets score in
    training: 32 states of 32 candidates on half-pruned karate, ~3,300
    entries over a 34-row table."""
    karate = load_edge_list(DATA_DIR / "karate.txt")
    karate.random_prune(karate.edge_count // 2, rng)
    union = oracles.concat_oracle([karate.sample_subgraph(32, rng) for _ in range(32)])
    return QModel(34, emb_dim=16, hidden_dim=32, rng=rng), union.hood_ptr, union.hood


def wide_table(rng):
    """A model and 20 hood entries over a 2,000-row table: four closed
    neighbourhoods of five that share nodes."""
    nodes = rng.choice(2000, size=10, replace=False)
    rows = [[c, *np.sort(rng.choice(nodes[4:], size=4, replace=False))] for c in nodes[:4]]
    return QModel(2000, emb_dim=5, hidden_dim=8, rng=rng), np.arange(0, 21, 5), np.concatenate(rows)


class TestAttentionRemap:
    """`nnet.graph_attention` maps hood entries to rows through a mask over the
    table; held to np.unique(hood, return_inverse=True) on a table smaller than
    its hood and on one a hundred times its hood."""

    @pytest.mark.parametrize("case", [karate_union, wide_table])
    def test_rows_equal_np_unique(self, case, monkeypatch):
        model, ptr, hood = case(np.random.default_rng(1))
        seen, real = [], nnet._sparsetools.csr_matvecs

        def spy(n_row, n_col, n_vecs, indptr, indices, *arrays):
            seen.append((indices, n_col))
            return real(n_row, n_col, n_vecs, indptr, indices, *arrays)

        monkeypatch.setattr(nnet, "_sparsetools", SimpleNamespace(csr_matvecs=spy))
        attend(model, ptr, hood, grad=False)
        (rows, k), = seen
        uniq = np.empty(k, dtype=hood.dtype)
        uniq[rows] = hood
        expected = np.unique(hood, return_inverse=True)
        assert np.array_equal(uniq, expected[0]) and np.array_equal(rows, expected[1])

    @pytest.mark.parametrize("case", [karate_union, wide_table])
    def test_attention_equals_oracle(self, case):
        model, ptr, hood = case(np.random.default_rng(2))
        params = [model.embeddings, model.gat_proj.W, model.gat_score.W, model.gat_score.b]
        oracle = oracles.gat_encode_oracle(model, ptr, hood)
        expected = grads_of(oracle, params, np.random.default_rng(3))
        assert np.array_equal(attend(model, ptr, hood, grad=False), oracle.data)
        out = attend(model, ptr, hood)
        assert np.array_equal(out.data, oracle.data)
        for got, want in zip(grads_of(out, params, np.random.default_rng(3)), expected):
            assert np.array_equal(got, want)


class TestSparseKernels:
    """`graph_attention` calls scipy's private product kernels itself; held
    bit for bit to the public `csr_matrix` products they stand for, so that a
    scipy release that changes them fails here."""

    @pytest.mark.parametrize("width", [1, 4, 16, 33])
    def test_kernels_equal_csr_matrix_products(self, width):
        rng = np.random.default_rng(width)
        lens = rng.integers(1, 7, size=40)
        lens[::3] = 1  # one-entry segments
        count, k = len(lens), 25
        ptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        rows = rng.integers(k, size=ptr[-1]).astype(np.int32)
        att = rng.random(ptr[-1])
        x = rng.standard_normal((k, width))
        y = rng.standard_normal((count, width + 3))[:, 1:width + 1]
        assert not y.flags.c_contiguous  # as concat_features hands back a slice
        weights = csr_matrix((att, rows, ptr), shape=(count, k))
        out = np.zeros((count, width))
        nnet._sparsetools.csr_matvecs(count, k, width, ptr, rows, att, x.ravel(), out.ravel())
        assert np.array_equal(out, weights @ x)
        back = np.zeros((k, width))
        nnet._sparsetools.csc_matvecs(k, count, width, ptr, rows, att,
                                      np.ascontiguousarray(y).ravel(), back.ravel())
        assert np.array_equal(back, weights.T @ y)


class TestGATEncode:
    def test_isolated_node_self_projection(self, rng):
        model = QModel(3, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
        out = gat_encode(model, {0: ()})
        proj = model.embeddings.data[0:1] @ model.gat_proj.W.data
        assert np.allclose(out.data, proj, atol=1e-12)

    def test_identical_neighbors_uniform_attention(self, rng):
        model = QModel(4, directed=False, emb_dim=4, hidden_dim=8, rng=rng)
        model.embeddings.data[:] = model.embeddings.data[0]
        out = gat_encode(model, {0: (1, 2, 3)})
        proj = model.embeddings.data[0:1] @ model.gat_proj.W.data
        assert np.allclose(out.data, proj, atol=1e-10)

    def test_matches_dense_oracle(self, rng):
        # node 1 of the path 0-1-2, recomputed densely from the same formula
        model = QModel(3, directed=False, emb_dim=5, hidden_dim=8, rng=rng)
        out = gat_encode(model, {1: (0, 2)}).data[0]

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
        hoods = {n: tuple(neighbors(g, n)) for n in range(6)}
        out = gat_encode(model, hoods)
        assert out.data.shape == (6, 4)
        assert np.all(np.isfinite(out.data))
