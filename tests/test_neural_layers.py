"""Tests for the numpy layers — including numeric gradient checks.

The backward passes are hand-derived; the gradient checks compare them
against central finite differences, which is the strongest correctness
evidence available for a hand-rolled autodiff.
"""

import numpy as np
import pytest

from repro.neural.layers import (
    Dense,
    Embedding,
    GRUCell,
    cross_entropy,
    glorot,
    sigmoid,
    softmax,
)


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar-valued f at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestPrimitives:
    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[-1] == pytest.approx(1.0, abs=1e-12)
        assert y[2] == pytest.approx(0.5)

    def test_sigmoid_bit_identical_to_the_masked_two_pass_form(self):
        def two_pass(x):
            out = np.empty_like(x)
            positive = x >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            exp_x = np.exp(x[~positive])
            out[~positive] = exp_x / (1.0 + exp_x)
            return out

        rng = np.random.default_rng(11)
        for scale in (0.5, 4.0, 40.0, 800.0):
            for shape in ((1, 192), (7, 192), (3, 5)):
                x = rng.normal(size=shape) * scale
                x.flat[:4] = (0.0, -0.0, 745.0, -745.0)
                assert np.array_equal(
                    sigmoid(x).view(np.int64), two_pass(x).view(np.int64)
                )

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7))
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100))

    def test_glorot_bounds(self):
        w = glorot(np.random.default_rng(0), 10, 20)
        limit = np.sqrt(6.0 / 30)
        assert w.shape == (10, 20)
        assert np.all(np.abs(w) <= limit)


class TestEmbedding:
    def test_forward_shapes(self):
        emb = Embedding(10, 4, np.random.default_rng(0))
        assert emb.forward(np.array([1, 2])).shape == (2, 4)
        assert emb.forward(np.array([[1, 2], [3, 4]])).shape == (2, 2, 4)

    def test_backward_scatter_adds(self):
        emb = Embedding(5, 3, np.random.default_rng(0))
        ids = np.array([1, 1, 2])
        grad_out = np.ones((3, 3))
        emb.backward(ids, grad_out)
        assert np.allclose(emb.grads["W"][1], 2.0)
        assert np.allclose(emb.grads["W"][2], 1.0)
        assert np.allclose(emb.grads["W"][0], 0.0)

    def test_load_pretrained(self):
        emb = Embedding(5, 4, np.random.default_rng(0))
        vectors = np.ones((2, 4))
        emb.load_pretrained(vectors, start_row=1)
        assert np.allclose(emb.params["W"][1:3], 1.0)


class TestDense:
    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        for activation in ("linear", "tanh"):
            layer = Dense(4, 3, rng, activation=activation)
            x = rng.normal(size=(5, 4))
            target = rng.normal(size=(5, 3))

            def loss():
                out, _ = layer.forward(x)
                return 0.5 * float(((out - target) ** 2).sum())

            out, cache = layer.forward(x)
            layer.zero_grads()
            grad_x = layer.backward(out - target, cache)

            num_w = numeric_grad(loss, layer.params["W"])
            num_b = numeric_grad(loss, layer.params["b"])
            num_x = numeric_grad(loss, x)
            assert np.allclose(layer.grads["W"], num_w, atol=1e-5)
            assert np.allclose(layer.grads["b"], num_b, atol=1e-5)
            assert np.allclose(grad_x, num_x, atol=1e-5)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            Dense(2, 2, np.random.default_rng(0), activation="relu")


class TestGRUCell:
    def test_forward_shape(self):
        cell = GRUCell(4, 6, np.random.default_rng(0))
        h, _cache = cell.forward(np.zeros((3, 4)), np.zeros((3, 6)))
        assert h.shape == (3, 6)

    def test_fused_gates_match_one_sigmoid_per_gate(self):
        rng = np.random.default_rng(5)
        cell = GRUCell(4, 6, rng)
        x, h_prev = rng.normal(size=(3, 4)), rng.normal(size=(3, 6))
        H = 6
        xg = x @ cell.params["Wx"] + cell.params["b"]
        hg = h_prev @ cell.params["Wh"]
        r = sigmoid(xg[:, :H] + hg[:, :H])
        z = sigmoid(xg[:, H : 2 * H] + hg[:, H : 2 * H])
        n = np.tanh(xg[:, 2 * H :] + r * hg[:, 2 * H :])
        h_new, cache = cell.forward(x, h_prev)
        assert np.array_equal(h_new, (1.0 - z) * n + z * h_prev)
        assert np.array_equal(cache[3], r) and np.array_equal(cache[4], z)

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        cell = GRUCell(3, 5, rng)
        x = rng.normal(size=(4, 3))
        h_prev = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 5))

        def loss():
            h, _ = cell.forward(x, h_prev)
            return 0.5 * float(((h - target) ** 2).sum())

        h, cache = cell.forward(x, h_prev)
        cell.zero_grads()
        grad_x, grad_h = cell.backward(h - target, cache)

        for name in ("Wx", "Wh", "b"):
            numeric = numeric_grad(loss, cell.params[name])
            assert np.allclose(cell.grads[name], numeric, atol=1e-5), name
        assert np.allclose(grad_x, numeric_grad(loss, x), atol=1e-5)
        assert np.allclose(grad_h, numeric_grad(loss, h_prev), atol=1e-5)

    def test_two_step_bptt_gradient_check(self):
        """Chain two GRU steps and check the gradient through time."""
        rng = np.random.default_rng(3)
        cell = GRUCell(3, 4, rng)
        x1 = rng.normal(size=(2, 3))
        x2 = rng.normal(size=(2, 3))
        h0 = np.zeros((2, 4))
        target = rng.normal(size=(2, 4))

        def loss():
            h1, _ = cell.forward(x1, h0)
            h2, _ = cell.forward(x2, h1)
            return 0.5 * float(((h2 - target) ** 2).sum())

        h1, cache1 = cell.forward(x1, h0)
        h2, cache2 = cell.forward(x2, h1)
        cell.zero_grads()
        _gx2, gh1 = cell.backward(h2 - target, cache2)
        _gx1, _gh0 = cell.backward(gh1, cache1)

        for name in ("Wx", "Wh", "b"):
            numeric = numeric_grad(loss, cell.params[name])
            assert np.allclose(cell.grads[name], numeric, atol=1e-5), name


class TestCrossEntropy:
    def test_loss_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        loss, _ = cross_entropy(logits.copy(), np.array([0]), np.ones(1))
        assert loss == pytest.approx(-np.log(0.7), abs=1e-9)

    def test_mask_zeroes_contribution(self):
        logits = np.random.default_rng(0).normal(size=(2, 4))
        loss, grad = cross_entropy(logits.copy(), np.array([1, 2]), np.array([1.0, 0.0]))
        assert np.allclose(grad[1], 0.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 5))
        targets = np.array([0, 2, 4])
        mask = np.array([1.0, 1.0, 1.0])

        def loss():
            value, _ = cross_entropy(logits.copy(), targets, mask)
            return value

        _, grad = cross_entropy(logits.copy(), targets, mask)
        numeric = numeric_grad(loss, logits)
        assert np.allclose(grad, numeric, atol=1e-5)
