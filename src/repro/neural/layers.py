"""Neural network layers in pure numpy with manual backpropagation.

Everything the seq2seq translator needs: embeddings, a GRU cell, a
dense layer, and a softmax cross-entropy head.  Layers own their
parameters and gradient buffers; an optimizer (see
:mod:`repro.neural.optim`) updates them in place.

Shapes follow the convention ``(batch, features)`` per timestep; the
sequence loop lives in the model, not the layers.
"""

from __future__ import annotations

import numpy as np


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere: each side
    # gets the overflow-free form of the logistic, with no masked copies.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class Layer:
    """Base: a named collection of parameters and matching gradients."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def zero_grads(self) -> None:
        for grad in self.grads.values():
            grad.fill(0.0)


class Embedding(Layer):
    """Token-id -> vector lookup table."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.add_param("W", rng.normal(0.0, 0.1, size=(vocab_size, dim)))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """(B,) or (B, T) int ids -> (..., dim) vectors."""
        return self.params["W"][ids]

    def backward(self, ids: np.ndarray, grad_out: np.ndarray) -> None:
        """Scatter-add gradients for the looked-up rows."""
        np.add.at(self.grads["W"], ids.reshape(-1), grad_out.reshape(-1, self.dim))

    def load_pretrained(self, vectors: np.ndarray, start_row: int = 0) -> None:
        """Overwrite rows with pre-trained vectors (GloVe-style init)."""
        rows = vectors.shape[0]
        self.params["W"][start_row : start_row + rows, : vectors.shape[1]] = vectors


class GRUCell(Layer):
    """A gated recurrent unit with manual forward/backward steps.

    Gate layout in the packed matrices is ``[reset | update | new]``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.add_param("Wx", glorot(rng, input_dim, 3 * hidden_dim))
        self.add_param("Wh", glorot(rng, hidden_dim, 3 * hidden_dim))
        self.add_param("b", np.zeros(3 * hidden_dim))

    def forward(self, x: np.ndarray, h_prev: np.ndarray):
        """One step: (B, in), (B, h) -> (B, h) plus a backward cache."""
        H = self.hidden_dim
        xg = x @ self.params["Wx"] + self.params["b"]
        hg = h_prev @ self.params["Wh"]
        rz = sigmoid(xg[:, : 2 * H] + hg[:, : 2 * H])
        r, z = rz[:, :H], rz[:, H:]
        n = np.tanh(xg[:, 2 * H :] + r * hg[:, 2 * H :])
        h_new = (1.0 - z) * n + z * h_prev
        cache = (x, h_prev, hg, r, z, n)
        return h_new, cache

    def backward(self, grad_h_new: np.ndarray, cache):
        """One step back: returns (grad_x, grad_h_prev); accumulates grads."""
        x, h_prev, hg, r, z, n = cache
        H = self.hidden_dim
        dn = grad_h_new * (1.0 - z)
        dz = grad_h_new * (h_prev - n)
        dh_prev = grad_h_new * z

        dn_pre = dn * (1.0 - n * n)
        dr = dn_pre * hg[:, 2 * H :]
        dhg_n = dn_pre * r
        dr_pre = dr * r * (1.0 - r)
        dz_pre = dz * z * (1.0 - z)

        dxg = np.concatenate([dr_pre, dz_pre, dn_pre], axis=1)
        dhg = np.concatenate([dr_pre, dz_pre, dhg_n], axis=1)

        self.grads["Wx"] += x.T @ dxg
        self.grads["Wh"] += h_prev.T @ dhg
        self.grads["b"] += dxg.sum(axis=0)

        grad_x = dxg @ self.params["Wx"].T
        dh_prev = dh_prev + dhg @ self.params["Wh"].T
        return grad_x, dh_prev


class Dense(Layer):
    """Affine layer with optional tanh activation."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        rng: np.random.Generator,
        activation: str = "linear",
    ) -> None:
        super().__init__()
        if activation not in ("linear", "tanh"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation
        self.add_param("W", glorot(rng, input_dim, output_dim))
        self.add_param("b", np.zeros(output_dim))

    def forward(self, x: np.ndarray):
        z = x @ self.params["W"] + self.params["b"]
        if self.activation == "tanh":
            out = np.tanh(z)
            return out, (x, out)
        return z, (x, None)

    def backward(self, grad_out: np.ndarray, cache):
        x, activated = cache
        if self.activation == "tanh":
            grad_out = grad_out * (1.0 - activated * activated)
        self.grads["W"] += x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


def cross_entropy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Masked token-level cross entropy.

    ``logits`` (B, V), ``targets`` (B,), ``mask`` (B,) of 0/1.
    Returns (summed loss, gradient wrt logits).
    """
    probs = softmax(logits, axis=-1)
    batch = np.arange(len(targets))
    picked = np.clip(probs[batch, targets], 1e-12, None)
    loss = float(-(np.log(picked) * mask).sum())
    grad = probs
    grad[batch, targets] -= 1.0
    grad *= mask[:, None]
    return loss, grad
