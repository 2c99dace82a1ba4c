"""Numpy neural-net primitives with explicit forward/backward pairs.

Every forward returns (output, cache); the matching backward consumes the cache
and returns input gradients plus parameter gradients. All functions are pure.

Precision follows NumPy 2 promotion (NEP 50): Python float constants take the
array's dtype, NumPy float64 scalars do not. The GeLU constants are float64
scalars, so ``gelu_forward`` and ``gelu_backward`` return float64 for float32
input, and everything computed from their output is float64 as well. With
float32 parameters the encoder therefore runs in float32 up to the first
feed-forward GeLU and in float64 after it (block outputs, pooled vectors,
prediction head, logits and the backward pass); parameters, their gradient
buffers and the optimizer state stay float32. With float64 parameters every
function is float64 throughout, which is what the finite-difference gradient
checks in the test suite use.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def linear_forward(x, w, b):
    out = x @ w + b
    return out, (x, w)


def linear_backward(dout, cache):
    x, w = cache
    din, dout_dim = w.shape
    dw = x.reshape(-1, din).T @ dout.reshape(-1, dout_dim)
    db = dout.reshape(-1, dout_dim).sum(axis=0)
    dx = dout @ w.T
    return dx, dw, db


def gelu_forward(x):
    phi = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * phi, (x, phi)


def gelu_backward(dout, cache):
    x, phi = cache
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dout * (phi + x * pdf)


def layernorm_forward(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layernorm_backward(dout, cache):
    xhat, inv, g = cache
    d = xhat.shape[-1]
    dg = (dout * xhat).reshape(-1, d).sum(axis=0)
    db = dout.reshape(-1, d).sum(axis=0)
    dxhat = dout * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def batchnorm_forward(x, g, b, running_mean, running_var, train,
                      momentum=0.1, eps=1e-5):
    """Batch statistics in training (running stats updated in place), running
    statistics in inference. ``x`` is (N, d)."""
    if train:
        n = x.shape[0]
        mu = x.mean(axis=0)
        xc = x - mu
        var = np.mean(xc * xc, axis=0)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
        return g * xhat + b, (xhat, inv, g, True)
    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv
    return g * xhat + b, (xhat, inv, g, False)


def batchnorm_backward(dout, cache):
    xhat, inv, g, trained = cache
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    dxhat = dout * g
    if not trained:
        return dxhat * inv, dg, db
    n = xhat.shape[0]
    dx = (inv / n) * (n * dxhat
                      - dxhat.sum(axis=0)
                      - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dg, db


def softmax_last(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dout, a):
    return a * (dout - (dout * a).sum(axis=-1, keepdims=True))


def dropout_forward(x, rate, rng, train, grid=None):
    """Inverted dropout. With ``grid`` = (shape, rows), ``x`` holds the elements
    ``rows`` of an array of ``shape``: the mask is drawn for that whole array
    and taken at ``rows``, so the rng stream and the kept elements are those of
    a dropout over the full array."""
    if not train or rate <= 0.0:
        return x, None
    draw = rng.random(x.shape if grid is None else grid[0])
    keep = ((draw if grid is None else draw[grid[1]]) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def dropout_backward(dout, keep):
    if keep is None:
        return dout
    return dout * keep


def unit_rows(x):
    """(rows scaled to unit L2 norm, their norms); zero rows stay zero."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms), norms


def per_row_nll(logits, targets):
    """Per-row negative log-likelihood and its gradient w.r.t. ``logits``.

    ``logits`` is (N, V); ``targets`` is (N,) int. Returns (nll, grad): ``nll``
    is (N,) float64 and ``grad`` is softmax minus one-hot, unscaled, in the
    logits dtype. This is the one log-softmax of the package.
    """
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = (-log_probs[rows, targets]).astype(np.float64)
    grad = np.exp(log_probs)
    grad[rows, targets] -= 1.0
    return nll, grad


def cross_entropy(logits, targets):
    """Mean cross-entropy over rows plus the gradient w.r.t. logits.

    ``logits`` is (N, V); ``targets`` is (N,) int. Returns (loss, dlogits) with
    dlogits already scaled by 1/N. Loss is accumulated in float64.
    """
    n = logits.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(logits)
    nll, dlogits = per_row_nll(logits, targets)
    dlogits /= n
    return float(nll.mean()), dlogits


def scatter_add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``table[ids[i]] += rows[i]`` for every i, repeated ids summed.

    Rows are grouped by a stable sort of their ids and summed per id in the
    rows' dtype; each touched table row then receives one addition of its sum
    rounded to the table dtype.
    """
    ids = np.asarray(ids).reshape(-1)
    rows = rows.reshape(ids.size, -1)
    if ids.size == 0:
        return
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    sums = np.add.reduceat(rows[order], starts, axis=0)
    table[sorted_ids[starts]] += sums.astype(table.dtype, copy=False)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    The sum of squares accumulates in float64 without a float64 copy of any
    gradient. A negative ``max_norm`` raises ValueError: it would reverse the
    gradients.
    """
    if max_norm < 0:
        raise ValueError(f"max_norm must be >= 0, got {max_norm}")
    total = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        total += float(np.einsum("i,i->", flat, flat, dtype=np.float64))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
