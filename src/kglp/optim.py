"""Decoupled-weight-decay adaptive optimizer and the warmup/decay schedule.

Two learning-rate groups are supported (prediction-head "linear" parameters vs.
embedding/attention parameters); the schedule scales both peaks by the same
factor: linear ramp from 0 over the warmup steps, then linear decay to 0 at the
final step. Weight decay applies only to matrices (ndim >= 2), never to biases
or normalization parameters.
"""

from __future__ import annotations

import numpy as np

from .encoder import param_group


def warmup_linear_decay(step: int, total_steps: int, warmup_frac: float) -> float:
    """Schedule scale in [0, 1]: 0 at step 0, 1 at the warmup boundary, ~0 at the end."""
    if total_steps <= 0:
        return 1.0
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step < warmup:
        return step / warmup
    if total_steps <= warmup:
        return 1.0
    return max(0.0, (total_steps - step) / (total_steps - warmup))


def _flat_view(name: str, label: str, arr: np.ndarray, param: np.ndarray) -> np.ndarray:
    """Flat view of ``arr`` for an in-place update; raises rather than copy."""
    if not arr.flags.c_contiguous:
        raise ValueError(f"AdamW: {label} of {name} is not C-contiguous")
    if arr.shape != param.shape or arr.dtype != param.dtype:
        raise ValueError(f"AdamW: {label} of {name} is {arr.dtype}{arr.shape}, "
                         f"the parameter is {param.dtype}{param.shape}")
    return arr.reshape(-1)


#: Elements per block of the AdamW update: two scratch blocks of this size stay
#: in cache while every pass of the update runs over them.
_BLOCK = 32768


class AdamW:
    """Adam with decoupled weight decay over a named parameter dict.

    The update walks each parameter in cache-sized blocks and works in place,
    with the same operation sequence per element as the whole-array form, so
    the numbers are identical. Hyperparameters are Python floats.
    """

    def __init__(self, lr_groups: dict[str, float], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01,
                 group_fn=param_group):
        self.lr_groups = dict(lr_groups)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.group_fn = group_fn
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def learning_rates(self, lr_scale: float) -> dict[str, float]:
        return {g: lr * lr_scale for g, lr in self.lr_groups.items()}

    def step(self, params: dict, grads: dict, lr_scale: float = 1.0) -> None:
        """One in-place update of every parameter that has a gradient.

        Parameter, gradient and moments must be C-contiguous arrays of one
        shape and dtype; anything else raises rather than being updated
        through a copy.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            p = params[name]
            lr = self.lr_groups[self.group_fn(name)] * lr_scale
            p_flat = _flat_view(name, "parameter", p, p)
            g_flat = _flat_view(name, "gradient", g, p)
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            decay = self.weight_decay if p.ndim >= 2 else 0.0
            self._update(p_flat, g_flat,
                         _flat_view(name, "first moment", self.m[name], p),
                         _flat_view(name, "second moment", self.v[name], p),
                         lr, bc1, bc2, decay)

    def _update(self, p, g, m, v, lr, bc1, bc2, decay) -> None:
        """Blocked in-place form of
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + decay*p)`` on flat views."""
        if p.dtype not in self._scratch:
            self._scratch[p.dtype] = (np.empty(_BLOCK, p.dtype), np.empty(_BLOCK, p.dtype))
        scratch_a, scratch_b = self._scratch[p.dtype]
        b1, b2, eps = self.beta1, self.beta2, self.eps
        for lo in range(0, p.size, _BLOCK):
            hi = min(lo + _BLOCK, p.size)
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, u = scratch_a[:hi - lo], scratch_b[:hi - lo]
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - b2
            vb += a
            np.divide(vb, bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mb, bc1, out=u)
            u /= a
            if decay:
                np.multiply(pb, decay, out=a)
                u += a
            u *= lr
            pb -= u
