"""Decoupled-weight-decay adaptive optimizer, the warmup/decay schedule, and the
epoch driver that both training stages run on.

Two learning-rate groups are supported (prediction-head "linear" parameters vs.
embedding/attention parameters); the schedule scales both peaks by the same
factor: linear ramp from 0 over the warmup steps, then linear decay to 0 at the
final step. Weight decay applies only to matrices (ndim >= 2), never to biases
or normalization parameters.

``run_epochs`` is the one training loop: pre-training (``pretrain.py``) and
fine-tuning (``finetune.py``) supply only a step and an end-of-epoch closure.
"""

from __future__ import annotations

import json
import logging
import math
from typing import Callable, Sequence

import numpy as np

from .encoder import Encoder, param_group
from .sampling import derive_rng

logger = logging.getLogger(__name__)


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


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite; carries the step diagnostics."""

    def __init__(self, step: int, lrs: dict, batch_ids: list[int]):
        self.step = step
        self.lrs = lrs
        self.batch_ids = batch_ids
        super().__init__(
            f"non-finite loss at step {step} (lrs={lrs}, batch sample ids={batch_ids})")


def _write_line(fh, record: dict) -> None:
    """Append ``record`` as one JSON line in a single write, then flush, so a
    killed run leaves only whole lines behind."""
    fh.write(json.dumps(record) + "\n")
    fh.flush()


def check_schedule(config, *rules) -> None:
    """Refuse (ValueError naming the field) a schedule ``run_epochs`` cannot run,
    then the first of a section's own ``rules``, ``(ok, message)`` pairs, that
    fails. ``config`` gives epochs, batch_size, seed, lr_linear, lr_attention,
    warmup_frac, clip_norm, weight_decay and log_every."""
    for ok, message in (
            (config.epochs >= 1, "epochs must be >= 1"),
            (config.batch_size >= 1, "batch_size must be >= 1"),
            (config.seed >= 0, "seed must be >= 0"),
            (0 < config.lr_linear < math.inf, "lr_linear must be positive and finite"),
            (0 < config.lr_attention < math.inf,
             "lr_attention must be positive and finite"),
            (0.0 <= config.warmup_frac < 1.0, "warmup_frac must be in [0, 1)"),
            (config.clip_norm >= 0.0, "clip_norm must be >= 0 (0 disables it)"),
            (0.0 <= config.weight_decay < math.inf,
             "weight_decay must be >= 0 and finite"),
            (config.log_every >= 1, "log_every must be >= 1"),
            *rules):
        if not ok:
            raise ValueError(message)


def run_epochs(encoder: Encoder, config, train: Sequence, valid: Sequence,
               streams: tuple[int, ...], step_fn: Callable, epoch_fn: Callable,
               log_path=None, patience: int | None = None) -> list[dict]:
    """Train ``encoder`` in place, epoch by epoch; returns the epoch history.

    ``config`` gives epochs, batch_size, seed, lr_linear, lr_attention,
    weight_decay, warmup_frac, clip_norm and log_every. Each epoch shuffles
    ``train`` by the stream tag ``streams[0]`` and derives one rng per further
    tag. ``step_fn(epoch, ids, optimizer, lr_scale, *rngs)`` updates on the train
    indices ``ids`` and returns ``(losses, fields)``: the epoch record holds each
    loss's mean per step, and ``fields``, which include ``grad_norm``, go into
    the step's log line. ``epoch_fn(epoch)`` returns validation fields for the
    record and a score, higher is better, or None on an epoch not validated.
    The best-scoring parameters are restored at the end; ``patience`` stops
    training after that many scored epochs without improvement. The callers
    have already run their section's check, ``check_schedule`` included.
    """
    if not train:
        raise ValueError("empty train split")
    # an empty split validates as loss 0 / hits@10 0, so the first epoch would
    # win every comparison and all later training would be thrown away
    if not valid:
        raise ValueError("empty valid split")
    steps_per_epoch = math.ceil(len(train) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    optimizer = AdamW({"linear": config.lr_linear, "attention": config.lr_attention},
                      weight_decay=config.weight_decay)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    history: list[dict] = []
    best_score = -math.inf
    best_state = None
    bad_epochs = 0
    step = 0
    try:
        for epoch in range(config.epochs):
            order = derive_rng(config.seed, streams[0], epoch).permutation(len(train))
            rngs = [derive_rng(config.seed, tag, epoch) for tag in streams[1:]]
            sums: dict[str, float] = {}
            for start in range(0, len(train), config.batch_size):
                ids = [int(i) for i in order[start:start + config.batch_size]]
                lr_scale = warmup_linear_decay(step, total_steps, config.warmup_frac)
                try:
                    losses, fields = step_fn(epoch, ids, optimizer, lr_scale, *rngs)
                except TrainingDiverged:
                    raise TrainingDiverged(step, optimizer.learning_rates(lr_scale),
                                           ids) from None
                for key, value in losses.items():
                    sums[key] = sums.get(key, 0.0) + value
                if log_fh and step % config.log_every == 0:
                    clipped = (bool(config.clip_norm)
                               and fields["grad_norm"] > config.clip_norm)
                    _write_line(log_fh, {"step": step, "epoch": epoch, **fields,
                                         "clipped": clipped})
                step += 1

            record = {"epoch": epoch,
                      **{key: total / steps_per_epoch for key, total in sums.items()}}
            fields, score = epoch_fn(epoch)
            record.update(fields)
            if score is not None:
                improved = score > best_score
                if improved:
                    best_score = score
                    best_state = encoder.copy_params()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                record["best"] = improved
            history.append(record)
            logger.info("epoch %d: %s", epoch, record)
            if log_fh:
                _write_line(log_fh, {"epoch_summary": record})
            if patience is not None and bad_epochs >= patience:
                logger.info("early stop after %d epochs without improvement",
                            bad_epochs)
                break
    finally:
        if log_fh:
            log_fh.close()
    if best_state is not None:
        encoder.load_params(*best_state)
    return history
