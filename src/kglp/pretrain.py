"""Multi-task pre-training.

The per-step loss is the sum of two cross-entropies over one shared prediction
head: the token-level term averages over positions with a ``y2`` target and the
item-level term over positions with a ``y1`` target (the item term realizes
whichever of the three masking tasks produced each sample). Positions without a
target contribute nothing. Optimization is AdamW with two learning-rate groups,
linear warmup over the first fraction of steps then linear decay, global-norm
gradient clipping, and early stopping on total validation loss. The epoch loop
itself is ``optim.run_epochs``; this module supplies the step and the
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import KnowledgeGraph
from .encoder import Encoder
from .layers import clip_global_norm, per_row_nll
from .optim import AdamW, TrainingDiverged, check_schedule, run_epochs
from .sampling import PretrainSample, build_pretrain_sample, derive_rng
from .text import (PAD_ID, TokenizedCatalog, Vocabulary, check_widths, layout_lengths,
                   stack_trimmed)

# rng stream tags so shuffling, masking, dropout, and validation never collide
_SHUFFLE, _SAMPLE, _DROPOUT, _VALID = 1, 2, 3, 4


@dataclass
class PretrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr_linear: float = 1e-4
    lr_attention: float = 5e-5
    warmup_frac: float = 0.05
    patience: int = 3
    max_len: int = 128
    seed: int = 0
    clip_norm: float = 1.0
    weight_decay: float = 0.01
    mlm_only: bool = False
    log_every: int = 50

    def check(self) -> None:
        """Raise ValueError, naming the field, for a setting ``run_pretraining``
        cannot run; the CLI runs the same check, with the section in front."""
        check_schedule(self, (self.patience >= 1, "patience must be >= 1"),
                       (self.max_len >= 16, "max_len must be >= 16"))


@dataclass
class PretrainLossReport:
    """Per-batch loss decomposition; ``total`` is exactly mlm + mim.

    ``task_losses`` splits the item term by the masking task that produced each
    sample (the mim loss is their position-count weighted mean). ``grad_norm``
    is the global gradient norm before clipping; None when clipping is off,
    since the norm is then never computed.
    """

    mlm_loss: float
    mim_loss: float
    task_counts: dict[str, int] = field(default_factory=dict)
    task_losses: dict[str, float] = field(default_factory=dict)
    grad_norm: float | None = None

    @property
    def total(self) -> float:
        return self.mlm_loss + self.mim_loss


def _batch_losses(encoder: Encoder, samples: list[PretrainSample], train: bool,
                  rng=None, grads: dict | None = None):
    """Forward pass and the two loss terms.

    With ``grads`` given, the head gradients are added into it and the third item is (cache,
    the (K, d) target-row gradient that ``Encoder.backward`` takes, task losses); else None.
    """
    # targets only exist inside the non-PAD content, so trimming cuts none
    x, mask, y1, y2 = stack_trimmed([s.layout.length for s in samples],
                                    [(s.x, s.mask, s.y1, s.y2) for s in samples])
    pos1 = y1 != PAD_ID
    pos2 = y2 != PAD_ID
    pos_any = pos1 | pos2
    # the encoder computes the target rows only, in ``pos_any`` order
    states, cache = encoder.forward(x, mask, train=train, rng=rng,
                                    positions=np.nonzero(pos_any))
    if not pos_any.any():
        return 0.0, 0.0, (cache, np.zeros_like(states), {})
    logits, head_cache = encoder.predict_tokens(states, train=train)
    # one NLL pass over every target row: the sampler never gives a position
    # both an item and a token target (``sampling.MLM_REGIONS`` excludes the
    # masked item), so each row belongs to exactly one of the two terms
    sel1 = pos1[pos_any]
    nll, dlogits = per_row_nll(logits, np.where(sel1, y1[pos_any], y2[pos_any]))
    nll1 = nll[sel1]
    n1 = nll1.size
    n2 = nll.size - n1
    mim_loss = float(nll1.mean()) if n1 else 0.0
    mlm_loss = float(nll[~sel1].mean()) if n2 else 0.0
    if grads is None:
        return mlm_loss, mim_loss, None

    # split the item term by the task that produced each sample
    task_losses: dict[str, float] = {}
    if n1:
        position_task = np.array([samples[row].task
                                  for row in np.nonzero(pos1)[0]])
        for task in dict.fromkeys(position_task.tolist()):
            task_losses[task] = float(nll1[position_task == task].mean())

    dlogits /= np.where(sel1, n1, n2).astype(dlogits.dtype)[:, None]
    _, dstates = encoder.head_backward(head_cache, dlogits, grads)
    return mlm_loss, mim_loss, (cache, dstates, task_losses)


def pretrain_step(samples: list[PretrainSample], encoder: Encoder,
                  optimizer: AdamW, lr_scale: float,
                  rng: np.random.Generator | None = None,
                  clip_norm: float = 1.0) -> PretrainLossReport:
    """One optimizer update over a batch of pre-training samples.

    Raises TrainingDiverged (before any parameter update) if a loss term is
    non-finite; the caller decorates the exception with step context.
    """
    if not samples:
        raise ValueError("empty batch")
    grads = encoder.zero_grads()
    mlm_loss, mim_loss, ctx = _batch_losses(encoder, samples, train=True, rng=rng,
                                            grads=grads)
    if not (math.isfinite(mlm_loss) and math.isfinite(mim_loss)):
        raise TrainingDiverged(-1, {}, [])
    cache, dstates, task_losses = ctx
    encoder.backward(cache, dstates, grads=grads)
    grad_norm = clip_global_norm(grads, clip_norm) if clip_norm else None
    optimizer.step(encoder.params, grads, lr_scale)

    counts: dict[str, int] = {}
    for s in samples:
        counts[s.task] = counts.get(s.task, 0) + 1
    return PretrainLossReport(mlm_loss=mlm_loss, mim_loss=mim_loss,
                              task_counts=counts, task_losses=task_losses,
                              grad_norm=grad_norm)


def validation_loss(encoder: Encoder, cat: TokenizedCatalog, triples,
                    config: PretrainConfig) -> tuple[float, float]:
    """(mlm, mim) means over the validation split with a fixed masking stream."""
    mlm_sum = mim_sum = 0.0
    n_batches = 0
    for start in range(0, len(triples), config.batch_size):
        chunk = triples[start:start + config.batch_size]
        samples = [
            build_pretrain_sample(t, cat, config.max_len,
                                  derive_rng(config.seed, _VALID, start + j),
                                  mlm_only=config.mlm_only)
            for j, t in enumerate(chunk)
        ]
        mlm, mim, _ = _batch_losses(encoder, samples, train=False)
        mlm_sum += mlm
        mim_sum += mim
        n_batches += 1
    if n_batches == 0:
        return 0.0, 0.0
    return mlm_sum / n_batches, mim_sum / n_batches


def run_pretraining(kg: KnowledgeGraph, vocab: Vocabulary, encoder: Encoder,
                    config: PretrainConfig, log_path=None) -> list[dict]:
    """Train ``encoder`` in place on the augmented train split; early-stops on
    validation loss and restores the best parameters. Returns the epoch history.
    Raises ValueError for a setting ``config.check`` refuses, before any work."""
    config.check()
    cat = TokenizedCatalog(kg, vocab)
    train = kg.splits["train"]
    valid = kg.splits["valid"]
    check_widths(encoder.config.max_len,
                 ("pretrain.max_len", config.max_len, layout_lengths(
                     cat, config.max_len, *np.concatenate([train.array, valid.array]).T)))

    def step(epoch, ids, optimizer, lr_scale, dropout_rng):
        samples = [
            build_pretrain_sample(train[i], cat, config.max_len,
                                  derive_rng(config.seed, _SAMPLE, epoch, i),
                                  mlm_only=config.mlm_only)
            for i in ids
        ]
        report = pretrain_step(samples, encoder, optimizer, lr_scale,
                               rng=dropout_rng, clip_norm=config.clip_norm)
        lrs = optimizer.learning_rates(lr_scale)
        return ({"train_mlm": report.mlm_loss, "train_mim": report.mim_loss},
                {"lr_linear": lrs["linear"], "lr_attention": lrs["attention"],
                 "mlm_loss": report.mlm_loss, "mim_loss": report.mim_loss,
                 "tasks": report.task_counts, "task_losses": report.task_losses,
                 "grad_norm": report.grad_norm})

    def end_epoch(epoch):
        val_mlm, val_mim = validation_loss(encoder, cat, valid, config)
        val_total = val_mlm + val_mim
        return ({"val_mlm": val_mlm, "val_mim": val_mim, "val_total": val_total},
                -val_total)

    return run_epochs(encoder, config, train, valid, (_SHUFFLE, _DROPOUT), step,
                      end_epoch, log_path=log_path, patience=config.patience)
