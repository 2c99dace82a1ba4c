"""Siamese fine-tuning with in-batch negative sampling.

Each batch of n triples is encoded twice — query side (head text ++ relation
text) and candidate side (tail entity text) — and every cross pair (i, j)
becomes a supervised cell: n positives on the diagonal plus any off-diagonal
pair the label dictionary knows to be true, all remaining cells negative. The
loss per cell combines a focal term on the cosine similarity (mapped to a
probability via p = (cos + 1) / 2, clamped away from {0, 1}) and a sigmoid term
on the summed elementwise absolute difference of the two vectors; the batch
loss is the mean over all cells. An ablation mode replaces in-batch negatives
with k uniformly sampled negative entities per row. The epoch loop is
``optim.run_epochs``; this module supplies the step and the validation.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SPLITS, FilterIndex, KnowledgeGraph, Triple, Triples, build_filter_index
from .encoder import Encoder, cls_positions
from .layers import clip_global_norm, unit_rows
from .optim import AdamW, TrainingDiverged, check_schedule, run_epochs
from .evaluate import evaluate as evaluate_ranking
from .text import (TokenizedCatalog, Vocabulary, assemble_entity, assemble_pair,
                   check_widths, layout_lengths, stack_layouts)

logger = logging.getLogger(__name__)

_SHUFFLE, _DROPOUT, _NEGATIVES = 11, 12, 13

_P_EPS = 1e-6


@dataclass(frozen=True)
class FocalParams:
    """Class weight alpha in (0,1) and finite hard-example exponent gamma >= 0."""

    alpha: float = 0.8
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")


def build_label_matrix(batch: Sequence[Triple], filter_index: FilterIndex) -> np.ndarray:
    """n x n binary labels: cell (i, j) is 1 iff tail_j completes query_i.

    The diagonal is always positive; off-diagonal positives appear when a batch
    tail is a known completion of another row's (head, relation) key. All n x n
    cells are looked up in one ``FilterIndex.completes`` search.
    """
    y = filter_index.completes(*Triples(batch).array.T).astype(np.int8)
    np.fill_diagonal(y, 1)
    return y


def score_batch(pair_vectors: np.ndarray, entity_vectors: np.ndarray) -> np.ndarray:
    """Full cosine-similarity matrix between the two encoded sides."""
    # zero rows stay zero, so their cosines come out as 0
    u, pn = unit_rows(pair_vectors)
    v, en = unit_rows(entity_vectors)
    zeros = int((pn == 0.0).sum() + (en == 0.0).sum())
    if zeros:
        logger.warning("%d zero-norm vectors in cosine scoring", zeros)
    # rounding can push a perfect match to 1 + eps; the matrix contract is [-1, 1]
    return np.clip(u @ v.T, -1.0, 1.0)


def abs_diff_sums(pair_vectors: np.ndarray, entity_vectors: np.ndarray,
                  chunk: int = 64) -> np.ndarray:
    """Matrix of L1 distances: entry (i, j) = sum_k |pair_i[k] - entity_j[k]|."""
    n = pair_vectors.shape[0]
    out = np.empty((n, entity_vectors.shape[0]), dtype=pair_vectors.dtype)
    for s in range(0, n, chunk):
        block = pair_vectors[s:s + chunk, None, :] - entity_vectors[None, :, :]
        out[s:s + chunk] = np.abs(block).sum(axis=-1)
    return out


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite value in {name} at cell ({i}, {j})")


def joint_loss(scores: np.ndarray, diff_sums: np.ndarray, labels: np.ndarray,
               fp: FocalParams, cell_mask: np.ndarray | None = None) -> float:
    """Mean over cells of the focal cosine term plus the sigmoid distance term.

    ``cell_mask`` restricts the mean to a subset of cells (used by the
    random-negatives ablation); None means all cells participate.
    """
    return joint_loss_with_grads(scores, diff_sums, labels, fp, cell_mask)[0]


def joint_loss_with_grads(scores, diff_sums, labels, fp: FocalParams,
                          cell_mask=None):
    """(loss, l1_mean, l2_mean, d_loss/d_scores, d_loss/d_diff_sums).

    ``l1_mean`` and ``l2_mean`` are the focal and sigmoid terms averaged over
    the participating cells; the gradients are already meaned.
    """
    _check_finite("scores", scores)
    _check_finite("diff_sums", diff_sums)
    scores = scores.astype(np.float64)
    diff_sums = diff_sums.astype(np.float64)
    pos = labels.astype(bool)
    alpha, gamma = fp.alpha, fp.gamma

    raw_p = (scores + 1.0) / 2.0
    p = np.clip(raw_p, _P_EPS, 1.0 - _P_EPS)
    log_p = np.log(p)
    log_1p = np.log1p(-p)
    one_minus = 1.0 - p
    l1 = np.where(pos,
                  -alpha * one_minus ** gamma * log_p,
                  -(1.0 - alpha) * p ** gamma * log_1p)
    sig = expit(diff_sums)
    l2 = np.where(pos, sig, 1.0 - sig)

    if cell_mask is None:
        cell_mask = np.ones(scores.shape, bool)
    n_cells = int(cell_mask.sum())
    weight = np.where(cell_mask, 1.0 / n_cells, 0.0)
    l1_mean, l2_mean = l1[cell_mask].mean(), l2[cell_mask].mean()
    loss = float(((l1 + l2) * weight).sum())

    dl1_dp = np.where(
        pos,
        alpha * gamma * one_minus ** (gamma - 1.0) * log_p
        - alpha * one_minus ** gamma / p,
        -(1.0 - alpha) * gamma * p ** (gamma - 1.0) * log_1p
        + (1.0 - alpha) * p ** gamma / one_minus)
    unclipped = (raw_p > _P_EPS) & (raw_p < 1.0 - _P_EPS)
    dscores = dl1_dp * 0.5 * unclipped * weight
    ddiffs = np.where(pos, 1.0, -1.0) * sig * (1.0 - sig) * weight
    return loss, float(l1_mean), float(l2_mean), dscores, ddiffs


def vector_grads(pair_vectors, entity_vectors, dscores, ddiffs):
    """Backprop cell gradients through the cosine and L1-distance maps."""
    u, pn = unit_rows(pair_vectors)
    v, en = unit_rows(entity_vectors)

    # cosine backward through the row normalizations
    du = dscores @ v
    dv = dscores.T @ u
    dpair = (du - (du * u).sum(axis=1, keepdims=True) * u) / np.where(pn == 0, 1, pn)
    dent = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / np.where(en == 0, 1, en)
    dpair[pn[:, 0] == 0] = 0.0
    dent[en[:, 0] == 0] = 0.0

    # L1-distance backward, chunked like the forward
    chunk = 64
    for s in range(0, pair_vectors.shape[0], chunk):
        sign = np.sign(pair_vectors[s:s + chunk, None, :] - entity_vectors[None, :, :])
        dpair[s:s + chunk] += np.einsum("bn,bnd->bd", ddiffs[s:s + chunk], sign)
        dent -= np.einsum("bn,bnd->nd", ddiffs[s:s + chunk], sign)
    return dpair.astype(pair_vectors.dtype), dent.astype(entity_vectors.dtype)


def loss_and_vector_grads(pair_vectors, entity_vectors, labels, fp: FocalParams,
                          cell_mask=None):
    """(loss, l1_mean, l2_mean, d_pair_vectors, d_entity_vectors) of one batch:
    the joint loss, its two terms and its gradients w.r.t. the raw encoded
    vectors of both sides."""
    scores = score_batch(pair_vectors, entity_vectors)
    diffs = abs_diff_sums(pair_vectors, entity_vectors)
    loss, l1_mean, l2_mean, dscores, ddiffs = joint_loss_with_grads(
        scores, diffs, labels, fp, cell_mask)
    dpair, dent = vector_grads(pair_vectors, entity_vectors, dscores, ddiffs)
    return loss, l1_mean, l2_mean, dpair, dent


@dataclass
class FinetuneConfig:
    epochs: int = 30
    batch_size: int = 128
    alpha: float = 0.8
    gamma: float = 2.0
    lr_linear: float = 1e-3
    lr_attention: float = 5e-5
    warmup_frac: float = 0.05
    pair_max_len: int = 96
    entity_max_len: int = 32
    seed: int = 0
    clip_norm: float = 1.0
    weight_decay: float = 0.01
    negative_mode: str = "in_batch"  # or "uniform_k"
    num_negatives: int = 5
    label_splits: tuple[str, ...] = ("train",)
    eval_every: int = 1
    log_every: int = 20

    def focal(self) -> FocalParams:
        return FocalParams(alpha=self.alpha, gamma=self.gamma)

    def check(self) -> None:
        """Raise ValueError, naming the field, for a setting ``run_finetune``
        cannot run; the CLI runs the same check, with the section in front."""
        self.focal()
        check_schedule(
            self, (self.pair_max_len >= 16, "pair_max_len must be >= 16"),
            (self.entity_max_len >= 8, "entity_max_len must be >= 8"),
            (self.negative_mode in ("in_batch", "uniform_k"),
             "negative_mode must be 'in_batch' or 'uniform_k'"),
            (self.num_negatives >= 1, "num_negatives must be >= 1"),
            (self.eval_every >= 1, "eval_every must be >= 1"),
            (set(self.label_splits) <= set(SPLITS),
             f"label_splits must be among {', '.join(SPLITS)}"))


@dataclass
class FinetuneStepReport:
    loss: float
    l1_mean: float
    l2_mean: float
    n_pos: int
    n_neg: int
    #: global gradient norm before clipping; None when clipping is off
    grad_norm: float | None = None


def finetune_step(batch: Sequence[Triple], encoder: Encoder, cat: TokenizedCatalog,
                  label_filter: FilterIndex, optimizer: AdamW, lr_scale: float,
                  config: FinetuneConfig, rng: np.random.Generator,
                  neg_rng: np.random.Generator | None = None) -> FinetuneStepReport:
    """One update: two encoder passes, one n x m cell loss, one optimizer step.

    Raises TrainingDiverged (before any parameter update) if an encoded vector
    is non-finite; the caller decorates the exception with step context.
    """
    fp = config.focal()
    heads, relations, tails = Triples(batch).array.T
    pair_layouts = [assemble_pair(cat, h, r, config.pair_max_len)
                    for h, r in zip(heads.tolist(), relations.tolist())]
    pair_out, pair_cache = encoder.forward(*stack_layouts(pair_layouts), train=True,
                                           rng=rng, positions=cls_positions(len(heads)))

    if config.negative_mode == "in_batch":
        ent_ids = tails
        labels = build_label_matrix(batch, label_filter)
        cell_mask = None
    elif config.negative_mode == "uniform_k":
        if neg_rng is None:
            raise ValueError("uniform_k negative sampling needs neg_rng")
        n = len(batch)
        k = config.num_negatives
        sampled = neg_rng.integers(0, cat.kg.num_entities, size=(n, k))
        ent_ids, inverse = np.unique(np.concatenate([tails, sampled.ravel()]),
                                     return_inverse=True)
        tail_cols = inverse[:n]
        neg_cols = inverse[n:].reshape(n, k)
        labels = np.zeros((n, len(ent_ids)), dtype=np.int8)
        labels[np.arange(n), tail_cols] = 1
        cell_mask = np.zeros((n, len(ent_ids)), dtype=bool)
        cell_mask[np.arange(n), tail_cols] = True
        # a sampled id equal to the row's own tail stays that (positive) cell
        cell_mask[np.arange(n)[:, None], neg_cols] = True
    else:
        raise ValueError(f"unknown negative_mode {config.negative_mode!r}")

    ent_layouts = [assemble_entity(cat, e, config.entity_max_len)
                   for e in ent_ids.tolist()]
    ent_out, ent_cache = encoder.forward(*stack_layouts(ent_layouts), train=True,
                                         rng=rng, positions=cls_positions(len(ent_ids)))
    # the [CLS] states: the pooled vectors of both sides
    pair_vectors, ent_vectors = pair_out.token_states, ent_out.token_states
    if not (np.isfinite(pair_vectors).all() and np.isfinite(ent_vectors).all()):
        raise TrainingDiverged(-1, {}, [])
    loss, l1, l2, dpair, dent = loss_and_vector_grads(pair_vectors, ent_vectors,
                                                      labels, fp, cell_mask)

    grads = encoder.backward(pair_cache, dpair)
    encoder.backward(ent_cache, dent, grads=grads)
    grad_norm = clip_global_norm(grads, config.clip_norm) if config.clip_norm else None
    optimizer.step(encoder.params, grads, lr_scale)

    considered = labels if cell_mask is None else labels[cell_mask]
    n_pos = int(considered.sum())
    return FinetuneStepReport(loss=loss, l1_mean=l1, l2_mean=l2,
                              n_pos=n_pos, n_neg=considered.size - n_pos,
                              grad_norm=grad_norm)


def run_finetune(kg: KnowledgeGraph, vocab: Vocabulary, encoder: Encoder,
                 config: FinetuneConfig, log_path=None) -> list[dict]:
    """Fine-tune in place; model selection by validation Hits@10; returns history.
    Raises ValueError for a setting ``config.check`` refuses, before any work."""
    config.check()
    cat = TokenizedCatalog(kg, vocab)
    train = kg.splits["train"]
    heads, relations = np.concatenate([train.array, kg.splits["valid"].array])[:, :2].T
    check_widths(encoder.config.max_len,
                 ("finetune.pair_max_len", config.pair_max_len,
                  layout_lengths(cat, config.pair_max_len, heads, relations)),
                 ("finetune.entity_max_len", config.entity_max_len,
                  layout_lengths(cat, config.entity_max_len)))
    label_filter = build_filter_index(kg, config.label_splits)
    eval_filter = build_filter_index(kg)

    def step(epoch, ids, optimizer, lr_scale, dropout_rng, neg_rng):
        report = finetune_step(Triples(train.array[ids]), encoder, cat, label_filter,
                               optimizer, lr_scale, config, rng=dropout_rng,
                               neg_rng=neg_rng)
        return ({"train_loss": report.loss},
                {"loss": report.loss, "l1": report.l1_mean, "l2": report.l2_mean,
                 "pos_cells": report.n_pos, "neg_cells": report.n_neg,
                 "grad_norm": report.grad_norm})

    def end_epoch(epoch):
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            val = evaluate_ranking(
                kg, encoder, "valid", vocab=vocab, cat=cat, filter_index=eval_filter,
                pair_max_len=config.pair_max_len, entity_max_len=config.entity_max_len,
                collect_per_query=False)
            return ({"val_hits10": val.hits10, "val_mrr": val.mrr, "val_mr": val.mr},
                    val.hits10)
        return {}, None

    return run_epochs(encoder, config, train, kg.splits["valid"],
                      (_SHUFFLE, _DROPOUT, _NEGATIVES), step, end_epoch,
                      log_path=log_path)
