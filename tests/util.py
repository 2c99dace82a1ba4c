"""Shared test fixtures: dataset writers, toy-KG generators, and the naive
reference implementations (oracles) the production code is checked against."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

DATA_ENV = "KGLP_DATA_DIR"


def dataset_root() -> Path | None:
    """Benchmark dataset root: $KGLP_DATA_DIR, else ./data if it exists."""
    env = os.environ.get(DATA_ENV)
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data"
    return default if default.is_dir() else None


def benchmark_dir(name: str) -> Path | None:
    root = dataset_root()
    if root is None:
        return None
    candidate = root / name
    return candidate if (candidate / "train.tsv").is_file() else None


def write_dataset(directory, splits: dict, entity_texts=None, entity_longs=None,
                  relation_texts=None) -> Path:
    """Materialize an in-memory triple dict as a dataset directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test"):
        with open(directory / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in splits.get(name, []):
                fh.write(f"{h}\t{r}\t{t}\n")
    for fname, mapping in (("entity2text.tsv", entity_texts),
                           ("entity2textlong.tsv", entity_longs),
                           ("relation2text.tsv", relation_texts)):
        if mapping is not None:
            with open(directory / fname, "w", encoding="utf-8") as fh:
                for ident, text in mapping.items():
                    fh.write(f"{ident}\t{text}\n")
    return directory


def make_pair_dataset(directory, n_pairs=80, seed=2, hold_frac=0.18) -> Path:
    """Learnable transductive KG: paired entities share a distinguishing token.

    Facts (a_i, linksto, b_i) and (b_i, partner, a_i); at most one fact per
    pair is held out so every entity keeps training signal.
    """
    rng = np.random.default_rng(seed)
    rows = {"train": [], "valid": [], "test": []}
    for i in range(n_pairs):
        f1 = (f"a{i:03d}", "linksto", f"b{i:03d}")
        f2 = (f"b{i:03d}", "partner", f"a{i:03d}")
        if rng.random() < hold_frac:
            held, kept = (f1, f2) if rng.random() < 0.5 else (f2, f1)
            rows["test" if rng.random() < 0.5 else "valid"].append(held)
            rows["train"].append(kept)
        else:
            rows["train"] += [f1, f2]
    entity_texts = {}
    entity_longs = {}
    for i in range(n_pairs):
        entity_texts[f"a{i:03d}"] = f"alpha item{i:03d}"
        entity_texts[f"b{i:03d}"] = f"beta item{i:03d}"
        entity_longs[f"a{i:03d}"] = f"marker item{i:03d} from the alpha side"
        entity_longs[f"b{i:03d}"] = f"marker item{i:03d} from the beta side"
    return write_dataset(directory, rows, entity_texts, entity_longs,
                         {"linksto": "links to", "partner": "partner of"})


def random_toy_dataset(directory, rng: np.random.Generator,
                       max_entities=50, max_relations=5) -> Path:
    """Small random KG for oracle-equivalence checks (untrained models)."""
    n_ent = int(rng.integers(5, max_entities + 1))
    n_rel = int(rng.integers(1, max_relations + 1))
    ents = [f"e{i:02d}" for i in range(n_ent)]
    rels = [f"r{j}" for j in range(n_rel)]
    n_facts = int(rng.integers(n_ent, 4 * n_ent))
    facts = set()
    while len(facts) < n_facts:
        facts.add((ents[rng.integers(n_ent)], rels[rng.integers(n_rel)],
                   ents[rng.integers(n_ent)]))
    facts = sorted(facts)
    order = rng.permutation(len(facts))
    n_hold = max(1, len(facts) // 6)
    rows = {"train": [], "valid": [], "test": []}
    for pos, j in enumerate(order):
        split = "test" if pos < n_hold else "valid" if pos < 2 * n_hold else "train"
        rows[split].append(facts[j])
    texts = {e: f"entity {e} {rng.integers(100)}" for e in ents}
    return write_dataset(directory, rows, texts, None,
                         {r: f"relation {r}" for r in rels})


# ------------------------------------------------------------------ oracles

def naive_rank(scores, gold: int, known_true: set[int]) -> int:
    """Reference filtered mid-rank via an explicit sorted candidate list."""
    candidates = [(float(s), i) for i, s in enumerate(scores)
                  if i == gold or i not in known_true]
    candidates.sort(key=lambda pair: -pair[0])
    gold_score = float(scores[gold])
    greater = sum(1 for s, i in candidates if s > gold_score)
    tied = sum(1 for s, i in candidates if s == gold_score and i != gold)
    return 1 + greater + math.ceil(tied / 2)


def naive_label_matrix(batch, truth: dict) -> np.ndarray:
    """Double-loop dict-membership oracle for the in-batch label matrix."""
    n = len(batch)
    y = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            key = (batch[i].head, batch[i].relation)
            if batch[j].tail in truth.get(key, set()) or i == j:
                y[i, j] = 1
    return y


def filter_from_mapping(mapping: dict, splits=("train",)):
    """A ``FilterIndex`` of a dict of (entity, relation) keys to iterables of
    tails, with the catalog sizes taken as one past the largest index present;
    keys with no tails are dropped."""
    from kglp.data import FilterIndex

    rows = [(h, r, t) for (h, r), tails in mapping.items() for t in tails]
    heads, relations, tails = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    num_entities = int(max(heads.max(), tails.max())) + 1 if rows else 0
    num_relations = int(relations.max()) + 1 if rows else 0
    return FilterIndex(heads, relations, tails, num_entities, num_relations, splits)


def naive_cosine(pair_vectors, entity_vectors) -> np.ndarray:
    """Entry-by-entry scalar cosine."""
    n, m = len(pair_vectors), len(entity_vectors)
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            u, v = pair_vectors[i], entity_vectors[j]
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            out[i, j] = 0.0 if nu == 0 or nv == 0 else float(np.dot(u, v) / (nu * nv))
    return out


def scalar_joint_loss(scores, diff_sums, labels, alpha, gamma,
                      cell_mask=None) -> float:
    """Independent scalar implementation of the focal + sigmoid cell loss."""
    total = 0.0
    count = 0
    n, m = np.asarray(scores).shape
    for i in range(n):
        for j in range(m):
            if cell_mask is not None and not cell_mask[i][j]:
                continue
            p = (float(scores[i][j]) + 1.0) / 2.0
            p = min(max(p, 1e-6), 1.0 - 1e-6)
            sig = 1.0 / (1.0 + math.exp(-float(diff_sums[i][j])))
            if labels[i][j] == 1:
                l1 = -alpha * (1.0 - p) ** gamma * math.log(p)
                l2 = sig
            else:
                l1 = -(1.0 - alpha) * p ** gamma * math.log(1.0 - p)
                l2 = 1.0 - sig
            total += l1 + l2
            count += 1
    return total / count


# List-based copies of the split operations as they were before splits became
# array-backed ``Triples``; the columnar versions must give the same results.

def reference_augment_inverse(kg):
    """(relation_ids, relation_texts, relation_is_inverse, relation_base,
    splits as lists of Triple) of the inverse-augmented graph."""
    from kglp.data import INVERSE_ID_SUFFIX, INVERSE_TEXT_PREFIX, Triple
    n_rel = kg.num_relations
    splits = {
        name: list(triples) + [Triple(t.tail, t.relation + n_rel, t.head) for t in triples]
        for name, triples in kg.splits.items()
    }
    return (kg.relation_ids + [r + INVERSE_ID_SUFFIX for r in kg.relation_ids],
            kg.relation_texts + [INVERSE_TEXT_PREFIX + t for t in kg.relation_texts],
            [False] * n_rel + [True] * n_rel,
            list(range(n_rel)) + list(range(n_rel)),
            splits)


def reference_resplit_unseen(kg, ratio: float, seed: int) -> dict:
    """The resplit's splits, as lists of Triple."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(kg.num_entities)
    k = int(ratio * kg.num_entities)
    test_entities = set(int(e) for e in perm[:k])
    valid_entities = set(int(e) for e in perm[k:2 * k])
    new_splits = {"train": [], "valid": [], "test": []}
    for name in ("train", "valid", "test"):
        for t in kg.splits[name]:
            if t.head in test_entities or t.tail in test_entities:
                new_splits["test"].append(t)
            elif t.head in valid_entities or t.tail in valid_entities:
                new_splits["valid"].append(t)
            else:
                new_splits["train"].append(t)
    return new_splits


def reference_queries_for_split(kg, split: str) -> list:
    from kglp.evaluate import RankingQuery
    queries = []
    for t in kg.splits[split]:
        if kg.relation_is_inverse[t.relation]:
            continue
        queries.append(RankingQuery(t.head, t.relation, gold=t.tail))
        queries.append(RankingQuery(t.tail, kg.inverse_relation(t.relation), gold=t.head))
    return queries


def reference_save_splits(kg, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test"):
        with open(directory / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for t in (t for t in kg.splits[name] if not kg.relation_is_inverse[t.relation]):
                fh.write(f"{kg.entity_ids[t.head]}\t{kg.relation_ids[t.relation]}"
                         f"\t{kg.entity_ids[t.tail]}\n")
    with open(directory / "entity2text.tsv", "w", encoding="utf-8") as fh:
        for raw, name in zip(kg.entity_ids, kg.entity_names):
            fh.write(f"{raw}\t{name}\n")
    if any(kg.entity_descriptions):
        with open(directory / "entity2textlong.tsv", "w", encoding="utf-8") as fh:
            for raw, desc in zip(kg.entity_ids, kg.entity_descriptions):
                if desc:
                    fh.write(f"{raw}\t{desc}\n")
    with open(directory / "relation2text.tsv", "w", encoding="utf-8") as fh:
        n = kg.num_relations // 2 if kg.augmented else kg.num_relations
        for raw, text in zip(kg.relation_ids[:n], kg.relation_texts[:n]):
            fh.write(f"{raw}\t{text}\n")


def run_pipeline(kg, vocab, seed: int, pretrain_epochs: int, finetune_epochs: int,
                 *, hidden_size=64, num_layers=2, ff_size=128, max_len=32,
                 batch_size=16, pretrain_lr=(1e-3, 5e-4), finetune_lr=(1e-3, 5e-4),
                 pair_max_len=32, entity_max_len=16, pretraining="multi",
                 negative_mode="in_batch", num_negatives=5, finetune_batch=None,
                 patience=10_000):
    """Train a compact model end to end on an augmented graph; returns the encoder.

    ``pretraining`` is "multi" (all three masking tasks), "mlm" (token masking
    only), or "none" (skip straight to fine-tuning from random initialization).
    """
    import kglp
    from kglp.finetune import FinetuneConfig, run_finetune
    from kglp.pretrain import PretrainConfig, run_pretraining

    encoder = kglp.Encoder(kglp.EncoderConfig(
        vocab_size=vocab.size, hidden_size=hidden_size, num_layers=num_layers,
        num_heads=4, ff_size=ff_size, max_len=max(max_len, pair_max_len)),
        seed=seed)
    if pretraining != "none" and pretrain_epochs > 0:
        run_pretraining(kg, vocab, encoder, PretrainConfig(
            epochs=pretrain_epochs, batch_size=batch_size, max_len=max_len,
            seed=seed, lr_linear=pretrain_lr[0], lr_attention=pretrain_lr[1],
            patience=patience, mlm_only=(pretraining == "mlm")))
    run_finetune(kg, vocab, encoder, FinetuneConfig(
        epochs=finetune_epochs, batch_size=finetune_batch or batch_size,
        seed=seed, pair_max_len=pair_max_len, entity_max_len=entity_max_len,
        lr_linear=finetune_lr[0], lr_attention=finetune_lr[1], eval_every=10,
        negative_mode=negative_mode, num_negatives=num_negatives))
    return encoder


def rel_error(numeric: float, analytic: float, floor: float = 1e-4) -> float:
    """Mixed relative/absolute gradient-check error with a magnitude floor."""
    return abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor)


class ForcedRng:
    """Stand-in rng whose random() draws are forced to a constant."""

    def __init__(self, value: float, integer: int = 5):
        self.value = value
        self.integer = integer

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def integers(self, low, high, size=None):
        return np.full(size, self.integer) if size is not None else self.integer


# ------------------------------------- reference copies of replaced code paths

def reference_adamw_step(opt, params: dict, grads: dict, lr_scale: float = 1.0) -> None:
    """Whole-array AdamW update that the blocked in-place ``AdamW.step``
    replaced; reads and writes the same optimizer state fields."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, g in grads.items():
        p = params[name]
        lr = opt.lr_groups[opt.group_fn(name)] * lr_scale
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p)
            opt.v[name] = np.zeros_like(p)
        m, v = opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if opt.weight_decay and p.ndim >= 2:
            update = update + opt.weight_decay * p
        p -= (lr * update).astype(p.dtype)


def reference_scatter_add_rows(table, ids, rows) -> None:
    """Unbuffered per-row scatter that ``scatter_add_rows`` replaced."""
    np.add.at(table, ids, rows)


def reference_clip_global_norm(grads: dict, max_norm: float) -> float:
    """Global-norm clipping through float64 copies of every gradient."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def two_buffer_backward(encoder, passes) -> dict:
    """Fine-tuning backward as two gradient dicts and a merge loop.

    ``passes`` is a sequence of (forward cache, d_states); each pass gets a
    fresh dict and the later ones are summed into the first.
    """
    (cache, d_states), *rest = passes
    grads = encoder.backward(cache, d_states)
    for cache, d_states in rest:
        for name, g in encoder.backward(cache, d_states).items():
            grads[name] += g
    return grads


def reference_stack_and_trim(samples):
    """Pre-training batch arrays as the removed ``pretrain._stack_and_trim``
    built them: cut to the longest real sequence, rounded up to 8."""
    max_len = samples[0].x.shape[0]
    longest = max(s.layout.length for s in samples)
    trim = min(max_len, -(-longest // 8) * 8)
    x = np.stack([s.x[:trim] for s in samples])
    mask = np.stack([s.mask[:trim] for s in samples])
    y1 = np.stack([s.y1[:trim] for s in samples])
    y2 = np.stack([s.y2[:trim] for s in samples])
    return x, mask, y1, y2


def reference_stack_layouts(layouts):
    """(tokens, mask) as the removed ``finetune._encode_layouts`` and
    ``evaluate._encode_pooled`` built them before encoding."""
    tokens = np.stack([l.tokens for l in layouts])
    mask = np.stack([l.mask for l in layouts])
    longest = max(l.length for l in layouts)
    trim = min(tokens.shape[1], -(-longest // 8) * 8)
    return tokens[:, :trim], mask[:, :trim]


def reference_unit_rows(x):
    """The removed ``evaluate._unit_rows``."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def reference_loss_components(scores, diffs, labels, fp, cell_mask=None):
    """The removed ``finetune._loss_components``: mean focal and sigmoid terms
    recomputed from the cell scores and distances."""
    from scipy.special import expit
    p_eps = 1e-6
    pos = labels.astype(bool)
    p = np.clip((scores.astype(np.float64) + 1.0) / 2.0, p_eps, 1.0 - p_eps)
    l1 = np.where(pos, -fp.alpha * (1.0 - p) ** fp.gamma * np.log(p),
                  -(1.0 - fp.alpha) * p ** fp.gamma * np.log1p(-p))
    sig = expit(diffs.astype(np.float64))
    l2 = np.where(pos, sig, 1.0 - sig)
    if cell_mask is None:
        return float(l1.mean()), float(l2.mean())
    return float(l1[cell_mask].mean()), float(l2[cell_mask].mean())


def reference_finetune_report(batch, encoder, cat, label_filter, config, rng,
                              neg_rng=None):
    """(loss, l1, l2, n_pos, n_neg) of a fine-tuning step as the code before
    the single cell-loss path computed them; updates nothing."""
    from kglp.finetune import (abs_diff_sums, build_label_matrix, joint_loss,
                               score_batch)
    from kglp.text import assemble_entity, assemble_pair
    pair_layouts = [assemble_pair(cat, t.head, t.relation, config.pair_max_len)
                    for t in batch]
    pair_states, _ = encoder.forward(*reference_stack_layouts(pair_layouts),
                                     train=True, rng=rng)
    if config.negative_mode == "in_batch":
        ent_ids = np.array([t.tail for t in batch])
        labels = build_label_matrix(batch, label_filter)
        cell_mask = None
    else:
        n, k = len(batch), config.num_negatives
        tails = np.array([t.tail for t in batch])
        sampled = neg_rng.integers(0, cat.kg.num_entities, size=(n, k))
        ent_ids, inverse = np.unique(np.concatenate([tails, sampled.ravel()]),
                                     return_inverse=True)
        tail_cols, neg_cols = inverse[:n], inverse[n:].reshape(n, k)
        labels = np.zeros((n, len(ent_ids)), dtype=np.int8)
        labels[np.arange(n), tail_cols] = 1
        cell_mask = np.zeros((n, len(ent_ids)), dtype=bool)
        cell_mask[np.arange(n), tail_cols] = True
        cell_mask[np.arange(n)[:, None], neg_cols] = True
    ent_layouts = [assemble_entity(cat, int(e), config.entity_max_len) for e in ent_ids]
    ent_states, _ = encoder.forward(*reference_stack_layouts(ent_layouts),
                                    train=True, rng=rng)
    scores = score_batch(pair_states[:, 0], ent_states[:, 0])
    diffs = abs_diff_sums(pair_states[:, 0], ent_states[:, 0])
    fp = config.focal()
    loss = joint_loss(scores, diffs, labels, fp, cell_mask)
    l1, l2 = reference_loss_components(scores, diffs, labels, fp, cell_mask)
    considered = labels if cell_mask is None else labels[cell_mask]
    n_pos = int(considered.sum())
    return loss, l1, l2, n_pos, int(considered.size) - n_pos


def reference_pretrain_losses(encoder, samples, rng):
    """(mlm, mim) of a training-mode pre-training batch on reference-trimmed
    arrays; the head's running statistics of ``encoder`` are updated."""
    from kglp.layers import cross_entropy
    x, mask, y1, y2 = reference_stack_and_trim(samples)
    states, _ = encoder.forward(x, mask, train=True, rng=rng)
    pos1, pos2 = y1 != 0, y2 != 0
    pos_any = pos1 | pos2
    logits, _ = encoder.predict_tokens(states[pos_any], train=True)
    mim, _ = cross_entropy(logits[pos1[pos_any]], y1[pos1])
    mlm, _ = cross_entropy(logits[pos2[pos_any]], y2[pos2])
    return mlm, mim


def reference_ranks(encoder, cat, kg, split, pair_max_len, entity_max_len,
                    batch_size):
    """Filtered ranks of a split through reference trimming and row
    normalisation, in ``evaluate``'s query order."""
    from kglp.data import build_filter_index
    from kglp.evaluate import queries_for_split, rank_from_scores
    from kglp.text import assemble_entity, assemble_pair

    def pooled(layouts):
        return np.concatenate([
            encoder.forward(*reference_stack_layouts(layouts[s:s + batch_size]))[0][:, 0]
            for s in range(0, len(layouts), batch_size)])

    table = pooled([assemble_entity(cat, e, entity_max_len)
                    for e in range(kg.num_entities)])
    table_unit = reference_unit_rows(table)
    filt = build_filter_index(kg)
    queries = queries_for_split(kg, split)
    ranks = []
    for start in range(0, len(queries), batch_size):
        chunk = queries[start:start + batch_size]
        scores = reference_unit_rows(pooled(
            [assemble_pair(cat, q.entity, q.relation, pair_max_len) for q in chunk])
        ) @ table_unit.T
        ranks += [rank_from_scores(row, q.gold, filt.tails((q.entity, q.relation)))
                  for row, q in zip(scores, chunk)]
    return table, ranks


def reference_grid_forward(encoder, tokens, mask, train=False, rng=None, positions=None):
    """``Encoder.forward`` over the full (B, S) grid, as it ran before every
    forward computed real rows only: every block sends every position through
    every layer, dropout draws its masks on the full arrays in the same order,
    and ``positions`` gathers the states at the end. Returns
    (states, cache), the cache for ``reference_grid_backward``."""
    from kglp import layers as L
    p, cfg = encoder.params, encoder.config
    tokens, mask = np.atleast_2d(tokens), np.atleast_2d(mask)
    B, S = tokens.shape
    H = cfg.num_heads
    d = cfg.hidden_size
    dh = d // H
    rate = cfg.dropout if train else 0.0
    key_mask = mask.astype(bool)
    x, emb_ln = L.layernorm_forward(p["tok_emb"][tokens] + p["pos_emb"][:S][None, :, :],
                                    p["emb_ln.g"], p["emb_ln.b"])
    x, emb_drop = L.dropout_forward(x, rate, rng, train)
    blocks = []
    for i in range(cfg.num_layers):
        w = {k[len(f"blk{i}."):]: v for k, v in p.items() if k.startswith(f"blk{i}.")}
        c = {}
        heads = []
        for n in "qkv":
            t, c[n] = L.linear_forward(x, w[f"attn.w{n}"], w[f"attn.b{n}"])
            heads.append(t.reshape(B, S, H, dh).transpose(0, 2, 1, 3))
        c["qh"], c["kh"], c["vh"] = heads
        scores = (c["qh"] @ c["kh"].transpose(0, 1, 3, 2)) / np.sqrt(dh).astype(x.dtype)
        c["attn"] = L.softmax_last(np.where(key_mask[:, None, None, :], scores, -np.inf))
        c["attn_d"], c["attn_drop"] = L.dropout_forward(c["attn"], rate, rng, train)
        ctx = (c["attn_d"] @ c["vh"]).transpose(0, 2, 1, 3).reshape(B, S, d)
        out, c["out"] = L.linear_forward(ctx, w["attn.wo"], w["attn.bo"])
        out, c["out_drop"] = L.dropout_forward(out, rate, rng, train)
        h1, c["ln1"] = L.layernorm_forward(x + out, w["ln1.g"], w["ln1.b"])
        u, c["ff1"] = L.linear_forward(h1, w["ff.w1"], w["ff.b1"])
        g, c["gelu"] = L.gelu_forward(u)
        f, c["ff2"] = L.linear_forward(g, w["ff.w2"], w["ff.b2"])
        f, c["ff_drop"] = L.dropout_forward(f, rate, rng, train)
        x, c["ln2"] = L.layernorm_forward(h1 + f, w["ln2.g"], w["ln2.b"])
        blocks.append(c)
    cache = {"tokens": tokens, "emb_ln": emb_ln, "emb_drop": emb_drop, "blocks": blocks}
    return (x if positions is None else x[tuple(positions)]), cache


def reference_grid_backward(encoder, cache, d_states, grads=None):
    """``Encoder.backward`` over the full grid, for a ``reference_grid_forward``
    cache; it reads the (B, S, d) ``d_states`` at every position."""
    from kglp import layers as L

    def add(name, g):
        np.add(grads[name], g, out=grads[name], dtype=grads[name].dtype)

    p, cfg = encoder.params, encoder.config
    B, S = cache["tokens"].shape
    H = cfg.num_heads
    d = cfg.hidden_size
    dh = d // H
    dx = np.zeros((B, S, d), dtype=encoder.dtype)
    dx += d_states
    if grads is None:
        grads = encoder.zero_grads()
    for i in reversed(range(cfg.num_layers)):
        c = cache["blocks"][i]
        dresid2, dg, db = L.layernorm_backward(dx, c["ln2"])
        add(f"blk{i}.ln2.g", dg)
        add(f"blk{i}.ln2.b", db)
        dgelu, dw, db = L.linear_backward(L.dropout_backward(dresid2, c["ff_drop"]), c["ff2"])
        add(f"blk{i}.ff.w2", dw)
        add(f"blk{i}.ff.b2", db)
        dh1, dw, db = L.linear_backward(L.gelu_backward(dgelu, c["gelu"]), c["ff1"])
        add(f"blk{i}.ff.w1", dw)
        add(f"blk{i}.ff.b1", db)
        dh1 += dresid2
        dresid1, dg, db = L.layernorm_backward(dh1, c["ln1"])
        add(f"blk{i}.ln1.g", dg)
        add(f"blk{i}.ln1.b", db)
        dctx, dw, db = L.linear_backward(L.dropout_backward(dresid1, c["out_drop"]), c["out"])
        add(f"blk{i}.attn.wo", dw)
        add(f"blk{i}.attn.bo", db)
        dctx_h = dctx.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
        dattn_d = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn_d"].transpose(0, 1, 3, 2) @ dctx_h
        dscores = L.softmax_backward(L.dropout_backward(dattn_d, c["attn_drop"]), c["attn"])
        dscores /= np.sqrt(dh).astype(dscores.dtype)
        heads = {"q": dscores @ c["kh"], "k": dscores.transpose(0, 1, 3, 2) @ c["qh"],
                 "v": dvh}
        dx = dresid1
        for n, dt in heads.items():
            dxi, dw, db = L.linear_backward(dt.transpose(0, 2, 1, 3).reshape(B, S, d), c[n])
            add(f"blk{i}.attn.w{n}", dw)
            add(f"blk{i}.attn.b{n}", db)
            dx = dx + dxi
    dx = L.dropout_backward(dx, cache["emb_drop"])
    dx, dg, db = L.layernorm_backward(dx, cache["emb_ln"])
    add("emb_ln.g", dg)
    add("emb_ln.b", db)
    L.scatter_add_rows(grads["tok_emb"], cache["tokens"], dx)
    grads["pos_emb"][:S] += dx.sum(axis=0).astype(encoder.dtype, copy=False)
    return grads


def reference_encode_states(encoder, tokens, mask):
    """Token states of a full-grid inference forward, as ``Encoder.encode``
    computed them before it computed the [CLS] rows alone."""
    return reference_grid_forward(encoder, tokens, mask)[0]


def reference_encode_pooled(encoder, layouts, batch_size):
    """Pooled vectors of layouts as ``evaluate._encode_pooled`` computed them
    before ``Encoder.encode`` computed the [CLS] rows alone: reference-trimmed
    batches, full-sequence forward, [CLS] rows."""
    return np.concatenate([
        reference_encode_states(encoder, *reference_stack_layouts(layouts[s:s + batch_size]))[:, 0]
        for s in range(0, len(layouts), batch_size)])


def reference_run_pretraining(kg, vocab, encoder, config, log_path=None) -> list[dict]:
    """The pre-training epoch loop as it stood before ``optim.run_epochs``,
    minus its logging calls; the stream tags are the original literals."""
    import json
    import math

    from kglp import pretrain
    from kglp.optim import AdamW, warmup_linear_decay
    from kglp.sampling import build_pretrain_sample, derive_rng
    from kglp.text import TokenizedCatalog
    TrainingDiverged = pretrain.TrainingDiverged
    _SHUFFLE, _SAMPLE, _DROPOUT = 1, 2, 3

    cat = TokenizedCatalog(kg, vocab)
    train = kg.splits["train"]
    valid = kg.splits["valid"]
    if not train:
        raise ValueError("empty train split")
    steps_per_epoch = math.ceil(len(train) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    optimizer = AdamW({"linear": config.lr_linear, "attention": config.lr_attention},
                      weight_decay=config.weight_decay)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    history: list[dict] = []
    best_val = math.inf
    best_state = None
    bad_epochs = 0
    step = 0
    try:
        for epoch in range(config.epochs):
            order = derive_rng(config.seed, _SHUFFLE, epoch).permutation(len(train))
            dropout_rng = derive_rng(config.seed, _DROPOUT, epoch)
            epoch_mlm = epoch_mim = 0.0
            for start in range(0, len(train), config.batch_size):
                ids = [int(i) for i in order[start:start + config.batch_size]]
                samples = [
                    build_pretrain_sample(train[i], cat, config.max_len,
                                          derive_rng(config.seed, _SAMPLE, epoch, i),
                                          mlm_only=config.mlm_only)
                    for i in ids
                ]
                lr_scale = warmup_linear_decay(step, total_steps, config.warmup_frac)
                try:
                    report = pretrain.pretrain_step(samples, encoder, optimizer, lr_scale,
                                                    rng=dropout_rng,
                                                    clip_norm=config.clip_norm)
                except TrainingDiverged:
                    raise TrainingDiverged(step, optimizer.learning_rates(lr_scale),
                                           ids) from None
                epoch_mlm += report.mlm_loss
                epoch_mim += report.mim_loss
                if log_fh and step % config.log_every == 0:
                    lrs = optimizer.learning_rates(lr_scale)
                    log_fh.write(json.dumps({
                        "step": step, "epoch": epoch,
                        "lr_linear": lrs["linear"], "lr_attention": lrs["attention"],
                        "mlm_loss": report.mlm_loss, "mim_loss": report.mim_loss,
                        "tasks": report.task_counts,
                        "task_losses": report.task_losses}) + "\n")
                step += 1

            val_mlm, val_mim = pretrain.validation_loss(encoder, cat, valid, config)
            val_total = val_mlm + val_mim
            improved = val_total < best_val
            if improved:
                best_val = val_total
                best_state = encoder.copy_params()
                bad_epochs = 0
            else:
                bad_epochs += 1
            record = {
                "epoch": epoch,
                "train_mlm": epoch_mlm / steps_per_epoch,
                "train_mim": epoch_mim / steps_per_epoch,
                "val_mlm": val_mlm, "val_mim": val_mim, "val_total": val_total,
                "best": improved,
            }
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps({"epoch_summary": record}) + "\n")
                log_fh.flush()
            if bad_epochs >= config.patience:
                break
    finally:
        if log_fh:
            log_fh.close()
    if best_state is not None:
        encoder.load_params(*best_state)
    return history


def reference_run_finetune(kg, vocab, encoder, config, log_path=None) -> list[dict]:
    """The fine-tuning epoch loop as it stood before ``optim.run_epochs``,
    minus its logging calls; the stream tags are the original literals."""
    import json
    import math

    from kglp import finetune
    from kglp.data import build_filter_index
    from kglp.evaluate import evaluate as evaluate_ranking
    from kglp.optim import AdamW, warmup_linear_decay
    from kglp.sampling import derive_rng
    from kglp.text import TokenizedCatalog
    TrainingDiverged = finetune.TrainingDiverged
    _SHUFFLE, _DROPOUT, _NEGATIVES = 11, 12, 13

    cat = TokenizedCatalog(kg, vocab)
    train = kg.splits["train"]
    if not train:
        raise ValueError("empty train split")
    label_filter = build_filter_index(kg, config.label_splits)
    eval_filter = build_filter_index(kg)
    steps_per_epoch = math.ceil(len(train) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    optimizer = AdamW({"linear": config.lr_linear, "attention": config.lr_attention},
                      weight_decay=config.weight_decay)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    history: list[dict] = []
    best_hits10 = -1.0
    best_state = None
    step = 0
    try:
        for epoch in range(config.epochs):
            order = derive_rng(config.seed, _SHUFFLE, epoch).permutation(len(train))
            dropout_rng = derive_rng(config.seed, _DROPOUT, epoch)
            neg_rng = derive_rng(config.seed, _NEGATIVES, epoch)
            epoch_loss = 0.0
            for start in range(0, len(train), config.batch_size):
                ids = [int(i) for i in order[start:start + config.batch_size]]
                batch = [train[i] for i in ids]
                lr_scale = warmup_linear_decay(step, total_steps, config.warmup_frac)
                try:
                    report = finetune.finetune_step(batch, encoder, cat, label_filter,
                                                    optimizer, lr_scale, config,
                                                    rng=dropout_rng, neg_rng=neg_rng)
                except TrainingDiverged:
                    raise TrainingDiverged(step, optimizer.learning_rates(lr_scale),
                                           ids) from None
                epoch_loss += report.loss
                if log_fh and step % config.log_every == 0:
                    log_fh.write(json.dumps({
                        "step": step, "epoch": epoch, "loss": report.loss,
                        "l1": report.l1_mean, "l2": report.l2_mean,
                        "pos_cells": report.n_pos, "neg_cells": report.n_neg}) + "\n")
                step += 1

            record = {"epoch": epoch, "train_loss": epoch_loss / steps_per_epoch}
            if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                val = evaluate_ranking(
                    kg, encoder, "valid", vocab=vocab, cat=cat, filter_index=eval_filter,
                    pair_max_len=config.pair_max_len,
                    entity_max_len=config.entity_max_len)
                record.update(val_hits10=val.hits10, val_mrr=val.mrr, val_mr=val.mr)
                if val.hits10 > best_hits10:
                    best_hits10 = val.hits10
                    best_state = encoder.copy_params()
                    record["best"] = True
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps({"epoch_summary": record}) + "\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    if best_state is not None:
        encoder.load_params(*best_state)
    return history
