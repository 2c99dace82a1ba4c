"""Deterministic synthetic knowledge graphs shaped like the paper's Table 4.

No dataset is downloaded: each workload's graph is generated in memory from a
workload seed. A graph has the exact entity, relation and split counts of one
Table 4 benchmark, a word-level text vocabulary of a chosen size, and entity
names and descriptions of chosen lengths. Heads and tails are drawn from
Zipf-like distributions over a per-relation permutation of the entities, so
some (entity, relation) keys have many known-true completions (heavy-tailed
filter sets) and fine-tuning batches on small catalogs hold repeated tails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from kglp import KnowledgeGraph, Triple

#: Entity, relation and split counts of the three benchmarks (paper, Table 4).
TABLE4 = {
    "umls": {"entities": 135, "relations": 46, "train": 5216, "valid": 652,
             "test": 661},
    "wn18rr": {"entities": 40943, "relations": 11, "train": 86835,
               "valid": 3034, "test": 3034},
    "fb15k237": {"entities": 14541, "relations": 237, "train": 272115,
                 "valid": 17535, "test": 20466},
}


@dataclass(frozen=True)
class GraphShape:
    """Everything the generator needs besides the seed.

    ``vocab_size`` is the target size of the induced vocabulary, reserved ids
    and the inverse-relation marker word included. Name and description
    lengths are inclusive word-count ranges drawn uniformly per entity.
    ``head_skew`` / ``tail_skew`` are Zipf exponents (0 is uniform);
    relations are always drawn with exponent 1.
    ``min_freq`` is the vocabulary threshold the graph is built for: every
    word occurs at least that often.
    """

    counts: dict
    vocab_size: int
    name_words: tuple[int, int]
    desc_words: tuple[int, int]
    head_skew: float
    tail_skew: float
    min_freq: int = 1

    def scaled(self, factor: float) -> "GraphShape":
        """The same shape with every count and the vocabulary cut by ``factor``
        (at least 8 entities and triples, 4 relations, 64 words). Four
        relations keep the inverse marker word above a vocabulary threshold
        of 3."""
        counts = {k: max(4 if k == "relations" else 8, int(v * factor))
                  for k, v in self.counts.items()}
        return replace(self, counts=counts,
                       vocab_size=max(64, int(self.vocab_size * factor)))


# Reserved ids [PAD] [UNK] [CLS] [SEP] [MASK] plus the word "reverse" that
# inverse augmentation adds to every inverse relation's text.
_EXTRA_TOKENS = 6


def _word(i: int) -> str:
    # letters and digits only, so tokenization keeps each word whole
    return f"t{i:x}"


def _zipf_probs(n: int, skew: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    return p / p.sum()


def _ranked_draw(rng, n: int, skew: float, size: int, strides, offsets, rel):
    """Entity ids drawn by rank from a Zipf law, mapped through a bijection
    of the catalog that differs per relation (rank * stride + offset mod n)."""
    rank = rng.choice(n, size=size, p=_zipf_probs(n, skew))
    return (rank * strides[rel] + offsets[rel]) % n


def _coprime_strides(rng, n: int, k: int) -> np.ndarray:
    strides = []
    while len(strides) < k:
        s = int(rng.integers(1, max(2, n)))
        if np.gcd(s, n) == 1:
            strides.append(s)
    return np.array(strides, dtype=np.int64)


def _texts(rng, n_items: int, length_range: tuple[int, int], n_words: int,
           forced: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``n_items`` texts with uniform word counts; word ids follow a Zipf law,
    and the ids in ``forced`` overwrite randomly chosen slots so each of them
    is guaranteed to occur."""
    lo, hi = length_range
    lengths = rng.integers(lo, hi + 1, size=n_items)
    total = int(lengths.sum())
    ids = rng.choice(n_words, size=total, p=_zipf_probs(n_words, 1.0))
    if forced.size:
        if forced.size > total:
            raise ValueError(f"{total} word slots cannot hold {forced.size} forced words")
        ids[rng.choice(total, size=forced.size, replace=False)] = forced
    words = np.array([_word(i) for i in range(n_words)], dtype=object)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    texts = [" ".join(words[ids[bounds[i]:bounds[i + 1]]]) for i in range(n_items)]
    return texts, ids


def generate_graph(shape: GraphShape, seed: int) -> KnowledgeGraph:
    """A non-augmented KnowledgeGraph with exactly ``shape.counts`` entities,
    relations and distinct triples per split; identical for identical seeds."""
    rng = np.random.default_rng([seed, 0x6B676C70])
    c = shape.counts
    n_ent, n_rel = c["entities"], c["relations"]
    n_words = shape.vocab_size - _EXTRA_TOKENS
    if n_words < 1:
        raise ValueError(f"vocab_size must exceed {_EXTRA_TOKENS}")

    # every word at least min_freq times, spread over names and descriptions
    forced = np.tile(rng.permutation(n_words), shape.min_freq)
    rel_texts, _ = _texts(rng, n_rel, (2, 2), n_words, np.empty(0, dtype=np.int64))
    names, _ = _texts(rng, n_ent, shape.name_words, n_words, np.empty(0, dtype=np.int64))
    descs, _ = _texts(rng, n_ent, shape.desc_words, n_words, forced)

    need = c["train"] + c["valid"] + c["test"]
    if need > n_ent * (n_ent - 1) * n_rel:
        raise ValueError("more triples requested than distinct triples exist")
    h_stride, t_stride = _coprime_strides(rng, n_ent, n_rel), _coprime_strides(rng, n_ent, n_rel)
    h_off = rng.integers(0, n_ent, size=n_rel)
    t_off = rng.integers(0, n_ent, size=n_rel)
    rel_p = _zipf_probs(n_rel, 1.0)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < need:
        size = 2 * (need - keys.size) + 64
        r = rng.choice(n_rel, size=size, p=rel_p)
        h = _ranked_draw(rng, n_ent, shape.head_skew, size, h_stride, h_off, r)
        t = _ranked_draw(rng, n_ent, shape.tail_skew, size, t_stride, t_off, r)
        fresh = ((h * n_rel + r) * n_ent + t)[h != t]
        merged = np.concatenate([keys, fresh])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:need]
    h, rest = np.divmod(keys, n_rel * n_ent)
    r, t = np.divmod(rest, n_ent)
    triples = [Triple(int(a), int(b), int(d)) for a, b, d in zip(h, r, t)]
    bounds = np.cumsum([0, c["train"], c["valid"], c["test"]])
    splits = {name: triples[bounds[i]:bounds[i + 1]]
              for i, name in enumerate(("train", "valid", "test"))}

    width = len(str(n_ent))
    return KnowledgeGraph(
        entity_ids=[f"e{i:0{width}d}" for i in range(n_ent)],
        entity_names=names,
        entity_descriptions=descs,
        relation_ids=[f"r{i:03d}" for i in range(n_rel)],
        relation_texts=rel_texts,
        relation_is_inverse=[False] * n_rel,
        relation_base=list(range(n_rel)),
        splits=splits,
    )
