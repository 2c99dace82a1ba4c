"""Vocabulary induction, tokenization, and model input assembly.

The vocabulary is word-level: text is lowercased and split on whitespace and
punctuation (punctuation is a delimiter, not a token), out-of-vocabulary words
map to [UNK]. Five reserved ids are fixed: PAD=0, UNK=1, CLS=2, SEP=3, MASK=4;
corpus induction can never produce them because bracketed names do not survive
tokenization.

Assembled sequences follow the layout
    [CLS] head head_desc [SEP] relation [SEP] tail tail_desc [SEP]
for full triples, with pair ([CLS] head head_desc [SEP] relation [SEP]) and
entity ([CLS] entity entity_desc [SEP]) variants used by the Siamese stage.
A name and its description are adjacent regions with no separator between
them, i.e. plain concatenation at word level (a single space, effectively).
When a sequence exceeds ``max_len``, descriptions are truncated first
(proportionally to their lengths), then entity names; the relation and the
separators are kept (the relation is cut only if it alone cannot fit).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import KnowledgeGraph, corpus_texts
from .files import atomic_write

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = 0, 1, 2, 3, 4
RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
NUM_RESERVED = len(RESERVED_TOKENS)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: NumPy's pairwise-summation block: a longer sum splits at a point that depends
#: on its length, so past it every batch keeps its full layout length (``trim_width``)
_PAIRWISE_BLOCK = 128


def split_words(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; punctuation is dropped."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Bijective token<->id map with fixed reserved ids 0..4."""

    def __init__(self, corpus_tokens: list[str]):
        self.id_to_token = RESERVED_TOKENS + list(corpus_tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def save(self, path) -> None:
        """One token per line; the line number is the id; lines 0-4 are reserved."""
        with atomic_write(path, text=True) as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        while tokens and tokens[-1] == "":
            tokens.pop()
        if tokens[:NUM_RESERVED] != RESERVED_TOKENS:
            raise ValueError(f"{path}: first {NUM_RESERVED} lines must be the reserved tokens")
        return cls(tokens[NUM_RESERVED:])


def build_vocab(kg: KnowledgeGraph, min_freq: int = 1) -> Vocabulary:
    """Induce a vocabulary from the catalog texts of ``kg``.

    Tokens with corpus frequency >= min_freq enter the vocabulary, ordered by
    frequency descending then lexicographically, after the reserved ids. Build
    from the augmented graph so inverse-relation marker words are covered.
    A ``min_freq`` that keeps no token of a non-empty corpus raises ValueError.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    counts: Counter = Counter()
    for text in corpus_texts(kg):
        counts.update(split_words(text))
    kept = [t for t, c in counts.items() if c >= min_freq]
    if counts and not kept:
        raise ValueError(f"min_freq {min_freq} keeps no token (max count {max(counts.values())})")
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for ``text``; OOV words map to UNK; empty text gives []."""
    return [vocab.token_to_id.get(w, UNK_ID) for w in split_words(text)]


@dataclass
class SequenceLayout:
    """A fixed-length token sequence with named region spans.

    ``tokens`` has exactly ``max_len`` entries (PAD-filled tail); ``mask`` is 1
    on the non-PAD prefix; ``spans`` maps region name to a half-open [begin, end)
    interval; empty regions are zero-width.
    """

    tokens: np.ndarray
    mask: np.ndarray
    spans: dict[str, tuple[int, int]]
    length: int


def _proportional_split(budget: int, len_a: int, len_b: int) -> tuple[int, int]:
    """Split ``budget`` positions over two regions proportionally to their lengths."""
    total = len_a + len_b
    if total <= budget:
        return len_a, len_b
    if budget <= 0:
        return 0, 0
    keep_a = budget * len_a // total
    return keep_a, budget - keep_a


def _fit_regions(max_len: int, n_special: int, ent_a: list[int], desc_a: list[int],
                 rel: list[int], ent_b: list[int], desc_b: list[int]):
    """Apply the truncation policy: descriptions first (proportionally), then
    entity names, then (only as a last resort) the relation."""
    budget = max(0, max_len - n_special)
    rel = rel[:budget]
    budget -= len(rel)
    ka, kb = _proportional_split(budget, len(ent_a), len(ent_b))
    ent_a, ent_b = ent_a[:ka], ent_b[:kb]
    budget -= len(ent_a) + len(ent_b)
    da, db = _proportional_split(budget, len(desc_a), len(desc_b))
    return ent_a, desc_a[:da], rel, ent_b, desc_b[:db]


def _finalize(parts: list[tuple[str, list[int]]], max_len: int) -> SequenceLayout:
    tokens = np.full(max_len, PAD_ID, dtype=np.int32)
    spans = {}
    pos = 0
    for name, toks in parts:
        spans[name] = (pos, pos + len(toks))
        tokens[pos:pos + len(toks)] = toks
        pos += len(toks)
    mask = np.zeros(max_len, dtype=np.int8)
    mask[:pos] = 1
    return SequenceLayout(tokens=tokens, mask=mask, spans=spans, length=pos)


class TokenizedCatalog:
    """Pre-tokenized entity/relation texts of one graph, bound to one vocabulary.

    Assembling model inputs per training sample re-tokenizes nothing; the
    catalog is immutable and shared freely across threads.
    """

    def __init__(self, kg: KnowledgeGraph, vocab: Vocabulary):
        self.kg = kg
        self.vocab = vocab
        self.entity_tokens = [tokenize(t, vocab) for t in kg.entity_names]
        self.entity_desc_tokens = [tokenize(t, vocab) for t in kg.entity_descriptions]
        self.relation_tokens = [tokenize(t, vocab) for t in kg.relation_texts]


def assemble_triple(cat: TokenizedCatalog, head: int, relation: int, tail: int,
                    max_len: int) -> SequenceLayout:
    """Full-triple input: [CLS] head head_desc [SEP] rel [SEP] tail tail_desc [SEP]."""
    if max_len < 16:
        raise ValueError(f"max_len must be >= 16, got {max_len}")
    e_h, d_h, r, e_t, d_t = _fit_regions(
        max_len, 4,
        cat.entity_tokens[head], cat.entity_desc_tokens[head],
        cat.relation_tokens[relation],
        cat.entity_tokens[tail], cat.entity_desc_tokens[tail])
    return _finalize([
        ("cls", [CLS_ID]),
        ("head", e_h), ("head_desc", d_h), ("sep1", [SEP_ID]),
        ("rel", r), ("sep2", [SEP_ID]),
        ("tail", e_t), ("tail_desc", d_t), ("sep3", [SEP_ID]),
    ], max_len)


def assemble_pair(cat: TokenizedCatalog, head: int, relation: int,
                  max_len: int) -> SequenceLayout:
    """Query-side input: [CLS] head head_desc [SEP] rel [SEP]."""
    return assemble_pair_tokens(cat.entity_tokens[head], cat.entity_desc_tokens[head],
                                relation, cat, max_len)


def assemble_pair_tokens(head_tokens: list[int], head_desc_tokens: list[int],
                         relation: int, cat: TokenizedCatalog,
                         max_len: int) -> SequenceLayout:
    """Pair layout for an arbitrary head token sequence (supports free-text heads)."""
    if max_len < 8:
        raise ValueError(f"pair max_len must be >= 8, got {max_len}")
    e_h, d_h, r, _, _ = _fit_regions(max_len, 3, head_tokens, head_desc_tokens,
                                     cat.relation_tokens[relation], [], [])
    return _finalize([
        ("cls", [CLS_ID]),
        ("head", e_h), ("head_desc", d_h), ("sep1", [SEP_ID]),
        ("rel", r), ("sep2", [SEP_ID]),
    ], max_len)


def assemble_entity(cat: TokenizedCatalog, entity: int, max_len: int) -> SequenceLayout:
    """Candidate-side input: [CLS] entity entity_desc [SEP]."""
    if max_len < 4:
        raise ValueError(f"entity max_len must be >= 4, got {max_len}")
    ent, desc, _, _, _ = _fit_regions(max_len, 2, cat.entity_tokens[entity],
                                      cat.entity_desc_tokens[entity], [], [], [])
    return _finalize([
        ("cls", [CLS_ID]), ("entity", ent), ("entity_desc", desc), ("sep1", [SEP_ID]),
    ], max_len)


def layout_lengths(cat: TokenizedCatalog, max_len: int, heads=None,
                   relations=None, tails=None) -> np.ndarray:
    """Real lengths of the layouts ``assemble_entity`` builds for every catalog
    entity or, given ``heads`` and ``relations``, that ``assemble_pair`` builds
    for those keys, or, given ``tails`` too, that ``assemble_triple`` builds for
    those triples; counted from the token lists, with no layout built."""
    entity = np.array([len(e) + len(d) for e, d in
                       zip(cat.entity_tokens, cat.entity_desc_tokens)], dtype=np.int64)
    if heads is None:
        return np.minimum(max_len, 2 + entity)
    relation = np.array([len(r) for r in cat.relation_tokens], dtype=np.int64)
    pair = 3 + entity[heads] + relation[relations]
    return np.minimum(max_len, pair if tails is None else 1 + pair + entity[tails])


def trim_width(lengths, cap: int) -> int:
    """Batch width: the longest real length rounded up to a multiple of 8,
    capped at the layout length ``cap``; ``cap`` itself past ``_PAIRWISE_BLOCK``.

    Cutting a batch to this width drops only PAD columns, which the encoder
    ignores up to rounding: pooled encodes never mix widths, and the rounding
    to 8 only sets how coarse their runs are (``evaluate._encode_pooled``).
    """
    if cap > _PAIRWISE_BLOCK:
        return cap
    return min(cap, -(-max(lengths) // 8) * 8)


def check_widths(max_len: int, *kinds) -> None:
    """Refuse (ValueError naming the key) batches wider than an encoder's
    ``max_len``. Each kind is ``(key, cap, lengths)``: the config key that sets
    the layout length ``cap``, and the real lengths of the layouts to encode."""
    for key, cap, lengths in kinds:
        width = trim_width(lengths, cap) if len(lengths) else 0
        if width > max_len:
            raise ValueError(
                f"{key}={cap} builds batches {width} tokens wide, but the encoder "
                f"(checkpoint) max_len is {max_len}; set {key} to at most {max_len}")


def stack_trimmed(lengths, rows) -> list[np.ndarray]:
    """Stack ``rows``, one tuple of 1-D arrays per sequence of the given real
    lengths, into one batch array per tuple position, cut to ``trim_width``."""
    width = trim_width(lengths, rows[0][0].shape[0])
    return [np.stack([row[:width] for row in column]) for column in zip(*rows)]


def stack_layouts(layouts: list[SequenceLayout]) -> list[np.ndarray]:
    """Stack layouts into [tokens, mask] batch arrays cut to ``trim_width``."""
    return stack_trimmed([l.length for l in layouts],
                         [(l.tokens, l.mask) for l in layouts])
