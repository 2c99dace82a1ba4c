"""Filtered ranking evaluation: Hits@{1,3,10}, mean rank, mean reciprocal rank.

Every original triple of the evaluated split contributes two queries: the tail
query (head, relation) with the tail as gold, and the head query rewritten as
(tail, inverse relation) with the head as gold. Candidates known to be true for
the query key (train + valid + test by default) are removed before ranking,
except the gold itself. Ties with the gold score get the mid-rank: ceiling of
half the tied candidates counts against the gold.

Entity embeddings are computed once per evaluation (one encoder pass per
catalog entity), which is the payoff of the Siamese split: scoring a query
against the whole catalog is a single matrix product. Entity and query vectors
come from ``Encoder.encode``, which keeps no backward caches and runs the
position-wise layers on real token rows only; the vectors are the [CLS] rows
of a full-grid forward, bit for bit (see ``Encoder.forward``). ``evaluate``
encodes its queries as it encodes the table, in batches of one ``trim_width``
each: BLAS sums the attention products of a wider batch in another order, so
only then is a vector the one its layout encoded alone gives. ``evaluate``
times its phases (entity table; query layouts and encodes; scoring and
ranking) in ``RankingReport.phase_seconds``.

An entity table is the unit rows of the pooled vectors, the rows that ranking
reads: ``precompute_entity_embeddings`` normalises them once, when it builds
the table, and returns a read-only array. ``check_entity_table`` is the one
rule for what a table holds; ``kglp predict`` runs it on a stored table.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .data import FilterIndex, KnowledgeGraph, build_filter_index
from .encoder import Encoder
from .files import atomic_write
from .layers import unit_rows
from .text import (TokenizedCatalog, Vocabulary, assemble_entity, assemble_pair,
                   check_widths, layout_lengths, stack_layouts, trim_width)


@dataclass(frozen=True)
class RankingQuery:
    """A (entity, relation) key with its gold completion; head queries arrive
    already rewritten through the inverse relation."""

    entity: int
    relation: int
    gold: int


@dataclass
class RankingReport:
    split: str
    n_queries: int
    hits1: float
    hits3: float
    hits10: float
    mr: float
    mrr: float
    per_query: list[dict] = field(default_factory=list)
    #: wall seconds of the entity table, the query encodes and the ranking;
    #: not part of ``to_dict``
    phase_seconds: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "split": self.split, "n_queries": self.n_queries,
            "hits1": self.hits1, "hits3": self.hits3, "hits10": self.hits10,
            "mr": self.mr, "mrr": self.mrr, "per_query": self.per_query,
        }

    def save(self, path) -> None:
        with atomic_write(path, text=True) as fh:
            json.dump(self.to_dict(), fh, indent=1)


def queries_for_split(kg: KnowledgeGraph, split: str) -> list[RankingQuery]:
    """Two queries per original triple; mirror triples are skipped because they
    would reproduce the same two queries again."""
    if not kg.augmented:
        raise ValueError("evaluation requires an inverse-augmented graph")
    rows = kg.splits[split].array
    original = ~np.asarray(kg.relation_is_inverse, dtype=bool)[rows[:, 1]]
    heads, relations, tails = rows[original].T
    inverse = np.array([kg.inverse_relation(r) for r in range(kg.num_relations)],
                       dtype=np.int64)
    # the tail query of each triple, then its head query
    entities = np.stack([heads, tails], axis=1).ravel().tolist()
    query_relations = np.stack([relations, inverse[relations]], axis=1).ravel().tolist()
    golds = np.stack([tails, heads], axis=1).ravel().tolist()
    return [RankingQuery(e, r, gold=g) for e, r, g in zip(entities, query_relations, golds)]


def precompute_entity_embeddings(encoder: Encoder, cat: TokenizedCatalog,
                                 max_len: int = 32,
                                 batch_size: int = 256) -> np.ndarray:
    """The unit rows of one pooled vector per catalog entity, in catalog order;
    deterministic and read-only. A non-finite vector raises ValueError."""
    layouts = [assemble_entity(cat, e, max_len) for e in range(cat.kg.num_entities)]
    pooled = _encode_pooled(encoder, layouts, batch_size)
    with np.errstate(invalid="ignore"):  # an inf row turns NaN, refused below
        table = unit_rows(pooled)[0]
    check_entity_table(table)
    table.flags.writeable = False
    return table


def check_entity_table(table: np.ndarray) -> None:
    """Raise ValueError unless every row is finite, with L2 norm 1 (to within
    1e-6) or 0: the rows ``unit_rows`` makes, which ranking reads as given."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=-1))
    if bad.size:
        raise ValueError(f"entity table row {bad[0]} is not finite")
    norms = np.linalg.norm(table, axis=-1)
    bad = np.flatnonzero((np.abs(norms - 1.0) > 1e-6) & (norms != 0.0))
    if bad.size:
        raise ValueError(f"entity table row {bad[0]} has norm {norms[bad[0]]:.9g}, "
                         f"not 1 or 0")


def _encode_pooled(encoder: Encoder, layouts, batch_size: int) -> np.ndarray:
    """Pooled vectors of layouts, in their order, through ``Encoder.encode``, in
    stable length order and batches of at most ``batch_size`` (>= 1, else
    ValueError) and one ``trim_width``: each is the vector of a one-layout batch."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.argsort([l.length for l in layouts], kind="stable").tolist()
    pooled = np.empty((len(layouts), encoder.config.hidden_size))
    for _, run in groupby(order, lambda i: trim_width([layouts[i].length],
                                                      len(layouts[i].tokens))):
        run = list(run)
        for start in range(0, len(run), batch_size):
            batch = run[start:start + batch_size]
            pooled[batch] = encoder.encode(*stack_layouts([layouts[i] for i in batch]))
    return pooled


def query_scores(encoder: Encoder, pair_layouts, table_unit: np.ndarray) -> np.ndarray:
    """Cosine scores (queries x entities) of pair layouts, encoded by
    ``_encode_pooled``, against an entity table of unit rows."""
    pooled = _encode_pooled(encoder, pair_layouts, len(pair_layouts))
    return unit_rows(pooled)[0] @ table_unit.T


def rank_from_scores(scores: np.ndarray, gold: int, known_true: np.ndarray) -> int:
    """Filtered mid-rank of the gold among the candidates.

    Candidates in ``known_true`` (an int array such as ``FilterIndex.tails``)
    other than the gold are discarded; the rank is
    1 + (strictly better survivors) + ceil(ties / 2).
    """
    if not 0 <= gold < scores.shape[0]:
        raise ValueError(f"gold entity {gold} outside the catalog")
    if not np.isfinite(scores[gold]):
        raise ValueError(f"score {scores[gold]} of gold entity {gold} is not finite")
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[known_true] = False
    keep[gold] = True
    g = scores[gold]
    kept = scores[keep]
    greater = int((kept > g).sum())
    ties = int((kept == g).sum()) - 1  # the gold ties with itself
    return 1 + greater + (ties + 1) // 2


def rank_query(query: RankingQuery, encoder: Encoder, cat: TokenizedCatalog,
               entity_table: np.ndarray, filter_index: FilterIndex,
               pair_max_len: int = 96) -> int:
    """Filtered rank of one query against ``entity_table``, unit rows as
    ``precompute_entity_embeddings`` returns them."""
    layout = assemble_pair(cat, query.entity, query.relation, pair_max_len)
    scores = query_scores(encoder, [layout], entity_table)[0]
    return rank_from_scores(scores, query.gold,
                            filter_index.tails((query.entity, query.relation)))


def aggregate_ranks(ranks: np.ndarray) -> dict:
    ranks = np.asarray(ranks, dtype=np.float64)
    return {
        "hits1": float((ranks <= 1).mean()),
        "hits3": float((ranks <= 3).mean()),
        "hits10": float((ranks <= 10).mean()),
        "mr": float(ranks.mean()),
        "mrr": float((1.0 / ranks).mean()),
    }


def evaluate(kg: KnowledgeGraph, encoder: Encoder, split: str,
             vocab: Vocabulary | None = None, cat: TokenizedCatalog | None = None,
             filter_index: FilterIndex | None = None, pair_max_len: int = 96,
             entity_max_len: int = 32, batch_size: int = 256,
             collect_per_query: bool = True) -> RankingReport:
    """Score every query of a split against the full catalog, filtered."""
    if split not in ("valid", "test"):
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")
    if cat is None:
        if vocab is None:
            raise ValueError("need a vocabulary or a tokenized catalog")
        cat = TokenizedCatalog(kg, vocab)
    if filter_index is None:
        filter_index = build_filter_index(kg)

    queries = queries_for_split(kg, split)
    phases = dict.fromkeys(("entity_table_s", "query_encode_s", "rank_s"), 0.0)
    if not queries:
        return RankingReport(split=split, n_queries=0, hits1=0.0, hits3=0.0,
                             hits10=0.0, mr=0.0, mrr=0.0, phase_seconds=phases)
    heads, relations = np.array([(q.entity, q.relation) for q in queries]).T
    check_widths(encoder.config.max_len,
                 ("finetune.pair_max_len", pair_max_len,
                  layout_lengths(cat, pair_max_len, heads, relations)),
                 ("finetune.entity_max_len", entity_max_len,
                  layout_lengths(cat, entity_max_len)))
    started = time.perf_counter()
    table = precompute_entity_embeddings(encoder, cat, entity_max_len, batch_size)
    phases["entity_table_s"] = time.perf_counter() - started

    started = time.perf_counter()
    pair_layouts = [assemble_pair(cat, q.entity, q.relation, pair_max_len)
                    for q in queries]
    query_unit = unit_rows(_encode_pooled(encoder, pair_layouts, batch_size))[0]
    phases["query_encode_s"] = time.perf_counter() - started

    started = time.perf_counter()
    ranks = np.empty(len(queries), dtype=np.int64)
    per_query = []
    for start in range(0, len(queries), batch_size):
        scores = query_unit[start:start + batch_size] @ table.T
        for j, q in enumerate(queries[start:start + batch_size]):
            rank = rank_from_scores(scores[j], q.gold,
                                    filter_index.tails((q.entity, q.relation)))
            ranks[start + j] = rank
            if collect_per_query:
                per_query.append({"entity": q.entity, "relation": q.relation,
                                  "gold": q.gold, "rank": int(rank)})
    phases["rank_s"] = time.perf_counter() - started
    agg = aggregate_ranks(ranks)
    return RankingReport(split=split, n_queries=len(queries), per_query=per_query,
                         phase_seconds=phases, **agg)
