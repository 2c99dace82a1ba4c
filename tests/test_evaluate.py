import importlib
import json

import numpy as np
import pytest

import kglp
from kglp.data import build_filter_index
from kglp.evaluate import (RankingQuery, aggregate_ranks, check_entity_table,
                           evaluate, precompute_entity_embeddings, queries_for_split,
                           query_scores, rank_from_scores, rank_query)
from kglp.layers import unit_rows
from kglp.text import TokenizedCatalog, assemble_pair

from util import naive_rank, random_toy_dataset

# the module itself: ``kglp.evaluate`` is the re-exported function
evaluate_module = importlib.import_module("kglp.evaluate")


def tiny_encoder(vocab_size, seed=0):
    return kglp.Encoder(kglp.EncoderConfig(vocab_size=vocab_size, hidden_size=32,
                                           num_layers=1, num_heads=4, ff_size=48,
                                           max_len=32), seed=seed)


def ids(*entities):
    return np.array(entities, dtype=np.int64)


def test_rank_gold_strictly_highest():
    scores = np.array([0.1, 0.9, 0.3])
    assert rank_from_scores(scores, gold=1, known_true=ids(1)) == 1


def test_rank_hand_cases():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    assert rank_from_scores(scores, gold=2, known_true=ids()) == 3
    # filtering removes a higher-scoring known-true candidate
    assert rank_from_scores(scores, gold=2, known_true=ids(0, 2)) == 2
    # mid-rank tie policy: two non-gold ties -> ceil(2/2) = 1 extra
    tied = np.array([0.5, 0.5, 0.5, 0.1])
    assert rank_from_scores(tied, gold=0, known_true=ids()) == 2


def test_rank_filtered_never_removes_gold():
    scores = np.array([0.9, 0.1])
    assert rank_from_scores(scores, gold=0, known_true=ids(0, 1)) == 1


def test_rank_gold_out_of_range():
    with pytest.raises(ValueError, match="catalog"):
        rank_from_scores(np.array([0.5]), gold=3, known_true=ids())


def test_rank_non_finite_gold_raises():
    with pytest.raises(ValueError, match="not finite"):
        rank_from_scores(np.full(3, np.nan), gold=0, known_true=ids())
    with pytest.raises(ValueError, match="gold entity 1"):
        rank_from_scores(np.array([0.5, np.inf, 0.1]), gold=1, known_true=ids())


def test_rank_matches_naive_sort_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(2, 40))
        # quantized scores force plenty of exact ties
        scores = np.round(rng.random(n) * 4) / 4
        gold = int(rng.integers(n))
        known = set(int(i) for i in rng.integers(0, n, size=rng.integers(0, n)))
        known.add(gold)
        got = rank_from_scores(scores, gold, ids(*known))
        assert got == naive_rank(scores, gold, known)


def test_aggregate_ranks_perfect_model():
    agg = aggregate_ranks(np.ones(10, dtype=int))
    assert agg == {"hits1": 1.0, "hits3": 1.0, "hits10": 1.0, "mr": 1.0, "mrr": 1.0}


def test_queries_for_split_two_per_original_triple(toy_aug):
    queries = queries_for_split(toy_aug, "test")
    originals = [t for t in toy_aug.splits["test"]
                 if not toy_aug.relation_is_inverse[t.relation]]
    assert len(queries) == 2 * len(originals)
    t = originals[0]
    assert RankingQuery(t.head, t.relation, t.tail) in queries
    assert RankingQuery(t.tail, toy_aug.inverse_relation(t.relation), t.head) in queries


@pytest.mark.parametrize("build, message", [
    (build_filter_index, "filter index requires an augmented graph"),
    (lambda kg: queries_for_split(kg, "test"), "requires an inverse-augmented graph"),
], ids=["build_filter_index", "queries_for_split"])
def test_non_augmented_graph_is_refused(toy_kg, toy_aug, build, message):
    with pytest.raises(ValueError, match=message):
        build(toy_kg)
    assert len(build(toy_aug)) > 0


def test_evaluate_rejects_bad_split(toy_aug, toy_vocab):
    enc = tiny_encoder(toy_vocab.size)
    with pytest.raises(ValueError, match="split"):
        evaluate(toy_aug, enc, "train", vocab=toy_vocab)


def test_entity_table_shape_and_determinism(toy_aug, toy_vocab):
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    enc = tiny_encoder(toy_vocab.size)
    t1 = precompute_entity_embeddings(enc, cat, 16)
    t2 = precompute_entity_embeddings(enc, cat, 16)
    assert t1.shape == (toy_aug.num_entities, 32)
    assert (t1 == t2).all()
    assert np.isfinite(t1).all()  # entities with empty descriptions included


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_is_refused(toy_aug, toy_vocab, batch_size):
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    enc = tiny_encoder(toy_vocab.size)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        precompute_entity_embeddings(enc, cat, 16, batch_size=batch_size)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        evaluate(toy_aug, enc, "test", cat=cat, pair_max_len=32, entity_max_len=16,
                 batch_size=batch_size)


def test_rank_query_agrees_with_evaluate(toy_aug, toy_vocab):
    enc = tiny_encoder(toy_vocab.size, seed=3)
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    filt = build_filter_index(toy_aug)
    table = precompute_entity_embeddings(enc, cat, 32)
    report = evaluate(toy_aug, enc, "test", vocab=toy_vocab, pair_max_len=32,
                      entity_max_len=32)
    for entry in report.per_query:
        q = RankingQuery(entry["entity"], entry["relation"], entry["gold"])
        assert rank_query(q, enc, cat, table, filt, pair_max_len=32) == entry["rank"]


def naive_evaluate(kg, encoder, cat, split, pair_max_len, entity_max_len):
    """Independent reference: explicit per-entity encoding, scalar cosines,
    explicit filtering, sorted candidate list."""
    from kglp.evaluate import _encode_pooled
    from kglp.text import assemble_entity, assemble_pair
    filt = build_filter_index(kg)
    table = [
        _encode_pooled(encoder, [assemble_entity(cat, e, entity_max_len)], 1)[0]
        for e in range(kg.num_entities)
    ]
    ranks = []
    for t in kg.splits[split]:
        if kg.relation_is_inverse[t.relation]:
            continue
        for entity, relation, gold in (
                (t.head, t.relation, t.tail),
                (t.tail, kg.inverse_relation(t.relation), t.head)):
            pooled = _encode_pooled(
                encoder, [assemble_pair(cat, entity, relation, pair_max_len)], 1)[0]
            nu = np.linalg.norm(pooled)
            scores = []
            for row in table:
                nv = np.linalg.norm(row)
                scores.append(0.0 if nu == 0 or nv == 0
                              else float(np.dot(pooled, row) / (nu * nv)))
            ranks.append(naive_rank(np.array(scores), gold,
                                    filt[(entity, relation)]))
    ranks = np.array(ranks)
    return {
        "hits1": float((ranks <= 1).mean()), "hits3": float((ranks <= 3).mean()),
        "hits10": float((ranks <= 10).mean()), "mr": float(ranks.mean()),
        "mrr": float((1.0 / ranks).mean()), "n": len(ranks),
    }


def test_evaluate_agrees_with_naive_reference_on_toy_kgs(tmp_path, rng):
    for trial in range(6):
        d = random_toy_dataset(tmp_path / f"kg{trial}", rng)
        kg = kglp.augment_inverse(kglp.load_dataset(d))
        vocab = kglp.build_vocab(kg, 1)
        cat = TokenizedCatalog(kg, vocab)
        enc = tiny_encoder(vocab.size, seed=trial)
        report = evaluate(kg, enc, "test", vocab=vocab, pair_max_len=32,
                          entity_max_len=16)
        want = naive_evaluate(kg, enc, cat, "test", 32, 16)
        assert report.n_queries == want["n"]
        for key in ("hits1", "hits3", "hits10", "mr", "mrr"):
            assert getattr(report, key) == pytest.approx(want[key], abs=1e-12), key


def test_metric_invariants_including_constant_embeddings(tmp_path, rng):
    d = random_toy_dataset(tmp_path / "kg_const", rng)
    kg = kglp.augment_inverse(kglp.load_dataset(d))
    vocab = kglp.build_vocab(kg, 1)
    enc = tiny_encoder(vocab.size, seed=0)
    # adversarial constant-output model: zero out everything that varies
    enc.params["tok_emb"][...] = 0.0
    enc.params["pos_emb"][...] = 0.0
    report = evaluate(kg, enc, "test", vocab=vocab, pair_max_len=32,
                      entity_max_len=16)
    assert report.hits1 <= report.hits3 <= report.hits10
    assert report.mrr >= 1.0 / report.mr - 1e-12
    # all candidates tie, so every rank is the mid rank of its filtered pool
    filt = build_filter_index(kg)
    for entry in report.per_query:
        kept = kg.num_entities - len(
            filt[(entry["entity"], entry["relation"])] - {entry["gold"]})
        assert entry["rank"] == 1 + kept // 2


def test_report_json_roundtrip(tmp_path, toy_aug, toy_vocab):
    enc = tiny_encoder(toy_vocab.size)
    report = evaluate(toy_aug, enc, "valid", vocab=toy_vocab, pair_max_len=32,
                      entity_max_len=16)
    path = tmp_path / "report.json"
    report.save(path)
    payload = json.loads(path.read_text())
    assert payload["split"] == "valid"
    assert payload["n_queries"] == report.n_queries == len(payload["per_query"])
    assert {"entity", "relation", "gold", "rank"} <= set(payload["per_query"][0])


def test_unit_rows_zero_vector():
    rows = unit_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))[0]
    assert (rows[0] == 0.0).all()
    assert np.allclose(np.linalg.norm(rows[1]), 1.0)


def unit_rows_shapes(monkeypatch):
    """Patch the ``unit_rows`` that ``kglp.evaluate`` calls; returns the list
    that gets the shape of each call's argument."""
    shapes = []

    def spy(x):
        shapes.append(x.shape)
        return unit_rows(x)

    monkeypatch.setattr(evaluate_module, "unit_rows", spy)
    return shapes


def test_entity_table_is_read_only(toy_aug, toy_vocab):
    table = precompute_entity_embeddings(tiny_encoder(toy_vocab.size),
                                         TokenizedCatalog(toy_aug, toy_vocab), 16)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def test_rank_query_normalises_a_table_once(toy_aug, toy_vocab, monkeypatch):
    enc = tiny_encoder(toy_vocab.size, seed=5)
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    filt = build_filter_index(toy_aug)
    shapes = unit_rows_shapes(monkeypatch)
    table = precompute_entity_embeddings(enc, cat, 16)
    assert shapes == [table.shape]
    queries = queries_for_split(toy_aug, "test")
    want = [query_scores(enc, [assemble_pair(cat, q.entity, q.relation, 32)],
                         table)[0] for q in queries]

    seen = []
    real_rank = evaluate_module.rank_from_scores

    def spy(scores, gold, known_true):
        seen.append(scores)
        return real_rank(scores, gold, known_true)

    monkeypatch.setattr(evaluate_module, "rank_from_scores", spy)
    shapes.clear()
    for i in range(50):
        rank_query(queries[i % len(queries)], enc, cat, table, filt, pair_max_len=32)
    # only the query vectors are normalised, never the table again
    assert shapes == [(1, table.shape[1])] * 50
    assert len(seen) == 50
    for i, scores in enumerate(seen):
        assert np.array_equal(scores, want[i % len(queries)])


def test_edited_table_copy_is_scored_as_given(toy_aug, toy_vocab):
    enc = tiny_encoder(toy_vocab.size, seed=3)
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    filt = build_filter_index(toy_aug)
    table = precompute_entity_embeddings(enc, cat, 16).copy()
    assert table.flags.writeable
    ranked = [(q, rank_query(q, enc, cat, table, filt, pair_max_len=32))
              for q in queries_for_split(toy_aug, "test")]
    q, before = next((q, r) for q, r in ranked if r > 1)
    assert rank_query(q, enc, cat, table, filt, pair_max_len=32) == before
    # every candidate but the gold now points away from the query at twice unit
    # length, and is scored at that length, not renormalised
    layout = assemble_pair(cat, q.entity, q.relation, 32)
    query = unit_rows(evaluate_module._encode_pooled(enc, [layout], 1))[0][0]
    others = np.arange(len(table)) != q.gold
    table[others] = -2.0 * query
    scores = query_scores(enc, [layout], table)[0]
    assert np.allclose(scores[others], -2.0)
    assert rank_query(q, enc, cat, table, filt, pair_max_len=32) == 1


def test_entity_table_check_rejects_non_finite_and_non_unit_rows(toy_aug, toy_vocab,
                                                                monkeypatch):
    table = np.zeros((4, 3))
    table[:3, 0] = 1.0
    table[1, 0] = 1.0 + 5e-7  # within 1e-6 of unit norm
    check_entity_table(table)  # unit rows and a zero row
    table[1, 0] = 1.0 + 2e-6
    with pytest.raises(ValueError, match="row 1 has norm 1.000002, not 1 or 0"):
        check_entity_table(table)
    table[1, 0] = 2.0
    with pytest.raises(ValueError, match="row 1 has norm 2, not 1 or 0"):
        check_entity_table(table)
    table[2, 1] = np.inf
    with pytest.raises(ValueError, match="row 2 is not finite"):
        check_entity_table(table)
    table[2, 1] = np.nan
    with pytest.raises(ValueError, match="row 2 is not finite"):
        check_entity_table(table)

    real_encode = evaluate_module._encode_pooled

    def with_inf_row(*args):
        pooled = real_encode(*args)
        pooled[2, 0] = np.inf
        return pooled

    monkeypatch.setattr(evaluate_module, "_encode_pooled", with_inf_row)
    with pytest.raises(ValueError, match="row 2 is not finite"):
        precompute_entity_embeddings(tiny_encoder(toy_vocab.size),
                                     TokenizedCatalog(toy_aug, toy_vocab), 16)
