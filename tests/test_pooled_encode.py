"""``Encoder.encode``, the [CLS] vectors, against a full-sequence reference.

Entity tables, query vectors and ranks from ``encode`` must equal, bit for
bit, what a forward that runs every position through every layer gives.
``encode`` runs real rows only; a batch of one runs its last block on every
real row.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kglp
from kglp import layers
from kglp.data import build_filter_index
from kglp.encoder import cls_positions
from kglp.evaluate import (RankingQuery, _encode_pooled, evaluate,
                           precompute_entity_embeddings, queries_for_split,
                           query_scores, rank_from_scores, rank_query)
from kglp.text import TokenizedCatalog, assemble_entity, assemble_pair, stack_layouts

from util import (reference_encode_pooled, reference_encode_states,
                  reference_stack_layouts, reference_unit_rows, write_dataset)


def small_encoder(vocab_size, num_layers, seed=0):
    return kglp.Encoder(kglp.EncoderConfig(vocab_size=vocab_size, hidden_size=32,
                                           num_layers=num_layers, num_heads=4,
                                           ff_size=48, max_len=32), seed=seed)


def mixed_batch(rng, n, s, vocab):
    """``n`` sequences of random lengths 1..s, one of them full length."""
    lengths = rng.integers(1, s + 1, size=n)
    lengths[n // 2] = s
    mask = (np.arange(s)[None, :] < lengths[:, None]).astype(np.int8)
    tokens = rng.integers(5, vocab, size=(n, s)) * mask
    tokens[:, 0] = 2
    return tokens, mask


@pytest.mark.parametrize("num_layers", [1, 2])
def test_plain_encode_matches_reference(rng, num_layers):
    enc = small_encoder(60, num_layers, seed=5)
    tokens, mask = mixed_batch(rng, 9, 24, 60)
    states, _ = enc.forward(tokens, mask)
    assert np.array_equal(states, reference_encode_states(enc, tokens, mask))
    assert np.array_equal(enc.encode(tokens, mask), states[:, 0])


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 256])
@pytest.mark.parametrize("s", [1, 5, 16, 32])
def test_pooled_only_is_bit_identical(rng, num_layers, n, s):
    enc = small_encoder(60, num_layers, seed=5)
    tokens, mask = mixed_batch(rng, n, s, 60)
    pooled = enc.encode(tokens, mask)
    assert pooled.shape == (n, 32)
    assert np.array_equal(pooled, reference_encode_states(enc, tokens, mask)[:, 0])


def _peak_bytes(call):
    """The tracemalloc peak while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_keeps_no_backward_caches(rng):
    # a forward of the same [CLS] rows keeps both blocks' activations for
    # backward; encode drops each block's as soon as the next one runs. An
    # encode that built the caches and dropped them on return would peak
    # within bytes of the forward, so the gap asked for is a clear one.
    enc = small_encoder(60, 2)
    tokens, mask = mixed_batch(rng, 64, 32, 60)
    encode_peak = _peak_bytes(lambda: enc.encode(tokens, mask))
    forward_peak = _peak_bytes(lambda: enc.forward(tokens, mask, positions=cls_positions(64)))
    assert encode_peak < 0.8 * forward_peak


@pytest.mark.parametrize("n, cls_rows", [(4, True), (1, False)])
def test_last_block_runs_cls_rows_only_past_attention(rng, monkeypatch, n, cls_rows):
    enc = small_encoder(60, 1)
    tokens, mask = mixed_batch(rng, n, 16, 60)
    shapes = []
    real = layers.linear_forward

    def spy(x, w, b):
        shapes.append(x.shape)
        return real(x, w, b)

    monkeypatch.setattr(layers, "linear_forward", spy)
    enc.encode(tokens, mask)
    # q, k, v on the real rows; then attn.wo, ff.w1, ff.w2 on the [CLS] rows.
    # A batch of one asks for one row, so its last block keeps every real row:
    # a one-row product would sum in another order than the grid's.
    real, after = int(mask.sum()), n if cls_rows else int(mask.sum())
    assert shapes == [(real, 32)] * 3 + [(after, 32), (after, 32), (after, 48)]


@st.composite
def length_batches(draw):
    """(batch size, width, real lengths 1..width, token seed)."""
    n = draw(st.sampled_from([1, 2, 7, 256]))
    s = draw(st.integers(1, 32))
    lengths = draw(st.lists(st.integers(1, s), min_size=n, max_size=n))
    return n, s, lengths, draw(st.integers(0, 2**32 - 1))


_ENCODERS = {}


@settings(max_examples=80, deadline=None)
@given(num_layers=st.sampled_from([1, 2]), batch=length_batches())
@example(num_layers=2, batch=(1, 16, [1], 0))  # one real token in the batch
@example(num_layers=2, batch=(7, 1, [1] * 7, 0))
@example(num_layers=1, batch=(2, 32, [1, 32], 0))
def test_pooled_only_equals_reference_for_any_lengths(num_layers, batch):
    n, s, lengths, seed = batch
    if num_layers not in _ENCODERS:
        _ENCODERS[num_layers] = small_encoder(60, num_layers, seed=5)
    enc = _ENCODERS[num_layers]
    mask = (np.arange(s)[None, :] < np.array(lengths)[:, None]).astype(np.int8)
    tokens = np.random.default_rng(seed).integers(5, 60, size=(n, s)) * mask
    tokens[:, 0] = 2
    pooled = enc.encode(tokens, mask)
    assert np.array_equal(pooled, reference_encode_states(enc, tokens, mask)[:, 0])


@pytest.mark.parametrize("cls_rows", [False, True])
def test_negative_token_id_rejected(cls_rows):
    enc = small_encoder(60, 1)
    tokens = np.array([[2, 7, -1, 3], [2, 9, 8, 3]])
    mask = np.ones_like(tokens, dtype=np.int8)
    with pytest.raises(ValueError, match="negative"):
        (enc.encode if cls_rows else enc.forward)(tokens, mask)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 2, 7, 256])
def test_table_scores_and_ranks_match_reference(pair_kg, pair_vocab, num_layers,
                                                batch_size):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = small_encoder(pair_vocab.size, num_layers, seed=1)
    # entity layouts are 10 tokens long, so a 12-token cap cuts the batch width
    ent_layouts = [assemble_entity(cat, e, 12) for e in range(pair_kg.num_entities)]
    table = reference_encode_pooled(enc, ent_layouts, batch_size)
    assert np.array_equal(_encode_pooled(enc, ent_layouts, batch_size), table)
    got = precompute_entity_embeddings(enc, cat, 12, batch_size=batch_size)
    table_unit = reference_unit_rows(table)
    assert np.array_equal(got, table_unit)

    queries = queries_for_split(pair_kg, "valid")
    pair_layouts = [assemble_pair(cat, q.entity, q.relation, 32) for q in queries]
    filt = build_filter_index(pair_kg)
    ranks = []
    for start in range(0, len(queries), batch_size):
        chunk = pair_layouts[start:start + batch_size]
        scores = reference_unit_rows(reference_encode_pooled(enc, chunk, batch_size)) \
            @ table_unit.T
        assert np.array_equal(query_scores(enc, chunk, got), scores)
        ranks += [rank_from_scores(row, q.gold, filt.tails((q.entity, q.relation)))
                  for row, q in zip(scores, queries[start:start + batch_size])]
    report = evaluate(pair_kg, enc, "valid", cat=cat, pair_max_len=32,
                      entity_max_len=12, batch_size=batch_size)
    assert [q["rank"] for q in report.per_query] == ranks


@pytest.fixture(scope="module")
def straddling_catalog(tmp_path_factory):
    """A catalog whose entity layouts are 3 to 19 tokens long, in an order that
    mixes short and long ones."""
    words = [f"w{chr(97 + i)}" for i in range(17)]
    names = {f"e{i:02d}": " ".join(words[:(i * 7) % 17 + 1]) for i in range(40)}
    rows = [(f"e{i:02d}", "r", f"e{(i + 1) % 40:02d}") for i in range(40)]
    directory = write_dataset(tmp_path_factory.mktemp("straddle"),
                              {"train": rows[:30], "valid": rows[30:35],
                               "test": rows[35:]},
                              names, None, {"r": "relates to"})
    kg = kglp.augment_inverse(kglp.load_dataset(directory))
    return TokenizedCatalog(kg, kglp.build_vocab(kg, min_freq=1))


def _widths(layouts, batch_size):
    """Each layout's batch width, batched in the given order."""
    return [reference_stack_layouts(layouts[s:s + batch_size])[0].shape[1]
            for s in range(0, len(layouts), batch_size)
            for _ in layouts[s:s + batch_size]]


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 2, 7, 256])
def test_length_sorted_table_matches_catalog_order_reference(straddling_catalog,
                                                             num_layers, batch_size):
    cat = straddling_catalog
    layouts = [assemble_entity(cat, e, 32) for e in range(cat.kg.num_entities)]
    lengths = sorted({l.length for l in layouts})
    assert lengths[0] < 8 < lengths[-1] and lengths[-1] > 16
    if batch_size in (2, 7):
        # sorting puts some entities into batches of another width
        order = np.argsort([l.length for l in layouts], kind="stable")
        by_length = dict(zip(order.tolist(),
                             _widths([layouts[i] for i in order], batch_size)))
        assert [by_length[i] for i in range(len(layouts))] != _widths(layouts, batch_size)
    enc = small_encoder(cat.vocab.size, num_layers, seed=3)
    want = reference_encode_pooled(enc, layouts, batch_size)
    assert np.array_equal(_encode_pooled(enc, layouts, batch_size), want)
    table = precompute_entity_embeddings(enc, cat, 32, batch_size=batch_size)
    assert np.array_equal(table, reference_unit_rows(want))


@pytest.fixture(scope="module")
def wide_catalog(tmp_path_factory):
    """Nine entities of 70 name tokens and five of 130, each its own words, so
    that length-sorted batches of 2 and of 7 each put a short entity beside a
    long one."""
    names = {f"e{i:02d}": " ".join(f"e{i}w{j}" for j in range(130 if i % 3 == 0 else 70))
             for i in range(14)}
    rows = [(f"e{i:02d}", "r", f"e{(i + 1) % 14:02d}") for i in range(14)]
    directory = write_dataset(tmp_path_factory.mktemp("wide"),
                              {"train": rows[:8], "valid": rows[8:11],
                               "test": rows[11:]},
                              names, None, {"r": "relates to"})
    kg = kglp.augment_inverse(kglp.load_dataset(directory))
    return TokenizedCatalog(kg, kglp.build_vocab(kg, min_freq=1))


def test_vectors_past_the_pairwise_block_do_not_depend_on_their_batch(wide_catalog):
    # past 128 positions NumPy splits a sum at a length-dependent point, so a
    # layout must keep one width whatever it is batched with
    cat = wide_catalog
    assert sorted({assemble_entity(cat, e, 256).length
                   for e in range(cat.kg.num_entities)}) == [72, 132]
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=cat.vocab.size, hidden_size=32,
                                          num_layers=2, num_heads=4, ff_size=48,
                                          max_len=256), seed=5)
    filt = build_filter_index(cat.kg)
    tables = [precompute_entity_embeddings(enc, cat, 256, batch_size=b) for b in (1, 2, 7)]
    assert all(np.array_equal(table, tables[0]) for table in tables[1:])
    for batch_size in (1, 2, 7):
        report = evaluate(cat.kg, enc, "test", cat=cat, filter_index=filt,
                          pair_max_len=256, entity_max_len=256, batch_size=batch_size)
        assert [rank_query(RankingQuery(q["entity"], q["relation"], q["gold"]), enc,
                           cat, tables[0], filt, pair_max_len=256)
                for q in report.per_query] == [q["rank"] for q in report.per_query]


@pytest.fixture(scope="module")
def described_catalog(tmp_path_factory):
    """Entities (148 of the 150 drawn appear in a triple) with descriptions of
    0 to 39 random words, so that their pair layouts are 6 to 46 tokens long,
    in batches 8 to 48 wide."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(60)]
    ids = [f"e{i:03d}" for i in range(150)]
    rows = [(ids[h], f"r{r}", ids[t]) for h, r, t in
            zip(*rng.integers(0, [[150], [2], [150]], size=(3, 320)))]
    directory = write_dataset(
        tmp_path_factory.mktemp("described"),
        {"train": rows[:180], "valid": rows[180:200], "test": rows[200:]},
        {e: f"n{i}" for i, e in enumerate(ids)},
        {e: " ".join(rng.choice(words, size=rng.integers(0, 40))) for e in ids},
        {"r0": "links to", "r1": "part of"})
    kg = kglp.augment_inverse(kglp.load_dataset(directory))
    return TokenizedCatalog(kg, kglp.build_vocab(kg, min_freq=1))


@pytest.mark.parametrize("shape", [{}, {"hidden_size": 32, "ff_size": 48}],
                         ids=["default", "32-wide"])
def test_pooled_vectors_do_not_depend_on_their_batch(described_catalog, shape):
    # BLAS sums the attention products of a wider batch in another order, so
    # a query batched with wider ones can get other low bits than alone
    cat = described_catalog
    enc = kglp.Encoder(kglp.EncoderConfig(cat.vocab.size, **shape), seed=0)
    queries = queries_for_split(cat.kg, "test")
    layouts = [assemble_pair(cat, q.entity, q.relation, 96) for q in queries]
    widths = {stack_layouts([layout])[0].shape[1] for layout in layouts}
    assert min(widths) == 8 and max(widths) >= 48
    alone = np.concatenate([enc.encode(*stack_layouts([layout])) for layout in layouts])
    for batch_size in (1, 7, 256):
        assert np.array_equal(_encode_pooled(enc, layouts, batch_size), alone)

    filt = build_filter_index(cat.kg)
    reports = [evaluate(cat.kg, enc, "test", cat=cat, filter_index=filt,
                        batch_size=b).per_query for b in (1, 7, 256)]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    table = precompute_entity_embeddings(enc, cat)
    assert [rank_query(RankingQuery(q["entity"], q["relation"], q["gold"]), enc, cat,
                       table, filt) for q in reports[0]] == [q["rank"] for q in reports[0]]
