import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kglp
from kglp.text import (CLS_ID, NUM_RESERVED, PAD_ID, RESERVED_TOKENS,
                       SEP_ID, UNK_ID, TokenizedCatalog, Vocabulary,
                       assemble_entity, assemble_pair, assemble_pair_tokens,
                       assemble_triple, build_vocab, check_widths, layout_lengths,
                       split_words, tokenize, trim_width)

from util import write_dataset


def kg_with_texts(tmp_path, entity_texts, relation_texts=None):
    triples = [(e, "r", e) for e in entity_texts]
    d = write_dataset(tmp_path, {"train": triples}, entity_texts,
                      relation_texts=relation_texts or {"r": "rel"})
    return kglp.load_dataset(d)


def test_build_vocab_min_freq_counts(tmp_path):
    kg = kg_with_texts(tmp_path / "a", {"E": "axle axle hub"})
    vocab = build_vocab(kg, min_freq=2)
    assert vocab.size == NUM_RESERVED + 1
    assert vocab.id("axle") == NUM_RESERVED
    assert vocab.id("hub") == UNK_ID


def test_build_vocab_empty_corpus(tmp_path):
    d = write_dataset(tmp_path / "empty", {})
    vocab = build_vocab(kglp.load_dataset(d), min_freq=1)
    assert vocab.size == NUM_RESERVED
    assert vocab.id_to_token == RESERVED_TOKENS


def test_build_vocab_refuses_a_min_freq_that_keeps_no_token(tmp_path):
    kg = kg_with_texts(tmp_path / "a", {"E": "axle axle hub"})
    with pytest.raises(ValueError, match=r"min_freq 3 keeps no token \(max count 2\)"):
        build_vocab(kg, min_freq=3)


def test_build_vocab_deterministic_ordering(toy_aug):
    v1 = build_vocab(toy_aug, 1)
    v2 = build_vocab(toy_aug, 1)
    assert v1.id_to_token == v2.id_to_token
    # frequency descending, ties lexicographic
    counts = {}
    for text in list(toy_aug.entity_names) + list(toy_aug.entity_descriptions) \
            + list(toy_aug.relation_texts):
        for w in split_words(text):
            counts[w] = counts.get(w, 0) + 1
    body = v1.id_to_token[NUM_RESERVED:]
    assert body == sorted(body, key=lambda t: (-counts[t], t))


def test_build_vocab_rejects_bad_min_freq(toy_aug):
    with pytest.raises(ValueError, match="min_freq"):
        build_vocab(toy_aug, 0)


def test_tokenize_empty_and_oov(toy_vocab):
    assert tokenize("", toy_vocab) == []
    assert tokenize("zzzunknown", toy_vocab) == [UNK_ID]


def test_tokenize_splits_on_punctuation_and_case(tmp_path):
    kg = kg_with_texts(tmp_path / "p", {"E": "axle hub"})
    vocab = build_vocab(kg, 1)
    assert tokenize("Axle, hub", vocab) == [vocab.id("axle"), vocab.id("hub")]
    assert tokenize("axle_hub", vocab) == [vocab.id("axle"), vocab.id("hub")]
    assert split_words("Don't-stop; now_42!") == ["don", "t", "stop", "now", "42"]


def test_vocab_save_load_roundtrip(tmp_path, toy_vocab):
    path = tmp_path / "vocab.txt"
    toy_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == toy_vocab.id_to_token
    lines = path.read_text().splitlines()
    assert lines[:NUM_RESERVED] == RESERVED_TOKENS


def test_vocab_load_rejects_missing_reserved(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("foo\nbar\n")
    with pytest.raises(ValueError, match="reserved"):
        Vocabulary.load(path)


def test_assemble_triple_empty_descriptions_layout(tmp_path):
    kg = kg_with_texts(tmp_path / "t", {"A": "axle", "B": "hub"},
                       relation_texts={"r": "drives"})
    vocab = build_vocab(kg, 1)
    cat = TokenizedCatalog(kg, vocab)
    layout = assemble_triple(cat, kg.entity_index("A"), 0, kg.entity_index("B"), 16)
    expected = [CLS_ID, vocab.id("axle"), SEP_ID, vocab.id("drives"), SEP_ID,
                vocab.id("hub"), SEP_ID] + [PAD_ID] * 9
    assert layout.tokens.tolist() == expected
    assert layout.mask.tolist() == [1] * 7 + [0] * 9
    assert layout.spans["head_desc"] == (2, 2)  # zero-width


def test_assemble_triple_region_reconstruction(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    t = pair_kg.splits["train"][0]
    layout = assemble_triple(cat, t.head, t.relation, t.tail, 64)
    regions = ["head", "head_desc", "rel", "tail", "tail_desc"]
    rebuilt = sum((layout.tokens[slice(*layout.spans[r])].tolist() for r in regions), [])
    original = (cat.entity_tokens[t.head] + cat.entity_desc_tokens[t.head]
                + cat.relation_tokens[t.relation]
                + cat.entity_tokens[t.tail] + cat.entity_desc_tokens[t.tail])
    assert rebuilt == original
    assert layout.tokens[layout.spans["cls"][0]] == CLS_ID
    for sep in ("sep1", "sep2", "sep3"):
        b, e = layout.spans[sep]
        assert e - b == 1 and layout.tokens[b] == SEP_ID


def test_assemble_triple_truncates_descriptions_first(tmp_path):
    texts = {"A": "a1 a2 a3", "B": "b1 b2 b3"}
    longs = {"A": "da1 da2 da3 da4 da5 da6", "B": "db1 db2 db3 db4 db5 db6"}
    d = write_dataset(tmp_path / "tr", {"train": [("A", "r", "B")]}, texts, longs,
                      {"r": "rel1 rel2"})
    kg = kglp.load_dataset(d)
    vocab = build_vocab(kg, 1)
    cat = TokenizedCatalog(kg, vocab)

    # over budget: descriptions shrink proportionally, entities + relation intact
    layout = assemble_triple(cat, 0, 0, 1, 16)
    assert layout.spans["head"][1] - layout.spans["head"][0] == 3
    assert layout.spans["tail"][1] - layout.spans["tail"][0] == 3
    assert layout.spans["rel"][1] - layout.spans["rel"][0] == 2
    d_h = layout.spans["head_desc"][1] - layout.spans["head_desc"][0]
    d_t = layout.spans["tail_desc"][1] - layout.spans["tail_desc"][0]
    assert d_h + d_t == 16 - 4 - 3 - 3 - 2
    assert abs(d_h - d_t) <= 1

    # entities + relation alone exceed the budget: descriptions go to zero
    # and the entity names are cut, never the relation or separators
    texts2 = {"A": "a1 a2 a3 a4 a5 a6 a7 a8", "B": "b1 b2 b3 b4 b5 b6 b7 b8"}
    d2 = write_dataset(tmp_path / "tr2", {"train": [("A", "r", "B")]}, texts2,
                       longs, {"r": "rel1 rel2"})
    kg2 = kglp.load_dataset(d2)
    cat2 = TokenizedCatalog(kg2, build_vocab(kg2, 1))
    tight = assemble_triple(cat2, 0, 0, 1, 16)
    assert tight.spans["head_desc"][1] - tight.spans["head_desc"][0] == 0
    assert tight.spans["tail_desc"][1] - tight.spans["tail_desc"][0] == 0
    assert tight.spans["rel"][1] - tight.spans["rel"][0] == 2
    e_h = tight.spans["head"][1] - tight.spans["head"][0]
    e_t = tight.spans["tail"][1] - tight.spans["tail"][0]
    assert e_h + e_t == 16 - 4 - 2
    assert abs(e_h - e_t) <= 1
    assert tight.length == 16


@pytest.mark.parametrize("max_len, name_kept, desc_kept", [(4, 2, 0), (8, 6, 0),
                                                         (16, 10, 4)])
def test_assemble_entity_keeps_the_name_first_then_the_description(tmp_path, max_len,
                                                                   name_kept, desc_kept):
    name = " ".join(f"n{i}" for i in range(10))
    desc = " ".join(f"d{i}" for i in range(20))
    d = write_dataset(tmp_path, {"train": [("A", "r", "A")]}, {"A": name}, {"A": desc},
                      {"r": "rel"})
    kg = kglp.load_dataset(d)
    vocab = build_vocab(kg, 1)
    layout = assemble_entity(TokenizedCatalog(kg, vocab), 0, max_len)
    kept = [*tokenize(name, vocab)[:name_kept], *tokenize(desc, vocab)[:desc_kept]]
    assert layout.tokens.tolist() == [CLS_ID, *kept, SEP_ID]
    assert layout.mask.tolist() == [1] * max_len
    assert layout.length == max_len
    assert layout.spans == {"cls": (0, 1), "entity": (1, 1 + name_kept),
                            "entity_desc": (1 + name_kept, 1 + name_kept + desc_kept),
                            "sep1": (max_len - 1, max_len)}


def test_assemble_rejects_small_max_len(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    with pytest.raises(ValueError, match="max_len"):
        assemble_triple(cat, 0, 0, 1, 8)
    with pytest.raises(ValueError, match="max_len"):
        assemble_pair(cat, 0, 0, 7)
    with pytest.raises(ValueError, match="max_len"):
        assemble_entity(cat, 0, 3)


def test_assemble_pair_and_entity_layouts(tmp_path):
    kg = kg_with_texts(tmp_path / "pe", {"A": "axle", "B": "hub"},
                       relation_texts={"r": "drives"})
    vocab = build_vocab(kg, 1)
    cat = TokenizedCatalog(kg, vocab)
    pair = assemble_pair(cat, kg.entity_index("A"), 0, 16)
    assert pair.tokens[:5].tolist() == [CLS_ID, vocab.id("axle"), SEP_ID,
                                        vocab.id("drives"), SEP_ID]
    assert pair.length == 5
    ent = assemble_entity(cat, kg.entity_index("B"), 16)
    assert ent.tokens[:3].tolist() == [CLS_ID, vocab.id("hub"), SEP_ID]
    assert ent.length == 3


def test_assemble_pair_uses_inverse_relation_text(toy_aug, toy_vocab):
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    r0 = toy_aug.relation_index("r0")
    r0_rev = toy_aug.inverse_relation(r0)
    layout = assemble_pair(cat, toy_aug.entity_index("B"), r0_rev, 32)
    b, e = layout.spans["rel"]
    assert layout.tokens[b] == toy_vocab.id("reverse")
    assert layout.tokens[b:e].tolist() == tokenize("reverse connected to", toy_vocab)


def test_assemble_pair_tokens_free_text(toy_aug, toy_vocab):
    cat = TokenizedCatalog(toy_aug, toy_vocab)
    free = tokenize("brand new axle", toy_vocab)
    layout = assemble_pair_tokens(free, [], toy_aug.relation_index("r0"), cat, 24)
    b, e = layout.spans["head"]
    assert layout.tokens[b:e].tolist() == free


text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters=" -_,."),
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(h_name=text_strategy, h_desc=text_strategy, r_text=st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), whitelist_characters=" "),
    min_size=1, max_size=12),
    t_name=text_strategy, t_desc=text_strategy,
    max_len=st.integers(min_value=16, max_value=96))
def test_assembled_sequences_respect_length_and_mask(tmp_path_factory, h_name,
                                                     h_desc, r_text, t_name,
                                                     t_desc, max_len):
    d = write_dataset(tmp_path_factory.mktemp("hyp"),
                      {"train": [("H", "r", "T")]},
                      {"H": h_name, "T": t_name},
                      {"H": h_desc, "T": t_desc},
                      {"r": r_text})
    kg = kglp.load_dataset(d)
    vocab = build_vocab(kg, 1)
    cat = TokenizedCatalog(kg, vocab)
    for layout in (assemble_triple(cat, 0, 0, 1, max_len),
                   assemble_pair(cat, 0, 0, max_len),
                   assemble_entity(cat, 1, max_len)):
        assert len(layout.tokens) == max_len
        assert layout.length <= max_len
        assert (layout.mask[:layout.length] == 1).all()
        assert (layout.mask[layout.length:] == 0).all()
        assert (layout.tokens[layout.length:] == PAD_ID).all()
        # regions tile the non-PAD prefix contiguously
        spans = sorted(layout.spans.values())
        pos = 0
        for b, e in spans:
            assert b == pos
            pos = e
        assert pos == layout.length
        # identical inputs yield identical ids
        again = assemble_triple(cat, 0, 0, 1, max_len)
        assert (again.tokens == assemble_triple(cat, 0, 0, 1, max_len).tokens).all()
    # the lengths counted from the token lists are the built layouts' lengths
    assert layout_lengths(cat, max_len, [0, 1], [0, 0]).tolist() == [
        assemble_pair(cat, h, 0, max_len).length for h in (0, 1)]
    assert layout_lengths(cat, max_len).tolist() == [
        assemble_entity(cat, e, max_len).length for e in (0, 1)]


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(min_value=1, max_value=128).flatmap(
    lambda cap: st.tuples(st.just(cap), st.lists(
        st.integers(min_value=0, max_value=cap), min_size=1, max_size=16))))
def test_trim_width_rounds_longest_up_to_8_within_cap(batch):
    cap, lengths = batch
    longest = max(lengths)
    width = trim_width(lengths, cap)
    assert longest <= width < longest + 8
    assert width % 8 == 0 or width == cap
    assert width <= cap


def test_layout_lengths_count_triples_as_assembled(tmp_path):
    sizes = [(1, 0), (2, 3), (4, 12), (9, 40)]
    words = lambda n, tag: " ".join(f"{tag}{j}" for j in range(n))
    d = write_dataset(tmp_path, {"train": [("e0", "r", "e1"), ("e2", "r", "e3")]},
                      {f"e{i}": words(n, "n") for i, (n, _) in enumerate(sizes)},
                      {f"e{i}": words(m, "d") for i, (_, m) in enumerate(sizes)},
                      {"r": "a relation of five words"})
    kg = kglp.load_dataset(d)
    cat = TokenizedCatalog(kg, build_vocab(kg, 1))
    heads, tails = np.divmod(np.arange(len(sizes) ** 2), len(sizes))
    relations = np.zeros_like(heads)
    for max_len in (16, 24, 64, 128):
        assert layout_lengths(cat, max_len, heads, relations, tails).tolist() == [
            assemble_triple(cat, h, 0, t, max_len).length
            for h, t in zip(heads.tolist(), tails.tolist())]


def test_trim_width_keeps_the_layout_length_past_128():
    assert trim_width([70], 128) == 72
    assert trim_width([70], 129) == 129
    assert trim_width([3, 130], 256) == 256


def test_check_widths_names_the_key_that_sets_too_wide_a_batch():
    check_widths(32, ("a.len", 96, [20, 25]), ("b.len", 48, []))
    with pytest.raises(ValueError, match=r"^b\.len=64 builds batches 40 tokens wide, "
                       r"but the encoder \(checkpoint\) max_len is 32; set b\.len "
                       r"to at most 32$"):
        check_widths(32, ("a.len", 96, [20]), ("b.len", 64, [33]))
    # past 128 a batch keeps its layout length, short texts or not
    with pytest.raises(ValueError, match="a.len=256 builds batches 256 tokens wide"):
        check_widths(200, ("a.len", 256, [3]))
