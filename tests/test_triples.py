"""Array-backed splits: ``Triples`` semantics, and the columnar split operations
against list-based reference copies (``tests/util.py``)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kglp
from kglp.data import SPLITS, KnowledgeGraph, Triple, Triples, save_splits
from kglp.evaluate import queries_for_split

from util import (reference_augment_inverse, reference_queries_for_split,
                  reference_resplit_unseen, reference_save_splits)

ROWS = [Triple(0, 1, 2), Triple(2, 0, 1), Triple(1, 1, 0)]


def test_index_gives_triple_and_slice_gives_triples():
    triples = Triples(ROWS)
    assert triples[0] == ROWS[0] and type(triples[0]) is Triple
    assert triples[-1] == ROWS[-1]
    assert triples[np.int64(1)] == ROWS[1]
    assert all(type(x) is int for x in dataclasses.astuple(triples[1]))
    assert isinstance(triples[1:], Triples)
    assert triples[1:] == ROWS[1:]
    assert triples[::-2] == ROWS[::-2]
    assert triples[::-2].array.flags.c_contiguous
    with pytest.raises(IndexError):
        triples[3]
    with pytest.raises(TypeError):
        triples[[0, 1]]


def test_iteration_length_and_truth():
    triples = Triples(ROWS)
    assert list(triples) == ROWS
    assert len(triples) == 3 and bool(triples)
    empty = Triples()
    assert list(empty) == [] and len(empty) == 0 and not empty
    assert empty.array.shape == (0, 3) and empty.array.dtype == np.int64


def test_iteration_crosses_blocks():
    array = np.arange(3 * 10_000, dtype=np.int64).reshape(-1, 3)
    assert [dataclasses.astuple(t) for t in Triples(array)] == [tuple(r) for r in array.tolist()]


def test_membership_equality_and_concatenation():
    triples = Triples(ROWS)
    assert Triple(2, 0, 1) in triples
    assert Triple(2, 0, 2) not in triples
    assert (2, 0, 1) not in triples  # as in a list: only a Triple equals a Triple
    assert triples == Triples(ROWS) and triples == ROWS
    assert triples != Triples(ROWS[:2]) and triples != ROWS[::-1]
    assert triples != tuple(ROWS)
    assert Triples() == [] and Triples() == Triples(np.empty((0, 3), np.int64))
    assert triples + triples[:1] == ROWS + ROWS[:1]
    assert triples + [ROWS[0]] == ROWS + [ROWS[0]]
    assert isinstance(triples + [ROWS[0]], Triples)
    assert triples.index(ROWS[2]) == 2 and triples.count(ROWS[0]) == 1


def test_construction_from_list_array_and_empty_input():
    from_list = Triples(ROWS)
    array = np.array([[0, 1, 2], [2, 0, 1], [1, 1, 0]], dtype=np.int32)
    from_array = Triples(array)
    assert from_array == from_list
    assert from_array.array.dtype == np.int64 and from_array.array.flags.c_contiguous
    array[0, 0] = 9  # the split holds its own copy
    assert from_array[0] == ROWS[0]
    assert Triples(from_list).array is from_list.array
    assert Triples(iter(ROWS)) == from_list
    for empty in ([], (), np.empty((0, 3), np.int64), np.array([])):
        assert len(Triples(empty)) == 0
    with pytest.raises(ValueError, match="shape"):
        Triples(np.zeros((2, 4), np.int64))
    with pytest.raises(TypeError, match="integer"):
        Triples(np.zeros((2, 3)))


def test_backing_array_is_read_only():
    triples = Triples(ROWS)
    for array in (triples.array, triples[1:].array, triples.array[:, 0],
                  (triples + ROWS).array):
        with pytest.raises(ValueError):
            array[0] = 7
    with pytest.raises(AttributeError):
        triples.array = np.zeros((1, 3), np.int64)
    assert triples == ROWS


def test_graph_holds_every_split_as_triples(toy_kg, toy_aug):
    for kg in (toy_kg, toy_aug):
        assert all(type(split) is Triples for split in kg.splits.values())
    listed = dataclasses.replace(toy_kg, splits={name: list(toy_kg.splits[name])
                                                 for name in SPLITS})
    assert all(type(split) is Triples for split in listed.splits.values())
    assert listed.splits == toy_kg.splits


# ------------------------------------------------------------- reference copies

def make_raw_graph(n_entities: int, n_relations: int, splits: dict) -> KnowledgeGraph:
    return KnowledgeGraph(
        entity_ids=[f"e{i}" for i in range(n_entities)],
        entity_names=[f"name {i}" for i in range(n_entities)],
        entity_descriptions=[f"about {i}" if i % 2 else "" for i in range(n_entities)],
        relation_ids=[f"r{i}" for i in range(n_relations)],
        relation_texts=[f"rel {i}" for i in range(n_relations)],
        relation_is_inverse=[False] * n_relations,
        relation_base=list(range(n_relations)),
        splits={name: [Triple(*t) for t in splits.get(name, [])] for name in SPLITS})


@st.composite
def raw_graphs(draw):
    n_entities = draw(st.integers(min_value=1, max_value=9))
    n_relations = draw(st.integers(min_value=1, max_value=3))
    triple = st.tuples(st.integers(0, n_entities - 1), st.integers(0, n_relations - 1),
                       st.integers(0, n_entities - 1))
    splits = {name: draw(st.lists(triple, max_size=12)) for name in SPLITS}
    return make_raw_graph(n_entities, n_relations, splits)


def random_raw_graph(seed: int) -> KnowledgeGraph:
    """A random graph whose valid split is empty for seed 0."""
    rng = np.random.default_rng(seed)
    n_entities, n_relations = int(rng.integers(4, 40)), int(rng.integers(1, 5))
    sizes = {"train": int(rng.integers(1, 80)),
             "valid": int(rng.integers(0, 20)) if seed else 0,
             "test": int(rng.integers(0, 20))}
    splits = {name: rng.integers(0, [n_entities, n_relations, n_entities],
                                 size=(size, 3)).tolist()
              for name, size in sizes.items()}
    return make_raw_graph(n_entities, n_relations, splits)


@settings(max_examples=100, deadline=None)
@given(kg=raw_graphs())
def test_augment_inverse_matches_list_reference(kg):
    aug = kglp.augment_inverse(kg)
    ids, texts, is_inverse, base, splits = reference_augment_inverse(kg)
    assert aug.relation_ids == ids and aug.relation_texts == texts
    assert aug.relation_is_inverse == is_inverse and aug.relation_base == base
    assert aug.splits == splits
    assert all(type(split) is Triples for split in aug.splits.values())


@pytest.mark.parametrize("seed", range(5))
def test_queries_for_split_matches_list_reference(seed):
    aug = kglp.augment_inverse(random_raw_graph(seed))
    for split in SPLITS:
        got = queries_for_split(aug, split)
        assert got == reference_queries_for_split(aug, split)
        assert all(type(v) is int for q in got for v in dataclasses.astuple(q))


@pytest.mark.parametrize("seed", range(5))
def test_resplit_unseen_matches_list_reference(seed):
    kg = random_raw_graph(seed)
    for ratio in (0.1, 0.3, 0.45):
        resplit = kglp.resplit_unseen(kg, ratio, seed)
        assert resplit.splits == reference_resplit_unseen(kg, ratio, seed)


@pytest.mark.parametrize("seed", range(5))
def test_save_splits_matches_list_reference(tmp_path, seed):
    kg = random_raw_graph(seed)
    for graph, tag in ((kg, "raw"), (kglp.augment_inverse(kg), "aug")):
        save_splits(graph, tmp_path / tag / "got")
        reference_save_splits(graph, tmp_path / tag / "want")
        names = sorted(p.name for p in (tmp_path / tag / "want").iterdir())
        assert sorted(p.name for p in (tmp_path / tag / "got").iterdir()) == names
        for name in names:
            assert ((tmp_path / tag / "got" / name).read_bytes()
                    == (tmp_path / tag / "want" / name).read_bytes())
