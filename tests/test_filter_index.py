"""The array-backed filter index against a dict-of-sets oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kglp
from kglp.data import SPLITS, FilterIndex, KnowledgeGraph, Triple, build_filter_index
from kglp.finetune import build_label_matrix

from util import filter_from_mapping, naive_label_matrix


def make_graph(n_entities: int, n_relations: int, splits: dict) -> KnowledgeGraph:
    kg = KnowledgeGraph(
        entity_ids=[f"e{i}" for i in range(n_entities)],
        entity_names=[f"e{i}" for i in range(n_entities)],
        entity_descriptions=[""] * n_entities,
        relation_ids=[f"r{i}" for i in range(n_relations)],
        relation_texts=[f"r{i}" for i in range(n_relations)],
        relation_is_inverse=[False] * n_relations,
        relation_base=list(range(n_relations)),
        splits={name: [Triple(*t) for t in splits.get(name, [])] for name in SPLITS})
    return kglp.augment_inverse(kg)


def oracle(kg: KnowledgeGraph, splits) -> dict:
    truth = {}
    for name in splits:
        for t in kg.splits[name]:
            truth.setdefault((t.head, t.relation), set()).add(t.tail)
    return truth


@st.composite
def graphs(draw):
    n_entities = draw(st.integers(min_value=1, max_value=8))
    n_relations = draw(st.integers(min_value=1, max_value=3))
    triple = st.tuples(st.integers(0, n_entities - 1), st.integers(0, n_relations - 1),
                       st.integers(0, n_entities - 1))
    # a small pool drawn from repeatedly gives the same triple in several
    # splits and keys with many tails; empty splits are allowed
    pool = draw(st.lists(triple, min_size=1, max_size=12))
    pick = st.lists(st.sampled_from(pool), max_size=12)
    splits = {name: draw(pick) for name in SPLITS}
    chosen = draw(st.sets(st.sampled_from(SPLITS)).map(
        lambda s: tuple(name for name in SPLITS if name in s)))
    return make_graph(n_entities, n_relations, splits), chosen


probe = st.tuples(st.integers(-3, 12), st.integers(-3, 9))


def assert_matches(index: FilterIndex, truth: dict, probes) -> None:
    assert len(index) == len(truth)
    assert set(index.keys()) == set(truth)
    assert all(type(h) is int and type(r) is int for h, r in index.keys())
    for key, tails in truth.items():
        assert key in index
        assert index[key] == tails
        assert index.tails(key).tolist() == sorted(tails)
    for key in probes:
        assert (key in index) == (key in truth)
        assert index[key] == truth.get(key, set())
        assert index.tails(key).tolist() == sorted(truth.get(key, ()))


@settings(max_examples=150, deadline=None)
@given(case=graphs(), probes=st.lists(probe, max_size=10))
def test_index_matches_dict_of_sets(case, probes):
    kg, splits = case
    truth = oracle(kg, splits)
    built = build_filter_index(kg, splits)
    assert_matches(built, truth, probes)
    from_mapping = filter_from_mapping(truth)
    assert_matches(from_mapping, truth, probes)


@settings(max_examples=100, deadline=None)
@given(case=graphs(), rows=st.lists(probe, min_size=1, max_size=10), data=st.data())
def test_label_matrix_matches_oracle_for_both_constructors(case, rows, data):
    kg, splits = case
    truth = oracle(kg, splits)
    tails = data.draw(st.lists(st.integers(-2, 12), min_size=len(rows),
                               max_size=len(rows)))
    batch = [Triple(h, r, t) for (h, r), t in zip(rows, tails)]
    want = naive_label_matrix(batch, truth)
    for index in (build_filter_index(kg, splits), filter_from_mapping(truth)):
        y = build_label_matrix(batch, index)
        assert y.dtype == np.int8
        assert (y == want).all()


def test_empty_index():
    kg = make_graph(3, 2, {})
    for index in (build_filter_index(kg), filter_from_mapping({})):
        assert len(index) == 0
        assert list(index.keys()) == []
        assert (0, 0) not in index
        assert index[(0, 0)] == set()
        assert index.tails((0, 0)).size == 0
        y = build_label_matrix([Triple(0, 0, 1), Triple(1, 0, 2)], index)
        assert y.tolist() == [[1, 0], [0, 1]]


def test_tails_are_read_only_views():
    index = filter_from_mapping({(0, 0): {2, 1}, (1, 0): {0}})
    tails = index.tails((0, 0))
    assert tails.tolist() == [1, 2]
    with pytest.raises(ValueError):
        tails[0] = 5
    assert index[(0, 0)] == {1, 2}


def test_overflowing_catalog_is_refused():
    with pytest.raises(ValueError, match="overflow"):
        filter_from_mapping({(2 ** 40, 0): {1}})
    with pytest.raises(ValueError, match="overflow"):
        filter_from_mapping({(0, 2 ** 62): {1}})


@pytest.mark.parametrize("row", [(-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 2, 0),
                                 (0, 0, -1), (0, 0, 4)])
def test_entries_outside_the_catalog_are_refused(row):
    heads, relations, tails = np.array([(0, 0, 1), row]).T
    with pytest.raises(ValueError, match="outside the catalog"):
        FilterIndex(heads, relations, tails, 4, 2)


def test_int32_columns_pack_like_int64_columns():
    # at FB15k-237 sizes the packed codes pass 2**31: computed in int32 they wrapped
    E, R = 14_541, 474
    rng = np.random.default_rng(0)
    rows = np.stack([rng.integers(0, E, 400), rng.integers(0, R, 400),
                     rng.integers(0, E, 400)], axis=1)
    rows[0] = (E - 1, R - 1, E - 1)
    wide = FilterIndex(*rows.T.astype(np.int64), E, R)
    narrow = FilterIndex(*rows.T.astype(np.int32), E, R)
    for head, relation, _ in rows[:40].tolist():
        assert np.array_equal(narrow.tails((head, relation)), wide.tails((head, relation)))
    heads, relations, tails = rows[:40].T.astype(np.int32)
    assert np.array_equal(narrow.completes(heads, relations, tails),
                          wide.completes(heads, relations, tails))
    assert narrow.completes(heads, relations, tails).diagonal().all()


def test_non_integer_columns_are_refused():
    heads, relations, tails = np.array([(0, 0, 1), (1, 1, 2)]).T
    with pytest.raises(TypeError, match="integer"):
        FilterIndex(heads.astype(float), relations, tails, 4, 2)


# A catalog of E = 4 entities and R = 2 relations packs its codes into
# [0, E * R * E) = [0, 32). (0, 0) holds the first code and ends at tail E - 1,
# right before (0, 1) starts at tail 0; (3, 1) is the last entity with the last
# relation and holds the last code. A probe with relation == R lands on the run
# of the next head: (0, 2) packs like (1, 0). Far-out probes would overflow
# the int64 codes if they were packed.
EDGES = {(0, 0): {0, 3}, (0, 1): {0}, (1, 0): {2}, (3, 1): {0, 3}}
EDGE_PROBES = [(h, r) for h in range(-1, 6) for r in range(-1, 4)] + [
    (2 ** 62, 0), (0, 2 ** 62)]


def edge_indices():
    heads, relations, tails = np.array(
        [(h, r, t) for (h, r), ts in EDGES.items() for t in ts]).T
    return [filter_from_mapping(EDGES),
            FilterIndex(heads, relations, tails, 4, 2)]


def test_runs_at_the_catalog_edges():
    for index in edge_indices():
        assert index._codes[[0, -1]].tolist() == [0, 4 * 2 * 4 - 1]
        assert index.tails((0, 0)).tolist() == [0, 3]
        assert index.tails((0, 1)).tolist() == [0]
        assert index.tails((3, 1)).tolist() == [0, 3]
        assert list(index.keys()) == [(0, 0), (0, 1), (1, 0), (3, 1)]
        assert_matches(index, EDGES, EDGE_PROBES)
        heads, relations = np.array(EDGE_PROBES).T
        candidates = np.arange(-1, 6)
        want = [[t in EDGES.get(key, ()) for t in candidates.tolist()]
                for key in EDGE_PROBES]
        assert index.completes(heads, relations, candidates).tolist() == want
    # the same edges from a graph: relation 1 is the inverse of relation 0
    kg = make_graph(4, 1, {"train": [(0, 0, 0), (0, 0, 3), (3, 0, 3)]})
    index = build_filter_index(kg)
    assert index._codes[[0, -1]].tolist() == [0, 4 * 2 * 4 - 1]
    assert index.tails((0, 1)).tolist() == [0]
    assert_matches(index, oracle(kg, SPLITS), EDGE_PROBES)


def test_numpy_integer_keys():
    for index in edge_indices():
        for head, relation in EDGE_PROBES:
            key = (np.int64(head), np.int64(relation))
            want = EDGES.get((head, relation), set())
            assert (key in index) == bool(want)
            assert index[key] == want
            assert index.tails(key).tolist() == sorted(want)
