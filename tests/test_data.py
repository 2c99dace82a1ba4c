import json

import numpy as np
import pytest

import kglp
from kglp.data import (SPLITS, DatasetError, Triple, TripleParseError, save_catalogs,
                       save_splits)

from util import write_dataset


def test_toy_counts_and_lexicographic_catalogs(toy_kg):
    assert toy_kg.num_entities == 3
    assert toy_kg.entity_ids == ["A", "B", "C"]
    assert toy_kg.relation_ids == ["r0", "r1"]
    assert toy_kg.split_sizes() == {"train": 3, "valid": 1, "test": 1}
    assert toy_kg.entity_names == ["axle assembly", "bearing hub", "chain coupler"]
    # long description overrides; absent ones stay empty
    assert toy_kg.entity_descriptions == ["a rotating axle assembly part", "", ""]


def test_missing_split_file_names_the_file(tmp_path):
    d = write_dataset(tmp_path / "ds", {"train": [("A", "r", "B")]})
    (d / "valid.tsv").unlink()
    with pytest.raises(DatasetError, match="valid.tsv"):
        kglp.load_dataset(d)


def test_missing_directory_errors(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        kglp.load_dataset(tmp_path / "nope")


def test_malformed_line_reports_line_number(tmp_path):
    d = write_dataset(tmp_path / "ds", {"train": [("A", "r", "B")]})
    with open(d / "train.tsv", "a", encoding="utf-8") as fh:
        fh.write("only_two\tfields\n")
    with pytest.raises(TripleParseError, match="train.tsv:2"):
        kglp.load_dataset(d)


def test_unknown_identifier_falls_back_to_raw_text(tmp_path, caplog):
    d = write_dataset(tmp_path / "ds", {"train": [("A", "r", "B")]},
                      entity_texts={"A": "alpha"})
    kg = kglp.load_dataset(d)
    assert kg.entity_names == ["alpha", "B"]
    assert kg.entity_descriptions == ["", ""]


def test_empty_dataset_loads_empty(tmp_path):
    d = write_dataset(tmp_path / "ds", {})
    kg = kglp.load_dataset(d)
    assert kg.num_entities == 0
    assert kg.split_sizes() == {"train": 0, "valid": 0, "test": 0}


def test_duplicate_triples_are_dropped(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      {"train": [("A", "r", "B"), ("A", "r", "B"), ("A", "r", "C")]})
    kg = kglp.load_dataset(d)
    assert kg.split_sizes()["train"] == 2


def test_deduplicated_split_keeps_first_occurrence_order(tmp_path):
    d = write_dataset(tmp_path / "ds",
                      {"train": [("A", "r", "C"), ("A", "r", "B"), ("A", "r", "C"),
                                 ("B", "r", "A"), ("A", "r", "B")]})
    kg = kglp.load_dataset(d)
    a, b, c = (kg.entity_index(x) for x in "ABC")
    assert kg.splits["train"] == [Triple(a, 0, c), Triple(a, 0, b), Triple(b, 0, a)]


def test_augment_doubles_relations_and_mirrors_triples(toy_kg, toy_aug):
    assert toy_aug.num_relations == 2 * toy_kg.num_relations
    assert toy_aug.split_sizes() == {"train": 6, "valid": 2, "test": 2}
    a, b = toy_kg.entity_index("A"), toy_kg.entity_index("B")
    r0 = toy_kg.relation_index("r0")
    assert Triple(a, r0, b) in toy_aug.splits["train"]
    assert Triple(b, r0 + toy_kg.num_relations, a) in toy_aug.splits["train"]
    assert toy_aug.relation_texts[r0 + toy_kg.num_relations] == "reverse connected to"
    assert toy_aug.relation_is_inverse[r0 + toy_kg.num_relations]
    assert toy_aug.relation_base[r0 + toy_kg.num_relations] == r0


def test_double_augmentation_rejected(toy_aug):
    with pytest.raises(ValueError, match="already augmented"):
        kglp.augment_inverse(toy_aug)


def test_augmentation_involution(toy_aug):
    half = toy_aug.num_relations // 2
    for split, triples in toy_aug.splits.items():
        mirrored = {
            Triple(t.tail, t.relation + half if t.relation < half else t.relation - half,
                   t.head)
            for t in triples
        }
        assert mirrored == set(triples)


def test_filter_index_hand_enumeration(tmp_path):
    d = write_dataset(tmp_path / "ds", {"train": [("A", "r", "B"), ("A", "r", "C")]})
    kg = kglp.augment_inverse(kglp.load_dataset(d))
    index = kglp.build_filter_index(kg)
    a, b, c = (kg.entity_index(x) for x in "ABC")
    r = kg.relation_index("r")
    r_rev = kg.inverse_relation(r)
    assert index[(a, r)] == {b, c}
    assert index[(b, r)] == set()
    assert index[(b, r_rev)] == {a}
    assert index[(c, r_rev)] == {a}


def test_filter_index_requires_augmented(toy_kg):
    with pytest.raises(ValueError, match="augmented"):
        kglp.build_filter_index(toy_kg)


def test_filter_index_covers_every_triple_in_every_split(toy_aug):
    index = kglp.build_filter_index(toy_aug)
    for head, relation, tail in np.concatenate([toy_aug.splits[n].array for n in SPLITS]):
        assert tail in index[(head, relation)]


def test_filter_index_completeness_randomized(tmp_path, rng):
    from util import random_toy_dataset
    for trial in range(10):
        d = random_toy_dataset(tmp_path / f"kg{trial}", rng)
        kg = kglp.augment_inverse(kglp.load_dataset(d))
        index = kglp.build_filter_index(kg)
        for head, relation, tail in np.concatenate([kg.splits[n].array for n in SPLITS]):
            assert tail in index[(head, relation)]


def test_filter_index_after_augmentation_both_directions(tmp_path):
    # three-triple toy graph, enumerated by hand
    d = write_dataset(tmp_path / "ds",
                      {"train": [("A", "r", "B"), ("B", "r", "C"), ("A", "s", "C")]})
    kg = kglp.augment_inverse(kglp.load_dataset(d))
    index = kglp.build_filter_index(kg)
    a, b, c = (kg.entity_index(x) for x in "ABC")
    r, s = kg.relation_index("r"), kg.relation_index("s")
    expected = {
        (a, r): {b}, (b, r): {c}, (a, s): {c},
        (b, kg.inverse_relation(r)): {a},
        (c, kg.inverse_relation(r)): {b},
        (c, kg.inverse_relation(s)): {a},
    }
    for key, golds in expected.items():
        assert index[key] == golds
    assert len(index) == len(expected)


def test_resplit_unseen_partitions_entities(pair_kg, pair_dataset_dir):
    kg = kglp.load_dataset(pair_dataset_dir)
    resplit = kglp.resplit_unseen(kg, ratio=0.1, seed=7)
    k = int(0.1 * kg.num_entities)
    train_entities = {e for t in resplit.splits["train"] for e in (t.head, t.tail)}
    test_entities = {e for t in resplit.splits["test"] for e in (t.head, t.tail)}
    valid_entities = {e for t in resplit.splits["valid"] for e in (t.head, t.tail)}
    unseen_test = test_entities - train_entities
    unseen_valid = valid_entities - train_entities - test_entities
    assert unseen_test and unseen_valid
    # every emitted test triple touches an entity absent from every train triple
    for t in resplit.splits["test"]:
        assert t.head not in train_entities or t.tail not in train_entities
    # held-out entity draw has the specified size
    rng = np.random.default_rng(7)
    perm = rng.permutation(kg.num_entities)
    assert len(set(perm[:k])) == k


def test_resplit_unseen_deterministic(pair_dataset_dir):
    kg = kglp.load_dataset(pair_dataset_dir)
    first = kglp.resplit_unseen(kg, ratio=0.1, seed=3)
    second = kglp.resplit_unseen(kg, ratio=0.1, seed=3)
    assert first.splits == second.splits
    third = kglp.resplit_unseen(kg, ratio=0.1, seed=4)
    assert third.splits != first.splits


@pytest.mark.parametrize("ratio", [0.0, -0.1, 0.5, 0.9])
def test_resplit_unseen_ratio_range(toy_kg, ratio):
    with pytest.raises(ValueError, match="ratio"):
        kglp.resplit_unseen(toy_kg, ratio=ratio, seed=0)


def test_resplit_rejects_augmented(toy_aug):
    with pytest.raises(ValueError, match="before"):
        kglp.resplit_unseen(toy_aug, ratio=0.1, seed=0)


def test_catalog_roundtrip(tmp_path, toy_aug):
    path = tmp_path / "catalog.json"
    save_catalogs(toy_aug, path)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["entity_ids"] == toy_aug.entity_ids
    assert loaded["relation_ids"] == toy_aug.relation_ids
    assert loaded["augmented"] is True


def test_save_splits_roundtrip(tmp_path, toy_kg):
    out = tmp_path / "rewritten"
    save_splits(toy_kg, out)
    again = kglp.load_dataset(out)
    assert again.entity_ids == toy_kg.entity_ids
    assert again.relation_ids == toy_kg.relation_ids
    assert again.splits == toy_kg.splits
    assert again.entity_names == toy_kg.entity_names
    assert again.entity_descriptions == toy_kg.entity_descriptions


def test_save_splits_of_augmented_graph_reloads_the_base_graph(tmp_path, toy_kg, toy_aug):
    # only the base triples are written, so re-augmenting the reloaded graph
    # gives the augmented graph again, not a second round of inverses
    save_splits(toy_aug, tmp_path / "rewritten")
    again = kglp.load_dataset(tmp_path / "rewritten")
    assert again.relation_ids == toy_kg.relation_ids
    assert again.relation_texts == toy_kg.relation_texts
    assert again.splits == toy_kg.splits
    reaugmented = kglp.augment_inverse(again)
    assert reaugmented.relation_ids == toy_aug.relation_ids
    assert reaugmented.relation_texts == toy_aug.relation_texts
    assert reaugmented.splits == toy_aug.splits


def test_dataset_statistics_reports_original_relation_count(toy_kg, toy_aug):
    stats = kglp.dataset_statistics(toy_kg)
    assert stats == {"entities": 3, "relations": 2, "train": 3, "valid": 1,
                     "test": 1, "augmented": False}
    aug_stats = kglp.dataset_statistics(toy_aug)
    assert aug_stats["relations"] == 2
    assert aug_stats["train"] == 6


def test_filter_index_lookup_is_a_copy(toy_aug):
    index = kglp.build_filter_index(toy_aug)
    key = next(iter(index.keys()))
    want = set(index[key])
    known = index[key]
    known.add(10 ** 6)
    known |= {10 ** 6 + 1}
    known.discard(next(iter(want)))
    assert index[key] == want
    missing = (0, 10 ** 6)
    index[missing].add(1)
    assert index[missing] == set()
    assert missing not in index
