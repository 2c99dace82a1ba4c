"""Knowledge-graph datasets: loading, catalogs, inverse augmentation, filter indices, resplits.

A dataset directory holds the ``DATASET_FILES``: three required triple files
(``train.tsv``, ``valid.tsv``, ``test.tsv``; one triple per line, three
tab-separated raw identifiers) and three optional text files (``entity2text.tsv``,
``entity2textlong.tsv``, ``relation2text.tsv``; identifier TAB text). Raw
identifiers map to dense 0-based indices in lexicographic order, so index
assignment never depends on file order. All structures are immutable after
construction and safe for concurrent reads.

Each split is a read-only ``Triples``: a ``Sequence[Triple]`` backed by one
C-contiguous ``(n, 3)`` int64 array of (head, relation, tail) rows. Indexing and
iteration yield ``Triple`` objects; bulk work (inverse augmentation, filter
builds, resplits, query lists) reads the array's columns. Code that appended to
or sorted a split takes a list first: ``list(kg.splits[name])``.

The filter index of known-true completions is one sorted array of distinct
packed (head, relation, tail) codes, in which each key's tails are one run; its
lookups return copies. ``build_filter_index`` builds it over a graph's splits;
``FilterIndex`` itself takes head, relation and tail columns and the catalog sizes.
Filtered ranking, fine-tuning labels and ``kglp predict --filtered`` all read it.
"""

from __future__ import annotations

import itertools
import json
import logging
import operator
from collections.abc import Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .files import atomic_write

logger = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")
#: The files of a dataset directory: one per split, in ``SPLITS`` order, then
#: the optional entity names, entity descriptions and relation texts.
DATASET_FILES = ("train.tsv", "valid.tsv", "test.tsv",
                 "entity2text.tsv", "entity2textlong.tsv", "relation2text.tsv")

#: Display-text prefix marking a synthesized inverse relation.
INVERSE_TEXT_PREFIX = "reverse "
#: Raw-identifier suffix marking a synthesized inverse relation.
INVERSE_ID_SUFFIX = "#rev"


class DatasetError(Exception):
    """A dataset directory is missing, incomplete, or inconsistent."""


class TripleParseError(DatasetError):
    """A triple file line does not have exactly three tab-separated fields."""

    def __init__(self, path, line_no: int, line: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(
            f"{path}:{line_no}: expected 3 tab-separated fields, got "
            f"{len(line.split(chr(9)))}: {line!r}"
        )


@dataclass(frozen=True, order=True)
class Triple:
    """A directed fact (head entity, relation, tail entity), all as catalog indices."""

    head: int
    relation: int
    tail: int


_triple_fields = operator.attrgetter("head", "relation", "tail")


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` as a read-only C-contiguous int64 array (copied only to get there)."""
    array = np.ascontiguousarray(array, dtype=np.int64)
    array.flags.writeable = False
    return array


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, in order: a neighbour compare,
    many times cheaper than ``np.unique``, which sorts again."""
    fresh = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=fresh[1:])
    return ascending[fresh]


class Triples(Sequence):
    """A read-only sequence of ``Triple`` backed by one C-contiguous ``(n, 3)``
    int64 array of (head, relation, tail) rows.

    Built from an iterable of ``Triple``, from an integer array of shape
    ``(n, 3)`` (copied), or from another ``Triples`` (shared; both are
    read-only). An int index gives a ``Triple``, a slice gives ``Triples``; ``+``
    concatenates with ``Triples`` or a list of ``Triple``. ``==`` compares rows
    with another ``Triples`` and elements with a list. ``array`` is the
    read-only backing array; its columns are the heads, relations and tails.
    """

    __slots__ = ("_array",)

    def __init__(self, triples: Iterable[Triple] | np.ndarray = ()):
        if isinstance(triples, Triples):
            self._array = triples._array
            return
        if isinstance(triples, np.ndarray):
            if triples.size and not np.issubdtype(triples.dtype, np.integer):
                raise TypeError(f"triple array must be integer, got {triples.dtype}")
            if triples.size and (triples.ndim != 2 or triples.shape[1] != 3):
                raise ValueError(f"triple array must have shape (n, 3), got {triples.shape}")
            array = np.array(triples, dtype=np.int64, order="C").reshape(-1, 3)
        else:
            triples = list(triples)
            array = np.fromiter(itertools.chain.from_iterable(map(_triple_fields, triples)),
                                dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)
        self._array = _frozen(array)

    @classmethod
    def _own(cls, array: np.ndarray) -> Triples:
        """Wrap an ``(n, 3)`` int64 array that no one else writes, without a copy."""
        self = cls.__new__(cls)
        self._array = _frozen(array)
        return self

    @property
    def array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return self._array.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Triples._own(self._array[index])
        return Triple(*self._array[operator.index(index)].tolist())

    def __iter__(self):
        # in blocks, so iterating never holds the whole split as Python ints
        for start in range(0, len(self), 4096):
            yield from itertools.starmap(Triple, self._array[start:start + 4096].tolist())

    def __contains__(self, triple) -> bool:
        if not isinstance(triple, Triple):
            return False
        return bool((self._array == _triple_fields(triple)).all(axis=1).any())

    def __eq__(self, other):
        if isinstance(other, Triples):
            return np.array_equal(self._array, other._array)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, (Triples, list)):
            return NotImplemented
        return Triples._own(np.concatenate([self._array, Triples(other)._array]))

    def __repr__(self) -> str:
        return f"Triples({self._array!r})"


@dataclass
class KnowledgeGraph:
    """Entity/relation catalogs plus train/valid/test triple splits.

    ``entity_ids`` / ``relation_ids`` hold the raw string identifiers; a string's
    position is its dense index. ``relation_base[r]`` is ``r`` for an original
    relation and the original's index for a synthesized inverse. Each split may
    be given as any iterable of ``Triple`` and is held as read-only ``Triples``.
    """

    entity_ids: list[str]
    entity_names: list[str]
    entity_descriptions: list[str]
    relation_ids: list[str]
    relation_texts: list[str]
    relation_is_inverse: list[bool]
    relation_base: list[int]
    splits: dict[str, Triples]
    augmented: bool = False
    _entity_index: dict[str, int] = field(default_factory=dict, repr=False)
    _relation_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.splits = {name: Triples(triples) for name, triples in self.splits.items()}
        if not self._entity_index:
            self._entity_index = {e: i for i, e in enumerate(self.entity_ids)}
        if not self._relation_index:
            self._relation_index = {r: i for i, r in enumerate(self.relation_ids)}

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def num_relations(self) -> int:
        return len(self.relation_ids)

    def split_sizes(self) -> dict[str, int]:
        return {name: len(triples) for name, triples in self.splits.items()}

    def entity_index(self, raw_id: str) -> int:
        return self._entity_index[raw_id]

    def relation_index(self, raw_id: str) -> int:
        return self._relation_index[raw_id]

    def has_entity(self, raw_id: str) -> bool:
        return raw_id in self._entity_index

    def has_relation(self, raw_id: str) -> bool:
        return raw_id in self._relation_index

    def inverse_relation(self, relation: int) -> int:
        """Index of the relation mirroring ``relation`` (requires an augmented graph)."""
        if not self.augmented:
            raise ValueError("graph is not augmented; inverse relations do not exist")
        half = self.num_relations // 2
        return relation + half if relation < half else relation - half


def _read_triple_file(path: Path) -> list[tuple[str, str, str]]:
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleParseError(path, line_no, line)
            triples.append((fields[0], fields[1], fields[2]))
    return triples


def _read_text_file(path: Path) -> dict[str, str] | None:
    """Read an ``identifier TAB text`` file; returns None when the file is absent."""
    if not path.is_file():
        return None
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            ident, _, text = line.partition("\t")
            mapping[ident] = text
    return mapping


def load_dataset(directory) -> KnowledgeGraph:
    """Load a dataset directory into a KnowledgeGraph with dense catalogs.

    Raises DatasetError when a split file is missing and TripleParseError on a
    malformed line. Identifiers that appear in triples but not in the optional
    text files fall back to the identifier string as name and an empty
    description (logged, never fatal).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"dataset directory not found: {directory}")

    raw_splits: dict[str, list[tuple[str, str, str]]] = {}
    for name, fname in zip(SPLITS, DATASET_FILES):
        path = directory / fname
        if not path.is_file():
            raise DatasetError(f"missing split file: {path}")
        raw_splits[name] = _read_triple_file(path)

    entity_ids = sorted({t[0] for rows in raw_splits.values() for t in rows}
                        | {t[2] for rows in raw_splits.values() for t in rows})
    relation_ids = sorted({t[1] for rows in raw_splits.values() for t in rows})
    ent_index = {e: i for i, e in enumerate(entity_ids)}
    rel_index = {r: i for i, r in enumerate(relation_ids)}

    names_file, longs_file, rel_file = DATASET_FILES[len(SPLITS):]
    names, longs, rel_texts = (_read_text_file(directory / fname)
                               for fname in (names_file, longs_file, rel_file))

    entity_names = [names.get(e, e) if names is not None else e for e in entity_ids]
    entity_descriptions = [longs.get(e, "") if longs is not None else "" for e in entity_ids]
    relation_texts = [rel_texts.get(r, r) if rel_texts is not None else r for r in relation_ids]

    if names is not None:
        missing = sum(1 for e in entity_ids if e not in names)
        if missing:
            logger.warning("%d of %d entities missing from %s; using identifiers as text",
                           missing, len(entity_ids), names_file)
    if rel_texts is not None:
        missing = sum(1 for r in relation_ids if r not in rel_texts)
        if missing:
            logger.warning("%d of %d relations missing from %s; using identifiers as text",
                           missing, len(relation_ids), rel_file)

    splits: dict[str, Triples] = {}
    for name, rows in raw_splits.items():
        unique = dict.fromkeys(rows)  # first occurrences, in file order
        if len(unique) != len(rows):
            logger.warning("%s: dropped %d duplicate triples",
                           name, len(rows) - len(unique))
        indices = ((ent_index[h], rel_index[r], ent_index[t]) for h, r, t in unique)
        splits[name] = Triples._own(np.fromiter(
            itertools.chain.from_iterable(indices), dtype=np.int64,
            count=3 * len(unique)).reshape(-1, 3))

    return KnowledgeGraph(
        entity_ids=entity_ids,
        entity_names=entity_names,
        entity_descriptions=entity_descriptions,
        relation_ids=relation_ids,
        relation_texts=relation_texts,
        relation_is_inverse=[False] * len(relation_ids),
        relation_base=list(range(len(relation_ids))),
        splits=splits,
    )


def augment_inverse(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Double the relation catalog with inverses and mirror every triple.

    For every triple (h, r, t) of every split, the same split gains (t, r_rev, h)
    where r_rev = r + num_relations. The inverse display text is the base text
    prefixed with "reverse "; the inverse raw identifier gets a "#rev" suffix.
    Head-prediction queries (?, r, t) are thereafter expressed as (t, r_rev, ?).
    """
    if kg.augmented:
        raise ValueError("graph is already augmented")
    n_rel = kg.num_relations
    relation_ids = kg.relation_ids + [r + INVERSE_ID_SUFFIX for r in kg.relation_ids]
    relation_texts = kg.relation_texts + [INVERSE_TEXT_PREFIX + t for t in kg.relation_texts]
    relation_is_inverse = [False] * n_rel + [True] * n_rel
    relation_base = list(range(n_rel)) + list(range(n_rel))
    splits = {}
    for name, triples in kg.splits.items():
        heads, relations, tails = triples.array.T
        mirrored = np.stack([tails, relations + n_rel, heads], axis=1)
        splits[name] = Triples._own(np.concatenate([triples.array, mirrored]))
    return KnowledgeGraph(
        entity_ids=kg.entity_ids,
        entity_names=kg.entity_names,
        entity_descriptions=kg.entity_descriptions,
        relation_ids=relation_ids,
        relation_texts=relation_texts,
        relation_is_inverse=relation_is_inverse,
        relation_base=relation_base,
        splits=splits,
        augmented=True,
    )


class FilterIndex:
    """Map from (entity, relation) query keys to the set of known-true completions.

    ``FilterIndex(heads, relations, tails, num_entities, num_relations)``
    indexes the completions ``(heads[i], relations[i], tails[i])`` of a catalog
    of the given sizes. The columns are taken as int64 (a non-integer one
    raises ``TypeError``), duplicates are kept once, and an index outside the
    catalog raises ``ValueError``. ``build_filter_index`` builds it over the
    requested splits of an augmented graph, so tail queries (h, r) and head
    queries (t, r_rev) are both covered by one tail-side pass.

    The index is one sorted read-only int64 array rather than Python sets:
    ``_codes`` holds the distinct packed completions
    ``(head * R + relation) * E + tail``, where ``E`` and ``R`` are the catalog
    sizes, so the packed codes must fit in int64. The completions of a key
    ``k = head * R + relation`` are the run of codes in ``[k * E, (k + 1) * E)``;
    a lookup is two binary searches for its ends. The keys themselves are
    derived from the codes when ``len`` or ``keys()`` asks for them.

    ``tails(key)`` returns a fresh read-only int64 array of the key's tails in
    ascending order, for the ranking hot path. ``index[key]`` returns a fresh
    ``set``, a copy that the caller may change freely; unknown keys give an
    empty set. ``keys()`` yields ``(entity, relation)`` tuples in ascending
    packed order.
    """

    def __init__(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray,
                 num_entities: int, num_relations: int):
        if num_entities * num_entities * num_relations > np.iinfo(np.int64).max:
            raise ValueError(
                f"{num_entities} entities x {num_relations} relations overflow the "
                f"int64 packed codes of the filter index")
        columns = []
        for name, column, size in (("head", heads, num_entities),
                                   ("relation", relations, num_relations),
                                   ("tail", tails, num_entities)):
            column = np.asarray(column)
            if not np.issubdtype(column.dtype, np.integer):
                raise TypeError(f"filter index {name} column is {column.dtype}, not integer")
            if column.size and not 0 <= column.min() <= column.max() < size:
                raise ValueError(f"filter index {name} outside the catalog [0, {size})")
            columns.append(column.astype(np.int64, copy=False))
        heads, relations, tails = columns
        self._num_entities, self._num_relations = num_entities, num_relations
        codes = (heads * num_relations + relations) * num_entities + tails
        codes.sort()
        self._codes = _distinct(codes)
        self._codes.flags.writeable = False

    def _key_codes(self) -> np.ndarray:
        """Ascending distinct packed keys ``head * R + relation`` of the codes."""
        return _distinct(self._codes // max(self._num_entities, 1))

    def tails(self, key: tuple[int, int]) -> np.ndarray:
        """Fresh ascending read-only int64 array of the known completions of ``key``."""
        head, relation = key
        e = self._num_entities
        if not (0 <= head < e and 0 <= relation < self._num_relations):
            return self._codes[:0]
        first = (int(head) * self._num_relations + int(relation)) * e
        start = self._codes.searchsorted(first)
        stop = self._codes.searchsorted(first + e)
        tails = self._codes[start:stop] - first
        tails.flags.writeable = False
        return tails

    def completes(self, heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> np.ndarray:
        """Boolean (len(heads), len(tails)) matrix: cell (i, j) is whether
        ``tails[j]`` completes the key ``(heads[i], relations[i])``."""
        e, r = self._num_entities, self._num_relations
        heads, relations, tails = (np.asarray(a, dtype=np.int64)
                                   for a in (heads, relations, tails))
        rows = (heads >= 0) & (heads < e) & (relations >= 0) & (relations < r)
        cols = (tails >= 0) & (tails < e)
        row_codes = (np.where(rows, heads, 0) * r + np.where(rows, relations, 0)) * e
        codes = row_codes[:, None] + np.where(cols, tails, 0)[None, :]
        if not self._codes.size:
            return np.zeros(codes.shape, dtype=bool)
        found = np.searchsorted(self._codes, codes)
        np.minimum(found, self._codes.size - 1, out=found)
        return (self._codes[found] == codes) & rows[:, None] & cols[None, :]

    def __getitem__(self, key: tuple[int, int]) -> set[int]:
        return set(self.tails(key).tolist())

    def __contains__(self, key: tuple[int, int]) -> bool:
        return self.tails(key).size > 0

    def __len__(self) -> int:
        return self._key_codes().size

    def keys(self):
        keys = self._key_codes()
        r = max(self._num_relations, 1)
        return zip((keys // r).tolist(), (keys % r).tolist())


def build_filter_index(kg: KnowledgeGraph, splits: tuple[str, ...] = SPLITS) -> FilterIndex:
    """Index all completions of every (entity, relation) key in the given splits."""
    if not kg.augmented:
        raise ValueError("filter index requires an augmented graph")
    rows = [kg.splits[name].array for name in splits]
    heads, relations, tails = np.concatenate(rows or [np.empty((0, 3), np.int64)]).T
    return FilterIndex(heads, relations, tails, kg.num_entities, kg.num_relations)


def resplit_unseen(kg: KnowledgeGraph, ratio: float, seed: int) -> KnowledgeGraph:
    """Repartition the splits so valid/test evaluate entities unseen in training.

    Two disjoint entity sets of size floor(ratio * num_entities) are drawn for
    test and valid. A triple touching any test entity goes to test; otherwise,
    touching any valid entity, to valid; otherwise to train. Training triples
    therefore never contain a held-out entity. Deterministic under a fixed seed.
    """
    if not 0.0 < ratio < 0.5:
        raise ValueError(f"ratio must be in (0, 0.5), got {ratio}")
    if kg.augmented:
        raise ValueError("resplit must happen before inverse augmentation")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(kg.num_entities)
    k = int(ratio * kg.num_entities)
    test_entities, valid_entities = perm[:k], perm[k:2 * k]

    parts: dict[str, list[np.ndarray]] = {name: [] for name in SPLITS}
    for name in SPLITS:
        rows = kg.splits[name].array
        heads, _, tails = rows.T
        test = np.isin(heads, test_entities) | np.isin(tails, test_entities)
        valid = ~test & (np.isin(heads, valid_entities) | np.isin(tails, valid_entities))
        parts["test"].append(rows[test])
        parts["valid"].append(rows[valid])
        parts["train"].append(rows[~(test | valid)])
    return replace(kg, splits={name: Triples._own(np.concatenate(parts[name]))
                               for name in SPLITS})


def save_catalogs(kg: KnowledgeGraph, path) -> None:
    """Persist catalogs as JSON; round-trips the identifier<->index bijection exactly."""
    payload = {
        "entity_ids": kg.entity_ids,
        "entity_names": kg.entity_names,
        "entity_descriptions": kg.entity_descriptions,
        "relation_ids": kg.relation_ids,
        "relation_texts": kg.relation_texts,
        "relation_is_inverse": kg.relation_is_inverse,
        "relation_base": kg.relation_base,
        "augmented": kg.augmented,
    }
    with atomic_write(path, text=True) as fh:
        json.dump(payload, fh, ensure_ascii=False)


def save_splits(kg: KnowledgeGraph, directory) -> None:
    """Write the splits back out as a dataset directory (plus text files).

    The output is itself loadable by :func:`load_dataset`, which is how resplit
    results are materialized. An augmented graph is written as its base graph,
    without the inverse relations and their mirror triples, which
    ``augment_inverse`` rebuilds. Every file is written to a temporary file
    first and moved into place only after all of them were written, so a
    failed write leaves a previous dataset in ``directory`` as it was.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def lines(rows) -> str:
        return "".join("\t".join(row) + "\n" for row in rows)

    entity_ids = np.array(kg.entity_ids, dtype=object)
    relation_ids = np.array(kg.relation_ids, dtype=object)
    n = kg.num_relations // 2 if kg.augmented else kg.num_relations
    files = {}
    for name, fname in zip(SPLITS, DATASET_FILES):
        rows = kg.splits[name].array
        heads, relations, tails = rows[rows[:, 1] < n].T
        files[fname] = lines(zip(entity_ids[heads], relation_ids[relations],
                                 entity_ids[tails]))
    names_file, longs_file, rel_file = DATASET_FILES[len(SPLITS):]
    files[names_file] = lines(zip(kg.entity_ids, kg.entity_names))
    if any(kg.entity_descriptions):
        files[longs_file] = lines(
            (raw, desc) for raw, desc in zip(kg.entity_ids, kg.entity_descriptions) if desc)
    files[rel_file] = lines(zip(kg.relation_ids[:n], kg.relation_texts[:n]))
    with ExitStack() as stack:
        for fname, text in files.items():
            stack.enter_context(atomic_write(directory / fname, text=True)).write(text)


def corpus_texts(kg: KnowledgeGraph):
    """All catalog texts, each yielded once (vocabulary induction corpus)."""
    yield from kg.entity_names
    yield from kg.entity_descriptions
    yield from kg.relation_texts


def dataset_statistics(kg: KnowledgeGraph) -> dict:
    """Entity/relation/split counts; relation count is pre-augmentation."""
    sizes = kg.split_sizes()
    n_rel = kg.num_relations // 2 if kg.augmented else kg.num_relations
    return {
        "entities": kg.num_entities,
        "relations": n_rel,
        "train": sizes["train"],
        "valid": sizes["valid"],
        "test": sizes["test"],
        "augmented": kg.augmented,
    }


