"""Typed knowledge graphs: schemas, triple files, vocabularies, and indexes.

Triple files follow the usual benchmark convention: UTF-8 text, one triple
per line, exactly two TAB separators (``head<TAB>relation<TAB>tail``), no
header. Entities and relations are interned into dense 0-based indices in
order of first appearance, which makes loading deterministic.

A dataset's schema is either given or learned from its files as they are
read: then the entity types are the type labels' types in label-file order,
or the one type ``entity`` without labels, and each relation takes its head
and tail types from its first triple. The label rule: with type labels,
every entity of every file needs one; without them, a one-type schema gives
every entity type 0 and a multi-type schema refuses it.

The name rule: a name is non-empty, holds no TAB, LF, CR or comma (the TSV,
checkpoint and query formats split on them) and is unique in its table. It is
checked where names are made: ``Schema``, ``KnowledgeGraph``, ``Model``, ``tsv_rows``.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SchemaError, TripleParseError, ValidationError

logger = logging.getLogger(__name__)

TRAIN, VALID, TEST = "train", "valid", "test"
SPLITS = (TRAIN, VALID, TEST)
_SPLIT_CODE = {name: i for i, name in enumerate(SPLITS)}
_BREAK = re.compile("[\t\n\r,]")  # the name rule's characters
_BROKEN = "is empty or holds a TAB, LF, CR or comma"


@dataclass(frozen=True)
class Schema:
    """Entity/relation typing plus stalk dimensions.

    ``head_type``/``tail_type`` index into ``entity_types`` per relation;
    ``vertex_dim`` is indexed by entity type, ``edge_dim`` by relation.
    """

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]
    head_type: tuple[int, ...]
    tail_type: tuple[int, ...]
    vertex_dim: tuple[int, ...]
    edge_dim: tuple[int, ...]

    def __post_init__(self):
        n_types = len(self.entity_types)
        if n_types == 0:
            raise SchemaError("schema needs at least one entity type")
        for names, kind in ((self.entity_types, "entity type"), (self.relation_types, "relation")):
            unique_names(names, SchemaError, kind=kind)
        for seq, label in ((self.head_type, "head_type"), (self.tail_type, "tail_type")):
            if len(seq) != len(self.relation_types):
                raise SchemaError(f"{label} must have one entry per relation")
            for s in seq:
                if not 0 <= s < n_types:
                    raise SchemaError(f"{label} references unknown entity type index {s}")
        if len(self.vertex_dim) != n_types or len(self.edge_dim) != len(self.relation_types):
            raise SchemaError("dimension tables must match type/relation counts")
        if any(d < 1 for d in self.vertex_dim) or any(d < 1 for d in self.edge_dim):
            raise SchemaError("all stalk dimensions must be >= 1")

    @property
    def n_relations(self) -> int:
        return len(self.relation_types)

    @property
    def n_entity_types(self) -> int:
        return len(self.entity_types)

    @cached_property
    def relation_ids(self) -> dict[str, int]:
        """Each relation name's index."""
        return {name: r for r, name in enumerate(self.relation_types)}

    def head_dim(self, r: int) -> int:
        return self.vertex_dim[self.head_type[r]]

    def tail_dim(self, r: int) -> int:
        return self.vertex_dim[self.tail_type[r]]


def default_schema(n_relations: int, entity_dim: int, relation_dim: int) -> Schema:
    """Single-entity-type schema with uniform dimensions and relations ``r0..r{n-1}``.

    Every relation maps the sole type to itself.
    """
    return Schema(
        entity_types=("entity",),
        relation_types=tuple(f"r{i}" for i in range(n_relations)),
        head_type=(0,) * n_relations,
        tail_type=(0,) * n_relations,
        vertex_dim=(entity_dim,),
        edge_dim=(relation_dim,) * n_relations,
    )


def _bad_name(names) -> str | None:
    """The first of ``names`` that breaks the name rule (see the module docstring), or None."""
    if "" in names or _BREAK.search("\0".join(names)):
        return next(name for name in names if not name or _BREAK.search(name))
    return None


def unique_names(names, error=ValidationError, kind: str = "entity") -> tuple[str, ...]:
    """``names`` as a tuple if they keep the name rule; else ``error`` names the first that breaks it."""
    if (bad := _bad_name(names)) is not None:
        raise error(f"{kind} name {bad!r} {_BROKEN}")
    if len(set(names)) < len(names):  # the Counter only once a name repeats
        repeated = next(name for name, count in Counter(names).items() if count > 1)
        raise error(f"duplicate {kind} name {repeated!r}")
    return tuple(names)


@dataclass
class VocabBuilder:
    """Mutable entity interner; order of first appearance is preserved."""

    names: list[str] = field(default_factory=list)
    types: list[int] = field(default_factory=list)
    _index: dict[str, int] = field(default_factory=dict)

    def intern(self, name: str, type_idx: int) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.types.append(type_idx)
            self._index[name] = idx
        elif self.types[idx] != type_idx:
            raise ValidationError(
                f"entity {name!r} seen with conflicting types "
                f"{self.types[idx]} and {type_idx}"
            )
        return idx

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable typed triple store with train/valid/test split tags."""

    schema: Schema
    entities: tuple[str, ...]
    entity_type: np.ndarray  # (n_entities,) int64, index into schema.entity_types
    triples: np.ndarray  # (n_triples, 3) int64 rows (head, relation, tail)
    split: np.ndarray  # (n_triples,) int8, codes per SPLITS order

    def __post_init__(self):
        for array in (self.entity_type, self.triples, self.split):
            array.setflags(write=False)
        self.validate()

    def validate(self):
        n = len(unique_names(self.entities))
        if self.entity_type.shape != (n,):
            raise ValidationError("entity_type must align with entities")
        if np.any(self.entity_type < 0) or np.any(self.entity_type >= self.schema.n_entity_types):
            raise ValidationError("entity type index out of range")
        if self.triples.ndim != 2 or self.triples.shape[1] != 3:
            raise ValidationError("triples must be an (n, 3) array")
        if self.split.shape != (self.triples.shape[0],):
            raise ValidationError("split must align with triples")
        if self.triples.size:
            h, r, t = self.triples[:, 0], self.triples[:, 1], self.triples[:, 2]
            if h.min() < 0 or t.min() < 0 or max(h.max(), t.max()) >= n:
                raise ValidationError("entity index out of range")
            if r.min() < 0 or r.max() >= self.schema.n_relations:
                raise ValidationError("relation index out of range")
            bad = np.flatnonzero((self.entity_type[h] != np.asarray(self.schema.head_type)[r])
                                 | (self.entity_type[t] != np.asarray(self.schema.tail_type)[r]))
            if bad.size:
                i = int(bad[0])
                raise ValidationError(f"type-inconsistent triple #{i}: ({self.entities[h[i]]}, "
                                      f"{self.schema.relation_types[r[i]]}, {self.entities[t[i]]})")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def split_mask(self, split: str) -> np.ndarray:
        return self.split == _SPLIT_CODE[split]

    def triples_of(self, split: str) -> np.ndarray:
        return self.triples[self.split_mask(split)]

    @cached_property
    def slot_pools(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entities sorted by type, and where each relation's head and tail types sit in that order.

        Returns ``(order, start, size)``: ``order`` lists the entity indices
        grouped by type, ascending within a type. Slot ``2 * r`` is relation
        ``r``'s head and slot ``2 * r + 1`` its tail; the entities of that
        slot's type are ``order[start[s]:start[s] + size[s]]``.
        """
        order = np.argsort(self.entity_type, kind="stable")
        size = np.bincount(self.entity_type, minlength=self.schema.n_entity_types)
        types = np.array([self.schema.head_type, self.schema.tail_type], dtype=np.int64).T.ravel()
        return order, (np.cumsum(size) - size)[types], size[types]


@dataclass(frozen=True)
class TripleIndex:
    """A fixed triple set, held once: the sorted int64 keys ``(h * n_relations + r) * n_entities + t``.

    ``contains`` searches the keys for a whole array of rows. ``tails`` and ``heads``
    read two tables built from the keys on first use, and ``(h, r, t) in index``
    holds when ``h`` and ``r`` are in range and ``t`` is one of ``tails(h, r)``.
    """

    keys: np.ndarray  # (n,) sorted unique int64 keys
    n_entities: int
    n_relations: int

    def contains(self, rows) -> np.ndarray:
        """Membership of each in-range ``(h, r, t)`` row of an int array."""
        keys = _triple_keys(rows, self.n_entities, self.n_relations)
        if not len(self.keys):
            return np.zeros(keys.shape, dtype=bool)
        return self.keys.take(self.keys.searchsorted(keys), mode="clip") == keys

    @cached_property
    def _tables(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """The ascending tails of each ``h * n_relations + r``, and heads of each ``t * n_relations + r``."""
        pairs, t = np.divmod(self.keys, self.n_entities)
        h, r = np.divmod(pairs, self.n_relations)
        swapped = np.sort((t * self.n_relations + r) * self.n_entities + h)
        return _runs(self.keys, self.n_entities), _runs(swapped, self.n_entities)

    def tails(self, h: int, r: int) -> tuple[int, ...]:
        """Ascending tails of the in-range pair ``(h, r)``."""
        return self._tables[0].get(h * self.n_relations + r, ())

    def heads(self, t: int, r: int) -> tuple[int, ...]:
        """Ascending heads of the in-range pair ``(t, r)``."""
        return self._tables[1].get(t * self.n_relations + r, ())

    def __contains__(self, triple) -> bool:
        h, r, t = triple
        return 0 <= h < self.n_entities and 0 <= r < self.n_relations and t in self.tails(h, r)


def _triple_keys(rows, n_entities: int, n_relations: int) -> np.ndarray:
    """The int64 key ``(h * n_relations + r) * n_entities + t`` of each ``(h, r, t)`` row."""
    return np.asarray(rows, dtype=np.int64) @ np.array([n_relations * n_entities, n_entities, 1])


def _runs(keys: np.ndarray, n_entities: int) -> dict[int, tuple[int, ...]]:
    """Map each ``key // n_entities`` of sorted ``keys`` to its run's ``key % n_entities``."""
    groups, members = np.divmod(keys, n_entities)
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    bounds = np.append(starts, len(keys)).tolist()
    # one int object per entity, shared by all of its runs, rather than one per triple
    ids, at = np.unique(members, return_inverse=True)
    members = np.array(ids.tolist(), dtype=object)[at].tolist()
    return {
        group: tuple(members[a:b])
        for group, a, b in zip(groups[starts].tolist(), bounds, bounds[1:])
    }


def build_index(kg: KnowledgeGraph, splits: tuple[str, ...] = SPLITS) -> TripleIndex:
    """Index the union of the requested splits for neighbor/membership queries."""
    mask = np.isin(kg.split, [_SPLIT_CODE[s] for s in splits])
    n, n_rel = kg.n_entities, kg.schema.n_relations
    keys = np.sort(_triple_keys(kg.triples[mask], n, n_rel))  # then drop repeats: 10x faster than np.unique
    return TripleIndex(keys[np.diff(keys, prepend=-1) > 0], n, n_rel)


def text_lines(path, error=ValidationError):
    """Yield ``(line number, line)`` for each non-empty line of a UTF-8 text file.

    A file that cannot be read, or is not valid UTF-8, raises ``error`` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None


def tsv_rows(path, n_fields: int):
    """Yield ``(line number, fields)`` for each non-empty line of a TAB-separated file; fields are names."""
    checked: set[str] = set()  # the distinct fields so far, which keep the name rule
    for lineno, line in text_lines(path):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise TripleParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}")
        if not checked.issuperset(fields):
            if (bad := _bad_name(fields)) is not None:
                raise TripleParseError(f"{path}:{lineno}: field {fields.index(bad) + 1} {bad!r} {_BROKEN}")
            checked.update(fields)
        yield lineno, fields


def read_type_labels(path) -> dict[str, str]:
    """Read a sidecar ``entity<TAB>type`` file; an entity may repeat only with the same type."""
    labels: dict[str, str] = {}
    for lineno, (entity, type_name) in tsv_rows(path, 2):
        if labels.setdefault(entity, type_name) != type_name:
            raise ValidationError(
                f"{path}:{lineno}: entity {entity!r} is {type_name!r} here, {labels[entity]!r} earlier"
            )
    return labels


def load_triples(
    path,
    schema: Schema,
    vocab: VocabBuilder,
    type_labels: dict[str, str] | None = None,
) -> list[tuple[int, int, int]]:
    """Parse one triple file, interning entities into ``vocab``; errors name ``path:line``.

    Entities are typed by the label rule (see the module docstring).
    """
    return _read_triples(path, schema.entity_types, _relation_table(schema), vocab, type_labels)


def _relation_table(schema: Schema) -> dict[str, tuple[int, int, int]]:
    """Each relation name's ``(index, head type, tail type)``."""
    return {name: (r, h, t) for r, (name, h, t)
            in enumerate(zip(schema.relation_types, schema.head_type, schema.tail_type))}


def _read_triples(path, entity_types, relations, vocab, type_labels, grow=False):
    """``load_triples`` given ``relations``, each relation name's ``(index, head type, tail type)``.

    With ``grow``, an unseen relation joins ``relations`` with the types of its first triple.
    """
    index = {name: i for i, name in enumerate(entity_types)}
    labels = {} if type_labels is None else type_labels

    def type_of(name: str) -> int:
        if name not in labels:
            raise ValidationError(f"entity {name!r} has no type label")
        if labels[name] not in index:
            raise SchemaError(f"entity type {labels[name]!r} absent from schema")
        return index[labels[name]]

    triples: list[tuple[int, int, int]] = []
    single = type_labels is None and len(index) == 1  # then every entity is type 0
    for lineno, (head_name, rel_name, tail_name) in tsv_rows(path, 3):
        try:
            typing = relations.get(rel_name)
            if typing is None and not grow:
                raise SchemaError(f"relation {rel_name!r} absent from schema")
            h = vocab.intern(head_name, 0 if single else type_of(head_name))
            t = vocab.intern(tail_name, 0 if single else type_of(tail_name))
            if typing is None:
                typing = relations[rel_name] = (len(relations), vocab.types[h], vocab.types[t])
            if vocab.types[h] != typing[1] or vocab.types[t] != typing[2]:
                raise ValidationError(
                    f"triple ({head_name}, {rel_name}, {tail_name}) "
                    "violates the schema's head/tail typing"
                )
        except (SchemaError, ValidationError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        triples.append((h, typing[0], t))
    return triples


def assemble_kg(
    schema: Schema,
    vocab: VocabBuilder,
    fragments: dict[str, list[tuple[int, int, int]]],
) -> KnowledgeGraph:
    """Combine per-split triple lists into a KnowledgeGraph.

    Duplicate triples (within or across splits) are dropped with a warning;
    the first occurrence, in train -> valid -> test order, wins.
    """
    parts = [np.asarray(fragments.get(split, ()), dtype=np.int64).reshape(-1, 3) for split in SPLITS]
    rows = np.concatenate(parts)
    codes = np.repeat(np.arange(len(SPLITS), dtype=np.int8), [len(p) for p in parts])
    _, first = np.unique(_triple_keys(rows, len(vocab), schema.n_relations), return_index=True)
    first.sort()  # back to split-then-file order
    if len(first) < len(rows):
        logger.warning("dropped %d duplicate triple(s) during assembly", len(rows) - len(first))
    return KnowledgeGraph(
        schema=schema,
        entities=tuple(vocab.names),
        entity_type=np.asarray(vocab.types, dtype=np.int64),
        triples=rows[first],
        split=codes[first],
    )


def load_dataset(
    schema: Schema | tuple[int, int],
    train_path,
    valid_path=None,
    test_path=None,
    type_labels: dict[str, str] | None = None,
) -> KnowledgeGraph:
    """Load train (+ optional valid/test) files into one KnowledgeGraph.

    ``schema`` is a ``Schema``, or the pair ``(entity_dim, relation_dim)``
    of a schema learned from the files (see the module docstring), whose
    relations are in order of first appearance. ``type_labels`` maps entity
    names to type names, as read from a type file by :func:`read_type_labels`.
    """
    learned = not isinstance(schema, Schema)
    if learned:
        entity_types = ("entity",) if type_labels is None else tuple(dict.fromkeys(type_labels.values()))
        relations: dict[str, tuple[int, int, int]] = {}
    else:
        entity_types, relations = schema.entity_types, _relation_table(schema)
    vocab = VocabBuilder()
    fragments = {TRAIN: _read_triples(train_path, entity_types, relations, vocab, type_labels, learned)}
    n_train_entities = len(vocab)
    for split, path in ((VALID, valid_path), (TEST, test_path)):
        if path is not None:
            fragments[split] = _read_triples(path, entity_types, relations, vocab, type_labels, learned)
    if len(vocab) > n_train_entities:
        logger.warning("%d entity(ies) first appear outside the training split", len(vocab) - n_train_entities)
    if learned:
        entity_dim, relation_dim = schema
        head, tail = (tuple(typing[i] for typing in relations.values()) for i in (1, 2))
        schema = Schema(entity_types, tuple(relations), head, tail,
                        (entity_dim,) * len(entity_types), (relation_dim,) * len(relations))
    return assemble_kg(schema, vocab, fragments)


def write_triples(kg: KnowledgeGraph, path, split: str) -> None:
    """Write one split back to the TAB-separated file format."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in kg.triples_of(split):
            fh.write(
                f"{kg.entities[int(h)]}\t{kg.schema.relation_types[int(r)]}\t{kg.entities[int(t)]}\n"
            )
