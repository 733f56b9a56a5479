"""Typed knowledge graphs: schemas, triple files, vocabularies, and indexes.

Triple files follow the usual benchmark convention: UTF-8 text, one triple
per line, exactly two TAB separators (``head<TAB>relation<TAB>tail``), no
header. Entities and relations are interned into dense 0-based indices in
order of first appearance, which makes loading deterministic.
"""

from __future__ import annotations

import logging
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
            if len(set(names)) != len(names):
                raise SchemaError(f"duplicate {kind} names")
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

    def relation_index(self, name: str) -> int:
        try:
            return self.relation_types.index(name)
        except ValueError:
            raise SchemaError(f"relation {name!r} absent from schema") from None

    def entity_type_index(self, name: str) -> int:
        try:
            return self.entity_types.index(name)
        except ValueError:
            raise SchemaError(f"entity type {name!r} absent from schema") from None

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


def unique_names(names, error=ValidationError, where: str = "", kind: str = "entity") -> tuple[str, ...]:
    """``names`` as a tuple; an empty name, one with a TAB, LF or CR, or a repeat raises ``error``, naming it."""
    if "" in names or any(c in "\0".join(names) for c in "\t\n\r"):
        bad = next(name for name in names if not name or any(c in name for c in "\t\n\r"))
        raise error(f"{where}{kind} name {bad!r} is empty or holds a TAB, LF or CR")
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise error(f"{where}duplicate {kind} name {repeated[0]!r}")
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
    """Yield ``(line number, fields)`` for each non-empty line of a TAB-separated file; no field is empty."""
    for lineno, line in text_lines(path):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise TripleParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}")
        if "" in fields:
            raise TripleParseError(f"{path}:{lineno}: field {fields.index('') + 1} of {n_fields} is empty")
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

    With a single-type schema unseen entities get that type; otherwise the
    sidecar ``type_labels`` mapping must cover them.
    """
    def type_of(name: str) -> int:
        if schema.n_entity_types == 1:
            return 0
        if type_labels is None or name not in type_labels:
            raise ValidationError(
                f"entity {name!r} needs a type label "
                "(multi-type schema without sidecar entry)"
            )
        return schema.entity_type_index(type_labels[name])

    triples: list[tuple[int, int, int]] = []
    for lineno, (head_name, rel_name, tail_name) in tsv_rows(path, 3):
        try:
            r = schema.relation_index(rel_name)
            h = vocab.intern(head_name, type_of(head_name))
            t = vocab.intern(tail_name, type_of(tail_name))
            if vocab.types[h] != schema.head_type[r] or vocab.types[t] != schema.tail_type[r]:
                raise ValidationError(
                    f"triple ({head_name}, {rel_name}, {tail_name}) "
                    "violates the schema's head/tail typing"
                )
        except (SchemaError, ValidationError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        triples.append((h, r, t))
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
    schema: Schema,
    train_path,
    valid_path=None,
    test_path=None,
    type_labels: dict[str, str] | None = None,
) -> KnowledgeGraph:
    """Load train (+ optional valid/test) files into one KnowledgeGraph.

    ``type_labels`` maps entity names to type names, as read from a type
    file by :func:`read_type_labels`.
    """
    vocab = VocabBuilder()
    fragments = {TRAIN: load_triples(train_path, schema, vocab, type_labels)}
    n_train_entities = len(vocab)
    for split, path in ((VALID, valid_path), (TEST, test_path)):
        if path:
            fragments[split] = load_triples(path, schema, vocab, type_labels)
    if len(vocab) > n_train_entities:
        logger.warning(
            "%d entity(ies) first appear outside the training split",
            len(vocab) - n_train_entities,
        )
    return assemble_kg(schema, vocab, fragments)


def write_triples(kg: KnowledgeGraph, path, split: str) -> None:
    """Write one split back to the TAB-separated file format."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in kg.triples_of(split):
            fh.write(
                f"{kg.entities[int(h)]}\t{kg.schema.relation_types[int(r)]}\t{kg.entities[int(t)]}\n"
            )
