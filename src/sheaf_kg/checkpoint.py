"""Checkpoint persistence: a text manifest plus one binary tensor file.

A checkpoint with prefix ``P`` consists of ``P.manifest`` (UTF-8 ``key=value``
lines of format v2: format, variant, section count and seed, then sections of
the entity types, the relations with their constraint tags, and the entities,
all read off the parameters, so each fact is recorded once) and ``P.tensors``
(little-endian float64 tensors in manifest order: entities by index, then
head/tail maps per relation, then translations; each tensor is prefixed by its
rank and shape as little-endian uint64). Round trips are bit-exact.

Each manifest section is a count line, then that many records of fixed keys,
one ``key=value`` line per key in a fixed order (names keep ``kgdata``'s name rule).

Entity tensors are written and read one run of same-shaped entities at a
time, as one ``(entities, 1 + rank + size)`` array of 8-byte words; a run's
headers are checked against the manifest in one comparison.
"""

from __future__ import annotations

import io
import itertools
import math
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, SchemaError, ValidationError
from .kgdata import Schema, text_lines
from .model import CONSTRAINTS, VARIANTS, KnowledgeSheaf, Model, SectionMatrix, equal_runs

MAGIC = b"SHKGTNSR"
FORMAT = "sheaf-kg-checkpoint-v2"

_DIM_DTYPE = np.dtype("<u8")
_DATA_DTYPE = np.dtype("<f8")


def manifest_path(prefix) -> Path:
    return Path(str(prefix) + ".manifest")


def tensor_path(prefix) -> Path:
    return Path(str(prefix) + ".tensors")


def _write_tensors(fh, arrays: np.ndarray) -> None:
    """Write each tensor ``arrays[i]`` as its rank, its shape and its data.

    The run goes out as one ``(len(arrays), 1 + rank + size)`` array of 8-byte words.
    """
    shape = arrays.shape[1:]
    head = (len(shape), *shape)
    words = np.empty((len(arrays), len(head) + math.prod(shape)), dtype=_DIM_DTYPE)
    words[:, :len(head)] = head
    data = np.ascontiguousarray(arrays, dtype=_DATA_DTYPE).reshape(len(arrays), -1)
    words[:, len(head):] = data.view(_DIM_DTYPE)
    fh.write(words.tobytes())


class _TensorFile:
    """The tensor file's bytes and the position of the next tensor in it."""

    def __init__(self, path: Path):
        self.path, self.data = path, path.read_bytes()
        if self.data[:len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes")
        self.pos = len(MAGIC)

    def read(self, names, shape: tuple[int, ...]) -> np.ndarray:
        """The next ``len(names)`` tensors, stacked; the manifest says each has ``shape``.

        The run is sized by the bytes left in the file, not by ``shape``, and
        every header in it must give ``shape``, so a corrupt dimension can
        size neither a read nor an allocation. The first tensor with a bad
        header, or cut short, raises as if it were read alone.
        """
        head = (len(shape), *shape)  # every dim is >= 1
        size = len(head) + math.prod(shape)  # in words
        k = min(len(names), (len(self.data) - self.pos) // (8 * size))
        i = k  # the first tensor with a bad header, or cut short
        if k:  # then the run fits in the file, so every dim fits in a word
            words = np.frombuffer(self.data, _DIM_DTYPE, k * size, self.pos).reshape(k, size)
            bad = np.flatnonzero((words[:, :len(head)] != np.array(head, _DIM_DTYPE)).any(axis=1))
            i = int(bad[0]) if len(bad) else k
        if i < len(names):
            raise self._error(names[i], head, self.pos + 8 * size * i)
        self.pos += 8 * size * k
        return words[:, len(head):].view(_DATA_DTYPE).reshape(k, *shape)

    def _error(self, name: str, head: tuple[int, ...], start: int) -> CheckpointError:
        """What is wrong with tensor ``name`` at byte ``start``: its header, or too few bytes."""
        raw = self.data[start:start + 8 * len(head)]
        if len(raw) < 8 * len(head):
            return CheckpointError(f"{self.path}: truncated tensor header")
        header = tuple(np.frombuffer(raw, _DIM_DTYPE).tolist())
        if header != head:
            return CheckpointError(
                f"{self.path}: {name} has header (rank, *shape) {header}, manifest says {head}"
            )
        return CheckpointError(f"{self.path}: truncated tensor data")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CheckpointError(f"{self.path}: trailing bytes after the last tensor")


def _records(count_key: str, **columns) -> list[str]:
    """A manifest section: ``count_key=n``, then per record one ``key=value`` line per column."""
    lines = [[f"{key}={value}" for value in values] for key, values in columns.items()]
    return [f"{count_key}={len(lines[0])}", *itertools.chain.from_iterable(zip(*lines))]


def _manifest_lines(model: Model) -> list[str]:
    schema, type_names = model.schema, model.schema.entity_types
    return [
        f"format={FORMAT}",
        f"variant={model.sheaf.variant}",
        f"sections={model.sections.columns}",
        f"seed={model.seed}",
        *_records("n_entity_types", entity_type=type_names, vertex_dim=schema.vertex_dim),
        *_records("n_relations", relation=schema.relation_types,
                  head_type=[type_names[i] for i in schema.head_type],
                  tail_type=[type_names[i] for i in schema.tail_type],
                  edge_dim=schema.edge_dim, constraint=model.sheaf.constraints),
        *_records("n_entities", entity=model.entities,
                  entity_type_of=[type_names[i] for i in model.entity_type.tolist()]),
    ]


class _ManifestReader:
    def __init__(self, path):
        self.path = path
        self.lines = list(text_lines(path, CheckpointError))  # (line number, line)
        self.pos = 0

    def take(self, key: str, parse=str):
        """Consume the next line, which must be ``key=value``, and return ``parse(value)``."""
        if self.pos >= len(self.lines):
            raise CheckpointError(f"{self.path}: manifest ended while expecting {key!r}")
        line = self.lines[self.pos][1]
        k, sep, value = line.partition("=")
        if not sep or k != key:
            raise CheckpointError(f"{self.path}: expected {key!r}, found {line!r}")
        self.pos += 1
        try:
            return parse(value)
        except (ValueError, KeyError):
            raise CheckpointError(f"{self.path}: invalid {key}={value!r}") from None

    def records(self, count_key: str, **parsers) -> list[list]:
        """A section written by ``_records``: one list per key, of each record's parsed value."""
        count = self.take(count_key, int)
        if count < 0:
            raise CheckpointError(f"{self.path}: invalid {count_key}={count}")
        fields = [([], key, parse) for key, parse in parsers.items()]
        for _ in range(count):
            for column, key, parse in fields:
                column.append(self.take(key, parse))
        return [column for column, _, _ in fields]

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise CheckpointError(
                f"{self.path}: trailing manifest content at line {self.lines[self.pos][0]}"
            )


def save_model(model: Model, prefix) -> None:
    """Write ``prefix``.manifest and ``prefix``.tensors."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    manifest_path(prefix).write_text("\n".join(_manifest_lines(model)) + "\n", encoding="utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    X, dims = model.sections.X, model.sections.dims
    for a, b in equal_runs(dims):
        _write_tensors(buf, X[a:b, :dims[a]])
    for r in range(model.schema.n_relations):
        _write_tensors(buf, model.sheaf.head_maps[r][None])
        _write_tensors(buf, model.sheaf.tail_maps[r][None])
    for t in model.sheaf.translations or ():
        _write_tensors(buf, t[None])
    tensor_path(prefix).write_bytes(buf.getvalue())


def load_model(prefix) -> Model:
    """Read a checkpoint pair back into a Model, verifying integrity and constraint tags."""
    mpath, tpath = manifest_path(prefix), tensor_path(prefix)
    try:
        model = _read_model(mpath, tpath)
        model.sheaf.check_constraints()
    except OSError as exc:
        raise CheckpointError(f"{exc.filename}: {exc.strerror}") from None
    except ConfigError as exc:  # a tag its maps do not satisfy
        raise CheckpointError(f"{tpath}: {exc}") from None
    except (SchemaError, ValidationError) as exc:  # a corrupt manifest, not a bad schema of the user's
        raise CheckpointError(f"{mpath}: {exc}") from None
    return model


def _read_model(mpath: Path, tpath: Path) -> Model:
    reader = _ManifestReader(mpath)
    fmt = reader.take("format")
    if fmt != FORMAT:
        raise CheckpointError(f"{mpath}: unsupported format {fmt!r}")
    variant = reader.take("variant", dict(zip(VARIANTS, VARIANTS)).__getitem__)
    sections = reader.take("sections", int)
    if sections < 1:  # tensor reads take every dim to be >= 1, as the schema's are
        raise CheckpointError(f"{mpath}: invalid sections={sections}")
    seed = reader.take("seed", int)
    type_names, vertex_dims = reader.records("n_entity_types", entity_type=str, vertex_dim=int)
    type_idx = {name: i for i, name in enumerate(type_names)}.__getitem__
    rel_names, head_types, tail_types, edge_dims, constraints = reader.records(
        "n_relations", relation=str, head_type=type_idx, tail_type=type_idx, edge_dim=int,
        constraint=dict(zip(CONSTRAINTS, CONSTRAINTS)).__getitem__,
    )
    entity_names, entity_types = reader.records("n_entities", entity=str, entity_type_of=type_idx)
    reader.done()

    schema = Schema(tuple(type_names), tuple(rel_names), tuple(head_types),
                    tuple(tail_types), tuple(vertex_dims), tuple(edge_dims))

    tensors = _TensorFile(tpath)
    types = np.asarray(entity_types, dtype=np.int64)
    entity_runs = [
        (a, b, tensors.read([f"entity tensor {i}" for i in range(a, b)],
                            (vertex_dims[entity_types[a]], sections)))
        for a, b in equal_runs(types)
    ]
    maps = {"head": [], "tail": []}
    for r in range(schema.n_relations):
        for side, dim in (("head", schema.head_dim(r)), ("tail", schema.tail_dim(r))):
            maps[side].append(tensors.read([f"relation tensor {r} {side}"], (edge_dims[r], dim))[0])
    translations = None
    if variant == "shvt":
        translations = [
            tensors.read([f"translation tensor {r}"], (edge_dims[r], sections))[0]
            for r in range(schema.n_relations)
        ]
    tensors.done()

    # arrays pad to the widest vertex_dim, which no header checks if no entity or relation has it
    try:
        sheaf = KnowledgeSheaf(schema, maps["head"], maps["tail"], tuple(constraints), translations)
        X = np.zeros((len(entity_names), max(vertex_dims), sections))
    except (MemoryError, ValueError):  # numpy: too large to allocate, or to address
        raise CheckpointError(f"{mpath}: arrays padded to vertex_dim {max(vertex_dims)} "
                              "cannot be allocated") from None
    for a, b, x in entity_runs:
        X[a:b, :x.shape[1]] = x
    padded = SectionMatrix.from_padded(X, np.asarray(vertex_dims, dtype=np.int64)[types])
    if not all(np.isfinite(a).all() for a in (padded.X, sheaf.RH, sheaf.RT, sheaf.T) if a is not None):
        raise CheckpointError(f"{tpath}: tensors hold non-finite values")
    return Model(
        schema=schema,
        entities=entity_names,
        entity_type=types,
        sheaf=sheaf,
        sections=padded,
        seed=seed,
    )
