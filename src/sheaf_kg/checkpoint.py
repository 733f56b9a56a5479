"""Checkpoint persistence: a text manifest plus one binary tensor file.

A checkpoint with prefix ``P`` consists of ``P.manifest`` (UTF-8 ``key=value``
lines of format v2: variant, section count, seed, the schema with constraint
tags, and the interning tables, all read off the parameters, so each fact is
recorded once) and ``P.tensors`` (little-endian float64 tensors in manifest
order: entities by index, then head/tail maps per relation, then translations;
each tensor is prefixed by its rank and shape as little-endian uint64). Round
trips are bit-exact.

Entity tensors are written and read one run of same-shaped entities at a
time, as one ``(entities, 1 + rank + size)`` array of 8-byte words; a run's
headers are checked against the manifest in one comparison.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
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


def _manifest_lines(model: Model) -> list[str]:
    schema = model.schema
    lines = [
        f"format={FORMAT}",
        f"variant={model.sheaf.variant}",
        f"sections={model.sections.columns}",
        f"seed={model.seed}",
        f"n_entity_types={schema.n_entity_types}",
    ]
    for name, dim in zip(schema.entity_types, schema.vertex_dim):
        lines.append(f"entity_type={name}")
        lines.append(f"vertex_dim={dim}")
    lines.append(f"n_relations={schema.n_relations}")
    for r, name in enumerate(schema.relation_types):
        lines.append(f"relation={name}")
        lines.append(f"head_type={schema.entity_types[schema.head_type[r]]}")
        lines.append(f"tail_type={schema.entity_types[schema.tail_type[r]]}")
        lines.append(f"edge_dim={schema.edge_dim[r]}")
        lines.append(f"constraint={model.sheaf.constraints[r]}")
    lines.append(f"n_entities={model.n_entities}")
    for name, type_idx in zip(model.entities, model.entity_type):
        lines.append(f"entity={name}")
        lines.append(f"entity_type_of={schema.entity_types[int(type_idx)]}")
    return lines


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

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise CheckpointError(
                f"{self.path}: trailing manifest content at line {self.lines[self.pos][0]}"
            )


def _one_of(choices):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value

    return parse


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
    if model.sheaf.translations is not None:
        for t in model.sheaf.translations:
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
    return model


def _read_model(mpath: Path, tpath: Path) -> Model:
    reader = _ManifestReader(mpath)
    fmt = reader.take("format")
    if fmt != FORMAT:
        raise CheckpointError(f"{mpath}: unsupported format {fmt!r}")
    variant = reader.take("variant", _one_of(VARIANTS))
    sections = reader.take("sections", int)
    if sections < 1:  # tensor reads take every dim to be >= 1, as the schema's are
        raise CheckpointError(f"{mpath}: invalid sections={sections}")
    seed = reader.take("seed", int)

    n_types = reader.take("n_entity_types", int)
    type_names, vertex_dims = [], []
    for _ in range(n_types):
        type_names.append(reader.take("entity_type"))
        vertex_dims.append(reader.take("vertex_dim", int))
    type_idx = {name: i for i, name in enumerate(type_names)}.__getitem__

    n_relations = reader.take("n_relations", int)
    rel_names, head_types, tail_types, edge_dims, constraints = [], [], [], [], []
    for _ in range(n_relations):
        rel_names.append(reader.take("relation"))
        head_types.append(reader.take("head_type", type_idx))
        tail_types.append(reader.take("tail_type", type_idx))
        edge_dims.append(reader.take("edge_dim", int))
        constraints.append(reader.take("constraint", _one_of(CONSTRAINTS)))

    n_entities = reader.take("n_entities", int)
    entity_names, entity_types = [], []
    for _ in range(n_entities):
        entity_names.append(reader.take("entity"))
        entity_types.append(reader.take("entity_type_of", type_idx))
    reader.done()

    schema = Schema(
        entity_types=tuple(type_names),
        relation_types=tuple(rel_names),
        head_type=tuple(head_types),
        tail_type=tuple(tail_types),
        vertex_dim=tuple(vertex_dims),
        edge_dim=tuple(edge_dims),
    )

    tensors = _TensorFile(tpath)
    types = np.asarray(entity_types, dtype=np.int64)
    entity_runs = [
        (a, b, tensors.read([f"entity tensor {i}" for i in range(a, b)],
                            (vertex_dims[entity_types[a]], sections)))
        for a, b in equal_runs(types)
    ]
    head_maps, tail_maps = [], []
    for r in range(n_relations):
        head_shape = (edge_dims[r], vertex_dims[head_types[r]])
        tail_shape = (edge_dims[r], vertex_dims[tail_types[r]])
        head_maps.append(tensors.read([f"relation tensor {r} head"], head_shape)[0])
        tail_maps.append(tensors.read([f"relation tensor {r} tail"], tail_shape)[0])
    translations = None
    if variant == "shvt":
        translations = [
            tensors.read([f"translation tensor {r}"], (edge_dims[r], sections))[0]
            for r in range(n_relations)
        ]
    tensors.done()

    # arrays pad to the widest vertex_dim, which no header checks if no entity or relation has it
    try:
        sheaf = KnowledgeSheaf(schema, head_maps, tail_maps, tuple(constraints), translations)
        X = np.zeros((n_entities, max(vertex_dims), sections))
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
        entities=tuple(entity_names),
        entity_type=types,
        sheaf=sheaf,
        sections=padded,
        seed=seed,
    )
