"""Corrupt checkpoints end in a ``SheafKGError``, never in another exception."""

import hashlib
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.checkpoint import (
    FORMAT, MAGIC, _manifest_lines, _ManifestReader, load_model, manifest_path, save_model, tensor_path,
)
from sheaf_kg.errors import CheckpointError, ConfigError, SheafKGError
from sheaf_kg.kgdata import Schema
from sheaf_kg.model import (
    CONSTRAINTS, KnowledgeSheaf, Model, ModelConfig, SectionMatrix, _check_dims, init_model,
)

# the first tensor's header: rank, then its first dimension
FIRST_DIM = slice(len(MAGIC) + 8, len(MAGIC) + 16)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Manifest text and tensor bytes of a ragged shvt model: three types, every one in use."""
    schema = Schema(
        entity_types=("a", "b", "c"),
        relation_types=("r0", "r1", "r2"),
        head_type=(0, 1, 2),
        tail_type=(1, 2, 0),
        vertex_dim=(2, 3, 4),
        edge_dim=(3, 5, 2),
    )
    entity_type = np.array([0, 1, 2, 0, 1, 2, 2], dtype=np.int64)
    cfg = ModelConfig(variant="shvt", sections=2, constraint_overrides={"r1": "orthogonal"})
    sheaf, sections = init_model(cfg, schema, entity_type, seed=0)
    names = tuple(f"e{i}" for i in range(len(entity_type)))
    prefix = tmp_path_factory.mktemp("ckpt") / "model"
    save_model(Model(schema, names, entity_type, sheaf, sections), prefix)
    return manifest_path(prefix).read_text(encoding="utf-8"), tensor_path(prefix).read_bytes()


def write(prefix: Path, manifest: str, tensors: bytes) -> None:
    manifest_path(prefix).write_text(manifest, encoding="utf-8")
    tensor_path(prefix).write_bytes(tensors)


@pytest.mark.parametrize("dim", [2**62, 2**40 + 1])
def test_corrupt_header_dimension_is_checkpoint_error(tmp_path, saved, dim):
    manifest, tensors = saved
    tensors = bytearray(tensors)
    tensors[FIRST_DIM] = np.array([dim], dtype="<u8").tobytes()
    write(tmp_path / "ck", manifest, bytes(tensors))
    with pytest.raises(CheckpointError, match="entity tensor 0 has header"):
        load_model(tmp_path / "ck")


def flip_byte(draw, manifest, tensors):
    i = draw(st.integers(0, len(tensors) - 1))
    mutated = bytearray(tensors)
    mutated[i] ^= draw(st.integers(1, 255))
    return manifest, bytes(mutated)


def truncate(draw, manifest, tensors):
    return manifest, tensors[:draw(st.integers(0, len(tensors) - 1))]


def replace_value(draw, manifest, tensors):
    lines = manifest.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    value = draw(st.one_of(
        st.integers(-2**64, 2**64).map(str),
        st.sampled_from(["", "nan", "-inf", "1e308", "shv", "identity", "a", "b", "c", "r0"]),
        st.text(st.characters(codec="utf-8"), max_size=8),
    ))
    lines[i] = lines[i].partition("=")[0] + "=" + value
    return "\n".join(lines) + "\n", tensors


def delete_line(draw, manifest, tensors):
    lines = manifest.splitlines()
    del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n", tensors


@pytest.mark.parametrize("mutate", [flip_byte, truncate, replace_value, delete_line])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_checkpoint_loads_or_raises_sheaf_kg_error(saved, mutate, data):
    manifest, tensors = mutate(data.draw, *saved)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ck"
        write(prefix, manifest, tensors)
        try:
            model = load_model(prefix)
        except SheafKGError:
            return
    assert isinstance(model, Model)


@pytest.mark.parametrize("dim", [2**40, 2**62, 2**64])
def test_unused_type_with_huge_vertex_dim_is_checkpoint_error(tmp_path, dim):
    # No tensor header checks an unused type's dim, and the padded arrays take
    # the widest dim, so loading these once ended in a MemoryError or a ValueError.
    from click.testing import CliRunner

    from sheaf_kg.cli import main

    schema = Schema(
        entity_types=("a", "b", "unused"),
        relation_types=("r",),
        head_type=(0,),
        tail_type=(1,),
        vertex_dim=(2, 3, 2),
        edge_dim=(2,),
    )
    entity_type = np.array([0, 1, 0, 1], dtype=np.int64)
    cfg = ModelConfig(variant="shv", entity_dim=2, relation_dim=2)
    sheaf, sections = init_model(cfg, schema, entity_type, seed=0)
    save_model(Model(schema, ("e0", "e1", "e2", "e3"), entity_type, sheaf, sections),
               tmp_path / "ck")
    load_model(tmp_path / "ck")
    manifest = manifest_path(tmp_path / "ck").read_text(encoding="utf-8")
    huge = manifest.replace("entity_type=unused\nvertex_dim=2\n", f"entity_type=unused\nvertex_dim={dim}\n")
    assert huge != manifest
    manifest_path(tmp_path / "ck").write_text(huge, encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"vertex_dim {dim} cannot be allocated"):
        load_model(tmp_path / "ck")
    result = CliRunner().invoke(main, ["inspect", "--checkpoint", str(tmp_path / "ck")],
                                catch_exceptions=False)
    assert result.exit_code == 1
    assert "cannot be allocated" in result.output


@pytest.mark.parametrize("constraint", ["shared", "antisymmetric", "identity", "orthogonal"])
def test_constraint_tag_its_maps_break_is_checkpoint_error(tmp_path, constraint):
    schema = Schema(
        entity_types=("a",), relation_types=("likes",), head_type=(0,), tail_type=(0,),
        vertex_dim=(2,), edge_dim=(2,),
    )
    entity_type = np.zeros(3, dtype=np.int64)
    cfg = ModelConfig(variant="shv", entity_dim=2, relation_dim=2, constraint=constraint)
    sheaf, sections = init_model(cfg, schema, entity_type, seed=0)
    model = Model(schema, ("e0", "e1", "e2"), entity_type, sheaf, sections)
    save_model(model, tmp_path / "ok")
    load_model(tmp_path / "ok")
    sheaf.head_maps[0][0, 0] += 0.5  # one entry of one map
    save_model(model, tmp_path / "ck")
    with pytest.raises(CheckpointError, match=f"relation 'likes': .*{constraint}"):
        load_model(tmp_path / "ck")


@pytest.mark.parametrize("where, value, match", [
    ("free map", np.nan, "tensors hold non-finite values"),
    ("section", np.inf, "tensors hold non-finite values"),
    ("orthogonal map", 1e200, "relation 'orth': tail map orthogonality error inf"),
], ids=["nan-free-map", "inf-section", "huge-orthogonal-map"])
def test_non_finite_or_overflowing_parameters_are_checkpoint_errors(tmp_path, where, value, match):
    # 1e200 overflows the Gram matrix, which must fail the tolerance, not warn
    schema = Schema(
        entity_types=("a",), relation_types=("free", "orth"), head_type=(0, 0), tail_type=(0, 0),
        vertex_dim=(2,), edge_dim=(2, 2),
    )
    entity_type = np.zeros(3, dtype=np.int64)
    cfg = ModelConfig(variant="shvt", constraint_overrides={"orth": "orthogonal"})
    sheaf, sections = init_model(cfg, schema, entity_type, seed=0)
    block = {"free map": sheaf.head_maps[0], "section": sections.block(1),
             "orthogonal map": sheaf.tail_maps[1]}[where]
    block[0, 0] = value
    save_model(Model(schema, ("e0", "e1", "e2"), entity_type, sheaf, sections), tmp_path / "ck")
    with pytest.raises(CheckpointError, match=f"^{tensor_path(tmp_path / 'ck')}: {match}"):
        load_model(tmp_path / "ck")


def test_missing_checkpoint_file_is_checkpoint_error(tmp_path, saved):
    manifest, tensors = saved
    write(tmp_path / "ck", manifest, tensors)
    tensor_path(tmp_path / "ck").unlink()
    with pytest.raises(CheckpointError, match=f"{tensor_path(tmp_path / 'ck')}: No such file"):
        load_model(tmp_path / "ck")
    manifest_path(tmp_path / "ck").unlink()
    manifest_path(tmp_path / "ck").mkdir()
    with pytest.raises(CheckpointError, match=f"{manifest_path(tmp_path / 'ck')}: Is a directory"):
        load_model(tmp_path / "ck")


def test_non_utf8_manifest_is_checkpoint_error(tmp_path, saved):
    manifest, tensors = saved
    write(tmp_path / "ck", manifest, tensors)
    manifest_path(tmp_path / "ck").write_bytes(manifest.encode("utf-8") + b"seed=\xff\n")
    with pytest.raises(CheckpointError, match=f"{manifest_path(tmp_path / 'ck')}: not UTF-8 text"):
        load_model(tmp_path / "ck")


def test_trailing_manifest_content_names_its_file_line(tmp_path, saved):
    manifest, tensors = saved
    write(tmp_path / "ck", "\n\n" + manifest + "extra=1\n", tensors)
    line = manifest.count("\n") + 3
    with pytest.raises(CheckpointError, match=f"trailing manifest content at line {line}$"):
        load_model(tmp_path / "ck")


def write_tensor_alone(fh, array) -> None:
    """``checkpoint``'s tensor writer as written when each tensor was written on its own."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    fh.write(np.asarray([arr.ndim], dtype="<u8").tobytes())
    fh.write(np.asarray(arr.shape, dtype="<u8").tobytes())
    fh.write(arr.tobytes())


def read_tensor_alone(fh, path, name, shape):
    """``checkpoint``'s tensor reader as written when each tensor was read on its own."""
    expected = (len(shape), *shape)
    raw = fh.read(len(expected) * 8)
    if len(raw) != len(expected) * 8:
        raise CheckpointError(f"{path}: truncated tensor header")
    header = tuple(int(s) for s in np.frombuffer(raw, dtype="<u8"))
    if header != expected:
        raise CheckpointError(
            f"{path}: {name} has header (rank, *shape) {header}, manifest says {expected}"
        )
    nbytes = math.prod(shape) * 8
    raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise CheckpointError(f"{path}: truncated tensor data")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def tensor_specs(model):
    """``(name, manifest shape, tensor)`` of each tensor of ``model``'s checkpoint, in file order."""
    schema, sheaf, m = model.schema, model.sheaf, model.sections.columns
    specs = [(f"entity tensor {i}", (int(d), m), model.sections.block(i))
             for i, d in enumerate(model.sections.dims)]
    for r in range(schema.n_relations):
        specs.append((f"relation tensor {r} head", (schema.edge_dim[r], schema.head_dim(r)),
                      sheaf.head_maps[r]))
        specs.append((f"relation tensor {r} tail", (schema.edge_dim[r], schema.tail_dim(r)),
                      sheaf.tail_maps[r]))
    for r, t in enumerate(sheaf.translations or ()):
        specs.append((f"translation tensor {r}", (schema.edge_dim[r], m), t))
    return specs


def tensors_alone(model) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    for _, _, tensor in tensor_specs(model):
        write_tensor_alone(buf, tensor)
    return buf.getvalue()


def read_alone_error(path, specs):
    """The message with which the per-tensor reader rejects ``path``, or None if it reads it."""
    with open(path, "rb") as fh:
        assert fh.read(len(MAGIC)) == MAGIC
        try:
            for name, shape, _ in specs:
                read_tensor_alone(fh, path, name, shape)
        except CheckpointError as exc:
            return str(exc)
        return f"{path}: trailing bytes after the last tensor" if fh.read(1) else None


def run_model(rng, m, variant):
    """A ragged two-type model whose entity types come in runs of random length."""
    schema = Schema(
        entity_types=("a", "b"),
        relation_types=("ab", "bb"),
        head_type=(0, 1),
        tail_type=(1, 1),
        vertex_dim=tuple(int(d) for d in rng.choice([1, 2, 3, 5], size=2, replace=False)),
        edge_dim=tuple(int(d) for d in rng.integers(1, 5, size=2)),
    )
    k = int(rng.integers(1, 6))
    entity_type = np.repeat(np.arange(k) % 2, rng.integers(1, 5, size=k)).astype(np.int64)
    sheaf, sections = init_model(ModelConfig(variant=variant, sections=m), schema, entity_type,
                                 seed=int(rng.integers(0, 100)))
    if rng.random() < 0.5:  # zeros of both signs must round-trip too
        sections.X[:, :1] *= -0.0
    names = tuple(f"e{i}" for i in range(len(entity_type)))
    return Model(schema, names, entity_type, sheaf, sections)


@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_run_wise_tensor_io_matches_per_tensor_io(variant, m, seed):
    model = run_model(np.random.default_rng(seed), m, variant)
    specs = tensor_specs(model)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ck"
        save_model(model, prefix)
        assert tensor_path(prefix).read_bytes() == tensors_alone(model)
        with open(tensor_path(prefix), "rb") as fh:
            fh.read(len(MAGIC))
            expected = [read_tensor_alone(fh, tensor_path(prefix), name, shape)
                        for name, shape, _ in specs]
        loaded = load_model(prefix)
    got = tensor_specs(loaded)
    assert [(name, shape) for name, shape, _ in got] == [(name, shape) for name, shape, _ in specs]
    for (_, _, tensor), want in zip(got, expected):
        assert tensor.tobytes() == want.tobytes()
    assert loaded.sections.X.tobytes() == model.sections.X.tobytes()


@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_corrupt_run_raises_the_per_tensor_message(m, seed, data):
    """A bad header word or a truncation anywhere, in a run or after it."""
    model = run_model(np.random.default_rng(seed), m, "shvt")
    specs = tensor_specs(model)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ck"
        save_model(model, prefix)
        tensors = bytearray(tensor_path(prefix).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            del tensors[data.draw(st.integers(len(MAGIC), len(tensors) - 1), label="at"):]
        else:
            j = data.draw(st.integers(0, len(specs) - 1), label="tensor")
            start = len(MAGIC) + sum(8 * (3 + math.prod(shape)) for _, shape, _ in specs[:j])
            word = start + 8 * data.draw(st.integers(0, 2), label="word")
            value = data.draw(st.one_of(st.integers(0, 9), st.integers(0, 2**64 - 1)), label="value")
            tensors[word:word + 8] = np.array([value], dtype="<u8").tobytes()
        tensor_path(prefix).write_bytes(bytes(tensors))
        expected = read_alone_error(tensor_path(prefix), specs)
        if expected is None:  # the word was overwritten with its own value
            load_model(prefix)
            return
        with pytest.raises(CheckpointError) as exc:
            load_model(prefix)
    assert str(exc.value) == expected


@pytest.fixture
def long_run(tmp_path):
    """A checkpoint whose five entities are one run of (3, 2) tensors."""
    schema = Schema(
        entity_types=("a",), relation_types=("r",), head_type=(0,), tail_type=(0,),
        vertex_dim=(3,), edge_dim=(3,),
    )
    entity_type = np.zeros(5, dtype=np.int64)
    sheaf, sections = init_model(ModelConfig(sections=2), schema, entity_type, seed=0)
    save_model(Model(schema, tuple(f"e{i}" for i in range(5)), entity_type, sheaf, sections),
               tmp_path / "ck")
    return tmp_path / "ck", 3 + 3 * 2  # the prefix, and the words per entity tensor


@pytest.mark.parametrize("k", [1, 3, 4])
def test_bad_header_inside_a_run_names_its_entity(long_run, k):
    prefix, words = long_run
    tensors = bytearray(tensor_path(prefix).read_bytes())
    at = len(MAGIC) + 8 * (words * k + 1)  # entity k's first dim
    tensors[at:at + 8] = np.array([7], dtype="<u8").tobytes()
    tensor_path(prefix).write_bytes(bytes(tensors))
    message = rf"entity tensor {k} has header \(rank, \*shape\) \(2, 7, 2\), manifest says \(2, 3, 2\)$"
    with pytest.raises(CheckpointError, match=message):
        load_model(prefix)


@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("cut, message", [(2, "header"), (5, "data"), (8, "data")])
def test_truncation_inside_a_run_is_named(long_run, k, cut, message):
    prefix, words = long_run
    tensors = tensor_path(prefix).read_bytes()
    tensor_path(prefix).write_bytes(tensors[:len(MAGIC) + 8 * (words * k + cut) + 3])
    with pytest.raises(CheckpointError, match=f"truncated tensor {message}$"):
        load_model(prefix)


@pytest.mark.parametrize("forged", [False, True])
def test_huge_manifest_dim_sizes_no_read_or_allocation(long_run, forged):
    # a forged header agrees with the manifest, so only the bytes left in the
    # file can stop a read of 2**40 * 2 words
    prefix, _ = long_run
    huge = 2**40
    manifest = manifest_path(prefix).read_text(encoding="utf-8")
    manifest_path(prefix).write_text(manifest.replace("vertex_dim=3\n", f"vertex_dim={huge}\n"),
                                     encoding="utf-8")
    if forged:
        tensors = bytearray(tensor_path(prefix).read_bytes())
        tensors[FIRST_DIM] = np.array([huge], dtype="<u8").tobytes()
        tensor_path(prefix).write_bytes(bytes(tensors))
    match = "truncated tensor data$" if forged else rf"entity tensor 0 has header .* \(2, {huge}, 2\)$"
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_model(prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("value", ["0", "-3"])
def test_sections_below_one_is_checkpoint_error(tmp_path, saved, value):
    # tensor runs are sized by words per tensor, which must be positive
    manifest, tensors = saved
    write(tmp_path / "ck", manifest.replace("sections=2\n", f"sections={value}\n"), tensors)
    with pytest.raises(CheckpointError, match=f"invalid sections={value}$"):
        load_model(tmp_path / "ck")


@pytest.mark.parametrize("old, new, message", [
    ("relation=r1\n", "relation=r0\n", "duplicate relation name 'r0'"),
    ("entity=e1\n", "entity=e0\n", "duplicate entity name 'e0'"),  # entity_index() would read e0 as 1
    ("=c\n", "=a\n", "duplicate entity type name 'a'"),  # type c renamed a, its uses too
    ("vertex_dim=2\n", "vertex_dim=0\n", "all stalk dimensions must be >= 1"),
    ("edge_dim=3\n", "edge_dim=0\n", "all stalk dimensions must be >= 1"),
    # a comma name once saved and loaded, but no query file could name it
    ("entity=e1\n", "entity=e,1\n", "entity name 'e,1' is empty or holds a TAB, LF, CR or comma"),
], ids=["duplicate-relation", "duplicate-entity", "duplicate-entity-type", "vertex-dim-0", "edge-dim-0",
        "comma-entity"])
def test_corrupt_manifest_schema_is_checkpoint_error(tmp_path, saved, old, new, message):
    manifest, tensors = saved
    assert old in manifest
    write(tmp_path / "ck", manifest.replace(old, new), tensors)
    with pytest.raises(CheckpointError, match=f"^{manifest_path(tmp_path / 'ck')}: {message}$"):
        load_model(tmp_path / "ck")


def oracle_manifest_lines(model: Model) -> list[str]:
    """``checkpoint._manifest_lines`` as written before its sections shared one record writer."""
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


def oracle_one_of(choices):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value

    return parse


def oracle_sections(path) -> dict:
    """The three manifest sections as ``checkpoint._read_model``'s own loops once read them."""
    reader = _ManifestReader(path)
    for key in ("format", "variant", "sections", "seed"):
        reader.take(key)
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
        constraints.append(reader.take("constraint", oracle_one_of(CONSTRAINTS)))

    n_entities = reader.take("n_entities", int)
    entity_names, entity_types = [], []
    for _ in range(n_entities):
        entity_names.append(reader.take("entity"))
        entity_types.append(reader.take("entity_type_of", type_idx))
    reader.done()
    return dict(type_names=type_names, vertex_dims=vertex_dims, rel_names=rel_names,
                head_types=head_types, tail_types=tail_types, edge_dims=edge_dims,
                constraints=constraints, entity_names=entity_names, entity_types=entity_types)


def model_sections(model: Model) -> dict:
    """``oracle_sections``' fields read off a model."""
    s = model.schema
    return dict(type_names=list(s.entity_types), vertex_dims=list(s.vertex_dim),
                rel_names=list(s.relation_types), head_types=list(s.head_type),
                tail_types=list(s.tail_type), edge_dims=list(s.edge_dim),
                constraints=list(model.sheaf.constraints), entity_names=list(model.entities),
                entity_types=model.entity_type.tolist())


def admits(schema: Schema, r: int, kind: str) -> bool:
    try:
        _check_dims(schema, r, kind)
    except ConfigError:
        return False
    return True


# names with "=", a space and a non-ASCII letter: a value is everything after the first "="
NAMES = st.text(alphabet="ab=é 0", min_size=1, max_size=3)


@st.composite
def ragged_models(draw):
    """A model on a drawn ragged schema: 1-3 types, 0-3 relations, 1-8 entities, every tag its dims admit."""
    n_types, n_rel = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    schema = Schema(
        entity_types=tuple(draw(st.lists(NAMES, min_size=n_types, max_size=n_types, unique=True))),
        relation_types=tuple(draw(st.lists(NAMES, min_size=n_rel, max_size=n_rel, unique=True))),
        head_type=tuple(draw(st.lists(st.integers(0, n_types - 1), min_size=n_rel, max_size=n_rel))),
        tail_type=tuple(draw(st.lists(st.integers(0, n_types - 1), min_size=n_rel, max_size=n_rel))),
        vertex_dim=tuple(draw(st.lists(st.integers(1, 4), min_size=n_types, max_size=n_types))),
        edge_dim=tuple(draw(st.lists(st.integers(1, 4), min_size=n_rel, max_size=n_rel))),
    )
    overrides = {
        name: draw(st.sampled_from([k for k in CONSTRAINTS if admits(schema, r, k)]))
        for r, name in enumerate(schema.relation_types)
    }
    entity_type = np.array(draw(st.lists(st.integers(0, n_types - 1), min_size=1, max_size=8)),
                           dtype=np.int64)
    cfg = ModelConfig(variant=draw(st.sampled_from(["shv", "shvt"])), sections=draw(st.integers(1, 2)),
                      constraint_overrides=overrides)
    sheaf, sections = init_model(cfg, schema, entity_type, seed=draw(st.integers(0, 99)))
    names = tuple(draw(st.lists(NAMES, min_size=len(entity_type), max_size=len(entity_type), unique=True)))
    return Model(schema, names, entity_type, sheaf, sections, seed=draw(st.integers(0, 2**32)))


def no_relation_model() -> Model:
    schema = Schema(entity_types=("a", "b"), relation_types=(), head_type=(), tail_type=(),
                    vertex_dim=(2, 3), edge_dim=())
    entity_type = np.array([0, 1, 1], dtype=np.int64)
    sheaf, sections = init_model(ModelConfig(variant="shvt"), schema, entity_type, seed=0)
    return Model(schema, ("x", "y", "z"), entity_type, sheaf, sections)


def check_manifest_against_oracles(model: Model) -> None:
    assert _manifest_lines(model) == oracle_manifest_lines(model)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ck"
        save_model(model, prefix)
        expected = oracle_sections(manifest_path(prefix))
        loaded = load_model(prefix)
    assert model_sections(loaded) == expected == model_sections(model)
    assert loaded.sheaf.variant == model.sheaf.variant and loaded.seed == model.seed


@given(model=ragged_models())
@settings(max_examples=60, deadline=None)
def test_manifest_sections_match_the_per_section_oracles(model):
    check_manifest_against_oracles(model)


def test_a_model_without_relations_matches_the_oracles():
    check_manifest_against_oracles(no_relation_model())


@pytest.mark.parametrize("key", ["n_entity_types", "n_relations", "n_entities"])
def test_negative_section_count_is_checkpoint_error(tmp_path, key):
    # the records after the count are dropped, so a negative count is the only fault
    model = no_relation_model()
    model = Model(model.schema, (), np.zeros(0, dtype=np.int64), model.sheaf,
                  SectionMatrix.from_padded(np.zeros((0, 3, 1)), np.zeros(0, dtype=np.int64)))
    save_model(model, tmp_path / "ck")
    manifest = manifest_path(tmp_path / "ck").read_text(encoding="utf-8")
    if key == "n_entity_types":
        manifest = manifest.split(f"{key}=")[0] + f"{key}=-1\nn_relations=0\nn_entities=0\n"
    else:
        assert f"{key}=0\n" in manifest
        manifest = manifest.replace(f"{key}=0\n", f"{key}=-1\n")
    manifest_path(tmp_path / "ck").write_text(manifest, encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"^{manifest_path(tmp_path / 'ck')}: invalid {key}=-1$"):
        load_model(tmp_path / "ck")


def pinned_model() -> Model:
    """A ragged shvt model built from fixed arrays, so that its checkpoint's bytes depend on the format only."""
    schema = Schema(entity_types=("a", "b"), relation_types=("ab", "bb"), head_type=(0, 1),
                    tail_type=(1, 1), vertex_dim=(2, 3), edge_dim=(2, 3))
    entity_type = np.array([0, 1, 1, 0, 1], dtype=np.int64)
    dims = np.array([2, 3], dtype=np.int64)[entity_type]
    X = np.zeros((5, 3, 2))
    for i, d in enumerate(dims):
        X[i, :d] = np.arange(2 * d).reshape(d, 2) / 8 - i
    X[0, 0, 0] = -0.0
    heads = [np.arange(4.0).reshape(2, 2) / 4, np.eye(3)]
    tails = [np.arange(6.0).reshape(2, 3) / -16, np.eye(3)]
    translations = [np.array([[0.5, -0.25], [1.0, 2.0]]), np.arange(6.0).reshape(3, 2) / 32]
    sheaf = KnowledgeSheaf(schema, heads, tails, ("free", "identity"), translations)
    return Model(schema, ("e0", "e1", "e2", "e3", "e4"), entity_type, sheaf,
                 SectionMatrix.from_padded(X, dims), seed=7)


# SHA-256 of pinned_model()'s .manifest and .tensors under format v2
PINNED_MANIFEST = "ecc498b73962509b3cb76d7daabb63fff2661fb38e98e3dd817c5a5854861a53"
PINNED_TENSORS = "950fdf7c54ba8036d1de2b174653596b6c7da8bdf737c414befcc471527e8efa"


def test_format_v2_bytes_are_pinned(tmp_path):
    save_model(pinned_model(), tmp_path / "ck")
    assert hashlib.sha256(manifest_path(tmp_path / "ck").read_bytes()).hexdigest() == PINNED_MANIFEST
    assert hashlib.sha256(tensor_path(tmp_path / "ck").read_bytes()).hexdigest() == PINNED_TENSORS
