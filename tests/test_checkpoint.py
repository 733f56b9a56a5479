"""Corrupt checkpoints end in a ``SheafKGError``, never in another exception."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.checkpoint import MAGIC, load_model, manifest_path, save_model, tensor_path
from sheaf_kg.errors import CheckpointError, SheafKGError
from sheaf_kg.kgdata import Schema
from sheaf_kg.model import Model, ModelConfig, init_model

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
