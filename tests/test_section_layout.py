"""The padded section layout: one zero-padded ``(n, d, m)`` array behind every entity block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.checkpoint import MAGIC, load_model, save_model, tensor_path
from sheaf_kg.errors import ShapeError
from sheaf_kg.kgdata import KnowledgeGraph, Schema
from sheaf_kg.model import Model, ModelConfig, SectionMatrix, init_model
from sheaf_kg.training import TrainConfig, train


def layout_case(rng, empty_widest):
    """Three entity types of distinct vertex dims; the widest may have no entities.

    Relation 0 joins the two narrower types, so there is always a trainable
    relation; the others pick their endpoint types at random.
    """
    vertex_dim = tuple(int(d) for d in rng.choice(np.arange(1, 7), size=3, replace=False))
    widest = int(np.argmax(vertex_dim))
    narrow = [t for t in range(3) if t != widest]
    head_type, tail_type = [narrow[0]], [narrow[1]]
    for _ in range(3):
        head_type.append(int(rng.integers(0, 3)))
        tail_type.append(int(rng.integers(0, 3)))
    schema = Schema(
        entity_types=("a", "b", "c"),
        relation_types=("r0", "r1", "r2", "r3"),
        head_type=tuple(head_type),
        tail_type=tuple(tail_type),
        vertex_dim=vertex_dim,
        edge_dim=tuple(int(d) for d in rng.integers(1, 7, size=4)),
    )
    counts = [int(rng.integers(2, 6)) for _ in range(3)]
    if empty_widest:
        counts[widest] = 0
    entity_type = rng.permutation(np.repeat(np.arange(3), counts)).astype(np.int64)
    rows = []
    for k in range(30):
        r = 0 if k == 0 else int(rng.integers(0, 4))
        heads = np.flatnonzero(entity_type == schema.head_type[r])
        tails = np.flatnonzero(entity_type == schema.tail_type[r])
        if len(heads) and len(tails):
            rows.append((int(rng.choice(heads)), r, int(rng.choice(tails))))
    triples = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    kg = KnowledgeGraph(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(len(entity_type))),
        entity_type=entity_type,
        triples=triples,
        split=np.zeros(len(triples), dtype=np.int8),
    )
    return kg


def true_blocks(sections, schema, entity_type):
    """Each entity's section, sliced by its type's vertex dim (not through ``block``)."""
    return [sections.X[i, :schema.vertex_dim[t]] for i, t in enumerate(entity_type)]


def assert_padding_zero(sections, schema, entity_type):
    dims = np.asarray(schema.vertex_dim)[entity_type]
    np.testing.assert_array_equal(sections.dims, dims)
    assert sections.X.shape[1] == max(schema.vertex_dim)
    padded = np.arange(sections.X.shape[1])[None, :] >= dims[:, None]
    assert np.all(sections.X[padded] == 0.0)


def oracle_tensor_bytes(blocks, sheaf) -> bytes:
    """The checkpoint's tensor file written one entity block at a time."""
    out = [MAGIC]

    def put(array):
        array = np.ascontiguousarray(array, dtype="<f8")
        out.append(np.asarray([array.ndim, *array.shape], dtype="<u8").tobytes())
        out.append(array.tobytes())

    for blk in blocks:
        put(blk)
    for head, tail in zip(sheaf.head_maps, sheaf.tail_maps):
        put(head)
        put(tail)
    for t in sheaf.translations or ():
        put(t)
    return b"".join(out)


@pytest.mark.parametrize("empty_widest", [False, True])
@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_padded_layout_through_init_train_and_checkpoint(tmp_path_factory, empty_widest, variant, m, seed):
    rng = np.random.default_rng(seed)
    kg = layout_case(rng, empty_widest)
    schema, entity_type = kg.schema, kg.entity_type

    blocks = [rng.normal(size=(schema.vertex_dim[t], m)) for t in entity_type]
    given_sections = SectionMatrix(m, blocks, max(schema.vertex_dim))
    for i, blk in enumerate(blocks):
        np.testing.assert_array_equal(given_sections.block(i), blk)
    assert_padding_zero(given_sections, schema, entity_type)

    cfg = ModelConfig(variant=variant, sections=m, alpha=0.1)
    sheaf, sections = init_model(cfg, schema, entity_type, seed=seed)
    assert_padding_zero(sections, schema, entity_type)

    model = Model(cfg, schema, kg.entities, entity_type, sheaf, sections, seed=seed)
    _, report = train(
        kg,
        TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, optimizer="adagrad",
                    negatives_per_positive=2, alpha=0.1, seed=seed, max_entity_norm=1.5),
        model,
    )
    assert np.all(np.isfinite(report.epoch_mean_loss))
    assert model.sections is sections  # trained in place
    assert_padding_zero(model.sections, schema, entity_type)

    prefix = tmp_path_factory.mktemp("layout") / "model"
    save_model(model, prefix)
    expected = oracle_tensor_bytes(true_blocks(model.sections, schema, entity_type), model.sheaf)
    assert tensor_path(prefix).read_bytes() == expected

    loaded = load_model(prefix)
    assert_padding_zero(loaded.sections, schema, entity_type)
    np.testing.assert_array_equal(loaded.sections.X, model.sections.X)


class TestSectionMatrix:
    def test_default_width_is_the_widest_block(self):
        sections = SectionMatrix(2, [np.ones((3, 2)), np.ones((1, 2))])
        assert sections.X.shape == (2, 3, 2)
        assert np.all(sections.X[1, 1:] == 0.0)

    def test_block_is_a_writable_view(self):
        sections = SectionMatrix(1, [np.zeros((2, 1)), np.zeros((3, 1))])
        sections.block(0)[...] = 7.0
        assert np.all(sections.X[0, :2] == 7.0) and sections.X[0, 2, 0] == 0.0

    def test_copy_is_independent(self):
        sections = SectionMatrix(1, [np.zeros((2, 1))])
        dup = sections.copy()
        dup.block(0)[...] = 1.0
        assert np.all(sections.X == 0.0)

    @pytest.mark.parametrize("blocks, dim", [
        ([np.zeros((2, 2))], None),  # wrong column count
        ([np.zeros(2)], None),  # not a matrix
        ([np.zeros((4, 1))], 3),  # wider than the padded dim
    ])
    def test_rejects_misshapen_blocks(self, blocks, dim):
        with pytest.raises(ShapeError):
            SectionMatrix(1, blocks, dim)
