"""The padded layouts: one zero-padded ``(n, d, m)`` array behind every entity
block, and zero-padded per-relation arrays behind every map and translation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import batch_scores
from sheaf_kg import _kernels
from sheaf_kg.checkpoint import MAGIC, load_model, save_model, tensor_path
from sheaf_kg.errors import ShapeError, TrainingAbortError
from sheaf_kg.kgdata import KnowledgeGraph, Schema
from sheaf_kg.model import (
    KnowledgeSheaf,
    Model,
    ModelConfig,
    SectionMatrix,
    init_model,
    relation_discrepancy,
    triple_score,
)
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


def assert_map_padding_zero(sheaf):
    """Each relation's views are its true blocks of RH, RT and T; every other entry is exactly 0."""
    schema = sheaf.schema
    R = schema.n_relations
    assert sheaf.RH.shape == sheaf.RT.shape == (R, max(schema.edge_dim), max(schema.vertex_dim))
    layouts = [
        (sheaf.RH, sheaf.head_maps, [schema.head_dim(r) for r in range(R)]),
        (sheaf.RT, sheaf.tail_maps, [schema.tail_dim(r) for r in range(R)]),
    ]
    if sheaf.translational:
        layouts.append((sheaf.T, sheaf.translations, [sheaf.T.shape[2]] * R))
    for stacked, views, widths in layouts:
        padding = np.ones(stacked.shape, dtype=bool)
        for r, (view, width) in enumerate(zip(views, widths)):
            true_block = (r, slice(schema.edge_dim[r]), slice(width))
            assert np.shares_memory(view, stacked)
            np.testing.assert_array_equal(view, stacked[true_block])
            padding[true_block] = False
        assert np.all(stacked[padding] == 0.0)


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

    assert_map_padding_zero(sheaf)
    arrays = (sheaf.RH, sheaf.RT, sheaf.T)
    model = Model(schema, kg.entities, entity_type, sheaf, sections, seed=seed)
    _, report = train(
        kg,
        TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, optimizer="adagrad",
                    negatives_per_positive=2, alpha=0.1, seed=seed, max_entity_norm=1.5),
        model,
    )
    assert np.all(np.isfinite(report.epoch_mean_loss))
    assert model.sections is sections  # trained in place
    assert all(a is b for a, b in zip((sheaf.RH, sheaf.RT, sheaf.T), arrays))
    assert_padding_zero(model.sections, schema, entity_type)
    assert_map_padding_zero(model.sheaf)

    prefix = tmp_path_factory.mktemp("layout") / "model"
    save_model(model, prefix)
    expected = oracle_tensor_bytes(true_blocks(model.sections, schema, entity_type), model.sheaf)
    assert tensor_path(prefix).read_bytes() == expected

    loaded = load_model(prefix)
    assert_padding_zero(loaded.sections, schema, entity_type)
    np.testing.assert_array_equal(loaded.sections.X, model.sections.X)
    assert_map_padding_zero(loaded.sheaf)
    np.testing.assert_array_equal(loaded.sheaf.RH, model.sheaf.RH)
    np.testing.assert_array_equal(loaded.sheaf.RT, model.sheaf.RT)
    if variant == "shvt":
        np.testing.assert_array_equal(loaded.sheaf.T, model.sheaf.T)


def random_map_blocks(rng, schema, variant, m):
    """Per-relation head maps, tail maps and (for shvt) translations of the schema's shapes."""
    R = range(schema.n_relations)
    head = [rng.normal(size=(schema.edge_dim[r], schema.head_dim(r))) for r in R]
    tail = [rng.normal(size=(schema.edge_dim[r], schema.tail_dim(r))) for r in R]
    translations = None
    if variant == "shvt":
        translations = [rng.normal(size=(schema.edge_dim[r], m)) for r in R]
    return head, tail, translations


@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_sheaf_pads_maps_once_into_zeroed_arrays(variant, m, seed):
    rng = np.random.default_rng(seed)
    schema = layout_case(rng, empty_widest=False).schema
    head, tail, translations = random_map_blocks(rng, schema, variant, m)
    sheaf = KnowledgeSheaf(schema, head, tail, ("free",) * schema.n_relations, translations)
    assert_map_padding_zero(sheaf)
    for r in range(schema.n_relations):
        np.testing.assert_array_equal(sheaf.head_maps[r], head[r])
        np.testing.assert_array_equal(sheaf.tail_maps[r], tail[r])
        if translations is not None:
            np.testing.assert_array_equal(sheaf.translations[r], translations[r])
    with pytest.raises(TypeError):
        sheaf.head_maps[0] = head[0]  # a writer must go through the view

    dup = sheaf.copy()
    assert dup.RH is not sheaf.RH and dup.RT is not sheaf.RT
    assert_map_padding_zero(dup)
    dup.head_maps[0][...] = 7.0
    if translations is not None:
        assert dup.T is not sheaf.T
        dup.translations[0][...] = 7.0
        np.testing.assert_array_equal(sheaf.translations[0], translations[0])
    np.testing.assert_array_equal(sheaf.head_maps[0], head[0])
    assert np.all(dup.RH[0, :schema.edge_dim[0], :schema.head_dim(0)] == 7.0)


def test_sheaf_rejects_misshapen_blocks():
    schema = Schema(("a", "b"), ("r",), (0,), (1,), (2, 3), (4,))
    head, tail = [np.zeros((4, 2))], [np.zeros((4, 3))]
    with pytest.raises(ShapeError, match="tail map"):
        KnowledgeSheaf(schema, head, [np.zeros((4, 2))], ("free",))
    with pytest.raises(ShapeError, match="translation"):
        KnowledgeSheaf(schema, head, tail, ("free",), [np.zeros((3, 1))])


@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
# seeds where a step before stop_at left the maps unchanged
@example(seed=11)
@example(seed=111)
@example(seed=661)
@example(seed=675)
@example(seed=735)
@example(seed=795)
@example(seed=1397)
@settings(max_examples=4, deadline=None)
def test_abort_leaves_the_trained_maps_in_the_model(variant, m, seed):
    rng = np.random.default_rng(seed)
    kg = layout_case(rng, empty_widest=False)
    cfg = ModelConfig(variant=variant, sections=m)
    sheaf, sections = init_model(cfg, kg.schema, kg.entity_type, seed=seed)
    model = Model(kg.schema, kg.entities, kg.entity_type, sheaf, sections, seed=seed)
    initial = sheaf.copy()
    stop_at = int(rng.integers(2, 6))
    calls, at_abort = [], []
    real = _kernels.margin_grads

    def fail_at_stop(X, RH, RT, T, *rest):
        calls.append(None)
        # A step can leave the maps unchanged (its only active pair may be a
        # negative equal to its positive), so abort at the first call from
        # stop_at on that sees maps the earlier steps have moved.
        if len(calls) >= stop_at and not np.array_equal(RH, initial.RH):
            at_abort.extend(a.copy() for a in (RH, RT, T) if a is not None)
            return float("nan"), 0
        return real(X, RH, RT, T, *rest)

    with mock.patch.object(_kernels, "margin_grads", fail_at_stop):
        with pytest.raises(TrainingAbortError):
            train(kg, TrainConfig(epochs=10, batch_size=4, learning_rate=0.1, seed=seed), model)
    assert model.sheaf is sheaf
    held = [a for a in (sheaf.RH, sheaf.RT, sheaf.T) if a is not None]
    for array, expected in zip(held, at_abort):
        np.testing.assert_array_equal(array, expected)
    assert not np.array_equal(sheaf.RH, initial.RH)  # the steps before the abort trained the maps
    assert_map_padding_zero(sheaf)


@pytest.mark.parametrize("empty_widest", [False, True])
@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_relation_discrepancy_matches_per_triple_grouping(empty_widest, variant, m, seed):
    rng = np.random.default_rng(seed)
    kg = layout_case(rng, empty_widest)
    schema = kg.schema
    head, tail, translations = random_map_blocks(rng, schema, variant, m)
    sheaf = KnowledgeSheaf(schema, head, tail, ("free",) * schema.n_relations, translations)
    blocks = [rng.normal(size=(schema.vertex_dim[t], m)) for t in kg.entity_type]
    sections = SectionMatrix(m, blocks, max(schema.vertex_dim))

    out = relation_discrepancy(sheaf, sections, kg)
    triples = kg.triples_of("train")
    # the stacked scores, as the training kernel takes them, independently of edge_residual
    kernel = batch_scores(sections.X, sheaf.RH, sheaf.RT, sheaf.T, *triples.T)
    groups: dict[str, list[float]] = {}
    kernel_groups: dict[str, list[float]] = {}
    for (h, r, t), expected in zip(triples, kernel):
        groups.setdefault(schema.relation_types[r], []).append(
            triple_score(sheaf, sections, int(h), int(r), int(t))
        )
        kernel_groups.setdefault(schema.relation_types[r], []).append(expected)
    assert list(out) == sorted(groups, key=schema.relation_types.index)
    for name, scores in groups.items():
        assert type(out[name]) is float
        assert out[name] == pytest.approx(float(np.mean(scores)), rel=1e-12)
        np.testing.assert_allclose(scores, kernel_groups[name], rtol=1e-12)
        assert out[name] == pytest.approx(float(np.mean(kernel_groups[name])), rel=1e-12)


@pytest.mark.parametrize("empty_widest", [False, True])
@pytest.mark.parametrize("variant", ["shv", "shvt"])
@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_triple_score_matches_kernel_on_random_init(empty_widest, variant, m, seed):
    rng = np.random.default_rng(seed)
    kg = layout_case(rng, empty_widest)
    sheaf, sections = init_model(
        ModelConfig(variant=variant, sections=m), kg.schema, kg.entity_type, seed
    )
    h, r, t = kg.triples.T
    kernel = batch_scores(sections.X, sheaf.RH, sheaf.RT, sheaf.T, h, r, t)
    scores = [triple_score(sheaf, sections, int(a), int(b), int(c)) for a, b, c in kg.triples]
    np.testing.assert_allclose(scores, kernel, rtol=1e-12)


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
