import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.checkpoint import load_model, manifest_path, save_model, tensor_path
from sheaf_kg.errors import CheckpointError, ConfigError
from sheaf_kg.kgdata import KnowledgeGraph, Schema, default_schema
from sheaf_kg.model import (
    VARIANTS,
    KnowledgeSheaf,
    Model,
    ModelConfig,
    SectionMatrix,
    init_for_kg,
    init_model,
    orthogonality_penalty,
    orthonormal_columns,
    project_constraints_inplace,
    relation_discrepancy,
    triple_score,
)
from sheaf_kg.seeds import substream
from sheaf_kg.sheaf import SheafOnGraph, quadratic_form
from sheaf_kg.training import TrainConfig, train


def toy_kg(n_entities=6, n_relations=2, dim=4, rng=None, n_triples=10):
    schema = default_schema(n_relations, dim, dim)
    if rng is None:
        triples = np.zeros((0, 3), dtype=np.int64)
    else:
        triples = np.stack(
            [
                rng.integers(0, n_entities, n_triples),
                rng.integers(0, n_relations, n_triples),
                rng.integers(0, n_entities, n_triples),
            ],
            axis=1,
        ).astype(np.int64)
        triples = np.unique(triples, axis=0)
    return KnowledgeGraph(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(n_entities)),
        entity_type=np.zeros(n_entities, dtype=np.int64),
        triples=triples,
        split=np.zeros(len(triples), dtype=np.int8),
    )


def random_model(rng, variant="shv", constraint="free", m=1, dim=4, edge_dim=None, n_relations=2,
                 n_entities=6, seed=0):
    schema = default_schema(n_relations, dim, edge_dim if edge_dim else dim)
    cfg = ModelConfig(
        variant=variant, sections=m, entity_dim=dim,
        relation_dim=edge_dim if edge_dim else dim, constraint=constraint,
    )
    sheaf, sections = init_model(cfg, schema, np.zeros(n_entities, dtype=np.int64), seed)
    # free parameters should not look special; rescale with extra randomness
    for r in range(n_relations):
        if constraint == "free":
            sheaf.head_maps[r][...] = rng.normal(size=sheaf.head_maps[r].shape)
            sheaf.tail_maps[r][...] = rng.normal(size=sheaf.tail_maps[r].shape)
        if variant == "shvt":
            sheaf.translations[r][...] = rng.normal(size=sheaf.translations[r].shape)
    for i in range(n_entities):
        sections.block(i)[...] = rng.normal(size=sections.block(i).shape)
    return schema, cfg, sheaf, sections


def test_identity_maps_matches_a_per_map_check_across_edge_dims():
    # an identity relation on each of two types of dims 2 and 3, and a free one
    schema = Schema(("a", "b"), ("ra", "rb", "rf"), (0, 1, 0), (0, 1, 0), (2, 3), (2, 3, 2))
    cfg = ModelConfig(constraint="identity", constraint_overrides={"rf": "free"})
    sheaf, _ = init_model(cfg, schema, np.array([0, 1]), seed=0)

    def per_map(relations):
        return all(sheaf.constraints[r] == "identity" for r in relations) and all(
            np.array_equal(m, np.eye(len(m))) for r in relations for m in (sheaf.head_maps[r], sheaf.tail_maps[r]))

    keys = [(), (0,), (1,), (0, 1), (1, 0, 1), (2,), (0, 2), (2, 1)]
    assert [sheaf.identity_maps(k) for k in keys] == [per_map(k) for k in keys]
    assert sheaf.identity_maps((0, 1)) and not sheaf.identity_maps((0, 2))
    for maps, at in ((sheaf.tail_maps, (2, 2)), (sheaf.head_maps, (0, 1))):
        maps[1][at] = 0.5
        assert [sheaf.identity_maps(k) for k in keys] == [per_map(k) for k in keys]
        assert not sheaf.identity_maps((0, 1)) and sheaf.identity_maps((0,))
        maps[1][at] = float(at[0] == at[1])


class TestInit:
    def test_identity_maps_exact(self):
        schema = default_schema(2, 4, 4)
        cfg = ModelConfig(constraint="identity", entity_dim=4, relation_dim=4)
        sheaf, _ = init_model(cfg, schema, np.zeros(3, dtype=np.int64), seed=0)
        for r in range(2):
            np.testing.assert_array_equal(sheaf.head_maps[r], np.eye(4))
            np.testing.assert_array_equal(sheaf.tail_maps[r], np.eye(4))

    def test_same_seed_bitwise_identical(self):
        schema = default_schema(3, 8, 6)
        cfg = ModelConfig(variant="shvt", sections=2, entity_dim=8, relation_dim=6)
        a = init_model(cfg, schema, np.zeros(5, dtype=np.int64), seed=11)
        b = init_model(cfg, schema, np.zeros(5, dtype=np.int64), seed=11)
        for x, y in zip(map(a[1].block, range(5)), map(b[1].block, range(5))):
            np.testing.assert_array_equal(x, y)
        for r in range(3):
            np.testing.assert_array_equal(a[0].head_maps[r], b[0].head_maps[r])
            np.testing.assert_array_equal(a[0].translations[r], b[0].translations[r])

    def test_entity_columns_unit_norm(self):
        schema = default_schema(1, 64, 64)
        cfg = ModelConfig(sections=16, entity_dim=64, relation_dim=64)
        _, sections = init_model(cfg, schema, np.zeros(4, dtype=np.int64), seed=3)
        for blk in map(sections.block, range(sections.n_entities)):
            assert blk.shape == (64, 16)
            np.testing.assert_allclose(np.linalg.norm(blk, axis=0), 1.0, atol=1e-9)

    def test_identity_needs_square_dims(self):
        schema = default_schema(1, 4, 3)
        cfg = ModelConfig(constraint="identity", entity_dim=4, relation_dim=3)
        with pytest.raises(ConfigError):
            init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)

    @pytest.mark.parametrize("constraint", ["identity", "orthogonal"])
    def test_constructor_rejects_a_tag_its_dims_do_not_admit(self, constraint):
        schema = default_schema(1, 3, 2)
        maps = [np.ones((2, 3))]
        with pytest.raises(ConfigError, match=f"relation 'r0': {constraint} constraint needs"):
            KnowledgeSheaf(schema, maps, maps, [constraint])

    def test_orthogonal_needs_tall_maps(self):
        schema = default_schema(1, 4, 2)
        cfg = ModelConfig(constraint="orthogonal", entity_dim=4, relation_dim=2)
        with pytest.raises(ConfigError):
            init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)


def test_a_trained_copy_leaves_its_original_and_holds_its_own_views():
    # ragged: person sections have 2 rows and city sections 3, so every view is a strict sub-block
    schema = Schema(("person", "city"), ("lives_in", "knows"), (0, 0), (1, 0), (2, 3), (2, 2))
    kg = KnowledgeGraph(schema, ("ann", "bob", "eve", "oslo", "rome"), np.array([0, 0, 0, 1, 1]),
                        np.array([[0, 0, 3], [1, 0, 4], [2, 0, 3], [0, 1, 1], [1, 1, 2]]),
                        np.zeros(5, dtype=np.int8))
    original = init_for_kg(ModelConfig(variant="shvt", sections=2), kg, seed=0)
    arrays = (original.sections.X, original.sheaf.RH, original.sheaf.RT, original.sheaf.T)
    before = [a.tobytes() for a in arrays]
    trained, _ = train(kg, TrainConfig(epochs=3, batch_size=2, optimizer="sgd", seed=1), original.copy())
    assert [a.tobytes() for a in arrays] == before
    sheaf, sections = trained.sheaf, trained.sections
    assert not np.array_equal(sections.X, original.sections.X)
    owned = [(sheaf.head_maps, sheaf.RH), (sheaf.tail_maps, sheaf.RT), (sheaf.translations, sheaf.T),
             ([sections.block(i) for i in range(kg.n_entities)], sections.X)]
    for views, array in owned:
        assert all(view.base is array for view in views)
        assert not any(np.shares_memory(view, a) for view in views for a in arrays)


class TestScoring:
    def test_consistent_pair_scores_zero(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, constraint="identity")
        sections.block(1)[...] = sections.block(0).copy()
        assert triple_score(sheaf, sections, 0, 0, 1) == 0.0

    def test_permutation_match(self):
        schema = default_schema(1, 2, 2)
        cfg = ModelConfig(entity_dim=2, relation_dim=2)
        sheaf, sections = init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)
        sheaf.head_maps[0][...] = np.eye(2)
        sheaf.tail_maps[0][...] = np.array([[0.0, 1.0], [1.0, 0.0]])
        sections.block(0)[...] = np.array([[1.0], [2.0]])
        sections.block(1)[...] = np.array([[2.0], [1.0]])
        assert triple_score(sheaf, sections, 0, 0, 1) == 0.0

    def test_matches_two_vertex_sheaf_quadratic_form(self, rng):
        for m in (1, 3):
            schema, cfg, sheaf, sections = random_model(rng, m=m, dim=4, edge_dim=3)
            score = triple_score(sheaf, sections, 0, 1, 2)
            tiny = SheafOnGraph(
                vertex_dims=(4, 4),
                edges=((0, 1),),
                edge_dims=(3,),
                head_maps=(sheaf.head_maps[1],),
                tail_maps=(sheaf.tail_maps[1],),
            )
            oracle = sum(
                quadratic_form(tiny, [sections.block(0)[:, j], sections.block(2)[:, j]])
                for j in range(m)
            )
            assert score == pytest.approx(oracle, rel=1e-12)

    def test_translation_closes_the_gap(self):
        schema = default_schema(1, 2, 2)
        cfg = ModelConfig(variant="shvt", entity_dim=2, relation_dim=2, constraint="identity")
        sheaf, sections = init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)
        sections.block(0)[...] = np.array([[1.0], [0.0]])
        sections.block(1)[...] = np.array([[1.0], [1.0]])
        sheaf.translations[0][...] = np.array([[0.0], [1.0]])
        assert triple_score(sheaf, sections, 0, 0, 1) == 0.0

    def test_zero_translation_reduces_to_plain_score(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, variant="shvt", m=2)
        sheaf.translations[0][...] = np.zeros_like(sheaf.translations[0])
        plain = KnowledgeSheaf(schema, sheaf.head_maps, sheaf.tail_maps, sheaf.constraints)
        assert triple_score(sheaf, sections, 0, 0, 1) == pytest.approx(
            triple_score(plain, sections, 0, 0, 1), rel=1e-12
        )

    def test_matches_scalar_loop(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, variant="shvt", m=2, dim=3, edge_dim=4)
        h, r, t = 0, 1, 3
        total = 0.0
        for j in range(2):
            for i in range(4):
                acc = 0.0
                for k in range(3):
                    acc += sheaf.head_maps[r][i, k] * sections.block(h)[k, j]
                    acc -= sheaf.tail_maps[r][i, k] * sections.block(t)[k, j]
                acc += sheaf.translations[r][i, j]
                total += acc * acc
        assert triple_score(sheaf, sections, h, r, t) == pytest.approx(total, rel=1e-12)


class TestEquivalenceLadder:
    def test_free_maps_reproduce_pairwise_matrix_scoring(self, rng):
        # classic two-matrix relational scoring: |R_h x_h - R_t x_t|
        for _ in range(50):
            schema, cfg, sheaf, sections = random_model(rng, constraint="free", m=1, dim=4)
            h, r, t = 0, int(rng.integers(0, 2)), 1
            se_norm = np.linalg.norm(
                sheaf.head_maps[r] @ sections.block(h)[:, 0]
                - sheaf.tail_maps[r] @ sections.block(t)[:, 0]
            )
            assert triple_score(sheaf, sections, h, r, t) == pytest.approx(se_norm**2, rel=1e-12)

    def test_identity_maps_reproduce_unstructured_distance(self, rng):
        for _ in range(50):
            schema, cfg, sheaf, sections = random_model(rng, constraint="identity", m=1)
            h, t = 0, 1
            d = sections.block(h)[:, 0] - sections.block(t)[:, 0]
            assert triple_score(sheaf, sections, h, 0, t) == pytest.approx(float(d @ d), rel=1e-12)

    def test_identity_plus_translation_is_additive_translation_scoring(self, rng):
        for _ in range(50):
            schema, cfg, sheaf, sections = random_model(
                rng, variant="shvt", constraint="identity", m=1
            )
            h, r, t = 0, int(rng.integers(0, 2)), 1
            v = (
                sections.block(h)[:, 0]
                + sheaf.translations[r][:, 0]
                - sections.block(t)[:, 0]
            )
            assert triple_score(sheaf, sections, h, r, t) == pytest.approx(
                float(v @ v), rel=1e-12
            )

    def test_shared_map_translation_is_projected_translation_scoring(self, rng):
        for _ in range(50):
            schema, cfg, sheaf, sections = random_model(
                rng, variant="shvt", constraint="shared", m=1, dim=4, edge_dim=3
            )
            h, r, t = 2, int(rng.integers(0, 2)), 4
            proj = sheaf.head_maps[r]
            v = (
                proj @ sections.block(h)[:, 0]
                + sheaf.translations[r][:, 0]
                - proj @ sections.block(t)[:, 0]
            )
            assert triple_score(sheaf, sections, h, r, t) == pytest.approx(
                float(v @ v), rel=1e-12
            )

    def test_shared_maps_are_symmetric_in_arguments(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, constraint="shared", m=2)
        assert triple_score(sheaf, sections, 0, 0, 1) == triple_score(sheaf, sections, 1, 0, 0)

    def test_global_orthogonal_basis_change_invariance(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, m=2, dim=4, edge_dim=3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated_sheaf = sheaf.copy()
        for r in range(2):
            rotated_sheaf.head_maps[r][...] = sheaf.head_maps[r] @ q.T
            rotated_sheaf.tail_maps[r][...] = sheaf.tail_maps[r] @ q.T
        rotated_sections = sections.copy()
        for i in range(sections.n_entities):
            rotated_sections.block(i)[...] = q @ sections.block(i)
        for (h, r, t) in ((0, 0, 1), (2, 1, 3)):
            assert triple_score(rotated_sheaf, rotated_sections, h, r, t) == pytest.approx(
                triple_score(sheaf, sections, h, r, t), rel=1e-10
            )


class TestProjection:
    def test_orthogonal_map_is_fixed_point(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(orthonormal_columns(q), q, atol=1e-12)

    def test_shared_retied_exactly(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, constraint="shared")
        sheaf.tail_maps[0][...] = sheaf.tail_maps[0] + 0.1  # desync
        fixed = sheaf.copy()
        project_constraints_inplace(fixed)
        np.testing.assert_array_equal(fixed.head_maps[0], fixed.tail_maps[0])

    def test_antisymmetric_retied(self, rng):
        schema, cfg, sheaf, sections = random_model(rng, constraint="antisymmetric")
        sheaf.tail_maps[0][...] = rng.normal(size=sheaf.tail_maps[0].shape)
        fixed = sheaf.copy()
        project_constraints_inplace(fixed)
        np.testing.assert_array_equal(fixed.head_maps[0], -fixed.tail_maps[0])

    def test_polar_factor_is_nearest_orthonormal(self, rng):
        m = rng.normal(size=(5, 5))
        q = orthonormal_columns(m)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)
        # oracle: polar factor from an independent SVD path
        u, s, vt = np.linalg.svd(m)
        np.testing.assert_allclose(q, u @ vt, atol=1e-10)
        # any other orthogonal matrix is no closer
        for _ in range(10):
            other, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            assert np.linalg.norm(q - m) <= np.linalg.norm(other - m) + 1e-9


class TestOrthogonalityPenalty:
    def test_orthonormal_columns_score_zero(self, rng):
        blocks = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
            blocks.append(q)
        assert orthogonality_penalty(SectionMatrix(4, blocks)) == pytest.approx(0.0, abs=1e-20)

    def test_scaled_identity_arithmetic(self):
        d = 5
        sections = SectionMatrix(d, [2.0 * np.eye(d)])
        assert orthogonality_penalty(sections) == pytest.approx(9.0 * d)

    def test_matches_scalar_loop(self, rng):
        blocks = [rng.normal(size=(4, 3)) for _ in range(5)]
        total = 0.0
        for blk in blocks:
            gram = blk.T @ blk - np.eye(3)
            for i in range(3):
                for j in range(3):
                    total += gram[i, j] ** 2
        assert orthogonality_penalty(SectionMatrix(3, blocks)) == pytest.approx(total, rel=1e-12)

    def test_zero_penalty_iff_orthonormal(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        assert orthogonality_penalty(SectionMatrix(3, [q])) <= 1e-20
        noisy = q + 1e-3 * rng.normal(size=(5, 3))
        penalized = orthogonality_penalty(SectionMatrix(3, [noisy]))
        assert penalized > 1e-10
        gram_err = np.linalg.norm(noisy.T @ noisy - np.eye(3))
        assert (penalized <= 1e-20) == (gram_err <= 1e-10)


class TestRelationDiscrepancy:
    def test_consistent_model_is_all_zero(self, rng):
        kg = toy_kg(rng=rng)
        cfg = ModelConfig(constraint="identity", entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        for i in range(1, kg.n_entities):
            model.sections.block(i)[...] = model.sections.block(0).copy()
        out = relation_discrepancy(model.sheaf, model.sections, kg)
        for value in out.values():
            assert value == pytest.approx(0.0, abs=1e-20)

    def test_single_triple(self, rng):
        kg = toy_kg()
        kg = KnowledgeGraph(
            schema=kg.schema,
            entities=kg.entities,
            entity_type=kg.entity_type.copy(),
            triples=np.array([[0, 1, 2]], dtype=np.int64),
            split=np.zeros(1, dtype=np.int8),
        )
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        sigma = triple_score(model.sheaf, model.sections, 0, 1, 2)
        assert relation_discrepancy(model.sheaf, model.sections, kg) == {
            "r1": pytest.approx(sigma)
        }

    def test_empty_relation_absent_not_zero(self, rng):
        kg = toy_kg()
        kg = KnowledgeGraph(
            schema=kg.schema,
            entities=kg.entities,
            entity_type=kg.entity_type.copy(),
            triples=np.array([[0, 0, 1]], dtype=np.int64),
            split=np.zeros(1, dtype=np.int8),
        )
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        out = relation_discrepancy(model.sheaf, model.sections, kg)
        assert "r1" not in out

    def test_matches_grouping_oracle(self, rng):
        kg = toy_kg(n_entities=12, n_relations=3, rng=rng, n_triples=50)
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=1)
        out = relation_discrepancy(model.sheaf, model.sections, kg)
        groups: dict[str, list[float]] = {}
        for h, r, t in kg.triples_of("train"):
            name = kg.schema.relation_types[int(r)]
            groups.setdefault(name, []).append(
                triple_score(model.sheaf, model.sections, int(h), int(r), int(t))
            )
        assert set(out) == set(groups)
        for name in out:
            assert out[name] == pytest.approx(float(np.mean(groups[name])), rel=1e-12)


# Two entity types of unequal dim, one relation per constraint tag, each
# with edge and vertex dims the tag admits.
RAGGED_SCHEMA = Schema(
    entity_types=("a", "b"),
    relation_types=("free", "shared", "identity", "orthogonal", "antisymmetric"),
    head_type=(0, 1, 1, 0, 0),
    tail_type=(1, 1, 1, 1, 0),
    vertex_dim=(3, 5),
    edge_dim=(2, 4, 5, 6, 3),
)
RAGGED_TYPES = np.array([0, 1, 1, 0, 1, 0, 1])


def per_tag_init_oracle(config, schema, entity_types, seed):
    """init_model as written when each tag built its own maps.

    Returns the sheaf and the section blocks; the constructor only pads.
    """
    rng = substream(seed, "init")
    m = config.sections
    blocks = []
    for type_idx in entity_types:
        d = schema.vertex_dim[int(type_idx)]
        x = rng.normal(size=(d, m)) / np.sqrt(d)
        norms = np.linalg.norm(x, axis=0)
        norms[norms == 0.0] = 1.0
        blocks.append(x / norms)
    constraints = config.constraints_for(schema)
    head_maps, tail_maps = [], []
    for r, kind in enumerate(constraints):
        de, dh, dt = schema.edge_dim[r], schema.head_dim(r), schema.tail_dim(r)
        if kind == "identity":
            head, tail = np.eye(de), np.eye(de)
        elif kind in ("shared", "antisymmetric"):
            head = rng.normal(size=(de, dh)) / np.sqrt(dh * de)
            tail = head.copy() if kind == "shared" else -head
        elif kind == "orthogonal":
            head = orthonormal_columns(rng.normal(size=(de, dh)))
            tail = orthonormal_columns(rng.normal(size=(de, dt)))
        else:
            head = rng.normal(size=(de, dh)) / np.sqrt(dh * de)
            tail = rng.normal(size=(de, dt)) / np.sqrt(dt * de)
        head_maps.append(head)
        tail_maps.append(tail)
    translations = None
    if config.variant == "shvt":
        translations = [
            rng.normal(size=(schema.edge_dim[r], m)) / np.sqrt(schema.edge_dim[r])
            for r in range(schema.n_relations)
        ]
    return KnowledgeSheaf(schema, head_maps, tail_maps, constraints, translations), blocks


def assert_same_sheaf(a, b):
    np.testing.assert_array_equal(a.RH, b.RH, strict=True)
    np.testing.assert_array_equal(a.RT, b.RT, strict=True)
    if b.T is None:
        assert a.T is None
    else:
        np.testing.assert_array_equal(a.T, b.T, strict=True)


class TestProjectedConstructionMatchesPerTagOracle:
    """Draw-then-project construction is bit-identical to per-tag construction."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_init_model(self, variant, m):
        cfg = ModelConfig(variant=variant, sections=m, constraint_overrides={
            name: name for name in RAGGED_SCHEMA.relation_types
        })
        sheaf, sections = init_model(cfg, RAGGED_SCHEMA, RAGGED_TYPES, seed=4)
        ref_sheaf, ref_blocks = per_tag_init_oracle(cfg, RAGGED_SCHEMA, RAGGED_TYPES, seed=4)
        assert_same_sheaf(sheaf, ref_sheaf)
        np.testing.assert_array_equal(
            sections.X, SectionMatrix(m, ref_blocks, max(RAGGED_SCHEMA.vertex_dim)).X, strict=True
        )
        sheaf.check_constraints()


@pytest.mark.parametrize("m", [1, 3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_run_wise_init_draws_as_one_draw_per_entity(m, seed):
    """Ragged two-type schemas whose entity types come in runs of random length."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        entity_types=("a", "b"),
        relation_types=("ab", "ba", "bb"),
        head_type=(0, 1, 1),
        tail_type=(1, 0, 1),
        vertex_dim=tuple(int(d) for d in rng.choice([1, 2, 5, 9, 130], size=2)),
        edge_dim=tuple(int(d) for d in rng.integers(1, 6, size=3)),
    )
    k = int(rng.integers(0, 7))
    types = np.repeat(rng.integers(0, 2, size=k), rng.integers(1, 5, size=k))
    cfg = ModelConfig(variant=str(rng.choice(VARIANTS)), sections=m)
    sheaf, sections = init_model(cfg, schema, types, seed)
    ref_sheaf, ref_blocks = per_tag_init_oracle(cfg, schema, types, seed)
    ref = SectionMatrix(m, ref_blocks, max(schema.vertex_dim))
    assert sections.X.tobytes() == ref.X.tobytes()
    np.testing.assert_array_equal(sections.dims, ref.dims, strict=True)
    # the maps and translations are drawn after the sections, so they pin the stream position
    assert_same_sheaf(sheaf, ref_sheaf)


class TestCheckpoint:
    def _model(self, rng, variant="shvt"):
        kg = toy_kg(rng=rng)
        cfg = ModelConfig(variant=variant, sections=2, entity_dim=4, relation_dim=4)
        return init_for_kg(cfg, kg, seed=9)

    def _ragged_model(self, rng):
        """Two entity types of unequal dim, orthogonal maps, and a free override on relation 0."""
        schema = Schema(
            entity_types=("a", "b"),
            relation_types=("r0", "r1", "r2"),
            head_type=(0, 1, 0),
            tail_type=(1, 0, 0),
            vertex_dim=(2, 3),
            edge_dim=(4, 3, 2),
        )
        entity_type = rng.permutation(np.arange(7) % 2).astype(np.int64)
        cfg = ModelConfig(variant="shvt", sections=2, constraint="orthogonal",
                          constraint_overrides={"r0": "free"})
        sheaf, sections = init_model(cfg, schema, entity_type, seed=5)
        return Model(schema, tuple(f"e{i}" for i in range(7)), entity_type, sheaf, sections, seed=5)

    @pytest.mark.parametrize("build", ["_model", "_ragged_model"], ids=["uniform", "ragged"])
    def test_round_trip_is_bit_exact(self, tmp_path, rng, build):
        from click.testing import CliRunner

        from sheaf_kg.cli import main

        model = getattr(self, build)(rng)
        first = tmp_path / "ck1"
        save_model(model, first)
        loaded = load_model(first)
        second = tmp_path / "ck2"
        save_model(loaded, second)
        assert manifest_path(first).read_bytes() == manifest_path(second).read_bytes()
        assert tensor_path(first).read_bytes() == tensor_path(second).read_bytes()
        for a, b in zip(map(model.sections.block, range(model.n_entities)),
                        map(loaded.sections.block, range(loaded.n_entities))):
            np.testing.assert_array_equal(a, b)
        assert loaded.schema == model.schema
        assert loaded.sheaf.constraints == model.sheaf.constraints
        assert loaded.sheaf.translational and model.sheaf.translational
        assert loaded.sections.columns == model.sections.columns == 2
        assert loaded.seed == model.seed
        assert loaded.entities == model.entities

        res = CliRunner().invoke(main, ["inspect", "--checkpoint", str(first)])
        assert res.exit_code == 0, res.output
        assert f"variant=shvt sections=2 seed={model.seed}\n" in res.output
        for name, kind in zip(model.schema.relation_types, model.sheaf.constraints):
            assert f"relation {name}: constraint={kind} " in res.output

    def test_truncated_tensor_file_is_integrity_error(self, tmp_path, rng):
        model = self._model(rng)
        prefix = tmp_path / "ck"
        save_model(model, prefix)
        raw = tensor_path(prefix).read_bytes()
        tensor_path(prefix).write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_model(prefix)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "nothing")

    def test_entity_names_with_separator_chars(self, tmp_path, rng):
        kg = toy_kg(rng=rng)
        kg = KnowledgeGraph(
            schema=kg.schema,
            entities=("/m/0x1=weird", "plain", "sp ace", "e3", "e4", "e5"),
            entity_type=kg.entity_type.copy(),
            triples=kg.triples.copy(),
            split=kg.split.copy(),
        )
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        prefix = tmp_path / "ck"
        save_model(model, prefix)
        assert load_model(prefix).entities == kg.entities

    @pytest.mark.parametrize("key", [
        "format", "variant", "sections", "seed", "n_entity_types",
        "entity_type", "vertex_dim", "n_relations", "head_type", "tail_type", "edge_dim",
        "constraint", "n_entities", "entity_type_of",
    ])
    def test_corrupt_manifest_value_is_checkpoint_error(self, tmp_path, rng, key):
        prefix = tmp_path / "ck"
        save_model(self._model(rng), prefix)
        path = manifest_path(prefix)
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
        lines[i] = f"{key}=x"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError) as err:
            load_model(prefix)
        # a renamed entity type is caught where the first relation refers to it
        named_key = "head_type" if key == "entity_type" else key
        assert str(path) in str(err.value) and named_key in str(err.value)
