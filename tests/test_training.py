import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_scores
from sheaf_kg import _kernels
from sheaf_kg.checkpoint import save_model, manifest_path, tensor_path
from sheaf_kg.errors import ConfigError, SamplingError, TrainingAbortError, ValidationError
from sheaf_kg.kgdata import KnowledgeGraph, Schema, build_index, default_schema
from sheaf_kg.model import (
    CONSTRAINTS,
    MAP_STEPS,
    KnowledgeSheaf,
    Model,
    ModelConfig,
    init_for_kg,
    init_model,
    project_constraints_inplace,
    triple_score,
)
from sheaf_kg.seeds import substream
from sheaf_kg.synth import generate_planted_kg
from sheaf_kg.training import (
    TrainConfig,
    _StackedParams,
    _worst_relation,
    sample_negatives,
    train,
    triple_grads,
)


def section_blocks(sections):
    """Every entity's section, as views into the padded array."""
    return [sections.block(i) for i in range(sections.n_entities)]


def small_kg(rng, n_entities=8, n_relations=2, dim=4, n_triples=14):
    schema = default_schema(n_relations, dim, dim)
    rows = {
        (int(rng.integers(0, n_entities)), int(rng.integers(0, n_relations)),
         int(rng.integers(0, n_entities)))
        for _ in range(n_triples)
    }
    triples = np.asarray(sorted(rows), dtype=np.int64).reshape(len(rows), 3)
    return KnowledgeGraph(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(n_entities)),
        entity_type=np.zeros(n_entities, dtype=np.int64),
        triples=triples,
        split=np.zeros(len(triples), dtype=np.int8),
    )


class TestSampleNegatives:
    def test_two_entity_graph_options(self, rng):
        kg = small_kg(rng, n_entities=2, n_relations=1, n_triples=0)
        kg = KnowledgeGraph(
            schema=kg.schema, entities=kg.entities, entity_type=kg.entity_type.copy(),
            triples=np.array([[0, 0, 1]], dtype=np.int64), split=np.zeros(1, dtype=np.int8),
        )
        index = build_index(kg)
        seen = set()
        gen = substream(0, "negatives")
        for _ in range(50):
            (neg,) = sample_negatives(kg, index, (0, 0, 1), 1, gen).tolist()
            seen.add(tuple(neg))
        assert seen <= {(1, 0, 1), (0, 0, 0)}
        assert len(seen) == 2

    def test_exact_count(self, rng):
        kg = small_kg(rng)
        index = build_index(kg)
        negs = sample_negatives(kg, index, tuple(kg.triples[0]), 5, substream(1, "negatives"))
        assert negs.shape == (5, 3)

    def test_negatives_avoid_training_triples(self, rng):
        kg = small_kg(rng, n_entities=5, n_triples=12)
        index = build_index(kg)
        gen = substream(2, "negatives")
        for triple in kg.triples[:5]:
            for neg in sample_negatives(kg, index, tuple(triple), 20, gen):
                # a rejected-resample draw can only survive if the slot pool
                # was exhausted; with 5 entities and sparse triples it never is
                assert neg not in index

    def test_head_corruption_frequency_is_fair(self, rng):
        kg = small_kg(rng, n_entities=100, n_relations=1, n_triples=60)
        index = build_index(kg)
        gen = substream(3, "negatives")
        triple = tuple(kg.triples[0])
        n = 100_000
        heads = np.count_nonzero(sample_negatives(kg, index, triple, n, gen)[:, 0] != triple[0])
        assert 0.49 <= heads / n <= 0.51

    def test_singleton_types_error(self):
        schema = Schema(
            entity_types=("a", "b"),
            relation_types=("r",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(2, 2),
            edge_dim=(2,),
        )
        kg = KnowledgeGraph(
            schema=schema,
            entities=("x", "y"),
            entity_type=np.array([0, 1], dtype=np.int64),
            triples=np.array([[0, 0, 1]], dtype=np.int64),
            split=np.zeros(1, dtype=np.int8),
        )
        index = build_index(kg)
        with pytest.raises(SamplingError):
            sample_negatives(kg, index, (0, 0, 1), 1, substream(0, "negatives"))


def typed_graph(rng, n_types=3, n_relations=3, n_triples=30):
    """A random multi-type graph whose types have 1 to 6 entities."""
    sizes = rng.integers(1, 7, n_types)
    entity_type = np.repeat(np.arange(n_types), sizes)
    schema = Schema(
        entity_types=tuple(f"type{i}" for i in range(n_types)),
        relation_types=tuple(f"r{i}" for i in range(n_relations)),
        head_type=tuple(int(x) for x in rng.integers(0, n_types, n_relations)),
        tail_type=tuple(int(x) for x in rng.integers(0, n_types, n_relations)),
        vertex_dim=(2,) * n_types,
        edge_dim=(2,) * n_relations,
    )
    rows = set()
    for _ in range(n_triples):
        r = int(rng.integers(0, n_relations))
        rows.add((
            int(rng.choice(np.flatnonzero(entity_type == schema.head_type[r]))), r,
            int(rng.choice(np.flatnonzero(entity_type == schema.tail_type[r]))),
        ))
    triples = np.asarray(sorted(rows), dtype=np.int64)
    return KnowledgeGraph(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(len(entity_type))),
        entity_type=entity_type,
        triples=triples,
        split=np.zeros(len(triples), dtype=np.int8),
    )


class TestBatchSampler:
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 3, 12]))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_typed_one_slot_corruptions(self, seed, k):
        rng = np.random.default_rng(seed)
        kg = typed_graph(rng)
        index = build_index(kg)
        schema = kg.schema
        sizes = np.bincount(kg.entity_type)
        both_singleton = [
            sizes[schema.head_type[r]] == 1 and sizes[schema.tail_type[r]] == 1
            for r in kg.triples[:, 1]
        ]
        batch = kg.triples[~np.array(both_singleton)]
        if not len(batch):
            return
        out = sample_negatives(kg, index, batch, k, substream(seed, "negatives"))
        pos = np.repeat(batch, k, axis=0)
        assert out.shape == (len(batch) * k, 3) and out.dtype == np.int64
        np.testing.assert_array_equal(out[:, 1], pos[:, 1])
        np.testing.assert_array_equal(kg.entity_type[out[:, 0]], np.take(schema.head_type, out[:, 1]))
        np.testing.assert_array_equal(kg.entity_type[out[:, 2]], np.take(schema.tail_type, out[:, 1]))
        for (h, r, t), row in zip(pos, out):
            heads = np.flatnonzero(kg.entity_type == schema.head_type[r])
            tails = np.flatnonzero(kg.entity_type == schema.tail_type[r])
            head_free = any((e, r, t) not in index for e in heads)
            tail_free = any((h, r, e) not in index for e in tails)
            if tuple(row) in index:
                # only a slot whose every corruption is a known triple keeps one
                assert not (head_free and tail_free)
                continue
            assert (row[0] != h) + (row[2] != t) == 1

    def test_singleton_fallback_inside_a_mixed_batch(self):
        schema = Schema(
            entity_types=("one", "many"),
            relation_types=("from_one", "within"),
            head_type=(0, 1),
            tail_type=(1, 1),
            vertex_dim=(2, 2),
            edge_dim=(2, 2),
        )
        kg = KnowledgeGraph(
            schema=schema,
            entities=tuple(f"e{i}" for i in range(9)),
            entity_type=np.array([0] + [1] * 8, dtype=np.int64),
            triples=np.array([[0, 0, 1], [1, 1, 2], [0, 0, 3], [2, 1, 3]], dtype=np.int64),
            split=np.zeros(4, dtype=np.int8),
        )
        out = sample_negatives(kg, build_index(kg), kg.triples, 50, substream(0, "negatives"))
        pos = np.repeat(kg.triples, 50, axis=0)
        single = pos[:, 1] == 0
        np.testing.assert_array_equal(out[single, 0], 0)  # the singleton head never moves
        assert np.all(out[single, 2] != pos[single, 2])
        moved_head = out[~single, 0] != pos[~single, 0]
        assert 0 < np.count_nonzero(moved_head) < np.count_nonzero(~single)

    def test_error_names_the_first_row_that_cannot_be_corrupted(self):
        schema = Schema(
            entity_types=("a", "b", "c"),
            relation_types=("ok", "stuck"),
            head_type=(2, 0),
            tail_type=(2, 1),
            vertex_dim=(2, 2, 2),
            edge_dim=(2, 2),
        )
        kg = KnowledgeGraph(
            schema=schema,
            entities=("x", "y", "z0", "z1", "z2"),
            entity_type=np.array([0, 1, 2, 2, 2], dtype=np.int64),
            triples=np.array([[2, 0, 3], [0, 1, 1], [3, 0, 4]], dtype=np.int64),
            split=np.zeros(3, dtype=np.int8),
        )
        with pytest.raises(SamplingError, match=r"\(0,1,1\)"):
            sample_negatives(kg, build_index(kg), kg.triples, 4, substream(0, "negatives"))

    @pytest.mark.parametrize("k, message", [(0, "need k >= 1"), (2.5, "k must be an integer, got 2.5"),
                                            (True, "k must be an integer, got True")])
    def test_bad_k_rejected(self, k, message):
        # k=2.5 once ended in numpy's TypeError
        kg = typed_graph(np.random.default_rng(5), n_triples=60)
        with pytest.raises(ConfigError, match=message):
            sample_negatives(kg, build_index(kg), kg.triples[:4], k, substream(0, "negatives"))

    def test_fixed_seed_gives_identical_batches(self):
        kg = typed_graph(np.random.default_rng(5), n_triples=60)
        index = build_index(kg)
        sizes = np.bincount(kg.entity_type)
        ok = [sizes[kg.schema.head_type[r]] > 1 or sizes[kg.schema.tail_type[r]] > 1
              for r in kg.triples[:, 1]]
        batch = kg.triples[np.array(ok)]
        runs = [sample_negatives(kg, index, batch, 7, substream(11, "negatives")) for _ in range(2)]
        np.testing.assert_array_equal(*runs)

    def test_head_tail_split_is_fair_over_one_large_batch(self, rng):
        kg = small_kg(rng, n_entities=100, n_relations=1, n_triples=60)
        batch = kg.triples[rng.integers(0, len(kg.triples), 10_000)]
        out = sample_negatives(kg, build_index(kg), batch, 10, substream(3, "negatives"))
        heads = np.count_nonzero(out[:, 0] != np.repeat(batch[:, 0], 10))
        assert 0.49 <= heads / len(out) <= 0.51


def finite_difference(score_fn, param, h=1e-5):
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = param[idx]
        param[idx] = old + h
        up = score_fn()
        param[idx] = old - h
        down = score_fn()
        param[idx] = old
        grad[idx] = (up - down) / (2 * h)
        it.iternext()
    return grad


class TestGradients:
    @pytest.mark.parametrize("variant", ["shv", "shvt"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_score_gradients_match_finite_differences(self, rng, variant, m):
        schema = default_schema(2, 4, 3)
        cfg = ModelConfig(variant=variant, sections=m, entity_dim=4, relation_dim=3)
        sheaf, sections = init_model(cfg, schema, np.zeros(5, dtype=np.int64), seed=0)
        for r in range(2):
            sheaf.head_maps[r][...] = rng.normal(size=(3, 4))
            sheaf.tail_maps[r][...] = rng.normal(size=(3, 4))
            if variant == "shvt":
                sheaf.translations[r][...] = rng.normal(size=(3, m))
        for i in range(5):
            sections.block(i)[...] = rng.normal(size=(4, m))
        h_idx, r_idx, t_idx = 0, 1, 2
        grads = triple_grads(sheaf, sections, h_idx, r_idx, t_idx)

        def score():
            return triple_score(sheaf, sections, h_idx, r_idx, t_idx)

        checks = {
            "x_h": sections.block(h_idx),
            "x_t": sections.block(t_idx),
            "head_map": sheaf.head_maps[r_idx],
            "tail_map": sheaf.tail_maps[r_idx],
        }
        if variant == "shvt":
            checks["translation"] = sheaf.translations[r_idx]
        for key, param in checks.items():
            fd = finite_difference(score, param)
            err = np.linalg.norm(grads[key] - fd) / max(np.linalg.norm(fd), 1e-8)
            assert err < 1e-4, f"{key}: {err}"

    def test_zero_score_means_zero_gradient(self, rng):
        schema = default_schema(1, 3, 3)
        cfg = ModelConfig(constraint="identity", entity_dim=3, relation_dim=3)
        sheaf, sections = init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)
        sections.block(1)[...] = sections.block(0).copy()
        grads = triple_grads(sheaf, sections, 0, 0, 1)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_identity_map_entity_gradient_formula(self, rng):
        schema = default_schema(1, 3, 3)
        cfg = ModelConfig(constraint="identity", entity_dim=3, relation_dim=3)
        sheaf, sections = init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=0)
        sections.block(0)[...] = rng.normal(size=(3, 1))
        sections.block(1)[...] = rng.normal(size=(3, 1))
        grads = triple_grads(sheaf, sections, 0, 0, 1)
        np.testing.assert_allclose(
            grads["x_h"], 2.0 * (sections.block(0) - sections.block(1)), atol=1e-12
        )

    def test_translational_gradients_cover_translation(self, rng):
        schema = default_schema(1, 3, 3)
        cfg = ModelConfig(variant="shvt", entity_dim=3, relation_dim=3)
        sheaf, sections = init_model(cfg, schema, np.zeros(2, dtype=np.int64), seed=1)
        g = triple_grads(sheaf, sections, 0, 0, 1)
        assert "translation" in g and g["translation"].shape == (3, 1)


class TestTrain:
    def test_empty_training_split_rejected(self, rng):
        kg = small_kg(rng, n_triples=6)
        kg = KnowledgeGraph(
            schema=kg.schema, entities=kg.entities, entity_type=kg.entity_type.copy(),
            triples=kg.triples, split=np.full(len(kg.triples), 2, dtype=np.int8),
        )
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        with pytest.raises(ConfigError):
            train(kg, TrainConfig(epochs=1, seed=0), model)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_identity_tag_on_other_maps_fails_before_any_step(self, side):
        ds = generate_planted_kg(40, 3, 4, 0.0, seed=0, variant="shvt")
        cfg = ModelConfig(variant="shvt", constraint="free",
                          constraint_overrides={ds.kg.schema.relation_types[1]: "identity"})
        model = init_for_kg(cfg, ds.kg, seed=0)
        getattr(model.sheaf, f"{side}_maps")[1][0, 1] = 0.5
        before = [a.copy() for a in (model.sections.X, model.sheaf.RH, model.sheaf.RT)]
        with pytest.raises(ConfigError, match="identity maps are not the identity"):
            train(ds.kg, TrainConfig(epochs=1, seed=0), model)
        for arr, old in zip((model.sections.X, model.sheaf.RH, model.sheaf.RT), before):
            np.testing.assert_array_equal(arr, old)

    @pytest.mark.parametrize("n_entities, n_relations, differs", [
        (30, 2, "entity_type"), (60, 2, "entity_type"), (40, 3, "schema"),
    ], ids=["fewer-entities", "more-entities", "more-relations"])
    def test_model_of_another_graph_fails_before_any_step(self, n_entities, n_relations, differs):
        # unchecked, the 30-entity graph trains and never moves rows 30-39, and the others index past the arrays
        model = init_for_kg(ModelConfig(variant="shvt"), generate_planted_kg(40, 2, 4, 0.0, seed=0).kg, seed=0)
        kg = generate_planted_kg(n_entities, n_relations, 4, 0.0, seed=0).kg
        before = [a.copy() for a in (model.sections.X, model.sheaf.RH, model.sheaf.RT, model.sheaf.T)]
        with pytest.raises(ValidationError, match=f"built for another graph: its {differs} is not the graph's$"):
            train(kg, TrainConfig(epochs=1, seed=0), model)
        for arr, old in zip((model.sections.X, model.sheaf.RH, model.sheaf.RT, model.sheaf.T), before):
            np.testing.assert_array_equal(arr, old)

    def test_model_with_other_entity_types_fails(self, rng):
        kg = typed_graph(rng)
        model = init_for_kg(ModelConfig(variant="shv"), kg, seed=0)
        model = replace(model, entity_type=kg.entity_type[::-1].copy())  # same shape, every dim 2
        assert not np.array_equal(model.entity_type, kg.entity_type)
        with pytest.raises(ValidationError, match="its entity_type is not the graph's$"):
            train(kg, TrainConfig(epochs=1, seed=0), model)

    def test_planted_data_positive_scores_decrease(self):
        ds = generate_planted_kg(60, 3, 8, 0.0, seed=3, variant="shv")
        cfg = ModelConfig(variant="shv", entity_dim=8, relation_dim=8, constraint="orthogonal")
        model = init_for_kg(cfg, ds.kg, seed=0)
        train_triples = ds.kg.triples_of("train")

        def mean_pos():
            return float(np.mean([
                triple_score(model.sheaf, model.sections, int(h), int(r), int(t))
                for h, r, t in train_triples
            ]))

        before = mean_pos()
        _, report = train(
            ds.kg,
            TrainConfig(epochs=25, batch_size=32, learning_rate=0.02, optimizer="sgd", seed=0),
            model,
        )
        assert mean_pos() < before
        assert len(report.epoch_mean_loss) == 25
        assert len(report.epoch_orthogonality) == 25

    def test_planted_data_loss_decreases_with_free_maps(self):
        ds = generate_planted_kg(60, 3, 8, 0.0, seed=3, variant="shv")
        cfg = ModelConfig(variant="shv", entity_dim=8, relation_dim=8, constraint="free")
        model = init_for_kg(cfg, ds.kg, seed=0)
        _, report = train(
            ds.kg,
            TrainConfig(epochs=25, batch_size=32, learning_rate=0.05, optimizer="sgd", seed=0),
            model,
        )
        assert report.epoch_mean_loss[-1] < report.epoch_mean_loss[0]

    def test_regularizer_reduces_orthogonality_penalty(self):
        ds = generate_planted_kg(60, 3, 8, 0.0, seed=3, variant="shvt")
        cfg = ModelConfig(
            variant="shvt", sections=8, alpha=0.1, entity_dim=8, relation_dim=8,
            constraint="identity",
        )
        model = init_for_kg(cfg, ds.kg, seed=0)
        _, report = train(
            ds.kg,
            TrainConfig(epochs=30, batch_size=32, learning_rate=0.05, optimizer="sgd",
                        alpha=0.1, seed=0),
            model,
        )
        assert report.epoch_orthogonality[-1] < report.epoch_orthogonality[0]

    def test_margin_dominance_freezes_parameters(self, rng):
        # plant a configuration where every admissible corruption beats every
        # positive by more than the margin: training must not move at all.
        # All zero-score corruptions are themselves training triples, so the
        # sampler rejects them; the remaining entities sit far away.
        dim = 2
        schema = default_schema(1, dim, dim)
        kg = KnowledgeGraph(
            schema=schema,
            entities=("a", "b", "c", "d"),
            entity_type=np.zeros(4, dtype=np.int64),
            triples=np.array(
                [[0, 0, 1], [0, 0, 0], [1, 0, 0], [1, 0, 1]], dtype=np.int64
            ),
            split=np.zeros(4, dtype=np.int8),
        )
        cfg = ModelConfig(variant="shv", constraint="identity", entity_dim=dim, relation_dim=dim)
        model = init_for_kg(cfg, kg, seed=0)
        model.sections.block(0)[...] = np.array([[0.0], [0.0]])
        model.sections.block(1)[...] = np.array([[0.0], [0.0]])  # positives all score 0
        model.sections.block(2)[...] = np.array([[100.0], [0.0]])
        model.sections.block(3)[...] = np.array([[0.0], [100.0]])
        before = [b.copy() for b in section_blocks(model.sections)]
        _, report = train(kg, TrainConfig(epochs=1, batch_size=8, seed=0), model)
        assert report.epoch_mean_loss == [0.0]
        assert report.epoch_active_fraction == [0.0]
        for a, b in zip(section_blocks(model.sections), before):
            np.testing.assert_array_equal(a, b)

    def test_active_fraction_is_a_share_of_each_epochs_pairs(self):
        ds = generate_planted_kg(40, 2, 4, 0.0, seed=1, variant="shv")
        cfg = ModelConfig(variant="shv", entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, ds.kg, seed=0)
        _, report = train(
            ds.kg, TrainConfig(epochs=4, batch_size=8, negatives_per_positive=3, seed=0), model
        )
        assert len(report.epoch_active_fraction) == 4
        assert all(0.0 <= f <= 1.0 for f in report.epoch_active_fraction)
        assert report.epoch_active_fraction[0] > 0.0
        # every active pair has a positive loss, so a zero fraction means zero loss
        for f, loss in zip(report.epoch_active_fraction, report.epoch_mean_loss):
            assert (f == 0.0) == (loss == 0.0)

    def test_constraints_hold_after_training(self):
        ds = generate_planted_kg(40, 2, 6, 0.0, seed=5, variant="shv")
        for constraint in ("shared", "antisymmetric", "orthogonal", "identity"):
            cfg = ModelConfig(variant="shv", entity_dim=6, relation_dim=6, constraint=constraint)
            model = init_for_kg(cfg, ds.kg, seed=0)
            frozen = [m.copy() for m in model.sheaf.head_maps] if constraint == "identity" else None
            train(
                ds.kg,
                TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, optimizer="sgd", seed=0),
                model,
            )
            model.sheaf.check_constraints()
            if constraint == "identity":
                for a, b in zip(model.sheaf.head_maps, frozen):
                    np.testing.assert_array_equal(a, b)

    def test_trivial_embedding_is_penalized(self, rng):
        kg = small_kg(rng, n_triples=10)
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        for i in range(kg.n_entities):
            model.sections.block(i)[...] = 0.0
        for r in range(kg.schema.n_relations):
            model.sheaf.head_maps[r][...] = 0.0
            model.sheaf.tail_maps[r][...] = 0.0
        n = len(kg.triples_of("train"))
        _, report = train(
            kg,
            TrainConfig(epochs=1, batch_size=max(4, n), learning_rate=1e-9, margin=1.0, seed=0),
            model,
        )
        # at the all-zero point every pair has margin exactly 1.0
        assert report.epoch_mean_loss[0] == pytest.approx(1.0)

    def test_determinism_bitwise_checkpoints(self, tmp_path):
        ds = generate_planted_kg(50, 3, 8, 0.0, seed=2, variant="shvt")
        prefixes = []
        for run in range(2):
            cfg = ModelConfig(variant="shvt", constraint="identity", entity_dim=8, relation_dim=8)
            model = init_for_kg(cfg, ds.kg, seed=4)
            train(
                ds.kg,
                TrainConfig(epochs=5, batch_size=16, learning_rate=0.05, optimizer="sgd", seed=4),
                model,
            )
            prefix = tmp_path / f"run{run}"
            save_model(model, prefix)
            prefixes.append(prefix)
        assert tensor_path(prefixes[0]).read_bytes() == tensor_path(prefixes[1]).read_bytes()
        assert manifest_path(prefixes[0]).read_bytes() == manifest_path(prefixes[1]).read_bytes()

    def test_nan_abort_names_epoch_and_relation(self, rng):
        kg = small_kg(rng, n_triples=10)
        cfg = ModelConfig(entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        model.sections.block(0)[0, 0] = np.nan
        with pytest.raises(TrainingAbortError) as err:
            train(kg, TrainConfig(epochs=1, seed=0), model)
        assert (err.value.epoch, err.value.batch) == (0, 0)
        assert "non-finite loss" in str(err.value)

    def test_ragged_dims_train_through_padded_path(self):
        schema = Schema(
            entity_types=("a", "b"),
            relation_types=("r",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(3, 5),
            edge_dim=(4,),
        )
        kg = KnowledgeGraph(
            schema=schema,
            entities=("x0", "x1", "y0", "y1", "y2"),
            entity_type=np.array([0, 0, 1, 1, 1], dtype=np.int64),
            triples=np.array([[0, 0, 2], [1, 0, 3], [0, 0, 4]], dtype=np.int64),
            split=np.zeros(3, dtype=np.int8),
        )
        cfg = ModelConfig(entity_dim=3, relation_dim=4)
        model = init_for_kg(cfg, kg, seed=0)
        before = float(np.mean([
            triple_score(model.sheaf, model.sections, int(h), int(r), int(t))
            for h, r, t in kg.triples
        ]))
        _, report = train(
            kg,
            TrainConfig(epochs=30, batch_size=4, learning_rate=0.02, optimizer="sgd", seed=1),
            model,
        )
        after = float(np.mean([
            triple_score(model.sheaf, model.sections, int(h), int(r), int(t))
            for h, r, t in kg.triples
        ]))
        assert after < before

    def test_norm_cap_is_enforced(self):
        ds = generate_planted_kg(50, 3, 8, 0.0, seed=2, variant="shvt")
        cfg = ModelConfig(variant="shvt", constraint="identity", entity_dim=8, relation_dim=8)
        model = init_for_kg(cfg, ds.kg, seed=0)
        train(
            ds.kg,
            TrainConfig(epochs=5, batch_size=16, learning_rate=0.05, optimizer="sgd",
                        seed=0, max_entity_norm=1.5),
            model,
        )
        for blk in section_blocks(model.sections):
            assert np.linalg.norm(blk, axis=0).max() <= 1.5 + 1e-9

    def test_divergence_under_norm_cap_raises(self):
        # Free maps diverge under the acceptance hyperparameters; the cap's
        # column norms then overflow, which must abort rather than rescale
        # every section to zero.
        ds = generate_planted_kg(200, 5, 16, 0.0, seed=0, variant="shvt")
        cfg = ModelConfig(variant="shvt", entity_dim=16, relation_dim=16, constraint="free")
        model = init_for_kg(cfg, ds.kg, seed=0)
        with pytest.raises(TrainingAbortError) as err:
            train(
                ds.kg,
                TrainConfig(epochs=12, batch_size=32, learning_rate=0.05, optimizer="sgd",
                            negatives_per_positive=12, max_entity_norm=2.0, seed=0),
                model,
            )
        assert (err.value.epoch, err.value.batch) == (0, 6)
        assert err.value.relation in ds.kg.schema.relation_types
        assert "max_entity_norm" in str(err.value)


def ragged_schema(rng, constraint, n_relations=4):
    """Three entity types of distinct vertex dims; edge dims as ``constraint`` allows."""
    vertex_dim = tuple(int(d) for d in rng.choice(np.arange(1, 6), size=3, replace=False))
    head_type, tail_type, edge_dim = [], [], []
    for _ in range(n_relations):
        h = int(rng.integers(0, 3))
        # shared, antisymmetric and identity maps need equal head/tail dims
        t = h if constraint in ("shared", "antisymmetric", "identity") else int(rng.integers(0, 3))
        dh, dt = vertex_dim[h], vertex_dim[t]
        if constraint == "identity":
            de = dh
        elif constraint == "orthogonal":
            de = max(dh, dt) + int(rng.integers(0, 3))
        else:
            de = int(rng.integers(1, 7))
        head_type.append(h)
        tail_type.append(t)
        edge_dim.append(de)
    return Schema(
        entity_types=("a", "b", "c"),
        relation_types=tuple(f"r{r}" for r in range(n_relations)),
        head_type=tuple(head_type),
        tail_type=tuple(tail_type),
        vertex_dim=vertex_dim,
        edge_dim=tuple(edge_dim),
    )


def typed_triples(rng, schema, entity_type, n):
    rows = []
    for _ in range(n):
        r = int(rng.integers(0, schema.n_relations))
        h = int(rng.choice(np.nonzero(entity_type == schema.head_type[r])[0]))
        t = int(rng.choice(np.nonzero(entity_type == schema.tail_type[r])[0]))
        rows.append((h, r, t))
    return np.asarray(rows, dtype=np.int64)


def assert_padded_blocks(stacked, blocks):
    """True blocks of ``stacked`` equal ``blocks`` to 1e-12 relative; padding is exactly 0."""
    padding = np.ones(stacked.shape, dtype=bool)
    err2 = ref2 = 0.0
    for i, ref in enumerate(blocks):
        idx = (i, *(slice(n) for n in ref.shape))
        err2 += float(np.sum((stacked[idx] - ref) ** 2))
        ref2 += float(np.sum(ref * ref))
        padding[idx] = False
    assert np.sqrt(err2) <= 1e-12 * np.sqrt(ref2)
    assert np.all(stacked[padding] == 0.0)


class TestPaddedLayout:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("variant", ["shv", "shvt"])
    @pytest.mark.parametrize("m", [1, 3])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_padded_kernel_matches_per_triple_oracle(self, constraint, variant, m, seed):
        rng = np.random.default_rng(seed)
        schema = ragged_schema(rng, constraint)
        entity_type = np.repeat(np.arange(3), 4)
        cfg = ModelConfig(variant=variant, sections=m, constraint=constraint)
        sheaf, sections = init_model(cfg, schema, entity_type, seed=seed)
        for blk in section_blocks(sections):
            blk[...] = rng.normal(size=blk.shape)
        pos = typed_triples(rng, schema, entity_type, 24)
        k = int(rng.integers(1, 4))
        neg = np.repeat(pos, k, axis=0)
        for row in neg:  # corrupt one endpoint with a same-type entity
            slot = 0 if rng.integers(0, 2) else 2
            row[slot] = rng.choice(np.nonzero(entity_type == entity_type[row[slot]])[0])
        gamma = 2.0

        names = tuple(f"e{i}" for i in range(len(entity_type)))
        state = _StackedParams(
            Model(schema, names, entity_type, sheaf, sections), TrainConfig()
        )
        gX, gRH, gRT = (np.zeros_like(a) for a in (state.X, state.RH, state.RT))
        gT = None if state.T is None else np.zeros_like(state.T)
        every = np.ones(schema.n_relations, dtype=bool)  # every map gets its gradient
        loss, n_active = _kernels.margin_grads(
            state.X, state.RH, state.RT, state.T, neg, pos, gamma,
            gX, gRH, gRT, gT, every, every, False,
        )

        ref_x = [np.zeros_like(b) for b in section_blocks(sections)]
        ref_rh = [np.zeros_like(a) for a in sheaf.head_maps]
        ref_rt = [np.zeros_like(a) for a in sheaf.tail_maps]
        ref_t = None if sheaf.translations is None else [np.zeros_like(a) for a in sheaf.translations]
        ref_loss, ref_active = 0.0, 0
        for p_row, n_row in zip(np.repeat(pos, k, axis=0), neg):
            margin = triple_score(sheaf, sections, *p_row) + gamma - triple_score(sheaf, sections, *n_row)
            if margin <= 0.0:
                continue
            ref_loss += margin
            ref_active += 1
            for sign, (h, r, t) in ((1.0, p_row), (-1.0, n_row)):
                g = triple_grads(sheaf, sections, h, r, t)
                ref_x[h] += sign * g["x_h"]
                ref_x[t] += sign * g["x_t"]
                ref_rh[r] += sign * g["head_map"]
                ref_rt[r] += sign * g["tail_map"]
                if ref_t is not None:
                    ref_t[r] += sign * g["translation"]

        assert n_active == ref_active
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_padded_blocks(gX, ref_x)
        assert_padded_blocks(gRH, ref_rh)
        assert_padded_blocks(gRT, ref_rt)
        assert_padded_blocks(state.X, section_blocks(sections))
        assert_padded_blocks(state.RH, sheaf.head_maps)
        assert_padded_blocks(state.RT, sheaf.tail_maps)
        if ref_t is not None:
            assert_padded_blocks(gT, ref_t)
            assert_padded_blocks(state.T, sheaf.translations)

    @staticmethod
    def mixed_ragged_kg(rng):
        """Two entity types (dims 3 and 5), one relation per constraint plus a second free one."""
        schema = Schema(
            entity_types=("a", "b"),
            relation_types=("free", "shared", "identity", "orthogonal", "antisymmetric", "free2"),
            head_type=(0, 1, 1, 0, 0, 1),
            tail_type=(1, 1, 1, 1, 0, 0),
            vertex_dim=(3, 5),
            edge_dim=(2, 4, 5, 6, 3, 4),
        )
        entity_type = np.repeat([0, 1], [10, 12])
        triples = np.unique(typed_triples(rng, schema, entity_type, 120), axis=0)
        kg = KnowledgeGraph(
            schema=schema,
            entities=tuple(f"e{i}" for i in range(len(entity_type))),
            entity_type=entity_type,
            triples=triples,
            split=np.zeros(len(triples), dtype=np.int8),
        )
        overrides = {name: name.rstrip("2") for name in schema.relation_types}
        return kg, overrides

    @pytest.mark.parametrize("variant", ["shv", "shvt"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_constraints_hold_after_ragged_training(self, rng, variant, optimizer):
        kg, overrides = self.mixed_ragged_kg(rng)
        cfg = ModelConfig(variant=variant, sections=3, alpha=0.1, constraint_overrides=overrides)
        model = init_for_kg(cfg, kg, seed=1)
        identity = kg.schema.relation_ids["identity"]
        _, report = train(
            kg,
            TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, optimizer=optimizer,
                        negatives_per_positive=2, alpha=0.1, seed=2, max_entity_norm=1.5),
            model,
        )
        assert np.all(np.isfinite(report.epoch_mean_loss))
        model.sheaf.check_constraints()
        np.testing.assert_array_equal(model.sheaf.head_maps[identity], np.eye(5))
        for i, blk in enumerate(section_blocks(model.sections)):
            assert blk.shape == (kg.schema.vertex_dim[kg.entity_type[i]], 3)

    def test_padding_stays_zero_through_steps(self, rng):
        kg, overrides = self.mixed_ragged_kg(rng)
        cfg = ModelConfig(variant="shvt", sections=2, alpha=0.1, constraint_overrides=overrides)
        model = init_for_kg(cfg, kg, seed=1)
        config = TrainConfig(optimizer="adagrad", alpha=0.1, learning_rate=0.1, max_entity_norm=1.5)
        state = _StackedParams(model, config)
        for _ in range(20):
            pos = kg.triples[rng.integers(0, len(kg.triples), 16)]
            neg = pos.copy()
            tails = [np.flatnonzero(kg.entity_type == kg.schema.tail_type[r]) for r in pos[:, 1]]
            neg[:, 2] = [rng.choice(pool) for pool in tails]
            with np.errstate(over="raise", invalid="raise"):  # as in train()
                state.step(pos, neg, config)
                state.cap_entity_norms(config.max_entity_norm)
        assert_padded_blocks(state.X, section_blocks(model.sections))
        assert_padded_blocks(state.RH, model.sheaf.head_maps)
        assert_padded_blocks(state.RT, model.sheaf.tail_maps)
        assert_padded_blocks(state.T, model.sheaf.translations)
        model.sheaf.check_constraints()

    @pytest.mark.parametrize("variant", ["shv", "shvt"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_skipped_map_steps_change_no_parameter(self, rng, monkeypatch, variant, optimizer):
        kg, overrides = self.mixed_ragged_kg(rng)
        cfg = ModelConfig(variant=variant, sections=3, alpha=0.1, constraint_overrides=overrides)
        config = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, optimizer=optimizer,
                             negatives_per_positive=2, alpha=0.1, seed=2, max_entity_norm=1.5)
        skipped, _ = train(kg, config, init_for_kg(cfg, kg, seed=1))
        monkeypatch.setattr("sheaf_kg.training.MAP_STEPS", dict.fromkeys(CONSTRAINTS, (True, True)))
        every, _ = train(kg, config, init_for_kg(cfg, kg, seed=1))
        np.testing.assert_array_equal(skipped.sections.X, every.sections.X)
        for name in ("RH", "RT", "T"):
            np.testing.assert_array_equal(getattr(skipped.sheaf, name), getattr(every.sheaf, name))

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_identity_model_has_no_map_slots(self, monkeypatch, optimizer):
        ds = generate_planted_kg(40, 3, 4, 0.0, seed=0, variant="shvt")
        cfg = ModelConfig(variant="shvt", constraint="identity")
        config = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05, optimizer=optimizer,
                             negatives_per_positive=2, seed=0)
        model = init_for_kg(cfg, ds.kg, seed=0)
        state = _StackedParams(model, config)
        assert state.gRH is None and state.gRT is None
        params = [param for param, _, _ in state.slots]
        assert len(params) == 2 and params[0] is model.sections.X and params[1] is model.sheaf.T
        skipped, _ = train(ds.kg, config, model)
        monkeypatch.setattr("sheaf_kg.training.MAP_STEPS", dict.fromkeys(CONSTRAINTS, (True, True)))
        every, _ = train(ds.kg, config, init_for_kg(cfg, ds.kg, seed=0))
        np.testing.assert_array_equal(skipped.sections.X, every.sections.X)
        np.testing.assert_array_equal(skipped.sheaf.T, every.sheaf.T)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_accumulators_only_under_adagrad(self, optimizer):
        ds = generate_planted_kg(40, 3, 4, 0.0, seed=0, variant="shvt")
        config = TrainConfig(optimizer=optimizer)
        state = _StackedParams(init_for_kg(ModelConfig(variant="shvt"), ds.kg, seed=0), config)
        assert len(state.slots) == 4
        for param, _, acc in state.slots:
            if optimizer == "sgd":
                assert acc is None
            else:
                assert acc.shape == param.shape and not acc.any()


@pytest.mark.parametrize("kind", CONSTRAINTS)
def test_projection_overwrites_exactly_the_maps_that_do_not_step(rng, kind):
    sheaf = KnowledgeSheaf(
        default_schema(1, 4, 4), [rng.normal(size=(4, 4))], [rng.normal(size=(4, 4))], [kind]
    )
    project_constraints_inplace(sheaf)
    for side, steps in enumerate(MAP_STEPS[kind]):
        moved = sheaf.copy()
        (moved.head_maps, moved.tail_maps)[side][0][...] = rng.normal(size=(4, 4))
        project_constraints_inplace(moved)
        kept = np.array_equal(moved.RH, sheaf.RH) and np.array_equal(moved.RT, sheaf.RT)
        assert kept != steps


class TestDivergence:
    """Runs that diverge abort; the planted set-up is one that projected maps used to survive."""

    @staticmethod
    def diverging_run(constraint, learning_rate, epochs=20, **overrides):
        ds = generate_planted_kg(200, 5, 16, 0.0, seed=0, variant="shv")
        model = init_for_kg(ModelConfig(constraint=constraint), ds.kg, seed=0)
        config = TrainConfig(epochs=epochs, batch_size=64, negatives_per_positive=4, optimizer="sgd",
                             learning_rate=learning_rate, seed=0, **overrides)
        return ds.kg, config, model

    # each run stops at the first batch whose mean pair loss is over 1e3 times the first's
    @pytest.mark.parametrize("learning_rate, constraint, epochs, stop", [
        pytest.param(0.3, "identity", 20, (0, 6), id="0.3-identity"),
        pytest.param(0.3, "orthogonal", 20, (0, 6), id="0.3-orthogonal"),
        pytest.param(1.0, "identity", 20, (0, 2), id="1.0-identity"),
        pytest.param(1.0, "orthogonal", 20, (0, 2), id="1.0-orthogonal"),
        pytest.param(0.3, "orthogonal", 1, (0, 6), id="0.3-orthogonal-one-epoch"),
        pytest.param(1.0, "identity", 1, (0, 2), id="1.0-identity-one-epoch"),
        pytest.param(1.0, "orthogonal", 1, (0, 2), id="1.0-orthogonal-one-epoch"),
    ])
    def test_projected_map_divergence_aborts(self, learning_rate, constraint, epochs, stop):
        kg, config, model = self.diverging_run(constraint, learning_rate, epochs)
        with pytest.raises(TrainingAbortError) as err:
            train(kg, config, model)
        assert (err.value.epoch, err.value.batch) == stop
        assert err.value.relation in kg.schema.relation_types
        message = str(err.value)
        assert "over 1000 times the first batch's" in message
        assert "--max-entity-norm" in message and "lower learning rate" in message

    def test_rank_deficient_projection_logged_once_per_call(self, caplog, monkeypatch):
        # the loss check stops this run at epoch 0, batch 2, before its first rank-deficient
        # projection; without it the run goes on until its penalty overflows in epoch 12
        monkeypatch.setattr("sheaf_kg.training.LOSS_BLOWUP", np.inf)
        with caplog.at_level(logging.WARNING, logger="sheaf_kg.model"):
            for _ in range(2):
                with pytest.raises(TrainingAbortError):
                    train(*self.diverging_run("orthogonal", 1.0))
        logged = [r for r in caplog.records if "rank-deficient" in r.getMessage()]
        assert len(logged) == 2
        assert not logging.getLogger("sheaf_kg.model").filters

    @pytest.mark.parametrize("alpha, batch", [(0.0, None), (0.1, 0)])
    def test_overflow_aborts_in_step_and_in_penalty(self, alpha, batch):
        # the first step overflows in the penalty's gradient when alpha > 0,
        # else the first epoch's orthogonality penalty overflows
        kg, config, model = self.diverging_run("identity", 0.01, alpha=alpha)
        model.sections.X *= 1e100
        with pytest.raises(TrainingAbortError) as err:
            train(kg, config, model)
        assert (err.value.epoch, err.value.batch) == (0, batch)
        assert "overflow encountered" in str(err.value)
        assert f"relation {err.value.relation!r}" in str(err.value)
        assert err.value.relation in kg.schema.relation_types

    @staticmethod
    def cap_overflow_run(monkeypatch):
        # the set-up of TestTrain.test_divergence_under_norm_cap_raises, whose
        # loss check fires first unless it is switched off
        monkeypatch.setattr("sheaf_kg.training.LOSS_BLOWUP", np.inf)
        ds = generate_planted_kg(200, 5, 16, 0.0, seed=0, variant="shvt")
        model = init_for_kg(ModelConfig(variant="shvt", constraint="free"), ds.kg, seed=0)
        return ds.kg, TrainConfig(epochs=12, batch_size=32, learning_rate=0.05, optimizer="sgd",
                                  negatives_per_positive=12, max_entity_norm=2.0, seed=0), model

    def test_cap_overflow_aborts_without_the_loss_check(self, monkeypatch):
        kg, config, model = self.cap_overflow_run(monkeypatch)
        with pytest.raises(TrainingAbortError) as err:
            train(kg, config, model)
        assert (err.value.epoch, err.value.batch) == (5, 14)
        assert err.value.relation in kg.schema.relation_types
        assert "overflow encountered" in str(err.value)

    # each kind of abort: where the runs below stop, and a part of the message
    ABORTS = {
        "non-finite loss": ((0, 0), "non-finite loss"),
        "overflow in the step": ((0, 0), "overflow encountered"),
        "overflow in the penalty": ((0, None), "overflow encountered"),
        "cap overflow": ((5, 14), "overflow encountered"),
        "loss blow-up": ((0, 6), "over 1000 times the first batch's"),
    }

    @pytest.mark.parametrize("kind", list(ABORTS))
    def test_every_abort_blames_the_relation_of_largest_mean_score(self, rng, monkeypatch, kind):
        if kind == "non-finite loss":
            kg = small_kg(rng, n_triples=10)
            model = init_for_kg(ModelConfig(entity_dim=4, relation_dim=4), kg, seed=0)
            model.sections.block(0)[0, 0] = np.nan
            config = TrainConfig(epochs=1, seed=0)
        elif kind == "cap overflow":
            kg, config, model = self.cap_overflow_run(monkeypatch)
        elif kind == "loss blow-up":
            kg, config, model = self.diverging_run("identity", 0.3)
        else:
            alpha = 0.1 if kind == "overflow in the step" else 0.0
            kg, config, model = self.diverging_run("identity", 0.01, alpha=alpha)
            model.sections.X *= 1e100
        with pytest.raises(TrainingAbortError) as err:
            train(kg, config, model)
        stop, message = self.ABORTS[kind]
        assert (err.value.epoch, err.value.batch) == stop
        assert message in str(err.value)
        assert err.value.relation == _worst_relation(model, kg)
        # the same pick from the stacked scores: largest mean, a NaN mean first
        triples = kg.triples_of("train")
        with np.errstate(all="ignore"):
            scores = batch_scores(
                model.sections.X, model.sheaf.RH, model.sheaf.RT, model.sheaf.T, *triples.T
            )
            counts = np.bincount(triples[:, 1])
            present = np.flatnonzero(counts)
            means = np.bincount(triples[:, 1], scores)[present] / counts[present]
        # np.argmax takes the first NaN as the largest
        assert err.value.relation == kg.schema.relation_types[present[np.argmax(means)]]
