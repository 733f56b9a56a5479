"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Tolerances are pinned here and nowhere else.
"""

import functools
import time

import numpy as np
import pytest

from conftest import random_cochain1, random_sheaf
from sheaf_kg.checkpoint import manifest_path, save_model, tensor_path
from sheaf_kg.evaluation import build_easy_queries, evaluate, filtered_rank, hits_at_k, mrr
from sheaf_kg.kgdata import build_index
from sheaf_kg.model import (
    ModelConfig,
    init_for_kg,
    init_model,
    orthogonality_penalty,
    triple_score,
)
from sheaf_kg.query import Query, answer_query, entity_chaining_exact, ranking_from_scores
from sheaf_kg.seeds import substream
from sheaf_kg.sheaf import (
    affine_harmonic_extension,
    affine_offset,
    assemble_laplacian,
    coboundary,
    coboundary_matrix,
    constant_sheaf,
    harmonic_extension,
    kron_reduce,
    quadratic_form,
    schur_complement,
)
from sheaf_kg.synth import generate_planted_kg
from sheaf_kg.training import TrainConfig, train, triple_grads
from sheaf_kg.kgdata import default_schema


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return deco


# Shared desk-scale experiment: the planted dataset plus one trained model
# per seed, reused by criteria 9, 10, and 11.
RECOVERY_SEEDS = (1, 2, 3)


def _recovery_train_config(seed, alpha=0.0):
    return TrainConfig(
        epochs=100,
        batch_size=32,
        learning_rate=0.05,
        optimizer="sgd",
        negatives_per_positive=12,
        margin=1.0,
        alpha=alpha,
        seed=seed,
        max_entity_norm=2.0,
    )


@pytest.fixture(scope="module")
def planted():
    ds = generate_planted_kg(200, 5, 16, 0.0, seed=7, variant="shvt")
    index = build_index(ds.kg)
    rng = substream(99, "queries")
    queries = {
        tag: build_easy_queries(ds.kg, index, tag, 100, rng) for tag in ("1p", "2p", "3p")
    }
    return ds, queries


@pytest.fixture(scope="module")
def trained_models(planted):
    ds, _ = planted
    models = {}
    for seed in RECOVERY_SEEDS:
        cfg = ModelConfig(
            variant="shvt", sections=1, margin=1.0, entity_dim=16, relation_dim=16,
            constraint="identity",
        )
        model = init_for_kg(cfg, ds.kg, seed=seed)
        train(ds.kg, _recovery_train_config(seed), model)
        models[seed] = model
    return models


@criterion(1, "Laplacian identity and spectrum")
def test_criterion_01_laplacian_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        sheaf = random_sheaf(rng, max_vertex_dim=5, max_edge_dim=4)
        x = [rng.normal(size=d) for d in sheaf.vertex_dims]
        quad = quadratic_form(sheaf, x)
        delta_norm = sum(float(np.sum(blk**2)) for blk in coboundary(sheaf, x))
        assert abs(quad - delta_norm) <= 1e-12 * (1.0 + quad)
        dense = assemble_laplacian(sheaf).to_dense()
        xc = np.concatenate(x)
        assert abs(quad - float(xc @ dense @ xc)) <= 1e-12 * (1.0 + quad) * 100
        w = np.linalg.eigvalsh(dense)
        norm2 = max(float(np.max(np.abs(w))), 1e-300)
        assert w.min() >= -1e-9 * norm2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def _harmonic_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sheaf = random_sheaf(rng, max_vertex_dim=5, max_edge_dim=4)
        n = sheaf.n_vertices
        boundary = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
        yield sheaf, boundary, y_blocks, rng


def _dense_constrained_ls(sheaf, boundary, y_blocks, b_vec=None):
    """Least-squares oracle for min |delta y - b|^2 with fixed boundary."""
    delta = coboundary_matrix(sheaf)
    voff = sheaf.vertex_offsets
    b_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in boundary])
    interior = [v for v in range(sheaf.n_vertices) if v not in set(boundary)]
    y_b = np.concatenate(y_blocks)
    if b_vec is None:
        b_vec = np.zeros(sheaf.total_edge_dim)
    if not interior:
        resid = delta[:, b_cols] @ y_b - b_vec
        return np.zeros(0), float(resid @ resid)
    u_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in interior])
    rhs = b_vec - delta[:, b_cols] @ y_b
    sol, *_ = np.linalg.lstsq(delta[:, u_cols], rhs, rcond=None)
    resid = delta[:, u_cols] @ sol - rhs
    return sol, float(resid @ resid)


@criterion(2, "harmonic extension matches the constrained dense oracle")
def test_criterion_02_harmonic_vs_oracle():
    start = time.perf_counter()
    for sheaf, boundary, y_blocks, _ in _harmonic_instances(202, 100):
        lap = assemble_laplacian(sheaf)
        y_u, value = harmonic_extension(lap, boundary, y_blocks)
        sol, oracle = _dense_constrained_ls(sheaf, boundary, y_blocks)
        assert abs(value - oracle) <= 1e-8 * (1.0 + abs(oracle))
        if len(sol):
            assert np.linalg.norm(np.concatenate(y_u) - sol) <= 1e-7 * (1 + np.linalg.norm(sol))
        s = schur_complement(lap, boundary)
        y_b = np.concatenate(y_blocks)
        assert abs(float(y_b @ s @ y_b) - oracle) <= 1e-8 * (1.0 + abs(oracle))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"


@criterion(3, "offset extension matches dense least squares; zero offset reduces exactly")
def test_criterion_03_affine_extension():
    for sheaf, boundary, y_blocks, rng in _harmonic_instances(303, 60):
        lap = assemble_laplacian(sheaf)
        b = random_cochain1(rng, sheaf)
        _, value = affine_harmonic_extension(sheaf, b, boundary, y_blocks)
        constant = affine_offset(sheaf, b, boundary)
        _, oracle = _dense_constrained_ls(sheaf, boundary, y_blocks, np.concatenate(b))
        assert abs(value + constant - oracle) <= 1e-8 * (1.0 + abs(oracle))
        # zero offset: bit-for-bit the plain harmonic extension
        zero = [np.zeros(d) for d in sheaf.edge_dims]
        base_u, base_value = harmonic_extension(lap, boundary, y_blocks)
        aff_u, aff_value = affine_harmonic_extension(sheaf, zero, boundary, y_blocks)
        assert aff_value == base_value
        for a_blk, b_blk in zip(aff_u, base_u):
            assert np.array_equal(a_blk, b_blk)


@criterion(4, "Kron reduction of identity chains")
def test_criterion_04_kron_reduction():
    rng = np.random.default_rng(404)
    path2 = constant_sheaf(3, [(0, 1), (1, 2)], 2)
    reduced = kron_reduce(path2, [0, 2])
    eye = np.eye(2)
    expected = np.block([[eye / 2, -eye / 2], [-eye / 2, eye / 2]])
    assert np.abs(reduced.to_dense() - expected).max() <= 1e-12
    for k in range(1, 7):
        chain = constant_sheaf(k + 1, [(i, i + 1) for i in range(k)], 3)
        red = kron_reduce(chain, [0, k]).to_dense()
        for _ in range(5):
            a, b = rng.normal(size=3), rng.normal(size=3)
            y = np.concatenate([a, b])
            target = float(np.sum((a - b) ** 2)) / k
            assert abs(float(y @ red @ y) - target) <= 1e-10 * (1.0 + target)


@criterion(5, "equivalence ladder against classic scoring formulas")
def test_criterion_05_equivalence_ladder():
    rng = np.random.default_rng(505)
    schema = default_schema(2, 5, 5)
    for _ in range(50):
        # additive-translation scoring with identity maps
        cfg = ModelConfig(variant="shvt", constraint="identity", entity_dim=5, relation_dim=5)
        sheaf, sections = init_model(cfg, schema, np.zeros(3, dtype=np.int64), seed=0)
        for i in range(3):
            sections.block(i)[...] = rng.normal(size=(5, 1))
        sheaf.translations[0][...] = rng.normal(size=(5, 1))
        transe = float(
            np.sum(
                (sections.block(0)[:, 0] + sheaf.translations[0][:, 0]
                 - sections.block(1)[:, 0]) ** 2
            )
        )
        got = triple_score(sheaf, sections, 0, 0, 1)
        assert abs(got - transe) <= 1e-12 * (1.0 + transe)

        # two-matrix relational scoring (free maps)
        cfg = ModelConfig(variant="shv", constraint="free", entity_dim=5, relation_dim=5)
        sheaf, sections = init_model(cfg, schema, np.zeros(3, dtype=np.int64), seed=0)
        sheaf.head_maps[0][...] = rng.normal(size=(5, 5))
        sheaf.tail_maps[0][...] = rng.normal(size=(5, 5))
        for i in range(3):
            sections.block(i)[...] = rng.normal(size=(5, 1))
        se_norm = 0.0
        for i in range(5):
            acc = 0.0
            for j in range(5):
                acc += sheaf.head_maps[0][i, j] * sections.block(0)[j, 0]
                acc -= sheaf.tail_maps[0][i, j] * sections.block(1)[j, 0]
            se_norm += acc * acc
        got = triple_score(sheaf, sections, 0, 0, 1)
        assert abs(got - se_norm) <= 1e-12 * (1.0 + se_norm)

        # shared projection plus translation
        cfg = ModelConfig(variant="shvt", constraint="shared", entity_dim=5, relation_dim=4)
        schema_sh = default_schema(2, 5, 4)
        sheaf, sections = init_model(cfg, schema_sh, np.zeros(3, dtype=np.int64), seed=0)
        proj = rng.normal(size=(4, 5))
        sheaf.head_maps[0][...] = proj
        sheaf.tail_maps[0][...] = proj.copy()
        sheaf.translations[0][...] = rng.normal(size=(4, 1))
        for i in range(3):
            sections.block(i)[...] = rng.normal(size=(5, 1))
        transr = float(
            np.sum(
                (proj @ sections.block(0)[:, 0] + sheaf.translations[0][:, 0]
                 - proj @ sections.block(1)[:, 0]) ** 2
            )
        )
        got = triple_score(sheaf, sections, 0, 0, 1)
        assert abs(got - transr) <= 1e-12 * (1.0 + transr)


def _margin_objective(sheaf, sections, pos, neg, gamma):
    s_pos = triple_score(sheaf, sections, *pos)
    s_neg = triple_score(sheaf, sections, *neg)
    return max(0.0, s_pos + gamma - s_neg)


def _margin_grad_blocks(sheaf, sections, pos, neg, gamma, kind):
    """Analytic margin-loss gradients with constraint-aware parametrization."""
    s_pos = triple_score(sheaf, sections, *pos)
    s_neg = triple_score(sheaf, sections, *neg)
    if s_pos + gamma - s_neg <= 0.0:
        return None
    g_pos = triple_grads(sheaf, sections, *pos)
    g_neg = triple_grads(sheaf, sections, *neg)
    out = {}
    out[("x", pos[0])] = g_pos["x_h"].copy()
    out[("x", pos[2])] = out.get(("x", pos[2]), 0) + g_pos["x_t"]
    out[("x", neg[0])] = out.get(("x", neg[0]), 0) - g_neg["x_h"]
    out[("x", neg[2])] = out.get(("x", neg[2]), 0) - g_neg["x_t"]
    for sign, g, r in ((1.0, g_pos, pos[1]), (-1.0, g_neg, neg[1])):
        if kind == "identity":
            pass  # maps are constant
        elif kind == "shared":
            out[("map", r)] = out.get(("map", r), 0) + sign * (g["head_map"] + g["tail_map"])
        elif kind == "antisymmetric":
            out[("map", r)] = out.get(("map", r), 0) + sign * (g["head_map"] - g["tail_map"])
        else:  # free and orthogonal share the ambient parametrization
            out[("head", r)] = out.get(("head", r), 0) + sign * g["head_map"]
            out[("tail", r)] = out.get(("tail", r), 0) + sign * g["tail_map"]
        if "translation" in g:
            out[("trans", r)] = out.get(("trans", r), 0) + sign * g["translation"]
    return out


def _apply_tied(sheaf, kind, r):
    if kind == "shared":
        sheaf.tail_maps[r][...] = sheaf.head_maps[r].copy()
    elif kind == "antisymmetric":
        sheaf.tail_maps[r][...] = -sheaf.head_maps[r]


@criterion(6, "margin-loss gradients match central finite differences")
def test_criterion_06_gradient_check():
    rng = np.random.default_rng(606)
    h_step = 1e-5
    modes = ("free", "shared", "identity", "orthogonal", "antisymmetric")
    for variant in ("shv", "shvt"):
        for kind in modes:
            for m in (1, 4):
                checked = 0
                while checked < 50:
                    schema = default_schema(2, 3, 3)
                    cfg = ModelConfig(variant=variant, sections=m, entity_dim=3,
                                      relation_dim=3, constraint=kind)
                    sheaf, sections = init_model(cfg, schema, np.zeros(4, dtype=np.int64), seed=0)
                    for r in range(2):
                        if kind in ("free", "orthogonal"):
                            sheaf.head_maps[r][...] = rng.normal(size=(3, 3))
                            sheaf.tail_maps[r][...] = rng.normal(size=(3, 3))
                        elif kind in ("shared", "antisymmetric"):
                            sheaf.head_maps[r][...] = rng.normal(size=(3, 3))
                            _apply_tied(sheaf, kind, r)
                        if variant == "shvt":
                            sheaf.translations[r][...] = rng.normal(size=(3, m))
                    for i in range(4):
                        sections.block(i)[...] = rng.normal(size=(3, m))
                    pos = (0, 0, 1)
                    neg = (2, 0, 3)
                    gamma = 1.0
                    margin = (
                        triple_score(sheaf, sections, *pos) + gamma
                        - triple_score(sheaf, sections, *neg)
                    )
                    if abs(margin) < 0.05:  # stay away from the hinge kink
                        continue
                    analytic = _margin_grad_blocks(sheaf, sections, pos, neg, gamma, kind)
                    if analytic is None:
                        # inactive pair: the gradient is exactly zero; verify
                        # with a coarse sample of directional differences
                        base = _margin_objective(sheaf, sections, pos, neg, gamma)
                        assert base == 0.0
                        checked += 1
                        continue

                    def objective():
                        return _margin_objective(sheaf, sections, pos, neg, gamma)

                    def fd_of(param, tied=None):
                        grad = np.zeros_like(param)
                        it = np.nditer(param, flags=["multi_index"])
                        while not it.finished:
                            idx = it.multi_index
                            old = param[idx]
                            param[idx] = old + h_step
                            if tied:
                                tied()
                            up = objective()
                            param[idx] = old - h_step
                            if tied:
                                tied()
                            down = objective()
                            param[idx] = old
                            if tied:
                                tied()
                            grad[idx] = (up - down) / (2 * h_step)
                            it.iternext()
                        return grad

                    for (label, key), g in analytic.items():
                        g = np.asarray(g, dtype=float)
                        if label == "x":
                            fd = fd_of(sections.block(key))
                        elif label == "head":
                            fd = fd_of(sheaf.head_maps[key])
                        elif label == "tail":
                            fd = fd_of(sheaf.tail_maps[key])
                        elif label == "map":
                            fd = fd_of(
                                sheaf.head_maps[key],
                                tied=lambda r=key: _apply_tied(sheaf, kind, r),
                            )
                        else:
                            fd = fd_of(sheaf.translations[key])
                        denom = max(np.linalg.norm(fd), 1e-10)
                        assert np.linalg.norm(g - fd) / denom < 1e-4, (
                            f"{variant}/{kind}/m={m}: block {label} mismatch"
                        )
                    checked += 1


@criterion(7, "harmonic relaxation lower-bounds exact entity chaining")
def test_criterion_07_relaxation_bound():
    ds = generate_planted_kg(20, 3, 8, 0.0, seed=77, variant="shv")
    index = build_index(ds.kg)
    queries = build_easy_queries(ds.kg, index, "2p", 40, substream(7, "queries"))
    assert queries, "no 2p queries available on the 20-entity graph"
    model = ds.generator
    for q in queries:
        harmonic = answer_query(q, model)
        discrete = entity_chaining_exact(q, model)
        for c in range(model.n_entities):
            assert harmonic.value_of(c) <= discrete.value_of(c) + 1e-8
    # the bound also holds for a freshly initialized (untrained) model
    cfg = ModelConfig(variant="shv", entity_dim=8, relation_dim=8, constraint="free")
    fresh = init_for_kg(cfg, ds.kg, seed=3)
    for q in queries[:10]:
        harmonic = answer_query(q, fresh)
        discrete = entity_chaining_exact(q, fresh)
        for c in range(fresh.n_entities):
            assert harmonic.value_of(c) <= discrete.value_of(c) + 1e-8


@criterion(8, "ranking metric arithmetic and filtered-rank counting")
def test_criterion_08_metric_correctness():
    assert mrr([1, 2, 4]) == (1.0 + 0.5 + 0.25) / 3.0
    assert hits_at_k([1, 11, 5], 10) == 2.0 / 3.0
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        values = np.round(rng.normal(size=n), 1)
        ranking = ranking_from_scores(np.arange(n, dtype=np.int64), values)
        answer = int(rng.integers(0, n))
        others = set(
            int(x) for x in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        ) - {answer}
        key = {int(e): (float(v), int(e)) for e, v in zip(ranking.entity_ids, ranking.values)}
        oracle = 1 + sum(
            1 for c in range(n) if c != answer and c not in others and key[c] < key[answer]
        )
        assert filtered_rank(ranking, answer, others) == oracle


@criterion(9, "planted-sheaf recovery: held-out 1p MRR and Hits@10")
def test_criterion_09_planted_recovery(planted, trained_models):
    ds, queries = planted
    start = time.perf_counter()
    model = trained_models[1]
    report = evaluate(model, queries["1p"])
    metrics = report.per_structure["1p"]
    elapsed = time.perf_counter() - start
    print(
        f"\n  criterion 9 detail: MRR={metrics.mrr:.3f} Hits@10={metrics.hits10:.3f} "
        f"({metrics.n_ranks} ranks, eval {elapsed:.1f}s)"
    )
    assert metrics.mrr >= 0.50
    assert metrics.hits10 >= 0.80


@criterion(10, "harmonic extension at least matches naive traversal on path queries")
def test_criterion_10_directional_paper_check(planted, trained_models):
    ds, queries = planted
    for tag in ("2p", "3p"):
        harmonic_scores, naive_scores = [], []
        for seed in RECOVERY_SEEDS:
            model = trained_models[seed]
            harmonic_scores.append(
                evaluate(model, queries[tag], method="harmonic").per_structure[tag].mrr
            )
            naive_scores.append(
                evaluate(model, queries[tag], method="naive").per_structure[tag].mrr
            )
        mean_h = float(np.mean(harmonic_scores))
        mean_n = float(np.mean(naive_scores))
        print(f"\n  criterion 10 detail {tag}: harmonic {mean_h:.4f} vs naive {mean_n:.4f}")
        assert mean_h >= mean_n


@criterion(11, "section-orthogonality penalty decreases under regularization")
def test_criterion_11_regularizer_effect(planted):
    ds, _ = planted
    cfg = ModelConfig(
        variant="shvt", sections=8, alpha=0.1, margin=1.0, entity_dim=16,
        relation_dim=16, constraint="identity",
    )
    model = init_for_kg(cfg, ds.kg, seed=1)
    initial = orthogonality_penalty(model.sections)
    _, report = train(ds.kg, _recovery_train_config(1, alpha=0.1), model)
    final = orthogonality_penalty(model.sections)
    print(f"\n  criterion 11 detail: penalty {initial:.2f} -> {final:.2f}")
    assert final < initial
    assert report.epoch_orthogonality[-1] < report.epoch_orthogonality[0]
    # alpha = 0 runs unconstrained: nothing to assert on the penalty value
    model0 = init_for_kg(
        ModelConfig(variant="shvt", sections=8, alpha=0.0, margin=1.0, entity_dim=16,
                    relation_dim=16, constraint="identity"),
        ds.kg, seed=1,
    )
    train(ds.kg, _recovery_train_config(1, alpha=0.0), model0)


@criterion(12, "bitwise deterministic training and evaluation")
def test_criterion_12_determinism(tmp_path, planted):
    ds, queries = planted
    prefixes = []
    for run in range(2):
        cfg = ModelConfig(
            variant="shvt", sections=1, margin=1.0, entity_dim=16, relation_dim=16,
            constraint="identity",
        )
        model = init_for_kg(cfg, ds.kg, seed=5)
        config = TrainConfig(
            epochs=10, batch_size=32, learning_rate=0.05, optimizer="sgd",
            negatives_per_positive=4, margin=1.0, seed=5, max_entity_norm=2.0,
        )
        train(ds.kg, config, model)
        prefix = tmp_path / f"det{run}"
        save_model(model, prefix)
        prefixes.append((prefix, model))
    assert tensor_path(prefixes[0][0]).read_bytes() == tensor_path(prefixes[1][0]).read_bytes()
    assert manifest_path(prefixes[0][0]).read_bytes() == manifest_path(prefixes[1][0]).read_bytes()
    model = prefixes[0][1]
    first = evaluate(model, queries["1p"])
    second = evaluate(model, queries["1p"])
    assert first == second
