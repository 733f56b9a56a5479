"""Batched harmonic answering against the implementations it replaced.

The first oracle is the per-query path kept verbatim in substance: one
Laplacian, Schur complement and three-operand einsum per query, a full
(value, id) sort, and filtered ranks read off a position dict. The second
is the per-group path: one ``OracleForm`` per ``(structure, relations)``
group and filtered ranks counted one query at a time.
"""

import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lap_block
from sheaf_kg.errors import EvaluationError, QueryError
from sheaf_kg.evaluation import (
    MetricReport,
    StructureMetrics,
    answer_ranks,
    build_easy_queries,
    evaluate,
    hits_at_k,
    mrr,
)
from sheaf_kg import query
from sheaf_kg.kgdata import KnowledgeGraph, Schema, build_index, default_schema
from sheaf_kg.model import KnowledgeSheaf, Model, ModelConfig, init_for_kg, init_model
from sheaf_kg.query import (
    STRUCTURE_ARITY,
    STRUCTURES,
    Query,
    answer_query,
    build_query_graph,
    entity_chaining_exact,
    naive_traversal_score,
    query_sheaf,
)
from sheaf_kg.sheaf import assemble_laplacian, coboundary_matrix, psd_pinv
from sheaf_kg.synth import generate_planted_kg


def oracle_ranking(query: Query, model: Model):
    """Per-query harmonic extension: ``(entity_ids, values)`` sorted by (value, id)."""
    qg = build_query_graph(query, model.schema)
    graph, offsets = query_sheaf(qg, model.sheaf)
    lap = assemble_laplacian(graph)
    boundary = list(qg.boundary)
    interior = list(qg.interior)
    voff = graph.vertex_offsets
    b_slices = [slice(voff[v], voff[v + 1]) for v in boundary]
    dim_b = sum(graph.vertex_dims[v] for v in boundary)

    l_bb = lap_block(lap, boundary)
    if interior:
        l_uu = lap_block(lap, interior)
        l_ub = lap_block(lap, interior, boundary)
        pinv_uu = psd_pinv(l_uu)
        schur = l_bb - l_ub.T @ pinv_uu @ l_ub
        schur = (schur + schur.T) / 2.0
    else:
        schur = l_bb

    lin = None
    if offsets is not None:
        ext = np.zeros((voff[-1], dim_b))
        pos = 0
        for v, sl in zip(boundary, b_slices):
            d = graph.vertex_dims[v]
            ext[sl, pos:pos + d] = np.eye(d)
            pos += d
        if interior:
            correction = -pinv_uu @ l_ub
            upos = 0
            for v in interior:
                d = graph.vertex_dims[v]
                ext[voff[v]:voff[v + 1], :] = correction[upos:upos + d]
                upos += d
        b_mat = np.concatenate(offsets, axis=0)
        lin = (coboundary_matrix(graph) @ ext).T @ b_mat

    for v, entity in zip(qg.anchor_vertices, query.anchors):
        if not 0 <= entity < model.n_entities or model.entity_type[entity] != qg.vertex_types[v]:
            raise QueryError(f"bad anchor {entity}")
    y_a = np.concatenate([model.sections.block(a) for a in query.anchors], axis=0)
    dim_a = y_a.shape[0]
    s_aa = schur[:dim_a, :dim_a]
    s_at = schur[:dim_a, dim_a:]
    s_tt = schur[dim_a:, dim_a:]
    const = float(np.sum(y_a * (s_aa @ y_a)))
    w = s_at.T @ y_a
    if lin is not None:
        const -= 2.0 * float(np.sum(lin[:dim_a] * y_a))
        w = w - lin[dim_a:]

    candidates = model.entities_of_type(qg.vertex_types[qg.target_vertex]).astype(np.int64)
    xc = np.stack([model.sections.block(int(c)) for c in candidates])
    quad = np.einsum("cdm,de,cem->c", xc, s_tt, xc)
    linear = 2.0 * np.einsum("cdm,dm->c", xc, w)
    values = const + linear + quad
    order = np.lexsort((candidates, values))
    return candidates[order], values[order]


def oracle_filtered_rank(entity_ids, answer, other_answers) -> int:
    pos_of = {int(e): i for i, e in enumerate(entity_ids)}
    if answer not in pos_of:
        raise QueryError(f"entity {answer} not present in ranking")
    pos = pos_of[answer]
    return pos - sum(1 for a in other_answers if a != answer and a in pos_of and pos_of[a] < pos) + 1


def oracle_evaluate(model: Model, queries, rank=oracle_ranking) -> MetricReport:
    ranks_by_structure: dict[str, list[int]] = {}
    count_by_structure: dict[str, int] = {}
    for q in queries:
        entity_ids, _ = rank(q, model)
        count_by_structure[q.structure] = count_by_structure.get(q.structure, 0) + 1
        bucket = ranks_by_structure.setdefault(q.structure, [])
        for answer in sorted(q.answers):
            bucket.append(oracle_filtered_rank(entity_ids, answer, q.answers))
    return MetricReport(per_structure={
        tag: StructureMetrics(
            mrr=mrr(ranks), hits1=hits_at_k(ranks, 1), hits10=hits_at_k(ranks, 10),
            n_ranks=len(ranks), n_queries=count_by_structure[tag],
        )
        for tag, ranks in ranks_by_structure.items()
    })


# Two entity types of different dimension. Relations cross between them in
# both directions, so most query targets differ from the anchors' type.
RAGGED = Schema(
    entity_types=("person", "place"),
    relation_types=("knows", "lives_in", "near", "born_in", "hosts"),
    head_type=(0, 0, 1, 0, 1),
    tail_type=(0, 1, 1, 1, 0),
    vertex_dim=(3, 5),
    edge_dim=(3, 6, 5, 5, 7),
)
# identity maps need equal square dimensions, so cross-type relations stay free
CROSS_TYPE_FREE = {"lives_in": "free", "born_in": "free", "hosts": "free"}


def ragged_model(rng, variant, constraint, m, n_entities=23):
    overrides = CROSS_TYPE_FREE if constraint == "identity" else {}
    cfg = ModelConfig(
        variant=variant, sections=m, entity_dim=3, relation_dim=3,
        constraint=constraint, constraint_overrides=overrides,
    )
    types = rng.permutation(np.arange(n_entities) % 2).astype(np.int64)  # interleaved ids
    sheaf, sections = init_model(cfg, RAGGED, types, seed=int(rng.integers(1 << 30)))
    for r, kind in enumerate(sheaf.constraints):
        if kind == "free":
            sheaf.head_maps[r][...] = rng.normal(size=sheaf.head_maps[r].shape)
            sheaf.tail_maps[r][...] = rng.normal(size=sheaf.tail_maps[r].shape)
    for i in range(n_entities):
        sections.block(i)[...] = rng.normal(size=sections.block(i).shape)
    # an exact duplicate, so that (value, id) tie-breaks are exercised
    twin = np.flatnonzero(types == types[0])[1]
    sections.block(twin)[...] = sections.block(0).copy()
    return Model(
        schema=RAGGED, entities=tuple(f"e{i}" for i in range(n_entities)),
        entity_type=types, sheaf=sheaf, sections=sections,
    )


def consistent_keys(structure):
    """Every relation tuple that types the structure's template consistently."""
    keys = []
    for relations in product(range(RAGGED.n_relations), repeat=STRUCTURE_ARITY[structure][1]):
        try:
            qg = build_query_graph(Query(structure, (0,) * STRUCTURE_ARITY[structure][0],
                                         relations), RAGGED)
        except QueryError:
            continue
        keys.append((relations, qg))
    return keys


KEYS = {s: consistent_keys(s) for s in STRUCTURES}


def random_queries(rng, model, keys_per_structure=2, per_key=3):
    queries = []
    for structure in STRUCTURES:
        keys = KEYS[structure]
        for k in rng.choice(len(keys), size=keys_per_structure, replace=False):
            relations, qg = keys[int(k)]
            targets = np.flatnonzero(model.entity_type == qg.vertex_types[qg.target_vertex])
            for _ in range(per_key):
                anchors = tuple(
                    int(rng.choice(np.flatnonzero(model.entity_type == qg.vertex_types[v])))
                    for v in qg.anchor_vertices
                )
                # Anchors, and their duplicates, are never answers: with identity
                # maps a 2i query scores its two anchors equally in exact
                # arithmetic, and which one rounding puts first differs between
                # the two implementations.
                block = model.sections.block
                pool = [t for t in targets.tolist()
                        if not any(np.array_equal(block(t), block(a)) for a in anchors)]
                n_answers = int(rng.integers(1, 5))
                answers = frozenset(int(a) for a in rng.choice(pool, n_answers, replace=False))
                queries.append(Query(structure, anchors, relations, answers))
    rng.shuffle(queries)
    return queries


def test_every_structure_has_a_cross_type_key():
    for structure, keys in KEYS.items():
        assert any(qg.vertex_types[qg.target_vertex] != qg.vertex_types[qg.anchor_vertices[0]]
                   for _, qg in keys), structure


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["shv", "shvt"]),
    constraint=st.sampled_from(["free", "orthogonal", "identity"]),
    m=st.sampled_from([1, 3]),
)
def test_batched_evaluate_and_answer_query_match_oracle(seed, variant, constraint, m):
    rng = np.random.default_rng(seed)
    model = ragged_model(rng, variant, constraint, m)
    queries = random_queries(rng, model)
    assert evaluate(model, queries) == oracle_evaluate(model, queries)
    for q in queries:
        assert_same_order(answer_query(q, model), *oracle_ranking(q, model))


def test_groups_split_into_row_chunks_match_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    model = ragged_model(rng, "shvt", "free", 3)
    queries = random_queries(rng, model, per_key=5)
    monkeypatch.setattr(query, "GROUP_ROWS", 2)
    assert evaluate(model, queries) == oracle_evaluate(model, queries)


@pytest.mark.parametrize("method", ["naive", "chaining"])
def test_baseline_methods_match_per_query_filtering(method):
    rng = np.random.default_rng(11)
    schema = default_schema(3, 4, 4)
    cfg = ModelConfig(variant="shvt", entity_dim=4, relation_dim=4, constraint="identity")
    sheaf, sections = init_model(cfg, schema, np.zeros(15, dtype=np.int64), seed=2)
    model = Model(schema=schema, entities=tuple(f"e{i}" for i in range(15)),
                  entity_type=np.zeros(15, dtype=np.int64), sheaf=sheaf, sections=sections)
    queries = [
        Query(s, (int(rng.integers(15)),), tuple(int(r) for r in rng.integers(3, size=int(s[0]))),
              frozenset(int(a) for a in rng.choice(15, int(rng.integers(1, 4)), replace=False)))
        for s in ("1p", "2p", "3p") for _ in range(4)
    ]
    score = naive_traversal_score if method == "naive" else entity_chaining_exact

    def rank(q, model_):
        ranking = score(q, model_)
        return ranking.entity_ids, ranking.values

    assert evaluate(model, queries, method=method) == oracle_evaluate(model, queries, rank)


def assert_same_order(ranking, want_ids, want_values):
    """Equal values per entity, and the same order up to candidates tied to rounding."""
    tol = 1e-10 * max(1.0, float(np.max(np.abs(want_values))))
    want_of = dict(zip(want_ids.tolist(), want_values.tolist()))
    assert sorted(want_of) == sorted(ranking.entity_ids.tolist())
    want_in_got_order = np.array([want_of[e] for e in ranking.entity_ids.tolist()])
    np.testing.assert_allclose(ranking.values, want_in_got_order, rtol=0, atol=tol)
    assert np.all(np.diff(want_in_got_order) >= -tol)
    if np.all(np.diff(want_values) > tol):
        np.testing.assert_array_equal(ranking.entity_ids, want_ids)


class TestGroupErrors:
    """A bad query inside a multi-query group still raises."""

    def _group(self, rng):
        model = ragged_model(rng, "shvt", "free", 2)
        people = np.flatnonzero(model.entity_type == 0)
        places = np.flatnonzero(model.entity_type == 1)
        lives_in = (RAGGED.relation_index("lives_in"),)
        queries = [
            Query("1p", (int(p),), lives_in, frozenset({int(places[i])}))
            for i, p in enumerate(people[:4])
        ]
        return model, queries, people, places, lives_in

    def test_wrong_type_anchor(self, rng):
        model, queries, _, places, lives_in = self._group(rng)
        queries.insert(2, Query("1p", (int(places[0]),), lives_in, frozenset({int(places[1])})))
        with pytest.raises(QueryError, match="has type place"):
            evaluate(model, queries)

    def test_out_of_range_anchor(self, rng):
        model, queries, _, places, lives_in = self._group(rng)
        queries.insert(2, Query("1p", (model.n_entities,), lives_in, frozenset({int(places[1])})))
        with pytest.raises(QueryError, match="out of range"):
            evaluate(model, queries)

    def test_answer_not_a_candidate(self, rng):
        model, queries, people, places, lives_in = self._group(rng)
        queries.insert(2, Query("1p", (int(people[5]),), lives_in,
                                frozenset({int(places[1]), int(people[0])})))
        with pytest.raises(QueryError, match=rf"^query 2, the 1p query on relations \({lives_in[0]},\), has answer "
                                             rf"{int(people[0])}, which is not a candidate of its target's type$"):
            evaluate(model, queries)


BAD_ANCHORS = {  # the bad anchor of query i, as a function of the model, i and the entities of type b
    "out-of-range": lambda model, i, b: model.n_entities + i,
    "negative": lambda model, i, b: -i,
    "wrong-type": lambda model, i, b: int(b[i % len(b)]),
}


@pytest.mark.parametrize("kind", sorted(BAD_ANCHORS))
def test_the_first_bad_query_in_query_order_raises_across_groups_and_batches(kind):
    # Groups in first-seen order: r3 and r4 share a batch (a -> b, edge dim 4), r0 has its own (a -> a).
    # The bad queries are 6 (r3, the first group), 8 (r4) and 4 (r0, the later group and batch).
    rng = np.random.default_rng(13)
    model = shared_signature_model(rng, "shvt", 2, "none")
    a, b = (np.flatnonzero(model.entity_type == t) for t in (0, 1))
    relations = [3, 0, 4]
    queries = []
    for i in range(9):
        r = relations[i % 3]
        anchor = BAD_ANCHORS[kind](model, i, b) if i in (4, 6, 8) else int(a[i % len(a)])
        answers = frozenset({int((b if SHARED.tail_type[r] else a)[0])})
        queries.append(Query("1p", (anchor,), (r,), answers))
    with pytest.raises(QueryError) as first:
        answer_query(queries[4], model)
    want = {"out-of-range": f"anchor entity index {model.n_entities + 4} out of range",
            "negative": "anchor entity index -4 out of range",
            "wrong-type": f"anchor {model.entities[int(b[4])]!r} has type b, query vertex needs a"}[kind]
    assert str(first.value) == want
    for answered in (lambda: evaluate(model, queries), lambda: list(query.answer_queries(queries, model))):
        with pytest.raises(QueryError) as got:
            answered()
        assert str(got.value) == want


def test_an_anchor_of_a_model_without_entities_is_out_of_range():
    cfg = ModelConfig(entity_dim=4, relation_dim=4)
    schema, types = default_schema(2, 4, 4), np.zeros(0, dtype=np.int64)
    sheaf, sections = init_model(cfg, schema, types, seed=0)
    model = Model(schema=schema, entities=(), entity_type=types, sheaf=sheaf, sections=sections)
    queries = [Query("1p", (0,), (0,), frozenset({1})), Query("2i", (2, 3), (0, 1), frozenset({1}))]
    for answered in (lambda: answer_query(queries[0], model), lambda: evaluate(model, queries)):
        with pytest.raises(QueryError, match="^anchor entity index 0 out of range$"):
            answered()


class OracleForm:
    """One query graph's harmonic form, built alone: the per-group path batching replaced."""

    def __init__(self, qg, sheaf, x):
        graph, offsets = query_sheaf(qg, sheaf)
        boundary, interior = qg.boundary, qg.interior
        lap = assemble_laplacian(graph)
        order = lap.columns(boundary + interior)
        full = lap.dense[order][:, order]
        n_b = sum(graph.vertex_dims[v] for v in boundary)
        schur = full[:n_b, :n_b]
        if interior:
            l_ub = full[n_b:, :n_b]
            pinv_uu = psd_pinv(full[n_b:, n_b:])
            schur = schur - l_ub.T @ pinv_uu @ l_ub
            schur = (schur + schur.T) / 2.0
        self.dim_a = dim_a = sum(graph.vertex_dims[v] for v in qg.anchor_vertices)
        self.s_aa = schur[:dim_a, :dim_a]
        self.s_ta = schur[dim_a:, :dim_a]
        rows = x.transpose(0, 2, 1).reshape(-1, x.shape[1])
        quad = np.einsum("kd,kd->k", rows @ schur[dim_a:, dim_a:], rows)
        self.quad = quad.reshape(len(x), -1).sum(axis=1)
        self.x_flat = x.reshape(len(x), -1)
        self.lin = None
        if offsets is not None:
            delta = coboundary_matrix(graph)[:, order]
            delta_e = delta[:, :n_b]
            if interior:
                delta_e = delta_e - delta[:, n_b:] @ pinv_uu @ l_ub
            self.lin = delta_e.T @ np.concatenate(offsets, axis=0)

    def values(self, y_a):
        const = np.einsum("gdm,gdm->g", y_a, self.s_aa @ y_a)
        w = self.s_ta @ y_a
        if self.lin is not None:
            const = const - 2.0 * np.einsum("gdm,dm->g", y_a, self.lin[:self.dim_a])
            w = w - self.lin[self.dim_a:]
        return const[:, None] + 2.0 * (w.reshape(len(w), -1) @ self.x_flat.T) + self.quad


def oracle_answer_ranks(candidates, row, answers):
    """One query's filtered ranks, in ascending answer order."""
    answers = np.array(sorted(answers), dtype=np.int64)
    cols = np.searchsorted(candidates, answers)
    value = row[cols][:, None]
    ahead = (row < value) | ((row == value) & (np.arange(len(row)) < cols[:, None]))
    ahead[:, cols] = False
    return 1 + np.count_nonzero(ahead, axis=1)


def oracle_group_scores(queries, model):
    """Per query: ``(candidates, values, filtered ranks)``, one form per group."""
    groups = {}
    for i, q in enumerate(queries):
        if (q.structure, q.relations) not in groups:
            groups[q.structure, q.relations] = (build_query_graph(q, model.schema), [])
        groups[q.structure, q.relations][1].append(i)
    out = {}
    for qg, members in groups.values():
        candidates = model.entities_of_type(qg.vertex_types[qg.target_vertex]).astype(np.int64)
        x = np.stack([model.sections.block(int(c)) for c in candidates])
        y_a = np.stack([np.concatenate([model.sections.block(a) for a in queries[i].anchors])
                        for i in members])
        for i, row in zip(members, OracleForm(qg, model.sheaf, x).values(y_a)):
            out[i] = candidates, row, oracle_answer_ranks(candidates, row, queries[i].answers)
    return out


# Two entity types; relations repeat a (head type, tail type, edge dim)
# triple, so that distinct relation tuples of one structure share a stalk
# signature, and one structure spans several signatures.
SHARED = Schema(
    entity_types=("a", "b"),
    relation_types=tuple(f"r{i}" for i in range(8)),
    head_type=(0, 0, 0, 0, 0, 1, 1, 1),
    tail_type=(0, 0, 0, 1, 1, 0, 1, 1),
    vertex_dim=(3, 4),
    edge_dim=(3, 3, 2, 4, 4, 3, 4, 4),
)


def shared_signature_model(rng, variant, m, singular, identity=()):
    """Random free maps, but identity maps on the relations ``identity``."""
    overrides = {SHARED.relation_types[r]: "identity" for r in identity}
    cfg = ModelConfig(variant=variant, sections=m, entity_dim=3, relation_dim=3,
                      constraint_overrides=overrides)
    types = rng.permutation(np.arange(14) % 2).astype(np.int64)
    sheaf, sections = init_model(cfg, SHARED, types, seed=int(rng.integers(1 << 30)))
    for r in range(SHARED.n_relations):
        for maps in (sheaf.head_maps, sheaf.tail_maps):
            if r not in identity:
                maps[r][...] = rng.normal(size=maps[r].shape)
    # degenerate maps on some relations leave interior blocks singular
    for r in rng.choice(SHARED.n_relations, size=3, replace=False):
        for maps in (sheaf.head_maps, sheaf.tail_maps):
            if singular == "zero":
                maps[r][...] = 0.0
            elif singular == "rank_one":
                maps[r][...] = np.outer(rng.normal(size=maps[r].shape[0]), rng.normal(size=maps[r].shape[1]))
    for i in range(len(types)):
        sections.block(i)[...] = rng.normal(size=sections.block(i).shape)
    twin = np.flatnonzero(types == types[0])[1]
    sections.block(twin)[...] = sections.block(0).copy()
    return Model(schema=SHARED, entities=tuple(f"e{i}" for i in range(len(types))),
                 entity_type=types, sheaf=sheaf, sections=sections)


def shared_signature_queries(rng, model):
    queries = []
    for structure in STRUCTURES:
        n_anchors, n_relations = STRUCTURE_ARITY[structure]
        for relations in product(range(SHARED.n_relations), repeat=n_relations):
            if rng.random() > 12 / SHARED.n_relations ** n_relations:
                continue
            try:
                qg = build_query_graph(Query(structure, (0,) * n_anchors, relations), SHARED)
            except QueryError:
                continue
            for _ in range(int(rng.integers(1, 4))):
                anchors = tuple(int(rng.choice(np.flatnonzero(model.entity_type == qg.vertex_types[v])))
                                for v in qg.anchor_vertices)
                targets = np.flatnonzero(model.entity_type == qg.vertex_types[qg.target_vertex])
                answers = rng.choice(targets, int(rng.integers(0, 4)), replace=False)
                queries.append(Query(structure, anchors, relations, frozenset(answers.tolist())))
    rng.shuffle(queries)
    return queries


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["shv", "shvt"]),
    m=st.sampled_from([1, 2]),
    singular=st.sampled_from(["none", "zero", "rank_one"]),
    chunk_groups=st.sampled_from([1, 2, 3]),
    group_rows=st.sampled_from([1, 2, 3]),
)
def test_chunked_forms_and_block_ranks_match_per_group_oracle(
    seed, variant, m, singular, chunk_groups, group_rows
):
    rng = np.random.default_rng(seed)
    model = shared_signature_model(rng, variant, m, singular)
    queries = shared_signature_queries(rng, model)
    signatures = {}
    for q in queries:
        qg = build_query_graph(q, SHARED)
        dims = tuple(SHARED.edge_dim[r] for r in q.relations)
        signatures.setdefault((q.structure, qg.vertex_types, dims), set()).add(q.relations)
    assert any(len(keys) > 1 for keys in signatures.values())
    want = oracle_group_scores(queries, model)
    seen = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(query, "CHUNK_GROUPS", chunk_groups)
        patch.setattr(query, "GROUP_ROWS", group_rows)
        for members, candidates, values in query.answer_queries(queries, model):
            assert len(members) <= group_rows
            ranks = answer_ranks(candidates, values, [queries[i].answers for i in members])
            for i, row, got_ranks in zip(members, values, ranks):
                want_candidates, want_row, want_ranks = want[i]
                np.testing.assert_array_equal(candidates, want_candidates)
                tol = 1e-12 * max(1.0, float(np.max(np.abs(want_row))))
                np.testing.assert_allclose(row, want_row, rtol=0, atol=tol)
                assert got_ranks.tolist() == want_ranks.tolist()
                seen.add(i)
    assert seen == set(range(len(queries)))


def shared_signature_keys():
    """Per structure, the relation tuples of each stalk signature that has two or more."""
    keys = {}
    for structure in STRUCTURES:
        for relations in product(range(SHARED.n_relations), repeat=STRUCTURE_ARITY[structure][1]):
            try:
                qg = build_query_graph(Query(structure, (0,) * STRUCTURE_ARITY[structure][0],
                                             relations), SHARED)
            except QueryError:
                continue
            dims = tuple(SHARED.edge_dim[r] for r in relations)
            keys.setdefault((structure, qg.vertex_types, dims), []).append((relations, qg))
    return {s: [v for k, v in keys.items() if k[0] == s and len(v) > 1] for s in STRUCTURES}


SHARED_KEYS = shared_signature_keys()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["shv", "shvt"]), m=st.sampled_from([1, 2]))
def test_single_query_values_match_its_row_in_a_multi_group_chunk(seed, variant, m):
    # answer_query takes its maps from the per-relation views, a chunk of
    # several groups gathers them from the padded arrays
    rng = np.random.default_rng(seed)
    model = shared_signature_model(rng, variant, m, "none")
    queries = []
    for structure in STRUCTURES:
        signature = SHARED_KEYS[structure][int(rng.integers(len(SHARED_KEYS[structure])))]
        picks = rng.choice(len(signature), size=min(3, len(signature)), replace=False)
        for relations, qg in (signature[int(i)] for i in picks):
            for _ in range(2):
                anchors = tuple(int(rng.choice(np.flatnonzero(model.entity_type == qg.vertex_types[v])))
                                for v in qg.anchor_vertices)
                queries.append(Query(structure, anchors, relations))
    assert query.CHUNK_GROUPS >= 3  # so each signature's two or three groups are one chunk
    assert {bool(build_query_graph(q, SHARED).interior) for q in queries} == {False, True}
    for members, candidates, values in query.answer_queries(queries, model):
        for i, row in zip(members, values):
            ranking = answer_query(queries[i], model)
            got = np.empty(len(candidates))
            got[np.searchsorted(candidates, ranking.entity_ids)] = ranking.values
            tol = 1e-12 * max(1.0, float(np.max(np.abs(row))))
            np.testing.assert_allclose(got, row, rtol=0, atol=tol)


def many_to_many_graph(n_entities, n_relations, dim, seed):
    """Uniform random graph: each (head, relation) present with probability 1/2, 1 + Poisson(1) tails."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n_relations):
        heads = np.flatnonzero(rng.random(n_entities) < 0.5)
        heads = np.repeat(heads, 1 + rng.poisson(1.0, size=len(heads)))
        rows.append(np.column_stack([heads, np.full(len(heads), r), rng.integers(0, n_entities, len(heads))]))
    triples = np.unique(np.concatenate(rows), axis=0)
    triples = triples[rng.permutation(len(triples))]
    n_held = len(triples) // 10
    split = np.repeat(np.array([0, 1, 2], dtype=np.int8), [len(triples) - 2 * n_held, n_held, n_held])
    return KnowledgeGraph(
        schema=default_schema(n_relations, dim, dim), entities=tuple(f"e{i}" for i in range(n_entities)),
        entity_type=np.zeros(n_entities, dtype=np.int64), triples=triples.astype(np.int64), split=split,
    )


def test_evaluate_working_set_stays_small():
    # Batching can trade memory for speed. On the free-map input one form per structure
    # with 256-row rank blocks peaks at 38 MiB, chunks of 16 forms with 32-row
    # blocks at 5.2 MiB, and one form per (structure, relations) group at 2.6 MiB.
    # The planted identity input takes one form per batch, which keeps no per-graph rows.
    kg = many_to_many_graph(2000, 16, 16, seed=1)
    free = init_for_kg(ModelConfig(variant="shv", entity_dim=16, relation_dim=16), kg, seed=2)
    planted = generate_planted_kg(2500, 5, 16, 0.0, seed=1, variant="shvt")
    assert planted.generator.sheaf.identity_maps(range(5))
    for kg, model in ((kg, free), (planted.kg, planted.generator)):
        index = build_index(kg)
        rng = np.random.default_rng(2)
        queries = [q for s in STRUCTURES for q in build_easy_queries(kg, index, s, 200, rng)]
        assert len(queries) > 1200
        evaluate(model, queries[:10])  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            evaluate(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_block_ranks_keep_one_row_of_masks():
    # 8 rows of 300 answers over 3,000 candidates: one row's (answers, candidates)
    # masks are 0.9 MB each, where a copy of every answer's row of values for the
    # whole block would be 58 MB and a mask of the block's answer pairs 5.8 MB.
    rng = np.random.default_rng(3)
    candidates = np.arange(0, 6000, 2, dtype=np.int64)
    values = rng.integers(0, 50, size=(8, len(candidates))).astype(float)  # many ties
    answers = [set(rng.choice(candidates, 300, replace=False).tolist()) for _ in range(8)]
    tracemalloc.start()
    try:
        ranks = answer_ranks(candidates, values, answers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for row, row_answers, got in zip(values, answers, ranks):
        assert got.tolist() == oracle_answer_ranks(candidates, row, row_answers).tolist()


# Identity maps make a query's sheaf the constant sheaf R^d, whose Laplacian is
# L_G (x) I_d: such queries eliminate on the scalar template graph.

def record_stalks(monkeypatch):
    """The vertex dims of each Laplacian that ``query`` assembles, in call order.

    The per-(template, d) identity table starts empty, so each identity template is assembled again.
    """
    monkeypatch.setattr(query, "_IDENTITY_FORMS", {})
    seen = []
    assemble = query.assemble_laplacian

    def recording(graph):
        seen.append(graph.vertex_dims)
        return assemble(graph)

    monkeypatch.setattr(query, "assemble_laplacian", recording)
    return seen


def identity_model(rng, m, n_entities=17, dim=4):
    """An all-identity ShVT model on one entity type, random sections and translations."""
    schema = default_schema(3, dim, dim)
    cfg = ModelConfig(variant="shvt", sections=m, entity_dim=dim, relation_dim=dim, constraint="identity")
    types = np.zeros(n_entities, dtype=np.int64)
    sheaf, sections = init_model(cfg, schema, types, seed=int(rng.integers(1 << 30)))
    sheaf.T[...] = rng.normal(size=sheaf.T.shape)
    sections.X[...] = rng.normal(size=sections.X.shape)
    return Model(schema=schema, entities=tuple(f"e{i}" for i in range(n_entities)),
                 entity_type=types, sheaf=sheaf, sections=sections)


def identity_queries(rng, model, per_structure=4):
    """Random queries of every structure; anchors are never answers (see ``random_queries``)."""
    queries = []
    for structure in STRUCTURES:
        n_anchors, n_relations = STRUCTURE_ARITY[structure]
        for _ in range(per_structure):
            anchors = tuple(int(a) for a in rng.choice(model.n_entities, n_anchors, replace=False))
            pool = np.setdiff1d(np.arange(model.n_entities), anchors)
            answers = frozenset(int(a) for a in rng.choice(pool, int(rng.integers(1, 4)), replace=False))
            relations = tuple(int(r) for r in rng.integers(model.schema.n_relations, size=n_relations))
            queries.append(Query(structure, anchors, relations, answers))
    return queries


def assert_rows_match_the_oracle(queries, model, answered):
    """``answered`` yields ``(members, candidates, values)``; each row within 1e-12 of ``OracleForm``'s.

    Ranks are not compared: candidates tied in exact arithmetic (a section's
    twin, the two anchors of a 2i query over identity maps) may be ordered
    either way by rounding, which differs between the two eliminations.
    """
    want = oracle_group_scores(queries, model)
    seen = set()
    for members, candidates, values in answered:
        for i, row in zip(members, values):
            want_candidates, want_row, _ = want[i]
            np.testing.assert_array_equal(candidates, want_candidates)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(want_row))))
            np.testing.assert_allclose(row, want_row, rtol=0, atol=tol)
            seen.add(i)
    assert seen == set(range(len(queries)))


def answered_one_at_a_time(queries, model):
    """``answer_query``'s values of each query, as ``answer_queries`` yields rows."""
    for i, q in enumerate(queries):
        ranking = answer_query(q, model)
        candidates = np.sort(ranking.entity_ids)
        row = np.empty(len(candidates))
        row[np.searchsorted(candidates, ranking.entity_ids)] = ranking.values
        yield [i], candidates, row[None]


@pytest.mark.parametrize("m", [1, 3])
def test_an_all_identity_model_eliminates_on_scalar_stalks(monkeypatch, m):
    rng = np.random.default_rng(20 + m)
    model = identity_model(rng, m)
    queries = identity_queries(rng, model)
    seen = record_stalks(monkeypatch)
    report = evaluate(model, queries)
    rankings = [answer_query(q, model) for q in queries]
    assert {len(dims) for dims in seen} == {2, 3, 4}  # every template size
    assert all(set(dims) == {1} for dims in seen)
    assert report == oracle_evaluate(model, queries)
    for q, ranking in zip(queries, rankings):
        assert_same_order(ranking, *oracle_ranking(q, model))


def test_an_identity_tag_whose_maps_changed_answers_with_its_real_maps(monkeypatch):
    rng = np.random.default_rng(5)
    model = identity_model(rng, 2)
    queries = identity_queries(rng, model)
    changed = model.copy()
    changed.sheaf.head_maps[1][...] += 0.3 * rng.normal(size=changed.sheaf.head_maps[1].shape)
    seen = record_stalks(monkeypatch)
    assert_rows_match_the_oracle(queries, changed, query.answer_queries(queries, changed))
    assert_rows_match_the_oracle(queries, changed, answered_one_at_a_time(queries, changed))
    # queries on relation 1 keep their 4-dim stalks, the others take scalar ones
    assert {frozenset(dims) for dims in seen} == {frozenset({1}), frozenset({4})}

    model.sheaf.head_maps[1][0, 0] = np.nan
    with pytest.raises(EvaluationError, match="on relations .*r1.* has a non-finite candidate value"):
        evaluate(model, queries)
    with pytest.raises(EvaluationError, match="the query on relations .*r1.* has a non-finite"):
        answer_query(next(q for q in queries if 1 in q.relations), model)


class ForgetfulTable(dict):
    """An identity table that never holds a form, so every form eliminates and lifts afresh."""

    def __contains__(self, key):
        return False


@pytest.mark.parametrize("m", [1, 3])
def test_a_filled_scalar_table_answers_bit_for_bit_as_an_empty_one(monkeypatch, m):
    rng = np.random.default_rng(40 + m)
    model = identity_model(rng, m)
    queries = identity_queries(rng, model)
    assert {q.structure for q in queries} == set(STRUCTURES)

    def answered():
        rows = {i: row for members, _, values in query.answer_queries(queries, model)
                for i, row in zip(members, values)}
        return evaluate(model, queries), rows, [answer_query(q, model).scored for q in queries]

    monkeypatch.setattr(query, "_IDENTITY_FORMS", ForgetfulTable())
    cold_report, cold_rows, cold_scored = answered()
    monkeypatch.setattr(query, "_IDENTITY_FORMS", {})
    answered()
    assert len(query._IDENTITY_FORMS) == len(STRUCTURES)  # one d
    report, rows, scored = answered()
    assert report == cold_report
    for i in range(len(queries)):
        assert np.array_equal(rows[i], cold_rows[i])
        for got, want in zip(scored[i], cold_scored[i]):
            assert np.array_equal(got, want)


def test_the_scalar_table_holds_one_read_only_entry_per_template():
    for m, dim in ((1, 4), (3, 2), (3, 4)):  # the lifted form depends on d, not on m
        rng = np.random.default_rng(m)
        model = identity_model(rng, m, dim=dim)
        queries = identity_queries(rng, model)
        evaluate(model, queries)
        evaluate(model, queries)
    per_d = Counter(key[-1] for key in query._IDENTITY_FORMS)
    assert {2, 4} <= set(per_d) and max(per_d.values()) <= len(STRUCTURES)
    for schur, delta_e in query._IDENTITY_FORMS.values():
        for a in (schur, delta_e):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def test_warm_identity_forms_share_the_table_entry():
    rng = np.random.default_rng(11)
    model = identity_model(rng, 2)
    for structure in STRUCTURES:
        n_anchors, n_relations = STRUCTURE_ARITY[structure]
        qg = build_query_graph(Query(structure, (0,) * n_anchors, tuple(range(n_relations))), model.schema)
        _, x = query._type_sections(model, qg.vertex_types[qg.target_vertex])
        first, second = (query._HarmonicForm([qg], model.sheaf, x, True) for _ in range(2))
        assert np.shares_memory(first.s_aa, second.s_aa) and np.shares_memory(first.s_ta, second.s_ta)
        d = x.shape[1]
        schur, delta_e = query._IDENTITY_FORMS[
            qg.n_vertices, tuple((u, v) for u, _, v in qg.edges), qg.boundary, qg.interior, d]
        assert np.shares_memory(first.s_aa, schur) and np.shares_memory(first.s_ta, schur)
        for a in (schur, delta_e):  # S_G (x) I_d and (delta E)_G (x) I_d
            np.testing.assert_array_equal(a, np.kron(a[::d, ::d], np.eye(d)))


def test_a_filled_scalar_table_leaves_nothing_to_assemble(monkeypatch):
    rng = np.random.default_rng(9)
    model = identity_model(rng, 2)
    queries = identity_queries(rng, model)
    evaluate(model, queries)
    calls = []
    for name in ("assemble_laplacian", "psd_pinv"):
        monkeypatch.setattr(query, name, lambda *args, name=name: calls.append(name))
    rankings = [answer_query(q, model) for q in queries]
    assert calls == []
    for q, ranking in zip(queries, rankings):
        assert_same_order(ranking, *oracle_ranking(q, model))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["shv", "shvt"]), m=st.sampled_from([1, 2]))
def test_identity_and_free_keys_of_one_stalk_signature_match_the_oracle(seed, variant, m):
    rng = np.random.default_rng(seed)
    model = shared_signature_model(rng, variant, m, "none", identity=(0, 6))
    pairs = [("1p", (0,), (1,)), ("2p", (0, 0), (0, 1)), ("2i", (6, 6), (7, 6)),
             ("3p", (6, 6, 6), (6, 7, 6)), ("pi", (0, 0, 0), (0, 0, 1))]
    queries = []
    for structure, *keys in pairs:
        signatures = set()
        for relations in keys:
            qg = build_query_graph(Query(structure, (0,) * STRUCTURE_ARITY[structure][0], relations), SHARED)
            signatures.add((qg.vertex_types, tuple(SHARED.edge_dim[r] for r in relations)))
            targets = np.flatnonzero(model.entity_type == qg.vertex_types[qg.target_vertex])
            for _ in range(2):
                anchors = tuple(int(rng.choice(np.flatnonzero(model.entity_type == qg.vertex_types[v])))
                                for v in qg.anchor_vertices)
                answers = rng.choice(targets, int(rng.integers(1, 4)), replace=False)
                queries.append(Query(structure, anchors, relations, frozenset(answers.tolist())))
        assert len(signatures) == 1
        assert [model.sheaf.identity_maps(relations) for relations in keys] == [True, False]
    rng.shuffle(queries)
    assert_rows_match_the_oracle(queries, model, query.answer_queries(queries, model))
    assert_rows_match_the_oracle(queries, model, answered_one_at_a_time(queries, model))


def test_identity_is_checked_once_per_relation_and_call(monkeypatch):
    rng = np.random.default_rng(17)
    model = identity_model(rng, 2)
    queries = identity_queries(rng, model, per_structure=8)
    assert len({(q.structure, q.relations) for q in queries}) > 4 * model.schema.n_relations
    calls = []
    check = KnowledgeSheaf.identity_maps

    def counting(sheaf, relations):
        calls.append(tuple(relations))
        return check(sheaf, relations)

    monkeypatch.setattr(KnowledgeSheaf, "identity_maps", counting)
    evaluate(model, queries)
    assert 1 <= len(calls) <= model.schema.n_relations
    assert all(len(relations) == 1 for relations in calls)
    # nothing is kept between calls: a perturbed identity-tagged relation answers with its real maps
    calls.clear()
    model.sheaf.head_maps[1][...] += 0.3 * rng.normal(size=model.sheaf.head_maps[1].shape)
    assert_rows_match_the_oracle(queries, model, query.answer_queries(queries, model))
    assert 1 <= len(calls) <= model.schema.n_relations
