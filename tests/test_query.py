import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched_answering import random_queries, ragged_model

from sheaf_kg.errors import (
    BudgetExceededError,
    ConfigError,
    QueryError,
    SchemaError,
    TripleParseError,
    ValidationError,
)
from sheaf_kg.evaluation import evaluate
from sheaf_kg.kgdata import KnowledgeGraph, Schema, VocabBuilder, default_schema, load_triples
from sheaf_kg.model import (
    Model,
    ModelConfig,
    SectionMatrix,
    KnowledgeSheaf,
    init_for_kg,
    init_model,
    triple_score,
)
from sheaf_kg.query import (
    Query,
    QueryGraph,
    answer_query,
    answer_query_graph,
    build_query_graph,
    entity_chaining_exact,
    naive_traversal_score,
    _anchor_data,
    _type_sections,
    query_sheaf,
    ranking_from_scores,
    read_queries,
    write_queries,
)
from sheaf_kg.sheaf import affine_offset, coboundary_matrix
from sheaf_kg.synth import generate_planted_kg


def make_model(rng, n_entities=10, n_relations=3, dim=4, variant="shv", constraint="free", m=1,
               edge_dim=None):
    schema = default_schema(n_relations, dim, edge_dim or dim)
    cfg = ModelConfig(
        variant=variant, sections=m, entity_dim=dim, relation_dim=edge_dim or dim,
        constraint=constraint,
    )

    sheaf, sections = init_model(cfg, schema, np.zeros(n_entities, dtype=np.int64), seed=0)
    for r in range(n_relations):
        if constraint == "free":
            sheaf.head_maps[r][...] = rng.normal(size=sheaf.head_maps[r].shape)
            sheaf.tail_maps[r][...] = rng.normal(size=sheaf.tail_maps[r].shape)
        if variant == "shvt":
            sheaf.translations[r][...] = rng.normal(size=sheaf.translations[r].shape)
    for i in range(n_entities):
        sections.block(i)[...] = rng.normal(size=sections.block(i).shape)
    return Model(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(n_entities)),
        entity_type=np.zeros(n_entities, dtype=np.int64),
        sheaf=sheaf,
        sections=sections,
        seed=0,
    )


class TestTemplates:
    @pytest.mark.parametrize(
        "tag,n,interior,anchors",
        [
            ("1p", 2, (), 1),
            ("2p", 3, (1,), 1),
            ("3p", 4, (1, 2), 1),
            ("2i", 3, (), 2),
            ("3i", 4, (), 3),
            ("ip", 4, (2,), 2),
            ("pi", 4, (1,), 2),
        ],
    )
    def test_shapes_and_roles(self, tag, n, interior, anchors):
        schema = default_schema(3, 4, 4)
        n_rel = {"1p": 1, "2p": 2, "3p": 3, "2i": 2, "3i": 3, "ip": 3, "pi": 3}[tag]
        q = Query(tag, tuple(range(anchors)), tuple(range(n_rel)))
        qg = build_query_graph(q, schema)
        assert qg.n_vertices == n
        assert qg.interior == interior
        assert len(qg.anchor_vertices) == anchors
        assert set(qg.boundary) | set(qg.interior) == set(range(n))
        assert not set(qg.boundary) & set(qg.interior)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            Query("2p", (0, 1), (0, 1))
        with pytest.raises(QueryError):
            Query("ip", (0,), (0, 1, 2))

    @pytest.mark.parametrize("anchors, relations, message", [
        ((2.5,), (0,), "anchor ids must be integers, got 2.5"),
        (("2",), (0,), "anchor ids must be integers, got '2'"),
        ((2,), (0.5,), "relation ids must be integers, got 0.5"),
        ((2,), (np.float64(1.0),), "relation ids must be integers, got np.float64"),
        ((True,), (0,), "anchor ids must be integers, got True"),
        ((2,), (False,), "relation ids must be integers, got False"),
    ], ids=["float-anchor", "str-anchor", "float-relation", "numpy-float-relation", "bool-anchor",
            "bool-relation"])
    def test_non_integer_ids_rejected(self, anchors, relations, message):
        # 2.5 and "2" were once read as entity 2, and relation 0.5 ended in a TypeError
        with pytest.raises(QueryError, match=re.escape(message)):
            Query("1p", anchors, relations)

    def test_non_integer_answers_rejected(self):
        # answer 4.5 was once scored as entity 4
        with pytest.raises(QueryError, match=re.escape("answer ids must be integers, got 4.5")):
            Query("1p", (2,), (0,), frozenset({4.5}))
        with pytest.raises(QueryError, match=re.escape("answer ids must be integers, got True")):
            Query("1p", (2,), (0,), frozenset({True}))  # once answer 1

    def test_numpy_integer_ids_accepted(self):
        q = Query("2i", (np.int64(3), 4), (np.int32(0), 1))
        assert q.anchors == (3, 4) and q.relations == (0, 1)

    def test_type_inconsistent_chain_rejected(self):
        schema = Schema(
            entity_types=("person", "city"),
            relation_types=("lives_in", "knows"),
            head_type=(0, 0),
            tail_type=(1, 0),
            vertex_dim=(4, 3),
            edge_dim=(3, 3),
        )
        # lives_in lands on a city; knows requires a person at its head
        with pytest.raises(QueryError):
            build_query_graph(Query("2p", (0,), (0, 1)), schema)

    def test_pullback_shares_relation_maps(self, rng):
        model = make_model(rng)
        q = Query("2p", (0,), (1, 2))
        qg = build_query_graph(q, model.schema)
        graph, offsets = query_sheaf(qg, model.sheaf)
        assert graph.head_maps[0] is model.sheaf.head_maps[1]
        assert graph.tail_maps[1] is model.sheaf.tail_maps[2]
        assert offsets is None


class TestAnswerQuery:
    def test_1p_reduces_to_direct_scoring(self, rng):
        model = make_model(rng)
        q = Query("1p", (3,), (1,))
        ranking = answer_query(q, model)
        direct = np.array([triple_score(model.sheaf, model.sections, 3, 1, c) for c in range(10)])
        order = np.lexsort((np.arange(10), direct))
        np.testing.assert_array_equal(ranking.entity_ids, order)
        for c in range(10):
            assert ranking.value_of(c) == pytest.approx(direct[c], rel=1e-10, abs=1e-10)

    def test_1p_translational_reduces_up_to_offset(self, rng):
        model = make_model(rng, variant="shvt", constraint="identity")
        q = Query("1p", (0,), (2,))
        ranking = answer_query(q, model)
        offset = float(np.sum(model.sheaf.translations[2] ** 2))
        direct = np.array([triple_score(model.sheaf, model.sections, 0, 2, c) for c in range(10)])
        order = np.lexsort((np.arange(10), direct))
        np.testing.assert_array_equal(ranking.entity_ids, order)
        for c in range(10):
            assert ranking.value_of(c) + offset == pytest.approx(direct[c], rel=1e-9, abs=1e-9)

    def test_2p_identity_maps_halve_the_distance(self, rng):
        model = make_model(rng, variant="shvt", constraint="identity")
        for r in range(3):
            model.sheaf.translations[r][...] = 0.0
        q = Query("2p", (0,), (0, 1))
        ranking = answer_query(q, model)
        for c in range(10):
            d = model.sections.block(0) - model.sections.block(c)
            assert ranking.value_of(c) == pytest.approx(
                float(np.sum(d * d)) / 2.0, rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("variant,m", [("shv", 1), ("shv", 3), ("shvt", 1), ("shvt", 2)])
    def test_matches_dense_constrained_solve(self, rng, variant, m):
        # oracle: per candidate, minimize |delta y - b|^2 over interior blocks
        # by dense least squares on the query graph
        model = make_model(rng, variant=variant, m=m, dim=3, edge_dim=3)
        q = Query("3p", (4,), (0, 2, 1))
        qg = build_query_graph(q, model.schema)
        graph, offsets = query_sheaf(qg, model.sheaf)
        ranking = answer_query(q, model)
        delta = coboundary_matrix(graph)
        voff = graph.vertex_offsets
        b_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in qg.boundary])
        u_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in qg.interior])
        b_mat = (
            np.concatenate(offsets, axis=0)
            if offsets is not None
            else np.zeros((graph.total_edge_dim, m))
        )
        constant = affine_offset(graph, [b_mat[e * 3:(e + 1) * 3] for e in range(3)],
                                 list(qg.boundary)) if offsets is not None else 0.0
        for c in range(model.n_entities):
            total = 0.0
            for j in range(m):
                y_b = np.concatenate(
                    [model.sections.block(4)[:, j], model.sections.block(c)[:, j]]
                )
                rhs = b_mat[:, j] - delta[:, b_cols] @ y_b
                sol, *_ = np.linalg.lstsq(delta[:, u_cols], rhs, rcond=None)
                total += float(np.sum((delta[:, u_cols] @ sol - rhs) ** 2))
            assert ranking.value_of(c) + constant == pytest.approx(total, rel=1e-8, abs=1e-8)

    def test_wrong_anchor_type_rejected(self, rng):
        schema = Schema(
            entity_types=("person", "city"),
            relation_types=("lives_in",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(3, 3),
            edge_dim=(3,),
        )
        cfg = ModelConfig(entity_dim=3, relation_dim=3)
        from sheaf_kg.model import init_model

        types = np.array([0, 1], dtype=np.int64)
        sheaf, sections = init_model(cfg, schema, types, seed=0)
        model = Model(
            schema=schema, entities=("alice", "paris"),
            entity_type=types, sheaf=sheaf, sections=sections,
        )
        with pytest.raises(QueryError):
            answer_query(Query("1p", (1,), (0,)), model)  # city anchor in a person slot
        qg = build_query_graph(Query("1p", (0,), (0,)), schema)
        for anchor in (0.7, True):  # once answered from entity 0 and entity 1
            with pytest.raises(QueryError, match="anchor ids must be integers"):
                answer_query_graph(qg, model, (anchor,))

    def test_ranking_ties_break_by_index(self, rng):
        model = make_model(rng)
        model.sections.block(7)[...] = model.sections.block(2).copy()  # exact tie
        ranking = answer_query(Query("1p", (0,), (0,)), model)
        assert ranking.position(2) < ranking.position(7)

    def test_deterministic(self, rng):
        model = make_model(rng)
        q = Query("pi", (0, 1), (0, 1, 2))
        a = answer_query(q, model)
        b = answer_query(q, model)
        np.testing.assert_array_equal(a.entity_ids, b.entity_ids)
        np.testing.assert_array_equal(a.values, b.values)


class TestFamilyCompositeFixture:
    """Two-generation family lookup with gender constraints.

    The query graph has five vertices: the source person, an unknown parent
    (interior), the grandparent (target), and two gender-value anchors
    constraining parent and grandparent. All but the parent are boundary.
    """

    def _family_model(self):
        schema = Schema(
            entity_types=("person", "gender"),
            relation_types=("child_of", "has_gender"),
            head_type=(0, 0),
            tail_type=(0, 1),
            vertex_dim=(4, 2),
            edge_dim=(4, 2),
        )
        rng = np.random.default_rng(5)
        people = ["ada", "mum", "grandpa", "uncle", "stranger"]
        genders = ["female", "male"]
        entities = tuple(people + genders)
        entity_type = np.array([0] * 5 + [1] * 5)[: len(entities)]
        entity_type = np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int64)

        child_of_head = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        child_of_tail = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        gender_head = rng.normal(size=(2, 4))
        gender_tail = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        sheaf = KnowledgeSheaf(
            schema=schema,
            head_maps=[child_of_head, gender_head],
            tail_maps=[child_of_tail, gender_tail],
            constraints=("free", "free"),
        )
        # plant embeddings so that ada -child_of-> mum -child_of-> grandpa and
        # the gender facts hold exactly; the uncle/stranger break the pattern
        x = {}
        x["ada"] = rng.normal(size=(4, 1))
        x["mum"] = np.linalg.solve(child_of_tail, child_of_head @ x["ada"])
        x["grandpa"] = np.linalg.solve(child_of_tail, child_of_head @ x["mum"])
        x["uncle"] = rng.normal(size=(4, 1))
        x["stranger"] = rng.normal(size=(4, 1))
        x["female"] = np.linalg.solve(gender_tail, gender_head @ x["mum"])
        x["male"] = np.linalg.solve(gender_tail, gender_head @ x["grandpa"])
        sections = SectionMatrix(1, [x[name] for name in entities])
        return Model(
            schema=schema, entities=entities, entity_type=entity_type,
            sheaf=sheaf, sections=sections,
        )

    def test_grandparent_found_by_boundary_completion(self):
        model = self._family_model()
        names = {name: i for i, name in enumerate(model.entities)}
        qg = QueryGraph(
            n_vertices=5,
            edges=(
                (0, 0, 1),  # source child_of parent
                (1, 0, 2),  # parent child_of grandparent
                (1, 1, 3),  # parent has_gender female
                (2, 1, 4),  # grandparent has_gender male
            ),
            anchor_vertices=(0, 3, 4),
            target_vertex=2,
            vertex_types=(0, 0, 0, 1, 1),
        )
        assert qg.interior == (1,)
        ranking = answer_query_graph(
            qg, model, (names["ada"], names["female"], names["male"])
        )
        assert int(ranking.entity_ids[0]) == names["grandpa"]
        assert ranking.value_of(names["grandpa"]) == pytest.approx(0.0, abs=1e-9)


class TestNaiveTraversal:
    def test_1p_matches_harmonic_ranking(self, rng):
        model = make_model(rng, variant="shvt", constraint="identity")
        q = Query("1p", (2,), (0,))
        a = answer_query(q, model)
        b = naive_traversal_score(q, model)
        np.testing.assert_array_equal(a.entity_ids, b.entity_ids)
        offset = float(np.sum(model.sheaf.translations[0] ** 2))
        np.testing.assert_allclose(a.values + offset, b.values, rtol=1e-9, atol=1e-9)

    def test_2p_zero_translation_scaling(self, rng):
        model = make_model(rng, variant="shvt", constraint="identity")
        for r in range(3):
            model.sheaf.translations[r][...] = 0.0
        q = Query("2p", (0,), (0, 1))
        harmonic = answer_query(q, model)
        naive = naive_traversal_score(q, model)
        np.testing.assert_array_equal(harmonic.entity_ids, naive.entity_ids)
        for c in range(10):
            d = model.sections.block(0) - model.sections.block(c)
            assert naive.value_of(c) == pytest.approx(float(np.sum(d * d)), rel=1e-10, abs=1e-12)
            assert harmonic.value_of(c) == pytest.approx(naive.value_of(c) / 2, rel=1e-9, abs=1e-12)

    def test_non_path_structure_rejected(self, rng):
        model = make_model(rng, variant="shvt", constraint="identity")
        with pytest.raises(QueryError):
            naive_traversal_score(Query("2i", (0, 1), (0, 1)), model)

    def test_non_identity_maps_rejected(self, rng):
        model = make_model(rng, variant="shvt", constraint="free")
        with pytest.raises(ConfigError):
            naive_traversal_score(Query("2p", (0,), (0, 1)), model)

    def test_non_translational_rejected(self, rng):
        model = make_model(rng, variant="shv", constraint="identity")
        with pytest.raises(ConfigError):
            naive_traversal_score(Query("1p", (0,), (0,)), model)

    def test_identity_tag_over_other_maps_rejected(self):
        # the tag alone once let naive rank entity 2 first at 2.5e-31, where harmonic answering puts 41
        model = generate_planted_kg(60, 2, 4, 0.0, seed=1, variant="shvt").generator
        model.sheaf.head_maps[0][...] = 5 * np.eye(4)
        query = Query("2p", (3,), (0, 1), frozenset({2}))
        assert answer_query(query, model).top(1)[0][0] == 41
        message = re.escape("naive traversal needs identity maps, which relation 'r0' (tagged identity) does not have")
        with pytest.raises(ConfigError, match=message):
            naive_traversal_score(query, model)
        with pytest.raises(ConfigError, match=message):
            evaluate(model, [query], method="naive")


def chaining_oracle(query, model):
    """Entity chaining with the fixed, into-target and out-of-target edges written out."""
    qg = build_query_graph(query, model.schema)
    sheaf = model.sheaf
    interior = qg.interior
    pools = [model.entities_of_type(qg.vertex_types[v]) for v in interior]
    candidates, xc = _type_sections(model, qg.vertex_types[qg.target_vertex])
    anchor_of = dict(zip(qg.anchor_vertices, (int(a) for a in query.anchors)))
    _anchor_data(model, qg, [query.anchors])
    target = qg.target_vertex

    def head_term(e_idx, vec):
        out = sheaf.head_maps[qg.edges[e_idx][1]] @ vec
        if sheaf.translational:
            out = out + sheaf.translations[qg.edges[e_idx][1]]
        return out

    best = np.full(len(candidates), np.inf)
    for assignment in product(*(range(len(p)) for p in pools)):
        entity_at = dict(anchor_of)
        for v, choice, pool in zip(interior, assignment, pools):
            entity_at[v] = int(pool[choice])
        fixed = 0.0
        target_vec = np.zeros(len(candidates))
        for e_idx, (u, r, v) in enumerate(qg.edges):
            if u != target and v != target:
                h_blk = model.sections.block(entity_at[u])
                t_blk = model.sections.block(entity_at[v])
                diff = head_term(e_idx, h_blk) - sheaf.tail_maps[r] @ t_blk
                fixed += float(np.sum(diff * diff))
            elif v == target:  # u -> target
                a = head_term(e_idx, model.sections.block(entity_at[u]))
                proj = np.einsum("ij,cjm->cim", sheaf.tail_maps[r], xc)
                diff = a[None, :, :] - proj
                target_vec += np.einsum("cim,cim->c", diff, diff)
            else:  # target -> v
                t_blk = sheaf.tail_maps[r] @ model.sections.block(entity_at[v])
                proj = np.einsum("ij,cjm->cim", sheaf.head_maps[r], xc)
                if sheaf.translational:
                    proj = proj + sheaf.translations[r][None, :, :]
                diff = proj - t_blk[None, :, :]
                target_vec += np.einsum("cim,cim->c", diff, diff)
        best = np.minimum(best, fixed + target_vec)

    if sheaf.translational:
        graph, offsets = query_sheaf(qg, sheaf)
        best = best - affine_offset(graph, offsets, list(qg.boundary))
    return ranking_from_scores(candidates, best)


class TestEntityChaining:
    def test_no_interior_matches_answer_query(self, rng):
        for variant in ("shv", "shvt"):
            model = make_model(rng, variant=variant,
                               constraint="identity" if variant == "shvt" else "free")
            for tag, anchors, rels in (("1p", (0,), (0,)), ("2i", (0, 1), (0, 1))):
                q = Query(tag, anchors, rels)
                a = answer_query(q, model)
                b = entity_chaining_exact(q, model)
                np.testing.assert_array_equal(a.entity_ids, b.entity_ids)
                np.testing.assert_allclose(a.values, b.values, rtol=1e-10, atol=1e-10)

    def test_relaxation_bound_on_2p(self, rng):
        for variant in ("shv", "shvt"):
            model = make_model(
                rng, n_entities=20, variant=variant,
                constraint="identity" if variant == "shvt" else "free",
            )
            q = Query("2p", (0,), (0, 1))
            harmonic = answer_query(q, model)
            discrete = entity_chaining_exact(q, model)
            for c in range(20):
                assert harmonic.value_of(c) <= discrete.value_of(c) + 1e-8

    @staticmethod
    def _planted_two_hop(ds):
        triples = {(int(h), int(r), int(t)) for h, r, t in ds.kg.triples}
        for h, r, t in sorted(triples):
            for h2, r2, t2 in sorted(triples):
                if h2 == t:
                    return h, r, r2, t2
        raise AssertionError("no 2-hop path in planted data")

    def test_exact_intermediate_gives_zero_both_ways(self):
        ds = generate_planted_kg(30, 3, 8, 0.0, seed=11, variant="shv")
        model = ds.generator
        a, r1, r2, answer = self._planted_two_hop(ds)
        q = Query("2p", (a,), (r1, r2))
        harmonic = answer_query(q, model)
        discrete = entity_chaining_exact(q, model)
        assert harmonic.value_of(answer) == pytest.approx(0.0, abs=1e-12)
        assert discrete.value_of(answer) == pytest.approx(0.0, abs=1e-12)

    def test_exact_intermediate_translational_scores_agree_at_minimum(self):
        # translational values drop a query-wide constant, so the floor is -C
        ds = generate_planted_kg(30, 3, 8, 0.0, seed=11, variant="shvt")
        model = ds.generator
        a, r1, r2, answer = self._planted_two_hop(ds)
        q = Query("2p", (a,), (r1, r2))
        harmonic = answer_query(q, model)
        discrete = entity_chaining_exact(q, model)
        assert harmonic.value_of(answer) == pytest.approx(discrete.value_of(answer), rel=1e-9)
        assert int(harmonic.entity_ids[0]) == answer

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["shv", "shvt"]),
        m=st.sampled_from([1, 3]),
    )
    def test_one_residual_per_edge_matches_written_out_branches(self, seed, variant, m):
        rng = np.random.default_rng(seed)
        model = ragged_model(rng, variant, "free", m)
        for q in random_queries(rng, model, keys_per_structure=2, per_key=1):
            got, want = entity_chaining_exact(q, model), chaining_oracle(q, model)
            np.testing.assert_array_equal(got.entity_ids, want.entity_ids)
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12)

    def test_budget_refusal_carries_estimate(self, rng):
        model = make_model(rng, n_entities=30)
        with pytest.raises(BudgetExceededError, match="900"):
            entity_chaining_exact(Query("3p", (0,), (0, 1, 2)), model, budget=100)


class TestQueryFiles:
    def test_round_trip(self, tmp_path, rng):
        model = make_model(rng)
        queries = [
            Query("2p", (0,), (0, 1), frozenset({3, 4})),
            Query("2i", (1, 2), (0, 2), frozenset({5})),
        ]
        path = tmp_path / "q.tsv"
        write_queries(queries, path, model.entities, model.schema.relation_types)
        loaded = read_queries(path, model.entity_index(), model.schema)
        assert loaded == queries

    def test_unknown_entity_name(self, tmp_path, rng):
        model = make_model(rng)
        path = tmp_path / "q.tsv"
        path.write_text("1p\tnobody\tr0\te1\n", encoding="utf-8")
        with pytest.raises(QueryError, match="nobody"):
            read_queries(path, model.entity_index(), model.schema)

    def test_unknown_relation_names_file_and_line(self, tmp_path, rng):
        model = make_model(rng)
        path = tmp_path / "q.tsv"
        path.write_text("1p\te0\tr0\te1\n2p\te0\tr0,zz\te1\n", encoding="utf-8")
        with pytest.raises(QueryError) as err:
            read_queries(path, model.entity_index(), model.schema)
        assert str(err.value) == f"{path}:2: unknown relation 'zz'"

    @pytest.mark.parametrize("line, error, message", [
        ("1p\te0\tr0", QueryError, "expected 4 tab-separated fields"),
        ("1p\tnobody\tr0\te1", QueryError, "unknown entity 'nobody'"),
        ("1p\te0\tr0\tnobody", QueryError, "unknown entity 'nobody'"),
        ("1p\te0\tzz\te1", QueryError, "unknown relation 'zz'"),
        ("1p\te0\trr0\te1", QueryError, "unknown relation 'rr0' (did you mean 'r0'?)"),
        ("1p\te0\tr0\t", QueryError, "no answer entities"),
        ("9p\te0\tr0\te1", QueryError, "unknown query structure '9p'"),
        ("2p\te0\tr0\te1", QueryError, "2p queries take 1 anchor(s) and 2 relation(s), got 1 and 1"),
    ], ids=["field-count", "unknown-anchor", "unknown-answer", "unknown-relation", "close-relation",
            "no-answers", "unknown-structure", "arity"])
    def test_each_malformed_line_names_file_and_line(self, tmp_path, rng, line, error, message):
        model = make_model(rng)
        path = tmp_path / "q.tsv"
        path.write_text(f"1p\te0\tr0\te1\n\n{line}\n", encoding="utf-8")  # line 2 is blank
        with pytest.raises(error) as err:
            read_queries(path, model.entity_index(), model.schema)
        assert type(err.value) is error
        assert str(err.value) == f"{path}:3: {message}"

    # write_queries once refused these names itself; now no graph, schema or model can hold one
    @pytest.mark.parametrize("make, error, message", [
        (lambda: KnowledgeGraph(default_schema(1, 4, 4), ("a", "b", "c,d"), np.zeros(3, dtype=np.int64),
                                np.array([[0, 0, 1]]), np.zeros(1, dtype=np.int8)),
         ValidationError, "entity name 'c,d'"),
        (lambda: Schema(("entity",), ("r,0",), (0,), (0,), (4,), (4,)), SchemaError, "relation name 'r,0'"),
        (lambda: Model(default_schema(1, 4, 4), ("a", ""), np.zeros(2, dtype=np.int64),
                       *init_model(ModelConfig(), default_schema(1, 4, 4), np.zeros(2, dtype=np.int64), 0)),
         ValidationError, "entity name ''"),
    ], ids=["comma-answer", "comma-relation", "empty-anchor"])
    def test_a_name_it_cannot_hold_is_refused_where_made(self, make, error, message):
        with pytest.raises(error) as err:
            make()
        assert str(err.value) == f"{message} is empty or holds a TAB, LF, CR or comma"

    def test_a_loaded_comma_name_is_refused_at_its_line(self, tmp_path):
        # a 1p query anchored at 'c,d' was once written, and read back as anchored at 'c'
        (tmp_path / "t.tsv").write_text("a\tr0\tb\nc,d\tr0\ta\n", encoding="utf-8")
        vocab = VocabBuilder()
        with pytest.raises(TripleParseError, match=f"^{re.escape(str(tmp_path / 't.tsv'))}:2: field 1 'c,d' is"):
            load_triples(tmp_path / "t.tsv", default_schema(1, 4, 4), vocab)
        assert vocab.names == ["a", "b"]

    def test_ranking_from_scores_orders_by_value_then_index(self):
        ranking = ranking_from_scores(
            np.array([5, 3, 9], dtype=np.int64), np.array([1.0, 1.0, 0.5])
        )
        np.testing.assert_array_equal(ranking.entity_ids, [9, 3, 5])

    def test_position_takes_integer_ids_only(self):
        ranking = ranking_from_scores(np.arange(4, dtype=np.int64), np.array([0.4, 0.3, 0.2, 0.1]))
        assert ranking.position(np.int64(2)) == 1
        with pytest.raises(QueryError, match=re.escape("entity ids must be integers, got 2.7")):
            ranking.position(2.7)  # once entity 2's position
        with pytest.raises(QueryError, match=re.escape("entity ids must be integers, got True")):
            ranking.position(True)  # once entity 1's position
        for k in (2.5, True):  # top(2.5) once ended in numpy's TypeError, top(True) gave one pair
            with pytest.raises(QueryError, match=re.escape(f"k must be an integer, got {k}")):
                ranking.top(k)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_top_k_is_the_full_sort_head(data):
    """Partitioned ``top(k)`` against the first k of the full (value, id) lexsort."""
    n = data.draw(st.integers(0, 40))
    levels = data.draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4))  # ties cross the cut
    pool = levels + [np.nan, np.inf, -np.inf]
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    ids = np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=np.int64)
    k = data.draw(st.integers(-1, n + 2))
    order = np.lexsort((ids, values))
    ranking = ranking_from_scores(ids, values)
    want = [(int(ids[i]), repr(float(values[i]))) for i in order[:max(k, 0)]]
    got = ranking.top(k)
    assert all(type(e) is int and type(v) is float for e, v in got)
    assert [(e, repr(v)) for e, v in got] == want
    np.testing.assert_array_equal(ranking.entity_ids, ids[order])
    assert list(map(repr, ranking.values.tolist())) == list(map(repr, values[order].tolist()))
    assert not ranking.entity_ids.flags.writeable and not ranking.values.flags.writeable
    assert [(e, repr(v)) for e, v in ranking.top(k)] == want  # and once sorted
