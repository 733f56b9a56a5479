import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.errors import EvaluationError
from sheaf_kg.evaluation import (
    _traverse_answers,
    aggregate_reports,
    build_easy_queries,
    evaluate,
    filtered_rank,
    format_report_table,
    hits_at_k,
    mrr,
    write_report,
    MetricReport,
    StructureMetrics,
)
from sheaf_kg.kgdata import KnowledgeGraph, build_index, default_schema
from sheaf_kg.model import ModelConfig, init_for_kg
from sheaf_kg.query import STRUCTURE_ARITY, STRUCTURES, Query, ranking_from_scores
from sheaf_kg.seeds import substream
from sheaf_kg.synth import generate_planted_kg


def ranking_of(values):
    return ranking_from_scores(np.arange(len(values), dtype=np.int64), np.asarray(values, float))


class TestFilteredRank:
    def test_best_answer_is_rank_one(self):
        assert filtered_rank(ranking_of([0.1, 0.5, 0.9]), 0) == 1

    def test_other_answers_are_discounted(self):
        # answer sits 3rd but both better candidates are true answers
        ranking = ranking_of([0.1, 0.2, 0.3, 0.9])
        assert filtered_rank(ranking, 2, other_answers={0, 1}) == 1

    def test_absent_answer_is_error(self):
        with pytest.raises(Exception):
            filtered_rank(ranking_of([0.1]), 5)

    def test_matches_counting_oracle(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            values = np.round(rng.normal(size=n), 1)  # coarse values force ties
            ranking = ranking_from_scores(np.arange(n, dtype=np.int64), values)
            answer = int(rng.integers(0, n))
            others = set(
                int(x) for x in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            ) - {answer}
            got = filtered_rank(ranking, answer, others)
            key = {int(e): (float(v), int(e)) for e, v in zip(ranking.entity_ids, ranking.values)}
            expected = 1 + sum(
                1
                for c in range(n)
                if c != answer and c not in others and key[c] < key[answer]
            )
            assert got == expected

    def test_filtering_never_increases_rank(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            ranking = ranking_of(rng.normal(size=n))
            answer = int(rng.integers(0, n))
            others = {int(x) for x in rng.choice(n, size=n // 2, replace=False)}
            assert filtered_rank(ranking, answer, others) <= filtered_rank(ranking, answer)


class TestMetrics:
    def test_mrr_of_perfect_ranks(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_mrr_arithmetic(self):
        assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_mrr_matches_scalar_loop(self, rng):
        ranks = [int(r) for r in rng.integers(1, 500, size=1000)]
        total = 0.0
        for r in ranks:
            total += 1.0 / r
        assert mrr(ranks) == pytest.approx(total / len(ranks), rel=1e-12)

    def test_mrr_empty_is_error(self):
        with pytest.raises(EvaluationError):
            mrr([])

    def test_hits_examples(self):
        assert hits_at_k([1, 11, 5], 10) == pytest.approx(2 / 3)
        assert hits_at_k([1, 1, 1], 7) == 1.0

    def test_hits_empty_is_error(self):
        with pytest.raises(EvaluationError):
            hits_at_k([], 10)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_hits_monotone_in_k_and_mrr_bounds(self, ranks):
        assert hits_at_k(ranks, 1) <= hits_at_k(ranks, 10) <= 1.0
        assert 1.0 / max(ranks) <= mrr(ranks) * (1 + 1e-12) and mrr(ranks) <= 1.0


def path_kg():
    """a -> b -> c with both edges in train."""
    schema = default_schema(1, 4, 4)
    return KnowledgeGraph(
        schema=schema,
        entities=("a", "b", "c"),
        entity_type=np.zeros(3, dtype=np.int64),
        triples=np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64),
        split=np.zeros(2, dtype=np.int8),
    )


def traverse_oracle(index, structure, a, r):
    """The answer sets written out structure by structure."""
    if structure == "1p":
        return set(index.tails(a[0], r[0]))
    if structure == "2p":
        return {t for u in index.tails(a[0], r[0]) for t in index.tails(u, r[1])}
    if structure == "3p":
        return {
            t
            for u in index.tails(a[0], r[0])
            for v in index.tails(u, r[1])
            for t in index.tails(v, r[2])
        }
    if structure == "2i":
        return set(index.tails(a[0], r[0])) & set(index.tails(a[1], r[1]))
    if structure == "3i":
        return (
            set(index.tails(a[0], r[0]))
            & set(index.tails(a[1], r[1]))
            & set(index.tails(a[2], r[2]))
        )
    if structure == "ip":
        mid = set(index.tails(a[0], r[0])) & set(index.tails(a[1], r[1]))
        return {t for u in mid for t in index.tails(u, r[2])}
    assert structure == "pi"
    via_path = {t for u in index.tails(a[0], r[0]) for t in index.tails(u, r[1])}
    return via_path & set(index.tails(a[1], r[2]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), n_relations=st.integers(1, 3), data=st.data())
def test_template_traversal_matches_written_out_structures(n, n_relations, data):
    entity, relation = st.integers(0, n - 1), st.integers(0, n_relations - 1)
    triples = data.draw(st.lists(st.tuples(entity, relation, entity), max_size=30, unique=True))
    kg = KnowledgeGraph(
        schema=default_schema(n_relations, 4, 4),
        entities=tuple(f"e{i}" for i in range(n)),
        entity_type=np.zeros(n, dtype=np.int64),
        triples=np.array(triples, dtype=np.int64).reshape(-1, 3),
        split=np.zeros(len(triples), dtype=np.int8),
    )
    index = build_index(kg)
    for structure in STRUCTURES:
        n_anchors, n_edges = STRUCTURE_ARITY[structure]
        anchors = tuple(data.draw(st.lists(entity, min_size=n_anchors, max_size=n_anchors)))
        relations = tuple(data.draw(st.lists(relation, min_size=n_edges, max_size=n_edges)))
        assert _traverse_answers(index, structure, anchors, relations) == traverse_oracle(
            index, structure, anchors, relations
        )


class TestBuildEasyQueries:
    def test_1p_queries_are_test_triples_with_trained_parts(self):
        schema = default_schema(1, 4, 4)
        kg = KnowledgeGraph(
            schema=schema,
            entities=("a", "b", "c", "d"),
            entity_type=np.zeros(4, dtype=np.int64),
            triples=np.array(
                [[0, 0, 1], [1, 0, 2], [0, 0, 2], [3, 0, 0]], dtype=np.int64
            ),
            split=np.array([0, 0, 2, 2], dtype=np.int8),
        )
        index = build_index(kg)
        queries = build_easy_queries(kg, index, "1p", 10, substream(0, "queries"))
        # (3,0,0) is excluded: entity d never appears in training
        assert {(q.anchors, q.relations) for q in queries} == {((0,), (0,))}
        (q,) = queries
        assert q.answers == {1, 2}

    def test_2p_on_three_vertex_path(self):
        kg = path_kg()
        index = build_index(kg)
        queries = build_easy_queries(kg, index, "2p", 5, substream(1, "queries"))
        assert len(queries) == 1
        (q,) = queries
        assert q.anchors == (0,) and q.answers == {2}

    def test_answers_match_exhaustive_traversal(self, rng):
        n = 100
        schema = default_schema(3, 4, 4)
        triples = np.unique(
            np.stack(
                [rng.integers(0, n, 500), rng.integers(0, 3, 500), rng.integers(0, n, 500)],
                axis=1,
            ),
            axis=0,
        ).astype(np.int64)
        split = np.zeros(len(triples), dtype=np.int8)
        split[rng.random(len(triples)) < 0.2] = 2
        kg = KnowledgeGraph(
            schema=schema,
            entities=tuple(f"e{i}" for i in range(n)),
            entity_type=np.zeros(n, dtype=np.int64),
            triples=triples,
            split=split,
        )
        index = build_index(kg)
        triple_set = {tuple(map(int, row)) for row in triples}
        for tag in ("2p", "2i", "ip", "pi"):
            queries = build_easy_queries(kg, index, tag, 15, substream(2, "queries"))
            for q in queries:
                a, r = q.anchors, q.relations
                if tag == "2p":
                    expected = {
                        t2 for h1, r1, t1 in triple_set if (h1, r1) == (a[0], r[0])
                        for h2, r2, t2 in triple_set if (h2, r2) == (t1, r[1])
                    }
                elif tag == "2i":
                    expected = {
                        t for h1, r1, t in triple_set if (h1, r1) == (a[0], r[0])
                    } & {t for h2, r2, t in triple_set if (h2, r2) == (a[1], r[1])}
                elif tag == "ip":
                    mid = {
                        t for h1, r1, t in triple_set if (h1, r1) == (a[0], r[0])
                    } & {t for h2, r2, t in triple_set if (h2, r2) == (a[1], r[1])}
                    expected = {
                        t for u in mid
                        for h3, r3, t in triple_set if (h3, r3) == (u, r[2])
                    }
                else:  # pi
                    path = {
                        t2 for h1, r1, t1 in triple_set if (h1, r1) == (a[0], r[0])
                        for h2, r2, t2 in triple_set if (h2, r2) == (t1, r[1])
                    }
                    expected = path & {
                        t for h3, r3, t in triple_set if (h3, r3) == (a[1], r[2])
                    }
                assert q.answers == expected

    def test_sparse_graph_warns_and_returns_fewer(self, caplog):
        import logging

        kg = path_kg()
        index = build_index(kg)
        with caplog.at_level(logging.WARNING):
            queries = build_easy_queries(kg, index, "3i", 4, substream(3, "queries"))
        assert len(queries) < 4


class TestEvaluate:
    def _perfect_model_setup(self):
        ds = generate_planted_kg(40, 3, 8, 0.0, seed=1, variant="shvt")
        index = build_index(ds.kg)
        queries = build_easy_queries(ds.kg, index, "1p", 20, substream(5, "queries"))
        return ds.generator, queries

    def test_generating_model_is_perfect(self):
        model, queries = self._perfect_model_setup()
        report = evaluate(model, queries)
        m = report.per_structure["1p"]
        assert m.mrr == 1.0
        assert m.hits1 == 1.0

    def test_single_query_rank_four(self, rng):
        ds = generate_planted_kg(10, 3, 4, 0.0, seed=2, variant="shvt")
        cfg = ModelConfig(variant="shvt", constraint="identity", entity_dim=4, relation_dim=4)
        model = init_for_kg(cfg, ds.kg, seed=3)
        q = Query("1p", (0,), (0,))
        from sheaf_kg.query import answer_query

        ranking = answer_query(q, model)
        answer = int(ranking.entity_ids[3])  # whoever lands at rank 4
        report = evaluate(model, [Query("1p", (0,), (0,), frozenset({answer}))])
        m = report.per_structure["1p"]
        assert m.mrr == pytest.approx(0.25)
        assert m.hits10 == 1.0
        assert m.hits1 == 0.0

    def test_empty_queries_rejected(self):
        model, _ = self._perfect_model_setup()
        with pytest.raises(EvaluationError):
            evaluate(model, [])

    def test_deterministic(self):
        model, queries = self._perfect_model_setup()
        assert evaluate(model, queries) == evaluate(model, queries)


class TestAggregation:
    def _report(self, mrr_v, h1, h10, tag="2p", n=7):
        return MetricReport(
            per_structure={tag: StructureMetrics(mrr=mrr_v, hits1=h1, hits10=h10,
                                                 n_ranks=n, n_queries=n)}
        )

    def test_mean_and_population_std(self):
        reports = [self._report(v, 0.1, 0.5) for v in (0.2, 0.4, 0.6)]
        out = aggregate_reports(reports)
        mean, std = out["2p"]["mrr"]
        assert mean == pytest.approx(0.4)
        assert std == pytest.approx(float(np.std([0.2, 0.4, 0.6])))  # population

    def test_hand_aggregation_of_three_seeds(self):
        vals = [(0.5, 0.2, 0.9), (0.7, 0.3, 0.8), (0.6, 0.4, 1.0)]
        reports = [self._report(*v) for v in vals]
        out = aggregate_reports(reports)
        for i, name in enumerate(("mrr", "hits1", "hits10")):
            col = [v[i] for v in vals]
            assert out["2p"][name][0] == pytest.approx(float(np.mean(col)))
            assert out["2p"][name][1] == pytest.approx(float(np.std(col)))

    def test_report_file_format(self, tmp_path):
        out = aggregate_reports([self._report(0.5, 0.25, 0.75)])
        path = tmp_path / "report.tsv"
        write_report(out, path, counts={"2p": 7})
        lines = path.read_text().strip().split("\n")
        assert all(len(line.split("\t")) == 4 for line in lines)
        assert any(line.startswith("2p\tmrr\t0.5\t") for line in lines)
        table = format_report_table(out)
        assert "2p" in table and "50.00" in table
