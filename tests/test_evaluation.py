import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.errors import EvaluationError
from sheaf_kg.evaluation import (
    _TEMPLATES,
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
from sheaf_kg.kgdata import TEST, TRAIN, VALID, KnowledgeGraph, Schema, build_index, default_schema
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


def easy_queries_oracle(kg, index, structure, count, rng):
    """The easy-query sampler written out structure by structure."""
    train = kg.triples_of(TRAIN)
    train_entities = set(train[:, 0]) | set(train[:, 2])
    train_relations = set(train[:, 1])
    pool = np.concatenate([train, kg.triples_of(TEST)], axis=0)
    pool_index = build_index(kg, splits=(TRAIN, TEST))
    test_triples = kg.triples_of(TEST)

    def known(*entities, relations=()):
        return all(e in train_entities for e in entities) and all(
            r in train_relations for r in relations
        )

    def sample_edge_from(h, r):
        tails = sorted(pool_index.tails(h, r))
        return tails[rng.integers(0, len(tails))] if tails else None

    queries = {}
    attempts = 0
    max_attempts = max(200, 60 * count)
    while len(queries) < count and attempts < max_attempts:
        attempts += 1
        if structure == "1p":
            if len(test_triples) == 0:
                break
            h, r, t = (int(x) for x in test_triples[rng.integers(0, len(test_triples))])
            anchors, relations = (h,), (r,)
            if not known(h, t, relations=(r,)):
                continue
        else:
            h, r, t = (int(x) for x in pool[rng.integers(0, len(pool))])
            if structure in ("2p", "3p"):
                chain = [(h, r, t)]
                ok = True
                for _ in range(int(structure[0]) - 1):
                    r2 = int(rng.integers(0, kg.schema.n_relations))
                    nxt = sample_edge_from(chain[-1][2], r2)
                    if nxt is None:
                        ok = False
                        break
                    chain.append((chain[-1][2], r2, int(nxt)))
                if not ok:
                    continue
                anchors = (chain[0][0],)
                relations = tuple(e[1] for e in chain)
                mentioned = [v for e in chain for v in (e[0], e[2])]
            elif structure in ("2i", "3i"):
                n_branches = int(structure[0])
                branches = [(h, r)]
                for _ in range(n_branches - 1):
                    r2 = int(rng.integers(0, kg.schema.n_relations))
                    hs = sorted(pool_index.heads(t, r2))
                    if not hs:
                        branches = None
                        break
                    branches.append((int(hs[rng.integers(0, len(hs))]), r2))
                if branches is None or len({(a, b) for a, b in branches}) < n_branches:
                    continue
                anchors = tuple(b[0] for b in branches)
                relations = tuple(b[1] for b in branches)
                mentioned = list(anchors) + [t]
            elif structure == "ip":
                # two edges into an intersection vertex, one edge out of it
                u = t
                r2 = int(rng.integers(0, kg.schema.n_relations))
                hs = sorted(pool_index.heads(u, r2))
                if not hs:
                    continue
                a2 = int(hs[rng.integers(0, len(hs))])
                if (a2, r2) == (h, r):
                    continue
                r3 = int(rng.integers(0, kg.schema.n_relations))
                t_final = sample_edge_from(u, r3)
                if t_final is None:
                    continue
                anchors, relations = (h, a2), (r, r2, r3)
                mentioned = [h, a2, u, int(t_final)]
            elif structure == "pi":
                # a0 -r0-> u -r1-> t and a1 -r2-> t
                u = t
                r2 = int(rng.integers(0, kg.schema.n_relations))
                t_final = sample_edge_from(u, r2)
                if t_final is None:
                    continue
                r3 = int(rng.integers(0, kg.schema.n_relations))
                hs = sorted(pool_index.heads(int(t_final), r3))
                if not hs:
                    continue
                a2 = int(hs[rng.integers(0, len(hs))])
                anchors, relations = (h, a2), (r, r2, r3)
                mentioned = [h, u, int(t_final), a2]
            if not known(*mentioned, relations=relations):
                continue
        key = (structure, anchors, relations)
        if key in queries:
            continue
        answers = traverse_oracle(index, structure, anchors, relations)
        if not answers:
            continue
        queries[key] = Query(structure, anchors, relations, frozenset(int(x) for x in answers))
    return list(queries.values())


def easy_queries_per_call_index(kg, index, structure, count, rng):
    """``build_easy_queries`` as written when each call indexed the train and test triples itself."""
    train = kg.triples_of(TRAIN)
    train_entities = set(train[:, 0]) | set(train[:, 2])
    train_relations = set(train[:, 1])
    pool_index = build_index(kg, splits=(TRAIN, TEST))
    first = kg.triples_of(TEST)
    if structure != "1p":
        first = np.concatenate([train, first], axis=0)
    edges, anchor_vertices = _TEMPLATES[structure]["edges"], _TEMPLATES[structure]["anchors"]
    last_into = {v: i for i, (_, _, v) in enumerate(edges)}

    def walk():
        at, rel = {}, {}
        head_v, slot, tail_v = edges[0]
        at[head_v], rel[slot], at[tail_v] = first[rng.integers(0, len(first))].tolist()
        for i, (head_v, slot, tail_v) in enumerate(edges[1:], start=1):
            rel[slot] = r = int(rng.integers(0, kg.schema.n_relations))
            if head_v in at:
                new_v, choices = tail_v, pool_index.tails(at[head_v], r)
            else:
                new_v, choices = head_v, pool_index.heads(at[tail_v], r)
            if not choices:
                return None
            at[new_v] = int(choices[rng.integers(0, len(choices))])
            if i == last_into[tail_v]:
                pairs = [(at[u], rel[s]) for u, s, v in edges
                         if v == tail_v and u in anchor_vertices]
                if len(set(pairs)) < len(pairs):
                    return None
        if not (set(at.values()) <= train_entities and set(rel.values()) <= train_relations):
            return None
        return tuple(at[v] for v in anchor_vertices), tuple(rel[s] for s in sorted(rel))

    queries = {}
    attempts = 0
    while len(first) and len(queries) < count and attempts < max(200, 60 * count):
        attempts += 1
        placed = walk()
        if placed is None or (structure, *placed) in queries:
            continue
        answers = _traverse_answers(index, structure, *placed)
        if answers:
            queries[(structure, *placed)] = Query(structure, *placed, frozenset(answers))
    return list(queries.values())


def random_split_kg(rng, two_types, with_test, with_valid=True, duplicates=False):
    """A small random graph over one or two entity types; every split may be drawn.

    With ``duplicates``, some triples appear a second time, in another split.
    """
    n, n_relations = int(rng.integers(2, 12)), int(rng.integers(1, 4))
    n_types = 2 if two_types else 1
    schema = Schema(
        entity_types=("a", "b")[:n_types],
        relation_types=tuple(f"r{k}" for k in range(n_relations)),
        head_type=tuple(int(x) for x in rng.integers(0, n_types, n_relations)),
        tail_type=tuple(int(x) for x in rng.integers(0, n_types, n_relations)),
        vertex_dim=(2,) * n_types,
        edge_dim=(2,) * n_relations,
    )
    entity_type = np.arange(n, dtype=np.int64) % n_types
    rows = []
    for _ in range(int(rng.integers(1, 40))):
        r = int(rng.integers(0, n_relations))
        heads = np.flatnonzero(entity_type == schema.head_type[r])
        tails = np.flatnonzero(entity_type == schema.tail_type[r])
        rows.append((int(rng.choice(heads)), r, int(rng.choice(tails))))
    triples = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    # codes 0, 1, 2 are train, valid, test
    p = np.array([0.6, 0.15 * with_valid, 0.3 * with_test])
    split = rng.choice(np.arange(3, dtype=np.int8), size=len(triples), p=p / p.sum())
    split[0] = 0  # a nonempty training split
    if duplicates:
        again = rng.random(len(triples)) < 0.3
        moved = (split[again] + rng.integers(1, 3, size=int(again.sum()))) % 3
        keep = (moved != 1) | with_valid
        triples = np.concatenate([triples, triples[again][keep]])
        split = np.concatenate([split, moved[keep].astype(np.int8)])
        order = rng.permutation(len(triples))
        triples, split = triples[order], split[order]
    return KnowledgeGraph(
        schema=schema,
        entities=tuple(f"e{i}" for i in range(n)),
        entity_type=entity_type,
        triples=triples,
        split=split,
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    two_types=st.booleans(),
    with_test=st.booleans(),
    count=st.integers(1, 12),
)
def test_template_walk_samples_as_written_out_structures(seed, two_types, with_test, count):
    kg = random_split_kg(np.random.default_rng(seed), two_types, with_test)
    index = build_index(kg)
    for k, structure in enumerate(STRUCTURES):
        ours, theirs = np.random.default_rng((seed, k)), np.random.default_rng((seed, k))
        got = build_easy_queries(kg, index, structure, count, ours)
        assert got == easy_queries_oracle(kg, index, structure, count, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    two_types=st.booleans(),
    with_test=st.booleans(),
    with_valid=st.booleans(),
    duplicates=st.booleans(),
    count=st.integers(1, 12),
)
def test_shared_index_samples_as_a_per_call_pool_index(
    seed, two_types, with_test, with_valid, duplicates, count
):
    """One stream and one full index across all seven structures, as a set-up samples them."""
    kg = random_split_kg(np.random.default_rng(seed), two_types, with_test, with_valid, duplicates)
    index = build_index(kg)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for structure in STRUCTURES:
        got = build_easy_queries(kg, index, structure, count, ours)
        assert got == easy_queries_per_call_index(kg, index, structure, count, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


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

    def test_index_that_misses_a_triple_is_rejected(self):
        schema = default_schema(1, 4, 4)
        kg = KnowledgeGraph(
            schema=schema,
            entities=("a", "b", "c"),
            entity_type=np.zeros(3, dtype=np.int64),
            triples=np.array([[0, 0, 1], [1, 0, 2], [2, 0, 0], [0, 0, 2]], dtype=np.int64),
            split=np.array([0, 0, 1, 2], dtype=np.int8),
        )
        other = KnowledgeGraph(schema, ("a", "b", "c", "d"), np.zeros(4, dtype=np.int64),
                               kg.triples, kg.split)
        for index in (build_index(kg, splits=(TRAIN,)), build_index(kg, splits=(TRAIN, TEST)),
                      build_index(kg, splits=(VALID,)), build_index(other)):
            with pytest.raises(EvaluationError, match="must cover every triple"):
                build_easy_queries(kg, index, "1p", 3, substream(0, "queries"))
        assert build_easy_queries(kg, build_index(kg), "1p", 3, substream(0, "queries"))

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
