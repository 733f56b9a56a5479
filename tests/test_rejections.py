"""Bad input that no other test feeds: each rejection's error class and message.

Every case is a raise in ``src/`` that the rest of the suite never reaches,
so a change to its class or text shows here first.
"""

import re

import numpy as np
import pytest

from sheaf_kg.config import build_settings, read_config_file
from sheaf_kg.errors import ConfigError, EvaluationError, QueryError, ShapeError, ValidationError
from sheaf_kg.evaluation import aggregate_reports, build_easy_queries, evaluate, hits_at_k
from sheaf_kg.kgdata import KnowledgeGraph, Schema, build_index, default_schema
from sheaf_kg.model import (
    KnowledgeSheaf,
    Model,
    ModelConfig,
    SectionMatrix,
    init_for_kg,
    init_model,
    orthonormal_columns,
)
from sheaf_kg.query import Query, answer_query, answer_query_graph, build_query_graph
from sheaf_kg.sheaf import BlockLaplacian, SheafOnGraph, interior_vertices
from sheaf_kg.synth import generate_planted_kg
from sheaf_kg.training import TrainConfig, _StackedParams

PERSON_CITY = Schema(("person", "city"), ("lives_in",), (0,), (1,), (3, 2), (2,))


def planted():
    return generate_planted_kg(20, 2, 4, 0.0, seed=0, variant="shv")


def graph_without_training_split():
    kg = planted().kg
    return KnowledgeGraph(kg.schema, kg.entities, kg.entity_type, kg.triples,
                          np.full(len(kg.triples), 2, dtype=np.int8))


def person_city_model(types=(0, 0, 0, 0)):
    """A model of ``PERSON_CITY`` whose entities a, b, c, d have ``types``; by default all are people."""
    types = np.array(types, dtype=np.int64)
    sheaf, sections = init_model(ModelConfig(), PERSON_CITY, types, seed=0)
    return Model(PERSON_CITY, ("a", "b", "c", "d"), types, sheaf, sections)


def sections_wider_than_the_maps():
    """A model whose sections are padded to one row more than its widest vertex dim."""
    ds = planted()
    model = init_for_kg(ModelConfig(), ds.kg, seed=0)
    blocks = [model.sections.block(i) for i in range(model.n_entities)]
    return Model(model.schema, model.entities, model.entity_type, model.sheaf,
                 SectionMatrix(1, blocks, dim=5))


def two_vertex_sheaf(edges=((0, 1),), edge_dims=(1,)):
    maps = tuple(np.ones((1, 1)) for _ in edges)
    return SheafOnGraph((1, 1), edges, edge_dims, maps, maps)


def one_relation_sheaf(**overrides):
    schema = default_schema(1, 2, 2)
    args = dict(head_maps=[np.eye(2)], tail_maps=[np.eye(2)], constraints=["free"])
    return KnowledgeSheaf(schema, **(args | overrides))


LAPLACIAN = BlockLaplacian((1, 1, 1), np.eye(3))

REJECTIONS = {
    # config
    "no-equals-sign": (lambda p: read_config_file(p("epochs 3\n")), ConfigError,
                       "{path}:1: expected key=value, got 'epochs 3'"),
    "unknown-override-key": (lambda p: build_settings(overrides={"epoch": 3}), ConfigError,
                             "invalid override key 'epoch'"),
    # once the last value silently won
    "conflicting-config-key": (lambda p: read_config_file(p("epochs=1\nepochs = 7\n")), ConfigError,
                               "{path}:2: epochs is '7' here, '1' on line 1"),
    "conflicting-constraint-key": (
        lambda p: read_config_file(p("constraint.r0=identity\n# free it\nconstraint.r0=free\n")),
        ConfigError, "{path}:3: constraint.r0 is 'free' here, 'identity' on line 1"),
    # evaluation
    "hits-at-zero": (lambda p: hits_at_k([1, 2], 0), EvaluationError, "k must be >= 1"),
    # once read as 0.667 and 0.333
    "hits-at-a-float": (lambda p: hits_at_k([1, 2, 3], 2.5), EvaluationError, "k must be an integer, got 2.5"),
    "hits-at-a-bool": (lambda p: hits_at_k([1, 2, 3], True), EvaluationError, "k must be an integer, got True"),
    "no-training-split": (
        lambda p: build_easy_queries(graph_without_training_split(), build_index(planted().kg), "1p",
                                     3, np.random.default_rng(0)),
        EvaluationError, "easy-query construction needs a nonempty training split"),
    "unknown-method": (
        lambda p: evaluate(planted().generator, [Query("1p", (0,), (0,), frozenset({1}))], "exact"),
        EvaluationError,
        "unknown evaluation method 'exact'; valid: ('harmonic', 'naive', 'chaining')"),
    "no-reports": (lambda p: aggregate_reports([]), EvaluationError, "no reports to aggregate"),
    # once n_queries=2 and n_ranks=1: the first query was dropped from the metrics without a word
    "query-without-answers": (
        lambda p: evaluate(planted().generator, [Query("1p", (0,), (0,), frozenset()),
                                                 Query("1p", (1,), (0,), frozenset({2}))]),
        EvaluationError, "query 0, the 1p query on relations (0,), has no answers"),
    # both once raised a bare "entity 0 not present in ranking" naming no query
    "answer-of-another-type": (
        lambda p: evaluate(person_city_model((0, 0, 1, 1)), [Query("1p", (0,), (0,), frozenset({2})),
                                                             Query("1p", (1,), (0,), frozenset({0, 3}))]),
        QueryError, "query 1, the 1p query on relations (0,), has answer 0, which is not a candidate of its "
                    "target's type"),
    "answer-out-of-range": (  # the 2p query is in a later batch than query 2, but first in query order
        lambda p: evaluate(planted().generator, [Query("1p", (0,), (0,), frozenset({1})),
                                                 Query("2p", (0,), (0, 1), frozenset({999})),
                                                 Query("1p", (1,), (0,), frozenset({1000}))]),
        QueryError, "query 1, the 2p query on relations (0, 1), has answer 999, which is not a candidate of "
                    "its target's type"),
    # once returned [] without a warning
    "negative-count": (
        lambda p: build_easy_queries(planted().kg, build_index(planted().kg), "1p", -5, np.random.default_rng(0)),
        QueryError, "count must be >= 0, got -5"),
    # model
    "unknown-variant": (lambda p: ModelConfig(variant="shx"), ConfigError,
                        "variant must be one of ('shv', 'shvt'), got 'shx'"),
    "unknown-constraint": (lambda p: ModelConfig(constraint="unitary"), ConfigError,
                           "unknown constraint 'unitary'; valid: "),
    "short-relation-tables": (lambda p: one_relation_sheaf(constraints=[]), ShapeError,
                              "per-relation tables must match the schema's relation count"),
    "translation-count": (lambda p: one_relation_sheaf(translations=[]), ShapeError,
                          "translations must have one block per relation"),
    "no-section-columns": (lambda p: SectionMatrix(0, [np.zeros((2, 0))]), ShapeError,
                           "need at least one section column"),
    "no-padded-columns": (lambda p: SectionMatrix.from_padded(np.zeros((3, 2, 0)), np.full(3, 2)),
                          ShapeError, "need at least one section column"),
    "wide-orthonormal": (lambda p: orthonormal_columns(np.ones((2, 3))), ConfigError,
                         "cannot orthonormalize columns of a (2, 3) matrix: fewer rows than columns"),
    # query
    "relation-out-of-range": (
        lambda p: build_query_graph(Query("1p", (0,), (5,)), default_schema(2, 4, 4)),
        QueryError, "relation index 5 out of range"),
    "target-type-without-entities": (
        lambda p: answer_query(Query("1p", (0,), (0,)), person_city_model()),
        QueryError, "no entities of the target's type 'city' exist"),
    "anchor-count": (
        lambda p: answer_query_graph(build_query_graph(Query("2i", (0, 1), (0, 1)), default_schema(2, 4, 4)),
                                     planted().generator, (0,)),
        QueryError, "anchor count does not match the query graph"),
    # sheaf
    "unequal-edge-tables": (lambda p: two_vertex_sheaf(edge_dims=()), ShapeError,
                            "edge tables must have equal lengths"),
    "unknown-edge-vertex": (lambda p: two_vertex_sheaf(edges=((0, 2),)), ShapeError,
                            "edge 0 references unknown vertex"),
    "repeated-boundary-vertex": (lambda p: interior_vertices(LAPLACIAN, [0, 0]), ValidationError,
                                 "boundary set contains duplicates"),
    "boundary-vertex-out-of-range": (lambda p: interior_vertices(LAPLACIAN, [0, 3]), ValidationError,
                                     "boundary vertex 3 out of range"),
    # synth
    "generator-variant": (lambda p: generate_planted_kg(20, 2, 4, 0.0, seed=0, variant="shx"),
                          ConfigError, "unknown variant 'shx'"),
    "rotation-generator-dim-1": (lambda p: generate_planted_kg(20, 2, 1, 0.0, seed=0, variant="shv"),
                                 ConfigError, "the non-translational generator needs dim >= 2"),
    # training
    "no-epochs": (lambda p: TrainConfig(epochs=0), ConfigError, "epochs must be >= 1"),
    "empty-batches": (lambda p: TrainConfig(batch_size=0), ConfigError, "batch_size must be >= 1"),
    "no-negatives": (lambda p: TrainConfig(negatives_per_positive=0), ConfigError,
                     "negatives_per_positive must be >= 1"),
    "unknown-optimizer": (lambda p: TrainConfig(optimizer="adam"), ConfigError,
                          "optimizer must be one of ('sgd', 'adagrad')"),
    "sections-wider-than-maps": (lambda p: _StackedParams(sections_wider_than_the_maps(), TrainConfig()),
                                 ShapeError, "sections are padded to 5 rows, the schema needs 4"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection_class_and_message(tmp_path, case):
    path = tmp_path / "input.txt"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return path

    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as err:
        call(write)
    assert type(err.value) is error
    assert re.fullmatch(re.escape(message.format(path=path)) + ".*", str(err.value))


def test_comment_and_blank_lines_of_a_config_file_are_skipped(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n   # an indented one\nepochs = 3  # trailing\n", encoding="utf-8")
    assert read_config_file(path) == {"epochs": "3"}


def test_a_config_key_may_repeat_with_the_same_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs=3\nconstraint.r0=free\nepochs = 3\nconstraint.r0=free\n", encoding="utf-8")
    assert read_config_file(path) == {"epochs": "3", "constraint.r0": "free"}


def test_an_index_without_keys_contains_nothing():
    kg = planted().kg
    index = build_index(kg, splits=())
    assert len(index.keys) == 0
    assert not index.contains(kg.triples).any()
    assert index.contains(kg.triples).shape == (len(kg.triples),)
