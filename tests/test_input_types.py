"""Wrong-typed config fields and query ids end in a ``SheafKGError``, never a builtins error."""

import functools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.errors import ConfigError, QueryError, SheafKGError
from sheaf_kg.evaluation import evaluate
from sheaf_kg.model import ModelConfig, init_for_kg
from sheaf_kg.query import Query
from sheaf_kg.synth import generate_planted_kg
from sheaf_kg.training import TrainConfig, train

SMALL_MODEL = dict(variant="shvt", entity_dim=4, relation_dim=4)
SMALL_TRAIN = dict(epochs=1, batch_size=64, negatives_per_positive=2)

INT_FIELDS = [(cls, f.name) for cls in (ModelConfig, TrainConfig) for f in fields(cls) if f.type == "int"]
FLOAT_FIELDS = [(cls, f.name) for cls in (ModelConfig, TrainConfig) for f in fields(cls)
                if f.type in ("float", "float | None")]
NOT_AN_INT = st.one_of(st.floats(), st.text(max_size=4), st.booleans(), st.none())
NOT_A_FLOAT = st.one_of(st.text(max_size=4), st.booleans(), st.none())


@functools.cache
def planted():
    return generate_planted_kg(50, 3, 4, 0.0, seed=1, variant="shvt")


def train_once(model_values: dict, train_values: dict):
    """Build both configs over the small defaults, then init and train one epoch on ``planted()``."""
    model_config = ModelConfig(**SMALL_MODEL | model_values)
    train_config = TrainConfig(**SMALL_TRAIN | train_values)
    kg = planted().kg
    return train(kg, train_config, init_for_kg(model_config, kg, train_config.seed))


def test_fields_cover_both_configs():
    assert {name for _, name in INT_FIELDS} == {
        "sections", "entity_dim", "relation_dim", "epochs", "batch_size",
        "negatives_per_positive", "seed",
    }
    assert {name for _, name in FLOAT_FIELDS} == {"alpha", "margin", "learning_rate", "max_entity_norm"}


@pytest.mark.parametrize("cls, name", INT_FIELDS + FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in INT_FIELDS + FLOAT_FIELDS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wrong_typed_config_field_is_a_sheaf_kg_error(cls, name, data):
    # TrainConfig(epochs=1.5) once ended in a TypeError inside train(), and seed=True trained seed 1
    wrong = NOT_AN_INT if (cls, name) in INT_FIELDS else NOT_A_FLOAT
    value = data.draw(wrong.filter(lambda v: not (v is None and name == "max_entity_norm")))
    values = {name: value}
    with pytest.raises(SheafKGError):
        train_once(*((values, {}) if cls is ModelConfig else ({}, values)))


@pytest.mark.parametrize("position", ["anchor 0", "anchor 1", "relation 0", "relation 1", "answer"])
@settings(max_examples=25, deadline=None)
@given(value=NOT_AN_INT)
def test_wrong_typed_query_id_is_a_sheaf_kg_error(position, value):
    # Query("1p", (True,), (False,), frozenset({True})) was once a query on entity 1
    anchors, relations, answers = [0, 1], [0, 1], frozenset({2})
    kind, _, slot = position.partition(" ")
    if kind == "answer":
        answers = frozenset({value})
    else:
        (anchors if kind == "anchor" else relations)[int(slot)] = value
    with pytest.raises(SheafKGError):
        evaluate(planted().generator, [Query("2i", tuple(anchors), tuple(relations), answers)])


def test_numpy_integers_and_ints_for_floats_are_accepted():
    model, report = train_once(
        dict(sections=np.int64(2), alpha=0, margin=1, entity_dim=np.int32(4)),
        dict(epochs=np.int64(1), batch_size=np.int16(64), negatives_per_positive=np.int8(2),
             margin=1, alpha=0, max_entity_norm=2, seed=np.int64(3)),
    )
    want, want_report = train_once(
        dict(sections=2, alpha=0.0, margin=1.0),
        dict(margin=1.0, alpha=0.0, max_entity_norm=2.0, seed=3),
    )
    assert model.sections.X.tobytes() == want.sections.X.tobytes()
    assert report.epoch_mean_loss == want_report.epoch_mean_loss
    assert type(TrainConfig(epochs=np.int64(2)).epochs) is int
    query = Query("2i", (np.int64(0), np.int32(1)), (np.int16(0), 1), frozenset({np.int64(2)}))
    evaluate(planted().generator, [query])


@pytest.mark.parametrize("overrides", [None, "r0=identity", [("r0", "identity")]])
def test_constraint_overrides_must_be_a_dict(overrides):
    # None once ended in an AttributeError from .values()
    with pytest.raises(ConfigError, match="constraint_overrides must be dict"):
        ModelConfig(constraint_overrides=overrides)


@pytest.mark.parametrize("field", ["anchors", "relations", "answers"])
@pytest.mark.parametrize("value", [None, 0, 1.5])
def test_query_id_collection_must_be_a_collection(field, value):
    # Query("1p", None, (0,)) once ended in a TypeError from len()
    parts = dict(structure="1p", anchors=(0,), relations=(0,), answers=frozenset({1}))
    with pytest.raises(QueryError, match=f"{field} must be a collection of ids, got {value!r}"):
        Query(**parts | {field: value})


def test_query_holds_a_tuple_of_ids_and_a_frozenset_of_answers():
    query = Query("2i", [0, 1], [1, 0], answers=[2, 2])
    assert query == Query("2i", (0, 1), (1, 0), frozenset({2}))
    assert type(query.anchors) is tuple and type(query.relations) is tuple
    assert type(query.answers) is frozenset
    hash(query)
