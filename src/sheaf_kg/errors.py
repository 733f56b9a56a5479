"""Exception types shared across the package, and the type rules of the inputs they guard."""

import operator
from dataclasses import fields


class SheafKGError(Exception):
    """Base class for all errors raised by sheaf_kg."""


class TripleParseError(SheafKGError):
    """A line of a TAB-separated file has the wrong number of fields, or one that breaks the name rule."""


class SchemaError(SheafKGError):
    """Schema is malformed or a referenced type/relation is missing."""


class ValidationError(SheafKGError):
    """Data violates a structural invariant (e.g. type consistency)."""


class ShapeError(SheafKGError):
    """A cochain or matrix does not conform to the expected stalk dimensions."""


class ConfigError(SheafKGError):
    """Invalid model or training configuration."""


class QueryError(SheafKGError):
    """A query is malformed or cannot be grounded in the schema/vocabulary."""


class SamplingError(SheafKGError):
    """Negative sampling cannot produce a corrupted triple."""


class EvaluationError(SheafKGError):
    """Ranking metrics requested on invalid input."""


class CheckpointError(SheafKGError):
    """Checkpoint files are missing, truncated, or inconsistent."""


class BudgetExceededError(SheafKGError):
    """An exhaustive computation would exceed its configured budget."""


class TrainingAbortError(SheafKGError):
    """Training stopped because it diverged: a non-finite value, an overflow or a loss blow-up.

    ``relation`` is the relation of largest mean training score (a NaN mean
    first) at the parameters where training stopped.
    """

    def __init__(self, epoch, batch=None, relation=None, message="non-finite loss"):
        where = f"epoch {epoch}" + ("" if batch is None else f", batch {batch}")
        where += "" if relation is None else f", relation {relation!r}"
        super().__init__(f"training diverged at {where}: {message}; "
                         "try a lower learning rate or a max_entity_norm cap (--max-entity-norm)")
        self.epoch = epoch
        self.batch = batch
        self.relation = relation


# what a user's input got wrong; the CLI exits 2 for these and 1 for any other error
INPUT_ERRORS = (ConfigError, QueryError, SchemaError, TripleParseError, ValidationError)


# config field annotation (a string under postponed evaluation) -> type of the field's values
FIELD_TYPES = {"int": int, "float": float, "float | None": float, "str": str, "dict[str, str]": dict}


def as_id(value, error: type[SheafKGError], expected: str) -> int:
    """``operator.index(value)``, refusing a ``bool``, else ``error``: what an id or count is."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{expected}, got {value!r}")


def as_float(value, error: type[SheafKGError], expected: str):
    """``value`` if it is a ``float``, else ``as_id(value, error, expected)``: what a float input is."""
    return value if isinstance(value, float) else as_id(value, error, expected)


def check_types(config) -> None:
    """``ConfigError`` for a wrong-typed int, float or dict field of ``config``; int fields become ints."""
    for f in fields(config):
        kind, value = FIELD_TYPES.get(f.type), getattr(config, f.name)
        rule = {int: as_id, float: as_float}.get(kind)
        if rule is not None and not (value is None and f.type == "float | None"):
            setattr(config, f.name, rule(value, ConfigError, f"{f.name} must be {f.type}"))
        elif kind is dict and not isinstance(value, dict):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
