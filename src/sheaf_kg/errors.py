"""Exception types shared across the package."""


class SheafKGError(Exception):
    """Base class for all errors raised by sheaf_kg."""


class TripleParseError(SheafKGError):
    """A triple file line could not be parsed."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


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
    """Training stopped because it diverged: a non-finite value, an overflow or a loss blow-up."""

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
