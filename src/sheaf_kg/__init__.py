"""Knowledge graph embedding with cellular sheaves.

Entities are 0-cochains, relations are restriction-map pairs; training
minimizes edgewise disagreement under a margin ranking loss, and complex
queries are answered by harmonic extension via Schur complements.
"""

from .kgdata import (
    KnowledgeGraph,
    Schema,
    TripleIndex,
    build_index,
    default_schema,
    load_dataset,
    load_triples,
)
from .model import (
    KnowledgeSheaf,
    Model,
    ModelConfig,
    SectionMatrix,
    init_for_kg,
    init_model,
    orthogonality_penalty,
    relation_discrepancy,
    triple_score,
)
from .query import Query, QueryGraph, Ranking, answer_query, entity_chaining_exact, naive_traversal_score
from .sheaf import (
    BlockLaplacian,
    SheafOnGraph,
    affine_harmonic_extension,
    assemble_laplacian,
    coboundary,
    harmonic_extension,
    kron_reduce,
    quadratic_form,
    schur_complement,
)
from .training import TrainConfig, TrainReport, sample_negatives, train

__version__ = "0.1.0"

__all__ = [
    "BlockLaplacian",
    "KnowledgeGraph",
    "KnowledgeSheaf",
    "Model",
    "ModelConfig",
    "Query",
    "QueryGraph",
    "Ranking",
    "Schema",
    "SectionMatrix",
    "SheafOnGraph",
    "TrainConfig",
    "TrainReport",
    "TripleIndex",
    "affine_harmonic_extension",
    "answer_query",
    "assemble_laplacian",
    "build_index",
    "coboundary",
    "default_schema",
    "entity_chaining_exact",
    "harmonic_extension",
    "init_for_kg",
    "init_model",
    "kron_reduce",
    "load_dataset",
    "load_triples",
    "naive_traversal_score",
    "orthogonality_penalty",
    "quadratic_form",
    "relation_discrepancy",
    "sample_negatives",
    "schur_complement",
    "train",
    "triple_score",
]
