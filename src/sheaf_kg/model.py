"""Learnable sheaf embeddings: restriction-map pairs, section matrices, scoring.

A trained model couples a :class:`KnowledgeSheaf` (one head/tail restriction
map per relation, optionally a translation block) with a
:class:`SectionMatrix` (one ``d x m`` block per entity whose columns are
independently learned embeddings, all held in one zero-padded array). Scores
are summed over the ``m`` columns.

Off the training kernel, every triple score is the squared norm of
``edge_residual``: ``H_r x_h - T_r x_t``, plus the translation ``t_r`` for
a translational (ShVT) sheaf. Its sign convention is the query side's:
``|H x_h + t - T x_t|^2 = |delta y - b|^2`` with ``sheaf.coboundary``'s
tail-minus-head ``delta`` and ``b`` the translations, as
``query._HarmonicForm``'s ``-2 l^T y`` term and ``sheaf.affine_offset`` assume.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import ConfigError, ShapeError, check_types
from .kgdata import KnowledgeGraph, Schema
from .seeds import substream

logger = logging.getLogger(__name__)

CONSTRAINTS = ("free", "shared", "identity", "orthogonal", "antisymmetric")
VARIANTS = ("shv", "shvt")

ORTHOGONALITY_TOL = 1e-6


@dataclass
class ModelConfig:
    """Hyperparameters describing a model family."""

    variant: str = "shv"
    sections: int = 1
    alpha: float = 0.0
    margin: float = 1.0
    entity_dim: int = 32
    relation_dim: int = 32
    constraint: str = "free"
    constraint_overrides: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_types(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.sections < 1:
            raise ConfigError("sections must be >= 1")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.margin <= 0:
            raise ConfigError("margin must be > 0")
        if self.entity_dim < 1 or self.relation_dim < 1:
            raise ConfigError("dimensions must be >= 1")
        for c in (self.constraint, *self.constraint_overrides.values()):
            if c not in CONSTRAINTS:
                raise ConfigError(f"unknown constraint {c!r}; valid: {CONSTRAINTS}")

    def constraints_for(self, schema: Schema) -> tuple[str, ...]:
        unknown = set(self.constraint_overrides) - set(schema.relation_types)
        if unknown:
            raise ConfigError(f"constraint overrides for unknown relations: {sorted(unknown)}")
        return tuple(
            self.constraint_overrides.get(name, self.constraint)
            for name in schema.relation_types
        )


class KnowledgeSheaf:
    """Per-relation restriction maps with constraint tags (and translations).

    The maps live in zero-padded arrays: ``RH`` and ``RT`` are
    ``(n_relations, max edge dim, max vertex dim)`` and ``T`` is
    ``(n_relations, max edge dim, columns)``, or None for a non-translational
    sheaf. Relation ``r``'s head map is the view
    ``head_maps[r] = RH[r, :edge_dim[r], :head_dim(r)]``; ``tail_maps`` and
    ``translations`` are views into ``RT`` and ``T`` the same way. Every other
    entry is exactly zero, and training updates the arrays in place and keeps
    it so (see ``_kernels``). The view tuples cannot be rebound; write
    through a view instead (``head_maps[r][...] = m``). The constructor
    checks that each tag admits its relation's dims and pads per-relation
    blocks once.
    """

    def __init__(self, schema: Schema, head_maps, tail_maps, constraints, translations=None):
        n = schema.n_relations
        if not (len(head_maps) == len(tail_maps) == len(constraints) == n):
            raise ShapeError("per-relation tables must match the schema's relation count")
        if translations is not None and len(translations) != n:
            raise ShapeError("translations must have one block per relation")
        self.schema = schema
        self.constraints = tuple(constraints)
        for r, kind in enumerate(self.constraints):
            _check_dims(schema, r, kind)
        de, d = max(schema.edge_dim, default=0), max(schema.vertex_dim)
        T = None
        if translations is not None:
            T = np.zeros((n, de, np.shape(translations[0])[-1] if n else 0))
        self._bind(np.zeros((n, de, d)), np.zeros((n, de, d)), T)
        blocks = [(self.head_maps, head_maps, "head map"), (self.tail_maps, tail_maps, "tail map")]
        if translations is not None:
            blocks.append((self.translations, translations, "translation"))
        for views, given, label in blocks:
            for r, (view, blk) in enumerate(zip(views, given)):
                if np.shape(blk) != view.shape:
                    raise ShapeError(
                        f"relation {r}: {label} shape {np.shape(blk)}, expected {view.shape}"
                    )
                view[...] = blk

    def _bind(self, RH: np.ndarray, RT: np.ndarray, T: np.ndarray | None) -> None:
        """Adopt the padded arrays and build each relation's views into them."""
        s, relations = self.schema, range(self.schema.n_relations)
        self.RH, self.RT, self.T = RH, RT, T
        self.head_maps = tuple(RH[r, :s.edge_dim[r], :s.head_dim(r)] for r in relations)
        self.tail_maps = tuple(RT[r, :s.edge_dim[r], :s.tail_dim(r)] for r in relations)
        self.translations = None if T is None else tuple(T[r, :s.edge_dim[r]] for r in relations)

    @property
    def translational(self) -> bool:
        return self.T is not None

    @property
    def variant(self) -> str:
        return "shvt" if self.translational else "shv"

    def copy(self) -> "KnowledgeSheaf":
        out = copy.copy(self)
        out._bind(self.RH.copy(), self.RT.copy(), None if self.T is None else self.T.copy())
        return out

    def identity_maps(self, relations) -> bool:
        """Whether each relation is tagged identity (checked first) and both its maps equal the identity."""
        rels = list(relations)
        if not all(self.constraints[r] == "identity" for r in rels):
            return False
        d = self.schema.edge_dim[rels[0]] if rels else 0  # the tag makes both maps d x d: one compare per d
        if any(self.schema.edge_dim[r] != d for r in rels):
            return all(self.identity_maps([r]) for r in rels)
        return bool((self.RH[rels, :d, :d] == np.eye(d)).all() and (self.RT[rels, :d, :d] == np.eye(d)).all())

    def check_constraints(self) -> None:
        """Raise unless every constraint tag is actually satisfied."""
        for r, kind in enumerate(self.constraints):
            head, tail, name = self.head_maps[r], self.tail_maps[r], self.schema.relation_types[r]
            if kind == "shared" and not np.array_equal(head, tail):
                raise ConfigError(f"relation {name!r}: shared maps differ")
            if kind == "antisymmetric" and not np.array_equal(head, -tail):
                raise ConfigError(f"relation {name!r}: antisymmetric maps violate head == -tail")
            if kind == "identity" and not self.identity_maps([r]):
                raise ConfigError(f"relation {name!r}: identity maps are not the identity")
            if kind == "orthogonal":
                for m, side in ((head, "head"), (tail, "tail")):
                    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail as inf/nan
                        err = float(np.linalg.norm(m.T @ m - np.eye(m.shape[1])))
                    if not err <= ORTHOGONALITY_TOL:
                        raise ConfigError(
                            f"relation {name!r}: {side} map orthogonality error {err:.2e} "
                            f"> {ORTHOGONALITY_TOL}"
                        )


class SectionMatrix:
    """Entity sections in one zero-padded array; column ``j`` holds section ``j``.

    ``X`` is ``(n_entities, dim, columns)``. Entity ``i``'s section is the
    view ``block(i) = X[i, :dims[i]]``, and every entry of ``X[i, dims[i]:]``
    is exactly zero; training updates ``X`` in place and keeps it so (see
    ``_kernels``). ``dim`` defaults to the widest block; models use the
    schema's widest vertex dim, the width that training pads maps to.
    """

    def __init__(self, columns: int, blocks, dim: int | None = None):
        if columns < 1:
            raise ShapeError("need at least one section column")
        self.columns = columns
        self.dims = np.array([blk.shape[0] for blk in blocks], dtype=np.int64)
        self.X = np.zeros((len(blocks), self.dims.max(initial=0) if dim is None else dim, columns))
        for i, blk in enumerate(blocks):
            if blk.ndim != 2 or blk.shape[1] != columns or blk.shape[0] > self.X.shape[1]:
                raise ShapeError(
                    f"entity {i}: block shape {blk.shape}, expected (<={self.X.shape[1]}, {columns})"
                )
            self.X[i, :blk.shape[0]] = blk

    @classmethod
    def from_padded(cls, X: np.ndarray, dims: np.ndarray) -> "SectionMatrix":
        """Adopt ``X``, whose entity ``i`` holds its section in ``X[i, :dims[i]]`` and zeros below."""
        if X.shape[2] < 1:
            raise ShapeError("need at least one section column")
        out = cls.__new__(cls)
        out.columns, out.dims, out.X = X.shape[2], dims, X
        return out

    @property
    def n_entities(self) -> int:
        return len(self.X)

    def block(self, i: int) -> np.ndarray:
        """Entity ``i``'s ``(dims[i], columns)`` section, a view into ``X``."""
        return self.X[i, :self.dims[i]]

    def copy(self) -> "SectionMatrix":
        out = copy.copy(self)
        out.dims, out.X = self.dims.copy(), self.X.copy()
        return out


@dataclass
class Model:
    """Everything a checkpoint holds: the vocabulary and the parameters.

    Schema, sheaf and sections are the only record of the dims, constraints,
    variant and section count; :class:`ModelConfig` is just an init recipe.
    """

    schema: Schema
    entities: tuple[str, ...]
    entity_type: np.ndarray
    sheaf: KnowledgeSheaf
    sections: SectionMatrix
    seed: int = 0

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    def entity_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.entities)}

    def entities_of_type(self, type_idx: int) -> np.ndarray:
        return np.nonzero(self.entity_type == type_idx)[0]

    def copy(self) -> "Model":
        return replace(self, sheaf=self.sheaf.copy(), sections=self.sections.copy())


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Nearest column-orthonormal matrix (polar factor) of ``m``.

    Rank-deficient inputs still yield a deterministic orthonormal result
    (the SVD supplies the completion) but are flagged in the log.
    """
    if m.shape[0] < m.shape[1]:
        raise ConfigError(
            f"cannot orthonormalize columns of a {m.shape} matrix: fewer rows than columns"
        )
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= s[0] * 1e-12:
        logger.warning("orthonormalizing a rank-deficient matrix; completion is SVD-determined")
    return u @ vt


def equal_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal consecutive non-negative ``values``, in order."""
    bounds = np.flatnonzero(np.diff(values, prepend=-1, append=-1)).tolist()
    return list(zip(bounds, bounds[1:]))


def _check_dims(schema: Schema, r: int, kind: str) -> None:
    """Raise unless relation ``r``'s stalk dims admit constraint ``kind``."""
    de, dh, dt = schema.edge_dim[r], schema.head_dim(r), schema.tail_dim(r)
    rule, ok = {
        "identity": ("equal square dims", de == dh == dt),
        "shared": ("matching head/tail dims", dh == dt),
        "antisymmetric": ("matching head/tail dims", dh == dt),
        "orthogonal": ("edge dim >= vertex dims", de >= max(dh, dt)),
    }.get(kind, ("", True))
    if not ok:
        raise ConfigError(f"relation {schema.relation_types[r]!r}: {kind} constraint needs "
                          f"{rule}, got edge {de}, head {dh}, tail {dt}")


# Which of a relation's (head, tail) maps keep their optimizer step under each
# tag; ``project_constraints_inplace`` overwrites the others whatever they hold
# (identity resets both, shared and antisymmetric recopy the tail), so training
# skips them.
MAP_STEPS = {"free": (True, True), "orthogonal": (True, True), "shared": (True, False),
             "antisymmetric": (True, False), "identity": (False, False)}


def _init_relation_maps(rng, schema, r, kind):
    """Relation ``r``'s raw maps: tied tails reuse the head draw, identity draws nothing."""
    de, dh, dt = schema.edge_dim[r], schema.head_dim(r), schema.tail_dim(r)
    if kind == "identity":
        return np.zeros((de, dh)), np.zeros((de, dt))

    def draw(d):  # the polar factor ignores scale, so orthogonal draws stay unscaled
        x = rng.normal(size=(de, d))
        return x if kind == "orthogonal" else x / np.sqrt(d * de)

    head = draw(dh)
    return head, (head if kind in ("shared", "antisymmetric") else draw(dt))


def init_model(
    config: ModelConfig,
    schema: Schema,
    entity_types: np.ndarray,
    seed: int,
) -> tuple[KnowledgeSheaf, SectionMatrix]:
    """Seed-deterministic parameter initialization.

    Entity columns are Gaussian scaled by 1/sqrt(d) and normalized to unit
    norm; maps are Gaussian scaled by 1/sqrt(d * d_e), then projected onto
    their constraint tag. Draw order is entities, then relation maps, then
    translations, each by index.
    """
    rng = substream(seed, "init")
    m = config.sections
    dims = np.asarray(schema.vertex_dim, dtype=np.int64)[np.asarray(entity_types, dtype=np.int64)]
    X = np.zeros((len(dims), max(schema.vertex_dim), m))
    # one draw per run of same-dim entities takes the same stream as one per entity
    for a, b in equal_runs(dims):
        d = int(dims[a])
        x = rng.normal(size=(b - a, d, m)) / np.sqrt(d)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        X[a:b, :d] = x / norms
    constraints = config.constraints_for(schema)
    maps = [_init_relation_maps(rng, schema, r, kind) for r, kind in enumerate(constraints)]
    translations = None
    if config.variant == "shvt":
        translations = [
            rng.normal(size=(schema.edge_dim[r], m)) / np.sqrt(schema.edge_dim[r])
            for r in range(schema.n_relations)
        ]
    heads, tails = [head for head, _ in maps], [tail for _, tail in maps]
    sheaf = KnowledgeSheaf(schema, heads, tails, constraints, translations)
    project_constraints_inplace(sheaf)
    return sheaf, SectionMatrix.from_padded(X, dims)


def init_for_kg(config: ModelConfig, kg: KnowledgeGraph, seed: int) -> Model:
    """Initialize a full model bundle for a loaded knowledge graph."""
    sheaf, sections = init_model(config, kg.schema, kg.entity_type, seed)
    return Model(
        schema=kg.schema,
        entities=kg.entities,
        entity_type=kg.entity_type.copy(),
        sheaf=sheaf,
        sections=sections,
        seed=seed,
    )


def edge_residual(sheaf: KnowledgeSheaf, r: int, x_head, x_tail) -> np.ndarray:
    """Relation ``r``'s residual ``H_r x_head - T_r x_tail (+ t_r)`` in its edge stalk.

    Takes sections ``(d, m)`` or stacks ``(..., d, m)``, as ``@`` broadcasts;
    the translation is added last, in the training kernel's order.
    """
    diff = sheaf.head_maps[r] @ x_head - sheaf.tail_maps[r] @ x_tail
    if sheaf.translational:
        diff = diff + sheaf.translations[r]
    return diff


def triple_score(sheaf: KnowledgeSheaf, sections: SectionMatrix, h: int, r: int, t: int) -> float:
    """Squared norm of the triple's edge residual: ShV, or ShVT for a translational sheaf."""
    diff = edge_residual(sheaf, r, sections.block(h), sections.block(t))
    return float(np.sum(diff * diff))


def project_constraints_inplace(sheaf: KnowledgeSheaf, relations=None) -> None:
    """Re-establish the constraint of every relation, or of those indexed by ``relations``, exactly.

    shared/antisymmetric tails are recopied (negated) from heads, orthogonal
    maps are replaced by their polar factors, identity maps are reset to the
    identity and free maps pass through untouched.
    """
    for r in range(len(sheaf.constraints)) if relations is None else relations:
        kind, head, tail = sheaf.constraints[r], sheaf.head_maps[r], sheaf.tail_maps[r]
        if kind in ("shared", "antisymmetric"):
            tail[...] = head if kind == "shared" else -head
        elif kind == "orthogonal":
            head[...] = orthonormal_columns(head)
            tail[...] = orthonormal_columns(tail)
        elif kind == "identity":
            head[...] = tail[...] = np.eye(len(head))


def orthogonality_penalty(sections: SectionMatrix) -> float:
    """Total squared deviation of each entity's column Gram matrix from identity."""
    # alpha=0 leaves the (absent) gradient alone; zero padding leaves each Gram matrix unchanged
    return _kernels.orthogonality_grad_numpy(sections.X, None, 0.0)


def relation_discrepancy(
    sheaf: KnowledgeSheaf, sections: SectionMatrix, kg: KnowledgeGraph
) -> dict[str, float]:
    """Mean triple score per relation over the training split.

    Relations with no training triples are absent from the result. Each
    relation's triples are scored at once through its map views.
    """
    triples = kg.triples_of("train")
    schema = sheaf.schema
    out = {}
    for r in np.unique(triples[:, 1]):
        h, t = triples[triples[:, 1] == r][:, [0, 2]].T
        diff = edge_residual(
            sheaf, r, sections.X[h, :schema.head_dim(r)], sections.X[t, :schema.tail_dim(r)]
        )
        out[kg.schema.relation_types[r]] = float(np.sum(diff * diff) / len(h))
    return out
