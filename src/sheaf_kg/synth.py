"""Synthetic knowledge graphs with a planted consistent embedding.

Entities are placed on an integer lattice in relation space: entity ``v``
carries a coordinate vector ``a_v`` and there is a triple ``(u, r, v)``
exactly when ``a_v - a_u`` is the unit step along axis ``r``. Embeddings
realize the lattice so that every emitted triple scores (at most ``noise``)
under the generating model:

* translational variant: identity maps, per-relation translation ``t_r``,
  ``x_v = base + sum_i a_v[i] * t_i``;
* non-translational variant: per-relation orthogonal map pairs whose
  transition operators are commuting plane rotations, ``x_v = R(a_v) base``.

The lattice gives every entity several consistent edges, so held-out triples
remain recoverable from the rest of the graph, unlike tree-shaped planted
constructions whose held-out subtrees float freely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kgdata import KnowledgeGraph, default_schema
from .model import VARIANTS, Model, KnowledgeSheaf, SectionMatrix
from .seeds import substream

logger = logging.getLogger(__name__)


@dataclass
class PlantedDataset:
    kg: KnowledgeGraph
    generator: Model  # the generating sheaf + section, for oracle checks
    codes: np.ndarray  # (n_entities, n_relations) lattice coordinates


def _lattice_codes(n_entities, n_relations, side, rng) -> np.ndarray:
    """Connected set of ``n_entities`` lattice points grown by random steps."""
    start = tuple(int(x) for x in rng.integers(0, side, size=n_relations))
    codes = [start]
    seen = {start}
    while len(codes) < n_entities:
        base = codes[rng.integers(0, len(codes))]
        axis = int(rng.integers(0, n_relations))
        step = 1 if rng.integers(0, 2) else -1
        coord = base[axis] + step
        if not 0 <= coord < side:
            continue
        nxt = base[:axis] + (coord,) + base[axis + 1:]
        if nxt in seen:
            continue
        seen.add(nxt)
        codes.append(nxt)
    return np.asarray(codes, dtype=np.int64)


def _commuting_rotation(dim, angles) -> np.ndarray:
    """Block-diagonal rotation by ``angles`` in the fixed coordinate planes."""
    out = np.eye(dim)
    for p, theta in enumerate(angles):
        i, j = 2 * p, 2 * p + 1
        c, s = np.cos(theta), np.sin(theta)
        out[i, i], out[i, j] = c, -s
        out[j, i], out[j, j] = s, c
    return out


def generate_planted_kg(
    n_entities: int,
    n_relations: int,
    dim: int,
    noise: float,
    seed: int,
    variant: str = "shvt",
    sections: int = 1,
) -> PlantedDataset:
    """Sample a generating sheaf and a consistent entity assignment.

    Every emitted triple has score <= ``noise`` under the generating model.
    Splits are 80/10/10 by a seeded shuffle.
    """
    if n_entities < 2 or n_relations < 1 or dim < 1:
        raise ConfigError("need at least 2 entities, 1 relation, and dim >= 1")
    if not 0 <= noise < np.inf:
        raise ConfigError("noise must be finite and >= 0")
    if sections < 1:
        raise ConfigError("sections must be >= 1")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    rng = substream(seed, "synth")

    # the tightest box that fits keeps the lattice dense, so every entity
    # is anchored by several triples
    side = 2
    while side**n_relations < max(n_entities + 1, int(1.2 * n_entities)):
        side += 1
    codes = _lattice_codes(n_entities, n_relations, side, rng)

    schema = default_schema(n_relations, dim, dim)
    m = sections
    if variant == "shvt":
        head_maps = [np.eye(dim) for _ in range(n_relations)]
        tail_maps = [np.eye(dim) for _ in range(n_relations)]
        constraints = ("identity",) * n_relations
        translations = [rng.normal(size=(dim, m)) / np.sqrt(dim) for _ in range(n_relations)]
        base = rng.normal(size=(dim, m)) / np.sqrt(dim)
        offsets = np.zeros((n_entities, dim, m))
        for i, t in enumerate(translations):  # sum_i codes[:, i] * t_i, in axis order
            offsets += codes[:, i, None, None] * t
        X = base + offsets
    else:
        n_planes = dim // 2
        if n_planes == 0:
            raise ConfigError("the non-translational generator needs dim >= 2")
        angle_sets = [rng.uniform(0.3, 2.8, size=n_planes) for _ in range(n_relations)]
        transitions = [_commuting_rotation(dim, a) for a in angle_sets]
        wrappers = []
        for _ in range(n_relations):
            q, r_ = np.linalg.qr(rng.normal(size=(dim, dim)))
            wrappers.append(q * np.sign(np.diag(r_)))
        head_maps = [wrappers[r] @ transitions[r] for r in range(n_relations)]
        tail_maps = [wrappers[r].copy() for r in range(n_relations)]
        constraints = ("orthogonal",) * n_relations
        translations = None
        base = rng.normal(size=(dim, m))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        powers: dict[tuple[int, int], np.ndarray] = {}

        def rotation_power(r, k):
            key = (r, int(k))
            if key not in powers:
                powers[key] = np.linalg.matrix_power(transitions[r], int(k))
            return powers[key]

        X = np.empty((n_entities, dim, m))
        for u, code in enumerate(codes):
            x = base
            for i, c in enumerate(code):
                x = rotation_power(i, int(c)) @ x
            X[u] = x

    if noise > 0:
        radius = np.sqrt(noise) / 2.0
        for blk in X:
            bump = rng.normal(size=blk.shape)
            norm = np.linalg.norm(bump)
            if norm > 0:
                blk += bump * (radius * float(rng.uniform(0, 1)) / norm)

    # triples: unit lattice steps along each axis, in (entity, relation) order. With the
    # codes sorted by the other axes and then by axis r, a step along r joins neighbours.
    steps = []
    for r, unit in enumerate(np.eye(n_relations, dtype=np.int64)):
        order = np.lexsort(np.roll(codes, -r, axis=1).T)
        u, v = order[:-1], order[1:]
        hit = (codes[v] - codes[u] == unit).all(axis=1)
        steps.append(np.column_stack([u[hit], np.full(hit.sum(), r), v[hit]]))
    triples = np.concatenate(steps)
    triples = triples[np.lexsort(triples[:, 1::-1].T)]
    if len(triples) < 3:
        raise ConfigError(
            "planted lattice produced too few triples; increase entities or relations"
        )
    triples = triples[rng.permutation(len(triples))]
    n = len(triples)
    n_valid = max(1, n // 10)
    n_test = max(1, n // 10)
    n_train = n - n_valid - n_test
    split = np.concatenate(
        [
            np.zeros(n_train, dtype=np.int8),
            np.ones(n_valid, dtype=np.int8),
            np.full(n_test, 2, dtype=np.int8),
        ]
    )

    entities = tuple(f"e{i:05d}" for i in range(n_entities))
    kg = KnowledgeGraph(
        schema=schema,
        entities=entities,
        entity_type=np.zeros(n_entities, dtype=np.int64),
        triples=triples,
        split=split,
    )
    sheaf = KnowledgeSheaf(
        schema=schema,
        head_maps=head_maps,
        tail_maps=tail_maps,
        constraints=constraints,
        translations=translations,
    )
    generator = Model(
        schema=schema,
        entities=entities,
        entity_type=kg.entity_type.copy(),
        sheaf=sheaf,
        sections=SectionMatrix.from_padded(X, np.full(n_entities, dim, dtype=np.int64)),
        seed=seed,
    )
    logger.info(
        "planted %s lattice: %d entities, %d relations, %d triples (side %d)",
        variant, n_entities, n_relations, n, side,
    )
    return PlantedDataset(kg=kg, generator=generator, codes=codes)
