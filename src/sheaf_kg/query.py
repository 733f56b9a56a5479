"""Complex query answering over trained sheaf embeddings.

Seven query templates are supported: path queries (1p/2p/3p), intersections
(2i/3i), and the mixed forms ip (intersect, then project) and pi (project,
then intersect). A query is answered by harmonic extension: its template
graph carries the model's per-relation restriction maps, interior vertices
are eliminated through the Schur complement of the graph's Laplacian, and
every type-compatible candidate entity is scored by the resulting boundary
quadratic form (plus a linear term for translational models). Lower is
better.

The Schur complement and the linear term depend only on the query's
structure and relations; the anchors enter only as boundary data.
``answer_queries`` therefore groups queries by ``(structure, relations)``
and builds the forms of groups with equal stalk dims a chunk at a time,
through ``sheaf``'s batch axis: one coboundary, one ``delta^T delta`` and
one batched eigendecomposition per chunk. A batch's anchors take one index, and
the anchor-candidate cross terms of a block of a chunk's queries come from one
GEMM against the target type's stacked sections. ``answer_query`` is a chunk of
one group; its ``Ranking`` sorts only when its order is read, ``top(k)`` partitions.

Over identity maps (ShVT with them is TransE) a query's sheaf is the constant
sheaf R^d, whose Laplacian is the template graph's scalar ``L_G (x) I_d``. As
``pinv(A (x) I) = pinv(A) (x) I``, such a batch is one form, the elimination of ``constant_sheaf(n, edges,
1)`` lifted by ``(x) I_d``: it depends on the template and ``d`` alone, and is built once per process. A
group takes this path when each relation (checked once per call) is tagged identity and its maps equal I.
"""

from __future__ import annotations

import difflib
import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, ConfigError, EvaluationError, QueryError, as_id
from .kgdata import text_lines
from .model import Model, KnowledgeSheaf, edge_residual
from .sheaf import (
    SheafOnGraph,
    affine_offset,
    assemble_laplacian,
    constant_sheaf,
    psd_pinv,
)

STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "ip", "pi")

# template edges are (head_vertex, relation_slot, tail_vertex)
_TEMPLATES = {
    "1p": dict(n=2, edges=((0, 0, 1),), anchors=(0,), target=1),
    "2p": dict(n=3, edges=((0, 0, 1), (1, 1, 2)), anchors=(0,), target=2),
    "3p": dict(n=4, edges=((0, 0, 1), (1, 1, 2), (2, 2, 3)), anchors=(0,), target=3),
    "2i": dict(n=3, edges=((0, 0, 2), (1, 1, 2)), anchors=(0, 1), target=2),
    "3i": dict(n=4, edges=((0, 0, 3), (1, 1, 3), (2, 2, 3)), anchors=(0, 1, 2), target=3),
    "ip": dict(n=4, edges=((0, 0, 2), (1, 1, 2), (2, 2, 3)), anchors=(0, 1), target=3),
    "pi": dict(n=4, edges=((0, 0, 1), (1, 1, 3), (2, 2, 3)), anchors=(0, 2), target=3),
}

STRUCTURE_ARITY = {tag: (len(t["anchors"]), len(t["edges"])) for tag, t in _TEMPLATES.items()}
_IDENTITY_FORMS: dict = {}  # (n_vertices, edges, boundary, interior, d) -> read-only (S_G, (delta E)_G) (x) I_d


@dataclass(frozen=True, slots=True)
class Query:
    structure: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    answers: frozenset[int] = frozenset()

    def __post_init__(self):
        for name, kind in (("anchors", tuple), ("relations", tuple), ("answers", frozenset)):
            try:  # a list is taken as its tuple or set; None or a scalar is refused
                object.__setattr__(self, name, kind(getattr(self, name)))
            except TypeError:
                raise QueryError(f"{name} must be a collection of ids, got {getattr(self, name)!r}") from None
        if self.structure not in STRUCTURES:
            raise QueryError(f"unknown query structure {self.structure!r}")
        n_anchors, n_relations = STRUCTURE_ARITY[self.structure]
        if len(self.anchors) != n_anchors or len(self.relations) != n_relations:
            raise QueryError(
                f"{self.structure} queries take {n_anchors} anchor(s) and "
                f"{n_relations} relation(s), got {len(self.anchors)} and {len(self.relations)}"
            )
        for kind, ids in (("anchor", self.anchors), ("relation", self.relations),
                          ("answer", self.answers)):
            for i in ids:
                as_id(i, QueryError, f"{kind} ids must be integers")


@dataclass(frozen=True)
class QueryGraph:
    """A tiny template graph with anchor/interior/target vertex roles."""

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (head_vertex, relation, tail_vertex)
    anchor_vertices: tuple[int, ...]
    target_vertex: int
    vertex_types: tuple[int, ...]

    @property
    def boundary(self) -> tuple[int, ...]:
        return self.anchor_vertices + (self.target_vertex,)

    @property
    def interior(self) -> tuple[int, ...]:
        b = set(self.boundary)
        return tuple(v for v in range(self.n_vertices) if v not in b)


def build_query_graph(query: Query, schema) -> QueryGraph:
    """Instantiate the structure template and type its vertices via the schema."""
    template = _TEMPLATES[query.structure]
    vertex_types: list[int | None] = [None] * template["n"]
    edges = []
    for head_v, slot, tail_v in template["edges"]:
        r = query.relations[slot]
        if not 0 <= r < schema.n_relations:
            raise QueryError(f"relation index {r} out of range")
        for v, need in ((head_v, schema.head_type[r]), (tail_v, schema.tail_type[r])):
            if vertex_types[v] is None:
                vertex_types[v] = need
            elif vertex_types[v] != need:
                raise QueryError(
                    f"{query.structure} query is type-inconsistent at template vertex {v}: "
                    f"{schema.entity_types[vertex_types[v]]} vs {schema.entity_types[need]}"
                )
        edges.append((head_v, r, tail_v))
    return QueryGraph(
        n_vertices=template["n"],
        edges=tuple(edges),
        anchor_vertices=template["anchors"],
        target_vertex=template["target"],
        vertex_types=tuple(int(t) for t in vertex_types),
    )


def query_sheaf(qg, sheaf: KnowledgeSheaf, maps: bool = True):
    """The knowledge sheaf pulled back onto the query graph.

    Restriction maps are shared by reference with the per-relation maps;
    returns ``(sheaf_on_graph, offsets)`` where ``offsets`` lists each edge's
    translation block for translational models, else None. For a sequence
    of query graphs with equal vertex types and edge dims, maps and offsets
    have a leading axis over the graphs: gathered from the padded arrays, or
    for a sequence of one graph the per-relation views with an axis of one. Without ``maps`` the sheaf is None.
    """
    one = isinstance(qg, QueryGraph)
    graphs = [qg] if one else qg
    relations = [r for _, r, _ in graphs[0].edges]
    schema, pairs = sheaf.schema, tuple((u, v) for u, _, v in graphs[0].edges)
    vertex_dims = tuple(schema.vertex_dim[t] for t in graphs[0].vertex_types)
    edge_dims = tuple(schema.edge_dim[r] for r in relations)
    def gather(views, padded, widths):
        if len(graphs) == 1:
            return tuple(views[r] if one else views[r][None] for r in relations)
        stacked = padded[np.array([[r for _, r, _ in g.edges] for g in graphs]).T]  # (edges, graphs)
        return tuple(stacked[e, :, :edge_dims[e], :w] for e, w in enumerate(widths))
    graph = offsets = None
    if maps:
        heads = gather(sheaf.head_maps, sheaf.RH, [vertex_dims[u] for u, _ in pairs])
        tails = gather(sheaf.tail_maps, sheaf.RT, [vertex_dims[v] for _, v in pairs])
        graph = SheafOnGraph(vertex_dims, pairs, edge_dims, heads, tails)
    if sheaf.translational:
        offsets = list(gather(sheaf.translations, sheaf.T, [None] * len(pairs)))
    return graph, offsets


class Ranking:
    """Candidates ranked ascending by (value, entity index).

    ``scored`` keeps the candidates (entity ids ascending) and values as
    scored. The sorted order is built the first time it is read
    (``entity_ids``, ``values``, ``position``, ``value_of``); ``top(k)``
    partitions instead and never sorts the whole set.
    """

    def __init__(self, candidates: np.ndarray, values: np.ndarray):
        self.scored = (candidates, values)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sorted is None:
            ids, values = self.scored
            order = np.lexsort((ids, values))
            self._sorted = (ids[order], values[order])
            for a in self._sorted:
                a.setflags(write=False)
        return self._sorted

    @property
    def entity_ids(self) -> np.ndarray:
        return self._order()[0]

    @property
    def values(self) -> np.ndarray:
        return self._order()[1]

    def __len__(self) -> int:
        return len(self.scored[0])

    def position(self, entity: int) -> int:
        """0-based position of an entity in the sorted order."""
        entity = as_id(entity, QueryError, "entity ids must be integers")
        hits = np.flatnonzero(self.entity_ids == entity)
        if hits.size == 0:
            raise QueryError(f"entity {entity} not present in ranking")
        return int(hits[0])

    def value_of(self, entity: int) -> float:
        return float(self.values[self.position(entity)])

    def top(self, k: int) -> list[tuple[int, float]]:
        """The first ``k`` (entity, value) pairs of the sorted order."""
        k = min(as_id(k, QueryError, "k must be an integer"), len(self))
        if k <= 0:
            return []
        ids, values = self.scored
        # every candidate not strictly after the k-th value; NaN compares false, so it stays in
        kth = np.partition(values, k - 1)[k - 1]
        cut = np.flatnonzero(~(values > kth))
        cut = cut[np.lexsort((ids[cut], values[cut]))[:k]]
        return list(zip(ids[cut].tolist(), values[cut].tolist()))


def ranking_from_scores(candidates: np.ndarray, values: np.ndarray) -> Ranking:
    """A ranking of ``candidates`` (entity ids ascending) by their ``values``; sorts nothing."""
    return Ranking(candidates, values)


def _type_sections(model: Model, type_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """The entities of one type, ascending, and their sections ``(n_t, d_t, m)``."""
    ids = model.entities_of_type(type_idx).astype(np.int64)
    if ids.size == 0:
        raise QueryError(
            f"no entities of the target's type {model.schema.entity_types[type_idx]!r} exist"
        )
    x = model.sections.X  # a view when the type covers every entity
    return ids, (x if ids.size == len(x) else x[ids])[:, :model.schema.vertex_dim[type_idx]]


def _anchor_data(model: Model, qg: QueryGraph, rows) -> np.ndarray:
    """Checked anchor sections of ``rows`` of anchor ids: ``(len(rows), dim_a, m)``, in anchor-vertex order.

    One type and one range compare check every id; the first bad id of the first bad row raises.
    """
    n, types, need = model.n_entities, model.schema.entity_types, [qg.vertex_types[v] for v in qg.anchor_vertices]
    if (ids := np.array(rows)).dtype != np.int64:  # other integer kinds, or beyond int64: out of range reads -1
        ids = np.array([[a if 0 <= a < n else -1 for a in row] for row in rows], dtype=np.int64)
    bad = ids.view(np.uint64) >= n  # a negative id reads as 2**64 + id: one compare checks both ends
    if n:  # "wrap" reads any id, whose range is checked above; with no entities each id is out of range
        bad |= model.entity_type.take(ids, mode="wrap") != need
    if np.count_nonzero(bad):
        row, slot = np.argwhere(bad)[0]
        if not 0 <= (entity := rows[row][slot]) < n:
            raise QueryError(f"anchor entity index {entity} out of range")
        raise QueryError(f"anchor {model.entities[entity]!r} has type {types[model.entity_type[entity]]}, "
                         f"query vertex needs {types[need[slot]]}")
    x, dims = model.sections.X.take(ids, axis=0), [model.schema.vertex_dim[t] for t in need]
    if set(dims) == {x.shape[2]}:  # every anchor fills the padded width, so none is trimmed
        return x.reshape(len(x), -1, x.shape[3])
    return np.concatenate([x[:, j, :d] for j, d in enumerate(dims)], axis=1)


def _eliminate(graph: SheafOnGraph, boundary, interior, with_delta_e: bool):
    """``(S, delta E)`` of ``graph`` (stacked or not) onto ``boundary``; ``delta E`` only ``with_delta_e``."""
    # this module's names, not sheaf.eliminate: benchmarks/layers.py wraps these two
    lap = assemble_laplacian(graph)
    order = lap.columns(boundary + interior)
    full = lap.dense[..., order, :][..., order]  # [boundary; interior] stalks
    n_b = sum(graph.vertex_dims[v] for v in boundary)
    schur, delta_e = full[..., :n_b, :n_b], None
    if interior:
        l_ub = full[..., n_b:, :n_b]
        pinv_uu = psd_pinv(full[..., n_b:, n_b:])
        schur = schur - l_ub.swapaxes(-1, -2) @ pinv_uu @ l_ub
        schur = (schur + schur.swapaxes(-1, -2)) / 2.0
    if with_delta_e:  # delta E = delta_B + delta_U (-pinv(L_UU) L_UB), columns in boundary order
        delta = lap.coboundary[..., order]
        delta_e = delta[..., :n_b]
        if interior:
            delta_e = delta_e - delta[..., n_b:] @ pinv_uu @ l_ub
    return schur, delta_e


class _HarmonicForm:
    """Harmonic-extension values over a fixed candidate set, for a chunk of query graphs.

    The graphs share structure, vertex types and edge dims; every array has a
    leading axis over them. With boundary data ``y = [y_a; x]`` (anchors, then
    the candidate ``x``), a graph's value is ``y^T S y - 2 l^T y``: ``S`` is
    the Schur complement of its Laplacian onto the boundary and
    ``l = (delta E)^T b`` the translation term (``E`` the harmonic extension
    map, ``b`` the stacked translations, zero for shv). ``S``, ``l`` and the
    candidates' ``x^T S_tt x`` are built once and shared by every anchor tuple.

    With ``identity`` (``KnowledgeSheaf.identity_maps`` holds on every graph) only the translations
    are gathered, and ``S = S_G (x) I_d`` and ``delta E = (delta E)_G (x) I_d`` are read from
    ``_IDENTITY_FORMS``, which lifts the template's scalar elimination once per ``d``. ``S`` is shared by
    every graph and call, with no axis over the graphs, and the candidates' ``x^T S_tt x = s_tt |x|^2``
    (``s_tt`` is ``S``'s last entry) is one row.
    """

    def __init__(self, qgs, sheaf: KnowledgeSheaf, x: np.ndarray, identity: bool):
        qg = qgs[0]
        self.dim_a = dim_a = sum(sheaf.schema.vertex_dim[qg.vertex_types[v]] for v in qg.anchor_vertices)
        graph, offsets = query_sheaf(qgs, sheaf, maps=not identity)
        if identity:  # the constant sheaf R^d: the template's scalar elimination, lifted by (x) I_d
            key = (qg.n_vertices, tuple((u, v) for u, _, v in qg.edges), qg.boundary, qg.interior, x.shape[1])
            if key not in _IDENTITY_FORMS:
                scalar = _eliminate(constant_sheaf(*key[:2], 1), *key[2:4], True)
                _IDENTITY_FORMS[key] = tuple(np.kron(a, np.eye(key[4])) for a in scalar)
                for a in _IDENTITY_FORMS[key]:
                    a.setflags(write=False)
            schur, delta_e = _IDENTITY_FORMS[key]
        else:
            schur, delta_e = _eliminate(graph, qg.boundary, qg.interior, offsets is not None)

        rows = x.transpose(0, 2, 1).reshape(-1, x.shape[1])
        self.x_flat = rows.reshape(len(x), -1)  # each candidate's columns, one after another
        if identity:  # every graph shares S_G (x) I_d, and x^T (s_tt I_d) x = s_tt |x|^2
            self.quad = schur[-1, -1] * np.einsum("kd,kd->k", self.x_flat, self.x_flat)
        else:  # x^T S_tt x summed over section columns, one GEMM on (candidate, column) rows per graph
            self.quad = np.array([np.einsum("kd,kd->k", (rows @ s_tt).reshape(len(x), -1), self.x_flat)
                                  for s_tt in schur[:, dim_a:, dim_a:]])
        self.shared = identity
        self.s_aa = schur[..., :dim_a, :dim_a]
        self.s_ta = schur[..., dim_a:, :dim_a]
        self.lin = None if offsets is None else delta_e.swapaxes(-1, -2) @ np.concatenate(offsets, axis=-2)

    def values(self, groups: np.ndarray, y_a: np.ndarray) -> np.ndarray:
        """Values ``(R, n)`` for anchor data ``(R, dim_a, m)`` of graph(s) ``groups``, one or one per row."""
        pick = (lambda a: a) if self.shared else (lambda a: a[groups])  # a shared array has no graph axis
        const = np.einsum("...dm,...dm->...", y_a, pick(self.s_aa) @ y_a)
        w = pick(self.s_ta) @ y_a  # (R, d_t, m)
        if self.lin is not None:
            const = const - 2.0 * np.einsum("...dm,...dm->...", y_a, self.lin[groups, :self.dim_a])
            w = w - self.lin[groups, self.dim_a:]
        values = (2.0 * w.transpose(0, 2, 1).reshape(len(w), -1)) @ self.x_flat.T
        values += const[:, None]
        values += pick(self.quad)
        return values


# Query graphs per batched form and anchor tuples per GEMM: they bound the working set.
CHUNK_GROUPS = 16
GROUP_ROWS = 32


def answer_queries(queries, model: Model):
    """Harmonic-extension values of a sequence of queries, a chunk of query graphs at a time.

    Queries are grouped by ``(structure, relations)``; groups with equal structure, vertex types, edge
    dims and identity maps or not (each relation checked once per call) form a batch, whose anchors are
    checked (all before any is scored; the first bad query raises) and gathered with one index. A batch
    builds forms ``CHUNK_GROUPS`` groups at a time, or one if identity, and scores ``GROUP_ROWS`` anchor
    tuples of a chunk per GEMM. Yields ``(members, candidates, values)``: positions in ``queries``, the
    target type's entity ids ascending, and a ``(len(members), len(candidates))`` value array (lower is
    better).
    """
    groups: dict[tuple, tuple[QueryGraph, list[int]]] = {}
    batches: dict[tuple, list] = {}  # groups by structure, stalk dims and identity maps
    identity_of = functools.cache(lambda r: model.sheaf.identity_maps([r]))  # once per relation and call
    try:
        for i, q in enumerate(queries):
            if (group := groups.get((q.structure, q.relations))) is None:
                group = groups[q.structure, q.relations] = (build_query_graph(q, model.schema), [])
                signature = (q.structure, group[0].vertex_types, all(map(identity_of, q.relations)),
                             *(model.schema.edge_dim[r] for r in q.relations))
                batches.setdefault(signature, []).append(group)
            group[1].append(i)
        anchors = [_anchor_data(model, batch[0][0], [queries[i].anchors for _, members in batch for i in members])
                   for batch in batches.values()]
    except QueryError:  # the error of the first bad query, in query order
        for q in queries:
            _anchor_data(model, build_query_graph(q, model.schema), [q.anchors])
        raise

    for ((_, _, identity, *_), batch), y_batch in zip(batches.items(), anchors):
        candidates, x = _type_sections(model, batch[0][0].vertex_types[batch[0][0].target_vertex])
        if identity:  # one form for the batch, with no per-graph rows; chunks still set the GEMM blocks
            form = _HarmonicForm([qg for qg, _ in batch], model.sheaf, x, True)
        for start in range(0, len(batch), CHUNK_GROUPS):
            qgs, member_lists = zip(*batch[start:start + CHUNK_GROUPS])
            if not identity:
                form = _HarmonicForm(qgs, model.sheaf, x, False)
            members = [i for m in member_lists for i in m]
            y_a, y_batch = y_batch[:len(members)], y_batch[len(members):]
            row_groups = np.repeat(np.arange(len(qgs)) + (start if identity else 0), list(map(len, member_lists)))
            for lo in range(0, len(members), GROUP_ROWS):
                rows = slice(lo, lo + GROUP_ROWS)
                yield members[rows], candidates, form.values(row_groups[rows], y_a[rows])


def check_finite(values: np.ndarray, model: Model, what: str, relations) -> None:
    """An ``EvaluationError`` naming ``what``, a query on ``relations``, if a value is not finite."""
    if not np.isfinite(values).all():
        names = ", ".join(model.schema.relation_types[r] for r in relations)
        raise EvaluationError(f"{what} on relations ({names}) has a non-finite candidate value: "
                              "the model's parameters overflow or are not finite")


def answer_query_graph(qg: QueryGraph, model: Model, anchor_entities) -> Ranking:
    """Rank all candidate entities of the target's type for a query graph.

    A chunk of one group: the same harmonic form as ``answer_queries``. The
    ranking sorts by (value, entity index) when its order is first read.
    """
    if len(anchor_entities) != len(qg.anchor_vertices):
        raise QueryError("anchor count does not match the query graph")
    y_a = _anchor_data(model, qg, [[as_id(a, QueryError, "anchor ids must be integers") for a in anchor_entities]])
    candidates, x = _type_sections(model, qg.vertex_types[qg.target_vertex])
    relations = [r for _, r, _ in qg.edges]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        form = _HarmonicForm([qg], model.sheaf, x, model.sheaf.identity_maps(relations))
        values = form.values(0, y_a)[0]
    check_finite(values, model, "the query", relations)
    return ranking_from_scores(candidates, values)


def answer_query(query: Query, model: Model) -> Ranking:
    """Harmonic-extension answering for one of the seven template structures.

    A candidate value that is not finite is an ``EvaluationError``.
    """
    qg = build_query_graph(query, model.schema)
    return answer_query_graph(qg, model, query.anchors)


def naive_traversal_score(query: Query, model: Model) -> Ranking:
    """Baseline for path queries: add up translations along the chain.

    Requires a translational model whose restriction maps along the query's
    relations are the identity (``KnowledgeSheaf.identity_maps``: tag and
    values); only 1p/2p/3p structures make sense.
    """
    if query.structure not in ("1p", "2p", "3p"):
        raise QueryError(f"naive traversal does not support {query.structure!r} structures")
    sheaf = model.sheaf
    if not sheaf.translational:
        raise ConfigError("naive traversal needs a translational model")
    for r in query.relations:
        if not sheaf.identity_maps([r]):
            name = model.schema.relation_types[r]
            raise ConfigError(f"naive traversal needs identity maps, which relation {name!r} "
                              f"(tagged {sheaf.constraints[r]}) does not have")
    qg = build_query_graph(query, model.schema)
    target = _anchor_data(model, qg, [query.anchors])[0] + sum(
        sheaf.translations[r] for r in query.relations
    )
    candidates, xc = _type_sections(model, qg.vertex_types[qg.target_vertex])
    diff = target[None, :, :] - xc
    values = np.einsum("cdm,cdm->c", diff, diff)
    return ranking_from_scores(candidates, values)


def entity_chaining_exact(query: Query, model: Model, budget: int = 10**6) -> Ranking:
    """Exact discrete optimum over interior entity assignments.

    For every candidate target, minimizes the summed edge scores over all
    tuples of *known entities* at the interior vertices. Serves as the
    upper-bound oracle for the harmonic relaxation; values use the same
    constant-offset convention as ``answer_query`` so the two are directly
    comparable (and coincide when the interior is empty).
    """
    qg = build_query_graph(query, model.schema)
    sheaf = model.sheaf
    interior = qg.interior
    pools = [model.entities_of_type(qg.vertex_types[v]) for v in interior]
    n_tuples = math.prod(len(p) for p in pools)
    if n_tuples > budget:
        raise BudgetExceededError(
            f"entity chaining needs {n_tuples} interior tuples, budget is {budget}"
        )

    candidates, xc = _type_sections(model, qg.vertex_types[qg.target_vertex])
    _anchor_data(model, qg, [query.anchors])  # validates anchor types

    # each vertex's section; the target's is every candidate's, broadcast through each edge
    fixed = {v: model.sections.block(int(a)) for v, a in zip(qg.anchor_vertices, query.anchors)}
    fixed[qg.target_vertex] = xc
    best = np.full(len(candidates), np.inf)
    for assignment in product(*pools):
        at = fixed | {v: model.sections.block(int(e)) for v, e in zip(interior, assignment)}
        total = 0.0
        for u, r, v in qg.edges:
            diff = edge_residual(sheaf, r, at[u], at[v])
            total = total + np.einsum("...dm,...dm->...", diff, diff)
        best = np.minimum(best, total)

    if sheaf.translational:
        best = best - affine_offset(*query_sheaf(qg, sheaf), list(qg.boundary))
    return ranking_from_scores(candidates, best)


def resolve_names(field: str, table: dict[str, int], kind: str) -> tuple[int, ...]:
    """Look up ``field``'s non-empty comma-separated names in ``table``; an unknown one is a ``QueryError``."""
    ids = []
    for name in filter(None, field.split(",")):
        if name not in table:
            hint = difflib.get_close_matches(name, list(table), n=1)
            raise QueryError(f"unknown {kind} {name!r}" + (f" (did you mean {hint[0]!r}?)" if hint else ""))
        ids.append(table[name])
    return tuple(ids)


def read_queries(path, entity_index: dict[str, int], schema) -> list[Query]:
    """Parse a TAB-separated query file.

    Line format: structure tag, comma-separated anchor entity names,
    comma-separated relation names, comma-separated answer entity names (at
    least one). Names keep ``kgdata``'s name rule and resolve through
    ``resolve_names``. Every malformed line raises a ``QueryError`` naming ``path:line``.
    """
    queries = []
    for lineno, line in text_lines(path, QueryError):
        try:
            parts = line.split("\t")
            if len(parts) != 4:
                raise QueryError("expected 4 tab-separated fields")
            tag, anchor_s, rel_s, answer_s = parts
            anchors = resolve_names(anchor_s, entity_index, "entity")
            relations = resolve_names(rel_s, schema.relation_ids, "relation")
            answers = frozenset(resolve_names(answer_s, entity_index, "entity"))
            if not answers:
                raise QueryError("no answer entities")
            queries.append(Query(tag, anchors, relations, answers))
        except QueryError as exc:
            raise QueryError(f"{path}:{lineno}: {exc}") from None
    if not queries:
        raise QueryError(f"{path}: no queries")
    return queries


def write_queries(queries, path, entity_names, relation_names) -> None:
    """Write ``queries`` for ``read_queries``; names keep ``kgdata``'s name rule, so each reads back."""
    def joined(names, ids):
        return ",".join(names[i] for i in ids)

    lines = [f"{q.structure}\t{joined(entity_names, q.anchors)}\t{joined(relation_names, q.relations)}\t"
             f"{joined(entity_names, sorted(q.answers))}\n" for q in queries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
