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
one batched eigendecomposition per chunk. The anchor-candidate cross terms
of a block of the chunk's queries come from one GEMM against the target
type's stacked sections. ``answer_query`` is a chunk of one group, and its
``Ranking`` sorts only when its order is read; ``top(k)`` partitions.

Over identity maps (ShVT with them is TransE) a query's sheaf is the constant
sheaf R^d, whose Laplacian is the template graph's scalar ``L_G (x) I_d``. As
``pinv(A (x) I) = pinv(A) (x) I``, such chunks lift the elimination of ``constant_sheaf(n,
edges, 1)`` by ``(x) I_d``; it depends on the template alone and is computed once per process.
A call takes this path when each relation is tagged identity (checked first) and both its maps equal I.
"""

from __future__ import annotations

import difflib
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
_SCALAR_FORMS: dict = {}  # (n_vertices, edges, boundary, interior) -> read-only scalar (S_G, (delta E)_G)


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


def _anchor_data(model: Model, qg: QueryGraph, anchor_entities) -> np.ndarray:
    """Checked anchor sections, concatenated in anchor-vertex order: ``(dim_a, m)``."""
    if len(anchor_entities) != len(qg.anchor_vertices):
        raise QueryError("anchor count does not match the query graph")
    blocks = [np.zeros((0, model.sections.columns))]
    for v, entity in zip(qg.anchor_vertices, anchor_entities):
        entity = as_id(entity, QueryError, "anchor ids must be integers")
        if not 0 <= entity < model.n_entities:
            raise QueryError(f"anchor entity index {entity} out of range")
        if int(model.entity_type[entity]) != qg.vertex_types[v]:
            raise QueryError(
                f"anchor {model.entities[entity]!r} has type "
                f"{model.schema.entity_types[int(model.entity_type[entity])]}, "
                f"query vertex needs {model.schema.entity_types[qg.vertex_types[v]]}"
            )
        blocks.append(model.sections.block(entity))
    return np.concatenate(blocks, axis=0)


def _lift(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a (x) I_d`` for sections ``x`` of dim ``d``: each entry of ``a`` becomes a ``d x d`` block."""
    return (a[:, None, :, None] * np.eye(x.shape[1])[:, None]).reshape(len(a) * x.shape[1], -1)


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
    are gathered, and the template's scalar elimination, kept in ``_SCALAR_FORMS``, is lifted:
    ``S = S_G (x) I_d`` for every graph, ``delta E = (delta E)_G (x) I_d`` and ``x^T S_tt x = s_tt |x|^2``.
    """

    def __init__(self, qgs, sheaf: KnowledgeSheaf, x: np.ndarray, identity: bool):
        qg = qgs[0]
        self.dim_a = dim_a = sum(sheaf.schema.vertex_dim[qg.vertex_types[v]] for v in qg.anchor_vertices)
        graph, offsets = query_sheaf(qgs, sheaf, maps=not identity)
        if identity:  # the constant sheaf R^d: the template's scalar elimination, lifted by (x) I_d below
            key = (qg.n_vertices, tuple((u, v) for u, _, v in qg.edges), qg.boundary, qg.interior)
            if key not in _SCALAR_FORMS:
                _SCALAR_FORMS[key] = _eliminate(constant_sheaf(*key[:2], 1), *key[2:], True)
                for a in _SCALAR_FORMS[key]:
                    a.setflags(write=False)
            schur, delta_e = _SCALAR_FORMS[key]
        else:
            schur, delta_e = _eliminate(graph, qg.boundary, qg.interior, offsets is not None)

        rows = x.transpose(0, 2, 1).reshape(-1, x.shape[1])
        self.x_flat = rows.reshape(len(x), -1)  # each candidate's columns, one after another
        if identity:  # every graph shares S (x) I_d, and x^T (s_tt I_d) x = s_tt |x|^2
            quad = schur[-1, -1] * np.einsum("kd,kd->k", self.x_flat, self.x_flat)
            self.quad, schur = (np.broadcast_to(a, (len(qgs),) + a.shape) for a in (quad, _lift(schur, x)))
        else:  # x^T S_tt x summed over section columns, one GEMM on (candidate, column) rows per graph
            self.quad = np.array([np.einsum("kd,kd->k", (rows @ s_tt).reshape(len(x), -1), self.x_flat)
                                  for s_tt in schur[:, dim_a:, dim_a:]])
        self.s_aa = schur[:, :dim_a, :dim_a]
        self.s_ta = schur[:, dim_a:, :dim_a]
        if offsets is not None and identity:
            delta_e = _lift(delta_e, x)
        self.lin = None if offsets is None else delta_e.swapaxes(-1, -2) @ np.concatenate(offsets, axis=-2)

    def values(self, groups: np.ndarray, y_a: np.ndarray) -> np.ndarray:
        """Values ``(R, n)`` for anchor data ``(R, dim_a, m)`` of graph(s) ``groups``, one or one per row."""
        const = np.einsum("...dm,...dm->...", y_a, self.s_aa[groups] @ y_a)
        w = self.s_ta[groups] @ y_a  # (R, d_t, m)
        if self.lin is not None:
            const = const - 2.0 * np.einsum("...dm,...dm->...", y_a, self.lin[groups, :self.dim_a])
            w = w - self.lin[groups, self.dim_a:]
        values = (2.0 * w.transpose(0, 2, 1).reshape(len(w), -1)) @ self.x_flat.T
        values += const[:, None]
        values += self.quad[groups]
        return values


# Query graphs per batched form and anchor tuples per GEMM: they bound the working set.
CHUNK_GROUPS = 16
GROUP_ROWS = 32


def answer_queries(queries, model: Model):
    """Harmonic-extension values of many queries, a chunk of query graphs at a time.

    Queries are grouped by ``(structure, relations)``; every query's anchors
    are checked before any group is scored. Groups with equal structure, vertex
    types, edge dims and identity maps or not build forms ``CHUNK_GROUPS`` at a time,
    and a chunk scores ``GROUP_ROWS`` anchor tuples per GEMM. Yields
    ``(members, candidates, values)``: positions in ``queries``, the target
    type's entity ids ascending, and a ``(len(members), len(candidates))``
    value array (lower is better).
    """
    groups: dict[tuple, tuple[QueryGraph, list[int], list[np.ndarray]]] = {}
    batches: dict[tuple, list] = {}  # groups by structure, stalk dims and identity maps
    for i, q in enumerate(queries):
        key = (q.structure, q.relations)
        if key not in groups:
            groups[key] = (build_query_graph(q, model.schema), [], [])
            signature = (q.structure, groups[key][0].vertex_types, model.sheaf.identity_maps(q.relations),
                         *(model.schema.edge_dim[r] for r in q.relations))
            batches.setdefault(signature, []).append(groups[key])
        qg, members, anchors = groups[key]
        anchors.append(_anchor_data(model, qg, q.anchors))
        members.append(i)

    for (_, _, identity, *_), batch in batches.items():
        candidates, x = _type_sections(model, batch[0][0].vertex_types[batch[0][0].target_vertex])
        for start in range(0, len(batch), CHUNK_GROUPS):
            qgs, member_lists, anchor_lists = zip(*batch[start:start + CHUNK_GROUPS])
            form = _HarmonicForm(qgs, model.sheaf, x, identity)
            members, y_a = sum(member_lists, []), np.stack(sum(anchor_lists, []))
            row_groups = np.repeat(np.arange(len(qgs)), [len(m) for m in member_lists])
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
    y_a = _anchor_data(model, qg, anchor_entities)
    candidates, x = _type_sections(model, qg.vertex_types[qg.target_vertex])
    relations = [r for _, r, _ in qg.edges]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        form = _HarmonicForm([qg], model.sheaf, x, model.sheaf.identity_maps(relations))
        values = form.values(0, y_a[None])[0]
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
    target = _anchor_data(model, qg, query.anchors) + sum(
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
    _anchor_data(model, qg, query.anchors)  # validates anchor types

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
    least one), so a name cannot hold a comma. Names resolve through
    ``resolve_names``. Every malformed line raises a ``QueryError`` naming ``path:line``.
    """
    relation_index = {name: r for r, name in enumerate(schema.relation_types)}
    queries = []
    for lineno, line in text_lines(path, QueryError):
        try:
            parts = line.split("\t")
            if len(parts) != 4:
                raise QueryError("expected 4 tab-separated fields")
            tag, anchor_s, rel_s, answer_s = parts
            anchors = resolve_names(anchor_s, entity_index, "entity")
            relations = resolve_names(rel_s, relation_index, "relation")
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
    """Write ``queries`` for ``read_queries``; any name it cannot read back is first a ``QueryError``."""
    lines = []
    for q in queries:
        fields = [q.structure]
        for names, ids, kind in ((entity_names, q.anchors, "entity"), (relation_names, q.relations, "relation"),
                                 (entity_names, sorted(q.answers), "entity")):
            fields.append(",".join(names[i] for i in ids))
            bad = [names[i] for i in ids if "," in names[i] or not names[i]]
            if bad:
                raise QueryError(f"{kind} name {bad[0]!r} does not fit a query file's comma-separated fields")
        lines.append("\t".join(fields) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
