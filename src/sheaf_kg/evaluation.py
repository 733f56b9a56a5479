"""Filtered ranking metrics and test-query construction.

Each query contributes one rank per true answer, filtered against the
query's other true answers; ``answer_ranks`` takes a block of queries per
call and counts their ranks a bounded number of cells at a time.
Metrics (MRR, Hits@K) are fractions in [0, 1]; multi-seed aggregation uses
the population standard deviation.
Test queries are sampled and answered by walking the edges of
``query._TEMPLATES``, the one record of each structure's shape. The walks
draw from the caller's index of the full graph, less the triples that only
the valid split holds, so one index serves every structure of a set-up.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, QueryError, as_id
from .kgdata import TEST, TRAIN, VALID, KnowledgeGraph, TripleIndex, _triple_keys
# unused here: the benchmark wraps ``evaluation.build_index`` by name to count index builds
from .kgdata import build_index  # noqa: F401
from .model import Model
from .query import (
    _TEMPLATES,
    STRUCTURE_ARITY,
    Query,
    Ranking,
    answer_queries,
    answer_query,  # noqa: F401 -- part of this module's names: callers resolve it here
    entity_chaining_exact,
    naive_traversal_score,
    check_finite,
)

logger = logging.getLogger(__name__)

METHODS = ("harmonic", "naive", "chaining")


def filtered_rank(ranking: Ranking, answer: int, other_answers=frozenset()) -> int:
    """1-based rank of ``answer`` ignoring the other true answers.

    Candidates count as ahead when their (value, entity index) pair sorts
    strictly before the answer's, matching the ranking's own tie-break.
    """
    pos = ranking.position(answer)  # raises if absent
    others = [as_id(a, QueryError, "answer ids must be integers") for a in other_answers]
    return pos - int(np.count_nonzero(np.isin(ranking.entity_ids[:pos], others))) + 1


def answer_ranks(candidates: np.ndarray, values: np.ndarray, answers) -> list[np.ndarray]:
    """Filtered 1-based ranks of each row's answers, in ascending answer order.

    ``candidates`` are entity ids in ascending order, ``values`` their
    ``(rows, candidates)`` scores and ``answers`` one answer set per row. A
    candidate counts as ahead of an answer when its (value, entity index)
    pair sorts strictly before the answer's and it is not an answer of that
    row: ``filtered_rank``'s count, taken without sorting the candidates.
    The block's answers go into one ``(rows, candidates)`` mask and are
    counted a fixed number of (answer, candidate) cells at a time.
    """
    sizes = [len(a) for a in answers]
    answers = np.array([a for row_answers in answers for a in sorted(row_answers)], dtype=np.int64)
    cols = np.searchsorted(candidates, answers)
    found = cols < len(candidates)
    found[found] = candidates[cols[found]] == answers[found]
    if not found.all():
        raise QueryError(f"entity {answers[~found][0]} not present in ranking")
    rows = np.repeat(np.arange(len(sizes)), sizes)
    is_answer = np.zeros(values.shape, dtype=bool)
    is_answer[rows, cols] = True
    counts, index = np.empty(len(cols), dtype=np.int64), np.arange(len(candidates))
    step = max(1, 2**16 // max(1, len(candidates)))  # bounds the working set to 2**16 cells
    for lo in range(0, len(cols), step):
        at, col = rows[lo:lo + step], cols[lo:lo + step]
        row, value = values[at], values[at, col][:, None]
        ahead = (row < value) | ((row == value) & (index < col[:, None]))
        counts[lo:lo + step] = np.count_nonzero(ahead & ~is_answer[at], axis=1)
    return np.split(1 + counts, np.cumsum(sizes)[:-1])[:len(sizes)]


def mrr(ranks) -> float:
    """Mean reciprocal rank of an array (or sequence) of ranks."""
    if (ranks := np.asarray(ranks)).size == 0:
        raise EvaluationError("MRR of an empty rank list")
    return float(np.mean(1.0 / ranks))


def hits_at_k(ranks, k: int) -> float:
    """Fraction of an array (or sequence) of ranks at or below ``k``."""
    if k < 1:
        raise EvaluationError("k must be >= 1")
    if (ranks := np.asarray(ranks)).size == 0:
        raise EvaluationError("Hits@K of an empty rank list")
    return float(np.mean(np.where(ranks <= k, 1.0, 0.0)))


@dataclass(frozen=True)
class StructureMetrics:
    mrr: float
    hits1: float
    hits10: float
    n_ranks: int
    n_queries: int


@dataclass(frozen=True)
class MetricReport:
    per_structure: dict[str, StructureMetrics]


def _traverse_answers(index: TripleIndex, structure: str, anchors, relations) -> set[int]:
    """All entities satisfying the query template against the indexed triples.

    Each template lists its edges in topological order, so a vertex's set is
    complete before an edge leaves it: the tails reached along one entering
    edge, intersected over the vertex's entering edges.
    """
    template = _TEMPLATES[structure]
    reached = {v: {a} for v, a in zip(template["anchors"], anchors)}
    for head_v, slot, tail_v in template["edges"]:
        step = {t for u in reached[head_v] for t in index.tails(u, relations[slot])}
        reached[tail_v] = reached[tail_v] & step if tail_v in reached else step
    return reached[template["target"]]


def build_easy_queries(
    kg: KnowledgeGraph,
    index: TripleIndex,
    structure: str,
    count: int,
    rng: np.random.Generator,
) -> list[Query]:
    """Sample queries whose constituent triples are known to the model.

    Each attempt walks the structure's template edges in topological order.
    The first edge takes a uniform triple: a test triple for 1p, else a train
    or test triple. Each later edge draws a uniform relation, then a uniform
    train or test neighbour along it of its endpoint already placed; none
    rejects the attempt. Once the last edge entering a vertex is placed, the
    anchored edges entering it must be distinct ``(anchor, relation)``
    pairs. Every entity and relation a query mentions must occur in at least
    one training triple. ``index`` must cover the full graph: it supplies
    the answer sets, and its neighbour tables, less the neighbours whose only
    triple is a valid one, are the sampling pool. So the caller's one index
    serves every structure. Fewer than ``count`` queries may be returned
    (with a warning) when the graph cannot support the structure.
    """
    if structure not in STRUCTURE_ARITY:
        raise QueryError(f"unknown structure {structure!r}")
    if (count := as_id(count, QueryError, "count must be an integer")) < 0:
        raise QueryError(f"count must be >= 0, got {count}")
    train = kg.triples_of(TRAIN)
    if len(train) == 0:
        raise EvaluationError("easy-query construction needs a nonempty training split")
    n, n_rel = kg.n_entities, kg.schema.n_relations
    if (index.n_entities, index.n_relations) != (n, n_rel) or not index.contains(kg.triples).all():
        raise EvaluationError("the query index must cover every triple of the graph")
    train_entities = set(np.flatnonzero(np.bincount(train[:, [0, 2]].ravel())).tolist())
    train_relations = set(np.flatnonzero(np.bincount(train[:, 1])).tolist())
    # the index keys of the triples that only the valid split holds (sorted keys search faster)
    pool = np.sort(_triple_keys(kg.triples[~kg.split_mask(VALID)], n, n_rel))
    in_pool = np.zeros(len(index.keys), dtype=bool)
    in_pool[index.keys.searchsorted(pool)] = True
    valid_only = set(index.keys[~in_pool].tolist())
    first = kg.triples_of(TEST)
    if structure != "1p":
        first = np.concatenate([train, first], axis=0)
    edges, anchor_vertices = _TEMPLATES[structure]["edges"], _TEMPLATES[structure]["anchors"]
    last_into = {v: i for i, (_, _, v) in enumerate(edges)}

    def walk():
        """One attempt's ``(anchors, relations)``, or None if rejected."""
        at, rel = {}, {}
        head_v, slot, tail_v = edges[0]
        # a vertex whose only entering edge is the first has no pairs to compare
        at[head_v], rel[slot], at[tail_v] = first[rng.integers(0, len(first))].tolist()
        for i, (head_v, slot, tail_v) in enumerate(edges[1:], start=1):
            rel[slot] = r = int(rng.integers(0, n_rel))
            if head_v in at:
                new_v, h = tail_v, at[head_v]
                choices = [t for t in index.tails(h, r) if (h * n_rel + r) * n + t not in valid_only]
            else:
                new_v, t = head_v, at[tail_v]
                choices = [h for h in index.heads(t, r) if (h * n_rel + r) * n + t not in valid_only]
            if not choices:
                return None
            at[new_v] = choices[rng.integers(0, len(choices))]
            if i == last_into[tail_v]:
                pairs = [(at[u], rel[s]) for u, s, v in edges
                         if v == tail_v and u in anchor_vertices]
                if len(set(pairs)) < len(pairs):
                    return None
        if not (set(at.values()) <= train_entities and set(rel.values()) <= train_relations):
            return None
        return tuple(at[v] for v in anchor_vertices), tuple(rel[s] for s in sorted(rel))

    queries: dict[tuple, Query] = {}
    attempts = 0
    max_attempts = max(200, 60 * count)
    while len(first) and len(queries) < count and attempts < max_attempts:
        attempts += 1
        placed = walk()
        if placed is None or (structure, *placed) in queries:
            continue
        answers = _traverse_answers(index, structure, *placed)
        if answers:
            queries[(structure, *placed)] = Query(structure, *placed, frozenset(answers))
    result = list(queries.values())
    if len(result) < count:
        logger.warning(
            "built %d/%d easy %s queries (graph too sparse for more)",
            len(result), count, structure,
        )
    return result


def _scored_groups(model: Model, queries: list[Query], method: str):
    """``(members, candidates, values)`` as ``answer_queries`` yields them, for any method."""
    if method == "harmonic":
        yield from answer_queries(queries, model)
        return
    score = naive_traversal_score if method == "naive" else entity_chaining_exact
    for i, q in enumerate(queries):
        candidates, values = score(q, model).scored
        yield [i], candidates, values[None, :]


def evaluate(model: Model, queries, method: str = "harmonic") -> MetricReport:
    """Rank every query, filter each answer, and aggregate per structure.

    Harmonic answering is batched (see ``answer_queries``): each
    ``(structure, relations)`` group gets one Schur complement, and each
    block of queries one GEMM for the anchor-candidate terms; each answer's
    filtered rank is a count of the non-answer candidates whose (value,
    entity index) pair sorts ahead of its own (``answer_ranks``, one call per
    block), so no candidate list is sorted. The baselines rank one query at
    a time. Results are in query order whatever the grouping. A query with no
    answers, or a candidate value that is not finite, is an ``EvaluationError``.
    """
    queries = list(queries)
    if not queries:
        raise EvaluationError("no queries to evaluate")
    if method not in METHODS:
        raise EvaluationError(f"unknown evaluation method {method!r}; valid: {METHODS}")
    for i, q in enumerate(queries):
        if not q.answers:
            raise EvaluationError(f"query {i}, the {q.structure} query on relations {q.relations}, has no answers")
    ranks_of: dict[int, np.ndarray] = {}  # by position in ``queries``
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        for members, candidates, values in _scored_groups(model, queries, method):
            if not np.isfinite(values).all():  # name the first query with a non-finite value
                for i, row in zip(members, values):
                    check_finite(row, model, f"the {queries[i].structure} query", queries[i].relations)
            ranks = answer_ranks(candidates, values, [queries[i].answers for i in members])
            ranks_of.update(zip(members, ranks))

    ranks_by_structure: dict[str, list[np.ndarray]] = {}
    for i, q in enumerate(queries):
        ranks_by_structure.setdefault(q.structure, []).append(ranks_of[i])
    per_structure = {}
    for tag, query_ranks in ranks_by_structure.items():
        ranks = np.concatenate(query_ranks)
        per_structure[tag] = StructureMetrics(
            mrr=mrr(ranks),
            hits1=hits_at_k(ranks, 1),
            hits10=hits_at_k(ranks, 10),
            n_ranks=len(ranks),
            n_queries=len(query_ranks),
        )
    return MetricReport(per_structure=per_structure)


def aggregate_reports(reports) -> dict[str, dict[str, tuple[float, float]]]:
    """Per-structure mean and population std of each metric across seeds."""
    reports = list(reports)
    if not reports:
        raise EvaluationError("no reports to aggregate")
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for tag in sorted({tag for rep in reports for tag in rep.per_structure}):
        structures = [rep.per_structure[tag] for rep in reports if tag in rep.per_structure]
        out[tag] = {}
        for name in ("mrr", "hits1", "hits10"):
            vals = [getattr(metrics, name) for metrics in structures]
            out[tag][name] = (float(np.mean(vals)), float(np.std(vals)))
    return out


def write_report(aggregated, path, counts=None) -> None:
    """Flat machine-readable report: structure, metric, mean, std per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for tag in sorted(aggregated):
            for name, (mean, std) in sorted(aggregated[tag].items()):
                fh.write(f"{tag}\t{name}\t{mean!r}\t{std!r}\n")
            if counts and tag in counts:
                fh.write(f"{tag}\tn_queries\t{counts[tag]!r}\t0.0\n")


def format_report_table(aggregated) -> str:
    """Aligned percentage table for stdout."""
    lines = [f"{'structure':<10} {'MRR%':>8} {'H@1%':>8} {'H@10%':>8} {'±MRR%':>8}"]
    for tag in sorted(aggregated):
        m = aggregated[tag]
        lines.append(
            f"{tag:<10} {100 * m['mrr'][0]:>8.2f} {100 * m['hits1'][0]:>8.2f} "
            f"{100 * m['hits10'][0]:>8.2f} {100 * m['mrr'][1]:>8.2f}"
        )
    return "\n".join(lines)
