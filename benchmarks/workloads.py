"""The four benchmark workloads and the measured pipeline they share.

Every workload runs what a user of the library runs, with one caller in a
closed loop (each call starts when the previous one has returned):

1. set-up: build the knowledge graph from the seed, index it, build easy
   test queries for all seven structures, initialise the model to train,
   and pass the model to evaluate (the planted generator, or a random
   initialisation) through a checkpoint save and load, as the CLI ``eval``
   command does. Set-up is repeated and timed each time;
2. training: ``training.train`` on a fresh copy of the initial model;
3. evaluation: ``evaluation.evaluate`` over the full query set;
4. interactive queries: ``query.answer_query(q, model).top(10)``, one query
   at a time, as the CLI ``query`` command does, in two passes over half of
   the query set (see ``interactive_passes``). These passes are separate from
   evaluation so that batching for throughput cannot hide a slower single
   query.

Steps 2 to 4 form a round, and rounds repeat for the run's length. The
workloads differ in what dominates (see ``WORKLOADS``): two spend most of a
round training, two spend it answering queries. All library calls go
through module attributes so that the traced run sees them.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from sheaf_kg import checkpoint, evaluation, kgdata, model as model_mod, query, synth, training
from sheaf_kg.errors import SheafKGError

from gauge import INTERVAL_S, Gauge
from tracing import highest_percentile, samples_needed

SETUP_REPEATS = 3  # at least; small set-ups repeat until SETUP_SECONDS
SETUP_SECONDS = 2.0
LATENCY_PERCENTILE = 99.0
TOP_K = 10
CHECK_SAMPLE = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entities: int
    per_structure: int  # easy queries requested per structure
    make_graph: Callable  # (entities, seed) -> (kg, model to evaluate)
    train_model: model_mod.ModelConfig
    train_config: training.TrainConfig
    planted: bool  # the evaluated model generated the graph, so every query ranks first
    recovery_floor: tuple[float, float] | None = None  # (1p MRR, Hits@10) the trained model must reach


@dataclass
class Inputs:
    kg: kgdata.KnowledgeGraph
    queries: list
    init_model: model_mod.Model
    eval_model: model_mod.Model  # loaded from the checkpoint
    memory_model: model_mod.Model  # the same model before the checkpoint


@dataclass
class RunResult:
    metrics: dict[str, float]
    checks: dict[str, tuple[bool, str]]
    attempted: int
    failed: int
    properties: dict
    wall_s: float
    eval_mrr: float
    recovery_mrr: float
    notes: list[str]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def planted_graph(variant, relations, dim, sections):
    def make(entities: int, seed: int):
        ds = synth.generate_planted_kg(
            entities, relations, dim, 0.0, seed, variant=variant, sections=sections
        )
        return ds.kg, ds.generator
    return make


def random_kg(n_entities: int, n_relations: int, dim: int, seed: int) -> kgdata.KnowledgeGraph:
    """Uniform random many-to-many graph.

    Each (head, relation) pair is present with probability 1/2 and then has
    1 + Poisson(1) uniformly drawn tails, so multi-hop queries have many
    answers and almost never share a (structure, relations) key. Splits are
    80/10/10 after a seeded shuffle.
    """
    rng = np.random.default_rng([seed, 1])
    rows = []
    for r in range(n_relations):
        heads = np.flatnonzero(rng.random(n_entities) < 0.5)
        heads = np.repeat(heads, 1 + rng.poisson(1.0, size=len(heads)))
        tails = rng.integers(0, n_entities, size=len(heads))
        rows.append(np.column_stack([heads, np.full(len(heads), r), tails]))
    triples = np.unique(np.concatenate(rows), axis=0).astype(np.int64)
    triples = triples[rng.permutation(len(triples))]
    n = len(triples)
    n_held = max(1, n // 10)
    split = np.repeat(np.array([0, 1, 2], dtype=np.int8), [n - 2 * n_held, n_held, n_held])
    return kgdata.KnowledgeGraph(
        schema=kgdata.default_schema(n_relations, dim, dim),
        entities=tuple(f"e{i:05d}" for i in range(n_entities)),
        entity_type=np.zeros(n_entities, dtype=np.int64),
        triples=triples,
        split=split,
    )


def random_graph(relations, dim, eval_config):
    def make(entities: int, seed: int):
        kg = random_kg(entities, relations, dim, seed)
        return kg, model_mod.init_for_kg(eval_config, kg, seed)
    return make


SHVT_IDENTITY = model_mod.ModelConfig(
    variant="shvt", sections=1, margin=1.0, entity_dim=16, relation_dim=16, constraint="identity",
)
FREE_SHV = model_mod.ModelConfig(variant="shv", entity_dim=16, relation_dim=16, constraint="free")
ADAGRAD = training.TrainConfig(
    epochs=1, batch_size=256, learning_rate=0.1, optimizer="adagrad", negatives_per_positive=4,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-acceptance",
            why="acceptance recovery setup (200 entities, SGD, 12 negatives); training is"
                " sampler-bound, so sampler changes show here and kernel changes barely do",
            entities=200,
            per_structure=200,
            make_graph=planted_graph("shvt", 5, 16, 1),
            train_model=SHVT_IDENTITY,
            # the hyperparameters of acceptance criterion 9 (planted recovery)
            train_config=training.TrainConfig(
                epochs=100, batch_size=32, learning_rate=0.05, optimizer="sgd",
                negatives_per_positive=12, margin=1.0, max_entity_norm=2.0,
            ),
            planted=True,
            recovery_floor=(0.50, 0.80),
        ),
        Workload(
            name="train-orthogonal",
            why="2,000 entities, m=4 orthogonal maps, Adagrad with penalty; training is"
                " kernel-bound, so kernel changes show here and sampler changes barely do",
            entities=2000,
            per_structure=50,
            # The trained model has d=32 and m=4; the evaluated generator has
            # d=16 and m=1, because at d=32, m=4 one query takes 30 ms and the
            # 1,000 samples that p99 needs would not fit in a run.
            make_graph=planted_graph("shv", 5, 16, 1),
            train_model=model_mod.ModelConfig(
                variant="shv", sections=4, alpha=0.01, entity_dim=32, relation_dim=32,
                constraint="orthogonal",
            ),
            train_config=replace(ADAGRAD, alpha=0.01),
            planted=True,
        ),
        Workload(
            name="eval-planted",
            why="2,500-entity planted generator from a checkpoint; queries share"
                " (structure, relations) keys heavily and have one answer each",
            entities=2500,
            per_structure=200,
            make_graph=planted_graph("shvt", 5, 16, 1),
            train_model=SHVT_IDENTITY,
            train_config=ADAGRAD,
            planted=True,
        ),
        Workload(
            name="eval-random",
            why="random many-to-many graph with a random-init free-map model; keys"
                " rarely repeat, queries have many answers and filtering does real work",
            entities=2000,
            per_structure=200,
            make_graph=random_graph(16, 16, FREE_SHV),
            train_model=FREE_SHV,
            train_config=ADAGRAD,
            planted=False,
        ),
    )
}


def scaled(workload: Workload, factor: float) -> Workload:
    """A smaller copy of ``workload`` for smoke tests (factor < 1)."""
    return replace(
        workload,
        entities=max(30, int(workload.entities * factor)),
        per_structure=max(3, int(workload.per_structure * factor)),
        train_config=replace(
            workload.train_config, epochs=max(1, int(workload.train_config.epochs * factor))
        ),
    )


def setup(workload: Workload, seed: int, workdir: Path) -> Inputs:
    kg, generated = workload.make_graph(workload.entities, seed)
    index = kgdata.build_index(kg)
    rng = np.random.default_rng([seed, 2])
    queries = []
    for structure in query.STRUCTURES:
        queries.extend(evaluation.build_easy_queries(
            kg, index, structure, workload.per_structure, rng
        ))
    init_model = model_mod.init_for_kg(workload.train_model, kg, seed + 1)
    prefix = workdir / "eval_model"
    checkpoint.save_model(generated, prefix)
    loaded = checkpoint.load_model(prefix)
    return Inputs(kg, queries, init_model, loaded, generated)


def workload_properties(workload: Workload, inputs: Inputs) -> dict:
    """Input properties that decide which optimisations can help."""
    queries = inputs.queries
    keys = {(q.structure, q.relations) for q in queries}
    answers = [len(q.answers) for q in queries]
    per_structure = {}
    for s in query.STRUCTURES:
        group = [q for q in queries if q.structure == s]
        if group:
            per_structure[s] = {
                "queries": len(group),
                "distinct_key_share": len({q.relations for q in group}) / len(group),
                "mean_answers": statistics.fmean(len(q.answers) for q in group),
            }
    n_train = len(inputs.kg.triples_of(kgdata.TRAIN))
    entity_type = inputs.eval_model.entity_type
    return {
        "entities": inputs.kg.n_entities,
        "relations": inputs.kg.schema.n_relations,
        "triples": len(inputs.kg.triples),
        "queries": len(queries),
        "distinct_key_share": len(keys) / len(queries),
        "mean_answers": statistics.fmean(answers),
        "max_answers": max(answers),
        "candidates_per_query": statistics.fmean(
            int(np.sum(entity_type == inputs.eval_model.schema.tail_type[q.relations[-1]]))
            for q in queries
        ),
        "train_triples": n_train,
        "pairs_per_epoch": n_train * workload.train_config.negatives_per_positive,
        "per_structure": per_structure,
    }


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------

class Counter:
    """Operations attempted and failed with a SheafKGError."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, exc: SheafKGError) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def repeat(budget_s: float, fn, min_calls: int = 1) -> list:
    """Call ``fn`` ``min_calls`` times, and again while one more average call fits the budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - start
        if len(results) >= min_calls and elapsed * (len(results) + 1) / len(results) > budget_s:
            return results


def train_once(workload: Workload, inputs: Inputs, seed: int, ops: Counter, gauge: Gauge):
    """One training run on a fresh copy; returns (model, sample, report) or None."""
    model = inputs.init_model.copy()
    config = replace(workload.train_config, seed=seed)
    ops.attempted += 1
    mark = gauge.clock()
    try:
        model, report = training.train(inputs.kg, config, model)
    except SheafKGError as exc:
        ops.fail(exc)
        return None
    return model, gauge.stop(mark), report


def evaluate_all(eval_model, queries, ops: Counter, gauge: Gauge):
    """One ``evaluate`` pass; returns (report, sample, queries ranked).

    If the pass raises, each query is evaluated on its own so that one bad
    query is counted and the rest still run.
    """
    ops.attempted += len(queries)
    mark = gauge.clock()
    try:
        report = evaluation.evaluate(eval_model, queries)
        return report, gauge.stop(mark), len(queries)
    except SheafKGError:
        pass
    good = []
    for q in queries:
        try:
            evaluation.evaluate(eval_model, [q])
            good.append(q)
        except SheafKGError as exc:
            ops.fail(exc)
    if not good:
        return None, gauge.stop(mark), 0
    report = evaluation.evaluate(eval_model, good)
    return report, gauge.stop(mark), len(good)


def answer_each(queries, eval_model, ops: Counter, gauge: Gauge):
    """One interactive pass: ``(start, end, seconds of each query)``, None where it failed."""
    start = time.perf_counter()
    seconds = []
    for q in queries:
        ops.attempted += 1
        mark = gauge.clock()
        try:
            query.answer_query(q, eval_model).top(TOP_K)
        except SheafKGError as exc:
            ops.fail(exc)
            seconds.append(None)
            continue
        seconds.append(gauge.stop(mark)[2])
    return start, time.perf_counter(), seconds


def interactive_passes(queries, eval_model, ops: Counter, gauge: Gauge) -> tuple:
    """Two passes over ``queries``, so that each query has two samples a pass apart."""
    return (answer_each(queries, eval_model, ops, gauge),
            answer_each(queries, eval_model, ops, gauge))


def query_samples(interactive, scale) -> tuple[list[float], list[float]]:
    """Every latency sample, and the faster sample of each query.

    ``scale(start, end)`` is the factor for a pass. Queries that failed in
    both passes have no sample.
    """
    every, fastest = [], []
    for first, second in interactive:
        f1, f2 = scale(*first[:2]), scale(*second[:2])
        for a, b in zip(first[2], second[2]):
            pair = [t * f for t, f in ((a, f1), (b, f2)) if t is not None]
            every.extend(pair)
            if pair:
                fastest.append(min(pair))
    return every, fastest


def micro_mrr(report) -> float:
    """Filtered MRR over every rank of every structure."""
    ranks = sum(m.n_ranks for m in report.per_structure.values())
    return sum(m.mrr * m.n_ranks for m in report.per_structure.values()) / ranks


def recovery(trained, queries):
    """Filtered 1p MRR and Hits@10 of a trained model on held-out 1p queries."""
    held_out = [q for q in queries if q.structure == "1p"]
    m = evaluation.evaluate(trained, held_out).per_structure["1p"]
    return m.mrr, m.hits10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed, workdir, gauge, min_repeats, budget_s):
    """The inputs of the last of several set-ups, and the sample of each set-up."""
    def once():
        mark = gauge.clock()
        inputs = setup(workload, seed, workdir)
        return inputs, gauge.stop(mark)

    done = repeat(budget_s, once, min_repeats)
    return done[-1][0], [sample for _, sample in done]


def timing_metrics(gauge: Gauge, setups, runs, passes, interactive, train_pairs: int,
                   normalized: bool) -> dict[str, float]:
    """The timed end-to-end metrics from the samples of one run.

    With ``normalized`` each timing is scaled by the gauge's factor for the
    stretch it covers: a set-up, a training run, an ``evaluate`` pass, or a
    whole interactive pass. Otherwise the values are raw wall times with the
    gauge's own time left out.
    """
    def scale(start, end):
        return gauge.factor(start, end) if normalized else 1.0

    def seconds(samples):
        return [work * scale(start, end) for start, end, work in samples]

    every, fastest = query_samples(interactive, scale)
    return {
        "setup_s": statistics.median(seconds(setups)),
        "train_pairs_per_s": statistics.median(
            train_pairs / t for t in seconds([r[1] for r in runs])
        ),
        "eval_queries_per_s": statistics.median(
            p[2] / t for p, t in zip(passes, seconds([p[1] for p in passes]))
        ),
        "query_p50_ms": 1000.0 * statistics.median(every),
        "query_p99_ms": 1000.0 * float(np.percentile(fastest, LATENCY_PERCENTILE)),
    }


def run_pipeline(workload: Workload, seed: int, seconds: float, workdir: Path,
                 fixed: bool = False) -> RunResult:
    """Set up, then measure rounds of training, evaluation and interactive queries.

    One round is one training run, one ``evaluate`` pass over the query set
    and two interactive passes over half of the query set, the halves taking
    turns from round to round. Rounds repeat while another one fits in
    ``seconds``, and interactive passes are then topped up to the queries
    that p99 needs. Every timing is taken under a :class:`gauge.Gauge` and
    normalized to the host's nominal speed; throughputs and set-up time are
    medians over the run. p50 is the median of every interactive sample.
    p99 is taken over the faster of each query's two samples, so that a
    lone interruption (a gauge reading, a page fault) does not set the tail.

    With ``fixed`` the run does one set-up and one round without periodic
    gauge readings, so that a traced and an untraced run do the same work.
    """
    wall_start = time.perf_counter()
    ops = Counter()
    checks: dict[str, tuple[bool, str]] = {}
    with Gauge(None if fixed else INTERVAL_S) as gauge:
        inputs, setups = timed_setup(
            workload, seed, workdir, gauge, *((1, 0.0) if fixed else (SETUP_REPEATS, SETUP_SECONDS))
        )
        queries = inputs.queries
        if not queries:
            raise RuntimeError(f"{workload.name}: set-up built no queries")
        order = [queries[i] for i in np.random.default_rng([seed, 3]).permutation(len(queries))]

        runs, passes, interactive = [], [], []

        def one_round():
            runs.append(train_once(workload, inputs, seed, ops, gauge))
            passes.append(evaluate_all(inputs.eval_model, queries, ops, gauge))
            half = order[len(runs) % 2::2]  # alternate halves, so a round answers len(queries)
            interactive.append(interactive_passes(half, inputs.eval_model, ops, gauge))

        def answered():
            return len(query_samples(interactive, lambda *_: 1.0)[1])

        if fixed:
            one_round()
        else:
            repeat(seconds, one_round)
            need = samples_needed(LATENCY_PERCENTILE)
            while answered() < need:
                interactive.append(interactive_passes(
                    order[:need - answered()], inputs.eval_model, ops, gauge
                ))

    done = [r for r in runs if r is not None]
    passes = [p for p in passes if p[0] is not None]
    if not done or not passes or not answered():
        raise RuntimeError(f"{workload.name}: a phase failed on every attempt: {ops.errors}")

    pairs = (len(inputs.kg.triples_of(kgdata.TRAIN)) * workload.train_config.negatives_per_positive
             * workload.train_config.epochs)
    losses = {tuple(report.epoch_mean_loss) for _, _, report in done}
    checks["training_deterministic"] = (
        len(losses) == 1, f"{len(done)} runs, {len(losses)} distinct loss curves"
    )
    recovery_mrr, recovery_hits10 = recovery(done[0][0], queries)
    if workload.recovery_floor is not None:
        floor_mrr, floor_hits = workload.recovery_floor
        checks["recovery_floor"] = (
            recovery_mrr >= floor_mrr and recovery_hits10 >= floor_hits,
            f"1p MRR {recovery_mrr:.4f} (>= {floor_mrr}), Hits@10 {recovery_hits10:.4f}"
            f" (>= {floor_hits})",
        )

    eval_mrrs = {micro_mrr(report) for report, _, _ in passes}
    checks["evaluation_deterministic"] = (
        len(eval_mrrs) == 1, f"{len(passes)} passes, {len(eval_mrrs)} distinct MRRs"
    )
    report = passes[0][0]
    eval_mrr = micro_mrr(report)
    if workload.planted:
        below = {s: m.mrr for s, m in report.per_structure.items() if m.mrr != 1.0}
        checks["generator_ranks_first"] = (
            not below, "MRR 1.0 on every structure" if not below else f"below 1.0: {below}"
        )

    checks.update(ranking_checks(inputs, seed))

    metrics = timing_metrics(gauge, setups, done, passes, interactive, pairs, normalized=True)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = timing_metrics(gauge, setups, done, passes, interactive, pairs, normalized=False)
    every, fastest = query_samples(interactive, lambda *_: 1.0)
    notes = [
        f"{len(setups)} set-ups, {len(runs)} rounds",
        gauge.summary(),
        "raw (not normalized) " + ", ".join(f"{k} {v!r}" for k, v in raw.items()),
        f"query latency: p50 over {len(every)} samples, p99 over the faster sample of each"
        f" of {len(fastest)} queries; highest percentile with >= 10 of those beyond it:"
        f" p{highest_percentile(len(fastest))}",
        f"eval_mrr {eval_mrr!r} (filtered, over the ranks of all structures)",
        f"recovery_mrr {recovery_mrr!r}, Hits@10 {recovery_hits10!r}"
        " (trained model, held-out 1p queries)",
        f"errors: {ops.failed} of {ops.attempted} operations"
        f" (error rate {ops.failed / max(ops.attempted, 1)!r})",
        *ops.errors,
    ]
    return RunResult(
        metrics=metrics,
        checks=checks,
        attempted=ops.attempted,
        failed=ops.failed,
        properties=workload_properties(workload, inputs),
        wall_s=time.perf_counter() - wall_start,
        eval_mrr=eval_mrr,
        recovery_mrr=recovery_mrr,
        notes=notes,
    )


def ranking_checks(inputs: Inputs, seed: int) -> dict[str, tuple[bool, str]]:
    """Compare rankings on sampled queries against two references."""
    queries = inputs.queries
    sample = np.random.default_rng([seed, 4]).choice(
        len(queries), size=min(CHECK_SAMPLE, len(queries)), replace=False
    )
    mismatched = [
        int(j) for j in sample
        if not _same_ranking(query.answer_query(queries[j], inputs.eval_model),
                             query.answer_query(queries[j], inputs.memory_model))
    ]
    # Without interior vertices the harmonic extension must equal the exact
    # minimum over entity assignments, an independent implementation.
    no_interior = [q for q in queries if q.structure in ("1p", "2i", "3i")]
    reference = [no_interior[int(j)] for j in np.random.default_rng([seed, 5]).choice(
        len(no_interior), size=min(CHECK_SAMPLE, len(no_interior)), replace=False
    )]
    differ = [q for q in reference if not _same_values(
        query.answer_query(q, inputs.eval_model), query.entity_chaining_exact(q, inputs.eval_model)
    )]
    return {
        "checkpoint_rankings_equal": (
            not mismatched,
            f"{len(sample)} sampled queries" + (f", differ: {mismatched}" if mismatched else ""),
        ),
        "harmonic_matches_chaining": (
            not differ,
            f"{len(reference)} sampled 1p/2i/3i queries" + (f", differ: {differ[:3]}" if differ else ""),
        ),
    }


def _same_values(a, b) -> bool:
    """Whether two rankings give each entity the same value up to rounding."""
    va, vb = a.values[np.argsort(a.entity_ids)], b.values[np.argsort(b.entity_ids)]
    scale = max(1.0, float(np.max(np.abs(va))))
    return (np.array_equal(np.sort(a.entity_ids), np.sort(b.entity_ids))
            and np.allclose(va, vb, rtol=0.0, atol=1e-9 * scale))


def _same_ranking(a, b) -> bool:
    return np.array_equal(a.entity_ids, b.entity_ids) and np.array_equal(a.values, b.values)
