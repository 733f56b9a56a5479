"""Which library names the traced run wraps, and the per-layer metrics.

Each wrap sits at the name its caller resolves at call time: ``train()``
calls ``training.sample_negatives`` and ``_kernels.margin_grads``,
``evaluate()`` calls ``evaluation.answer_query``, and ``answer_query_graph``
calls ``query.assemble_laplacian`` and ``query.psd_pinv``. The benchmark
itself calls ``training.train``, ``evaluation.evaluate``,
``query.answer_query`` and the set-up functions through their modules, so
those wraps see its calls too.

``LAYER_METRICS`` names every per-layer metric, its unit, and the
end-to-end metric and workloads it should move. The traced run prints them
all. ``BENCHMARK.json`` lists only those that every workload exercises:
the orthogonality gradient, the polar projection and the planted generator
never run on some workloads, and a time that reads zero on every run of a
workload cannot be told apart from a missing measurement.
"""

from __future__ import annotations

from pathlib import Path

from tracing import Tracer

TRAIN = "train-acceptance, train-orthogonal"
EVAL = "eval-planted, eval-random"
ALL = "all workloads"

# name: (unit, end-to-end metric it should move, workloads where it should move most)
LAYER_METRICS = {
    "training.sample_negatives_s": ("s", "train_pairs_per_s", "train-acceptance"),
    "training.negatives": ("count", "train_pairs_per_s", "train-acceptance"),
    "training.sampler_accept_ratio": ("ratio", "train_pairs_per_s", "train-acceptance"),
    "training.positive_after_cap": ("count", "train_pairs_per_s", "train-acceptance"),
    "training.train_self_s": ("s", "train_pairs_per_s", "train-acceptance"),
    "kernels.margin_grads_s": ("s", "train_pairs_per_s", "train-orthogonal"),
    "kernels.pairs": ("count", "train_pairs_per_s", TRAIN),
    "kernels.active_pair_fraction": ("ratio", "train_pairs_per_s", "train-orthogonal"),
    "kernels.orthogonality_grad_s": ("s", "train_pairs_per_s", "train-orthogonal"),
    "model.orthonormal_columns_s": ("s", "train_pairs_per_s", "train-orthogonal"),
    "model.orthonormal_columns_calls": ("count", "train_pairs_per_s", "train-orthogonal"),
    "model.relation_discrepancy_s": ("s", "train_pairs_per_s", "train-orthogonal"),
    "query.answer_query_self_s": ("s", "eval_queries_per_s, query_p50_ms", EVAL),
    "query.ranking_from_scores_s": ("s", "eval_queries_per_s, query_p50_ms", EVAL),
    "query.build_query_graph_s": ("s", "eval_queries_per_s, query_p50_ms", EVAL),
    "query.query_sheaf_s": ("s", "eval_queries_per_s, query_p50_ms", EVAL),
    "query.candidates_per_query": ("count", "eval_queries_per_s, query_p50_ms", EVAL),
    "query.distinct_key_share": ("ratio", "eval_queries_per_s (grouping by key)", "eval-planted"),
    "sheaf.assemble_laplacian_s": ("s", "eval_queries_per_s", "eval-random"),
    "sheaf.assemble_laplacian_calls": ("count", "eval_queries_per_s", "eval-random"),
    "sheaf.psd_pinv_s": ("s", "eval_queries_per_s", "eval-random"),
    "sheaf.psd_pinv_calls": ("count", "eval_queries_per_s", "eval-random"),
    "evaluation.filtered_rank_s": ("s", "eval_queries_per_s", "eval-random"),
    "evaluation.filtered_rank_calls": ("count", "eval_queries_per_s", "eval-random"),
    "evaluation.evaluate_self_s": ("s", "eval_queries_per_s", "eval-random"),
    "evaluation.build_easy_queries_s": ("s", "setup_s", ALL),
    "kgdata.build_index_s": ("s", "setup_s", ALL),
    "kgdata.build_index_calls": ("count", "setup_s", ALL),
    "checkpoint.save_s": ("s", "setup_s", ALL),
    "checkpoint.load_s": ("s", "setup_s", ALL),
    "checkpoint.bytes": ("B", "setup_s", ALL),
    "synth.generate_s": ("s", "setup_s", f"{TRAIN}, eval-planted"),
    "trace.overhead": ("ratio", "(traced wall time / untraced wall time)", ALL),
}


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the library's layer boundaries; ``lib`` is the imported package."""
    training, kernels, model = lib.training, lib._kernels, lib.model
    query = lib.query
    evaluation, kgdata = lib.evaluation, lib.kgdata
    checkpoint, synth = lib.checkpoint, lib.synth

    contains = tracer.count_calls(kgdata.TripleIndex, "__contains__", "index_probes")

    def after_sampling(negatives, kg, index, triple, k, rng):
        tracer.count("negatives", len(negatives))
        tracer.count("positive_after_cap", sum(1 for row in negatives if contains(index, row)))

    def after_kernel(result, X, RH, RT, T, pos, *rest):
        tracer.count("pairs", len(pos))
        tracer.count("active_pairs", result[1])

    seen_queries: set = set()
    seen_keys: set = set()

    def after_answer(ranking, q, model_, *rest):
        if q in seen_queries:
            return
        seen_queries.add(q)
        tracer.count("queries")
        tracer.count("candidates", len(ranking))
        key = (q.structure, q.relations)
        if key not in seen_keys:
            seen_keys.add(key)
            tracer.count("distinct_keys")

    def after_save(_result, model_, prefix):
        tracer.count("checkpoint_bytes", sum(
            Path(str(prefix) + suffix).stat().st_size for suffix in (".manifest", ".tensors")
        ))

    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "sample_negatives", "training.sample_negatives", after_sampling)
    tracer.wrap(training, "relation_discrepancy", "model.relation_discrepancy")
    tracer.wrap(training, "build_index", "kgdata.build_index")
    tracer.wrap(kernels, "margin_grads", "kernels.margin_grads", after_kernel)
    tracer.wrap(kernels, "orthogonality_grad_numpy", "kernels.orthogonality_grad")
    tracer.wrap(model, "orthonormal_columns", "model.orthonormal_columns")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")
    tracer.wrap(evaluation, "answer_query", "query.answer_query", after_answer)
    tracer.wrap(evaluation, "filtered_rank", "evaluation.filtered_rank")
    tracer.wrap(evaluation, "build_easy_queries", "evaluation.build_easy_queries")
    tracer.wrap(evaluation, "build_index", "kgdata.build_index")
    tracer.wrap(query, "answer_query", "query.answer_query", after_answer)
    tracer.wrap(query, "build_query_graph", "query.build_query_graph")
    tracer.wrap(query, "query_sheaf", "query.query_sheaf")
    tracer.wrap(query, "assemble_laplacian", "sheaf.assemble_laplacian")
    tracer.wrap(query, "psd_pinv", "sheaf.psd_pinv")
    tracer.wrap(query, "ranking_from_scores", "query.ranking_from_scores")
    tracer.wrap(kgdata, "build_index", "kgdata.build_index")
    tracer.wrap(checkpoint, "save_model", "checkpoint.save", after_save)
    tracer.wrap(checkpoint, "load_model", "checkpoint.load")
    tracer.wrap(synth, "generate_planted_kg", "synth.generate")


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Every metric in LAYER_METRICS from one traced run."""
    times = tracer.layer_times()
    c = tracer.counters

    def self_s(name):
        return times[name].self_s if name in times else 0.0

    def calls(name):
        return times[name].calls if name in times else 0

    def share(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    return {
        "training.sample_negatives_s": self_s("training.sample_negatives"),
        "training.negatives": c.get("negatives", 0),
        "training.sampler_accept_ratio": share("negatives", "index_probes"),
        "training.positive_after_cap": c.get("positive_after_cap", 0),
        "training.train_self_s": self_s("training.train"),
        "kernels.margin_grads_s": self_s("kernels.margin_grads"),
        "kernels.pairs": c.get("pairs", 0),
        "kernels.active_pair_fraction": share("active_pairs", "pairs"),
        "kernels.orthogonality_grad_s": self_s("kernels.orthogonality_grad"),
        "model.orthonormal_columns_s": self_s("model.orthonormal_columns"),
        "model.orthonormal_columns_calls": calls("model.orthonormal_columns"),
        "model.relation_discrepancy_s": self_s("model.relation_discrepancy"),
        "query.answer_query_self_s": self_s("query.answer_query"),
        "query.ranking_from_scores_s": self_s("query.ranking_from_scores"),
        "query.build_query_graph_s": self_s("query.build_query_graph"),
        "query.query_sheaf_s": self_s("query.query_sheaf"),
        "query.candidates_per_query": share("candidates", "queries"),
        "query.distinct_key_share": share("distinct_keys", "queries"),
        "sheaf.assemble_laplacian_s": self_s("sheaf.assemble_laplacian"),
        "sheaf.assemble_laplacian_calls": calls("sheaf.assemble_laplacian"),
        "sheaf.psd_pinv_s": self_s("sheaf.psd_pinv"),
        "sheaf.psd_pinv_calls": calls("sheaf.psd_pinv"),
        "evaluation.filtered_rank_s": self_s("evaluation.filtered_rank"),
        "evaluation.filtered_rank_calls": calls("evaluation.filtered_rank"),
        "evaluation.evaluate_self_s": self_s("evaluation.evaluate"),
        "evaluation.build_easy_queries_s": self_s("evaluation.build_easy_queries"),
        "kgdata.build_index_s": self_s("kgdata.build_index"),
        "kgdata.build_index_calls": calls("kgdata.build_index"),
        "checkpoint.save_s": self_s("checkpoint.save"),
        "checkpoint.load_s": self_s("checkpoint.load"),
        "checkpoint.bytes": c.get("checkpoint_bytes", 0),
        "synth.generate_s": self_s("synth.generate"),
        "trace.overhead": overhead,
    }
