"""The benchmark's library calls and wrapped names exist and are still called.

``benchmarks/layers.instrument`` replaces library attributes by name, and
``benchmarks/workloads`` builds library configs when it is imported, so a
renamed or removed function or keyword fails here rather than in a benchmark
run.
"""

import json
import sys
from pathlib import Path

import numpy as np

import sheaf_kg
import sheaf_kg.checkpoint  # noqa: F401  (instrument wraps these modules too)
import sheaf_kg.evaluation  # noqa: F401
import sheaf_kg.synth  # noqa: F401
from sheaf_kg.model import ModelConfig, init_for_kg
from sheaf_kg.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from layers import instrument  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_workloads_are_the_declared_four_and_build_library_configs():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(WORKLOADS) == sorted(w["name"] for w in declared)
    for name, workload in WORKLOADS.items():
        assert isinstance(workload.train_model, ModelConfig), name
        assert isinstance(workload.train_config, TrainConfig), name


def test_instrument_wraps_existing_names_and_restores_them():
    originals = (sheaf_kg.training.train, sheaf_kg._kernels.margin_grads, sheaf_kg.query.psd_pinv)
    with Tracer() as tracer:
        instrument(tracer, sheaf_kg)
        assert sheaf_kg.training.train is not originals[0]
        ds = sheaf_kg.synth.generate_planted_kg(30, 2, 4, 0.0, seed=0, variant="shvt")
        model = init_for_kg(ModelConfig(variant="shvt", entity_dim=4, relation_dim=4), ds.kg, seed=0)
        sheaf_kg.training.train(ds.kg, TrainConfig(epochs=1, batch_size=16, seed=0), model)
    assert (sheaf_kg.training.train, sheaf_kg._kernels.margin_grads, sheaf_kg.query.psd_pinv) == originals
    times = tracer.layer_times()
    for name in ("training.train", "training.sample_negatives", "kernels.margin_grads",
                 "model.relation_discrepancy", "kgdata.build_index", "synth.generate"):
        assert times[name].calls >= 1, name
    assert tracer.counters["pairs"] == np.sum(ds.kg.split_mask("train"))


def test_batched_and_interactive_answering_feed_the_sheaf_and_query_layers():
    layers = ("sheaf.assemble_laplacian", "sheaf.psd_pinv", "query.build_query_graph", "query.query_sheaf")
    # orthogonal maps take the dense path, which assembles and eliminates on every call
    ds = sheaf_kg.synth.generate_planted_kg(30, 2, 4, 0.0, seed=0, variant="shv")
    index = sheaf_kg.kgdata.build_index(ds.kg)
    queries = sheaf_kg.evaluation.build_easy_queries(ds.kg, index, "2p", 4, np.random.default_rng(0))
    assert queries
    with Tracer() as tracer:
        instrument(tracer, sheaf_kg)
        sheaf_kg.evaluation.evaluate(ds.generator, queries)
        after_evaluate = tracer.layer_times()
        sheaf_kg.query.answer_query(queries[0], ds.generator)
        after_answer = tracer.layer_times()
    for name in layers:
        assert after_evaluate[name].calls >= 1, name
        assert after_answer[name].calls > after_evaluate[name].calls, name
