"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import sheaf_kg  # noqa: E402
from gauge import MIN_READINGS, NOMINAL_S, Gauge  # noqa: E402
from layers import LAYER_METRICS, instrument, layer_metrics  # noqa: E402
from tracing import Span, Tracer, highest_percentile, layer_times, samples_needed  # noqa: E402
from workloads import WORKLOADS, run_pipeline, scaled  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf, 2.0)
        tracer.call("leaf", leaf, 0.5)
        clock.now += 0.25

    def outer():
        tracer.call("middle", middle)
        clock.now += 4.0

    tracer.call("outer", outer)
    times = tracer.layer_times()
    assert times["outer"].total_s == 7.75
    assert times["outer"].self_s == 4.0
    assert times["middle"].total_s == 3.75
    assert times["middle"].self_s == 1.25
    assert times["leaf"].total_s == 2.5
    assert times["leaf"].self_s == 2.5
    assert times["leaf"].calls == 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]


def test_self_time_of_sibling_roots_and_repeated_names():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 3.0, 0),
        Span("a", 20.0, 21.0, -1),
    ]
    times = layer_times(spans)
    assert times["a"].total_s == 11.0
    assert times["a"].self_s == 9.0
    assert times["b"].self_s == 2.0


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert tracer.spans[0].end == 1.0
    tracer.call("after", lambda: None)
    assert tracer.spans[1].parent == -1


def test_wrap_records_and_restores():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    seen = []
    with Tracer() as tracer:
        tracer.wrap(module, "f", "mod.f", after=lambda result, x: seen.append((result, x)))
        assert module.f(1) == 2
    assert module.f is original
    assert seen == [(2, 1)]
    assert tracer.layer_times()["mod.f"].calls == 1


def test_gauge_scales_by_the_trimmed_mean_of_readings_inside():
    gauge = Gauge(None)
    gauge.reading_at = [float(t) for t in range(12)]
    # ten readings in [1, 10]: eight at twice nominal and one outlier at each end
    gauge.reading_s = [NOMINAL_S] + [0.1 * NOMINAL_S] + [2 * NOMINAL_S] * 8 + [50 * NOMINAL_S,
                                                                               NOMINAL_S]
    assert gauge.factor(1.0, 10.0) == pytest.approx(0.5)


def test_gauge_uses_the_nearest_readings_for_a_short_stretch():
    gauge = Gauge(None)
    gauge.reading_at = [0.0, 1.0, 2.0, 3.0, 10.0]
    gauge.reading_s = [4 * NOMINAL_S, NOMINAL_S, NOMINAL_S, NOMINAL_S, 4 * NOMINAL_S]
    assert MIN_READINGS == 3
    # no reading inside [1.9, 2.1]: the three nearest are at 1, 2 and 3
    assert gauge.factor(1.9, 2.1) == pytest.approx(1.0)


def test_gauge_time_is_left_out_of_samples():
    with Gauge(None) as gauge:
        mark = gauge.clock()
        gauge.read()
        start, end, work = gauge.stop(mark)
    assert work == pytest.approx(end - start - gauge.reading_s[1], abs=1e-9)
    assert len(gauge.reading_s) == 3  # one at each end and the one taken inside


def test_periodic_readings_run_during_work():
    with Gauge(0.01) as gauge:
        mark = gauge.clock()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        start, end, work = gauge.stop(mark)
    assert len(gauge.reading_s) >= 5
    assert 0 < work < end - start


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (19, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_samples_needed_matches_the_percentile_rule():
    assert samples_needed(99.0) == 1000
    assert samples_needed(50.0) == 20
    for p in (50.0, 90.0, 95.0, 99.0):
        assert highest_percentile(samples_needed(p)) >= p
        assert highest_percentile(samples_needed(p) - 1) != p


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    for metric in SPEC["per_layer"]:
        assert LAYER_METRICS[metric["name"]][0] == metric["unit"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_runs_untraced_and_traced(name, tmp_path):
    logging.disable(logging.WARNING)
    try:
        workload = scaled(WORKLOADS[name], 0.05)
        result = run_pipeline(workload, seed=3, seconds=0.1, workdir=tmp_path)
        with Tracer() as tracer:
            instrument(tracer, sheaf_kg)
            traced = run_pipeline(workload, seed=3, seconds=0.1, workdir=tmp_path, fixed=True)
    finally:
        logging.disable(logging.NOTSET)

    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result.metrics.values())
    # At this size the trained model is too small to meet the recovery floor.
    failed = {k for k, (ok, _) in result.checks.items() if not ok} - {"recovery_floor"}
    assert not failed, result.checks
    assert result.attempted >= 1 and result.failed == 0
    assert traced.eval_mrr == result.eval_mrr
    assert traced.recovery_mrr == result.recovery_mrr

    values = layer_metrics(tracer, overhead=1.0)
    assert set(values) == set(LAYER_METRICS)
    for metric in SPEC["per_layer"]:
        assert values[metric["name"]] > 0 or metric["unit"] != "s", metric["name"]
    assert values["kernels.pairs"] == values["training.negatives"]
    assert 0 < values["query.distinct_key_share"] <= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-acceptance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
