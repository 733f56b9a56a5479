"""Benchmark of sheaf embedding training and harmonic-extension queries.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload eval-planted --seed 1 --seconds 24 --trace 0

The library is imported from ``src/`` of the same checkout. Every line but
the last is a readable record of the run: the environment, the workload's
input properties, each output check and each metric with its unit. The last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``, measured with tracing off and normalized to the
host's nominal speed by the gauge in ``gauge.py`` (the raw times are printed
on a ``note`` line). With ``--trace 1`` the run
does one round of the workload's work untraced and then traced, and
reports the per-layer metrics of ``BENCHMARK.json`` from the traced round,
with the tracing overhead against the untraced one. It prints
every per-layer metric, with the end-to-end metric it should move.

The exit code is 0 when every check passes, 1 when a check fails (the
result line is still printed) and 2 when the run cannot start, for example
when ``src/sheaf_kg`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail_to_start(message: str) -> None:
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import sheaf_kg from this checkout's src/ and nowhere else."""
    if not (SRC / "sheaf_kg" / "__init__.py").is_file():
        _fail_to_start(f"no library source at {SRC / 'sheaf_kg'}")
    sys.path.insert(0, str(SRC))
    import sheaf_kg

    if Path(sheaf_kg.__file__).resolve().parent != (SRC / "sheaf_kg").resolve():
        _fail_to_start(f"sheaf_kg was imported from {sheaf_kg.__file__}, not from {SRC}")
    return sheaf_kg


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library's source files, which identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sheaf_kg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(lib, args) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": lib._kernels.active_backend(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ
        },
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def emit(values: dict, declared: dict) -> dict:
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"run produced no value for declared metrics {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def print_checks(checks: dict) -> bool:
    for name, (ok, detail) in checks.items():
        print(f"check {name} {'PASS' if ok else 'FAIL'} {detail}")
    return all(ok for ok, _ in checks.values())


def run_untraced(workload, args, workdir, declared):
    from workloads import run_pipeline

    result = run_pipeline(workload, args.seed, args.seconds, workdir)
    print("workload_properties " + json.dumps(result.properties, sort_keys=True))
    for note in result.notes:
        print("note " + note)
    correct = print_checks(result.checks)
    for name, value in result.metrics.items():
        print(f"metric {name} {value!r} {declared['end_to_end'].get(name, '')}".rstrip())
    return correct, result.attempted, result.failed, emit(result.metrics, declared["end_to_end"])


def run_traced(workload, args, workdir, lib, declared):
    from layers import LAYER_METRICS, instrument, layer_metrics
    from tracing import Tracer
    from workloads import run_pipeline

    plain = run_pipeline(workload, args.seed, args.seconds, workdir, fixed=True)
    with Tracer() as tracer:
        instrument(tracer, lib)
        traced = run_pipeline(workload, args.seed, args.seconds, workdir, fixed=True)
    overhead = traced.wall_s / plain.wall_s
    print("workload_properties " + json.dumps(traced.properties, sort_keys=True))
    print(f"note tracing overhead {overhead:.4f} (traced {traced.wall_s:.3f} s,"
          f" untraced {plain.wall_s:.3f} s for the same work)")
    print(f"note {len(tracer.spans)} spans recorded")
    for note in traced.notes:
        print("note traced round: " + note)
    checks = {f"untraced.{k}": v for k, v in plain.checks.items()}
    checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
    checks["traced_eval_mrr_equal"] = (
        traced.eval_mrr == plain.eval_mrr, f"{traced.eval_mrr!r} vs {plain.eval_mrr!r}"
    )
    checks["traced_recovery_mrr_equal"] = (
        traced.recovery_mrr == plain.recovery_mrr,
        f"{traced.recovery_mrr!r} vs {plain.recovery_mrr!r}",
    )
    correct = print_checks(checks)
    values = layer_metrics(tracer, overhead)
    for name, (unit, moves, where) in LAYER_METRICS.items():
        print(f"layer {name} {values[name]!r} {unit} -> moves {moves} on {where}")
    return (correct, plain.attempted + traced.attempted, plain.failed + traced.failed,
            emit(values, declared["per_layer"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "BENCHMARK.json").is_file():
        _fail_to_start(f"no BENCHMARK.json at {ROOT}")
    # One BLAS thread, set before numpy loads: the benchmark is a single
    # caller, and a second BLAS thread would compete with it, and with the
    # speed gauge, for the host's few cores.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    lib = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    print(f"benchmark workload={workload.name} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    print(f"why {workload.why}")
    print("environment " + json.dumps(environment(lib, args), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        if args.trace:
            outcome = run_traced(workload, args, Path(tmp), lib, declared)
        else:
            outcome = run_untraced(workload, args, Path(tmp), declared)
    correct, attempted, failed, metrics = outcome
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
