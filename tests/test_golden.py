"""Golden answers of the identity-map path, pinned bit for bit.

``tests/golden.json`` holds, for a small planted ShVT model (identity maps,
one and two section columns) queried on all seven structures: the sha256 of
every ``answer_queries`` value row, in query order; the sha256 of the
``answer_query(q).top(10)`` results of ``N_TOP`` queries spread evenly over
the seven structures; and the ``evaluate`` report.
A change that moves one bit of an identity-map answer fails here.

The digests depend on the floating-point library, so the file records the
numpy version and BLAS it was written with, and a mismatch names both. A
change that moves these bits on purpose rewrites the file and says why::

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sheaf_kg import query
from sheaf_kg.evaluation import build_easy_queries, evaluate
from sheaf_kg.kgdata import build_index
from sheaf_kg.query import STRUCTURES, answer_query
from sheaf_kg.synth import generate_planted_kg

GOLDEN = Path(__file__).with_name("golden.json")
SECTIONS = (1, 2)
PER_STRUCTURE = 24  # 2p has 9 relation tuples and 3p 27: some batches span more than one chunk of groups
N_TOP = 20


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build configuration
        blas = {"name": "unknown"}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_run(m: int) -> dict:
    """The digests and report of the planted identity-map model with ``m`` section columns."""
    ds = generate_planted_kg(90, 3, 4, 0.0, seed=3, variant="shvt", sections=m)
    assert ds.generator.sheaf.identity_maps(range(3))
    index, rng = build_index(ds.kg), np.random.default_rng(m)
    queries = [q for s in STRUCTURES for q in build_easy_queries(ds.kg, index, s, PER_STRUCTURE, rng)]
    rows = {}
    for members, _, values in query.answer_queries(queries, ds.generator):
        rows.update((i, digest(np.ascontiguousarray(row).tobytes())) for i, row in zip(members, values))
    tops = [answer_query(q, ds.generator).top(10) for q in queries[::len(queries) // N_TOP][:N_TOP]]
    report = evaluate(ds.generator, queries).per_structure
    return {
        "queries": len(queries),
        "rows": [rows[i] for i in range(len(queries))],
        "top10": [digest(json.dumps(top).encode()) for top in tops],
        "report": {s: dataclasses.asdict(metrics) for s, metrics in report.items()},
    }


def write() -> None:
    runs = {f"m={m}": golden_run(m) for m in SECTIONS}
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs}, indent=1) + "\n",
                      encoding="utf-8")


@pytest.mark.parametrize("m", SECTIONS)
def test_identity_answers_are_bit_identical_to_the_golden_file(m):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want, got = golden["runs"][f"m={m}"], golden_run(m)
    where = f"written with {golden['environment']}, run with {environment()}"
    assert got["queries"] == want["queries"], where
    for i, (a, b) in enumerate(zip(got["rows"], want["rows"])):
        assert a == b, f"answer_queries row of query {i} moved ({where})"
    for i, (a, b) in enumerate(zip(got["top10"], want["top10"])):
        assert a == b, f"top(10) of sampled query {i} moved ({where})"
    assert got["report"] == want["report"], where


if __name__ == "__main__":
    write()
