"""The benchmark keeps a workload on each of the three answering paths.

``query._path`` sends queries over identity maps to the identity path (the
scalar template's cached form), queries over square orthogonal maps to the
gauge path (the same form, with anchors and translations rotated into a frame
per vertex), and every other query to the dense block path. eval-planted and
train-acceptance evaluate identity maps, train-orthogonal square orthogonal
maps and eval-random free maps. A workload edit that leaves any of the three
paths unmeasured fails here.
"""

import sys
from pathlib import Path

import pytest

from sheaf_kg import query

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS, scaled  # noqa: E402


@pytest.mark.parametrize("name, path", [
    ("eval-planted", "identity"), ("train-acceptance", "identity"),
    ("eval-random", "dense"), ("train-orthogonal", "gauge"),
])
def test_each_workload_evaluates_on_its_side_of_the_identity_path(name, path):
    workload = scaled(WORKLOADS[name], 0.05)
    _, model = workload.make_graph(workload.entities, 1)
    relations = list(range(model.schema.n_relations))
    assert len(relations) > 0
    assert [query._path(model.sheaf, [r]) for r in relations] == [path] * len(relations)
    assert query._path(model.sheaf, relations) == path
