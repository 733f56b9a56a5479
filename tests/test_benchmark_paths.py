"""The benchmark keeps a workload on each side of the answering path choice.

Queries over identity restriction maps eliminate on the scalar template graph
(``query._HarmonicForm``); every other query takes the dense block path. A
workload edit that moves eval-planted or train-acceptance off identity maps,
or eval-random or train-orthogonal onto them, would leave one path
unmeasured, so it fails here.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS, scaled  # noqa: E402


@pytest.mark.parametrize("name, identity", [
    ("eval-planted", True), ("train-acceptance", True), ("eval-random", False), ("train-orthogonal", False),
])
def test_each_workload_evaluates_on_its_side_of_the_identity_path(name, identity):
    workload = scaled(WORKLOADS[name], 0.05)
    _, model = workload.make_graph(workload.entities, 1)
    relations = range(model.schema.n_relations)
    assert len(relations) > 0
    if identity:
        assert model.sheaf.identity_maps(relations)
    else:
        assert not any(model.sheaf.identity_maps([r]) for r in relations)
