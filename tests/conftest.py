import numpy as np
import pytest

from sheaf_kg.sheaf import SheafOnGraph


def random_sheaf(rng, n_vertices=None, max_vertex_dim=5, max_edge_dim=4, n_edges=None,
                 allow_self_loops=True):
    """A random dense sheaf on a random connected-ish multigraph."""
    if n_vertices is None:
        n_vertices = int(rng.integers(2, 9))
    vertex_dims = tuple(int(d) for d in rng.integers(1, max_vertex_dim + 1, size=n_vertices))
    if n_edges is None:
        n_edges = int(rng.integers(n_vertices - 1, 2 * n_vertices + 1))
    edges = []
    for i in range(n_edges):
        if i < n_vertices - 1:
            u, v = i, int(rng.integers(i + 1, n_vertices))  # keeps things connected
        else:
            u, v = int(rng.integers(0, n_vertices)), int(rng.integers(0, n_vertices))
            if u == v and not allow_self_loops:
                v = (u + 1) % n_vertices
        edges.append((u, v))
    edge_dims = tuple(int(d) for d in rng.integers(1, max_edge_dim + 1, size=n_edges))
    head_maps = tuple(
        rng.normal(size=(edge_dims[e], vertex_dims[u])) for e, (u, v) in enumerate(edges)
    )
    tail_maps = tuple(
        rng.normal(size=(edge_dims[e], vertex_dims[v])) for e, (u, v) in enumerate(edges)
    )
    return SheafOnGraph(vertex_dims, tuple(edges), edge_dims, head_maps, tail_maps)


def random_cochain0(rng, sheaf, columns=None):
    if columns is None:
        return [rng.normal(size=d) for d in sheaf.vertex_dims]
    return [rng.normal(size=(d, columns)) for d in sheaf.vertex_dims]


def random_cochain1(rng, sheaf, columns=None):
    if columns is None:
        return [rng.normal(size=d) for d in sheaf.edge_dims]
    return [rng.normal(size=(d, columns)) for d in sheaf.edge_dims]


def stacked_scores(X, RH, RT, T, h, r, t):
    """Scores and edge residuals of the triples ``(h, r, t)`` on stacked, zero-padded parameters.

    The arrays are laid out as ``sheaf_kg._kernels`` documents; the residual
    of a triple is ``RH[r] X[h] - RT[r] X[t] (+ T[r])`` and its score the
    residual's squared norm, summed as the training kernel sums it.
    """
    diff = np.einsum("bij,bjm->bim", RH[r], X[h]) - np.einsum("bij,bjm->bim", RT[r], X[t])
    if T is not None:
        diff = diff + T[r]
    return np.einsum("bim,bim->b", diff, diff), diff


def batch_scores(X, RH, RT, T, h, r, t):
    """Scores of the triples ``(h, r, t)`` on stacked, zero-padded parameters."""
    return stacked_scores(X, RH, RT, T, h, r, t)[0]


def lap_block(lap, rows, cols=None):
    """``lap.dense`` over the stalks of vertices ``rows`` by those of ``cols`` (default ``rows``)."""
    return lap.dense[..., lap.columns(rows), :][..., lap.columns(rows if cols is None else cols)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def overflowing_checkpoint(prefix):
    """A checkpoint that loads but whose harmonic values overflow, and the 1p query it fails.

    Planted shv, 60 entities, d=4, seed 1. The query is the first easy 1p
    query (anchor 3, relation 0, answer 0); the anchor's and the answer's
    sections are set to 1e160, which is finite, so ``load_model`` accepts
    them. Returns ``(loaded model, query, generated model)``.
    """
    from sheaf_kg.checkpoint import load_model, save_model
    from sheaf_kg.evaluation import build_easy_queries
    from sheaf_kg.kgdata import build_index
    from sheaf_kg.synth import generate_planted_kg

    ds = generate_planted_kg(60, 2, 4, 0.0, seed=1, variant="shv")
    query = build_easy_queries(ds.kg, build_index(ds.kg), "1p", 5, np.random.default_rng(0))[0]
    assert (query.anchors, query.relations, query.answers) == ((3,), (0,), frozenset({0}))
    model = ds.generator.copy()
    for entity in (3, 0):
        model.sections.block(entity)[...] = 1e160
    save_model(model, prefix)
    return load_model(prefix), query, ds.generator
