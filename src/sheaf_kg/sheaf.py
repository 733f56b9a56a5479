"""Cellular sheaves on graphs: coboundary, Laplacian, harmonic extension.

A sheaf assigns a stalk (vector space) to every vertex and edge and a pair
of restriction maps per oriented edge ``u -> v``: ``head_map`` carries data
from the head vertex ``u`` into the edge stalk, ``tail_map`` from the tail
vertex ``v``. The coboundary on an edge is ``tail_map @ x_v - head_map @ x_u``
(tail minus head, fixed globally). The sheaf Laplacian is ``L = delta^T delta``
on the concatenated vertex stalks, held as one dense symmetric array.

Every Schur complement and harmonic extension here goes through one
elimination, ``eliminate``: it pseudo-inverts the interior block once and
returns the Schur complement onto the boundary, the harmonic extension map
and that pseudoinverse. The affine (offset) extensions take the sheaf and
read ``delta^T b`` from the coboundary that ``assemble_laplacian`` keeps.

Cochain blocks may be vectors ``(d,)`` or matrices ``(d, m)``; all solvers
act columnwise, so multi-section data needs no special casing.
The dense routines also take a leading batch axis of sheaves on one graph, maps
stacked as ``(G, edge_dim, dim)``; ``psd_pinv`` inverts each matrix of a stack alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShapeError, ValidationError, as_id

PINV_RCOND = 1e-10


@dataclass(frozen=True)
class SheafOnGraph:
    """Dense restriction-map data for a finite multigraph (self-loops allowed), maybe batched."""

    vertex_dims: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (head_vertex, tail_vertex)
    edge_dims: tuple[int, ...]
    head_maps: tuple[np.ndarray, ...]  # per edge, shape batch + (edge_dim, dim(head))
    tail_maps: tuple[np.ndarray, ...]  # per edge, shape batch + (edge_dim, dim(tail))

    def __post_init__(self):
        if not (len(self.edges) == len(self.edge_dims) == len(self.head_maps) == len(self.tail_maps)):
            raise ShapeError("edge tables must have equal lengths")
        n, batch = self.n_vertices, self.batch
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ShapeError(f"edge {e} references unknown vertex")
            for side, maps, w in (("head", self.head_maps, u), ("tail", self.tail_maps, v)):
                want = batch + (self.edge_dims[e], self.vertex_dims[w])
                if maps[e].shape != want:
                    raise ShapeError(f"edge {e}: {side} map has shape {maps[e].shape}, expected {want}")

    @property
    def batch(self) -> tuple[int, ...]:
        """Leading batch shape of the maps; ``()`` for a single sheaf."""
        return self.head_maps[0].shape[:-2] if self.edges else ()

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_dims)

    @property
    def vertex_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.vertex_dims)))

    @property
    def total_edge_dim(self) -> int:
        return int(sum(self.edge_dims))


def _check_blocks(label: str, blocks, cell: str, dims: dict[int, int]) -> np.ndarray:
    """``blocks`` joined along axis 0; ``ShapeError`` unless one per cell, led by its stalk dim.

    ``dims`` maps each cell, in block order, to its stalk dim. The blocks
    share one trailing shape: all vectors, or all matrices of one column count.
    """
    if len(blocks) != len(dims):
        raise ShapeError(f"{label} has {len(blocks)} blocks, expected {len(dims)} (one per {cell})")
    for (c, d), block in zip(dims.items(), blocks):
        shape = np.shape(block)
        if not shape:
            raise ShapeError(f"{cell} {c}: scalar block, stalk dim {d}")
        if shape[0] != d:
            raise ShapeError(f"{cell} {c}: block of length {shape[0]}, stalk dim {d}")
        if shape[1:] != np.shape(blocks[0])[1:]:
            raise ShapeError(f"{cell} {c}: block of shape {shape}, but the first {label} "
                             f"block has shape {np.shape(blocks[0])}")
    cols = np.shape(blocks[0])[1:] if len(blocks) else ()
    return np.concatenate([np.zeros((0,) + cols), *blocks], axis=0)


def coboundary(sheaf: SheafOnGraph, x) -> list[np.ndarray]:
    """Edgewise disagreement of a 0-cochain: block e = T_e x_tail - H_e x_head."""
    _check_blocks("0-cochain", x, "vertex", dict(enumerate(sheaf.vertex_dims)))
    return [sheaf.tail_maps[e] @ x[v] - sheaf.head_maps[e] @ x[u]
            for e, (u, v) in enumerate(sheaf.edges)]


def coboundary_matrix(sheaf: SheafOnGraph) -> np.ndarray:
    """Dense matrix of the coboundary on concatenated stalks, ``batch + (edge, vertex)``."""
    voff = list(accumulate(sheaf.vertex_dims, initial=0))
    eoff = list(accumulate(sheaf.edge_dims, initial=0))
    delta = np.zeros(sheaf.batch + (eoff[-1], voff[-1]))
    for e, (u, v) in enumerate(sheaf.edges):
        rows = slice(eoff[e], eoff[e + 1])
        delta[..., rows, voff[u]:voff[u + 1]] -= sheaf.head_maps[e]
        delta[..., rows, voff[v]:voff[v + 1]] += sheaf.tail_maps[e]
    return delta


def quadratic_form(sheaf: SheafOnGraph, x) -> float:
    """Total squared edgewise disagreement of ``x`` (the Laplacian quadratic form)."""
    return sum((float(np.sum(d * d)) for d in coboundary(sheaf, x)), 0.0)


@dataclass(frozen=True)
class BlockLaplacian:
    """Symmetric PSD operator on the concatenated vertex stalks, held dense.

    Vertex ``v`` owns the rows and columns ``columns([v])`` of the last two axes
    of ``dense`` (any others are batch axes).
    """

    vertex_dims: tuple[int, ...]
    dense: np.ndarray
    coboundary: np.ndarray | None = None  # the delta that assemble_laplacian multiplied out

    def __post_init__(self):
        n = sum(self.vertex_dims)
        if self.dense.shape[-2:] != (n, n):
            raise ShapeError(f"Laplacian has shape {self.dense.shape}, expected {(n, n)}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_dims)

    def columns(self, vertices) -> np.ndarray:
        """Indices into ``dense`` of the given vertices' stalks, in the given order."""
        off = list(accumulate(self.vertex_dims, initial=0))
        return np.array([i for v in vertices for i in range(off[v], off[v + 1])], dtype=np.intp)

    def to_dense(self) -> np.ndarray:
        return self.dense.copy()


def assemble_laplacian(sheaf: SheafOnGraph) -> BlockLaplacian:
    """The sheaf Laplacian ``delta^T delta`` (self-loops and parallel edges included)."""
    delta = coboundary_matrix(sheaf)
    return BlockLaplacian(sheaf.vertex_dims, delta.swapaxes(-1, -2) @ delta, delta)


def psd_pinv(a: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric PSD matrix (or of each in a stack) via eigendecomposition.

    Eigenvalues below ``PINV_RCOND`` times their matrix's largest are treated as zero.
    A matrix with a non-finite entry or eigenvalue gets an all-NaN one, not an error or wrong finite one.
    """
    finite = np.isfinite(a).all(axis=(-2, -1), keepdims=True)
    w, q = np.linalg.eigh(a if finite.all() else np.where(finite, a, 0.0))
    finite &= np.isfinite(w).all(axis=-1)[..., None, None]
    cutoff = PINV_RCOND * np.maximum(w[..., -1:], 0.0)
    inv_w = np.where(w > cutoff, 1.0, 0.0) / np.where(w > cutoff, w, 1.0)
    pinv = (q * inv_w[..., None, :]) @ q.swapaxes(-1, -2)
    return pinv if finite.all() else np.where(finite, pinv, np.nan)


def _boundary_partition(lap: BlockLaplacian, boundary) -> tuple[list[int], list[int]]:
    b = [as_id(v, ValidationError, "boundary vertex ids must be integers") for v in boundary]
    if not b:
        raise ValidationError("boundary set must be nonempty")
    bset = set(b)
    if len(bset) != len(b):
        raise ValidationError("boundary set contains duplicates")
    for v in b:
        if not 0 <= v < lap.n_vertices:
            raise ValidationError(f"boundary vertex {v} out of range")
    return b, [v for v in range(lap.n_vertices) if v not in bset]


def interior_vertices(lap: BlockLaplacian, boundary) -> list[int]:
    """Vertices not in ``boundary``, in ascending order."""
    return _boundary_partition(lap, boundary)[1]


def eliminate(lap: BlockLaplacian, boundary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate the interior vertices once: ``(schur, extend, pinv_uu)``.

    ``schur = L[B,B] - L[B,U] pinv(L[U,U]) L[U,B]`` in ``boundary``'s block
    order, symmetrized exactly; ``extend = -pinv(L[U,U]) L[U,B]`` maps
    boundary data to its minimum-norm harmonic interior, whose rows follow
    ``interior_vertices``. The pseudoinverse handles singular interior
    blocks. With no interior, ``schur`` is the plain boundary submatrix and
    the other two are empty.
    """
    b, interior = _boundary_partition(lap, boundary)
    order = lap.columns(b + interior)
    full = lap.dense[order][:, order]
    n_b = sum(lap.vertex_dims[v] for v in b)
    if not interior:
        return full, np.zeros((0, n_b)), np.zeros((0, 0))
    l_ub = full[n_b:, :n_b]
    pinv_uu = psd_pinv(full[n_b:, n_b:])
    extend = -pinv_uu @ l_ub
    s = full[:n_b, :n_b] + l_ub.T @ extend
    return (s + s.T) / 2.0, extend, pinv_uu


def schur_complement(lap: BlockLaplacian, boundary) -> np.ndarray:
    """Eliminate interior vertices: L[B,B] - L[B,U] pinv(L[U,U]) L[U,B] (see ``eliminate``)."""
    return eliminate(lap, boundary)[0]


def _extend(lap: BlockLaplacian, boundary, boundary_values, g=None):
    """The harmonic extension, offset by ``pinv(L[U,U]) g_U`` when ``g = delta^T b`` is given."""
    b, interior = _boundary_partition(lap, boundary)
    y_b = _check_blocks("boundary data", boundary_values, "vertex", {v: lap.vertex_dims[v] for v in b})
    schur, extend, pinv_uu = eliminate(lap, b)
    y_u = extend @ y_b
    value = float(np.sum(y_b * (schur @ y_b)))
    if g is not None:
        if g.shape[1:] != y_b.shape[1:]:  # numpy would align a vector g with y's columns, not its rows
            raise ShapeError(f"1-cochain of trailing shape {g.shape[1:]}, boundary data {y_b.shape[1:]}")
        g_b, g_u = g[lap.columns(b)], g[lap.columns(interior)]
        value -= 2.0 * (float(np.sum(g_b * y_b)) + float(np.sum(g_u * y_u)))
        y_u = y_u + pinv_uu @ g_u
    dims = [lap.vertex_dims[v] for v in interior]
    return np.split(y_u, np.cumsum(dims)[:-1])[:len(dims)], value


def harmonic_extension(lap: BlockLaplacian, boundary, boundary_values):
    """Minimum-norm interior completion of boundary data and its optimal cost.

    Returns ``(interior_blocks, value)`` where ``interior_blocks`` aligns
    with ``interior_vertices(lap, boundary)`` and ``value`` is the Laplacian
    quadratic form of the completed cochain, i.e. the boundary quadratic
    form ``y_B^T S y_B`` under the Schur complement.
    """
    return _extend(lap, boundary, boundary_values)


def _offset_laplacian(sheaf: SheafOnGraph, b_cochain) -> tuple[BlockLaplacian, np.ndarray]:
    """The sheaf's Laplacian and ``g = delta^T b`` for the checked 1-cochain ``b``."""
    b = _check_blocks("1-cochain", b_cochain, "edge", dict(enumerate(sheaf.edge_dims)))
    lap = assemble_laplacian(sheaf)
    return lap, lap.coboundary.T @ b


def affine_harmonic_extension(sheaf: SheafOnGraph, b_cochain, boundary, boundary_values):
    """Interior completion of ``sheaf``'s boundary data when edges carry target offsets (a 1-cochain).

    Solves the offset version of harmonic extension: the interior optimum is
    the plain harmonic extension plus a correction ``pinv(L[U,U]) g_U`` with
    ``g = delta^T b`` (``delta`` as ``assemble_laplacian`` keeps it), and the
    reported value keeps only the boundary-dependent part, ``y^T L y - 2 g^T y``
    for the plain extension ``y``. Offsets shift every candidate's value by the
    same constant (see ``affine_offset``), so rankings are unaffected. Both
    extensions run one body, which adds the offset terms only here; with a zero
    1-cochain they are exact zeros, so the result is ``harmonic_extension``'s exactly.
    """
    lap, g = _offset_laplacian(sheaf, b_cochain)
    return _extend(lap, boundary, boundary_values, g)


def affine_offset(sheaf: SheafOnGraph, b_cochain, boundary) -> float:
    """Boundary-independent part of ``sheaf``'s offset extension objective.

    Adding this constant to ``affine_harmonic_extension``'s value yields the
    true minimum of ``|delta y - b|^2`` subject to the boundary condition:
    ``b^T b - g^T pinv(L[U,U]) g`` with ``g = (delta^T b)_U`` (``delta`` as above).
    """
    lap, g = _offset_laplacian(sheaf, b_cochain)
    btb = sum(float(np.sum(np.asarray(blk, dtype=float) ** 2)) for blk in b_cochain)
    _, _, pinv_uu = eliminate(lap, boundary)
    g = g[lap.columns(interior_vertices(lap, boundary))]
    return btb - float(np.sum(g * (pinv_uu @ g)))


def kron_reduce(sheaf: SheafOnGraph, boundary) -> BlockLaplacian:
    """Schur complement of the sheaf Laplacian repackaged over the boundary.

    The result is the Laplacian-like operator of an effective sheaf on the
    boundary vertices; for a chain reduced to its endpoints it encodes the
    composite relation's inferred restriction-map pair.
    """
    lap = assemble_laplacian(sheaf)
    b, _ = _boundary_partition(lap, boundary)
    return BlockLaplacian(tuple(sheaf.vertex_dims[v] for v in b), eliminate(lap, b)[0])


def constant_sheaf(n_vertices: int, edges, dim: int) -> SheafOnGraph:
    """All stalks R^dim, all maps I; ``query`` eliminates each template's at ``dim=1`` once per process."""
    eye = np.eye(dim)
    return SheafOnGraph(
        vertex_dims=(dim,) * n_vertices,
        edges=tuple((int(u), int(v)) for u, v in edges),
        edge_dims=(dim,) * len(edges),
        head_maps=tuple(eye.copy() for _ in edges),
        tail_maps=tuple(eye.copy() for _ in edges),
    )
