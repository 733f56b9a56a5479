"""Cellular sheaves on graphs: coboundary, Laplacian, harmonic extension.

A sheaf assigns a stalk (vector space) to every vertex and edge and a pair
of restriction maps per oriented edge ``u -> v``: ``head_map`` carries data
from the head vertex ``u`` into the edge stalk, ``tail_map`` from the tail
vertex ``v``. The coboundary on an edge is ``tail_map @ x_v - head_map @ x_u``
(tail minus head, fixed globally); the Laplacian is its Gram operator.

Cochain blocks may be vectors ``(d,)`` or matrices ``(d, m)``; all solvers
act columnwise, so multi-section data needs no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ShapeError, ValidationError

PINV_RCOND = 1e-10


@dataclass(frozen=True)
class SheafOnGraph:
    """Dense restriction-map data for a finite multigraph (self-loops allowed)."""

    vertex_dims: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (head_vertex, tail_vertex)
    edge_dims: tuple[int, ...]
    head_maps: tuple[np.ndarray, ...]  # per edge, shape (edge_dim, dim(head))
    tail_maps: tuple[np.ndarray, ...]  # per edge, shape (edge_dim, dim(tail))

    def __post_init__(self):
        if not (len(self.edges) == len(self.edge_dims) == len(self.head_maps) == len(self.tail_maps)):
            raise ShapeError("edge tables must have equal lengths")
        n = self.n_vertices
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ShapeError(f"edge {e} references unknown vertex")
            de = self.edge_dims[e]
            if self.head_maps[e].shape != (de, self.vertex_dims[u]):
                raise ShapeError(
                    f"edge {e}: head map has shape {self.head_maps[e].shape}, "
                    f"expected {(de, self.vertex_dims[u])}"
                )
            if self.tail_maps[e].shape != (de, self.vertex_dims[v]):
                raise ShapeError(
                    f"edge {e}: tail map has shape {self.tail_maps[e].shape}, "
                    f"expected {(de, self.vertex_dims[v])}"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_dims)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def vertex_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.vertex_dims)))

    @property
    def edge_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.edge_dims)))

    @property
    def total_vertex_dim(self) -> int:
        return int(sum(self.vertex_dims))

    @property
    def total_edge_dim(self) -> int:
        return int(sum(self.edge_dims))


def check_cochain0(sheaf: SheafOnGraph, x) -> None:
    if len(x) != sheaf.n_vertices:
        raise ShapeError(f"0-cochain has {len(x)} blocks, sheaf has {sheaf.n_vertices} vertices")
    for v, block in enumerate(x):
        if np.shape(block)[0] != sheaf.vertex_dims[v]:
            raise ShapeError(
                f"vertex {v}: block of length {np.shape(block)[0]}, stalk dim {sheaf.vertex_dims[v]}"
            )


def check_cochain1(sheaf: SheafOnGraph, b) -> None:
    if len(b) != sheaf.n_edges:
        raise ShapeError(f"1-cochain has {len(b)} blocks, sheaf has {sheaf.n_edges} edges")
    for e, block in enumerate(b):
        if np.shape(block)[0] != sheaf.edge_dims[e]:
            raise ShapeError(
                f"edge {e}: block of length {np.shape(block)[0]}, stalk dim {sheaf.edge_dims[e]}"
            )


def coboundary(sheaf: SheafOnGraph, x) -> list[np.ndarray]:
    """Edgewise disagreement of a 0-cochain: block e = T_e x_tail - H_e x_head."""
    check_cochain0(sheaf, x)
    out = []
    for e, (u, v) in enumerate(sheaf.edges):
        out.append(sheaf.tail_maps[e] @ x[v] - sheaf.head_maps[e] @ x[u])
    return out


def coboundary_transpose(sheaf: SheafOnGraph, b) -> list[np.ndarray]:
    """Adjoint of the coboundary applied to a 1-cochain."""
    check_cochain1(sheaf, b)
    cols = np.shape(b[0])[1:] if len(b) else ()
    out = [np.zeros((d,) + cols) for d in sheaf.vertex_dims]
    for e, (u, v) in enumerate(sheaf.edges):
        out[u] = out[u] - sheaf.head_maps[e].T @ b[e]
        out[v] = out[v] + sheaf.tail_maps[e].T @ b[e]
    return out


def coboundary_matrix(sheaf: SheafOnGraph) -> np.ndarray:
    """Dense matrix of the coboundary on concatenated stalks."""
    voff, eoff = sheaf.vertex_offsets, sheaf.edge_offsets
    delta = np.zeros((sheaf.total_edge_dim, sheaf.total_vertex_dim))
    for e, (u, v) in enumerate(sheaf.edges):
        rows = slice(eoff[e], eoff[e + 1])
        delta[rows, voff[u]:voff[u + 1]] -= sheaf.head_maps[e]
        delta[rows, voff[v]:voff[v + 1]] += sheaf.tail_maps[e]
    return delta


def quadratic_form(sheaf: SheafOnGraph, x) -> float:
    """Total squared edgewise disagreement of ``x`` (the Laplacian quadratic form)."""
    check_cochain0(sheaf, x)
    total = 0.0
    for e, (u, v) in enumerate(sheaf.edges):
        diff = sheaf.head_maps[e] @ x[u] - sheaf.tail_maps[e] @ x[v]
        total += float(np.sum(diff * diff))
    return total


@dataclass(frozen=True)
class BlockLaplacian:
    """Symmetric PSD operator stored as vertex-diagonal and off-diagonal blocks.

    Off-diagonal blocks are stored once per unordered pair with ``u < v``;
    ``block(v, u)`` is served as the transpose.
    """

    vertex_dims: tuple[int, ...]
    diag: tuple[np.ndarray, ...]
    offdiag: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for v, d in enumerate(self.vertex_dims):
            if self.diag[v].shape != (d, d):
                raise ShapeError(f"diag block {v} has shape {self.diag[v].shape}, expected {(d, d)}")
        for (u, v), blk in self.offdiag.items():
            if u >= v:
                raise ShapeError("offdiag keys must satisfy u < v")
            if blk.shape != (self.vertex_dims[u], self.vertex_dims[v]):
                raise ShapeError(f"offdiag block {(u, v)} has wrong shape {blk.shape}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_dims)

    def block(self, u: int, v: int) -> np.ndarray:
        if u == v:
            return self.diag[u]
        if u < v:
            blk = self.offdiag.get((u, v))
            return blk if blk is not None else np.zeros((self.vertex_dims[u], self.vertex_dims[v]))
        return self.block(v, u).T

    def submatrix(self, rows, cols=None) -> np.ndarray:
        """Dense block submatrix over the given vertex orderings."""
        if cols is None:
            cols = rows
        row_off = list(accumulate((self.vertex_dims[u] for u in rows), initial=0))
        col_off = list(accumulate((self.vertex_dims[v] for v in cols), initial=0))
        out = np.zeros((row_off[-1], col_off[-1]))
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                out[row_off[i]:row_off[i + 1], col_off[j]:col_off[j + 1]] = self.block(u, v)
        return out

    def to_dense(self) -> np.ndarray:
        return self.submatrix(list(range(self.n_vertices)))


def assemble_laplacian(sheaf: SheafOnGraph) -> BlockLaplacian:
    """Blockwise Gram operator of the coboundary.

    diag(u) accumulates H_e^T H_e and T_e^T T_e over incident edges; the
    block for an edge ``u -> v`` with ``u != v`` contributes ``-H_e^T T_e``
    off-diagonally. A self-loop's two maps interact, so its whole
    ``(T_e - H_e)^T (T_e - H_e)`` lands on the diagonal block.
    """
    diag = [np.zeros((d, d)) for d in sheaf.vertex_dims]
    offdiag: dict[tuple[int, int], np.ndarray] = {}
    for e, (u, v) in enumerate(sheaf.edges):
        head, tail = sheaf.head_maps[e], sheaf.tail_maps[e]
        if u == v:
            m = tail - head
            diag[u] += m.T @ m
            continue
        diag[u] += head.T @ head
        diag[v] += tail.T @ tail
        a, b = (u, v) if u < v else (v, u)
        contrib = -head.T @ tail if u < v else -tail.T @ head
        prev = offdiag.get((a, b))
        offdiag[(a, b)] = contrib if prev is None else prev + contrib
    return BlockLaplacian(
        vertex_dims=sheaf.vertex_dims, diag=tuple(diag), offdiag=offdiag
    )


def psd_pinv(a: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Pseudoinverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below ``rcond`` times the largest are treated as zero.
    """
    if a.shape[0] == 0:
        return a.copy()
    w, q = np.linalg.eigh(a)
    cutoff = rcond * max(float(w[-1]), 0.0)
    inv_w = np.where(w > cutoff, 1.0, 0.0) / np.where(w > cutoff, w, 1.0)
    return (q * inv_w) @ q.T


def _boundary_partition(lap: BlockLaplacian, boundary) -> tuple[list[int], list[int]]:
    b = [int(v) for v in boundary]
    if not b:
        raise ValidationError("boundary set must be nonempty")
    if len(set(b)) != len(b):
        raise ValidationError("boundary set contains duplicates")
    for v in b:
        if not 0 <= v < lap.n_vertices:
            raise ValidationError(f"boundary vertex {v} out of range")
    interior = [v for v in range(lap.n_vertices) if v not in set(b)]
    return b, interior


def interior_vertices(lap: BlockLaplacian, boundary) -> list[int]:
    """Vertices not in ``boundary``, in ascending order."""
    return _boundary_partition(lap, boundary)[1]


def schur_complement(lap: BlockLaplacian, boundary) -> np.ndarray:
    """Eliminate interior vertices: L[B,B] - L[B,U] pinv(L[U,U]) L[U,B].

    ``boundary`` fixes the block order of the result. With no interior the
    plain boundary submatrix is returned. The pseudoinverse handles singular
    interior blocks; the result is symmetrized exactly.
    """
    b, interior = _boundary_partition(lap, boundary)
    l_bb = lap.submatrix(b)
    if not interior:
        return l_bb
    l_bu = lap.submatrix(b, interior)
    l_uu = lap.submatrix(interior)
    s = l_bb - l_bu @ psd_pinv(l_uu) @ l_bu.T
    return (s + s.T) / 2.0


def _concat_blocks(blocks) -> np.ndarray:
    blocks = [np.asarray(blk, dtype=float) for blk in blocks]
    if any(blk.ndim != blocks[0].ndim for blk in blocks):
        raise ShapeError("boundary blocks must all be vectors or all matrices")
    return np.concatenate(blocks, axis=0)


def _split_blocks(vec: np.ndarray, dims) -> list[np.ndarray]:
    out, pos = [], 0
    for d in dims:
        out.append(vec[pos:pos + d])
        pos += d
    return out


def harmonic_extension(lap: BlockLaplacian, boundary, boundary_values):
    """Minimum-norm interior completion of boundary data and its optimal cost.

    Returns ``(interior_blocks, value)`` where ``interior_blocks`` aligns
    with ``interior_vertices(lap, boundary)`` and ``value`` is the Laplacian
    quadratic form of the completed cochain, i.e. the boundary quadratic
    form under the Schur complement.
    """
    b, interior = _boundary_partition(lap, boundary)
    for v, blk in zip(b, boundary_values):
        if np.shape(blk)[0] != lap.vertex_dims[v]:
            raise ShapeError(f"boundary block for vertex {v} has wrong leading dimension")
    y_b = _concat_blocks(boundary_values)
    interior_dims = [lap.vertex_dims[v] for v in interior]
    if interior:
        l_uu = lap.submatrix(interior)
        l_ub = lap.submatrix(interior, b)
        y_u = -psd_pinv(l_uu) @ (l_ub @ y_b)
    else:
        y_u = np.zeros((0,) + y_b.shape[1:])
    value = _completed_quadratic_form(lap, b, y_b, interior, y_u)
    return _split_blocks(y_u, interior_dims), value


def _completed_quadratic_form(lap, b, y_b, interior, y_u) -> float:
    order = list(b) + list(interior)
    y = np.concatenate([y_b, y_u], axis=0)
    full = lap.submatrix(order)
    return float(np.sum(y * (full @ y)))


def affine_harmonic_extension(lap: BlockLaplacian, sheaf: SheafOnGraph, b_cochain, boundary, boundary_values):
    """Interior completion when edges carry target offsets (a 1-cochain).

    Solves the offset version of harmonic extension: the interior optimum is
    the plain harmonic extension plus a correction ``pinv(L[U,U]) (d^T b)_U``,
    and the reported value keeps only the boundary-dependent part,
    ``y^T L y - 2 b^T (d y)`` for the plain extension ``y``. Offsets shift
    every candidate's value by the same constant (see ``affine_offset``), so
    rankings are unaffected. With a zero 1-cochain this reduces bitwise to
    ``harmonic_extension``.
    """
    check_cochain1(sheaf, b_cochain)
    bset, interior = _boundary_partition(lap, boundary)
    interior_dims = [lap.vertex_dims[v] for v in interior]
    y_u_blocks, base_value = harmonic_extension(lap, boundary, boundary_values)

    delta_t = coboundary_transpose(sheaf, b_cochain)
    if interior:
        g = _concat_blocks([delta_t[v] for v in interior])
        correction = psd_pinv(lap.submatrix(interior)) @ g
        y_u = _concat_blocks(y_u_blocks) + correction
    else:
        y_u = _concat_blocks(y_u_blocks) if y_u_blocks else np.zeros((0,) + np.shape(boundary_values[0])[1:])

    # b^T (delta y) over the completed plain extension
    full_x = [None] * sheaf.n_vertices
    for v, blk in zip(bset, boundary_values):
        full_x[v] = np.asarray(blk, dtype=float)
    for v, blk in zip(interior, y_u_blocks):
        full_x[v] = blk
    cross = 0.0
    for e, blk in enumerate(coboundary(sheaf, full_x)):
        cross += float(np.sum(np.asarray(b_cochain[e], dtype=float) * blk))
    value = base_value - 2.0 * cross
    return _split_blocks(y_u, interior_dims), value


def affine_offset(lap: BlockLaplacian, sheaf: SheafOnGraph, b_cochain, boundary) -> float:
    """Boundary-independent part of the offset extension objective.

    Adding this constant to ``affine_harmonic_extension``'s value yields the
    true minimum of ``|delta y - b|^2`` subject to the boundary condition:
    ``b^T b - g^T pinv(L[U,U]) g`` with ``g = (delta^T b)_U``.
    """
    check_cochain1(sheaf, b_cochain)
    _, interior = _boundary_partition(lap, boundary)
    btb = sum(float(np.sum(np.asarray(blk, dtype=float) ** 2)) for blk in b_cochain)
    if not interior:
        return btb
    delta_t = coboundary_transpose(sheaf, b_cochain)
    g = _concat_blocks([delta_t[v] for v in interior])
    return btb - float(np.sum(g * (psd_pinv(lap.submatrix(interior)) @ g)))


def kron_reduce(sheaf: SheafOnGraph, boundary) -> BlockLaplacian:
    """Schur complement of the sheaf Laplacian repackaged over the boundary.

    The result is the Laplacian-like operator of an effective sheaf on the
    boundary vertices; for a chain reduced to its endpoints it encodes the
    composite relation's inferred restriction-map pair.
    """
    lap = assemble_laplacian(sheaf)
    b, _ = _boundary_partition(lap, boundary)
    s = schur_complement(lap, b)
    dims = [sheaf.vertex_dims[v] for v in b]
    off = np.concatenate(([0], np.cumsum(dims)))
    diag = tuple(s[off[i]:off[i + 1], off[i]:off[i + 1]].copy() for i in range(len(b)))
    offdiag = {}
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            blk = s[off[i]:off[i + 1], off[j]:off[j + 1]]
            if np.any(blk != 0.0):
                offdiag[(i, j)] = blk.copy()
    return BlockLaplacian(vertex_dims=tuple(dims), diag=diag, offdiag=offdiag)


def constant_sheaf(n_vertices: int, edges, dim: int) -> SheafOnGraph:
    """All stalks R^dim, all restriction maps the identity."""
    eye = np.eye(dim)
    return SheafOnGraph(
        vertex_dims=(dim,) * n_vertices,
        edges=tuple((int(u), int(v)) for u, v in edges),
        edge_dims=(dim,) * len(edges),
        head_maps=tuple(eye.copy() for _ in edges),
        tail_maps=tuple(eye.copy() for _ in edges),
    )
