import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lap_block, random_cochain0, random_cochain1, random_sheaf
from sheaf_kg.errors import ShapeError, ValidationError
from sheaf_kg.sheaf import (
    PINV_RCOND,
    BlockLaplacian,
    SheafOnGraph,
    affine_harmonic_extension,
    affine_offset,
    assemble_laplacian,
    coboundary,
    coboundary_matrix,
    constant_sheaf,
    eliminate,
    harmonic_extension,
    interior_vertices,
    kron_reduce,
    psd_pinv,
    quadratic_form,
    schur_complement,
)


def identity_path(k, dim=2):
    """Chain of k identity edges on k+1 vertices."""
    return constant_sheaf(k + 1, [(i, i + 1) for i in range(k)], dim)


def constrained_minimum(sheaf, boundary, y_b_blocks):
    """Oracle: minimize the quadratic form over the interior by least squares.

    Works directly on the dense coboundary, independent of the Laplacian
    assembly and Schur paths. Returns (interior vector, optimal value).
    """
    delta = coboundary_matrix(sheaf)
    voff = sheaf.vertex_offsets
    b_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in boundary])
    interior = [v for v in range(sheaf.n_vertices) if v not in set(boundary)]
    y_b = np.concatenate([np.asarray(b, dtype=float) for b in y_b_blocks])
    if not interior:
        resid = delta[:, b_cols] @ y_b
        return np.zeros(0), float(resid @ resid)
    u_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in interior])
    rhs = -delta[:, b_cols] @ y_b
    sol, *_ = np.linalg.lstsq(delta[:, u_cols], rhs, rcond=None)
    resid = delta[:, u_cols] @ sol - rhs
    return sol, float(resid @ resid)


def blockwise_laplacian(sheaf):
    """Oracle: the Laplacian accumulated edge by edge into vertex blocks.

    diag(u) accumulates H_e^T H_e and T_e^T T_e over incident edges; the
    block for an edge ``u -> v`` with ``u != v`` contributes ``-H_e^T T_e``
    off-diagonally. A self-loop's two maps interact, so its whole
    ``(T_e - H_e)^T (T_e - H_e)`` lands on the diagonal block. Returns the
    dict of every diagonal and every edge's ``(u, v)`` block, both
    orientations included.
    """
    blocks = {(v, v): np.zeros((d, d)) for v, d in enumerate(sheaf.vertex_dims)}
    for e, (u, v) in enumerate(sheaf.edges):
        head, tail = sheaf.head_maps[e], sheaf.tail_maps[e]
        if u == v:
            m = tail - head
            blocks[(u, u)] += m.T @ m
            continue
        blocks[(u, u)] += head.T @ head
        blocks[(v, v)] += tail.T @ tail
        blocks[(u, v)] = blocks.get((u, v), 0.0) - head.T @ tail
        blocks[(v, u)] = blocks.get((v, u), 0.0) - tail.T @ head
    return blocks


def blockwise_submatrix(blocks, dims, order):
    return np.block([
        [blocks.get((u, v), np.zeros((dims[u], dims[v]))) for v in order] for u in order
    ])


@st.composite
def ragged_multigraph_sheaves(draw):
    """Random sheaves with ragged stalk dims, at least one self-loop and one parallel edge."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    edges += [(draw(vertex),) * 2, edges[draw(st.integers(0, len(edges) - 1))]]
    vertex_dims = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    edge_dims = tuple(draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SheafOnGraph(
        vertex_dims=vertex_dims,
        edges=tuple(edges),
        edge_dims=edge_dims,
        head_maps=tuple(rng.normal(size=(de, vertex_dims[u])) for de, (u, _) in zip(edge_dims, edges)),
        tail_maps=tuple(rng.normal(size=(de, vertex_dims[v])) for de, (_, v) in zip(edge_dims, edges)),
    )


@settings(max_examples=80, deadline=None)
@given(sheaf=ragged_multigraph_sheaves(), data=st.data())
def test_dense_laplacian_and_elimination_match_oracles(sheaf, data):
    lap = assemble_laplacian(sheaf)
    blocks = blockwise_laplacian(sheaf)
    oracle = blockwise_submatrix(blocks, sheaf.vertex_dims, range(sheaf.n_vertices))
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.abs(lap.dense - oracle).max() <= 1e-12 * scale
    for (u, v), blk in blocks.items():
        assert np.abs(lap_block(lap, [u], [v]) - blk).max() <= 1e-12 * scale
    order = data.draw(st.permutations(range(sheaf.n_vertices)))
    assert np.abs(lap_block(lap, order) - blockwise_submatrix(blocks, sheaf.vertex_dims, order)).max() \
        <= 1e-12 * scale

    # eliminate against least squares on the dense coboundary: the interior
    # minimizer of |delta_U y_U + delta_B y_B| is y_U = extend @ y_B, and the
    # residual's Gram matrix is the Schur complement
    boundary = order[:data.draw(st.integers(1, sheaf.n_vertices))]
    schur, extend, _ = eliminate(lap, boundary)
    interior = interior_vertices(lap, boundary)
    delta = coboundary_matrix(sheaf)
    d_b, d_u = delta[:, lap.columns(boundary)], delta[:, lap.columns(interior)]
    sol = np.linalg.lstsq(d_u, -d_b, rcond=None)[0] if interior else np.zeros((0, d_b.shape[1]))
    resid = d_b + d_u @ sol
    assert np.abs(extend - sol).max(initial=0.0) <= 1e-8 * (1.0 + np.abs(sol).max(initial=0.0))
    assert np.abs(schur - resid.T @ resid).max() <= 1e-8 * scale


class TestCoboundary:
    def test_constant_sheaf_constant_cochain_is_flat(self, rng):
        sheaf = constant_sheaf(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2)
        x0 = rng.normal(size=2)
        out = coboundary(sheaf, [x0] * 4)
        for blk in out:
            np.testing.assert_array_equal(blk, np.zeros(2))

    def test_one_dimensional_arithmetic(self):
        sheaf = SheafOnGraph(
            vertex_dims=(1, 1),
            edges=((0, 1),),
            edge_dims=(1,),
            head_maps=(2.0 * np.eye(1),),
            tail_maps=(np.eye(1),),
        )
        (out,) = coboundary(sheaf, [np.array([1.0]), np.array([1.0])])
        np.testing.assert_array_equal(out, np.array([-1.0]))

    def test_norm_matches_edgewise_loop(self, rng):
        sheaf = random_sheaf(rng, n_vertices=4)
        x = random_cochain0(rng, sheaf)
        total = sum(float(np.sum(blk**2)) for blk in coboundary(sheaf, x))
        by_hand = 0.0
        for e, (u, v) in enumerate(sheaf.edges):
            diff = sheaf.head_maps[e] @ x[u] - sheaf.tail_maps[e] @ x[v]
            by_hand += float(diff @ diff)
        assert total == pytest.approx(by_hand, rel=1e-12)

    def test_shape_error_names_edge(self, rng):
        sheaf = identity_path(2)
        bad = [np.zeros(2), np.zeros(3), np.zeros(2)]
        with pytest.raises(ShapeError, match="vertex 1"):
            coboundary(sheaf, bad)
        lap = assemble_laplacian(sheaf)  # one block too few, one too many
        for blocks in ([np.zeros(2)], [np.zeros(2)] * 3):
            with pytest.raises(ShapeError, match=f"boundary data has {len(blocks)} blocks, expected 2"):
                harmonic_extension(lap, [0, 2], blocks)

    @pytest.mark.parametrize("call, match", [
        (lambda sh, lap: harmonic_extension(lap, [0, 2], [np.zeros((2, 3)), np.zeros((2, 4))]),
         r"vertex 2: block of shape \(2, 4\), but the first boundary data block has shape \(2, 3\)"),
        (lambda sh, lap: coboundary(sh, [np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 3))]),
         r"vertex 1: block of shape \(2, 4\), but the first 0-cochain block"),
        (lambda sh, lap: harmonic_extension(lap, [0, 2], [np.zeros(2), 5.0]),
         "vertex 2: scalar block, stalk dim 2"),
        (lambda sh, lap: affine_harmonic_extension(
            sh, [np.zeros((2, 1)), np.zeros((2, 2))], [0, 2], [np.zeros((2, 1))] * 2),
         r"edge 1: block of shape \(2, 2\), but the first 1-cochain block"),
        # numpy broadcast these vector offsets along the data's two columns: a finite wrong value
        (lambda sh, lap: affine_harmonic_extension(
            constant_sheaf(3, [(0, 1), (1, 2)], 1), [np.ones(1)] * 2, [0, 2], [np.ones((1, 2))] * 2),
         r"1-cochain of trailing shape \(\), boundary data \(2,\)"),
        (lambda sh, lap: affine_harmonic_extension(
            SheafOnGraph((2, 2), (), (), (), ()), [], [0, 1], [np.zeros((2, 3))] * 2),
         r"1-cochain of trailing shape \(\), boundary data \(3,\)"),
    ], ids=["harmonic-columns", "coboundary-columns", "scalar-boundary", "affine-columns",
            "affine-vector-offsets", "affine-empty-offsets"])
    def test_mixed_or_scalar_blocks_are_shape_errors(self, call, match):
        # numpy raised ValueError or IndexError for these before the blocks' shapes were compared
        sheaf = constant_sheaf(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ShapeError, match=match):
            call(sheaf, assemble_laplacian(sheaf))

    def test_transpose_is_adjoint(self, rng):
        # the per-edge coboundary pins the dense delta whose transpose the affine extension applies
        sheaf = random_sheaf(rng)
        x = random_cochain0(rng, sheaf)
        b = random_cochain1(rng, sheaf)
        lhs = sum(float(np.sum(db * bb)) for db, bb in zip(coboundary(sheaf, x), b))
        rhs = float(np.concatenate(x) @ (coboundary_matrix(sheaf).T @ np.concatenate(b)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestQuadraticForm:
    def test_constant_assignment_scores_zero(self, rng):
        sheaf = constant_sheaf(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 3)
        x0 = rng.normal(size=3)
        assert quadratic_form(sheaf, [x0] * 5) == 0.0

    def test_identity_edge_arithmetic(self):
        sheaf = constant_sheaf(2, [(0, 1)], 2)
        val = quadratic_form(sheaf, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert val == pytest.approx(2.0)

    def test_matches_dense_laplacian(self, rng):
        sheaf = random_sheaf(rng, n_vertices=5)
        x = random_cochain0(rng, sheaf)
        lap = assemble_laplacian(sheaf).to_dense()
        xc = np.concatenate(x)
        assert quadratic_form(sheaf, x) == pytest.approx(float(xc @ lap @ xc), rel=1e-10)


class TestAssembleLaplacian:
    def test_single_identity_edge(self):
        lap = assemble_laplacian(constant_sheaf(2, [(0, 1)], 1))
        np.testing.assert_allclose(lap.to_dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_path_middle_block(self):
        lap = assemble_laplacian(identity_path(2, dim=3))
        np.testing.assert_allclose(lap_block(lap, [1]), 2.0 * np.eye(3), atol=1e-15)

    def test_matches_dense_gram_of_coboundary(self, rng):
        for _ in range(20):
            sheaf = random_sheaf(rng)
            delta = coboundary_matrix(sheaf)
            np.testing.assert_allclose(
                assemble_laplacian(sheaf).to_dense(), delta.T @ delta, atol=1e-12
            )

    def test_self_loop_matches_dense_gram(self, rng):
        sheaf = random_sheaf(rng, n_vertices=3, n_edges=6, allow_self_loops=True)
        assert any(u == v for u, v in sheaf.edges) or True
        delta = coboundary_matrix(sheaf)
        np.testing.assert_allclose(
            assemble_laplacian(sheaf).to_dense(), delta.T @ delta, atol=1e-12
        )

    def test_positive_semidefinite(self, rng):
        for _ in range(20):
            sheaf = random_sheaf(rng)
            dense = assemble_laplacian(sheaf).to_dense()
            w = np.linalg.eigvalsh(dense)
            norm = max(float(np.max(np.abs(w))), 1e-30)
            assert w.min() >= -1e-9 * norm

    def test_block_symmetry(self, rng):
        sheaf = random_sheaf(rng)
        lap = assemble_laplacian(sheaf)
        dense = lap.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        for v in range(lap.n_vertices):
            np.testing.assert_allclose(lap_block(lap, [v]), lap_block(lap, [v]).T, atol=1e-12)


class TestSchurComplement:
    def test_identity_path_endpoints(self):
        lap = assemble_laplacian(identity_path(2, dim=2))
        s = schur_complement(lap, [0, 2])
        eye = np.eye(2)
        expected = np.block([[eye / 2, -eye / 2], [-eye / 2, eye / 2]])
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_no_interior_returns_boundary_block(self, rng):
        sheaf = random_sheaf(rng, n_vertices=3)
        lap = assemble_laplacian(sheaf)
        np.testing.assert_array_equal(
            schur_complement(lap, [0, 1, 2]), lap_block(lap, [0, 1, 2])
        )

    def test_empty_boundary_rejected(self, rng):
        lap = assemble_laplacian(identity_path(2))
        with pytest.raises(ValidationError):
            schur_complement(lap, [])

    @pytest.mark.parametrize("vertex", [2.5, 2.0, "2", None, True])
    def test_non_integer_boundary_vertex_rejected(self, vertex):
        # int() once read 2.5 and "2" as vertex 2
        lap = assemble_laplacian(identity_path(2))  # vertices 0, 1, 2
        with pytest.raises(ValidationError, match="boundary vertex ids must be integers"):
            interior_vertices(lap, [0, vertex])

    def test_numpy_integer_boundary_vertices_accepted(self):
        lap = assemble_laplacian(identity_path(2))  # vertices 0, 1, 2
        assert interior_vertices(lap, np.array([2, 0])) == [1]
        assert interior_vertices(lap, [np.int32(1)]) == [0, 2]

    def test_value_equals_constrained_minimum(self, rng):
        for _ in range(25):
            sheaf = random_sheaf(rng)
            lap = assemble_laplacian(sheaf)
            n = sheaf.n_vertices
            size = int(rng.integers(1, n))
            boundary = sorted(rng.choice(n, size=size, replace=False).tolist())
            s = schur_complement(lap, boundary)
            for _ in range(4):
                y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
                y = np.concatenate(y_blocks)
                _, oracle = constrained_minimum(sheaf, boundary, y_blocks)
                val = float(y @ s @ y)
                assert val == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    def test_result_is_psd(self, rng):
        for _ in range(10):
            sheaf = random_sheaf(rng)
            lap = assemble_laplacian(sheaf)
            s = schur_complement(lap, [0, 1])
            w = np.linalg.eigvalsh(s)
            assert w.min() >= -1e-9 * max(float(np.max(np.abs(w))), 1e-30)


class TestHarmonicExtension:
    def test_exact_section_has_zero_value(self, rng):
        lap = assemble_laplacian(identity_path(2, dim=3))
        a = rng.normal(size=3)
        (y1,), value = harmonic_extension(lap, [0, 2], [a, a])
        np.testing.assert_allclose(y1, a, atol=1e-12)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_interpolation(self, rng):
        lap = assemble_laplacian(identity_path(2, dim=3))
        a, b = rng.normal(size=3), rng.normal(size=3)
        (y1,), value = harmonic_extension(lap, [0, 2], [a, b])
        np.testing.assert_allclose(y1, (a + b) / 2, atol=1e-12)
        assert value == pytest.approx(float(np.sum((a - b) ** 2)) / 2, rel=1e-12)

    def test_matches_dense_solve(self, rng):
        for _ in range(25):
            sheaf = random_sheaf(rng)
            lap = assemble_laplacian(sheaf)
            n = sheaf.n_vertices
            size = int(rng.integers(1, n))
            boundary = sorted(rng.choice(n, size=size, replace=False).tolist())
            y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
            y_u, value = harmonic_extension(lap, boundary, y_blocks)
            sol, oracle = constrained_minimum(sheaf, boundary, y_blocks)
            assert value == pytest.approx(oracle, rel=1e-8, abs=1e-8)
            if len(sol):
                np.testing.assert_allclose(np.concatenate(y_u), sol, atol=1e-7)

    def test_pinv_equals_inverse_when_interior_regular(self, rng):
        # a dense enough sheaf usually has an invertible interior block
        for _ in range(10):
            sheaf = random_sheaf(rng, n_vertices=4, max_vertex_dim=3, max_edge_dim=4, n_edges=8)
            lap = assemble_laplacian(sheaf)
            boundary = [0, 1]
            interior = interior_vertices(lap, boundary)
            l_uu = lap_block(lap, interior)
            if np.linalg.cond(l_uu) > 1e8:
                continue
            y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
            y_u, value = harmonic_extension(lap, boundary, y_blocks)
            y_b = np.concatenate(y_blocks)
            direct = -np.linalg.inv(l_uu) @ lap_block(lap, interior, boundary) @ y_b
            np.testing.assert_allclose(np.concatenate(y_u), direct, rtol=1e-10, atol=1e-10)

    def test_matrix_valued_boundary_blocks(self, rng):
        lap = assemble_laplacian(identity_path(2, dim=2))
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        (y1,), value = harmonic_extension(lap, [0, 2], [a, b])
        np.testing.assert_allclose(y1, (a + b) / 2, atol=1e-12)
        assert value == pytest.approx(float(np.sum((a - b) ** 2)) / 2, rel=1e-12)


class TestAffineExtension:
    def test_zero_offset_reduces_exactly(self, rng):
        sheaf = random_sheaf(rng)
        lap = assemble_laplacian(sheaf)
        boundary = [0, sheaf.n_vertices - 1]
        y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
        zero = [np.zeros(d) for d in sheaf.edge_dims]
        base_u, base_val = harmonic_extension(lap, boundary, y_blocks)
        aff_u, aff_val = affine_harmonic_extension(sheaf, zero, boundary, y_blocks)
        assert aff_val == base_val
        for a, b in zip(aff_u, base_u):
            np.testing.assert_array_equal(a, b)

    def test_single_edge_expands_the_square(self, rng):
        sheaf = constant_sheaf(2, [(0, 1)], 3)
        x_u, x_v, r = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        _, value = affine_harmonic_extension(sheaf, [r], [0, 1], [x_u, x_v])
        expected = float(np.sum((x_v - x_u) ** 2) - 2 * r @ (x_v - x_u))
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert value + float(r @ r) == pytest.approx(
            float(np.sum((x_u + r - x_v) ** 2)), rel=1e-10
        )

    def test_matches_dense_least_squares_with_offset(self, rng):
        for _ in range(20):
            sheaf = random_sheaf(rng)
            n = sheaf.n_vertices
            size = int(rng.integers(1, n))
            boundary = sorted(rng.choice(n, size=size, replace=False).tolist())
            y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
            b = random_cochain1(rng, sheaf)
            _, value = affine_harmonic_extension(sheaf, b, boundary, y_blocks)
            constant = affine_offset(sheaf, b, boundary)

            delta = coboundary_matrix(sheaf)
            voff = sheaf.vertex_offsets
            b_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in boundary])
            interior = [v for v in range(n) if v not in set(boundary)]
            bvec = np.concatenate(b)
            y_b = np.concatenate(y_blocks)
            if interior:
                u_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in interior])
                rhs = bvec - delta[:, b_cols] @ y_b
                sol, *_ = np.linalg.lstsq(delta[:, u_cols], rhs, rcond=None)
                oracle = float(np.sum((delta[:, u_cols] @ sol - rhs) ** 2))
            else:
                resid = delta[:, b_cols] @ y_b - bvec
                oracle = float(resid @ resid)
            assert value + constant == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    def test_interior_optimizer_matches_least_squares(self, rng):
        sheaf = random_sheaf(rng, n_vertices=5)
        lap = assemble_laplacian(sheaf)
        boundary = [0, 4]
        y_blocks = [rng.normal(size=sheaf.vertex_dims[v]) for v in boundary]
        b = random_cochain1(rng, sheaf)
        y_u, _ = affine_harmonic_extension(sheaf, b, boundary, y_blocks)
        delta = coboundary_matrix(sheaf)
        voff = sheaf.vertex_offsets
        b_cols = np.concatenate([np.arange(voff[v], voff[v + 1]) for v in boundary])
        u_cols = np.concatenate(
            [np.arange(voff[v], voff[v + 1]) for v in interior_vertices(lap, boundary)]
        )
        rhs = np.concatenate(b) - delta[:, b_cols] @ np.concatenate(y_blocks)
        sol, *_ = np.linalg.lstsq(delta[:, u_cols], rhs, rcond=None)
        np.testing.assert_allclose(np.concatenate(y_u), sol, atol=1e-7)

    def test_edgeless_sheaf_takes_an_empty_cochain(self, rng):
        # the empty 1-cochain joins to an empty vector, so delta^T b is a zero vector
        sheaf = SheafOnGraph((2, 3, 1), (), (), (), ())
        boundary, y_blocks = [0, 2], [rng.normal(size=2), rng.normal(size=1)]
        with np.errstate(all="raise"):
            base_u, base_val = harmonic_extension(assemble_laplacian(sheaf), boundary, y_blocks)
            aff_u, aff_val = affine_harmonic_extension(sheaf, [], boundary, y_blocks)
            constant = affine_offset(sheaf, [], boundary)
        assert aff_val == base_val
        assert len(aff_u) == len(base_u) == 1
        np.testing.assert_array_equal(aff_u[0], base_u[0])
        assert constant == 0.0 and isinstance(constant, float)

    def test_old_signature_with_a_laplacian_is_a_type_error(self):
        sheaf = identity_path(2)
        b, y_blocks = [np.zeros(2)] * 2, [np.zeros(2)] * 2
        with pytest.raises(TypeError):
            affine_harmonic_extension(assemble_laplacian(sheaf), sheaf, b, [0, 2], y_blocks)
        with pytest.raises(TypeError):
            affine_offset(assemble_laplacian(sheaf), sheaf, b, [0, 2])


class TestKronReduction:
    def test_two_edge_path_factors_as_scaled_identity_edge(self):
        reduced = kron_reduce(identity_path(2, dim=2), [0, 2])
        # effective single edge with both restriction maps 1/sqrt(2) * I
        maps = np.eye(2) / np.sqrt(2)
        np.testing.assert_allclose(lap_block(reduced, [0]), maps.T @ maps, atol=1e-12)
        np.testing.assert_allclose(lap_block(reduced, [1]), maps.T @ maps, atol=1e-12)
        np.testing.assert_allclose(lap_block(reduced, [0], [1]), -(maps.T @ maps), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_chain_effective_resistance(self, rng, k):
        reduced = kron_reduce(identity_path(k, dim=3), [0, k])
        a, b = rng.normal(size=3), rng.normal(size=3)
        y = np.concatenate([a, b])
        dense = reduced.to_dense()
        assert float(y @ dense @ y) == pytest.approx(
            float(np.sum((a - b) ** 2)) / k, rel=1e-10
        )

    def test_full_boundary_returns_laplacian(self, rng):
        sheaf = random_sheaf(rng, n_vertices=4)
        lap = assemble_laplacian(sheaf)
        reduced = kron_reduce(sheaf, list(range(4)))
        np.testing.assert_allclose(reduced.to_dense(), lap.to_dense(), atol=1e-12)


class TestPullback:
    def test_sections_pull_back_to_sections(self, rng):
        # a sheaf on a small "schema" tree with a planted section, unrolled
        # onto a larger graph mapping back to the tree
        dims = 3
        schema_edges = [(0, 1), (1, 2), (0, 3)]
        head_maps, tail_maps, x = [], [], [rng.normal(size=dims)]
        x += [None, None, None]
        for u, v in schema_edges:
            head = rng.normal(size=(dims, dims))
            tail = rng.normal(size=(dims, dims)) + 3.0 * np.eye(dims)  # invertible
            head_maps.append(head)
            tail_maps.append(tail)
            x[v] = np.linalg.solve(tail, head @ x[u])
        # unroll: two copies of every schema vertex; every schema edge appears
        # between all copy pairs, mapping edges to edges and vertices to vertices
        copies = 2
        g_edges, g_heads, g_tails = [], [], []
        for e, (u, v) in enumerate(schema_edges):
            for cu in range(copies):
                for cv in range(copies):
                    g_edges.append((u * copies + cu, v * copies + cv))
                    g_heads.append(head_maps[e])
                    g_tails.append(tail_maps[e])
        pulled = SheafOnGraph(
            vertex_dims=(dims,) * (4 * copies),
            edges=tuple(g_edges),
            edge_dims=(dims,) * len(g_edges),
            head_maps=tuple(g_heads),
            tail_maps=tuple(g_tails),
        )
        pulled_x = [x[v // copies] for v in range(4 * copies)]
        assert quadratic_form(pulled, pulled_x) <= 1e-10


class TestPsdPinv:
    def test_matches_numpy_pinv_on_singular_psd(self, rng):
        a = rng.normal(size=(6, 4))
        m = a @ a.T  # rank 4, PSD
        np.testing.assert_allclose(psd_pinv(m), np.linalg.pinv(m, hermitian=True), atol=1e-9)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(psd_pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_input_gives_an_empty_array_of_its_shape(self, shape):
        got = psd_pinv(np.zeros(shape))
        assert got.shape == shape and got.dtype == np.float64

    def test_stack_cuts_off_each_matrix_by_its_own_largest_eigenvalue(self, rng):
        # a cutoff taken from the whole stack's largest eigenvalue (1e12 here)
        # would zero every eigenvalue of the rank-deficient slice
        a = rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        stack = np.stack([np.zeros((4, 4)), a @ a.T, (q * [1e12, 3e11, 2e11, 1e11]) @ q.T])
        got = psd_pinv(stack)
        assert np.abs(got[1]).max() > 1e-3
        for g in range(len(stack)):
            np.testing.assert_allclose(got[g], psd_pinv(stack[g]), rtol=1e-12, atol=1e-14)

    def test_a_non_finite_matrix_gets_an_all_nan_pseudoinverse(self, rng):
        # eigh can raise LinAlgError on a NaN matrix, and an inf one would get an all-zero pseudoinverse
        a = rng.normal(size=(4, 3))
        finite = a @ a.T  # rank 3
        stack = np.stack([finite, finite, finite])
        stack[1, 0, 2] = stack[1, 2, 0] = np.nan
        stack[2, 3, 3] = np.inf
        got = psd_pinv(stack)
        # the finite matrix takes the unchecked path, bit for bit
        w, q = np.linalg.eigh(finite)
        cutoff = PINV_RCOND * max(w[-1], 0.0)
        inv_w = np.where(w > cutoff, 1.0, 0.0) / np.where(w > cutoff, w, 1.0)
        assert got[0].tobytes() == ((q * inv_w[None, :]) @ q.T).tobytes()
        assert got[0].tobytes() == psd_pinv(finite).tobytes()
        assert np.isnan(got[1:]).all()
        assert np.isnan(psd_pinv([[np.inf, 0.0], [0.0, 1.0]])).all()

    def test_an_overflowing_eigenvalue_gets_an_all_nan_pseudoinverse(self, rng):
        # every entry is finite, but eigh's largest eigenvalue is inf, and so was the cutoff
        # PINV_RCOND * w[-1], which then dropped every eigenvalue: an all-zero pseudoinverse
        huge = [[1.7e308, 5.7e307], [5.7e307, 1.7e308]]
        assert np.isfinite(huge).all() and np.isinf(np.linalg.eigh(huge)[0][-1])
        assert np.isnan(psd_pinv(huge)).all()
        a = rng.normal(size=(2, 1))
        finite = a @ a.T  # rank 1
        got = psd_pinv(np.stack([finite, huge, finite]))
        assert np.isnan(got[1]).all()
        # the finite matrices take the unchecked path, bit for bit
        w, q = np.linalg.eigh(finite)
        cutoff = PINV_RCOND * max(w[-1], 0.0)
        inv_w = np.where(w > cutoff, 1.0, 0.0) / np.where(w > cutoff, w, 1.0)
        want = ((q * inv_w[None, :]) @ q.T).tobytes()
        assert got[0].tobytes() == got[2].tobytes() == want == psd_pinv(finite).tobytes()

    def test_nan_map_gives_nan_extension_and_kron_reduction(self):
        sheaf = identity_path(2)
        sheaf.head_maps[1][0, 0] = np.nan  # edge 1 leaves the interior vertex 1
        (y_u,), value = harmonic_extension(assemble_laplacian(sheaf), [0, 2], [np.ones(2), np.zeros(2)])
        assert np.isnan(y_u).all() and np.isnan(value)
        assert np.isnan(kron_reduce(sheaf, [0, 2]).dense).all()


class TestBatchAxis:
    def test_stacked_maps_give_each_sheafs_coboundary_and_laplacian(self, rng):
        sheaves = [random_sheaf(rng, n_vertices=4, n_edges=5)]
        base = sheaves[0]
        for _ in range(2):
            sheaves.append(SheafOnGraph(
                base.vertex_dims, base.edges, base.edge_dims,
                tuple(rng.normal(size=h.shape) for h in base.head_maps),
                tuple(rng.normal(size=t.shape) for t in base.tail_maps),
            ))
        stacked = SheafOnGraph(
            base.vertex_dims, base.edges, base.edge_dims,
            tuple(np.stack(maps) for maps in zip(*(s.head_maps for s in sheaves))),
            tuple(np.stack(maps) for maps in zip(*(s.tail_maps for s in sheaves))),
        )
        assert stacked.batch == (3,)
        delta, lap = coboundary_matrix(stacked), assemble_laplacian(stacked)
        for g, one in enumerate(sheaves):
            np.testing.assert_array_equal(delta[g], coboundary_matrix(one))
            np.testing.assert_allclose(lap.dense[g], assemble_laplacian(one).dense, rtol=1e-14, atol=1e-13)
            rows, cols = lap.columns([2, 0]), lap.columns([1])
            np.testing.assert_array_equal(lap_block(lap, [2, 0], [1])[g], lap.dense[g][rows][:, cols])

    def test_rejects_maps_with_unequal_batch_shapes(self, rng):
        base = random_sheaf(rng, n_vertices=3, n_edges=2)
        heads = (np.stack([base.head_maps[0]] * 2), np.stack([base.head_maps[1]] * 3))
        tails = (np.stack([base.tail_maps[0]] * 2), np.stack([base.tail_maps[1]] * 3))
        with pytest.raises(ShapeError, match="edge 1"):
            SheafOnGraph(base.vertex_dims, base.edges, base.edge_dims, heads, tails)


class TestBlockLaplacianType:
    def test_rejects_misshapen_blocks(self):
        with pytest.raises(ShapeError):
            BlockLaplacian(vertex_dims=(2,), dense=np.zeros((3, 3)))
