import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from rerankit import matrix_ops
from rerankit.matrix_ops import (
    knn_scan,
    l2_normalize_rows,
    pair_sq_euclidean,
    pairwise_sq_euclidean,
    topk_smallest,
)

from naive_impl import naive_pairwise_sq, naive_topk


class TestL2NormalizeRows:
    def test_three_four_five(self):
        assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_zero_row_unchanged(self):
        assert_array_equal(l2_normalize_rows([[0.0, 0.0]]), [[0.0, 0.0]])

    def test_seeded_norms_are_unit(self):
        rng = np.random.default_rng(11)
        out = l2_normalize_rows(rng.standard_normal((5, 8)))
        norms = np.linalg.norm(out, axis=1)
        assert_allclose(norms, np.ones(5), atol=1e-9)

    def test_non_finite_reports_row(self):
        bad = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="row 1"):
            l2_normalize_rows(bad)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_unit_or_zero(self, m):
        norms = np.linalg.norm(l2_normalize_rows(m), axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))


class TestPairwiseSqEuclidean:
    def test_unit_axes(self):
        assert_allclose(pairwise_sq_euclidean([[1.0, 0.0]], [[0.0, 1.0]]), [[2.0]])

    def test_self_distance_zero_diag_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4))
        d = pairwise_sq_euclidean(a, a)
        assert_array_equal(np.diag(d), np.zeros(9))
        assert_allclose(d, d.T, atol=1e-6)
        assert d.min() >= 0.0

    def test_equal_copy_gets_plain_expansion(self):
        """Only the same object gets the exact-zero diagonal; an equal copy
        gets the expansion, so a query set equal to the gallery is treated
        alike whatever the stripe shape."""
        a = l2_normalize_rows(np.random.default_rng(4).standard_normal((40, 7)))
        sq = np.einsum("ij,ij->i", a, a)
        plain = np.maximum((a * -2.0) @ a.T + sq[:, None] + sq[None, :], 0.0)
        assert np.diag(plain).any()  # rounding leaves some diagonal entries non-zero
        assert_array_equal(pairwise_sq_euclidean(a, a.copy()), plain)

    def test_given_norms_give_identical_bits(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 5))
        b = rng.standard_normal((30, 5))
        sq = np.einsum("ij,ij->i", b, b)
        assert_array_equal(pairwise_sq_euclidean(a, b, b_sq=sq), pairwise_sq_euclidean(a, b))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((5, 3))
        assert_allclose(pairwise_sq_euclidean(a, b), naive_pairwise_sq(a, b), atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_sq_euclidean(np.ones((2, 3)), np.ones((2, 4)))

    def test_block_size_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((23, 6))
        b = rng.standard_normal((75, 6))
        whole = pairwise_sq_euclidean(a, b, block=200)
        for block in (1, 64):
            assert_allclose(pairwise_sq_euclidean(a, b, block=block), whole, atol=1e-5)

    def test_fixed_block_bitwise_stable(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((18, 5))
        b = rng.standard_normal((31, 5))
        first = pairwise_sq_euclidean(a, b, block=7)
        second = pairwise_sq_euclidean(a, b, block=7)
        assert_array_equal(first, second)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((10, 4))
        perm = rng.permutation(10)
        direct = pairwise_sq_euclidean(a, b[perm])
        assert_allclose(direct, pairwise_sq_euclidean(a, b)[:, perm], atol=1e-9)

    def test_bad_block(self):
        with pytest.raises(ValueError, match="block"):
            pairwise_sq_euclidean(np.ones((2, 2)), np.ones((2, 2)), block=0)


class TestTopkSmallest:
    def test_sorted_row(self):
        res = topk_smallest([[0.2, 0.5, 0.9]], 2)
        assert_array_equal(res.indices, [[0, 1]])
        assert_allclose(res.values, [[0.2, 0.5]])

    def test_tie_break_by_index(self):
        res = topk_smallest([[1.0, 1.0, 0.5]], 2)
        assert_array_equal(res.indices, [[2, 0]])

    def test_matches_full_sort(self):
        rng = np.random.default_rng(17)
        d = rng.random((20, 20))
        res = topk_smallest(d, 5)
        exp_idx, exp_val = naive_topk(d, 5)
        assert_array_equal(res.indices, exp_idx)
        assert_allclose(res.values, exp_val)

    def test_k_clamped_to_columns(self):
        res = topk_smallest([[3.0, 1.0]], 10)
        assert_array_equal(res.indices, [[1, 0]])

    def test_no_rows(self):
        res = topk_smallest(np.empty((0, 300)), 2)
        assert res.indices.shape == res.values.shape == (0, 2)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(19)
        d = rng.integers(0, 3, size=(15, 12)).astype(float)  # many ties
        first = topk_smallest(d, 4)
        second = topk_smallest(d, 4)
        assert_array_equal(first.indices, second.indices)
        exp_idx, _ = naive_topk(d, 4)
        assert_array_equal(first.indices, exp_idx)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 10)),
            elements=st.floats(0, 100, allow_nan=False),
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_oracle(self, d, k):
        res = topk_smallest(d, k)
        exp_idx, exp_val = naive_topk(d, k)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    def test_boundary_ties_prefer_low_index(self):
        # four equal values at the selection boundary
        d = np.array([[5.0, 2.0, 5.0, 5.0, 1.0, 5.0]])
        res = topk_smallest(d, 4)
        assert_array_equal(res.indices, [[4, 1, 0, 2]])

    @given(
        st.integers(1, 4).flatmap(lambda tile: st.tuples(
            st.just(tile),
            arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.integers(1, 9 * tile + 3)),
                elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf]),
            ),
        )),
        st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_tile_path_matches_oracle(self, tiled, k):
        """Tiles of 1-4 columns: small integers put exact ties on tile
        edges, widths need not be a multiple of the tile, inf entries can
        outnumber the finite ones, and k runs past the tile-path cutoff."""
        tile, d = tiled
        with mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            res = topk_smallest(d, k)
        exp_idx, exp_val = naive_topk(d, k)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    @pytest.mark.parametrize("equal", [False, True])
    @pytest.mark.parametrize("width, k, full_rows", [
        (12_800, 2, False), (12_800, 20, False), (3_200, 20, True),
    ])
    def test_tile_path_routing(self, width, k, full_rows, equal):
        """Below the cutoff 2 * k * _TILE_COLS <= width, no row reaches
        `_topk_rows` at full width: it sees the tile minima, then k
        gathered tiles, also when every entry ties. Above it, the rows
        are searched whole."""
        d = np.random.default_rng(47).random((156, width))
        if equal:
            d[:] = 1.0
        widths = []
        real = matrix_ops._topk_rows

        def spy(work, kk):
            widths.append(work.shape[1])
            return real(work, kk)

        with mock.patch.object(matrix_ops, "_topk_rows", spy):
            res = topk_smallest(d, k)
        tile = matrix_ops._TILE_COLS
        if full_rows:
            assert widths == [width]
        else:
            assert widths == [width // tile, k * tile]
        exp_idx = np.argsort(d, axis=1, kind="stable")[:, :k]
        assert_array_equal(res.indices, exp_idx)


class TestKnnScan:
    def test_exclude_self(self):
        # on a line at 0, 1, -2: distances 1 (0-1), 2 (0-2), 3 (1-2)
        pts = np.array([[0.0], [1.0], [-2.0]])
        res = knn_scan(pts, 1, exclude_self=True)
        assert_array_equal(res.indices, [[1], [0], [0]])

    def test_self_kept_at_zero(self):
        pts = np.array([[0.0], [1.0], [-2.0]])
        res = knn_scan(pts, 3, exclude_self=False)
        assert_array_equal(res.indices, [[0, 1, 2], [1, 0, 2], [2, 0, 1]])
        assert_array_equal(res.values[:, 0], [0.0, 0.0, 0.0])

    def test_k_clamped_to_candidates(self):
        pts = np.array([[0.0], [1.0]])
        assert knn_scan(pts, 5, exclude_self=True).indices.shape == (2, 1)
        assert knn_scan(pts, 5, exclude_self=False).indices.shape == (2, 2)
        assert knn_scan(pts[:1], 1, exclude_self=True).indices.shape == (1, 0)

    @given(
        st.lists(st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3),
                 min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=10),
        st.integers(1, 12),
        st.booleans(),
        st.integers(1, 3),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_matrix_oracle(self, pool, picks, k, exclude_self, block, tile):
        """Duplicate integer rows put exact ties on scan block and column
        tile edges."""
        pts = np.array([pool[i % len(pool)] for i in picks])
        with mock.patch.object(matrix_ops, "_SCAN_BLOCK_ROWS", block), \
                mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            res = knn_scan(pts, k, exclude_self=exclude_self)
        full = naive_pairwise_sq(pts, pts)
        if exclude_self:
            exp_idx, exp_val = naive_topk(full, k, exclude_self=True)
        else:
            exp_idx, exp_val = naive_topk(full, k)
        assert_array_equal(res.indices, exp_idx.reshape(len(pts), -1))
        assert_array_equal(res.values, exp_val.reshape(len(pts), -1))

    @pytest.mark.parametrize("distinct", [1, 8])
    @pytest.mark.parametrize("tile", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_duplicate_rows_match_oracle(self, distinct, tile, k, exclude_self):
        """50 rows that are all equal, or copies of 8 distinct rows: every
        row ties with many columns, across tile and block edges and into
        a ragged last tile."""
        pool = np.random.default_rng(distinct).integers(-2, 3, size=(distinct, 4))
        pts = pool[np.arange(50) % distinct].astype(np.float64)
        with mock.patch.object(matrix_ops, "_SCAN_BLOCK_ROWS", 5), \
                mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            res = knn_scan(pts, k, exclude_self=exclude_self)
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=exclude_self)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    def test_blocks_capped_at_one_stripe(self, monkeypatch):
        """A scan block is at most _STRIPE_ELEMS entries: 8000 rows run in
        blocks of 250, not 1024, so scratch is a few stripes."""
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 1024)
        pts = np.random.default_rng(43).standard_normal((8000, 8))
        heights = []
        real = matrix_ops.pairwise_sq_euclidean

        def spy(a, b, **kwargs):
            heights.append(len(a))
            return real(a, b, **kwargs)

        tracemalloc.start()
        try:
            with mock.patch.object(matrix_ops, "pairwise_sq_euclidean", spy):
                knn_scan(pts, 20, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(heights) == matrix_ops._STRIPE_ELEMS // 8000
        stripe_bytes = matrix_ops._STRIPE_ELEMS * 8
        assert peak < 3 * stripe_bytes, f"peak {peak / 2**20:.1f} MiB"


class TestPairSqEuclidean:
    def test_matches_full_matrix(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((9, 5))
        rows = rng.integers(0, 9, 40)
        cols = rng.integers(0, 9, 40)
        full = pairwise_sq_euclidean(pts, pts)
        assert_allclose(pair_sq_euclidean(pts, rows, cols), full[rows, cols], atol=1e-12)

    def test_chunks_and_empty(self, monkeypatch):
        monkeypatch.setattr(matrix_ops, "_STRIPE_ELEMS", 6)
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        out = pair_sq_euclidean(pts, np.array([0, 1, 2, 1, 0]), np.array([1, 2, 0, 1, 0]))
        assert_array_equal(out, [25.0, 20.0, 1.0, 0.0, 0.0])
        assert pair_sq_euclidean(pts, np.empty(0, int), np.empty(0, int)).shape == (0,)
