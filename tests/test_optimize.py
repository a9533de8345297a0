import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rerankit import matrix_ops
from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.optimize import (
    AroConfig,
    FilteredRows,
    asymmetric_similarity,
    neighborhood_filter,
    optimize,
)

from naive_impl import naive_filter, naive_optimize, naive_similarity
from strategies import exact_rows

# The package re-exports the `optimize` function under the module's name.
optimize_module = importlib.import_module("rerankit.optimize")


def all_columns(dense):
    """A dense matrix as filtered rows that keep every column."""
    dense = np.asarray(dense, dtype=np.float64)
    n, m = dense.shape
    return FilteredRows(np.tile(np.arange(m), (n, 1)), dense, 0.0, m)


class TestNeighborhoodFilter:
    def test_keep_two_smallest(self):
        out = neighborhood_filter([[0.2, 0.5, 0.9]], k2=2, fill=1.0)
        assert_array_equal(out.indices, [[0, 1]])
        assert (out.fill, out.num_cols) == (1.0, 3)
        assert_allclose(out, [[0.2, 0.5, 1.0]])

    def test_noop_when_k2_covers_row(self):
        d = np.array([[0.3, 0.1, 0.2]])
        assert_array_equal(neighborhood_filter(d, k2=3, fill=1.0), d)

    def test_matches_mask_oracle(self):
        rng = np.random.default_rng(149)
        d = rng.random((10, 10))
        assert_allclose(
            neighborhood_filter(d, k2=4, fill=1.0), naive_filter(d, 4, 1.0), atol=0
        )
        assert_allclose(
            neighborhood_filter(d, k2=4, fill=0.0), naive_filter(d, 4, 0.0), atol=0
        )

    def test_self_column_not_excluded(self):
        d = np.array([[0.0, 5.0, 6.0], [5.0, 0.0, 7.0], [6.0, 7.0, 0.0]])
        out = neighborhood_filter(d, k2=1, fill=1.0)
        assert_array_equal(np.diag(np.asarray(out)), [0.0, 0.0, 0.0])


class TestAsymmetricSimilarity:
    def test_identical_rows_give_one(self):
        qg_f = np.array([[0.5, 0.2, 0.0]])
        gg_f = np.array([[0.5, 0.2, 0.0], [0.0, 1.0, 0.0], [0.1, 0.1, 0.8]])
        sim = asymmetric_similarity(all_columns(qg_f), all_columns(gg_f))
        assert abs(sim[0, 0] - 1.0) <= 1e-12

    def test_zero_rows_give_zero(self):
        qg_f = np.zeros((1, 2))
        gg_f = np.array([[1.0, 0.0], [0.0, 1.0]])
        sim = asymmetric_similarity(all_columns(qg_f), all_columns(gg_f))
        assert_array_equal(sim, np.zeros((1, 2)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(151)
        qg_f = rng.random((3, 5))
        gg_f = rng.random((5, 5))
        assert_allclose(
            asymmetric_similarity(all_columns(qg_f), all_columns(gg_f)),
            naive_similarity(qg_f, gg_f),
            atol=1e-6,
        )

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(157)
        qg_f = rng.random((6, 9))
        gg_f = rng.random((9, 9))
        sim = asymmetric_similarity(all_columns(qg_f), all_columns(gg_f))
        assert sim.min() >= 0.0 and sim.max() <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            asymmetric_similarity(all_columns(np.ones((2, 3))), all_columns(np.ones((4, 4))))

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_sparse_rows_match_dense_product(self, fill):
        rng = np.random.default_rng(159)
        q_rows = neighborhood_filter(rng.random((4, 11)), 3, fill)
        g_rows = neighborhood_filter(rng.random((11, 11)), 3, fill)
        assert_allclose(
            asymmetric_similarity(q_rows, g_rows),
            naive_similarity(np.asarray(q_rows), np.asarray(g_rows)),
            atol=1e-12,
        )


class TestOptimize:
    def test_disabled_returns_raw_distances(self):
        rng = np.random.default_rng(163)
        fq = rng.standard_normal((3, 4))
        fg = rng.standard_normal((7, 4))
        out = optimize(fq, fg, AroConfig(enabled=False))
        fqn, fgn = l2_normalize_rows(fq), l2_normalize_rows(fg)
        assert_array_equal(out, pairwise_sq_euclidean(fqn, fgn))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            optimize(np.ones((2, 3)), np.ones((2, 4)), AroConfig())

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(167)
        fq = rng.standard_normal((5, 6))
        fg = rng.standard_normal((12, 6))
        out = optimize(fq, fg, AroConfig(k2=4))
        expected = naive_optimize(fq, fg, k2=4, fill=1.0)
        assert_allclose(out, expected, atol=1e-6)

    def test_zero_fill_variant(self):
        rng = np.random.default_rng(173)
        fq = rng.standard_normal((4, 5))
        fg = rng.standard_normal((9, 5))
        out = optimize(fq, fg, AroConfig(k2=3, fill_value=0.0))
        assert_allclose(out, naive_optimize(fq, fg, k2=3, fill=0.0), atol=1e-6)

    def test_k2_covering_gallery_degenerates(self):
        rng = np.random.default_rng(179)
        fq = l2_normalize_rows(rng.standard_normal((3, 4)))
        fg = l2_normalize_rows(rng.standard_normal((6, 4)))
        qg = pairwise_sq_euclidean(fq, fg)
        gg = pairwise_sq_euclidean(fg, fg)
        out = optimize(fq, fg, AroConfig(k2=10))
        expected = qg - np.clip(
            l2_normalize_rows(qg) @ l2_normalize_rows(gg).T, 0.0, 1.0
        )
        assert_allclose(out, expected, atol=1e-12)

    def test_gallery_permutation_equivariance(self):
        rng = np.random.default_rng(181)
        fq = rng.standard_normal((4, 5))
        fg = rng.standard_normal((10, 5))
        perm = rng.permutation(10)
        direct = optimize(fq, fg[perm], AroConfig(k2=3))
        permuted = optimize(fq, fg, AroConfig(k2=3))[:, perm]
        assert_allclose(direct, permuted, atol=1e-9)

    def test_query_independence(self):
        rng = np.random.default_rng(191)
        fq = rng.standard_normal((6, 4))
        fg = rng.standard_normal((9, 4))
        full = optimize(fq, fg, AroConfig(k2=3))
        subset = optimize(fq[[0, 2, 5]], fg, AroConfig(k2=3))
        assert_allclose(full[[0, 2, 5]], subset, atol=1e-12)

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("k2", [1, 4, 30])
    def test_streamed_route_matches_dense(self, fill, k2, monkeypatch):
        """Gallery scanned in several blocks, against the dense oracle."""
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 4)
        rng = np.random.default_rng(193)
        fq = rng.standard_normal((7, 6))
        fg = rng.standard_normal((21, 6))
        out = optimize(fq, fg, AroConfig(k2=k2, fill_value=fill))
        assert_allclose(out, naive_optimize(fq, fg, k2=k2, fill=fill), atol=1e-9)

    def test_streamed_route_medium_scale(self, monkeypatch):
        """900 gallery rows in blocks of 256 (ragged last block) against the
        dense fill-padded product rownorm(QG) @ rownorm(GG)^T."""
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 256)
        rng = np.random.default_rng(199)
        fq = l2_normalize_rows(rng.standard_normal((40, 16)))
        fg = l2_normalize_rows(rng.standard_normal((900, 16)))
        out = optimize(fq, fg, AroConfig(k2=20))
        qg = pairwise_sq_euclidean(fq, fg)
        dense_q = np.asarray(neighborhood_filter(qg, 20, 1.0))
        dense_g = np.asarray(neighborhood_filter(pairwise_sq_euclidean(fg, fg), 20, 1.0))
        sim = np.clip(l2_normalize_rows(dense_q) @ l2_normalize_rows(dense_g).T, 0.0, 1.0)
        assert_allclose(out, qg - sim, atol=1e-9)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, data):
        """Duplicate rows put exact top-k2 ties across gallery block edges;
        query stripes of one or two rows split the in-place subtraction."""
        pre_normalize = data.draw(st.booleans(), label="pre_normalize")
        pool = data.draw(st.lists(exact_rows(pre_normalize), min_size=1, max_size=4), label="pool")
        pick = st.integers(0, len(pool) - 1)
        fq = np.array([pool[i] for i in data.draw(st.lists(pick, min_size=1, max_size=5))])
        fg = np.array([pool[i] for i in data.draw(st.lists(pick, min_size=1, max_size=9))])
        k2 = data.draw(st.integers(1, fg.shape[0] + 2), label="k2")
        fill = data.draw(st.sampled_from([0.0, 1.0]), label="fill")
        block = data.draw(st.integers(1, 3), label="block rows")
        stripe = data.draw(st.integers(1, 2), label="stripe rows") * fg.shape[0]
        cfg = AroConfig(k2=k2, fill_value=fill, pre_normalize=pre_normalize)
        with mock.patch.object(matrix_ops, "_SCAN_BLOCK_ROWS", block), \
                mock.patch.object(optimize_module, "_STRIPE_ELEMS", stripe):
            out = optimize(fq, fg, cfg)
        expected = naive_optimize(fq, fg, k2=k2, fill=fill, pre_normalize=pre_normalize)
        assert_allclose(out, expected, rtol=0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e100, 1e160])
    @pytest.mark.parametrize("num_g", [9, matrix_ops._SCAN_BLOCK_ROWS + 9])
    def test_overflow_raises(self, scale, num_g):
        """1e160 overflows the kept distances, 1e100 only the row norms."""
        rng = np.random.default_rng(201)
        fq = rng.standard_normal((3, 4)) * scale
        fg = rng.standard_normal((num_g, 4)) * scale
        with pytest.raises(ValueError, match="overflow"):
            optimize(fq, fg, AroConfig(k2=3, pre_normalize=False))

    def test_peak_memory_below_gallery_square(self):
        """The Ng x Ng gallery matrix is never built."""
        rng = np.random.default_rng(211)
        fq = rng.standard_normal((500, 32))
        fg = rng.standard_normal((3000, 32))
        tracemalloc.start()
        try:
            optimize(fq, fg, AroConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_below_one_and_a_half_outputs(self):
        """The output is the only (Nq, Ng) buffer: the similarity is
        subtracted stripe by stripe, after the gallery scan has ended."""
        rng = np.random.default_rng(213)
        fq = rng.standard_normal((2000, 32))
        fg = rng.standard_normal((8000, 32))
        output_bytes = 2000 * 8000 * 8
        tracemalloc.start()
        try:
            optimize(fq, fg, AroConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * output_bytes, (
            f"peak {peak / 2**20:.1f} MiB, output {output_bytes / 2**20:.1f} MiB"
        )

    def test_negative_entries_allowed(self):
        rng = np.random.default_rng(197)
        fq = rng.standard_normal((3, 4))
        out = optimize(fq, fq.copy(), AroConfig(k2=2))
        assert out.min() < 0.0  # self matches: distance 0 minus similarity


class TestAroConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k2"):
            AroConfig(k2=0)
        with pytest.raises(ValueError, match="fill_value"):
            AroConfig(fill_value=0.5)
