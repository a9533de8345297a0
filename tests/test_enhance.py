import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rerankit import matrix_ops

from rerankit.enhance import (
    DmonConfig,
    NeighborOrders,
    adaptive_sigma,
    build_first_order,
    default_decay,
    enhance,
    expand_order,
    gaussian_weights,
    latent_features,
)
from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.optimize import AroConfig
from rerankit.pipeline import PipelineConfig, batch_bounds, compute_refined_distances
from rerankit.synthetic import SynthSpec, generate

from naive_impl import dense_weights, naive_enhance, naive_neighbor_orders, sparse_rows, sq_norms
from strategies import exact_rows


def line_points():
    """Three points on a line at 0, 1, 2."""
    return np.array([[0.0], [1.0], [2.0]])


class TestBuildFirstOrder:
    def test_line_with_tie(self):
        orders = build_first_order(line_points(), k1=1)
        level = orders.levels[0]
        assert_array_equal(level[0], [1])
        assert_array_equal(level[1], [0])  # tie between 0 and 2 -> lower index
        assert_array_equal(level[2], [1])

    def test_k1_clamped(self):
        orders = build_first_order(line_points(), k1=5)
        assert all(len(nbrs) == 2 for nbrs in orders.levels[0])

    def test_no_self_membership(self):
        rng = np.random.default_rng(53)
        pts = rng.standard_normal((12, 3))
        orders = build_first_order(pts, k1=4)
        for x, nbrs in enumerate(orders.levels[0]):
            assert x not in nbrs

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(59)
        pts = rng.standard_normal((30, 4))
        dist = np.sqrt(pairwise_sq_euclidean(pts, pts, sq_norms(pts)))
        orders = build_first_order(pts, k1=3)
        expected = naive_neighbor_orders(dist, k1=3, num_orders=1)
        for x in range(30):
            assert_array_equal(orders.levels[0][x], expected[0][x])

    def test_squared_and_unsquared_agree(self):
        rng = np.random.default_rng(61)
        pts = rng.standard_normal((15, 3))
        sq = pairwise_sq_euclidean(pts, pts, sq_norms(pts))
        orders = build_first_order(pts, k1=3)
        for dist in (sq, np.sqrt(sq)):
            expected = naive_neighbor_orders(dist, k1=3, num_orders=1)
            for x in range(15):
                assert_array_equal(orders.levels[0][x], expected[0][x])


class TestExpandOrder:
    def test_line_chain(self):
        orders = expand_order(build_first_order(line_points(), k1=1))
        assert_array_equal(orders.levels[1][2], [0])  # neighbors-of-neighbor minus self

    def test_empty_source_stays_empty(self):
        one = NeighborOrders(levels=[sparse_rows([[], [0]])])
        out = expand_order(one)
        assert out.levels[1][0].size == 0

    def test_matches_set_algebra(self):
        rng = np.random.default_rng(67)
        pts = rng.standard_normal((30, 4))
        dist = np.sqrt(pairwise_sq_euclidean(pts, pts, sq_norms(pts)))
        orders = build_first_order(pts, k1=2)
        for _ in range(2):
            orders = expand_order(orders)
        expected = naive_neighbor_orders(dist, k1=2, num_orders=3)
        for h in (2, 3):
            for x in range(30):
                assert_array_equal(orders.levels[h - 1][x], expected[h - 1][x])


class TestAdaptiveSigma:
    def test_constant_distances(self):
        # 0/1 codewords pairwise 4 bits apart, scaled by 0.25: every
        # distance is exactly 0.5
        codes = np.array([[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0],
                          [1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1]])
        pts = 0.25 * codes
        orders = build_first_order(pts, k1=2)
        assert adaptive_sigma(pts, orders) == 0.5

    def test_matches_flat_average(self):
        rng = np.random.default_rng(73)
        pts = rng.standard_normal((20, 3))
        dist = np.sqrt(pairwise_sq_euclidean(pts, pts, sq_norms(pts)))
        orders = build_first_order(pts, k1=3)
        flat = [dist[x, y] for x in range(20) for y in orders.levels[0][x]]
        assert abs(adaptive_sigma(pts, orders) - np.mean(flat)) <= 1e-12


class TestGaussianWeights:
    def test_zero_distance_weight_is_one(self):
        orders = build_first_order(np.array([[0.0], [1.0]]), k1=1)
        weights = gaussian_weights(np.zeros((2, 1)), orders, sigma=1.0)
        assert dense_weights(weights[0])[0, 1] == 1.0

    def test_bandwidth_scaling_second_order(self):
        # sigma=1, order 2 -> bandwidth 2.25; the row's weights at distances
        # 1 and 2 keep the ratio of their kernel values through the row
        # normalization: exp(-1/10.125) / exp(-4/10.125)
        pts = np.array([[0.0], [1.0], [2.0]])
        orders = NeighborOrders(levels=[sparse_rows([[1], [0], [1]]),
                                        sparse_rows([[1, 2], [0], [1]])])
        weights = dense_weights(gaussian_weights(pts, orders, sigma=1.0)[1])
        expected = math.exp(-1.0 / (2.0 * 2.25**2)) / math.exp(-4.0 / (2.0 * 2.25**2))
        assert abs(weights[0, 1] / weights[0, 2] - expected) <= 1e-12
        assert abs(expected - 1.34487) <= 1e-5

    def test_non_neighbors_have_zero_weight(self):
        rng = np.random.default_rng(79)
        pts = rng.standard_normal((10, 2))
        orders = build_first_order(pts, k1=2)
        mat = dense_weights(gaussian_weights(pts, orders, sigma=1.0)[0])
        members = {(x, y) for x in range(10) for y in orders.levels[0][x]}
        for x in range(10):
            for y in range(10):
                if (x, y) not in members:
                    assert mat[x, y] == 0.0
                else:
                    assert mat[x, y] > 0.0

    def test_rows_sum_to_one_when_normalized(self):
        rng = np.random.default_rng(83)
        pts = rng.standard_normal((12, 3))
        orders = expand_order(build_first_order(pts, k1=2))
        for mat in gaussian_weights(pts, orders, sigma=0.7):
            sums = np.bincount(mat.rows, weights=mat.vals, minlength=len(mat))
            nonempty = np.bincount(mat.rows, minlength=len(mat)) > 0
            assert_allclose(sums[nonempty], 1.0, atol=1e-12)

    def test_no_diagonal_support(self):
        rng = np.random.default_rng(89)
        pts = rng.standard_normal((14, 3))
        orders = build_first_order(pts, k1=3)
        for _ in range(2):
            orders = expand_order(orders)
        for mat in gaussian_weights(pts, orders, sigma=1.0):
            assert not np.any(mat.rows == mat.cols)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(97)
        pts = rng.standard_normal((15, 4))
        orders = expand_order(build_first_order(pts, k1=3))
        for mat in gaussian_weights(pts, orders, sigma=1.0):
            vals = mat.vals
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def underflow_gallery():
    """40 random rows, each repeated 3 times, then one far outlier (row 120).
    The adaptive sigma, the mean first-order distance, is nearly all zero
    distances between copies, so every kernel weight of row 120 underflows."""
    rng = np.random.default_rng(0)
    return np.vstack([np.repeat(rng.standard_normal((40, 8)), 3, axis=0),
                      10 * rng.standard_normal((1, 8))])


class TestKernelUnderflow:
    """A row whose kernel weights all underflow is reported by order, row and
    bandwidth, with no numpy warning, instead of becoming a NaN row."""

    def test_fixed_sigma(self):
        feats = np.random.default_rng(5).standard_normal((50, 8))
        message = "^order-1 kernel weights of row 0 all underflow at fixed sigma 0.001; set a larger"
        with pytest.raises(ValueError, match=message):
            enhance(feats, DmonConfig(sigma=1e-3))

    def test_adaptive_sigma(self):
        message = "^order-1 kernel weights of row 120 all underflow at adaptive sigma "
        with pytest.raises(ValueError, match=message):
            enhance(underflow_gallery(), DmonConfig())

    def test_bandwidth_whose_square_underflows(self):
        feats = np.random.default_rng(6).standard_normal((20, 4))
        with pytest.raises(ValueError, match="all underflow at fixed sigma 1e-200"):
            enhance(feats, DmonConfig(sigma=1e-200))


class TestKernelOverflow:
    """A bandwidth whose square overflows a float reads as infinite: every
    weight of its order is exp(-0) = 1 before the rows are rescaled."""

    def test_huge_sigma_gives_equal_weights(self):
        feats = np.random.default_rng(7).standard_normal((20, 4))
        orders = expand_order(expand_order(build_first_order(feats, k1=3)))
        for mat in gaussian_weights(feats, orders, sigma=1e160):
            assert_array_equal(mat.vals, 1.0 / np.diff(mat.offsets)[mat.rows])
        assert np.isfinite(enhance(feats, DmonConfig(sigma=1e160))).all()

    def test_orders_past_the_float_range(self):
        """At sigma 0.5, sigma_h's square overflows from h = 877 on and 1.5**h
        itself from h = 1751."""
        feats = np.random.default_rng(8).standard_normal((8, 3))
        orders = build_first_order(feats, k1=2)
        for _ in range(1, 1800):
            orders = expand_order(orders)
        last = gaussian_weights(feats, orders, sigma=0.5)[-1]
        assert_array_equal(last.vals, 1.0 / np.diff(last.offsets)[last.rows])
        assert np.isfinite(enhance(feats, DmonConfig(orders=1800))).all()

    def test_orders_past_the_last_nonzero_decay_are_not_built(self):
        """The decay 0.5**(h-1) is 0.0 from order 1,076 on, so enhance stops at
        order 1,075 and gives its bits at any larger `orders`."""
        assert len(default_decay(2000)) == 1075 and default_decay(2000)[-1] > 0.0
        feats = np.random.default_rng(9).standard_normal((8, 3))
        last = enhance(feats, DmonConfig(orders=1075)).tobytes()
        for orders in (1076, 2000):
            with mock.patch("rerankit.enhance.expand_order", wraps=expand_order) as expand:
                assert enhance(feats, DmonConfig(orders=orders)).tobytes() == last
            assert expand.call_count == 1074


class TestLatentFeatures:
    def test_zero_weights_give_zero(self):
        weights = [sparse_rows([[], [], []], vals=[[], [], []])]
        feats = np.ones((3, 2))
        assert_array_equal(latent_features(weights, feats), np.zeros((3, 2)))

    def test_single_unit_weight_scales_neighbor(self):
        # one unit weight at order 2, whose decay is 0.5
        none = sparse_rows([[], []], vals=[[], []])
        w = sparse_rows([[1], []], vals=[[1.0], []])
        feats = np.array([[5.0, 0.0], [1.0, 2.0]])
        out = latent_features([none, w], feats)
        assert_allclose(out[0], 0.5 * feats[1])
        assert_allclose(out[1], [0.0, 0.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(101)
        pts = rng.standard_normal((18, 5))
        orders = expand_order(build_first_order(pts, k1=3))
        weights = gaussian_weights(pts, orders, sigma=1.0)
        expected = sum(
            a * (dense_weights(w) @ pts) for w, a in zip(weights, default_decay(2))
        )
        assert_allclose(latent_features(weights, pts), expected, atol=1e-6)


class TestEnhance:
    def test_gamma_one_is_row_normalize_bitwise(self):
        rng = np.random.default_rng(103)
        feats = rng.standard_normal((25, 6))
        out = enhance(feats, DmonConfig(gamma=1.0))
        assert_array_equal(out, l2_normalize_rows(feats))

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(107)
        feats = rng.standard_normal((40, 8))
        cfg = DmonConfig(k1=2, orders=3, gamma=0.75)
        expected = naive_enhance(feats, k1=2, num_orders=3, gamma=0.75)
        assert_allclose(enhance(l2_normalize_rows(feats), cfg), expected, atol=1e-6)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(109)
        feats = rng.standard_normal((30, 5))
        out = enhance(feats, DmonConfig())
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_single_batch_equals_unbatched_bitwise(self):
        """A gallery batch size of at least the gallery's rows is one chunk,
        enhanced like no batching at all."""
        rng = np.random.default_rng(113)
        fq, fg = rng.standard_normal((6, 4)), rng.standard_normal((20, 4))
        cfg = PipelineConfig(aro=AroConfig(enabled=False))
        batched = replace(cfg, dmon_batch_size=20)
        assert batch_bounds(20, batched) == [(0, 20)]
        assert_array_equal(compute_refined_distances(fq, fg, cfg),
                           compute_refined_distances(fq, fg, batched))

    @pytest.mark.parametrize("n, batch_size, chunks", [
        (23, 8, [8, 8, 7]),
        (9, 4, [4, 5]),  # a last chunk of 1 <= k1 rows joins the one before
    ])
    def test_batched_chunks_enhanced_independently(self, n, batch_size, chunks):
        rng = np.random.default_rng(127)
        feats = rng.standard_normal((n, 4))
        unit = l2_normalize_rows(feats)
        cfg = PipelineConfig(dmon=DmonConfig(k1=2, orders=2), dmon_batch_size=batch_size)
        bounds = batch_bounds(n, cfg)
        assert [b - a for a, b in bounds] == chunks
        out = np.vstack([enhance(unit[a:b], cfg.dmon) for a, b in bounds])
        expected = naive_enhance(feats, k1=2, num_orders=2, batch_size=batch_size)
        assert_allclose(out, expected, atol=1e-6)

    def test_fixed_sigma_mode(self):
        rng = np.random.default_rng(131)
        feats = rng.standard_normal((16, 4))
        cfg = DmonConfig(sigma=0.4, orders=2)
        expected = naive_enhance(feats, num_orders=2, sigma_mode="fixed", sigma=0.4)
        assert_allclose(enhance(l2_normalize_rows(feats), cfg), expected, atol=1e-6)

    def test_duplicate_rows_do_not_crash(self):
        feats = np.ones((6, 3))
        out = enhance(feats, DmonConfig(k1=2, orders=2))
        assert np.all(np.isfinite(out))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, data):
        """Duplicate rows put exact first-order ties across scan block and
        column tile edges."""
        pre_normalize = data.draw(st.booleans(), label="pre_normalize")
        pool = data.draw(st.lists(exact_rows(pre_normalize), min_size=1, max_size=4), label="pool")
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
        feats = np.array([pool[i] for i in picks])
        n = feats.shape[0]
        k1 = data.draw(st.integers(1, n + 1), label="k1")
        orders = data.draw(st.integers(1, 3), label="orders")
        sigma_mode = data.draw(st.sampled_from(["adaptive", "fixed"]), label="sigma_mode")
        sigma = data.draw(st.sampled_from([0.3, 1.0, 2.5]), label="sigma")
        block = data.draw(st.integers(1, 3), label="block rows")
        tile = data.draw(st.integers(1, 4), label="tile columns")
        cfg = DmonConfig(k1=k1, orders=orders, sigma=sigma if sigma_mode == "fixed" else None)
        given = l2_normalize_rows(feats) if pre_normalize else feats
        with mock.patch.object(matrix_ops, "_SCAN_BLOCK_ROWS", block), \
                mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            out = enhance(given, cfg)
        expected = naive_enhance(
            feats, k1=k1, num_orders=orders,
            sigma_mode=sigma_mode, sigma=sigma, pre_normalize=pre_normalize,
        )
        assert_allclose(out, expected, atol=1e-6)

    def test_peak_memory_below_sample_square(self):
        """No N x N distance matrix is built."""
        rng = np.random.default_rng(137)
        feats = rng.standard_normal((3000, 32))
        tracemalloc.start()
        try:
            enhance(feats, DmonConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_intra_class_compaction_on_clustered_data(self):
        _, _, gallery, g_labels = generate(SynthSpec(seed=7))
        enhanced = enhance(gallery, DmonConfig())

        def mean_intra(feats):
            total, count = 0.0, 0
            for pid in np.unique(g_labels.pids):
                rows = feats[g_labels.pids == pid]
                d = np.sqrt(pairwise_sq_euclidean(rows, rows, sq_norms(rows)))
                total += d[np.triu_indices(len(rows), 1)].sum()
                count += len(rows) * (len(rows) - 1) // 2
            return total / count

        assert mean_intra(enhanced) <= mean_intra(gallery)


class TestDmonConfig:
    def test_default_decay_sequence(self):
        assert default_decay(4) == (1.0, 0.5, 0.25, 0.125)

    def test_decay_strictly_decreasing(self):
        decay = default_decay(5)
        assert all(b < a for a, b in zip(decay, decay[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="k1"):
            DmonConfig(k1=0)
        with pytest.raises(ValueError, match="gamma"):
            DmonConfig(gamma=1.5)
        with pytest.raises(ValueError, match="sigma"):
            DmonConfig(sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            DmonConfig(sigma=float("nan"))
        with pytest.raises(ValueError, match="sigma must be finite"):
            DmonConfig(sigma=float("inf"))
