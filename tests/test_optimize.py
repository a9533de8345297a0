import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rerankit.optimize as optimize_module
from rerankit import matrix_ops
from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.optimize import (
    AroConfig,
    FilteredRows,
    asymmetric_similarity,
    neighborhood_filter,
    optimize,
)

from naive_impl import (
    dense_filtered,
    naive_filter,
    naive_optimize,
    naive_pairwise_sq,
    naive_similarity,
    sq_norms,
)
from strategies import exact_rows
from test_matrix_ops import FakeBlasThreads


def all_columns(dense):
    """A dense matrix as filtered rows that keep every column."""
    dense = np.asarray(dense, dtype=np.float64)
    n, m = dense.shape
    return FilteredRows(np.tile(np.arange(m), (n, 1)), dense, 0.0, m)


class TestNeighborhoodFilter:
    def test_keep_two_smallest(self):
        out = neighborhood_filter(np.array([[0.2, 0.5, 0.9]]), k2=2, fill=1.0)
        assert_array_equal(out.indices, [[0, 1]])
        assert (out.fill, out.num_cols) == (1.0, 3)
        assert_allclose(dense_filtered(out), [[0.2, 0.5, 1.0]])

    def test_noop_when_k2_covers_row(self):
        d = np.array([[0.3, 0.1, 0.2]])
        assert_array_equal(dense_filtered(neighborhood_filter(d, k2=3, fill=1.0)), d)

    def test_matches_mask_oracle(self):
        rng = np.random.default_rng(149)
        d = rng.random((10, 10))
        assert_allclose(
            dense_filtered(neighborhood_filter(d, k2=4, fill=1.0)), naive_filter(d, 4, 1.0), atol=0
        )
        assert_allclose(
            dense_filtered(neighborhood_filter(d, k2=4, fill=0.0)), naive_filter(d, 4, 0.0), atol=0
        )

    def test_self_column_not_excluded(self):
        d = np.array([[0.0, 5.0, 6.0], [5.0, 0.0, 7.0], [6.0, 7.0, 0.0]])
        out = neighborhood_filter(d, k2=1, fill=1.0)
        assert_array_equal(np.diag(dense_filtered(out)), [0.0, 0.0, 0.0])


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

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_sparse_rows_match_dense_product(self, fill):
        rng = np.random.default_rng(159)
        q_rows = neighborhood_filter(rng.random((4, 11)), 3, fill)
        g_rows = neighborhood_filter(rng.random((11, 11)), 3, fill)
        assert_allclose(
            asymmetric_similarity(q_rows, g_rows),
            naive_similarity(dense_filtered(q_rows), dense_filtered(g_rows)),
            atol=1e-12,
        )

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_no_shared_kept_columns(self, fill):
        """No gallery row keeps the query's kept column, so there is no
        residual product at all; only the fill terms remain."""
        q_rows = neighborhood_filter(np.array([[0.5, 0.0]]), 1, fill)
        g_rows = neighborhood_filter(np.array([[0.0, 0.5], [0.0, 0.7]]), 1, fill)
        assert_allclose(
            asymmetric_similarity(q_rows, g_rows),
            naive_similarity(dense_filtered(q_rows), dense_filtered(g_rows)),
            atol=1e-12,
        )

    def test_peak_memory_on_hub_columns(self):
        """Identical rows all keep the same k2 columns, so each column is
        kept by every gallery row and each query row meets k2 * Ng residual
        products (16M in all here). They are built in bounded chunks: the
        peak stays within the similarity itself plus two stripes."""
        row = l2_normalize_rows(np.random.default_rng(217).standard_normal((1, 16)))
        fq, fg = np.tile(row, (200, 1)), np.tile(row, (4000, 1))
        g_rows = neighborhood_filter(pairwise_sq_euclidean(fg, fg, sq_norms(fg)), 20, 1.0)
        q_rows = neighborhood_filter(pairwise_sq_euclidean(fq, fg, sq_norms(fg)), 20, 1.0)
        assert np.all(g_rows.indices == g_rows.indices[0])
        stripe_bytes = matrix_ops._STRIPE_ELEMS * 8
        tracemalloc.start()
        try:
            sim = asymmetric_similarity(q_rows, g_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_allclose(sim, 1.0, rtol=0, atol=1e-12)
        assert peak < sim.nbytes + 2 * stripe_bytes, f"peak {peak / 2**20:.1f} MiB"


class TestOptimize:
    def test_disabled_returns_raw_distances(self):
        rng = np.random.default_rng(163)
        fq = rng.standard_normal((3, 4))
        fg = rng.standard_normal((7, 4))
        out = optimize(fq, fg, AroConfig(enabled=False))
        assert_array_equal(out, pairwise_sq_euclidean(fq, fg, sq_norms(fg)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            optimize(np.ones((2, 3)), np.ones((2, 4)), AroConfig())

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(167)
        fq = rng.standard_normal((5, 6))
        fg = rng.standard_normal((12, 6))
        out = optimize(l2_normalize_rows(fq), l2_normalize_rows(fg), AroConfig(k2=4))
        expected = naive_optimize(fq, fg, k2=4, fill=1.0)
        assert_allclose(out, expected, atol=1e-6)

    def test_zero_fill_variant(self):
        rng = np.random.default_rng(173)
        fq = rng.standard_normal((4, 5))
        fg = rng.standard_normal((9, 5))
        cfg = AroConfig(k2=3, fill_value=0.0)
        out = optimize(l2_normalize_rows(fq), l2_normalize_rows(fg), cfg)
        assert_allclose(out, naive_optimize(fq, fg, k2=3, fill=0.0), atol=1e-6)

    def test_k2_covering_gallery_degenerates(self):
        rng = np.random.default_rng(179)
        fq = l2_normalize_rows(rng.standard_normal((3, 4)))
        fg = l2_normalize_rows(rng.standard_normal((6, 4)))
        qg = pairwise_sq_euclidean(fq, fg, sq_norms(fg))
        gg = pairwise_sq_euclidean(fg, fg, sq_norms(fg))
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
        cfg = AroConfig(k2=k2, fill_value=fill)
        out = optimize(l2_normalize_rows(fq), l2_normalize_rows(fg), cfg)
        assert_allclose(out, naive_optimize(fq, fg, k2=k2, fill=fill), atol=1e-9)

    def test_streamed_route_medium_scale(self, monkeypatch):
        """900 gallery rows in blocks of 256 (ragged last block) against the
        dense fill-padded product rownorm(QG) @ rownorm(GG)^T."""
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 256)
        rng = np.random.default_rng(199)
        fq = l2_normalize_rows(rng.standard_normal((40, 16)))
        fg = l2_normalize_rows(rng.standard_normal((900, 16)))
        out = optimize(fq, fg, AroConfig(k2=20))
        qg = pairwise_sq_euclidean(fq, fg, sq_norms(fg))
        dense_q = dense_filtered(neighborhood_filter(qg, 20, 1.0))
        gg = pairwise_sq_euclidean(fg, fg, sq_norms(fg))
        dense_g = dense_filtered(neighborhood_filter(gg, 20, 1.0))
        sim = np.clip(l2_normalize_rows(dense_q) @ l2_normalize_rows(dense_g).T, 0.0, 1.0)
        assert_allclose(out, qg - sim, atol=1e-9)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, data):
        """Duplicate rows put exact top-k2 ties across gallery block and
        column tile edges; query stripes of one or two rows split the
        in-place subtraction."""
        pre_normalize = data.draw(st.booleans(), label="pre_normalize")
        pool = data.draw(st.lists(exact_rows(pre_normalize), min_size=1, max_size=4), label="pool")
        pick = st.integers(0, len(pool) - 1)
        fq = np.array([pool[i] for i in data.draw(st.lists(pick, min_size=1, max_size=5))])
        fg = np.array([pool[i] for i in data.draw(st.lists(pick, min_size=1, max_size=9))])
        k2 = data.draw(st.integers(1, fg.shape[0] + 2), label="k2")
        fill = data.draw(st.sampled_from([0.0, 1.0]), label="fill")
        block = data.draw(st.integers(1, 3), label="block rows")
        stripe = data.draw(st.integers(1, 2), label="stripe rows") * fg.shape[0]
        tile = data.draw(st.integers(1, 4), label="tile columns")
        given = (l2_normalize_rows(fq), l2_normalize_rows(fg)) if pre_normalize else (fq, fg)
        with mock.patch.object(matrix_ops, "_SCAN_BLOCK_ROWS", block), \
                mock.patch.object(optimize_module, "_STRIPE_ELEMS", stripe), \
                mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            out = optimize(*given, AroConfig(k2=k2, fill_value=fill))
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
            optimize(fq, fg, AroConfig(k2=3))

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


class TestQueryGalleryLanes:
    """The query-gallery stage runs its half-stripes on the kNN scan's lanes."""

    # 45 query rows against 30 gallery rows: half-stripes of 8 rows (five,
    # then a ragged one of 5), refined in row blocks of 2
    STRIPE = 16 * 30

    @staticmethod
    def tied_rows():
        """Copies of 5 integer rows: exact distances that tie across
        half-stripe, row block and column tile edges."""
        pool = np.random.default_rng(223).integers(-2, 3, size=(5, 4)).astype(np.float64)
        return pool[np.arange(45) % 5], pool[np.arange(30) * 2 % 5]

    def run(self, monkeypatch, cfg, blas, sink=None):
        monkeypatch.setattr(optimize_module, "_STRIPE_ELEMS", self.STRIPE)
        monkeypatch.setattr(matrix_ops, "_TILE_COLS", 3)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: blas)
        fq, fg = self.tied_rows()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return optimize(fq, fg, cfg, sink=sink)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("k2", [1, 4, 40])
    def test_lanes_match_serial_and_oracle(self, monkeypatch, threads, fill, k2):
        """Every lane sinks half-stripes, in any order, and every row is sunk
        exactly once; the values equal the serial run's bit for bit, and
        the oracle's (exactly, for raw distances)."""
        fq, fg = self.tied_rows()
        for enabled in (True, False):
            cfg = AroConfig(k2=k2, fill_value=fill, enabled=enabled)
            serial = self.run(monkeypatch, cfg, None)
            blas = FakeBlasThreads(threads)
            out = np.full_like(serial, np.nan)
            sunk = np.zeros(len(fq), dtype=int)
            sinks = []

            def sink(start, stripe):
                sinks.append((start, threading.current_thread()))
                sunk[start : start + len(stripe)] += 1
                out[start : start + len(stripe)] = stripe

            assert self.run(monkeypatch, cfg, blas, sink) is None
            assert sorted(start for start, _ in sinks) == list(range(0, 45, 8))
            assert (sunk == 1).all()
            assert len({thread for _, thread in sinks}) == threads
            assert_array_equal(out, serial)
            if enabled:
                expected = naive_optimize(fq, fg, k2=k2, fill=fill, pre_normalize=False)
                assert_allclose(serial, expected, rtol=0, atol=1e-9)
            else:
                assert_array_equal(serial, naive_pairwise_sq(fq, fg))

    def test_sink_calls_cover_every_row_and_never_overlap(self, monkeypatch):
        calls, active = [], []
        lock = threading.Lock()

        def sink(start, stripe):
            with lock:
                active.append(1)
                overlap = len(active) > 1
            time.sleep(0.002)  # a second lane would enter meanwhile
            calls.append((start, len(stripe), overlap))
            with lock:
                active.pop()

        self.run(monkeypatch, AroConfig(k2=4), FakeBlasThreads(3), sink)
        assert sorted((start, rows) for start, rows, _ in calls) == [
            (start, min(8, 45 - start)) for start in range(0, 45, 8)]
        assert not any(overlap for _, _, overlap in calls)

    def test_no_lane_waits_for_its_turn(self, monkeypatch):
        """The caller's first half-stripe takes 0.3 s longer; meanwhile the
        helper lane sinks its half-stripes 1, 3 and 5 without waiting for
        half-stripe 0, and the values are still the serial run's."""
        serial = self.run(monkeypatch, AroConfig(k2=4), None)
        real = optimize_module.pairwise_sq_euclidean
        delayed = []

        def slow_first(*args, **kwargs):  # called by the caller's lane only
            if not delayed:
                delayed.append(1)
                time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize_module, "pairwise_sq_euclidean", slow_first)
        out = np.full_like(serial, np.nan)
        starts = []

        def sink(start, stripe):
            starts.append(start)
            out[start : start + len(stripe)] = stripe

        self.run(monkeypatch, AroConfig(k2=4), FakeBlasThreads(2), sink)
        assert starts[:3] == [8, 24, 40]
        assert sorted(starts) == list(range(0, 45, 8))
        assert_array_equal(out, serial)

    @pytest.mark.parametrize("where", ["helper kernel", "sink on a helper", "sink on the caller"])
    def test_failure_reaches_caller(self, monkeypatch, where):
        """A failure stops the stage: the other lane stops at its next
        half-stripe, no thread is left running, and the lanes are free
        again. Lane 0 runs half-stripes 0, 2, 4 and lane 1 runs 1, 3, 5;
        the failure comes in half-stripe 3 (from a helper) or 2 (from the
        caller), 0.2 s late."""
        blas = FakeBlasThreads(2)
        real = optimize_module._similarity
        helper_calls = []

        def failing_kernel(q_rows, g_rows):
            if threading.current_thread() is not caller:
                helper_calls.append(1)
                if len(helper_calls) == 5:  # the first row block of half-stripe 3
                    time.sleep(0.2)
                    raise RuntimeError("lane failed")
            return real(q_rows, g_rows)

        def sink(start, stripe):
            if start == {"sink on a helper": 24, "sink on the caller": 16}.get(where):
                time.sleep(0.2)
                raise RuntimeError("lane failed")

        if where == "helper kernel":
            monkeypatch.setattr(optimize_module, "_similarity", failing_kernel)
        caller = None
        errors = []

        def call():
            nonlocal caller
            caller = threading.current_thread()
            try:
                self.run(monkeypatch, AroConfig(k2=4), blas, sink)
            except RuntimeError as exc:
                errors.append(exc)

        before = threading.active_count()
        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [str(exc) for exc in errors] == ["lane failed"]
        assert threading.active_count() == before
        assert not matrix_ops._LANES_BUSY.locked()
        assert blas.set_to == [1, 2]  # the stage; the gallery scan is one block


class TestAroConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="k2"):
            AroConfig(k2=0)
        with pytest.raises(ValueError, match="fill_value"):
            AroConfig(fill_value=0.5)
