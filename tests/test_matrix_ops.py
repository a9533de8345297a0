import importlib
import importlib.util
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import rerankit.optimize as optimize_module
from rerankit import matrix_ops, pipeline
from rerankit.matrix_ops import (
    as_feature_matrix,
    knn_scan,
    l2_normalize_rows,
    pair_sq_euclidean,
    pairwise_sq_euclidean,
    topk_smallest,
)
from rerankit.synthetic import SynthSpec, generate

from naive_impl import naive_pairwise_sq, naive_topk, sq_norms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    """The benchmark tracer's module, for the names of the traced functions."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAsFeatureMatrix:
    def test_non_finite_reports_row(self):
        bad = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        message = "^gallery features contains a non-finite value in row 1$"
        with pytest.raises(ValueError, match=message):
            as_feature_matrix(bad, "gallery features")

    @pytest.mark.parametrize("bad", [
        np.ones(3), np.ones((2, 2, 2)), np.ones((0, 3)), np.ones((2, 0)),
    ])
    def test_rejects_shapes(self, bad):
        with pytest.raises(ValueError, match="^features must"):
            as_feature_matrix(bad)

    @pytest.mark.parametrize("form", [
        np.asfortranarray, lambda x: x.astype(np.float32), lambda x: x.astype(np.int64),
        lambda x: x.tolist(), lambda x: x[:, ::-1][:, ::-1],
    ])
    def test_returns_c_ordered_float64(self, form):
        x = np.arange(12.0).reshape(4, 3)
        arr = as_feature_matrix(form(x))
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert_array_equal(arr, x)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        assert_allclose(l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_zero_row_unchanged(self):
        assert_array_equal(l2_normalize_rows(np.zeros((1, 2))), [[0.0, 0.0]])

    def test_seeded_norms_are_unit(self):
        rng = np.random.default_rng(11)
        out = l2_normalize_rows(rng.standard_normal((5, 8)))
        norms = np.linalg.norm(out, axis=1)
        assert_allclose(norms, np.ones(5), atol=1e-9)

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
        a, b = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        assert_allclose(pairwise_sq_euclidean(a, b, sq_norms(b)), [[2.0]])

    def test_self_distance_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4))
        d = pairwise_sq_euclidean(a, a, sq_norms(a))
        assert_allclose(d, d.T, atol=1e-6)
        assert d.min() >= 0.0

    def test_equal_copy_gets_plain_expansion(self):
        """Every call gets the plain expansion, with no entry set apart, so
        a row set passed twice and an equal copy give the same bits."""
        a = l2_normalize_rows(np.random.default_rng(4).standard_normal((40, 7)))
        sq = sq_norms(a)
        plain = np.maximum((a * -2.0) @ a.T + sq[:, None] + sq[None, :], 0.0)
        assert np.diag(plain).any()  # rounding leaves some diagonal entries non-zero
        assert_array_equal(pairwise_sq_euclidean(a, a.copy(), sq), plain)
        assert_array_equal(pairwise_sq_euclidean(a, a, sq), plain)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((5, 3))
        got = pairwise_sq_euclidean(a, b, sq_norms(b))
        assert_allclose(got, naive_pairwise_sq(a, b), atol=1e-6)

    def test_block_size_invariance(self):
        """Row stripes of `a`, as the query-gallery stage cuts them, agree
        with the whole matrix."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((23, 6))
        b = rng.standard_normal((75, 6))
        b_sq = sq_norms(b)
        whole = pairwise_sq_euclidean(a, b, b_sq)
        for block in (1, 64):
            stripes = [pairwise_sq_euclidean(a[i : i + block], b, b_sq)
                       for i in range(0, 23, block)]
            assert_allclose(np.vstack(stripes), whole, atol=1e-5)

    def test_fixed_block_bitwise_stable(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((18, 5))
        b = rng.standard_normal((31, 5))
        b_sq = sq_norms(b)
        first = [pairwise_sq_euclidean(a[i : i + 7], b, b_sq) for i in range(0, 18, 7)]
        second = [pairwise_sq_euclidean(a[i : i + 7], b, b_sq) for i in range(0, 18, 7)]
        assert_array_equal(np.vstack(first), np.vstack(second))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((10, 4))
        perm = rng.permutation(10)
        direct = pairwise_sq_euclidean(a, b[perm], sq_norms(b[perm]))
        assert_allclose(direct, pairwise_sq_euclidean(a, b, sq_norms(b))[:, perm], atol=1e-9)


class TestTopkSmallest:
    def test_sorted_row(self):
        res = topk_smallest(np.array([[0.2, 0.5, 0.9]]), 2)
        assert_array_equal(res.indices, [[0, 1]])
        assert_allclose(res.values, [[0.2, 0.5]])

    def test_tie_break_by_index(self):
        res = topk_smallest(np.array([[1.0, 1.0, 0.5]]), 2)
        assert_array_equal(res.indices, [[2, 0]])

    def test_matches_full_sort(self):
        rng = np.random.default_rng(17)
        d = rng.random((20, 20))
        res = topk_smallest(d, 5)
        exp_idx, exp_val = naive_topk(d, 5)
        assert_array_equal(res.indices, exp_idx)
        assert_allclose(res.values, exp_val)

    def test_k_clamped_to_columns(self):
        res = topk_smallest(np.array([[3.0, 1.0]]), 10)
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
    # 2,400 columns of integers below 200: each value has about 12 copies,
    # so ties straddle the k-th value in every row
    @example(np.random.default_rng(23).integers(0, 200, (6, 2400)).astype(float), 12)
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
        `_topk_rows` at full width: it sees only the packed entries that
        are at most T, the k-th smallest residue-class tile minimum. When
        every entry ties, every tile qualifies, more than 2k per row, and
        the rows are searched whole, as they are above the cutoff."""
        d = np.random.default_rng(47).random((156, width))
        if equal:
            d[:] = 1.0
        widths, packed = [], []
        real = matrix_ops._topk_rows
        real_pack = matrix_ops._pack_rows

        def spy(work, kk):
            widths.append(work.shape[1])
            return real(work, kk)

        def pack_spy(*args):
            packed.append(len(args[1]))
            return real_pack(*args)

        with mock.patch.object(matrix_ops, "_topk_rows", spy), \
                mock.patch.object(matrix_ops, "_pack_rows", pack_spy):
            res = topk_smallest(d, k)
        tile = matrix_ops._TILE_COLS
        assert len(packed) == (0 if full_rows or equal else 1)
        if full_rows or equal:
            assert widths == [width]
        else:
            mins = d.reshape(len(d), tile, width // tile).min(axis=1)
            limit = np.sort(mins, axis=1)[:, k - 1 : k]
            assert widths == [(d <= limit).sum(axis=1).max()]
        exp_idx = np.argsort(d, axis=1, kind="stable")[:, :k]
        assert_array_equal(res.indices, exp_idx)

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda tk: st.tuples(
            st.just(tk),
            arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.integers(2 * tk[0] * tk[1], 2 * tk[0] * tk[1] + 9)),
                elements=st.sampled_from([0.0, 1.0, np.inf, np.inf, np.inf, np.inf]),
            ),
        )),
    )
    @settings(max_examples=300, deadline=None)
    def test_tile_path_inf_entries(self, case):
        """Rows on the tile path (2 * k * tile <= width) that are mostly
        +inf: where fewer than k tiles hold a finite entry, T is +inf, so
        +inf entries are kept too and must be picked in column order,
        never the padding of a packed row or of a ragged tile."""
        (tile, k), d = case
        with mock.patch.object(matrix_ops, "_TILE_COLS", tile):
            res = topk_smallest(d, k)
        exp_idx, exp_val = naive_topk(d, k)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)


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
        tile edges. A scan needs a candidate: one row only without
        `exclude_self`."""
        assume(len(picks) > 1 or not exclude_self)
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
        """A float32 scan block is at most _STRIPE_ELEMS entries, so it fits
        the lane's float64 scratch of _STRIPE_ELEMS / 2 entries: 8000 rows
        run in float32 blocks of 250, not 1024, and scratch is a few
        stripes."""
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 1024)
        pts = np.random.default_rng(43).standard_normal((8000, 8))
        heights = []
        real = matrix_ops._sq_dist_stripe

        def spy(a, *args):
            heights.append(len(a))
            return real(a, *args)

        tracemalloc.start()
        try:
            with mock.patch.object(matrix_ops, "_sq_dist_stripe", spy):
                knn_scan(pts, 20, exclude_self=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(heights) == matrix_ops._STRIPE_ELEMS // 8000
        stripe_bytes = matrix_ops._STRIPE_ELEMS * 8
        assert peak < 3 * stripe_bytes, f"peak {peak / 2**20:.1f} MiB"

    def test_overflowing_distances_raise_before_scanning(self):
        """Finite rows whose squared distances overflow float64 are a typed
        error, not NaN distances and wrong neighbours."""
        pts = np.random.default_rng(53).standard_normal((300, 16)) * 2.5e159
        with mock.patch.object(matrix_ops, "_sq_dist_stripe") as stripe, \
                pytest.raises(ValueError, match="squared distances overflow float64"):
            knn_scan(pts, 2, exclude_self=True)
        stripe.assert_not_called()
        knn_scan(pts * 1e-10, 2, exclude_self=True)  # 4 |x|^2 finite: scanned


def _per_pair_topk(pts, k, exclude_self):
    """`knn_scan`'s float64 reference: every pair re-scored by the per-pair
    kernel, own columns set, then (value, column) selection."""
    n = len(pts)
    rows, cols = np.divmod(np.arange(n * n), n)
    full = pair_sq_euclidean(pts, sq_norms(pts), rows, cols).reshape(n, n)
    np.fill_diagonal(full, np.inf if exclude_self else 0.0)
    return topk_smallest(full, k)


def _record_prefilter(monkeypatch, fail_start=None):
    """Record each `_prefiltered_block` call as (start, used its result);
    the block starting at `fail_start` is sent to the float64 kernel."""
    real = matrix_ops._prefiltered_block
    calls = []

    def spy(coarse, arr, sq_norms, start, *args):
        found = None if start == fail_start else real(coarse, arr, sq_norms, start, *args)
        calls.append((start, found is not None))
        return found

    monkeypatch.setattr(matrix_ops, "_prefiltered_block", spy)
    return calls


def _prefiltered_scan(pts, k, exclude_self, block, tile, fail_start=None):
    """`knn_scan` with blocks of `block` rows and tiles of `tile` columns,
    and its `_record_prefilter` calls."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", block)
        mp.setattr(matrix_ops, "_TILE_COLS", tile)
        calls = _record_prefilter(mp, fail_start)
        return knn_scan(pts, k, exclude_self=exclude_self), calls


@st.composite
def _residue_tie_case(draw):
    """(points on a line, k, tile, lo): row 0's k-th neighbour ties at T
    between columns lo < hi, where lo lies in the higher-numbered residue
    tile, and its k - 1 nearer neighbours (at distance 0) lie one each in
    other tiles, so T, the k-th smallest tile minimum, is that tie."""
    tile = draw(st.integers(2, 3), label="tile columns")
    full = draw(st.integers(3, 10), label="residue tiles")
    rem = draw(st.integers(0, tile - 1), label="tail columns")
    n = full * tile + rem
    members = {t: [t + full * p for p in range(tile)] for t in range(full)}
    if rem:
        members[full] = list(range(full * tile, n))
    lo_tile = draw(st.integers(1, full - 1), label="tile of lo")
    hi_tile = draw(st.integers(0, lo_tile - 1), label="tile of hi")
    lo_pos = draw(st.integers(0, tile - 2), label="position of lo")
    hi_pos = draw(st.integers(lo_pos + 1, tile - 1), label="position of hi")
    lo, hi = members[lo_tile][lo_pos], members[hi_tile][hi_pos]
    free = [t for t in members if t not in (lo_tile, hi_tile)]
    k = draw(st.integers(1, min(len(free) + 1, n // (2 * tile))), label="k")
    pos = np.array(draw(st.lists(st.sampled_from([-3.0, -2.0, 2.0, 3.0]), min_size=n, max_size=n)))
    pos[0] = 0.0
    pos[[lo, hi]] = draw(st.sampled_from([-1.0, 1.0]))
    for t in draw(st.lists(st.sampled_from(free), min_size=k - 1, max_size=k - 1, unique=True)):
        pos[draw(st.sampled_from([c for c in members[t] if c != 0]))] = 0.0
    return pos[:, None], k, tile, lo


@st.composite
def _scan_case(draw, rows):
    """(points, k, tile) with at least 2 * k tiles of `tile` columns, so
    the scan takes the float32 prefilter."""
    pts = draw(rows)
    tile = draw(st.integers(1, min(3, len(pts) // 2)), label="tile columns")
    k = draw(st.integers(1, len(pts) // (2 * tile)), label="k")
    return pts, k, tile


class TestPrefilter:
    """The float32 prefilter of `knn_scan` picks candidates with a proven
    margin and re-scores them in float64, so its neighbours are exact."""

    @given(
        _scan_case(st.tuples(
            st.lists(st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3),
                     min_size=1, max_size=5),
            st.lists(st.integers(0, 4), min_size=2, max_size=40),
        ).map(lambda t: np.array([t[0][i % len(t[0])] for i in t[1]]))),
        st.booleans(),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_rows_match_oracle(self, case, exclude_self, block, data):
        """Duplicate integer rows tie across block and tile edges; one block
        may be sent to the float64 kernel, the others take the prefilter."""
        pts, k, tile = case
        fail_start = data.draw(st.sampled_from([None, *range(0, len(pts), block)]),
                               label="float64 block")
        res, calls = _prefiltered_scan(pts, k, exclude_self, block, tile, fail_start)
        assert len(calls) == -(-len(pts) // block)
        assert sum(used for _, used in calls) == len(calls) - (fail_start is not None)
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=exclude_self)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    @given(
        _scan_case(st.tuples(
            st.lists(st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=4),
                     min_size=1, max_size=4),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.sampled_from([0.0, 1.0, -1.0]), st.integers(18, 30)),
                     min_size=2, max_size=40),
        ).map(lambda t: np.array([
            np.array(t[0][i % len(t[0])]) + np.eye(4)[axis] * sign * 2.0**-shift
            for i, axis, sign, shift in t[1]]))),
        st.booleans(),
        st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_ties_match_float64(self, case, exclude_self, block):
        """Copies of integer rows moved by 2^-18 to 2^-30 along one axis:
        their distances differ by less than float32 resolves, so the
        float32 values tie or cross within the margin, at T + 2 eps and
        across block and tile edges."""
        pts, k, tile = case
        res, calls = _prefiltered_scan(pts, k, exclude_self, block, tile)
        assert all(used for _, used in calls)
        exp = _per_pair_topk(pts, k, exclude_self)
        assert_array_equal(res.indices, exp.indices)
        assert_array_equal(res.values, exp.values)

    @given(
        _scan_case(st.tuples(
            st.lists(st.tuples(
                st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=3, max_size=3),
                st.floats(-30, 30),
            ), min_size=2, max_size=30),
            st.sampled_from([1.0, 1e-20, 1e20]),
        ).map(lambda t: np.array([np.array(row) * 10.0**exp * t[1] for row, exp in t[0]]))),
        st.booleans(),
        st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_unnormalized_rows_match_float64(self, case, exclude_self, block):
        """Row norms from 1e-30 to 1e30, times 1e-20 or 1e20 to put entries
        outside float32 range (below its subnormals, above its largest
        value): the power-of-two scaling keeps them on the prefilter."""
        pts, k, tile = case
        res, calls = _prefiltered_scan(pts, k, exclude_self, block, tile)
        assert all(used for _, used in calls)
        exp = _per_pair_topk(pts, k, exclude_self)
        assert_array_equal(res.indices, exp.indices)
        assert_array_equal(res.values, exp.values)

    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_over_budget_blocks_run_in_float64(self, monkeypatch, exclude_self):
        """200 equal rows tie everywhere: every entry is a candidate, far
        over the budget, so every block runs the float64 kernel."""
        pts = np.ones((200, 4))
        monkeypatch.setattr(matrix_ops, "_TILE_COLS", 4)
        calls = _record_prefilter(monkeypatch)
        res = knn_scan(pts, 3, exclude_self=exclude_self)
        assert calls and not any(used for _, used in calls)
        exp_idx, exp_val = naive_topk(np.zeros((200, 200)), 3, exclude_self=exclude_self)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    @given(_residue_tie_case(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_residue_tie_at_threshold(self, case, block):
        """Equal values at T in two residue classes, the lower column in
        the higher-numbered tile: row 0 picks the lower column, as the
        (value, column) rule says, and every row matches the oracle."""
        pts, k, tile, lo = case
        res, calls = _prefiltered_scan(pts, k, True, block, tile)
        assert all(used for _, used in calls)
        assert res.indices[0, -1] == lo
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=True)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    @given(st.integers(2, 4), st.integers(2, 8), st.booleans(), st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_ragged_tail_matches_oracle(self, tile, full, exclude_self, block, data):
        """N = F * tile + rem with 0 < rem < tile: the tail is its own tile
        and holds copies of earlier rows, so neighbours and their ties sit
        both in residue classes and in the tail."""
        rem = data.draw(st.integers(1, tile - 1), label="tail columns")
        body = data.draw(arrays(np.float64, (full * tile, 3),
                                elements=st.integers(-2, 2).map(float)), label="rows")
        copies = data.draw(st.lists(st.integers(0, full * tile - 1), min_size=rem,
                                    max_size=rem), label="tail copies")
        pts = np.vstack([body, body[copies]])
        k = data.draw(st.integers(1, len(pts) // (2 * tile)), label="k")
        res, calls = _prefiltered_scan(pts, k, exclude_self, block, tile)
        assert all(used for _, used in calls)
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=exclude_self)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    @given(
        st.lists(st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3),
                 min_size=1, max_size=5),
        st.lists(st.integers(0, 4), min_size=4, max_size=40),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_fallback_block_runs_in_float64_halves(self, pool, picks, half, exclude_self, data):
        """Float32 blocks are twice the float64 height `half`; a block sent
        to the float64 kernel runs as float64 sub-blocks of `half` rows."""
        pts = np.array([pool[i % len(pool)] for i in picks])
        n = len(pts)
        k = data.draw(st.integers(1, n // 2), label="k")
        fail_start = data.draw(st.sampled_from(range(0, n, 2 * half)), label="float64 block")
        heights = []
        real = matrix_ops._sq_dist_stripe

        def spy(a, bt, a_sq, b_sq, out):
            if out.dtype == np.float64:
                heights.append(len(a))
            return real(a, bt, a_sq, b_sq, out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix_ops, "_STRIPE_ELEMS", 2 * n * half)
            mp.setattr(matrix_ops, "_TILE_COLS", 1)
            mp.setattr(matrix_ops, "_sq_dist_stripe", spy)
            calls = _record_prefilter(mp, fail_start)
            res = knn_scan(pts, k, exclude_self=exclude_self)
        stop = min(fail_start + 2 * half, n)
        # lanes may run the blocks in any order
        assert sorted(heights) == sorted(min(half, stop - s) for s in range(fail_start, stop, half))
        assert sorted(start for start, _ in calls) == list(range(0, n, 2 * half))
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=exclude_self)
        assert_array_equal(res.indices, exp_idx)
        assert_array_equal(res.values, exp_val)

    def test_every_block_falls_back_on_its_own(self, monkeypatch):
        """100 distinct rows, 128 copies each, at 12,800 rows: every row has
        128 columns at distance 0, far over the candidate budget. Each
        block tries the float32 pass and falls back to the float64 kernel
        on its own rows, on two lanes too."""
        grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 4, indexing="ij"), -1).reshape(-1, 4)
        pool = grid[np.random.default_rng(61).choice(len(grid), 100, replace=False)]
        copy_of = np.arange(12_800) % 100
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: FakeBlasThreads(2))
        calls = _record_prefilter(monkeypatch)
        res = knn_scan(pool[copy_of], 2, exclude_self=False)
        # float32 blocks of 156 rows at N = 12,800 (see `knn_scan`)
        assert sorted(calls) == [(start, False) for start in range(0, 12_800, 156)]
        # copies of one row have equal distance rows, own column included
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pool, pool)[:, copy_of], 2)
        assert_array_equal(res.indices, exp_idx[copy_of])
        assert_array_equal(res.values, exp_val[copy_of])

    def test_matches_float64_scan_on_clustered_data(self, monkeypatch):
        """On 2,000 unit rows in clusters of 10 (the benchmark's kind of
        data), DMON's scan (k 2 without own columns) and ARO's (here k 6
        with them) pick the float64 kernel's neighbours, and the values
        differ only in rounding. Every block uses the prefilter's result,
        so the fast path is the one measured."""
        fq, _, fg, _ = generate(SynthSpec(num_ids=200, imgs_per_id=10, dim=32, seed=5))
        feats = l2_normalize_rows(np.vstack([fq, fg]))
        calls = _record_prefilter(monkeypatch)
        for k, exclude_self in ((2, True), (6, False)):
            calls.clear()
            prefiltered = knn_scan(feats, k, exclude_self=exclude_self)
            assert calls and all(used for _, used in calls)
            with monkeypatch.context() as mp:
                mp.setattr(matrix_ops, "_prefiltered_block", lambda *args: None)
                plain = knn_scan(feats, k, exclude_self=exclude_self)
            assert_array_equal(prefiltered.indices, plain.indices)
            assert_allclose(prefiltered.values, plain.values, rtol=0, atol=1e-14)


class FakeBlasThreads:
    """Stands in for the OpenBLAS thread controls: reports `threads` and
    records every count it is set to."""

    def __init__(self, threads):
        self.threads = threads
        self.set_to = []

    def get(self):
        return self.threads

    def set(self, count):
        self.set_to.append(count)


def _spy_threads(monkeypatch, module, name, seen):
    """Rebind `module.name` to a wrapper that records (name, calling thread).

    Threads are kept as objects: an ident can be reused once a thread ends.
    """
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append((name, threading.current_thread()))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


class TestScanLanes:
    """`knn_scan` splits its blocks over one lane per BLAS thread."""

    # 50 rows give float64 blocks of 7 (eight, the last ragged) and
    # float32 blocks of 14 (four, the last ragged)
    STRIPE = 2 * 50 * 7

    @staticmethod
    def duplicate_rows():
        pool = np.random.default_rng(8).integers(-2, 3, size=(8, 4))
        return pool[np.arange(50) % 8].astype(np.float64)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_lanes_match_serial_and_oracle(self, monkeypatch, threads, k, exclude_self):
        """Copies of 8 rows tie across ragged block and tile edges; every
        lane takes blocks, and the BLAS thread count is set back. Threads
        switch every microsecond, so lanes interleave within blocks."""
        pts = self.duplicate_rows()
        monkeypatch.setattr(matrix_ops, "_STRIPE_ELEMS", self.STRIPE)
        monkeypatch.setattr(matrix_ops, "_TILE_COLS", 3)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: None)
        serial = knn_scan(pts, k, exclude_self=exclude_self)
        blas = FakeBlasThreads(threads)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: blas)
        seen = []
        _spy_threads(monkeypatch, matrix_ops, "_topk_block", seen)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            laned = knn_scan(pts, k, exclude_self=exclude_self)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == (8 if 2 * k * 3 > 50 else 4)
        assert len({thread for _, thread in seen}) == threads
        assert blas.set_to == [1, threads]
        exp_idx, exp_val = naive_topk(naive_pairwise_sq(pts, pts), k, exclude_self=exclude_self)
        for res in (serial, laned):
            assert_array_equal(res.indices, exp_idx)
            assert_array_equal(res.values, exp_val)

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_lane_error_reaches_caller(self, monkeypatch, caller_fails):
        pts = self.duplicate_rows()
        monkeypatch.setattr(matrix_ops, "_STRIPE_ELEMS", self.STRIPE)
        blas = FakeBlasThreads(2)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: blas)
        real = matrix_ops._topk_block

        def failing(work, k):
            if (threading.current_thread() is threading.main_thread()) == caller_fails:
                raise RuntimeError("lane failed")
            return real(work, k)

        monkeypatch.setattr(matrix_ops, "_topk_block", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="lane failed"):
            knn_scan(pts, 2, exclude_self=True)
        assert blas.set_to == [1, 2]
        assert threading.active_count() == before
        assert not matrix_ops._LANES_BUSY.locked()

    @pytest.mark.parametrize("case", ["one thread", "lanes busy"])
    def test_serial_cases_leave_blas_alone(self, monkeypatch, case):
        pts = self.duplicate_rows()
        monkeypatch.setattr(matrix_ops, "_STRIPE_ELEMS", self.STRIPE)
        blas = FakeBlasThreads(1 if case == "one thread" else 2)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: blas)
        seen = []
        _spy_threads(monkeypatch, matrix_ops, "_topk_block", seen)
        if case == "lanes busy":
            with matrix_ops._LANES_BUSY:
                res = knn_scan(pts, 3, exclude_self=True)
        else:
            res = knn_scan(pts, 3, exclude_self=True)
        assert blas.set_to == []
        assert {thread for _, thread in seen} == {threading.current_thread()}
        exp_idx, _ = naive_topk(naive_pairwise_sq(pts, pts), 3, exclude_self=True)
        assert_array_equal(res.indices, exp_idx)

    def test_stage_functions_stay_on_calling_thread(self, monkeypatch):
        """The benchmark tracer keeps one span stack per process, so only
        the calling thread may enter a function it wraps, while helper
        lanes share the kNN scans and the ARO query-gallery half-stripes."""
        fq, _, fg, _ = generate(SynthSpec(num_ids=20, imgs_per_id=6, dim=8, seed=3))
        monkeypatch.setattr(matrix_ops, "_SCAN_BLOCK_ROWS", 16)
        # 40 query rows against 80 gallery rows: 7 half-stripes of at most 6 rows
        monkeypatch.setattr(optimize_module, "_STRIPE_ELEMS", 2 * 80 * 6)
        blas = FakeBlasThreads(2)
        monkeypatch.setattr(matrix_ops, "_blas_threads", lambda: blas)
        spans = _load_spans()
        traced = (*spans.LAYERS, *spans.COUNTED)
        holders = [importlib.import_module(f"rerankit{name}")
                   for name in {"", *(f".{key.split('.')[0]}" for key in traced)}]
        seen = []
        for key in traced:
            module, name = key.split(".")
            fn = getattr(importlib.import_module(f"rerankit.{module}"), name)
            for holder in holders:
                if vars(holder).get(name) is fn:
                    _spy_threads(monkeypatch, holder, name, seen)
        qg_lanes = []
        _spy_threads(monkeypatch, optimize_module, "_sq_dist_stripe", qg_lanes)
        assert pipeline.compute_refined_distances(fq, fg, pipeline.PipelineConfig()).shape == (
            fq.shape[0], fg.shape[0])
        # DMON scans query and gallery, ARO the gallery, then the QG stage
        assert blas.set_to == [1, 2] * 4
        assert {"pairwise_sq_euclidean", "topk_smallest", "neighborhood_filter",
                "asymmetric_similarity", "_similarity_streamed"} <= {n for n, _ in seen}
        assert {thread for _, thread in seen} == {threading.current_thread()}
        assert {thread.name for _, thread in qg_lanes} == {"knn-lane-1"}

    def test_prefilter_stays_off_stage_functions(self, monkeypatch):
        """The same rerank with 2-column tiles, so all three scans take the
        float32 prefilter on both lanes and re-score there."""
        monkeypatch.setattr(matrix_ops, "_TILE_COLS", 2)
        lanes = []
        real = matrix_ops._prefiltered_block

        def spy(*args):
            found = real(*args)
            lanes.append((threading.current_thread(), found is not None))
            return found

        monkeypatch.setattr(matrix_ops, "_prefiltered_block", spy)
        self.test_stage_functions_stay_on_calling_thread(monkeypatch)
        assert {thread.name for thread, _ in lanes} == {"MainThread", "knn-lane-1"}
        assert all(used for _, used in lanes)


class TestPairSqEuclidean:
    def test_matches_full_matrix(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((9, 5))
        rows = rng.integers(0, 9, 40)
        cols = rng.integers(0, 9, 40)
        full = pairwise_sq_euclidean(pts, pts, sq_norms(pts))
        assert_allclose(pair_sq_euclidean(pts, sq_norms(pts), rows, cols), full[rows, cols],
                        atol=1e-12)

    def test_chunks_and_empty(self, monkeypatch):
        monkeypatch.setattr(matrix_ops, "_GATHER_ELEMS", 6)  # chunks of 3 pairs
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        sq = sq_norms(pts)
        out = pair_sq_euclidean(pts, sq, np.array([0, 1, 2, 1, 0]), np.array([1, 2, 0, 1, 0]))
        assert_array_equal(out, [25.0, 20.0, 1.0, 0.0, 0.0])
        assert pair_sq_euclidean(pts, sq, np.empty(0, int), np.empty(0, int)).shape == (0,)
