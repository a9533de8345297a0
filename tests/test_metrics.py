import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import rerankit.metrics as metrics
from rerankit.io_formats import NpyRows, npy_header
from rerankit.metrics import (
    EvalReport,
    SampleLabels,
    average_precision,
    evaluate,
)

from naive_impl import argsort_evaluate, naive_evaluate


def labels(pids, camids):
    return SampleLabels(np.asarray(pids), np.asarray(camids))


class TestAveragePrecision:
    def test_matches_at_one_and_three(self):
        assert abs(average_precision([1, 0, 1]) - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9

    def test_perfect_ranking(self):
        assert average_precision([1, 1, 1, 0, 0]) == 1.0

    @pytest.mark.parametrize("r,n", [(1, 5), (3, 7), (10, 10)])
    def test_single_positive_closed_form(self, r, n):
        matches = np.zeros(n)
        matches[r - 1] = 1
        assert abs(average_precision(matches) - 1.0 / r) <= 1e-12

    def test_zero_positives_signaled(self):
        with pytest.raises(ValueError, match="excluded"):
            average_precision([0, 0, 0])


class TestEvaluate:
    def test_perfect_retrieval(self):
        dist = np.array([[0.1, 0.2, 0.9, 0.95]])
        q = labels([1], [0])
        g = labels([1, 1, 2, 3], [1, 2, 0, 0])
        report = evaluate(dist, q, g, max_rank=4)
        assert report.cmc[0] == 1.0
        assert report.mean_ap == 1.0
        assert report.num_valid_queries == 1

    def test_same_camera_positive_excluded(self):
        # the only same-pid gallery sample shares the query camera
        dist = np.array([[0.1, 0.5], [0.4, 0.2]])
        q = labels([1, 2], [0, 0])
        g = labels([1, 2], [0, 1])
        report = evaluate(dist, q, g, max_rank=2)
        assert report.num_valid_queries == 1  # query 0 dropped, query 1 kept

    def test_all_queries_invalid_raises(self):
        dist = np.array([[0.1]])
        with pytest.raises(ValueError, match="no valid query"):
            evaluate(dist, labels([1], [0]), labels([2], [1]))

    def test_matches_reference_evaluator(self):
        rng = np.random.default_rng(41)
        dist = rng.random((20, 100))
        q_pids = rng.integers(0, 12, size=20)
        q_cams = rng.integers(0, 4, size=20)
        g_pids = rng.integers(0, 12, size=100)
        g_cams = rng.integers(0, 4, size=100)
        report = evaluate(dist, labels(q_pids, q_cams), labels(g_pids, g_cams), max_rank=25)
        exp_cmc, exp_map, exp_valid = naive_evaluate(
            dist, q_pids, q_cams, g_pids, g_cams, max_rank=25
        )
        assert_allclose(report.cmc, exp_cmc, atol=1e-9)
        assert abs(report.mean_ap - exp_map) <= 1e-9
        assert report.num_valid_queries == exp_valid

    def test_cmc_monotone_and_final_one(self):
        rng = np.random.default_rng(43)
        dist = rng.random((15, 40))
        g_pids = np.repeat(np.arange(10), 4)
        g_cams = np.tile(np.arange(4), 10)
        q = labels(np.concatenate([np.arange(10), np.arange(5)]), np.zeros(15, int))
        g = labels(g_pids, g_cams)
        report = evaluate(dist, q, g, max_rank=40)
        assert np.all(np.diff(report.cmc) >= 0)
        assert report.cmc[-1] == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(47)
        dist = rng.random((10, 30))
        q = labels(rng.integers(0, 5, 10), rng.integers(0, 3, 10))
        g = labels(rng.integers(0, 5, 30), rng.integers(0, 3, 30))
        base = evaluate(dist, q, g, max_rank=10)
        doubled = evaluate(2.0 * dist + 1.0, q, g, max_rank=10)
        cubed = evaluate(dist**3, q, g, max_rank=10)
        for other in (doubled, cubed):
            assert_array_equal(base.cmc, other.cmc)
            assert base.mean_ap == other.mean_ap

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            evaluate(np.zeros((2, 3)), labels([1], [0]), labels([1, 1, 2], [0, 1, 0]))

    def test_nan_distance_rejected(self):
        dist = np.array([[0.1, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            evaluate(dist, labels([1], [0]), labels([1, 1], [1, 1]))

    def test_max_rank_clamped(self):
        dist = np.array([[0.3, 0.1]])
        report = evaluate(dist, labels([1], [0]), labels([1, 1], [1, 2]), max_rank=50)
        assert report.cmc.shape == (2,)

    def test_junk_tied_with_positive_at_inf_not_counted(self):
        # gallery 0 is junk (same pid and camera), gallery 1 the positive;
        # only the finite entry 2 ranks before the positive
        dist = np.array([[np.inf, np.inf, 0.5]])
        report = evaluate(dist, labels([1], [0]), labels([1, 1, 2], [0, 1, 0]), max_rank=3)
        assert report.mean_ap == 0.5
        assert_array_equal(report.cmc, [0.0, 1.0, 1.0])

    def test_equal_distances_ranked_by_index(self):
        dist = np.array([[0.2, 0.2, 0.2, 0.1]])
        q = labels([1], [0])
        g = labels([2, 1, 1, 3], [0, 1, 0, 1])  # gallery 2 is junk
        report = evaluate(dist, q, g, max_rank=4)
        assert report.mean_ap == 1.0 / 3.0  # entries 3, 0 come first

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_oracle(self, data):
        num_q = data.draw(st.integers(1, 6), label="num_q")
        num_g = data.draw(st.integers(1, 24), label="num_g")
        entries = st.one_of(
            st.integers(-2, 2).map(float),  # dense ties
            st.floats(-1.0, 1.0),
            st.sampled_from([np.inf, -np.inf]),
        )
        dist = data.draw(arrays(np.float64, (num_q, num_g), elements=entries), label="dist")
        ids = st.integers(0, 3)
        q_pids, q_cams, g_pids, g_cams = (
            data.draw(arrays(np.int64, n, elements=ids), label=name)
            for n, name in ((num_q, "q_pids"), (num_q, "q_cams"), (num_g, "g_pids"), (num_g, "g_cams"))
        )
        max_rank = data.draw(st.integers(1, num_g + 2), label="max_rank")
        # one to three query rows per stripe, so queries split across stripes
        stripe = data.draw(st.integers(1, 3 * num_g), label="stripe_entries")
        q, g = labels(q_pids, q_cams), labels(g_pids, g_cams)
        with mock.patch.object(metrics, "_STRIPE_ENTRIES", stripe):
            try:
                exp_cmc, exp_map, exp_valid = naive_evaluate(
                    dist, q_pids, q_cams, g_pids, g_cams, max_rank=max_rank
                )
            except ValueError:
                with pytest.raises(ValueError, match="no valid query"):
                    evaluate(dist, q, g, max_rank=max_rank)
                return
            report = evaluate(dist, q, g, max_rank=max_rank)
        assert_allclose(report.cmc, exp_cmc, rtol=0, atol=1e-12)
        assert abs(report.mean_ap - exp_map) <= 1e-12
        assert report.num_valid_queries == exp_valid

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_file_rows_match_naive_oracle(self, data):
        """Evaluating an NPY file read in stripes of one to three rows agrees
        with the oracle on the matrix the file holds, float32 or float64."""
        num_q = data.draw(st.integers(1, 7), label="num_q")
        num_g = data.draw(st.integers(1, 16), label="num_g")
        entries = st.one_of(
            st.integers(-2, 2).map(float),
            st.floats(-1.0, 1.0),
            st.sampled_from([np.inf, -np.inf]),
        )
        dist = data.draw(arrays(np.float64, (num_q, num_g), elements=entries), label="dist")
        descr = data.draw(st.sampled_from(["<f4", "<f8"]), label="descr")
        stored = dist.astype(descr)
        fh = io.BytesIO(npy_header(dist.shape, descr) + stored.tobytes())
        ids = st.integers(0, 3)
        q_pids, q_cams, g_pids, g_cams = (
            data.draw(arrays(np.int64, n, elements=ids), label=name)
            for n, name in ((num_q, "q_pids"), (num_q, "q_cams"), (num_g, "g_pids"), (num_g, "g_cams"))
        )
        max_rank = data.draw(st.integers(1, num_g + 2), label="max_rank")
        rows = data.draw(st.integers(1, 3), label="stripe rows")
        q, g = labels(q_pids, q_cams), labels(g_pids, g_cams)
        expected = stored.astype(np.float64)
        with mock.patch.object(metrics, "_STRIPE_ENTRIES", rows * num_g):
            try:
                exp_cmc, exp_map, exp_valid = naive_evaluate(
                    expected, q_pids, q_cams, g_pids, g_cams, max_rank=max_rank
                )
            except ValueError:
                with pytest.raises(ValueError, match="no valid query"):
                    evaluate(NpyRows(fh), q, g, max_rank=max_rank)
                return
            report = evaluate(NpyRows(fh), q, g, max_rank=max_rank)
        assert_allclose(report.cmc, exp_cmc, rtol=0, atol=1e-12)
        assert abs(report.mean_ap - exp_map) <= 1e-12
        assert report.num_valid_queries == exp_valid

    def test_nan_rejected_in_later_stripe(self):
        dist = np.zeros((4, 3))
        dist[3, 1] = np.nan
        q, g = labels([1, 1, 1, 1], [0, 0, 0, 0]), labels([1, 1, 2], [1, 1, 1])
        with mock.patch.object(metrics, "_STRIPE_ENTRIES", 3):
            with pytest.raises(ValueError, match="NaN"):
                evaluate(dist, q, g)


@pytest.mark.slow
def test_matches_argsort_oracle_at_benchmark_scale():
    """3,200 x 12,800 with ties, +-inf and junk: identical to a full stable argsort."""
    rng = np.random.default_rng(20240071)
    num_q, num_g = 3_200, 12_800
    g_pids = np.repeat(np.arange(1_600), 8)
    q_pids = np.repeat(np.arange(1_600), 2)
    g_cams = rng.integers(0, 4, num_g)
    q_cams = rng.integers(0, 4, num_q)
    dist = rng.random((num_q, num_g))
    same_pid_cols = q_pids[:, None] * 8 + np.arange(8)
    dist[np.arange(num_q)[:, None], same_pid_cols] *= 0.05  # positives rank high
    dist[::7] = np.round(dist[::7] * 50.0)  # dense ties
    dist[1::11, ::97] = np.inf
    dist[2::13, ::89] = -np.inf
    report = evaluate(dist, labels(q_pids, q_cams), labels(g_pids, g_cams))
    exp_cmc, exp_map, exp_valid = argsort_evaluate(dist, q_pids, q_cams, g_pids, g_cams)
    assert_array_equal(report.cmc, exp_cmc)
    assert report.mean_ap == exp_map
    assert report.num_valid_queries == exp_valid


class TestEvalReport:
    def test_json_schema(self):
        report = EvalReport(cmc=np.array([0.5, 1.0]), mean_ap=0.7, num_valid_queries=4)
        doc = report.to_json_dict(config={"max_rank": 2})
        assert set(doc) == {"cmc", "mAP", "valid_queries", "config"}
        assert doc["mAP"] == 0.7
        assert doc["valid_queries"] == 4

    def test_rejects_decreasing_cmc(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            EvalReport(cmc=np.array([0.9, 0.5]), mean_ap=0.5, num_valid_queries=1)

    def test_rejects_out_of_range_map(self):
        with pytest.raises(ValueError, match="mAP"):
            EvalReport(cmc=np.array([1.0]), mean_ap=1.5, num_valid_queries=1)
