import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rerankit.matrix_ops import l2_normalize_rows, pairwise_sq_euclidean
from rerankit.metrics import evaluate
from rerankit.synthetic import SynthSpec, generate

from naive_impl import naive_generate, sq_norms


class TestSynthSpec:
    def test_rejects_single_camera(self):
        with pytest.raises(ValueError, match="num_cams"):
            SynthSpec(num_cams=1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="query_fraction"):
            SynthSpec(query_fraction=1.0)

    def test_rejects_tiny_populations(self):
        with pytest.raises(ValueError, match="num_ids"):
            SynthSpec(num_ids=1)
        with pytest.raises(ValueError, match="imgs_per_id"):
            SynthSpec(imgs_per_id=1)

    @pytest.mark.parametrize("field", ["intra_noise", "cam_offset_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_scale(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value}$"):
            SynthSpec(**{field: value})

    def test_queries_leave_gallery_nonempty(self):
        spec = SynthSpec(imgs_per_id=2, query_fraction=0.9)
        assert spec.queries_per_id == 1


class TestGenerate:
    def test_noiseless_clusters_are_identical_and_perfectly_retrievable(self):
        spec = SynthSpec(num_ids=5, imgs_per_id=4, dim=8, intra_noise=0.0,
                         cam_offset_scale=0.0, seed=1)
        fq, q_labels, fg, g_labels = generate(spec)
        for pid in range(5):
            rows = fg[g_labels.pids == pid]
            assert_allclose(rows - rows[0], 0.0, atol=1e-12)
        dist = pairwise_sq_euclidean(fq, fg, sq_norms(fg))
        report = evaluate(dist, q_labels, g_labels, max_rank=10)
        assert report.mean_ap == 1.0
        assert report.cmc[0] == 1.0

    def test_same_seed_bitwise_identical(self):
        spec = SynthSpec(seed=42)
        a = generate(spec)
        b = generate(spec)
        assert_array_equal(a[0], b[0])
        assert_array_equal(a[2], b[2])
        assert_array_equal(a[1].pids, b[1].pids)
        assert_array_equal(a[3].camids, b[3].camids)

    def test_different_seed_differs(self):
        a = generate(SynthSpec(seed=1))
        b = generate(SynthSpec(seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_every_query_has_cross_camera_positive(self):
        for spec in (
            SynthSpec(seed=3),
            SynthSpec(num_ids=4, imgs_per_id=3, num_cams=2, query_fraction=0.5, seed=4),
            SynthSpec(num_ids=3, imgs_per_id=2, num_cams=5, query_fraction=0.4, seed=5),
        ):
            fq, q_labels, fg, g_labels = generate(spec)
            for qi in range(len(q_labels)):
                same_id = g_labels.pids == q_labels.pids[qi]
                cross_cam = g_labels.camids != q_labels.camids[qi]
                assert np.any(same_id & cross_cam)

    def test_unit_norm_rows(self):
        fq, _, fg, _ = generate(SynthSpec(seed=6))
        assert_allclose(np.linalg.norm(fq, axis=1), 1.0, atol=1e-9)
        assert_allclose(np.linalg.norm(fg, axis=1), 1.0, atol=1e-9)

    def test_label_counts_match(self):
        spec = SynthSpec(num_ids=7, imgs_per_id=5, query_fraction=0.3, seed=8)
        fq, q_labels, fg, g_labels = generate(spec)
        assert fq.shape[0] == len(q_labels)
        assert fg.shape[0] == len(g_labels)
        assert fq.shape[0] + fg.shape[0] == 7 * 5
        # ceil(0.3 * 5) = 2 queries per identity
        assert fq.shape[0] == 7 * 2


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(),
        SynthSpec(num_ids=1600, imgs_per_id=10, dim=128, intra_noise=0.14),
        SynthSpec(imgs_per_id=2, num_cams=3),
        SynthSpec(dim=1),
    ],
    ids=["default", "rerank-12k", "per-id-2", "dim-1"],
)
def test_generate_matches_per_identity_loop(spec):
    """One draw of all the noise gives the loop's features and labels bit for bit."""
    fq, q_labels, fg, g_labels = generate(spec)
    want = naive_generate(spec, l2_normalize_rows)
    got = (fq, q_labels.pids, q_labels.camids, fg, g_labels.pids, g_labels.camids)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert_array_equal(a, b)
