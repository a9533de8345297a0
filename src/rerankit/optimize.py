"""Asymmetric query-gallery distance optimization.

The query-to-gallery distance matrix is refined using gallery-internal
structure, without ever using query-query relations:

1. Squared-Euclidean distances: query-gallery (QG) and gallery-gallery (GG).
2. Both are filtered per row to their k2 smallest entries; everything
   else reads as a fill value (1 by default, 0 as a variant).
3. An asymmetric similarity matrix is formed as the product of the
   row-normalized filtered matrices: rownorm(QG) @ rownorm(GG)^T.
4. The similarity is subtracted from the *raw* query-gallery distances.
   Resulting entries may be negative; only their ordering matters.

Neither GG nor QG is ever built whole. The gallery's top-k2
neighbourhoods come from a blocked kNN scan (`matrix_ops.knn_scan`);
QG is then computed, refined and handed to a sink one row stripe of
about 2M entries at a time, so memory is the features, the gallery
neighbourhoods and one stripe, whatever Nq is. A filtered row is `fill`
plus a k2-sparse residual, so the similarity product is evaluated
through a sparse-plus-constant decomposition of the kept entries, and
the gallery's sparse form is built once for all stripes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_ops import (
    _STRIPE_ELEMS,
    as_feature_matrix,
    knn_scan,
    l2_normalize_rows,
    pairwise_sq_euclidean,
    topk_smallest,
)


@dataclass(frozen=True)
class AroConfig:
    """Hyperparameters for asymmetric distance optimization.

    Attributes:
        k2: per-row neighborhood size kept by the distance filter.
        fill_value: value assigned outside the kept neighborhoods; the
            two supported readings are 1.0 (default) and 0.0.
        enabled: when False, optimization is bypassed and the raw
            query-gallery distances are returned unchanged.
        pre_normalize: L2-normalize input rows before computing distances.
    """

    k2: int = 20
    fill_value: float = 1.0
    enabled: bool = True
    pre_normalize: bool = True

    def __post_init__(self):
        if self.k2 < 1:
            raise ValueError(f"k2 must be >= 1, got {self.k2}")
        if self.fill_value not in (0.0, 1.0):
            raise ValueError(f"fill_value must be 0.0 or 1.0, got {self.fill_value}")


@dataclass(frozen=True, eq=False)
class FilteredRows:
    """Rows of width `num_cols` equal to `fill` except at their kept entries.

    `indices` and `values` are (rows, k) and hold each row's k smallest
    entries, as `topk_smallest` returns them. `np.asarray` gives back the
    dense fill-padded matrix. The sparse form `asymmetric_similarity`
    needs is computed on first use and kept, so rows used against many
    query stripes are converted once.
    """

    indices: np.ndarray
    values: np.ndarray
    fill: float
    num_cols: int

    def __array__(self, dtype=None, copy=None):
        out = np.full((self.indices.shape[0], self.num_cols), self.fill, dtype=np.float64)
        np.put_along_axis(out, self.indices, self.values, axis=1)
        return out if dtype is None else out.astype(dtype, copy=False)

    @cached_property
    def _stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (sum of kept entries minus fill, row norm; inf for zero rows)."""
        k = self.indices.shape[1]
        sq_norms = self.fill * self.fill * (self.num_cols - k) + np.einsum(
            "ij,ij->i", self.values, self.values
        )
        if not np.isfinite(sq_norms).all():
            raise ValueError(
                "squared distances overflow float64: a kept distance or a row norm "
                "is not finite; scale the features down or enable pre-normalization"
            )
        norms = np.sqrt(sq_norms)
        norms[norms == 0.0] = np.inf  # zero rows contribute zero similarity
        return (self.values - self.fill).sum(axis=1), norms

    @cached_property
    def _residual(self):
        """The rows minus `fill`, as a CSR matrix of the kept entries."""
        import scipy.sparse as sp

        n, k = self.indices.shape
        return sp.csr_matrix(
            (
                (self.values - self.fill).ravel(),
                (np.repeat(np.arange(n, dtype=np.int64), k), self.indices.ravel()),
            ),
            shape=(n, self.num_cols),
        )

    @cached_property
    def _residual_t(self):
        """`_residual` transposed, in CSR form for the right side of a product."""
        return self._residual.T.tocsr()


def neighborhood_filter(distances, k2: int, fill: float) -> FilteredRows:
    """Keep each row's k2 smallest entries; every other entry reads as `fill`.

    Ties are broken by ascending column index and the self column is not
    excluded (a zero self-distance always survives the filter anyway).
    If k2 covers every column the whole row is kept.
    """
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={dist.ndim}")
    if k2 < 1:
        raise ValueError(f"k2 must be >= 1, got {k2}")
    kept = topk_smallest(dist, k2)
    return FilteredRows(kept.indices, kept.values, fill, dist.shape[1])


def asymmetric_similarity(q_rows: FilteredRows, g_rows: FilteredRows) -> np.ndarray:
    """Cosine-style similarity of filtered query rows against gallery rows.

    Computes rownorm(Q) @ rownorm(G)^T, where each filtered row is its
    fill constant plus a sparse residual on its kept entries: a dot
    product is a constant, two residual sums and a sparse-sparse product.
    Zero rows contribute zeros. The result is clamped into [0, 1] to
    absorb rounding excess.

    Raises:
        ValueError: if the rows differ in width, or a kept distance or a
            row norm is not finite (the squared distances overflowed).
    """
    num_cols = q_rows.num_cols
    if g_rows.num_cols != num_cols:
        raise ValueError(
            f"shape mismatch: {num_cols} query columns vs {g_rows.num_cols} gallery columns"
        )
    q_resid, q_norms = q_rows._stats
    g_resid, g_norms = g_rows._stats
    sim = (q_rows._residual @ g_rows._residual_t).toarray().astype(np.float64, copy=False)
    if q_rows.fill != 0.0 or g_rows.fill != 0.0:
        sim += q_rows.fill * g_rows.fill * num_cols
        sim += g_rows.fill * q_resid[:, None]
        sim += q_rows.fill * g_resid[None, :]
    sim /= q_norms[:, None]
    sim /= g_norms[None, :]
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim


def optimize(query_feats, gallery_feats, cfg: AroConfig, sink=None) -> np.ndarray | None:
    """Refine query-gallery distances via asymmetric similarity subtraction.

    The gallery neighbourhoods are scanned first; then the query-gallery
    matrix is computed, refined and handed on one row stripe of about
    _STRIPE_ELEMS entries at a time, so no (Nq, Ng) buffer is needed
    unless the caller collects one.

    Args:
        query_feats: (Nq, d) embeddings.
        gallery_feats: (Ng, d) embeddings.
        cfg: AroConfig. With cfg.enabled False the raw squared
            query-gallery distances are produced unchanged.
        sink: called as sink(start, stripe) for each refined (rows, Ng)
            float64 stripe, in row order; `stripe` is only valid during
            the call. Without a sink the stripes fill the returned matrix.

    Returns:
        np.ndarray: (Nq, Ng) refined distances (entries may be negative),
        or None when a sink took the stripes.

    Raises:
        ValueError: on a dimension mismatch, or when the squared distances
            overflow float64.
    """
    fq = as_feature_matrix(query_feats, "query features")
    fg = as_feature_matrix(gallery_feats, "gallery features")
    if fq.shape[1] != fg.shape[1]:
        raise ValueError(
            f"dimension mismatch: query dim {fq.shape[1]}, gallery dim {fg.shape[1]}"
        )
    if cfg.pre_normalize:
        fq = l2_normalize_rows(fq)
        fg = l2_normalize_rows(fg)
    out = None
    if sink is None:
        out = np.empty((fq.shape[0], fg.shape[0]), dtype=np.float64)

        def sink(start, stripe):
            out[start : start + stripe.shape[0]] = stripe

    if cfg.enabled:
        nearest = knn_scan(fg, cfg.k2, exclude_self=False)
        g_rows = FilteredRows(nearest.indices, nearest.values, cfg.fill_value, fg.shape[0])
        _similarity_streamed(_qg_stripes(fq, fg), g_rows, cfg.k2, cfg.fill_value, sink)
    else:
        for start, stripe in _qg_stripes(fq, fg):
            sink(start, stripe)
    return out


def _qg_stripes(fq, fg):
    """Yield (start, squared distances of query rows start.. to the gallery).

    Stripes have the row boundaries `pairwise_sq_euclidean` uses for the
    whole matrix, so each stripe is bitwise that matrix's rows.
    """
    fg = np.ascontiguousarray(fg)
    g_sq = np.einsum("ij,ij->i", fg, fg)
    rows = max(1, min(4096, _STRIPE_ELEMS // fg.shape[0]))
    for start in range(0, fq.shape[0], rows):
        yield start, pairwise_sq_euclidean(fq[start : start + rows], fg, b_sq=g_sq)


def _similarity_streamed(stripes, g_rows, k2, fill, sink):
    """Subtract the asymmetric similarity from each QG stripe, then sink it.

    Each (start, stripe) is filtered to its rows' top-k2 and compared
    with the gallery's filtered rows `g_rows`, so the only scratch is one
    stripe and its similarity.
    """
    for start, stripe in stripes:
        stripe -= asymmetric_similarity(neighborhood_filter(stripe, k2, fill), g_rows)
        sink(start, stripe)
