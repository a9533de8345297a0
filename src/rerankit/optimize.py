"""Asymmetric query-gallery distance optimization.

The query-to-gallery distance matrix is refined using gallery-internal
structure, without ever using query-query relations:

1. Squared-Euclidean distance matrices: query-gallery and gallery-gallery.
2. Both are filtered per row to their k2 smallest entries; everything
   else is replaced by a fill value (1 by default, 0 as a variant).
3. An asymmetric similarity matrix is formed as the product of the
   row-normalized filtered matrices: rownorm(QG) @ rownorm(GG)^T.
4. The similarity is subtracted from the *raw* query-gallery distances.
   Resulting entries may be negative; only their ordering matters.

For galleries larger than `dense_gallery_limit` the gallery-gallery
matrix is never materialized: its top-k2 rows are found by streaming
row blocks, and the similarity product is evaluated through a
sparse-plus-constant decomposition of the filtered rows. Both routes
produce the same values up to floating-point rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .matrix_ops import as_feature_matrix, l2_normalize_rows, pairwise_sq_euclidean, topk_smallest

_SCAN_BLOCK_ROWS = 1024


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


def build_distance_pair(query_feats, gallery_feats) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances query-to-gallery (Nq, Ng) and gallery-to-gallery (Ng, Ng).

    The gallery self-distance matrix has an exactly zero diagonal and is
    symmetric to rounding.
    """
    fq = as_feature_matrix(query_feats, "query features")
    fg = as_feature_matrix(gallery_feats, "gallery features")
    if fq.shape[1] != fg.shape[1]:
        raise ValueError(
            f"dimension mismatch: query dim {fq.shape[1]}, gallery dim {fg.shape[1]}"
        )
    qg = pairwise_sq_euclidean(fq, fg)
    gg = pairwise_sq_euclidean(fg, fg)
    return qg, gg


def neighborhood_filter(distances, k2: int, fill: float) -> np.ndarray:
    """Keep each row's k2 smallest entries; set the rest to `fill`.

    Ties are broken by ascending column index and the self column is not
    excluded (a zero self-distance always survives the filter anyway).
    If k2 covers every column the input is returned unchanged (copied).
    """
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={dist.ndim}")
    if k2 < 1:
        raise ValueError(f"k2 must be >= 1, got {k2}")
    n, m = dist.shape
    if k2 >= m:
        return dist.copy()
    kept = topk_smallest(dist, k2, exclude_self=False)
    out = np.full_like(dist, fill)
    np.put_along_axis(out, kept.indices, kept.values, axis=1)
    return out


def asymmetric_similarity(qg_filtered, gg_filtered) -> np.ndarray:
    """Cosine-style similarity of filtered query rows against gallery rows.

    Computes rownorm(QG) @ rownorm(GG)^T. Zero rows contribute zeros.
    The result is clamped into [0, 1] to absorb rounding excess.
    """
    qg = np.asarray(qg_filtered, dtype=np.float64)
    gg = np.asarray(gg_filtered, dtype=np.float64)
    if qg.ndim != 2 or gg.ndim != 2 or gg.shape[0] != gg.shape[1]:
        raise ValueError(f"expected (Nq, Ng) and (Ng, Ng), got {qg.shape} and {gg.shape}")
    if qg.shape[1] != gg.shape[0]:
        raise ValueError(
            f"shape mismatch: {qg.shape[1]} query columns vs {gg.shape[0]} gallery rows"
        )
    sim = l2_normalize_rows(qg) @ l2_normalize_rows(gg).T
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim


def optimize(
    query_feats,
    gallery_feats,
    cfg: AroConfig,
    *,
    dense_gallery_limit: int = 8192,
) -> np.ndarray:
    """Refine query-gallery distances via asymmetric similarity subtraction.

    Args:
        query_feats: (Nq, d) embeddings.
        gallery_feats: (Ng, d) embeddings.
        cfg: AroConfig. With cfg.enabled False the raw squared
            query-gallery distances are returned unchanged.
        dense_gallery_limit: largest gallery for which the gallery
            self-distance matrix is materialized densely; above it the
            streamed low-memory route is used.

    Returns:
        np.ndarray: (Nq, Ng) refined distances (entries may be negative).
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
    qg = pairwise_sq_euclidean(fq, fg)
    if not cfg.enabled:
        return qg
    num_gallery = fg.shape[0]
    if num_gallery <= dense_gallery_limit:
        gg = pairwise_sq_euclidean(fg, fg)
        sim = asymmetric_similarity(
            neighborhood_filter(qg, cfg.k2, cfg.fill_value),
            neighborhood_filter(gg, cfg.k2, cfg.fill_value),
        )
    else:
        sim = _similarity_streamed(qg, fg, cfg.k2, cfg.fill_value)
    qg -= sim
    return qg


def _filtered_row_stats(indices, values, num_cols, k_eff, fill):
    """Sparse representation and norms of fill-padded filtered rows.

    A filtered row equals fill everywhere except at `indices`, where it
    holds `values`. Returns (shifted CSR of values - fill, row sums of
    values - fill, squared row norms).
    """
    n = indices.shape[0]
    shifted = values - fill
    rows = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    mat = sp.csr_matrix(
        (shifted.ravel(), (rows, indices.ravel())), shape=(n, num_cols)
    )
    residual_sums = shifted.sum(axis=1)
    sq_norms = fill * fill * (num_cols - k_eff) + np.einsum("ij,ij->i", values, values)
    return mat, residual_sums, sq_norms


def _similarity_streamed(qg, gallery_feats, k2, fill, block_rows=_SCAN_BLOCK_ROWS):
    """Asymmetric similarity without materializing the gallery-gallery matrix.

    Each filtered row is `fill` plus a k2-sparse residual, so the dot
    product of two filtered rows decomposes into a constant, two residual
    sums, and a sparse-sparse product. Gallery top-k2 neighborhoods are
    found by streaming row blocks against the whole gallery.
    """
    num_q, num_g = qg.shape
    k_eff = min(k2, num_g)

    q_kept = topk_smallest(qg, k_eff, exclude_self=False)
    q_sparse, q_resid, q_sq_norms = _filtered_row_stats(
        q_kept.indices, q_kept.values, num_g, k_eff, fill
    )

    idx_parts = []
    val_parts = []
    for start in range(0, num_g, block_rows):
        stop = min(start + block_rows, num_g)
        strip = pairwise_sq_euclidean(gallery_feats[start:stop], gallery_feats)
        strip[np.arange(stop - start), np.arange(start, stop)] = 0.0
        kept = topk_smallest(strip, k_eff, exclude_self=False)
        idx_parts.append(kept.indices)
        val_parts.append(kept.values)
    g_indices = np.vstack(idx_parts)
    g_values = np.vstack(val_parts)
    g_sparse, g_resid, g_sq_norms = _filtered_row_stats(
        g_indices, g_values, num_g, k_eff, fill
    )

    sim = (q_sparse @ g_sparse.T).toarray().astype(np.float64, copy=False)
    if fill != 0.0:
        sim += fill * fill * num_g
        sim += fill * q_resid[:, None]
        sim += fill * g_resid[None, :]
    q_norms = np.sqrt(q_sq_norms)
    g_norms = np.sqrt(g_sq_norms)
    q_norms[q_norms == 0.0] = np.inf  # zero rows contribute zero similarity
    g_norms[g_norms == 0.0] = np.inf
    sim /= q_norms[:, None]
    sim /= g_norms[None, :]
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim
