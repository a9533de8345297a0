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

The Ng x Ng matrix GG is never built: gallery rows are scanned in
blocks of `_SCAN_BLOCK_ROWS`, each block against the whole gallery, and
only every row's top-k2 entries are kept. A filtered row is
`fill` plus a k2-sparse residual, so the similarity product is evaluated
through a sparse-plus-constant decomposition of the kept entries.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


class FilteredRows(NamedTuple):
    """Rows of width `num_cols` equal to `fill` except at their kept entries.

    `indices` and `values` are (rows, k) and hold each row's k smallest
    entries, as `topk_smallest` returns them. `np.asarray` gives back the
    dense fill-padded matrix.
    """

    indices: np.ndarray
    values: np.ndarray
    fill: float
    num_cols: int

    def __array__(self, dtype=None, copy=None):
        out = np.full((self.indices.shape[0], self.num_cols), self.fill, dtype=np.float64)
        np.put_along_axis(out, self.indices, self.values, axis=1)
        return out if dtype is None else out.astype(dtype, copy=False)


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
    kept = topk_smallest(dist, min(k2, dist.shape[1]), exclude_self=False)
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
    sides = []
    for rows in (q_rows, g_rows):
        n, k = rows.indices.shape
        sq_norms = rows.fill * rows.fill * (num_cols - k) + np.einsum(
            "ij,ij->i", rows.values, rows.values
        )
        if not np.isfinite(sq_norms).all():
            raise ValueError(
                "squared distances overflow float64: a kept distance or a row norm "
                "is not finite; scale the features down or enable pre-normalization"
            )
        shifted = rows.values - rows.fill
        residual = sp.csr_matrix(
            (shifted.ravel(), (np.repeat(np.arange(n, dtype=np.int64), k), rows.indices.ravel())),
            shape=(n, num_cols),
        )
        norms = np.sqrt(sq_norms)
        norms[norms == 0.0] = np.inf  # zero rows contribute zero similarity
        sides.append((residual, shifted.sum(axis=1), norms))
    (q_sparse, q_resid, q_norms), (g_sparse, g_resid, g_norms) = sides

    sim = (q_sparse @ g_sparse.T).toarray().astype(np.float64, copy=False)
    if q_rows.fill != 0.0 or g_rows.fill != 0.0:
        sim += q_rows.fill * g_rows.fill * num_cols
        sim += g_rows.fill * q_resid[:, None]
        sim += q_rows.fill * g_resid[None, :]
    sim /= q_norms[:, None]
    sim /= g_norms[None, :]
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim


def optimize(query_feats, gallery_feats, cfg: AroConfig) -> np.ndarray:
    """Refine query-gallery distances via asymmetric similarity subtraction.

    Args:
        query_feats: (Nq, d) embeddings.
        gallery_feats: (Ng, d) embeddings.
        cfg: AroConfig. With cfg.enabled False the raw squared
            query-gallery distances are returned unchanged.

    Returns:
        np.ndarray: (Nq, Ng) refined distances (entries may be negative).

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
    qg = pairwise_sq_euclidean(fq, fg)
    if not cfg.enabled:
        return qg
    qg -= _similarity_streamed(qg, fg, cfg.k2, cfg.fill_value)
    return qg


def _similarity_streamed(qg, gallery_feats, k2, fill):
    """Asymmetric similarity without materializing the gallery-gallery matrix.

    Gallery top-k2 neighborhoods are found by scanning row blocks of
    `_SCAN_BLOCK_ROWS` against the whole gallery; each row's self
    distance is set to exactly zero.
    """
    num_g = gallery_feats.shape[0]
    blocks = []
    for start in range(0, num_g, _SCAN_BLOCK_ROWS):
        stop = min(start + _SCAN_BLOCK_ROWS, num_g)
        strip = pairwise_sq_euclidean(gallery_feats[start:stop], gallery_feats)
        strip[np.arange(stop - start), np.arange(start, stop)] = 0.0
        blocks.append(neighborhood_filter(strip, k2, fill))
    g_rows = FilteredRows(
        np.vstack([b.indices for b in blocks]), np.vstack([b.values for b in blocks]), fill, num_g
    )
    return asymmetric_similarity(neighborhood_filter(qg, k2, fill), g_rows)
