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
QG is then computed, refined and handed to a sink one half-stripe of
query rows (about 1M entries) at a time, on the scan's lanes: each lane
runs its half-stripe's GEMM on one BLAS thread, refines it and sinks it
at once, so one lane's write overlaps the other's compute.
Memory is the features, the gallery neighbourhoods and one half-stripe
per lane, whatever Nq is. A filtered row is `fill`
plus a residual on its k2 kept entries, so the similarity product is a
constant, per-row residual sums and the products of kept entries that
share a column. Those are index arithmetic: the gallery's kept entries
are grouped by column once for all stripes, each query entry is paired
with its column's group, and the products are summed per query-gallery
pair with `np.bincount`.
"""

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrix_ops import (
    _STRIPE_ELEMS,
    _run_lanes,
    _sq_dist_stripe,
    _topk_block,
    as_feature_matrix,
    gather_ranges,
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
    entries, as `topk_smallest` returns them. The column grouping
    `residual_product` needs is computed on first use and kept, so rows
    used against many query stripes are grouped once.
    """

    indices: np.ndarray
    values: np.ndarray
    fill: float
    num_cols: int

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
    def _by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept entries minus `fill`, grouped by column.

        Returns (starts, rows, residuals): column c's entries are
        rows[starts[c]:starts[c + 1]], in ascending row order, with their
        residuals alongside.
        """
        k = self.indices.shape[1]
        flat = self.indices.ravel()
        order = np.argsort(flat, kind="stable")
        starts = np.zeros(self.num_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.num_cols), out=starts[1:])
        return starts, order // k, (self.values - self.fill).ravel()[order]


def residual_product(q_rows: FilteredRows, g_rows: FilteredRows) -> np.ndarray:
    """(Q - q.fill) @ (G - g.fill)^T over the kept entries: a dense (nq, ng) array.

    Entry (i, g) is summed from +0.0 over the columns kept by both query
    row i and gallery row g, in ascending column order: each query entry
    is paired with the gallery rows keeping its column, and the products
    are accumulated with one `bincount` over `i * ng + g` keys. Query rows
    are taken in chunks of about _STRIPE_ELEMS / 4 products (at least one
    row), so columns kept by many gallery rows do not blow up memory.
    """
    starts, g_idx, g_resid = g_rows._by_column
    num_g = g_rows.indices.shape[0]
    by_col = np.argsort(q_rows.indices, axis=1)
    q_cols = np.take_along_axis(q_rows.indices, by_col, axis=1)
    q_resid = np.take_along_axis(q_rows.values - q_rows.fill, by_col, axis=1)
    counts = np.diff(starts)[q_cols]
    row_ends = np.cumsum(counts.sum(axis=1))

    def rows_product(i0, i1):
        num = counts[i0:i1].ravel()
        rows, resid = gather_ranges(starts[q_cols[i0:i1]].ravel(), num, g_idx, g_resid)
        keys = np.repeat(np.repeat(np.arange(i1 - i0) * num_g, q_cols.shape[1]), num)
        keys += rows
        prods = np.repeat(q_resid[i0:i1].ravel(), num)
        prods *= resid
        sums = np.bincount(keys, prods, minlength=(i1 - i0) * num_g)
        # with no products at all, bincount returns integer zeros
        return sums.astype(np.float64, copy=False).reshape(-1, num_g)

    bounds = [0]
    while bounds[-1] < len(row_ends):
        i0 = bounds[-1]
        done = row_ends[i0 - 1] if i0 else 0
        limit = done + max(1, _STRIPE_ELEMS // 4)
        bounds.append(max(i0 + 1, int(np.searchsorted(row_ends, limit, side="right"))))
    if len(bounds) == 2:
        return rows_product(0, bounds[1])
    out = np.empty((len(row_ends), num_g))
    for i0, i1 in zip(bounds, bounds[1:]):
        out[i0:i1] = rows_product(i0, i1)
    return out


def neighborhood_filter(distances: np.ndarray, k2: int, fill: float) -> FilteredRows:
    """Keep each row's k2 smallest entries; every other entry reads as `fill`.

    Ties are broken by ascending column index and the self column is not
    excluded (a zero self-distance always survives the filter anyway).
    If k2 covers every column the whole row is kept.
    """
    kept = topk_smallest(distances, k2)
    return FilteredRows(kept.indices, kept.values, fill, distances.shape[1])


def asymmetric_similarity(q_rows: FilteredRows, g_rows: FilteredRows) -> np.ndarray:
    """Cosine-style similarity of filtered query rows against gallery rows.

    Computes rownorm(Q) @ rownorm(G)^T, where each filtered row is its
    fill constant plus a residual on its kept entries: a dot product is
    a constant, two residual sums and a `residual_product` entry.
    Zero rows contribute zeros. The result is clamped into [0, 1] to
    absorb rounding excess. Both row sets are Ng wide.

    Raises:
        ValueError: if a kept distance or a row norm is not finite (the
            squared distances overflowed).
    """
    return _similarity(q_rows, g_rows)


def _similarity(q_rows: FilteredRows, g_rows: FilteredRows) -> np.ndarray:
    """`asymmetric_similarity`, as helper lanes call it (see `_run_lanes`)."""
    q_resid, q_norms = q_rows._stats
    g_resid, g_norms = g_rows._stats
    sim = residual_product(q_rows, g_rows)
    if q_rows.fill != 0.0 or g_rows.fill != 0.0:
        sim += q_rows.fill * g_rows.fill * q_rows.num_cols
        sim += g_rows.fill * q_resid[:, None]
        sim += q_rows.fill * g_resid[None, :]
    sim /= q_norms[:, None]
    sim /= g_norms[None, :]
    np.clip(sim, 0.0, 1.0, out=sim)
    return sim


def as_query_gallery(query_feats, gallery_feats) -> tuple[np.ndarray, np.ndarray]:
    """Query and gallery features as `as_feature_matrix` checks and converts
    them, each error naming its set.

    Raises:
        ValueError: if either set is invalid, or their widths differ.
    """
    fq = as_feature_matrix(query_feats, "query features")
    fg = as_feature_matrix(gallery_feats, "gallery features")
    if fq.shape[1] != fg.shape[1]:
        raise ValueError(
            f"dimension mismatch: query dim {fq.shape[1]}, gallery dim {fg.shape[1]}"
        )
    return fq, fg


def optimize(query_feats, gallery_feats, cfg: AroConfig, sink=None) -> np.ndarray | None:
    """Refine query-gallery distances via asymmetric similarity subtraction.

    The gallery neighbourhoods are scanned first; then the query-gallery
    matrix is computed, refined and handed on one half-stripe of query
    rows (about _STRIPE_ELEMS / 2 entries) at a time, on the kNN scan's
    lanes (see `_similarity_streamed`), so no (Nq, Ng) buffer is needed
    unless the caller collects one.

    Args:
        query_feats: (Nq, d) embeddings, any array-like.
        gallery_feats: (Ng, d) embeddings, any array-like; both are
            checked and converted by `as_query_gallery`.
        cfg: AroConfig. With cfg.enabled False the raw squared
            query-gallery distances are produced unchanged.
        sink: called as sink(start, stripe) for each refined (rows, Ng)
            float64 stripe, once per row. The calls never overlap but
            come in any order, and may come from a helper lane's thread;
            `stripe` is valid only during the call. An exception the
            sink raises stops the stage and reaches the caller. Without
            a sink the stripes fill the returned matrix.

    Returns:
        np.ndarray: (Nq, Ng) refined distances (entries may be negative),
        or None when a sink took the stripes.

    Raises:
        ValueError: on invalid features or a dimension mismatch, or when
            the squared distances overflow float64.
    """
    fq, fg = as_query_gallery(query_feats, gallery_feats)
    if cfg.pre_normalize:
        fq = l2_normalize_rows(fq)
        fg = l2_normalize_rows(fg)
    out = None
    if sink is None:
        out = np.empty((fq.shape[0], fg.shape[0]), dtype=np.float64)

        def sink(start, stripe):
            out[start : start + stripe.shape[0]] = stripe

    g_rows = None
    if cfg.enabled:
        nearest = knn_scan(fg, cfg.k2, exclude_self=False)
        g_rows = FilteredRows(nearest.indices, nearest.values, cfg.fill_value, fg.shape[0])
    _similarity_streamed(fq, fg, g_rows, sink)
    return out


def _similarity_streamed(fq, fg, g_rows, sink):
    """Hand sink(start, stripe) the query-gallery rows, refined by `g_rows`.

    The query rows are cut into half-stripes of at most 4096 rows and
    _STRIPE_ELEMS / 2 entries, which `matrix_ops._run_lanes` spreads over
    its lanes, each GEMM on one BLAS thread. A lane measures its
    half-stripe's squared distances; then, unless `g_rows` is None,
    filters each row block of about _STRIPE_ELEMS / 8 entries to its
    top-k2 (k2 as kept by `g_rows`) and subtracts the block's asymmetric
    similarity to the gallery's filtered rows in place; then sinks the
    half-stripe under a lock, so no two sink calls overlap. Heights do
    not depend on the number of lanes, and neither do the values.

    The benchmark's tracer keeps one span stack per process, so the
    calling thread goes through the public functions
    (`pairwise_sq_euclidean`, `neighborhood_filter`,
    `asymmetric_similarity`) and helper lanes call the kernels they wrap.
    """
    num_g = fg.shape[0]
    g_sq = np.einsum("ij,ij->i", fg, fg)
    rows = max(1, min(4096, _STRIPE_ELEMS // 2 // num_g))
    block_rows = max(1, _STRIPE_ELEMS // 8 // num_g)
    if g_rows is not None:  # compute the cached groupings before any lane reads them
        g_rows._stats, g_rows._by_column
    caller = threading.current_thread()
    sinking = threading.Lock()

    def half_stripe(j, scratch):
        start = j * rows
        part = fq[start : start + rows]
        on_caller = threading.current_thread() is caller
        if on_caller:
            stripe = pairwise_sq_euclidean(part, fg, b_sq=g_sq)
        else:
            stripe = scratch[: len(part)]
            _sq_dist_stripe(part, fg.T, np.einsum("ij,ij->i", part, part), g_sq, stripe)
        if g_rows is not None:
            k2, fill = g_rows.indices.shape[1], g_rows.fill
            for i0 in range(0, len(part), block_rows):
                block = stripe[i0 : i0 + block_rows]
                if on_caller:
                    block -= asymmetric_similarity(neighborhood_filter(block, k2, fill), g_rows)
                else:
                    q_rows = FilteredRows(*_topk_block(block, k2), fill, num_g)
                    block -= _similarity(q_rows, g_rows)
        with sinking:
            sink(start, stripe)

    _run_lanes(half_stripe, -(-fq.shape[0] // rows), (rows, num_g))
