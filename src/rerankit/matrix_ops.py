"""Dense matrix primitives shared across the toolkit.

Row normalization, row-striped pairwise squared-Euclidean distances,
distances of listed row pairs, deterministic smallest-k selection, and
the blocked k-nearest-neighbour scan built from them. All computation is
done in float64 regardless of input storage precision; the GEMM-style
distance expansion loses too much accuracy in float32.
"""

from typing import NamedTuple

import numpy as np

# Cap on elements touched per internal row chunk; keeps argpartition's
# int64 index buffer near 128 MB even for very wide matrices.
_CHUNK_ELEMS = 16_000_000

# Target entries per row stripe of the distance and normalization passes:
# 2M float64 entries (16 MB) keep each stripe's elementwise passes in the
# last-level cache.
_STRIPE_ELEMS = 2_000_000

# Upper bound on the rows of one block of the k-nearest-neighbour scan;
# the block also stays within _STRIPE_ELEMS entries.
_SCAN_BLOCK_ROWS = 1024


class TopKResult(NamedTuple):
    """Per-row smallest-k selection: both arrays are (rows, k)."""

    indices: np.ndarray
    values: np.ndarray


def as_feature_matrix(m, name: str = "features") -> np.ndarray:
    """Validate and convert an embedding matrix to a float64 2-D array.

    Raises:
        ValueError: if the input is not 2-D, is empty, or contains a
            non-finite value (the first offending row is reported).
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (rows, dim), got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column, got shape {arr.shape}")
    finite_rows = np.isfinite(arr).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise ValueError(f"{name} contains a non-finite value in row {bad}")
    return arr


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows pass through unchanged.

    Rows are pre-scaled by their max-abs entry so the squared sum neither
    underflows (denormal coordinates) nor overflows (entries near 1e200).
    Row stripes are written into one output buffer, so the only scratch
    is one stripe.

    Args:
        m: (N, d) array-like, all values finite.

    Returns:
        np.ndarray: (N, d) float64 with unit-norm (or zero) rows.
    """
    arr = as_feature_matrix(m)
    out = np.empty(arr.shape, dtype=np.float64)
    rows = max(1, _STRIPE_ELEMS // arr.shape[1])
    for i0 in range(0, arr.shape[0], rows):
        part = arr[i0 : i0 + rows]
        scaled = out[i0 : i0 + rows]
        scales = np.max(np.abs(part), axis=1)
        safe_scales = np.where(scales == 0.0, 1.0, scales)
        np.divide(part, safe_scales[:, None], out=scaled)
        norms = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
        divisors = np.where(norms == 0.0, 1.0, norms)
        scaled /= divisors[:, None]
    return out


def pairwise_sq_euclidean(a, b, block: int = 4096, b_sq=None) -> np.ndarray:
    """Squared-Euclidean distance matrix between two row sets, by row stripes.

    Uses the expansion |x|^2 + |y|^2 - 2<x,y>. Each full-width stripe of
    at most `block` rows (and about _STRIPE_ELEMS entries) is one GEMM of
    the -2-scaled rows written straight into the output, followed by the
    norm additions while the stripe is still in cache; scratch memory is
    one stripe of `a`. Scaling by -2 is exact, so the values equal those
    of scaling the product. Tiny negative rounding artifacts are clamped
    to zero. When both arguments are the same object the diagonal is set
    to exactly zero; an equal copy gets the plain expansion, so equal
    row sets are treated alike whatever their shape.

    Args:
        a: (N, d) array-like.
        b: (M, d) array-like with matching d.
        block: upper bound on the rows of one stripe, >= 1.
        b_sq: the squared row norms of `b` (einsum "ij,ij->i"), from a
            caller that measures many row sets against one `b`. `b` must
            then be a C-ordered, finite float64 matrix; it is used as
            given, without being validated again.

    Returns:
        np.ndarray: (N, M) float64, non-negative.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    arr_a = np.ascontiguousarray(as_feature_matrix(a, "a"))
    same = a is b
    if same:
        arr_b = arr_a
    elif b_sq is None:
        arr_b = np.ascontiguousarray(as_feature_matrix(b, "b"))
    else:
        arr_b = b
    if arr_a.shape[1] != arr_b.shape[1]:
        raise ValueError(
            f"dimension mismatch: a has dim {arr_a.shape[1]}, b has dim {arr_b.shape[1]}"
        )
    n, m = arr_a.shape[0], arr_b.shape[0]
    a_sq = np.einsum("ij,ij->i", arr_a, arr_a)
    if b_sq is None:
        b_sq = a_sq if same else np.einsum("ij,ij->i", arr_b, arr_b)

    out = np.empty((n, m), dtype=np.float64)
    bt = arr_b.T
    rows = max(1, min(block, _STRIPE_ELEMS // max(m, 1)))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        stripe = out[i0:i1]
        np.matmul(arr_a[i0:i1] * -2.0, bt, out=stripe)
        stripe += a_sq[i0:i1, None]
        stripe += b_sq[None, :]
        np.maximum(stripe, 0.0, out=stripe)
    if same:
        np.fill_diagonal(out, 0.0)
    return out


def pair_sq_euclidean(feats, rows, cols) -> np.ndarray:
    """Squared-Euclidean distances of the listed row pairs of one matrix.

    Entry t is the distance between rows `rows[t]` and `cols[t]`, by the
    same expansion, operation order and clamp as `pairwise_sq_euclidean`
    but with a plain dot product per pair. Pairs are gathered in chunks
    of about _STRIPE_ELEMS feature entries.

    Args:
        feats: (N, d) float64 array, all values finite.
        rows, cols: equal-length integer index arrays into the rows.

    Returns:
        np.ndarray: float64 distances, non-negative, one per pair.
    """
    feats = np.asarray(feats, dtype=np.float64)
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    out = np.empty(len(rows), dtype=np.float64)
    step = max(1, _STRIPE_ELEMS // max(feats.shape[1], 1))
    for t0 in range(0, len(rows), step):
        r, c = rows[t0 : t0 + step], cols[t0 : t0 + step]
        part = out[t0 : t0 + step]
        np.einsum("ij,ij->i", feats[r], feats[c], out=part)
        part *= -2.0
        part += sq_norms[r]
        part += sq_norms[c]
        np.maximum(part, 0.0, out=part)
    return out


def topk_smallest(d, k: int) -> TopKResult:
    """Per-row smallest-k entries, ordered by (value, column index).

    Ties are broken by ascending column index, so repeated calls on the
    same input always produce identical index lists. k is clamped to the
    number of columns.

    Args:
        d: (N, M) array-like of finite values.
        k: number of entries to keep per row, >= 1.

    Returns:
        TopKResult: indices (N, k_eff) int64 and values (N, k_eff) float64.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    n, m = arr.shape
    k_eff = min(k, m)
    if k_eff <= 0:
        return TopKResult(
            np.empty((n, 0), dtype=np.int64), np.empty((n, 0), dtype=np.float64)
        )

    chunk = max(1, _CHUNK_ELEMS // max(m, 1))
    idx_parts = []
    val_parts = []
    for r0 in range(0, n, chunk):
        idx, vals = _topk_rows(arr[r0 : r0 + chunk], k_eff)
        idx_parts.append(idx)
        val_parts.append(vals)
    return TopKResult(np.vstack(idx_parts), np.vstack(val_parts))


def _topk_rows(work: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-k of each row with (value, index) ordering. `work` may hold inf."""
    n, m = work.shape
    if k >= m:
        idx = np.argsort(work, axis=1, kind="stable").astype(np.int64)
    else:
        idx = np.argpartition(work, k - 1, axis=1)[:, :k].astype(np.int64)
        vals = np.take_along_axis(work, idx, axis=1)
        order = np.lexsort((idx, vals), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        # argpartition picks an arbitrary subset when values tie at the
        # selection boundary; rebuild the rows where lower-index ties were
        # passed over.
        boundary = vals[:, -1]
        selected_eq = (vals == boundary[:, None]).sum(axis=1)
        total_eq = (work == boundary[:, None]).sum(axis=1)
        for r in np.flatnonzero(total_eq > selected_eq):
            row = work[r]
            below = np.flatnonzero(row < boundary[r])
            at = np.flatnonzero(row == boundary[r])[: k - below.size]
            chosen = np.concatenate([below, at])
            chosen = chosen[np.lexsort((chosen, row[chosen]))]
            idx[r] = chosen
    idx = idx[:, :k]
    vals = np.take_along_axis(work, idx, axis=1)
    return idx, vals


def knn_scan(feats, k: int, exclude_self: bool) -> TopKResult:
    """Each row's k nearest rows of the same matrix, by squared distance.

    Blocked brute-force search: blocks of at most `_SCAN_BLOCK_ROWS` rows
    and `_STRIPE_ELEMS` entries are each measured against every row with
    `pairwise_sq_euclidean` and reduced with `topk_smallest`, so the
    N x N matrix never exists and scratch is one block. Each row's own
    column is set to inf with `exclude_self` and to exactly zero without
    it. Results are ordered by (value, column index), exactly as
    `topk_smallest` orders a full matrix. k is clamped to the number of
    candidates (N - 1 with `exclude_self`, else N).

    Args:
        feats: (N, d) array-like, all values finite.
        k: neighbours to keep per row, >= 1.
        exclude_self: drop each row's own column from its candidates.

    Returns:
        TopKResult: indices (N, k_eff) int64 and squared distances
        (N, k_eff) float64.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.ascontiguousarray(as_feature_matrix(feats))
    n = arr.shape[0]
    k = min(k, n - 1 if exclude_self else n)
    if k < 1:
        return TopKResult(np.empty((n, 0), dtype=np.int64), np.empty((n, 0), dtype=np.float64))
    rows = max(1, min(_SCAN_BLOCK_ROWS, _STRIPE_ELEMS // n))
    sq_norms = np.einsum("ij,ij->i", arr, arr)
    self_value = np.inf if exclude_self else 0.0
    idx_parts = []
    val_parts = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = pairwise_sq_euclidean(arr[start:stop], arr, b_sq=sq_norms)
        local = np.arange(stop - start)
        block[local, local + start] = self_value
        part = topk_smallest(block, k)
        idx_parts.append(part.indices)
        val_parts.append(part.values)
    return TopKResult(np.vstack(idx_parts), np.vstack(val_parts))
