"""Dense matrix primitives shared across the toolkit.

Row normalization, row-striped pairwise squared-Euclidean distances, and
deterministic smallest-k selection. All computation is done in float64
regardless of input storage precision; the GEMM-style distance expansion
loses too much accuracy in float32.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Cap on elements touched per internal row chunk; keeps argpartition's
# int64 index buffer near 128 MB even for very wide matrices.
_CHUNK_ELEMS = 16_000_000

# Target entries per row stripe of the distance and normalization passes:
# 2M float64 entries (16 MB) keep each stripe's elementwise passes in the
# last-level cache.
_STRIPE_ELEMS = 2_000_000


class TopKResult(NamedTuple):
    """Per-row smallest-k selection: both arrays are (rows, k)."""

    indices: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class DistanceMatrix:
    """A non-negative distance matrix tagged with whether entries are squared.

    The neighbor-enhancement stage consumes unsquared Euclidean distances
    while the query-gallery optimization stage consumes squared ones; the
    tag keeps the two from being mixed up at module boundaries.
    """

    values: np.ndarray
    squared: bool

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError(f"distance matrix must be 2-D, got ndim={v.ndim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix contains non-finite entries")
        if v.size and v.min() < 0.0:
            raise ValueError("distance matrix contains negative entries")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def unsquared(self) -> "DistanceMatrix":
        if not self.squared:
            return self
        return DistanceMatrix(np.sqrt(self.values), squared=False)

    def to_squared(self) -> "DistanceMatrix":
        if self.squared:
            return self
        return DistanceMatrix(np.square(self.values), squared=True)


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


def pairwise_sq_euclidean(a, b, block: int = 4096) -> np.ndarray:
    """Squared-Euclidean distance matrix between two row sets, by row stripes.

    Uses the expansion |x|^2 + |y|^2 - 2<x,y>. Each full-width stripe of
    at most `block` rows (and about _STRIPE_ELEMS entries) is one GEMM of
    the -2-scaled rows written straight into the output, followed by the
    norm additions while the stripe is still in cache; scratch memory is
    one stripe of `a`. Scaling by -2 is exact, so the values equal those
    of scaling the product. Tiny negative rounding artifacts are clamped
    to zero. When both arguments are the same matrix the diagonal is set
    to exactly zero.

    Args:
        a: (N, d) array-like.
        b: (M, d) array-like with matching d.
        block: upper bound on the rows of one stripe, >= 1.

    Returns:
        np.ndarray: (N, M) float64, non-negative.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    arr_a = np.ascontiguousarray(as_feature_matrix(a, "a"))
    same = a is b
    if same:
        arr_b = arr_a
    else:
        arr_b = np.ascontiguousarray(as_feature_matrix(b, "b"))
        same = arr_a.shape == arr_b.shape and np.array_equal(arr_a, arr_b)
    if arr_a.shape[1] != arr_b.shape[1]:
        raise ValueError(
            f"dimension mismatch: a has dim {arr_a.shape[1]}, b has dim {arr_b.shape[1]}"
        )
    n, m = arr_a.shape[0], arr_b.shape[0]
    a_sq = np.einsum("ij,ij->i", arr_a, arr_a)
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


def topk_smallest(d, k: int, exclude_self: bool = False) -> TopKResult:
    """Per-row smallest-k entries, ordered by (value, column index).

    Ties are broken by ascending column index, so repeated calls on the
    same input always produce identical index lists. If `exclude_self`
    is set and the matrix is square, column i is skipped for row i.
    k is clamped to the number of available candidates.

    Args:
        d: (N, M) array-like of finite values.
        k: number of entries to keep per row, >= 1.
        exclude_self: skip the diagonal entry of each row.

    Returns:
        TopKResult: indices (N, k_eff) int64 and values (N, k_eff) float64.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    n, m = arr.shape
    skip_diag = exclude_self and n == m
    candidates = m - 1 if skip_diag else m
    k_eff = min(k, candidates)
    if k_eff <= 0:
        return TopKResult(
            np.empty((n, 0), dtype=np.int64), np.empty((n, 0), dtype=np.float64)
        )

    chunk = max(1, _CHUNK_ELEMS // max(m, 1))
    idx_parts = []
    val_parts = []
    for r0 in range(0, n, chunk):
        r1 = min(r0 + chunk, n)
        work = arr[r0:r1]
        if skip_diag:
            work = work.copy()
            rows_local = np.arange(r1 - r0)
            work[rows_local, rows_local + r0] = np.inf
        idx, vals = _topk_rows(work, k_eff)
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
