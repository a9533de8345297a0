"""Dense matrix primitives shared across the toolkit.

Row normalization, pairwise squared-Euclidean distances,
distances of listed row pairs, gathers of index ranges, deterministic
smallest-k selection, and the blocked k-nearest-neighbour scan built
from them. Every distance a function returns is computed in float64,
whatever the input's storage precision. A float32 GEMM-style expansion
is off by up to about d * 2^-25 * (|x| + |y|)^2, far more than the
distances between near neighbours can differ by, so float32 is used in
one place only: the kNN scan's prefilter, which picks candidates with a
proven margin for that error and re-scores them in float64 (see
`knn_scan`).

The kNN scan splits its blocks over one lane per BLAS thread, with each
GEMM on one thread, so the passes after each product use every core
too (`_run_lanes`; ARO's query-gallery stage runs on the same lanes).
`OPENBLAS_NUM_THREADS=1` gives one lane. Scratch is one float64
half-stripe block per lane; the float32 prefilter fills it with blocks
of twice the height (a full stripe of float32 entries), and a block it
sends back to float64 runs as half-stripe sub-blocks. Results do not
depend on the number of lanes.

Selection works on column tiles of _TILE_COLS entries, cut as residue
classes (column c in tile c mod F, for F = N // _TILE_COLS), whose
minima are one vectorised reduction; the exact float64 top-k
(`_topk_tiled`) and the float32 prefilter search the same tiles.

Every function here, and every stage function of `enhance` and
`optimize` below their entry points, takes prepared arrays: a feature
matrix is a finite, 2-D, C-ordered float64 array (a distance matrix may
also hold +inf), and k and sigma are as `DmonConfig` and `AroConfig`
validate them. `as_feature_matrix` makes such a matrix from any
array-like input. It runs only where features enter the toolkit
(`pipeline.compute_refined_distances`, `enhance.enhance` and
`optimize.optimize`); nothing below those checks or converts again,
re-checks that widths agree, or treats an argument by its identity.
"""

import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Column tile width of the tile-minimum selection in `topk_smallest` and
# in the float32 prefilter of `knn_scan`.
_TILE_COLS = 128

# Target entries per row stripe of the distance and normalization passes:
# 2M float64 entries (16 MB) keep each stripe's elementwise passes in the
# last-level cache.
_STRIPE_ELEMS = 2_000_000

# Target feature entries per chunk of gathered rows (`pair_sq_euclidean`,
# the kernel-weight products of `enhance`): 64K float64 entries (512 KB)
# keep a chunk in L2 cache while it is gathered and read back.
_GATHER_ELEMS = 65_536

# Upper bound on the rows of one block of the k-nearest-neighbour scan;
# a float64 block also stays within _STRIPE_ELEMS / 2 entries, so two
# lanes hold one stripe between them, and a float32 block, of twice the
# height, fits in the same bytes.
_SCAN_BLOCK_ROWS = 1024

# Candidates per row, beyond k, that the float32 prefilter of `knn_scan`
# may re-score in float64, on average over a block; a block with more
# runs the float64 scan instead.
_SCAN_CANDIDATES = 64

# Held while a scan runs on several lanes. The BLAS thread count is
# process-wide, so a scan that starts meanwhile runs on its caller alone.
_LANES_BUSY = threading.Lock()


class TopKResult(NamedTuple):
    """Per-row smallest-k selection: both arrays are (rows, k)."""

    indices: np.ndarray
    values: np.ndarray


def as_feature_matrix(m, name: str = "features") -> np.ndarray:
    """Validate and convert an embedding matrix to a C-ordered float64 2-D array.

    Raises:
        ValueError: if the input is not 2-D, is empty, or contains a
            non-finite value (the first offending row is reported).
    """
    arr = np.asarray(m, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (rows, dim), got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column, got shape {arr.shape}")
    finite_rows = np.isfinite(arr).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise ValueError(f"{name} contains a non-finite value in row {bad}")
    return arr


def l2_normalize_rows(arr: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows pass through unchanged.

    Rows are pre-scaled by their max-abs entry so the squared sum neither
    underflows (denormal coordinates) nor overflows (entries near 1e200).
    Row stripes are written into one output buffer, so the only scratch
    is one stripe.

    Returns:
        np.ndarray: (N, d) float64 with unit-norm (or zero) rows.
    """
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


def pairwise_sq_euclidean(a: np.ndarray, b: np.ndarray, b_sq=None) -> np.ndarray:
    """Squared-Euclidean distance matrix between two row sets.

    Uses the expansion |x|^2 + |y|^2 - 2<x,y>: one GEMM of the -2-scaled
    rows written straight into the output, then the norm additions
    (`_sq_dist_stripe`). Scaling by -2 is exact, so the values equal
    those of scaling the product. Tiny negative rounding artifacts are
    clamped to zero. No entry is set apart: a row's distance to an equal
    row, itself included, is whatever the expansion leaves, near zero.
    Its one caller in the package hands it half-stripes of about
    _STRIPE_ELEMS / 2 entries, so the output stays in the last-level cache.

    Args:
        a: (N, d) feature matrix.
        b: (M, d) feature matrix of the same width d.
        b_sq: the squared row norms of `b` (einsum "ij,ij->i"), from a
            caller that measures many row sets against one `b`.

    Returns:
        np.ndarray: (N, M) float64, non-negative.
    """
    if b_sq is None:
        b_sq = np.einsum("ij,ij->i", b, b)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    _sq_dist_stripe(a, b.T, np.einsum("ij,ij->i", a, a), b_sq, out)
    return out


def _sq_dist_stripe(a, bt, a_sq, b_sq, out) -> None:
    """Write the clamped squared distances of rows `a` to columns `bt` into `out`.

    One GEMM of the -2-scaled rows straight into `out`, then the norm
    additions while the stripe is still in cache, then the clamp at zero.
    With `a_sq` None, the rows' own squared norms are left out and
    nothing is clamped: each row then holds its squared distances less
    its own squared norm, which order the row alike.
    """
    np.matmul(a * -2.0, bt, out=out)
    if a_sq is None:
        out += b_sq
        return
    out += a_sq[:, None]
    out += b_sq[None, :]
    np.maximum(out, 0.0, out=out)


def pair_sq_euclidean(feats: np.ndarray, rows, cols) -> np.ndarray:
    """Squared-Euclidean distances of the listed row pairs of one matrix.

    Entry t is the distance between rows `rows[t]` and `cols[t]`, by the
    same expansion, operation order and clamp as `pairwise_sq_euclidean`
    but with a plain dot product per pair. Pairs are gathered in chunks
    of about _GATHER_ELEMS feature entries.

    Args:
        feats: (N, d) feature matrix.
        rows, cols: equal-length integer index arrays into the rows.

    Returns:
        np.ndarray: float64 distances, non-negative, one per pair.
    """
    out = np.empty(len(rows), dtype=np.float64)
    _pair_sq_dist(feats, np.einsum("ij,ij->i", feats, feats), rows, cols, out)
    return out


def _pair_sq_dist(feats, sq_norms, rows, cols, out) -> None:
    """Write the clamped squared distances of the row pairs (rows[t], cols[t])
    of `feats`, whose squared row norms are `sq_norms`, into `out`."""
    step = max(1, _GATHER_ELEMS // max(feats.shape[1], 1))
    for t0 in range(0, len(rows), step):
        r, c = rows[t0 : t0 + step], cols[t0 : t0 + step]
        part = out[t0 : t0 + step]
        np.einsum("ij,ij->i", feats[r], feats[c], out=part)
        part *= -2.0
        part += sq_norms[r]
        part += sq_norms[c]
        np.maximum(part, 0.0, out=part)


def gather_ranges(starts, lengths, *arrays) -> list[np.ndarray]:
    """For each array, the concatenation of its slices [s, s + n) over the (s, n) pairs.

    The int64 ranges are gathered through one index array of every position.
    """
    ends = np.cumsum(lengths)
    pos = np.repeat(starts - (ends - lengths), lengths)
    pos += np.arange(pos.size, dtype=np.int64)
    return [arr[pos] for arr in arrays]


def topk_smallest(arr: np.ndarray, k: int) -> TopKResult:
    """Per-row smallest-k entries, ordered by (value, column index).

    Ties are broken by ascending column index, so repeated calls on the
    same input always produce identical index lists. A k past M keeps
    whole rows. The matrix is searched in one pass: its caller hands it
    blocks of about _STRIPE_ELEMS / 8 entries.

    When 2 * k * _TILE_COLS <= M, selection runs through column tiles
    (see `_topk_tiled`): only the entries no larger than the k-th
    smallest tile minimum are searched, gathered from the tiles whose
    minimum is that small. Narrower matrices, relative to k, and rows
    whose tiles tie too often, are searched whole.

    Args:
        arr: (N, M) distance matrix, M >= 1.
        k: number of entries to keep per row, >= 1.

    Returns:
        TopKResult: indices (N, min(k, M)) int64 and values alike, float64.
    """
    return TopKResult(*_topk_block(arr, k))


def _topk_block(work: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-min(k, width) of each row, k >= 1: through tiles when each
    row has at least 2k of them, else over the whole row (`_topk_rows`)."""
    select = _topk_tiled if 2 * k * _TILE_COLS <= work.shape[1] else _topk_rows
    return select(work, k)


def _topk_tiled(work: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_topk_rows` through column tiles; needs at least k tiles per row.

    The candidates of `_tile_candidates` with no margin: the entries no
    larger than T, the k-th smallest residue-class tile minimum, found in
    the tiles whose minimum is <= T and sorted into column order. They
    are packed with +inf padding and `_topk_rows` selects from the packed
    rows; packed positions map back to columns. When the searched tiles
    exceed 2k per row on average, the rows are searched whole instead,
    so the gather never exceeds the rows' own size.

    Why it is exact: the argument of `_prefiltered_block` with a zero
    margin. The k tiles with the smallest minima hold k distinct columns
    <= T, so the row's k-th smallest entry is <= T, and every entry at or
    before it in (value, column) order is <= T, as is its tile's minimum.
    Packed in column order, the candidates keep that order under
    `_topk_rows`' (value, index) rule; a pad comes after every candidate,
    so with at least k candidates no pad is selected, even when T is inf.
    """
    n, m = work.shape
    found = _tile_candidates(work, k, 0.0, 2 * k * n, n * m)
    if found is None:
        return _topk_rows(work, k)
    rows, cols = found
    packed, packed_cols = _pack_rows(n, rows, cols, work[rows, cols])
    picked, vals = _topk_rows(packed, k)
    return np.take_along_axis(packed_cols, picked, axis=1), vals


def _tile_candidates(block: np.ndarray, k: int, margin, tile_budget: int, budget: int):
    """The entries of each row no larger than its limit, in (row, column) order.

    The limit of a row is T + margin, T its k-th smallest minimum over
    the column tiles. With F = n // _TILE_COLS for n columns, tile t < F
    is the residue class of the first F * _TILE_COLS columns c with
    c mod F = t, so the minima are one reduction over the middle axis of
    a (rows, _TILE_COLS, F) view; the ragged tail of n mod _TILE_COLS
    columns is tile F. Only the tiles whose minimum is within the limit
    are gathered and compared. Needs k <= F. Returns (rows, columns), or
    None when more than `tile_budget` tiles or `budget` entries qualify.
    """
    r, n = block.shape
    full, rem = divmod(n, _TILE_COLS)
    body = block[:, : full * _TILE_COLS].reshape(r, _TILE_COLS, full)
    mins = np.empty((r, full + (rem > 0)), dtype=block.dtype)
    np.min(body, axis=1, out=mins[:, :full])
    if rem:
        np.min(block[:, full * _TILE_COLS :], axis=1, out=mins[:, full])
    limit = np.partition(mins, k - 1, axis=1)[:, k - 1] + margin
    rows, tiles = np.divmod(np.flatnonzero(mins <= limit[:, None]), mins.shape[1])
    if len(rows) > tile_budget:
        return None
    gathered = body[rows, :, np.minimum(tiles, full - 1)]
    if rem:
        ragged = np.flatnonzero(tiles == full)
        gathered[ragged, :rem] = block[rows[ragged], full * _TILE_COLS :]
        gathered[ragged, rem:] = np.nan  # never <= a limit
    hit, pos = np.divmod(np.flatnonzero(gathered <= limit[rows, None]), _TILE_COLS)
    if len(hit) > budget:
        return None
    tile = tiles[hit]
    cols = np.where(tile < full, tile + pos * full, full * _TILE_COLS + pos)
    keys = rows[hit] * n + cols
    keys.sort()
    return np.divmod(keys, n)


def _pack_rows(n: int, rows, cols, values) -> tuple[np.ndarray, np.ndarray]:
    """Scatter the entries (rows[t], cols[t], values[t]), sorted by row, into
    n rows: each row's entries in the given order, then +inf padding.
    Returns the packed values and their columns (0 under the padding)."""
    counts = np.bincount(rows, minlength=n)
    pos = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    width = counts.max()
    packed = np.full((n, width), np.inf)
    packed[rows, pos] = values
    packed_cols = np.zeros((n, width), dtype=np.int64)
    packed_cols[rows, pos] = cols
    return packed, packed_cols


def _topk_rows(work: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-k of each row with (value, index) ordering. `work` may hold inf.

    argpartition picks an arbitrary subset when values tie at a row's k-th
    value T. A row where it passed over a tie at T is selected again in
    linear time: every entry below T, then the lowest-index entries equal
    to T up to k in all, ordered by (value, column).
    """
    n, m = work.shape
    if k >= m:
        idx = np.argsort(work, axis=1, kind="stable").astype(np.int64)
    else:
        idx = np.argpartition(work, k - 1, axis=1)[:, :k].astype(np.int64)
        vals = np.take_along_axis(work, idx, axis=1)
        order = np.lexsort((idx, vals), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        boundary = vals[:, -1:]
        selected_eq = (vals == boundary).sum(axis=1)
        total_eq = (work == boundary).sum(axis=1)
        redo = np.flatnonzero(total_eq > selected_eq)
        if len(redo):
            rows, bound = work[redo], boundary[redo]
            below, tied = rows < bound, rows == bound
            room = k - below.sum(axis=1, keepdims=True)
            keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
            cols = np.nonzero(keep)[1].reshape(len(redo), k)
            kept = np.take_along_axis(rows, cols, axis=1)
            idx[redo] = np.take_along_axis(cols, np.lexsort((cols, kept), axis=1), axis=1)
    idx = idx[:, :k]
    vals = np.take_along_axis(work, idx, axis=1)
    return idx, vals


def knn_scan(arr: np.ndarray, k: int, exclude_self: bool) -> TopKResult:
    """Each row's k nearest rows of the same matrix, by squared distance.

    Blocked brute-force search: blocks of rows are each measured against
    every row and reduced to their smallest k, so the N x N matrix never
    exists. The blocks are split over lanes, one per BLAS thread (see
    `_run_lanes`; `OPENBLAS_NUM_THREADS=1` gives one lane), and scratch is
    one float64 block of at most `_SCAN_BLOCK_ROWS` rows and
    `_STRIPE_ELEMS / 2` entries per lane. Block heights do not depend on
    the number of lanes, so neither does the result. Each row's own
    column is set to inf with `exclude_self` and to exactly zero without
    it. Results are ordered by (value, column index), exactly as
    `topk_smallest` orders a full matrix. k is clamped to the number of
    candidates (N - 1 with `exclude_self`, else N), which must be at
    least 1: callers scan two or more rows, or pass `exclude_self=False`.

    When 2 * k * _TILE_COLS <= N, each block is first measured in float32
    and only its candidates are re-scored in float64 (`_prefiltered_block`):
    the returned values are then the per-pair distances of
    `pair_sq_euclidean`, and the neighbours are exactly the smallest k by
    those values. On the benchmark data a row keeps about 2 candidates at
    k 2 and 22-25 at k 20. These blocks are twice the float64 height (at most
    `_SCAN_BLOCK_ROWS`), 156 rows at N = 12,800, and fill the same
    scratch. A block with more than k + _SCAN_CANDIDATES candidates per
    row on average falls back to the float64 kernel, in sub-blocks of
    the float64 height, and returns that kernel's values. A block's route
    depends on its own rows alone. Every block of a narrower matrix, or
    of 2^23 or more columns, is measured in float64 by one GEMM and
    searched as in `topk_smallest` (through column tiles when
    2 * k * _TILE_COLS <= N, see `_topk_tiled`).

    Args:
        arr: (N, d) feature matrix.
        k: neighbours to keep per row.
        exclude_self: drop each row's own column from its candidates.

    Returns:
        TopKResult: indices (N, k_eff) int64 and squared distances
        (N, k_eff) float64.

    Raises:
        ValueError: if four times the largest squared row norm overflows
            float64, so that squared distances could.
    """
    n = arr.shape[0]
    k = min(k, n - 1 if exclude_self else n)
    sq_norms = np.einsum("ij,ij->i", arr, arr)
    if not sq_norms.max() <= np.finfo(np.float64).max / 4:
        raise ValueError(
            "squared distances overflow float64: four times the largest squared row "
            "norm is not finite; scale the features down or enable pre-normalization"
        )
    half = max(1, min(_SCAN_BLOCK_ROWS, _STRIPE_ELEMS // 2 // n))
    coarse = _coarse_copy(arr, sq_norms) if 2 * k * _TILE_COLS <= n else None
    rows = half if coarse is None else min(_SCAN_BLOCK_ROWS, 2 * half)
    self_value = np.inf if exclude_self else 0.0
    out = TopKResult(np.empty((n, k), dtype=np.int64), np.empty((n, k)))

    def scan_block(j, scratch):
        start = j * rows
        stop = min(start + rows, n)
        found = None
        if coarse is not None:
            found = _prefiltered_block(coarse, arr, sq_norms, start, stop, k, self_value, scratch)
        if found is not None:
            out.indices[start:stop], out.values[start:stop] = found
            return
        for s0 in range(start, stop, half):
            s1 = min(s0 + half, stop)
            block = scratch[: s1 - s0]
            _sq_dist_stripe(arr[s0:s1], arr.T, sq_norms[s0:s1], sq_norms, block)
            local = np.arange(s1 - s0)
            block[local, local + s0] = self_value
            out.indices[s0:s1], out.values[s0:s1] = _topk_block(block, k)

    _run_lanes(scan_block, -(-n // rows), (half, n))
    return out


class _CoarseCopy(NamedTuple):
    """The float32 operands of `_prefiltered_block`, built by `_coarse_copy`."""

    feats_t: np.ndarray  # (d, N) float32: the features times 2^-e, transposed
    sq_norms: np.ndarray  # (N,) float32 squared row norms of the scaled features
    margin: np.ndarray  # (N,) float64: 2 eps_i, in units of the scaled distances


def _coarse_copy(arr: np.ndarray, sq_norms: np.ndarray) -> _CoarseCopy | None:
    """The float32 copy of `arr`, scaled so the largest row norm is in [1/2, 1).

    The copy is stored transposed, C-ordered (d, N): the GEMM of a block
    then reads both operands in the layout OpenBLAS's sgemm packs
    fastest (about 20 % less time than the row-ordered copy on 156-row
    blocks at d 128), and no second copy is kept.

    e is the exponent of the largest row norm M, with M in [2^(e-1), 2^e),
    so scaling by 2^-e is exact (bar float64 underflow) and no entry
    overflows float32. With u = 2^-24 and gamma_d = d u / (1 - d u), the
    margin is 2 eps_i with

        eps_i = (gamma_d / 2 + 6 u) (|x_i| + M)^2 2^-2e + d 2^-120 + d 2^-1016 2^-2e,

    which bounds the float32 values' error (see `_prefiltered_block`).
    Returns None when d u >= 1/2, where the bound is of no use.
    """
    d = arr.shape[1]
    u = 2.0**-24
    if d * u >= 0.5:
        return None
    norm_max = float(np.sqrt(sq_norms.max()))
    e = int(np.frexp(norm_max)[1]) if norm_max > 0.0 else 0
    feats_t = np.empty(arr.shape[::-1], dtype=np.float32)
    np.ldexp(arr.T, -e, out=feats_t, casting="same_kind")
    coarse_sq = np.einsum("ji,ji->i", feats_t, feats_t, dtype=np.float64).astype(np.float32)
    reach = np.ldexp(np.sqrt(sq_norms) + norm_max, -e)
    eps = (d * u / (1 - d * u) / 2 + 6 * u) * reach**2 + d * 2.0**-120
    with np.errstate(over="ignore"):  # tiny features: an infinite margin sends blocks to float64
        eps += np.ldexp(float(d), -1016 - 2 * e)
    return _CoarseCopy(feats_t, coarse_sq, 2 * eps)


def _prefiltered_block(coarse, arr, sq_norms, start, stop, k, self_value, scratch):
    """`knn_scan`'s smallest k of rows start..stop, from float32 candidates.

    Steps: (1) V, the rows' float32 squared distances less their own
    squared norms, by `_sq_dist_stripe` on the scaled copy, in `scratch`
    read as float32; (2) own columns set to inf with `exclude_self`, else
    to minus the float32 own squared norm (a distance of zero); (3) T =
    each row's k-th smallest minimum of V over its residue-class column
    tiles, and (4) the candidates, the entries with V <= T + 2 eps_i
    found in the tiles whose minimum is <= T + 2 eps_i, sorted into
    column order per row (both by `_tile_candidates`); (5) the
    candidates re-scored in float64 by `_pair_sq_dist`, own
    columns set to `self_value`; (6) the smallest k of each row's
    candidates by (value, column), through `_topk_block` on the
    candidates packed in column order and padded with inf. Returns
    (indices, values), or None when the block holds more than
    k + _SCAN_CANDIDATES tiles or candidates per row on average.

    Why it is exact. Write x' = 2^-e x for the scaled rows, a and b for
    the float32 rows i and j, P = (|x'_i| + |x'_j|)^2 and
    W = |x'_j|^2 - 2 <x'_i, x'_j>, so that the exact squared distance is
    W + |x'_i|^2. Against W: (a) rounding to float32 moves each entry by
    at most u |x'| (or 2^-126 if it is a float32 subnormal), so
    |b|^2 - 2 <a, b> is within (2 u + u^2) P of W; (b) the float32 GEMM
    is off by at most 2 gamma_d |a| |b| <= (gamma_d / 2) (|a| + |b|)^2,
    in any summation order and at any block height, with or without
    FMA; (c) the float32 squared norm of b, rounded once from a float64
    sum, and the one float32 addition of it to the product add at most
    about 2 u (|a| + |b|)^2. An own column without `exclude_self` holds
    -fl32(|a|^2), within 3 u |x'_i|^2 of -|x'_i|^2. (d) The float64
    expansion of `_pair_sq_dist`, in scaled units, is off by at most
    (gamma_d(2^-53) / 2 + 3 * 2^-53) P; with the second-order terms of
    (a)-(c) this stays below the sixth u. (e) Float32 subnormals, flushed
    or not, cost at most (10 d + 4) 2^-126 in (a)-(c), below d 2^-120, and
    float64 subnormals at most d 2^-1016 unscaled. The clamp at zero
    cannot add error, as distances are >= 0. So for every column j of
    row i, V_ij + |x'_i|^2 is within eps_i of the scaled float64 value
    (own columns with `exclude_self` are inf in both).

    The selection needs only that the tiles are disjoint and cover the
    row, not that they are contiguous. The k tiles with the smallest
    minima hold k distinct columns with V <= T, whose scaled float64
    values are <= T + |x'_i|^2 + eps_i; so the float64 k-th value of the
    row is no larger, and every entry at or before it in (value, column)
    order has V <= T + 2 eps_i: it is a candidate, and its tile, whose
    minimum is no larger, is searched, whichever residue class holds it.
    T + 2 eps_i is rounded once in float64, by far less than u P, and
    compared with V exactly. Sorted into ascending column order before
    packing, the candidates' packed positions follow their columns, so
    `_topk_block`'s (value, index) order on the packed row is the
    (value, column) order on the whole row; a pad comes after every
    candidate, and at least k candidates are finite (the k with V <= T
    are; T is finite because at least 2k tiles exist and one holds the
    own column), so no pad is selected.
    """
    n = arr.shape[0]
    r = stop - start
    budget = (k + _SCAN_CANDIDATES) * r
    block = scratch.reshape(-1).view(np.float32)[: r * n].reshape(r, n)
    rows_t = coarse.feats_t[:, start:stop]
    _sq_dist_stripe(rows_t.T, coarse.feats_t, None, coarse.sq_norms, block)
    local = np.arange(r)
    block[local, local + start] = -coarse.sq_norms[start:stop] if self_value == 0.0 else self_value
    found = _tile_candidates(block, k, coarse.margin[start:stop], budget, budget)
    if found is None:
        return None
    cand_rows, cand_cols = found
    scores = np.empty(len(cand_rows))
    _pair_sq_dist(arr, sq_norms, cand_rows + start, cand_cols, scores)
    scores[cand_cols == cand_rows + start] = self_value
    packed, packed_cols = _pack_rows(r, cand_rows, cand_cols, scores)
    picked, values = _topk_block(packed, k)
    return np.take_along_axis(packed_cols, picked, axis=1), values


def _run_lanes(task: Callable[[int, np.ndarray], None], count: int, scratch_shape) -> None:
    """Call task(j, scratch) for every j in range(count), over L lanes.

    L is the BLAS thread count, read now. Lane 0 is the calling thread
    and lanes 1..L-1 are helper threads; lane i runs j = i, i + L, ...
    with its own float64 `scratch` of `scratch_shape`, which the calling
    thread allocates. Meanwhile BLAS runs each call on one thread; the
    thread count is restored afterwards, and glibc's `malloc_trim` hands
    back the memory the helpers' temporaries left in their malloc arenas.
    The first exception a task raises stops the other lanes at their
    next task and is re-raised here.

    All tasks run on the calling thread, with BLAS left as it is, when
    the BLAS thread controls are not found, BLAS has one thread, count
    is below 2, or another thread is running tasks on lanes.

    Only lane 0 may call a function that the benchmark's tracer
    (`perfbench/spans.py`) wraps: the tracer keeps one span stack for the
    whole process. A task that serves a traced stage calls the public
    functions on the calling thread and the private kernels they wrap
    elsewhere.
    """
    controls = _blas_threads()
    threads = controls.get() if controls is not None else 1
    lanes = min(threads, count)
    if lanes < 2 or not _LANES_BUSY.acquire(blocking=False):
        scratch = np.empty(scratch_shape)
        for j in range(count):
            task(j, scratch)
        return
    scratch = np.empty((lanes, *scratch_shape))
    stop = threading.Event()
    errors = []

    def lane(i):
        for j in range(i, count, lanes):
            if stop.is_set():
                return
            task(j, scratch[i])

    def helper(i):
        try:
            lane(i)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)
            stop.set()

    started = []
    try:
        controls.set(1)
        for i in range(1, lanes):
            thread = threading.Thread(target=helper, args=(i,), name=f"knn-lane-{i}")
            thread.start()
            started.append(thread)
        lane(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in started:
            thread.join()
        controls.set(threads)
        _LANES_BUSY.release()
        trim = _malloc_trim()
        if trim is not None:
            trim(0)
    if errors:
        raise errors[0]


class _BlasThreads(NamedTuple):
    """Getter and setter of the BLAS library's thread count."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _blas_threads() -> _BlasThreads | None:
    """OpenBLAS's thread controls in the library numpy loaded, or None.

    Looked up on the first scan rather than at import, in `numpy.libs`
    beside the package, where numpy's wheels keep their OpenBLAS.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return _BlasThreads(get, set_)
    return None


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's `malloc_trim`, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim
