"""Multi-order neighbor feature enhancement.

Each sample's embedding is fused with a decayed, Gaussian-weighted
aggregate of its 1st..H-th order neighbors' embeddings:

1. First-order neighbors: the k1 nearest other samples of the
   (optionally row-normalized) input, found by a blocked kNN scan.
2. Higher orders by expansion: order-h neighbors are the union of the
   first-order neighbors of the order-(h-1) neighbors, minus the sample,
   computed by index arithmetic: each row's two-hop pool of
   `row * N + col` keys is sorted once and its repeats dropped.
3. Per-order Gaussian kernel weights with a bandwidth that widens with
   the order (sigma_h = sigma * 1.5**h), restricted to the neighbor sets
   and row-normalized.
4. Latent features: sum over orders of decay * (weights @ features),
   with the halving decay 1, 0.5, 0.25, ...,
   each row's weighted neighbor sum taken over its entries in column
   order.
5. Output: row-normalized gamma * features + (1 - gamma) * latent.

No N x N distance matrix is built: the scan keeps one block of rows in
memory, and the kernel weights need distances only on the neighbor
supports, which are computed from the feature pairs directly. Large
inputs can also be processed in contiguous row chunks, each enhanced
independently (the "gallery batching" mode, see `batch_bounds`).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_ops import (
    _GATHER_ELEMS,
    as_feature_matrix,
    gather_ranges,
    knn_scan,
    l2_normalize_rows,
    pair_sq_euclidean,
)

# Per-order bandwidth growth factor: sigma_h = sigma * _BANDWIDTH_GROWTH**h.
_BANDWIDTH_GROWTH = 1.5


def default_decay(num_orders: int) -> tuple[float, ...]:
    """Halving decay coefficients: 1, 0.5, 0.25, ..."""
    return tuple(0.5**h for h in range(num_orders))


@dataclass(frozen=True)
class DmonConfig:
    """Hyperparameters for multi-order neighbor enhancement.

    Attributes:
        k1: first-order neighborhood size.
        orders: number of neighbor orders H.
        gamma: fusion weight of the original features, in [0, 1].
        sigma: fixed kernel base bandwidth, > 0; None selects the adaptive
            bandwidth, the mean first-order distance.
        batch_size: enhance contiguous row chunks of this many rows
            independently (see `batch_bounds`); None enhances all at once.
        pre_normalize: L2-normalize input rows before computing distances.
    """

    k1: int = 2
    orders: int = 3
    gamma: float = 0.75
    sigma: float | None = None
    batch_size: int | None = None
    pre_normalize: bool = True

    def __post_init__(self):
        if self.k1 < 1:
            raise ValueError(f"k1 must be >= 1, got {self.k1}")
        if self.orders < 1:
            raise ValueError(f"orders must be >= 1, got {self.orders}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0 or None, got {self.sigma}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {self.batch_size}")


@dataclass
class NeighborOrders:
    """Per-order, per-sample neighbor index lists.

    levels[h-1][x] is the order-h neighbor index array of sample x:
    duplicate-free, never containing x itself. First-order lists are in
    nearest-first order; expanded levels are in ascending index order.
    """

    levels: list[list[np.ndarray]]


def build_first_order(feats: np.ndarray, k1: int) -> NeighborOrders:
    """First-order neighbors: the k1 nearest other samples of each row.

    Found by a blocked scan of the (N, d) features, ordered nearest
    first with ties broken by ascending index. If k1 >= N it is clamped
    to N-1 with a warning.
    """
    n = len(feats)
    if k1 >= n:
        warnings.warn(
            f"k1={k1} >= sample count {n}; clamping to {n - 1}", RuntimeWarning, stacklevel=2
        )
    nearest = knn_scan(feats, k1, exclude_self=True)
    return NeighborOrders(levels=[list(nearest.indices)])


def _pairs(level: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of each (sample, neighbor) pair of one order."""
    lengths = np.fromiter((nbrs.size for nbrs in level), dtype=np.int64, count=len(level))
    rows = np.repeat(np.arange(len(level), dtype=np.int64), lengths)
    cols = np.concatenate(level).astype(np.int64) if rows.size else np.empty(0, np.int64)
    return rows, cols


def expand_order(orders: NeighborOrders) -> NeighborOrders:
    """Append the next neighbor order by one-hop expansion.

    Order-h neighbors of x are the union of the first-order neighbors of
    x's order-(h-1) neighbors, minus x itself, duplicates removed. The
    two-hop pool of every row is listed as `row * N + col` keys, which
    one sort orders by row, then column, for dropping repeats. A member
    of a lower order may appear again at a higher one.
    """
    n = len(orders.levels[0])
    first_rows, first_cols = _pairs(orders.levels[0])
    first_len = np.bincount(first_rows, minlength=n)
    rows, hops = _pairs(orders.levels[-1])
    first_start = np.cumsum(first_len) - first_len
    keys = np.repeat(rows * n, first_len[hops])
    keys += gather_ranges(first_start[hops], first_len[hops], first_cols)[0]
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    keep = rows != cols
    bounds = [0, *np.cumsum(np.bincount(rows[keep], minlength=n)).tolist()]
    cols = cols[keep]
    return NeighborOrders(levels=orders.levels + [[cols[i:j] for i, j in zip(bounds, bounds[1:])]])


def adaptive_sigma(feats: np.ndarray, orders: NeighborOrders) -> float:
    """Mean unsquared distance over all first-order (sample, neighbor) pairs.

    Distances are computed from the (N, d) features on those pairs only.
    Every first-order set must be nonempty, as `build_first_order` makes
    them for two or more rows.
    """
    rows, cols = _pairs(orders.levels[0])
    return float(np.sqrt(pair_sq_euclidean(feats, rows, cols)).mean())


@dataclass(frozen=True, eq=False)
class OrderWeights:
    """One order's kernel weights: an (n, n) matrix held as its stored entries.

    `rows`, `cols` and `vals` list the entries sorted by row, then column;
    every other entry is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    @property
    def nnz(self) -> int:
        return self.vals.size

    def dot(self, feats: np.ndarray) -> np.ndarray:
        """W @ feats, each row summed from +0.0 over its entries in column order.

        Rows are taken longest first, in blocks of about _GATHER_ELEMS
        gathered feature entries; each block's rows are padded with zero
        weights to its longest row. `einsum` then adds the terms of a row
        in order, because the feature axis is its inner loop; a
        one-column input gets a zero second column to keep it so. That
        loop order is numpy's choice, not a documented guarantee; the
        oracle tests compare these sums bit for bit with a CSR product.
        """
        if feats.shape[1] == 1:
            return self.dot(np.hstack([feats, np.zeros_like(feats)]))[:, :1]
        counts = np.bincount(self.rows, minlength=self.n)
        starts = np.cumsum(counts) - counts
        by_len = np.argsort(-counts, kind="stable")
        counts, starts = counts[by_len], starts[by_len]
        dim = feats.shape[1]
        out = np.empty((self.n, dim))
        b0 = 0
        while b0 < self.n and counts[b0] > 0:
            width = int(counts[b0])
            b1 = min(self.n, b0 + max(1, _GATHER_ELEMS // (width * dim)))
            real = np.arange(width) < counts[b0:b1, None]
            entry = np.where(real, starts[b0:b1, None] + np.arange(width), 0)
            vals = np.where(real, self.vals[entry], 0.0)
            out[by_len[b0:b1]] = np.einsum("rk,rkd->rd", vals, feats[self.cols[entry]])
            b0 = b1
        out[by_len[b0:]] = 0.0
        return out


def gaussian_weights(
    feats: np.ndarray,
    orders: NeighborOrders,
    sigma: float,
    adaptive: bool = False,
) -> list[OrderWeights]:
    """Per-order Gaussian kernel weights on the neighbor supports.

    The order-h weight of neighbor y of sample x is
    exp(-d(x, y)^2 / (2 * sigma_h^2)) with sigma_h = sigma * 1.5**h, and
    zero off the neighbor sets. Each nonempty row is then rescaled to
    sum to 1 (entries stay in (0, 1]), so each order's aggregate is a
    weighted neighbor average; a ValueError reports a row whose weights
    all underflow to zero, before any rescaling.

    Args:
        feats: (N, d) features; d(x, y)^2 is their squared Euclidean
            distance, computed on the neighbor supports only.
        orders: neighbor sets defining each order's support.
        sigma: base bandwidth, > 0, adaptive or fixed as `adaptive` says.

    Returns:
        One OrderWeights per order, of an (N, N) matrix.
    """
    n = len(orders.levels[0])
    weights = []
    for h, level in enumerate(orders.levels, start=1):
        rows, cols = _pairs(level)
        sigma_h = sigma * _BANDWIDTH_GROWTH**h
        with np.errstate(all="ignore"):  # a row of vanished weights is reported below
            vals = np.exp(pair_sq_euclidean(feats, rows, cols) / (-2.0 * sigma_h**2))
        sums = np.bincount(rows, weights=vals, minlength=n)[rows]
        if not (sums > 0.0).all():
            raise ValueError(
                f"order-{h} kernel weights of row {rows[np.argmin(sums > 0.0)]} all underflow at "
                f"{'adaptive' if adaptive else 'fixed'} sigma {sigma:.3g}; set a larger --sigma"
            )
        vals = vals / sums
        # first-order lists are nearest first; the sum in `dot` runs in column order
        order = np.argsort(rows * n + cols, kind="stable")
        weights.append(OrderWeights(rows[order], cols[order], vals[order], n))
    return weights


def latent_features(weights: list[OrderWeights], feats: np.ndarray) -> np.ndarray:
    """Decayed sum of per-order neighbor aggregates: sum_h decay[h] * (W_h @ F),
    with the halving `default_decay`."""
    latent = np.zeros_like(feats)
    for w, decay in zip(weights, default_decay(len(weights))):
        latent += decay * w.dot(feats)
    return latent


def enhance(features, cfg: DmonConfig) -> np.ndarray:
    """Run the full multi-order neighbor enhancement pipeline.

    With gamma == 1 the latent term vanishes and the result is exactly
    the row-normalized input. Otherwise the row batches of `batch_bounds`
    are enhanced independently and concatenated.

    Args:
        features: (N, d) embeddings, any array-like; checked and converted
            by `as_feature_matrix`.
        cfg: DmonConfig.

    Returns:
        np.ndarray: (N, d) float64 with unit-norm (or zero) rows.
    """
    feats = as_feature_matrix(features)
    if cfg.gamma == 1.0:
        return l2_normalize_rows(feats)
    parts = [_enhance_whole(feats[a:b], cfg) for a, b in batch_bounds(len(feats), cfg)]
    return parts[0] if len(parts) == 1 else np.vstack(parts)


def batch_bounds(n: int, cfg: DmonConfig) -> list[tuple[int, int]]:
    """(start, stop) of each batch of cfg.batch_size rows (all n when None) that
    `enhance` treats alone; a last batch of at most k1 rows joins the one before."""
    starts = list(range(0, n, cfg.batch_size or n))
    if len(starts) > 1 and n - starts[-1] <= cfg.k1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _enhance_whole(feats: np.ndarray, cfg: DmonConfig) -> np.ndarray:
    base = l2_normalize_rows(feats) if cfg.pre_normalize else feats
    if feats.shape[0] < 2:
        # a single sample has no neighbors; only the gamma term survives
        return l2_normalize_rows(cfg.gamma * base)
    orders = build_first_order(base, cfg.k1)
    for _ in range(1, cfg.orders):
        orders = expand_order(orders)
    sigma = cfg.sigma
    if sigma is None:
        # 0 only when every first-order distance is 0; any bandwidth then gives weight 1
        sigma = adaptive_sigma(base, orders) or 1.0
    weights = gaussian_weights(base, orders, sigma, adaptive=cfg.sigma is None)
    latent = latent_features(weights, base)
    fused = cfg.gamma * base + (1.0 - cfg.gamma) * latent
    return l2_normalize_rows(fused)
