"""Multi-order neighbor feature enhancement.

Each sample's embedding is fused with a decayed, Gaussian-weighted
aggregate of its 1st..H-th order neighbors' embeddings:

1. First-order neighbors: the k1 nearest other samples of the input
   rows, taken as given, found by a blocked kNN scan.
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
memory, each order's neighbors and kernel weights are one flat row
table (`SparseRows`), and the kernel weights need distances only on the
neighbor supports, which are computed from the feature pairs directly.
`enhance` treats the rows it is given as one set; which rows share a
graph (the gallery batching of `pipeline.batch_bounds`) is the caller's
decision.
"""

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
    """Hyperparameters for multi-order neighbor enhancement of one set of
    rows; which rows form a set is `PipelineConfig.dmon_batch_size`'s job.

    Attributes:
        k1: first-order neighborhood size.
        orders: number of neighbor orders H.
        gamma: fusion weight of the original features, in [0, 1].
        sigma: fixed kernel base bandwidth, > 0; None selects the adaptive
            bandwidth, the mean first-order distance.
    """

    k1: int = 2
    orders: int = 3
    gamma: float = 0.75
    sigma: float | None = None

    def __post_init__(self):
        if self.k1 < 1:
            raise ValueError(f"k1 must be >= 1, got {self.k1}")
        if self.orders < 1:
            raise ValueError(f"orders must be >= 1, got {self.orders}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, or None, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class SparseRows:
    """The stored entries of an (n, n) sparse matrix, row by row.

    Row x keeps the columns cols[offsets[x]:offsets[x+1]], and `vals`
    their weights alongside; every other entry is zero. `vals` is None
    for a neighbor table, which lists columns only.
    """

    offsets: np.ndarray
    cols: np.ndarray
    vals: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, x) -> np.ndarray:
        return self.cols[self.offsets[x] : self.offsets[x + 1]]

    @property
    def nnz(self) -> int:
        return self.cols.size

    @property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

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
        n = len(self)
        counts = np.diff(self.offsets)
        by_len = np.argsort(-counts, kind="stable")
        counts, starts = counts[by_len], self.offsets[by_len]
        dim = feats.shape[1]
        out = np.empty((n, dim))
        b0 = 0
        while b0 < n and counts[b0] > 0:
            width = int(counts[b0])
            b1 = min(n, b0 + max(1, _GATHER_ELEMS // (width * dim)))
            real = np.arange(width) < counts[b0:b1, None]
            entry = np.where(real, starts[b0:b1, None] + np.arange(width), 0)
            vals = np.where(real, self.vals[entry], 0.0)
            out[by_len[b0:b1]] = np.einsum("rk,rkd->rd", vals, feats[self.cols[entry]])
            b0 = b1
        out[by_len[b0:]] = 0.0
        return out


@dataclass
class NeighborOrders:
    """Per-order neighbor tables, one `SparseRows` per order.

    levels[h-1][x] is the order-h neighbor index array of sample x:
    duplicate-free, never containing x itself. First-order rows are in
    nearest-first order; expanded levels are in ascending index order.
    """

    levels: list[SparseRows]


def build_first_order(feats: np.ndarray, k1: int) -> NeighborOrders:
    """First-order neighbors: the k1 nearest other samples of each row.

    Found by a blocked scan of the (N, d) features, ordered nearest
    first with ties broken by ascending index. If k1 >= N, `knn_scan`
    clamps it to N-1; the command's manifest names the clamp
    (`pipeline.clamp_warnings`).
    """
    nearest = knn_scan(feats, k1, exclude_self=True).indices
    n, k = nearest.shape
    return NeighborOrders(levels=[SparseRows(np.arange(n + 1) * k, nearest.reshape(-1))])


def expand_order(orders: NeighborOrders) -> NeighborOrders:
    """Append the next neighbor order by one-hop expansion.

    Order-h neighbors of x are the union of the first-order neighbors of
    x's order-(h-1) neighbors, minus x itself, duplicates removed. The
    two-hop pool of every row is listed as `row * N + col` keys, which
    one sort orders by row, then column, for dropping repeats. A member
    of a lower order may appear again at a higher one.
    """
    first, last = orders.levels[0], orders.levels[-1]
    n = len(first)
    hop_len = np.diff(first.offsets)[last.cols]
    keys = np.repeat(last.rows * n, hop_len)
    keys += gather_ranges(first.offsets[last.cols], hop_len, first.cols)[0]
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    keep = rows != cols
    level = SparseRows(np.searchsorted(rows[keep], np.arange(n + 1)), cols[keep])
    return NeighborOrders(levels=[*orders.levels, level])


def adaptive_sigma(feats: np.ndarray, orders: NeighborOrders) -> float:
    """Mean unsquared distance over all first-order (sample, neighbor) pairs.

    Distances are computed from the (N, d) features on those pairs only.
    Every first-order set must be nonempty, as `build_first_order` makes
    them for two or more rows.
    """
    first = orders.levels[0]
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    return float(np.sqrt(pair_sq_euclidean(feats, sq_norms, first.rows, first.cols)).mean())


def gaussian_weights(
    feats: np.ndarray,
    orders: NeighborOrders,
    sigma: float,
    adaptive: bool = False,
) -> list[SparseRows]:
    """Per-order Gaussian kernel weights on the neighbor supports.

    The order-h weight of neighbor y of sample x is
    exp(-d(x, y)^2 / (2 * sigma_h^2)) with sigma_h = sigma * 1.5**h, and
    zero off the neighbor sets. A sigma_h whose square overflows a float
    reads as infinite, so every weight of its order is 1, the kernel's
    limit. Each nonempty row is then rescaled to sum to 1 (entries stay
    in (0, 1]), so each order's aggregate is a weighted neighbor average;
    a ValueError reports a row whose weights all underflow to zero,
    before any rescaling.

    Args:
        feats: (N, d) features; d(x, y)^2 is their squared Euclidean
            distance, computed on the neighbor supports only.
        orders: neighbor sets defining each order's support.
        sigma: base bandwidth, > 0, adaptive or fixed as `adaptive` says.

    Returns:
        One SparseRows per order, of an (N, N) matrix, on its order's offsets.
    """
    n = len(orders.levels[0])
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    weights = []
    for h, level in enumerate(orders.levels, start=1):
        rows, cols = level.rows, level.cols
        try:
            scale = -2.0 * (sigma * _BANDWIDTH_GROWTH**h) ** 2
        except OverflowError:  # an infinite bandwidth: every weight is exp(-0) = 1
            scale = -np.inf
        with np.errstate(all="ignore"):  # a row of vanished weights is reported below
            vals = np.exp(pair_sq_euclidean(feats, sq_norms, rows, cols) / scale)
        sums = np.bincount(rows, weights=vals, minlength=n)[rows]
        if not (sums > 0.0).all():
            raise ValueError(
                f"order-{h} kernel weights of row {rows[np.argmin(sums > 0.0)]} all underflow at "
                f"{'adaptive' if adaptive else 'fixed'} sigma {sigma:.3g}; set a larger --sigma"
            )
        vals = vals / sums
        # first-order rows are nearest first; the sum in `dot` runs in column order
        order = np.argsort(rows * n + cols, kind="stable")
        weights.append(SparseRows(level.offsets, cols[order], vals[order]))
    return weights


def latent_features(weights: list[SparseRows], feats: np.ndarray) -> np.ndarray:
    """Decayed sum of per-order neighbor aggregates: sum_h decay[h] * (W_h @ F),
    with the halving `default_decay`."""
    latent = np.zeros_like(feats)
    for w, decay in zip(weights, default_decay(len(weights))):
        latent += decay * w.dot(feats)
    return latent


def enhance(features, cfg: DmonConfig) -> np.ndarray:
    """Run the full multi-order neighbor enhancement on one set of rows.

    Every row is a neighbor candidate of every other. With gamma == 1 the
    latent term vanishes and the result is exactly the row-normalized
    input; a single row has no neighbors, so only its gamma term survives.

    Args:
        features: (N, d) embeddings, any array-like, taken as given;
            checked and converted by `as_feature_matrix`.
        cfg: DmonConfig.

    Returns:
        np.ndarray: (N, d) float64 with unit-norm (or zero) rows.
    """
    feats = as_feature_matrix(features)
    if cfg.gamma == 1.0:
        return l2_normalize_rows(feats)
    if feats.shape[0] < 2:
        return l2_normalize_rows(cfg.gamma * feats)
    orders = build_first_order(feats, cfg.k1)
    for _ in range(1, cfg.orders):
        orders = expand_order(orders)
    sigma = cfg.sigma
    if sigma is None:
        # 0 only when every first-order distance is 0; any bandwidth then gives weight 1
        sigma = adaptive_sigma(feats, orders) or 1.0
    weights = gaussian_weights(feats, orders, sigma, adaptive=cfg.sigma is None)
    latent = latent_features(weights, feats)
    fused = cfg.gamma * feats + (1.0 - cfg.gamma) * latent
    return l2_normalize_rows(fused)
