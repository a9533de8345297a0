"""Multi-order neighbor feature enhancement.

Each sample's embedding is fused with a decayed, Gaussian-weighted
aggregate of its 1st..H-th order neighbors' embeddings:

1. First-order neighbors: the k1 nearest other samples of the
   (optionally row-normalized) input, found by a blocked kNN scan.
2. Higher orders by expansion: order-h neighbors are the union of the
   first-order neighbors of the order-(h-1) neighbors, minus the sample,
   computed as a sparse product of the neighbor adjacencies.
3. Per-order Gaussian kernel weights with a bandwidth that widens with
   the order (sigma_h = sigma * 1.5**h), restricted to the neighbor sets.
4. Latent features: sum over orders of decay * (weights @ features).
5. Output: row-normalized gamma * features + (1 - gamma) * latent.

No N x N distance matrix is built: the scan keeps one block of rows in
memory, and the kernel weights need distances only on the neighbor
supports, which are computed from the feature pairs directly. Large
inputs can also be processed in contiguous row chunks, each enhanced
independently (the "gallery batching" mode).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .matrix_ops import as_feature_matrix, knn_scan, l2_normalize_rows, pair_sq_euclidean

if TYPE_CHECKING:
    import scipy.sparse as sp

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
        sigma_mode: "adaptive" (mean first-order distance) or "fixed".
        sigma: kernel base bandwidth, used when sigma_mode == "fixed".
        alphas: per-order decay coefficients (>= orders entries); None
            selects the default halving sequence 1, 0.5, 0.25, ...
        normalize_weight_rows: rescale each weight row to sum to 1, making
            the per-order aggregate a weighted neighbor average. Off
            reproduces the raw-kernel formulation verbatim.
        disjoint_orders: drop members of lower orders when expanding.
        batch_size: enhance contiguous row chunks of at most this many
            rows independently; None processes the whole set at once.
        pre_normalize: L2-normalize input rows before computing distances.
    """

    k1: int = 2
    orders: int = 3
    gamma: float = 0.75
    sigma_mode: str = "adaptive"
    sigma: float = 1.0
    alphas: tuple[float, ...] | None = None
    normalize_weight_rows: bool = True
    disjoint_orders: bool = False
    batch_size: int | None = None
    pre_normalize: bool = True

    def __post_init__(self):
        if self.k1 < 1:
            raise ValueError(f"k1 must be >= 1, got {self.k1}")
        if self.orders < 1:
            raise ValueError(f"orders must be >= 1, got {self.orders}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sigma_mode not in ("adaptive", "fixed"):
            raise ValueError(f"sigma_mode must be 'adaptive' or 'fixed', got {self.sigma_mode!r}")
        if self.sigma_mode == "fixed" and not self.sigma > 0.0:
            raise ValueError(f"fixed sigma must be > 0, got {self.sigma}")
        if self.alphas is not None:
            if len(self.alphas) < self.orders:
                raise ValueError(
                    f"alphas needs at least {self.orders} entries, got {len(self.alphas)}"
                )
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {self.batch_size}")

    def resolved_alphas(self) -> tuple[float, ...]:
        if self.alphas is None:
            return default_decay(self.orders)
        return self.alphas[: self.orders]


@dataclass
class NeighborOrders:
    """Per-order, per-sample neighbor index lists.

    levels[h-1][x] is the order-h neighbor index array of sample x:
    duplicate-free, never containing x itself. First-order lists are in
    nearest-first order; expanded levels are in ascending index order.
    """

    levels: list[list[np.ndarray]]

    @property
    def num_orders(self) -> int:
        return len(self.levels)

    @property
    def num_samples(self) -> int:
        return len(self.levels[0]) if self.levels else 0

    def order(self, h: int) -> list[np.ndarray]:
        """Neighbor lists of order h (1-based)."""
        return self.levels[h - 1]


def build_first_order(feats, k1: int) -> NeighborOrders:
    """First-order neighbors: the k1 nearest other samples of each row.

    Found by a blocked scan of the (N, d) features, ordered nearest
    first with ties broken by ascending index. If k1 >= N it is clamped
    to N-1 with a warning.
    """
    if k1 < 1:
        raise ValueError(f"k1 must be >= 1, got {k1}")
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


def _adjacency(level: list[np.ndarray]) -> sp.csr_matrix:
    """One order's neighbor sets as an (N, N) 0/1 CSR matrix."""
    import scipy.sparse as sp

    rows, cols = _pairs(level)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(len(level), len(level)))


def expand_order(orders: NeighborOrders, disjoint_orders: bool = False) -> NeighborOrders:
    """Append the next neighbor order by one-hop expansion.

    Order-h neighbors of x are the union of the first-order neighbors of
    x's order-(h-1) neighbors, minus x itself, duplicates removed: the
    support of S_(h-1) @ S_1 off the diagonal, where S_h is the 0/1
    adjacency of order h. With `disjoint_orders`, members already present
    at any lower order are removed as well.
    """
    import scipy.sparse as sp

    if orders.num_orders < 1:
        raise ValueError("need at least the first order to expand")
    n = orders.num_samples
    reach = _adjacency(orders.levels[-1]) @ _adjacency(orders.levels[0])
    dropped = sp.identity(n, format="csr")
    if disjoint_orders:
        for level in orders.levels:
            dropped = dropped + _adjacency(level)
    # entries of `reach` are positive path counts: subtracting them where
    # `dropped` is set leaves exact zeros, which sparse subtraction drops
    reach = reach - reach.multiply(dropped > 0)
    reach.sort_indices()
    cols = reach.indices.astype(np.int64)
    return NeighborOrders(levels=orders.levels + [np.split(cols, reach.indptr[1:-1])])


def adaptive_sigma(feats, orders: NeighborOrders) -> float:
    """Mean unsquared distance over all first-order (sample, neighbor) pairs.

    Distances are computed from the (N, d) features on those pairs only.
    Returns 1.0 when every first-order set is empty.
    """
    rows, cols = _pairs(orders.levels[0])
    if rows.size == 0:
        return 1.0
    return float(np.sqrt(pair_sq_euclidean(feats, rows, cols)).mean())


def gaussian_weights(
    feats,
    orders: NeighborOrders,
    sigma: float,
    normalize_rows: bool = True,
) -> list[sp.csr_matrix]:
    """Per-order sparse Gaussian kernel weights on the neighbor supports.

    The order-h weight of neighbor y of sample x is
    exp(-d(x, y)^2 / (2 * sigma_h^2)) with sigma_h = sigma * 1.5**h, and
    zero off the neighbor sets. With `normalize_rows`, each nonempty row
    is rescaled to sum to 1 (entries stay in (0, 1]).

    Args:
        feats: (N, d) features; d(x, y) is their Euclidean distance,
            computed on the neighbor supports only.
        orders: neighbor sets defining each order's support.
        sigma: base bandwidth, > 0.
        normalize_rows: rescale rows to unit sum.

    Returns:
        One CSR matrix per order, shape (N, N).
    """
    import scipy.sparse as sp

    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    n = orders.num_samples
    weights = []
    for h, level in enumerate(orders.levels, start=1):
        rows, cols = _pairs(level)
        dist = np.sqrt(pair_sq_euclidean(feats, rows, cols))
        sigma_h = sigma * _BANDWIDTH_GROWTH**h
        vals = np.exp(-np.square(dist) / (2.0 * sigma_h**2))
        if normalize_rows and vals.size:
            row_sums = np.bincount(rows, weights=vals, minlength=n)
            vals = vals / row_sums[rows]
        weights.append(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))
    return weights


def latent_features(weights: list[sp.csr_matrix], features, alphas) -> np.ndarray:
    """Decayed sum of per-order neighbor aggregates: sum_h alphas[h] * (W_h @ F)."""
    feats = np.asarray(features, dtype=np.float64)
    if len(alphas) < len(weights):
        raise ValueError(f"need {len(weights)} decay coefficients, got {len(alphas)}")
    latent = np.zeros_like(feats)
    for mat, alpha in zip(weights, alphas):
        if mat.shape[1] != feats.shape[0]:
            raise ValueError(
                f"weight matrix {mat.shape} incompatible with {feats.shape[0]} feature rows"
            )
        latent += alpha * (mat @ feats)
    return latent


def enhance(features, cfg: DmonConfig) -> np.ndarray:
    """Run the full multi-order neighbor enhancement pipeline.

    With gamma == 1 the latent term vanishes and the result is exactly
    the row-normalized input. When cfg.batch_size is set and smaller
    than the row count, contiguous chunks of at most batch_size rows are
    enhanced independently and concatenated.

    Args:
        features: (N, d) embedding matrix.
        cfg: DmonConfig.

    Returns:
        np.ndarray: (N, d) float64 with unit-norm (or zero) rows.
    """
    feats = as_feature_matrix(features)
    if cfg.gamma == 1.0:
        return l2_normalize_rows(feats)
    n = feats.shape[0]
    if cfg.batch_size is not None and cfg.batch_size < n:
        parts = [
            _enhance_whole(feats[start : start + cfg.batch_size], cfg)
            for start in range(0, n, cfg.batch_size)
        ]
        return np.vstack(parts)
    return _enhance_whole(feats, cfg)


def _enhance_whole(feats: np.ndarray, cfg: DmonConfig) -> np.ndarray:
    base = l2_normalize_rows(feats) if cfg.pre_normalize else feats
    if feats.shape[0] < 2:
        # a single sample has no neighbors; only the gamma term survives
        return l2_normalize_rows(cfg.gamma * base)
    orders = build_first_order(base, cfg.k1)
    for _ in range(1, cfg.orders):
        orders = expand_order(orders, disjoint_orders=cfg.disjoint_orders)
    if cfg.sigma_mode == "fixed":
        sigma = cfg.sigma
    else:
        sigma = adaptive_sigma(base, orders)
        if sigma <= 0.0:
            sigma = 1.0  # all first-order distances zero: kernel value is 1 anyway
    weights = gaussian_weights(base, orders, sigma, cfg.normalize_weight_rows)
    latent = latent_features(weights, base, cfg.resolved_alphas())
    fused = cfg.gamma * base + (1.0 - cfg.gamma) * latent
    return l2_normalize_rows(fused)
