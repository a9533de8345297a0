"""Retrieval evaluation: per-query ranking, junk filtering, CMC and mAP.

Follows the standard cross-camera protocol: for each query, gallery
samples sharing both its identity and its camera are removed before
scoring, and queries left with no positives are excluded (and counted).
"""

from dataclasses import dataclass

import numpy as np

# Query rows are scanned in stripes of about this many distance entries;
# 128k float64 entries (1 MiB) stay in one core's L2 cache while every
# positive of the stripe is counted against them.
_STRIPE_ENTRIES = 1 << 17


@dataclass(frozen=True)
class SampleLabels:
    """Identity and camera ids for a set of samples, in sample order."""

    pids: np.ndarray
    camids: np.ndarray

    def __post_init__(self):
        pids = np.asarray(self.pids, dtype=np.int64)
        camids = np.asarray(self.camids, dtype=np.int64)
        if pids.ndim != 1 or camids.ndim != 1 or pids.shape != camids.shape:
            raise ValueError("pids and camids must be 1-D arrays of equal length")
        if pids.size and (pids.min() < 0 or camids.min() < 0):
            raise ValueError("pids and camids must be non-negative")
        object.__setattr__(self, "pids", pids)
        object.__setattr__(self, "camids", camids)

    def __len__(self) -> int:
        return int(self.pids.shape[0])


@dataclass(frozen=True)
class EvalReport:
    """CMC curve (ranks 1..R), mAP, and the number of scored queries."""

    cmc: np.ndarray
    mean_ap: float
    num_valid_queries: int

    def __post_init__(self):
        cmc = np.asarray(self.cmc, dtype=np.float64)
        if np.any(np.diff(cmc) < 0):
            raise ValueError("CMC curve must be non-decreasing")
        if not 0.0 <= self.mean_ap <= 1.0:
            raise ValueError(f"mAP must lie in [0, 1], got {self.mean_ap}")
        object.__setattr__(self, "cmc", cmc)

    @property
    def rank1(self) -> float:
        return float(self.cmc[0]) if self.cmc.size else 0.0

    def to_json_dict(self, config: dict | None = None) -> dict:
        return {
            "cmc": [float(v) for v in self.cmc],
            "mAP": float(self.mean_ap),
            "valid_queries": int(self.num_valid_queries),
            "config": dict(config or {}),
        }


def _ap_from_ranks(ranks: np.ndarray) -> float:
    """AP from the ascending 0-based ranks of a query's positives."""
    hits = np.arange(1, ranks.size + 1, dtype=np.float64)
    return float(np.mean(hits / (ranks + 1.0)))


def average_precision(ranked_matches) -> float:
    """AP of a ranked binary match vector: mean of precision at each hit.

    Raises:
        ValueError: if the vector contains no positive entry; such
            queries must be excluded by the caller, not scored as zero.
    """
    matches = np.asarray(ranked_matches, dtype=bool)
    positions = np.flatnonzero(matches)
    if positions.size == 0:
        raise ValueError("no positive match in ranking; query must be excluded")
    return _ap_from_ranks(positions)


def evaluate(
    distances,
    query_labels: SampleLabels,
    gallery_labels: SampleLabels,
    max_rank: int = 50,
) -> EvalReport:
    """Score a query-gallery distance matrix with CMC and mAP.

    For each query row, the gallery is ranked ascending (ties by index),
    same-pid/same-camid entries are dropped, and the query contributes to
    CMC/mAP if at least one positive remains.

    No distance row is sorted: the rank of a positive is the number of
    non-junk gallery entries whose (distance, index) pair comes before its
    own, counted with one compare pass per positive over a stripe of query
    rows; only each query's few same-pid entries are sorted. Work is
    O(Nq * Ng * positives per query) and scratch memory is one stripe,
    independent of the matrix size.

    `distances` is only read through `np.shape` and row slices
    `distances[i0:i1]`, one stripe at a time, so an array and a file read
    by `io_formats.NpyRows` take the same path.

    Args:
        distances: (Nq, Ng) matrix, +-inf allowed; only ordering matters.
        query_labels / gallery_labels: per-sample pid and camid.
        max_rank: CMC curve length (clamped to the gallery size).

    Returns:
        EvalReport.

    Raises:
        ValueError: shape/label mismatch, NaN distances, or no valid query.
    """
    shape = np.shape(distances)
    if len(shape) != 2:
        raise ValueError(f"distance matrix must be 2-D, got ndim={len(shape)}")
    num_q, num_g = shape
    if len(query_labels) != num_q:
        raise ValueError(
            f"query label count {len(query_labels)} != distance rows {num_q}"
        )
    if len(gallery_labels) != num_g:
        raise ValueError(
            f"gallery label count {len(gallery_labels)} != distance cols {num_g}"
        )
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    num_ranks = min(max_rank, num_g)

    # gallery indices grouped by pid, ascending index inside each group
    g_order = np.argsort(gallery_labels.pids, kind="stable")
    grouped_pids = gallery_labels.pids[g_order]
    seg_lo = np.searchsorted(grouped_pids, query_labels.pids, side="left")
    seg_len = np.searchsorted(grouped_pids, query_labels.pids, side="right") - seg_lo

    stripe_rows = max(1, _STRIPE_ENTRIES // max(num_g, 1))
    mask = np.empty((min(stripe_rows, num_q), num_g), dtype=bool)
    first_hits = []
    ap_values = []
    for i0 in range(0, num_q, stripe_rows):
        i1 = min(i0 + stripe_rows, num_q)
        stripe = np.asarray(distances[i0:i1], dtype=np.float64)
        hit = mask[: i1 - i0]
        if np.isnan(stripe, out=hit).any():
            raise ValueError("distance matrix contains NaN")
        ranks, num_pos = _stripe_ranks(
            stripe,
            g_order,
            seg_lo[i0:i1],
            seg_len[i0:i1],
            query_labels.camids[i0:i1],
            gallery_labels.camids,
            hit,
        )
        for r in np.flatnonzero(num_pos):
            row = ranks[r, : num_pos[r]]
            ap_values.append(_ap_from_ranks(row))
            first_hits.append(row[0])

    num_valid = len(ap_values)
    if num_valid == 0:
        raise ValueError("no valid query: every query lacks a cross-camera positive")
    first = np.asarray(first_hits, dtype=np.int64)
    first_hit_counts = np.bincount(first[first < num_ranks], minlength=num_ranks)
    cmc = np.cumsum(first_hit_counts) / num_valid
    return EvalReport(
        cmc=cmc, mean_ap=float(np.mean(ap_values)), num_valid_queries=num_valid
    )


def _stripe_ranks(stripe, g_order, seg_lo, seg_len, q_camids, g_camids, hit):
    """Ascending ranks of each query row's positives among its non-junk entries.

    Returns (ranks, num_pos): ranks is (rows, max positives) int64 and only
    its first num_pos[r] entries of row r are meaningful. `hit` is a
    boolean scratch buffer shaped like `stripe`.
    """
    rows, num_g = stripe.shape
    width = int(seg_len.max(initial=0))
    slot = np.arange(width)
    in_seg = slot < seg_len[:, None]
    same = g_order[np.where(in_seg, seg_lo[:, None] + slot, 0)]
    positive = in_seg & (g_camids[same] != q_camids[:, None])
    # Same-pid entries in (distance, index) order: slots already ascend by
    # gallery index, so a stable sort suffices, and +inf padding stays
    # behind every real slot. The s-th positive in that order has s
    # positives and at[:, s] - s junk entries before it.
    values = np.take_along_axis(stripe, same, axis=1)
    values[~in_seg] = np.inf
    order = np.argsort(values, axis=1, kind="stable")
    positive = np.take_along_axis(positive, order, axis=1)
    num_pos = np.count_nonzero(positive, axis=1)
    width_pos = int(num_pos.max(initial=0))
    at = np.argsort(~positive, axis=1, kind="stable")[:, :width_pos]
    perm = np.take_along_axis(order, at, axis=1)
    pos_idx = np.take_along_axis(same, perm, axis=1)
    pos_val = np.take_along_axis(values, perm, axis=1)
    pos_val[np.arange(width_pos) >= num_pos[:, None]] = np.nan  # compares false
    ranks = np.arange(width_pos) - at

    count_dtype = np.uint16 if num_g < 1 << 16 else np.int64
    for s in range(width_pos):
        threshold = pos_val[:, s, None]
        np.less(stripe, threshold, out=hit)
        ranks[:, s] += hit.view(np.uint8).sum(axis=1, dtype=count_dtype)
        np.equal(stripe, threshold, out=hit)
        if np.count_nonzero(hit) > np.count_nonzero(num_pos > s):
            # an equal distance besides the positive itself: index breaks the tie
            hit &= np.arange(num_g) < pos_idx[:, s, None]
            ranks[:, s] += hit.view(np.uint8).sum(axis=1, dtype=count_dtype)
    return ranks, num_pos
