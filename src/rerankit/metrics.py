"""Retrieval evaluation: per-query ranking, junk filtering, CMC and mAP.

Follows the standard cross-camera protocol: for each query, gallery
samples sharing both its identity and its camera are removed before
scoring, and queries left with no positives are excluded (and counted).
`Evaluator` scores the matrix as row stripes reach it, from `optimize`'s
sink or from `evaluate`, which feeds it a matrix or a file in stripes.
"""

from dataclasses import dataclass

import numpy as np

# Query rows are scanned in stripes of about this many distance entries;
# 128k float64 entries (1 MiB) stay in one core's L2 cache while every
# positive of the stripe is counted against them.
_STRIPE_ENTRIES = 1 << 17

# CMC curve length when none is given: ranks 1..MAX_RANK.
MAX_RANK = 50


def check_max_rank(max_rank: int) -> None:
    """The one rule of a CMC length, shared by `Evaluator` and the commands
    that take one: ranks 1..max_rank, so at least 1."""
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")


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
    max_rank: int = MAX_RANK,
) -> EvalReport:
    """Score a query-gallery distance matrix with CMC and mAP (`Evaluator`).

    `distances` is only read through `np.shape` and row slices
    `distances[i0:i1]`, which an `Evaluator` scores one at a time, so an
    array and a file read by `io_formats.NpyRows` take the same path as
    the stripes `optimize` hands a sink.

    Args:
        distances: (Nq, Ng) matrix, +-inf allowed; only ordering matters.
        query_labels / gallery_labels: per-sample pid and camid.
        max_rank: CMC curve length (clamped to the gallery size).

    Raises:
        ValueError: shape/label mismatch, NaN distances, or no valid query.
    """
    shape, counts = np.shape(distances), (len(query_labels), len(gallery_labels))
    if shape != counts:
        raise ValueError(f"label counts {counts} != distance shape {shape}")
    evaluator = Evaluator(query_labels, gallery_labels, max_rank)
    for i0 in range(0, shape[0], evaluator.stripe_rows):
        evaluator(i0, distances[i0 : i0 + evaluator.stripe_rows])
    return evaluator.report()


class Evaluator:
    """A sink that scores a query-gallery distance matrix one row stripe at a time.

    `evaluator(start, stripe)` scores the (rows, Ng) stripe of query rows
    from `start`: each row's gallery is ranked ascending (ties by index)
    without its same-pid/same-camid entries, and the query is scored if a
    positive remains. Its AP and first-hit rank are stored at its row, so
    `report()` is bit-identical at any stripe height and in any order.
    Calls follow `optimize`'s sink protocol: they never overlap but may
    come from any thread, and no stripe is kept past its call.

    No distance row is sorted: a positive's rank is the number of non-junk
    entries whose (distance, index) pair comes before its own, counted by
    one compare pass per positive over `stripe_rows` rows at a time. Work
    is O(Nq * Ng * positives per query); scratch memory is those rows.

    Raises:
        ValueError: max_rank below 1; a stripe that does not fit the
            (Nq, Ng) matrix, overlaps scored rows or holds a NaN; in
            `report()`, a row never scored or no valid query.
    """

    def __init__(self, query_labels: SampleLabels, gallery_labels: SampleLabels, max_rank=MAX_RANK):
        check_max_rank(max_rank)
        num_q, num_g = self.shape = len(query_labels), len(gallery_labels)
        self.num_ranks = min(max_rank, num_g)
        self.stripe_rows = max(1, _STRIPE_ENTRIES // max(num_g, 1))
        self._q_camids, self._g_camids = query_labels.camids, gallery_labels.camids
        # gallery indices grouped by pid, ascending index inside each group
        self._g_order = np.argsort(gallery_labels.pids, kind="stable")
        grouped_pids = gallery_labels.pids[self._g_order]
        self._seg_lo = np.searchsorted(grouped_pids, query_labels.pids, side="left")
        self._seg_len = np.searchsorted(grouped_pids, query_labels.pids, "right") - self._seg_lo
        self._mask = np.empty((min(self.stripe_rows, num_q), num_g), dtype=bool)
        self._scored = np.zeros(num_q, dtype=bool)
        self._ap = np.full(num_q, np.nan)  # NaN: no positive
        self._first_hit = np.zeros(num_q, dtype=np.int64)

    def __call__(self, start: int, stripe) -> None:
        stripe = np.asarray(stripe, dtype=np.float64)
        end = start + len(stripe)
        if not 0 <= start <= end <= self.shape[0] or stripe.shape[1:] != self.shape[1:]:
            raise ValueError(f"a stripe {stripe.shape} at row {start} does not fit {self.shape}")
        if self._scored[start:end].any():
            raise ValueError(f"rows {start} to {end - 1} overlap rows already scored")
        for i0 in range(start, end, self.stripe_rows):
            i1 = min(i0 + self.stripe_rows, end)
            part, hit = stripe[i0 - start : i1 - start], self._mask[: i1 - i0]
            if np.isnan(part, out=hit).any():
                raise ValueError("distance matrix contains NaN")
            ranks, num_pos = _stripe_ranks(part, self._g_order, self._seg_lo[i0:i1],
                                           self._seg_len[i0:i1], self._q_camids[i0:i1],
                                           self._g_camids, hit)
            for r in np.flatnonzero(num_pos):
                row = ranks[r, : num_pos[r]]
                self._ap[i0 + r] = _ap_from_ranks(row)
                self._first_hit[i0 + r] = row[0]
        self._scored[start:end] = True

    def report(self) -> EvalReport:
        """CMC and mAP over the valid queries, once every row is scored."""
        missing = np.flatnonzero(~self._scored)
        if missing.size:
            raise ValueError(f"rows never scored: {missing.size}, from row {missing[0]}")
        valid = ~np.isnan(self._ap)
        num_valid = int(np.count_nonzero(valid))
        if num_valid == 0:
            raise ValueError("no valid query: every query lacks a cross-camera positive")
        first = self._first_hit[valid]
        cmc = np.cumsum(np.bincount(first[first < self.num_ranks], minlength=self.num_ranks))
        mean_ap = float(np.mean(self._ap[valid]))
        return EvalReport(cmc=cmc / num_valid, mean_ap=mean_ap, num_valid_queries=num_valid)


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
