"""Independent straight-line reference implementations used as test oracles.

Everything here is written with explicit loops and dense arrays, on
purpose: these functions define expected behavior without sharing any
code with the package internals they are used to verify.
"""

import math

import numpy as np


def naive_normalize_rows(m):
    m = np.asarray(m, dtype=np.float64)
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        norm = math.sqrt(sum(v * v for v in m[i]))
        out[i] = m[i] if norm == 0.0 else m[i] / norm
    return out


def naive_pairwise_sq(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = sum((a[i, t] - b[j, t]) ** 2 for t in range(a.shape[1]))
    return out


def naive_topk(d, k, exclude_self=False):
    """Full sort by (value, index), then prefix of length k."""
    d = np.asarray(d, dtype=np.float64)
    indices, values = [], []
    for i in range(d.shape[0]):
        pairs = [
            (d[i, j], j)
            for j in range(d.shape[1])
            if not (exclude_self and j == i)
        ]
        pairs.sort()
        take = pairs[: min(k, len(pairs))]
        indices.append([j for _, j in take])
        values.append([v for v, _ in take])
    return np.asarray(indices, dtype=np.int64), np.asarray(values)


def naive_neighbor_orders(dist, k1, num_orders):
    """Order-1 sets from sorted distances; higher orders via set unions."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    k1 = min(k1, n - 1)
    first = []
    for x in range(n):
        pairs = sorted((dist[x, y], y) for y in range(n) if y != x)
        first.append([y for _, y in pairs[:k1]])
    levels = [first]
    for _ in range(1, num_orders):
        prev = levels[-1]
        nxt = []
        for x in range(n):
            members = set()
            for y in prev[x]:
                members.update(first[y])
            members.discard(x)
            nxt.append(sorted(members))
        levels.append(nxt)
    return levels


def naive_enhance(
    feats,
    k1=2,
    num_orders=3,
    gamma=0.75,
    sigma_mode="adaptive",
    sigma=1.0,
    batch_size=None,
    pre_normalize=True,
):
    feats = np.asarray(feats, dtype=np.float64)
    if gamma == 1.0:
        return naive_normalize_rows(feats)
    n = feats.shape[0]
    if batch_size is not None and batch_size < n:
        starts = list(range(0, n, batch_size))
        if n - starts[-1] <= k1:  # a last chunk of at most k1 rows joins the one before
            starts.pop()
        chunks = [
            naive_enhance(
                feats[s:e],
                k1,
                num_orders,
                gamma,
                sigma_mode,
                sigma,
                None,
                pre_normalize,
            )
            for s, e in zip(starts, starts[1:] + [n])
        ]
        return np.vstack(chunks)

    base = naive_normalize_rows(feats) if pre_normalize else feats
    if n < 2:
        return naive_normalize_rows(gamma * base)
    dist = np.sqrt(naive_pairwise_sq(base, base))
    for i in range(n):
        dist[i, i] = 0.0
    levels = naive_neighbor_orders(dist, k1, num_orders)

    if sigma_mode == "fixed":
        sig = sigma
    else:
        pair_dists = [dist[x, y] for x in range(n) for y in levels[0][x]]
        sig = float(np.mean(pair_dists)) if pair_dists else 1.0
        if sig <= 0.0:
            sig = 1.0

    latent = np.zeros_like(base)
    for h, level in enumerate(levels, start=1):
        sig_h = sig * 1.5**h
        weights = np.zeros((n, n))
        for x in range(n):
            for y in level[x]:
                weights[x, y] = math.exp(-(dist[x, y] ** 2) / (2.0 * sig_h**2))
            if weights[x].sum() > 0:
                weights[x] /= weights[x].sum()
        latent += 0.5 ** (h - 1) * (weights @ base)
    return naive_normalize_rows(gamma * base + (1.0 - gamma) * latent)


def dense_weights(w):
    """The (n, n) matrix an `enhance.SparseRows` of kernel weights stores as its entries."""
    n = len(w)
    out = np.zeros((n, n))
    for x in range(n):
        for t in range(w.offsets[x], w.offsets[x + 1]):
            out[x, w.cols[t]] = w.vals[t]
    return out


def sparse_rows(level, vals=None):
    """An `enhance.SparseRows` holding the per-row column arrays `level`
    (and, with `vals`, the per-row weight arrays beside them)."""
    from rerankit.enhance import SparseRows

    offsets = np.cumsum([0, *(len(cols) for cols in level)])
    cols = np.array([c for row in level for c in row], dtype=np.int64)
    flat = None if vals is None else np.array([v for row in vals for v in row], dtype=np.float64)
    return SparseRows(offsets, cols, flat)


def sq_norms(m):
    """Squared row norms, as `matrix_ops` distance functions take them."""
    return np.einsum("ij,ij->i", m, m)


def dense_filtered(rows):
    """The fill-padded matrix an `optimize.FilteredRows` stores as kept entries."""
    out = np.full((rows.indices.shape[0], rows.num_cols), rows.fill)
    for i in range(out.shape[0]):
        for c, v in zip(rows.indices[i], rows.values[i]):
            out[i, c] = v
    return out


def naive_filter(d, k2, fill):
    d = np.asarray(d, dtype=np.float64)
    out = np.full_like(d, fill)
    for i in range(d.shape[0]):
        pairs = sorted((d[i, j], j) for j in range(d.shape[1]))
        for v, j in pairs[: min(k2, d.shape[1])]:
            out[i, j] = v
    return out


def naive_similarity(qg_f, gg_f):
    qn = naive_normalize_rows(qg_f)
    gn = naive_normalize_rows(gg_f)
    out = np.zeros((qn.shape[0], gn.shape[0]))
    for i in range(qn.shape[0]):
        for m in range(gn.shape[0]):
            out[i, m] = sum(qn[i, j] * gn[m, j] for j in range(qn.shape[1]))
    return np.clip(out, 0.0, 1.0)


def naive_optimize(fq, fg, k2=20, fill=1.0, enabled=True, pre_normalize=True):
    fq = np.asarray(fq, dtype=np.float64)
    fg = np.asarray(fg, dtype=np.float64)
    if pre_normalize:
        fq = naive_normalize_rows(fq)
        fg = naive_normalize_rows(fg)
    qg = naive_pairwise_sq(fq, fg)
    if not enabled:
        return qg
    gg = naive_pairwise_sq(fg, fg)
    for i in range(fg.shape[0]):
        gg[i, i] = 0.0
    sim = naive_similarity(naive_filter(qg, k2, fill), naive_filter(gg, k2, fill))
    return qg - sim


def naive_evaluate(dist, q_pids, q_camids, g_pids, g_camids, max_rank=50):
    """Per-query loop evaluator: rank, drop same-pid same-cam, score."""
    dist = np.asarray(dist, dtype=np.float64)
    num_q, num_g = dist.shape
    num_ranks = min(max_rank, num_g)
    cmc_rows = []
    aps = []
    for qi in range(num_q):
        ranked = sorted(range(num_g), key=lambda j: (dist[qi, j], j))
        kept = [
            j
            for j in ranked
            if not (g_pids[j] == q_pids[qi] and g_camids[j] == q_camids[qi])
        ]
        matches = [1 if g_pids[j] == q_pids[qi] else 0 for j in kept]
        total = sum(matches)
        if total == 0:
            continue
        hits = 0
        precisions = []
        row_cmc = [0] * num_ranks
        for rank, m in enumerate(matches, start=1):
            if m:
                hits += 1
                precisions.append(hits / rank)
                if hits == 1:
                    for r in range(rank - 1, num_ranks):
                        row_cmc[r] = 1
        cmc_rows.append(row_cmc)
        aps.append(sum(precisions) / total)
    if not aps:
        raise ValueError("no valid query")
    cmc = np.asarray(cmc_rows, dtype=np.float64).mean(axis=0)
    return cmc, float(np.mean(aps)), len(aps)


def argsort_evaluate(dist, q_pids, q_camids, g_pids, g_camids, max_rank=50):
    """Full stable argsort of every row, then a per-query scan.

    Agrees with `naive_evaluate` but runs in seconds on thousands of
    queries, so it can check the evaluator at benchmark scale.
    """
    dist = np.asarray(dist, dtype=np.float64)
    q_pids, q_camids = np.asarray(q_pids), np.asarray(q_camids)
    g_pids, g_camids = np.asarray(g_pids), np.asarray(g_camids)
    num_q, num_g = dist.shape
    num_ranks = min(max_rank, num_g)
    order = np.argsort(dist, axis=1, kind="stable")
    first_hit_counts = np.zeros(num_ranks, dtype=np.int64)
    aps = []
    for qi in range(num_q):
        ranked = order[qi]
        same_pid = g_pids[ranked] == q_pids[qi]
        junk = same_pid & (g_camids[ranked] == q_camids[qi])
        positions = np.flatnonzero(same_pid[~junk])
        if positions.size == 0:
            continue
        if positions[0] < num_ranks:
            first_hit_counts[positions[0]] += 1
        hits = np.arange(1, positions.size + 1, dtype=np.float64)
        aps.append(np.mean(hits / (positions + 1.0)))
    if not aps:
        raise ValueError("no valid query")
    cmc = np.cumsum(first_hit_counts) / len(aps)
    return cmc, float(np.mean(aps)), len(aps)


def naive_generate(spec, normalize_rows):
    """`synthetic.generate` drawn one identity at a time, as a loop.

    Centres, camera offsets and then each identity's noise come from one
    PCG64 stream, in that order. `normalize_rows` is the row normalizer
    the package applies, passed in so the bits can match. Returns (query
    rows, query pids, query camids, gallery rows, gallery pids, gallery
    camids).
    """
    rng = np.random.default_rng(spec.seed)
    centers = normalize_rows(rng.standard_normal((spec.num_ids, spec.dim)))
    cam_offsets = normalize_rows(rng.standard_normal((spec.num_cams, spec.dim)))
    cam_offsets = cam_offsets * spec.cam_offset_scale
    nq = spec.queries_per_id
    ng = spec.imgs_per_id - nq
    gallery_cams = [i % spec.num_cams for i in range(ng)]
    if ng >= 2:
        query_cams = [i % spec.num_cams for i in range(nq)]
    else:
        query_cams = [1 + i % (spec.num_cams - 1) for i in range(nq)]
    query, gallery = [], []
    for pid in range(spec.num_ids):
        noise = rng.normal(0.0, spec.intra_noise, size=(spec.imgs_per_id, spec.dim))
        for i, cam in enumerate(query_cams + gallery_cams):
            row = centers[pid] + cam_offsets[cam] + noise[i]
            (query if i < nq else gallery).append((row, pid, cam))
    q_rows, q_pids, q_camids = map(np.array, zip(*query))
    g_rows, g_pids, g_camids = map(np.array, zip(*gallery))
    return (normalize_rows(q_rows), q_pids, q_camids,
            normalize_rows(g_rows), g_pids, g_camids)
