"""The numpy index kernels against scipy's CSR products, bit for bit.

Order expansion, the kernel-weight products of the latent features and
the ARO residual product once were scipy.sparse products. The index
kernels that replaced them must give the same bits, so `dist.npy` stays
byte-identical: each kernel is compared with `assert_array_equal` to the
CSR computation it replaced. scipy is a test-only dependency; without it
this module is skipped.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import rerankit.enhance as enhance_module
import rerankit.optimize as optimize_module
from rerankit import matrix_ops
from rerankit.enhance import (
    NeighborOrders,
    build_first_order,
    expand_order,
    gaussian_weights,
    latent_features,
)
from rerankit.optimize import (
    FilteredRows,
    asymmetric_similarity,
    neighborhood_filter,
    residual_product,
)

from naive_impl import dense_weights, sparse_rows

sp = pytest.importorskip("scipy.sparse")


def _adjacency(level):
    return sp.csr_matrix((np.ones(level.nnz), (level.rows, level.cols)),
                         shape=(len(level), len(level)))


def csr_expand(orders):
    """The next order as the support of S_last @ S_1 minus the diagonal."""
    n = len(orders.levels[0])
    reach = _adjacency(orders.levels[-1]) @ _adjacency(orders.levels[0])
    reach = reach - reach.multiply(sp.identity(n, format="csr") > 0)
    reach.sort_indices()
    return np.split(reach.indices.astype(np.int64), reach.indptr[1:-1])


def csr_residual(rows: FilteredRows):
    n, k = rows.indices.shape
    return sp.csr_matrix(
        ((rows.values - rows.fill).ravel(), (np.repeat(np.arange(n), k), rows.indices.ravel())),
        shape=(n, rows.num_cols),
    )


@st.composite
def neighbor_lists(draw):
    """First-order tables of up to 12 samples: any members but the sample
    itself, in any order, some of them empty."""
    n = draw(st.integers(1, 12), label="samples")
    level = []
    for x in range(n):
        others = [y for y in range(n) if y != x]
        members = draw(st.lists(st.sampled_from(others), unique=True, max_size=4)
                       if others else st.just([]))
        level.append(members)
    return NeighborOrders(levels=[sparse_rows(level)])


@given(orders=neighbor_lists(), hops=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_expand_order_matches_csr_product(orders, hops):
    for _ in range(hops):
        expected = csr_expand(orders)
        orders = expand_order(orders)
        assert len(orders.levels[-1]) == len(expected)
        for got, want in zip(orders.levels[-1], expected):
            assert got.dtype == np.int64
            assert_array_equal(got, want)


@given(
    n=st.integers(2, 16),
    dim=st.integers(1, 5),
    k1=st.integers(1, 4),
    num_orders=st.integers(1, 4),
    gather=st.sampled_from([1, 7, 64, matrix_ops._GATHER_ELEMS]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_latent_product_matches_csr(n, dim, k1, num_orders, gather, seed):
    """Small-integer features tie distances; some rows lose all neighbours."""
    rng = np.random.default_rng(seed)
    feats = rng.integers(-2, 3, (n, dim)).astype(np.float64)
    orders = build_first_order(feats, min(k1, n - 1))
    blank = rng.random(n) < 0.2
    orders = NeighborOrders(levels=[sparse_rows([nbrs[:0] if b else nbrs
                                                 for nbrs, b in zip(orders.levels[0], blank)])])
    for _ in range(1, num_orders):
        orders = expand_order(orders)
    weights = gaussian_weights(feats, orders, sigma=0.8)
    decay = (1.0, 0.5, 0.25, 0.125)
    with mock.patch.object(enhance_module, "_GATHER_ELEMS", gather):
        latent = latent_features(weights, feats)
        products = [w.dot(feats) for w in weights]
    expected = np.zeros_like(feats)
    for w, alpha, got in zip(weights, decay, products):
        mat = sp.csr_matrix((w.vals, (w.rows, w.cols)), shape=(n, n))
        assert w.nnz == mat.nnz
        assert_array_equal(dense_weights(w), mat.toarray())
        assert_array_equal(got, mat @ feats)
        expected += alpha * (mat @ feats)
    assert_array_equal(latent, expected)


@given(
    num_q=st.integers(0, 6),
    num_g=st.integers(1, 14),
    k=st.integers(1, 14),
    fill=st.sampled_from([0.0, 1.0]),
    levels=st.integers(1, 6),
    stripe=st.sampled_from([1, 9, 40, matrix_ops._STRIPE_ELEMS]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_residual_product_matches_csr(num_q, num_g, k, fill, levels, stripe, seed):
    """Distances drawn from a few random values tie within rows and
    repeat rows, so some columns are kept by every gallery row, while the
    residual products still round; small stripes split the products into
    chunks of single query rows."""
    rng = np.random.default_rng(seed)
    k = min(k, num_g)
    values = rng.random(levels) * 2.0
    q_rows = neighborhood_filter(values[rng.integers(0, levels, (num_q, num_g))], k, fill)
    g_rows = neighborhood_filter(values[rng.integers(0, levels, (num_g, num_g))], k, fill)
    product = (csr_residual(q_rows) @ csr_residual(g_rows).T.tocsr()).toarray()
    with mock.patch.object(optimize_module, "_STRIPE_ELEMS", stripe):
        got = residual_product(q_rows, g_rows)
        sim = asymmetric_similarity(q_rows, g_rows)
    assert got.dtype == np.float64
    assert_array_equal(got, product)
    assert not np.signbit(got[got == 0.0]).any()  # exact zeros read +0.0, as in scipy
    # the similarity as it was computed around the CSR product
    q_resid, q_norms = q_rows._stats
    g_resid, g_norms = g_rows._stats
    if fill != 0.0:
        product += fill * fill * num_g
        product += fill * q_resid[:, None]
        product += fill * g_resid[None, :]
    product /= q_norms[:, None]
    product /= g_norms[None, :]
    assert_array_equal(sim, np.clip(product, 0.0, 1.0))
