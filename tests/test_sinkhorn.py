"""Sinkhorn projection against an independent scaling-vector oracle."""

import math

import numpy as np
import pytest

from aotlab import autodiff as ad
from aotlab.autodiff import Tape, Tensor
from aotlab.errors import ShapeError
from aotlab.sinkhorn import ds_residual, sinkhorn_array, sinkhorn_tensor

from test_tensor import check_grad, fd_grad


# ---------------------------------------------------------------------
# oracle: diagonal-scaling fixed point, a different route to the same
# projection (iterate u = 1/(K v), v = 1/(K^T u) until the scaled matrix
# is doubly stochastic to 1e-12)
# ---------------------------------------------------------------------

def scaling_oracle(raw, tol=1e-12, max_iters=100000):
    k = np.exp(np.asarray(raw, dtype=np.float64))
    n = k.shape[0]
    u = np.ones(n)
    v = np.ones(n)
    for _ in range(max_iters):
        u = 1.0 / (k @ v)
        v = 1.0 / (k.T @ u)
        p = u[:, None] * k * v[None, :]
        if ds_residual(p) < tol:
            return p
    raise AssertionError("scaling oracle failed to converge")


# ---------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------

def test_large_diagonal_projects_to_identity():
    raw = np.zeros((4, 4))
    np.fill_diagonal(raw, 20.0)
    np.testing.assert_allclose(sinkhorn_array(raw, iters=20), np.eye(4), atol=1e-6)


def test_zero_raw_gives_exact_uniform():
    m = sinkhorn_array(np.zeros((4, 4)), iters=20)
    assert np.all(m == 0.25)
    assert ds_residual(m) == 0.0


def test_identity_bias_converged_value():
    """Converged projection of exp(I4): one row normalization suffices
    because exp(I4) has constant row and column sums e + 3, so the fixed
    point is diag e/(e+3), off-diag 1/(e+3)."""
    e = math.e
    want = np.full((4, 4), 1.0 / (e + 3))
    np.fill_diagonal(want, e / (e + 3))
    got = sinkhorn_array(np.eye(4), iters=50)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(scaling_oracle(np.eye(4)), want, atol=1e-10)


def test_degenerate_n1_returns_one():
    m = sinkhorn_array(np.array([[7.3]]), iters=1)
    assert m.shape == (1, 1)
    assert m[0, 0] == 1.0
    assert sinkhorn_array(np.array([[-50.0]]), iters=20)[0, 0] == 1.0


# ---------------------------------------------------------------------
# convergence and oracle agreement
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(50))
def test_bounded_raw_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(4, 4))
    m = sinkhorn_array(raw, iters=20)
    assert ds_residual(m) < 1e-6
    np.testing.assert_allclose(m, scaling_oracle(raw), atol=1e-6)


def test_gaussian_raw_tail_behavior():
    """Unbounded N(0,1) raws converge more slowly: the worst of 1000 draws
    still has residual ~1e-5 at 20 sweeps but is below 1e-6 by 32."""
    rng = np.random.default_rng(0)
    raws = rng.standard_normal((1000, 4, 4))
    m20 = sinkhorn_array(raws, iters=20)
    res20 = np.maximum(np.abs(m20.sum(-1) - 1).max(-1), np.abs(m20.sum(-2) - 1).max(-1))
    assert np.median(res20) < 1e-6
    assert res20.max() < 1e-4
    m32 = sinkhorn_array(raws, iters=32)
    res32 = np.maximum(np.abs(m32.sum(-1) - 1).max(-1), np.abs(m32.sum(-2) - 1).max(-1))
    assert res32.max() < 1e-6


def test_residual_monotone_up_to_fp_noise():
    ulp = 2.0 ** -52
    for seed in range(200):
        raw = np.random.default_rng(seed).standard_normal((4, 4))
        r = np.array([ds_residual(sinkhorn_array(raw, iters=k))
                      for k in range(1, 21)])
        assert np.all(np.diff(r) <= ulp), f"seed {seed}"
        # strictly monotone while above the fp noise floor
        above = r > 1e-13
        assert np.all(np.diff(r[above]) <= 0), f"seed {seed}"


def test_column_sums_exact_after_column_last_sweep():
    rng = np.random.default_rng(5)
    m = sinkhorn_array(rng.standard_normal((10, 4, 4)), iters=20)
    col_dev = np.abs(m.sum(axis=-2) - 1.0).max()
    assert col_dev < 1e-14


def test_nonnegativity_exact():
    rng = np.random.default_rng(6)
    m = sinkhorn_array(rng.standard_normal((100, 4, 4)) * 3.0, iters=20)
    assert np.all(m > 0.0)


def test_batched_matches_per_matrix():
    rng = np.random.default_rng(7)
    raws = rng.uniform(-1, 1, size=(5, 4, 4))
    batched = sinkhorn_array(raws, iters=20)
    for i in range(5):
        np.testing.assert_array_equal(batched[i], sinkhorn_array(raws[i], iters=20))


# ---------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------

def test_non_square_rejected():
    with pytest.raises(ShapeError):
        sinkhorn_array(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        sinkhorn_tensor(Tensor(np.zeros((2, 3, 4))))


def test_non_finite_rejected():
    bad = np.zeros((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        sinkhorn_array(bad)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        sinkhorn_tensor(Tensor(bad))


def test_complex_input_rejected():
    """A complex raw matrix never reaches a projection: the numpy entry
    points refuse it, and so does the tensor that would carry it to the
    tape."""
    raw = np.zeros((4, 4)) + 0.1j
    with pytest.raises(ShapeError):
        sinkhorn_array(raw)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((4, 4), dtype=complex))


def test_residual_reads_rows_and_columns():
    """After a column-last sweep only the rows are off, so a projection
    alone never shows whether the residual reads the column sums."""
    rows_exact = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert ds_residual(rows_exact) == 0.5
    assert ds_residual(rows_exact.T) == 0.5


def test_bad_iters_rejected():
    with pytest.raises(ValueError):
        sinkhorn_array(np.zeros((4, 4)), iters=0)


# ---------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_fd(seed):
    rng = np.random.default_rng(100 + seed)
    raw0 = rng.uniform(-1, 1, size=(4, 4))
    w = rng.standard_normal((4, 4))

    t = Tensor(raw0.copy(), requires_grad=True)
    with Tape() as tape:
        m = sinkhorn_tensor(t, iters=20)
        tape.backward(ad.tsum(m * Tensor(w)))
    num = fd_grad(lambda v: float(np.sum(sinkhorn_array(v, iters=20) * w)), raw0.copy())
    err = np.abs(t.grad - num)
    scale = np.maximum(np.abs(num), 1e-12)
    assert np.all((err < 1e-4 * scale) | (err < 1e-7))


# ---------------------------------------------------------------------
# the fused node against the op-by-op tape it replaces
# ---------------------------------------------------------------------

def sinkhorn_ops(raw, iters):
    """The projection as a graph of exp, sum and div tape nodes."""
    m = ad.exp(raw)
    for _ in range(iters):
        m = m / m.sum(axis=-1, keepdims=True)
        m = m / m.sum(axis=-2, keepdims=True)
    return m


def taped_projection(project, raw, w, iters):
    """Value, raw gradient and node count of sum(project(raw) * w)."""
    raw.grad = None
    with Tape() as tape:
        m = project(raw, iters)
        tape.backward(ad.tsum(m * Tensor(w)))
    return m.data, raw.grad, len(tape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("iters", [1, 20])
def test_fused_node_is_bit_identical_to_op_by_op_tape(dtype, iters):
    rng = np.random.default_rng(40)
    raw = Tensor(rng.standard_normal((8, 4, 4)).astype(dtype), requires_grad=True)
    w = rng.standard_normal((8, 4, 4)).astype(dtype)
    want_m, want_g, want_nodes = taped_projection(sinkhorn_ops, raw, w, iters)
    got_m, got_g, got_nodes = taped_projection(sinkhorn_tensor, raw, w, iters)
    assert got_m.dtype == got_g.dtype == dtype
    np.testing.assert_array_equal(got_m, want_m)
    np.testing.assert_array_equal(got_g, want_g)
    # projection + mul + sum
    assert (got_nodes, want_nodes) == (3, 3 + 4 * iters)


@pytest.mark.parametrize("seed", range(3))
def test_batched_fused_gradient_matches_fd(seed):
    w = np.random.default_rng(50 + seed).standard_normal((3, 4, 4))
    check_grad(lambda ts: ad.tsum(sinkhorn_tensor(ts[0], iters=20) * Tensor(w)),
               [(3, 4, 4)], seed=60 + seed)


def test_fused_node_without_tape_records_nothing(monkeypatch):
    raw = np.random.default_rng(41).standard_normal((8, 4, 4)).astype(np.float32)
    want = sinkhorn_ops(Tensor(raw), 20).data

    def no_record(out, backward_fn):
        raise AssertionError("a node was recorded")

    monkeypatch.setattr(ad, "record", no_record)
    got = sinkhorn_tensor(Tensor(raw, requires_grad=True), iters=20)
    np.testing.assert_array_equal(got.data, want)
    assert not got.requires_grad
    with Tape() as tape:
        sinkhorn_tensor(Tensor(raw), iters=20)
    assert len(tape) == 0


# ---------------------------------------------------------------------
# products and spectral norm
# ---------------------------------------------------------------------

def _project(rng):
    return sinkhorn_array(rng.uniform(-1, 1, (4, 4)), iters=20)


def test_compose_24_outputs_row_sums_within_1e4():
    rng = np.random.default_rng(9)
    prod = np.eye(4)
    for _ in range(24):
        prod = _project(rng) @ prod
    assert np.abs(prod.sum(axis=-1) - 1.0).max() < 1e-4
    assert np.abs(prod.sum(axis=-2) - 1.0).max() < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_spectral_norm_bound_and_svd_agreement(seed):
    m = _project(np.random.default_rng(200 + seed))
    assert np.linalg.norm(m, 2) <= 1.0 + 1e-5
