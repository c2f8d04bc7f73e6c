"""Sinkhorn-Knopp projection onto (a neighborhood of) the Birkhoff polytope.

The raw matrix is mapped to strict positivity by an elementwise exp, then
rows and columns are alternately normalized for a fixed number of sweeps.
The sweep order is pinned: row normalization first, column normalization
last, so after any whole number of sweeps the column sums are exact to
floating point and the row sums carry the residual.

``sinkhorn_tensor`` is one fused tape node.  Its forward runs the same
numpy sweeps as ``sinkhorn_array`` and keeps each sweep's row and column
sums and normalized matrices.  Its backward replays, in reverse, exactly
the numpy operations the tape would run for the unrolled graph of ``exp``,
``sum`` and ``div`` nodes, including the order in which the two
contributions to each sweep's input are added.  Values and gradients are
therefore bit-identical to the op-by-op tape, while a projection costs one
node instead of 1 + 4 * iters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


@dataclass
class DoublyStochastic:
    """A (near-)doubly stochastic matrix with its projection metadata.

    ``matrix`` holds a Tensor so the differentiable path can carry tape
    history; use ``array`` for plain numpy access.  ``residual`` is the
    largest absolute deviation of any row or column sum from 1.
    """

    matrix: Tensor
    iters_used: int
    residual: float

    @property
    def array(self) -> np.ndarray:
        return self.matrix.data

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]


def _check_input(data: np.ndarray, iters: int) -> None:
    if data.ndim < 2 or data.shape[-1] != data.shape[-2]:
        raise ShapeError(f"sinkhorn needs square matrices, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("sinkhorn input must be finite")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")


def _sweeps(m: np.ndarray, iters: int):
    """Yield ``(row_sums, row_normalized, col_sums, m)`` for each
    row-then-column sweep, ``m`` being the matrix after the sweep."""
    for _ in range(iters):
        rows = m.sum(axis=-1, keepdims=True)
        m_rows = m / rows
        cols = m_rows.sum(axis=-2, keepdims=True)
        m = m_rows / cols
        yield rows, m_rows, cols, m


def _project(e: np.ndarray, iters: int) -> np.ndarray:
    for *_, m in _sweeps(e, iters):
        pass
    return m


def sinkhorn_array(raw: np.ndarray, iters: int = 20) -> np.ndarray:
    """Numpy-only projection of (..., n, n) raw matrices; column-last order."""
    raw = np.asarray(raw, dtype=np.result_type(raw, np.float64))
    _check_input(raw, iters)
    return _project(np.exp(raw), iters)


def sinkhorn_tensor(raw: Tensor, iters: int = 20) -> Tensor:
    """Tape-differentiable projection of (..., n, n) raw matrices, recorded
    as a single node (see the module docstring)."""
    raw = ad.as_tensor(raw)
    _check_input(raw.data, iters)
    e = np.exp(raw.data)
    if not ad.tracking(raw):
        return Tensor(_project(e, iters))
    steps = list(_sweeps(e, iters))
    out = Tensor(steps[-1][-1], requires_grad=True)

    def bwd(g, acc):
        # Each sweep is m_rows = m_in / rows, m = m_rows / cols.  Per div
        # node the tape first stores g / divisor for the numerator, then
        # the sum node adds the divisor's broadcast gradient.
        ins = [e] + [m for *_, m in steps[:-1]]
        for m_in, (rows, m_rows, cols, _) in zip(reversed(ins), reversed(steps)):
            g_cols = ad._unbroadcast(-g * m_rows / (cols * cols), cols.shape)
            g = g / cols + g_cols
            g_rows = ad._unbroadcast(-g * m_in / (rows * rows), rows.shape)
            g = g / rows + g_rows
        acc(raw, g * e)

    ad.record(out, bwd)
    return out


def ds_residual(matrix: np.ndarray) -> float:
    """Max absolute deviation of any row or column sum from 1."""
    row_dev = np.abs(matrix.sum(axis=-1) - 1.0).max()
    col_dev = np.abs(matrix.sum(axis=-2) - 1.0).max()
    return float(max(row_dev, col_dev))


def sinkhorn_project(raw, iters: int = 20, differentiable: bool = False) -> DoublyStochastic:
    """Project one n x n raw matrix; see module docstring for conventions."""
    if differentiable:
        t = sinkhorn_tensor(ad.as_tensor(raw), iters=iters)
    else:
        data = raw.data if isinstance(raw, Tensor) else raw
        t = Tensor(sinkhorn_array(data, iters=iters))
    if t.ndim != 2:
        raise ShapeError(f"sinkhorn_project takes a single matrix, got shape {t.shape}")
    return DoublyStochastic(matrix=t, iters_used=iters, residual=ds_residual(t.data))


def sinkhorn_residual_trace(raw: np.ndarray, iters: int = 20) -> np.ndarray:
    """Residual after each full sweep, shape (iters,), batched over raw."""
    raw = np.asarray(raw, dtype=np.result_type(raw, np.float64))
    _check_input(raw, iters)
    return np.array([ds_residual(m) for *_, m in _sweeps(np.exp(raw), iters)])


def ds_compose(chain: list) -> DoublyStochastic:
    """Ordered product of doubly stochastic matrices.

    ``chain[i]`` is applied after ``chain[i-1]``, so the product matrix is
    ``chain[-1] @ ... @ chain[0]``.  The residual is measured on the
    product; ``iters_used`` sums the constituents'.
    """
    if not chain:
        raise ValueError("ds_compose needs a non-empty chain")
    n = chain[0].n
    for ds in chain:
        if ds.n != n:
            raise ShapeError(f"ds_compose dimension mismatch: {ds.n} vs {n}")
    prod = chain[0].array
    for ds in chain[1:]:
        prod = ds.array @ prod
    return DoublyStochastic(
        matrix=Tensor(prod),
        iters_used=sum(ds.iters_used for ds in chain),
        residual=ds_residual(prod),
    )


def spectral_norm_bound_check(m: DoublyStochastic, steps: int = 100, tol: float = 1e-10) -> float:
    """Largest singular value via power iteration on M^T M.

    Starts from the all-ones direction, which has positive overlap with the
    top singular vector of any nonnegative matrix.
    """
    a = m.array
    v = np.ones(a.shape[-1]) / np.sqrt(a.shape[-1])
    sigma = 0.0
    for _ in range(steps):
        w = a.T @ (a @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_sigma = np.linalg.norm(a @ v)
        if abs(new_sigma - sigma) < tol:
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)
