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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def _check_input(data: np.ndarray, iters: int) -> None:
    if data.dtype.kind == "c":
        raise ShapeError(f"sinkhorn needs real matrices, got {data.dtype}")
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

    def bwd(g, acc):
        # Each sweep is m_rows = m_in / rows, m = m_rows / cols.  Per div
        # node the tape first stores g / divisor for the numerator, then
        # the sum node adds the divisor's broadcast gradient, the sum of
        # -g * numerator / divisor**2.  Negation is exact and commutes
        # with every rounding here, so subtracting the sum of g *
        # numerator / divisor**2 gives the same bits with one pass less.
        ins = [e] + [m for *_, m in steps[:-1]]
        for m_in, (rows, m_rows, cols, _) in zip(reversed(ins), reversed(steps)):
            g = g / cols - (g * m_rows / (cols * cols)).sum(axis=-2, keepdims=True)
            g = g / rows - (g * m_in / (rows * rows)).sum(axis=-1, keepdims=True)
        acc(raw, g * e)

    return ad.node(steps[-1][-1], bwd, raw)


def ds_residual(matrix: np.ndarray) -> float:
    """Max absolute deviation of any row or column sum from 1."""
    row_dev = np.abs(matrix.sum(axis=-1) - 1.0).max()
    col_dev = np.abs(matrix.sum(axis=-2) - 1.0).max()
    return float(max(row_dev, col_dev))
