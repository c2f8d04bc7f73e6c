"""Multi-head Fourier-domain token mixer on the retained modes only.

Let theta[j, r] be the DFT phase of token j at the r-th of the R
frequencies the layer keeps, so the DFT rows are F = cos(theta) -
i sin(theta).  The layer works in real arithmetic throughout: one matmul
with the real (H*W, 2R) table ``[cos | -sin]`` carries the tokens of each
channel to those modes, as ``re`` and ``im`` parts stacked in rows
``[re; im]``.  A per-head two-layer complex MLP is applied pointwise in
frequency (shared across modes); each complex weight acts as one bmm with
the real block ``[[W_re, -W_im], [W_im, W_re]]`` and each bias as the
column ``[b_re; b_im]``.  One matmul with the table's transpose divided by
H*W carries the result back: that is the real part of the inverse DFT.
Frequencies outside the retained set are never formed: the operator is
the one a full-grid FFT, the MLP at every frequency, a mode mask and an
inverse FFT would give, but it needs no FFT and the grid may have any
extent.  The tables are cached per grid, mode count and dtype.

Retention rule: a mode with signed frequency (ky, kx) is kept when
``|ky| < modes`` and ``|kx| < modes`` (``mode_mask``).  The bias vectors
are shared across retained modes.  The activation acts elementwise on the
stacked rows, so on the two parts of each complex value independently.

When the activation is the identity and the biases are zero the layer is a
matrix-valued Fourier multiplier, hence linear in the input and exactly
equivariant to circular shifts for any weights.  The nonlinear variant
trades that exactness for expressivity, as usual for this family of
mixers.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

ACTIVATIONS = ("gelu", "relu", "identity")


class FourierMixerParams:
    """Complex per-head MLP weights stored as (re, im) tensor pairs."""

    def __init__(self, dim, heads, modes, w1_re, w1_im, b1_re, b1_im,
                 w2_re, w2_im, b2_re, b2_im):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.modes = modes
        self.w1_re, self.w1_im = w1_re, w1_im
        self.b1_re, self.b1_im = b1_re, b1_im
        self.w2_re, self.w2_im = w2_re, w2_im
        self.b2_re, self.b2_im = b2_re, b2_im

    @classmethod
    def init(cls, dim: int, heads: int, modes: int, rng: np.random.Generator,
             dtype=np.float64) -> "FourierMixerParams":
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        dh = dim // heads
        scale = 0.02 / np.sqrt(dh)

        def w():
            return Tensor((scale * rng.standard_normal((heads, dh, dh))).astype(dtype),
                          requires_grad=True)

        def b():
            return Tensor(np.zeros((heads, dh), dtype=dtype), requires_grad=True)

        return cls(dim, heads, modes, w(), w(), b(), b(), w(), w(), b(), b())

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.w1_re": self.w1_re, f"{prefix}.w1_im": self.w1_im,
            f"{prefix}.b1_re": self.b1_re, f"{prefix}.b1_im": self.b1_im,
            f"{prefix}.w2_re": self.w2_re, f"{prefix}.w2_im": self.w2_im,
            f"{prefix}.b2_re": self.b2_re, f"{prefix}.b2_im": self.b2_im,
        }


def mode_mask(h: int, w: int, modes: int) -> np.ndarray:
    """(h, w) 0/1 mask of retained frequencies; |k| < modes on both axes."""
    if modes < 1:
        raise ShapeError(f"modes must be >= 1, got {modes}")
    if modes > h or modes > w:
        raise ShapeError(f"modes {modes} exceeds grid extent ({h}, {w})")

    def axis_keep(n):
        j = np.arange(n)
        return np.minimum(j, n - j) < modes

    return (axis_keep(h)[:, None] & axis_keep(w)[None, :]).astype(np.float64)


@functools.lru_cache(maxsize=64)
def _tables(h: int, w: int, modes: int, dtype: np.dtype) -> tuple:
    """Read-only forward table ``[cos | -sin]`` of shape (h*w, 2R) over the
    R retained modes, and its inverse, the transpose divided by h*w."""
    # theta[j, r] = 2 pi (y_j ky_r / h + x_j kx_r / w); F = exp(-i theta)
    ky, kx = np.nonzero(mode_mask(h, w, modes))
    gy, gx = np.divmod(np.arange(h * w), w)
    theta = 2 * np.pi * (np.outer(gy, ky) / h + np.outer(gx, kx) / w)
    fwd = np.concatenate([np.cos(theta), -np.sin(theta)], axis=1).astype(dtype)
    inv = np.ascontiguousarray(fwd.T / (h * w))
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


def _complex_weight(w_re: Tensor, w_im: Tensor) -> Tensor:
    """(heads, 2*dh, 2*dh) real block [[W_re, -W_im], [W_im, W_re]]: one bmm
    with it applies W to rows stacked as [re; im]."""
    left = ad.concat([w_re, w_im], axis=1)
    right = ad.concat([ad.neg(w_im), w_re], axis=1)
    return ad.concat([left, right], axis=2)


def _complex_bias(b_re: Tensor, b_im: Tensor) -> Tensor:
    heads, dh = b_re.shape
    return ad.reshape(ad.concat([b_re, b_im], axis=1), (heads, 2 * dh, 1))


def fourier_mix(z: Tensor, params: FourierMixerParams, activation: str = "gelu") -> Tensor:
    """Mix tokens of a (B, C, H, W) or (C, H, W) field; returns same shape."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}; options: {ACTIVATIONS}")
    z = ad.as_tensor(z)
    if z.ndim not in (3, 4):
        raise ShapeError(f"fourier_mix expects (B, C, H, W) or (C, H, W), got {z.shape}")
    b = z.shape[0] if z.ndim == 4 else 1
    c, h, w = z.shape[-3:]
    if c != params.dim:
        raise ShapeError(f"channel count {c} does not match mixer dim {params.dim}")
    heads = params.heads
    dh = c // heads
    fwd, inv = _tables(h, w, params.modes, z.dtype)
    r = fwd.shape[1] // 2

    zh = ad.matmul(ad.reshape(z, (b * c, h * w)), Tensor(fwd))
    # (B*C, [re | im] x R) -> (heads, [re; im] x dh, B*R)
    zh = ad.reshape(zh, (b, heads, dh, 2, r))
    zh = ad.transpose(zh, (1, 3, 2, 0, 4))
    zh = ad.reshape(zh, (heads, 2 * dh, b * r))

    p = params
    y = ad.bmm(_complex_weight(p.w1_re, p.w1_im), zh) + _complex_bias(p.b1_re, p.b1_im)
    if activation != "identity":
        y = (ad.gelu if activation == "gelu" else ad.relu)(y)
    y = ad.bmm(_complex_weight(p.w2_re, p.w2_im), y) + _complex_bias(p.b2_re, p.b2_im)

    y = ad.reshape(y, (heads, 2, dh, b, r))
    y = ad.transpose(y, (3, 0, 2, 1, 4))
    y = ad.reshape(y, (b * c, 2 * r))
    return ad.reshape(ad.matmul(y, Tensor(inv)), z.shape)
