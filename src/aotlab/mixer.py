"""Multi-head Fourier-domain token mixer on the retained modes only.

Let F be the (H*W, R) matrix of DFT rows for the R frequencies the layer
keeps.  Tokens of each channel are carried to those modes by one matmul
with F, a per-head two-layer complex MLP is applied pointwise in frequency
(shared across modes), and one matmul with conj(F)^T / (H*W) carries the
result back; the real part is the output.  Frequencies outside the
retained set are never formed: the operator is the one a full-grid FFT,
the MLP at every frequency, a mode mask and an inverse FFT would give,
but it needs no FFT and the grid may have any extent.

Retention rule: a mode with signed frequency (ky, kx) is kept when
``|ky| < modes`` and ``|kx| < modes`` (``mode_mask``).  The bias vectors
are shared across retained modes.  The activation acts on real and
imaginary parts independently.

When the activation is the identity and the biases are zero the layer is a
matrix-valued Fourier multiplier, hence linear in the input and exactly
equivariant to circular shifts for any weights.  The nonlinear variant
trades that exactness for expressivity, as usual for this family of
mixers.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

ACTIVATIONS = ("gelu", "relu", "identity")


class FourierMixerParams:
    """Complex per-head MLP weights stored as (real, imag) tensor pairs."""

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


def _split_activation(y: Tensor, activation: str) -> Tensor:
    if activation == "identity":
        return y
    act = ad.gelu if activation == "gelu" else ad.relu
    return ad.make_complex(act(ad.real(y)), act(ad.imag(y)))


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
    # F[j, r] = exp(-2 pi i (y_j ky_r / h + x_j kx_r / w)) over retained (ky, kx)
    ky, kx = np.nonzero(mode_mask(h, w, params.modes))
    gy, gx = np.divmod(np.arange(h * w), w)
    f = np.exp(-2j * np.pi * (np.outer(gy, ky) / h + np.outer(gx, kx) / w))
    f = f.astype(np.result_type(z.dtype, np.complex64))
    r = f.shape[1]

    zh = ad.matmul(ad.reshape(z, (b * c, h * w)), Tensor(f))
    # (B*C, R) -> (heads, dh, B*R) for per-head channel contractions
    zh = ad.reshape(zh, (b, heads, dh, r))
    zh = ad.transpose(zh, (1, 2, 0, 3))
    zh = ad.reshape(zh, (heads, dh, b * r))

    w1 = ad.make_complex(params.w1_re, params.w1_im)
    b1 = ad.make_complex(params.b1_re, params.b1_im)
    w2 = ad.make_complex(params.w2_re, params.w2_im)
    b2 = ad.make_complex(params.b2_re, params.b2_im)

    y = ad.bmm(w1, zh) + ad.reshape(b1, (heads, dh, 1))
    y = _split_activation(y, activation)
    y = ad.bmm(w2, y) + ad.reshape(b2, (heads, dh, 1))

    y = ad.reshape(y, (heads, dh, b, r))
    y = ad.transpose(y, (2, 0, 1, 3))
    y = ad.reshape(y, (b * c, r))
    out = ad.real(ad.matmul(y, Tensor(np.conj(f).T / (h * w))))
    return ad.reshape(out, z.shape)
