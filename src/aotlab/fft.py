"""Radix-2 two-dimensional FFT with tape-aware wrappers.

The transform is written from scratch (iterative Cooley-Tukey over the last
axis, vectorized across all leading axes) and only accepts power-of-two
lengths; anything else raises ``ShapeError`` rather than silently falling
back to a slower algorithm.

Conventions match the usual DFT pair: the forward transform is
unnormalized, ``X_k = sum_j x_j exp(-2 pi i j k / n)``, and the inverse
carries the full ``1/(H W)`` factor, so ``ifft2(fft2(x)) == x``.

Because the transform is a C-linear map, its backward rule under the
(real, imag) gradient pair convention is the adjoint: the adjoint of the
unnormalized forward DFT is ``n`` times the normalized inverse, and vice
versa.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index permutation that orders 0..n-1 by reversed bit patterns."""
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
    return rev


def _check_pow2(n: int, axis_name: str) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError(f"FFT requires power-of-two extents, got {axis_name}={n}")


def _fft_last_axis(x: np.ndarray, sign: int) -> np.ndarray:
    """Unnormalized DFT along the last axis; sign=-1 forward, +1 inverse."""
    n = x.shape[-1]
    _check_pow2(n, "n")
    ctype = np.result_type(x.dtype, np.complex64)
    y = np.ascontiguousarray(x[..., bit_reversal_permutation(n)], dtype=ctype)
    half = 1
    while half < n:
        step = 2 * half
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / step).astype(ctype)
        y = y.reshape(y.shape[:-1] + (n // step, step))
        even = y[..., :half].copy()
        odd = y[..., half:] * twiddle
        y[..., :half] = even + odd
        y[..., half:] = even - odd
        y = y.reshape(y.shape[:-2] + (n,))
        half = step
    return y


def fft1_array(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT along the last axis (numpy in/out)."""
    return _fft_last_axis(np.asarray(x), sign=-1)


def fft2_array(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT over the last two axes (numpy in/out)."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"fft2 needs at least 2 axes, got shape {x.shape}")
    y = _fft_last_axis(x, sign=-1)
    y = _fft_last_axis(y.swapaxes(-1, -2), sign=-1)
    return np.ascontiguousarray(y.swapaxes(-1, -2))


def ifft2_array(x: np.ndarray) -> np.ndarray:
    """Normalized inverse FFT over the last two axes (numpy in/out)."""
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"ifft2 needs at least 2 axes, got shape {x.shape}")
    y = _fft_last_axis(x, sign=+1)
    y = _fft_last_axis(y.swapaxes(-1, -2), sign=+1)
    return np.ascontiguousarray(y.swapaxes(-1, -2)) / (x.shape[-1] * x.shape[-2])


def fft2(a) -> Tensor:
    """Tape-aware forward 2-D FFT over the last two axes."""
    a = ad.as_tensor(a)
    out = Tensor(fft2_array(a.data), requires_grad=ad.tracking(a))
    hw = a.shape[-1] * a.shape[-2]

    def bwd(g, acc):
        # adjoint of the unnormalized forward transform
        acc(a, ifft2_array(g) * hw)

    ad.record(out, bwd)
    return out


def ifft2(a) -> Tensor:
    """Tape-aware inverse 2-D FFT over the last two axes."""
    a = ad.as_tensor(a)
    out = Tensor(ifft2_array(a.data), requires_grad=ad.tracking(a))
    hw = a.shape[-1] * a.shape[-2]

    def bwd(g, acc):
        acc(a, fft2_array(g) / hw)

    ad.record(out, bwd)
    return out
