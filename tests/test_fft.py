"""In-house FFT against a naive O(n^2) DFT oracle, plus identities."""

import numpy as np
import pytest

from aotlab import fft
from aotlab.errors import ShapeError


# ---------------------------------------------------------------------
# oracle: direct summation DFT, no shared code with the implementation
# ---------------------------------------------------------------------

def dft1_oracle(x):
    n = x.shape[-1]
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return x @ w.T


def dft2_oracle(x):
    h, w = x.shape[-2], x.shape[-1]
    out = dft1_oracle(x)
    out = dft1_oracle(out.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert out.shape[-2:] == (h, w)
    return out


def test_bit_reversal_small():
    np.testing.assert_array_equal(fft.bit_reversal_permutation(1), [0])
    np.testing.assert_array_equal(fft.bit_reversal_permutation(2), [0, 1])
    np.testing.assert_array_equal(fft.bit_reversal_permutation(4), [0, 2, 1, 3])
    np.testing.assert_array_equal(fft.bit_reversal_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7])


def test_bit_reversal_is_involution():
    for n in (16, 64, 256):
        rev = fft.bit_reversal_permutation(n)
        np.testing.assert_array_equal(rev[rev], np.arange(n))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_fft1_matches_dft_oracle(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(fft.fft1_array(x), dft1_oracle(x), atol=1e-11)


@pytest.mark.parametrize("h,w", [(1, 1), (2, 4), (4, 4), (8, 8), (16, 16), (8, 16)])
def test_fft2_matches_dft_oracle(h, w):
    rng = np.random.default_rng(h * 100 + w)
    x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    np.testing.assert_allclose(fft.fft2_array(x), dft2_oracle(x), atol=1e-10)


def test_fft2_vectorizes_over_leading_axes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 2, 8, 8)) + 1j * rng.standard_normal((3, 2, 8, 8))
    batched = fft.fft2_array(x)
    for i in range(3):
        for j in range(2):
            np.testing.assert_allclose(batched[i, j], fft.fft2_array(x[i, j]), atol=1e-12)


@pytest.mark.parametrize("h,w", [(4, 4), (16, 16), (64, 64), (32, 64)])
def test_round_trip(h, w):
    rng = np.random.default_rng(h + w)
    x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    np.testing.assert_allclose(fft.ifft2_array(fft.fft2_array(x)), x, atol=1e-10)
    np.testing.assert_allclose(fft.fft2_array(fft.ifft2_array(x)), x, atol=1e-10)


@pytest.mark.parametrize("h,w", [(8, 8), (32, 32), (64, 64)])
def test_parseval(h, w):
    rng = np.random.default_rng(h * w)
    x = rng.standard_normal((h, w))
    xh = fft.fft2_array(x)
    energy_space = np.sum(np.abs(x) ** 2)
    energy_freq = np.sum(np.abs(xh) ** 2) / (h * w)
    assert abs(energy_space - energy_freq) <= 1e-10 * energy_space


def test_real_input_conjugate_symmetry():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((8, 8))
    xh = fft.fft2_array(x)
    # X[-k] = conj(X[k]) for real input
    flipped = xh[np.ix_((-np.arange(8)) % 8, (-np.arange(8)) % 8)]
    np.testing.assert_allclose(flipped, np.conj(xh), atol=1e-11)


def test_non_power_of_two_rejected():
    with pytest.raises(ShapeError):
        fft.fft1_array(np.zeros(12))
    with pytest.raises(ShapeError):
        fft.fft2_array(np.zeros((6, 8)))
    with pytest.raises(ShapeError):
        fft.fft2_array(np.zeros((8, 10)))
    with pytest.raises(ShapeError):
        fft.fft1_array(np.zeros(0))


def test_shift_theorem():
    """Circular shift in space multiplies the spectrum by a phase."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((16, 16))
    for dy, dx in [(1, 0), (0, 3), (5, 7)]:
        shifted = np.roll(np.roll(x, dy, axis=0), dx, axis=1)
        k = np.arange(16)
        phase = np.exp(-2j * np.pi * (np.add.outer(k * dy, k * dx)) / 16)
        np.testing.assert_allclose(
            fft.fft2_array(shifted), fft.fft2_array(x) * phase, atol=1e-10
        )


# ---------------------------------------------------------------------
# adjoint and precision
# ---------------------------------------------------------------------

def test_fft2_adjoint_identity():
    """<F x, y> == <x, F^H y>, F^H being n times the normalized inverse."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lhs = np.vdot(y, fft.fft2_array(x))
    rhs = np.vdot(fft.ifft2_array(y) * 64, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_float32_input_stays_single_precision():
    x = np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32)
    assert fft.fft2_array(x).dtype == np.complex64
    assert fft.fft2_array(x.astype(np.float64)).dtype == np.complex128
