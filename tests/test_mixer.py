"""Fourier token mixer: multiplier identities, truncation, gradients."""

import numpy as np
import pytest

from aotlab import autodiff as ad
from aotlab import fft
from aotlab.autodiff import Tape, Tensor
from aotlab.errors import ShapeError
from aotlab.mixer import FourierMixerParams, _tables, fourier_mix, mode_mask

from test_tensor import fd_grad


def make_params(dim, heads, modes, seed=0, scale=1.0, zero_bias=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    p = FourierMixerParams.init(dim, heads, modes, rng, dtype=dtype)
    for name, t in p.named("m").items():
        if "w" in name.rsplit(".", 1)[-1]:
            t.data = t.data * (scale / 0.02)
        elif not zero_bias:
            t.data = (rng.standard_normal(t.shape) * 0.1).astype(t.data.dtype)
    return p


def gelu_np(v):
    t = np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3))
    return 0.5 * v * (1 + t)


def fft_mask_reference(z, params, activation="gelu"):
    """The full-grid mixer in numpy, kept as the value oracle: radix-2 FFT
    of the whole token grid, the complex MLP at every frequency, the mode
    mask, the inverse FFT and the real part.  Power-of-two grids only."""
    b, c, h, w = z.shape
    heads, dh = params.heads, c // params.heads
    p = {name.rsplit(".", 1)[-1]: t.data for name, t in params.named("m").items()}

    def layer(x, k):
        wc = p[f"w{k}_re"] + 1j * p[f"w{k}_im"]
        bc = p[f"b{k}_re"] + 1j * p[f"b{k}_im"]
        return np.einsum("gij,bgjyx->bgiyx", wc, x) + bc[None, :, :, None, None]

    y = layer(fft.fft2_array(z.astype(complex)).reshape(b, heads, dh, h, w), 1)
    if activation != "identity":
        act = gelu_np if activation == "gelu" else (lambda v: np.maximum(v, 0.0))
        y = act(y.real) + 1j * act(y.imag)
    y = layer(y, 2).reshape(b, c, h, w) * mode_mask(h, w, params.modes)
    return fft.ifft2_array(y).real


def real_graph_reference(z, params, activation="gelu"):
    """The mixer as a real op-by-op tape graph, kept as the gradient
    oracle: separate cosine and sine DFT matmuls, and each complex layer
    as four real bmms on separate re and im rows, with no concat."""
    b, c, h, w = z.shape
    heads, dh = params.heads, c // params.heads
    ky, kx = np.nonzero(mode_mask(h, w, params.modes))
    r = ky.size
    gy, gx = np.divmod(np.arange(h * w), w)
    theta = 2 * np.pi * (np.outer(gy, ky) / h + np.outer(gx, kx) / w)

    def to_heads(t):  # (B*C, R) -> (heads, dh, B*R)
        t = ad.transpose(ad.reshape(t, (b, heads, dh, r)), (1, 2, 0, 3))
        return ad.reshape(t, (heads, dh, b * r))

    def from_heads(t):  # (heads, dh, B*R) -> (B*C, R)
        t = ad.transpose(ad.reshape(t, (heads, dh, b, r)), (2, 0, 1, 3))
        return ad.reshape(t, (b * c, r))

    def layer(re, im, w_re, w_im, b_re, b_im):
        b_re = ad.reshape(b_re, (heads, dh, 1))
        b_im = ad.reshape(b_im, (heads, dh, 1))
        return (ad.bmm(w_re, re) - ad.bmm(w_im, im) + b_re,
                ad.bmm(w_im, re) + ad.bmm(w_re, im) + b_im)

    flat = ad.reshape(z, (b * c, h * w))
    re = to_heads(ad.matmul(flat, Tensor(np.cos(theta))))
    im = to_heads(ad.matmul(flat, Tensor(-np.sin(theta))))
    p = params
    re, im = layer(re, im, p.w1_re, p.w1_im, p.b1_re, p.b1_im)
    if activation != "identity":
        act = ad.gelu if activation == "gelu" else ad.relu
        re, im = act(re), act(im)
    re, im = layer(re, im, p.w2_re, p.w2_im, p.b2_re, p.b2_im)
    # Re((re + i im) conj(F)^T) with conj(F) = cos + i sin
    out = (ad.matmul(from_heads(re), Tensor(np.cos(theta).T))
           - ad.matmul(from_heads(im), Tensor(np.sin(theta).T)))
    return ad.reshape(out * (1.0 / (h * w)), z.shape)


def identity_params(dim, heads, modes):
    dh = dim // heads
    eye = np.broadcast_to(np.eye(dh), (heads, dh, dh)).copy()
    zero_w = np.zeros((heads, dh, dh))
    zero_b = np.zeros((heads, dh))
    return FourierMixerParams(
        dim, heads, modes,
        Tensor(eye.copy()), Tensor(zero_w.copy()), Tensor(zero_b.copy()), Tensor(zero_b.copy()),
        Tensor(eye.copy()), Tensor(zero_w.copy()), Tensor(zero_b.copy()), Tensor(zero_b.copy()),
    )


# ---------------------------------------------------------------------
# mode mask
# ---------------------------------------------------------------------

def test_mode_mask_small_grid():
    m = mode_mask(4, 4, 2)
    # per axis keep signed |k| < 2: indices 0, 1, 3 (Nyquist k=2 dropped)
    keep = np.array([1, 1, 0, 1], dtype=float)
    np.testing.assert_array_equal(m, np.outer(keep, keep))


def test_mode_mask_full_and_dc_only():
    assert mode_mask(8, 8, 8).min() == 1.0
    dc = mode_mask(8, 8, 1)
    assert dc.sum() == 1.0 and dc[0, 0] == 1.0


def test_mode_mask_bounds():
    with pytest.raises(ShapeError):
        mode_mask(8, 8, 0)
    with pytest.raises(ShapeError):
        mode_mask(8, 8, 9)


# ---------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------

def test_identity_weights_full_modes_round_trip():
    rng = np.random.default_rng(1)
    z = Tensor(rng.standard_normal((4, 8, 8)))
    out = fourier_mix(z, identity_params(4, 2, 8), activation="identity")
    np.testing.assert_allclose(out.numpy(), z.numpy(), atol=1e-9)


def test_zero_input_bias_path_closed_form():
    """Zero input leaves only the bias path: the output is the inverse
    transform of (W2 sigma(b1) + b2) placed on every retained mode, which
    we evaluate here by a direct exponential sum, on square, odd and
    rectangular grids."""
    dim, heads, modes = 4, 2, 2
    p = make_params(dim, heads, modes, seed=3)
    dh = dim // heads
    w2 = p.w2_re.data + 1j * p.w2_im.data
    b1 = p.b1_re.data + 1j * p.b1_im.data
    b2 = p.b2_re.data + 1j * p.b2_im.data

    sb1 = gelu_np(b1.real) + 1j * gelu_np(b1.imag)
    coef = np.einsum("hij,hj->hi", w2, sb1) + b2  # per-channel spectrum value
    for h, w in [(8, 8), (3, 3), (6, 4)]:
        out = fourier_mix(Tensor(np.zeros((dim, h, w))), p, activation="gelu").numpy()
        mask = mode_mask(h, w, modes)
        expect = np.zeros((dim, h, w))
        for ky in range(h):
            for kx in range(w):
                if not mask[ky, kx]:
                    continue
                phase = np.exp(2j * np.pi * np.add.outer(ky * np.arange(h) / h,
                                                         kx * np.arange(w) / w))
                for h_i in range(heads):
                    for ci in range(dh):
                        expect[h_i * dh + ci] += (coef[h_i, ci] * phase).real
        expect /= h * w
        np.testing.assert_allclose(out, expect, atol=1e-10, err_msg=f"grid {h}x{w}")


@pytest.mark.parametrize("seed", range(20))
def test_shift_equivariance_multiplier_regime(seed):
    """Zero-bias identity-activation mixers are Fourier multipliers and
    commute with circular shifts exactly, on any grid extent."""
    rng = np.random.default_rng(seed)
    p = make_params(4, 2, 3, seed=seed, zero_bias=True)
    for n in (8, 6):
        z = rng.standard_normal((4, n, n))
        dy, dx = rng.integers(0, n, size=2)
        out = fourier_mix(Tensor(z), p, activation="identity").numpy()
        out_shifted = fourier_mix(
            Tensor(np.roll(np.roll(z, dy, axis=1), dx, axis=2)), p, activation="identity"
        ).numpy()
        np.testing.assert_allclose(out_shifted,
                                   np.roll(np.roll(out, dy, axis=1), dx, axis=2), atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_linearity_multiplier_regime(seed):
    rng = np.random.default_rng(100 + seed)
    p = make_params(4, 2, 3, seed=seed, zero_bias=True)
    x = rng.standard_normal((4, 8, 8))
    y = rng.standard_normal((4, 8, 8))
    alpha, beta = rng.standard_normal(2)
    mixed = fourier_mix(Tensor(alpha * x + beta * y), p, activation="identity").numpy()
    separate = (alpha * fourier_mix(Tensor(x), p, activation="identity").numpy()
                + beta * fourier_mix(Tensor(y), p, activation="identity").numpy())
    np.testing.assert_allclose(mixed, separate, atol=1e-9)


# ---------------------------------------------------------------------
# truncation and structure
# ---------------------------------------------------------------------

def test_truncated_modes_are_zeroed():
    p = make_params(4, 2, 1, seed=5)
    rng = np.random.default_rng(6)
    out = fourier_mix(Tensor(rng.standard_normal((4, 8, 8))), p).numpy()
    spectrum = fft.fft2_array(out.astype(complex))
    spectrum[:, 0, 0] = 0.0  # only DC retained at modes=1
    assert np.abs(spectrum).max() < 1e-10


def test_head_independence():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 8, 8))
    p = make_params(4, 2, 3, seed=8)
    base = fourier_mix(Tensor(z), p).numpy()
    p.w1_re.data = p.w1_re.data.copy()
    p.w1_re.data[1] += 1.0  # perturb second head only
    p.b2_im.data = p.b2_im.data.copy()
    p.b2_im.data[1] -= 0.3
    bumped = fourier_mix(Tensor(z), p).numpy()
    np.testing.assert_array_equal(bumped[:2], base[:2])
    assert np.abs(bumped[2:] - base[2:]).max() > 1e-6


def test_batched_matches_per_sample():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 4, 8, 8))
    p = make_params(4, 2, 3, seed=10)
    batched = fourier_mix(Tensor(z), p).numpy()
    for i in range(3):
        np.testing.assert_allclose(batched[i], fourier_mix(Tensor(z[i]), p).numpy(),
                                   atol=1e-12)


def test_output_is_real_and_same_shape():
    p = make_params(8, 4, 2, seed=11)
    out = fourier_mix(Tensor(np.random.default_rng(0).standard_normal((2, 8, 4, 4))), p)
    assert out.dtype == np.float64
    assert out.shape == (2, 8, 4, 4)


def test_single_precision_path():
    p = make_params(4, 2, 2, seed=12, dtype=np.float32)
    z = Tensor(np.random.default_rng(1).standard_normal((4, 4, 4)).astype(np.float32))
    assert fourier_mix(z, p).dtype == np.float32
    assert fourier_mix(Tensor(z.data[None]), p).dtype == np.float32


def test_tables_are_cached_read_only_per_dtype():
    fwd, inv = _tables(4, 6, 2, np.dtype(np.float32))
    assert _tables(4, 6, 2, np.dtype(np.float32))[0] is fwd
    assert fwd.shape == (24, 2 * 9) and inv.shape == (2 * 9, 24)
    assert fwd.dtype == inv.dtype == np.float32
    assert _tables(4, 6, 2, np.dtype(np.float64))[0].dtype == np.float64
    for table in (fwd, inv):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_shape_errors():
    p = make_params(4, 2, 2, seed=13)
    with pytest.raises(ShapeError):
        fourier_mix(Tensor(np.zeros((6, 8, 8))), p)  # wrong channel count
    with pytest.raises(ShapeError):
        fourier_mix(Tensor(np.zeros((4, 8))), p)  # no grid axes
    with pytest.raises(ShapeError):
        FourierMixerParams.init(6, 4, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fourier_mix(Tensor(np.zeros((4, 8, 8))), p, activation="tanh")


# ---------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------

@pytest.mark.parametrize("activation", ["gelu", "identity", "relu"])
def test_gradient_all_weight_tensors(activation):
    rng = np.random.default_rng(20)
    dim, heads, modes, n = 4, 2, 2, 4
    z0 = rng.standard_normal((dim, n, n))
    w = rng.standard_normal((dim, n, n))
    p = make_params(dim, heads, modes, seed=21)
    if activation == "relu":
        # keep pre-activation values away from the kink
        for name, t in p.named("m").items():
            if name.endswith(("b1_re", "b1_im")):
                t.data = t.data + 2.0
    names = list(p.named("m"))
    for t in p.named("m").values():
        t.requires_grad = True

    zt = Tensor(z0.copy(), requires_grad=True)
    with Tape() as tape:
        out = fourier_mix(zt, p, activation=activation)
        tape.backward(ad.tsum(out * Tensor(w)))

    def loss_at(name, arr):
        saved = p.named("m")[name].data
        p.named("m")[name].data = arr
        val = float(np.sum(fourier_mix(Tensor(z0), p, activation=activation).numpy() * w))
        p.named("m")[name].data = saved
        return val

    for name in names:
        t = p.named("m")[name]
        num = fd_grad(lambda a, nm=name: loss_at(nm, a), t.data.copy())
        err = np.abs(t.grad - num)
        scale = np.maximum(np.abs(num), 1e-12)
        assert np.all((err < 1e-4 * scale) | (err < 1e-7)), f"{name} grad mismatch"

    num = fd_grad(
        lambda a: float(np.sum(fourier_mix(Tensor(a), p, activation=activation).numpy() * w)),
        z0.copy(),
    )
    err = np.abs(zt.grad - num)
    assert np.all((err < 1e-4 * np.maximum(np.abs(num), 1e-12)) | (err < 1e-7))


# ---------------------------------------------------------------------
# real-table path against the full-grid FFT-plus-mask and op-by-op oracles
# ---------------------------------------------------------------------

@pytest.mark.parametrize("activation", ["gelu", "relu", "identity"])
@pytest.mark.parametrize("grid, modes", [((4, 4), 2), ((4, 8), 3), ((8, 8), 1),
                                         ((4, 4), 4), ((8, 4), 4)])
def test_matches_fft_mask_oracle(activation, grid, modes):
    rng = np.random.default_rng(30)
    z = rng.standard_normal((2, 4) + grid)
    p = make_params(4, 2, modes, seed=31)
    np.testing.assert_allclose(fourier_mix(Tensor(z), p, activation=activation).numpy(),
                               fft_mask_reference(z, p, activation), rtol=0, atol=1e-10)


@pytest.mark.parametrize("activation", ["gelu", "relu", "identity"])
@pytest.mark.parametrize("grid, modes", [((4, 4), 2), ((4, 8), 3), ((3, 5), 2),
                                         ((6, 6), 3), ((8, 4), 4)])
def test_gradients_match_real_graph_oracle(activation, grid, modes):
    rng = np.random.default_rng(32)
    z0 = rng.standard_normal((2, 8) + grid)
    w = rng.standard_normal((2, 8) + grid)
    p = make_params(8, 2, modes, seed=33, scale=0.5)
    params = p.named("m")

    def run(mix):
        z = Tensor(z0.copy(), requires_grad=True)
        with Tape() as tape:
            out = mix(z, p, activation=activation)
            tape.backward(ad.tsum(out * Tensor(w)))
        grads = {name: t.grad for name, t in params.items()}
        for t in params.values():
            t.grad = None
        return out.numpy(), z.grad, grads

    out, gz, grads = run(fourier_mix)
    ref_out, ref_gz, ref_grads = run(real_graph_reference)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gz, ref_gz, rtol=0, atol=1e-10)
    assert len(grads) == 8
    for name in params:
        assert np.abs(ref_grads[name]).max() > 1e-3 or name.endswith("b2_im"), name
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-10,
                                   err_msg=name)
