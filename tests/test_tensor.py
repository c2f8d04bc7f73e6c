"""Autodiff core: value oracles and finite-difference gradient checks."""

import zlib

import numpy as np
import pytest

from aotlab import autodiff as ad
from aotlab.autodiff import Tape, Tensor
from aotlab.errors import ShapeError


# ---------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------

def broadcast_oracle(a, b, op):
    """Elementwise op under numpy broadcasting rules, computed by explicit
    index expansion (no reliance on numpy's broadcast machinery)."""
    sa, sb = a.shape, b.shape
    ndim = max(len(sa), len(sb))
    sa = (1,) * (ndim - len(sa)) + sa
    sb = (1,) * (ndim - len(sb)) + sb
    out_shape = []
    for da, db in zip(sa, sb):
        if da != db and 1 not in (da, db):
            raise ValueError("incompatible")
        out_shape.append(max(da, db))
    out = np.empty(out_shape, dtype=np.result_type(a, b))
    ar = a.reshape(sa)
    br = b.reshape(sb)
    for idx in np.ndindex(*out_shape):
        ia = tuple(i if d > 1 else 0 for i, d in zip(idx, sa))
        ib = tuple(i if d > 1 else 0 for i, d in zip(idx, sb))
        out[idx] = op(ar[ia], br[ib])
    return out


def matmul_oracle(a, b):
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(k):
                s = s + a[i, t] * b[t, j]
            out[i, j] = s
    return out


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at real array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grad(build, shapes, seed, h=1e-6, rel=1e-4, abs_floor=1e-7):
    """FD-check d(scalar)/d(input) for every input of ``build``.

    ``build`` maps a list of Tensors to a scalar Tensor and must be built
    from tape primitives only.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(tensors)
        tape.backward(loss)
    for i, (arr, ten) in enumerate(zip(arrays, tensors)):
        def f(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            with Tape():
                return build([Tensor(v) for v in vals]).item()
        num = fd_grad(f, arr.copy(), h=h)
        got = ten.grad
        assert got is not None, f"input {i} has no grad"
        err = np.abs(got - num)
        scale = np.maximum(np.abs(num), np.abs(got))
        bad = (err > abs_floor) & (err > rel * np.maximum(scale, 1e-12))
        assert not bad.any(), f"input {i}: max rel err {np.max(err / np.maximum(scale, 1e-300))}"


# ---------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------

BROADCAST_SHAPES = [
    ((3, 4), (3, 4)),
    ((3, 4), (4,)),
    ((2, 1, 5), (3, 5)),
    ((1,), (4, 2)),
    ((2, 3), ()),
]


@pytest.mark.parametrize("sa,sb", BROADCAST_SHAPES)
@pytest.mark.parametrize("name,op", [
    ("add", lambda x, y: x + y),
    ("sub", lambda x, y: x - y),
    ("mul", lambda x, y: x * y),
    ("div", lambda x, y: x / y),
])
def test_broadcast_matches_index_expansion(sa, sb, name, op):
    rng = np.random.default_rng(zlib.crc32(repr((sa, sb, name)).encode()))
    a = rng.standard_normal(sa)
    b = rng.standard_normal(sb) + 3.0  # keep divisors away from zero
    got = op(Tensor(a), Tensor(b)).numpy()
    want = broadcast_oracle(a, b, op)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, k, p = rng.integers(1, 7, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, p))
        np.testing.assert_allclose(
            ad.matmul(Tensor(a), Tensor(b)).numpy(), matmul_oracle(a, b), rtol=1e-12
        )


def test_matmul_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.matmul(a, Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(a, Tensor(np.zeros((3, 2, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 2))))


def test_incompatible_broadcast_raises():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((3, 4))) + Tensor(np.zeros((2, 4)))


def test_unary_values():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 3))
    np.testing.assert_allclose(ad.exp(Tensor(x)).numpy(), np.exp(x), rtol=1e-14)
    np.testing.assert_allclose(ad.cos(Tensor(x)).numpy(), np.cos(x), rtol=1e-14)
    np.testing.assert_allclose(
        ad.sigmoid(Tensor(x)).numpy(), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12
    )
    np.testing.assert_allclose(ad.relu(Tensor(x)).numpy(), np.maximum(x, 0), rtol=1e-14)
    xp = np.abs(x) + 0.5
    np.testing.assert_allclose(ad.rsqrt(Tensor(xp)).numpy(), xp ** -0.5, rtol=1e-13)


def test_gelu_f32_matches_f64_formula_within_rounding():
    x = np.linspace(-6.0, 6.0, 4001).astype(np.float32)
    got = ad.gelu(Tensor(x)).numpy()
    x64 = x.astype(np.float64)
    want = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64 ** 3)))
    assert got.dtype == np.float32
    # an absolute bound in ulps of x: for x << 0 the value is a cancellation
    # in 1 + tanh, so no relative bound holds there
    assert np.all(np.abs(got - want) <= 2 * np.finfo(np.float32).eps * np.abs(x64))


@pytest.mark.parametrize("seed", range(3))
def test_grad_gelu(seed):
    w = np.random.default_rng(600 + seed).standard_normal((6, 7))
    check_grad(lambda ts: _weighted(ad.gelu(ts[0] * 3.0), w), [(6, 7)], seed=700 + seed)


def test_sigmoid_extreme_inputs_finite():
    x = Tensor(np.array([-500.0, -40.0, 0.0, 40.0, 500.0]))
    y = ad.sigmoid(x).numpy()
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[[0, -1]], [0.0, 1.0], atol=1e-17)


def test_reductions_and_shapes():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 4))
    np.testing.assert_allclose(ad.tsum(Tensor(x)).item(), x.sum())
    np.testing.assert_allclose(ad.tsum(Tensor(x), axis=1).numpy(), x.sum(axis=1))
    np.testing.assert_allclose(
        ad.tsum(Tensor(x), axis=(0, 2), keepdims=True).numpy(),
        x.sum(axis=(0, 2), keepdims=True),
    )
    np.testing.assert_allclose(ad.tmean(Tensor(x), axis=-1).numpy(), x.mean(axis=-1))
    np.testing.assert_allclose(ad.reshape(Tensor(x), (6, 4)).numpy(), x.reshape(6, 4))
    np.testing.assert_allclose(
        ad.transpose(Tensor(x), (2, 0, 1)).numpy(), x.transpose(2, 0, 1)
    )
    np.testing.assert_allclose(
        ad.broadcast_to(Tensor(x[:, :1]), (2, 3, 4)).numpy(),
        np.broadcast_to(x[:, :1], (2, 3, 4)),
    )


# ---------------------------------------------------------------------
# gradients: finite differences on every primitive
# ---------------------------------------------------------------------

def _weighted(t, w):
    return ad.tsum(t * Tensor(w))


@pytest.mark.parametrize("seed", range(10))
def test_grad_binary_ops(seed):
    rng = np.random.default_rng(100 + seed)
    w = rng.standard_normal((2, 3, 4))

    def build(ts):
        a, b = ts
        y = (a + b) * a - b / (ad.exp(b) + 3.0)
        return _weighted(y, w)

    check_grad(build, [(2, 3, 4), (3, 4)], seed=200 + seed)


@pytest.mark.parametrize("seed", range(10))
def test_grad_unary_chain(seed):
    rng = np.random.default_rng(300 + seed)
    w = rng.standard_normal((4, 5))

    def build(ts):
        (x,) = ts
        y = ad.cos(ad.sigmoid(x) * 2.0) + ad.gelu(x) - ad.exp(x * 0.3)
        return _weighted(y, w)

    check_grad(build, [(4, 5)], seed=400 + seed)


@pytest.mark.parametrize("seed", range(5))
def test_grad_relu_away_from_kink(seed):
    rng = np.random.default_rng(500 + seed)
    x = rng.standard_normal((6, 6))
    x[np.abs(x) < 1e-2] = 0.5  # keep FD probes off the kink
    w = rng.standard_normal((6, 6))
    t = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(_weighted(ad.relu(t), w))
    num = fd_grad(lambda v: np.sum(np.maximum(v, 0) * w), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_grad_rsqrt(seed):
    def build(ts):
        (x,) = ts
        return ad.tsum(ad.rsqrt(x * x + 1.0))

    check_grad(build, [(3, 7)], seed=600 + seed)


@pytest.mark.parametrize("seed", range(10))
def test_grad_matmul_bmm(seed):
    rng = np.random.default_rng(700 + seed)
    w = rng.standard_normal((3, 5))
    wb = rng.standard_normal((2, 3, 5))

    def build(ts):
        a, b, c, d = ts
        return _weighted(ad.matmul(a, b), w) + ad.tsum(ad.matmul(c, d) * Tensor(wb))

    check_grad(build, [(3, 4), (4, 5), (2, 3, 4), (2, 4, 5)], seed=800 + seed)


@pytest.mark.parametrize("seed", range(5))
def test_grad_concat(seed):
    """Inputs of unequal extent along the joined axis, one used twice,
    joined along a positive and a negative axis."""
    rng = np.random.default_rng(1100 + seed)
    w1 = rng.standard_normal((2, 7, 6))
    w2 = rng.standard_normal((4, 3, 4))

    def build(ts):
        a, b, c, d = ts
        u = ad.concat([a, b, c], axis=1)
        v = ad.concat([u, d], axis=-1)
        return _weighted(v, w1) + _weighted(ad.concat([a, c * c], axis=-3), w2)

    check_grad(build, [(2, 3, 4), (2, 1, 4), (2, 3, 4), (2, 7, 2)], seed=1200 + seed)


def test_concat_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.concat([a, Tensor(np.zeros((3, 3)))], axis=1)
    with pytest.raises(ShapeError):
        ad.concat([a, Tensor(np.zeros(3))], axis=0)
    with pytest.raises(ShapeError):
        ad.concat([a, a], axis=2)
    with pytest.raises(ShapeError):
        ad.concat([], axis=0)


@pytest.mark.parametrize("seed", range(5))
def test_grad_reductions_shapes(seed):
    rng = np.random.default_rng(900 + seed)
    w = rng.standard_normal((4, 6))
    v = rng.standard_normal((3, 4))

    def build(ts):
        (x,) = ts
        y = ad.reshape(ad.transpose(x, (1, 0, 2)), (4, 6))
        z = ad.tmean(x, axis=2, keepdims=True) + x
        return (_weighted(y, w) + ad.tsum(z) + _weighted(ad.tmean(x, axis=1), v)
                + ad.tsum(ad.broadcast_to(ad.tsum(x, axis=(0, 1)), (2, 4))))

    check_grad(build, [(3, 2, 4)], seed=1000 + seed)


# ---------------------------------------------------------------------
# tape semantics
# ---------------------------------------------------------------------

def test_backward_accumulates_across_calls():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(x * x)
        tape.backward(y)
        first = x.grad.copy()
        tape.backward(y)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_no_tape_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    assert y.requires_grad is False
    # a tape opened afterwards holds no history of y
    tape = Tape()
    tape.backward(ad.tsum(y))
    assert len(tape) == 0 and x.grad is None


def test_untaped_unary_computes_no_derivative(monkeypatch):
    # the derivative of cos is -sin, which only a backward needs
    x = Tensor(np.linspace(-1.0, 1.0, 5), requires_grad=True)
    want = np.cos(x.data)

    def derivative_computed(*args, **kwargs):
        raise AssertionError("np.sin called by an untaped cos")

    monkeypatch.setattr(np, "sin", derivative_computed)
    assert np.array_equal(ad.cos(x).data, want)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_requires_grad_propagates():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2))
    with Tape():
        assert (a + b).requires_grad
        assert (b * 3.0).requires_grad is False


@pytest.mark.parametrize("op", ["add", "matmul", "concat"])
def test_output_tracks_when_only_the_last_input_requires_grad(op):
    """An output joins the tape when any input requires grad, not only
    the first one."""
    rng = np.random.default_rng(70)
    const = rng.standard_normal((3, 3))
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    fn, want = {
        "add": (ad.add, np.ones((3, 3))),
        "matmul": (ad.matmul, const.T @ np.ones((3, 3))),
        "concat": (lambda a, b: ad.concat([a, b], axis=0), np.ones((3, 3))),
    }[op]
    with Tape() as tape:
        out = fn(Tensor(const), w)
        assert out.requires_grad
        tape.backward(ad.tsum(out))
    np.testing.assert_array_equal(w.grad, want)


def test_grad_none_for_untracked_leaf():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2))
    with Tape() as tape:
        tape.backward(ad.tsum(a * b))
    assert b.grad is None
    np.testing.assert_allclose(a.grad, np.ones(2))


def test_shared_subexpression_fan_out():
    # y = x*x + x so dy/dx = 2x + 1; fan-out must sum both paths
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(x * x + x)
    np.testing.assert_allclose(x.grad, 7.0)


def test_int_input_coerced_to_float():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float64


def test_nested_tapes_are_independent():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as outer:
        y = x * 3.0
        with Tape() as inner:
            z = x * 5.0
            inner.backward(z)
        np.testing.assert_allclose(x.grad, 5.0)
        x.grad = None
        outer.backward(y)
    np.testing.assert_allclose(x.grad, 3.0)


def test_tape_exited_out_of_order_raises():
    outer, inner = Tape(), Tape()
    with pytest.raises(RuntimeError, match="not innermost"):
        outer.__exit__(None, None, None)
    with outer:
        with inner:
            with pytest.raises(RuntimeError, match="not innermost"):
                outer.__exit__(None, None, None)
            assert ad.active_tape() is inner
    assert ad.active_tape() is None


def test_repr_names_shape_dtype_and_grad_flag():
    assert repr(Tensor(np.ones((2, 3), np.float32))) == "Tensor(shape=(2, 3), dtype=float32)"
    assert (repr(Tensor(np.ones(2), requires_grad=True))
            == "Tensor(shape=(2,), dtype=float64, requires_grad=True)")


def test_python_scalars_do_not_promote_f32():
    t = Tensor(np.ones(3, np.float32), requires_grad=True)
    assert (2.0 * t).dtype == np.float32
    assert (t + 1).dtype == np.float32
    assert (t - 0.5).dtype == np.float32
    assert (t / 2).dtype == np.float32
    assert (1.0 / t).dtype == np.float32
    with Tape() as tape:
        y = ad.tsum(t * 0.25)
        tape.backward(y)
    assert t.grad.dtype == np.float32
    np.testing.assert_allclose(t.grad, 0.25)


def test_numpy_scalar_operands_keep_their_precision():
    t = Tensor(np.ones(3, np.float32))
    assert (t * np.float64(2.0)).dtype == np.float64
    assert (t * np.float32(2.0)).dtype == np.float32


def test_complex_input_is_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3, np.complex64))
    with pytest.raises(ShapeError):
        Tensor(np.ones(3), dtype=np.complex128)
    with pytest.raises(ShapeError):
        Tensor(np.ones(3, np.float32)) * 1j
    with pytest.raises(ShapeError):
        1j - Tensor(np.ones(3))
