"""Stream lifting, adaptive maps, residual update, norms, readout."""

import gc
import math
import weakref

import numpy as np
import pytest

from aotlab import autodiff as ad
from aotlab.autodiff import Tape, Tensor
from aotlab.blocks import (
    GROUP_NORM_EPS,
    RMS_NORM_EPS,
    AotMaps,
    AotParams,
    AotSubLayer,
    ChannelMLP,
    GroupNorm,
    Linear,
    MixerSubLayer,
    _reshaped,
    _simplex,
    _twice_sigmoid,
    aot_update,
    combine,
    compute_maps,
    contract,
    default_groups,
    gated_map,
    identity_maps,
    lift,
    pool_rms,
    readout,
    softmax_vector,
)
from aotlab.errors import ShapeError
from aotlab.sinkhorn import sinkhorn_array, sinkhorn_tensor

from test_tensor import check_grad, fd_grad


def const_maps(a, d, t):
    a, d, t = Tensor(a), Tensor(d), Tensor(t)
    return AotMaps(a=a, d=d, t=t)


def random_state(rng, b=2, n=4, c=4, h=4, w=4):
    return Tensor(rng.standard_normal((b, n, c, h, w)))


# ---------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------

def test_lift_copies_are_identical():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 3, 4, 4))
    state = lift(Tensor(z), 4)
    assert state.shape == (2, 4, 3, 4, 4)
    for i in range(4):
        np.testing.assert_array_equal(state.numpy()[:, i], z)


def test_lift_single_stream_and_zeros():
    z = np.random.default_rng(1).standard_normal((1, 2, 4, 4))
    np.testing.assert_array_equal(lift(Tensor(z), 1).numpy()[:, 0], z)
    assert not lift(Tensor(np.zeros((1, 2, 4, 4))), 4).numpy().any()


def test_lift_rejects_bad_stream_count():
    with pytest.raises(ShapeError):
        lift(Tensor(np.zeros((1, 2, 4, 4))), 0)


# ---------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------

def test_group_norm_matches_numpy_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 8, 4, 4))
    gn = GroupNorm.init(8, 4)
    gn.scale.data = rng.standard_normal(8)
    gn.shift.data = rng.standard_normal(8)
    got = gn(Tensor(x)).numpy()

    xg = x.reshape(3, 4, 2, 4, 4)
    mean = xg.mean(axis=(2, 3, 4), keepdims=True)
    var = xg.var(axis=(2, 3, 4), keepdims=True)
    want = ((xg - mean) / np.sqrt(var + 1e-5)).reshape(3, 8, 4, 4)
    want = want * gn.scale.data[None, :, None, None] + gn.shift.data[None, :, None, None]
    np.testing.assert_allclose(got, want, atol=1e-12)


def group_norm_ops(gn, x):
    """GroupNorm as a graph of reshape, mean, sub, mul, rsqrt and add nodes."""
    b, c, h, w = x.shape
    g = gn.groups
    xg = ad.reshape(x, (b, g, c // g, h, w))
    mean = ad.tmean(xg, axis=(2, 3, 4), keepdims=True)
    centered = xg - mean
    var = ad.tmean(centered * centered, axis=(2, 3, 4), keepdims=True)
    y = ad.reshape(centered * ad.rsqrt(var + GROUP_NORM_EPS), (b, c, h, w))
    return y * ad.reshape(gn.scale, (1, c, 1, 1)) + ad.reshape(gn.shift, (1, c, 1, 1))


def taped_norm(norm, gn, base, w, channels_last):
    """Value, gradients of (input, scale, shift) and the norm's own node
    count for sum(norm(x) * w).  ``channels_last`` feeds the norm a
    transposed view and takes its gradient back through a transpose, as
    the channel MLP does, so the fused backward meets strided arrays."""
    for t in (base, gn.scale, gn.shift):
        t.grad = None
    with Tape() as tape:
        x = ad.transpose(base, (0, 3, 1, 2)) if channels_last else base
        before = len(tape)
        y = norm(gn, x)
        nodes = len(tape) - before
        if channels_last:
            y = ad.transpose(y, (0, 2, 3, 1))
        tape.backward(ad.tsum(y * Tensor(w)))
    return y.data, base.grad, gn.scale.grad, gn.shift.grad, nodes


@pytest.mark.parametrize("dtype, wide", [
    pytest.param(np.float32, False, id="float32"),
    pytest.param(np.float64, False, id="float64"),
    pytest.param(np.float32, True, id="float32-wide"),
    pytest.param(np.float64, True, id="float64-wide")])
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
def test_group_norm_fused_node_is_bit_identical_to_op_by_op_tape(
        dtype, wide, channels_last, frozen):
    """``wide`` runs the channel MLP's 64 channels in 8 groups at a batch
    whose arrays exceed 256 KiB: from that size numpy may reuse a
    temporary as an operation's output, which can change its layout."""
    rng = np.random.default_rng(7)
    b, c, groups = (96 if dtype == np.float32 else 48, 64, 8) if wide else (3, 16, 4)
    gn = GroupNorm(c, groups, Tensor(rng.standard_normal(c).astype(dtype),
                                     requires_grad=not frozen),
                   Tensor(rng.standard_normal(c).astype(dtype),
                          requires_grad=not frozen))
    shape = (b, 4, 4, c) if channels_last else (b, c, 4, 4)
    base = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    w = rng.standard_normal(shape).astype(dtype)
    want = taped_norm(group_norm_ops, gn, base, w, channels_last)
    got = taped_norm(GroupNorm.__call__, gn, base, w, channels_last)
    for g, v in zip(got[:4], want[:4]):
        if frozen and v is None:
            assert g is None
            continue
        assert g.dtype == dtype and g.strides == v.strides
        np.testing.assert_array_equal(g, v)
    assert (got[4], want[4]) == (1, 13 if frozen else 15)


def test_group_norm_gradient_matches_fd():
    w = np.random.default_rng(8).standard_normal((2, 8, 4, 4))
    check_grad(lambda ts: ad.tsum(GroupNorm(8, 4, ts[1], ts[2])(ts[0]) * Tensor(w)),
               [(2, 8, 4, 4), (8,), (8,)], seed=9)


def test_group_norm_without_tape_records_nothing(monkeypatch):
    rng = np.random.default_rng(10)
    gn = GroupNorm(16, 4,
                   Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True),
                   Tensor(np.zeros(16, dtype=np.float32), requires_grad=True))
    x = rng.standard_normal((2, 16, 4, 4)).astype(np.float32)
    want = group_norm_ops(gn, Tensor(x)).data

    def no_record(out, backward_fn):
        raise AssertionError("a node was recorded")

    monkeypatch.setattr(ad, "record", no_record)
    got = gn(Tensor(x, requires_grad=True))
    np.testing.assert_array_equal(got.data, want)
    assert not got.requires_grad


def test_group_norm_tracks_shift_alone():
    """A call whose only input that requires grad is ``shift`` joins the
    tape: d sum(out) / d shift is B * H * W for every channel."""
    rng = np.random.default_rng(11)
    gn = GroupNorm(8, 4, Tensor(rng.standard_normal(8)),
                   Tensor(np.zeros(8), requires_grad=True))
    with Tape() as tape:
        out = gn(Tensor(rng.standard_normal((2, 8, 4, 4))))
        tape.backward(ad.tsum(out))
    np.testing.assert_array_equal(gn.shift.grad, np.full(8, 32.0))


def test_group_norm_group_selection_and_errors():
    assert default_groups(64) == 8
    assert default_groups(6) == 1
    with pytest.raises(ShapeError):
        GroupNorm.init(6, 4)
    gn = GroupNorm.init(8, 8)
    with pytest.raises(ShapeError):
        gn(Tensor(np.zeros((1, 4, 4, 4))))


def test_rms_norm_matches_oracle():
    """``pool_rms`` of a 1 x 1 field is the RMS norm of its flattened
    streams."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 16))
    scale = rng.standard_normal(16)
    got = pool_rms(Tensor(v.reshape(5, 4, 4, 1, 1)), Tensor(scale)).numpy()
    want = v / np.sqrt((v ** 2).mean(axis=-1, keepdims=True) + 1e-6) * scale
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_softmax_vector():
    w = np.array([0.3, -1.2, 2.0])
    got = softmax_vector(Tensor(w)).numpy()
    want = np.exp(w) / np.exp(w).sum()
    np.testing.assert_allclose(got, want, rtol=1e-14)
    np.testing.assert_allclose(got.sum(), 1.0, rtol=1e-14)


def test_channel_mlp_is_pointwise_and_matches_oracle():
    rng = np.random.default_rng(4)
    mlp = ChannelMLP(4, rng)
    x = rng.standard_normal((2, 4, 4, 4))
    out = mlp.forward(Tensor(x)).numpy()

    def g(v):
        t = np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v ** 3))
        return 0.5 * v * (1 + t)

    flat = x.transpose(0, 2, 3, 1).reshape(-1, 4)
    want = g(flat @ mlp.lin1.w.data + mlp.lin1.b.data) @ mlp.lin2.w.data + mlp.lin2.b.data
    np.testing.assert_allclose(out, want.reshape(2, 4, 4, 4).transpose(0, 3, 1, 2),
                               atol=1e-12)

    # pointwise in space: permuting positions permutes outputs
    perm = rng.permutation(16)
    xp = x.reshape(2, 4, 16)[:, :, perm].reshape(2, 4, 4, 4)
    outp = mlp.forward(Tensor(xp)).numpy()
    np.testing.assert_allclose(outp, out.reshape(2, 4, 16)[:, :, perm].reshape(2, 4, 4, 4),
                               atol=1e-12)


# ---------------------------------------------------------------------
# compute_maps
# ---------------------------------------------------------------------

def init_params(n=4, c=4, gate_init=0.01, seed=0):
    return AotParams(n, c, np.random.default_rng(seed), gate_init=gate_init)


def test_maps_at_zero_gates_are_the_documented_start_state():
    rng = np.random.default_rng(5)
    params = init_params(gate_init=0.0)
    maps = compute_maps(random_state(rng), params)
    # sigmoid(0) = 0.5 exactly, so a is exactly uniform and d exactly one
    assert np.all(maps.a.numpy() == 0.25)
    assert np.all(maps.d.numpy() == 1.0)
    # T is the projection of the identity bias: diag e/(e+3), off 1/(e+3)
    e = math.e
    want = np.full((4, 4), 1.0 / (e + 3))
    np.fill_diagonal(want, e / (e + 3))
    for tb in maps.t.numpy():
        np.testing.assert_allclose(tb, want, atol=1e-12)


def test_maps_constraints_hold_for_random_params():
    rng = np.random.default_rng(6)
    params = init_params(seed=7)
    # make the maps strongly input-dependent while keeping the raw values
    # below sigmoid's f64 saturation threshold (~37)
    for name, t in params.named("p").items():
        if "phi" in name:
            t.data = rng.standard_normal(t.shape)
        if "alpha" in name:
            t.data = np.asarray(0.3)
    for _ in range(10):
        maps = compute_maps(random_state(rng), params)
        a, d, t = maps.a.numpy(), maps.d.numpy(), maps.t.numpy()
        assert np.all(a >= 0)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all((d > 0) & (d < 2))
        # column sums are exact (column-last); row sums carry the Sinkhorn
        # residual, which grows with the raw magnitude
        assert np.abs(t.sum(axis=-2) - 1).max() < 1e-12
        assert np.abs(t.sum(axis=-1) - 1).max() < 1e-2
        assert np.all(t > 0)


def test_maps_residual_tiny_in_gated_operating_regime():
    """With the 0.01 gate init the raw T deviates from the identity bias by
    ~1e-2, and 20 sweeps converge far below the 1e-5 gain tolerance."""
    rng = np.random.default_rng(60)
    params = init_params(seed=61, gate_init=0.01)
    for name, t in params.named("p").items():
        if "phi" in name:
            t.data = rng.standard_normal(t.shape)
    for _ in range(10):
        t = compute_maps(random_state(rng), params).t.numpy()
        assert np.abs(t.sum(axis=-1) - 1).max() < 1e-8
        assert np.abs(t.sum(axis=-2) - 1).max() < 1e-12


def test_d_approaches_two_from_below():
    params = init_params(gate_init=0.0)
    params.b_d.data = np.full(4, 30.0)
    maps = compute_maps(random_state(np.random.default_rng(8)), params)
    d = maps.d.numpy()
    # supremum 2 is not attained while sigmoid is still resolvable in f64
    assert np.all(d < 2.0) and np.all(d > 2.0 - 1e-12)
    # beyond ~37 the sigmoid rounds to 1.0 and d saturates at exactly 2.0
    params.b_d.data = np.full(4, 40.0)
    maps = compute_maps(random_state(np.random.default_rng(8)), params)
    assert np.all(maps.d.numpy() == 2.0)


def test_maps_shape_mismatch_raises():
    params = init_params(n=4, c=4)
    with pytest.raises(ShapeError):
        compute_maps(Tensor(np.zeros((1, 3, 4, 4, 4))), params)


# ---------------------------------------------------------------------
# aot_update
# ---------------------------------------------------------------------

def test_update_single_stream_reduces_to_gated_residual():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 1, 3, 4, 4))
    d1 = 0.7
    maps = const_maps(np.ones((2, 1)), np.full((2, 1), d1), np.ones((2, 1, 1)))
    shift = rng.standard_normal((3, 4, 4))
    out = aot_update(Tensor(x), maps, lambda u: u * 2.0 + Tensor(shift)).numpy()
    want = x + d1 * (2.0 * x[:, 0] + shift)[:, None]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_update_zero_sublayer_identity_t_is_noop():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 3, 4, 4))
    eye = np.broadcast_to(np.eye(4), (2, 4, 4)).copy()
    maps = const_maps(np.full((2, 4), 0.25), np.ones((2, 4)), eye)
    out = aot_update(Tensor(x), maps, lambda u: u * 0.0).numpy()
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("seed", range(10))
def test_update_identical_streams_stay_identical(seed):
    rng = np.random.default_rng(100 + seed)
    z = rng.standard_normal((2, 3, 4, 4))
    x = lift(Tensor(z), 4)
    t = sinkhorn_array(rng.standard_normal((4, 4)), iters=20)
    res = np.abs(t.sum(-1) - 1).max()
    maps = const_maps(np.full((2, 4), 0.25), np.ones((2, 4)),
                      np.broadcast_to(t, (2, 4, 4)).copy())
    shift = rng.standard_normal((3, 4, 4))
    out = aot_update(x, maps, lambda u: u * 0.5 + Tensor(shift)).numpy()
    spread = np.abs(out - out[:, :1]).max()
    assert spread < 10 * res + 1e-12
    want = z + (0.5 * z + shift)
    np.testing.assert_allclose(out[:, 0], want, atol=10 * res + 1e-12)


def test_stream_mix_matches_einsum():
    """With nothing scattered, ``combine`` is the stream mix T x."""
    rng = np.random.default_rng(11)
    t = rng.standard_normal((2, 4, 4))
    x = rng.standard_normal((2, 4, 3, 4, 4))
    got = combine(Tensor(x), Tensor(t), Tensor(np.zeros((2, 4))),
                  Tensor(rng.standard_normal((2, 3, 4, 4)))).numpy()
    want = np.einsum("bij,bjchw->bichw", t, x)
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------
# the fused adaptive nodes against the op-by-op tape they replace
# ---------------------------------------------------------------------

def rms_norm_ops(v, scale):
    """Root-mean-square normalization over the last axis of (B, D) input."""
    ms = ad.tmean(v * v, axis=-1, keepdims=True)
    return v * ad.rsqrt(ms + RMS_NORM_EPS) * scale


def compute_maps_ops(x, params, sinkhorn_iters=20):
    """The maps as a graph of mean, reshape, mul, add, rsqrt, matmul,
    sigmoid, sum and div nodes, then the Sinkhorn node."""
    b, n, c, h, w = x.shape
    pooled = ad.tmean(x, axis=(3, 4))
    vec = ad.reshape(pooled, (b, n * c))
    vec = rms_norm_ops(vec, params.rms_scale)
    gated_a = params.alpha_a * ad.matmul(vec, params.phi_a) + params.b_a
    gated_d = params.alpha_d * ad.matmul(vec, params.phi_d) + params.b_d
    gated_t = ad.reshape(params.alpha_t * ad.matmul(vec, params.phi_t) + params.b_t,
                         (b, n, n))
    sa = ad.sigmoid(gated_a)
    a = sa / ad.tsum(sa, axis=-1, keepdims=True)
    d = 2.0 * ad.sigmoid(gated_d)
    t = sinkhorn_tensor(gated_t, iters=sinkhorn_iters)
    return AotMaps(a=a, d=d, t=t)


def aot_update_ops(x, maps, sublayer):
    """The update as a graph of reshape, matmul, mul, sum and add nodes."""
    b, n, c, h, w = x.shape
    mixed = ad.reshape(ad.matmul(maps.t, ad.reshape(x, (b, n, c * h * w))),
                       (b, n, c, h, w))
    contracted = ad.tsum(x * ad.reshape(maps.a, (b, n, 1, 1, 1)), axis=1)
    y = sublayer(contracted)
    scattered = ad.reshape(maps.d, (b, n, 1, 1, 1)) * ad.reshape(y, (b, 1, c, h, w))
    return mixed + scattered


def input_dependent_params(n, c, dtype, seed):
    """Map parameters with gates and biases far from their init, so every
    map depends on the state."""
    rng = np.random.default_rng(seed)
    params = AotParams(n, c, rng)
    for name, t in params.named().items():
        if name.startswith(("alpha", "b_")):
            t.data = t.data + 0.5 * rng.standard_normal(t.shape)
        t.data = t.data.astype(dtype)
    return params


def channels_last_sublayer(y0):
    """u -> u * u + y0 computed channels last, as the channel MLP does, so
    that y is a transposed view; y0's gradient is the gradient into y."""
    def sublayer(u):
        v = ad.transpose(u, (0, 2, 3, 1))
        return ad.transpose(v * v + y0, (0, 3, 1, 2))
    return sublayer


def taped_step(maps_fn, update_fn, params, leaves, w):
    """Values, leaf gradients and (maps, update) node counts of
    sum(update(x, maps(x)) * w), where x = base * gain and the sub-layer is
    ``channels_last_sublayer(y0)``.  ``gain`` sums its gradient over every
    axis but the stream axis, so it sees the memory layout of the gradient
    stored for x."""
    base, gain, y0 = leaves
    named = list(params.named().values())
    for t in [*leaves, *named]:
        t.grad = None
    with Tape() as tape:
        x = base * gain
        start = len(tape)
        maps = maps_fn(x, params, 20)
        mid = len(tape)
        out = update_fn(x, maps, channels_last_sublayer(y0))
        nodes = (mid - start, len(tape) - mid)
        tape.backward(ad.tsum(out * Tensor(w)))
    values = [out.data, maps.a.data, maps.d.data, maps.t.data]
    return values, [t.grad for t in [*leaves, *named]], nodes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 4, 64, 4, 4), (24, 4, 64, 4, 4), (2, 3, 8, 2, 4)],
                         ids=["desk", "wide", "n3"])
def test_adaptive_nodes_are_bit_identical_to_op_by_op_tape(dtype, shape):
    """Also at a batch whose states exceed 256 KiB in float32 too: from
    that size numpy may reuse a temporary as an operation's output, which
    can change the output's memory layout."""
    b, n, c, h, w = shape
    rng = np.random.default_rng(70)
    params = input_dependent_params(n, c, dtype, seed=71)
    leaves = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True),
              Tensor(rng.uniform(0.5, 1.5, (1, n, 1, 1, 1)).astype(dtype),
                     requires_grad=True),
              Tensor(rng.standard_normal((b, h, w, c)).astype(dtype), requires_grad=True)]
    wts = rng.standard_normal(shape).astype(dtype)
    want = taped_step(compute_maps_ops, aot_update_ops, params, leaves, wts)
    got = taped_step(compute_maps, aot_update, params, leaves, wts)
    # x (through base and gain), y (as y0) and all ten map tensors
    assert len(got[1]) == 13
    for g, v in zip(got[0] + got[1], want[0] + want[1]):
        assert g is not None and g.dtype == dtype
        assert g.strides == v.strides
        np.testing.assert_array_equal(g, v)
    # pool_rms, three gated maps and Sinkhorn; contract and combine around
    # the sub-layer's two transposes, mul and add
    assert (got[2], want[2]) == ((5, 6), (26, 14))


def test_maps_constants_and_zero_gradients_match_op_by_op_tape():
    """With the identity bias and zero gates, some gradients are exactly
    zero or exactly cancel; the fused nodes keep those bits too."""
    rng = np.random.default_rng(72)
    params = init_params(n=4, c=4, gate_init=0.0)
    for t in params.named().values():
        t.data = t.data.astype(np.float32)
    leaves = [Tensor(rng.standard_normal((2, 4, 4, 4, 4)).astype(np.float32),
                     requires_grad=True),
              Tensor(np.ones((1, 4, 1, 1, 1), np.float32), requires_grad=True),
              Tensor(np.zeros((2, 4, 4, 4), np.float32), requires_grad=True)]
    wts = rng.standard_normal((2, 4, 4, 4, 4)).astype(np.float32)
    want = taped_step(compute_maps_ops, aot_update_ops, params, leaves, wts)
    got = taped_step(compute_maps, aot_update, params, leaves, wts)
    for g, v in zip(got[0] + got[1], want[0] + want[1]):
        np.testing.assert_array_equal(g, v)


def weighted_sum(out, seed):
    w = np.random.default_rng(seed).standard_normal(out.shape)
    return ad.tsum(out * Tensor(w))


def test_pool_rms_gradient_matches_fd():
    check_grad(lambda ts: weighted_sum(pool_rms(ts[0], ts[1]), 80),
               [(2, 3, 4, 2, 3), (12,)], seed=81)


@pytest.mark.parametrize("constraint,k", [(_simplex, 3), (_twice_sigmoid, 3),
                                          (_reshaped((2, 3, 3)), 9)],
                         ids=["a", "d", "t"])
def test_gated_map_gradient_matches_fd(constraint, k):
    check_grad(lambda ts: weighted_sum(gated_map(*ts, constraint), 82),
               [(2, 12), (12, k), (), (k,)], seed=83)


def test_contract_gradient_matches_fd():
    check_grad(lambda ts: weighted_sum(contract(ts[0], ts[1]), 84),
               [(2, 3, 4, 2, 3), (2, 3)], seed=85)


def test_combine_gradient_matches_fd():
    check_grad(lambda ts: weighted_sum(combine(*ts), 86),
               [(2, 3, 4, 2, 3), (2, 3, 3), (2, 3), (2, 4, 2, 3)], seed=87)


def test_adaptive_nodes_without_tape_record_nothing(monkeypatch):
    """Untaped, the maps and the update equal the op-by-op graph's values,
    record no node, and keep no backward closure, so none of its
    intermediates outlive the call."""
    rng = np.random.default_rng(88)
    params = input_dependent_params(4, 8, np.float32, seed=89)
    for t in params.named().values():
        t.requires_grad = True
    x = Tensor(rng.standard_normal((2, 4, 8, 4, 4)).astype(np.float32),
               requires_grad=True)
    want_maps = compute_maps_ops(x, params)
    want = aot_update_ops(x, want_maps, lambda u: u * 2.0).data

    closures = []
    real_node = ad.node

    def spy(value, backward_fn, *inputs):
        closures.append(weakref.ref(backward_fn))
        return real_node(value, backward_fn, *inputs)

    def no_record(out, backward_fn):
        raise AssertionError("a node was recorded")

    monkeypatch.setattr(ad, "node", spy)
    monkeypatch.setattr(ad, "record", no_record)
    maps = compute_maps(x, params)
    out = aot_update(x, maps, lambda u: u * 2.0)
    gc.collect()
    # pool_rms, three gated maps, contract, the sub-layer's mul, combine
    assert len(closures) == 7
    assert all(ref() is None for ref in closures)
    for got, v in [(out, want), (maps.a, want_maps.a.data), (maps.d, want_maps.d.data),
                   (maps.t, want_maps.t.data)]:
        assert not got.requires_grad
        np.testing.assert_array_equal(got.data, v)


@pytest.mark.parametrize("n", [2, 4])
def test_identity_maps_update_is_the_plain_stream_mean_residual(n):
    """At a power-of-two stream count, the update through the constant maps
    equals x + f(mean over streams of x) bit for bit, values and gradients."""
    rng = np.random.default_rng(90 + n)
    base = rng.standard_normal((2, n, 4, 4, 4)).astype(np.float32)
    wts = rng.standard_normal(base.shape).astype(np.float32)

    def run(update):
        x = Tensor(base, requires_grad=True)
        with Tape() as tape:
            out = update(x, lambda u: u * u)
            tape.backward(ad.tsum(out * Tensor(wts)))
        return out.data, x.grad

    got = run(lambda x, f: aot_update(x, identity_maps(x), f))
    want = run(lambda x, f: x + ad.reshape(f(ad.tmean(x, axis=1)), (2, 1, 4, 4, 4)))
    for g, v in zip(got, want):
        np.testing.assert_array_equal(g, v)


# ---------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------

def test_readout_uniform_is_stream_mean():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 4, 3, 4, 4))
    out = readout(Tensor(x), Tensor(np.zeros(4))).numpy()
    np.testing.assert_allclose(out, x.mean(axis=1), atol=1e-12)


def test_readout_saturated_logit_selects_stream():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 4, 2, 4, 4))
    w = np.zeros(4)
    w[2] = 60.0
    out = readout(Tensor(x), Tensor(w)).numpy()
    np.testing.assert_allclose(out, x[:, 2], atol=1e-10)


def test_readout_identical_streams_ignores_weights():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((2, 3, 4, 4))
    x = lift(Tensor(z), 4)
    out = readout(x, Tensor(rng.standard_normal(4))).numpy()
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_readout_shape_check():
    with pytest.raises(ShapeError):
        readout(Tensor(np.zeros((1, 4, 2, 4, 4))), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------
# the wrapped sub-layer
# ---------------------------------------------------------------------

def make_sublayer(seed, gate_init=0.01, inner_kind="mixer", n=4, c=4):
    rng = np.random.default_rng(seed)
    if inner_kind == "mixer":
        inner = MixerSubLayer(c, 2, 2, rng)
    else:
        inner = ChannelMLP(c, rng)
    return AotSubLayer(inner, n, c, rng, gate_init=gate_init)


@pytest.mark.parametrize("inner_kind", ["mixer", "mlp"])
def test_strict_identity_equals_single_stream_reference(inner_kind):
    rng = np.random.default_rng(15)
    sub = make_sublayer(16, gate_init=0.0, inner_kind=inner_kind)
    z = Tensor(rng.standard_normal((2, 4, 4, 4)))
    state = lift(z, 4)
    out_state, maps = sub.forward(state, strict_identity=True)
    assert maps is None
    collapsed = readout(out_state, Tensor(np.zeros(4))).numpy()
    reference = sub.reference_forward(z).numpy()
    np.testing.assert_allclose(collapsed, reference, atol=1e-9)
    spread = np.abs(out_state.numpy() - out_state.numpy()[:, :1]).max()
    assert spread < 1e-12


def test_forward_returns_maps_and_changes_state():
    sub = make_sublayer(17)
    state = random_state(np.random.default_rng(18))
    out, maps = sub.forward(state)
    assert maps is not None
    assert out.shape == state.shape
    assert np.abs(out.numpy() - state.numpy()).max() > 1e-6


def test_named_keys_unique_and_complete():
    sub = make_sublayer(19)
    names = sub.named("block0.att")
    assert len(names) == len(set(names))
    kinds = {k.rsplit(".", 1)[-1] for k in names}
    for expected in ("phi_a", "phi_d", "phi_t", "alpha_a", "b_t", "rms_scale",
                     "scale", "shift", "w1_re", "b2_im"):
        assert expected in kinds


@pytest.mark.parametrize("inner_kind", ["mixer", "mlp"])
def test_sublayer_gradients_match_fd(inner_kind):
    rng = np.random.default_rng(20)
    sub = make_sublayer(21, inner_kind=inner_kind, n=2, c=4)
    z0 = rng.standard_normal((1, 2, 4, 4, 4))
    w = rng.standard_normal((1, 2, 4, 4, 4))
    names = sub.named("s")

    def run_loss():
        out, _ = sub.forward(Tensor(z0))
        return ad.tsum(out * Tensor(w))

    with Tape() as tape:
        tape.backward(run_loss())

    checked = 0
    for name, t in names.items():
        def f(arr, t=t):
            saved = t.data
            t.data = arr
            with Tape():
                val = run_loss().item()
            t.data = saved
            return val

        num = fd_grad(f, t.data.copy().astype(float))
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = np.abs(got - num)
        scale = np.maximum(np.abs(num), 1e-12)
        assert np.all((err < 1e-4 * scale) | (err < 1e-7)), f"{name}"
        checked += 1
    assert checked == len(names)
