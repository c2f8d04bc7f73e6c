"""Adaptive multi-stream residual wrapper around token-mixing sub-layers.

The hidden state carries n parallel streams of a (C, H, W) field.  Each
sub-layer application computes three input-dependent maps from the pooled
state: an aggregation vector ``a`` on the probability simplex, a
redistribution vector ``d`` with entries in (0, 2), and a doubly
stochastic stream-mixing matrix ``T``.  The update is

    x_next = T x + d^T f(a x)

where ``f`` is the sub-layer wrapped in a pre- and post-normalization
pair, ``a x`` contracts the streams to one field, and ``d^T (...)``
scatters the result back to all streams.

Tensor layout is batched throughout: stream states are (B, n, C, H, W).

The adaptive path records few tape nodes: ``pool_rms`` and one
``gated_map`` per map, then the Sinkhorn node, build the maps; ``contract``
and ``combine`` apply them around the sub-layer.  Like ``GroupNorm`` and
the Sinkhorn node, each backward replays, in reverse, exactly the numpy
operations the tape runs for the op-by-op graph of ``mean``, ``reshape``,
``mul``, ``add``, ``rsqrt``, ``sigmoid``, ``sum``, ``div`` and ``matmul``
nodes, including the order of every accumulation, and keeps each
gradient the tape stores in the layout the op-by-op tape gives it.  Values
and gradients are bit-identical to that graph at 7 nodes per sub-layer
instead of 36.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ShapeError
from .mixer import FourierMixerParams, fourier_mix
from .sinkhorn import sinkhorn_tensor


# ---------------------------------------------------------------------
# building blocks shared by the whole network
# ---------------------------------------------------------------------

GROUP_NORM_EPS = 1e-5
RMS_NORM_EPS = 1e-6


class Linear(Module):
    """Dense layer y = x W + b acting on the last axis of 2-D input."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = Tensor(np.sqrt(2.0 / in_dim) * rng.standard_normal((in_dim, out_dim)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b


class GroupNorm(Module):
    """Per-group standardization over (channels-in-group, H, W), eps
    ``GROUP_NORM_EPS``, learnable per-channel affine.

    A call records one fused tape node.  Its backward replays, in reverse,
    exactly the numpy operations the tape would run for the op-by-op graph
    (reshape, mean, centering, variance, rsqrt, affine), including the
    order of the three contributions to the centered input and the
    unbroadcast sums into ``scale`` and ``shift``, so values and gradients
    are bit-identical to it at one node instead of fifteen.
    """

    def __init__(self, channels: int, groups: int, scale: Tensor, shift: Tensor):
        if channels % groups != 0:
            raise ShapeError(f"channels {channels} not divisible by groups {groups}")
        self.channels = channels
        self.groups = groups
        self.scale = scale
        self.shift = shift

    @classmethod
    def init(cls, channels: int, groups: int) -> "GroupNorm":
        scale = Tensor(np.ones(channels), requires_grad=True)
        shift = Tensor(np.zeros(channels), requires_grad=True)
        return cls(channels, groups, scale, shift)

    def __call__(self, x: Tensor) -> Tensor:
        x = ad.as_tensor(x)
        b, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"GroupNorm built for {self.channels} channels, got {c}")
        g = self.groups
        axes = (2, 3, 4)
        inv_count = 1.0 / ((c // g) * h * w)
        xg = x.data.reshape((b, g, c // g, h, w))
        mean = xg.sum(axis=axes, keepdims=True) * inv_count
        centered = xg - mean
        var_eps = (centered * centered).sum(axis=axes, keepdims=True) * inv_count + GROUP_NORM_EPS
        r = 1.0 / np.sqrt(var_eps)
        y = (centered * r).reshape((b, c, h, w))
        scale, shift = self.scale, self.shift
        sc = scale.data.reshape((1, c, 1, 1))

        def bwd(gout, acc):
            acc(shift, ad._unbroadcast(gout, sc.shape).reshape((c,)))
            acc(scale, ad._unbroadcast(gout * y, sc.shape).reshape((c,)))
            gy = (gout * sc).reshape(centered.shape)
            g_var = ad._unbroadcast(gy * centered, r.shape) * (-0.5 * r / var_eps)
            # the tape stores this broadcast as a C-ordered copy; its layout
            # fixes the order of the summation into g_mean below
            g_sq = np.broadcast_to(g_var * inv_count, centered.shape).copy() * centered
            # Named, gy * r is no temporary numpy may reuse as the sum's
            # output: that would give the sum gy's layout (channels last
            # after the MLP), not the layout of the op-by-op add.
            gy_r = gy * r
            g_centered = gy_r + g_sq + g_sq
            g_mean = ad._unbroadcast(-g_centered, r.shape) * inv_count
            acc(x, (g_centered + g_mean).reshape((b, c, h, w)))

        return ad.node(y * sc + shift.data.reshape((1, c, 1, 1)), bwd, x, scale, shift)


def default_groups(channels: int) -> int:
    return 8 if channels % 8 == 0 else 1


def softmax_vector(w: Tensor) -> Tensor:
    """Softmax of a small 1-D logit vector (plain exp; logits stay O(1))."""
    e = ad.exp(w)
    return e / ad.tsum(e)


class ChannelMLP(Module):
    """Pointwise two-layer MLP over channels with GELU in between."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.lin1 = Linear(dim, dim, rng)
        self.lin2 = Linear(dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        flat = ad.reshape(ad.transpose(x, (0, 2, 3, 1)), (b * h * w, c))
        out = self.lin2(ad.gelu(self.lin1(flat)))
        return ad.transpose(ad.reshape(out, (b, h, w, c)), (0, 3, 1, 2))


class MixerSubLayer(Module):
    """Adapter giving the Fourier mixer the sub-layer interface."""

    def __init__(self, dim: int, heads: int, modes: int, rng: np.random.Generator,
                 activation: str = "gelu"):
        self.params = FourierMixerParams.init(dim, heads, modes, rng)
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        return fourier_mix(x, self.params, activation=self.activation)

    def named(self, prefix: str) -> dict:
        # the mixer's tensors sit directly under the sub-layer's prefix
        return self.params.named(prefix)


# ---------------------------------------------------------------------
# stream state and the three adaptive maps
# ---------------------------------------------------------------------

def lift(z: Tensor, n: int) -> Tensor:
    """Replicate a (B, C, H, W) field into n identical streams."""
    if n < 1:
        raise ShapeError(f"stream count must be >= 1, got {n}")
    z = ad.as_tensor(z)
    if z.ndim != 4:
        raise ShapeError(f"lift expects (B, C, H, W), got {z.shape}")
    b, c, h, w = z.shape
    return ad.broadcast_to(ad.reshape(z, (b, 1, c, h, w)), (b, n, c, h, w))


@dataclass
class AotMaps:
    """The three constrained maps of one sub-layer application."""

    a: Tensor            # (B, n), rows on the simplex
    d: Tensor            # (B, n), entries in (0, 2)
    t: Tensor            # (B, n, n), doubly stochastic to residual


class AotParams(Module):
    """Per-sub-layer parameters of the three adaptive maps."""

    def __init__(self, n: int, channels: int, rng: np.random.Generator,
                 gate_init: float = 0.01):
        self.n = n
        self.channels = channels
        nc = n * channels
        scale = 1.0 / np.sqrt(nc)

        def param(data):
            return Tensor(data, requires_grad=True)

        self.phi_a = param(scale * rng.standard_normal((nc, n)))
        self.phi_d = param(scale * rng.standard_normal((nc, n)))
        self.phi_t = param(scale * rng.standard_normal((nc, n * n)))
        self.alpha_a = param(gate_init)
        self.alpha_d = param(gate_init)
        self.alpha_t = param(gate_init)
        self.b_a = param(np.zeros(n))
        self.b_d = param(np.zeros(n))
        self.b_t = param(np.eye(n).reshape(-1))
        self.rms_scale = param(np.ones(nc))


def pool_rms(x: Tensor, scale: Tensor) -> Tensor:
    """Mean of each stream's channels over (H, W), flattened to (B, n * C)
    and RMS-normalized over that axis with the per-entry ``scale``.  One
    tape node."""
    xd, sc = x.data, scale.data
    b, n, c, h, w = xd.shape
    vec = (xd.sum(axis=(3, 4)) * (1.0 / (h * w))).reshape(b, n * c)
    ms_eps = (vec * vec).sum(axis=-1, keepdims=True) * (1.0 / (n * c)) + RMS_NORM_EPS
    r = 1.0 / np.sqrt(ms_eps)
    vr = vec * r

    def bwd(g, acc):
        acc(scale, g * vr)
        g_vr = g * sc
        g_r = (g_vr * vec).sum(axis=-1, keepdims=True)
        g_sq = g_r * (-0.5 * r / ms_eps) * (1.0 / (n * c)) * vec
        # vec * r first, then both factors of vec * vec
        g_pool = (g_vr * r + g_sq + g_sq).reshape(b, n, c) * (1.0 / (h * w))
        acc(x, np.broadcast_to(np.expand_dims(g_pool, (3, 4)), xd.shape))

    return ad.node(vr * sc, bwd, x, scale)


def _simplex(z: np.ndarray):
    """sigmoid(z) normalized to sum 1 over the last axis."""
    s = ad.logistic(z)
    total = s.sum(axis=-1, keepdims=True)

    def to_z(g):
        g_total = (-g * s / (total * total)).sum(axis=-1, keepdims=True)
        return (g / total + g_total) * (s * (1.0 - s))

    return s / total, to_z


def _twice_sigmoid(z: np.ndarray):
    """2 sigmoid(z), in (0, 2)."""
    s = ad.logistic(z)
    return s * 2.0, lambda g: g * 2.0 * (s * (1.0 - s))


def _reshaped(shape: tuple):
    """The logits themselves, reshaped to ``shape``."""
    return lambda z: (z.reshape(shape), lambda g: g.reshape(z.shape))


def gated_map(vec: Tensor, phi: Tensor, alpha: Tensor, bias: Tensor,
              constraint) -> Tensor:
    """``constraint(alpha * (vec @ phi) + bias)`` as one tape node.
    ``constraint(z)`` returns the value and the function that takes the
    value's gradient back to ``z``."""
    vd, pd, al = vec.data, phi.data, alpha.data
    mm = vd @ pd
    value, to_z = constraint(al * mm + bias.data)

    def bwd(g, acc):
        gz = to_z(g)
        acc(bias, gz)
        acc(alpha, gz * mm)
        g_mm = gz * al
        acc(vec, g_mm @ pd.swapaxes(-1, -2))
        acc(phi, vd.swapaxes(-1, -2) @ g_mm)

    return ad.node(value, bwd, vec, phi, alpha, bias)


def compute_maps(x: Tensor, params: AotParams, sinkhorn_iters: int = 20) -> AotMaps:
    """Pooled state -> RMS-normalized vector -> gated affine maps -> constraints.

    Records five tape nodes: ``pool_rms``, one ``gated_map`` each for a, d
    and the raw T logits, in that order, then the Sinkhorn projection.  The
    tape runs their backwards in reverse, so the gradient into the pooled
    vector adds up in the order T, d, a.
    """
    b, n, c, h, w = x.shape
    if n != params.n or c != params.channels:
        raise ShapeError(f"state ({n} streams, {c} ch) does not match params "
                         f"({params.n} streams, {params.channels} ch)")
    vec = pool_rms(x, params.rms_scale)
    a = gated_map(vec, params.phi_a, params.alpha_a, params.b_a, _simplex)
    d = gated_map(vec, params.phi_d, params.alpha_d, params.b_d, _twice_sigmoid)
    raw_t = gated_map(vec, params.phi_t, params.alpha_t, params.b_t,
                      _reshaped((b, n, n)))
    return AotMaps(a=a, d=d, t=sinkhorn_tensor(raw_t, iters=sinkhorn_iters))


def identity_maps(x: Tensor) -> AotMaps:
    """The constant maps of the strict identity mode: a uniform, d all-ones
    and T the exact identity."""
    b, n = x.shape[:2]
    dtype = x.dtype
    return AotMaps(a=Tensor(np.full((b, n), 1.0 / n, dtype=dtype)),
                   d=Tensor(np.ones((b, n), dtype=dtype)),
                   t=Tensor(np.broadcast_to(np.eye(n, dtype=dtype), (b, n, n))))


def contract(x: Tensor, a: Tensor) -> Tensor:
    """sum_i a_i x_i over the streams of (B, n, C, H, W): one tape node."""
    xd = x.data
    b, n = xd.shape[:2]
    ar = a.data.reshape(b, n, 1, 1, 1)

    def bwd(g, acc):
        # The op-by-op tape stores the broadcast gradient g_xa as a copy
        # with the stream axis innermost.  g_xa * xd still comes out
        # C-ordered, so the sums into a see the same layout here.  g_xa * ar
        # does not, but x's stored gradient already holds combine's
        # C-ordered term when this runs, and the sum of the two is
        # C-ordered either way.
        g_xa = np.expand_dims(g, 1)
        acc(x, g_xa * ar)
        acc(a, (g_xa * xd).sum(axis=(2, 3, 4)))

    return ad.node((xd * ar).sum(axis=1), bwd, x, a)


def combine(x: Tensor, t: Tensor, d: Tensor, y: Tensor) -> Tensor:
    """T x + d^T y: the (B, n, n) matrices mix the streams of x, and d
    scatters the (B, C, H, W) field y to them.  One tape node."""
    xd, td = x.data, t.data
    b, n, c, h, w = xd.shape
    xr = xd.reshape(b, n, c * h * w)
    dr = d.data.reshape(b, n, 1, 1, 1)
    yr = y.data.reshape(b, 1, c, h, w)

    def bwd(g, acc):
        acc(d, (g * yr).sum(axis=(2, 3, 4)))
        acc(y, (g * dr).sum(axis=1))
        g_mixed = g.reshape(xr.shape)
        acc(t, g_mixed @ xr.swapaxes(-1, -2))
        acc(x, (td.swapaxes(-1, -2) @ g_mixed).reshape(xd.shape))

    mixed = (td @ xr).reshape(xd.shape)
    scattered = dr * yr
    # Named, neither sum operand is a temporary numpy may reuse as the
    # output: reusing scattered would give the sum y's layout (channels
    # last after the MLP), not the C order of the op-by-op add.
    return ad.node(mixed + scattered, bwd, x, t, d, y)


def aot_update(x: Tensor, maps: AotMaps, sublayer) -> Tensor:
    """One multi-stream residual update x_next = T x + d^T f(a x): the
    ``contract`` node, the sub-layer's own nodes, then the ``combine`` node."""
    return combine(x, maps.t, maps.d, sublayer(contract(x, maps.a)))


def readout(x: Tensor, w: Tensor) -> Tensor:
    """Collapse streams with softmax(w) weights: (B, n, C, H, W) -> (B, C, H, W)."""
    b, n = x.shape[0], x.shape[1]
    if w.shape != (n,):
        raise ShapeError(f"readout logits shape {w.shape} does not match {n} streams")
    g = softmax_vector(w)
    return ad.tsum(x * ad.reshape(g, (1, n, 1, 1, 1)), axis=1)


# ---------------------------------------------------------------------
# the wrapped sub-layer
# ---------------------------------------------------------------------

class AotSubLayer(Module):
    """One adaptive residual application: maps + sandwich-normalized inner
    sub-layer.  ``strict_identity`` computes no maps at all: T is the exact
    identity, aggregation is the stream mean and redistribution all-ones,
    whatever the gates."""

    def __init__(self, inner: Module, n: int, channels: int, rng: np.random.Generator,
                 gate_init: float = 0.01, sinkhorn_iters: int = 20,
                 groups: int | None = None):
        if groups is None:
            groups = default_groups(channels)
        self.inner = inner
        self.maps = AotParams(n, channels, rng, gate_init)
        self.pre = GroupNorm.init(channels, groups)
        self.post = GroupNorm.init(channels, groups)
        self.sinkhorn_iters = sinkhorn_iters

    def _wrapped(self, u: Tensor) -> Tensor:
        return self.post(self.inner.forward(self.pre(u)))

    def forward(self, x: Tensor, strict_identity: bool = False):
        """Returns (next state, AotMaps), or (next state, None) in the strict
        identity mode, which updates through the constant ``identity_maps``."""
        if strict_identity:
            return aot_update(x, identity_maps(x), self._wrapped), None
        maps = compute_maps(x, self.maps, self.sinkhorn_iters)
        return aot_update(x, maps, self._wrapped), maps

    def reference_forward(self, u: Tensor) -> Tensor:
        """Single-stream residual using the same sub-layer weights."""
        return u + self._wrapped(u)
