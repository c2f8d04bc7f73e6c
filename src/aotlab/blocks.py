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
            g_centered = gy * r + g_sq + g_sq
            g_mean = ad._unbroadcast(-g_centered, r.shape) * inv_count
            acc(x, (g_centered + g_mean).reshape((b, c, h, w)))

        return ad.node(y * sc + shift.data.reshape((1, c, 1, 1)), bwd, x, scale, shift)


def default_groups(channels: int) -> int:
    return 8 if channels % 8 == 0 else 1


def rms_norm(v: Tensor, scale: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis of (B, D) input."""
    ms = ad.tmean(v * v, axis=-1, keepdims=True)
    return v * ad.rsqrt(ms + RMS_NORM_EPS) * scale


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


def compute_maps(x: Tensor, params: AotParams, sinkhorn_iters: int = 20) -> AotMaps:
    """Pooled state -> RMS-normalized vector -> gated affine maps -> constraints."""
    b, n, c, h, w = x.shape
    if n != params.n or c != params.channels:
        raise ShapeError(f"state ({n} streams, {c} ch) does not match params "
                         f"({params.n} streams, {params.channels} ch)")
    pooled = ad.tmean(x, axis=(3, 4))               # (B, n, C)
    vec = ad.reshape(pooled, (b, n * c))
    vec = rms_norm(vec, params.rms_scale)

    gated_a = params.alpha_a * ad.matmul(vec, params.phi_a) + params.b_a
    gated_d = params.alpha_d * ad.matmul(vec, params.phi_d) + params.b_d
    gated_t = ad.reshape(params.alpha_t * ad.matmul(vec, params.phi_t) + params.b_t,
                         (b, n, n))

    sa = ad.sigmoid(gated_a)
    a = sa / ad.tsum(sa, axis=-1, keepdims=True)
    d = 2.0 * ad.sigmoid(gated_d)
    t = sinkhorn_tensor(gated_t, iters=sinkhorn_iters)
    return AotMaps(a=a, d=d, t=t)


def stream_mix(t: Tensor, x: Tensor) -> Tensor:
    """Apply a (B, n, n) matrix along the stream axis of (B, n, C, H, W)."""
    b, n, c, h, w = x.shape
    mixed = ad.matmul(t, ad.reshape(x, (b, n, c * h * w)))
    return ad.reshape(mixed, (b, n, c, h, w))


def aot_update(x: Tensor, maps: AotMaps | None, sublayer) -> Tensor:
    """One multi-stream residual update; ``maps=None`` means the strict
    identity mode (T = I exactly, a uniform, d all-ones), used to compare
    against a plain single-stream residual network."""
    b, n, c, h, w = x.shape
    if maps is None:
        mixed = x
        contracted = ad.tmean(x, axis=1)
        y = sublayer(contracted)
        return mixed + ad.reshape(y, (b, 1, c, h, w))
    mixed = stream_mix(maps.t, x)
    contracted = ad.tsum(x * ad.reshape(maps.a, (b, n, 1, 1, 1)), axis=1)
    y = sublayer(contracted)
    scattered = ad.reshape(maps.d, (b, n, 1, 1, 1)) * ad.reshape(y, (b, 1, c, h, w))
    return mixed + scattered


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
        """Returns (next state, AotMaps or None)."""
        maps = None if strict_identity else compute_maps(x, self.maps, self.sinkhorn_iters)
        return aot_update(x, maps, self._wrapped), maps

    def reference_forward(self, u: Tensor) -> Tensor:
        """Single-stream residual using the same sub-layer weights."""
        return u + self._wrapped(u)
