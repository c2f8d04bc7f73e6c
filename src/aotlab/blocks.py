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
from .autodiff import Tensor
from .errors import ShapeError
from .mixer import FourierMixerParams, fourier_mix
from .sinkhorn import sinkhorn_tensor


# ---------------------------------------------------------------------
# building blocks shared by the whole network
# ---------------------------------------------------------------------

class Linear:
    """Dense layer y = x W + b acting on the last axis of 2-D input."""

    def __init__(self, w: Tensor, b: Tensor):
        self.w = w
        self.b = b

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
             dtype=np.float64, scale: float | None = None) -> "Linear":
        if scale is None:
            scale = np.sqrt(2.0 / in_dim)
        w = Tensor((scale * rng.standard_normal((in_dim, out_dim))).astype(dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)
        return cls(w, b)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class GroupNorm:
    """Per-group standardization over (channels-in-group, H, W), eps 1e-5,
    learnable per-channel affine.

    A call records one fused tape node.  Its backward replays, in reverse,
    exactly the numpy operations the tape would run for the op-by-op graph
    (reshape, mean, centering, variance, rsqrt, affine), including the
    order of the three contributions to the centered input and the
    unbroadcast sums into ``scale`` and ``shift``, so values and gradients
    are bit-identical to it at one node instead of fifteen.
    """

    def __init__(self, channels: int, groups: int, scale: Tensor, shift: Tensor,
                 eps: float = 1e-5):
        if channels % groups != 0:
            raise ShapeError(f"channels {channels} not divisible by groups {groups}")
        self.channels = channels
        self.groups = groups
        self.scale = scale
        self.shift = shift
        self.eps = eps

    @classmethod
    def init(cls, channels: int, groups: int, dtype=np.float64) -> "GroupNorm":
        scale = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        shift = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
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
        var_eps = (centered * centered).sum(axis=axes, keepdims=True) * inv_count + self.eps
        r = 1.0 / np.sqrt(var_eps)
        y = (centered * r).reshape((b, c, h, w))
        scale, shift = self.scale, self.shift
        sc = scale.data.reshape((1, c, 1, 1))
        out = Tensor(y * sc + shift.data.reshape((1, c, 1, 1)),
                     requires_grad=ad.tracking(x, scale, shift))
        if not out.requires_grad:
            return out
        dr = -0.5 * r / var_eps

        def bwd(gout, acc):
            acc(shift, ad._unbroadcast(gout, sc.shape).reshape((c,)))
            acc(scale, ad._unbroadcast(gout * y, sc.shape).reshape((c,)))
            gy = (gout * sc).reshape(centered.shape)
            g_var = ad._unbroadcast(gy * centered, r.shape) * dr
            # the tape stores this broadcast as a C-ordered copy; its layout
            # fixes the order of the summation into g_mean below
            g_sq = np.broadcast_to(g_var * inv_count, centered.shape).copy() * centered
            g_centered = gy * r + g_sq + g_sq
            g_mean = ad._unbroadcast(-g_centered, r.shape) * inv_count
            acc(x, (g_centered + g_mean).reshape((b, c, h, w)))

        ad.record(out, bwd)
        return out

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.scale": self.scale, f"{prefix}.shift": self.shift}


def default_groups(channels: int) -> int:
    return 8 if channels % 8 == 0 else 1


def rms_norm(v: Tensor, scale: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the last axis of (B, D) input."""
    ms = ad.tmean(v * v, axis=-1, keepdims=True)
    return v * ad.rsqrt(ms + eps) * scale


def softmax_vector(w: Tensor) -> Tensor:
    """Softmax of a small 1-D logit vector (plain exp; logits stay O(1))."""
    e = ad.exp(w)
    return e / ad.tsum(e)


class ChannelMLP:
    """Pointwise two-layer MLP over channels with GELU in between."""

    def __init__(self, lin1: Linear, lin2: Linear):
        self.lin1 = lin1
        self.lin2 = lin2

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator, dtype=np.float64) -> "ChannelMLP":
        return cls(Linear.init(dim, dim, rng, dtype), Linear.init(dim, dim, rng, dtype))

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        flat = ad.reshape(ad.transpose(x, (0, 2, 3, 1)), (b * h * w, c))
        out = self.lin2(ad.gelu(self.lin1(flat)))
        return ad.transpose(ad.reshape(out, (b, h, w, c)), (0, 3, 1, 2))

    def named(self, prefix: str) -> dict:
        return {**self.lin1.named(f"{prefix}.lin1"), **self.lin2.named(f"{prefix}.lin2")}


class MixerSubLayer:
    """Adapter giving the Fourier mixer the sub-layer interface."""

    def __init__(self, params: FourierMixerParams, activation: str = "gelu"):
        self.params = params
        self.activation = activation

    @classmethod
    def init(cls, dim, heads, modes, rng, dtype=np.float64, activation="gelu"):
        return cls(FourierMixerParams.init(dim, heads, modes, rng, dtype), activation)

    def forward(self, x: Tensor) -> Tensor:
        return fourier_mix(x, self.params, activation=self.activation)

    def named(self, prefix: str) -> dict:
        return self.params.named(prefix)


# ---------------------------------------------------------------------
# stream state and the three adaptive maps
# ---------------------------------------------------------------------

def lift(z: Tensor, n: int) -> Tensor:
    """Replicate a (B, C, H, W) field into n identical streams."""
    if n < 1:
        raise ShapeError(f"stream count must be >= 1, got {n}")
    z = ad.as_tensor(z)
    if z.ndim == 3:
        z = ad.reshape(z, (1,) + z.shape)
    if z.ndim != 4:
        raise ShapeError(f"lift expects (B, C, H, W), got {z.shape}")
    b, c, h, w = z.shape
    return ad.broadcast_to(ad.reshape(z, (b, 1, c, h, w)), (b, n, c, h, w))


@dataclass
class AotMaps:
    """Constrained maps plus their raw pre-constraint values."""

    a: Tensor            # (B, n), rows on the simplex
    d: Tensor            # (B, n), entries in (0, 2)
    t: Tensor            # (B, n, n), doubly stochastic to residual
    raw_a: Tensor
    raw_d: Tensor
    raw_t: Tensor        # (B, n, n)


class AotParams:
    """Per-sub-layer parameters of the three adaptive maps."""

    def __init__(self, n, channels, phi_a, phi_d, phi_t, alpha_a, alpha_d, alpha_t,
                 b_a, b_d, b_t, rms_scale):
        self.n = n
        self.channels = channels
        self.phi_a, self.phi_d, self.phi_t = phi_a, phi_d, phi_t
        self.alpha_a, self.alpha_d, self.alpha_t = alpha_a, alpha_d, alpha_t
        self.b_a, self.b_d, self.b_t = b_a, b_d, b_t
        self.rms_scale = rms_scale

    @classmethod
    def init(cls, n: int, channels: int, rng: np.random.Generator,
             dtype=np.float64, gate_init: float = 0.01) -> "AotParams":
        nc = n * channels
        scale = 1.0 / np.sqrt(nc)

        def phi(cols):
            return Tensor((scale * rng.standard_normal((nc, cols))).astype(dtype),
                          requires_grad=True)

        def gate():
            return Tensor(np.asarray(gate_init, dtype=dtype), requires_grad=True)

        return cls(
            n, channels,
            phi_a=phi(n), phi_d=phi(n), phi_t=phi(n * n),
            alpha_a=gate(), alpha_d=gate(), alpha_t=gate(),
            b_a=Tensor(np.zeros(n, dtype=dtype), requires_grad=True),
            b_d=Tensor(np.zeros(n, dtype=dtype), requires_grad=True),
            b_t=Tensor(np.eye(n, dtype=dtype).reshape(-1), requires_grad=True),
            rms_scale=Tensor(np.ones(nc, dtype=dtype), requires_grad=True),
        )

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.phi_a": self.phi_a, f"{prefix}.phi_d": self.phi_d,
            f"{prefix}.phi_t": self.phi_t,
            f"{prefix}.alpha_a": self.alpha_a, f"{prefix}.alpha_d": self.alpha_d,
            f"{prefix}.alpha_t": self.alpha_t,
            f"{prefix}.b_a": self.b_a, f"{prefix}.b_d": self.b_d, f"{prefix}.b_t": self.b_t,
            f"{prefix}.rms_scale": self.rms_scale,
        }


def compute_maps(x: Tensor, params: AotParams, sinkhorn_iters: int = 20) -> AotMaps:
    """Pooled state -> RMS-normalized vector -> gated affine maps -> constraints."""
    b, n, c, h, w = x.shape
    if n != params.n or c != params.channels:
        raise ShapeError(f"state ({n} streams, {c} ch) does not match params "
                         f"({params.n} streams, {params.channels} ch)")
    pooled = ad.tmean(x, axis=(3, 4))               # (B, n, C)
    vec = ad.reshape(pooled, (b, n * c))
    vec = rms_norm(vec, params.rms_scale)

    raw_a = params.alpha_a * ad.matmul(vec, params.phi_a) + params.b_a
    raw_d = params.alpha_d * ad.matmul(vec, params.phi_d) + params.b_d
    raw_t = ad.reshape(params.alpha_t * ad.matmul(vec, params.phi_t) + params.b_t,
                       (b, n, n))

    sa = ad.sigmoid(raw_a)
    a = sa / ad.tsum(sa, axis=-1, keepdims=True)
    d = 2.0 * ad.sigmoid(raw_d)
    t = sinkhorn_tensor(raw_t, iters=sinkhorn_iters)
    return AotMaps(a=a, d=d, t=t, raw_a=raw_a, raw_d=raw_d, raw_t=raw_t)


def stream_mix(t: Tensor, x: Tensor) -> Tensor:
    """Apply a (B, n, n) matrix along the stream axis of (B, n, C, H, W)."""
    b, n, c, h, w = x.shape
    mixed = ad.bmm(t, ad.reshape(x, (b, n, c * h * w)))
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

class AotSubLayer:
    """One adaptive residual application: maps + sandwich-normalized inner
    sub-layer.  ``strict_identity`` replaces T by the exact identity and
    skips the Sinkhorn projection; aggregation and redistribution still run
    (with zero gates they are exactly uniform / all-ones)."""

    def __init__(self, inner, params: AotParams, pre: GroupNorm, post: GroupNorm,
                 sinkhorn_iters: int = 20):
        self.inner = inner
        self.params = params
        self.pre = pre
        self.post = post
        self.sinkhorn_iters = sinkhorn_iters

    @classmethod
    def init(cls, inner, n: int, channels: int, rng: np.random.Generator,
             dtype=np.float64, gate_init: float = 0.01, sinkhorn_iters: int = 20,
             groups: int | None = None) -> "AotSubLayer":
        if groups is None:
            groups = default_groups(channels)
        return cls(
            inner,
            AotParams.init(n, channels, rng, dtype, gate_init),
            GroupNorm.init(channels, groups, dtype),
            GroupNorm.init(channels, groups, dtype),
            sinkhorn_iters,
        )

    def _wrapped(self, u: Tensor) -> Tensor:
        return self.post(self.inner.forward(self.pre(u)))

    def forward(self, x: Tensor, strict_identity: bool = False):
        """Returns (next state, AotMaps or None)."""
        maps = None if strict_identity else compute_maps(x, self.params, self.sinkhorn_iters)
        return aot_update(x, maps, self._wrapped), maps

    def reference_forward(self, u: Tensor) -> Tensor:
        """Single-stream residual using the same sub-layer weights."""
        return u + self._wrapped(u)

    def named(self, prefix: str) -> dict:
        out = {}
        out.update(self.inner.named(f"{prefix}.inner"))
        out.update(self.params.named(f"{prefix}.maps"))
        out.update(self.pre.named(f"{prefix}.pre"))
        out.update(self.post.named(f"{prefix}.post"))
        return out
