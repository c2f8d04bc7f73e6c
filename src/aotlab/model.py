"""Full network: patch embedding with coordinate encodings, temporal
aggregation, adaptive multi-stream blocks, gated readout, de-patch head.

Input windows are (B, T_in, H, W, C) and the output is the predicted next
frame (B, H, W, C).  Each of the N blocks applies two wrapped sub-layers in
order: the Fourier token mixer, then a pointwise channel MLP.  A pointwise
channel transform pair may wrap the whole network; its mode (vanilla,
learned or frozen) is chosen when the model is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .blocks import (
    AotSubLayer,
    ChannelMLP,
    Linear,
    MixerSubLayer,
    default_groups,
    lift,
    readout,
)
from .errors import NumericOverflowError, ShapeError
from .mixer import ACTIVATIONS, mode_mask


@dataclass
class ModelConfig:
    height: int = 32
    width: int = 32
    channels: int = 2
    t_in: int = 10
    patch: int = 8
    d_z: int = 64
    heads: int = 4
    modes: int = 2
    blocks: int = 4
    streams: int = 4
    sinkhorn_iters: int = 20
    gate_init: float = 0.01
    groups: int | None = None
    activation: str = "gelu"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ShapeError(f"{f.name} must be at least 1, got {value}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; "
                             f"options: {', '.join(ACTIVATIONS)}")
        if self.height % self.patch or self.width % self.patch:
            raise ShapeError(f"grid ({self.height}, {self.width}) not divisible "
                             f"by patch {self.patch}")
        if self.d_z % self.heads:
            raise ShapeError(f"d_z {self.d_z} not divisible by heads {self.heads}")
        if self.groups is not None and (self.groups < 1 or self.d_z % self.groups):
            raise ShapeError(f"groups must divide d_z {self.d_z}, got {self.groups}")
        mode_mask(self.token_h, self.token_w, self.modes)

    @property
    def token_h(self) -> int:
        return self.height // self.patch

    @property
    def token_w(self) -> int:
        return self.width // self.patch

    def norm_groups(self) -> int:
        return self.groups if self.groups is not None else default_groups(self.d_z)


TRANSFORM_MODES = ("vanilla", "learned", "frozen")


class LinearTransformPair(Module):
    """Pointwise channel transforms wrapping the whole network (W_out o G o
    W_in), built as the identity.  ``vanilla`` leaves the model untouched;
    ``learned`` trains the transforms; ``frozen`` applies them but
    suppresses their gradients.  The mode is fixed when the pair is built."""

    def __init__(self, channels: int, mode: str = "vanilla"):
        if mode not in TRANSFORM_MODES:
            raise ValueError(f"unknown transform mode {mode!r}; options: {TRANSFORM_MODES}")
        trainable = mode == "learned"
        self.w_in = Tensor(np.eye(channels), requires_grad=trainable)
        self.b_in = Tensor(np.zeros(channels), requires_grad=trainable)
        self.w_out = Tensor(np.eye(channels), requires_grad=trainable)
        self.b_out = Tensor(np.zeros(channels), requires_grad=trainable)
        self.mode = mode

    @property
    def active(self) -> bool:
        return self.mode != "vanilla"


def apply_linear_transform(u: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``u @ w + b`` over the channel (last) axis at every grid node."""
    shape = u.shape
    flat = ad.reshape(u, (-1, shape[-1]))
    return ad.reshape(ad.matmul(flat, w) + b, shape)


def temporal_aggregate(tokens: Tensor, t_mlp, gamma: Tensor) -> Tensor:
    """Weighted frame sum: Re(sum_t mlp(z^t) e^{-i gamma t}).

    The MLP and tokens are real, so the imaginary part of the exponential
    drops after taking the real part and the weight reduces to cos(gamma t).
    ``t`` is the integer frame index 0..T_in-1.  gamma starts at 0, where
    its gradient is exactly 0, so the phase is 1 and the layer is a plain
    frame sum unless gamma is set otherwise.
    """
    b, t, c, hp, wp = tokens.shape
    y = t_mlp.forward(ad.reshape(tokens, (b * t, c, hp, wp)))
    y = ad.reshape(y, (b, t, c, hp, wp))
    tvec = Tensor(np.arange(t, dtype=gamma.data.dtype).reshape(t, 1))
    phase = ad.cos(tvec * ad.reshape(gamma, (1, c)))
    return ad.tsum(y * ad.reshape(phase, (1, t, c, 1, 1)), axis=1)


def _coordinate_grid(cfg: ModelConfig) -> np.ndarray:
    """(T_in * H * W, 3) float64 normalized (x, y) and frame index of every node."""
    h, w, t_in = cfg.height, cfg.width, cfg.t_in
    xs = np.arange(h) / (h - 1) if h > 1 else np.zeros(1)
    ys = np.arange(w) / (w - 1) if w > 1 else np.zeros(1)
    grid = np.empty((t_in, h, w, 3))
    grid[..., 0] = xs[None, :, None]
    grid[..., 1] = ys[None, None, :]
    grid[..., 2] = np.arange(t_in, dtype=float)[:, None, None]
    return grid.reshape(-1, 3)


class Model(Module):
    """The assembled operator network.

    ``transform`` is the pointwise channel pair used by the basis-change
    experiments; ``transform_mode`` picks its mode once, when the model is
    built.  In vanilla mode it is bypassed entirely.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64,
                 transform_mode: str = "vanilla"):
        self.cfg = cfg
        c, dz, p = cfg.channels, cfg.d_z, cfg.patch

        # built in float64 and cast once at the end, which gives the same
        # bits as casting each tensor as it is drawn.  Assignment order is
        # name order; the layers draw from rng in it, each inner layer
        # before the maps that wrap it
        self.w_p = Tensor(np.zeros((c, 3)), requires_grad=True)
        self.gamma = Tensor(np.zeros(dz), requires_grad=True)
        self.readout = Module(w=Tensor(np.zeros(cfg.streams), requires_grad=True))
        self.patch = Linear(p * p * c, dz, rng)
        self.t_mlp = ChannelMLP(dz, rng)

        def wrap(inner: Module) -> AotSubLayer:
            return AotSubLayer(inner, cfg.streams, dz, rng, cfg.gate_init,
                               cfg.sinkhorn_iters, cfg.norm_groups())

        self.blocks = [
            Module(mix=wrap(MixerSubLayer.init(dz, cfg.heads, cfg.modes, rng,
                                               cfg.activation)),
                   mlp=wrap(ChannelMLP(dz, rng)))
            for _ in range(cfg.blocks)]
        self.head = Linear(dz, p * p * c, rng)
        self.transform = LinearTransformPair(c, transform_mode)
        self.astype(dtype)

    # -- plumbing ------------------------------------------------------
    def trainable_tensors(self) -> dict:
        return {k: t for k, t in self.named().items() if t.requires_grad}

    def astype(self, dtype) -> "Model":
        """Cast every parameter in place, and build the node coordinates the
        embedding adds at the new dtype; forward passes follow it."""
        self.dtype = dtype
        for t in self.named().values():
            t.data = t.data.astype(dtype)
        self._coords = _coordinate_grid(self.cfg).astype(dtype)
        return self

    def param_count(self) -> int:
        return sum(t.size for t in self.named().values())

    def aot_param_count(self) -> int:
        """Parameters of the adaptive maps plus the readout logits."""
        return sum(t.size for name, t in self.named().items()
                   if name == "readout.w" or ".maps." in name)

    # -- stages --------------------------------------------------------
    def _check_window(self, u: Tensor) -> None:
        cfg = self.cfg
        want = (cfg.t_in, cfg.height, cfg.width, cfg.channels)
        if u.ndim != 5 or u.shape[1:] != want:
            raise ShapeError(f"window shape {u.shape} is not (B,) + {want}")

    def embed(self, u: Tensor) -> Tensor:
        """(B, T_in, H, W, C) window -> (B, T_in, d_z, H', W') token stack."""
        cfg = self.cfg
        self._check_window(u)
        b, t = u.shape[0], u.shape[1]
        pos = ad.matmul(Tensor(self._coords), ad.transpose(self.w_p, (1, 0)))
        u = u + ad.reshape(pos, (1, t, cfg.height, cfg.width, cfg.channels))

        p, hp, wp = cfg.patch, cfg.token_h, cfg.token_w
        x = ad.reshape(u, (b * t, hp, p, wp, p, cfg.channels))
        x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
        x = ad.reshape(x, (b * t * hp * wp, p * p * cfg.channels))
        x = self.patch(x)
        x = ad.transpose(ad.reshape(x, (b * t, hp, wp, cfg.d_z)), (0, 3, 1, 2))
        return ad.reshape(x, (b, t, cfg.d_z, hp, wp))

    def depatch(self, z: Tensor) -> Tensor:
        """(B, d_z, H', W') tokens -> (B, H, W, C) field."""
        cfg = self.cfg
        b, _, hp, wp = z.shape
        x = ad.reshape(ad.transpose(z, (0, 2, 3, 1)), (b * hp * wp, cfg.d_z))
        x = self.head(x)
        x = ad.reshape(x, (b, hp, wp, cfg.patch, cfg.patch, cfg.channels))
        x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
        return ad.reshape(x, (b, cfg.height, cfg.width, cfg.channels))

    def _encode(self, u) -> Tensor:
        """Checked (B, T_in, H, W, C) window through the input transform,
        patch embedding and temporal aggregation.  A window of another
        dtype is cast to the model's; a Tensor already at it is used as
        is, so a taped input keeps its graph."""
        if not (isinstance(u, Tensor) and u.dtype == self.dtype):
            u = Tensor(u.data if isinstance(u, Tensor) else u, dtype=self.dtype)
        self._check_window(u)
        if self.transform.active:
            u = apply_linear_transform(u, self.transform.w_in, self.transform.b_in)
        return temporal_aggregate(self.embed(u), self.t_mlp, self.gamma)

    def _decode(self, z: Tensor) -> Tensor:
        out = self.depatch(z)
        if self.transform.active:
            out = apply_linear_transform(out, self.transform.w_out, self.transform.b_out)
        return out

    def forward(self, u, strict_identity: bool = False,
                collect_maps: list | None = None) -> Tensor:
        """Predict the next frame from a (B, T_in, H, W, C) window, an
        array or a Tensor, at the model's precision."""
        z = self._encode(u)
        self._check_finite(z, "embed/temporal")
        state = lift(z, self.cfg.streams)
        for i, block in enumerate(self.blocks):
            for j, sub in enumerate((block.mix, block.mlp)):
                state, maps = sub.forward(state, strict_identity=strict_identity)
                if collect_maps is not None:
                    collect_maps.append(maps)
                self._check_finite(state, f"block {i} sublayer {j}")
        out = self._decode(readout(state, self.readout.w))
        self._check_finite(out, "head")
        return out

    def reference_forward(self, u) -> Tensor:
        """Single-stream residual network sharing this model's weights;
        comparison target for the strict-identity mode."""
        z = self._encode(u)
        for block in self.blocks:
            z = block.mlp.reference_forward(block.mix.reference_forward(z))
        return self._decode(z)

    @staticmethod
    def _check_finite(t: Tensor, where: str) -> None:
        if not np.all(np.isfinite(t.data)):
            raise NumericOverflowError(f"non-finite activations at {where}", where=where)
