"""Autoregressive denoising training: noise, loss, optimizer, schedule, loop.

The loop draws balanced windows, perturbs them with RMS-scaled Gaussian
noise, minimizes next-frame squared error, and applies a decoupled-decay
Adam update under a one-cycle learning-rate schedule.  All randomness flows
from the config seed through named streams so runs are reproducible and a
checkpoint made mid-run resumes bit-identically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .container import write_lines
from .data import SamplingPlan, TrajectoryDataset, family_subset, sample_batch
from .errors import FormatError, NumericOverflowError, ShapeError
from .model import TRANSFORM_MODES, Model, ModelConfig

# named randomness streams derived from the single config seed
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_NOISE = 2

TRANSFORM_PREFIX = "transform."


def named_stream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one named role under a shared seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass
class TrainConfig:
    epochs: int = 50
    steps_per_epoch: int = 100
    batch: int = 8
    peak_lr: float = 1e-3
    warmup_epochs: int = 10
    weight_decay: float = 1e-6
    betas: tuple = (0.9, 0.9)
    eps: float = 1e-8
    noise: float = 5e-4
    clip_norm: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.steps_per_epoch < 1 or self.batch < 1:
            raise ValueError("epochs, steps_per_epoch, batch must be at least 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(f"warmup {self.warmup_epochs} must lie in "
                             f"[0, epochs {self.epochs})")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.noise < 0:
            raise ValueError("noise scale must be nonnegative")
        if not all(0 <= b < 1 for b in self.betas):
            raise ValueError(f"betas must lie in [0, 1), got {self.betas}")


# ---------------------------------------------------------------------
# training primitives
# ---------------------------------------------------------------------

def inject_noise(window: np.ndarray, eps_hat: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian noise with per-sample std eps_hat * RMS(window sample).

    RMS is the L2 norm over one sample's window divided by sqrt of its
    element count, so the perturbation strength is resolution independent.
    """
    if eps_hat < 0:
        raise ValueError("noise scale must be nonnegative")
    if eps_hat == 0:
        return window
    b = window.shape[0]
    flat = window.reshape(b, -1)
    rms = np.sqrt(np.mean(flat.astype(np.float64) ** 2, axis=1))
    noise = rng.standard_normal(window.shape)
    scale = (eps_hat * rms).reshape((b,) + (1,) * (window.ndim - 1))
    return window + (noise * scale).astype(window.dtype)


def denoising_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Per-sample sum of squared errors, averaged over the batch."""
    pred, target = ad.as_tensor(pred), ad.as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} vs "
                         f"target shape {target.shape}")
    diff = pred - target
    return ad.tsum(diff * diff) / float(pred.shape[0])


def one_cycle_lr(step: int, total: int, warmup_frac: float, peak: float) -> float:
    """Linear ramp 0 -> peak over the warmup fraction, cosine decay to 0."""
    if total < 1:
        raise ValueError("total must be at least 1")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if not 0 <= warmup_frac < 1:
        raise ValueError(f"warmup fraction {warmup_frac} outside [0, 1)")
    warm = total * warmup_frac
    if step < warm:
        return peak * step / warm
    return peak * 0.5 * (1.0 + math.cos(math.pi * (step - warm) / (total - warm)))


def _check_finite(grads: dict) -> None:
    """Raise NumericOverflowError naming the first non-finite gradient."""
    for name, g in grads.items():
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericOverflowError(
                f"non-finite gradient for parameter {name}", where=name)


def clip_gradients(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale all gradients jointly so the global L2 norm is at most max_norm.

    A non-finite gradient raises before anything is scaled, naming it.
    """
    with np.errstate(over="ignore"):
        total_sq = sum(float(np.sum(g.astype(np.float64) ** 2))
                       for g in grads.values())
    if math.isfinite(total_sq):
        total = math.sqrt(total_sq)
    else:
        _check_finite(grads)
        # finite gradients whose squares overflow: rescale by the largest |g|
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
        total = peak * math.sqrt(sum(
            float(np.sum((g.astype(np.float64) / peak) ** 2)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * np.asarray(factor, dtype=g.dtype) for k, g in grads.items()}, total


class AdamW:
    """Adam with decoupled weight decay and bias correction."""

    def __init__(self, params: dict, betas=(0.9, 0.9), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, grads: dict, lr: float) -> None:
        """Apply one update; a non-finite gradient raises before any change."""
        _check_finite({name: grads.get(name) for name in self.params})
        self.t += 1
        b1, b2 = self.betas
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data = (p.data - lr * self.weight_decay * p.data
                      - lr * m_hat / (np.sqrt(v_hat) + self.eps))

    def state_blocks(self) -> dict:
        out = {}
        for name in self.params:
            out[f"{name}.m"] = self.m[name]
            out[f"{name}.v"] = self.v[name]
        return out

    def load_state_blocks(self, blocks: dict, t: int) -> None:
        for name, p in self.params.items():
            for kind, store in (("m", self.m), ("v", self.v)):
                key = f"{name}.{kind}"
                if key not in blocks:
                    raise FormatError(f"checkpoint lacks optimizer block {key!r}")
                arr = blocks[key]
                if arr.shape != p.data.shape:
                    raise FormatError(f"optimizer block {key!r} shape {arr.shape} "
                                      f"vs parameter shape {p.data.shape}")
                store[name] = arr.astype(p.data.dtype)
        self.t = t


# ---------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------

def save_training_checkpoint(path: str, model, opt: AdamW, step: int,
                             data_rng, noise_rng) -> None:
    save_checkpoint(
        path, config_hash(model.cfg), step,
        {k: t.data for k, t in model.named_tensors().items()},
        opt.state_blocks(),
        {"data": data_rng.bit_generator.state,
         "noise": noise_rng.bit_generator.state})


def _assign_model_tensors(model, ckpt) -> None:
    if ckpt.config_hash != config_hash(model.cfg):
        raise FormatError("checkpoint config hash does not match the model; "
                          "was it written for a different configuration?")
    named = model.named_tensors()
    missing = set(named) - set(ckpt.tensors)
    extra = set(ckpt.tensors) - set(named)
    if missing or extra:
        raise FormatError(f"checkpoint tensor names disagree with the model "
                          f"(missing {sorted(missing)}, extra {sorted(extra)})")
    for name, t in named.items():
        arr = ckpt.tensors[name]
        if arr.shape != t.data.shape:
            raise FormatError(f"tensor {name!r} shape {arr.shape} "
                              f"vs model shape {t.data.shape}")
        t.data = arr if arr.dtype == t.data.dtype else arr.astype(t.data.dtype)


def load_model_state(model, path: str) -> int:
    """Load model parameters only; optimizer and rng blocks are ignored."""
    ckpt = load_checkpoint(path)
    _assign_model_tensors(model, ckpt)
    return ckpt.step


def restore_training_checkpoint(path: str, model, opt: AdamW,
                                data_rng, noise_rng) -> int:
    """Load parameters, moments, and rng streams; returns the saved step."""
    ckpt = load_checkpoint(path)
    _assign_model_tensors(model, ckpt)
    opt.load_state_blocks(ckpt.opt_tensors, ckpt.step)
    for key, rng in (("data", data_rng), ("noise", noise_rng)):
        if not isinstance(ckpt.rng_state, dict) or key not in ckpt.rng_state:
            raise FormatError(f"checkpoint rng state lacks {key!r}")
        try:
            rng.bit_generator.state = ckpt.rng_state[key]
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise FormatError(f"checkpoint rng state {key!r} is invalid: "
                              f"{err!r}") from err
    return ckpt.step


def load_transform(model, path: str) -> None:
    """Copy the pointwise transform tensors out of a full-model checkpoint."""
    ckpt = load_checkpoint(path)
    named = model.named_tensors()
    for name in sorted(k for k in named if k.startswith(TRANSFORM_PREFIX)):
        if name not in ckpt.tensors:
            raise FormatError(f"checkpoint lacks transform tensor {name!r}")
        arr = ckpt.tensors[name]
        if arr.shape != named[name].data.shape:
            raise FormatError(f"transform tensor {name!r} shape {arr.shape} "
                              f"vs model shape {named[name].data.shape}")
        named[name].data = arr.astype(named[name].data.dtype)


# ---------------------------------------------------------------------
# validation and metrics
# ---------------------------------------------------------------------

def validate(model, ds: TrajectoryDataset, window_stride: int = 5) -> dict:
    """Per-family single-step relative error on native channels.

    Every trajectory is scored at window starts 0, stride, 2*stride, ...
    (predict frame s + t_in from frames s..s+t_in-1); the family value is
    the mean per-sample L2RE over all trajectories and starts.  Padded
    channels are excluded from the metric.
    """
    from .diagnostics import l2re

    if window_stride < 1:
        raise ValueError("window_stride must be at least 1")
    t_in = model.cfg.t_in
    out = {}
    for fam in ds.families:
        idxs = ds.family_indices(fam)
        nc = ds.native_by_family[fam]
        length = min(len(ds.trajectories[i]) for i in idxs)
        if length <= t_in:
            raise ShapeError(f"{fam} trajectories have {length} frames; "
                             f"validation needs at least t_in + 1 = {t_in + 1}")
        starts = range(0, length - t_in, window_stride)
        windows = np.stack([ds.trajectories[i][s:s + t_in]
                            for s in starts for i in idxs])
        truths = np.stack([ds.trajectories[i][s + t_in]
                           for s in starts for i in idxs])
        pred = model.forward(Tensor(windows.astype(model.dtype))).data
        out[fam] = l2re(pred[..., :nc], truths[..., :nc].astype(pred.dtype))
    return out


def write_metrics_csv(path: str, rows: list, families: list) -> None:
    cols = ["epoch", "step", "lr", "train_loss"] + [f"{f}_l2re" for f in families]
    # str of a float is its shortest round-trip repr, also for np.float64
    write_lines(path, [",".join(cols)]
                + [",".join(str(row[c]) for c in cols) for row in rows])


# ---------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------

@dataclass
class TrainResult:
    step: int
    loss_trace: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    validation: dict = field(default_factory=dict)
    checkpoint_path: str | None = None


def train(model, train_ds: TrajectoryDataset, plan: SamplingPlan,
          cfg: TrainConfig, test_ds: TrajectoryDataset | None = None,
          out_dir: str | None = None, checkpoint_every: int = 0,
          resume_from: str | None = None, log=None) -> TrainResult:
    """Run the denoising loop; optionally resume, validate, and checkpoint.

    On numeric blow-up the most recent epoch-boundary checkpoint is written
    to out_dir/last_good.aotc and the finished epochs' rows to
    out_dir/metrics.csv (when out_dir is given) before the error
    propagates.
    """
    params = model.trainable_tensors()
    if not params:
        raise ValueError("model has no trainable parameters")
    opt = AdamW(params, cfg.betas, cfg.eps, cfg.weight_decay)
    data_rng = named_stream(cfg.seed, STREAM_DATA)
    noise_rng = named_stream(cfg.seed, STREAM_NOISE)

    start = 0
    if resume_from is not None:
        start = restore_training_checkpoint(resume_from, model, opt,
                                            data_rng, noise_rng)

    total = cfg.epochs * cfg.steps_per_epoch
    warmup_frac = cfg.warmup_epochs / cfg.epochs
    t_in = model.cfg.t_in
    result = TrainResult(step=start)
    epoch_losses: list = []
    families = test_ds.families if test_ds is not None else []
    last_good: str | None = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def snapshot(name: str) -> str:
        path = os.path.join(out_dir, name)
        save_training_checkpoint(path, model, opt, result.step,
                                 data_rng, noise_rng)
        return path

    def write_metrics() -> None:
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"),
                          result.metrics, families)

    try:
        for global_step in range(start, total):
            lr = one_cycle_lr(global_step, total, warmup_frac, cfg.peak_lr)
            windows, targets, _ = sample_batch(train_ds, plan, cfg.batch,
                                               t_in, data_rng)
            windows = inject_noise(windows.astype(model.dtype), cfg.noise,
                                   noise_rng)
            with Tape() as tape:
                pred = model.forward(Tensor(windows))
                loss = denoising_loss(pred, Tensor(targets.astype(model.dtype)))
            for p in params.values():
                p.grad = None
            tape.backward(loss)
            grads = {k: p.grad for k, p in params.items()}
            if cfg.clip_norm is not None:
                grads, _ = clip_gradients(
                    {k: g for k, g in grads.items() if g is not None},
                    cfg.clip_norm)
            opt.step(grads, lr)
            result.step = global_step + 1
            loss_val = float(loss.data)
            result.loss_trace.append(loss_val)
            epoch_losses.append(loss_val)

            if result.step % cfg.steps_per_epoch == 0:
                epoch = result.step // cfg.steps_per_epoch - 1
                row = {"epoch": epoch, "step": result.step, "lr": lr,
                       "train_loss": float(np.mean(epoch_losses))}
                epoch_losses = []
                val = validate(model, test_ds) if test_ds is not None else {}
                for fam in families:
                    row[f"{fam}_l2re"] = val[fam]
                result.metrics.append(row)
                result.validation = val
                if log is not None:
                    log(row)
                if out_dir:
                    last_good = snapshot("last_good.aotc")
                    if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
                        snapshot(f"checkpoint_{epoch:04d}.aotc")
    except NumericOverflowError:
        if out_dir:
            if last_good is None:
                snapshot("last_good.aotc")
            write_metrics()
        raise

    if out_dir:
        result.checkpoint_path = snapshot("checkpoint.aotc")
        write_metrics()
    return result


# ---------------------------------------------------------------------
# motivated-experiment protocol
# ---------------------------------------------------------------------

def train_mode_run(model_cfg: ModelConfig, mode: str,
                   train_ds: TrajectoryDataset, plan: SamplingPlan,
                   cfg: TrainConfig, dtype=np.float64,
                   test_ds: TrajectoryDataset | None = None,
                   transform_from: str | None = None,
                   out_dir: str | None = None):
    """Train a freshly initialized model in one of the three transform modes.

    vanilla: the pointwise pair is bypassed and untrained.  learned: applied
    and trained jointly.  frozen: applied, loaded from ``transform_from``,
    and gradient-suppressed while the re-initialized backbone trains.
    Returns (TrainResult, model).
    """
    if mode not in TRANSFORM_MODES:
        raise ValueError(f"mode must be one of {TRANSFORM_MODES}, got {mode!r}")
    if mode == "frozen" and transform_from is None:
        raise ValueError("frozen mode needs a transform_from checkpoint")
    init_rng = named_stream(cfg.seed, STREAM_INIT)
    model = Model(model_cfg, init_rng, dtype=dtype, transform_mode=mode)
    if mode == "frozen":
        load_transform(model, transform_from)
    result = train(model, train_ds, plan, cfg, test_ds=test_ds, out_dir=out_dir)
    return result, model


def cross_transfer(model_cfg: ModelConfig, ds: TrajectoryDataset,
                   families: list, cfg: TrainConfig, out_dir: str,
                   dtype=np.float64) -> dict:
    """Transfer matrix: pre-train the transform on each source family, then
    freeze it and retrain the backbone on each target family.

    Returns {(source, target): final-epoch mean train loss}; source
    checkpoints land under out_dir/source_<family>/.
    """
    if len(families) < 2:
        raise ValueError("need at least two families for a transfer matrix")
    matrix = {}
    sources = {}
    for fam in families:
        sub = family_subset(ds, fam)
        plan = SamplingPlan({fam: 1.0})
        res, _ = train_mode_run(model_cfg, "learned", sub, plan, cfg,
                                dtype=dtype,
                                out_dir=os.path.join(out_dir, f"source_{fam}"))
        sources[fam] = res.checkpoint_path
    for src in families:
        for dst in families:
            sub = family_subset(ds, dst)
            plan = SamplingPlan({dst: 1.0})
            res, _ = train_mode_run(model_cfg, "frozen", sub, plan, cfg,
                                    dtype=dtype, transform_from=sources[src])
            matrix[(src, dst)] = res.metrics[-1]["train_loss"]
    return matrix


def write_cross_transfer_csv(path: str, families: list, matrix: dict) -> None:
    """Rows are transform-source families, columns are target families."""
    write_lines(path, ["source," + ",".join(families)]
                + [src + "," + ",".join(repr(matrix[(src, dst)]) for dst in families)
                   for src in families])
