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
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .container import write_atomic, write_lines
from .data import SamplingPlan, TrajectoryDataset, family_subset, sample_batch
from .diagnostics import l2re
from .errors import FormatError, NumericOverflowError, ShapeError
from .model import Model, ModelConfig

# named randomness streams derived from the single config seed
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_NOISE = 2


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
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    noise: float = 5e-4
    clip_norm: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.epochs < 1 or self.steps_per_epoch < 1 or self.batch < 1:
            raise ValueError("epochs, steps_per_epoch, batch must be at least 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(f"warmup {self.warmup_epochs} must lie in "
                             f"[0, epochs {self.epochs})")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.noise < 0:
            raise ValueError("noise scale must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1 and beta2 must lie in [0, 1), "
                             f"got {self.beta1} and {self.beta2}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, "
                             f"got {self.weight_decay}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


def clip_gradients(grads: dict, max_norm: float) -> tuple[float, float]:
    """The factor that scales all gradients jointly to a global L2 norm of
    at most max_norm (exactly 1.0 within it), and that norm.

    Each gradient is squared in float64 and summed on its own, in its own
    memory order, and the sums are added in name order.  A None gradient
    counts as zero; a non-finite one raises, naming it.
    """
    present = [g for g in grads.values() if g is not None]
    with np.errstate(over="ignore"):
        total_sq = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in present)
    if math.isfinite(total_sq):
        total = math.sqrt(total_sq)
    else:
        _check_finite(grads)
        # finite gradients whose squares overflow: rescale by the largest |g|
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in present)
        total = peak * math.sqrt(sum(
            float(np.sum((g.astype(np.float64) / peak) ** 2)) for g in present))
    if total <= max_norm or total == 0.0:
        return 1.0, total
    return max_norm / total, total


class AdamW:
    """Adam with decoupled weight decay and bias correction.

    The parameters, all of one dtype, are laid out once in name order: one
    flat buffer for each moment, of which ``m[name]`` and ``v[name]`` are
    views updated in place.  A step gathers the gradients and the
    parameters' current ``data`` into flat arrays, updates them with
    whole-buffer operations, and rebinds every parameter's ``data`` to its
    view of the result.
    """

    def __init__(self, params: dict, betas=(0.9, 0.9), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        dtypes = {t.data.dtype for t in self.params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"AdamW needs parameters of one dtype, "
                             f"got {sorted(map(str, dtypes))}")
        self.dtype = dtypes.pop()
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = np.zeros(sum(t.data.size for t in self.params.values()), self.dtype)
        self._v = np.zeros_like(self._m)
        self.m, self.v = self._views(self._m), self._views(self._v)

    def _views(self, flat: np.ndarray) -> dict:
        """``flat`` cut into one view per parameter, in its shape."""
        views, lo = {}, 0
        for name, t in self.params.items():
            views[name] = flat[lo:lo + t.data.size].reshape(t.data.shape)
            lo += t.data.size
        return views

    def step(self, grads: dict, lr: float, scale: float = 1.0) -> None:
        """Apply one update with every gradient times ``scale``; a missing
        or None gradient counts as zero, and a wrong-size gradient or one not
        finite in the parameters' dtype raises before any change."""
        g = np.concatenate([np.zeros(t.data.size, self.dtype) if grads.get(k) is None
                            else grads[k].ravel() for k, t in self.params.items()],
                           dtype=self.dtype)
        if g.size != self._m.size:
            raise ShapeError("gradient sizes do not match the parameters'")
        if not np.isfinite(g).all():
            _check_finite(self._views(g))
        g *= self.dtype.type(scale)
        self.t += 1
        b1, b2 = self.betas
        m, v = self._m, self._v
        p = np.concatenate([t.data.ravel() for t in self.params.values()],
                           dtype=self.dtype)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** self.t)
        v_hat = v / (1.0 - b2 ** self.t)
        p = (p - lr * self.weight_decay * p
             - lr * m_hat / (np.sqrt(v_hat) + self.eps))
        for k, view in self._views(p).items():
            self.params[k].data = view

    def state_blocks(self) -> dict:
        return {f"{name}.{kind}": store[name] for name in self.params
                for kind, store in (("m", self.m), ("v", self.v))}

    def load_state_blocks(self, blocks: dict, t: int) -> None:
        for name, p in self.params.items():
            for kind, store in (("m", self.m), ("v", self.v)):
                store[name][...] = _checked_array(blocks, f"{name}.{kind}", p.data,
                                                  "optimizer block", "parameter")
        self.t = t


# ---------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------

def save_training_checkpoint(path: str, model, opt: AdamW, step: int,
                             data_rng, noise_rng) -> list:
    """Write a resumable checkpoint; returns the encoded chunks."""
    return save_checkpoint(
        path, config_hash(model.cfg), step,
        {k: t.data for k, t in model.named().items()},
        opt.state_blocks(),
        {"data": data_rng.bit_generator.state,
         "noise": noise_rng.bit_generator.state})


def _checked_array(arrays: dict, key: str, like: np.ndarray, what: str,
                   owner: str) -> np.ndarray:
    """The checkpoint array ``key``, checked against ``like``'s shape and
    cast to its dtype; ``what`` and ``owner`` name both in errors."""
    if key not in arrays:
        raise FormatError(f"checkpoint lacks {what} {key!r}")
    arr = arrays[key]
    if arr.shape != like.shape:
        raise FormatError(f"{what} {key!r} shape {arr.shape} "
                          f"vs {owner} shape {like.shape}")
    return arr.astype(like.dtype, copy=False)


def _copy_tensors(named: dict, arrays: dict, what: str) -> None:
    """Set each tensor in ``named`` from the checkpoint array of the same
    name, cast to the tensor's dtype."""
    for name, t in named.items():
        t.data = _checked_array(arrays, name, t.data, what, "model")


def _assign_model_tensors(model, ckpt) -> None:
    if ckpt.config_hash != config_hash(model.cfg):
        raise FormatError("checkpoint config hash does not match the model; "
                          "was it written for a different configuration?")
    named = model.named()
    missing = set(named) - set(ckpt.tensors)
    extra = set(ckpt.tensors) - set(named)
    if missing or extra:
        raise FormatError(f"checkpoint tensor names disagree with the model "
                          f"(missing {sorted(missing)}, extra {sorted(extra)})")
    _copy_tensors(named, ckpt.tensors, "tensor")


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
    _copy_tensors(model.transform.named("transform"), load_checkpoint(path).tensors,
                  "transform tensor")


# ---------------------------------------------------------------------
# validation and metrics
# ---------------------------------------------------------------------

def validate(model, ds: TrajectoryDataset) -> dict:
    """Per-family single-step relative error on native channels.

    Every trajectory is scored at window starts 0, 5, 10, ... (predict
    frame s + t_in from frames s..s+t_in-1); the family value is the mean
    per-sample L2RE over all trajectories and starts.  Padded channels are
    excluded from the metric.
    """
    t_in = model.cfg.t_in
    out = {}
    for fam in ds.families:
        idxs = ds.family_indices(fam)
        nc = ds.native_by_family[fam]
        length = min(len(ds.trajectories[i]) for i in idxs)
        if length <= t_in:
            raise ShapeError(f"{fam} trajectories have {length} frames; "
                             f"validation needs at least t_in + 1 = {t_in + 1}")
        starts = range(0, length - t_in, 5)
        windows = np.stack([ds.trajectories[i][s:s + t_in]
                            for s in starts for i in idxs])
        truths = np.stack([ds.trajectories[i][s + t_in]
                           for s in starts for i in idxs])
        pred = model.forward(windows).data
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
          resume_from: str | None = None) -> TrainResult:
    """Run the denoising loop; optionally resume, validate, and checkpoint.

    On numeric blow-up, when out_dir is given, out_dir/last_good.aotc holds
    the most recent epoch-boundary state (or, when the blow-up comes before
    the first epoch ends, the state after the last good step) and
    out_dir/metrics.csv the finished epochs' rows before the error
    propagates.
    """
    params = model.trainable_tensors()
    if not params:
        raise ValueError("model has no trainable parameters")
    opt = AdamW(params, (cfg.beta1, cfg.beta2), cfg.eps, cfg.weight_decay)
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

    def snapshot(*names: str) -> str:
        """Encode the current state once and write it under every name."""
        paths = [os.path.join(out_dir, name) for name in names]
        chunks = save_training_checkpoint(paths[0], model, opt, result.step,
                                          data_rng, noise_rng)
        for path in paths[1:]:
            write_atomic(path, chunks)
        return paths[0]

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
                pred = model.forward(windows)
                loss = denoising_loss(pred, Tensor(targets.astype(model.dtype)))
            for p in params.values():
                p.grad = None
            tape.backward(loss)
            grads = {k: p.grad for k, p in params.items()}
            scale = 1.0
            if cfg.clip_norm is not None:
                scale, _ = clip_gradients(grads, cfg.clip_norm)
            opt.step(grads, lr, scale)
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
                if out_dir:
                    names = ["last_good.aotc"]
                    if checkpoint_every and (epoch + 1) % checkpoint_every == 0:
                        names.append(f"checkpoint_{epoch:04d}.aotc")
                    if result.step == total:
                        names.append("checkpoint.aotc")
                    last_good = snapshot(*names)
    except NumericOverflowError:
        if out_dir:
            if last_good is None:
                snapshot("last_good.aotc")
            write_metrics()
        raise

    if out_dir:
        result.checkpoint_path = os.path.join(out_dir, "checkpoint.aotc")
        if start >= total:  # no step ran, so no epoch wrote the final state
            snapshot("checkpoint.aotc")
        write_metrics()
    return result


# ---------------------------------------------------------------------
# motivated-experiment protocol
# ---------------------------------------------------------------------

def train_mode_run(model_cfg: ModelConfig, mode: str,
                   train_ds: TrajectoryDataset, plan: SamplingPlan,
                   cfg: TrainConfig, dtype=np.float64,
                   transform_from: str | None = None,
                   out_dir: str | None = None):
    """Train a freshly initialized model in one of the three transform modes.

    vanilla: the pointwise pair is bypassed and untrained.  learned: applied
    and trained jointly.  frozen: applied, loaded from ``transform_from``,
    and gradient-suppressed while the re-initialized backbone trains.
    Returns (TrainResult, model).
    """
    if mode == "frozen" and transform_from is None:
        raise ValueError("frozen mode needs a transform_from checkpoint")
    init_rng = named_stream(cfg.seed, STREAM_INIT)
    model = Model(model_cfg, init_rng, dtype=dtype, transform_mode=mode)
    if mode == "frozen":
        load_transform(model, transform_from)
    result = train(model, train_ds, plan, cfg, out_dir=out_dir)
    return result, model


def cross_transfer(model_cfg: ModelConfig, ds: TrajectoryDataset,
                   families: list, cfg: TrainConfig, out_dir: str,
                   dtype=np.float64, sources: dict | None = None,
                   cells: dict | None = None) -> dict:
    """Transfer matrix: pre-train the transform on each source family, then
    freeze it and retrain the backbone on each target family.

    Returns {(source, target): final-epoch mean train loss}; source
    checkpoints land under out_dir/source_<family>/.  ``sources`` maps a
    family to a learned-mode checkpoint already trained with these
    settings, and ``cells`` holds losses already measured from those
    checkpoints; neither is trained again.
    """
    if len(families) < 2:
        raise ValueError("need at least two families for a transfer matrix")
    matrix = dict(cells or {})
    sources = dict(sources or {})
    for fam in families:
        if fam in sources:
            continue
        sub = family_subset(ds, fam)
        plan = SamplingPlan({fam: 1.0})
        res, _ = train_mode_run(model_cfg, "learned", sub, plan, cfg,
                                dtype=dtype,
                                out_dir=os.path.join(out_dir, f"source_{fam}"))
        sources[fam] = res.checkpoint_path
    for src in families:
        for dst in families:
            if (src, dst) in matrix:
                continue
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
