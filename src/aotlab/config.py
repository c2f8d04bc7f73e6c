"""Run configuration: defaults, config-file overrides, and flag overrides.

A run is described by one flat dataclass covering the model shape, the
training hyperparameters, the dataset layout, and the run plumbing (output
directory, seed, thread count).  Values resolve in fixed priority order:
built-in defaults, then the config file, then command-line flags.  The fully
resolved configuration is echoed to the output directory in the same format
it is read from, so an echo can be fed back as a config file to reproduce
the run.

The file format is flat ``key = value`` pairs under ``[section]`` headers.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .container import write_lines
from .data import FAMILIES
from .errors import UsageError
from .model import ModelConfig
from .train import TrainConfig

__all__ = [
    "RunConfig",
    "load_config_file",
    "resolve_config",
    "write_config",
]


@dataclass
class RunConfig:
    """Flat union of model, training, dataset, and run settings."""

    # model
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
    # train
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
    # data
    root: str = "data"
    manifest: str = ""
    test_manifest: str = ""
    n_train: int = 64
    n_test: int = 16
    grid: int = 32
    families: str = ",".join(FAMILIES)
    # run
    out: str = "run_out"
    seed: int = 0
    threads: int = 1

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            height=self.height, width=self.width, channels=self.channels,
            t_in=self.t_in, patch=self.patch, d_z=self.d_z, heads=self.heads,
            modes=self.modes, blocks=self.blocks, streams=self.streams,
            sinkhorn_iters=self.sinkhorn_iters, gate_init=self.gate_init,
            groups=self.groups, activation=self.activation)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, steps_per_epoch=self.steps_per_epoch,
            batch=self.batch, peak_lr=self.peak_lr,
            warmup_epochs=self.warmup_epochs,
            weight_decay=self.weight_decay, betas=(self.beta1, self.beta2),
            eps=self.eps, noise=self.noise, clip_norm=self.clip_norm,
            seed=self.seed)

    def family_list(self) -> list[str]:
        names = [f.strip() for f in self.families.split(",") if f.strip()]
        if not names:
            raise UsageError("no families selected")
        for name in names:
            if name not in FAMILIES:
                raise UsageError(
                    f"unknown family {name!r}; valid families: "
                    + ", ".join(FAMILIES))
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate family in {self.families!r}")
        return names


_SECTIONS: dict[str, tuple[str, ...]] = {
    "model": ("height", "width", "channels", "t_in", "patch", "d_z", "heads",
              "modes", "blocks", "streams", "sinkhorn_iters", "gate_init",
              "groups", "activation"),
    "train": ("epochs", "steps_per_epoch", "batch", "peak_lr",
              "warmup_epochs", "weight_decay", "beta1", "beta2", "eps",
              "noise", "clip_norm"),
    "data": ("root", "manifest", "test_manifest", "n_train", "n_test",
             "grid", "families"),
    "run": ("out", "seed", "threads"),
}

_SECTION_OF = {key: sec for sec, keys in _SECTIONS.items() for key in keys}
_OPTIONAL = {"groups", "clip_norm"}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value):
    """Parse a raw override into the field's declared type."""
    if key not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {key!r}")
    if not isinstance(value, str):
        return value
    text = value.strip()
    if key in _OPTIONAL:
        if text.lower() in ("none", ""):
            return None
        return int(text) if key == "groups" else float(text)
    base = _FIELD_TYPES[key]
    try:
        if base == "int":
            return int(text)
        if base == "float":
            return float(text)
    except ValueError:
        raise UsageError(f"config key {key!r} expects {base}, got {text!r}")
    return text


def load_config_file(path: str) -> dict[str, object]:
    """Read a ``[section]``-formatted config file into a flat override map."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {path}: {exc}")
    overrides: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise UsageError(
                f"unknown config section [{section}]; valid sections: "
                + ", ".join(_SECTIONS))
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise UsageError(
                    f"unknown key {key!r} in section [{section}]")
            overrides[key] = _coerce(key, raw)
    return overrides


def resolve_config(file_path: str | None = None,
                   flags: dict[str, object] | None = None) -> RunConfig:
    """Merge defaults, then file values, then flag values."""
    merged: dict[str, object] = {}
    if file_path is not None:
        merged.update(load_config_file(file_path))
    for key, value in (flags or {}).items():
        if value is not None:
            merged[key] = _coerce(key, value)
    cfg = RunConfig(**merged)
    cfg.family_list()
    return cfg


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(cfg: RunConfig, path: str) -> None:
    """Echo the resolved configuration; the echo re-parses to the same config."""
    lines = ["# resolved run configuration"]
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(getattr(cfg, key))}")
        lines.append("")
    write_lines(path, lines[:-1])  # a blank line between sections, none after
