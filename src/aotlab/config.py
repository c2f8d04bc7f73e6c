"""Run configuration: defaults, config-file overrides, and flag overrides.

A run is described by one flat dataclass, ``RunConfig``, whose fields come
in four ``[section]``s: ``[model]`` holds the fields of ``ModelConfig``
but the grid and channel count, which the corpus fixes, and ``[train]``
those of ``TrainConfig`` but ``seed``, each with the name, type and
default declared there; ``[data]`` (dataset layout) and ``[run]`` (output
directory, ``seed``, thread count) are declared here.  Values resolve in
fixed priority order: built-in defaults, then the config file, then
command-line flags.  A flag hands over its text as the file does, and
``_coerce`` alone parses both.  Resolving checks only that every key is
known and every value parses as its field's type; ``model_config`` and
``train_config`` check the values, raising UsageError.  The resolved
configuration is echoed to the output directory in the format it is read
from, so an echo can be fed back as a config file to reproduce the run.

The file format is flat ``key = value`` pairs under ``[section]`` headers;
``none`` (or an empty value) sets an optional field to None.
"""

from __future__ import annotations

import configparser
import dataclasses
import os

from .container import write_lines
from .data import FAMILIES
from .errors import UsageError
from .model import ModelConfig
from .train import TrainConfig

__all__ = [
    "SECTION_OF",
    "RunConfig",
    "load_config_file",
    "resolve_config",
    "write_config",
]


def _specs(cls) -> dict[str, tuple]:
    return {f.name: (f.name, f.type, f.default) for f in dataclasses.fields(cls)}


_TRAIN = _specs(TrainConfig)
_SEED = _TRAIN.pop("seed")

# section -> (name, type, default) of each key, in file order
_FIELDS: dict[str, list[tuple]] = {
    "model": [spec for key, spec in _specs(ModelConfig).items()
              if key not in ("height", "width", "channels")],
    "train": list(_TRAIN.values()),
    "data": [("root", "str", "data"), ("manifest", "str", ""),
             ("test_manifest", "str", ""), ("n_train", "int", 64),
             ("n_test", "int", 16), ("grid", "int", 32),
             ("families", "str", ",".join(FAMILIES))],
    "run": [("out", "str", "run_out"), _SEED, ("threads", "int", 1)],
}
_SECTIONS = {sec: tuple(spec[0] for spec in specs)
             for sec, specs in _FIELDS.items()}
SECTION_OF = {key: sec for sec, keys in _SECTIONS.items() for key in keys}
_PARSERS = {"int": int, "float": float, "str": str}


def _pick(cls, cfg, **given):
    try:
        return cls(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)
                      if f.name not in given}, **given)
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from exc


class _RunMethods:
    def model_config(self, height: int, width: int, channels: int) -> ModelConfig:
        """The run's ModelConfig on a corpus of this grid and channel count."""
        return _pick(ModelConfig, self, height=height, width=width, channels=channels)

    def train_config(self) -> TrainConfig:
        """The run's TrainConfig."""
        return _pick(TrainConfig, self)

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


RunConfig = dataclasses.make_dataclass(
    "RunConfig", [spec for specs in _FIELDS.values() for spec in specs],
    bases=(_RunMethods,),
    namespace={"__module__": __name__,
               "__doc__": "Flat union of model, training, dataset, and run "
                          "settings."})
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value):
    """Parse a raw override, file or flag text, into the field's declared
    type."""
    if key not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {key!r}")
    text = str(value).strip()
    base, _, optional = _FIELD_TYPES[key].partition(" | ")
    if optional and text.lower() in ("none", ""):
        return None
    try:
        return _PARSERS[base](text)
    except ValueError:
        raise UsageError(f"config key {key!r} expects {base}, got {text!r}")


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
