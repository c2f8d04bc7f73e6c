"""Command-line entry point tying data generation, training, and reports.

Subcommands: gen-data, train, eval, rollout, gain, probe, transform-exp.
Global flags: --config PATH, --seed N, --out DIR, --threads N (used by
gen-data only).  Exit codes: 0 success, 1 usage error, 2 runtime error, 3
numeric blow-up.

A flag that sets a RunConfig key is named after it (``--steps-per-epoch``
sets ``[train] steps_per_epoch``), and its text is parsed as file text is.
A loaded model takes its precision and transform from its checkpoint
(``train.load_model``), so only a fresh train (no --resume) and
transform-exp take --dtype, and only a fresh train takes --mode.

Every command resolves a RunConfig (defaults < config file < flags),
checks its [train], [data] and [run] values and its flags, and loads and
checks its inputs; one that builds a model takes the grid and channel
count from its corpus, and then checks the [model] values.  A bad value or
input is an error, and nothing is written.  Only then does it echo the
RunConfig to ``<out>/config.ini``, write its report files into the output
directory, and print a short plain-text summary, also saved as
``<out>/summary.txt``.  Every file is written atomically, text as UTF-8.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import SECTION_OF, RunConfig, resolve_config, write_config
from .container import write_lines
from .data import (
    FAMILIES,
    SamplingPlan,
    build_dataset,
    desk_specs,
    family_subset,
    load_dataset,
    save_dataset,
    save_trajectory,
)
from .diagnostics import (
    gain_analysis,
    kernel_probe,
    l2re,
    model_predictor,
    rollout,
    write_gain_csv,
    write_probe_features,
)
from .errors import FormatError, NumericOverflowError, ShapeError, UsageError
from .model import TRANSFORM_MODES, ModelConfig
from .train import (
    cross_transfer,
    init_model,
    load_model,
    train,
    train_mode_run,
    validate,
    write_cross_transfer_csv,
)

_DTYPES = {"f32": np.float32, "f64": np.float64}
_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


# ---------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------

def _flag_overrides(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key, None) for key in _RUN_KEYS}


def _prepare_out(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    write_config(cfg, os.path.join(cfg.out, "config.ini"))


def _summary(cfg: RunConfig, lines: list[str]) -> None:
    write_lines(os.path.join(cfg.out, "summary.txt"), lines)
    print("\n".join(lines))


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")


def _model_config(cfg: RunConfig, *datasets) -> ModelConfig:
    """The run's ModelConfig on the grid and channel count that every
    given corpus (None: none) shares."""
    shapes = [(ds.trajectories[0].shape[1:3], ds.c_max)
              for ds in datasets if ds is not None]
    if len(set(shapes)) > 1:
        raise FormatError("the corpora disagree: " + " vs ".join(
            f"(grid {h}x{w}, channels {c})" for (h, w), c in shapes))
    (height, width), channels = shapes[0]
    return cfg.model_config(height, width, channels)


def _check_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    """Check the sizes in [data] and [run], the command flags that
    RunConfig does not hold, and that the files the command reads are
    named, before the command writes anything."""
    for key in ("threads", "grid", "n_train", "n_test"):
        _check_at_least(key, getattr(cfg, key), 1)
    command = args.command
    if command == "train" and args.resume is not None and any(
            v is not None for v in (args.dtype, args.mode, args.transform_from)):
        raise UsageError("--resume builds the model its checkpoint holds; "
                         "it takes no --dtype, --mode or --transform-from")
    if command == "train" and (args.mode == "frozen") != bool(args.transform_from):
        raise UsageError("--mode frozen and --transform-from CHECKPOINT go together")
    for flag, low in (("checkpoint_every", 0), ("horizon", 0), ("n_probe", 1)):
        if hasattr(args, flag):
            _check_at_least("--" + flag.replace("_", "-"), getattr(args, flag), low)
    if command in ("train", "transform-exp") and not cfg.manifest:
        raise UsageError(f"{command} needs a manifest; pass --manifest "
                         "or set [data] manifest")
    if (command in ("eval", "rollout", "gain", "probe")
            and not (cfg.manifest or cfg.test_manifest)):
        raise UsageError("no dataset given; pass --manifest or --test-manifest")
    if command in ("eval", "rollout", "probe") and not args.checkpoint:
        raise UsageError(f"{command} needs --checkpoint")
    if command == "rollout" and args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; valid families: "
                         + ", ".join(FAMILIES))


def _eval_dataset(cfg: RunConfig):
    return load_dataset(cfg.test_manifest or cfg.manifest)[0]


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> None:
    names = cfg.family_list()
    by_name = {s.family: s for s in desk_specs(cfg.grid)}
    specs = [by_name[n] for n in names]
    _prepare_out(cfg)
    train_ds, test_ds = build_dataset(specs, cfg.n_train, cfg.n_test,
                                      seed=cfg.seed, threads=cfg.threads)
    plan = SamplingPlan.from_specs(specs)
    train_manifest = save_dataset(train_ds, cfg.root, "train", plan)
    test_manifest = save_dataset(test_ds, cfg.root, "test", plan)
    lines = [f"generated {len(train_ds)} train + {len(test_ds)} test "
             f"trajectories (seed {cfg.seed})"]
    for name in names:
        count = len(train_ds.family_indices(name)) + len(test_ds.family_indices(name))
        lines.append(f"  {name}: {count} files")
    lines += [f"train manifest: {train_manifest}",
              f"test manifest: {test_manifest}"]
    _summary(cfg, lines)


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> None:
    train_ds, plan = load_dataset(cfg.manifest)
    test_ds = load_dataset(cfg.test_manifest)[0] if cfg.test_manifest else None
    model_cfg = _model_config(cfg, train_ds, test_ds)
    if args.resume is not None:
        model = load_model(model_cfg, args.resume)
    else:
        model = init_model(model_cfg, args.mode or "vanilla", cfg.seed,
                           _DTYPES[args.dtype or "f32"], args.transform_from)
    _prepare_out(cfg)
    result = train(model, train_ds, plan, args.train_cfg, test_ds=test_ds,
                   out_dir=cfg.out, checkpoint_every=args.checkpoint_every,
                   resume_from=args.resume)
    checkpoint = os.path.join(cfg.out, "checkpoint.aotc")
    if not result.metrics:  # the resumed run had already finished
        total = args.train_cfg.epochs * args.train_cfg.steps_per_epoch
        _summary(cfg, [f"no step left to run: {args.resume} is at step "
                       f"{result.step} of {total}",
                       f"checkpoint (rewritten): {checkpoint}"])
        return
    last = result.metrics[-1]
    lines = [f"trained {last['step']} steps in mode {model.transform.mode} "
             f"(f{8 * np.dtype(model.dtype).itemsize}); "
             f"final train loss {last['train_loss']:.6g}"]
    for fam in train_ds.families:
        key = f"{fam}_l2re"
        if key in last:
            lines.append(f"  {fam} L2RE: {last[key]:.6g}")
    lines.append(f"checkpoint: {checkpoint}")
    _summary(cfg, lines)


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _eval_dataset(cfg)
    model = load_model(_model_config(cfg, ds), args.checkpoint)
    _prepare_out(cfg)
    scores = validate(model, ds)
    path = os.path.join(cfg.out, "eval.csv")
    write_lines(path, ["family,l2re"]
                + [f"{fam},{scores[fam]!r}" for fam in ds.families])
    lines = [f"eval over {len(ds)} trajectories:"]
    lines += [f"  {fam} L2RE: {scores[fam]:.6g}" for fam in ds.families]
    lines.append(f"report: {path}")
    _summary(cfg, lines)


def cmd_rollout(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _eval_dataset(cfg)
    if args.family not in ds.families:
        raise UsageError(f"family {args.family!r} not in dataset; "
                         f"present: {', '.join(ds.families)}")
    idxs = ds.family_indices(args.family)
    if not 0 <= args.index < len(idxs):
        raise UsageError(f"--index {args.index} out of range "
                         f"[0, {len(idxs)}) for {args.family}")
    traj = ds.trajectories[idxs[args.index]]
    t_in = cfg.t_in
    if len(traj) <= t_in:
        raise UsageError(f"trajectory has {len(traj)} frames; "
                         f"need more than t_in = {t_in}")
    horizon = args.horizon if args.horizon else len(traj) - t_in
    model = load_model(_model_config(cfg, ds), args.checkpoint)
    _prepare_out(cfg)
    res = rollout(model_predictor(model), traj[:t_in], horizon)
    nc = ds.native_by_family[args.family]
    steps = len(res.frames)
    scored = min(steps, len(traj) - t_in)
    truth = traj[t_in:t_in + scored, ..., :nc].astype(model.dtype)
    # each frame is scored whole, as a one-sample batch
    errors = [l2re(res.frames[s:s + 1, ..., :nc], truth[s:s + 1])
              for s in range(scored)]
    csv_path = os.path.join(cfg.out, "rollout.csv")
    write_lines(csv_path, ["step,l2re"]
                + [f"{s},{err!r}" for s, err in enumerate(errors)])
    lines = [f"rollout {args.family}[{args.index}] for {steps} steps"]
    if res.blowup_step is not None:
        lines.append(f"  numeric blow-up at step {res.blowup_step}; "
                     + ("partial trajectory kept" if steps else "no frame to keep"))
    if errors:
        lines.append(f"  L2RE first {errors[0]:.6g} last {errors[-1]:.6g}")
    if steps:
        aotd_path = os.path.join(cfg.out, "rollout.aotd")
        save_trajectory(aotd_path, res.frames[..., :nc].astype(np.float32),
                        args.family)
        lines.append(f"trajectory: {aotd_path}")
    else:
        lines.append("trajectory: none written (an AOTD file needs at least one frame)")
    lines.append(f"errors: {csv_path}")
    _summary(cfg, lines)


def cmd_gain(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _eval_dataset(cfg)
    model_cfg = _model_config(cfg, ds)
    if args.checkpoint:
        model = load_model(model_cfg, args.checkpoint)
        origin = f"checkpoint {args.checkpoint}"
    else:
        model = init_model(model_cfg, "vanilla", cfg.seed, np.float32)
        origin = f"fresh initialization (seed {cfg.seed})"
    _prepare_out(cfg)
    n = min(args.n_probe, len(ds))
    windows = np.stack([ds.trajectories[i][:cfg.t_in] for i in range(n)])
    report = gain_analysis(model, windows)
    path = os.path.join(cfg.out, "gains.csv")
    write_gain_csv(report, path)
    lines = [f"gains from {origin} over {n} probe windows",
             f"  backward per sub-layer: min {min(report.backward):.8f} "
             f"max {max(report.backward):.8f}",
             f"  composite forward full depth: {report.composite_forward[0]:.8f}",
             f"report: {path}"]
    _summary(cfg, lines)


def cmd_probe(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _eval_dataset(cfg)
    model = load_model(_model_config(cfg, ds), args.checkpoint)
    _prepare_out(cfg)
    res = kernel_probe(model, ds)
    path = os.path.join(cfg.out, "probe_features.csv")
    write_probe_features(path, res.features, res.labels)
    lines = [f"probe accuracy {res.accuracy:.4f} over "
             f"{int(res.confusion.sum())} held-out samples",
             "confusion rows=truth cols=predicted "
             + " ".join(res.families)]
    for fam, row in zip(res.families, res.confusion):
        lines.append(f"  {fam}: " + " ".join(str(int(v)) for v in row))
    lines.append(f"features: {path}")
    _summary(cfg, lines)


def cmd_transform_exp(cfg: RunConfig, args: argparse.Namespace) -> None:
    names = cfg.family_list()
    ds, _ = load_dataset(cfg.manifest)
    for name in names:
        if name not in ds.families:
            raise UsageError(f"family {name!r} not in dataset; "
                             f"present: {', '.join(ds.families)}")
    mcfg, tcfg = _model_config(cfg, ds), args.train_cfg
    _prepare_out(cfg)
    dtype = _DTYPES[args.dtype or "f32"]
    primary = names[0]
    sub = family_subset(ds, primary)
    plan = SamplingPlan({primary: 1.0})
    finals = {}
    learned = os.path.join(cfg.out, "learned", "checkpoint.aotc")
    for mode in TRANSFORM_MODES:
        kwargs = {"transform_from": learned} if mode == "frozen" else {}
        result, _ = train_mode_run(mcfg, mode, sub, plan, tcfg, dtype=dtype,
                                   out_dir=os.path.join(cfg.out, mode), **kwargs)
        finals[mode] = result.metrics[-1]["train_loss"]
    cmp_path = os.path.join(cfg.out, "transform_comparison.csv")
    write_lines(cmp_path, ["mode,final_train_loss"]
                + [f"{mode},{finals[mode]!r}" for mode in TRANSFORM_MODES])
    lines = [f"transform comparison on {primary}:"]
    lines += [f"  {mode}: final train loss {finals[mode]:.6g}"
              for mode in TRANSFORM_MODES]
    lines.append(f"comparison: {cmp_path}")
    if len(names) >= 2:
        # the mode comparison already trained the primary's source and
        # its frozen primary -> primary run
        matrix = cross_transfer(mcfg, ds, names, tcfg,
                                os.path.join(cfg.out, "xfer"), dtype=dtype,
                                sources={primary: learned},
                                cells={(primary, primary): finals["frozen"]})
        cross_path = os.path.join(cfg.out, "cross_transfer.csv")
        write_cross_transfer_csv(cross_path, names, matrix)
        lines.append(f"cross-transfer matrix ({len(names)} families): "
                     f"{cross_path}")
    _summary(cfg, lines)


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------

def _add_settings(p: argparse.ArgumentParser, *keys: str) -> None:
    """One flag per RunConfig key, named from it: ``--steps-per-epoch``
    sets ``steps_per_epoch``.  A flag keeps its text, which
    ``resolve_config`` parses as it parses the same key's file text, so a
    bad value is a usage error."""
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       help=f"sets [{SECTION_OF[key]}] {key}")


def _add_model_flags(p: argparse.ArgumentParser, checkpoint: bool = False) -> None:
    _add_settings(p, "manifest", "test_manifest")
    if checkpoint:
        p.add_argument("--checkpoint", help="model checkpoint to load")
    else:
        p.add_argument("--dtype", choices=sorted(_DTYPES),
                       help="model arithmetic precision (default f32)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aotlab",
        description="Sinkhorn-mixed Fourier operator lab: data, training, "
                    "and diagnostics.")
    parser.add_argument("--config", help="config file ([section] key = value)")
    _add_settings(parser, "seed", "out", "threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the trajectory corpus")
    _add_settings(p, "root", "families", "n_train", "n_test", "grid")

    p = sub.add_parser("train", help="train a model on a manifest")
    _add_model_flags(p)
    _add_settings(p, "epochs", "steps_per_epoch", "batch", "peak_lr", "noise")
    p.add_argument("--mode", choices=TRANSFORM_MODES,
                   help="pointwise transform mode (default vanilla)")
    p.add_argument("--transform-from", dest="transform_from",
                   help="checkpoint supplying frozen transform tensors")
    p.add_argument("--resume", help="checkpoint to resume, with the model it holds")
    p.add_argument("--checkpoint-every", dest="checkpoint_every",
                   type=int, default=10, help="epochs between checkpoints")

    p = sub.add_parser("eval", help="per-family L2RE of a checkpoint")
    _add_model_flags(p, checkpoint=True)

    p = sub.add_parser("rollout", help="autoregressive rollout vs reference")
    _add_model_flags(p, checkpoint=True)
    p.add_argument("--family", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="trajectory index within the family")
    p.add_argument("--horizon", type=int, default=0,
                   help="steps to roll (default: rest of the trajectory)")

    p = sub.add_parser("gain", help="forward/backward propagation gains")
    _add_model_flags(p, checkpoint=True)
    p.add_argument("--n-probe", dest="n_probe", type=int, default=8,
                   help="number of probe windows")

    p = sub.add_parser("probe", help="nearest-centroid family probe")
    _add_model_flags(p, checkpoint=True)

    p = sub.add_parser("transform-exp",
                       help="vanilla/learned/frozen comparison on the first "
                            "of --families, and cross-family transfer")
    _add_model_flags(p)
    _add_settings(p, "families", "epochs", "steps_per_epoch", "batch", "peak_lr")

    return parser


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "rollout": cmd_rollout,
    "gain": cmd_gain,
    "probe": cmd_probe,
    "transform-exp": cmd_transform_exp,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        cfg = resolve_config(args.config, _flag_overrides(args))
        args.train_cfg = cfg.train_config()
        _check_flags(cfg, args)
        _HANDLERS[args.command](cfg, args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericOverflowError as exc:
        where = f" at {exc.where}" if exc.where and str(exc.where) not in str(exc) else ""
        print(f"numeric blow-up{where}: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
