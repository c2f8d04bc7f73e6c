"""Command-line entry point tying data generation, training, and reports.

Subcommands: gen-data, train, eval, rollout, gain, probe, transform-exp.
Global flags: --config PATH, --seed N, --out DIR, --threads N (used by
gen-data only).  Exit codes: 0 success, 1 usage error, 2 runtime error, 3
numeric blow-up.

Every command resolves a RunConfig (defaults < config file < flags), checks
every value in it (a bad one is a usage error, and nothing is written),
echoes it to ``<out>/config.ini``, writes its report files into the output
directory, and prints a short plain-text summary that is also saved as
``<out>/summary.txt``.  Every file is written atomically, text as UTF-8.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, resolve_config, write_config
from .container import write_lines
from .data import (
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
from .model import TRANSFORM_MODES, Model, ModelConfig
from .train import (
    STREAM_INIT,
    TrainConfig,
    cross_transfer,
    load_model_state,
    load_transform,
    named_stream,
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
    return {key: getattr(args, key)
            for key in _RUN_KEYS
            if getattr(args, key, None) is not None}


def _prepare_out(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    write_config(cfg, os.path.join(cfg.out, "config.ini"))


def _summary(cfg: RunConfig, lines: list[str]) -> None:
    write_lines(os.path.join(cfg.out, "summary.txt"), lines)
    print("\n".join(lines))


def _fresh_model(cfg: RunConfig, args: argparse.Namespace) -> Model:
    return Model(args.model_cfg, named_stream(cfg.seed, STREAM_INIT),
                 dtype=_DTYPES[args.dtype], transform_mode=args.mode)


def _loaded_model(cfg: RunConfig, args: argparse.Namespace) -> Model:
    if not args.checkpoint:
        raise UsageError("this command needs --checkpoint")
    model = _fresh_model(cfg, args)
    load_model_state(model, args.checkpoint)
    return model


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")


def _checked_configs(cfg: RunConfig) -> tuple[ModelConfig, TrainConfig]:
    """Check every run setting, so a bad value stops any command before
    it writes a file."""
    for key in ("threads", "grid", "n_train", "n_test"):
        _check_at_least(key, getattr(cfg, key), 1)
    try:
        return cfg.model_config(), cfg.train_config()
    except ValueError as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _check_flags(args: argparse.Namespace) -> None:
    """Check the command flags that RunConfig does not hold, before the
    command writes anything."""
    if args.command == "train" and args.mode == "frozen" and not args.transform_from:
        raise UsageError("--mode frozen requires --transform-from CHECKPOINT")
    for flag, low in (("checkpoint_every", 0), ("horizon", 0), ("n_probe", 1)):
        if hasattr(args, flag):
            _check_at_least("--" + flag.replace("_", "-"), getattr(args, flag), low)


def _eval_dataset(cfg: RunConfig):
    path = cfg.test_manifest or cfg.manifest
    if not path:
        raise UsageError("no dataset given; pass --manifest or --test-manifest")
    return load_dataset(path)


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> None:
    names = cfg.family_list()
    by_name = {s.family: s for s in desk_specs(cfg.grid)}
    specs = [by_name[n] for n in names]
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
    if not cfg.manifest:
        raise UsageError("training needs a manifest; pass --manifest "
                         "or set [data] manifest")
    train_ds, plan = load_dataset(cfg.manifest)
    test_ds = load_dataset(cfg.test_manifest)[0] if cfg.test_manifest else None
    model = _fresh_model(cfg, args)
    if args.mode == "frozen":
        load_transform(model, args.transform_from)
    result = train(model, train_ds, plan, args.train_cfg,
                   test_ds=test_ds, out_dir=cfg.out,
                   checkpoint_every=args.checkpoint_every,
                   resume_from=args.resume)
    last = result.metrics[-1]
    lines = [f"trained {last['step']} steps in mode {args.mode} "
             f"({args.dtype}); final train loss {last['train_loss']:.6g}"]
    for fam in train_ds.families:
        key = f"{fam}_l2re"
        if key in last:
            lines.append(f"  {fam} L2RE: {last[key]:.6g}")
    lines.append(f"checkpoint: {os.path.join(cfg.out, 'checkpoint.aotc')}")
    _summary(cfg, lines)


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds, _ = _eval_dataset(cfg)
    model = _loaded_model(cfg, args)
    scores = validate(model, ds)
    path = os.path.join(cfg.out, "eval.csv")
    write_lines(path, ["family,l2re"]
                + [f"{fam},{scores[fam]!r}" for fam in ds.families])
    lines = [f"eval over {len(ds)} trajectories:"]
    lines += [f"  {fam} L2RE: {scores[fam]:.6g}" for fam in ds.families]
    lines.append(f"report: {path}")
    _summary(cfg, lines)


def cmd_rollout(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds, _ = _eval_dataset(cfg)
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
    model = _loaded_model(cfg, args)
    window = traj[:t_in].astype(model.dtype)
    res = rollout(model_predictor(model), window, horizon)
    nc = ds.native_by_family[args.family]
    steps = len(res.frames)
    scored = min(steps, len(traj) - t_in)
    truth = traj[t_in:t_in + scored, ..., :nc].astype(model.dtype)
    # each frame is scored whole, as a one-sample batch
    errors = [l2re(res.frames[s:s + 1, ..., :nc], truth[s:s + 1])
              for s in range(scored)]
    aotd_path = os.path.join(cfg.out, "rollout.aotd")
    save_trajectory(aotd_path, res.frames[..., :nc].astype(np.float32),
                    args.family)
    csv_path = os.path.join(cfg.out, "rollout.csv")
    write_lines(csv_path, ["step,l2re"]
                + [f"{s},{err!r}" for s, err in enumerate(errors)])
    lines = [f"rollout {args.family}[{args.index}] for {steps} steps"]
    if res.blowup_step is not None:
        lines.append(f"  numeric blow-up at step {res.blowup_step}; "
                     f"partial trajectory kept")
    if errors:
        lines.append(f"  L2RE first {errors[0]:.6g} last {errors[-1]:.6g}")
    lines += [f"trajectory: {aotd_path}", f"errors: {csv_path}"]
    _summary(cfg, lines)


def cmd_gain(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds, _ = _eval_dataset(cfg)
    if args.checkpoint:
        model = _loaded_model(cfg, args)
        origin = f"checkpoint {args.checkpoint}"
    else:
        model = _fresh_model(cfg, args)
        origin = f"fresh initialization (seed {cfg.seed})"
    n = min(args.n_probe, len(ds))
    windows = np.stack([ds.trajectories[i][:cfg.t_in] for i in range(n)])
    report = gain_analysis(model, windows.astype(model.dtype))
    path = os.path.join(cfg.out, "gains.csv")
    write_gain_csv(report, path)
    lines = [f"gains from {origin} over {n} probe windows",
             f"  backward per sub-layer: min {min(report.backward):.8f} "
             f"max {max(report.backward):.8f}",
             f"  composite forward full depth: {report.composite_forward[0]:.8f}",
             f"report: {path}"]
    _summary(cfg, lines)


def cmd_probe(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds, _ = _eval_dataset(cfg)
    model = _loaded_model(cfg, args)
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
    if not cfg.manifest:
        raise UsageError("transform-exp needs a manifest; pass --manifest")
    names = cfg.family_list()
    ds, _ = load_dataset(cfg.manifest)
    for name in names:
        if name not in ds.families:
            raise UsageError(f"family {name!r} not in dataset; "
                             f"present: {', '.join(ds.families)}")
    dtype = _DTYPES[args.dtype]
    primary = names[0]
    sub = family_subset(ds, primary)
    plan = SamplingPlan({primary: 1.0})
    mcfg, tcfg = args.model_cfg, args.train_cfg
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

def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", help="train-split manifest path")
    p.add_argument("--test-manifest", dest="test_manifest",
                   help="test-split manifest path")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dtype", choices=sorted(_DTYPES), default="f32",
                   help="model arithmetic precision")
    p.add_argument("--mode", choices=TRANSFORM_MODES, default="vanilla",
                   help="pointwise transform mode")


def _add_checkpoint_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", help="model checkpoint to load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aotlab",
        description="Sinkhorn-mixed Fourier operator lab: data, training, "
                    "and diagnostics.")
    parser.add_argument("--config", help="config file ([section] key = value)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int,
                        help="worker thread count (gen-data only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the trajectory corpus")
    p.add_argument("--root", help="dataset root directory")
    p.add_argument("--families", help="comma-separated family names")
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--grid", type=int, help="spatial resolution")

    p = sub.add_parser("train", help="train a model on a manifest")
    _add_dataset_flags(p)
    _add_model_flags(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--peak-lr", dest="peak_lr", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--transform-from", dest="transform_from",
                   help="checkpoint supplying frozen transform tensors")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--checkpoint-every", dest="checkpoint_every",
                   type=int, default=10, help="epochs between checkpoints")

    p = sub.add_parser("eval", help="per-family L2RE of a checkpoint")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser("rollout", help="autoregressive rollout vs reference")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_checkpoint_flag(p)
    p.add_argument("--family", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="trajectory index within the family")
    p.add_argument("--horizon", type=int, default=0,
                   help="steps to roll (default: rest of the trajectory)")

    p = sub.add_parser("gain", help="forward/backward propagation gains")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_checkpoint_flag(p)
    p.add_argument("--n-probe", dest="n_probe", type=int, default=8,
                   help="number of probe windows")

    p = sub.add_parser("probe", help="nearest-centroid family probe")
    _add_dataset_flags(p)
    _add_model_flags(p)
    _add_checkpoint_flag(p)

    p = sub.add_parser("transform-exp",
                       help="vanilla/learned/frozen comparison and "
                            "cross-family transfer")
    _add_dataset_flags(p)
    p.add_argument("--dtype", choices=sorted(_DTYPES), default="f32")
    p.add_argument("--families", help="comma-separated families; first is "
                                      "the comparison family")
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--peak-lr", dest="peak_lr", type=float)

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
        args.model_cfg, args.train_cfg = _checked_configs(cfg)
        _check_flags(args)
        _prepare_out(cfg)
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
