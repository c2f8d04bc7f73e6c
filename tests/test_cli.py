"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import configparser
import os

import numpy as np
import pytest

from aotlab.autodiff import Tensor
from aotlab.checkpoint import config_hash, load_checkpoint, save_checkpoint
from aotlab.cli import main
from aotlab.config import RunConfig, resolve_config, write_config
from aotlab.data import load_trajectory, trajectory_crc
from aotlab.errors import UsageError
from aotlab.model import Model, ModelConfig
from aotlab.train import STREAM_INIT, TrainConfig, named_stream

TINY_MODEL = """\
[model]
t_in = 3
patch = 4
d_z = 8
heads = 2
modes = 1
blocks = 1
streams = 2

[train]
epochs = 2
steps_per_epoch = 5
batch = 2
warmup_epochs = 1
"""


def run(*argv):
    return main([str(a) for a in argv])


def write_ini(src, dst, section=None, key=None, value=None):
    """Copy the config file ``src`` to ``dst``, with ``[section] key`` set
    to ``value`` when a section is given."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(src)
    if section:
        parser.read_dict({section: {key: value}})
    with open(dst, "w") as fh:
        parser.write(fh)
    return dst


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = run("--seed", 3, "--out", root / "gen", "gen-data",
               "--root", root / "data", "--grid", 8,
               "--n-train", 6, "--n-test", 2)
    assert code == 0
    return root / "data"


@pytest.fixture(scope="module")
def tiny_ini(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("cfg") / "tiny.ini"
    path.write_text(TINY_MODEL + (
        f"\n[data]\nmanifest = {corpus}/train_manifest.tsv\n"
        f"test_manifest = {corpus}/test_manifest.tsv\n"))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_ini):
    out = tmp_path_factory.mktemp("trained")
    assert run("--config", tiny_ini, "--seed", 5, "--out", out, "train") == 0
    return out


@pytest.fixture(scope="module")
def mode_run(tmp_path_factory, tiny_ini):
    """The output directory of a tiny train run at a dtype and mode, trained
    on first use, with a checkpoint after every epoch; a frozen run takes
    the learned run's transform."""
    runs = {}

    def get(dtype, mode):
        if (dtype, mode) not in runs:
            source = (("--transform-from", get(dtype, "learned") / "checkpoint.aotc")
                      if mode == "frozen" else ())
            out = tmp_path_factory.mktemp(f"{dtype}-{mode}")
            assert run("--config", tiny_ini, "--seed", 4, "--out", out, "train",
                       "--dtype", dtype, "--mode", mode, *source,
                       "--checkpoint-every", 1) == 0
            runs[dtype, mode] = out
        return runs[dtype, mode]
    return get


@pytest.fixture(scope="module")
def heat_manifest(corpus, tmp_path_factory):
    """A manifest of the corpus's heat training trajectories only."""
    text = (corpus / "train_manifest.tsv").read_text()
    rows = [ln.split("\t") for ln in text.split("\n") if ln]
    manifest = tmp_path_factory.mktemp("heat") / "heat.tsv"
    manifest.write_text("".join(f"{corpus / rel}\t{fam}\t{w}\n"
                                for rel, fam, w in rows if fam == "heat"))
    return manifest


@pytest.fixture(scope="module")
def heat16(tmp_path_factory):
    """A heat-only corpus on a 16x16 grid: one channel, not the tiny
    config's 8x8 grid and two channels."""
    root = tmp_path_factory.mktemp("heat16")
    assert run("--out", root / "gen", "gen-data", "--root", root / "data",
               "--grid", 16, "--families", "heat",
               "--n-train", 2, "--n-test", 1) == 0
    return root / "data"


# ---------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------

def test_gen_data_file_counts(corpus):
    for fam in ("heat", "diffusion_reaction", "ns_vorticity"):
        names = sorted(os.listdir(corpus / fam))
        assert len(names) == 8  # 6 train + 2 test
        assert names[0] == "test_000.aotd" and names[-1] == "train_005.aotd"


def test_gen_data_default_config_means_240_files():
    cfg = RunConfig()
    assert cfg.n_train + cfg.n_test == 80
    assert len(cfg.family_list()) == 3


def test_gen_data_rerun_and_threads_give_identical_crcs(corpus, tmp_path):
    assert run("--seed", 3, "--threads", 2, "--out", tmp_path / "gen",
               "gen-data", "--root", tmp_path / "data", "--grid", 8,
               "--n-train", 6, "--n-test", 2) == 0
    for fam in ("heat", "diffusion_reaction", "ns_vorticity"):
        for name in sorted(os.listdir(corpus / fam)):
            assert (trajectory_crc(str(tmp_path / "data" / fam / name))
                    == trajectory_crc(str(corpus / fam / name))), name
    for split in ("train", "test"):
        assert ((tmp_path / "data" / f"{split}_manifest.tsv").read_text()
                == (corpus / f"{split}_manifest.tsv").read_text())


def test_gen_data_on_a_grid_that_is_not_a_power_of_two(tmp_path):
    assert run("--out", tmp_path / "gen", "gen-data", "--root", tmp_path / "data",
               "--grid", 12, "--n-train", 1, "--n-test", 1) == 0
    for fam in ("heat", "diffusion_reaction", "ns_vorticity"):
        frames = load_trajectory(str(tmp_path / "data" / fam / "train_000.aotd"))[0]
        assert frames.shape[1:3] == (12, 12) and np.all(np.isfinite(frames))


def test_gen_data_invalid_family_is_usage_error(tmp_path, capsys):
    code = run("--out", tmp_path, "gen-data", "--families", "heat,waves")
    assert code == 1
    err = capsys.readouterr().err
    assert "waves" in err
    assert "heat, diffusion_reaction, ns_vorticity" in err


# ---------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------

def test_run_config_defaults_mirror_component_defaults():
    cfg = RunConfig()
    assert cfg.model_config(32, 32, 2) == ModelConfig()
    assert cfg.train_config() == TrainConfig()


def test_flags_override_file_values(tiny_ini, tmp_path):
    assert run("--config", tiny_ini, "--seed", 9, "--out", tmp_path,
               "train", "--epochs", 3, "--steps-per-epoch", 2,
               "--batch", 2) == 0
    echoed = resolve_config(str(tmp_path / "config.ini"))
    assert echoed.seed == 9
    assert echoed.epochs == 3
    assert echoed.steps_per_epoch == 2
    assert echoed.d_z == 8  # file value survives where no flag given


@pytest.mark.parametrize("body", [
    b"[model]\nheight = tall\n",
    b"[model]\nwingspan = 3\n",
    b"[flight]\nheight = 8\n",
    b"height = 8\n",
    b"[data]\nroot = d\xffta\n",  # not UTF-8
])
def test_malformed_config_is_usage_error(tmp_path, body):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(body)
    assert run("--config", bad, "--out", tmp_path / "o", "train") == 1


def test_unknown_flag_key_is_usage_error():
    with pytest.raises(UsageError, match="bogus"):
        resolve_config(None, {"bogus": "1"})


def test_missing_config_file_is_usage_error(tmp_path):
    assert run("--config", tmp_path / "nope.ini", "--out", tmp_path,
               "train") == 1


def test_config_echo_is_utf8_and_refeeds(tmp_path):
    path = str(tmp_path / "config.ini")
    write_config(RunConfig(root="données"), path)
    assert "root = données\n".encode("utf-8") in open(path, "rb").read()
    assert resolve_config(path).root == "données"


DEFAULT_ECHO = """\
# resolved run configuration
[model]
t_in = 10
patch = 8
d_z = 64
heads = 4
modes = 2
blocks = 4
streams = 4
sinkhorn_iters = 20
gate_init = 0.01
groups = none
activation = gelu

[train]
epochs = 50
steps_per_epoch = 100
batch = 8
peak_lr = 0.001
warmup_epochs = 10
weight_decay = 1e-06
beta1 = 0.9
beta2 = 0.9
eps = 1e-08
noise = 0.0005
clip_norm = 1.0

[data]
root = data
manifest = {empty}
test_manifest = {empty}
n_train = 64
n_test = 16
grid = 32
families = heat,diffusion_reaction,ns_vorticity

[run]
out = run_out
seed = 0
threads = 1
""".format(empty="")


def test_default_config_echo_is_pinned(tmp_path):
    path = tmp_path / "config.ini"
    write_config(RunConfig(), str(path))
    assert path.read_bytes() == DEFAULT_ECHO.encode("utf-8")


def test_help_and_bad_subcommand_exit_codes(capsys):
    assert run("--help") == 0
    assert run("definitely-not-a-command") == 1
    assert run() == 1
    capsys.readouterr()


# ---------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------

def test_train_emits_artifacts(trained):
    for name in ("checkpoint.aotc", "metrics.csv", "config.ini", "summary.txt"):
        assert (trained / name).exists()
    header = (trained / "metrics.csv").read_text().split("\n")[0]
    assert header == ("epoch,step,lr,train_loss,diffusion_reaction_l2re,"
                      "heat_l2re,ns_vorticity_l2re")


def test_train_takes_grid_and_channels_from_the_corpus(heat16, tmp_path):
    """No config key sets the grid or the channel count: a 16x16 heat
    corpus trains the model of that grid with one channel."""
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_MODEL + f"\n[data]\nmanifest = {heat16}/train_manifest.tsv\n"
                   f"test_manifest = {heat16}/test_manifest.tsv\n")
    assert run("--config", ini, "--seed", 5, "--out", tmp_path / "o", "train") == 0
    want = ModelConfig(height=16, width=16, channels=1, t_in=3, patch=4, d_z=8,
                       heads=2, modes=1, blocks=1, streams=2)
    ckpt = load_checkpoint(str(tmp_path / "o" / "checkpoint.aotc"))
    assert ckpt.config_hash == config_hash(want)


@pytest.mark.parametrize("pair", ["grid", "channels"])
def test_train_on_disagreeing_corpora_writes_nothing(
        tiny_ini, corpus, heat16, heat_manifest, tmp_path, capsys, monkeypatch, pair):
    """A train corpus and a test corpus of different grids, or of different
    channel counts (heat alone has one), fit no one model."""
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    train, test = {"grid": (corpus / "train_manifest.tsv",
                            heat16 / "test_manifest.tsv"),
                   "channels": (heat_manifest, corpus / "test_manifest.tsv")}[pair]
    assert run("--config", tiny_ini, "--out", tmp_path / "o", "train",
               "--manifest", train, "--test-manifest", test) == 2
    want = {"grid": "(grid 8x8, channels 2) vs (grid 16x16, channels 1)",
            "channels": "(grid 8x8, channels 1) vs (grid 8x8, channels 2)"}[pair]
    assert f"the corpora disagree: {want}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("eval",), ("rollout", "--family", "heat"), ("probe",), ("gain",),
], ids=["eval", "rollout", "probe", "gain"])
def test_checkpoint_on_a_corpus_of_another_grid_writes_nothing(
        tiny_ini, trained, heat16, tmp_path, capsys, monkeypatch, argv):
    """The corpus fixes the model's grid and channels, so an 8x8 checkpoint
    does not load for a 16x16 corpus, and the refusal names both."""
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    assert run("--config", tiny_ini, "--out", tmp_path / "o", *argv,
               "--test-manifest", heat16 / "test_manifest.tsv",
               "--checkpoint", trained / "checkpoint.aotc") == 2
    assert ("does not match the model (grid 16x16, channels 1)"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("broken", ["missing", "corrupt"])
@pytest.mark.parametrize("flags", [("--resume",), ("--mode", "frozen", "--transform-from")],
                         ids=["resume", "transform-from"])
def test_train_on_an_unreadable_checkpoint_writes_nothing(
        tiny_ini, tmp_path, capsys, monkeypatch, flags, broken):
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    ckpt = tmp_path / "in" / "c.aotc"
    ckpt.parent.mkdir()
    if broken == "corrupt":
        ckpt.write_bytes(b"junk!!!")
    assert run("--config", tiny_ini, "--out", tmp_path / "o", "train",
               *flags, ckpt) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


def test_resume_of_another_configuration_writes_nothing(tiny_ini, trained, tmp_path,
                                                        capsys, monkeypatch):
    """The resume checkpoint is loaded into the run's model before the echo,
    so one written for other [model] values stops the run first."""
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    other = write_ini(tiny_ini, tmp_path / "other.ini", "model", "blocks", "2")
    assert run("--config", other, "--out", tmp_path / "o", "train",
               "--resume", trained / "checkpoint.aotc") == 2
    assert "config hash does not match" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.ini"]


def test_train_frozen_keeps_the_loaded_transform_bits(tiny_ini, tmp_path):
    short = ("--epochs", 2, "--steps-per-epoch", 2)
    assert run("--config", tiny_ini, "--out", tmp_path / "learned", "train",
               "--mode", "learned", *short) == 0
    source = tmp_path / "learned" / "checkpoint.aotc"
    assert run("--config", tiny_ini, "--out", tmp_path / "frozen", "train",
               "--mode", "frozen", "--transform-from", source, *short) == 0
    learned = load_checkpoint(str(source)).tensors
    frozen = load_checkpoint(str(tmp_path / "frozen" / "checkpoint.aotc")).tensors
    names = [k for k in learned if k.startswith("transform.")]
    assert len(names) == 4
    assert not np.array_equal(learned["transform.w_in"], np.eye(2))
    for k in names:
        np.testing.assert_array_equal(frozen[k], learned[k])


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_train_on_non_finite_manifest_weight_exits_two(corpus, tmp_path, capsys,
                                                       weight):
    lines = (corpus / "train_manifest.tsv").read_text().strip().split("\n")
    rel, family, _ = lines[0].split("\t")
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("\n".join([f"{corpus / rel}\t{family}\t{weight}"]
                                  + lines[1:]) + "\n")
    code = run("--out", tmp_path / "o", "train", "--manifest", manifest)
    assert code == 2
    assert f"bad.tsv:1: bad weight '{weight}'" in capsys.readouterr().err


def test_eval_reproduces_final_validation(tiny_ini, trained, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path, "eval",
               "--checkpoint", trained / "checkpoint.aotc") == 0
    eval_rows = dict(
        line.split(",") for line in
        (tmp_path / "eval.csv").read_text().strip().split("\n")[1:])
    last = (trained / "metrics.csv").read_text().strip().split("\n")
    cols = last[0].split(",")
    vals = dict(zip(cols, last[-1].split(",")))
    for fam, text in eval_rows.items():
        assert text == vals[f"{fam}_l2re"], fam


@pytest.mark.parametrize("mode", ["vanilla", "learned", "frozen"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_eval_follows_the_checkpoint_precision_and_transform(
        tiny_ini, mode_run, tmp_path, dtype, mode):
    """eval on a run's final checkpoint writes the last metrics row's
    L2RE of every family, bit for bit, whatever the run's dtype and mode."""
    trained = mode_run(dtype, mode)
    assert run("--config", tiny_ini, "--out", tmp_path, "eval",
               "--checkpoint", trained / "checkpoint.aotc") == 0
    rows = (tmp_path / "eval.csv").read_text().strip().split("\n")[1:]
    metrics = (trained / "metrics.csv").read_text().strip().split("\n")
    last = dict(zip(metrics[0].split(","), metrics[-1].split(",")))
    assert [row.split(",")[1] for row in rows] == [
        last[f"{row.split(',')[0]}_l2re"] for row in rows]
    assert len(rows) == 3


@pytest.mark.parametrize("mode", ["vanilla", "learned", "frozen"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_resume_takes_the_run_from_its_checkpoint(tiny_ini, mode_run, tmp_path,
                                                  dtype, mode):
    """A resume with no model flag builds the model its checkpoint holds,
    so it finishes the unbroken run bit for bit, whatever its dtype and
    mode."""
    unbroken = mode_run(dtype, mode)
    out = tmp_path / "resumed"
    assert run("--config", tiny_ini, "--seed", 4, "--out", out, "train",
               "--resume", unbroken / "checkpoint_0000.aotc") == 0
    assert ((out / "checkpoint.aotc").read_bytes()
            == (unbroken / "checkpoint.aotc").read_bytes())
    rows = (unbroken / "metrics.csv").read_text().strip().split("\n")
    assert (out / "metrics.csv").read_text().strip().split("\n") == [rows[0], rows[2]]
    assert f"in mode {mode} ({dtype})" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("argv", [
    ("eval", "--dtype", "f64"),
    ("rollout", "--family", "heat", "--mode", "learned"),
    ("gain", "--dtype", "f32"),
    ("probe", "--mode", "vanilla"),
], ids=["eval-dtype", "rollout-mode", "gain-dtype", "probe-mode"])
def test_commands_that_load_a_checkpoint_take_no_dtype_or_mode(
        tiny_ini, trained, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    assert run("--config", tiny_ini, "--out", tmp_path / "out", *argv,
               "--checkpoint", trained / "checkpoint.aotc") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_eval_config_hash_mismatch_is_runtime_error(trained, corpus, tmp_path,
                                                    capsys):
    other = tmp_path / "other.ini"
    other.write_text(TINY_MODEL.replace("blocks = 1", "blocks = 2") + (
        f"\n[data]\ntest_manifest = {corpus}/test_manifest.tsv\n"))
    code = run("--config", other, "--out", tmp_path / "o", "eval",
               "--checkpoint", trained / "checkpoint.aotc")
    assert code == 2
    assert "hash" in capsys.readouterr().err


def test_config_echo_refeeds_to_identical_eval(tiny_ini, trained, tmp_path):
    first = tmp_path / "first"
    assert run("--config", tiny_ini, "--seed", 5, "--out", first, "eval",
               "--checkpoint", trained / "checkpoint.aotc") == 0
    second = tmp_path / "second"
    assert run("--config", first / "config.ini", "--out", second, "eval",
               "--checkpoint", trained / "checkpoint.aotc") == 0
    assert ((first / "eval.csv").read_text()
            == (second / "eval.csv").read_text())


@pytest.mark.parametrize("keep,missing", [(("data",), "noise"), ((), "data")])
def test_resume_with_incomplete_rng_state_exits_two(tiny_ini, trained, tmp_path,
                                                    capsys, keep, missing):
    ck = load_checkpoint(str(trained / "checkpoint.aotc"))
    bad = str(tmp_path / "bad.aotc")
    save_checkpoint(bad, ck.config_hash, ck.step, ck.tensors, ck.opt_tensors,
                    {k: ck.rng_state[k] for k in keep})
    code = run("--config", tiny_ini, "--seed", 5, "--out", tmp_path / "o",
               "train", "--resume", bad)
    assert code == 2
    assert f"rng state lacks {missing!r}" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["no-noise-rng", "no-optimizer"])
def test_resume_with_a_bad_training_state_writes_nothing(tiny_ini, mode_run, tmp_path,
                                                         capsys, monkeypatch, broken):
    """A resume checkpoint whose model loads but whose optimizer blocks or
    rng state do not is refused before the echo."""
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    ck = load_checkpoint(str(mode_run("f32", "vanilla") / "checkpoint_0000.aotc"))
    bad = tmp_path / "bad.aotc"
    if broken == "no-noise-rng":
        opt, rng, message = ck.opt_tensors, {"data": ck.rng_state["data"]}, "rng state lacks 'noise'"
    else:
        opt, rng, message = {}, ck.rng_state, "lacks optimizer block"
    save_checkpoint(str(bad), ck.config_hash, ck.step, ck.tensors, opt, rng)
    assert run("--config", tiny_ini, "--seed", 5, "--out", tmp_path / "o", "train",
               "--resume", bad) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.aotc"]


def test_resume_from_finished_run_reports_no_step_left(tiny_ini, trained, tmp_path,
                                                       capsys):
    done = trained / "checkpoint.aotc"
    out = tmp_path / "again"
    assert run("--config", tiny_ini, "--seed", 5, "--out", out, "train",
               "--resume", done) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.startswith(f"no step left to run: {done} is at step 10 of 10\n")
    assert f"checkpoint (rewritten): {out / 'checkpoint.aotc'}" in summary
    assert summary == capsys.readouterr().out
    # the rewritten checkpoint holds the finished state unchanged
    assert (out / "checkpoint.aotc").read_bytes() == done.read_bytes()


def test_train_blowup_exits_three(tiny_ini, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("--config", tiny_ini, "--out", tmp_path, "train",
                   "--peak-lr", 1e14)
    assert code == 3


# ---------------------------------------------------------------------
# rollout / gain / probe / transform-exp
# ---------------------------------------------------------------------

def test_rollout_artifacts_and_horizon_one(tiny_ini, trained, corpus,
                                           tmp_path):
    assert run("--config", tiny_ini, "--seed", 5, "--out", tmp_path,
               "rollout", "--checkpoint", trained / "checkpoint.aotc",
               "--family", "heat", "--index", 1, "--horizon", 1) == 0
    frames, label = load_trajectory(str(tmp_path / "rollout.aotd"))
    assert label == "heat"
    assert frames.shape == (1, 8, 8, 1)  # native heat channels only
    lines = (tmp_path / "rollout.csv").read_text().strip().split("\n")
    assert lines[0] == "step,l2re"
    assert len(lines) == 2

    # the single rolled frame equals a direct forward pass on the window
    cfg = resolve_config(str(tiny_ini), {"seed": 5})
    model = Model(cfg.model_config(8, 8, 2), named_stream(5, STREAM_INIT),
                  dtype=np.float32)
    from aotlab.train import load_model_state
    load_model_state(model, str(trained / "checkpoint.aotc"))
    from aotlab.data import load_dataset
    ds, _ = load_dataset(str(corpus / "test_manifest.tsv"))
    traj = ds.trajectories[ds.family_indices("heat")[1]]
    pred = model.forward(Tensor(traj[None, :3].astype(np.float32))).data[0]
    np.testing.assert_array_equal(frames[0], pred[..., :1])

    # the CSV holds the whole frame's ||p - t|| / ||t||, native channels only
    truth = traj[3][..., :1].astype(np.float32)
    want = (np.linalg.norm((frames[0] - truth).astype(np.float64))
            / np.linalg.norm(truth.astype(np.float64)))
    assert float(lines[1].split(",")[1]) == pytest.approx(want, rel=1e-12)


def test_rollout_blowup_on_first_step_is_reported(tiny_ini, trained, tmp_path,
                                                  capsys):
    """A model that is non-finite from its first prediction rolls out no
    frame: the run still succeeds, says so, and writes a header-only CSV
    but no trajectory, since an AOTD file needs at least one frame."""
    ck = load_checkpoint(str(trained / "checkpoint.aotc"))
    ck.tensors["head.w"] = ck.tensors["head.w"] * np.float32(1e38)
    bad = str(tmp_path / "bad.aotc")
    save_checkpoint(bad, ck.config_hash, ck.step, ck.tensors, ck.opt_tensors,
                    ck.rng_state)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("--config", tiny_ini, "--seed", 5, "--out", out, "rollout",
                   "--checkpoint", bad, "--family", "heat")
    assert code == 0, capsys.readouterr().err
    summary = (out / "summary.txt").read_text()
    assert "numeric blow-up at step 0; no frame to keep" in summary
    assert "trajectory: none written" in summary
    assert (out / "rollout.csv").read_text().strip() == "step,l2re"
    assert not (out / "rollout.aotd").exists()


def test_rollout_bad_family_or_index(tiny_ini, trained, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path / "a", "rollout",
               "--checkpoint", trained / "checkpoint.aotc",
               "--family", "waves") == 1
    assert run("--config", tiny_ini, "--out", tmp_path / "b", "rollout",
               "--checkpoint", trained / "checkpoint.aotc",
               "--family", "heat", "--index", 99) == 1


def test_rollout_needs_more_frames_than_t_in(tiny_ini, trained, corpus, tmp_path,
                                              capsys):
    frames = len(load_trajectory(str(corpus / "heat" / "test_000.aotd"))[0])
    ini = write_ini(tiny_ini, tmp_path / "long.ini", "model", "t_in", str(frames))
    assert run("--config", ini, "--out", tmp_path / "o", "rollout",
               "--checkpoint", trained / "checkpoint.aotc",
               "--family", "heat") == 1
    assert f"need more than t_in = {frames}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,message", [
    (("--family", "ns_vorticity"),
     "family 'ns_vorticity' not in dataset; present: heat"),
    (("--family", "heat", "--index", 9), "--index 9 out of range [0, 6) for heat"),
], ids=["family-not-in-corpus", "index-out-of-range"])
def test_rollout_of_a_trajectory_the_corpus_lacks_writes_nothing(
        heat_manifest, trained, tmp_path, capsys, argv, message):
    assert run("--out", tmp_path / "o", "rollout", "--test-manifest", heat_manifest,
               "--checkpoint", trained / "checkpoint.aotc", *argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


TINY_GEN = ("gen-data", "--grid", 8, "--n-train", 1, "--n-test", 1)


@pytest.mark.parametrize("setting,argv", [
    (None, ("train", "--checkpoint-every", -1)),
    (None, ("rollout", "--checkpoint", "{ckpt}", "--family", "heat",
            "--horizon", -5)),
    (None, ("gain", "--n-probe", 0)),
    (None, ("--threads", 0) + TINY_GEN),
    (None, ("--threads", -3) + TINY_GEN),
    (("run", "threads", "0"), TINY_GEN),
    (None, TINY_GEN + ("--grid", 0)),
    (("model", "patch", "0"), ("train",)),
    (("model", "heads", "0"), ("train",)),
    (("model", "groups", "eight"), ("train",)),
    (("train", "clip_norm", "big"), ("train",)),
    (("train", "epochs", "0"), ("train",)),
    (None, ("train", "--epochs", 0)),
    (("train", "warmup_epochs", "99"), TINY_GEN),
    (("data", "n_test", "0"), ("train",)),
    (None, ("train", "--mode", "frozen")),
    (None, ("train", "--transform-from", "{ckpt}")),
    (None, ("train", "--resume", "{ckpt}", "--dtype", "f32")),
    (None, ("train", "--resume", "{ckpt}", "--mode", "vanilla")),
    (None, ("train", "--resume", "{ckpt}", "--mode", "frozen",
            "--transform-from", "{ckpt}")),
    (("model", "height", "8"), ("train",)),
    (("train", "peak_lr", "nan"), ("train",)),
    (("train", "noise", "inf"), ("train",)),
    (("train", "weight_decay", "nan"), ("train",)),
    (("model", "gate_init", "nan"), ("train",)),
    (("train", "eps", "0"), ("train",)),
    (("train", "weight_decay", "-1"), ("train",)),
    (None, ("train", "--epochs", "x")),
    (None, TINY_GEN + ("--grid", 1.5)),
    (None, TINY_GEN + ("--families", ",")),
    (None, TINY_GEN + ("--families", "heat,heat")),
    (None, ("train", "--manifest", "")),
    (None, ("transform-exp", "--manifest", "")),
    (None, ("eval", "--manifest", "", "--test-manifest", "",
            "--checkpoint", "{ckpt}")),
    (None, ("rollout", "--manifest", "", "--test-manifest", "",
            "--checkpoint", "{ckpt}", "--family", "heat")),
    (None, ("gain", "--manifest", "", "--test-manifest", "")),
    (None, ("probe", "--manifest", "", "--test-manifest", "",
            "--checkpoint", "{ckpt}")),
    (None, ("eval",)),
    (None, ("rollout", "--family", "heat")),
    (None, ("probe",)),
    (None, ("rollout", "--checkpoint", "{ckpt}", "--family", "waves")),
], ids=["checkpoint-every", "horizon", "n-probe", "threads-zero",
        "threads-negative", "run-section-threads", "grid", "patch-zero",
        "heads-zero", "groups-word", "clip-norm-word", "epochs-zero",
        "epochs-flag-zero", "warmup-past-epochs", "n-test-zero",
        "frozen-without-source", "transform-from-without-frozen",
        "resume-with-dtype", "resume-with-mode", "resume-with-frozen-source",
        "model-height-key", "peak-lr-nan",
        "noise-inf", "weight-decay-nan", "gate-init-nan", "eps-zero",
        "weight-decay-negative", "epochs-flag-word", "grid-flag-fraction",
        "families-none", "families-duplicate", "train-without-manifest",
        "transform-exp-without-manifest", "eval-without-dataset",
        "rollout-without-dataset", "gain-without-dataset",
        "probe-without-dataset", "eval-without-checkpoint",
        "rollout-without-checkpoint", "probe-without-checkpoint",
        "rollout-unknown-family"])
def test_bad_numeric_flag_is_usage_error(tiny_ini, trained, tmp_path, capsys,
                                         monkeypatch, setting, argv):
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    write_ini(tiny_ini, tmp_path / "run.ini", *(setting or ()))
    argv = [str(a).format(ckpt=trained / "checkpoint.aotc") for a in argv]
    assert run("--config", tmp_path / "run.ini", "--out", tmp_path / "out",
               *argv) == 1
    assert "usage error" in capsys.readouterr().err
    # a bad config value or flag stops every command before it writes
    # anything, the out directory and its config echo included
    left = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
    assert left == {"run.ini"}


def test_gain_on_fresh_init_is_near_identity(tiny_ini, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path, "gain",
               "--n-probe", 3) == 0
    lines = (tmp_path / "gains.csv").read_text().strip().split("\n")
    assert lines[1] == "sublayer,forward_gain,backward_gain"
    table = [ln.split(",") for ln in lines[2:] if ln and not ln[0].isalpha()]
    per_layer = [row for row in table if len(row) == 3]
    assert per_layer
    for row in per_layer:
        assert abs(float(row[2]) - 1.0) < 1e-5   # backward exact
        assert abs(float(row[1]) - 1.0) < 0.05   # forward near 1 at init


def test_gain_from_checkpoint(tiny_ini, trained, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path, "gain",
               "--checkpoint", trained / "checkpoint.aotc", "--n-probe", 3) == 0
    assert "gains from checkpoint" in (tmp_path / "summary.txt").read_text()
    lines = (tmp_path / "gains.csv").read_text().strip().split("\n")
    assert lines[1] == "sublayer,forward_gain,backward_gain"


def test_probe_writes_features_for_every_test_sample(tiny_ini, trained,
                                                     corpus, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path, "probe",
               "--checkpoint", trained / "checkpoint.aotc") == 0
    lines = (tmp_path / "probe_features.csv").read_text().strip().split("\n")
    assert lines[0].startswith("label,f0,")
    assert len(lines) == 1 + 6  # 2 test trajectories x 3 families
    assert "accuracy" in (tmp_path / "summary.txt").read_text()


def test_transform_exp_artifacts(tiny_ini, tmp_path):
    assert run("--config", tiny_ini, "--seed", 2, "--out", tmp_path,
               "transform-exp", "--families", "heat,diffusion_reaction",
               "--epochs", 2, "--steps-per-epoch", 2, "--batch", 2) == 0
    comparison = (tmp_path / "transform_comparison.csv").read_text()
    rows = comparison.strip().split("\n")
    assert rows[0] == "mode,final_train_loss"
    assert [r.split(",")[0] for r in rows[1:]] == [
        "vanilla", "learned", "frozen"]
    cross = (tmp_path / "cross_transfer.csv").read_text().strip().split("\n")
    assert cross[0] == "source,heat,diffusion_reaction"
    assert len(cross) == 3
    for run_dir in ("vanilla", "learned", "frozen"):
        assert (tmp_path / run_dir / "checkpoint.aotc").exists()


def test_transform_exp_family_missing_from_manifest(heat_manifest, tmp_path,
                                                    capsys):
    assert run("--out", tmp_path / "o", "transform-exp", "--manifest",
               heat_manifest, "--families", "heat,ns_vorticity") == 1
    assert "'ns_vorticity' not in dataset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_transform_exp_trains_each_run_once(tiny_ini, tmp_path, monkeypatch):
    """The primary family's learned source and its frozen primary ->
    primary run come from the mode comparison, so two families need 7
    trainings: 3 modes, 1 more source and 3 more frozen cells."""
    import aotlab.cli
    import aotlab.train

    calls = []
    original = aotlab.train.train_mode_run

    def counted(model_cfg, mode, train_ds, *args, **kwargs):
        calls.append(mode)
        return original(model_cfg, mode, train_ds, *args, **kwargs)

    monkeypatch.setattr(aotlab.cli, "train_mode_run", counted)
    monkeypatch.setattr(aotlab.train, "train_mode_run", counted)
    assert run("--config", tiny_ini, "--seed", 2, "--out", tmp_path,
               "transform-exp", "--families", "heat,diffusion_reaction",
               "--epochs", 2, "--steps-per-epoch", 2, "--batch", 2) == 0
    assert sorted(calls) == ["frozen"] * 4 + ["learned"] * 2 + ["vanilla"]
    comparison = (tmp_path / "transform_comparison.csv").read_text().split("\n")
    cross = (tmp_path / "cross_transfer.csv").read_text().split("\n")
    assert comparison[3].split(",")[1] == cross[1].split(",")[1]  # frozen == heat,heat
