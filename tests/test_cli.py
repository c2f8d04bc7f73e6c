"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import configparser
import os

import numpy as np
import pytest

from aotlab.autodiff import Tensor
from aotlab.checkpoint import load_checkpoint, save_checkpoint
from aotlab.cli import main
from aotlab.config import RunConfig, resolve_config, write_config
from aotlab.data import load_trajectory, trajectory_crc
from aotlab.model import Model, ModelConfig
from aotlab.train import STREAM_INIT, TrainConfig, named_stream

TINY_MODEL = """\
[model]
height = 8
width = 8
channels = 2
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
    assert cfg.model_config() == ModelConfig()
    assert cfg.train_config() == TrainConfig()


def test_flags_override_file_values(tiny_ini, tmp_path):
    assert run("--config", tiny_ini, "--seed", 9, "--out", tmp_path,
               "train", "--epochs", 3, "--steps-per-epoch", 2,
               "--batch", 2) == 0
    echoed = resolve_config(str(tmp_path / "config.ini"))
    assert echoed.seed == 9
    assert echoed.epochs == 3
    assert echoed.steps_per_epoch == 2
    assert echoed.height == 8  # file value survives where no flag given


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
height = 32
width = 32
channels = 2
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


def test_train_without_manifest_is_usage_error(tmp_path):
    assert run("--out", tmp_path, "train") == 1


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


def test_eval_needs_checkpoint_flag(tiny_ini, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path, "eval") == 1


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
    model = Model(cfg.model_config(), named_stream(5, STREAM_INIT),
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


def test_rollout_bad_family_or_index(tiny_ini, trained, tmp_path):
    assert run("--config", tiny_ini, "--out", tmp_path / "a", "rollout",
               "--checkpoint", trained / "checkpoint.aotc",
               "--family", "waves") == 1
    assert run("--config", tiny_ini, "--out", tmp_path / "b", "rollout",
               "--checkpoint", trained / "checkpoint.aotc",
               "--family", "heat", "--index", 99) == 1


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
], ids=["checkpoint-every", "horizon", "n-probe", "threads-zero",
        "threads-negative", "run-section-threads", "grid", "patch-zero",
        "heads-zero", "groups-word", "clip-norm-word", "epochs-zero",
        "epochs-flag-zero", "warmup-past-epochs", "n-test-zero",
        "frozen-without-source"])
def test_bad_numeric_flag_is_usage_error(tiny_ini, trained, tmp_path, capsys,
                                         monkeypatch, setting, argv):
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(tiny_ini)
    if setting:
        section, key, value = setting
        parser.read_dict({section: {key: value}})
    with open(tmp_path / "run.ini", "w") as fh:
        parser.write(fh)
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
