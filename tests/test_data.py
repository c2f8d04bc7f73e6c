"""Container format, corpus assembly, and balanced sampling."""

import struct
import zlib

import numpy as np
import pytest

from aotlab.data import (
    AOTD_MAGIC,
    AOTD_VERSION,
    PAD_VALUE,
    PdeFamilySpec,
    SamplingPlan,
    TrajectoryDataset,
    build_dataset,
    desk_specs,
    generate_trajectory,
    load_dataset,
    load_trajectory,
    pad_channels,
    read_manifest,
    sample_batch,
    save_dataset,
    save_trajectory,
    trajectory_crc,
    write_manifest,
)
import aotlab.data as data
from aotlab.cli import main
from aotlab.errors import FormatError, NumericOverflowError, ShapeError
from aotlab.solvers import (dr_ic, fno_forcing, grf_ic, solve_dr, solve_heat,
                            solve_ns_vorticity)


def synthetic_ds(sizes, channels=None, frames=5, h=4, w=4, seed=0):
    """Labeled random-trajectory dataset; family 'famN' has sizes[N] members."""
    rng = np.random.default_rng(seed)
    trajs, labels = [], []
    for fi, count in enumerate(sizes):
        c = 1 if channels is None else channels[fi]
        for _ in range(count):
            trajs.append(rng.standard_normal((frames, h, w, c)))
            labels.append(f"fam{fi}")
    return TrajectoryDataset(trajs, labels)


# ---------------------------------------------------------------------
# AOTD container format
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aotd_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    traj = rng.standard_normal((6, 4, 8, 2)).astype(dtype)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "heat")
    loaded, label = load_trajectory(path)
    assert label == "heat"
    assert loaded.dtype == dtype
    np.testing.assert_array_equal(loaded, traj)


def test_aotd_binary_layout_matches_struct_oracle(tmp_path):
    traj = np.arange(2 * 3 * 4 * 1, dtype=np.float64).reshape(2, 3, 4, 1)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "ab")
    raw = open(path, "rb").read()
    payload = traj.astype("<f8").tobytes()
    want = (AOTD_MAGIC + struct.pack("<I", AOTD_VERSION)
            + struct.pack("<H", 2) + b"ab"
            + struct.pack("<IIIIB", 3, 4, 2, 1, 1)
            + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    assert raw == want


def test_aotd_crc_accessor_matches_independent_crc(tmp_path):
    traj = np.random.default_rng(1).standard_normal((3, 4, 4, 1)).astype(np.float32)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "x")
    assert trajectory_crc(path) == zlib.crc32(traj.astype("<f4").tobytes()) & 0xFFFFFFFF


def test_aotd_corruption_detected(tmp_path):
    traj = np.random.default_rng(2).standard_normal((3, 4, 4, 1)).astype(np.float32)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "x")
    raw = bytearray(open(path, "rb").read())
    raw[-10] ^= 0xFF  # flip a payload byte
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="CRC"):
        load_trajectory(path)


@pytest.mark.parametrize("mutate,match", [
    (lambda b: b"XXXX" + b[4:], "magic"),
    (lambda b: b[:4] + struct.pack("<I", 9) + b[8:], "version"),
    (lambda b: b[:-3], "truncated"),
    (lambda b: b + b"\x00", "trailing"),
])
def test_aotd_structural_validation(tmp_path, mutate, match):
    traj = np.zeros((2, 4, 4, 1), dtype=np.float32)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "x")
    raw = open(path, "rb").read()
    open(path, "wb").write(mutate(raw))
    with pytest.raises(FormatError, match=match):
        load_trajectory(path)


def test_aotd_bad_dtype_code_rejected(tmp_path):
    traj = np.zeros((2, 4, 4, 1), dtype=np.float32)
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, traj, "x")
    raw = bytearray(open(path, "rb").read())
    # dtype code byte sits right after magic+version+label+4 u32 extents
    raw[4 + 4 + 2 + 1 + 16] = 7
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="dtype"):
        load_trajectory(path)


def test_aotd_save_validation(tmp_path):
    path = str(tmp_path / "t.aotd")
    with pytest.raises(FormatError):
        save_trajectory(path, np.zeros((4, 4, 1), dtype=np.float32), "x")
    with pytest.raises(FormatError):
        save_trajectory(path, np.zeros((2, 4, 4, 1), dtype=np.int32), "x")
    with pytest.raises(FormatError):
        save_trajectory(path, np.zeros((0, 4, 4, 1), dtype=np.float32), "x")


def test_aotd_unicode_label_round_trip(tmp_path):
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, np.zeros((1, 2, 2, 1), dtype=np.float32), "famille-étendue")
    assert load_trajectory(path)[1] == "famille-étendue"


# ---------------------------------------------------------------------
# family specs and generation
# ---------------------------------------------------------------------

def test_desk_specs_forty_frames_each():
    for spec in desk_specs():
        assert spec.frames == 40
    assert [s.channels for s in desk_specs()] == [1, 2, 1]


@pytest.mark.parametrize("kwargs", [
    dict(family="bogus"),
    dict(family="heat", nu=0.0),
    dict(family="heat", nu=np.inf),
    dict(family="diffusion_reaction", d=(-1e-3, 1e-3)),
    dict(family="heat", steps=10, stride=3),
    dict(family="heat", weight=-1.0),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        PdeFamilySpec(**kwargs)


def test_generate_heat_matches_solver_directly():
    spec = PdeFamilySpec("heat", grid=16, nu=1e-2, dt=1e-2, steps=4)
    traj = generate_trajectory(spec, np.random.default_rng(5))
    assert traj.shape == (5, 16, 16, 1)
    ic = grf_ic(16, 16, np.random.default_rng(5))
    np.testing.assert_array_equal(traj[0, ..., 0], ic)
    np.testing.assert_array_equal(
        traj[1:, ..., 0], solve_heat(ic, 1e-2, 1e-2, 4))


def test_generate_stride_subsamples_solver_frames():
    dense = PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=8, stride=1)
    strided = PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=8, stride=4)
    a = generate_trajectory(dense, np.random.default_rng(6))
    b = generate_trajectory(strided, np.random.default_rng(6))
    assert b.shape[0] == 3
    np.testing.assert_array_equal(b[0], a[0])
    np.testing.assert_array_equal(b[1], a[4])
    np.testing.assert_array_equal(b[2], a[8])


def test_generate_dr_has_two_channels():
    spec = PdeFamilySpec("diffusion_reaction", grid=8, dt=1e-2, steps=3)
    traj = generate_trajectory(spec, np.random.default_rng(7))
    assert traj.shape == (4, 8, 8, 2)


# ---------------------------------------------------------------------
# padding and dataset assembly
# ---------------------------------------------------------------------

def test_padding_is_prefix_preserving():
    rng = np.random.default_rng(8)
    traj = rng.standard_normal((3, 4, 4, 1))
    padded = pad_channels(traj, 3)
    np.testing.assert_array_equal(padded[..., 0], traj[..., 0])
    assert np.all(padded[..., 1:] == PAD_VALUE)
    with pytest.raises(ShapeError):
        pad_channels(traj, 0)


def test_dataset_pads_to_common_cmax():
    ds = synthetic_ds([2, 2], channels=[1, 2])
    assert ds.c_max == 2
    assert ds.native_channels == [1, 1, 2, 2]
    assert ds.native_by_family == {"fam0": 1, "fam1": 2}
    for traj in ds.trajectories:
        assert traj.shape[-1] == 2
    assert np.all(ds.trajectories[0][..., 1] == PAD_VALUE)


def test_family_with_disagreeing_channel_counts_rejected(tmp_path, capsys):
    """Native channels are taken per family, so a family whose files
    disagree would be scored on the first file's channels only."""
    trajs = [np.zeros((12, 8, 8, 1)), np.ones((12, 8, 8, 2))]
    with pytest.raises(ShapeError, match="'heat' mixes 1 and 2"):
        TrajectoryDataset(trajs, ["heat", "heat"])

    for i, traj in enumerate(trajs):
        save_trajectory(str(tmp_path / f"heat_{i}.aotd"), traj, "heat")
    manifest = str(tmp_path / "m.tsv")
    write_manifest(manifest, [(f"heat_{i}.aotd", "heat", 1.0) for i in range(2)])
    with pytest.raises(ShapeError, match="'heat' mixes 1 and 2"):
        load_dataset(manifest)
    code = main(["--out", str(tmp_path / "o"), "eval", "--test-manifest", manifest,
                 "--checkpoint", str(tmp_path / "unread.aotc")])
    assert code == 2
    assert "'heat' mixes 1 and 2" in capsys.readouterr().err


@pytest.mark.parametrize("native", [[1], [1, 1, 5]], ids=["short", "long"])
def test_native_channels_must_match_trajectory_count(native):
    trajs = [np.zeros((12, 8, 8, 1)), np.zeros((12, 8, 8, 1))]
    with pytest.raises(ShapeError, match="2 trajectories vs"):
        TrajectoryDataset(trajs, ["heat", "heat"], native_channels=native)


def test_build_dataset_sizes_and_disjointness():
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3)]
    train, test = build_dataset(specs, 8, 2, seed=1)
    assert len(train) == 8 and len(test) == 2
    train_bytes = {t.tobytes() for t in train.trajectories}
    test_bytes = {t.tobytes() for t in test.trajectories}
    assert len(train_bytes) == 8 and len(test_bytes) == 2
    assert not train_bytes & test_bytes


def test_build_dataset_two_families_padded():
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3),
             PdeFamilySpec("diffusion_reaction", grid=8, dt=1e-2, steps=3)]
    train, test = build_dataset(specs, 3, 1, seed=2)
    assert train.c_max == 2 and test.c_max == 2
    for ds in (train, test):
        for traj, label in zip(ds.trajectories, ds.labels):
            if label == "heat":
                assert np.all(traj[..., 1] == PAD_VALUE)


def test_build_dataset_deterministic():
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3),
             PdeFamilySpec("ns_vorticity", grid=8, nu=1e-3, dt=1e-3,
                           steps=4, stride=2)]
    a_train, a_test = build_dataset(specs, 3, 2, seed=3)
    b_train, b_test = build_dataset(specs, 3, 2, seed=3)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert a.labels == b.labels
        for x, y in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(x, y)
    c_train, _ = build_dataset(specs, 3, 2, seed=4)
    assert any(x.tobytes() != y.tobytes()
               for x, y in zip(a_train.trajectories, c_train.trajectories))


def test_build_dataset_validation():
    with pytest.raises(ValueError):
        build_dataset([], 2, 1)
    spec = PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3)
    with pytest.raises(ValueError):
        build_dataset([spec], 0, 1)


def _oracle_trajectory(spec, fi, j, seed):
    """One IC at a time, each solved densely and then subsampled."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, fi, j)))
    n = spec.grid
    if spec.family == "heat":
        ic = grf_ic(n, n, rng)[..., None]
        states = solve_heat(ic[..., 0], spec.nu, spec.dt, spec.steps)[..., None]
    elif spec.family == "diffusion_reaction":
        ic = dr_ic(n, n, rng, k=spec.k)
        states = solve_dr(ic, d=spec.d, k=spec.k, scale=spec.scale,
                          dt=spec.dt, steps=spec.steps)
    else:
        ic = grf_ic(n, n, rng)[..., None]
        states = solve_ns_vorticity(ic[..., 0], spec.nu, fno_forcing(n, n),
                                    spec.dt, spec.steps)[..., None]
    return np.concatenate([ic[None], states[spec.stride - 1::spec.stride]])


def _oracle_splits(specs, n_train, n_test, seed):
    splits = ([], []), ([], [])
    total = n_train + n_test
    for fi, spec in enumerate(specs):
        trajs = [_oracle_trajectory(spec, fi, j, seed) for j in range(total)]
        perm = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(1, fi))).permutation(total)
        for (split_t, split_l), idxs in zip(splits, (perm[:n_train], perm[n_train:])):
            split_t += [trajs[j] for j in idxs]
            split_l += [spec.family] * len(idxs)
    return splits


@pytest.fixture(scope="module")
def desk_oracle():
    return _oracle_splits(desk_specs(), 2, 1, seed=21)


@pytest.mark.parametrize("threads", [1, 2])
def test_build_dataset_matches_per_ic_oracle(desk_oracle, threads):
    built = build_dataset(desk_specs(), 2, 1, seed=21, threads=threads)
    for ds, (want_t, want_l) in zip(built, desk_oracle):
        assert ds.labels == want_l
        for traj, native, want in zip(ds.trajectories, ds.native_channels, want_t):
            assert np.array_equal(traj[..., :native], want)


@pytest.mark.filterwarnings("ignore:vorticity IC has nonzero mean")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("family", ["diffusion_reaction", "ns_vorticity"])
def test_build_dataset_blowup_names_trajectory_and_seed(family, threads,
                                                        monkeypatch):
    seed, grid = 5, 16
    # only trajectory 2's initial condition is scaled past the blow-up limit
    target = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, 0, 2))).bit_generator.state
    sampler = "dr_ic" if family == "diffusion_reaction" else "grf_ic"
    orig = getattr(data, sampler)

    def sample(*args, **kwargs):
        hit = args[2].bit_generator.state == target
        return orig(*args, **kwargs) * (1e7 if hit else 1.0)

    monkeypatch.setattr(data, sampler, sample)
    spec = PdeFamilySpec(family, grid=grid, nu=1e-3, dt=1e-3, steps=3)
    with pytest.raises(NumericOverflowError) as err:
        build_dataset([spec], 3, 1, seed=seed, threads=threads)
    assert f"{family} trajectory 2 (seed {seed})" in str(err.value)
    assert err.value.where == "step 0"


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------

def test_single_family_all_draws_from_it():
    ds = synthetic_ds([5])
    plan = SamplingPlan({"fam0": 2.5})
    w, t, labels = sample_batch(ds, plan, 64, 3, np.random.default_rng(9))
    assert w.shape == (64, 3, 4, 4, 1) and t.shape == (64, 4, 4, 1)
    assert set(labels) == {"fam0"}


def test_equal_weights_balance_unequal_sizes():
    # family sizes 100 vs 10; equal weights must still draw 1:1
    ds = synthetic_ds([100, 10])
    plan = SamplingPlan({"fam0": 1.0, "fam1": 1.0})
    _, _, labels = sample_batch(ds, plan, 10_000, 3, np.random.default_rng(10))
    count0 = labels.count("fam0")
    sigma = np.sqrt(10_000 * 0.5 * 0.5)
    assert abs(count0 - 5_000) <= 3 * sigma


def test_weight_three_to_one_ratio():
    ds = synthetic_ds([10, 10])
    plan = SamplingPlan({"fam0": 3.0, "fam1": 1.0})
    _, _, labels = sample_batch(ds, plan, 10_000, 3, np.random.default_rng(11))
    count0 = labels.count("fam0")
    sigma = np.sqrt(10_000 * 0.75 * 0.25)
    assert abs(count0 - 7_500) <= 3 * sigma


def test_zero_weight_family_never_drawn():
    ds = synthetic_ds([4, 4])
    plan = SamplingPlan({"fam0": 0.0, "fam1": 1.0})
    _, _, labels = sample_batch(ds, plan, 256, 3, np.random.default_rng(12))
    assert set(labels) == {"fam1"}


def test_windows_are_consecutive_frames_with_next_frame_target():
    # frame index encoded at [t, 0, 0, 0] so window/target positions are legible
    traj = np.zeros((9, 4, 4, 1))
    traj[:, 0, 0, 0] = np.arange(9)
    ds = TrajectoryDataset([traj], ["fam0"])
    plan = SamplingPlan({"fam0": 1.0})
    w, t, _ = sample_batch(ds, plan, 50, 3, np.random.default_rng(13))
    starts = w[:, 0, 0, 0, 0]
    np.testing.assert_array_equal(w[:, 1, 0, 0, 0], starts + 1)
    np.testing.assert_array_equal(w[:, 2, 0, 0, 0], starts + 2)
    np.testing.assert_array_equal(t[:, 0, 0, 0], starts + 3)
    assert starts.min() >= 0 and starts.max() <= 5
    assert len(set(starts)) == 6  # all window positions reachable


def test_sampling_deterministic_given_rng():
    ds = synthetic_ds([3, 3])
    plan = SamplingPlan({"fam0": 1.0, "fam1": 2.0})
    a = sample_batch(ds, plan, 32, 3, np.random.default_rng(14))
    b = sample_batch(ds, plan, 32, 3, np.random.default_rng(14))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_short_trajectory_rejected():
    ds = synthetic_ds([2], frames=3)
    plan = SamplingPlan({"fam0": 1.0})
    with pytest.raises(ShapeError):
        sample_batch(ds, plan, 4, 3, np.random.default_rng(15))


def test_plan_validation_and_family_probs():
    with pytest.raises(ValueError):
        SamplingPlan({})
    with pytest.raises(ValueError):
        SamplingPlan({"a": -1.0})
    with pytest.raises(ValueError):
        SamplingPlan({"a": 0.0})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SamplingPlan({"heat": bad, "ns_vorticity": 1.0})
    plan = SamplingPlan({"fam0": 3.0, "fam1": 1.0})
    with pytest.raises(ValueError):
        plan.family_probs(["fam0", "fam2"])
    np.testing.assert_allclose(plan.family_probs(["fam0", "fam1"]),
                               [0.75, 0.25])


# ---------------------------------------------------------------------
# manifests and directory round trip
# ---------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    path = str(tmp_path / "m.tsv")
    entries = [("heat/a.aotd", "heat", 1.0), ("ns/b.aotd", "ns_vorticity", 3.0)]
    write_manifest(path, entries)
    assert read_manifest(path) == entries


def test_manifest_malformed_lines(tmp_path):
    path = str(tmp_path / "m.tsv")
    open(path, "w").write("a.aotd\theat\n")
    with pytest.raises(FormatError, match="3 tab-separated"):
        read_manifest(path)
    open(path, "w").write("a.aotd\theat\tnotafloat\n")
    with pytest.raises(FormatError, match="weight"):
        read_manifest(path)
    for bad in ("nan", "inf", "-inf"):
        open(path, "w").write(f"a.aotd\theat\t1.0\nb.aotd\theat\t{bad}\n")
        with pytest.raises(FormatError, match=f"m.tsv:2: bad weight '{bad}'"):
            read_manifest(path)
    open(path, "w").write("\n")
    with pytest.raises(FormatError, match="empty"):
        read_manifest(path)
    open(path, "wb").write(b"a\xff\tb\t1.0\n")
    with pytest.raises(FormatError, match="m.tsv.*UTF-8"):
        read_manifest(path)


def test_dataset_directory_round_trip(tmp_path):
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3, weight=2.0),
             PdeFamilySpec("diffusion_reaction", grid=8, dt=1e-2, steps=3)]
    train, _ = build_dataset(specs, 3, 1, seed=16)
    plan = SamplingPlan.from_specs(specs)
    manifest = save_dataset(train, str(tmp_path), "train", plan,
                            dtype=np.float64)
    loaded, loaded_plan = load_dataset(manifest)
    assert loaded.labels == train.labels
    assert loaded.c_max == train.c_max
    assert loaded.native_channels == train.native_channels
    for a, b in zip(loaded.trajectories, train.trajectories):
        np.testing.assert_array_equal(a, b)
    assert loaded_plan.weights == plan.weights


def test_dataset_label_mismatch_detected(tmp_path):
    ds = synthetic_ds([1])
    manifest = save_dataset(ds, str(tmp_path), "train")
    # overwrite the file with a different embedded label
    save_trajectory(str(tmp_path / "fam0" / "train_000.aotd"),
                    ds.trajectories[0].astype(np.float32), "other")
    with pytest.raises(FormatError, match="label"):
        load_dataset(manifest)


def test_save_dataset_identical_crcs_for_same_seed(tmp_path):
    spec = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=3)]
    crcs = []
    for run in ("a", "b"):
        train, _ = build_dataset(spec, 2, 1, seed=17)
        root = tmp_path / run
        manifest = save_dataset(train, str(root), "train")
        crcs.append([trajectory_crc(str(root / rel))
                     for rel, _, _ in read_manifest(manifest)])
    assert crcs[0] == crcs[1]
