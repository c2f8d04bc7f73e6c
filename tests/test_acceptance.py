"""End-to-end guarantees of the package, one test per headline property.

Covers: Sinkhorn projection accuracy at scale, doubly stochastic algebra of
mixing-matrix products, finite-difference gradient integrity for every
parameter class, identity-gate equivalence with a plain residual network,
Fourier mixer shift equivariance plus FFT oracles, PDE solver closed forms,
unit backward propagation gain, full-budget smoke training on the
three-family desk corpus, transform-mode directionality, the mixing-matrix
family probe, and determinism / persistence of every file format.

The smoke fixture trains the desk model once at the full budget (50 epochs
x 100 steps, f32) and is shared by the training-dependent tests, so this
file dominates the suite's runtime (several minutes on one core).
"""

import time
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

import aotlab.autodiff as ad
from aotlab import fft
from aotlab.autodiff import Tape, Tensor
from aotlab.checkpoint import load_checkpoint, save_checkpoint
from aotlab.data import (
    PdeFamilySpec,
    SamplingPlan,
    build_dataset,
    desk_specs,
    family_subset,
    load_trajectory,
    read_manifest,
    save_dataset,
    save_trajectory,
    trajectory_crc,
    write_manifest,
)
from aotlab.config import RunConfig, resolve_config, write_config
from aotlab.diagnostics import (
    gain_analysis,
    kernel_probe,
    probe_from_features,
)
from aotlab.mixer import FourierMixerParams, fourier_mix
from aotlab.model import Model, ModelConfig
from aotlab.sinkhorn import sinkhorn_array
from aotlab.solvers import fno_forcing, grf_ic, solve_dr, solve_heat, solve_ns_vorticity
from aotlab.train import (
    STREAM_INIT,
    TrainConfig,
    load_transform,
    named_stream,
    train,
    train_mode_run,
    validate,
)

from test_model import fd_entries

# thresholds frozen from the first passing reference run (defaults, seed 7);
# the looser 0.15 / 0.5 envelope is asserted alongside them
HEAT_L2RE_BOUND = 0.12
NS_L2RE_BOUND = 0.25


def desk_window(rng, batch=1):
    return rng.standard_normal((batch, 10, 32, 32, 2))


# ---------------------------------------------------------------------
# shared corpus and full-budget smoke training
# ---------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus():
    train_ds, test_ds = build_dataset(desk_specs(32), 64, 16, seed=0)
    return train_ds, test_ds, SamplingPlan.from_specs(desk_specs(32))


@dataclass
class SmokeRun:
    model: Model
    result: object
    untrained: dict
    trained: dict
    minutes: float
    out_dir: str


@pytest.fixture(scope="session")
def smoke(corpus, tmp_path_factory):
    train_ds, test_ds, plan = corpus
    out_dir = str(tmp_path_factory.mktemp("smoke"))
    model = Model(ModelConfig(), named_stream(7, STREAM_INIT)).astype(np.float32)
    untrained = validate(model, test_ds)
    t0 = time.perf_counter()
    result = train(model, train_ds, plan, TrainConfig(seed=7),
                   test_ds=test_ds, out_dir=out_dir)
    minutes = (time.perf_counter() - t0) / 60.0
    return SmokeRun(model, result, untrained, validate(model, test_ds),
                    minutes, out_dir)


# ---------------------------------------------------------------------
# 1. Sinkhorn projection at scale
# ---------------------------------------------------------------------

def test_sinkhorn_thousand_matrices_match_convergence_oracle():
    rng = np.random.default_rng(2024)
    raws = rng.uniform(-1.0, 1.0, size=(1000, 4, 4))

    t0 = time.perf_counter()
    out = sinkhorn_array(raws, iters=20)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"20-sweep batch took {elapsed:.2f}s"

    def per_matrix(m):
        return np.maximum(np.abs(m.sum(axis=-1) - 1.0).max(axis=-1),
                          np.abs(m.sum(axis=-2) - 1.0).max(axis=-1))

    # residual after 20 sweeps, worst matrix of the thousand
    assert per_matrix(out).max() < 1e-6

    # entrywise agreement with the run-to-convergence oracle
    converged = sinkhorn_array(raws, iters=300)
    assert np.abs(out - converged).max() < 1e-6

    # per-matrix residual is monotone non-increasing in sweep count; the
    # sums quantize in ulps of 1.0, so allow exactly that much slack at the
    # floor and demand strict decrease above it
    ulp = 2.0 ** -52
    traces = np.stack([per_matrix(sinkhorn_array(raws, iters=k))
                       for k in range(1, 21)], axis=-1)
    for i, tr in enumerate(traces):
        assert np.all(np.diff(tr) <= ulp), f"matrix {i}"
        above = tr > 1e-13
        assert np.all(np.diff(tr[above]) <= 0), f"matrix {i}"


# ---------------------------------------------------------------------
# 2. doubly stochastic algebra under composition
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (8, 2)])
def test_products_of_projections_stay_doubly_stochastic(n, seed):
    rng = np.random.default_rng(100 + seed)
    a = np.eye(n)
    for k in range(1, 25):
        # the k-th projection acts after the k - 1 before it
        a = sinkhorn_array(rng.uniform(-1.0, 1.0, (n, n))) @ a
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-4, f"rows at length {k}"
        assert np.abs(a.sum(axis=-2) - 1.0).max() < 1e-4, f"cols at length {k}"
        assert np.linalg.norm(a, 2) <= 1.0 + 1e-5


# ---------------------------------------------------------------------
# 3. finite-difference gradient integrity, every parameter class
# ---------------------------------------------------------------------

def test_gradients_match_finite_differences_for_every_parameter_class():
    t_start = time.perf_counter()
    model = Model(ModelConfig(blocks=2), named_stream(5, STREAM_INIT),
                  transform_mode="learned")
    rng = np.random.default_rng(6)
    u = desk_window(rng)
    w = rng.standard_normal((1, 32, 32, 2))

    def loss_fn():
        with Tape():
            return float(ad.tsum(model.forward(Tensor(u)) * Tensor(w)).item())

    with Tape() as tape:
        tape.backward(ad.tsum(model.forward(Tensor(u)) * Tensor(w)))

    names = model.trainable_tensors()
    required = {
        "patch projection": lambda n: n.startswith("patch."),
        "coordinate features": lambda n: n == "w_p",
        "temporal decay scale": lambda n: n == "gamma",
        "temporal mlp": lambda n: n.startswith("t_mlp."),
        "complex mixer weights": lambda n: ".mix.inner." in n,
        "stream map weights": lambda n: ".maps.phi_" in n,
        "stream map biases": lambda n: ".maps.b_" in n,
        "gates": lambda n: ".maps.alpha_" in n,
        "norm scales": lambda n: n.endswith(".scale") or n.endswith(".shift"),
        "readout logits": lambda n: n == "readout.w",
        "output head": lambda n: n.startswith("head."),
        "transform pair": lambda n: n.startswith("transform."),
    }
    for cls, member in required.items():
        assert any(member(n) for n in names), f"no tensors in class {cls!r}"

    # absolute floor 1e-6: the first sub-layer sees identical stream copies,
    # where any simplex-weighted aggregation returns the shared field, so its
    # aggregation-map gradients are exactly zero and central differences read
    # only their own rounding noise (~1e-7 at this loss magnitude and h)
    for name, t in names.items():
        assert t.grad is not None, f"{name} missing grad"
        idx, num = fd_entries(loss_fn, t, k=2, seed=zlib.crc32(name.encode()))
        got = t.grad.reshape(-1)[idx]
        err = np.abs(got - num)
        scale = np.maximum(np.abs(num), 1e-12)
        ok = (err < 1e-4 * scale) | (err < 1e-6)
        assert ok.all(), f"{name}: fd {num}, got {got}"

    assert time.perf_counter() - t_start < 120.0


# ---------------------------------------------------------------------
# 4. identity-gate equivalence with the single-stream reference
# ---------------------------------------------------------------------

def test_identity_gated_model_equals_single_stream_reference():
    model = Model(ModelConfig(gate_init=0.0), named_stream(9, STREAM_INIT))
    rng = np.random.default_rng(10)
    for _ in range(2):
        u = desk_window(rng, batch=25)
        strict = model.forward(Tensor(u), strict_identity=True).numpy()
        reference = model.reference_forward(Tensor(u)).numpy()
        np.testing.assert_allclose(strict, reference, atol=1e-9)


# ---------------------------------------------------------------------
# 5. Fourier mixer equivariance and FFT oracles
# ---------------------------------------------------------------------

def test_mixer_commutes_with_circular_shifts():
    # zero-bias identity-activation mixers are pure Fourier multipliers
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = FourierMixerParams.init(4, 2, 3, rng)
        for name, t in p.named("m").items():
            if name.rsplit(".", 1)[-1].startswith("w"):
                t.data = rng.standard_normal(t.shape)
        z = rng.standard_normal((4, 8, 8))
        dy, dx = rng.integers(0, 8, size=2)
        out = fourier_mix(Tensor(z), p, activation="identity").numpy()
        shifted_in = np.roll(np.roll(z, dy, axis=1), dx, axis=2)
        out_shifted = fourier_mix(Tensor(shifted_in), p,
                                  activation="identity").numpy()
        np.testing.assert_allclose(
            out_shifted, np.roll(np.roll(out, dy, axis=1), dx, axis=2),
            atol=1e-9)


def dft2_oracle(x):
    h, w = x.shape
    eh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ew = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return eh @ x @ ew.T


@pytest.mark.parametrize("h,w", [(1, 1), (2, 4), (8, 8), (16, 16), (16, 4)])
def test_fft_round_trip_parseval_and_dft_oracle(h, w):
    rng = np.random.default_rng(h * 37 + w)
    x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    f = fft.fft2_array(x)
    assert np.abs(f - dft2_oracle(x)).max() < 1e-10
    assert np.abs(fft.ifft2_array(f) - x).max() < 1e-10
    assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(f) ** 2) / (h * w)) < 1e-10


# ---------------------------------------------------------------------
# 6. PDE solver closed-form oracles
# ---------------------------------------------------------------------

def test_heat_single_mode_matches_exponential_decay():
    n, nu, dt, steps = 32, 1e-2, 1e-2, 40
    x = np.add.outer(np.zeros(n), np.arange(n) / n)
    traj = solve_heat(np.sin(2 * np.pi * x), nu, dt, steps)
    for s in range(steps):
        t = (s + 1) * dt
        want = np.exp(-nu * (2 * np.pi) ** 2 * t) * np.sin(2 * np.pi * x)
        np.testing.assert_allclose(traj[s], want, atol=1e-8)


def test_ns_shear_mode_is_steady():
    n = 32
    y = np.add.outer(np.arange(n) / n, np.zeros(n))
    w0 = np.sin(2 * np.pi * y)
    traj = solve_ns_vorticity(w0, nu=0.0, forcing=None, dt=1e-3, steps=100)
    assert np.abs(traj[-1] - w0).max() < 1e-6


def test_ns_time_stepping_is_second_order():
    ic = grf_ic(32, 32, np.random.default_rng(5))
    f = fno_forcing(32, 32)
    horizon = 0.2
    final = {}
    for dt in (2e-3, 1e-3, 5e-4):
        final[dt] = solve_ns_vorticity(ic, 1e-3, f, dt,
                                       int(round(horizon / dt)))[-1]
    e_coarse = np.linalg.norm(final[2e-3] - final[1e-3])
    e_fine = np.linalg.norm(final[1e-3] - final[5e-4])
    order = np.log2(e_coarse / e_fine)
    assert 1.7 <= order <= 2.3, f"measured order {order}"


def test_dr_without_reaction_reduces_to_heat():
    rng = np.random.default_rng(1)
    ic = np.stack([grf_ic(32, 32, rng), grf_ic(32, 32, rng)], axis=-1)
    traj = solve_dr(ic, d=(1e-3, 5e-3), scale=0.0, dt=1e-2, steps=25)
    np.testing.assert_allclose(
        traj[..., 0], solve_heat(ic[..., 0], 1e-3, 1e-2, 25), atol=1e-8)
    np.testing.assert_allclose(
        traj[..., 1], solve_heat(ic[..., 1], 5e-3, 1e-2, 25), atol=1e-8)


# ---------------------------------------------------------------------
# 7. propagation gains
# ---------------------------------------------------------------------

def test_backward_gain_is_unit_on_init_and_trained_models(smoke, corpus):
    _, test_ds, _ = corpus
    probe = np.stack([test_ds.trajectories[i][:10] for i in range(8)])

    for model in (smoke.model,
                  Model(ModelConfig(), named_stream(23, STREAM_INIT))):
        rep = gain_analysis(model, probe.astype(model.dtype))
        assert rep.n_sublayers == 8
        for g in rep.backward + rep.composite_backward:
            assert abs(g - 1.0) < 1e-5, f"backward gain {g}"


def test_composite_forward_gains_bounded_over_hundred_inits():
    u = desk_window(np.random.default_rng(40))
    for seed in range(100):
        model = Model(ModelConfig(), named_stream(seed, STREAM_INIT))
        rep = gain_analysis(model, u)
        for g in rep.composite_forward:
            # 1 ulp of slack on the lower edge for rounding of the row sums
            assert 1.0 - 1e-9 <= g <= 2.0, f"seed {seed}: composite {g}"


# ---------------------------------------------------------------------
# 8. full-budget smoke training on the desk corpus
# ---------------------------------------------------------------------

def test_smoke_training_reaches_frozen_error_thresholds(smoke):
    assert smoke.minutes < 30.0, f"training took {smoke.minutes:.1f} min"
    heat, ns = smoke.trained["heat"], smoke.trained["ns_vorticity"]
    assert heat < 0.15 and heat < HEAT_L2RE_BOUND, f"heat L2RE {heat}"
    assert ns < 0.5 and ns < NS_L2RE_BOUND, f"ns L2RE {ns}"
    for fam in ("heat", "ns_vorticity"):
        ratio = smoke.untrained[fam] / smoke.trained[fam]
        assert ratio >= 3.0, f"{fam} only {ratio:.2f}x below untrained"


# ---------------------------------------------------------------------
# 9. transform-mode directionality
# ---------------------------------------------------------------------

def test_learned_transform_improves_on_vanilla_and_frozen_stays_frozen(
        corpus, tmp_path_factory):
    train_ds, _, _ = corpus
    heat = family_subset(train_ds, "heat")
    hplan = SamplingPlan({"heat": 1.0})
    budget = TrainConfig(epochs=4, steps_per_epoch=50, warmup_epochs=1,
                         seed=11)
    out = tmp_path_factory.mktemp("modes")

    res_v, _ = train_mode_run(ModelConfig(), "vanilla", heat, hplan, budget,
                              dtype=np.float32)
    res_l, _ = train_mode_run(ModelConfig(), "learned", heat, hplan, budget,
                              dtype=np.float32, out_dir=str(out / "learned"))
    assert res_l.metrics[-1]["train_loss"] <= res_v.metrics[-1]["train_loss"]

    # frozen mode trains and never changes a transform bit
    model = Model(ModelConfig(), named_stream(11, STREAM_INIT),
                  dtype=np.float32, transform_mode="frozen")
    load_transform(model, str(out / "learned" / "checkpoint.aotc"))
    before = {k: t.data.copy() for k, t in model.named().items()
              if k.startswith("transform.")}
    assert before
    train(model, heat, hplan,
          TrainConfig(epochs=1, steps_per_epoch=25, warmup_epochs=0, seed=11))
    for k, b in before.items():
        np.testing.assert_array_equal(model.named()[k].data, b)


def test_cross_transfer_matrix_csv_shape(corpus, tmp_path):
    from aotlab.train import cross_transfer, write_cross_transfer_csv

    train_ds, _, _ = corpus
    fams = ["heat", "ns_vorticity"]
    cfg = TrainConfig(epochs=2, steps_per_epoch=25, warmup_epochs=0, seed=13)
    mat = cross_transfer(ModelConfig(), train_ds, fams, cfg,
                         str(tmp_path / "xfer"), dtype=np.float32)
    path = tmp_path / "cross_transfer.csv"
    write_cross_transfer_csv(str(path), fams, mat)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "source,heat,ns_vorticity"
    assert len(lines) == 3
    for fam, line in zip(fams, lines[1:]):
        cells = line.split(",")
        assert cells[0] == fam
        assert all(float(c) > 0 for c in cells[1:])


# ---------------------------------------------------------------------
# 10. mixing-matrix family probe
# ---------------------------------------------------------------------

def test_probe_separates_families_on_held_out_trajectories(smoke, corpus):
    _, test_ds, _ = corpus
    probe = kernel_probe(smoke.model, test_ds)
    assert probe.families == ["diffusion_reaction", "heat", "ns_vorticity"]
    assert probe.confusion.sum() == 24  # half of each family held out
    assert probe.accuracy >= 0.9, f"probe accuracy {probe.accuracy}"


def test_identical_features_hit_tie_break_baseline_exactly(corpus):
    _, test_ds, _ = corpus
    labels = list(test_ds.labels)
    res = probe_from_features(np.ones((len(labels), 7)), labels)
    # every query collapses to the lowest-indexed centroid
    families = sorted(set(labels))
    queries_per_family = {
        fam: len([l for l in labels if l == fam])
        - len([l for l in labels if l == fam]) // 2
        for fam in families}
    baseline = queries_per_family[families[0]] / sum(queries_per_family.values())
    assert res.accuracy == baseline


# ---------------------------------------------------------------------
# 11. determinism and persistence
# ---------------------------------------------------------------------

def small_specs():
    return [PdeFamilySpec("heat", grid=16, nu=1e-2, dt=1e-2, steps=9)]


def small_model_cfg():
    return ModelConfig(height=16, width=16, channels=1, t_in=3, patch=4,
                       d_z=8, heads=2, modes=1, blocks=1, streams=2)


def test_same_seed_gives_bit_identical_corpus_files(tmp_path):
    a_tr, _ = build_dataset(small_specs(), 3, 1, seed=5)
    b_tr, _ = build_dataset(small_specs(), 3, 1, seed=5)
    ma = save_dataset(a_tr, str(tmp_path / "a"), "train")
    mb = save_dataset(b_tr, str(tmp_path / "b"), "train")
    entries_a, entries_b = read_manifest(ma), read_manifest(mb)
    assert [e[1:] for e in entries_a] == [e[1:] for e in entries_b]
    for (rel_a, _, _), (rel_b, _, _) in zip(entries_a, entries_b):
        crc_a = trajectory_crc(str(tmp_path / "a" / rel_a))
        crc_b = trajectory_crc(str(tmp_path / "b" / rel_b))
        assert crc_a == crc_b


def test_same_seed_gives_identical_loss_trace():
    train_ds, _ = build_dataset(small_specs(), 3, 1, seed=5)
    plan = SamplingPlan({"heat": 1.0})
    cfg = TrainConfig(epochs=1, steps_per_epoch=10, warmup_epochs=0, seed=3)

    def run():
        model = Model(small_model_cfg(), named_stream(3, STREAM_INIT))
        return train(model, train_ds, plan, cfg).loss_trace

    first, second = run(), run()
    assert len(first) == 10
    assert first == second


def test_mid_training_checkpoint_resumes_the_unbroken_run(tmp_path):
    train_ds, _ = build_dataset(small_specs(), 3, 1, seed=5)
    plan = SamplingPlan({"heat": 1.0})
    cfg = TrainConfig(epochs=4, steps_per_epoch=5, warmup_epochs=1, seed=6)

    model_a = Model(small_model_cfg(), named_stream(6, STREAM_INIT))
    full = train(model_a, train_ds, plan, cfg, out_dir=str(tmp_path),
                 checkpoint_every=2)

    model_b = Model(small_model_cfg(), named_stream(99, STREAM_INIT))
    resumed = train(model_b, train_ds, plan, cfg,
                    resume_from=str(tmp_path / "checkpoint_0001.aotc"))
    assert resumed.loss_trace == full.loss_trace[10:]
    for (ka, ta), (kb, tb) in zip(sorted(model_a.named().items()),
                                  sorted(model_b.named().items())):
        assert ka == kb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_every_file_format_round_trips(tmp_path):
    rng = np.random.default_rng(8)

    traj = rng.standard_normal((4, 8, 8, 2)).astype(np.float32)
    save_trajectory(str(tmp_path / "t.aotd"), traj, "heat")
    back, label = load_trajectory(str(tmp_path / "t.aotd"))
    np.testing.assert_array_equal(back, traj)
    assert label == "heat"

    tensors = {"a.w": rng.standard_normal((3, 2)),
               "b": rng.standard_normal(5).astype(np.float32)}
    save_checkpoint(str(tmp_path / "c.aotc"), cfg_hash=123, step=7,
                    tensors=tensors, opt_tensors={}, rng_state={"k": 1})
    ck = load_checkpoint(str(tmp_path / "c.aotc"))
    assert ck.step == 7 and ck.config_hash == 123
    for k, v in tensors.items():
        np.testing.assert_array_equal(ck.tensors[k], v)
        assert ck.tensors[k].dtype == v.dtype
    assert ck.rng_state == {"k": 1}

    entries = [("train/heat_000.aotd", "heat", 1.0),
               ("train/ns_001.aotd", "ns_vorticity", 0.5)]
    write_manifest(str(tmp_path / "m.tsv"), entries)
    assert read_manifest(str(tmp_path / "m.tsv")) == entries

    cfg = RunConfig(epochs=3, peak_lr=2e-3, groups=None, seed=9)
    write_config(cfg, str(tmp_path / "run.ini"))
    assert resolve_config(file_path=str(tmp_path / "run.ini")) == cfg
