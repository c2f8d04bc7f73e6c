"""Optimizer, schedule, noise, loss, checkpoint format, and the loop."""

import os

import numpy as np
import pytest

import aotlab.autodiff as ad
from aotlab.autodiff import Tape, Tensor
from aotlab.checkpoint import (
    Checkpoint,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from aotlab.data import PdeFamilySpec, SamplingPlan, build_dataset
from aotlab.errors import FormatError, NumericOverflowError, ShapeError
from aotlab.model import Model, ModelConfig
from aotlab.train import (
    AdamW,
    STREAM_INIT,
    TrainConfig,
    clip_gradients,
    cross_transfer,
    denoising_loss,
    inject_noise,
    load_model_state,
    load_transform,
    named_stream,
    one_cycle_lr,
    restore_training_checkpoint,
    save_training_checkpoint,
    train,
    train_mode_run,
    validate,
    write_cross_transfer_csv,
)


def tiny_cfg(**kw):
    base = dict(height=8, width=8, channels=1, t_in=3, patch=4, d_z=8,
                heads=2, modes=1, blocks=1, streams=2)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, dtype=np.float64, mode="vanilla"):
    return Model(tiny_cfg(), named_stream(seed, STREAM_INIT), dtype=dtype,
                 transform_mode=mode)


@pytest.fixture(scope="module")
def heat_corpus():
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=7)]
    train_ds, test_ds = build_dataset(specs, 6, 2, seed=0)
    return train_ds, test_ds, SamplingPlan({"heat": 1.0})


# ---------------------------------------------------------------------
# noise injection
# ---------------------------------------------------------------------

def test_noise_zero_scale_is_identity():
    w = np.random.default_rng(0).standard_normal((2, 3, 4, 4, 1))
    assert inject_noise(w, 0.0, np.random.default_rng(1)) is w


def test_noise_zero_window_unchanged():
    w = np.zeros((2, 3, 4, 4, 1))
    out = inject_noise(w, 0.5, np.random.default_rng(2))
    np.testing.assert_array_equal(out, w)


def test_noise_std_matches_scale():
    # unit-RMS window, eps 0.1 -> empirical std within [0.095, 0.105]
    w = np.ones((4, 10, 125, 100, 2))
    out = inject_noise(w, 0.1, np.random.default_rng(3))
    noise = out - w
    assert noise.size == 10 ** 6
    assert 0.095 <= noise.std() <= 0.105


def test_noise_scales_per_sample():
    w = np.ones((2, 1, 100, 100, 1))
    w[1] *= 10.0  # second sample has 10x the RMS
    noise = inject_noise(w, 0.1, np.random.default_rng(4)) - w
    r = noise[1].std() / noise[0].std()
    assert 9.0 < r < 11.0


def test_noise_deterministic_and_validated():
    w = np.random.default_rng(5).standard_normal((2, 2, 4, 4, 1))
    a = inject_noise(w, 0.3, np.random.default_rng(6))
    b = inject_noise(w, 0.3, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        inject_noise(w, -0.1, np.random.default_rng(7))


# ---------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------

def test_loss_zero_iff_equal():
    x = Tensor(np.random.default_rng(8).standard_normal((3, 4, 4, 1)))
    assert float(denoising_loss(x, x).data) == 0.0


def test_loss_constant_offset_closed_form():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 4, 4, 2))
    c = 0.37
    loss = denoising_loss(Tensor(t + c), Tensor(t))
    np.testing.assert_allclose(float(loss.data), c * c * 4 * 4 * 2, rtol=1e-12)


def test_loss_matches_loop_oracle():
    rng = np.random.default_rng(10)
    p, t = rng.standard_normal((4, 3, 3, 2)), rng.standard_normal((4, 3, 3, 2))
    want = sum(float(np.sum((p[b] - t[b]) ** 2)) for b in range(4)) / 4
    got = float(denoising_loss(Tensor(p), Tensor(t)).data)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_loss_gradient_and_shape_check():
    rng = np.random.default_rng(11)
    p = Tensor(rng.standard_normal((2, 3, 3, 1)), requires_grad=True)
    t = Tensor(rng.standard_normal((2, 3, 3, 1)))
    with Tape() as tape:
        loss = denoising_loss(p, t)
    tape.backward(loss)
    np.testing.assert_allclose(p.grad, 2 * (p.data - t.data) / 2, rtol=1e-12)
    with pytest.raises(ShapeError):
        denoising_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------

def test_one_cycle_pinned_points():
    assert one_cycle_lr(0, 100, 0.2, 1e-3) == 0.0
    assert one_cycle_lr(20, 100, 0.2, 1e-3) == 1e-3   # warmup end
    assert one_cycle_lr(100, 100, 0.2, 1e-3) == 0.0   # cosine terminus
    np.testing.assert_allclose(one_cycle_lr(10, 100, 0.2, 1e-3), 5e-4)
    np.testing.assert_allclose(one_cycle_lr(60, 100, 0.2, 1e-3), 5e-4)


def test_one_cycle_peak_is_max_and_shape():
    vals = [one_cycle_lr(s, 200, 0.2, 2.0) for s in range(201)]
    assert max(vals) == 2.0 and vals.index(2.0) == 40
    assert all(b >= a for a, b in zip(vals[:41], vals[1:41]))    # ramp up
    assert all(b <= a for a, b in zip(vals[40:], vals[41:]))     # decay
    # continuity at the joint
    assert abs(one_cycle_lr(39, 200, 0.2, 2.0) - 2.0) < 2.0 / 40 + 1e-12


def test_one_cycle_validation():
    with pytest.raises(ValueError):
        one_cycle_lr(-1, 100, 0.2, 1e-3)
    with pytest.raises(ValueError):
        one_cycle_lr(101, 100, 0.2, 1e-3)
    with pytest.raises(ValueError):
        one_cycle_lr(0, 100, 1.0, 1e-3)


# ---------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------

def test_clip_below_threshold_untouched():
    factor, norm = clip_gradients({"a": np.array([0.3, 0.4])}, 1.0)
    assert factor == 1.0
    np.testing.assert_allclose(norm, 0.5)


def test_clip_scales_to_exact_norm():
    """The factor, applied by the optimizer, brings the global norm to
    max_norm and keeps the ratio between tensors."""
    g = {"a": np.full(4, 3.0), "b": np.full(4, 4.0)}
    factor, norm = clip_gradients(g, 1.0)
    np.testing.assert_allclose(norm, 10.0)
    opt = AdamW({k: Tensor(np.zeros(4), requires_grad=True) for k in g}, betas=(0.5, 0.5))
    opt.step(g, lr=0.1, scale=factor)
    seen = {k: opt.m[k] / 0.5 for k in g}  # a first step's m is (1 - b1) * g
    total = np.sqrt(sum(np.sum(v ** 2) for v in seen.values()))
    np.testing.assert_allclose(total, 1.0, rtol=1e-12)
    np.testing.assert_allclose(seen["a"] / seen["b"], 0.75)


def test_clip_preserves_dtype_and_zero():
    factor, norm = clip_gradients({"a": np.zeros(3, dtype=np.float32)}, 1.0)
    assert norm == 0.0 and factor == 1.0
    big = {"a": np.full(3, 9.0, dtype=np.float32)}
    factor, _ = clip_gradients(big, 1.0)
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"a": p})
    opt.step(big, lr=0.1, scale=factor)
    assert opt.m["a"].dtype == np.float32 and p.data.dtype == np.float32
    # the scale is one float32 multiply of the gradient
    np.testing.assert_array_equal(opt.m["a"], (1.0 - 0.9) * (big["a"] * np.float32(factor)))


def test_clip_finite_gradients_whose_squares_overflow():
    g = np.array([1e200, 1.0])
    factor, norm = clip_gradients({"a": g}, 1.0)
    np.testing.assert_allclose(norm, 1e200, rtol=1e-12)
    np.testing.assert_allclose(g * factor, [1.0, 1e-200], rtol=1e-12)


def test_clip_counts_a_none_gradient_as_zero():
    factor, norm = clip_gradients({"a": np.array([3.0, 4.0]), "b": None}, 1.0)
    assert (factor, norm) == (0.2, 5.0)
    _, norm = clip_gradients({"a": None, "b": np.array([1e200, 1.0])}, 1.0)
    np.testing.assert_allclose(norm, 1e200, rtol=1e-12)


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

def test_adamw_hand_checked_single_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, betas=(0.9, 0.9), eps=1e-8, weight_decay=0.0)
    opt.step({"p": np.array([1.0])}, lr=0.1)
    # bias-corrected m_hat = v_hat = 1 -> update = lr / (1 + eps)
    want = 1.0 - 0.1 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [want], rtol=1e-15)
    np.testing.assert_allclose(p.data, [0.9], atol=1e-8)


def test_adamw_decoupled_decay_only():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.1)
    opt.step({"p": np.array([0.0])}, lr=0.1)
    assert p.data[0] == 0.99  # exactly (1 - lr*wd), no Adam term


def test_adamw_zero_grad_zero_decay_is_identity():
    arr = np.random.default_rng(12).standard_normal(5)
    p = Tensor(arr.copy(), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0)
    for _ in range(7):
        opt.step({"p": np.zeros(5)}, lr=0.3)
    np.testing.assert_array_equal(p.data, arr)


def test_adamw_lr_zero_is_identity():
    arr = np.random.default_rng(13).standard_normal(5)
    p = Tensor(arr.copy(), requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.1)
    for _ in range(5):
        opt.step({"p": np.random.default_rng(14).standard_normal(5)}, lr=0.0)
    np.testing.assert_array_equal(p.data, arr)


def test_adamw_matches_reference_sequence():
    rng = np.random.default_rng(15)
    arr = rng.standard_normal((3, 2))
    p = Tensor(arr.copy(), requires_grad=True)
    opt = AdamW({"p": p}, betas=(0.9, 0.99), eps=1e-8, weight_decay=0.01)
    ref, m, v = arr.copy(), np.zeros_like(arr), np.zeros_like(arr)
    for t in range(1, 6):
        g = rng.standard_normal((3, 2))
        opt.step({"p": g.copy()}, lr=0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.99 * v + 0.01 * g * g
        ref = (ref - 0.05 * 0.01 * ref
               - 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.99 ** t)) + 1e-8))
    np.testing.assert_allclose(p.data, ref, rtol=1e-12)


def test_adamw_nan_gradient_names_parameter():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = AdamW({"blocks.0.mix.phi_t": p})
    with pytest.raises(NumericOverflowError) as err:
        opt.step({"blocks.0.mix.phi_t": np.array([1.0, np.nan])}, lr=0.1)
    assert "blocks.0.mix.phi_t" in str(err.value)
    assert err.value.where == "blocks.0.mix.phi_t"


def nan_in_second_parameter():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    grads = {"a": np.ones(3), "b": np.array([1.0, np.nan, 1.0])}
    return AdamW({"a": a, "b": b}), a, grads


def test_adamw_nan_gradient_leaves_step_unapplied():
    opt, a, grads = nan_in_second_parameter()
    with pytest.raises(NumericOverflowError) as err:
        opt.step(grads, lr=0.01)
    assert err.value.where == "b"
    np.testing.assert_array_equal(a.data, np.ones(3))
    np.testing.assert_array_equal(opt.m["a"], np.zeros(3))
    np.testing.assert_array_equal(opt.v["a"], np.zeros(3))
    assert opt.t == 0


def test_adamw_wrong_gradient_size_leaves_step_unapplied():
    opt, a, grads = nan_in_second_parameter()
    grads["b"] = np.ones(4)
    with pytest.raises(ShapeError):
        opt.step(grads, lr=0.01)
    np.testing.assert_array_equal(a.data, np.ones(3))
    np.testing.assert_array_equal(opt.m["a"], np.zeros(3))
    assert opt.t == 0


def test_clipped_nan_gradient_names_the_culprit():
    opt, a, grads = nan_in_second_parameter()
    with pytest.raises(NumericOverflowError) as err:
        scale, _ = clip_gradients(grads, 1.0)
        opt.step(grads, lr=0.01, scale=scale)
    assert err.value.where == "b"
    assert "parameter b" in str(err.value)
    np.testing.assert_array_equal(a.data, np.ones(3))
    assert opt.t == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_is_named_by_clip_and_by_a_scaled_step(bad):
    """Each of the two calls names the culprit on its own, also when the
    other gradients' squares overflow; a step with a scale applies nothing."""
    opt, a, grads = nan_in_second_parameter()
    grads["a"] = np.array([1e200, 1.0, 1.0])
    grads["b"][1] = bad
    with pytest.raises(NumericOverflowError) as err:
        clip_gradients(grads, 1.0)
    assert err.value.where == "b"
    with pytest.raises(NumericOverflowError) as err:
        opt.step(grads, lr=0.01, scale=0.5)
    assert err.value.where == "b"
    np.testing.assert_array_equal(a.data, np.ones(3))
    np.testing.assert_array_equal(opt.m["a"], np.zeros(3))
    assert opt.t == 0


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_adamw_gradient_that_overflows_the_parameter_dtype_is_named():
    """A finite float64 gradient past float32's range is inf once cast to
    the parameters' dtype; the step names it and applies nothing."""
    p = Tensor(np.ones(2, np.float32), requires_grad=True)
    opt = AdamW({"p": p})
    with pytest.raises(NumericOverflowError) as err:
        opt.step({"p": np.array([1e39, 1.0])}, lr=0.1)
    assert err.value.where == "p"
    np.testing.assert_array_equal(p.data, np.ones(2, np.float32))
    assert opt.t == 0


def test_adamw_f32_moments_stay_f32():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p})
    opt.step({"p": np.ones(3, dtype=np.float32)}, lr=0.1)
    assert opt.m["p"].dtype == np.float32
    assert opt.v["p"].dtype == np.float32
    assert p.data.dtype == np.float32


def test_adamw_refuses_mixed_or_empty_parameters():
    mixed = {"a": Tensor(np.ones(2, np.float32), requires_grad=True),
             "b": Tensor(np.ones(2, np.float64), requires_grad=True)}
    with pytest.raises(ValueError, match="one dtype"):
        AdamW(mixed)
    with pytest.raises(ValueError, match="one dtype"):
        AdamW({})


def three_params(dtype=np.float32, seed=16):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for name, shape in (("a", (3, 2)), ("b", ()), ("c", (4,)))}


def random_grads(params, rng):
    return {k: rng.standard_normal(p.shape).astype(p.dtype) for k, p in params.items()}


def test_adamw_missing_or_none_gradient_steps_as_zero():
    """A parameter left out of ``grads``, or given None, takes the same
    step as under an exactly zero gradient: its moments decay and it
    decays, bit for bit."""
    rng = np.random.default_rng(17)
    first = random_grads(three_params(), rng)
    second = random_grads(three_params(), rng)
    params, zeroed = three_params(), three_params()
    opt = AdamW(params, weight_decay=0.01)
    ref = AdamW(zeroed, weight_decay=0.01)
    opt.step(first, lr=0.1)
    ref.step(first, lr=0.1)
    opt.step({"a": second["a"], "b": None}, lr=0.05)
    ref.step({"a": second["a"], "b": np.zeros((), np.float32),
              "c": np.zeros(4, np.float32)}, lr=0.05)
    for name in params:
        np.testing.assert_array_equal(params[name].data, zeroed[name].data)
        np.testing.assert_array_equal(opt.m[name], ref.m[name])
        np.testing.assert_array_equal(opt.v[name], ref.v[name])
    assert params["c"].data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_scale_equals_scaled_gradients(dtype):
    """``step(g, lr, f)`` is ``step({k: g[k] * f}, lr)`` bit for bit: the
    scale multiplies the gradients before the moments see them."""
    rng = np.random.default_rng(21)
    params, ref_params = three_params(dtype), three_params(dtype)
    opt = AdamW(params, weight_decay=0.01)
    ref = AdamW(ref_params, weight_decay=0.01)
    for f in (0.3, 1.0, 2e-6):
        g = random_grads(params, rng)
        opt.step(g, lr=0.1, scale=f)
        ref.step({k: v * f for k, v in g.items()}, lr=0.1)
        for name in params:
            np.testing.assert_array_equal(params[name].data, ref_params[name].data)
            np.testing.assert_array_equal(opt.m[name], ref.m[name])
            np.testing.assert_array_equal(opt.v[name], ref.v[name])


def test_adamw_resumed_from_state_blocks_matches_unbroken_run():
    """Moments loaded with ``load_state_blocks`` are what ``opt.m`` and
    ``opt.v`` read, and the next step matches an unbroken optimizer."""
    rng = np.random.default_rng(18)
    grads = [random_grads(three_params(), rng) for _ in range(3)]
    params = three_params()
    opt = AdamW(params, weight_decay=0.01)
    for g in grads[:2]:
        opt.step(g, lr=0.1)
    blocks = {k: v.copy() for k, v in opt.state_blocks().items()}
    resumed = three_params(seed=19)
    for name, p in resumed.items():
        p.data = params[name].data.copy()
    opt2 = AdamW(resumed, weight_decay=0.01)
    opt2.load_state_blocks(blocks, t=2)
    for name in params:
        np.testing.assert_array_equal(opt2.m[name], blocks[f"{name}.m"])
        np.testing.assert_array_equal(opt2.v[name], blocks[f"{name}.v"])
    opt.step(grads[2], lr=0.1)
    opt2.step(grads[2], lr=0.1)
    for name in params:
        np.testing.assert_array_equal(resumed[name].data, params[name].data)
        np.testing.assert_array_equal(opt2.m[name], opt.m[name])
        np.testing.assert_array_equal(opt2.v[name], opt.v[name])


def test_adamw_steps_a_rebound_parameter():
    """A parameter whose ``data`` is rebound between steps, as checkpoint
    loading does, is updated from the rebound value; the moments a caller
    holds are the ones the step updates."""
    rng = np.random.default_rng(20)
    params = three_params()
    opt = AdamW(params, weight_decay=0.01)
    opt.step(random_grads(params, rng), lr=0.1)
    held_m = opt.m["a"]
    rebound = rng.standard_normal((3, 2)).astype(np.float32)
    params["a"].data = rebound.copy()
    opt.step(random_grads(params, rng), lr=0.1)
    np.testing.assert_array_equal(held_m, opt.m["a"])
    np.testing.assert_array_equal(opt.state_blocks()["a.m"], opt.m["a"])
    m_hat = opt.m["a"] / (1.0 - 0.9 ** 2)
    v_hat = opt.v["a"] / (1.0 - 0.9 ** 2)
    want = rebound - 0.1 * 0.01 * rebound - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_array_equal(params["a"].data, want)


# ---------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    tensors = {"a.w": rng.standard_normal((3, 4)),
               "b": rng.standard_normal(5).astype(np.float32)}
    opt = {"a.w.m": np.zeros((3, 4)), "a.w.v": np.ones((3, 4))}
    state = {"data": {"x": 1, "y": [2, 3]}}
    path = str(tmp_path / "c.aotc")
    save_checkpoint(path, 0xDEADBEEF12345678, 42, tensors, opt, state)
    ck = load_checkpoint(path)
    assert ck.config_hash == 0xDEADBEEF12345678
    assert ck.step == 42
    assert ck.rng_state == state
    for k, v in tensors.items():
        assert ck.tensors[k].dtype == v.dtype
        np.testing.assert_array_equal(ck.tensors[k], v)
    for k, v in opt.items():
        np.testing.assert_array_equal(ck.opt_tensors[k], v)


@pytest.mark.parametrize("mutate,match", [
    (lambda b: b"XXXX" + b[4:], "magic"),
    (lambda b: b[:20] + bytes([b[20] ^ 0xFF]) + b[21:], "CRC"),
    (lambda b: b[:10], "CRC"),  # truncation also lands on the checksum guard
])
def test_checkpoint_corruption_detected(tmp_path, mutate, match):
    path = str(tmp_path / "c.aotc")
    save_checkpoint(path, 1, 2, {"a": np.ones(3)}, {}, {})
    raw = open(path, "rb").read()
    open(path, "wb").write(mutate(raw))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def test_config_hash_sensitivity():
    a = config_hash(tiny_cfg())
    assert a == config_hash(tiny_cfg())
    assert a != config_hash(tiny_cfg(d_z=16))
    assert 0 <= a < 2 ** 64


# ---------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=50, epochs=50)
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(noise=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(beta2=1.0)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    for clip_norm in (0.0, -1.0):
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=clip_norm)
    # eps = 0 turns AdamW's update of an exactly zero gradient into 0 / 0
    for eps in (0.0, -1e-8):
        with pytest.raises(ValueError, match="eps must be positive"):
            TrainConfig(eps=eps)
    with pytest.raises(ValueError, match="weight_decay must be nonnegative"):
        TrainConfig(weight_decay=-1.0)
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0
    for key in ("peak_lr", "weight_decay", "eps", "noise", "clip_norm"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                TrainConfig(**{key: value})
    assert TrainConfig(clip_norm=None).clip_norm is None


def test_train_loss_decreases(heat_corpus):
    train_ds, test_ds, plan = heat_corpus
    model = tiny_model(seed=1)
    cfg = TrainConfig(epochs=2, steps_per_epoch=15, batch=4, peak_lr=2e-3,
                      warmup_epochs=1, seed=1)
    res = train(model, train_ds, plan, cfg, test_ds=test_ds)
    assert res.loss_trace[-1] < res.loss_trace[0]
    assert res.step == 30 and len(res.loss_trace) == 30
    assert set(res.validation) == {"heat"}
    assert res.metrics[0]["train_loss"] > res.metrics[-1]["train_loss"]


def test_train_deterministic_trace(heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=1, steps_per_epoch=10, batch=2, warmup_epochs=0,
                      seed=2)
    traces = []
    for _ in range(2):
        res = train(tiny_model(seed=2), train_ds, plan, cfg)
        traces.append(res.loss_trace)
    assert traces[0] == traces[1]


def test_train_zero_lr_keeps_parameters_bitwise(heat_corpus):
    train_ds, _, plan = heat_corpus
    model = tiny_model(seed=3)
    before = {k: t.data.copy() for k, t in model.named_tensors().items()}
    cfg = TrainConfig(epochs=1, steps_per_epoch=5, batch=2, warmup_epochs=0,
                      seed=3)
    cfg.peak_lr = 0.0  # post-validation override: the loop must tolerate it
    train(model, train_ds, plan, cfg)
    for k, t in model.named_tensors().items():
        np.testing.assert_array_equal(t.data, before[k])


def test_train_resume_bit_identical(tmp_path, heat_corpus, monkeypatch):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=4, steps_per_epoch=3, batch=2, peak_lr=1e-3,
                      warmup_epochs=1, seed=4)
    import aotlab.train
    encoded = []
    save = aotlab.train.save_checkpoint

    def counted(path, *args):
        encoded.append(os.path.basename(path))
        return save(path, *args)

    monkeypatch.setattr(aotlab.train, "save_checkpoint", counted)

    model_a = tiny_model(seed=4)
    full = train(model_a, train_ds, plan, cfg, out_dir=str(tmp_path),
                 checkpoint_every=1)
    midway = str(tmp_path / "checkpoint_0001.aotc")  # after epoch 1, step 6
    # each epoch's state is encoded once and copied to the other names
    assert encoded == ["last_good.aotc"] * 4
    final = (tmp_path / "checkpoint.aotc").read_bytes()
    assert (tmp_path / "checkpoint_0003.aotc").read_bytes() == final
    assert (tmp_path / "last_good.aotc").read_bytes() == final

    # warm restart: different init, everything overwritten by the checkpoint
    model_c = tiny_model(seed=99)
    res_rest = train(model_c, train_ds, plan, cfg, resume_from=midway)
    assert res_rest.loss_trace == full.loss_trace[6:]  # bit-identical trace
    for (ka, ta), (kc, tc) in zip(sorted(model_a.named_tensors().items()),
                                  sorted(model_c.named_tensors().items())):
        assert ka == kc
        np.testing.assert_array_equal(ta.data, tc.data)


@pytest.mark.parametrize("state,match", [
    ({"noise": None}, "lacks 'data'"),
    (["data", "noise"], "lacks 'data'"),
    ({"data": None, "noise": None}, "'data' is invalid"),
    ({"data": {"bit_generator": "PCG64"}, "noise": None}, "'data' is invalid"),
    ({"data": {"bit_generator": "MT19937"}}, "'data' is invalid"),
])
def test_restore_rejects_malformed_rng_state(tmp_path, state, match):
    model = tiny_model()
    opt = AdamW(model.trainable_tensors())
    path = str(tmp_path / "c.aotc")
    save_checkpoint(path, config_hash(model.cfg), 0,
                    {k: t.data for k, t in model.named_tensors().items()},
                    opt.state_blocks(), state)
    with pytest.raises(FormatError, match=match):
        restore_training_checkpoint(path, model, opt, named_stream(0, 0),
                                    named_stream(0, 2))


def test_train_resume_rejects_other_config(tmp_path, heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, batch=2, warmup_epochs=0,
                      seed=5)
    res = train(tiny_model(seed=5), train_ds, plan, cfg,
                out_dir=str(tmp_path))
    other = Model(tiny_cfg(d_z=16), named_stream(5, STREAM_INIT))
    with pytest.raises(FormatError, match="hash"):
        train(other, train_ds, plan, cfg, resume_from=res.checkpoint_path)


def test_resume_at_the_end_runs_no_step_and_rewrites_the_checkpoint(
        tmp_path, heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=2, steps_per_epoch=2, batch=2, warmup_epochs=1,
                      seed=8)
    done = train(tiny_model(seed=8), train_ds, plan, cfg,
                 out_dir=str(tmp_path / "done"))
    again = train(tiny_model(seed=9), train_ds, plan, cfg,
                  out_dir=str(tmp_path / "again"), resume_from=done.checkpoint_path)
    assert again.step == 4 and again.loss_trace == []
    assert ((tmp_path / "again" / "checkpoint.aotc").read_bytes()
            == (tmp_path / "done" / "checkpoint.aotc").read_bytes())


def restore(model, path):
    restore_training_checkpoint(path, model, AdamW(model.trainable_tensors()),
                                named_stream(0, 0), named_stream(0, 2))


@pytest.mark.parametrize("load,edit,match", [
    (load_transform, lambda t, o: t.pop("transform.w_in"),
     "lacks transform tensor 'transform.w_in'"),
    (load_transform, lambda t, o: t.update({"transform.b_out": np.zeros(3)}),
     "transform tensor 'transform.b_out' shape"),
    (load_model_state, lambda t, o: t.pop("head.w"), r"missing \['head.w'\]"),
    (load_model_state, lambda t, o: t.update({"extra.w": np.zeros(2)}),
     r"extra \['extra.w'\]"),
    (load_model_state, lambda t, o: t.update({"head.b": np.zeros(3)}),
     "tensor 'head.b' shape"),
    (restore, lambda t, o: o.pop("head.w.m"),
     "lacks optimizer block 'head.w.m'"),
    (restore, lambda t, o: o.update({"head.b.v": np.zeros(3)}),
     r"optimizer block 'head.b.v' shape \(3,\) vs parameter shape"),
])
def test_model_loaders_name_the_bad_tensor(tmp_path, load, edit, match):
    model = tiny_model()
    tensors = {k: t.data for k, t in model.named_tensors().items()}
    opt_blocks = AdamW(model.trainable_tensors()).state_blocks()
    edit(tensors, opt_blocks)
    path = str(tmp_path / "c.aotc")
    save_checkpoint(path, config_hash(model.cfg), 0, tensors, opt_blocks, {})
    with pytest.raises(FormatError, match=match):
        load(model, path)


def test_frozen_transform_is_bit_frozen(tmp_path, heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=1, steps_per_epoch=8, batch=2, warmup_epochs=0,
                      seed=6)
    learned = tiny_model(seed=6, mode="learned")
    res = train(learned, train_ds, plan, cfg, out_dir=str(tmp_path))
    frozen = tiny_model(seed=7, mode="frozen")
    load_transform(frozen, res.checkpoint_path)
    before = {k: t.data.copy() for k, t in frozen.named_tensors().items()
              if k.startswith("transform.")}
    # learned run must have moved its transform off the identity init
    assert any(not np.array_equal(before[k],
                                  tiny_model(seed=7, mode="frozen")
                                  .named_tensors()[k].data)
               for k in before)
    train(frozen, train_ds, plan, cfg)
    for k, arr in before.items():
        np.testing.assert_array_equal(frozen.named_tensors()[k].data, arr)


def test_blowup_aborts_and_keeps_last_good(tmp_path, heat_corpus):
    train_ds, _, plan = heat_corpus
    model = tiny_model(seed=9)
    cfg = TrainConfig(epochs=3, steps_per_epoch=4, batch=2, peak_lr=1e12,
                      warmup_epochs=0, seed=9, clip_norm=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            train(model, train_ds, plan, cfg, out_dir=str(tmp_path))
    ck = load_checkpoint(str(tmp_path / "last_good.aotc"))
    assert ck.config_hash == config_hash(model.cfg)


def test_blowup_after_an_epoch_keeps_its_metrics_row(tmp_path, heat_corpus):
    train_ds, test_ds, plan = heat_corpus
    cfg = TrainConfig(epochs=4, steps_per_epoch=3, batch=2, peak_lr=3.0,
                      warmup_epochs=0, seed=0, clip_norm=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            train(tiny_model(seed=0), train_ds, plan, cfg, test_ds=test_ds,
                  out_dir=str(tmp_path))
    assert load_checkpoint(str(tmp_path / "last_good.aotc")).step == 3
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,step,lr,train_loss,heat_l2re"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "3"]]


def test_metrics_csv_layout(tmp_path, heat_corpus):
    train_ds, test_ds, plan = heat_corpus
    cfg = TrainConfig(epochs=2, steps_per_epoch=3, batch=2, warmup_epochs=1,
                      seed=10)
    train(tiny_model(seed=10), train_ds, plan, cfg, test_ds=test_ds,
          out_dir=str(tmp_path))
    lines = open(tmp_path / "metrics.csv").read().strip().split("\n")
    assert lines[0] == "epoch,step,lr,train_loss,heat_l2re"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
    assert float(first[3]) > 0 and float(first[4]) > 0


def test_validate_uses_native_channels_only(heat_corpus):
    # persistence stub: echoes the last window frame, corrupts the pad channel
    class Stub:
        class cfg:
            t_in = 3

        def forward(self, u):
            pred = u[:, -1].copy()
            pred[..., 1] += 999.0
            return Tensor(pred)

    frames = np.repeat(np.random.default_rng(17)
                       .standard_normal((1, 4, 4, 1)), 5, axis=0)
    from aotlab.data import TrajectoryDataset
    ds = TrajectoryDataset([frames], ["heat"], native_channels=[1], c_max=2)
    out = validate(Stub(), ds)
    assert out["heat"] == 0.0


def test_validate_strided_windows_oracle():
    # persistence stub scored at starts 0, 5, 10, ...: with frame
    # value t+1 the per-start error is 1/(s+t_in+1), so the family value is
    # the plain mean of that series over the scored starts
    class Stub:
        class cfg:
            t_in = 3

        def forward(self, u):
            return Tensor(u[:, -1].copy())

    frames = np.arange(1.0, 13.0)[:, None, None, None] * np.ones((12, 4, 4, 1))
    from aotlab.data import TrajectoryDataset
    ds = TrajectoryDataset([frames], ["heat"])
    expect = np.mean([1.0 / (s + 4) for s in (0, 5)])
    assert abs(validate(Stub(), ds)["heat"] - expect) < 1e-12
    short = TrajectoryDataset([frames[:3]], ["heat"])
    with pytest.raises(ShapeError, match="frames"):
        validate(Stub(), short)


# ---------------------------------------------------------------------
# motivated-experiment protocol
# ---------------------------------------------------------------------

def test_mode_run_validation(heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, batch=2, warmup_epochs=0)
    with pytest.raises(ValueError, match="mode"):
        train_mode_run(tiny_cfg(), "bogus", train_ds, plan, cfg)
    with pytest.raises(ValueError, match="transform_from"):
        train_mode_run(tiny_cfg(), "frozen", train_ds, plan, cfg)


def test_vanilla_mode_never_touches_transform(heat_corpus):
    train_ds, _, plan = heat_corpus
    cfg = TrainConfig(epochs=1, steps_per_epoch=4, batch=2, warmup_epochs=0,
                      seed=11)
    res, model = train_mode_run(tiny_cfg(), "vanilla", train_ds, plan, cfg)
    assert not model.transform.active
    np.testing.assert_array_equal(model.transform.w_in.data, np.eye(1))
    assert res.step == 4


def test_cross_transfer_matrix_shape(tmp_path):
    specs = [PdeFamilySpec("heat", grid=8, nu=1e-2, dt=1e-2, steps=5),
             PdeFamilySpec("ns_vorticity", grid=8, nu=1e-2, dt=1e-3,
                           steps=10, stride=2)]
    train_ds, _ = build_dataset(specs, 3, 1, seed=12)
    cfg = TrainConfig(epochs=1, steps_per_epoch=3, batch=2, warmup_epochs=0,
                      seed=12)
    fams = ["heat", "ns_vorticity"]
    mcfg = tiny_cfg(channels=train_ds.c_max)
    mat = cross_transfer(mcfg, train_ds, fams, cfg, str(tmp_path))
    assert set(mat) == {(a, b) for a in fams for b in fams}
    assert all(v > 0 for v in mat.values())
    csv_path = str(tmp_path / "transfer.csv")
    write_cross_transfer_csv(csv_path, fams, mat)
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "source,heat,ns_vorticity"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "heat"
    assert float(row[1]) == mat[("heat", "heat")]


def test_named_streams_are_stable_and_distinct():
    a = named_stream(0, 0).standard_normal(4)
    b = named_stream(0, 0).standard_normal(4)
    c = named_stream(0, 1).standard_normal(4)
    d = named_stream(1, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
