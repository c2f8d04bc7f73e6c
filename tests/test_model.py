"""Assembled network: embedding, aggregation, forward contracts, gradients."""

import hashlib
import zlib

import numpy as np
import pytest

from aotlab import autodiff as ad
from aotlab.autodiff import Tape, Tensor
from aotlab.errors import NumericOverflowError, ShapeError
from aotlab.mixer import fourier_mix
from aotlab.model import (
    TRANSFORM_MODES,
    LinearTransformPair,
    Model,
    ModelConfig,
    apply_linear_transform,
    temporal_aggregate,
)
from aotlab.train import STREAM_INIT, denoising_loss, named_stream


class _IdentityModule:
    """Pass-through stand-in for the temporal MLP in hand-check tests."""

    def forward(self, x: Tensor) -> Tensor:
        return x


def tiny_cfg(**kw):
    base = dict(height=8, width=8, channels=2, t_in=2, patch=4, d_z=8, heads=2,
                modes=1, blocks=2, streams=2)
    base.update(kw)
    return ModelConfig(**base)


def make_model(seed=0, transform_mode="vanilla", **kw):
    cfg = tiny_cfg(**kw)
    return Model(cfg, np.random.default_rng(seed), transform_mode=transform_mode), cfg


def window(rng, cfg, b=1):
    return rng.standard_normal((b, cfg.t_in, cfg.height, cfg.width, cfg.channels))


# ---------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------

def test_config_rejects_bad_geometry():
    with pytest.raises(ShapeError):
        ModelConfig(height=30, width=32, patch=8)
    with pytest.raises(ShapeError):
        ModelConfig(d_z=30, heads=4)
    for size in ("height", "width", "channels", "t_in", "patch", "d_z",
                 "heads", "modes", "blocks", "streams", "sinkhorn_iters"):
        with pytest.raises(ShapeError, match=size):
            ModelConfig(**{size: 0})
    with pytest.raises(ShapeError):
        ModelConfig(modes=5)  # the default 32 / 8 grid has 4 x 4 tokens
    for groups in (0, 3):
        with pytest.raises(ShapeError):
            ModelConfig(groups=groups)
    with pytest.raises(ValueError, match="activation"):
        ModelConfig(activation="tanh")
    for gate_init in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="gate_init must be finite"):
            ModelConfig(gate_init=gate_init)


def test_default_config_is_desk_scale():
    cfg = ModelConfig()
    assert (cfg.token_h, cfg.token_w) == (4, 4)
    assert cfg.norm_groups() == 8


# ---------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------

def test_embed_zero_everything_gives_zero_tokens():
    model, cfg = make_model(1)
    model.w_p.data[:] = 0.0
    model.patch.b.data[:] = 0.0
    out = model.embed(Tensor(np.zeros((1, 2, 8, 8, 2)))).numpy()
    assert not out.any()


def test_embed_single_patch_is_dense_contraction():
    model, cfg = make_model(2, height=4, width=4, patch=4)
    rng = np.random.default_rng(3)
    u = window(rng, cfg)
    model.w_p.data[:] = 0.0
    tokens = model.embed(Tensor(u)).numpy()
    assert tokens.shape == (1, cfg.t_in, cfg.d_z, 1, 1)
    for t in range(cfg.t_in):
        flat = u[0, t].reshape(-1)  # (P, P, C) row-major matches the patch layout
        want = flat @ model.patch.w.data + model.patch.b.data
        np.testing.assert_allclose(tokens[0, t, :, 0, 0], want, atol=1e-12)


def test_embed_patch_locality_against_direct_conv_oracle():
    model, cfg = make_model(4)
    rng = np.random.default_rng(5)
    u = window(rng, cfg)
    model.w_p.data[:] = 0.0
    tokens = model.embed(Tensor(u)).numpy()
    p = cfg.patch
    for t in range(cfg.t_in):
        for iy in range(cfg.token_h):
            for ix in range(cfg.token_w):
                block = u[0, t, iy * p:(iy + 1) * p, ix * p:(ix + 1) * p, :]
                want = block.reshape(-1) @ model.patch.w.data + model.patch.b.data
                np.testing.assert_allclose(tokens[0, t, :, iy, ix], want, atol=1e-12)

    # a delta confined to one patch moves exactly one token off the bias
    model.patch.b.data[:] = 0.0
    delta = np.zeros((1, cfg.t_in, 8, 8, 2))
    delta[0, 0, 5, 6, 1] = 1.0  # patch (1, 1)
    tok = model.embed(Tensor(delta)).numpy()
    nonzero = np.argwhere(np.abs(tok[0]).sum(axis=1) > 1e-14)
    np.testing.assert_array_equal(nonzero, [[0, 1, 1]])


def test_positional_encoding_is_additive_affine_field():
    model, cfg = make_model(6, height=4, width=4, patch=4)
    rng = np.random.default_rng(7)
    model.w_p.data = rng.standard_normal((2, 3))
    u = window(rng, cfg)
    with_pos = model.embed(Tensor(u)).numpy()
    base = model.embed(Tensor(u * 0.0)).numpy()
    model.w_p.data = np.zeros((2, 3))
    no_pos = model.embed(Tensor(u)).numpy()
    zero_in = model.embed(Tensor(u * 0.0)).numpy()
    # embedding is affine: f(u + pos) - f(pos) == f(u) - f(0)
    np.testing.assert_allclose(with_pos - base, no_pos - zero_in, atol=1e-11)


def test_embed_coordinate_normalization():
    model, cfg = make_model(8, t_in=3)
    coords = model._coords
    grid = coords.reshape(3, 8, 8, 3)
    assert grid[..., 0].min() == 0.0 and grid[..., 0].max() == 1.0
    assert grid[..., 1].min() == 0.0 and grid[..., 1].max() == 1.0
    np.testing.assert_array_equal(np.unique(grid[..., 2]), [0.0, 1.0, 2.0])


def test_embed_shape_mismatch_raises():
    model, cfg = make_model(9)
    with pytest.raises(ShapeError):
        model.embed(Tensor(np.zeros((1, 2, 8, 6, 2))))


# ---------------------------------------------------------------------
# temporal aggregation
# ---------------------------------------------------------------------

def test_temporal_gamma_zero_is_plain_sum():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2, 3, 4, 2, 2))
    out = temporal_aggregate(Tensor(z), _IdentityModule(), Tensor(np.zeros(4))).numpy()
    np.testing.assert_allclose(out, z.sum(axis=1), atol=1e-12)


def test_temporal_gamma_pi_two_frames_alternates():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((1, 2, 4, 2, 2))
    out = temporal_aggregate(Tensor(z), _IdentityModule(),
                             Tensor(np.full(4, np.pi))).numpy()
    np.testing.assert_allclose(out, z[:, 0] - z[:, 1], atol=1e-12)


def test_temporal_single_frame_is_mlp_output():
    model, cfg = make_model(12)
    rng = np.random.default_rng(13)
    z = rng.standard_normal((2, 1, cfg.d_z, 2, 2))
    out = temporal_aggregate(Tensor(z), model.t_mlp, Tensor(np.zeros(cfg.d_z))).numpy()
    want = model.t_mlp.forward(Tensor(z[:, 0])).numpy()
    np.testing.assert_allclose(out, want, atol=1e-12)


# ---------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------

def test_forward_shape_and_finiteness_on_zero_input():
    model, cfg = make_model(14)
    out = model.forward(Tensor(np.zeros((2, 2, 8, 8, 2)))).numpy()
    assert out.shape == (2, 8, 8, 2)
    assert np.all(np.isfinite(out))


def test_forward_deterministic_across_rebuilds():
    rng = np.random.default_rng(15)
    u = window(rng, tiny_cfg())
    m1, _ = make_model(seed=99)
    m2, _ = make_model(seed=99)
    for (k1, t1), (k2, t2) in zip(sorted(m1.named().items()),
                                  sorted(m2.named().items())):
        assert k1 == k2
        np.testing.assert_array_equal(t1.data, t2.data)
    np.testing.assert_array_equal(m1.forward(Tensor(u)).numpy(),
                                  m2.forward(Tensor(u)).numpy())


def test_vanilla_and_learned_transform_agree_at_init():
    rng = np.random.default_rng(16)
    u = window(rng, tiny_cfg())
    mv, _ = make_model(seed=17)
    ml, _ = make_model(seed=17, transform_mode="learned")
    np.testing.assert_allclose(mv.forward(Tensor(u)).numpy(),
                               ml.forward(Tensor(u)).numpy(), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_strict_identity_matches_single_stream_reference(seed):
    model, cfg = make_model(seed=18, gate_init=0.0)
    u = window(np.random.default_rng(100 + seed), cfg)
    strict = model.forward(Tensor(u), strict_identity=True).numpy()
    reference = model.reference_forward(Tensor(u)).numpy()
    np.testing.assert_allclose(strict, reference, atol=1e-9)


def test_forward_collects_maps_per_sublayer():
    model, cfg = make_model(19)
    maps = []
    model.forward(Tensor(window(np.random.default_rng(20), cfg)), collect_maps=maps)
    assert len(maps) == 2 * cfg.blocks
    assert all(m is not None for m in maps)
    assert maps[0].t.shape == (1, cfg.streams, cfg.streams)


def test_mixers_run_the_configured_activation():
    identity, cfg = make_model(42, activation="identity", modes=2)
    gelu, _ = make_model(42, activation="gelu", modes=2)
    z = Tensor(np.random.default_rng(43).standard_normal((2, cfg.d_z, 2, 2)))
    for mine, other in zip(identity.blocks, gelu.blocks):
        out = mine.mix.inner.forward(z).data
        want = fourier_mix(z, mine.mix.inner, activation="identity").data
        np.testing.assert_array_equal(out, want)
        assert not np.allclose(out, other.mix.inner.forward(z).data)


def test_forward_runs_at_the_model_precision():
    model, cfg = make_model(40)
    model.astype(np.float32)
    u = window(np.random.default_rng(41), cfg, b=2)
    cast_first = model.forward(u.astype(np.float32)).data
    for given in (u, Tensor(u)):
        out = model.forward(given).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, cast_first)
    # a Tensor already at the model's dtype is used as is: its graph stays
    taped = Tensor(u.astype(np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.tsum(model.forward(taped)))
    assert taped.grad is not None and taped.grad.dtype == np.float32


def test_forward_window_length_check():
    model, cfg = make_model(21)
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 5, 8, 8, 2))))
    with pytest.raises(ShapeError):
        model.reference_forward(Tensor(np.zeros((1, 5, 8, 8, 2))))


def test_forward_overflow_reports_location():
    model, cfg = make_model(22)
    model.head.w.data = model.head.w.data.copy()
    model.head.w.data[0, 0] = np.inf
    with pytest.raises(NumericOverflowError) as err:
        model.forward(Tensor(window(np.random.default_rng(23), cfg)))
    assert err.value.where == "head"

    model, cfg = make_model(24)
    model.blocks[1].mlp.inner.lin1.w.data = \
        model.blocks[1].mlp.inner.lin1.w.data.copy()
    model.blocks[1].mlp.inner.lin1.w.data[0, 0] = np.nan
    with pytest.raises(NumericOverflowError) as err:
        model.forward(Tensor(window(np.random.default_rng(25), cfg)))
    assert err.value.where == "block 1 sublayer 1"


# ---------------------------------------------------------------------
# linear transform pair
# ---------------------------------------------------------------------

def test_transform_identity_pair_is_noop():
    pair = LinearTransformPair(3, "learned")
    u = np.random.default_rng(26).standard_normal((2, 4, 4, 3))
    np.testing.assert_array_equal(apply_linear_transform(Tensor(u), pair.w_in, pair.b_in).numpy(), u)


def test_transform_doubling():
    pair = LinearTransformPair(3, "learned")
    pair.w_out.data = 2.0 * np.eye(3)
    u = np.random.default_rng(27).standard_normal((5, 3))
    np.testing.assert_allclose(apply_linear_transform(Tensor(u), pair.w_out, pair.b_out).numpy(),
                               2 * u, rtol=1e-15)


def test_transform_mode_controls_gradients():
    for mode, expect_grad in (("learned", True), ("frozen", False)):
        model, cfg = make_model(seed=28, transform_mode=mode)
        u = Tensor(window(np.random.default_rng(29), cfg))
        with Tape() as tape:
            out = model.forward(u)
            tape.backward(ad.tsum(out * out))
        has_grad = model.transform.w_in.grad is not None
        assert has_grad == expect_grad


def test_transform_bad_mode_rejected():
    with pytest.raises(ValueError):
        LinearTransformPair(3, "adaptive")


# ---------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------

def expected_counts(cfg: ModelConfig):
    c, dz, p, n, h = cfg.channels, cfg.d_z, cfg.patch, cfg.streams, cfg.heads
    dh = dz // h
    nc = n * dz
    aot_per_sub = 2 * nc * n + nc * n * n + 3 + 2 * n + n * n + nc
    mixer_inner = 4 * h * dh * dh + 4 * h * dh
    mlp_inner = 2 * (dz * dz + dz)
    norms = 4 * dz
    per_block = (mixer_inner + aot_per_sub + norms) + (mlp_inner + aot_per_sub + norms)
    total = (c * 3
             + (p * p * c * dz + dz)
             + 2 * (dz * dz + dz)
             + dz
             + cfg.blocks * per_block
             + n
             + (dz * p * p * c + p * p * c)
             + (2 * c * c + 2 * c))
    aot_total = 2 * cfg.blocks * aot_per_sub + n
    return total, aot_total


def test_param_count_matches_closed_form():
    for kw in ({}, dict(height=32, width=32, channels=2, t_in=10, patch=8, d_z=64,
                        heads=4, modes=2, blocks=4, streams=4)):
        model, cfg = make_model(seed=30, **kw)
        total, aot_total = expected_counts(cfg)
        assert model.param_count() == total
        assert model.aot_param_count() == aot_total


# SHA-256 of the desk model's ordered "name shape requires_grad" lines, and
# of its concatenated f64 init bytes, at init seed 7 (named_stream).  The
# order is the checkpoint's block order, the AdamW state's and the order
# of the clip-norm sum; the bytes pin the init RNG's draw order.
PINNED_DESK_PARAMETERS = {
    "vanilla": ("00982699e76ddaa932f565077b6314b20bdfbd051e375e8c4ad1d9ae3d009255",
                "4ab4f0c4966260deff839d7834f1bda9f26db15b762b47e05cd4ed52c4499500"),
    "learned": ("d26db3efa7d733d334a14de64744b22435bec8b41d636e6d297f600ec3787da2",
                "4ab4f0c4966260deff839d7834f1bda9f26db15b762b47e05cd4ed52c4499500"),
    "frozen": ("00982699e76ddaa932f565077b6314b20bdfbd051e375e8c4ad1d9ae3d009255",
               "4ab4f0c4966260deff839d7834f1bda9f26db15b762b47e05cd4ed52c4499500"),
}


@pytest.mark.parametrize("mode", TRANSFORM_MODES)
def test_desk_parameter_table_is_pinned(mode):
    model = Model(ModelConfig(), named_stream(7, STREAM_INIT), transform_mode=mode)
    named = model.named()
    table = "".join(f"{name} {t.shape} {t.requires_grad}\n" for name, t in named.items())
    init = hashlib.sha256()
    for t in named.values():
        init.update(t.data.tobytes())
    got = (hashlib.sha256(table.encode()).hexdigest(), init.hexdigest())
    assert got == PINNED_DESK_PARAMETERS[mode], table


@pytest.mark.xfail(strict=True, reason="the adaptive-map projections phi_T scale as "
                   "streams^2 * streams * d_z, which at the desk-scale config is ~40% "
                   "of the model; the <5% overhead bound needs d_z several times larger")
def test_aot_params_below_five_percent_at_desk_scale():
    model, _ = make_model(seed=31, height=32, width=32, channels=2, t_in=10, patch=8,
                          d_z=64, heads=4, modes=2, blocks=4, streams=4)
    ratio = model.aot_param_count() / model.param_count()
    assert ratio < 0.05, f"measured ratio {ratio:.3f}"


# ---------------------------------------------------------------------
# gradients through the whole model
# ---------------------------------------------------------------------

def fd_entries(loss_fn, tensor, k=4, h=1e-6, seed=0):
    """Central differences on up to k entries of one parameter tensor."""
    rng = np.random.default_rng(seed)
    flat_idx = np.arange(tensor.data.size)
    if flat_idx.size > k:
        flat_idx = rng.choice(flat_idx, size=k, replace=False)
    grads = np.zeros(flat_idx.size)
    base = tensor.data.copy()
    for j, idx in enumerate(flat_idx):
        pert = base.reshape(-1).copy()
        pert[idx] = base.reshape(-1)[idx] + h
        tensor.data = pert.reshape(base.shape)
        fp = loss_fn()
        pert[idx] = base.reshape(-1)[idx] - h
        tensor.data = pert.reshape(base.shape)
        fm = loss_fn()
        grads[j] = (fp - fm) / (2 * h)
    tensor.data = base
    return flat_idx, grads


def test_every_parameter_class_has_fd_consistent_gradients():
    """Gates at 0.5 and mixer weights and biases lifted off their 0.02-scale
    and zero init, on a 4x4 token grid with two modes per axis, so that the
    mixer's sine terms and every mixer parameter carry a gradient far above
    the absolute floor; only the relative check can pass them.  The
    exception is ``b2_im``: the retained modes come in +-k pairs, so a bias
    added to the im rows of every mode has no real part after the inverse
    transform and its gradient is identically zero."""
    model, cfg = make_model(seed=32, transform_mode="learned", blocks=1, patch=2,
                            modes=2, gate_init=0.5)
    rng = np.random.default_rng(33)
    for name, t in model.named().items():
        if ".mix.inner." in name:
            t.data = 0.5 * rng.standard_normal(t.shape)
    u = window(rng, cfg)
    w = rng.standard_normal((1, 8, 8, 2))

    def loss_fn():
        with Tape():
            return float(ad.tsum(model.forward(Tensor(u)) * Tensor(w)).item())

    with Tape() as tape:
        tape.backward(ad.tsum(model.forward(Tensor(u)) * Tensor(w)))

    names = model.trainable_tensors()
    assert len(names) > 30
    for name, t in names.items():
        assert t.grad is not None, f"{name} missing grad"
        idx, num = fd_entries(loss_fn, t, k=3, seed=zlib.crc32(name.encode()))
        got = t.grad.reshape(-1)[idx]
        err = np.abs(got - num)
        scale = np.maximum(np.abs(num), 1e-12)
        ok = (err < 1e-4 * scale) | (err < 1e-7)
        assert ok.all(), f"{name}: fd {num}, got {got}"
        if name.endswith(".b2_im"):
            assert np.abs(t.grad).max() < 1e-12, name
        elif ".mix.inner." in name:
            assert np.abs(num).min() >= 100 * 1e-7, f"{name}: fd {num} near the floor"


def test_three_by_three_token_grid_has_fd_consistent_gradients():
    """Any token grid works: a 24x24 field in 8x8 patches mixes a 3x3 grid."""
    cfg = ModelConfig(height=24, width=24, patch=8, t_in=2, d_z=8, heads=2,
                      blocks=1, streams=2, gate_init=0.5)
    assert (cfg.token_h, cfg.token_w) == (3, 3)
    model = Model(cfg, np.random.default_rng(34))
    rng = np.random.default_rng(35)
    for name, t in model.named().items():
        if ".mix.inner." in name:  # lift the 0.02-scale init so the mixer matters
            t.data = 0.5 * rng.standard_normal(t.shape)
    u = window(rng, cfg)
    w = rng.standard_normal((1, 24, 24, 2))

    def loss_fn():
        with Tape():
            return float(ad.tsum(model.forward(Tensor(u)) * Tensor(w)).item())

    with Tape() as tape:
        tape.backward(ad.tsum(model.forward(Tensor(u)) * Tensor(w)))

    for name in ("blocks.0.mix.inner.w1_re", "blocks.0.mix.inner.w2_im",
                 "blocks.0.mix.inner.b1_im", "patch.w"):
        t = model.named()[name]
        idx, num = fd_entries(loss_fn, t, k=3, seed=36)
        got = t.grad.reshape(-1)[idx]
        err = np.abs(got - num)
        assert np.abs(num).max() > 1e-3
        assert ((err < 1e-4 * np.maximum(np.abs(num), 1e-12)) | (err < 1e-7)).all(), \
            f"{name}: fd {num}, got {got}"


# Trainable tensors whose gradient is zero, up to round-off, in the setup of
# test_desk_parameters_carry_gradient, each with the reason.  Measured
# maxima |grad| there are given in the reasons; every other tensor reads
# above 7e-2.
_FIRST_MIX_INPUT = ("the first sub-layer's input is n identical copies of "
                    "the lifted field")
DEAD_AT_DESK_INIT = {
    "gamma": "d/dgamma cos(gamma t) = -t sin(gamma t) is exactly 0 at "
             "the zero init",
    **{f"blocks.0.mix.maps.{p}_a": f"{_FIRST_MIX_INPUT}, and the weights a "
       "sum to 1, so the contraction is that copy whatever a is (< 1e-21)"
       for p in ("phi", "alpha", "b")},
    **{f"blocks.0.mix.maps.{p}_t": f"{_FIRST_MIX_INPUT}, and the rows of a "
       "doubly stochastic T sum to 1, so T maps them to themselves (< 1e-15)"
       for p in ("phi", "alpha", "b")},
    **{f"blocks.{i}.mix.inner.b2_im": "the retained modes come in +-k pairs, "
       "so a bias on the imaginary part of every mode cancels in the inverse "
       "transform (< 2e-11)" for i in range(4)},
}


def test_desk_parameters_carry_gradient():
    """One backward of the desk config at init seed 7, every gate at 0.5,
    random readout logits and batch 8: exactly the pinned tensors have a
    max |grad| below 1e-8, so a backward rule that zeroes a gradient fails
    here, and so does a tensor that comes alive without being unpinned.
    It runs in f64, where ten orders of magnitude separate the two groups:
    in f32 the pinned T maps read up to 1e-7, above the floor, and b2_im
    reads up to 7e-4, within a factor of 100 of the smallest live 7e-2."""
    cfg = ModelConfig(gate_init=0.5)
    model = Model(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    model.readout.w.data = rng.standard_normal(cfg.streams)
    u = window(rng, cfg, b=8)
    target = rng.standard_normal((8, cfg.height, cfg.width, cfg.channels))
    with Tape() as tape:
        loss = denoising_loss(model.forward(Tensor(u)), Tensor(target))
    tape.backward(loss)
    dead = [name for name, t in model.trainable_tensors().items()
            if np.abs(t.grad).max() < 1e-8]
    assert sorted(dead) == sorted(DEAD_AT_DESK_INIT)


# absolute error of a central difference at h = 1e-6 on these O(100) losses
FD_FLOOR = 1e-7


def test_whole_model_gradient_bites_on_every_live_tensor():
    """Finite differences of the whole model in f64, at a point where every
    tensor that can learn carries a gradient far above the difference's
    noise floor: four sub-layers, GroupNorm with 2 groups of 4 channels,
    learned transforms, gates at 0.5, gamma and the readout logits off 0,
    and mixer weights and biases lifted.  Each sampled |fd| must first reach
    100 times the floor, so that only the relative check can pass it.  The
    exceptions are the structural entries of DEAD_AT_DESK_INIT, whose
    gradient is zero here too: the first mix sub-layer's a and T maps, and
    b2_im.  gamma is perturbed off 0 and is live."""
    cfg = ModelConfig(height=8, width=8, channels=2, t_in=2, patch=2, d_z=8, heads=2,
                      modes=2, blocks=2, streams=3, groups=2, gate_init=0.5)
    model = Model(cfg, np.random.default_rng(40), transform_mode="learned")
    rng = np.random.default_rng(41)
    for name, t in model.named().items():
        if ".mix.inner." in name:
            t.data = 0.5 * rng.standard_normal(t.shape)
    model.gamma.data = 0.5 * rng.standard_normal(cfg.d_z)
    model.readout.w.data = rng.standard_normal(cfg.streams)
    u = window(rng, cfg, b=2)
    w = rng.standard_normal((2, cfg.height, cfg.width, cfg.channels))

    def loss_fn():
        return float(ad.tsum(model.forward(Tensor(u)) * Tensor(w)).item())

    with Tape() as tape:
        tape.backward(ad.tsum(model.forward(Tensor(u)) * Tensor(w)))

    names = model.trainable_tensors()
    assert len(names) == 95
    for i, (name, t) in enumerate(names.items()):
        idx, num = fd_entries(loss_fn, t, k=3, seed=i)
        got = t.grad.reshape(-1)[idx]
        err = np.abs(got - num)
        if name in DEAD_AT_DESK_INIT and name != "gamma":
            assert (err < FD_FLOOR).all(), f"{name}: fd {num}, got {got}"
            continue
        assert np.abs(num).min() >= 100 * FD_FLOOR, f"{name}: fd {num} near the floor"
        assert (err <= 1e-4 * np.abs(num)).all(), f"{name}: fd {num}, got {got}"


def test_desk_training_step_tape_budget():
    """Each Sinkhorn projection and each GroupNorm is one tape node, the
    adaptive path of a sub-layer records seven (pool_rms, three gated maps,
    Sinkhorn, contract, combine), and each mixer enters and leaves the
    retained modes through one real-table matmul each and applies each
    complex layer as one bmm with a block weight built by three concats,
    so a desk-config forward plus loss records 264 nodes (496 with the
    adaptive path op by op, 1360 with Sinkhorn and GroupNorm unrolled
    too).  Node counts do not depend on the batch size."""
    cfg = ModelConfig()
    model = Model(cfg, np.random.default_rng(0), dtype=np.float32)
    u = window(np.random.default_rng(1), cfg, b=2).astype(np.float32)
    with Tape() as tape:
        pred = model.forward(Tensor(u))
        denoising_loss(pred, Tensor(np.zeros_like(pred.data)))
    assert len(tape) == 264


def store_all_backward(tape, root):
    """Reference backward that keeps every gradient to the end of the pass
    and sets ``.grad`` on intermediates too; the oracle for Tape.backward,
    which drops each node's gradient once its closure has run."""
    store = {id(root): [root, np.ones_like(root.data)]}

    def accumulate(t, g):
        if not t.requires_grad:
            return
        g = ad._unbroadcast(g, t.data.shape)
        entry = store.get(id(t))
        if entry is None:
            store[id(t)] = [t, g.astype(t.data.dtype, copy=True)]
        else:
            entry[1] = entry[1] + g

    for out, backward_fn in reversed(tape._nodes):
        entry = store.get(id(out))
        if entry is not None:
            backward_fn(entry[1], accumulate)
    for t, g in store.values():
        t.grad = g if t.grad is None else t.grad + g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_sets_leaf_grads_only_and_matches_store_all(dtype):
    cfg = ModelConfig(gate_init=0.5)
    model = Model(cfg, np.random.default_rng(0), dtype=dtype)
    u = window(np.random.default_rng(1), cfg, b=2).astype(dtype)
    target = np.random.default_rng(2).standard_normal(
        (2, cfg.height, cfg.width, cfg.channels)).astype(dtype)
    params = model.trainable_tensors()
    with Tape() as tape:
        loss = denoising_loss(model.forward(Tensor(u)), Tensor(target))
    tape.backward(loss)
    grads = {name: t.grad for name, t in params.items()}
    assert all(g is not None for g in grads.values())
    assert all(out.grad is None for out, _ in tape._nodes)

    for t in params.values():
        t.grad = None
    store_all_backward(tape, loss)
    assert loss.grad is not None
    for name, t in params.items():
        np.testing.assert_array_equal(grads[name], t.grad, err_msg=name)


def test_f32_model_runs_entirely_in_f32():
    cfg = tiny_cfg()
    model = Model(cfg, np.random.default_rng(3), dtype=np.float32)
    x = np.random.default_rng(4).standard_normal(
        (2, cfg.t_in, cfg.height, cfg.width, cfg.channels)).astype(np.float32)
    maps = []
    out = model.forward(Tensor(x), collect_maps=maps)
    assert out.data.dtype == np.float32
    assert all(m.t.data.dtype == np.float32 for m in maps)
    assert all(t.data.dtype == np.float32
               for t in model.named().values())


def test_astype_matches_f32_construction():
    """Building at f32 gives every tensor the bits, dtype and trainability
    of building at f64 and casting."""
    cfg = tiny_cfg()
    x = np.random.default_rng(6).standard_normal(
        (1, cfg.t_in, cfg.height, cfg.width, cfg.channels)).astype(np.float32)
    for mode in ("vanilla", "learned"):
        a = Model(cfg, np.random.default_rng(5), dtype=np.float32, transform_mode=mode)
        b = Model(cfg, np.random.default_rng(5), transform_mode=mode).astype(np.float32)
        ta, tb = a.named(), b.named()
        assert list(ta) == list(tb)
        for name, t in ta.items():
            assert t.data.dtype == tb[name].data.dtype == np.float32, name
            np.testing.assert_array_equal(t.data.view(np.uint32),
                                          tb[name].data.view(np.uint32), err_msg=name)
            assert t.requires_grad == tb[name].requires_grad, name
        assert a.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(a.forward(Tensor(x)).data, b.forward(Tensor(x)).data)
