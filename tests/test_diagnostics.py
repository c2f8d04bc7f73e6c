"""Metric, rollout, propagation gains, and the mixing-matrix probe."""

import numpy as np
import pytest

from aotlab.data import TrajectoryDataset
from aotlab.diagnostics import (
    GainReport,
    extract_probe_features,
    gain_analysis,
    gains_from_matrices,
    kernel_probe,
    l2re,
    model_predictor,
    nearest_centroid_classify,
    probe_from_features,
    rollout,
    write_gain_csv,
    write_probe_features,
)
from aotlab.errors import NumericOverflowError, ShapeError
from aotlab.model import Model, ModelConfig
from aotlab.sinkhorn import sinkhorn_array
from aotlab.solvers import grf_ic, solve_heat
from aotlab.train import STREAM_INIT, named_stream


def tiny_model(seed=0, **kw):
    base = dict(height=8, width=8, channels=1, t_in=3, patch=4, d_z=8,
                heads=2, modes=1, blocks=1, streams=2)
    base.update(kw)
    return Model(ModelConfig(**base), named_stream(seed, STREAM_INIT))


# ---------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------

def test_l2re_pinned_values():
    x = np.random.default_rng(0).standard_normal((3, 4))
    assert l2re(x, x) == 0.0
    assert l2re(np.zeros_like(x), x) == 1.0
    assert l2re(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]])) == 1.0


def test_l2re_batch_is_mean_of_per_sample_ratios():
    rng = np.random.default_rng(1)
    p, t = rng.standard_normal((5, 3, 3)), rng.standard_normal((5, 3, 3))
    want = np.mean([np.linalg.norm(p[b] - t[b]) / np.linalg.norm(t[b])
                    for b in range(5)])
    np.testing.assert_allclose(l2re(p, t), want, rtol=1e-12)


def test_l2re_scale_equivariant():
    rng = np.random.default_rng(2)
    p, t = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    np.testing.assert_allclose(l2re(3.7 * p, 3.7 * t), l2re(p, t), rtol=1e-12)
    np.testing.assert_allclose(l2re(-2 * p, -2 * t), l2re(p, t), rtol=1e-12)


def test_l2re_validation():
    with pytest.raises(ShapeError):
        l2re(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="zero-norm"):
        l2re(np.ones((2, 3)), np.zeros((2, 3)))
    # the leading axis is the batch, also for 1-D input: sample 1 has norm 0
    with pytest.raises(ValueError, match="zero-norm"):
        l2re(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------

def heat_setup(steps=12, nu=5e-2):
    ic = grf_ic(8, 8, np.random.default_rng(3))
    traj = solve_heat(ic, nu, 1e-1, steps)[..., None]
    window = np.stack([ic[..., None]] * 3)  # persistence-compatible window
    return ic, traj, window


def step_errors(frames, reference):
    """L2RE of each rolled frame against its reference frame."""
    return [l2re(frames[s:s + 1], reference[s:s + 1]) for s in range(len(frames))]


def test_rollout_exact_solver_oracle_has_zero_error():
    ic, traj, window = heat_setup()

    def predict(w):
        return solve_heat(w[-1, ..., 0], 5e-2, 1e-1, 1)[0][..., None]

    res = rollout(predict, window, 10)
    assert res.blowup_step is None
    assert res.frames.shape == (10, 8, 8, 1)
    assert max(step_errors(res.frames, traj)) < 1e-12


def test_rollout_constant_predictor_error_grows():
    ic, traj, window = heat_setup()
    res = rollout(lambda w: w[-1], window, 12)
    errors = step_errors(res.frames, traj)
    assert all(b > a for a, b in zip(errors, errors[1:]))
    np.testing.assert_array_equal(res.frames[-1], ic[..., None])


def test_rollout_horizon_one_is_single_call():
    calls = []

    def predict(w):
        calls.append(w.copy())
        return w[-1] * 2.0

    window = np.random.default_rng(4).standard_normal((3, 4, 4, 1))
    res = rollout(predict, window, 1)
    assert len(calls) == 1
    np.testing.assert_array_equal(res.frames[0], window[-1] * 2.0)


def test_rollout_window_slides_over_predictions():
    seen = []

    def predict(w):
        seen.append(w.copy())
        return w[-1] + 1.0

    window = np.random.default_rng(5).standard_normal((3, 4, 4, 1))
    res = rollout(predict, window, 6)
    assert len(seen) == 6
    np.testing.assert_array_equal(seen[0], window)
    for s in range(3, 6):
        np.testing.assert_array_equal(seen[s], res.frames[s - 3:s])
    np.testing.assert_array_equal(seen[1][:2], window[1:])
    np.testing.assert_array_equal(seen[1][2], res.frames[0])


def test_rollout_blowup_returns_partial():
    def predict(w):
        if len(predict.calls) == 2:
            raise NumericOverflowError("boom", where="step 2")
        predict.calls.append(1)
        return w[-1]

    predict.calls = []
    window = np.ones((3, 4, 4, 1))
    res = rollout(predict, window, 10)
    assert res.blowup_step == 2
    assert res.frames.shape[0] == 2


def test_rollout_nonfinite_prediction_counts_as_blowup():
    outs = iter([np.ones((4, 4, 1)), np.full((4, 4, 1), np.inf)])
    res = rollout(lambda w: next(outs), np.ones((3, 4, 4, 1)), 5)
    assert res.blowup_step == 1
    assert res.frames.shape[0] == 1


def test_rollout_validation():
    with pytest.raises(ValueError):
        rollout(lambda w: w[-1], np.ones((3, 4, 4, 1)), 0)


def test_model_predictor_matches_batched_forward():
    from aotlab.autodiff import Tensor
    model = tiny_model(6)
    window = np.random.default_rng(7).standard_normal((3, 8, 8, 1))
    got = model_predictor(model)(window)
    want = model.forward(Tensor(window[None])).data[0]
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------
# propagation gains
# ---------------------------------------------------------------------

def test_gain_hand_matrix():
    # forward is the maximum absolute row sum, backward the column sum
    t = np.array([[1.0, -2.0], [3.0, 4.0]])
    rep = gains_from_matrices([t[None]])
    assert rep.forward == [7.0] and rep.backward == [6.0]
    # a stack of inputs is averaged
    rep = gains_from_matrices([np.stack([t, np.eye(2)])])
    assert rep.forward == [4.0] and rep.backward == [3.5]


def test_gains_identity_chain_all_one():
    mats = [np.broadcast_to(np.eye(4), (3, 4, 4)).copy() for _ in range(8)]
    rep = gains_from_matrices(mats)
    assert rep.n_sublayers == 8 and rep.n_inputs == 3
    for seq in (rep.forward, rep.backward,
                rep.composite_forward, rep.composite_backward):
        assert seq == [1.0] * 8


def test_gains_permutation_chain_all_one():
    rng = np.random.default_rng(8)
    mats = []
    for _ in range(6):
        perm = np.stack([np.eye(5)[rng.permutation(5)] for _ in range(4)])
        mats.append(perm)
    rep = gains_from_matrices(mats)
    for seq in (rep.forward, rep.backward,
                rep.composite_forward, rep.composite_backward):
        np.testing.assert_array_equal(seq, [1.0] * 6)


def test_gains_composite_ordering_is_later_layer_leftmost():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [2.0, 1.0]])
    rep = gains_from_matrices([a[None], b[None]])
    # product must be T_1 @ T_0 = b @ a, not a @ b
    assert np.linalg.norm(b @ a, np.inf) != np.linalg.norm(a @ b, np.inf)
    np.testing.assert_allclose(rep.composite_forward[0],
                               np.linalg.norm(b @ a, np.inf))
    np.testing.assert_allclose(rep.composite_backward[0],
                               np.linalg.norm(b @ a, 1))


def test_random_sinkhorn_chain_gains_within_bounds():
    # 100 independent chains of 8 projected matrices
    rng = np.random.default_rng(9)
    mats = [sinkhorn_array(rng.uniform(-1, 1, (100, 4, 4)), 20)
            for _ in range(8)]
    rep = gains_from_matrices(mats)
    # column sums are exact after the final column normalization
    assert all(abs(b - 1.0) < 1e-12 for b in rep.backward)
    assert all(abs(b - 1.0) < 1e-12 for b in rep.composite_backward)
    prod = None
    for l in range(7, -1, -1):
        prod = mats[l] if prod is None else prod @ mats[l]
    per_chain = np.linalg.norm(prod, np.inf, axis=(-2, -1))
    assert per_chain.min() >= 1.0 - 1e-9
    assert per_chain.max() <= 2.0


def test_gain_analysis_on_model():
    model = tiny_model(10)
    probe = np.random.default_rng(11).standard_normal((4, 3, 8, 8, 1))
    rep = gain_analysis(model, probe)
    assert rep.n_sublayers == 2 and rep.n_inputs == 4
    assert all(abs(b - 1.0) < 1e-5 for b in rep.backward)
    assert all(f >= 1.0 - 1e-9 for f in rep.forward)


def test_gain_csv_round_trip(tmp_path):
    rep = GainReport([1.0, 1.5], [1.0, 1.0], [1.25, 1.5], [1.0, 1.0], 3)
    path = str(tmp_path / "gains.csv")
    write_gain_csv(rep, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "sublayer,forward_gain,backward_gain"
    assert lines[2].split(",") == ["0", "1.0", "1.0"]
    blank = lines.index("")
    assert lines[blank + 1] == "start_index,composite_forward,composite_backward"
    assert lines[blank + 2].split(",")[1] == "1.25"


# ---------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------

def test_probe_identical_features_hit_tie_break_baseline():
    feats = np.tile(np.arange(6.0), (8, 1))
    labels = ["a"] * 4 + ["b"] * 4
    res = probe_from_features(feats, labels)
    assert res.accuracy == 0.5
    np.testing.assert_array_equal(res.confusion, [[2, 0], [2, 0]])


def test_probe_disjoint_constant_features_are_perfect():
    feats = np.vstack([np.zeros((4, 5)), np.ones((4, 5)), np.full((4, 5), 9.0)])
    labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    res = probe_from_features(feats, labels)
    assert res.accuracy == 1.0
    np.testing.assert_array_equal(res.confusion, 2 * np.eye(3, dtype=int))
    assert res.families == ["a", "b", "c"]


def test_probe_accuracy_invariant_under_column_permutation():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((12, 10))
    labels = ["a"] * 6 + ["b"] * 6
    base = probe_from_features(feats, labels)
    perm = rng.permutation(10)
    permuted = probe_from_features(feats[:, perm], labels)
    assert permuted.accuracy == base.accuracy
    np.testing.assert_array_equal(permuted.confusion, base.confusion)


def test_probe_requires_two_samples_per_family():
    with pytest.raises(ValueError, match="at least 2"):
        probe_from_features(np.zeros((3, 4)), ["a", "a", "b"])


def test_nearest_centroid_tie_breaks_to_lowest_index():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    queries = np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(
        nearest_centroid_classify(centroids, queries), [0, 0, 1])


def test_extract_features_shape_and_determinism():
    model = tiny_model(13)
    rng = np.random.default_rng(14)
    trajs = [rng.standard_normal((4, 8, 8, 1)) for _ in range(5)]
    ds = TrajectoryDataset(trajs, ["a", "a", "a", "b", "b"])
    f1, l1 = extract_probe_features(model, ds)
    f2, _ = extract_probe_features(model, ds)
    assert f1.shape == (5, 2 * 2 * 2)  # sublayers * streams^2
    np.testing.assert_array_equal(f1, f2)
    assert l1 == ds.labels
    # the maps depend on the input, so distinct samples give distinct rows
    assert len({row.tobytes() for row in f1}) == 5


def test_extract_features_read_the_trailing_window():
    # a trajectory and its own tail end on the same final frames, so they
    # must produce identical features even though their leading frames differ
    model = tiny_model(21)
    rng = np.random.default_rng(22)
    base = rng.standard_normal((6, 8, 8, 1))
    ds = TrajectoryDataset([base, base[3:]], ["a", "b"])
    f, _ = extract_probe_features(model, ds)
    np.testing.assert_array_equal(f[0], f[1])


def test_kernel_probe_end_to_end_counts():
    model = tiny_model(15)
    rng = np.random.default_rng(16)
    trajs = ([rng.standard_normal((4, 8, 8, 1)) for _ in range(4)]
             + [10.0 + rng.standard_normal((4, 8, 8, 1)) for _ in range(4)])
    ds = TrajectoryDataset(trajs, ["a"] * 4 + ["b"] * 4)
    res = kernel_probe(model, ds)
    assert res.confusion.sum() == 4  # two held-out queries per family
    assert 0.0 <= res.accuracy <= 1.0
    assert res.features.shape == (8, 8)


def test_probe_feature_csv(tmp_path):
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = str(tmp_path / "probe.csv")
    write_probe_features(path, feats, ["a", "b"])
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "label,f0,f1"
    assert lines[1] == "a,1.0,2.0"
    back = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    np.testing.assert_array_equal(back, feats)
