"""Each correctness check passes on a right output and fails on a wrong one."""

import numpy as np
import pytest

import checks
from aotlab.data import PdeFamilySpec, desk_specs, generate_trajectory
from aotlab.diagnostics import gains_from_matrices, rollout
from aotlab.sinkhorn import sinkhorn_array


def _spec(family):
    return {s.family: s for s in desk_specs(32)}[family]


def _traj(spec, seed=0):
    return generate_trajectory(spec, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def heat():
    return _traj(_spec("heat"))


@pytest.fixture(scope="module")
def dr():
    return _traj(_spec("diffusion_reaction"))


@pytest.fixture(scope="module")
def ns():
    spec = PdeFamilySpec("ns_vorticity", nu=1e-3, dt=1e-3, steps=40, stride=10)
    return _traj(spec)


def test_heat_frames_match_closed_form(heat):
    assert checks.check_family(_spec("heat"), heat) == []


def test_heat_frame_off_by_1e6_fails(heat):
    bad = heat.copy()
    bad[7, 3, 4, 0] += 1e-6
    assert checks.check_family(_spec("heat"), bad)


def test_dr_step_matches_own_step(dr):
    assert checks.check_family(_spec("diffusion_reaction"), dr) == []


def test_dr_frame_off_by_1e6_fails(dr):
    bad = dr.copy()
    bad[20, 1, 2, 1] -= 1e-6
    assert checks.check_family(_spec("diffusion_reaction"), bad)


def test_ns_mean_and_standardized_ic(ns):
    assert checks.check_ns(ns) == []


@pytest.mark.parametrize("frame", [0, 3])
def test_ns_mean_shift_fails(ns, frame):
    bad = ns.copy()
    bad[frame] += 1e-6
    assert checks.check_ns(bad)


def test_ns_ic_not_unit_std_fails(ns):
    bad = ns.copy()
    bad[0] *= 1.0 + 1e-6
    assert checks.check_ns(bad)


def test_loaded_must_equal_written_after_cast(heat):
    loaded = heat.astype(np.float32)
    assert checks.check_loaded([heat], [loaded]) == []
    bad = loaded.copy()
    bad[5, 0, 0, 0] = np.nextafter(bad[5, 0, 0, 0], np.float32(np.inf))
    assert checks.check_loaded([heat], [bad])
    assert checks.check_loaded([heat], [])


def test_padded_channels_are_ignored(heat):
    padded = np.concatenate([heat, np.ones_like(heat)], axis=-1).astype(np.float32)
    assert checks.check_loaded([heat], [padded]) == []


def test_gains_unit_for_sinkhorn_matrices():
    raw = np.random.default_rng(0).standard_normal((16, 4, 4))
    mats = [sinkhorn_array(raw[:8]), sinkhorn_array(raw[8:])]
    assert checks.check_gains(gains_from_matrices(mats).backward) == []


def test_gains_column_sum_off_by_1e4_fails():
    raw = np.random.default_rng(0).standard_normal((8, 4, 4))
    mat = sinkhorn_array(raw)
    mat[3, :, 2] *= (1.0 + 1e-4) / mat[3, :, 2].sum()
    assert checks.check_gains(gains_from_matrices([mat]).backward)


def test_resumed_trace_with_one_step_changed_fails():
    trace = [float(x) for x in np.linspace(3.0, 1.0, 20)]
    assert checks.check_same_trace(trace[10:], list(trace[10:]), "resumed") == []
    bad = list(trace[10:])
    bad[4] = np.nextafter(bad[4], 0.0)
    assert checks.check_same_trace(trace[10:], bad, "resumed")
    assert checks.check_same_trace(trace[10:], bad[:-1], "resumed")


def test_training_needs_finite_falling_loss():
    assert checks.check_training([3.0, 2.0, 1.0, 0.5], [2.5, 0.75]) == []
    assert checks.check_training([3.0, float("nan"), 1.0, 0.5], [2.5, 0.75])
    assert checks.check_training([3.0, 2.0, 2.0, 3.0], [2.5, 2.5])


def test_identical_predictions():
    a = np.arange(6.0, dtype=np.float32)
    assert checks.check_identical(a, a.copy(), "x") == []
    b = a.copy()
    b[2] = np.nextafter(b[2], np.float32(10))
    assert checks.check_identical(a, b, "x")


def test_l2re_recomputation():
    rng = np.random.default_rng(1)
    truths = [rng.standard_normal((4, 4, 2)).astype(np.float32) for _ in range(5)]
    preds = [t + 0.1 * rng.standard_normal(t.shape).astype(np.float32) for t in truths]
    mine = checks.relative_l2(preds, truths)
    ratios = [np.linalg.norm(p - t) / np.linalg.norm(t) for p, t in zip(preds, truths)]
    assert mine == pytest.approx(np.mean(ratios), rel=1e-6)
    assert checks.check_l2re({"heat": mine * (1 + 1e-6)}, {"heat": mine}) == []
    assert checks.check_l2re({"heat": mine * (1 + 1e-3)}, {"heat": mine})
    assert checks.check_l2re({"heat": mine}, {"heat": mine, "dr": mine})


def test_strided_windows_match_validate_layout():
    trajs = [np.arange(14.0)[:, None] + 100 * i for i in range(2)]
    windows, truths = checks.strided_windows(trajs, t_in=3, stride=5)
    assert [w[0, 0] for w in windows] == [0, 100, 5, 105, 10, 110]
    assert [t[0] for t in truths] == [3, 103, 8, 108, 13, 113]


def test_rollout_frames_must_follow_forward():
    def forward(window):
        return 0.5 * window[-1] + 0.25 * window[0]

    initial = np.random.default_rng(2).standard_normal((3, 4, 4, 1)).astype(np.float32)
    frames = rollout(forward, initial, 6).frames
    assert checks.check_rollout(initial, frames, forward) == []
    bad = frames.copy()
    bad[4, 1, 1, 0] += 1e-3
    assert checks.check_rollout(initial, bad, forward)
    bad = frames.copy()
    bad[2, 0, 0, 0] = np.inf
    assert checks.check_rollout(initial, bad, forward)
