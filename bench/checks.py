"""Correctness checks on the outputs of each workload.

Every check compares a program output against a computation made here, in
plain numpy, or against a property the method must have; none compares
against stored copies of earlier output.  Each returns a list of failure
messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np

# Tolerances, fixed from the dtype and the arithmetic each check repeats.
SPECTRAL_ATOL = 1e-9        # f64 solver frames vs the closed form / one step
MEAN_ATOL = 1e-12           # conserved mean vorticity, standardized IC
GAIN_ATOL = 1e-5            # backward gain of a doubly stochastic matrix
L2RE_RTOL = 1e-6            # batched vs batch-1 f32 forwards (~8 f32 ulps)


def _wavenumbers(h: int, w: int) -> np.ndarray:
    """|k|^2 on a periodic unit square, angular wavenumbers."""
    ky = 2 * np.pi * np.fft.fftfreq(h) * h
    kx = 2 * np.pi * np.fft.fftfreq(w) * w
    return ky[:, None] ** 2 + kx[None, :] ** 2


# ---------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------

def check_heat(traj: np.ndarray, nu: float, dt: float, stride: int = 1) -> list:
    """Frame s equals frame 0 decayed by exp(-nu |k|^2 s stride dt)."""
    frames = traj[..., 0]
    k2 = _wavenumbers(*frames.shape[1:])
    u0 = np.fft.fft2(frames[0])
    s = np.arange(len(frames))[:, None, None] * stride
    expected = np.fft.ifft2(u0[None] * np.exp(-nu * k2[None] * dt * s)).real
    err = float(np.abs(frames - expected).max())
    return [] if err <= SPECTRAL_ATOL else [
        f"heat frame deviates from closed-form decay by {err:.3e}"]


def check_dr(traj: np.ndarray, d: tuple, k: float, scale: float, dt: float) -> list:
    """Each frame is one exact-diffusion + Euler-reaction step of the previous."""
    k2 = _wavenumbers(*traj.shape[1:3])
    decay_u = np.exp(-d[0] * k2 * dt)
    decay_v = np.exp(-d[1] * k2 * dt)
    u = np.fft.ifft2(np.fft.fft2(traj[:-1, ..., 0]) * decay_u).real
    v = np.fft.ifft2(np.fft.fft2(traj[:-1, ..., 1]) * decay_v).real
    u_next = u + dt * scale * (u - u * u * u - k - v)
    v_next = v + dt * scale * (u - v)
    err = max(float(np.abs(u_next - traj[1:, ..., 0]).max()),
              float(np.abs(v_next - traj[1:, ..., 1]).max()))
    return [] if err <= SPECTRAL_ATOL else [
        f"diffusion-reaction step deviates by {err:.3e}"]


def check_ns(traj: np.ndarray) -> list:
    """Mean vorticity stays zero; frame 0 is standardized."""
    frames = traj[..., 0]
    failures = []
    drift = float(np.abs(frames.mean(axis=(1, 2))).max())
    if drift > MEAN_ATOL:
        failures.append(f"vorticity mean drifts to {drift:.3e}")
    std = float(frames[0].std())
    if abs(std - 1.0) > MEAN_ATOL:
        failures.append(f"vorticity frame 0 std is {std!r}, not 1")
    return failures


def check_family(spec, traj: np.ndarray) -> list:
    """Dispatch to the family's check using the spec that generated ``traj``."""
    if spec.family == "heat":
        return check_heat(traj, spec.nu, spec.dt, spec.stride)
    if spec.family == "diffusion_reaction":
        return check_dr(traj, spec.d, spec.k, spec.scale, spec.dt)
    return check_ns(traj)


def check_loaded(written: list, loaded: list, dtype=np.float32) -> list:
    """Loaded native channels equal the written arrays after the dtype cast."""
    if len(written) != len(loaded):
        return [f"wrote {len(written)} trajectories, loaded {len(loaded)}"]
    bad = [i for i, (w, l) in enumerate(zip(written, loaded))
           if not np.array_equal(w.astype(dtype), l[..., :w.shape[-1]])]
    return [f"loaded trajectory {i} differs from the written one" for i in bad[:3]]


# ---------------------------------------------------------------------
# training
# ---------------------------------------------------------------------

def check_training(loss_trace: list, epoch_losses: list) -> list:
    """Every loss finite; the last epoch's mean loss below the first's."""
    failures = []
    if not np.all(np.isfinite(loss_trace)):
        failures.append("non-finite training loss")
    if not epoch_losses[-1] < epoch_losses[0]:
        failures.append(f"last epoch loss {epoch_losses[-1]!r} is not below "
                        f"first epoch loss {epoch_losses[0]!r}")
    return failures


def check_same_trace(expected: list, got: list, what: str) -> list:
    """Bit-for-bit equality of two loss traces."""
    if len(expected) != len(got):
        return [f"{what}: {len(got)} losses, expected {len(expected)}"]
    diff = [i for i, (a, b) in enumerate(zip(expected, got)) if a != b]
    return [f"{what}: loss at step {diff[0]} differs ({got[diff[0]]!r} vs "
            f"{expected[diff[0]]!r})"] if diff else []


def check_identical(expected: np.ndarray, got: np.ndarray, what: str) -> list:
    return [] if np.array_equal(expected, got) else [f"{what}: outputs differ"]


def check_gains(backward_gains: list) -> list:
    """Backward gain of every stream-mixing matrix is 1 within GAIN_ATOL."""
    worst = max(abs(g - 1.0) for g in backward_gains)
    return [] if worst <= GAIN_ATOL else [
        f"backward gain deviates from 1 by {worst:.3e}"]


# ---------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------

def strided_windows(trajs: list, t_in: int, stride: int):
    """The windows ``validate`` scores: starts 0, stride, ... over every
    trajectory, start-major; returns (windows, truths)."""
    length = min(len(t) for t in trajs)
    starts = range(0, length - t_in, stride)
    windows = [t[s:s + t_in] for s in starts for t in trajs]
    truths = [t[s + t_in] for s in starts for t in trajs]
    return windows, truths


def relative_l2(preds: list, truths: list) -> float:
    """Mean over samples of ||pred - truth|| / ||truth||, in float64."""
    ratios = [np.linalg.norm((p.astype(np.float64) - t.astype(np.float64)).ravel())
              / np.linalg.norm(t.astype(np.float64).ravel())
              for p, t in zip(preds, truths)]
    return float(np.mean(ratios))


def check_l2re(reported: dict, recomputed: dict) -> list:
    """validate()'s per-family L2RE equals the recomputation within f32 rounding."""
    if set(reported) != set(recomputed):
        return [f"families {sorted(reported)} vs {sorted(recomputed)}"]
    return [f"{fam} L2RE {reported[fam]!r} vs recomputed {recomputed[fam]!r}"
            for fam in sorted(reported)
            if not abs(reported[fam] - recomputed[fam]) <= L2RE_RTOL * abs(recomputed[fam])]


def check_rollout(initial: np.ndarray, frames: np.ndarray, forward) -> list:
    """Frames are finite and each is ``forward`` of the window rebuilt from
    the initial window and the frames predicted before it."""
    if not np.all(np.isfinite(frames)):
        return ["non-finite rollout frame"]
    t_in = len(initial)
    history = np.concatenate([initial, frames])
    for step, frame in enumerate(frames):
        if not np.array_equal(forward(history[step:step + t_in]), frame):
            return [f"rollout frame {step} differs from a forward pass on its window"]
    return []
