"""Spectral solvers for periodic 2-D model problems on power-of-two grids.

Three families: heat (exact spectral integration), diffusion-reaction with
FitzHugh-Nagumo kinetics (exact diffusion, explicit Euler reaction), and
incompressible Navier-Stokes in vorticity form (pseudo-spectral, 2/3
dealiasing, Crank-Nicolson diffusion with Adams-Bashforth 2 advection).

Each solver takes one initial condition, or a batch of them stacked on a
leading axis, and solves the whole batch at once: a step makes the same
transform calls for N initial conditions as for one, and each row's
result is bit-identical to solving it alone.  The output is time-major
per row, ``(steps // stride, ...)`` for one initial condition and
``(N, steps // stride, ...)`` for a batch: frame s holds the solution at
t = (s+1) * stride * dt, so with stride 1 the ``steps`` frames span the
horizon dt * steps.  Only these saved frames are stored, in ``out`` when
the caller passes it.  The initial condition is not included in the
output.  A blow-up raises ``NumericOverflowError`` naming the step and,
as ``row``, the first batch row that failed.

These routines generate training data; they are plain numpy (np.fft) and
never touch the autodiff tape.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericOverflowError, ShapeError

BLOWUP_LIMIT = 1e6


def _batched(ic, ndim: int) -> tuple[np.ndarray, bool]:
    """Return ``ic`` as a float64 batch with a leading axis, and whether it
    was a single initial condition (whose axis the solver squeezes again)."""
    ic = np.asarray(ic, dtype=np.float64)
    if ic.ndim not in (ndim, ndim + 1):
        raise ShapeError(f"initial condition must be {ndim}-D, or {ndim + 1}-D "
                         f"with a leading batch axis, got shape {ic.shape}")
    single = ic.ndim == ndim
    if single:
        ic = ic[None]
    if len(ic) < 1:
        raise ShapeError(f"empty batch of initial conditions: {ic.shape}")
    h, w = ic.shape[1], ic.shape[2]
    for n in (h, w):
        if n < 1 or n & (n - 1):
            raise ShapeError(f"grid extents must be powers of two, got ({h}, {w})")
    return ic, single


def _frames(out: np.ndarray | None, ic: np.ndarray, steps: int, stride: int,
            single: bool) -> np.ndarray:
    """Batched storage for the saved frames: ``out`` when given, checked
    against the shape the solver returns, else a new array."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    shape = (len(ic), steps // stride) + ic.shape[1:]
    if out is None:
        return np.empty(shape)
    want = shape[1:] if single else shape
    if out.shape != want:
        raise ShapeError(f"out must have shape {want}, got {out.shape}")
    return out[None] if single else out


def _k_squared(h: int, w: int) -> np.ndarray:
    ky = 2 * np.pi * np.fft.fftfreq(h, d=1.0 / h)
    kx = 2 * np.pi * np.fft.fftfreq(w, d=1.0 / w)
    return (ky ** 2)[:, None] + (kx ** 2)[None, :]


def _check_blowup(field: np.ndarray, step: int, family: str) -> None:
    """Raise for the first row of the batch ``field`` that is non-finite or
    past BLOWUP_LIMIT; the error's ``row`` names it."""
    if np.all(np.isfinite(field)) and np.abs(field).max() <= BLOWUP_LIMIT:
        return
    flat = field.reshape(len(field), -1)
    bad = ~np.isfinite(flat) | (np.abs(flat) > BLOWUP_LIMIT)
    row = int(np.flatnonzero(bad.any(axis=1))[0])
    raise NumericOverflowError(
        f"{family} solve blew up in batch row {row} at step {step}",
        where=f"step {step}", row=row)


def solve_heat(ic: np.ndarray, nu: float, dt: float, steps: int,
               stride: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Heat equation u_t = nu * Laplace(u); exact per-step spectral decay."""
    ic, single = _batched(ic, 2)
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    frames = _frames(out, ic, steps, stride, single)
    decay = np.exp(-nu * _k_squared(*ic.shape[1:]) * dt)
    uh = np.fft.fft2(ic)
    for s in range(steps):
        uh = uh * decay
        if (s + 1) % stride == 0:
            frames[:, s // stride] = np.fft.ifft2(uh).real
    return frames[0] if single else frames


def solve_dr(ic: np.ndarray, d: tuple = (1e-3, 5e-3), k: float = 5e-3,
             scale: float = 1.0, dt: float = 1e-2, steps: int = 39,
             stride: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Two-species diffusion-reaction with FitzHugh-Nagumo kinetics.

    u_t = d_u Laplace(u) + scale * (u - u^3 - k - v)
    v_t = d_v Laplace(v) + scale * (u - v)

    Each step integrates diffusion exactly in Fourier space, then applies
    one explicit Euler step of the reaction; ``scale=0`` reduces the system
    to independent heat equations.
    """
    ic, single = _batched(ic, 3)
    if ic.shape[-1] != 2:
        raise ShapeError(f"diffusion-reaction needs 2 channels, got {ic.shape[-1]}")
    du, dv = d
    if du < 0 or dv < 0:
        raise ValueError(f"diffusivities must be nonnegative, got {d}")
    frames = _frames(out, ic, steps, stride, single)
    k2 = _k_squared(ic.shape[1], ic.shape[2])
    decay_u = np.exp(-du * k2 * dt)
    decay_v = np.exp(-dv * k2 * dt)
    u, v = ic[..., 0].copy(), ic[..., 1].copy()
    for s in range(steps):
        u = np.fft.ifft2(np.fft.fft2(u) * decay_u).real
        v = np.fft.ifft2(np.fft.fft2(v) * decay_v).real
        ru = u - u ** 3 - k - v
        rv = u - v
        u = u + dt * scale * ru
        v = v + dt * scale * rv
        _check_blowup(u, s, "diffusion-reaction")
        if (s + 1) % stride == 0:
            frames[:, s // stride, ..., 0] = u
            frames[:, s // stride, ..., 1] = v
    return frames[0] if single else frames


def fno_forcing(h: int, w: int) -> np.ndarray:
    """The fixed forcing 0.1 (sin(2 pi (x+y)) + cos(2 pi (x+y)))."""
    y = np.arange(h) / h
    x = np.arange(w) / w
    s = y[:, None] + x[None, :]
    return 0.1 * (np.sin(2 * np.pi * s) + np.cos(2 * np.pi * s))


def _dealias_mask(h: int, w: int) -> np.ndarray:
    fy = np.abs(np.fft.fftfreq(h, d=1.0 / h))
    fx = np.abs(np.fft.fftfreq(w, d=1.0 / w))
    return ((fy[:, None] <= h / 3.0) & (fx[None, :] <= w / 3.0)).astype(float)


def solve_ns_vorticity(ic: np.ndarray, nu: float, forcing: np.ndarray | None,
                       dt: float, steps: int, stride: int = 1,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Incompressible 2-D Navier-Stokes in vorticity form.

    w_t + u . grad(w) = nu Laplace(w) + f, with u recovered from the
    streamfunction psi_hat = w_hat / |k|^2 (zero DC).  Advection uses
    Adams-Bashforth 2 (explicit Euler on the first step) with 2/3
    dealiasing; diffusion uses Crank-Nicolson.  The advection spectrum's
    DC entry is zeroed each step (it is analytically zero), so the mean
    vorticity is conserved exactly under zero-mean forcing.

    A step makes three transforms for the whole batch: one inverse FFT of
    the four derivative spectra (u, v, w_x, w_y) stacked on one axis, the
    forward FFT of the advection term, and the inverse FFT of the new
    vorticity that every step is checked on.
    """
    ic, single = _batched(ic, 2)
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    n, h, w = ic.shape
    means = ic.reshape(n, -1).mean(axis=1)
    off = np.abs(means) > 1e-12
    if off.any():
        warnings.warn("vorticity IC has nonzero mean; projecting to zero mean")
        ic = np.where(off[:, None, None], ic - means[:, None, None], ic)
    frames = _frames(out, ic, steps, stride, single)

    ky = 2 * np.pi * np.fft.fftfreq(h, d=1.0 / h)[:, None]
    kx = 2 * np.pi * np.fft.fftfreq(w, d=1.0 / w)[None, :]
    k2 = ky ** 2 + kx ** 2
    dc = k2 == 0
    k2_safe = np.where(dc, 1.0, k2)
    d_y, minus_d_x, d_x = 1j * ky, -1j * kx, 1j * kx
    dealias = _dealias_mask(h, w)
    f_hat = 0.0 if forcing is None else np.fft.fft2(np.asarray(forcing, dtype=np.float64))
    grads_hat = np.empty((n, 4, h, w), dtype=np.complex128)

    def advection_hat(w_hat):
        psi_hat = w_hat / k2_safe
        psi_hat[:, dc] = 0.0
        np.multiply(d_y, psi_hat, out=grads_hat[:, 0])
        np.multiply(minus_d_x, psi_hat, out=grads_hat[:, 1])
        np.multiply(d_x, w_hat, out=grads_hat[:, 2])
        np.multiply(d_y, w_hat, out=grads_hat[:, 3])
        u, v, wx, wy = np.fft.ifft2(grads_hat).real.swapaxes(0, 1)
        n_hat = np.fft.fft2(u * wx + v * wy) * dealias
        n_hat[:, 0, 0] = 0.0
        return n_hat

    cn_minus = 1.0 - 0.5 * nu * dt * k2
    cn_plus = 1.0 + 0.5 * nu * dt * k2
    w_hat = np.fft.fft2(ic)
    n_prev = None
    for s in range(steps):
        n_curr = advection_hat(w_hat)
        if n_prev is None:
            n_eff = n_curr
        else:
            n_eff = 1.5 * n_curr - 0.5 * n_prev
        w_hat = (cn_minus * w_hat + dt * (-n_eff + f_hat)) / cn_plus
        n_prev = n_curr
        frame = np.fft.ifft2(w_hat).real
        _check_blowup(frame, s, "navier-stokes")
        if (s + 1) % stride == 0:
            frames[:, s // stride] = frame
    return frames[0] if single else frames


# ---------------------------------------------------------------------
# initial condition samplers
# ---------------------------------------------------------------------

def grf_ic(h: int, w: int, rng: np.random.Generator, alpha: float = 2.5,
           tau: float = 7.0) -> np.ndarray:
    """Gaussian random field: spectrally filtered white noise, standardized
    to zero mean and unit standard deviation."""
    fy = np.fft.fftfreq(h, d=1.0 / h)[:, None]
    fx = np.fft.fftfreq(w, d=1.0 / w)[None, :]
    spectrum = (fy ** 2 + fx ** 2 + tau ** 2) ** (-alpha)
    noise = rng.standard_normal((h, w))
    field = np.fft.ifft2(np.fft.fft2(noise) * spectrum).real
    field = field - field.mean()
    return field / field.std()


def dr_ic(h: int, w: int, rng: np.random.Generator, k: float = 5e-3) -> np.ndarray:
    """Uniform noise around the FitzHugh-Nagumo fixed point u* = v* = -k^(1/3)."""
    fixed = -np.cbrt(k)
    return fixed + rng.uniform(-0.5, 0.5, size=(h, w, 2))
