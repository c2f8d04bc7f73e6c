"""Spectral solvers against closed forms and scheme oracles."""

import numpy as np
import pytest

from aotlab.errors import NumericOverflowError, ShapeError
from aotlab.solvers import (
    dr_ic,
    fno_forcing,
    grf_ic,
    solve_dr,
    solve_heat,
    solve_ns_vorticity,
)


def grid_xy(n):
    c = np.arange(n) / n
    return np.meshgrid(c, c, indexing="ij")  # (y, x) row-major


# ---------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------

def test_heat_constant_ic_is_invariant():
    traj = solve_heat(np.full((16, 16), 3.7), nu=1e-2, dt=1e-2, steps=20)
    np.testing.assert_allclose(traj, 3.7, atol=1e-13)


def test_heat_single_mode_closed_form():
    n = 32
    y, x = grid_xy(n)
    nu, dt, steps = 1e-2, 1e-2, 40
    traj = solve_heat(np.sin(2 * np.pi * x), nu, dt, steps)
    for s in range(steps):
        t = (s + 1) * dt
        want = np.exp(-nu * (2 * np.pi) ** 2 * t) * np.sin(2 * np.pi * x)
        np.testing.assert_allclose(traj[s], want, atol=1e-8)


@pytest.mark.parametrize("mode", [(1, 0), (0, 3), (2, 5), (7, 7)])
def test_heat_any_single_mode_machine_precision(mode):
    n = 32
    my, mx = mode
    y, x = grid_xy(n)
    field = np.cos(2 * np.pi * (my * y + mx * x))
    nu, dt = 5e-3, 2e-2
    traj = solve_heat(field, nu, dt, steps=10)
    k2 = (2 * np.pi) ** 2 * (my ** 2 + mx ** 2)
    want = np.exp(-nu * k2 * 10 * dt) * field
    np.testing.assert_allclose(traj[-1], want, atol=1e-13)


def test_heat_conserves_mean():
    rng = np.random.default_rng(0)
    ic = rng.standard_normal((32, 32)) + 2.0
    traj = solve_heat(ic, nu=1e-2, dt=1e-2, steps=30)
    for frame in traj:
        assert abs(frame.mean() - ic.mean()) < 1e-10


def test_heat_input_validation():
    with pytest.raises(ValueError):
        solve_heat(np.zeros((16, 16)), nu=0.0, dt=1e-2, steps=5)


# ---------------------------------------------------------------------
# diffusion-reaction
# ---------------------------------------------------------------------

def test_dr_zero_reaction_reduces_to_heat():
    rng = np.random.default_rng(1)
    ic = np.stack([grf_ic(32, 32, rng), grf_ic(32, 32, rng)], axis=-1)
    traj = solve_dr(ic, d=(1e-3, 5e-3), scale=0.0, dt=1e-2, steps=25)
    heat_u = solve_heat(ic[..., 0], nu=1e-3, dt=1e-2, steps=25)
    heat_v = solve_heat(ic[..., 1], nu=5e-3, dt=1e-2, steps=25)
    np.testing.assert_allclose(traj[..., 0], heat_u, atol=1e-8)
    np.testing.assert_allclose(traj[..., 1], heat_v, atol=1e-8)


def test_dr_uniform_ic_matches_scalar_ode_oracle():
    k, scale, dt, steps = 5e-3, 1.0, 1e-2, 40
    u0, v0 = 0.3, -0.1
    ic = np.empty((16, 16, 2))
    ic[..., 0] = u0
    ic[..., 1] = v0
    traj = solve_dr(ic, k=k, scale=scale, dt=dt, steps=steps)
    u, v = u0, v0
    for s in range(steps):
        ru = u - u ** 3 - k - v
        rv = u - v
        u, v = u + dt * scale * ru, v + dt * scale * rv
        np.testing.assert_allclose(traj[s, ..., 0], u, atol=1e-10)
        np.testing.assert_allclose(traj[s, ..., 1], v, atol=1e-10)


def test_dr_no_reaction_no_diffusion_is_identity():
    rng = np.random.default_rng(2)
    ic = rng.standard_normal((16, 16, 2))
    traj = solve_dr(ic, d=(0.0, 0.0), scale=0.0, dt=1e-2, steps=10)
    for s in range(10):
        np.testing.assert_allclose(traj[s], ic, atol=1e-12)


def test_dr_blowup_detection_reports_step():
    ic = np.full((16, 16, 2), 2.0)
    with pytest.raises(NumericOverflowError) as err:
        solve_dr(ic, scale=1e4, dt=1.0, steps=50)
    assert "step" in str(err.value.where)


def test_dr_channel_validation():
    with pytest.raises(ShapeError):
        solve_dr(np.zeros((16, 16, 3)))
    with pytest.raises(ValueError):
        solve_dr(np.zeros((16, 16, 2)), d=(-1e-3, 1e-3))


# ---------------------------------------------------------------------
# navier-stokes vorticity
# ---------------------------------------------------------------------

def test_ns_shear_mode_is_stationary():
    n = 32
    y, x = grid_xy(n)
    for w0 in (np.sin(2 * np.pi * y), np.sin(2 * np.pi * x)):
        traj = solve_ns_vorticity(w0, nu=0.0, forcing=None, dt=1e-3, steps=100)
        assert np.abs(traj[-1] - w0).max() < 1e-6


def test_ns_pure_dissipation_enstrophy_decreases():
    ic = grf_ic(32, 32, np.random.default_rng(3))
    traj = solve_ns_vorticity(ic, nu=1.0, forcing=None, dt=1e-3, steps=50)
    enstrophy = [np.sum(f ** 2) for f in traj]
    assert all(b < a for a, b in zip(enstrophy, enstrophy[1:]))


def test_ns_viscous_single_mode_matches_heat_decay():
    # a single shear mode has no self-advection, so viscous decay is exact
    n, nu, dt, steps = 32, 1e-2, 1e-3, 200
    y, _ = grid_xy(n)
    w0 = np.sin(2 * np.pi * 2 * y)
    traj = solve_ns_vorticity(w0, nu=nu, forcing=None, dt=dt, steps=steps)
    k2 = (2 * np.pi * 2) ** 2
    # Crank-Nicolson decay factor per step
    factor = ((1 - 0.5 * nu * dt * k2) / (1 + 0.5 * nu * dt * k2)) ** steps
    np.testing.assert_allclose(traj[-1], factor * w0, atol=1e-12)
    # and the CN factor itself is within O(dt^2) of the exact exponential
    assert abs(factor - np.exp(-nu * k2 * dt * steps)) < 1e-4


def test_ns_conserves_mean_vorticity_exactly():
    ic = grf_ic(32, 32, np.random.default_rng(4))
    traj = solve_ns_vorticity(ic, nu=1e-3, forcing=fno_forcing(32, 32),
                              dt=1e-3, steps=200)
    for frame in traj[::20]:
        assert abs(frame.mean()) < 1e-14


def test_ns_convergence_order_is_second():
    ic = grf_ic(32, 32, np.random.default_rng(5))
    f = fno_forcing(32, 32)
    horizon = 0.2
    final = {}
    for dt in (2e-3, 1e-3, 5e-4):
        final[dt] = solve_ns_vorticity(ic, 1e-3, f, dt, int(round(horizon / dt)))[-1]
    e_coarse = np.linalg.norm(final[2e-3] - final[1e-3])
    e_fine = np.linalg.norm(final[1e-3] - final[5e-4])
    order = np.log2(e_coarse / e_fine)
    assert 1.7 <= order <= 2.3, f"measured order {order}"


def test_ns_nonzero_mean_ic_is_projected_with_warning():
    ic = grf_ic(16, 16, np.random.default_rng(6)) + 0.5
    with pytest.warns(UserWarning):
        traj = solve_ns_vorticity(ic, nu=1e-2, forcing=None, dt=1e-3, steps=5)
    assert abs(traj[0].mean()) < 1e-13


def test_ns_blowup_detection():
    y, x = grid_xy(16)
    ic = 2e6 * np.sin(2 * np.pi * y)
    ic -= ic.mean()  # remove the ~1e-10 float residual of the discrete sum
    with pytest.raises(NumericOverflowError):
        solve_ns_vorticity(ic, nu=0.0, forcing=None, dt=1e-3, steps=3)


def test_ns_deterministic():
    ic = grf_ic(16, 16, np.random.default_rng(7))
    a = solve_ns_vorticity(ic, 1e-3, fno_forcing(16, 16), 1e-3, 20)
    b = solve_ns_vorticity(ic, 1e-3, fno_forcing(16, 16), 1e-3, 20)
    np.testing.assert_array_equal(a, b)


def test_forcing_is_zero_mean_and_correct_form():
    f = fno_forcing(32, 32)
    assert abs(f.mean()) < 1e-15
    y, x = grid_xy(32)
    want = 0.1 * (np.sin(2 * np.pi * (x + y)) + np.cos(2 * np.pi * (x + y)))
    np.testing.assert_allclose(f, want, atol=1e-15)


# ---------------------------------------------------------------------
# initial condition samplers
# ---------------------------------------------------------------------

def test_grf_is_standardized_and_deterministic():
    a = grf_ic(32, 32, np.random.default_rng(8))
    b = grf_ic(32, 32, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) < 1e-12
    assert abs(a.std() - 1.0) < 1e-12


def test_grf_energy_concentrates_at_low_modes():
    field = grf_ic(64, 64, np.random.default_rng(9))
    spec = np.abs(np.fft.fft2(field)) ** 2
    fy = np.abs(np.fft.fftfreq(64, d=1 / 64))[:, None]
    fx = np.abs(np.fft.fftfreq(64, d=1 / 64))[None, :]
    low = (fy <= 8) & (fx <= 8)
    assert spec[low].sum() / spec.sum() > 0.95


def test_dr_ic_brackets_fixed_point():
    k = 5e-3
    ic = dr_ic(32, 32, np.random.default_rng(10), k=k)
    fixed = -np.cbrt(k)
    assert ic.shape == (32, 32, 2)
    assert np.all(np.abs(ic - fixed) <= 0.5)
    assert np.abs(ic - fixed).max() > 0.4  # noise actually spans the range


# ---------------------------------------------------------------------
# batches: a leading axis of initial conditions, solved at once
# ---------------------------------------------------------------------

def _batch_ics(family, n=3, grid=16):
    rng = np.random.default_rng(11)
    if family == "diffusion_reaction":
        return np.stack([dr_ic(grid, grid, rng) for _ in range(n)])
    return np.stack([grf_ic(grid, grid, rng) for _ in range(n)])


SOLVES = {
    "heat": lambda ic, **kw: solve_heat(ic, 1e-2, 1e-2, 12, **kw),
    "diffusion_reaction": lambda ic, **kw: solve_dr(ic, dt=1e-2, steps=12, **kw),
    "ns_vorticity": lambda ic, **kw: solve_ns_vorticity(
        ic, 1e-3, fno_forcing(16, 16), 1e-3, 12, **kw),
}


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("family", sorted(SOLVES))
def test_batch_equals_loop_of_single_solves(family, stride):
    solve, ics = SOLVES[family], _batch_ics(family)
    batch = solve(ics, stride=stride)
    assert batch.shape == (len(ics), 12 // stride) + ics.shape[1:]
    for ic, row in zip(ics, batch):
        single = solve(ic, stride=stride)
        assert np.array_equal(row, single)
        # stride keeps every stride-th state of the dense solve
        assert np.array_equal(single, solve(ic)[stride - 1::stride])


@pytest.mark.parametrize("family", sorted(SOLVES))
def test_out_receives_the_frames(family):
    ics = _batch_ics(family)
    out = np.full((len(ics), 3) + ics.shape[1:], np.nan)
    assert SOLVES[family](ics, stride=4, out=out) is out
    assert np.array_equal(out, SOLVES[family](ics, stride=4))


@pytest.mark.parametrize("call", [
    lambda: solve_heat(np.zeros((3, 0, 16)), 1e-2, 1e-2, 5),
    lambda: solve_heat(np.zeros((2, 1, 16, 16)), 1e-2, 1e-2, 5),
    lambda: solve_heat(np.zeros((0, 16, 16)), 1e-2, 1e-2, 5),
    lambda: solve_heat(np.zeros((2, 16, 16)), 1e-2, 1e-2, 5,
                       out=np.empty((5, 16, 16))),
    lambda: solve_dr(np.zeros((2, 16, 16, 3))),
    lambda: solve_dr(np.zeros((2, 2, 16, 16, 2))),
    lambda: solve_ns_vorticity(np.zeros((2, 16, 0)), 1e-3, None, 1e-3, 5),
], ids=["heat-extent", "heat-4d", "heat-empty", "heat-out", "dr-channels",
        "dr-5d", "ns-extent"])
def test_batch_shape_validation(call):
    with pytest.raises(ShapeError):
        call()


def test_stride_validation():
    with pytest.raises(ValueError):
        solve_heat(np.zeros((16, 16)), 1e-2, 1e-2, 5, stride=0)


def test_ns_batch_projects_nonzero_mean_rows_with_warning():
    ics = _batch_ics("ns_vorticity")
    ics[1] += 0.5
    with pytest.warns(UserWarning):
        batch = solve_ns_vorticity(ics, nu=1e-2, forcing=None, dt=1e-3, steps=5)
    assert np.abs(batch.mean(axis=(2, 3))).max() < 1e-13
    with pytest.warns(UserWarning):
        assert np.array_equal(batch[1], solve_ns_vorticity(
            ics[1], nu=1e-2, forcing=None, dt=1e-3, steps=5))
    assert np.array_equal(batch[0], solve_ns_vorticity(
        ics[0], nu=1e-2, forcing=None, dt=1e-3, steps=5))


def test_dr_batch_blowup_names_the_row():
    # u = v = 0 is a fixed point at k = 0; only row 2 leaves it
    ic = np.zeros((4, 16, 16, 2))
    ic[2] = 2.0
    with pytest.raises(NumericOverflowError) as err:
        solve_dr(ic, k=0.0, dt=1.0, steps=10)
    assert err.value.row == 2
    assert "row 2" in str(err.value) and "step" in str(err.value.where)


def test_dr_blowup_in_v_alone_raises():
    # u = 0 at scale 0 stays at rest, so only v is past the limit
    ic = np.zeros((16, 16, 2))
    ic[..., 1] = 1e7
    with pytest.raises(NumericOverflowError):
        solve_dr(ic, scale=0.0)


def test_dr_batch_blowup_in_v_names_the_row():
    ic = np.zeros((4, 16, 16, 2))
    ic[2, ..., 1] = 1e7
    with pytest.raises(NumericOverflowError) as err:
        solve_dr(ic, k=0.0, scale=0.0, steps=3)
    assert err.value.row == 2
    assert err.value.where == "step 0"


def test_ns_batch_blowup_names_the_row():
    y, _ = grid_xy(16)
    ic = np.zeros((4, 16, 16))
    ic[2] = 2e6 * np.sin(2 * np.pi * y)
    ic[2] -= ic[2].mean()
    with pytest.raises(NumericOverflowError) as err:
        solve_ns_vorticity(ic, nu=0.0, forcing=None, dt=1e-3, steps=3)
    assert err.value.row == 2
    assert err.value.where == "step 0"


@pytest.mark.parametrize("batch", [1, 3])
def test_ns_step_makes_three_transforms_per_batch(batch, monkeypatch):
    ics = _batch_ics("ns_vorticity", n=batch)
    calls = {"fft2": 0, "ifft2": 0}
    for name in calls:
        orig = getattr(np.fft, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    steps = 7
    solve_ns_vorticity(ics, 1e-3, None, 1e-3, steps, stride=7)
    # one forward transform of the initial condition, then per step: the
    # four derivative fields in one inverse, the advection term forward,
    # and the new vorticity inverse
    assert calls == {"fft2": 1 + steps, "ifft2": 2 * steps}


# ---------------------------------------------------------------------
# grids whose extents are not powers of two
# ---------------------------------------------------------------------

ODD_GRIDS = [(24, 24), (12, 16), (20, 30), (31, 31)]


@pytest.mark.parametrize("h, w", ODD_GRIDS)
def test_heat_single_mode_closed_form_on_any_grid(h, w):
    y = (np.arange(h) / h)[:, None]
    x = (np.arange(w) / w)[None, :]
    field = np.cos(2 * np.pi * (2 * y + 3 * x))
    nu, dt = 5e-3, 2e-2
    traj = solve_heat(field, nu, dt, steps=10)
    want = np.exp(-nu * (2 * np.pi) ** 2 * 13 * 10 * dt) * field
    np.testing.assert_allclose(traj[-1], want, atol=1e-13)


@pytest.mark.parametrize("h, w", ODD_GRIDS)
def test_dr_zero_reaction_reduces_to_heat_on_any_grid(h, w):
    ic = dr_ic(h, w, np.random.default_rng(1))
    traj = solve_dr(ic, d=(1e-3, 5e-3), scale=0.0, dt=1e-2, steps=25)
    np.testing.assert_allclose(
        traj[..., 0], solve_heat(ic[..., 0], nu=1e-3, dt=1e-2, steps=25), atol=1e-8)
    np.testing.assert_allclose(
        traj[..., 1], solve_heat(ic[..., 1], nu=5e-3, dt=1e-2, steps=25), atol=1e-8)


@pytest.mark.parametrize("h, w", ODD_GRIDS)
def test_ns_conserves_mean_vorticity_on_any_grid(h, w):
    ic = grf_ic(h, w, np.random.default_rng(4))
    traj = solve_ns_vorticity(ic, nu=1e-3, forcing=fno_forcing(h, w),
                              dt=1e-3, steps=100)
    assert np.all(np.isfinite(traj))
    assert np.abs(traj.mean(axis=(1, 2))).max() < 1e-14
