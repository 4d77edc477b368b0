"""Transform oracles: quadrature exactness, mode-table cross-checks, route
agreement, adjointness, Parseval balance and calibration."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hypersample import transforms as tr
from hypersample.bandlimited import synthesize
from hypersample.cli import _grids, load_config
from hypersample.errors import (CalibrationInconsistent, NumericalFailure,
                               TailMassExceeded)
from hypersample.geometry import (RHO, SpaceParams, ball_volume, busemann,
                                  distance, mobius_translate)
from hypersample.spectral import (SpectralGrid, _circle_cosines,
                                  _gamma_ratio, _plane_wave_basis,
                                  build_grid, spherical_function)
from hypersample.transforms import (BandlimitedFunction, PolarGrid,
                                    apply_multiplier)

from helpers import laplacian_multiplier

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def pgrid():
    return tr.build_polar_grid(2.5, 64, 64)


@pytest.fixture
def grid(space):
    return build_grid(space, omega=12.0, n_lambda=48, n_b=32)


def bump(pgrid, center=0.0, width=0.35):
    d = distance(center, pgrid.points)
    return np.exp(-(d**2) / (2.0 * width**2))


def test_polar_grid_total_area(pgrid):
    got = math.fsum(pgrid.weights2d.ravel().tolist())
    assert got == pytest.approx(float(ball_volume(2.5)), rel=1e-13)


def test_polar_grid_points_radii(pgrid):
    d = distance(0.0, pgrid.points[:, 0])
    assert np.max(np.abs(d - pgrid.r_nodes)) < 1e-12


def test_polar_grid_validation():
    with pytest.raises(ValueError):
        tr.build_polar_grid(-1.0, 16, 32)
    with pytest.raises(ValueError):
        tr.build_polar_grid(2.0, 16, 33)


def test_norm_within_restriction(pgrid):
    f = np.ones((pgrid.n_r, pgrid.n_theta))
    full = pgrid.norm_sq(f)
    half = pgrid.norm_sq(f, within=1.25)
    assert 0.0 < half < full
    assert pgrid.norm_sq(f, within=2.5) == pytest.approx(full)


def test_norm_constant_equals_area(pgrid):
    f = np.ones((pgrid.n_r, pgrid.n_theta))
    assert pgrid.norm_sq(f) == pytest.approx(float(ball_volume(2.5)), rel=1e-13)


def test_mode_table_zonal_row_matches_spherical_function(space):
    # up to the switch radius both are circle quadratures of the plane-wave
    # series (spectral._circle_cosines over the same planes), which still
    # differ in node rule (_phase_node_count against _busemann_angle_count)
    # and in basis (the table's unit S against the real part of a series
    # on |a| <= 4); past it both take the Harish-Chandra expansion, so only
    # the near radii are compared, and the check independent of both is
    # the mpmath one below
    grid = build_grid(space, omega=12.0, n_lambda=16, n_b=16)
    pg = tr.build_polar_grid(8.0, 24, 16)
    near = pg.r_nodes <= tr._SWITCH_RADIUS
    tab = tr.radial_mode_table(grid, pg, 4)[:, 0, near]
    ref = spherical_function(grid.lambda_nodes[:, None],
                             pg.r_nodes[None, near])
    assert np.max(np.abs(tab - ref)) < 1e-12
    assert np.max(np.abs(tab.imag)) < 1e-9


def _ode_residual_ok(lams, y, r0, m, h):
    """Central-difference residual of the radial mode equation, checked
    against the h^2 truncation budget of the stencil itself: the fourth
    derivative of a mode function scales like (lam^2 + 1/4)^2 * |y|."""
    d2 = (y[:, 0] - 2.0 * y[:, 1] + y[:, 2]) / h**2
    d1 = (y[:, 2] - y[:, 0]) / (2.0 * h)
    coef = lams**2 + 0.25 - m**2 / np.sinh(r0) ** 2
    resid = np.abs(d2 + d1 / np.tanh(r0) + coef * y[:, 1])
    allow = 1e-8 + (h**2 / 3.0) * (lams**2 + 1.0) ** 2 * np.abs(y[:, 1])
    assert np.all(resid < allow), (resid, allow)


def _expansion(lams, rs, m_max):
    """The expansion's orders stacked into a (lam, m, r) table."""
    return np.stack(list(tr._expansion_orders(lams, rs, m_max)), axis=1)


def _quadrature(lams, rs, m_max):
    """The streamed orders at radii up to the switch radius (all by circle
    quadrature), stacked into a (lam, m, r) table."""
    return np.stack(list(tr._radial_modes(lams, rs, m_max)), axis=1)


def test_mode_table_ode_residual():
    # far-field (expansion) values must satisfy the radial mode equation
    h = 1e-3
    lams = np.linspace(0.5, 10.0, 6)
    vals = _expansion(lams, np.array([6.0 - h, 6.0, 6.0 + h]), 3)
    _ode_residual_ok(lams, vals[:, 3, :], 6.0, 3, h)


def _mode_by_mpmath(lam, m, r):
    """Phi_{lam, m}(r) as the defining circle integral at 30 digits, split
    at e^{-r} 4^k where the integrand concentrates near t = 0."""
    with mp.workdps(30):
        r, expo = mp.mpf(r), mp.mpf(-0.5) + 1j * mp.mpf(lam)
        splits = [0] + [mp.exp(-r) * 4**k for k in range(12)
                        if mp.exp(-r) * 4**k < mp.pi] + [mp.pi]
        val = mp.quad(lambda t: (mp.cosh(r) - mp.sinh(r) * mp.cos(t)) ** expo
                      * mp.cos(m * t), splits) / mp.pi
        return complex(val)


def test_mode_table_far_entries_match_mpmath():
    lams = np.array([6e-4, 0.3, 3.0, 24.0])
    rs = np.array([4.5, 6.0, 8.0])
    ms = (0, 5, 31)
    vals = _expansion(lams, rs, max(ms))
    err = max(abs(vals[i, m, k] - _mode_by_mpmath(lam, m, r))
              for i, lam in enumerate(lams) for m in ms
              for k, r in enumerate(rs))
    assert err <= 1e-12


def test_mode_table_near_entries_match_mpmath():
    lams = np.array([6e-4, 0.3, 3.0, 10.0])
    rs = np.array([0.5, 1.4, 2.0, 3.0])
    ms = (0, 5, 31)
    vals = _quadrature(lams, rs, max(ms))
    err = max(abs(vals[i, m, k] - _mode_by_mpmath(lam, m, r))
              for i, lam in enumerate(lams) for m in ms
              for k, r in enumerate(rs))
    assert err <= 1e-14


def _modes_by_direct_exp(lams, rs, m_max):
    """The near table as one complex exponential per (lam, radius, angle):
    the trapezoid rule over the same _phase_node_count angles, summed by
    FFT, with no Chebyshev series."""
    n = max(tr._phase_node_count(float(np.max(lams)), float(np.max(rs))),
            4 * (m_max + 1))
    t = 2.0 * np.pi * np.arange(n) / n
    base = np.cosh(rs)[:, None] - np.sinh(rs)[:, None] * np.cos(t)[None, :]
    vals = np.exp((-0.5 + 1j * lams)[:, None, None] * np.log(base)[None])
    return (np.fft.fft(vals, axis=2) / n)[:, :, :m_max + 1].transpose(0, 2, 1)


@pytest.mark.parametrize("lam_max, omega, r_max, n_r, n_theta, tol", [
    (24.0, None, 8.0, 128, 128, 2e-13),   # calibration grids
    (10.0, 2.0, 1.4, 160, 96, 1e-14),     # frame_reconstruct grids
    (10.0, 1.0, 2.0, 160, 96, 1e-14),     # spline_reconstruct grids
])
def test_mode_table_near_slice_matches_direct_exponentials(
        space, lam_max, omega, r_max, n_r, n_theta, tol):
    # same trapezoid sum, different arithmetic: the difference is roundoff
    # (the calibration grid's largest radii carry the most); on lam <= lam_max
    # and on the scenario's band grid, omega, where there is one
    grids = [build_grid(space, lam_max, 96, 64)]
    if omega is not None:
        grids.append(build_grid(space, omega, 48, 64))
    pg = tr.build_polar_grid(r_max, n_r, n_theta)
    near = pg.r_nodes <= tr._SWITCH_RADIUS
    for grid in grids:
        m_max = tr._default_m_max(grid, pg)
        tab = tr.radial_mode_table(grid, pg, m_max)[:, :, near]
        ref = _modes_by_direct_exp(grid.lambda_nodes, pg.r_nodes[near],
                                   m_max)
        assert np.max(np.abs(tab - ref)) <= tol


def test_mode_expansion_fails_loudly_near_the_origin():
    # at r = 0.5 the series in e^{-2r} is far from roundoff after its cap
    with pytest.raises(NumericalFailure):
        tr._expansion_orders(np.array([1.0]), np.array([0.5]), 31)


def test_mode_table_quadrature_ode_residual():
    # quadrature-built entries satisfy the same equation (m = 2, r < 4)
    h = 1e-3
    lams = np.linspace(0.5, 8.0, 5)
    vals = _quadrature(lams, np.array([1.5 - h, 1.5, 1.5 + h]), 2)
    _ode_residual_ok(lams, vals[:, 2, :], 1.5, 2, h)


def forward_transform_direct(pgrid: PolarGrid, grid: SpectralGrid,
                             samples: np.ndarray) -> BandlimitedFunction:
    """Forward transform by explicit plane-wave kernels at every node.

    Independent of the mode tables; cost and accuracy both degrade with
    r_max, so use only on small domains as a cross-check."""
    samples = np.asarray(samples)
    pts = pgrid.points.ravel()
    wf = (pgrid.weights2d * samples).ravel()
    lam = grid.lambda_nodes
    values = np.empty((grid.n_lambda, grid.n_b), dtype=complex)
    for j, theta_b in enumerate(grid.boundary_angles):
        av = busemann(pts, theta_b)
        kern = np.exp((RHO - 1j * lam)[:, None] * av[None, :])
        values[:, j] = kern @ wf
    return BandlimitedFunction(grid, values)


def test_forward_routes_agree_zonal(pgrid, grid):
    f = bump(pgrid)
    c_mode = tr.forward_transform(pgrid, grid, f, tail_tol=None)
    c_dir = forward_transform_direct(pgrid, grid, f)
    rel = np.max(np.abs(c_mode.values - c_dir.values)) / np.max(np.abs(c_dir.values))
    assert rel < 1e-7


def test_forward_routes_agree_offcenter(space, pgrid):
    # lam * sinh(center radius) small keeps the mode content inside m_max
    grid8 = build_grid(space, omega=8.0, n_lambda=40, n_b=64)
    f = bump(pgrid, center=0.15 + 0.05j)
    c_mode = tr.forward_transform(pgrid, grid8, f, tail_tol=None)
    c_dir = forward_transform_direct(pgrid, grid8, f)
    rel = np.max(np.abs(c_mode.values - c_dir.values)) / np.max(np.abs(c_dir.values))
    assert rel < 1e-7


def test_mirror_symmetry(pgrid, grid):
    # reflecting the function through the real axis reflects the b-dependence
    f = bump(pgrid, center=0.2 + 0.1j)
    fr = bump(pgrid, center=0.2 - 0.1j)
    c = tr.forward_transform(pgrid, grid, f, tail_tol=None).values
    cr = tr.forward_transform(pgrid, grid, fr, tail_tol=None).values
    mirrored = np.roll(c[:, ::-1], 1, axis=1)
    assert np.max(np.abs(cr - mirrored)) < 1e-10 * np.max(np.abs(c))


def test_adjointness(pgrid, grid):
    # <inverse(g), f>_spatial == <g, forward(f)>_spectral, exactly in floats
    rng = np.random.default_rng(4)
    f = rng.standard_normal((pgrid.n_r, pgrid.n_theta)) \
        + 1j * rng.standard_normal((pgrid.n_r, pgrid.n_theta))
    g = BandlimitedFunction(
        grid, rng.standard_normal((grid.n_lambda, grid.n_b))
        + 1j * rng.standard_normal((grid.n_lambda, grid.n_b)))
    back = tr.inverse_on_grid(g, pgrid)
    lhs = np.sum(pgrid.weights2d * back * np.conj(f))
    fwd = tr.forward_transform(pgrid, grid, f, tail_tol=None).values
    rhs = np.sum(grid.lambda_measure[:, None] / grid.n_b * g.values
                 * np.conj(fwd))
    # <F* g, f> == <g, F f>
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_roundtrip_gaussian(space):
    grid = build_grid(space, omega=16.0, n_lambda=64, n_b=32)
    pg = tr.build_polar_grid(6.0, 96, 64)
    f = bump(pg, center=0.1, width=0.5)
    c = tr.forward_transform(pg, grid, f, tail_tol=1e-8)
    back = tr.inverse_on_grid(c, pg)
    assert np.max(np.abs(back - f)) / np.max(np.abs(f)) < 1e-7


def test_parseval_after_calibration(space):
    grid = build_grid(space, omega=24.0, n_lambda=96, n_b=64)
    pg = tr.build_polar_grid(8.0, 128, 128)
    f = bump(pg, center=0.2 + 0.1j, width=0.8)
    c = tr.forward_transform(pg, grid, f, tail_tol=1e-8)
    assert pg.norm_sq(f) / c.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_calibration_constant(calibration):
    # the measured density constant; agreement across reference functions
    # to machine precision pins it as a genuine invariant of the convention
    assert calibration.spread <= 2e-14
    assert abs(2.0 * np.pi * calibration.scale - 1.0) <= 2e-14


def test_calibration_inconsistent_when_band_starved(monkeypatch):
    # 24 nodes on [0, 2]: the reference bumps reach far past the band
    def starved(space, omega, n_lambda, n_b):
        return build_grid(space, 2.0, 24, n_b)

    # the memo is cleared before and after, so this call calibrates cold
    # and no later call sees the starved result
    tr.calibrate_plancherel.cache_clear()
    monkeypatch.setattr(tr, "build_grid", starved)
    try:
        with pytest.raises(CalibrationInconsistent):
            tr.calibrate_plancherel()
    finally:
        tr.calibrate_plancherel.cache_clear()


def test_calibration_is_measured_once_and_read_only(calibration):
    # the process measures once; repeat calls hand back the same result,
    # a frozen record of floats that cannot be edited in place
    again = tr.calibrate_plancherel()
    assert again is tr.calibrate_plancherel()
    assert again.scale == calibration.scale
    assert all(type(getattr(again, f.name)) is float
               for f in dataclasses.fields(again))
    with pytest.raises(dataclasses.FrozenInstanceError):
        again.scale = 0.0


def test_tail_mass_guard(pgrid, grid):
    f = bump(pgrid, center=0.975, width=0.2)  # mass near the rim
    assert tr.tail_mass_fraction(pgrid, f) > 1e-3
    with pytest.raises(TailMassExceeded):
        tr.forward_transform(pgrid, grid, f, tail_tol=1e-6)
    tr.forward_transform(pgrid, grid, f, tail_tol=None)  # explicit opt-out


def test_forward_shape_guard(pgrid, grid):
    with pytest.raises(ValueError):
        tr.forward_transform(pgrid, grid, np.zeros((3, 3)))


def test_stacked_forward_checks_every_sample(pgrid, grid):
    # one sample of the stack over tail_tol stops the whole call, and a
    # stack must end in the grid's (n_r, n_theta)
    stack = np.stack([bump(pgrid), bump(pgrid, center=0.975, width=0.2)])
    with pytest.raises(TailMassExceeded):
        tr.forward_transform(pgrid, grid, stack, tail_tol=1e-6)
    assert len(tr.forward_transform(pgrid, grid, stack, tail_tol=None)) == 2
    for shape in [(2, pgrid.n_theta, pgrid.n_r + 1), (2, pgrid.n_r),
                  (pgrid.n_r * pgrid.n_theta,)]:
        with pytest.raises(ValueError):
            tr.forward_transform(pgrid, grid, np.zeros(shape))


def test_inverse_transform_matches_grid_route(space, pgrid):
    # the point route sums the kernel over the discrete boundary circle, so
    # it needs n_b to exceed the kernel mode content lam_max * sinh(r) at
    # the evaluation radius; stay at r <= 1.5 with n_b = 128
    grid = build_grid(space, omega=12.0, n_lambda=48, n_b=128)
    f = bump(pgrid, center=0.1, width=0.4)
    c = tr.forward_transform(pgrid, grid, f, tail_tol=None)
    back = tr.inverse_on_grid(c, pgrid)
    rows = np.nonzero(pgrid.r_nodes <= 1.5)[0][::5]
    sub = pgrid.points[rows][:, ::16].ravel()
    v_pt = tr.inverse_transform(c, sub)
    v_gr = back[rows][:, ::16].ravel()
    assert np.max(np.abs(v_pt - v_gr)) < 1e-8 * np.max(np.abs(back))


def test_inverse_transform_matches_plane_wave_double_sum(space):
    # oracle: one exponential per (point, lam, b), summed directly
    grid = build_grid(space, omega=12.0, n_lambda=48, n_b=32)
    rng = np.random.default_rng(11)
    c = BandlimitedFunction(grid, rng.standard_normal((48, 32))
                            + 1j * rng.standard_normal((48, 32)))
    radius = 0.95 * np.sqrt(rng.random(150))
    radius[0], radius[1] = 0.95, 0.0
    pts = (radius * np.exp(2j * np.pi * rng.random(150))).reshape(10, 15)
    a = busemann(pts.ravel()[:, None], grid.boundary_angles[None, :])
    waves = np.exp((1j * grid.lambda_nodes[:, None, None] + RHO)
                   * a[None, :, :])
    weighted = grid.lambda_measure[:, None] * c.values / grid.n_b
    ref = np.einsum("lpb,lb->p", waves, weighted).reshape(pts.shape)
    got = tr.inverse_transform(c, pts)
    assert got.shape == pts.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert tr.inverse_transform(c, np.zeros(0)).shape == (0,)


def test_inverse_transform_of_band_limited_f_matches_plane_wave_sum(space):
    # the plane-wave series is cut at roundoff, so for coefficients that
    # vanish at the band edge the point values still match the direct sum
    grid = build_grid(space, 2.0, 48, 64)
    f = synthesize(grid, seed=0)
    rng = np.random.default_rng(12)
    pts = 0.9 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
    a = busemann(pts[:, None], grid.boundary_angles[None, :])
    waves = np.exp((1j * grid.lambda_nodes[:, None, None] + RHO)
                   * a[None, :, :])
    weighted = grid.lambda_measure[:, None] * f.values / grid.n_b
    ref = np.einsum("lpb,lb->p", waves, weighted)
    got = tr.inverse_transform(f, pts)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_inverse_transform_of_zero_coefficients_is_zero(grid):
    c = BandlimitedFunction(grid, np.zeros((grid.n_lambda, grid.n_b)))
    pts = np.array([0.0, 0.3 - 0.4j, 0.9j])
    assert np.array_equal(tr.inverse_transform(c, pts), np.zeros(3))


_ACROSS_THE_SWITCH = tr.build_polar_grid(6.0, 96, 64)
# (spectral grid, polar grid) of the calibration (near and far radii), of
# the spline_reconstruct domain (near radii only) and across the switch
# radius, over lam <= 24 and lam <= 10, density constant 1
_TABLE_GRIDS = {
    "calibration": lambda space: (build_grid(space, 24.0, 96, 64),
                                  tr.build_polar_grid(8.0, 128, 128)),
    "spline": lambda space: (build_grid(space, 10.0, 96, 64),
                             tr.build_polar_grid(2.0, 160, 96)),
    # a domain whose radii cross the switch radius (38 of 96 take the
    # expansion)
    "across": lambda space: (build_grid(space, 10.0, 96, 64),
                             _ACROSS_THE_SWITCH),
}
# a cold table may hold, beyond itself, the real plane coefficients G of
# its near radii (2.5 MB on the spline grid) and a few block-sized
# temporaries; one whole-array pass needed 14 MB (spline) to 21 MB
# (calibration) beyond the table
_TABLE_SLACK = 10e6


def _whole_array_table(grid, pgrid, m_max):
    """The mode table in one whole-array pass per route: the full product
    conj(S)^T G, and the expansion with whole-size terms and phase step."""
    lams, rs = grid.lambda_nodes, pgrid.r_nodes
    near = rs <= tr._SWITCH_RADIUS
    table = np.empty((lams.size, m_max + 1, rs.size), dtype=complex)
    x = np.tanh(rs[near] / 2.0)
    n = max(tr._phase_node_count(float(np.max(lams)), float(np.max(rs[near]))),
            4 * (m_max + 1))
    a_max, series = _plane_wave_basis(x, lams, np.ones(lams.size))
    modes = _circle_cosines(x, n, m_max, a_max, series.shape[0])
    prod = np.conj(series).T @ modes.reshape(series.shape[0], -1)
    table[:, :, near] = prod.reshape(lams.size, x.size,
                                     m_max + 1).transpose(0, 2, 1)
    if not np.all(near):
        table[:, :, ~near] = _whole_array_expansion(lams, rs[~near], m_max)
    return table


def _whole_array_expansion(lams, far, m_max):
    """The Harish-Chandra expansion in one pass over the whole (lam, m, r)
    array: each term added to the whole sum, the convergence test on the
    whole array, and one phase step."""
    il = 1j * lams[:, None]
    s = -0.5 + il
    lam2 = lams[:, None] ** 2 + 0.25
    m4 = 4.0 * np.arange(m_max + 1, dtype=float)[None, :] ** 2
    u = np.exp(-2.0 * far)
    a_prev = np.zeros((lams.size, m_max + 1), dtype=complex)
    a = np.ones((lams.size, m_max + 1), dtype=complex)
    g = np.ones((lams.size, m_max + 1, far.size), dtype=complex)
    mass = np.ones(g.shape)
    un = np.ones_like(u)
    prev = np.full(g.shape, np.inf)
    for k in range(1, 65):
        p, q = s - 2 * k + 2, s - 2 * k + 4
        a_prev, a = a, (((2.0 * p**2 + 2.0 * lam2 + m4) * a
                         - (q**2 - q + lam2) * a_prev) / (4 * k * (k - il)))
        un = un * u
        term = a[:, :, None] * un
        g += term
        size = np.abs(term)
        mass += size
        if np.all(size + prev <= np.finfo(float).eps * mass):
            break
        prev = size
    c = _gamma_ratio(1j * lams) / math.sqrt(math.pi)
    j = np.arange(1, m_max + 1, dtype=float)[None, :] - 0.5
    pi_m = np.concatenate([np.ones((lams.size, 1)),
                           np.cumprod((j - il) / (j + il), axis=1)], axis=1)
    w = (c[:, None] * np.exp(np.outer(1j * lams - 0.5, far)))[:, None, :] * g
    return pi_m[:, :, None] * w + np.conj(w)


@pytest.mark.parametrize("case", sorted(_TABLE_GRIDS))
def test_mode_table_in_blocks_matches_whole_array_bits(case):
    grid, pgrid = _TABLE_GRIDS[case](SpaceParams())
    table = tr.radial_mode_table(grid, pgrid, 31)
    assert table.tobytes() == _whole_array_table(grid, pgrid, 31).tobytes()


@pytest.mark.parametrize("case", sorted(_TABLE_GRIDS))
def test_expansion_by_order_matches_whole_array_bits(case):
    # every order sums the whole array's term count; the spline grid has
    # no radius past the switch, so its nodes take those of the grid
    # across the switch
    grid, pgrid = _TABLE_GRIDS[case](SpaceParams())
    rs = pgrid.r_nodes[pgrid.r_nodes > tr._SWITCH_RADIUS]
    if not rs.size:
        rs = _ACROSS_THE_SWITCH.r_nodes[
            _ACROSS_THE_SWITCH.r_nodes > tr._SWITCH_RADIUS]
    lams = grid.lambda_nodes
    ref = _whole_array_expansion(lams, rs, 31)
    assert _expansion(lams, rs, 31).tobytes() == ref.tobytes()


def _table_forward(pgrid, grid, samples):
    """forward_transform of one sample array through the whole mode table
    of radial_mode_table, one order at a time."""
    mk = tr._default_m_max(grid, pgrid)
    table = tr.radial_mode_table(grid, pgrid, mk)
    f_modes = np.fft.fft(samples, axis=1) / pgrid.n_theta
    wr = pgrid.r_weights * np.sinh(pgrid.r_nodes)
    packed = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    for m in range(-mk, mk + 1):
        packed[:, m % grid.n_b] = 2.0 * np.pi * (
            table[:, abs(m), :] @ (wr * f_modes[:, m % pgrid.n_theta]))
    return np.fft.ifft(packed, axis=1) * grid.n_b


def test_stacked_forward_matches_the_table_bits():
    # the plancherel scenario's bumps (seeds 0-4) on its (the
    # calibration's) grids, in one stacked call and as a 2-D stack
    grid, pgrid = _TABLE_GRIDS["calibration"](SpaceParams())
    bumps = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        center = 0.5 * math.sqrt(rng.random()) \
            * np.exp(2j * np.pi * rng.random())
        bumps.append(bump(pgrid, center, 0.7 + 0.5 * rng.random()))
    got = tr.forward_transform(pgrid, grid, np.stack(bumps), tail_tol=1e-8)
    assert len(got) == 5
    for c, f in zip(got, bumps):
        assert c.values.tobytes() == _table_forward(pgrid, grid, f).tobytes()
    square = tr.forward_transform(pgrid, grid,
                                  np.stack(bumps[:4]).reshape(2, 2, 128, 128))
    assert [c.values.tobytes() for c in square] == [
        c.values.tobytes() for c in got[:4]]


def _traced_peak(call):
    """call()'s value and the peak of the memory traced while it ran,
    above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = call()
        return value, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(_TABLE_GRIDS))
def test_cold_mode_table_costs_its_own_size_plus_blocks(case):
    grid, pgrid = _TABLE_GRIDS[case](SpaceParams())
    table, peak = _traced_peak(lambda: tr.radial_mode_table(grid, pgrid, 31))
    assert peak <= table.nbytes + _TABLE_SLACK


def _scenario_function(space, config):
    """The seed-0 test function of a scenario config and its polar grid."""
    grid, pgrid = _grids(load_config(ROOT / "configs" / f"{config}.ini"),
                         space)
    return synthesize(grid, seed=0), pgrid


def _table_route(coeffs, pgrid):
    """inverse_on_grid through the whole mode table of the grid's nodes:
    f_m(r) = sum_lam conj(Phi[lam, |m|, r]) w_lam c_m(lam)."""
    grid = coeffs.grid
    mk = tr._default_m_max(grid, pgrid)
    table = tr.radial_mode_table(grid, pgrid, mk)
    c_modes = np.fft.fft(coeffs.values, axis=1) / grid.n_b
    packed = np.zeros((pgrid.n_r, pgrid.n_theta), dtype=complex)
    for m in range(-mk, mk + 1):
        packed[:, m % pgrid.n_theta] = np.conj(table[:, abs(m), :]).T @ (
            grid.lambda_measure * c_modes[:, m % grid.n_b])
    return np.fft.ifft(packed, axis=1) * pgrid.n_theta


def test_evaluation_across_the_switch_radius_matches_the_table_route(
        space):
    # 38 of the 96 radii lie beyond _SWITCH_RADIUS and take the expansion
    f, _ = _scenario_function(space, "frame_reconstruct")
    pgrid = tr.build_polar_grid(6.0, 96, 64)
    assert 0 < np.count_nonzero(pgrid.r_nodes > tr._SWITCH_RADIUS) < 96
    got = f.on_grid(pgrid)
    ref = _table_route(f, pgrid)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


_ROTATIONS = (1, 2, 5)


def test_forward_transform_commutes_with_rotation():
    # rolling the samples by 2k of 128 polar angles rotates the function
    # by k of the 64 boundary angles, and so rolls its coefficients by k
    grid, pgrid = _TABLE_GRIDS["calibration"](SpaceParams())
    f = bump(pgrid, center=0.3 + 0.2j, width=0.8)
    stack = np.stack([f] + [np.roll(f, 2 * k, axis=1) for k in _ROTATIONS])
    c0, *rotated = tr.forward_transform(pgrid, grid, stack, tail_tol=1e-8)
    for k, c in zip(_ROTATIONS, rotated):
        shifted = np.roll(c0.values, k, axis=1)
        assert np.max(np.abs(c.values - shifted)) \
            <= 1e-14 * np.max(np.abs(c0.values))


def test_inverse_on_grid_commutes_with_rotation(space):
    # the frame_reconstruct test function on its polar grid at 128 angles:
    # rolling the coefficients by k of 64 boundary angles rolls the values
    # by 2k polar angles
    f, frame_pgrid = _scenario_function(space, "frame_reconstruct")
    pgrid = tr.build_polar_grid(frame_pgrid.r_max, frame_pgrid.n_r, 128)
    assert pgrid.n_theta == 2 * f.grid.n_b
    v0 = f.on_grid(pgrid)
    for k in _ROTATIONS:
        rolled = BandlimitedFunction(f.grid, np.roll(f.values, k, axis=1))
        v = tr.inverse_on_grid(rolled, pgrid)
        assert np.max(np.abs(v - np.roll(v0, 2 * k, axis=1))) \
            <= 1e-14 * np.max(np.abs(v0))


def test_cold_band_evaluation_tabulates_only_the_band(space):
    # the real mode coefficients G of the band (20 x 160 x 32, 0.8 MB) and
    # their transients: no lambda table, whose band rows alone are 3.9 MB
    f, pgrid = _scenario_function(space, "frame_reconstruct")
    _, peak = _traced_peak(lambda: f.on_grid(pgrid))
    assert peak <= 3e6


def test_cold_calibration_streams_its_mode_orders(calibration):
    tr.calibrate_plancherel.cache_clear()
    try:
        cold, peak = _traced_peak(tr.calibrate_plancherel)
    finally:
        tr.calibrate_plancherel.cache_clear()
    assert cold.scale == calibration.scale
    # the near radii's real coefficients G (2.6 MB), the samples and
    # transients, not the lam <= 24 table (6.3 MB): 13.5-14.4 MB with it
    assert peak <= 7.5e6


def test_laplacian_symbol_end_to_end(space):
    # inverse(symbol * hat f) equals the radial FD Laplacian of inverse(hat f)
    grid = build_grid(space, omega=16.0, n_lambda=64, n_b=32)
    pg = tr.build_polar_grid(6.0, 96, 64)
    f = bump(pg, width=0.6)
    c = tr.forward_transform(pg, grid, f, tail_tol=None)
    lap = apply_multiplier(c, laplacian_multiplier())
    h, r0 = 1e-3, 0.8
    pts = np.tanh(np.array([r0 - h, r0, r0 + h]) / 2.0)
    v = tr.inverse_transform(c, pts).real
    fd = (v[0] - 2.0 * v[1] + v[2]) / h**2 + (v[2] - v[0]) / (2.0 * h) / math.tanh(r0)
    sym = tr.inverse_transform(lap, np.array([pts[1]]))[0].real
    assert fd == pytest.approx(sym, rel=1e-5)


def test_translation_covariance(pgrid, grid):
    # moving the bump by an isometry leaves the spectral norm unchanged
    f0 = bump(pgrid, center=0.0, width=0.4)
    f1 = bump(pgrid, center=mobius_translate(0.2, 0.0), width=0.4)
    c0 = tr.forward_transform(pgrid, grid, f0, tail_tol=None)
    c1 = tr.forward_transform(pgrid, grid, f1, tail_tol=None)
    assert c0.norm() == pytest.approx(c1.norm(), rel=1e-6)
