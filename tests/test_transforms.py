"""Transform oracles: quadrature exactness, mode-table cross-checks, route
agreement, adjointness, Parseval balance and calibration."""

import math
from collections import OrderedDict

import mpmath as mp
import numpy as np
import pytest

from hypersample import transforms as tr
from hypersample.errors import (CalibrationInconsistent, NumericalFailure,
                               TailMassExceeded)
from hypersample.geometry import ball_volume, busemann, distance, mobius_translate
from hypersample.spectral import (SpectralCoeffs, apply_multiplier, build_grid,
                                  laplacian_multiplier, spherical_function)


@pytest.fixture
def pgrid():
    return tr.build_polar_grid(2.5, 64, 64)


@pytest.fixture
def grid(space):
    return build_grid(space, lam_max=12.0, n_lambda=48, n_b=32)


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
    # r <= 4 entries come from circle quadrature of the plane-wave series,
    # r > 4 entries from the Harish-Chandra expansion; the scalar oracle is
    # the Busemann average, which sums the same plane_wave_series, so the
    # check independent of that series is the mpmath one below
    grid = build_grid(space, lam_max=12.0, n_lambda=16, n_b=16)
    pg = tr.build_polar_grid(8.0, 24, 16)
    tab = tr.radial_mode_table(grid, pg, 4)
    ref = spherical_function(grid.lambda_nodes[:, None], pg.r_nodes[None, :])
    assert np.max(np.abs(tab[:, 0, :] - ref)) < 1e-12
    assert np.max(np.abs(tab[:, 0, :].imag)) < 1e-9


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


def test_mode_table_ode_residual():
    # far-field (expansion) values must satisfy the radial mode equation
    h = 1e-3
    lams = np.linspace(0.5, 10.0, 6)
    vals = tr._modes_by_expansion(lams, np.array([6.0 - h, 6.0, 6.0 + h]), 3)
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
    vals = tr._modes_by_expansion(lams, rs, max(ms))
    err = max(abs(vals[i, m, k] - _mode_by_mpmath(lam, m, r))
              for i, lam in enumerate(lams) for m in ms
              for k, r in enumerate(rs))
    assert err <= 1e-12


def test_mode_table_near_entries_match_mpmath():
    lams = np.array([6e-4, 0.3, 3.0, 10.0])
    rs = np.array([0.5, 1.4, 2.0, 3.0])
    ms = (0, 5, 31)
    vals = tr._modes_by_quadrature(lams, rs, max(ms))
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
    # (the calibration grid's largest radii carry the most)
    grid = build_grid(space, lam_max, 96, 64, omega)
    pg = tr.build_polar_grid(r_max, n_r, n_theta)
    m_max = tr._default_m_max(grid, pg)
    near = pg.r_nodes <= tr._SWITCH_RADIUS
    tab = tr.radial_mode_table(grid, pg, m_max)[:, :, near]
    ref = _modes_by_direct_exp(grid.lambda_nodes, pg.r_nodes[near], m_max)
    assert np.max(np.abs(tab - ref)) <= tol


def test_mode_expansion_fails_loudly_near_the_origin():
    # at r = 0.5 the series in e^{-2r} is far from roundoff after its cap
    with pytest.raises(NumericalFailure):
        tr._modes_by_expansion(np.array([1.0]), np.array([0.5]), 31)


def test_mode_table_quadrature_ode_residual():
    # quadrature-built entries satisfy the same equation (m = 2, r < 4)
    h = 1e-3
    lams = np.linspace(0.5, 8.0, 5)
    vals = tr._modes_by_quadrature(lams, np.array([1.5 - h, 1.5, 1.5 + h]), 2)
    _ode_residual_ok(lams, vals[:, 2, :], 1.5, 2, h)


def test_forward_routes_agree_zonal(pgrid, grid):
    f = bump(pgrid)
    c_mode = tr.forward_transform(pgrid, grid, f, tail_tol=None)
    c_dir = tr.forward_transform_direct(pgrid, grid, f)
    rel = np.max(np.abs(c_mode.values - c_dir.values)) / np.max(np.abs(c_dir.values))
    assert rel < 1e-7


def test_forward_routes_agree_offcenter(space, pgrid):
    # lam * sinh(center radius) small keeps the mode content inside m_max
    grid8 = build_grid(space, lam_max=8.0, n_lambda=40, n_b=64)
    f = bump(pgrid, center=0.15 + 0.05j)
    c_mode = tr.forward_transform(pgrid, grid8, f, tail_tol=None)
    c_dir = tr.forward_transform_direct(pgrid, grid8, f)
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
    from hypersample.spectral import SpectralCoeffs
    g = SpectralCoeffs(grid, rng.standard_normal((grid.n_lambda, grid.n_b))
                       + 1j * rng.standard_normal((grid.n_lambda, grid.n_b)))
    lhs = pgrid.inner(tr.inverse_on_grid(g, pgrid), f)
    rhs = g.inner(tr.forward_transform(pgrid, grid, f, tail_tol=None))
    # <F* g, f> == <g, F f>
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_roundtrip_gaussian(space):
    grid = build_grid(space, lam_max=16.0, n_lambda=64, n_b=32)
    pg = tr.build_polar_grid(6.0, 96, 64)
    f = bump(pg, center=0.1, width=0.5)
    c = tr.forward_transform(pg, grid, f, tail_tol=1e-8)
    back = tr.inverse_on_grid(c, pg)
    assert np.max(np.abs(back - f)) / np.max(np.abs(f)) < 1e-7


def test_parseval_after_calibration(space):
    grid = build_grid(space, lam_max=24.0, n_lambda=96, n_b=64)
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
    def starved(space, lam_max, n_lambda, n_b):
        return build_grid(space, 2.0, 24, n_b)

    monkeypatch.setattr(tr, "build_grid", starved)
    with pytest.raises(CalibrationInconsistent):
        tr.calibrate_plancherel()


def test_tail_mass_guard(pgrid, grid):
    f = bump(pgrid, center=0.975, width=0.2)  # mass near the rim
    assert tr.tail_mass_fraction(pgrid, f) > 1e-3
    with pytest.raises(TailMassExceeded):
        tr.forward_transform(pgrid, grid, f, tail_tol=1e-6)
    tr.forward_transform(pgrid, grid, f, tail_tol=None)  # explicit opt-out


def test_forward_shape_guard(pgrid, grid):
    with pytest.raises(ValueError):
        tr.forward_transform(pgrid, grid, np.zeros((3, 3)))


def test_inverse_transform_matches_grid_route(space, pgrid):
    # the point route sums the kernel over the discrete boundary circle, so
    # it needs n_b to exceed the kernel mode content lam_max * sinh(r) at
    # the evaluation radius; stay at r <= 1.5 with n_b = 128
    grid = build_grid(space, lam_max=12.0, n_lambda=48, n_b=128)
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
    grid = build_grid(space, lam_max=12.0, n_lambda=48, n_b=32)
    rng = np.random.default_rng(11)
    c = SpectralCoeffs(grid, rng.standard_normal((48, 32))
                       + 1j * rng.standard_normal((48, 32)))
    radius = 0.95 * np.sqrt(rng.random(150))
    radius[0], radius[1] = 0.95, 0.0
    pts = (radius * np.exp(2j * np.pi * rng.random(150))).reshape(10, 15)
    a = busemann(pts.ravel()[:, None], grid.boundary_angles[None, :])
    waves = np.exp((1j * grid.lambda_nodes[:, None, None] + grid.rho)
                   * a[None, :, :])
    weighted = grid.lambda_measure[:, None] * c.values / grid.n_b
    ref = np.einsum("lpb,lb->p", waves, weighted).reshape(pts.shape)
    got = tr.inverse_transform(c, pts)
    assert got.shape == pts.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert tr.inverse_transform(c, np.zeros(0)).shape == (0,)


def test_mode_table_cache_is_read_only_and_bounded(space, monkeypatch):
    monkeypatch.setattr(tr, "_TABLE_CACHE", OrderedDict())
    grid = build_grid(space, lam_max=4.0, n_lambda=8, n_b=8)

    def table(n_r):
        return tr.radial_mode_table(grid, tr.build_polar_grid(1.0, n_r, 8), 2)

    first = table(4)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 0.0
    sizes = range(5, 5 + tr._TABLE_CACHE_SIZE + 2)
    tables = {}
    for n_r in sizes:
        tables[n_r] = table(n_r)
        # a hit refreshes the first table, so it is never the one evicted
        assert table(4) is first
        assert len(tr._TABLE_CACHE) <= tr._TABLE_CACHE_SIZE
    assert table(sizes[-1]) is tables[sizes[-1]]
    assert table(sizes[0]) is not tables[sizes[0]]


def test_laplacian_symbol_end_to_end(space):
    # inverse(symbol * hat f) equals the radial FD Laplacian of inverse(hat f)
    grid = build_grid(space, lam_max=16.0, n_lambda=64, n_b=32)
    pg = tr.build_polar_grid(6.0, 96, 64)
    f = bump(pg, width=0.6)
    c = tr.forward_transform(pg, grid, f, tail_tol=None)
    lap = apply_multiplier(c, laplacian_multiplier(space))
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
