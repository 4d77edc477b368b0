"""Spectral oracles: density identity, eigenfunction checks, grid quadrature
and coefficient algebra."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval, chebvander
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from hypersample import spectral as sp
from hypersample.errors import MultiplierVanishes, NumericalFailure
from hypersample.geometry import PAIR_BLOCK, RHO, busemann
from hypersample.transforms import BandlimitedFunction, apply_multiplier

from helpers import laplacian_multiplier


def test_density_gamma_quotient_is_lam_tanh():
    # |Gamma(1/2+i lam)|^2 / |Gamma(i lam)|^2 == lam * tanh(pi * lam)
    lam = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.linspace(1.0, 60.0, 60)])
    d = sp.plancherel_density(lam)
    ref = lam * np.tanh(np.pi * lam)
    assert np.max(np.abs(d / ref - 1.0)) < 1e-12


_ORACLE_LAMS = np.concatenate([np.geomspace(1e-4, 500.0, 60),
                               [6e-4, 0.3, 3.0, 10.0, 23.996, 24.0]])


def test_gamma_ratio_matches_mpmath():
    # Gamma(z) / Gamma(z + 1/2) at 30 digits: on the imaginary axis (the
    # c-function's arguments) and at a few points of the right half plane
    z = np.concatenate([1j * _ORACLE_LAMS,
                        [0.3 + 2j, 5.0 + 0.1j, 12.0 + 40j, 0.5 - 7j, 30.0]])
    got = sp._gamma_ratio(z)
    with mp.workdps(30):
        ref = np.array([complex(mp.gamma(mp.mpc(w.real, w.imag))
                                / mp.gamma(mp.mpc(w.real + 0.5, w.imag)))
                        for w in z])
    assert np.max(np.abs(got / ref - 1.0)) <= 2e-15


def test_density_matches_mpmath():
    # the density is the Gamma quotient of its definition, to roundoff
    got = sp.plancherel_density(_ORACLE_LAMS)
    with mp.workdps(30):
        ref = np.array([float(abs(mp.gamma(mp.mpc(0.5, lam))
                                  / mp.gamma(mp.mpc(0, lam))) ** 2)
                        for lam in _ORACLE_LAMS])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-15
    ratio = sp._gamma_ratio(1j * _ORACLE_LAMS)
    assert np.max(np.abs(got * np.abs(ratio) ** 2 - 1.0)) <= 4e-15


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129])
def test_chebyshev_fit_is_the_dct_ii(n, monkeypatch):
    # the FFT route against the defining cosine sum, real and complex
    # samples, one and two columns (the tail check is switched off)
    monkeypatch.setattr(sp, "_SERIES_TOL", math.inf)
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    j = np.arange(n)
    cos = np.cos(np.pi * np.outer(j, j + 0.5) / n) * (2.0 / n)
    cos[0] /= 2.0
    for sample in (v.real, v, v[:, 0]):
        got = sp._chebyshev_fit(lambda x: sample, n - 1, "test")
        assert got.dtype == sample.dtype
        assert np.max(np.abs(got - cos @ sample)) <= 1e-14


def test_density_scale_and_domain():
    lam = np.array([0.5, 2.0])
    assert np.allclose(sp.plancherel_density(lam, 3.0), 3.0 * sp.plancherel_density(lam))
    with pytest.raises(ValueError):
        sp.plancherel_density(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        sp.plancherel_density(-1.0)


def test_density_high_frequency_ratio():
    # density ~ lam for large lam, so density(2 lam)/density(lam) -> 2
    assert sp.plancherel_density(40.0) / sp.plancherel_density(20.0) == pytest.approx(2.0, abs=1e-10)


def test_spherical_function_normalization_and_bound():
    lam = np.array([0.3, 1.0, 5.0, 12.0])
    assert np.max(np.abs(sp.spherical_function(lam, 0.0) - 1.0)) < 1e-13
    r = np.linspace(0.0, 6.0, 25)
    vals = sp.spherical_function(lam[:, None], r[None, :])
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_spherical_function_vs_conical_legendre():
    # independent route: phi_lam(r) = P_{-1/2 + i lam}(cosh r)
    mp.mp.dps = 30
    for lam in (0.5, 2.0, 7.3):
        for r in (0.3, 1.0, 3.5):
            ref = complex(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(r), type=3)).real
            assert sp.spherical_function(lam, r) == pytest.approx(ref, abs=5e-14)


def test_spherical_function_eigen_ode():
    # phi'' + coth(r) phi' + (lam^2 + 1/4) phi = 0
    h = 5e-4
    for lam in (0.7, 4.0):
        for r0 in (0.5, 2.0):
            r = np.array([r0 - h, r0, r0 + h])
            v = sp.spherical_function(lam, r)
            d2 = (v[0] - 2.0 * v[1] + v[2]) / h**2
            d1 = (v[2] - v[0]) / (2.0 * h)
            resid = d2 + d1 / math.tanh(r0) + (lam**2 + 0.25) * v[1]
            assert abs(resid) < 1e-5 * (lam**2 + 0.25)


def test_spherical_function_matches_mpmath_on_both_routes():
    # the Busemann average up to r = 4, the Harish-Chandra expansion beyond
    # (at lam = 0 exactly, the c-function's pole, it is taken at 1e-10)
    mp.mp.dps = 30
    lams = np.array([0.0, 1e-6, 0.3, 1.0, 3.0, 8.0, 12.0, 24.0, 40.0])
    rs = np.array([0.05, 0.7, 2.5, 3.9, 4.0, 4.1, 5.0, 6.5, 8.0, 10.0, 12.0])
    for r_range in (rs, rs[rs < sp._SWITCH_RADIUS]):
        vals = sp.spherical_function(lams[:, None], r_range[None, :])
        ref = np.array([[float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0,
                                               mp.cosh(r), type=3)))
                         for r in r_range] for lam in lams])
        assert np.max(np.abs(vals - ref)) <= 2e-14


@pytest.mark.parametrize("lam, r", [(20.0, 6.0), (30.0, 3.5), (11.9, 7.98)])
def test_spherical_function_high_frequency_vs_conical_legendre(lam, r):
    # inside the analyticity strip e^{i lam A} grows like e^{lam pi / 2};
    # the boundary angle count must cover that growth, not only the strip
    mp.mp.dps = 30
    ref = float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(r), type=3)))
    assert sp.spherical_function(lam, r) == pytest.approx(ref, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 30.0), r=st.floats(0.0, 4.0))
def test_spherical_function_properties(lam, r):
    # even in lam and in r, phi_lam(0) = 1 and |phi_lam| <= 1
    phi = sp.spherical_function(lam, r)
    assert sp.spherical_function(-lam, r) == phi
    assert sp.spherical_function(lam, -r) == phi
    assert abs(phi) <= 1.0 + 1e-12
    assert abs(sp.spherical_function(lam, 0.0) - 1.0) <= 1e-13


@pytest.mark.parametrize("lam_max, a_max, cols, deg", [
    (20.0, 3.0, (3,), 60 + 64),
    # at lam * a_max = 480 the 64-degree margin leaves a tail above
    # roundoff, so the degree doubles once
    (60.0, 8.0, (), 2 * (480 + 64)),
])
def test_plane_wave_series_matches_direct_sum(lam_max, a_max, cols, deg):
    rng = np.random.default_rng(3)
    lams = np.linspace(0.1, lam_max, 50)
    coeffs = rng.standard_normal((50,) + cols) \
        + 1j * rng.standard_normal((50,) + cols)
    series = sp.plane_wave_series(lams, coeffs, a_max)
    assert series.shape == (deg + 1,) + cols
    a = np.linspace(-a_max, a_max, 257)
    ref = np.exp(1j * np.outer(a, lams)) @ coeffs
    got = chebval(a / a_max, series).T
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(coeffs))


@pytest.mark.parametrize("n_points, n_angles, deg", [
    (1, 7, 5),           # a single point: one block of one row
    (300, 33, 40),       # odd angle count, one block
    (70, 4001, 12),      # several blocks of PAIR_BLOCK / n_angles rows
    (5, 40001, 3),       # two-row blocks; the one-row remainder joins
])
def test_horocycle_planes_are_weighted_chebyshev_rows(n_points, n_angles,
                                                      deg):
    # the planes, stacked, are e^{rho A} T_k(A / a_max) at every (point,
    # angle), built in row_blocks: no plane holds more than PAIR_BLOCK
    # entries or two rows, except that a one-row remainder joins the last
    rng = np.random.default_rng(n_points + n_angles)
    pts = 0.9 * np.sqrt(rng.random(n_points)) \
        * np.exp(2j * np.pi * rng.random(n_points))
    angles = 2.0 * np.pi * rng.random(n_angles)
    a_max = sp._radius_bound(pts)
    got = np.full((n_points, n_angles, deg), np.nan)
    seen = []
    for blk, k, plane in sp._horocycle_planes(pts, angles, a_max, deg):
        assert plane.shape == (blk.stop - blk.start, n_angles)
        last = n_angles if blk.stop == n_points else 0
        assert plane.size <= max(2 * n_angles, PAIR_BLOCK) + last
        got[blk, :, k] = plane
        seen.append((blk.start, k))
    assert seen == sorted(seen)
    a = busemann(pts[:, None], angles[None, :])
    weight = np.exp(RHO * a)
    ref = weight[:, :, None] * chebvander(a / a_max, deg - 1)
    assert np.max(np.abs(got - ref) / weight[:, :, None]) <= 1e-13


def test_plane_wave_series_tail_check_raises_at_degree_cap(monkeypatch):
    monkeypatch.setattr(sp, "_SERIES_MAX_DEG", 40)
    lams = np.linspace(0.1, 20.0, 40)
    with pytest.raises(NumericalFailure, match="degree 40") as info:
        sp.plane_wave_series(lams, np.ones(40), 3.0)
    assert isinstance(info.value, ArithmeticError)
    with pytest.raises(ValueError):
        sp.plane_wave_series(lams, np.ones(40), 0.0)


@pytest.mark.parametrize("decay", [0.0, 4.0, 8.0])
def test_series_are_cut_at_the_roundoff_floor(decay, monkeypatch):
    # each fit ends on a coefficient above the floor; what the cut drops is
    # at or below it, and weights that decay in lam give shorter series
    lams = np.linspace(0.1, 20.0, 50)
    weights = np.random.default_rng(5).standard_normal((50, 2)) \
        / (1.0 + lams[:, None]) ** decay
    fits = (sp.plane_wave_series(lams, weights, 3.0),
            sp.plane_wave_series(lams, weights[:, 0] * 1j, 3.0),
            sp.zonal_series(lams, weights[:, 0], 2.8))
    floor = sp._SERIES_FLOOR
    for series in fits:
        top = np.max(np.abs(series).reshape(len(series), -1), axis=1)
        assert top[-1] > floor * top.max()
    monkeypatch.setattr(sp, "_SERIES_FLOOR", 0.0)
    full = sp.plane_wave_series(lams, weights, 3.0)
    cut = fits[0]
    assert np.array_equal(full[:len(cut)], cut)
    if decay:
        assert len(cut) < len(full)
    assert np.max(np.abs(full[len(cut):]), initial=0.0) \
        <= floor * np.max(np.abs(full))


def test_zero_coefficients_give_a_constant_series():
    lams = np.linspace(0.1, 20.0, 50)
    for coeffs in (np.zeros(50), np.zeros((50, 3), dtype=complex)):
        series = sp.plane_wave_series(lams, coeffs, 3.0)
        assert series.shape == (1,) + coeffs.shape[1:]
        assert not np.any(series)
    assert np.array_equal(sp.zonal_series(lams, np.zeros(50), 2.0), [0.0])


def test_gauss_legendre_rules_are_memoised_read_only_and_bounded():
    x, w = sp._gauss_legendre(12)
    ref_x, ref_w = leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = sp._gauss_legendre(12)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for n in range(2, 40):
        sp._gauss_legendre(n)
    info = sp._gauss_legendre.cache_info()
    assert info.maxsize == 16 and info.currsize <= 16


def test_zonal_series_reproduces_spline_kernel_table():
    # the spline kernel's table is this series on its linspace, bit for bit
    from hypersample import splines
    t_max, k = 2.8, 2
    kern = splines.polyharmonic_kernel(k, t_max=t_max)
    nodes, weights = splines._kernel_lambda_grid(kern.lam_max)
    coef = weights * sp.plancherel_density(nodes, sp.PLANCHEREL_SCALE) \
        * (nodes ** 2 + RHO * RHO) ** (-2 * k)
    series = sp.zonal_series(nodes, coef, t_max)
    got = chebval(2.0 * kern.table_t / t_max - 1.0, series)
    assert np.array_equal(got, kern.table_values)


@pytest.mark.parametrize("t_max", [0.7, 2.8, 4.0, 6.0, 12.0])
def test_zonal_series_matches_legendre_sum(t_max):
    # K(t) = sum_i c_i P_{-1/2 + i lam_i}(cosh t), against mpmath
    lams = np.linspace(0.05, 2.0, 9)
    coeffs = 1.0 / (1.0 + lams)
    series = sp.zonal_series(lams, coeffs, t_max)
    t = np.array([0.0, 0.31, 0.5 * t_max, 0.93 * t_max, t_max])
    ref = np.array([math.fsum(
        c * float(mp.re(mp.legenp(-0.5 + 1j * lam, 0, mp.cosh(tt))))
        for lam, c in zip(lams, coeffs)) for tt in t])
    got = chebval(2.0 * t / t_max - 1.0, series)
    assert np.max(np.abs(got - ref)) <= 1e-13 * coeffs.sum()


def test_busemann_angle_count_grows_with_radius():
    # zonal_sum asks for radii up to the switch radius only
    counts = [sp._busemann_angle_count(2.0, t)
              for t in (1.0, 2.8, sp._SWITCH_RADIUS)]
    counts.append(sp._busemann_angle_count(30.0, sp._SWITCH_RADIUS))
    assert all(c % 64 == 0 for c in counts)
    assert counts == sorted(counts) and counts[0] >= 256


@pytest.fixture
def grid():
    return sp.build_grid(6.0, 24, 32)


def test_build_grid_band_panel(grid):
    # one panel, and it is the band
    assert grid.n_band == grid.n_lambda == 24
    assert grid.omega == 6.0
    assert 0.0 < grid.lambda_nodes[0] and grid.lambda_nodes[-1] < 6.0
    assert np.all(np.diff(grid.lambda_nodes) > 0)
    # weights integrate constants over [0, omega] exactly
    assert math.fsum(grid.lambda_weights) == pytest.approx(6.0, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(omega=st.floats(0.05, 50.0), n_lambda=st.integers(2, 200))
def test_build_grid_nodes_lie_inside_the_band(omega, n_lambda):
    grid = sp.build_grid(omega, n_lambda, 8)
    nodes = grid.lambda_nodes
    assert nodes.size == n_lambda and grid.omega == omega
    assert 0.0 < nodes[0] and nodes[-1] < omega
    assert np.all(grid.density > 0)
    assert math.fsum(grid.lambda_weights) == pytest.approx(omega, rel=1e-13)


def test_build_grid_quadrature_accuracy(grid):
    # the Gauss-Legendre panel against adaptive quadrature of a smooth
    # integrand
    f = lambda lam: math.exp(-0.1 * lam) * math.cos(lam)
    ref = quad(f, 0.0, 6.0)[0]
    got = math.fsum(grid.lambda_weights * np.exp(-0.1 * grid.lambda_nodes) * np.cos(grid.lambda_nodes))
    assert got == pytest.approx(ref, abs=1e-12)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        sp.build_grid(10.0, 16, 31)  # odd n_b
    with pytest.raises(ValueError):
        sp.build_grid(10.0, 16, 2)
    with pytest.raises(ValueError):
        sp.build_grid(10.0, 1, 32)
    with pytest.raises(ValueError):
        sp.build_grid(0.0, 16, 32)
    with pytest.raises(ValueError):
        sp.build_grid(-1.0, 16, 32)


def test_grid_n_band_and_angles(grid):
    assert grid.n_band == grid.n_lambda
    th = grid.boundary_angles
    assert th.size == 32 and th[0] == 0.0
    assert np.allclose(np.diff(th), 2.0 * np.pi / 32)


def test_coeffs_norm_constant_field(grid):
    # unit coefficients: ||c||^2 = int_0^omega density(lam) dlam
    c = BandlimitedFunction(grid, np.ones((grid.n_lambda, grid.n_b),
                                          dtype=complex))
    ref = quad(lambda l: float(sp.plancherel_density(l, sp.PLANCHEREL_SCALE)),
               0.0, 6.0)[0]
    # density has poles at lam = +/- i/2, so panel quadrature is geometric
    # but not exact; 24 nodes on [0, 6] reach ~1e-11 relative
    assert c.norm_sq() == pytest.approx(ref, rel=5e-9)


def test_coeffs_shape_check(grid):
    with pytest.raises(ValueError):
        BandlimitedFunction(grid, np.zeros((3, 3)))


def test_multipliers_and_apply(grid):
    lap = laplacian_multiplier()
    vals = lap(grid.lambda_nodes)
    assert np.allclose(vals, -(grid.lambda_nodes**2 + 0.25))
    sob = sp.sobolev_multiplier(-2.0)
    assert np.allclose(sob(grid.lambda_nodes), (grid.lambda_nodes**2 + 0.25) ** -2.0)

    rng = np.random.default_rng(9)
    c = BandlimitedFunction(
        grid, rng.standard_normal((grid.n_lambda, grid.n_b)) + 0j)
    for m in (lap, sp.sobolev_multiplier(1.5)):
        forward = apply_multiplier(c, m)
        back = forward.values / m.band_values(grid)[:, None]
        assert np.max(np.abs(back - c.values)) < 1e-13
    ident = apply_multiplier(c, sp.IDENTITY)
    assert np.array_equal(ident.values, c.values)
    # the zeroth Sobolev power is the identity, bit for bit
    assert np.array_equal(sp.sobolev_multiplier(0.0)(grid.lambda_nodes),
                          sp.IDENTITY(grid.lambda_nodes))


def test_band_values_refuse_a_vanishing_multiplier(grid):
    crossing = sp.Multiplier(fn=lambda lam: lam - lam, label="zero")
    with pytest.raises(MultiplierVanishes):
        crossing.band_values(grid)


def test_multiplier_band_values(grid):
    m = sp.sobolev_multiplier(1.0)
    vals = m.band_values(grid)
    assert np.array_equal(vals, m(grid.lambda_nodes))
    assert np.min(np.abs(vals)) == pytest.approx(grid.lambda_nodes[0] ** 2 + 0.25)

