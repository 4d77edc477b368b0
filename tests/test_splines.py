"""Polyharmonic spline tests.

The variational checks work on a wide spectral grid covering the kernel's
own cutoff, so seminorms of the (not band-limited) interpolants are
quadrature-consistent with the kernel tabulation.  Library grids hold only
the band, so the module builds that grid itself: the band panel and a tail
panel up to the cutoff.  The order-escalation tests document where double
precision stops: at unit-scale lattices the k = 4 kernel matrix already
fails Cholesky, so schedules abort there.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from hypersample import spectral, splines
from hypersample.bandlimited import synthesize
from hypersample.cli import main
from hypersample.errors import (MultiplierVanishes, NumericalFailure,
                                ProblemTooLarge, SingularKernel, TailTooLarge)
from hypersample.geometry import (PAIR_BLOCK, RHO, busemann, distance,
                                  random_ball_points)
from hypersample.lattice import Lattice, build_lattice
from hypersample.sampling import SampleSet, convolution_samples, point_samples
from hypersample.spectral import (IDENTITY, Multiplier, SpectralGrid,
                                  build_grid, plancherel_density,
                                  sobolev_multiplier, spherical_function,
                                  zonal_series, zonal_sum)
from hypersample.sphavg import AverageSpec, average_multiplier
from hypersample.splines import (_kernel_lambda_grid, _kernel_matrix,
                                 build_splines,
                                 polyharmonic_kernel, spline_band_projection,
                                 spline_interpolate,
                                 spline_reconstruct_deconvolve)
from hypersample.transforms import (BandlimitedFunction, apply_multiplier,
                                    build_polar_grid)

OMEGA = 1.0
DOMAIN = 2.0
R = 0.8


@pytest.fixture(scope="module")
def kern2(space):
    return polyharmonic_kernel(space, 2, t_max=3.0)


@pytest.fixture(scope="module")
def lat():
    return build_lattice(R, DOMAIN, seed=0)


@pytest.fixture(scope="module")
def sys2(space, lat):
    return build_splines(lat, 2, space=space)


@pytest.fixture(scope="module")
def grid(space):
    return build_grid(space, OMEGA, 48, 64)


@pytest.fixture(scope="module")
def wide(space, sys2):
    # covers the kernel's own spectral support, so seminorms of spline
    # interpolants can be formed by direct quadrature: 144 Gauss-Legendre
    # nodes on the band [0, omega] and 144 on (omega, lam_max]
    panels = [spectral._gl_panel(0.0, OMEGA, 144),
              spectral._gl_panel(OMEGA, sys2.kernel.lam_max, 144)]
    nodes, weights = (np.concatenate(part) for part in zip(*panels))
    return SpectralGrid(nodes, weights,
                        plancherel_density(nodes, space.plancherel_scale),
                        n_b=384, omega=OMEGA,
                        plancherel_scale=space.plancherel_scale)


@pytest.fixture(scope="module")
def f(grid):
    return synthesize(grid, seed=0)


@pytest.fixture(scope="module")
def samples(f, lat):
    return point_samples(f, lat)


@pytest.fixture(scope="module")
def interp(sys2, samples):
    return spline_interpolate(sys2, samples)


@pytest.fixture(scope="module")
def pgrid():
    return build_polar_grid(r_max=DOMAIN, n_r=160, n_theta=96)


@pytest.fixture(scope="module")
def waves(sys2, wide):
    """e^{(-i lam + rho) A(x_j, b)} at the lattice points x_j over the wide
    grid, shape (N, n_lambda, n_b) (147 MB): built once for every
    _expansion_field of the module."""
    a = busemann(sys2.lattice.points[:, None], wide.boundary_angles[None, :])
    lam = wide.lambda_nodes
    return np.exp((-1j * lam[None, :, None] + RHO) * a[:, None, :])


def _expansion_field(beta, waves, wide, k):
    """Full-spectrum transform of sum_j beta_j K_2k(d(., x_j)) on the grid."""
    lam = wide.lambda_nodes
    fac = (lam ** 2 + RHO ** 2) ** (-2 * k)
    return fac[:, None] * np.tensordot(beta, waves, axes=1)


def _inner_2k(fa, fb, wide, k):
    """<Delta^k a, Delta^k b> by spectral quadrature."""
    lam = wide.lambda_nodes
    w = wide.lambda_measure * (lam ** 2 + RHO ** 2) ** (2 * k)
    return complex(np.sum(w[:, None] * np.conj(fa) * fb) / wide.n_b)


# ---------------------------------------------------------------- kernel

def test_kernel_matches_direct_quadrature(space, kern2):
    # independent oracle: conical Legendre function under mpmath quadrature
    scale = space.plancherel_scale
    with mpmath.workdps(30):
        for t in (0.7, 1.9):
            ch = mpmath.cosh(t)

            def integrand(lam):
                phi = mpmath.re(mpmath.legenp(-0.5 + 1j * lam, 0, ch))
                dens = lam * mpmath.tanh(mpmath.pi * lam) * scale
                return (lam ** 2 + RHO ** 2) ** (-4) * phi * dens

            ref = mpmath.quad(integrand, [0, 2, kern2.lam_max])
            assert abs(kern2(t) - float(ref)) <= 1e-8 * abs(float(ref))


def test_kernel_value_at_zero(space, kern2):
    # phi = 1 at t = 0, so K(0) is a plain density integral
    scale = space.plancherel_scale
    with mpmath.workdps(30):
        ref = mpmath.quad(
            lambda lam: (lam ** 2 + RHO ** 2) ** (-4)
            * lam * mpmath.tanh(mpmath.pi * lam) * scale,
            [0, 2, kern2.lam_max])
    assert abs(kern2(0.0) - float(ref)) <= 1e-8 * float(ref)


def test_kernel_peaks_at_origin(kern2):
    assert np.all(kern2.table_values <= kern2(0.0) * (1 + 1e-12))
    assert kern2(1.3) < kern2(0.2) < kern2(0.0)


def test_kernel_call_contract(kern2):
    val = kern2(0.5)
    assert isinstance(val, float)
    arr = kern2(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert arr.shape == (2, 2)
    with pytest.raises(ValueError):
        kern2(kern2.t_max + 0.1)
    with pytest.raises(ValueError):
        kern2(-0.01)


def test_kernel_tail_guard(space):
    # k = 1 tail decays like lam^-2: the tail tolerance is out of reach
    with pytest.raises(TailTooLarge):
        polyharmonic_kernel(space, 1, t_max=3.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kernel_refuses_a_multiplier_not_finite_at_the_probe(space, value):
    # finite up to lam = 15, so only the sup probe at lam = 20, 40, 80 sees
    # it; a NaN there must not become the tail bound, nor an inf a
    # TailTooLarge
    m = Multiplier(fn=lambda lam: np.where(lam > 15.0, value, 1.0),
                   label="spiky")
    with pytest.raises(ValueError, match="multiplier spiky is not finite"):
        polyharmonic_kernel(space, 2, t_max=3.0, multiplier=m)


@pytest.mark.parametrize("k", [257, 300])
def test_overflowing_order_is_a_named_failure(space, k, tmp_path,
                                              monkeypatch, capsys):
    # from k = 257 on, (lam^2 + 1/4)^(-2k) passes the float range at small
    # lam: the kernel refuses the order before fitting any series, without
    # numpy overflow warnings, and the CLI exits 1 naming the order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=f"order-{k} kernel"):
            polyharmonic_kernel(space, k, t_max=3.0)
    monkeypatch.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "spline.ini"
    cfg.write_text("[experiment]\nscenario = spline_reconstruct\n"
                   f"seeds = 0\nk_schedule = {k}\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"NumericalFailure: order-{k} kernel")
    assert "Traceback" not in err


def _kernel_coef(space, kern, m=IDENTITY):
    """The kernel's spectral nodes and zonal-sum coefficients."""
    lam, w = _kernel_lambda_grid(kern.lam_max)
    msq = np.abs(m.fn(lam)) ** 2
    return lam, w * plancherel_density(lam, space.plancherel_scale) * msq \
        * (lam ** 2 + RHO ** 2) ** (-2 * kern.k)


def _busemann_average(space, kern, m, n_b, t):
    """K(t) by the plain Busemann average: one exponential per (t,
    boundary angle, lam)."""
    lam, coef = _kernel_coef(space, kern, m)
    angles = 2.0 * np.pi * np.arange(n_b) / n_b
    a = busemann(np.tanh(t / 2)[:, None], angles[None, :])
    waves = np.exp((1j * lam[:, None, None] + RHO) * a[None, :, :])
    return coef @ waves.mean(axis=2).real


@pytest.mark.parametrize("avg, n_b", [(False, 384), (True, 384),
                                      (False, 383)])
def test_kernel_table_matches_busemann_average(space, avg, n_b):
    # n_b is the brute-force reference's own angle count, odd included
    m = average_multiplier(AverageSpec(tau=0.1)) if avg else IDENTITY
    kern = polyharmonic_kernel(space, 2, t_max=3.0, multiplier=m)
    sub = slice(None, None, 50)
    ref = _busemann_average(space, kern, m, n_b, kern.table_t[sub])
    assert np.max(np.abs(kern.table_values[sub] - ref)) \
        <= 1e-13 * kern(0.0)


def test_higher_order_kernel_is_flatter(space, kern2):
    kern4 = polyharmonic_kernel(space, 4, t_max=3.0)
    assert kern4(1.0) / kern4(0.0) > kern2(1.0) / kern2(0.0)


def test_kernel_angular_quadrature_converged(space, kern2, monkeypatch):
    lam, coef = _kernel_coef(space, kern2)
    count = spectral._busemann_angle_count
    monkeypatch.setattr(spectral, "_busemann_angle_count",
                        lambda lam_max, a_max: 2 * count(lam_max, a_max))
    dense = zonal_sum(lam, coef, kern2.table_t, 3.0)
    rel = np.max(np.abs(dense - kern2.table_values)) / kern2(0.0)
    assert rel <= 1e-10


def test_kernel_table_resolves_domain_diameter(space, lat, monkeypatch):
    # at t_max = 4 (the diameter of the R = 0.8, radius 2 lattice) the
    # circle integrand is analytic only on a strip of width ~2 e^{-4}; the
    # table must still match a dense Busemann average (4096 angles; its
    # last node, just past the switch radius, by the expansion), or the
    # k = 8 kernel matrix turns indefinite far above its eigensolver's
    # backward error
    t_max = 2.0 * lat.domain_radius + 1e-9
    for k in (2, 4, 8):
        kern = polyharmonic_kernel(space, k, t_max=t_max)
        lam, coef = _kernel_coef(space, kern)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_busemann_angle_count",
                          lambda lam_max, a_max: 4096)
            dense = zonal_sum(lam, coef, kern.table_t, t_max)
        assert np.max(np.abs(kern.table_values - dense)) \
            <= 1e-12 * kern(0.0)
    d = distance(lat.points[:, None], lat.points[None, :])
    np.fill_diagonal(d, 0.0)
    ev = np.linalg.eigvalsh(kern(d))
    assert ev[0] >= -len(lat) * np.finfo(float).eps * ev[-1]


def test_kernel_builds_past_the_switch_radius(space, kern2):
    # past t = 4 the zonal sum takes phi from the Harish-Chandra expansion;
    # a Busemann average there would need ~e^t boundary angles.  Where the
    # tables overlap, this one is kern2's
    kern = polyharmonic_kernel(space, 2, t_max=8.5)
    assert np.all(np.isfinite(kern.table_values))
    near = kern.table_t <= kern2.t_max
    assert np.max(np.abs(kern.table_values[near] - kern2(kern.table_t[near]))) \
        <= 1e-12 * kern2(0.0)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_hermite_kernel_matches_series_between_nodes(space, k):
    # the cubic Hermite interpolant of the table against the Chebyshev
    # series it samples, at the midpoint of every table interval (where
    # the interpolation error peaks) and at random radii; the series' own
    # Clenshaw rounding is ~2e-14 K(0) here
    t_max = 2.0 * DOMAIN + 1e-9
    kern = polyharmonic_kernel(space, k, t_max=t_max)
    series = zonal_series(*_kernel_coef(space, kern), t_max)
    t = np.concatenate([0.5 * (kern.table_t[1:] + kern.table_t[:-1]),
                        np.random.default_rng(k).uniform(0.0, t_max, 500)])
    ref = chebval(2.0 * t / t_max - 1.0, series)
    assert np.max(np.abs(kern(t) - ref)) <= 2e-13 * kern(0.0)
    assert kern(t_max) == kern.table_values[-1]


def test_pairing_recovers_point_value(wide, sys2):
    # <K(d(o, .)), Delta^2k g> = g(o): the 2k-th Laplacian power undoes the
    # kernel density, leaving the plain inversion formula
    g = synthesize(wide, seed=7)
    o = 0.22 - 0.13j
    lam = wide.lambda_nodes
    rho2 = RHO ** 2
    a = busemann(np.array([o]), wide.boundary_angles)
    khat = (lam[:, None] ** 2 + rho2) ** (-2 * sys2.k) \
        * np.exp((-1j * lam[:, None] + RHO) * a)
    ghat_2k = g.values * ((lam ** 2 + rho2) ** (2 * sys2.k))[:, None]
    paired = np.sum(wide.lambda_measure[:, None] * np.conj(khat) * ghat_2k) \
        / wide.n_b
    ref = g.evaluate(np.array([o]))[0]
    assert abs(paired - ref) <= 1e-4 * abs(ref)


# ---------------------------------------------------------------- systems

def test_kernel_matrix_shape_and_symmetry(sys2, lat):
    n = len(lat)
    assert sys2.kernel_matrix.shape == (n, n)
    assert np.array_equal(sys2.kernel_matrix, sys2.kernel_matrix.T)
    ev = np.linalg.eigvalsh(sys2.kernel_matrix)
    assert ev[0] > 0
    assert sys2.condition == pytest.approx(ev[-1] / ev[0], rel=1e-9)


def test_lagrangian_certificate(sys2, lat):
    assert sys2.lagrangian_defect <= 1e-8
    target = np.zeros(len(lat))
    target[0] = 1.0
    beta = spline_interpolate(sys2, SampleSet(lat, target)).beta
    vals = sys2.kernel_matrix @ beta
    assert np.max(np.abs(vals - target)) <= 1e-8


def test_duplicate_points_rejected(space):
    pts = np.array([0.1 + 0.0j, 0.1 + 0.0j, -0.2 + 0.1j])
    bad = Lattice(points=pts, r=0.5, n_mult=10, domain_radius=1.0, seed=0)
    with pytest.raises(SingularKernel):
        build_splines(bad, 2, space=space)


def test_unallocatable_kernel_matrix_is_a_named_error(space, lat, tmp_path,
                                                     monkeypatch, capsys):
    # an N x N distance matrix past the memory limit (N ~ 4.5e5 at r = 0.01
    # asks for terabytes) ends as ProblemTooLarge, and the CLI exits 1
    def no_memory(*args):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(splines, "distance", no_memory)
    with pytest.raises(ProblemTooLarge, match="cannot be allocated"):
        build_splines(lat, 2, space=space)
    monkeypatch.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "spline.ini"
    cfg.write_text("[experiment]\nscenario = spline_reconstruct\nseeds = 0\n")
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ProblemTooLarge: ")
    assert "Traceback" not in err


def test_high_order_hits_precision_wall(space, lat):
    # the k = 4 spectral density decays like lam^-16; its kernel matrix is
    # numerically rank-deficient at unit-scale spacing, which must surface
    # as the guard, never as a silently garbage factorization
    try:
        sys4 = build_splines(lat, 4, space=space)
    except SingularKernel:
        return
    assert sys4.condition > 1e12


def test_interpolates_samples_at_nodes(interp, samples, lat):
    vals = interp.evaluate(lat.points)
    scale = np.max(np.abs(samples.values))
    assert np.max(np.abs(vals - samples.values)) <= 1e-8 * scale


def test_reproduces_own_data(sys2, interp, lat):
    probes = 0.5 * np.exp(2j * np.pi * np.arange(24) / 24)
    s2 = SampleSet(lat, interp.evaluate(lat.points))
    again = spline_interpolate(sys2, s2)
    ref = interp.evaluate(probes)
    assert np.max(np.abs(again.evaluate(probes) - ref)) \
        <= 1e-10 * np.max(np.abs(ref))


def test_zero_data_gives_zero_function(sys2, lat):
    s = SampleSet(lat, np.zeros(len(lat), dtype=complex))
    interp0 = spline_interpolate(sys2, s)
    assert np.max(np.abs(interp0.evaluate(np.array([0.0j, 0.3 + 0.2j])))) == 0.0


def test_scalar_evaluation(interp):
    out = interp(0.25 + 0.1j)
    assert np.ndim(out) == 0


def test_mismatched_lattice_rejected(sys2, f):
    other = build_lattice(R, DOMAIN, seed=3)
    with pytest.raises(ValueError):
        spline_interpolate(sys2, point_samples(f, other))


# ------------------------------------------------------------ variational

def test_energy_identity(sys2, interp, samples, wide, waves):
    # ||Delta^k L||^2 from spectral quadrature against the representer
    # identity beta^H K beta = beta^H data: two fully independent routes
    shat = _expansion_field(interp.beta, waves, wide, sys2.k)
    quad = _inner_2k(shat, shat, wide, sys2.k)
    alg = np.vdot(interp.beta, samples.values)
    assert abs(quad.imag) <= 1e-10 * abs(quad.real)
    assert abs(quad.real - alg.real) <= 1e-6 * abs(alg.real)
    gram = np.vdot(interp.beta, sys2.kernel_matrix @ interp.beta)
    assert abs(quad.real - gram.real) <= 1e-6 * abs(gram.real)


def test_minimization_and_orthogonality(sys2, interp, samples, wide, waves):
    # among interpolants of the same data the spline minimizes ||Delta^k u||;
    # competitors are built by correcting band-limited functions with their
    # own splines so they vanish on the lattice
    shat = _expansion_field(interp.beta, waves, wide, sys2.k)
    base = _inner_2k(shat, shat, wide, sys2.k).real
    for c in range(20):
        w = synthesize(wide, seed=500 + c)
        beta_w = sys2._solve(point_samples(w, sys2.lattice).values)
        vhat = w.values - _expansion_field(beta_w, waves, wide, sys2.k)
        vnorm = _inner_2k(vhat, vhat, wide, sys2.k).real
        cross = _inner_2k(shat, vhat, wide, sys2.k)
        assert abs(cross) <= 1e-6 * math.sqrt(base * vnorm)
        total = _inner_2k(shat + vhat, shat + vhat, wide, sys2.k).real
        assert math.sqrt(total) >= math.sqrt(base) - 1e-8


def iterated_bernstein_check(f: BandlimitedFunction, sigma: float,
                             m_list=(1, 2, 4), s_list=(0, 1)) -> dict:
    """Iterated spectral inequality, as pure multiplier arithmetic.

    With a = ||f|| / ||Delta^sigma f|| (the smallest admissible constant),
    checks ||Delta^s f|| <= a^m ||Delta^(m sigma + s) f|| for each (m, s).
    """
    def power_norm(p: float) -> float:
        return apply_multiplier(f, sobolev_multiplier(p)).norm()

    n0 = power_norm(0.0)
    ns = power_norm(sigma)
    if ns == 0.0:
        return {"a": math.nan, "sigma": sigma, "rows": [], "all_pass": False}
    a = n0 / ns
    rows = []
    for m in m_list:
        for s in s_list:
            lhs = power_norm(float(s))
            rhs = a ** m * power_norm(m * sigma + s)
            rows.append({"m": m, "s": s, "lhs": lhs, "rhs": rhs,
                         "pass": lhs <= rhs * (1 + 1e-8)})
    return {"a": a, "sigma": sigma, "rows": rows,
            "all_pass": all(r["pass"] for r in rows)}


def test_iterated_bernstein_chain(f):
    report = iterated_bernstein_check(f, 1.0)
    assert report["all_pass"]
    assert len(report["rows"]) == 6
    # sigma = 1/2 exercises the fractional route
    assert iterated_bernstein_check(f, 0.5)["all_pass"]


# ---------------------------------------------------------- deconvolution

def test_deconvolve_identity_matches_interpolation(lat, f, grid, interp,
                                                   pgrid):
    s = convolution_samples(f, lat, IDENTITY)
    res = spline_reconstruct_deconvolve(lat, [2], s, grid=grid)
    assert res["k_list"] == [2]
    direct = spline_band_projection(interp, grid)
    a = res["functions"][0].evaluate(pgrid.points)
    b = direct.evaluate(pgrid.points)
    assert pgrid.norm(a - b) <= 1e-10 * pgrid.norm(b)


def test_deconvolve_spherical_averages(lat, f, grid, interp, pgrid):
    # band projections of lattice-supported expansions carry the part of f
    # living outside the sampled disk (a few percent here), so the closed
    # loop is judged against the identity-multiplier route, which shares
    # that floor: the difference isolates the division by the multiplier
    m = Multiplier(fn=lambda lam: spherical_function(lam, 0.2),
                   label="sphere_avg_0.2")
    s = convolution_samples(f, lat, m)
    res = spline_reconstruct_deconvolve(lat, [2, 4, 8], s, grid=grid)
    assert res["k_list"] == [2]
    fv = f.evaluate(pgrid.points)
    den = pgrid.norm(fv)
    dec = res["functions"][0].evaluate(pgrid.points)
    base = spline_band_projection(interp, grid).evaluate(pgrid.points)
    assert pgrid.norm(dec - base) / den < 5e-3
    err_dec = pgrid.norm(dec - fv) / den
    err_base = pgrid.norm(base - fv) / den
    assert err_dec < 1.25 * err_base + 1e-12


def test_deconvolve_schedule_documents_the_wall(lat, samples, grid, sys2):
    res = spline_reconstruct_deconvolve(lat, [2, 4, 8], samples, grid=grid)
    assert res["k_list"] == [2]
    assert res["aborted_at"] == 4
    assert sys2.condition < 1e12


def test_deconvolve_condition_limit(lat, samples, grid, monkeypatch):
    monkeypatch.setattr(splines, "_COND_LIMIT", 10.0)
    res = spline_reconstruct_deconvolve(lat, [2], samples, grid=grid)
    assert res["aborted_at"] == 2
    assert res["functions"] == []


def test_deconvolve_certificate_limit(lat, samples, grid, monkeypatch):
    # a Lagrangian defect above the certificate is a SingularKernel, which
    # stops the schedule as the condition limit does
    monkeypatch.setattr(splines, "_CERT_TOL", 1e-30)
    res = spline_reconstruct_deconvolve(lat, [2], samples, grid=grid)
    assert res["aborted_at"] == 2
    assert res["functions"] == []


def test_deconvolve_vanishing_multiplier_rejected(lat, f, grid):
    m = Multiplier(fn=lambda lam: np.where(lam < 0.5, 0.0, 1.0),
                   label="hard_highpass")
    s = convolution_samples(f, lat, m)
    with pytest.raises(MultiplierVanishes):
        spline_reconstruct_deconvolve(lat, [2], s, grid=grid)


# ------------------------------------------------------------ convergence

def test_error_decreases_with_lattice_density(space, grid, pgrid, f):
    fv = f.evaluate(pgrid.points)
    den = pgrid.norm(fv)
    errs = []
    for r in (1.2, 0.8, 0.6):
        lat_r = build_lattice(r, DOMAIN, seed=0)
        sys_r = build_splines(lat_r, 2, space=space)
        interp_r = spline_interpolate(sys_r, point_samples(f, lat_r))
        errs.append(pgrid.norm(interp_r.evaluate(pgrid.points) - fv) / den)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_uncertified_build_raises(space):
    # k = 2 on the r = 0.4 lattice (N = 123): defect about 7.5e-8 at
    # condition 1.3e10, above the 1e-8 certificate
    lat_fine = build_lattice(0.4, 1.4, seed=0)
    with pytest.raises(SingularKernel, match="Lagrangian defect .* misses "
                                             "the certificate 1e-08"):
        build_splines(lat_fine, 2, space=space)


# ---------------------------------------------------- blocked pair passes

def _evaluate_single_pass(interp, points):
    """The whole points x anchors pass that SplineInterpolant.evaluate
    splits into row blocks."""
    anchors = interp.system.lattice.points
    d = distance(points[:, None], anchors[None, :])
    return interp.system.kernel(d) @ interp.beta


def _kernel_matrix_single_pass(kern, pts):
    """The whole-matrix assembly that _kernel_matrix splits into blocks."""
    d = distance(pts[:, None], pts[None, :])
    np.fill_diagonal(d, 0.0)
    kmat = kern(d)
    return 0.5 * (kmat + kmat.T)


def _traced_peak(call):
    """call() and the peak of the bytes it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["one_point", "one_row_left", "ragged"])
def test_blocked_evaluate_matches_single_pass(interp, case):
    # blocks of PAIR_BLOCK // 83 rows: a single point; two blocks and a
    # one-row remainder, which joins the block before it; a ragged third
    # block
    rows = PAIR_BLOCK // len(interp.system.lattice)
    n = {"one_point": 1, "one_row_left": 2 * rows + 1,
         "ragged": 2 * rows + 17}[case]
    pts = random_ball_points(DOMAIN, n, np.random.default_rng(n))
    out = interp.evaluate(pts)
    assert out.tobytes() == _evaluate_single_pass(interp, pts).tobytes()
    assert interp.evaluate(pts[0]) == _evaluate_single_pass(interp, pts[:1])[0]


def test_blocked_kernel_matrix_matches_single_pass(sys2):
    # N = 300: blocks of 218 rows and a ragged last block of 82
    pts = random_ball_points(DOMAIN, 300, np.random.default_rng(5))
    assert (PAIR_BLOCK // pts.size) * 2 > pts.size > PAIR_BLOCK // pts.size
    kmat = _kernel_matrix(sys2.kernel, pts)
    ref = _kernel_matrix_single_pass(sys2.kernel, pts)
    assert kmat.tobytes() == ref.tobytes()
    assert np.array_equal(kmat, kmat.T)


def test_evaluate_memory_follows_the_block(interp):
    # 1e5 points x 83 anchors: the single pass held 8.3e6-entry complex
    # temporaries (over 100 MB each); the blocks keep the working set at a
    # few block-sized arrays beside the result
    pts = random_ball_points(DOMAIN, 100_000, np.random.default_rng(7))
    out, peak = _traced_peak(lambda: interp.evaluate(pts))
    assert peak <= out.nbytes + 16 * PAIR_BLOCK * 16


def test_kernel_matrix_memory_follows_the_result(sys2):
    # N = 1000: the single pass held six 8 MB arrays besides the result
    pts = random_ball_points(DOMAIN, 1000, np.random.default_rng(8))
    kmat, peak = _traced_peak(lambda: _kernel_matrix(sys2.kernel, pts))
    assert peak <= kmat.nbytes + 16 * PAIR_BLOCK * 8
