"""Spherical-average tests: two-path symbol agreement, contraction,
near-identity bounds, and the end-to-end averaged-sampling loop."""

import math

import numpy as np
import pytest

from hypersample.bandlimited import synthesize
from hypersample.geometry import RHO, circle_points
from hypersample.lattice import build_lattice
from hypersample.sampling import (_PINV_CUT, convolution_samples,
                                  point_samples, reconstruct)
from hypersample.spectral import IDENTITY, build_grid
from hypersample.sphavg import (AverageSpec, average_multiplier,
                                near_identity_check, spherical_average_direct,
                                theorem73_experiment)
from hypersample.transforms import (BandlimitedFunction, apply_multiplier,
                                    build_polar_grid)

from helpers import gaussian_draw

OMEGA = 2.0


@pytest.fixture(scope="module")
def grid():
    return build_grid(OMEGA, 48, 64)


@pytest.fixture(scope="module")
def pgrid():
    return build_polar_grid(1.4, 160, 96)


@pytest.fixture(scope="module")
def f(grid):
    return synthesize(grid, seed=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        AverageSpec(tau=-0.1)
    with pytest.raises(ValueError):
        AverageSpec(tau=0.1, n=-1)


def test_admissibility_threshold():
    # (omega^2 + rho^2)^(-(n+1)/2) at omega = 2 is 0.485 for n = 0
    assert AverageSpec(tau=0.3).admissible(2.0)
    assert not AverageSpec(tau=0.5).admissible(2.0)
    # and the threshold shrinks with each extra Laplacian power
    assert not AverageSpec(tau=0.3, n=1).admissible(2.0)
    assert AverageSpec(tau=0.2, n=1).admissible(2.0)


def test_identity_bypass(grid):
    m = average_multiplier(AverageSpec(tau=0.0, n=0))
    assert np.all(m(grid.lambda_nodes) == 1.0)
    assert np.array_equal(m(grid.lambda_nodes), IDENTITY(grid.lambda_nodes))


def test_two_path_agreement(grid, f):
    # the circle quadrature never sees the symbol; agreement on random
    # centers, radii and Laplacian powers certifies phi_lam(tau) end to end
    # (seed 42 draws criterion 06's cases; this is a second draw)
    rng = np.random.default_rng(6)
    base = grid.lambda_nodes**2 + RHO**2
    powers = set()
    for _ in range(10):
        y = 0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        tau = 0.05 + 0.35 * rng.random()
        n = int(rng.integers(0, 2))
        powers.add(n)
        spec = AverageSpec(tau=tau, n=n)
        g = f if n == 0 else BandlimitedFunction(
            grid, f.values * base[:, None])
        direct = spherical_average_direct(g, y, spec)
        m = average_multiplier(spec)
        mf = apply_multiplier(f, m)
        sym = complex(mf.evaluate(np.array([y]))[0])
        assert abs(direct - sym) <= 1e-6 * max(abs(sym), 1e-3)
    assert powers == {0, 1}


def test_zero_radius_returns_point_value(f):
    y = 0.3 - 0.2j
    spec = AverageSpec(tau=0.0)
    assert spherical_average_direct(f, y, spec) == complex(
        f.evaluate(np.array([y]))[0])


def test_circle_quadrature_doubling(f):
    # the oracle's trapezoid rule against one at twice its 96 nodes
    y = 0.25 + 0.4j
    a = spherical_average_direct(f, y, AverageSpec(tau=0.3))
    b = complex(np.mean(f.evaluate(circle_points(y, 0.3, 192))))
    assert abs(a - b) <= 1e-10 * max(abs(a), 1e-6)


def contraction_check(f: BandlimitedFunction, spec: AverageSpec) -> dict:
    """Norm ratio ||M^tau f|| / ||f|| through the multiplier path.

    |phi_lam(tau)| <= 1 makes the average a contraction; the check is exact
    spectral arithmetic, so the tolerance only absorbs roundoff.
    """
    if spec.n != 0:
        raise ValueError("the contraction statement is for plain averages "
                         "(n = 0)")
    before = f.norm()
    if before == 0.0:
        return {"tau": spec.tau, "ratio": math.nan, "passed": True}
    ratio = apply_multiplier(f, average_multiplier(spec)).norm() / before
    return {"tau": spec.tau, "ratio": ratio, "passed": ratio <= 1.0 + 1e-8}


def test_contraction_and_monotone_decay(f):
    ratios = []
    for tau in (0.1, 0.5, 1.0):
        rep = contraction_check(f, AverageSpec(tau=tau))
        assert rep["passed"]
        ratios.append(rep["ratio"])
    assert ratios[0] > ratios[1] > ratios[2]


def test_contraction_equality_at_zero(f):
    rep = contraction_check(f, AverageSpec(tau=0.0))
    assert rep["ratio"] == 1.0


def test_contraction_rejects_composed_powers(f):
    with pytest.raises(ValueError):
        contraction_check(f, AverageSpec(tau=0.1, n=1))


def test_low_frequency_spectrum_contracts_less(grid):
    f_low = gaussian_draw(grid, 5, center_range=(0.05, 0.15),
                          width_range=(0.02, 0.05))
    f_broad = gaussian_draw(grid, 5, center_range=(0.7, 0.9),
                            width_range=(0.02, 0.05))
    spec = AverageSpec(tau=0.5)
    assert contraction_check(f_low, spec)["ratio"] \
        > contraction_check(f_broad, spec)["ratio"]


def test_near_identity_bound_on_band(grid):
    for n in (0, 1, 2):
        for tau in (0.05, 0.2):
            rep = near_identity_check(grid, AverageSpec(tau=tau, n=n))
            assert rep["passed"], (n, tau)


def test_near_identity_zero_tau(grid):
    rep = near_identity_check(grid, AverageSpec(tau=0.0))
    assert np.max(rep["lhs"]) == 0.0


def test_experiment_point_sampling_reduction(grid, pgrid):
    # tau = 0, n = 0 must reproduce the plain point-sampling pipeline
    [rep] = theorem73_experiment(0.4, [AverageSpec(tau=0.0)], seed=0,
                                 grid=grid, pgrid=pgrid,
                                 k_schedule=(), cut=_PINV_CUT)
    f = synthesize(grid, seed=0)
    lat = build_lattice(0.4, 1.4, seed=0)
    rec = reconstruct(point_samples(f, lat), grid=grid)
    fv = f.evaluate(pgrid.points)
    err = pgrid.norm(rec.evaluate(pgrid.points) - fv) / pgrid.norm(fv)
    assert rep["frame_error"] == pytest.approx(err, abs=1e-10)
    assert rep["admissible"]


def test_experiment_overlapping_spheres(grid, pgrid):
    # spheres of radius 0.3 around centers 0.2 apart overlap heavily, yet
    # the averaged samples still determine the function on the band
    r, tau = 0.2, 0.3
    assert tau > r
    [rep] = theorem73_experiment(r, [AverageSpec(tau=tau)], seed=0,
                                 grid=grid, pgrid=pgrid,
                                 k_schedule=(2, 4, 8), cut=_PINV_CUT)
    assert rep["admissible"]
    assert rep["frame_error"] < 1e-4
    # the deconvolving-spline schedule hits its conditioning guard at this
    # lattice density and must say so rather than return garbage
    assert rep["spline_aborted_at"] == 2
    assert rep["spline_errors"] == []


def test_experiment_derivative_sampling_pipeline(grid):
    # averages of -Delta f: the strong reweighting restricts the retained
    # span, so the loop is closed on the pipeline's own band projection
    spec = AverageSpec(tau=0.2, n=1)
    f = synthesize(grid, seed=0)
    lat = build_lattice(0.2, 1.4, seed=0)
    m = average_multiplier(spec)
    f0 = reconstruct(convolution_samples(f, lat, m), grid=grid)
    rec = reconstruct(convolution_samples(f0, lat, m), grid=grid)
    pgrid = build_polar_grid(1.4, 160, 96)
    v0 = f0.evaluate(pgrid.points)
    err = pgrid.norm(rec.evaluate(pgrid.points) - v0) / pgrid.norm(v0)
    assert err < 1e-5


def test_experiment_inadmissible_is_informative(grid, pgrid):
    [rep] = theorem73_experiment(0.4, [AverageSpec(tau=0.5)], seed=0,
                                 grid=grid, pgrid=pgrid,
                                 k_schedule=(), cut=_PINV_CUT)
    assert not rep["admissible"]
    assert np.isfinite(rep["frame_error"])


def test_experiment_deterministic(grid, pgrid):
    [a] = theorem73_experiment(0.4, [AverageSpec(tau=0.1)], seed=3,
                               grid=grid, pgrid=pgrid,
                               k_schedule=(), cut=_PINV_CUT)
    [b] = theorem73_experiment(0.4, [AverageSpec(tau=0.1)], seed=3,
                               grid=grid, pgrid=pgrid,
                               k_schedule=(), cut=_PINV_CUT)
    assert a["frame_error"] == b["frame_error"]
    assert a["frame_bounds"] == b["frame_bounds"]
