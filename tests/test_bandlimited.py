"""Synthesis, Bernstein inequality, and ball-density probes."""

import math

import numpy as np
import pytest

from hypersample.bandlimited import bernstein_check, synthesize
from hypersample.geometry import RHO, distance
from hypersample.spectral import SpectralGrid, build_grid, sobolev_multiplier
from hypersample.transforms import (BandlimitedFunction, PolarGrid,
                                    apply_multiplier, build_polar_grid)

from helpers import gaussian_draw


OMEGA = 2.0


def converse_bernstein_probe(f: BandlimitedFunction, omega: float,
                             sigma_list=(0.5, 1.0, 2.0, 4.0, 8.0)) -> dict:
    """Ratios ||Delta^sigma f|| / ((omega^2+rho^2)^sigma ||f||) along sigma_list.

    Bounded by 1 for genuine omega band limited input; grows without bound
    when the spectrum sticks out beyond omega (the negative certificate).
    """
    base = f.norm()
    if base == 0.0:
        return {"sigmas": list(sigma_list), "ratios": [math.nan] * len(sigma_list),
                "applicable": False}
    ratios = []
    for s in sigma_list:
        num = apply_multiplier(f, sobolev_multiplier(s)).norm()
        ratios.append(num / ((omega**2 + RHO**2) ** s * base))
    return {"sigmas": list(sigma_list), "ratios": ratios, "applicable": True}


def density_probe(grid: SpectralGrid, center, radius: float,
                  target_samples: np.ndarray, pgrid: PolarGrid, *,
                  n_list=(10, 20, 40), seed: int = 0) -> dict:
    """Least-squares distance from target to spans of band limited functions
    drawn on grid with profiles over most of the band (gaussian_draw),
    restricted to the ball B(center, radius).

    The error sequence over nested n is nonincreasing by construction.  The
    probe is empirical evidence of density, not a proof.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n_list = sorted(n_list)
    n_max = n_list[-1]
    mask = np.asarray(distance(center, pgrid.points) <= radius)
    if not np.any(mask):
        raise ValueError("ball contains no quadrature nodes")
    sw = np.sqrt(pgrid.weights2d[mask])
    b = (np.asarray(target_samples)[mask] * sw).ravel()
    cols = np.empty((b.size, n_max), dtype=complex)
    for i in range(n_max):
        g = gaussian_draw(grid, seed + i, width_range=(0.05, 0.4),
                          center_range=(0.1, 0.9))
        cols[:, i] = (g.on_grid(pgrid)[mask] * sw).ravel()
    errors, conds = [], []
    b_norm = float(np.linalg.norm(b))
    for n in n_list:
        a = cols[:, :n]
        cond = float(np.linalg.cond(a))
        beta = np.linalg.lstsq(a, b, rcond=None)[0]
        resid = b - a @ beta
        errors.append(float(np.linalg.norm(resid)) / b_norm if b_norm else 0.0)
        conds.append(cond)
    return {"n": list(n_list), "errors": errors, "condition": conds}


def _grid(omega=OMEGA, n_lambda=48, n_b=64):
    return build_grid(omega, n_lambda, n_b)


@pytest.fixture(scope="module")
def grid():
    return _grid()


@pytest.fixture(scope="module")
def probe_grid():
    return _grid(n_lambda=16, n_b=16)


def test_synthesize_unit_norm_and_support(grid):
    f = synthesize(grid, seed=3)
    assert f.norm() == pytest.approx(1.0, rel=1e-12)
    # support condition is exact, not approximate: no node lies above omega
    assert grid.lambda_nodes[-1] < OMEGA


def test_synthesize_deterministic(grid):
    a = synthesize(grid, seed=7)
    b = synthesize(grid, seed=7)
    assert np.array_equal(a.values, b.values)
    c = synthesize(grid, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_synthesize_validation():
    # six boundary angles cannot resolve the modes |m| <= 3
    with pytest.raises(ValueError, match="n_b must be at least 8"):
        synthesize(_grid(n_b=6), seed=0)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernstein_holds(grid, sigma, seed):
    f = synthesize(grid, seed=seed)
    rep = bernstein_check(f, sigma)
    assert rep["pass"]
    assert rep["lhs"] <= rep["rhs"] * (1 + 1e-10)
    assert 0 < rep["ratio"] <= 1 + 1e-10


def test_bernstein_sigma_zero_is_equality(grid):
    f = synthesize(grid, seed=5)
    rep = bernstein_check(f, 0.0)
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-12)


def test_bernstein_sharp_for_edge_concentration():
    # profile concentrated near the top of the band: the inequality is
    # nearly attained, so the constant cannot be improved
    grid = build_grid(OMEGA, 160, 8)
    lam = grid.lambda_nodes
    vals = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    vals[:, 0] = np.exp(-((lam - 0.995 * OMEGA) ** 2)
                        / (2.0 * (0.01 * OMEGA) ** 2))
    f = BandlimitedFunction(grid, vals)
    for sigma in (1.0, 2.0):
        rep = bernstein_check(f, sigma)
        assert rep["pass"]
        assert abs(rep["ratio"] - 1.0) < 0.05


def test_converse_probe_band_limited_stays_bounded(grid):
    f = synthesize(grid, seed=2)
    rep = converse_bernstein_probe(f, OMEGA)
    assert rep["applicable"]
    assert all(r <= 1 + 1e-10 for r in rep["ratios"])


def test_converse_probe_detects_out_of_band_mass():
    # narrow profile at 4*omega: the sigma = 8 ratio must blow past 10^3,
    # close to the analytic value ((16 w^2 + rho^2)/(w^2 + rho^2))^8
    grid = build_grid(16.0, 256, 8)
    lam = grid.lambda_nodes
    vals = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    vals[:, 0] = np.exp(-((lam - 4.0 * OMEGA) ** 2) / (2.0 * 0.05**2))
    rep = converse_bernstein_probe(BandlimitedFunction(grid, vals), OMEGA,
                                   sigma_list=(1.0, 8.0))
    assert rep["ratios"][1] > 1e3
    analytic = (((4 * OMEGA) ** 2 + RHO**2) / (OMEGA**2 + RHO**2)) ** 8
    assert rep["ratios"][1] == pytest.approx(analytic, rel=0.05)


def test_converse_probe_zero_function():
    grid = build_grid(8.0, 32, 8)
    rep = converse_bernstein_probe(
        BandlimitedFunction(grid, np.zeros((grid.n_lambda, grid.n_b), complex)),
        OMEGA)
    assert not rep["applicable"]
    assert all(np.isnan(r) for r in rep["ratios"])


def test_density_probe_recovers_band_limited_target(probe_grid):
    pgrid = build_polar_grid(2.0, 48, 64)
    f = gaussian_draw(probe_grid, 101, width_range=(0.05, 0.4),
                      center_range=(0.1, 0.9))
    target = f.on_grid(pgrid)
    rep = density_probe(probe_grid, 0.2 + 0.1j, 1.2, target, pgrid,
                        n_list=(8, 32, 64))
    assert rep["errors"][-1] < 1e-8
    assert rep["errors"] == sorted(rep["errors"], reverse=True)


def test_density_probe_smooth_target_error_decreases(probe_grid):
    pgrid = build_polar_grid(2.0, 48, 64)
    d = distance(0.0, pgrid.points)
    target = np.exp(-(d**2) / (2 * 0.3**2))
    rep = density_probe(probe_grid, 0.0, 1.2, target, pgrid,
                        n_list=(8, 16, 32, 64))
    e = rep["errors"]
    assert all(e[i + 1] <= e[i] * (1 + 1e-12) for i in range(len(e) - 1))
    assert e[-1] < 0.05 < e[0]
    # a wider band approximates the same target strictly better
    rep4 = density_probe(_grid(2 * OMEGA, n_lambda=32, n_b=16),
                         0.0, 1.2, target, pgrid, n_list=(8, 16, 32, 64))
    assert rep4["errors"][-1] < e[-1]


def test_density_probe_reports_ill_conditioned_basis(probe_grid):
    pgrid = build_polar_grid(1.5, 32, 32)
    d = distance(0.0, pgrid.points)
    target = np.exp(-(d**2))
    rep = density_probe(probe_grid, 0.0, 1.0, target, pgrid, n_list=(64,))
    assert rep["condition"][0] > 1e12


def test_evaluate_matches_grid_route(grid):
    f = synthesize(grid, seed=4)
    pgrid = build_polar_grid(1.5, 24, 32)
    on_grid = f.on_grid(pgrid)
    pts = pgrid.points[::5, ::7]
    direct = f.evaluate(pts)
    assert np.allclose(direct, on_grid[::5, ::7], atol=1e-8 * np.abs(on_grid).max())
    # eight polar angles are the fewest that keep the modes |m| <= 3, which
    # the config's n_theta minimum asks for; at six on_grid drops |m| = 3
    # and misses by 9% of max|f|
    pgrid8 = build_polar_grid(1.4, 24, 8)
    direct = f.evaluate(pgrid8.points)
    assert np.max(np.abs(f.on_grid(pgrid8) - direct)) \
        <= 1e-12 * np.max(np.abs(direct))
