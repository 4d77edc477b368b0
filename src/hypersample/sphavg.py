"""Spherical averages: the operator, its multiplier, and the closed loop.

Averaging over the geodesic circle of radius tau is a convolution whose
spectral symbol is phi_lam(tau); composing with n powers of -Delta gives
the multiplier (lam^2 + rho^2)^n phi_lam(tau).  The direct circle
quadrature serves as an independent oracle for that symbol, and the
end-to-end experiment reconstructs a band-limited function from such
averages on a lattice, through the frame route and the spline route.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bandlimited import BandlimitedFunction, synthesize
from .geometry import SpaceParams, circle_points
from .lattice import build_lattice
from .sampling import build_frame, convolution_samples, reconstruct
from .spectral import Multiplier, SpectralGrid, spherical_function
from .splines import spline_reconstruct_deconvolve
from .transforms import PolarGrid

__all__ = [
    "AverageSpec",
    "average_multiplier",
    "spherical_average_direct",
    "contraction_check",
    "near_identity_check",
    "theorem73_experiment",
]


@dataclass(frozen=True)
class AverageSpec:
    """Sphere radius tau, Laplacian power n, circle-quadrature node count."""

    tau: float
    n: int = 0
    m_circle: int = 64

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("sphere radius tau must be nonnegative")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("Laplacian power n must be a nonnegative integer")
        if self.m_circle < 16:
            raise ValueError("need at least 16 circle quadrature nodes")

    def admissible(self, omega: float, rho: float = 0.5) -> bool:
        """Radius below (omega^2 + rho^2)^(-(n+1)/2), where the multiplier
        stays positive on the whole band."""
        return self.tau < (omega**2 + rho**2) ** (-(self.n + 1) / 2.0)


def average_multiplier(space: SpaceParams, spec: AverageSpec) -> Multiplier:
    """Symbol (lam^2 + rho^2)^n phi_lam(tau) of the averaged n-th power."""
    rho2 = space.rho**2
    tau, n = spec.tau, int(spec.n)
    if tau == 0.0 and n == 0:
        return Multiplier(fn=lambda lam: np.ones_like(lam),
                          label="sph_avg(tau=0,n=0)")

    def fn(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.ones_like(lam) if tau == 0.0 else spherical_function(lam, tau)
        if n:
            out = out * (lam**2 + rho2) ** n
        return out

    return Multiplier(fn=fn, label=f"sph_avg(tau={tau:g},n={n})")


def spherical_average_direct(f: BandlimitedFunction, y, spec: AverageSpec):
    """Mean of f over the circle of radius tau about y, by trigonometric
    quadrature in arc length; tau = 0 short-circuits to f(y)."""
    y = complex(np.asarray(y, dtype=complex))
    if spec.tau == 0.0:
        return complex(f.evaluate(np.array([y]))[0])
    pts = circle_points(y, spec.tau, spec.m_circle)
    return complex(np.mean(f.evaluate(pts)))


def contraction_check(f: BandlimitedFunction, spec: AverageSpec) -> dict:
    """Norm ratio ||M^tau f|| / ||f|| through the multiplier path.

    |phi_lam(tau)| <= 1 makes the average a contraction; the check is exact
    spectral arithmetic, so the tolerance only absorbs roundoff.
    """
    if spec.n != 0:
        raise ValueError("the contraction statement is for plain averages "
                         "(n = 0)")
    grid = f.coeffs.grid
    space = SpaceParams(rho=grid.rho).with_scale(grid.plancherel_scale)
    mv = average_multiplier(space, spec).values_on(grid)
    before = f.coeffs.norm()
    if before == 0.0:
        return {"tau": spec.tau, "ratio": math.nan, "passed": True}
    after = math.sqrt(
        float(np.sum(grid.lambda_measure[:, None]
                     * np.abs(mv[:, None] * f.coeffs.values) ** 2))
        / grid.n_b)
    ratio = after / before
    return {"tau": spec.tau, "ratio": ratio, "passed": ratio <= 1.0 + 1e-8}


def near_identity_check(space: SpaceParams, grid: SpectralGrid,
                        spec: AverageSpec) -> dict:
    """Deviation of the average from the plain n-th power, node by node.

    On the band, |phi_lam(tau) - 1| <= min{2, tau^2 (lam^2 + rho^2)};
    scaling by (lam^2 + rho^2)^n gives the bound checked here against the
    multiplier (lam^2 + rho^2)^n phi_lam(tau).
    """
    lam = grid.lambda_nodes[grid.band_slice]
    base = lam**2 + space.rho**2
    mv = average_multiplier(space, spec).values_on(grid)[grid.band_slice]
    lhs = np.abs(mv - base ** spec.n)
    rhs = np.minimum(2.0 * base**spec.n, spec.tau**2 * base ** (spec.n + 1))
    passed = bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
    return {"lam": lam, "lhs": lhs, "rhs": rhs, "passed": passed}


def theorem73_experiment(r: float, specs: Sequence[AverageSpec],
                         seed: int = 0, *, space: SpaceParams,
                         grid: SpectralGrid, pgrid: PolarGrid,
                         k_schedule=(2, 4, 8)) -> list[dict]:
    """Closed loop: synthesize, average on a lattice, reconstruct both ways.

    The band limit is grid.omega and the sampled domain is the ball of
    radius pgrid.r_max, where errors are measured.  The function, its
    values on the polar grid and the lattice are built once; each spec
    then gets its own averaged samples and one result dict.  The frame
    route is the truncated pseudo-inverse of the weighted frame; the
    spline route runs the deconvolving-spline schedule, which may abort at
    its conditioning guard (recorded, not hidden).  Errors are relative L2
    against the true function over the sampled domain.  An inadmissible
    tau is flagged in the report but the run proceeds.
    """
    omega = grid.omega
    f = synthesize(space, omega, seed=seed, grid=grid)
    lat = build_lattice(r, pgrid.r_max, seed=seed)
    fv = f.on_grid(pgrid)
    den = pgrid.norm(fv)
    results = []
    for spec in specs:
        m = average_multiplier(space, spec)
        s = convolution_samples(f, lat, m)
        frame = build_frame(lat, omega, m, grid=grid)
        rec = reconstruct(frame, s)
        frame_error = pgrid.norm(rec.on_grid(pgrid) - fv) / den
        spl = spline_reconstruct_deconvolve(lat, k_schedule, s, space=space,
                                            grid=grid)
        spline_errors = [
            pgrid.norm(g.on_grid(pgrid) - fv) / den for g in spl["functions"]
        ]
        results.append({
            "omega": omega, "r": r, "tau": spec.tau, "n": spec.n,
            "seed": seed, "admissible": spec.admissible(omega, space.rho),
            "n_points": len(lat),
            "frame_error": float(frame_error),
            "frame_bounds": frame.frame_bounds,
            "frame_rank": frame.rank,
            "spline_k_list": spl["k_list"],
            "spline_errors": spline_errors,
            "spline_conditions": spl["conditions"],
            "spline_aborted_at": spl["aborted_at"],
        })
    return results
