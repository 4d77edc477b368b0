"""Spherical averages: the operator, its multiplier, and the closed loop.

Averaging over the geodesic circle of radius tau is a convolution whose
spectral symbol is phi_lam(tau); composing with n powers of -Delta gives
the multiplier (lam^2 + rho^2)^n phi_lam(tau), rho = geometry.RHO.  The
direct circle quadrature serves as an independent oracle for that symbol,
and the end-to-end experiment reconstructs a band-limited function from
such averages on a lattice, through the frame route and the spline route.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bandlimited import synthesize
from .geometry import RHO, circle_points
from .lattice import build_lattice
from .sampling import build_frame, convolution_samples
from .spectral import Multiplier, SpectralGrid, spherical_function
from .splines import check_kernel_size, spline_reconstruct_deconvolve
from .transforms import BandlimitedFunction, PolarGrid

__all__ = [
    "AverageSpec",
    "average_multiplier",
    "spherical_average_direct",
    "near_identity_check",
    "theorem73_experiment",
]


# trapezoid nodes of spherical_average_direct's circle quadrature
_CIRCLE_NODES = 96


@dataclass(frozen=True)
class AverageSpec:
    """Sphere radius tau and Laplacian power n."""

    tau: float
    n: int = 0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("sphere radius tau must be nonnegative")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("Laplacian power n must be a nonnegative integer")

    def admissible(self, omega: float) -> bool:
        """Radius below (omega^2 + rho^2)^(-(n+1)/2), where the multiplier
        stays positive on the whole band."""
        return self.tau < (omega**2 + RHO**2) ** (-(self.n + 1) / 2.0)


def average_multiplier(spec: AverageSpec) -> Multiplier:
    """Symbol (lam^2 + rho^2)^n phi_lam(tau) of the averaged n-th power,
    phi_lam(0) = 1: at tau = 0, n = 0 it has spectral.IDENTITY's values."""
    tau, n = spec.tau, int(spec.n)

    def fn(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.ones_like(lam) if tau == 0.0 else spherical_function(lam, tau)
        return out * (lam**2 + RHO**2) ** n

    return Multiplier(fn=fn, label=f"sph_avg(tau={tau:g},n={n})")


def spherical_average_direct(f: BandlimitedFunction, y, spec: AverageSpec):
    """Mean of f over the circle of radius tau about y, by the trapezoid
    rule at _CIRCLE_NODES points equispaced in arc length; tau = 0
    short-circuits to f(y)."""
    y = complex(np.asarray(y, dtype=complex))
    if spec.tau == 0.0:
        return complex(f.evaluate(np.array([y]))[0])
    pts = circle_points(y, spec.tau, _CIRCLE_NODES)
    return complex(np.mean(f.evaluate(pts)))


def near_identity_check(grid: SpectralGrid, spec: AverageSpec) -> dict:
    """Deviation of the average from the plain n-th power, node by node.

    On the band, |phi_lam(tau) - 1| <= min{2, tau^2 (lam^2 + rho^2)};
    scaling by (lam^2 + rho^2)^n gives the bound checked here against the
    multiplier (lam^2 + rho^2)^n phi_lam(tau).
    """
    lam = grid.lambda_nodes
    base = lam**2 + RHO**2
    mv = average_multiplier(spec)(lam)
    lhs = np.abs(mv - base ** spec.n)
    rhs = np.minimum(2.0 * base**spec.n, spec.tau**2 * base ** (spec.n + 1))
    passed = bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
    return {"lam": lam, "lhs": lhs, "rhs": rhs, "passed": passed}


def theorem73_experiment(r: float, specs: Sequence[AverageSpec], *,
                         seed: int, grid: SpectralGrid, pgrid: PolarGrid,
                         k_schedule: Sequence[int], cut: float) -> list[dict]:
    """Closed loop: synthesize, average on a lattice, reconstruct both ways.

    The band limit is grid.omega and the sampled domain is the ball of
    radius pgrid.r_max, where errors are measured.  The function, its values
    on the polar grid and the lattice are built once; each spec then gets
    its own averaged samples and one result dict.  The frame route is the
    truncated pseudo-inverse of the weighted frame, cut at the relative
    eigenvalue threshold cut (build_frame); the spline route runs the
    deconvolving-spline schedule, which may abort at its conditioning guard
    or its Lagrangian certificate (recorded, not hidden).  Errors are
    relative L2 against the true function over the sampled domain.  An
    inadmissible tau is flagged in the report but the run proceeds.  A
    spline schedule whose kernel matrix is too large for any lattice at r
    (splines.check_kernel_size) fails before the lattice is built.
    """
    if k_schedule:
        check_kernel_size(r, pgrid.r_max)
    omega = grid.omega
    f = synthesize(grid, seed=seed)
    lat = build_lattice(r, pgrid.r_max, seed=seed)
    fv = f.on_grid(pgrid)
    den = pgrid.norm(fv)
    results = []
    for spec in specs:
        m = average_multiplier(spec)
        s = convolution_samples(f, lat, m)
        frame = build_frame(s, grid=grid, cut=cut)
        frame_error = pgrid.norm(frame.function.on_grid(pgrid) - fv) / den
        spl = spline_reconstruct_deconvolve(lat, k_schedule, s, grid=grid)
        spline_errors = [
            pgrid.norm(g.on_grid(pgrid) - fv) / den for g in spl["functions"]
        ]
        results.append({
            "admissible": spec.admissible(omega),
            "n_points": len(lat),
            "frame_error": float(frame_error),
            "frame_bounds": frame.frame_bounds,
            "frame_rank": frame.rank,
            "spline_k_list": spl["k_list"],
            "spline_errors": spline_errors,
            "spline_aborted_at": spl["aborted_at"],
        })
    return results
