"""Forward and inverse Fourier transforms between polar grids and spectral grids.

The production route factors through boundary modes.  Writing a function in
geodesic polar coordinates as f(r, theta) = sum_m f_m(r) e^{i m theta} and a
coefficient field as hat(f)(lam, b) = sum_m c_m(lam) e^{i m b}, the transform
pair diagonalizes mode by mode:

    F_m(lam) = 2 pi  int_0^rmax f_m(r) Phi_{lam, m}(r) sinh(r) dr
    f_m(r)   =       int_0^Lam  c_m(lam) conj(Phi_{lam, m}(r)) density(lam) dlam

where Phi_{lam, m}(r) = (1/2pi) int_0^{2pi} (cosh r - sinh r cos t)^{-1/2 + i lam}
e^{-i m t} dt are the radial mode functions (Phi_{lam, 0} is the zonal
spherical function; Phi_{lam, -m} = Phi_{lam, m}).  Each Phi solves

    Phi'' + coth(r) Phi' + (lam^2 + 1/4 - m^2 / sinh^2 r) Phi = 0.

The integrand is a plane wave: (cosh r - sinh r cos t)^{-1/2 + i lam} =
e^{(rho - i lam) A(x, t)} at x = tanh(r/2), rho = 1/2, with A the horocycle
distance.  Up to a switch radius the table is the trapezoid rule over the
circle applied to that plane wave written in the Chebyshev basis of
spectral.plane_wave_series,

    e^{(rho - i lam) A} = e^{rho A} sum_k conj(S[k, lam]) T_k(A / a_max),

so the angle sum acts only on the real rows e^{rho A} T_k(A / a_max)
(spectral._horocycle_rows, one real exp per radius and angle).  Their mode
coefficients G[k, m, r] are real, since the rows are even in t, and the
table is the one product Phi[lam, m, r] = sum_k conj(S[k, lam]) G[k, m, r].

For r beyond ~4 the circle integrand concentrates in an angular window of
width ~e^{-r} and the trapezoid rule needs ~e^r nodes, so past the switch
radius the table comes from the Harish-Chandra expansion at infinity, a
closed form in e^{-2r}:

    Phi_{lam, m}(r) = c(lam) pi_m(lam) e^{(i lam - 1/2) r} g_+(e^{-2r})
                      + c(-lam) e^{(-i lam - 1/2) r} g_-(e^{-2r})

with c(lam) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)) the Harish-Chandra
c-function, pi_m(lam) = prod_{j=1..m} (j - 1/2 - i lam) / (j - 1/2 + i lam),
and g_+- power series whose coefficients follow from the mode equation
(see _modes_by_expansion).

A dense direct route (explicit plane-wave kernels at every grid node) is
kept as an independent cross-check for small domains; it shares no code
with the mode route beyond the geometry primitives: it takes one complex
exponential per (lam, node, boundary angle) and no Chebyshev series.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss
from scipy.special import loggamma

from .errors import CalibrationInconsistent, NumericalFailure, TailMassExceeded
from .geometry import SpaceParams, as_complex, busemann, distance, random_ball_points
from .spectral import (SpectralCoeffs, SpectralGrid, _fsum_real,
                       _horocycle_rows, _plane_wave_basis, build_grid,
                       plane_wave_series)

__all__ = [
    "PolarGrid",
    "build_polar_grid",
    "radial_mode_table",
    "forward_transform",
    "inverse_on_grid",
    "inverse_transform",
    "forward_transform_direct",
    "CalibrationResult",
    "calibrate_plancherel",
]

_SWITCH_RADIUS = 4.0


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Geodesic polar quadrature grid on the ball B(0, r_max).

    Gauss-Legendre nodes in radius, uniform angles; weights2d carries the
    full area element w_r * sinh(r) * (2 pi / n_theta).
    """

    r_max: float
    r_nodes: np.ndarray
    r_weights: np.ndarray
    n_theta: int

    @property
    def n_r(self) -> int:
        return self.r_nodes.size

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @property
    def points(self) -> np.ndarray:
        """Complex disk coordinates, shape (n_r, n_theta)."""
        return np.tanh(self.r_nodes / 2.0)[:, None] * np.exp(1j * self.angles)[None, :]

    @property
    def weights2d(self) -> np.ndarray:
        w = self.r_weights * np.sinh(self.r_nodes) * (2.0 * np.pi / self.n_theta)
        return np.broadcast_to(w[:, None], (self.n_r, self.n_theta))

    def cache_key(self) -> tuple:
        return (self.r_nodes.tobytes(), self.n_theta)

    def _mask(self, within: float | None) -> np.ndarray:
        if within is None:
            return np.ones(self.n_r, dtype=bool)
        return self.r_nodes <= within

    def norm_sq(self, samples: np.ndarray, within: float | None = None) -> float:
        """Squared L2 norm, optionally restricted to the ball B(0, within)."""
        m = self._mask(within)
        return _fsum_real(self.weights2d[m] * np.abs(samples[m]) ** 2)

    def norm(self, samples: np.ndarray, within: float | None = None) -> float:
        return math.sqrt(max(self.norm_sq(samples, within), 0.0))

    def inner(self, a: np.ndarray, b: np.ndarray, within: float | None = None) -> complex:
        m = self._mask(within)
        prod = self.weights2d[m] * a[m] * np.conj(b[m])
        return complex(_fsum_real(prod.real), _fsum_real(prod.imag))


def build_polar_grid(r_max: float, n_r: int, n_theta: int) -> PolarGrid:
    if r_max <= 0 or n_r < 2 or n_theta < 4 or n_theta % 2:
        raise ValueError("bad polar grid parameters")
    x, w = leggauss(n_r)
    return PolarGrid(
        r_max=float(r_max),
        r_nodes=0.5 * r_max * (x + 1.0),
        r_weights=0.5 * r_max * w,
        n_theta=int(n_theta),
    )


# ---------------------------------------------------------------------------
# radial mode tables


_TABLE_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_TABLE_CACHE_SIZE = 8


def _phase_node_count(lam_max: float, r_max: float) -> int:
    """Trapezoid node count resolving both the lam*r oscillation and the
    e^{-r} concentration of the circle integrand near theta = 0.

    The periodic trapezoid rule converges like exp(-2 n e^{-r}) against an
    integrand of size e^{r/2}, so n ~ e^r (30 + r) / 2 reaches ~1e-13."""
    osc = 8.0 * max(1.0, lam_max * r_max) / (2.0 * np.pi)
    spike = 0.5 * math.exp(min(r_max, 12.0)) * (30.0 + r_max)
    n = max(256.0, osc, spike)
    return int(2 ** math.ceil(math.log2(n)))


def _modes_by_quadrature(lams: np.ndarray, rs: np.ndarray, m_max: int) -> np.ndarray:
    """Phi_{lam, m}(r) for 0 <= m <= m_max by circle quadrature.

    Only reliable up to moderate r; the caller keeps rs <= switch radius.
    The trapezoid rule over _phase_node_count angles acts on the real rows
    e^{A/2} T_k(A / a_max) at x = tanh(r/2), a_max = max(rs)
    (spectral._horocycle_rows).  They are even in t, so the circle folds
    onto 0 <= t <= pi (interior angles counted twice) and their mode
    coefficients G[k, m, r] are the real products with cos(m t); with the
    plane-wave basis S (spectral._plane_wave_basis, unit coefficients),
    Phi[lam, m, r] = sum_k conj(S[k, lam]) G[k, m, r].  Radii go in chunks
    of about 2^20 (radius, degree, angle) row entries."""
    n = _phase_node_count(float(np.max(lams)), float(np.max(rs)))
    n = max(n, 4 * (m_max + 1))
    half = np.arange(n // 2 + 1)
    t = 2.0 * np.pi * half / n
    fold = np.where((half == 0) | (2 * half == n), 1.0, 2.0) / n
    cos_mt = fold[:, None] * np.cos(np.outer(t, np.arange(m_max + 1)))
    x = np.tanh(rs / 2.0)
    a_max, series = _plane_wave_basis(x, lams, np.ones(lams.size))
    deg = series.shape[0]
    modes = np.empty((deg, m_max + 1, rs.size))
    chunk = max(1, (1 << 20) // (deg * t.size))
    for lo in range(0, rs.size, chunk):
        rows = _horocycle_rows(x[lo:lo + chunk], t, 0.5, a_max, deg)
        prod = rows.reshape(-1, t.size) @ cos_mt
        modes[:, :, lo:lo + chunk] = np.moveaxis(
            prod.reshape(-1, deg, m_max + 1), 0, 2)
    table = np.conj(series).T @ modes.reshape(deg, -1)
    return table.reshape(lams.size, m_max + 1, rs.size)


def _modes_by_expansion(lams: np.ndarray, rs: np.ndarray, m_max: int) -> np.ndarray:
    """Phi_{lam, m}(r) for 0 <= m <= m_max and lam > 0 by the Harish-Chandra
    expansion at infinity (module docstring), for radii rs >= ~3.

    With u = e^{-2r}, g_+(u) = sum_n a_n u^n solves the mode equation with
    a_0 = 1, a_{-1} = 0 and, for s = -1/2 + i lam and Lam = lam^2 + 1/4,

        4 n (n - i lam) a_n = [2 (s - 2n + 2)^2 + 2 Lam + 4 m^2] a_{n-1}
                              - [(s - 2n + 4)^2 - (s - 2n + 4) + Lam] a_{n-2};

    for real lam and u, g_- is its complex conjugate and so is the second
    term of the expansion.  The series is summed until two consecutive
    terms fall below roundoff of the sum of term magnitudes at every
    (lam, m, r); NumericalFailure is raised if that takes more than 64
    terms (the calibration table, r > 4 and m <= 31, takes 10).
    """
    il = 1j * lams[:, None]
    s = -0.5 + il
    lam2 = lams[:, None] ** 2 + 0.25
    m4 = 4.0 * np.arange(m_max + 1, dtype=float)[None, :] ** 2
    u = np.exp(-2.0 * rs)
    a_prev = np.zeros((lams.size, m_max + 1), dtype=complex)
    a = np.ones((lams.size, m_max + 1), dtype=complex)
    g = np.ones((lams.size, m_max + 1, rs.size), dtype=complex)
    mass = np.ones(g.shape)
    un = np.ones_like(u)
    prev = np.full(g.shape, np.inf)
    eps = np.finfo(float).eps
    for n in range(1, 65):
        p, q = s - 2 * n + 2, s - 2 * n + 4
        a_prev, a = a, (((2.0 * p**2 + 2.0 * lam2 + m4) * a
                         - (q**2 - q + lam2) * a_prev) / (4 * n * (n - il)))
        un = un * u
        term = a[:, :, None] * un
        g += term
        size = np.abs(term)
        mass += size
        if np.all(size + prev <= eps * mass):
            break
        prev = size
    else:
        raise NumericalFailure(
            f"Harish-Chandra series at lam <= {float(np.max(lams)):.3g}, "
            f"m <= {m_max}, r >= {float(np.min(rs)):.3g} did not converge "
            f"in {n} terms")
    c = np.exp(loggamma(1j * lams) - loggamma(0.5 + 1j * lams)) / math.sqrt(math.pi)
    j = np.arange(1, m_max + 1, dtype=float)[None, :] - 0.5
    pi_m = np.concatenate([np.ones((lams.size, 1)),
                           np.cumprod((j - il) / (j + il), axis=1)], axis=1)
    w = (c[:, None] * np.exp(np.outer(1j * lams - 0.5, rs)))[:, None, :] * g
    return pi_m[:, :, None] * w + np.conj(w)


def radial_mode_table(grid: SpectralGrid, pgrid: PolarGrid, m_max: int) -> np.ndarray:
    """Read-only table Phi[i_lam, m, i_r] over the grid nodes.

    Entries at radii up to _SWITCH_RADIUS come from circle quadrature of the
    plane wave in its Chebyshev basis (_modes_by_quadrature: one real exp
    per radius and angle, then one product with the series), the rest from
    the Harish-Chandra expansion.  Cached per (grid, pgrid, m_max); the
    cache keeps the _TABLE_CACHE_SIZE most recently used tables."""
    key = (grid.lambda_nodes.tobytes(), pgrid.r_nodes.tobytes(), int(m_max))
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        _TABLE_CACHE.move_to_end(key)
        return hit
    lams = grid.lambda_nodes
    rs = pgrid.r_nodes
    near = rs <= _SWITCH_RADIUS
    table = np.empty((lams.size, m_max + 1, rs.size), dtype=complex)
    if np.any(near):
        table[:, :, near] = _modes_by_quadrature(lams, rs[near], m_max)
    if np.any(~near):
        table[:, :, ~near] = _modes_by_expansion(lams, rs[~near], m_max)
    table.setflags(write=False)
    _TABLE_CACHE[key] = table
    if len(_TABLE_CACHE) > _TABLE_CACHE_SIZE:
        _TABLE_CACHE.popitem(last=False)
    return table


def _default_m_max(grid: SpectralGrid, pgrid: PolarGrid) -> int:
    # modes above these Nyquist limits are not representable on either circle
    return min((grid.n_b - 1) // 2, (pgrid.n_theta - 1) // 2)


def _signed_mode_index(m: int, n: int) -> int:
    return m % n


# ---------------------------------------------------------------------------
# transforms, mode route


def tail_mass_fraction(pgrid: PolarGrid, samples: np.ndarray) -> float:
    """Share of the squared mass carried by the annulus r > 0.9 r_max."""
    total = pgrid.norm_sq(samples)
    if total == 0.0:
        return 0.0
    inner = pgrid.norm_sq(samples, within=0.9 * pgrid.r_max)
    return max(0.0, 1.0 - inner / total)


def forward_transform(pgrid: PolarGrid, grid: SpectralGrid, samples: np.ndarray,
                      tail_tol: float | None = 1e-6,
                      m_max: int | None = None) -> SpectralCoeffs:
    """Transform grid samples to spectral coefficients.

    tail_tol bounds the admissible fraction of squared mass in the outer
    10 percent of the radial domain (the estimator for what the truncated
    integral cannot see); pass None to skip the check.
    """
    samples = np.asarray(samples)
    if samples.shape != (pgrid.n_r, pgrid.n_theta):
        raise ValueError("sample array does not match the polar grid")
    if tail_tol is not None:
        frac = tail_mass_fraction(pgrid, samples)
        if frac > tail_tol:
            raise TailMassExceeded(
                f"outer annulus holds {frac:.3e} of the squared mass "
                f"(tolerance {tail_tol:.3e}); enlarge r_max")
    mk = _default_m_max(grid, pgrid) if m_max is None else int(m_max)
    table = radial_mode_table(grid, pgrid, mk)
    f_modes = np.fft.fft(samples, axis=1) / pgrid.n_theta
    wr = pgrid.r_weights * np.sinh(pgrid.r_nodes)
    packed = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    for m in range(-mk, mk + 1):
        fm = f_modes[:, _signed_mode_index(m, pgrid.n_theta)]
        coef = 2.0 * np.pi * (table[:, abs(m), :] @ (wr * fm))
        packed[:, _signed_mode_index(m, grid.n_b)] = coef
    values = np.fft.ifft(packed, axis=1) * grid.n_b
    return SpectralCoeffs(grid, values)


def inverse_on_grid(coeffs: SpectralCoeffs, pgrid: PolarGrid,
                    m_max: int | None = None) -> np.ndarray:
    """Evaluate the inverse transform on a full polar grid (mode route)."""
    grid = coeffs.grid
    mk = _default_m_max(grid, pgrid) if m_max is None else int(m_max)
    table = radial_mode_table(grid, pgrid, mk)
    c_modes = np.fft.fft(coeffs.values, axis=1) / grid.n_b
    wl = grid.lambda_measure
    packed = np.zeros((pgrid.n_r, pgrid.n_theta), dtype=complex)
    for m in range(-mk, mk + 1):
        cm = c_modes[:, _signed_mode_index(m, grid.n_b)]
        fm = np.conj(table[:, abs(m), :]).T @ (wl * cm)
        packed[:, _signed_mode_index(m, pgrid.n_theta)] = fm
    return np.fft.ifft(packed, axis=1) * pgrid.n_theta


def inverse_transform(coeffs: SpectralCoeffs, points) -> np.ndarray:
    """Evaluate the inverse transform at arbitrary disk points (direct route).

    Sums the plane-wave kernels over the discrete boundary circle, so it
    assumes the coefficient field is mode-resolved by n_b; keep evaluation
    points well inside the region the grid resolves.  For each boundary
    angle the lam-sum is one Chebyshev series in the horocycle distance
    a = A(z, b) on |a| <= max d(0, z) (spectral.plane_wave_series, with its
    tail check), evaluated by Clenshaw recurrence; its degree, and so the
    cost per point, grows with lam_max * max d(0, z).
    """
    grid = coeffs.grid
    pts = as_complex(points)
    flat = pts.ravel()
    out = np.zeros(flat.size, dtype=complex)
    if flat.size == 0:
        return out.reshape(pts.shape)
    angles = grid.boundary_angles
    far = flat[np.argmax(np.abs(flat))]
    # A(z, arg z) = d(0, z) bounds |A(z, b)| over the circle
    a_max = float(busemann(far, np.angle(far))) or 1.0
    weighted = (grid.lambda_measure[:, None] * coeffs.values) / grid.n_b
    series = plane_wave_series(grid.lambda_nodes, weighted, a_max)
    chunk = max(1, int(2.0e5 / angles.size))
    for lo in range(0, flat.size, chunk):
        av = busemann(flat[lo:lo + chunk, None], angles[None, :])
        vals = chebval(av / a_max, series, tensor=False)
        out[lo:lo + chunk] = np.sum(np.exp(grid.rho * av) * vals, axis=1)
    return out.reshape(pts.shape)


# ---------------------------------------------------------------------------
# dense direct route (small-domain oracle)


def forward_transform_direct(pgrid: PolarGrid, grid: SpectralGrid,
                             samples: np.ndarray) -> SpectralCoeffs:
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
        kern = np.exp((grid.rho - 1j * lam)[:, None] * av[None, :])
        values[:, j] = kern @ wf
    return SpectralCoeffs(grid, values)


# ---------------------------------------------------------------------------
# Plancherel calibration


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of measuring the global spectral density constant."""

    scale: float
    ratios: np.ndarray
    spread: float


def calibrate_plancherel() -> CalibrationResult:
    """Measure plancherel_scale by Parseval balance on reference functions.

    Transforms four well-localized Gaussian bumps (in hyperbolic distance,
    centers in B(0, 0.5), widths in [0.7, 1.2), fixed seed) on B(0, 8)
    with the density constant set to 1, compares spatial and spectral
    squared norms, and least-squares fits the single constant.  The
    per-function ratios must agree to 1e-3 or the measurement is rejected
    (CalibrationInconsistent).
    """
    grid = build_grid(SpaceParams(), 24.0, 96, 64)
    pgrid = build_polar_grid(8.0, 128, 128)
    rng = np.random.default_rng(0)
    nums, dens = [], []
    for _ in range(4):
        center = random_ball_points(0.5, 1, rng)[0]
        width = 0.7 + 0.5 * rng.random()
        f = np.exp(-(distance(center, pgrid.points)**2) / (2.0 * width**2))
        nums.append(pgrid.norm_sq(f))
        coeffs = forward_transform(pgrid, grid, f, tail_tol=1e-8)
        dens.append(coeffs.norm_sq())
    nums, dens = np.array(nums), np.array(dens)
    ratios = nums / dens
    spread = float(ratios.max() / ratios.min() - 1.0)
    if spread > 1e-3:
        raise CalibrationInconsistent(
            f"per-function Parseval ratios disagree by {spread:.3e} "
            f"(tolerance 1e-3)")
    scale = float(np.dot(nums, dens) / np.dot(dens, dens))
    return CalibrationResult(scale=scale, ratios=ratios, spread=spread)
