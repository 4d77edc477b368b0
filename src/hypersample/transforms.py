"""Forward and inverse Fourier transforms between polar grids and spectral
grids, and the band-limited function they produce and evaluate.

A BandlimitedFunction is its Fourier coefficients on a spectral grid, whose
one panel is the band [0, omega]; forward_transform returns one,
inverse_transform and inverse_on_grid evaluate one, and apply_multiplier
filters one.

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

so the angle sum acts only on the real planes e^{rho A} T_k(A / a_max) of
spectral._horocycle_planes, which point evaluation (inverse_transform)
shares.  Their mode coefficients G are real, the planes being even in t,
and the table is the one product Phi[lam, m, r] = sum_k conj(S[k, lam]) G.

For r beyond ~4 the circle integrand concentrates in an angular window of
width ~e^{-r} and the trapezoid rule needs ~e^r nodes, so past the switch
radius the table comes from the Harish-Chandra expansion at infinity, a
closed form in e^{-2r}:

    Phi_{lam, m}(r) = c(lam) pi_m(lam) e^{(i lam - 1/2) r} g_+(e^{-2r})
                      + c(-lam) e^{(-i lam - 1/2) r} g_-(e^{-2r})

with c(lam) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)) the Harish-Chandra
c-function, pi_m(lam) = prod_{j=1..m} (j - 1/2 - i lam) / (j - 1/2 + i lam),
and g_+- power series whose coefficients follow from the mode equation
(spectral._expansion_orders, which spectral.zonal_sum shares).

Neither transform holds the whole table.  The forward transform streams
it one angular order m at a time (_radial_modes: one product
conj(S)^T G[:, :, m] for the near radii, the expansion's order m for the
far ones) and contracts each order with every sample as it arrives, so a
stack of samples pays for the orders once; radial_mode_table fills the
whole table from the same orders.  inverse_on_grid builds no table of the
radii up to the switch radius: it contracts the weighted coefficients
with S first, h = S (w_lam c_m), and sums
f_m(r) = sum_k G[k, r, |m|] h[k, m] over the real coefficients, and it
takes the expansion's orders of the radii beyond one at a time, as the
forward transform does.  It keeps nothing between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationInconsistent, TailMassExceeded
from .geometry import SpaceParams, distance, random_ball_points
from .spectral import (_SWITCH_RADIUS, Multiplier, SpectralGrid,
                       _circle_cosines, _expansion_orders, _gauss_legendre,
                       _horocycle_planes, _plane_wave_basis, _radius_bound,
                       build_grid, plane_wave_series)

__all__ = [
    "BandlimitedFunction",
    "apply_multiplier",
    "PolarGrid",
    "build_polar_grid",
    "radial_mode_table",
    "forward_transform",
    "inverse_on_grid",
    "inverse_transform",
    "tail_mass_fraction",
    "CalibrationResult",
    "calibrate_plancherel",
]


def _fsum_real(arr: np.ndarray) -> float:
    """Compensated sum of a real array."""
    return math.fsum(np.asarray(arr, dtype=float).ravel().tolist())


@dataclass(eq=False)
class BandlimitedFunction:
    """A function band limited to the band [0, omega] of grid: its complex
    Fourier coefficients there, shape (n_lambda, n_b).  Norms are
    Plancherel-weighted and summed with compensation."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_lambda, self.grid.n_b)
        if self.values.shape != expect:
            raise ValueError(f"coefficient shape {self.values.shape}, expected {expect}")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)

    @property
    def omega(self) -> float:
        return self.grid.omega

    def norm_sq(self) -> float:
        w = self.grid.lambda_measure[:, None] / self.grid.n_b
        return _fsum_real(w * np.abs(self.values) ** 2)

    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq(), 0.0))

    def evaluate(self, points) -> np.ndarray:
        return inverse_transform(self, points)

    def on_grid(self, pgrid: PolarGrid) -> np.ndarray:
        return inverse_on_grid(self, pgrid)


def apply_multiplier(f: BandlimitedFunction,
                     mult: Multiplier) -> BandlimitedFunction:
    """Multiply the coefficients by m(lam), row by row."""
    vals = mult(f.grid.lambda_nodes).astype(complex)
    return BandlimitedFunction(f.grid, f.values * vals[:, None])


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

    def norm_sq(self, samples: np.ndarray, within: float | None = None) -> float:
        """Squared L2 norm, optionally restricted to the ball B(0, within)."""
        m = slice(None) if within is None else self.r_nodes <= within
        return _fsum_real(self.weights2d[m] * np.abs(samples[m]) ** 2)

    def norm(self, samples: np.ndarray) -> float:
        return math.sqrt(max(self.norm_sq(samples), 0.0))


def build_polar_grid(r_max: float, n_r: int, n_theta: int) -> PolarGrid:
    if r_max <= 0 or n_r < 2 or n_theta < 4 or n_theta % 2:
        raise ValueError("bad polar grid parameters")
    x, w = _gauss_legendre(n_r)
    return PolarGrid(
        r_max=float(r_max),
        r_nodes=0.5 * r_max * (x + 1.0),
        r_weights=0.5 * r_max * w,
        n_theta=int(n_theta),
    )


# ---------------------------------------------------------------------------
# radial mode tables


def _phase_node_count(lam_max: float, r_max: float) -> int:
    """Trapezoid node count resolving both the lam*r oscillation and the
    e^{-r} concentration of the circle integrand near theta = 0.

    The periodic trapezoid rule converges like exp(-2 n e^{-r}) against an
    integrand of size e^{r/2}, so n ~ e^r (30 + r) / 2 reaches ~1e-13."""
    osc = 8.0 * max(1.0, lam_max * r_max) / (2.0 * np.pi)
    spike = 0.5 * math.exp(min(r_max, 12.0)) * (30.0 + r_max)
    n = max(256.0, osc, spike)
    return int(2 ** math.ceil(math.log2(n)))


def _circle_modes(lams: np.ndarray, rs: np.ndarray,
                  m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, G): the unit basis S of spectral._plane_wave_basis, shape
    (deg, lams.size), and the real mode coefficients G[k, r, m] of its
    planes at x = tanh(r/2) for 0 <= m <= m_max (spectral._circle_cosines,
    in its own point blocks), so that Phi[lam, m, r] =
    sum_k conj(S[k, lam]) G[k, r, m].

    Only reliable up to moderate r; the caller keeps rs <= switch radius.
    The trapezoid rule runs over _phase_node_count angles."""
    n = _phase_node_count(float(np.max(lams)), float(np.max(rs)))
    n = max(n, 4 * (m_max + 1))
    x = np.tanh(rs / 2.0)
    a_max, series = _plane_wave_basis(x, lams, np.ones(lams.size))
    return series, _circle_cosines(x, n, m_max, a_max, series.shape[0])


def _near_and_far(lams: np.ndarray, rs: np.ndarray, m_max: int):
    """(S, G, far): _circle_modes at the radii up to _SWITCH_RADIUS (empty
    when there are none) and the generator of the expansion's orders,
    spectral._expansion_orders, at the radii beyond it (the radii ascend,
    as build_polar_grid makes them)."""
    n_near = int(np.count_nonzero(rs <= _SWITCH_RADIUS))
    if n_near < rs.size:
        far = _expansion_orders(lams, rs[n_near:], m_max)
    else:
        far = iter([np.zeros((lams.size, 0), dtype=complex)] * (m_max + 1))
    if n_near:
        series, modes = _circle_modes(lams, rs[:n_near], m_max)
    else:
        series = np.zeros((0, lams.size), dtype=complex)
        modes = np.zeros((0, 0, m_max + 1))
    return series, modes, far


def _radial_modes(lams: np.ndarray, rs: np.ndarray, m_max: int):
    """Yield Phi[:, m, :], shape (lams.size, rs.size), for m = 0 .. m_max.

    The near radii take one product conj(S)^T G[:, :, m] of _circle_modes
    per order, the far ones the expansion's order m, so what lives beyond
    one order is G and the expansion's coefficients, never the table.
    Each entry's bits are those of the whole table built in one pass."""
    series, modes, far = _near_and_far(lams, rs, m_max)
    basis = np.conj(series).T
    for m in range(m_max + 1):
        yield np.concatenate([basis @ modes[:, :, m], next(far)], axis=1)


def radial_mode_table(grid: SpectralGrid, pgrid: PolarGrid,
                      m_max: int) -> np.ndarray:
    """Table Phi[i_lam, m, i_r] over the lambda nodes of the grid, filled
    one order at a time from _radial_modes: circle quadrature of the plane
    wave in its Chebyshev basis at the radii up to _SWITCH_RADIUS, the
    Harish-Chandra expansion beyond.  No library route reads it, since
    forward_transform streams the same orders; it is the reference the
    streamed orders are checked against, bit for bit."""
    lams, rs = grid.lambda_nodes, pgrid.r_nodes
    table = np.empty((lams.size, m_max + 1, rs.size), dtype=complex)
    for m, phi in enumerate(_radial_modes(lams, rs, m_max)):
        table[:, m] = phi
    return table


def _default_m_max(grid: SpectralGrid, pgrid: PolarGrid) -> int:
    # modes above these Nyquist limits are not representable on either circle
    return min((grid.n_b - 1) // 2, (pgrid.n_theta - 1) // 2)


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
                      tail_tol: float | None = 1e-6
                      ) -> BandlimitedFunction | list[BandlimitedFunction]:
    """Transform grid samples to spectral coefficients.

    samples has shape (..., n_r, n_theta): one sample array, whose
    BandlimitedFunction is returned, or a stack of them, which gives a list
    of them in C order of the leading axes.  The mode orders come
    from _radial_modes one at a time, and each is contracted with every
    sample (one matrix-vector product per sample and sign of m) before the
    next is formed, so no table is held or cached, and a stack pays for
    the orders once.  Each sample's coefficients are bit for bit those of
    transforming it alone.

    tail_tol bounds the admissible fraction of squared mass in the outer
    10 percent of the radial domain for every sample (the estimator for
    what the truncated integral cannot see); pass None to skip the check.
    """
    samples = np.asarray(samples)
    if samples.shape[-2:] != (pgrid.n_r, pgrid.n_theta):
        raise ValueError("sample array does not match the polar grid")
    stack = samples.reshape(-1, pgrid.n_r, pgrid.n_theta)
    if tail_tol is not None:
        for s in stack:
            frac = tail_mass_fraction(pgrid, s)
            if frac > tail_tol:
                raise TailMassExceeded(
                    f"outer annulus holds {frac:.3e} of the squared mass "
                    f"(tolerance {tail_tol:.3e}); enlarge r_max")
    mk = _default_m_max(grid, pgrid)
    f_modes = np.fft.fft(stack, axis=2) / pgrid.n_theta
    wr = pgrid.r_weights * np.sinh(pgrid.r_nodes)
    packed = np.zeros((len(stack), grid.n_lambda, grid.n_b), dtype=complex)
    for m, phi in enumerate(_radial_modes(grid.lambda_nodes, pgrid.r_nodes,
                                          mk)):
        for col in {m, -m}:
            for i, fm in enumerate(f_modes[:, :, col % pgrid.n_theta]):
                packed[i, :, col % grid.n_b] = 2.0 * np.pi * (phi @ (wr * fm))
    values = np.fft.ifft(packed, axis=2) * grid.n_b
    coeffs = [BandlimitedFunction(grid, v) for v in values]
    return coeffs[0] if samples.ndim == 2 else coeffs


def inverse_on_grid(coeffs: BandlimitedFunction,
                    pgrid: PolarGrid) -> np.ndarray:
    """Evaluate the inverse transform on a full polar grid (mode route).

    At the radii up to _SWITCH_RADIUS the lambda sum runs through the
    real mode coefficients G of _circle_modes: h = S (w_lam c_m), a
    deg x n_b matrix, then f_m(r) = sum_k G[k, r, |m|] h[k, m], so no
    lambda table of those radii exists; the radii beyond take the
    Harish-Chandra expansion's orders one at a time.  Each call builds
    what it reads, and the values agree with the whole mode table's route
    to roundoff (within 1e-14 of max|f|)."""
    grid = coeffs.grid
    mk = _default_m_max(grid, pgrid)
    series, modes, far = _near_and_far(grid.lambda_nodes, pgrid.r_nodes, mk)
    c_modes = np.fft.fft(coeffs.values, axis=1) / grid.n_b
    wc = grid.lambda_measure[:, None] * c_modes
    h = series @ wc
    n_near = modes.shape[1]
    packed = np.zeros((pgrid.n_r, pgrid.n_theta), dtype=complex)
    for m in range(mk + 1):
        # modes m and -m, the columns m and -m of h, wc and packed
        pair = [m, -m]
        packed[:n_near, pair] = modes[:, :, m].T @ h[:, pair]
        packed[n_near:, pair] = np.conj(next(far)).T @ wc[:, pair]
    return np.fft.ifft(packed, axis=1) * pgrid.n_theta


def inverse_transform(coeffs: BandlimitedFunction, points) -> np.ndarray:
    """Evaluate the inverse transform at arbitrary disk points (direct route).

    Sums the plane-wave kernels over the discrete boundary circle, so it
    assumes the coefficient field is mode-resolved by n_b; keep evaluation
    points well inside the region the grid resolves.  For each boundary
    angle the lam-sum is one Chebyshev series in the horocycle distance
    a = A(z, b) on |a| <= max d(0, z) (spectral.plane_wave_series, with its
    tail check), and each real plane of spectral._horocycle_planes is
    contracted with the matching coefficients of the n_b series.  The
    series is cut at its roundoff plateau, so its length, and the cost per
    point, follows the decay of the weighted coefficients in lam: 18 terms
    instead of the 68 it starts from for the omega = 2 test function at the
    r = 0.1 lattice points (domain 1.4), one zero term for zero
    coefficients.
    """
    grid = coeffs.grid
    pts = np.asarray(points, dtype=complex)
    flat = pts.ravel()
    if flat.size == 0:
        return np.zeros(pts.shape, dtype=complex)
    a_max = _radius_bound(flat)
    weighted = (grid.lambda_measure[:, None] * coeffs.values) / grid.n_b
    series = plane_wave_series(grid.lambda_nodes, weighted, a_max)
    # real (n_b, 2) columns [Re, Im] per degree keep the planes real
    parts = np.stack([series.real, series.imag], axis=2)
    acc = np.zeros((flat.size, 2))
    for blk, k, plane in _horocycle_planes(flat, grid.boundary_angles,
                                           a_max, len(series)):
        acc[blk] += plane @ parts[k]
    return (acc[:, 0] + 1j * acc[:, 1]).reshape(pts.shape)


# ---------------------------------------------------------------------------
# Plancherel calibration

# the calibration's spectral grid and polar grid, and its tail tolerance
_CAL_LAM_MAX = 24.0
_CAL_N_LAMBDA = 96
_CAL_N_B = 64
_CAL_POLAR_GRID = (8.0, 128, 128)
_CAL_TAIL_TOL = 1e-8


def _bump_norms_sq(grid: SpectralGrid, draws) -> tuple[np.ndarray, np.ndarray]:
    """Spatial and spectral squared norms of the Gaussian bumps
    exp(-d(c, x)^2 / (2 w^2)), one per (c, w) in draws, on _CAL_POLAR_GRID,
    from one forward_transform onto grid at _CAL_TAIL_TOL; Parseval
    balance makes them equal."""
    pgrid = build_polar_grid(*_CAL_POLAR_GRID)
    bumps = np.empty((len(draws), pgrid.n_r, pgrid.n_theta))
    for f, (center, width) in zip(bumps, draws):
        f[...] = np.exp(-distance(center, pgrid.points)**2 / (2.0 * width**2))
    spatial = np.array([pgrid.norm_sq(f) for f in bumps])
    coeffs = forward_transform(pgrid, grid, bumps, tail_tol=_CAL_TAIL_TOL)
    return spatial, np.array([c.norm_sq() for c in coeffs])


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of measuring the global spectral density constant."""

    scale: float
    spread: float


@functools.lru_cache(maxsize=1)
def calibrate_plancherel() -> CalibrationResult:
    """Measure plancherel_scale by Parseval balance on reference functions.

    Transforms four well-localized Gaussian bumps (in hyperbolic distance,
    centers in B(0, 0.5), widths in [0.7, 1.2), fixed seed) on B(0, 8)
    with the density constant set to 1, compares spatial and spectral
    squared norms (_bump_norms_sq), and least-squares fits the single
    constant.  The per-function ratios must agree to 1e-3 or the
    measurement is rejected (CalibrationInconsistent).

    The measurement has no inputs, so it runs once per process: later
    calls return the same result, a frozen pair of floats
    (calibrate_plancherel.cache_clear() forces a fresh measurement).

    Memory: the four bumps go through one forward_transform, which
    streams the lam <= 24 mode orders, so the whole table (6.3 MB) never
    exists.  The expansion's term count (its real sum of term magnitudes,
    1.6 MB) is found and freed before the near radii's real coefficients
    G (2.6 MB) are built; G, its build transients and the samples set the
    peak.  Nothing outlives the call but the result.
    """
    grid = build_grid(SpaceParams(), _CAL_LAM_MAX, _CAL_N_LAMBDA, _CAL_N_B)
    rng = np.random.default_rng(0)
    draws = [(random_ball_points(0.5, 1, rng)[0], 0.7 + 0.5 * rng.random())
             for _ in range(4)]
    nums, dens = _bump_norms_sq(grid, draws)
    ratios = nums / dens
    spread = float(ratios.max() / ratios.min() - 1.0)
    if spread > 1e-3:
        raise CalibrationInconsistent(
            f"per-function Parseval ratios disagree by {spread:.3e} "
            f"(tolerance 1e-3)")
    scale = float(np.dot(nums, dens) / np.dot(dens, dens))
    return CalibrationResult(scale=scale, spread=spread)
