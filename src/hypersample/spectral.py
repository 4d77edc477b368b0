"""Spectral objects for Fourier analysis on the hyperbolic plane.

The continuous Fourier transform used throughout pairs a function on the
disk with the plane-wave kernels exp((-i lam + rho) A(x, b)) where A is the
horocycle distance (geometry.busemann), b runs over the boundary circle and
rho = geometry.RHO = 1/2.
Its inverse integrates against exp((+i lam + rho) A(x, b)) with the
spectral density

    density(lam) = plancherel_scale * |Gamma(1/2 + i lam)|^2 / |Gamma(i lam)|^2
                 = plancherel_scale * lam * tanh(pi * lam),

the rank-one Gamma-quotient form of the inverse Harish-Chandra c factor.
The global constant plancherel_scale is measured by calibration, not taken
on faith (transforms.calibrate_plancherel).

A SpectralGrid fixes the quadrature discretization: one Gauss-Legendre
panel in lam on the band [0, omega], the only spectrum a band limited
function has, and a uniform trapezoid grid of n_b angles on the boundary
with normalized measure db = d(theta)/(2 pi).  SpectralCoeffs hold complex
values on that grid; all norms are Plancherel-weighted and accumulated with
compensated summation.

Sums over lam of plane waves, sum_lam c_lam e^{i lam a}, are functions of the
single variable a = A(x, b) on |a| <= max d(0, x); plane_wave_series turns
them into Chebyshev series once (with unit coefficients, the basis S of
_plane_wave_basis).  Every such sum at (point, boundary angle) pairs then
runs through one evaluator, _horocycle_planes: the real planes
e^{rho A} T_k(A / a_max), one real exp per pair and one recurrence step per
degree, in blocks of geometry.row_blocks, each reduced by its consumer as
soon as it is made.  The frame factor (sampling), the spline band
projection (splines), point evaluation and the radial mode table
(transforms) and the zonal sums K(t) = sum_lam c_lam phi_lam(t) of
zonal_sum up to _SWITCH_RADIUS (through the folded circle sum
_circle_cosines) are all contractions of these planes; past it zonal_sum,
like the mode table, sums the Harish-Chandra expansion.  zonal_series
turns K into one Chebyshev series in t for the spline kernel table, and
spherical_function is zonal_sum with one unit coefficient per lam.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import MultiplierVanishes, NumericalFailure
from .geometry import RHO, busemann, row_blocks

__all__ = [
    "plancherel_density",
    "spherical_function",
    "plane_wave_series",
    "zonal_sum",
    "zonal_series",
    "SpectralGrid",
    "build_grid",
    "SpectralCoeffs",
    "Multiplier",
    "IDENTITY",
    "sobolev_multiplier",
    "apply_multiplier",
]


def _fsum_real(arr: np.ndarray) -> float:
    """Compensated sum of a real array."""
    return math.fsum(np.asarray(arr, dtype=float).ravel().tolist())


def plancherel_density(lam, scale: float = 1.0) -> np.ndarray:
    """Spectral density scale * |Gamma(1/2+i lam)|^2 / |Gamma(i lam)|^2.

    Defined for lam > 0; the Gamma quotient reduces to lam * tanh(pi * lam)
    (|Gamma(1/2 + i lam)|^2 = pi / cosh(pi lam) and |Gamma(i lam)|^2 =
    pi / (lam sinh(pi lam))), which is what is evaluated.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("plancherel_density requires lam > 0")
    return scale * (lam * np.tanh(np.pi * lam))


# (2 - 2^{1-2k}) B_{2k} / ((2k - 1) 2k), k = 1..8: the asymptotic series of
# log Gamma(w) - log Gamma(w + 1/2) + (1/2) log w in odd powers of 1/w
_HALF_SHIFT_SERIES = tuple(
    (2.0 - 2.0 ** (1 - 2 * k)) * b / ((2 * k - 1) * 2 * k)
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                           -691 / 2730, 7 / 6, -3617 / 510), start=1))
_STIRLING_SHIFT = 10.0


def _gamma_ratio(z) -> np.ndarray:
    """Gamma(z) / Gamma(z + 1/2) for complex z with Re z >= 0, z != 0.

    The argument is shifted up to w = z + n with Re w >= _STIRLING_SHIFT by
    Gamma(z) / Gamma(z + 1/2) = prod_{j<n} (z + j + 1/2) / (z + j) *
    Gamma(w) / Gamma(w + 1/2); there the difference of the two Stirling
    series is taken term by term, log Gamma(w) - log Gamma(w + 1/2) =
    -(1/2) log w + sum_k (2 - 2^{1-2k}) B_{2k} / ((2k - 1) 2k w^{2k-1}),
    so the large phases Im((w - 1/2) log w - w) of the two log Gammas
    cancel analytically instead of in floating point (the shift-and-Stirling
    scheme of Hare, J. Algorithms 25 (1997)).  Eight terms at |w| >= 10
    leave a truncation error below 1e-17 relative.
    """
    z = np.asarray(z, dtype=complex)
    low = float(np.min(z.real, initial=_STIRLING_SHIFT))
    n = math.ceil(_STIRLING_SHIFT - low)
    shift = np.ones_like(z)
    for j in range(n):
        shift *= (z + (j + 0.5)) / (z + j)
    w = z + n
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(z)
    for c in reversed(_HALF_SHIFT_SERIES):
        series = series * inv2 + c
    return shift * np.exp(series / w) / np.sqrt(w)


_SWITCH_RADIUS = 4.0


def _expansion_orders(lams: np.ndarray, rs: np.ndarray, m_max: int):
    """Phi_{lam, m}(r) for lam > 0 by the Harish-Chandra expansion at
    infinity (transforms module docstring), for radii rs >= ~3: an
    iterator over m = 0 .. m_max of arrays of shape (lams.size, rs.size).

    With u = e^{-2r}, g_+(u) = sum_n a_n u^n solves the mode equation with
    a_0 = 1, a_{-1} = 0 and, for s = -1/2 + i lam and Lam = lam^2 + 1/4,

        4 n (n - i lam) a_n = [2 (s - 2n + 2)^2 + 2 Lam + 4 m^2] a_{n-1}
                              - [(s - 2n + 4)^2 - (s - 2n + 4) + Lam] a_{n-2};

    for real lam and u, g_- is its complex conjugate and so is the second
    term of the expansion.  The Gamma ratio of c(lam) is _gamma_ratio.
    Every order sums the same number of terms: the first n at which two
    consecutive terms fall below roundoff of the sum of term magnitudes at
    every (lam, m, r); NumericalFailure is raised if that takes more than
    64 terms (the calibration's far radii, r > 4 and m <= 31, take 10).

    That count is found by the call, one block of lam rows at a time
    (geometry.row_blocks over (m_max + 1) * rs.size entries per row), with
    the real sum of term magnitudes as the only array of all the orders;
    it is freed before the call returns.  Each order then sums its terms
    and takes its phase step as the iterator reaches it, so an order costs
    one (lams.size, rs.size) array and its bits are those of one
    whole-array pass.
    """
    il = 1j * lams[:, None]
    s = -0.5 + il
    lam2 = lams[:, None] ** 2 + 0.25
    m4 = 4.0 * np.arange(m_max + 1, dtype=float)[None, :] ** 2
    u = np.exp(-2.0 * rs)
    blocks = row_blocks(lams.size, (m_max + 1) * rs.size)
    a_prev = np.zeros((lams.size, m_max + 1), dtype=complex)
    a = np.ones((lams.size, m_max + 1), dtype=complex)
    un = np.ones_like(u)
    terms = []      # (a_n, u^n) for n >= 1
    mass = np.ones((lams.size, m_max + 1, rs.size))
    eps = np.finfo(float).eps
    for n in range(1, 65):
        p, q = s - 2 * n + 2, s - 2 * n + 4
        a_prev, a = a, (((2.0 * p**2 + 2.0 * lam2 + m4) * a
                         - (q**2 - q + lam2) * a_prev) / (4 * n * (n - il)))
        un_prev, un = un, un * u
        terms.append((a, un))
        done = n > 1
        for blk in blocks:
            size = np.abs(a[blk, :, None] * un)
            mass[blk] += size
            if done:
                size += np.abs(a_prev[blk, :, None] * un_prev)
                done = bool(np.all(size <= eps * mass[blk]))
        if done:
            break
    else:
        raise NumericalFailure(
            f"Harish-Chandra series at lam <= {float(np.max(lams)):.3g}, "
            f"m <= {m_max}, r >= {float(np.min(rs)):.3g} did not converge "
            f"in {n} terms")
    c = _gamma_ratio(1j * lams) / math.sqrt(math.pi)
    j = np.arange(1, m_max + 1, dtype=float)[None, :] - 0.5
    pi_m = np.concatenate([np.ones((lams.size, 1)),
                           np.cumprod((j - il) / (j + il), axis=1)], axis=1)
    phase = c[:, None] * np.exp(np.outer(1j * lams - 0.5, rs))

    def orders():
        for m in range(m_max + 1):
            g = np.ones((lams.size, rs.size), dtype=complex)
            for a_n, u_n in terms:
                g += a_n[:, m, None] * u_n
            w = phase * g
            np.multiply(pi_m[:, m, None], w, out=g)
            g += np.conj(w)
            yield g

    return orders()


_SERIES_MARGIN = 64
_SERIES_TAIL = 8
_SERIES_TOL = 1e-14
# coefficients at or below this share of the largest are roundoff: the
# DCT of rounded samples leaves a plateau of 1-3 eps there
_SERIES_FLOOR = 4.0 * np.finfo(float).eps
_SERIES_MAX_DEG = 4096


def _chebyshev_fit(sample: Callable[[np.ndarray], np.ndarray], deg: int,
                   what: str) -> np.ndarray:
    """Chebyshev coefficients of the interpolant at the deg + 1 first-kind
    Chebyshev points x (a DCT-II of sample(x)), doubling deg until the tail
    check passes, then cut at the roundoff plateau.

    The DCT-II of the n samples v_j is the length-2n FFT of v followed by
    v reversed, times e^{-i pi k / (2n)}: one real FFT for real samples,
    one complex FFT for complex ones.

    Tail check: the largest of the last _SERIES_TAIL coefficients, summed
    over the columns, must stay below _SERIES_TOL of the l1 norm of the
    whole series.  Otherwise the degree doubles, up to _SERIES_MAX_DEG,
    where NumericalFailure is raised.  The series returned ends at its last
    degree whose largest coefficient over the columns is above
    _SERIES_FLOOR times the largest of all (chopping at the plateau, as in
    Aurentz and Trefethen, ACM TOMS 43 (2017)); an all-zero series keeps
    degree 0.  So its length follows the coefficients, not the starting
    degree.
    """
    while True:
        n = deg + 1
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        v = sample(x)
        v = np.concatenate([v, v[::-1]])
        twist = np.exp(-0.5j * np.pi * np.arange(n) / n).reshape(
            (n,) + (1,) * (v.ndim - 1)) / n
        if np.iscomplexobj(v):
            series = np.fft.fft(v, axis=0)[:n] * twist
        else:
            series = (np.fft.rfft(v, axis=0)[:n] * twist).real
        series[0] /= 2.0
        mags = np.abs(series)
        tail = float(np.sum(np.max(mags[-_SERIES_TAIL:], axis=0)))
        norm = float(np.sum(mags))
        if tail <= _SERIES_TOL * norm:
            top = np.max(mags.reshape(n, -1), axis=1)
            above = np.flatnonzero(top > _SERIES_FLOOR * top.max())
            return series[:above[-1] + 1 if above.size else 1]
        if deg >= _SERIES_MAX_DEG:
            raise NumericalFailure(
                f"{what}: tail {tail / norm:.2e} of the l1 norm at degree "
                f"{deg}")
        deg = min(2 * deg, _SERIES_MAX_DEG)


def plane_wave_series(lams, coeffs, a_max: float) -> np.ndarray:
    """Chebyshev series of the plane-wave sums h_j(a) = sum_i coeffs[i, j] e^{i lams[i] a}.

    Returns the coefficients of each h_j in the variable a / a_max, shape
    (deg + 1,) + coeffs.shape[1:], one column per column of coeffs, valid
    at |a| <= a_max (_horocycle_planes evaluates them).  Each h_j has
    exponential type max|lam|, so its Chebyshev coefficients decay faster
    than geometrically beyond degree max|lam| * a_max; the interpolant at
    the first-kind Chebyshev points (a DCT-II of the sampled sums) starts
    _SERIES_MARGIN degrees past that and is exact to roundoff.  The tail
    check of _chebyshev_fit may raise that degree, and its cut at the
    roundoff plateau sets the deg returned: it follows the size of the
    coefficients, so sums whose weights decay in lam (or vanish) come out
    far shorter than max|lam| * a_max.
    """
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs)
    if not a_max > 0:
        raise ValueError("plane_wave_series needs a_max > 0")
    lam_top = float(np.max(np.abs(lams)))
    deg = min(math.ceil(lam_top * a_max) + _SERIES_MARGIN, _SERIES_MAX_DEG)
    return _chebyshev_fit(
        lambda x: np.exp(1j * a_max * np.outer(x, lams)) @ coeffs, deg,
        f"plane-wave series at lam {lam_top:.3g}, |a| <= {a_max:.3g}")


def _radius_bound(points: np.ndarray) -> float:
    """max d(0, x_j), which bounds |A(x_j, b)| over the circle, since
    A(x, arg x) = d(0, x); 1.0 when all points sit at the origin."""
    far = points[np.argmax(np.abs(points))]
    return float(busemann(far, np.angle(far))) or 1.0


def _plane_wave_basis(points: np.ndarray, lam: np.ndarray,
                      scale: np.ndarray) -> tuple[float, np.ndarray]:
    """a_max = _radius_bound(points) and S, shape (deg, lam.size), with
    scale_i e^{i lam_i a} = sum_k S[k, i] T_k(a / a_max) on |a| <= a_max
    (plane_wave_series of diag(scale): its length follows the largest
    scale_i, not max(lam) a_max alone)."""
    a_max = _radius_bound(points)
    return a_max, plane_wave_series(lam, np.diag(scale), a_max)


def _horocycle_planes(points: np.ndarray, angles: np.ndarray, a_max: float,
                      deg: int):
    """Yield (blk, k, P), P = e^{rho A} T_k(A / a_max) at A = A(x_j, b_l)
    for the points j in blk and every angle l, k < deg, block by block of
    geometry.row_blocks(points.size, angles.size).

    One real exp per (point, angle), then T_{k+1} = 2 x T_k - T_{k-1},
    which is linear and so carries the factor e^{rho A} along.  With S from
    _plane_wave_basis, e^{(rho + i lam_i) A} = sum_k P_k S[k, i].  P is a
    work buffer the next steps overwrite: reduce it before asking for more.
    """
    for blk in row_blocks(points.size, angles.size):
        a = busemann(points[blk, None], angles[None, :])
        cur = np.exp(RHO * a)
        a /= a_max
        # T_{-1} = T_1 starts the recurrence: 2 x T_0 - x T_0 is x T_0 exactly
        prev = a * cur
        a *= 2.0
        spare = np.empty_like(a)
        yield blk, 0, cur
        for k in range(1, deg):
            np.multiply(a, cur, out=spare)
            spare -= prev
            prev, cur, spare = cur, spare, prev
            yield blk, k, cur


def _circle_cosines(points: np.ndarray, n: int, m_max: int, a_max: float,
                    deg: int) -> np.ndarray:
    """G[k, j, m] = (1/n) sum_l cos(m t_l) e^{rho A} T_k(A / a_max) at
    A = A(x_j, t_l), t_l = 2 pi l / n, for points x_j on the positive axis.

    There A(x, t) = A(x, -t), so the circle folds onto 0 <= t <= pi, each
    interior angle counted twice, and each plane is one matrix product.
    """
    half = np.arange(n // 2 + 1)
    t = 2.0 * np.pi * half / n
    fold = np.where((half == 0) | (2 * half == n), 1.0, 2.0) / n
    cos_mt = fold[:, None] * np.cos(np.outer(t, np.arange(m_max + 1)))
    out = np.empty((deg, points.size, m_max + 1))
    for blk, k, plane in _horocycle_planes(points, t, a_max, deg):
        np.matmul(plane, cos_mt, out=out[k, blk])
    return out


def _busemann_angle_count(lam_max: float, a_max: float) -> int:
    """Boundary angles resolving the Busemann average at radii up to a_max.

    The circle integrand e^{(i lam + rho) A(t, b)} oscillates lam * t times
    and is analytic in b on the strip |Im b| < s = log(1/tanh(t/2)), so the
    trapezoid rule needs ~1.5 lam t + 256 angles for the oscillation and
    40 / s for the strip (error ~ e^{-40}).  Inside the strip the Poisson
    denominator keeps a positive real part, so |Im A| < pi/2 and e^{i lam A}
    grows by up to e^{lam pi/2}; once that growth dominates, the strip term
    keeps 24 e-folds beyond it, (24 + lam pi/2) / s (measured: a unit
    coefficient then errs by at most 5e-14 for lam <= 30 at radii up to 8).
    Rounded up to a multiple of 64; zonal_sum asks only for a_max <= ~4.
    """
    strip = -math.log(math.tanh(a_max / 2.0))
    need = max(1.5 * lam_max * a_max + 256.0,
               max(40.0, 24.0 + 0.5 * math.pi * lam_max) / strip)
    return 64 * math.ceil(need / 64.0)


def zonal_sum(lams, coeffs, t: np.ndarray, a_max: float) -> np.ndarray:
    """Zonal sums K(t) = sum_i coeffs[i] phi_{lams[i]}(t) for real coeffs.

    The result has shape coeffs.shape[1:] + t.shape, for a 1-D t >= 0.  Up
    to _SWITCH_RADIUS phi_lam(t) is the mean over _busemann_angle_count
    boundary angles of e^{rho A} cos(lam A) at A = A(t, b): the angle means
    of the planes (_circle_cosines, mode 0) contracted with the real part
    of one plane_wave_series on |A| <= a_max (at least max t, and the
    switch radius once some t lies past it).  There the angle count grows
    like e^t, and phi is the m = 0 order of _expansion_orders at |lam| (at
    1e-10 for lam = 0, its c-function's pole; phi is even and analytic in
    lam).
    """
    far = t > _SWITCH_RADIUS
    out = np.empty(coeffs.shape[1:] + t.shape)
    if np.any(far):
        phi, = _expansion_orders(np.maximum(np.abs(lams), 1e-10), t[far], 0)
        out[..., far] = np.tensordot(coeffs, phi.real, axes=(0, 0))
        a_max = _SWITCH_RADIUS
    if not np.all(far):
        series = plane_wave_series(lams, coeffs, a_max).real
        n_b = _busemann_angle_count(float(np.max(np.abs(lams))), a_max)
        means = _circle_cosines(np.tanh(t[~far] / 2), n_b, 0, a_max,
                                len(series))
        out[..., ~far] = np.tensordot(series, means[:, :, 0], axes=(0, 0))
    return out


def zonal_series(lams, coeffs, t_max: float) -> np.ndarray:
    """Chebyshev series of K(t) = sum_i coeffs[i] phi_{lams[i]}(t) on [0, t_max].

    The coefficients are in the variable 2 t / t_max - 1, ready for chebval.
    K is sampled by zonal_sum at the first-kind Chebyshev points and carries
    the tail check of _chebyshev_fit.
    """
    lam_top = float(np.max(np.abs(np.asarray(lams, dtype=float))))
    deg = min(math.ceil(lam_top * t_max / 2.0) + _SERIES_MARGIN,
              _SERIES_MAX_DEG)
    return _chebyshev_fit(
        lambda x: zonal_sum(lams, coeffs, 0.5 * t_max * (x + 1.0), t_max),
        deg, f"zonal series at lam {lam_top:.3g}, t <= {t_max:.3g}")


def spherical_function(lam, r) -> np.ndarray:
    """Elementary zonal eigenfunction phi_lam(r) of the Laplacian.

    phi_lam(r) = (1/2pi) int_0^{2pi} (cosh r - sinh r cos t)^(-1/2 + i lam) dt,
    normalized so phi_lam(0) = 1, |phi_lam| <= 1, and
    phi'' + coth(r) phi' + (lam^2 + 1/4) phi = 0; it is even in lam and in r.

    Evaluated by zonal_sum with one unit coefficient column per distinct
    |lam|, at the distinct |r|.
    """
    lam_b, r_b = np.broadcast_arrays(np.abs(np.asarray(lam, dtype=float)),
                                     np.abs(np.asarray(r, dtype=float)))
    lams, li = np.unique(lam_b, return_inverse=True)
    rs, ri = np.unique(r_b, return_inverse=True)
    # near the origin A(r, b) carries absolute rounding ~eps: an interval
    # of at least |a| <= 1 keeps it inside the plane-wave series' domain
    table = zonal_sum(lams, np.eye(lams.size), rs, np.max(rs, initial=1.0))
    return table[li.ravel(), ri.ravel()].reshape(lam_b.shape)


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Quadrature grid on the band [0, omega] x boundary circle.

    lambda_nodes are the strictly increasing Gauss-Legendre nodes of one
    panel on [0, omega].  density already includes plancherel_scale.
    """

    lambda_nodes: np.ndarray
    lambda_weights: np.ndarray
    density: np.ndarray
    n_b: int
    omega: float
    plancherel_scale: float

    @property
    def n_lambda(self) -> int:
        return self.lambda_nodes.size

    @property
    def n_band(self) -> int:
        # the whole grid is the band; kept for the benchmark's tracer
        # (scenario_bench/spans.py) until ROADMAP item 13
        return self.n_lambda

    @property
    def boundary_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_b) / self.n_b

    @property
    def lambda_measure(self) -> np.ndarray:
        """Quadrature weight times spectral density, per lambda node."""
        return self.lambda_weights * self.density


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1],
    memoised: the same few rules are asked for many times per run."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gl_panel(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def build_grid(space, omega: float, n_lambda: int, n_b: int) -> SpectralGrid:
    """Construct a SpectralGrid with the density constant of space: an
    n_lambda-point Gauss-Legendre panel on [0, omega]."""
    if omega <= 0 or n_lambda < 2 or n_b < 4 or n_b % 2:
        raise ValueError("bad grid parameters")
    nodes, weights = _gl_panel(0.0, omega, n_lambda)
    return SpectralGrid(
        lambda_nodes=nodes,
        lambda_weights=weights,
        density=plancherel_density(nodes, space.plancherel_scale),
        n_b=int(n_b),
        omega=float(omega),
        plancherel_scale=float(space.plancherel_scale),
    )


@dataclass(eq=False)
class SpectralCoeffs:
    """Complex coefficient field on a SpectralGrid, shape (n_lambda, n_b)."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_lambda, self.grid.n_b)
        if self.values.shape != expect:
            raise ValueError(f"coefficient shape {self.values.shape}, expected {expect}")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)

    def norm_sq(self) -> float:
        w = self.grid.lambda_measure[:, None] / self.grid.n_b
        return _fsum_real(w * np.abs(self.values) ** 2)

    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq(), 0.0))


@dataclass(frozen=True)
class Multiplier:
    """Spectral multiplier m(lam) acting diagonally on coefficients."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        """m at the nodes lam: raises ValueError unless it is finite there,
        one value per node."""
        vals = np.asarray(self.fn(lam))
        if vals.shape != np.shape(lam):
            raise ValueError(f"multiplier {self.label} must evaluate "
                             f"elementwise on the lambda nodes")
        if not np.all(np.isfinite(vals)):
            bad = np.asarray(lam)[~np.isfinite(vals)][0]
            raise ValueError(f"multiplier {self.label} is not finite at "
                             f"lam = {bad:.6g}")
        return vals

    def values_on(self, grid: SpectralGrid) -> np.ndarray:
        return self(grid.lambda_nodes)

    def band_values(self, grid: SpectralGrid) -> np.ndarray:
        """m on the nodes of grid, which it must not vanish on: raises
        MultiplierVanishes where |m| <= 1e-12."""
        vals = self.values_on(grid)
        if np.min(np.abs(vals)) <= 1e-12:
            raise MultiplierVanishes(
                f"multiplier {self.label!r} vanishes on the band")
        return vals


# the multiplier of the Dirac mass: convolution with it is point evaluation
IDENTITY = Multiplier(fn=np.ones_like, label="identity")


def sobolev_multiplier(sigma: float) -> Multiplier:
    """Modulus symbol (lam^2 + rho^2)^sigma of the fractional power |Delta|^sigma."""
    return Multiplier(fn=lambda lam: (lam**2 + RHO**2) ** sigma, label=f"sobolev_{sigma}")


def apply_multiplier(coeffs: SpectralCoeffs,
                     mult: Multiplier) -> SpectralCoeffs:
    """Multiply coefficients by m(lam), row by row."""
    vals = mult.values_on(coeffs.grid).astype(complex)
    return SpectralCoeffs(coeffs.grid, coeffs.values * vals[:, None])
