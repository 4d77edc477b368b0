"""Polyharmonic spline interpolation and spline deconvolution.

The order-k spline kernel is the zonal function with spectral density
(lam^2 + rho^2)^(-2k) (times |m|^2 when a deconvolution multiplier is in
play).  Interpolants are finite combinations sum_j beta_j K_2k(d(., x_j));
solving the kernel matrix against Lagrangian data delta_(nu mu) realizes
the minimal - ||Delta^k u|| interpolant on the lattice.

The kernel is tabulated once per order on a radial grid out to the
lattice's diameter and then evaluated through a cubic spline; the spectral
cutoff is chosen from an analytic tail bound so the truncated mass stays
below _TAIL_TOL = 1e-10 relative to K(0).  The table samples
spectral.zonal_series, a tail-checked Chebyshev series in t: K(t) is the
Busemann average over boundary angles b of e^{rho a} g(a) at a = A(t, b),
where g(a) = sum_lam c_lam cos(lam a) is one Chebyshev series in a.
Deconvolving schedules stop at condition _COND_LIMIT = 1e12, and the
Lagrangian defect is certified against _CERT_TOL = 1e-8.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_factor, cho_solve

from .bandlimited import BandlimitedFunction
from .errors import (IllConditionedWarning, MultiplierVanishes,
                     SingularKernel, TailTooLarge)
from .geometry import distance
from .lattice import Lattice
from .sampling import SampleSet
from .spectral import (Multiplier, SpectralCoeffs, SpectralGrid, _gl_panel,
                       _horocycle_rows, _plane_wave_basis, plancherel_density,
                       zonal_series)

__all__ = [
    "PolyharmonicKernel",
    "polyharmonic_kernel",
    "SplineSystem",
    "build_splines",
    "SplineInterpolant",
    "spline_interpolate",
    "spline_band_projection",
    "spline_reconstruct_deconvolve",
    "iterated_bernstein_check",
]

_TAIL_TOL = 1e-10
_LAM_CAP = 500.0
_COND_LIMIT = 1e12
_CERT_TOL = 1e-8
_TABLE_POINTS = 1201


@dataclass(eq=False)
class PolyharmonicKernel:
    """Tabulated radial kernel K_2k(t) with its truncation certificate."""

    k: int
    rho: float
    t_max: float
    lam_max: float
    tail_bound: float
    multiplier_label: str
    table_t: np.ndarray
    table_values: np.ndarray
    _interp: CubicSpline = field(repr=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.t_max):
            raise ValueError(f"kernel tabulated on [0, {self.t_max}] only")
        out = self._interp(t)
        return float(out) if out.ndim == 0 else out

    @property
    def at_zero(self) -> float:
        return float(self.table_values[0])


def _kernel_lambda_grid(lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense panel near zero (the density peak), geometric panels beyond."""
    lo = min(2.0, lam_max)
    nodes, weights = _gl_panel(0.0, lo, 160)
    a = lo
    while a < lam_max:
        b = min(2.0 * a, lam_max)
        x, w = _gl_panel(a, b, 48)
        nodes = np.concatenate([nodes, x])
        weights = np.concatenate([weights, w])
        a = b
    return nodes, weights


def _multiplier_sq(m: Multiplier | None, lam: np.ndarray) -> np.ndarray:
    if m is None:
        return np.ones_like(lam)
    vals = np.asarray(m.fn(lam))
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"multiplier {m.label} is unbounded on the kernel grid")
    return np.abs(vals) ** 2


def polyharmonic_kernel(space, k: int, *, t_max: float,
                        multiplier: Multiplier | None = None
                        ) -> PolyharmonicKernel:
    """Tabulate K_2k(t) = int (lam^2+rho^2)^(-2k) |m|^2 phi_lam(t) density dlam.

    The table at _TABLE_POINTS equispaced radii samples the Chebyshev
    series of spectral.zonal_series (its one caller): the Busemann average
    over the boundary angles of spectral._busemann_angle_count, summed as
    one series in t on [0, t_max] with the tail checks of
    spectral.plane_wave_series and spectral.zonal_series (NumericalFailure
    if trailing coefficients do not reach roundoff, or past t_max ~8 where
    the angle count is capped).  The cubic spline through the table adds at
    most ~1e-13 K(0).

    The truncation tail beyond lam_max is bounded analytically by
    sup|m|^2 * scale * lam_max^(2-4k) / (4k-2) (density <= scale * lam and
    phi bounded by one); lam_max is 1.1 times the cutoff where that bound
    meets _TAIL_TOL relative to K(0), and at least 10.  TailTooLarge fires
    when the cutoff would pass _LAM_CAP (k = 1 always does).
    """
    if k < 1 or k != int(k):
        raise ValueError("spline order k must be a positive integer")
    if t_max <= 0:
        raise ValueError("bad kernel table parameters")
    k = int(k)
    rho, scale = space.rho, space.plancherel_scale
    rho2 = rho * rho

    # reference value K(0) (phi = 1 there): cheap, no angular quadrature
    ref_nodes, ref_weights = _kernel_lambda_grid(10.0)
    ref_dens = plancherel_density(ref_nodes, scale)
    msq_ref = _multiplier_sq(multiplier, ref_nodes)
    k0_ref = float(np.sum(ref_weights * ref_dens * msq_ref
                          * (ref_nodes ** 2 + rho2) ** (-2 * k)))
    if not k0_ref > 0:
        raise ValueError("kernel density integrates to zero")

    m_sup = 1.0
    if multiplier is not None:
        probe = np.array([10.0, 20.0, 40.0, 80.0])
        m_sup = max(float(np.max(np.abs(multiplier.fn(probe)))), 1.0)

    needed = (m_sup ** 2 * scale
              / ((4 * k - 2) * _TAIL_TOL * k0_ref)) ** (1.0 / (4 * k - 2))
    lam_max = max(10.0, 1.1 * needed)
    if lam_max > _LAM_CAP:
        raise TailTooLarge(
            f"order {k} needs lam_max ~ {needed:.3g} for a relative tail "
            f"below {_TAIL_TOL:.1e}, past the cap {_LAM_CAP:g}; raise the "
            f"order")
    tail_bound = m_sup ** 2 * scale * lam_max ** (2 - 4 * k) / (4 * k - 2)

    nodes, weights = _kernel_lambda_grid(lam_max)
    dens = plancherel_density(nodes, scale)
    msq = _multiplier_sq(multiplier, nodes)
    coef = weights * dens * msq * (nodes ** 2 + rho2) ** (-2 * k)

    t = np.linspace(0.0, t_max, _TABLE_POINTS)
    values = chebval(2.0 * t / t_max - 1.0,
                     zonal_series(nodes, coef, rho, t_max))
    interp = CubicSpline(t, values, bc_type=((1, 0.0), "not-a-knot"))
    return PolyharmonicKernel(k, rho, t_max, lam_max, tail_bound,
                              multiplier.label if multiplier else "",
                              t, values, interp)


@dataclass(eq=False)
class SplineSystem:
    lattice: Lattice
    k: int
    kernel: PolyharmonicKernel
    kernel_matrix: np.ndarray
    coeffs: np.ndarray               # column nu holds the Lagrangian alphas
    deconv_multiplier: Multiplier | None
    condition: float
    lagrangian_defect: float
    _cho: tuple = field(repr=False)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return self._solve(rhs.real) + 1j * self._solve(rhs.imag)
        return _refined_solve(self._cho, self.kernel_matrix, rhs)


def _refined_solve(cho, kmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve of kmat x = b, refined until the residual stops
    contracting."""
    x = cho_solve(cho, b)
    best = math.inf
    for _ in range(6):
        res = b - kmat @ x
        nrm = float(np.max(np.abs(res)))
        if not nrm < 0.5 * best:
            break
        best = nrm
        x = x + cho_solve(cho, res)
    return x


def build_splines(lat: Lattice, k: int, m: Multiplier | None = None, *,
                  space) -> SplineSystem:
    """Kernel matrix K_2k(d(x_j, x_nu)) and its Lagrangian coefficients.

    The kernel is tabulated out to the lattice's diameter,
    t_max = 2 domain_radius (plus 1e-9 so the largest distance stays inside).

    Positive definiteness is certified by the Cholesky factorization and by
    the smallest eigenvalue clearing N eps of the largest; near-coincident
    points (or an order too high for double precision) surface as
    SingularKernel.  Iterative refinement, the same solve the interpolants
    use, pushes the interpolation residual to roundoff even for stiff
    systems.
    """
    if len(lat) == 0:
        raise ValueError("empty lattice")
    kern = polyharmonic_kernel(space, k, t_max=2.0 * lat.domain_radius + 1e-9,
                               multiplier=m)
    d = distance(lat.points[:, None], lat.points[None, :])
    np.fill_diagonal(d, 0.0)
    kmat = kern(d)
    kmat = 0.5 * (kmat + kmat.T)
    try:
        cho = cho_factor(kmat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel(
            f"order-{k} kernel matrix is not positive definite in double "
            f"precision") from exc
    ev = np.linalg.eigvalsh(kmat)
    # below N eps of the largest eigenvalue the eigensolver's own backward
    # error decides the sign of the smallest one, so a Cholesky that
    # happened to succeed certifies nothing (duplicate points land here)
    if not ev[0] > len(lat) * np.finfo(float).eps * ev[-1]:
        raise SingularKernel(
            f"order-{k} kernel matrix has smallest eigenvalue "
            f"{ev[0]:.3e} against {ev[-1]:.3e}: singular in double precision")
    condition = float(ev[-1] / ev[0])
    eye = np.eye(len(lat))
    coeffs = _refined_solve(cho, kmat, eye)
    defect = float(np.max(np.abs(kmat @ coeffs - eye)))
    if defect > _CERT_TOL:
        warnings.warn(
            f"Lagrangian defect {defect:.2e} exceeds {_CERT_TOL:.0e} at "
            f"condition {condition:.2e}", IllConditionedWarning)
    return SplineSystem(lat, k, kern, kmat, coeffs, m, condition, defect,
                        cho)


@dataclass(eq=False)
class SplineInterpolant:
    """Finite kernel expansion sum_j beta_j K_2k(d(., x_j))."""

    system: SplineSystem
    beta: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        out = np.empty(pts.shape, dtype=self.beta.dtype)
        flat = pts.ravel()
        res = out.ravel()
        anchors = self.system.lattice.points
        step = max(1, int(4e6 / max(1, anchors.size)))
        for start in range(0, flat.size, step):
            d = distance(flat[start:start + step, None], anchors[None, :])
            res[start:start + step] = self.system.kernel(d) @ self.beta
        if np.isscalar(points) or np.asarray(points).ndim == 0:
            return res[0]
        return out

    __call__ = evaluate


def spline_interpolate(sys: SplineSystem, s: SampleSet) -> SplineInterpolant:
    """Interpolant of the sample values; reproduces them to roundoff."""
    if not np.array_equal(s.lattice.points, sys.lattice.points):
        raise ValueError("sample set and spline system use different lattices")
    return SplineInterpolant(sys, sys._solve(s.values))


def spline_band_projection(interp: SplineInterpolant,
                           grid: SpectralGrid) -> BandlimitedFunction:
    """Band-limited part of the interpolant, deconvolved when applicable.

    On the band panel the expansion has transform
    |m|^2 (lam^2+rho^2)^(-2k) sum_j beta_j e^((-i lam + rho) A(x_j, b));
    dividing by m leaves the conj(m)-filtered coefficients returned here.
    """
    if grid.n_band == 0:
        raise ValueError("grid has no band panel")
    sys = interp.system
    sl = grid.band_slice
    lam = grid.lambda_nodes[sl]
    rho2 = grid.rho ** 2
    fac = (lam ** 2 + rho2) ** (-2 * sys.k)
    m = sys.deconv_multiplier
    if m is not None:
        fac = fac * np.conj(np.asarray(m.fn(lam), dtype=complex))
    # e^((-i lam + rho) a) = e^(rho a) sum_k conj(S[k, lam]) T_k(a / a_max)
    pts = sys.lattice.points
    a_max, series = _plane_wave_basis(pts, lam, np.ones(lam.size))
    rows = _horocycle_rows(pts, grid.boundary_angles, grid.rho, a_max,
                           series.shape[0])
    coef = series.conj().T @ np.tensordot(interp.beta, rows, axes=1)
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    values[sl] = fac[:, None] * coef
    return BandlimitedFunction(grid.omega, SpectralCoeffs(grid, values))


def spline_reconstruct_deconvolve(lat: Lattice, k_schedule, s: SampleSet, *,
                                  space, grid: SpectralGrid) -> dict:
    """Band-limited approximations along an increasing order schedule.

    Each order k yields the spline interpolant of the convolution samples
    with kernel density |m|^2 (lam^2+rho^2)^(-2k) (build_splines), divided
    by m on the band.  Escalation stops at the first order whose kernel
    matrix exceeds condition _COND_LIMIT = 1e12 (or loses positive
    definiteness); the result records where.
    """
    if s.kind == "convolution":
        if s.multiplier is None:
            raise ValueError(
                "convolution sample set carries only a multiplier label; "
                "the multiplier itself is required for deconvolution")
        m = s.multiplier
        band_min = m.band_min_abs(grid)
        if band_min <= 1e-12:
            raise MultiplierVanishes(
                f"multiplier {m.label!r} vanishes on the band")
    else:
        m = None
    k_list, functions, conditions = [], [], []
    aborted_at = None
    for k in k_schedule:
        try:
            sys = build_splines(lat, k, m, space=space)
        except SingularKernel:
            aborted_at = k
            break
        if sys.condition > _COND_LIMIT:
            aborted_at = k
            break
        interp = spline_interpolate(sys, s)
        k_list.append(int(k))
        functions.append(spline_band_projection(interp, grid))
        conditions.append(sys.condition)
    return {"k_list": k_list, "functions": functions,
            "conditions": conditions, "aborted_at": aborted_at}


def iterated_bernstein_check(f: BandlimitedFunction, sigma: float,
                             m_list=(1, 2, 4), s_list=(0, 1)) -> dict:
    """Iterated spectral inequality, as pure multiplier arithmetic.

    With a = ||f|| / ||Delta^sigma f|| (the smallest admissible constant),
    checks ||Delta^s f|| <= a^m ||Delta^(m sigma + s) f|| for each (m, s).
    """
    grid = f.coeffs.grid
    rho2 = grid.rho ** 2
    base = grid.lambda_nodes ** 2 + rho2

    def power_norm(p: float) -> float:
        vals = f.coeffs.values * (base ** p)[:, None]
        return SpectralCoeffs(grid, vals).norm()

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
