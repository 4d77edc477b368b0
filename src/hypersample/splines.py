"""Polyharmonic spline interpolation and spline deconvolution.

The order-k spline kernel of samples filtered by the multiplier m (one,
spectral.IDENTITY, for point samples) is the zonal function with spectral
density |m|^2 (lam^2 + rho^2)^(-2k), rho = geometry.RHO.  Interpolants are
finite combinations sum_j beta_j K_2k(d(., x_j)); solving the kernel matrix
against Lagrangian data delta_(nu mu) realizes the minimal - ||Delta^k u||
interpolant on the lattice.

The kernel is tabulated once per order, values and slopes, on a uniform
radial grid out to the lattice's diameter and evaluated as the cubic
Hermite interpolant on that grid (the interval of t is t / h, no search);
the spectral cutoff is chosen from an analytic tail bound so the truncated
mass stays below _TAIL_TOL = 1e-10 relative to K(0).  Values and slopes
sample spectral.zonal_series, a tail-checked Chebyshev series in t of
spectral.zonal_sum, and its derivative series; the band projection
contracts the plane-wave planes that zonal_sum averages up to t = 4.
The kernel matrix is assembled, and the interpolants are evaluated, in
row blocks of about geometry.PAIR_BLOCK = 2^16 point pairs, so memory
follows the result rather than the number of pairs.  The kernel matrix is
certified positive definite by its Cholesky factorization and solved by
numpy.linalg.solve with iterative refinement.  The Lagrangian defect is
certified against _CERT_TOL = 1e-8: a system that misses it raises
SingularKernel, as a failed Cholesky does, and its condition and defect
are otherwise returned as diagnostics.  Deconvolving schedules stop at
condition _COND_LIMIT = 1e12 or at the first SingularKernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .errors import (NumericalFailure, ProblemTooLarge, SingularKernel,
                     TailTooLarge)
from . import spectral
from .geometry import RHO, SpaceParams, distance, row_blocks
from .lattice import Lattice, _log_min_points, _sci
from .sampling import SampleSet
from .spectral import (IDENTITY, Multiplier, SpectralGrid, _gl_panel,
                       _horocycle_planes, _plane_wave_basis,
                       plancherel_density, zonal_series)
from .transforms import BandlimitedFunction

__all__ = [
    "PolyharmonicKernel",
    "polyharmonic_kernel",
    "SplineSystem",
    "build_splines",
    "SplineInterpolant",
    "spline_interpolate",
    "spline_band_projection",
    "spline_reconstruct_deconvolve",
    "check_kernel_size",
]

_TAIL_TOL = 1e-10
_LAM_CAP = 500.0
_COND_LIMIT = 1e12
# the largest kernel matrix check_kernel_size lets a run ask for, in bytes,
# at the fewest points its lattice can have; fine lattices hold about 3x
# that many points, so this admits matrices of up to about 3 GB
_MAX_KERNEL_BYTES = 2 ** 28
_CERT_TOL = 1e-8
_TABLE_POINTS = 1201


@dataclass(eq=False)
class PolyharmonicKernel:
    """Tabulated radial kernel K_2k(t), cut off in lam at lam_max.

    table_values and table_slopes are K and K' at the equispaced radii
    table_t; between two of them K is the cubic Hermite interpolant.
    """

    k: int
    t_max: float
    lam_max: float
    table_t: np.ndarray
    table_values: np.ndarray
    table_slopes: np.ndarray = field(repr=False)
    _cubic: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # the Hermite cubic on [t_i, t_i+1] is sum_p _cubic[p, i] s^p with
        # s = (t - t_i) / h: value, h * slope, and the two matching terms
        y, d = self.table_values, self.table_t[1] * self.table_slopes
        dy = np.diff(y)
        self._cubic = np.stack([y[:-1], d[:-1], 3.0 * dy - 2.0 * d[:-1] - d[1:],
                                d[:-1] + d[1:] - 2.0 * dy])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.t_max):
            raise ValueError(f"kernel tabulated on [0, {self.t_max}] only")
        u = t / self.table_t[1]
        i = np.minimum(u.astype(np.intp), self._cubic.shape[1] - 1)
        s = u - i
        out = self._cubic[3].take(i)
        for c in self._cubic[2::-1]:
            out *= s
            out += c.take(i)
        return float(out) if out.ndim == 0 else out


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


def _order_weight(lam: np.ndarray, k: int) -> np.ndarray:
    """(lam^2 + rho^2)^(-2k), or NumericalFailure where it overflows."""
    with np.errstate(over="ignore"):
        w = (lam ** 2 + RHO * RHO) ** (-2 * k)
    if not np.all(np.isfinite(w)):
        raise NumericalFailure(f"order-{k} kernel: (lam^2 + rho^2)^(-2k) "
                               f"overflows double precision at small lam")
    return w


def polyharmonic_kernel(k: int, *, t_max: float,
                        multiplier: Multiplier = IDENTITY
                        ) -> PolyharmonicKernel:
    """Tabulate K_2k(t) = int (lam^2+rho^2)^(-2k) |m|^2 phi_lam(t) density dlam.

    The table at _TABLE_POINTS equispaced radii samples the Chebyshev
    series of spectral.zonal_series (its one caller) of spectral.zonal_sum
    (a Busemann average up to t = 4, the Harish-Chandra expansion beyond)
    on [0, t_max], with the tail checks of spectral.plane_wave_series and
    spectral.zonal_series (NumericalFailure if trailing coefficients do not
    reach roundoff).  The slopes sample the derivative series (chebder);
    the cubic Hermite interpolant between the nodes adds at most
    h^4 max|K^(4)| / 384 at spacing h = t_max / (_TABLE_POINTS - 1).

    The truncation tail beyond lam_max is bounded analytically by
    sup|m|^2 * scale * lam_max^(2-4k) / (4k-2) (density <= scale * lam and
    phi bounded by one); lam_max is 1.1 times the cutoff where that bound
    meets _TAIL_TOL relative to K(0), and at least 10.  TailTooLarge fires
    when the cutoff would pass _LAM_CAP (k = 1 always does); from k = 257
    on the density overflows at small lam, a NumericalFailure.
    """
    if k < 1 or k != int(k):
        raise ValueError("spline order k must be a positive integer")
    if t_max <= 0:
        raise ValueError("bad kernel table parameters")
    k = int(k)
    scale = spectral.PLANCHEREL_SCALE

    # reference value K(0) (phi = 1 there): cheap, no angular quadrature
    ref_nodes, ref_weights = _kernel_lambda_grid(10.0)
    ref_dens = plancherel_density(ref_nodes, scale)
    msq_ref = np.abs(multiplier(ref_nodes)) ** 2
    k0_ref = float(np.sum(ref_weights * ref_dens * msq_ref
                          * _order_weight(ref_nodes, k)))
    if not k0_ref > 0:
        raise ValueError("kernel density integrates to zero")

    probe = np.array([10.0, 20.0, 40.0, 80.0])
    m_sup = max(float(np.max(np.abs(multiplier(probe)))), 1.0)

    needed = (m_sup ** 2 * scale
              / ((4 * k - 2) * _TAIL_TOL * k0_ref)) ** (1.0 / (4 * k - 2))
    lam_max = max(10.0, 1.1 * needed)
    if lam_max > _LAM_CAP:
        raise TailTooLarge(
            f"order {k} needs lam_max ~ {needed:.3g} for a relative tail "
            f"below {_TAIL_TOL:.1e}, past the cap {_LAM_CAP:g}; raise the "
            f"order")

    nodes, weights = _kernel_lambda_grid(lam_max)
    dens = plancherel_density(nodes, scale)
    msq = np.abs(multiplier(nodes)) ** 2
    coef = weights * dens * msq * _order_weight(nodes, k)

    t = np.linspace(0.0, t_max, _TABLE_POINTS)
    x = 2.0 * t / t_max - 1.0
    series = zonal_series(nodes, coef, t_max)
    slopes = chebval(x, chebder(series)) * (2.0 / t_max)
    return PolyharmonicKernel(k, t_max, lam_max, t, chebval(x, series),
                              slopes)


@dataclass(eq=False)
class SplineSystem:
    lattice: Lattice
    k: int
    kernel: PolyharmonicKernel
    kernel_matrix: np.ndarray
    deconv_multiplier: Multiplier
    condition: float
    lagrangian_defect: float

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return self._solve(rhs.real) + 1j * self._solve(rhs.imag)
        return _refined_solve(self.kernel_matrix, rhs)


def _refined_solve(kmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve of kmat x = b, refined until the residual stops contracting."""
    x = np.linalg.solve(kmat, b)
    best = math.inf
    for _ in range(6):
        res = b - kmat @ x
        nrm = float(np.max(np.abs(res)))
        if not nrm < 0.5 * best:
            break
        best = nrm
        x = x + np.linalg.solve(kmat, res)
    return x


def _kernel_matrix(kern: PolyharmonicKernel, pts: np.ndarray) -> np.ndarray:
    """(K + K^T) / 2 for K[j, nu] = kern(d(x_j, x_nu)); d(x, x) is exactly
    0, so the diagonal is kern(0).

    Filled in row blocks of about geometry.PAIR_BLOCK entries into the one
    N x N result, then symmetrised in place block by block, so no other
    N x N array is formed; the entries are those of the whole-matrix pass.
    """
    n = pts.size
    kmat = np.empty((n, n))
    for blk in row_blocks(n, n):
        kmat[blk] = kern(distance(pts[blk, None], pts[None, :]))
    # the rows of each block and the matching columns, from the block's
    # diagonal on; later blocks read neither
    for blk in row_blocks(n, n):
        sym = kmat[blk, blk.start:] + kmat[blk.start:, blk].T
        sym *= 0.5
        kmat[blk, blk.start:] = sym
        kmat[blk.start:, blk] = sym.T
    return kmat


def check_kernel_size(r: float, domain_radius: float) -> None:
    """Raise ProblemTooLarge, before any lattice is built, when the kernel
    matrix of a lattice at scale r on radius domain_radius, 8 N^2 bytes,
    must pass _MAX_KERNEL_BYTES at the fewest points N the lattice can
    have (lattice._log_min_points)."""
    log10_n = _log_min_points(domain_radius, r) / math.log(10.0)
    log10_bytes = math.log10(8.0) + 2.0 * log10_n
    if log10_bytes > math.log10(_MAX_KERNEL_BYTES):
        raise ProblemTooLarge(
            f"a lattice at r = {r!r} on radius {domain_radius!r} has at "
            f"least {_sci(log10_n)} points, so its spline kernel matrix "
            f"takes at least {_sci(log10_bytes)} bytes, over the "
            f"{_MAX_KERNEL_BYTES:,} limit")


def build_splines(lat: Lattice, k: int, m: Multiplier = IDENTITY, *,
                  space: SpaceParams | None = None) -> SplineSystem:
    """Kernel matrix K_2k(d(x_j, x_nu)), certified by the Lagrangian defect.

    The kernel is tabulated out to the lattice's diameter,
    t_max = 2 domain_radius (plus 1e-9 so the largest distance stays inside).

    Positive definiteness is certified by the Cholesky factorization and by
    the smallest eigenvalue clearing N eps of the largest; near-coincident
    points (or an order too high for double precision) surface as
    SingularKernel.  Iterative refinement, the same solve the interpolants
    use, pushes the interpolation residual to roundoff even for stiff
    systems; the Lagrangian defect max|K K^-1 - I| of that solve must
    clear _CERT_TOL, or SingularKernel names the defect, the condition and
    the certificate.  The kernel matrix is assembled in row blocks of about
    geometry.PAIR_BLOCK entries straight into its one N x N array
    (_kernel_matrix); ProblemTooLarge is raised when the assembly runs out
    of memory, in practice at that one array.  space, if given, must
    carry spectral.PLANCHEREL_SCALE (see geometry.SpaceParams).
    """
    if len(lat) == 0:
        raise ValueError("empty lattice")
    if space and space.plancherel_scale != spectral.PLANCHEREL_SCALE:
        raise ValueError("space must carry spectral.PLANCHEREL_SCALE")
    kern = polyharmonic_kernel(k, t_max=2.0 * lat.domain_radius + 1e-9,
                               multiplier=m)
    n = len(lat)
    try:
        kmat = _kernel_matrix(kern, lat.points)
    except MemoryError as exc:
        raise ProblemTooLarge(
            f"the {n} x {n} order-{k} kernel matrix ({8e-9 * n * n:.3g} GB "
            f"per array) cannot be allocated") from exc
    try:
        np.linalg.cholesky(kmat)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel(
            f"order-{k} kernel matrix is not positive definite in double "
            f"precision") from exc
    ev = np.linalg.eigvalsh(kmat)
    # below N eps of the largest eigenvalue the eigensolver's own backward
    # error decides the sign of the smallest one, so a Cholesky that
    # happened to succeed certifies nothing (duplicate points land here)
    if not ev[0] > n * np.finfo(float).eps * ev[-1]:
        raise SingularKernel(
            f"order-{k} kernel matrix has smallest eigenvalue "
            f"{ev[0]:.3e} against {ev[-1]:.3e}: singular in double precision")
    condition = float(ev[-1] / ev[0])
    eye = np.eye(n)
    # the Lagrangian coefficients, column nu for x_nu, certify the solve
    defect = float(np.max(np.abs(kmat @ _refined_solve(kmat, eye) - eye)))
    if not defect <= _CERT_TOL:
        raise SingularKernel(
            f"order-{k} Lagrangian defect {defect:.2e} misses the "
            f"certificate {_CERT_TOL:.0e} at condition {condition:.2e}")
    return SplineSystem(lat, k, kern, kmat, m, condition, defect)


@dataclass(eq=False)
class SplineInterpolant:
    """Finite kernel expansion sum_j beta_j K_2k(d(., x_j)).

    evaluate forms the distances to the anchors in row blocks of about
    geometry.PAIR_BLOCK pairs (geometry.row_blocks), so its temporaries stay
    near 0.5 MB each at any number of points; each value is the one the
    whole points x anchors pass gives, bit for bit.
    """

    system: SplineSystem
    beta: np.ndarray

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The interpolant at points (any shape; a scalar gives a scalar).

        The points go through the kernel table in blocks of
        geometry.row_blocks, which keep a batch bit-identical to one
        whole pass over it.  A single point is a one-row product, which
        numpy forms as a dot product: interp(p) and interp([p, q])[0] can
        differ in the last bits (up to 1.1e-14 on the spline_reconstruct
        grid).
        """
        pts = np.atleast_1d(np.asarray(points, dtype=complex))
        out = np.empty(pts.shape, dtype=self.beta.dtype)
        flat = pts.ravel()
        res = out.ravel()
        anchors = self.system.lattice.points
        for blk in row_blocks(flat.size, anchors.size):
            d = distance(flat[blk, None], anchors[None, :])
            res[blk] = self.system.kernel(d) @ self.beta
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
    """Band-limited part of the interpolant, deconvolved by its m.

    On the band the expansion has transform
    |m|^2 (lam^2+rho^2)^(-2k) sum_j beta_j e^((-i lam + rho) A(x_j, b));
    dividing by m leaves the conj(m)-filtered coefficients returned here.
    """
    sys = interp.system
    lam = grid.lambda_nodes
    mv = sys.deconv_multiplier(lam).astype(complex)
    fac = _order_weight(lam, sys.k) * np.conj(mv)
    # e^((-i lam + rho) a) = e^(rho a) sum_k conj(S[k, lam]) T_k(a / a_max)
    pts = sys.lattice.points
    a_max, series = _plane_wave_basis(pts, lam, np.ones(lam.size))
    sums = np.zeros((len(series), grid.n_b), dtype=interp.beta.dtype)
    for blk, k, plane in _horocycle_planes(pts, grid.boundary_angles, a_max,
                                           len(series)):
        sums[k] += interp.beta[blk] @ plane
    coef = series.conj().T @ sums
    return BandlimitedFunction(grid, fac[:, None] * coef)


def spline_reconstruct_deconvolve(lat: Lattice, k_schedule, s: SampleSet, *,
                                  grid: SpectralGrid) -> dict:
    """Band-limited approximations along an increasing order schedule.

    Each order k yields the spline interpolant of the convolution samples
    with kernel density |m|^2 (lam^2+rho^2)^(-2k) (build_splines), divided
    by m on grid's band.  Escalation stops at the first order whose kernel
    matrix exceeds condition _COND_LIMIT = 1e12 or whose build_splines
    raises SingularKernel (no positive definiteness, or a Lagrangian defect
    above _CERT_TOL = 1e-8) or TailTooLarge (a kernel whose spectral tail
    needs a cutoff past _LAM_CAP); the result records where.
    """
    # MultiplierVanishes unless m can be divided out on the band
    s.multiplier.band_values(grid)
    k_list, functions = [], []
    aborted_at = None
    for k in k_schedule:
        try:
            sys = build_splines(lat, k, s.multiplier)
        except (SingularKernel, TailTooLarge):
            aborted_at = k
            break
        if sys.condition > _COND_LIMIT:
            aborted_at = k
            break
        interp = spline_interpolate(sys, s)
        k_list.append(int(k))
        functions.append(spline_band_projection(interp, grid))
    return {"k_list": k_list, "functions": functions, "aborted_at": aborted_at}
