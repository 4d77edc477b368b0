"""Frame vectors at lattice points, Gram systems, and reconstruction.

A lattice point x_j induces the band-restricted frame vector
e_j(lam, b) = e^((i lam + rho) A(x_j, b)), optionally filtered by a
convolution multiplier.  The Gram matrix of these vectors under the band
quadrature measure governs everything: its spectrum certifies stability on
the sampled span, and solving G beta = samples yields the minimal-norm
band-limited interpolant (the dual-frame reconstruction).

The boundary integral of e_j conj(e_k) is the spherical function
phi_lam(d(x_j, x_k)), so the Gram is a zonal kernel of the distance,
G_jk = K(d(x_j, x_k)) with K(t) = sum over the band of |m|^2 phi_lam(t):
real and symmetric.  K is summed by the Busemann average that also builds
the polyharmonic spline kernel (spectral.busemann_average), as one
tail-checked Chebyshev series in t (spectral.zonal_series) evaluated at
every lattice pair.  The discrete plane-wave rows are built only where a
reconstruction is synthesized.

The Gram spectrum of any interesting lattice decays smoothly to machine
zero: band-limited functions are analytic, so samples on a bounded domain
pin down only an effectively finite-dimensional slice of the band space.
Reconstruction therefore always runs through an eigenvalue-thresholded
pseudo-inverse, and the certified frame bounds (A, B) refer to the retained
span.  The raw smallest eigenvalue is reported alongside as a diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.sparse.linalg import LinearOperator, cg

from .bandlimited import BandlimitedFunction
from .errors import (IllConditionedWarning, MultiplierVanishes, NotAFrame,
                     NumericalFailure)
from .geometry import busemann, distance
from .lattice import Lattice
from .spectral import (Multiplier, SpectralCoeffs, SpectralGrid,
                       apply_multiplier, zonal_series)
from .transforms import inverse_transform

__all__ = [
    "SampleSet",
    "FrameSystem",
    "point_samples",
    "convolution_samples",
    "build_frame",
    "reconstruct",
    "stability_probe",
    "save_samples",
    "load_samples",
]

_PINV_CUT = 1e-12
_COND_WARN = 1e10


@dataclass(eq=False)
class SampleSet:
    lattice: Lattice
    values: np.ndarray
    kind: str  # "point" or "convolution"
    multiplier: Multiplier | None = None
    multiplier_label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.lattice),):
            raise ValueError("one sample value per lattice point required")
        if self.kind not in ("point", "convolution"):
            raise ValueError("kind must be 'point' or 'convolution'")
        if self.kind == "convolution" and self.multiplier is None \
                and not self.multiplier_label:
            raise ValueError("convolution samples must record their multiplier")
        if self.multiplier is not None and not self.multiplier_label:
            self.multiplier_label = self.multiplier.label


@dataclass(eq=False)
class FrameSystem:
    lattice: Lattice
    omega: float
    grid: SpectralGrid
    multiplier: Multiplier | None
    gram: np.ndarray                 # real symmetric, K(d(x_j, x_k))
    eigenvalues: np.ndarray          # ascending
    eigenvectors: np.ndarray         # real orthonormal columns
    frame_bounds: tuple[float, float]  # (A, B) on the retained span
    raw_min: float
    threshold: float
    rank: int

    @property
    def condition(self) -> float:
        a = self.raw_min
        return self.frame_bounds[1] / a if a > 0 else math.inf


def point_samples(f: BandlimitedFunction, lat: Lattice) -> SampleSet:
    """values[j] = f(x_j)."""
    return SampleSet(lat, f.evaluate(lat.points), "point")


def convolution_samples(f: BandlimitedFunction, lat: Lattice,
                        m: Multiplier) -> SampleSet:
    """values[j] = (f * phi)(x_j) where phi has spectral multiplier m."""
    g = apply_multiplier(f.coeffs, m)
    vals = inverse_transform(g, lat.points)
    return SampleSet(lat, vals, "convolution", multiplier=m)


def _band_data(grid: SpectralGrid, m: Multiplier | None):
    """Band nodes, multiplier values and the Gram weights measure |m|^2."""
    sl = grid.band_slice
    lam = grid.lambda_nodes[sl]
    if m is None:
        mv = np.ones_like(lam, dtype=complex)
    else:
        mv = m.values_on(grid).astype(complex)[sl]
    return lam, mv, grid.lambda_measure[sl] * np.abs(mv) ** 2


def _kernel_rows(points: np.ndarray, lam: np.ndarray, rho: float,
                 angles: np.ndarray) -> np.ndarray:
    """Rows e_j(lam_i, b_l) flattened to (n_points, n_lam * n_b)."""
    a = busemann(points[:, None], angles[None, :])
    k = (1j * lam[None, :, None] + rho) * a[:, None, :]
    return np.exp(k, out=k).reshape(points.size, -1)


def build_frame(lat: Lattice, omega: float, m: Multiplier | None = None, *,
                grid: SpectralGrid, cut: float = _PINV_CUT) -> FrameSystem:
    """Gram matrix of the (multiplier-filtered) frame vectors over the band.

    G_jk = integral over [0, omega] x boundary of |m|^2 e_j conj(e_k)
    density dlam db.  The boundary integral of e_j conj(e_k) is the
    spherical function phi_lam(d(x_j, x_k)), so G_jk = K(d(x_j, x_k)) with
    K(t) = sum over the band nodes of lambda_measure |m|^2 phi_lam(t): a
    real zonal kernel, summed as a Chebyshev series in t by
    spectral.zonal_series (the Busemann average of the spline kernel) and
    evaluated once per pair j < k.  G is real symmetric and factored by a
    real eigh.

    cut fixes the relative eigenvalue threshold below which directions are
    treated as numerically unreachable.  The default keeps the sample span
    as rich as double precision allows; raising it (1e-8 is a good choice)
    trades span for noise amplification bounded by 1/sqrt(cut * B), which
    makes the reconstruction operator an honest numerical projection.
    """
    if grid.omega != omega or grid.n_band == 0:
        raise ValueError("grid band panel does not match omega")
    if len(lat) == 0:
        raise ValueError("empty lattice")
    lam, mv, coef = _band_data(grid, m)
    if m is not None and np.min(np.abs(mv)) <= 1e-12:
        raise MultiplierVanishes(
            f"multiplier {m.label!r} vanishes inside the band")
    n = len(lat)
    rows, cols = np.triu_indices(n, k=1)
    d = distance(lat.points[rows], lat.points[cols])
    # near t = 0 the angles' A(t, b) carry absolute rounding ~eps: an
    # interval of at least t <= 1 keeps the series' tail check meaningful
    # (a lone point needs only K(0))
    t_max = max(float(d.max(initial=0.0)), 1.0)
    series = zonal_series(lam, coef, grid.rho, t_max)
    gram = np.empty((n, n))
    gram[rows, cols] = gram[cols, rows] = chebval(2.0 * d / t_max - 1.0,
                                                  series)
    np.fill_diagonal(gram, chebval(-1.0, series))
    ev, vec = np.linalg.eigh(gram)
    b_top = float(ev[-1])
    if b_top <= 0.0:
        raise NotAFrame("all frame vectors are numerically zero")
    thr = cut * b_top
    retained = ev > thr
    rank = int(np.count_nonzero(retained))
    if rank == 0:
        raise NotAFrame("no eigenvalue above the pseudo-inverse threshold")
    a_low = float(ev[retained][0])
    if a_low <= 1e-10 * b_top and rank < len(lat):
        # eigenvalues trickle through the cut: the span certificate is
        # ambiguous at the threshold, so no positive bound can be claimed
        warnings.warn("retained spectrum touches the pseudo-inverse cut",
                      IllConditionedWarning)
    return FrameSystem(lat, float(omega), grid, m, gram, ev, vec,
                       (a_low, b_top), float(ev[0]), thr, rank)


def _check_compatible(frame: FrameSystem, s: SampleSet) -> None:
    if s.lattice.points.shape != frame.lattice.points.shape or \
            not np.array_equal(s.lattice.points, frame.lattice.points):
        raise ValueError("sample set and frame use different lattices")
    f_lab = frame.multiplier.label if frame.multiplier else ""
    s_lab = s.multiplier_label
    if s.kind == "point" and frame.multiplier is not None:
        raise ValueError("point samples fed to a deconvolution frame")
    if s.kind == "convolution" and f_lab != s_lab:
        raise ValueError(
            f"sample multiplier {s_lab!r} does not match frame {f_lab!r}")


def _solve_gram(frame: FrameSystem, rhs: np.ndarray, method: str,
                rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    if method == "gram":
        # Rayleigh-Ritz on the retained span V: the Gram is applied there
        # through the discrete band rows that synthesize the result,
        # V^H rows diag(weights) rows^H V, so resampling a reconstruction
        # reproduces its data.  The zonal Gram differs from that discrete
        # one by the boundary quadrature error (~1e-15 B), which dividing
        # by its own eigenvalues would amplify by up to 1/A.
        span = frame.eigenvectors[:, frame.eigenvalues > frame.threshold]
        proj = span.T @ rows
        ritz = (proj * weights) @ proj.conj().T
        return span @ np.linalg.solve(ritz, span.T @ rhs)
    if method == "iterative":
        # conjugate gradients touch only the Krylov space of the data, so
        # this route certifies the eigen-solve when the samples live in the
        # retained span; data with mass below the cut stalls it honestly
        n = rhs.size
        op = LinearOperator((n, n), matvec=lambda x: frame.gram @ x,
                            dtype=complex)
        beta, info = cg(op, rhs, rtol=1e-11, atol=0.0, maxiter=20 * n)
        if info != 0:
            raise NumericalFailure(f"iterative Gram solve stalled (info={info})")
        return beta
    raise ValueError(f"unknown method {method!r}")


def reconstruct(frame: FrameSystem, s: SampleSet,
                method: str = "gram") -> BandlimitedFunction:
    """Minimal-norm band-limited interpolant of the samples.

    Solves G beta = values, then synthesizes the spectral coefficients
    conj(m) sum_j beta_j conj(e_j) on the band panel.  The "gram" method
    solves on the retained eigenspace of the zonal Gram, applying G there
    through the same discrete frame vectors e_j that synthesize the result;
    "iterative" runs conjugate gradients on the zonal Gram.  For samples
    taken noiselessly from the retained span the interpolation is exact;
    general data is fit in the least-squares sense through the thresholded
    pseudo-inverse.
    """
    _check_compatible(frame, s)
    if frame.condition > _COND_WARN:
        warnings.warn(
            f"Gram condition {frame.condition:.2e}; continuing with the "
            f"pseudo-inverse at threshold {frame.threshold:.2e}",
            IllConditionedWarning)
    grid = frame.grid
    lam, mv, coef = _band_data(grid, frame.multiplier)
    rows = _kernel_rows(frame.lattice.points, lam, grid.rho,
                        grid.boundary_angles)
    beta = _solve_gram(frame, s.values, method, rows,
                       np.repeat(coef / grid.n_b, grid.n_b))
    coef = (beta.conj() @ rows).conj() * np.repeat(np.conj(mv), grid.n_b)
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    values[grid.band_slice] = coef.reshape(grid.n_band, grid.n_b)
    return BandlimitedFunction(frame.omega, SpectralCoeffs(grid, values))


def stability_probe(frame: FrameSystem, s: SampleSet, noise_level: float,
                    seed: int, n_levels: int = 5) -> dict:
    """Reconstruction error under seeded sample noise, over a level sweep.

    One complex Gaussian direction is drawn and scaled to noise_level times
    (1e-2 ... 1) in l2 norm, so the curve isolates the linearity of the
    solve.  The certified amplification bound is c_stab = 1/sqrt(A).
    """
    base = reconstruct(frame, s)
    if noise_level == 0.0:
        levels = np.zeros(n_levels)
    else:
        levels = noise_level * np.logspace(-2, 0, n_levels)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(len(frame.lattice)) \
        + 1j * rng.standard_normal(len(frame.lattice))
    direction /= np.linalg.norm(direction)
    errors = []
    for eps in levels:
        noisy = SampleSet(s.lattice, s.values + eps * direction, s.kind,
                          s.multiplier, s.multiplier_label)
        diff = reconstruct(frame, noisy).coeffs.values - base.coeffs.values
        errors.append(SpectralCoeffs(frame.grid, diff).norm())
    errors = np.asarray(errors)
    ratios = np.divide(errors, levels, out=np.zeros_like(errors),
                       where=levels > 0)
    return {
        "levels": levels,
        "errors": errors,
        "ratios": ratios,
        "c_stab": 1.0 / math.sqrt(frame.frame_bounds[0]),
    }


def save_samples(s: SampleSet, path) -> None:
    lat = s.lattice
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# r={lat.r!r} domain_radius={lat.domain_radius!r} "
                 f"n_mult={lat.n_mult} seed={lat.seed} kind={s.kind} "
                 f"multiplier={s.multiplier_label or 'none'}\n")
        fh.write("index,u,v,value_re,value_im\n")
        for j, (z, v) in enumerate(zip(lat.points, s.values)):
            fh.write(f"{j},{float(z.real)!r},{float(z.imag)!r},"
                     f"{float(v.real)!r},{float(v.imag)!r}\n")


def load_samples(path) -> SampleSet:
    """Rebuilds the sample set; the multiplier comes back as a label only."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError("missing sample header")
        meta = dict(item.split("=", 1) for item in header[2:].split())
        if fh.readline().strip() != "index,u,v,value_re,value_im":
            raise ValueError("unexpected column header")
        rows = [line.split(",") for line in fh if line.strip()]
    pts = np.array([complex(float(u), float(v)) for _, u, v, _, _ in rows])
    vals = np.array([complex(float(a), float(b)) for _, _, _, a, b in rows])
    lat = Lattice(pts, float(meta["r"]), int(meta["n_mult"]),
                  float(meta["domain_radius"]), int(meta["seed"]))
    label = meta["multiplier"]
    return SampleSet(lat, vals, meta["kind"],
                     multiplier_label="" if label == "none" else label)
