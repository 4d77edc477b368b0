"""Frame vectors at lattice points, the spectrum of their frame operator,
and reconstruction.

A lattice point x_j induces the band-restricted frame vector
e_j(lam, b) = e^((i lam + rho) A(x_j, b)), filtered by the samples'
multiplier m (spectral.IDENTITY for point samples, the Dirac mass's).  On
the band quadrature these are the rows of one matrix
F = R diag(sqrt(measure |m|^2 / n_b)), R[j, (lam, b)] = e_j(lam, b).
Its Gram F F^H is the zonal kernel K(d(x_j, x_k)) of the distance, and
everything follows from F's singular values: their squares certify
stability on the sampled span, and the truncated pseudo-inverse of F gives
the minimal-norm band-limited interpolant (the dual-frame reconstruction).

F is never formed whole, nor is its N x N Gram.  Each plane wave is a
Chebyshev series in the horocycle distance a = A(x, b), so F = G S with the
real planes G[j, (b, k)] = e^(rho A) T_k(A / a_max) (spectral) and a short
series matrix S (deg x n_lambda, deg about 20 at omega = 2).  A unitary DFT
over the n_b boundary angles splits G into angular-mode blocks of N x deg,
of which only n_b / 2 + 1 are distinct up to conjugation; each block
F_m = G_m S keeps its right singular directions above roundoff over the
ball B(o, a_max) that holds the points, not over the points themselves
(_ball_directions).  The paper's upper frame bound is a Plancherel-Polya
inequality: on a separated set, the sample sums of a band-limited function
are bounded by its L^2 norm on the domain, so a direction at the ball's
roundoff floor is at the samples' floor too.  The concatenated N x K
factor C has C C^H = F F^H; each block of points has its mode rows built
once, and C's rows are written from them.  The samples s ride along as one
more column: a Householder QR of [C | s] in place gives C = Q R and Q^H s
without forming Q (Golub and Van Loan, Matrix Computations, section 5.3),
and one truncated least-squares solve on the triangle R gives both the
frame spectrum (R's singular values) and the factor's coefficients of the
interpolant, which each mode's directions take to band coefficients.  No
singular vector is kept, and memory follows N K (the factor).

The spectrum of any interesting lattice decays smoothly to machine zero:
band-limited functions are analytic, so samples on a bounded domain pin
down only an effectively finite-dimensional slice of the band space.
Reconstruction therefore always runs through a thresholded pseudo-inverse,
and the certified frame bounds (A, B) refer to the retained span.  The one
certificate, a retained span that is not empty, raises NotAFrame when it
fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandlimited import BandlimitedFunction
from .errors import NotAFrame, NumericalFailure
from .geometry import row_blocks
from .lattice import Lattice
from .spectral import (IDENTITY, Multiplier, SpectralCoeffs, SpectralGrid,
                       _gauss_legendre, _horocycle_planes, _radius_bound,
                       apply_multiplier, plane_wave_series)
from .transforms import inverse_transform

__all__ = [
    "SampleSet",
    "FrameSystem",
    "point_samples",
    "convolution_samples",
    "build_frame",
    "reconstruct",
]

_PINV_CUT = 1e-12
# columns per Householder panel of the factor's QR (LAPACK's usual block)
_PANEL = 32
# the ball rule that chooses the frame directions: Gauss-Legendre radii,
# and angles per boundary-angle step
_BALL_RADII = 32
_BALL_OFFSETS = 2


@dataclass(eq=False)
class SampleSet:
    """Convolution samples at the lattice points, with the multiplier of
    their filter; point samples carry spectral.IDENTITY."""

    lattice: Lattice
    values: np.ndarray
    multiplier: Multiplier = IDENTITY

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.lattice),):
            raise ValueError("one sample value per lattice point required")

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class FrameSystem:
    """The minimal-norm band-limited interpolant of one sample set and the
    spectrum of its frame."""

    function: BandlimitedFunction
    spectrum: np.ndarray   # the Gram's min(N, K) leading eigenvalues
                           # sigma^2, descending; the rest are zero
    cut: float

    @property
    def rank(self) -> int:
        """The dimension of the retained span, sigma^2 > cut B."""
        return int(np.count_nonzero(self.spectrum
                                    > self.cut * self.spectrum[0]))

    @property
    def frame_bounds(self) -> tuple[float, float]:
        """(A, B) on the retained span."""
        return float(self.spectrum[self.rank - 1]), float(self.spectrum[0])


def point_samples(f: BandlimitedFunction, lat: Lattice) -> SampleSet:
    """values[j] = f(x_j): convolution samples with the Dirac mass."""
    return convolution_samples(f, lat, IDENTITY)


def convolution_samples(f: BandlimitedFunction, lat: Lattice,
                        m: Multiplier) -> SampleSet:
    """values[j] = (f * phi)(x_j) where phi has spectral multiplier m."""
    g = apply_multiplier(f.coeffs, m)
    vals = inverse_transform(g, lat.points)
    return SampleSet(lat, vals, m)


def _mode_rows(points: np.ndarray, angles: np.ndarray, a_max: float,
               deg: int) -> np.ndarray:
    """G[m, j, k] = G_m[j, k], m = 0 ... n_b / 2: the unitary DFT over the
    boundary angles of the planes e^{rho A} T_k(A / a_max) at the points
    (_horocycle_planes), one real FFT for all of them."""
    planes = np.empty((deg, points.size, angles.size))
    for blk, k, plane in _horocycle_planes(points, angles, a_max, deg):
        planes[k, blk] = plane
    out = np.empty((angles.size // 2 + 1, points.size, deg), dtype=complex)
    np.fft.rfft(planes, axis=2, norm="ortho", out=out.transpose(2, 1, 0))
    return out


def _ball_directions(grid: SpectralGrid, series: np.ndarray, a_max: float,
                     n: int) -> list[np.ndarray]:
    """Right singular directions V_m of G_m S over the ball B(o, a_max),
    m = 0 ... n_b / 2, kept above max(n, n_lambda) eps times the largest
    singular value of all modes (the roundoff floor).

    The ball Gram int_B G_m^H G_m is a product rule: Gauss-Legendre in the
    hyperbolic radius with the area weight sinh t, times _BALL_OFFSETS angles
    in one boundary-angle step, which stand for the whole circle: a rotation
    by 2 pi / n_b shifts the boundary angles cyclically, a phase on G_m.  The
    rule is closed under z -> conj(z) and G_m(conj z) = conj(G_m(z)), so the
    Gram is real: R_m comes from a real QR of [Re G_m; Im G_m], and mode -m,
    whose block conj(G_m) S has the same Gram, shares mode m's directions.
    """
    t, w = _gauss_legendre(_BALL_RADII)
    t = 0.5 * a_max * (t + 1.0)
    offsets = np.exp(2j * np.pi * np.arange(_BALL_OFFSETS)
                     / (_BALL_OFFSETS * grid.n_b))
    rows = _mode_rows(np.outer(np.tanh(t / 2.0), offsets).ravel(),
                      grid.boundary_angles, a_max, series.shape[0])
    rows *= np.repeat(np.sqrt(w * np.sinh(t)), _BALL_OFFSETS)[:, None]
    tri = np.linalg.qr(np.hstack([rows.real, rows.imag]), mode="r")
    _, sv, vh = np.linalg.svd(tri @ series, full_matrices=False)
    keep = sv > max(n, series.shape[1]) * np.finfo(float).eps * sv.max()
    return [v[k].conj().T for v, k in zip(vh, keep)]


def _band_factor(lattice: Lattice, grid: SpectralGrid, scale: np.ndarray,
                 values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """[C | values] and the directions V_m of the n_b modes: the compressed
    factor C = [G_m (S V_m)]_m, shape (N, K), of the band rows
    F = R diag(scale), with C C^H = F F^H.

    S is the plane waves' Chebyshev series on |a| <= a_max =
    max(lattice.domain_radius, max d(o, x_j)) (plane_wave_series,
    scale_i e^{i lam_i a} = sum_k S[k, i] T_k), G_m the unitary DFT over the
    boundary angles of the real planes e^{rho A} T_k(A / a_max) (_mode_rows),
    and F F^H = sum_m G_m S (G_m S)^H; G_{-m} = conj(G_m), so only the modes
    0 ... n_b / 2 are built.  The V_m are chosen over the ball B(o, a_max),
    which holds every point (_ball_directions): by the paper's upper frame
    bound, a direction at the ball's roundoff floor is at the samples' floor
    too.  Each block of points has its mode rows built once.
    """
    points = lattice.points
    n, n_b, angles = points.size, grid.n_b, grid.boundary_angles
    a_max = max(lattice.domain_radius, _radius_bound(points))
    series = plane_wave_series(grid.lambda_nodes, np.diag(scale), a_max)
    half = _ball_directions(grid, series, a_max, n)
    maps = [series @ v for v in half]
    src = [min(m, n_b - m) for m in range(n_b)]
    dirs = [half[s] for s in src]
    factor = np.empty((n, sum(v.shape[1] for v in dirs) + 1), dtype=complex)
    deg = series.shape[0]
    # a block's mode rows hold about geometry.PAIR_BLOCK entries
    for blk in row_blocks(n, (n_b // 2 + 1) * deg):
        g = _mode_rows(points[blk], angles, a_max, deg)
        at = 0
        for m, s in enumerate(src):
            width = maps[s].shape[1]
            # mode -m's rows are conj(G_m)
            np.matmul(g[s].conj() if 2 * m > n_b else g[s], maps[s],
                      out=factor[blk, at:at + width])
            at += width
        factor[blk, -1] = values[blk]
    return factor, dirs


def _subtract_product(a: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
    """a -= v @ m, one block of rows at a time."""
    for rows in row_blocks(a.shape[0], a.shape[1]):
        a[rows] -= v[rows] @ m


def _reflectors(panel: np.ndarray) -> np.ndarray:
    """V from a panel of _factor_qr's output, in place: R's entries above
    the diagonal cleared, a unit diagonal."""
    top = panel[:panel.shape[1]]
    top[np.triu_indices_from(top)] = 0.0
    np.fill_diagonal(top, 1.0)
    return panel


def _factor_qr(c: np.ndarray) -> None:
    """Householder QR of c in place, one panel of _PANEL columns at a time.

    c keeps R in its upper triangle and the reflectors of each panel below
    it (LAPACK's layout).  The trailing columns are updated with the compact
    WY form (Schreiber and Van Loan 1989) of the panel's reflectors,
    H_lo ... H_hi-1 = I - V T V^H, in blocks of rows.
    """
    n, k = c.shape
    for lo in range(0, min(n, k), _PANEL):
        hi = min(lo + _PANEL, n, k)
        h, tau = np.linalg.qr(c[lo:, lo:hi], mode="raw")
        c[lo:, lo:hi] = h.T
        if hi == k:
            break
        v = _reflectors(h.T)
        vh = v.conj().T
        # T^-1 = diag(1 / tau) + the strict upper triangle of V^H V
        # (Puglisi 1992), here scaled by diag(tau) to stay finite at tau = 0
        t = np.linalg.solve(
            np.eye(tau.size) + tau[:, None] * np.triu(vh @ v, 1),
            np.diag(tau))
        _subtract_product(c[lo:, hi:], v, t.conj().T @ (vh @ c[lo:, hi:]))


def build_frame(s: SampleSet, *, grid: SpectralGrid,
                cut: float = _PINV_CUT) -> FrameSystem:
    """Minimal-norm band-limited interpolant of the samples, and the
    singular spectrum of their (multiplier-filtered) frame.

    The frame operator is F = R diag(sqrt(lambda_measure |m|^2 / n_b)) on
    the rows R[j, (lam, b)] = e_j(lam, b) at grid's nodes on the band
    [0, omega], m the samples' multiplier (one for point samples); its
    Gram F F^H is the integral over [0, omega] x boundary of
    |m|^2 e_j conj(e_k) density dlam db.  The per-mode factor C
    (_band_factor, built from real Chebyshev rows in the horocycle
    distance) has the singular values sigma of F.  A Householder QR of
    [C | s] in place (_factor_qr) leaves the triangle R of C and Q^H s;
    one least-squares solve on R, with singular values below sqrt(cut)
    times the largest dropped, gives sigma and the minimal-norm
    coefficients on C's columns.  The eigenvalues of the Gram are sigma^2,
    B is the largest, and the retained span is sigma^2 > cut B.  Each
    mode's directions V_m take the coefficients to (mode, lam), and
    conj(m) / scale to band coefficients.  For samples taken noiselessly
    from the retained span the interpolation is exact; general data is fit
    in the least-squares sense.

    cut fixes the relative eigenvalue threshold below which directions are
    treated as numerically unreachable.  The default keeps the sample span
    as rich as double precision allows; raising it (1e-8 is a good choice)
    trades span for noise amplification bounded by 1/sqrt(cut * B), which
    makes the reconstruction operator an honest numerical projection.
    The rank and the bounds (A, B) on the retained span are returned as
    diagnostics; NotAFrame is raised when no eigenvalue clears the cut.
    """
    if len(s) == 0:
        raise ValueError("empty lattice")
    mv = s.multiplier.band_values(grid)
    scale = np.sqrt(grid.lambda_measure * np.abs(mv) ** 2 / grid.n_b)
    factor, dirs = _band_factor(s.lattice, grid, scale, s.values)
    _factor_qr(factor)
    k = factor.shape[1] - 1
    p = min(len(s), k)
    cols, _, rank, sv = np.linalg.lstsq(np.triu(factor[:p, :k]),
                                        factor[:p, k], rcond=math.sqrt(cut))
    if rank == 0:
        raise NotAFrame("no singular value above the pseudo-inverse threshold")
    at = np.cumsum([v.shape[1] for v in dirs])[:-1]
    modes = np.stack([v @ c for v, c in zip(dirs, np.split(cols, at))])
    modes *= np.conj(mv) / scale
    values = np.fft.fft(modes, axis=0, norm="ortho").T
    frame = FrameSystem(BandlimitedFunction(SpectralCoeffs(grid, values)),
                        sv ** 2, cut)
    if frame.rank != rank:
        raise NumericalFailure(f"the solve kept {rank} singular values, the "
                               f"cut {cut:g} keeps {frame.rank}")
    return frame


def reconstruct(s: SampleSet, *, grid: SpectralGrid) -> BandlimitedFunction:
    """Minimal-norm band-limited interpolant of the samples (build_frame)."""
    return build_frame(s, grid=grid).function
