"""Frame vectors at lattice points, their factored frame operator, and
reconstruction.

A lattice point x_j induces the band-restricted frame vector
e_j(lam, b) = e^((i lam + rho) A(x_j, b)), optionally filtered by a
convolution multiplier.  On the band quadrature these are the rows of one
matrix F = R diag(sqrt(measure |m|^2 / n_b)), R[j, (lam, b)] = e_j(lam, b).
Its Gram F F^H is the zonal kernel K(d(x_j, x_k)) of the distance, and
everything follows from F's singular values: their squares certify
stability on the sampled span, and the truncated pseudo-inverse of F gives
the minimal-norm band-limited interpolant (the dual-frame reconstruction).

F is never formed whole, nor is its N x N Gram.  Each plane wave is a
Chebyshev series in the horocycle distance a = A(x, b), so F = G S with the
real planes G[j, (b, k)] = e^(rho A) T_k(A / a_max) (spectral) and a short
series matrix S (deg x n_band, deg about 20 at omega = 2).  A unitary DFT
over the n_b boundary angles splits G into angular-mode blocks of N x deg,
of which only n_b / 2 + 1 are distinct up to conjugation; each block
F_m = G_m S is compressed by QR and an SVD to its right singular
directions above roundoff.  The concatenated N x K factor C has
C C^H = F F^H.  A Householder QR of C, C = Q R, and an SVD of the K x K
triangle R give the frame spectrum; only the retained left singular
vectors Q U_R[:, :rank] are formed, and the reconstruction map stays
factored (the per-mode directions, a K x rank dual and the weights).

Memory follows N K (the factor) and N rank (the left vectors).  The mode
rows G_m exist for one block of points at a time: each mode's QR triangle
is accumulated over the blocks as in TSQR (Demmel, Grigori, Hoemmen and
Langou, SISC 34 (2012)), and the factor's rows are written block by block
from the mode rows built again.  The factor's QR runs in place, one panel
of columns at a time.

The spectrum of any interesting lattice decays smoothly to machine zero:
band-limited functions are analytic, so samples on a bounded domain pin
down only an effectively finite-dimensional slice of the band space.
Reconstruction therefore always runs through a thresholded pseudo-inverse,
and the certified frame bounds (A, B) refer to the retained span.  The raw
smallest eigenvalue of the Gram is returned alongside as a diagnostic; the
one certificate, a retained span that is not empty, raises NotAFrame when
it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandlimited import BandlimitedFunction
from .errors import NotAFrame
from .geometry import row_blocks
from .lattice import Lattice
from .spectral import (Multiplier, SpectralCoeffs, SpectralGrid,
                       _horocycle_planes, _plane_wave_basis, apply_multiplier)
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


@dataclass(eq=False)
class SampleSet:
    """Samples at the lattice points: point samples, or convolution samples
    exactly when they carry the multiplier of their filter."""

    lattice: Lattice
    values: np.ndarray
    multiplier: Multiplier | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.lattice),):
            raise ValueError("one sample value per lattice point required")


@dataclass(eq=False)
class FrameSystem:
    lattice: Lattice
    grid: SpectralGrid
    multiplier: Multiplier | None
    left: np.ndarray          # (N, rank): retained left singular vectors
    directions: list[np.ndarray]  # per angular mode, V_m: (n_band, k_m)
    dual: np.ndarray          # (K, rank): W sigma^-1, left vectors to the
                              # factor's columns
    weights: np.ndarray       # (n_band,): conj(m) / scale, per lam
    frame_bounds: tuple[float, float]  # (A, B) on the retained span
    raw_min: float

    @property
    def rank(self) -> int:
        return self.left.shape[1]


def point_samples(f: BandlimitedFunction, lat: Lattice) -> SampleSet:
    """values[j] = f(x_j)."""
    return SampleSet(lat, f.evaluate(lat.points))


def convolution_samples(f: BandlimitedFunction, lat: Lattice,
                        m: Multiplier) -> SampleSet:
    """values[j] = (f * phi)(x_j) where phi has spectral multiplier m."""
    g = apply_multiplier(f.coeffs, m)
    vals = inverse_transform(g, lat.points)
    return SampleSet(lat, vals, m)


def _mode_rows(points: np.ndarray, angles: np.ndarray, a_max: float,
               deg: int, planes: np.ndarray, out: np.ndarray) -> None:
    """out[m, j, k] = G_m[j, k], m = 0 ... n_b / 2: the unitary DFT over the
    boundary angles of the planes e^{rho A} T_k(A / a_max) at the points
    (_horocycle_planes), one real FFT for all of them.  planes, of shape
    (deg, points.size, angles.size), is a work buffer."""
    for blk, k, plane in _horocycle_planes(points, angles, a_max, deg):
        planes[k, blk] = plane
    np.fft.rfft(planes, axis=2, norm="ortho", out=out.transpose(2, 1, 0))


def _band_factor(points: np.ndarray, grid: SpectralGrid,
                 scale: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Compressed factor of the band rows F = R diag(scale) per angular mode.

    With the plane waves as Chebyshev series in the horocycle distance
    (_plane_wave_basis, scale_i e^{i lam_i a} = sum_k S[k, i] T_k), F is
    G S on the real rows G[j, (b, k)] = e^{rho A} T_k(A / a_max)
    (the planes of _horocycle_planes).  The unitary DFT over the boundary
    angles turns F into n_b blocks F_m = G_m S (mode, point, lam),
    F F^H = sum_m F_m F_m^H; G is real, so G_{-m} = conj(G_m) and only the
    modes 0 ... n_b / 2 are built.  Each G_m (N x deg) has a QR
    G_m = Q_m R_m, so F_m = Q_m R_m S, mode -m taking conj(R_m); R_m is
    accumulated over blocks of points, R_m <- R of [R_m; G_m rows of the
    block], so the mode rows are only ever held for one block.  An SVD of
    R_m S gives the mode's right singular directions V_m; those above
    max(N, n_band) eps times the largest singular value of all modes (the
    roundoff floor) are kept.
    Returns C = [G_m (S V_m)]_m, of shape (N, K) with C C^H = F F^H, its
    rows written block by block from the mode rows built a second time,
    and the V_m.
    """
    lam = grid.lambda_nodes[grid.band_slice]
    n, n_b, angles = points.size, grid.n_b, grid.boundary_angles
    a_max, series = _plane_wave_basis(points, lam, scale)
    deg = series.shape[0]
    # a block's mode rows hold about geometry.PAIR_BLOCK entries
    blocks = row_blocks(n, (n_b // 2 + 1) * deg)
    rows = max(blk.stop - blk.start for blk in blocks)
    planes = np.empty((deg, rows, n_b))
    # stack[m] holds [R_m; G_m rows of one block], then G_m rows alone
    stack = np.empty((n_b // 2 + 1, deg + rows, deg), dtype=complex)
    top = 0
    for blk in blocks:
        end = top + blk.stop - blk.start
        _mode_rows(points[blk], angles, a_max, deg, planes[:, :end - top],
                   stack[:, top:end])
        tri = np.linalg.qr(stack[:, :end], mode="r")
        top = tri.shape[1]
        stack[:, :top] = tri
    modes = np.arange(n_b)
    src = np.minimum(modes, n_b - modes)
    neg = 2 * modes > n_b
    tri = tri[src]
    tri[neg] = tri[neg].conj()
    _, sv, vh = np.linalg.svd(tri @ series, full_matrices=False)
    keep = sv > max(n, lam.size) * np.finfo(float).eps * sv.max()
    dirs = [v[k].conj().T for v, k in zip(vh, keep)]
    # mode -m's columns conj(G_m) S V are the conjugates of G_m conj(S V)
    maps = [np.conj(series @ v) if ng else series @ v
            for v, ng in zip(dirs, neg)]
    widths = [t.shape[1] for t in maps]
    # the modes -m follow the modes 0 ... n_b / 2 in C, so their columns
    # are conjugated in one pass per block
    first_neg = sum(widths[:n_b // 2 + 1])
    factor = np.empty((n, sum(widths)), dtype=complex)
    for blk in blocks:
        g = stack[:, :blk.stop - blk.start]
        _mode_rows(points[blk], angles, a_max, deg, planes[:, :g.shape[1]], g)
        at = 0
        for s, t in zip(src, maps):
            np.matmul(g[s], t, out=factor[blk, at:at + t.shape[1]])
            at += t.shape[1]
        np.conj(factor[blk, first_neg:], out=factor[blk, first_neg:])
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


def _factor_qr(c: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Householder QR of c in place, one panel of _PANEL columns at a time.

    c keeps R in its upper triangle and the reflectors of each panel below
    it (LAPACK's layout); returns each panel's first column lo and its T,
    the compact WY form (Schreiber and Van Loan 1989) of the panel's
    reflectors: H_lo ... H_hi-1 = I - V T V^H, Q the product over panels.
    The trailing columns are updated in blocks of rows.
    """
    n, k = c.shape
    panels = []
    for lo in range(0, min(n, k), _PANEL):
        hi = min(lo + _PANEL, n, k)
        h, tau = np.linalg.qr(c[lo:, lo:hi], mode="raw")
        c[lo:, lo:hi] = h.T
        v = _reflectors(h.T)
        vh = v.conj().T
        # T^-1 = diag(1 / tau) + the strict upper triangle of V^H V
        # (Puglisi 1992), here scaled by diag(tau) to stay finite at tau = 0
        t = np.linalg.solve(
            np.eye(tau.size) + tau[:, None] * np.triu(vh @ v, 1),
            np.diag(tau))
        if hi < k:
            _subtract_product(c[lo:, hi:], v, t.conj().T @ (vh @ c[lo:, hi:]))
        panels.append((lo, t))
    return panels


def _apply_q(c: np.ndarray, panels: list, x: np.ndarray) -> None:
    """x <- Q x in place, Q from _factor_qr(c)."""
    for lo, t in reversed(panels):
        v = _reflectors(c[lo:, lo:lo + t.shape[0]].copy())
        _subtract_product(x[lo:], v, t @ (v.conj().T @ x[lo:]))


def build_frame(lat: Lattice, m: Multiplier | None = None, *,
                grid: SpectralGrid, cut: float = _PINV_CUT) -> FrameSystem:
    """Singular spectrum and dual map of the (multiplier-filtered) frame.

    The frame operator is F = R diag(sqrt(lambda_measure |m|^2 / n_b)) on
    the band rows R[j, (lam, b)] = e_j(lam, b) of grid's band panel
    [0, omega]; its Gram F F^H is the integral over [0, omega] x boundary
    of |m|^2 e_j conj(e_k) density dlam db.  The per-mode factor C
    (_band_factor, built from real Chebyshev rows in the horocycle
    distance) has the singular values sigma of F: a Householder QR of C
    in place (_factor_qr), then an SVD of its small triangle,
    R = U_R Sigma W^H.  The eigenvalues of the Gram are sigma^2, B is the
    largest, and the retained span is sigma^2 > cut B.  Only the retained
    left singular vectors Q U_R[:, :rank] are formed.

    cut fixes the relative eigenvalue threshold below which directions are
    treated as numerically unreachable.  The default keeps the sample span
    as rich as double precision allows; raising it (1e-8 is a good choice)
    trades span for noise amplification bounded by 1/sqrt(cut * B), which
    makes the reconstruction operator an honest numerical projection.
    The rank, the bounds (A, B) on the retained span and the raw smallest
    eigenvalue are returned as diagnostics; NotAFrame is raised when no
    eigenvalue clears the cut.
    """
    if grid.n_band == 0:
        raise ValueError("grid has no band panel")
    if len(lat) == 0:
        raise ValueError("empty lattice")
    sl = grid.band_slice
    mv = np.ones(grid.n_band) if m is None else m.band_values(grid)
    scale = np.sqrt(grid.lambda_measure[sl] * np.abs(mv) ** 2 / grid.n_b)
    factor, dirs = _band_factor(lat.points, grid, scale)
    panels = _factor_qr(factor)
    p = min(factor.shape)
    u, sv, wh = np.linalg.svd(np.triu(factor[:p]), full_matrices=False)
    ev = sv ** 2
    b_top = float(ev[0])
    rank = int(np.count_nonzero(ev > cut * b_top))
    if rank == 0:
        raise NotAFrame("no singular value above the pseudo-inverse threshold")
    a_low = float(ev[rank - 1])
    left = np.zeros((len(lat), rank), dtype=complex)
    left[:p] = u[:, :rank]
    _apply_q(factor, panels, left)
    # the Gram has len(lat) - sv.size further eigenvalues at zero
    raw_min = float(ev[-1]) if sv.size == len(lat) else 0.0
    # W sigma^-1 takes the retained directions to the factor's columns,
    # each mode's V_m takes its columns to (mode, lam); multiplying by
    # conj(m) / scale leaves band coefficients
    return FrameSystem(lat, grid, m, left, dirs,
                       wh[:rank].conj().T / sv[:rank], np.conj(mv) / scale,
                       (a_low, b_top), raw_min)


def _check_compatible(frame: FrameSystem, s: SampleSet) -> None:
    if s.lattice.points.shape != frame.lattice.points.shape or \
            not np.array_equal(s.lattice.points, frame.lattice.points):
        raise ValueError("sample set and frame use different lattices")
    f_lab = frame.multiplier.label if frame.multiplier else ""
    if s.multiplier is None and frame.multiplier is not None:
        raise ValueError("point samples fed to a deconvolution frame")
    if s.multiplier is not None and s.multiplier.label != f_lab:
        raise ValueError(f"sample multiplier {s.multiplier.label!r} does not "
                         f"match frame {f_lab!r}")


def reconstruct(frame: FrameSystem, s: SampleSet) -> BandlimitedFunction:
    """Minimal-norm band-limited interpolant of the samples.

    The truncated pseudo-inverse of F: the samples' components on the
    retained left singular vectors, taken by the dual to the factor's
    columns, by each mode's directions to its band coefficients and scaled
    by the weights, then one DFT from the modes back to the boundary angles.
    For samples taken noiselessly from the retained span the interpolation
    is exact; general data is fit in the least-squares sense.
    """
    _check_compatible(frame, s)
    grid = frame.grid
    cols = frame.dual @ (frame.left.conj().T @ s.values)
    at = np.cumsum([v.shape[1] for v in frame.directions])[:-1]
    modes = np.stack([v @ c for v, c in zip(frame.directions,
                                            np.split(cols, at))])
    modes *= frame.weights
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    values[grid.band_slice] = np.fft.fft(modes, axis=0, norm="ortho").T
    return BandlimitedFunction(SpectralCoeffs(grid, values))
