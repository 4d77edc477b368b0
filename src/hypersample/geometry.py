"""Hyperbolic plane geometry in the Poincare disk model.

Conventions
-----------
The plane is the open unit disk {|z| < 1} with the curvature -1 metric

    ds^2 = 4 |dz|^2 / (1 - |z|^2)^2.

Under this normalization:

* geodesic distance   d(x, y) = 2 artanh |(x - y) / (1 - conj(x) y)|,
  equivalently arccosh(1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2)));
* circumference of the sphere of radius r is S(r) = 2 pi sinh r;
* volume (area) of the ball of radius r is B(r) = 2 pi (cosh r - 1);
* the half sum of positive roots is rho = 1/2, fixed by the plane: the
  module constant RHO, the only definition of rho in the package;
* the circle of hyperbolic radius tau about the origin has Euclidean
  radius tanh(tau / 2).

Boundary points are unit complex numbers e^{i theta}.  The horocycle
"distance" (Busemann function) of x relative to boundary point b is the
logarithm of the Poisson kernel,

    A(x, b) = log P(x, b),    P(x, b) = (1 - |x|^2) / |x - b|^2,

so that exp(2 rho A(x, b)) integrates to 1 over the normalized boundary.
Points are plain complex numbers, or lists or arrays of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RHO",
    "SpaceParams",
    "row_blocks",
    "distance",
    "ball_volume",
    "busemann",
    "mobius_translate",
    "circle_points",
    "multiplicity_bound",
    "random_ball_points",
    "euclidean_radius",
]

# busemann and circle_points reject points closer to the boundary than this
_BOUNDARY_MARGIN = 1e-12

# half sum of the positive roots of the hyperbolic plane
RHO = 0.5

# entries per block of a pairwise pass (about 0.5 MB per float temporary):
# spline evaluation, kernel-matrix assembly, near-pair search and the frame
# rows go through their pairs in blocks of this size
PAIR_BLOCK = 1 << 16


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each about PAIR_BLOCK / width rows.

    A block holds at least two rows, and a one-row remainder joins the
    block before it: numpy forms a one-row matrix-vector product as a dot
    product, whose rounding differs from the BLAS product of a longer
    block, so only a pass of one row in all computes a row alone.
    """
    step = max(2, PAIR_BLOCK // max(1, width))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [rows])]


@dataclass(frozen=True)
class SpaceParams:
    """The calibrated spectral density constant of the plane.

    plancherel_scale multiplies the raw spectral density lam*tanh(pi*lam)
    and is determined once by calibration (see transforms.calibrate_plancherel);
    the default 1.0 is a placeholder, not a calibrated value.
    """

    plancherel_scale: float = 1.0

    def __post_init__(self):
        if not self.plancherel_scale > 0:
            raise ValueError("plancherel_scale must be positive")

    def with_scale(self, scale: float) -> "SpaceParams":
        if not scale > 0:
            raise ValueError(f"plancherel_scale must be positive, got {scale}")
        return replace(self, plancherel_scale=scale)


def distance(x, y) -> np.ndarray:
    """Geodesic distance, vectorized over complex arrays."""
    zx, zy = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    num = np.abs(zx - zy)
    den = np.abs(1.0 - np.conj(zx) * zy)
    t = num / den
    # t < 1 for interior points; arctanh is the numerically stable route
    return 2.0 * np.arctanh(t)


def ball_volume(r) -> np.ndarray:
    """Area B(r) = 2 pi (cosh r - 1) of the geodesic ball of radius r.

    Evaluated as 4 pi sinh^2(r/2), which is exact in the small-r limit where
    cosh r - 1 cancels catastrophically.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return 4.0 * np.pi * np.sinh(r / 2.0) ** 2


def busemann(x, b) -> np.ndarray:
    """Horocycle distance A(x, b) = log P(x, b) of x relative to boundary angle b.

    b may be an angle or an array of angles.  Evaluated in the
    cancellation-free form |x - e^{i b}|^2 = (1-|x|)^2 + 4 |x| sin^2((b - arg x)/2).
    """
    z = np.asarray(x, dtype=complex)
    theta = np.asarray(b, dtype=float)
    az = np.abs(z)
    if np.any(az >= 1.0 - _BOUNDARY_MARGIN):
        raise ValueError("busemann: point too close to the boundary")
    one_minus = 1.0 - az
    dist2 = one_minus**2 + 4.0 * az * np.sin((theta - np.angle(z)) / 2.0) ** 2
    # 1 - |z|^2 = (1 - |z|)(1 + |z|)
    return np.log(one_minus * (1.0 + az)) - np.log(dist2)


def mobius_translate(a, z) -> np.ndarray:
    """The disk isometry sending 0 to a, applied to z: (z + a) / (1 + conj(a) z)."""
    za, zz = np.asarray(a, dtype=complex), np.asarray(z, dtype=complex)
    return (zz + za) / (1.0 + np.conj(za) * zz)


def euclidean_radius(tau: float) -> float:
    """Euclidean radius tanh(tau/2) of the hyperbolic circle of radius tau about 0."""
    return math.tanh(tau / 2.0)


def circle_points(center, tau: float, m: int) -> np.ndarray:
    """m points equally spaced in arc length on the hyperbolic circle S(center, tau).

    Built as the rotation-symmetric circle about the origin pushed forward by
    the isometry taking 0 to center; isometries preserve arc length, so the
    spacing stays uniform.
    """
    if m < 1:
        raise ValueError("need at least one circle point")
    if tau < 0:
        raise ValueError("circle radius must be nonnegative")
    c = np.asarray(center, dtype=complex)
    if np.abs(c) >= 1.0 - _BOUNDARY_MARGIN:
        raise ValueError("circle_points: center too close to the boundary")
    if tau == 0.0:
        return np.full(m, complex(c))
    s = euclidean_radius(tau)
    base = s * np.exp(2j * np.pi * np.arange(m) / m)
    out = mobius_translate(c, base)
    if np.any(np.abs(out) >= 1.0 - _BOUNDARY_MARGIN):
        raise ValueError("circle_points: circle leaves the representable disk")
    return out


def multiplicity_bound(r: float) -> float:
    """Ball-count bound B(3r)/B(r/4), the admissible-multiplicity constant
    for metric lattices: at most this many balls of radius r can contain a
    common point."""
    if not 0 < r:
        raise ValueError("r must be positive")
    with np.errstate(over="ignore"):
        big = ball_volume(3.0 * r)
    # past r = 237 the bound overflows: no finite cap
    return float(big / ball_volume(r / 4.0)) if np.isfinite(big) else math.inf


def random_ball_points(domain_radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly (w.r.t. hyperbolic area) from B(0, domain_radius)."""
    if domain_radius < 0:  # cosh is even: it would sample B(0, |radius|)
        raise ValueError(f"negative ball radius {domain_radius}")
    u = rng.random(n)
    # radial CDF of the area measure is (cosh s - 1)/(cosh R - 1)
    s = np.arccosh(1.0 + u * (np.cosh(domain_radius) - 1.0))
    ang = rng.random(n) * 2.0 * np.pi
    return np.tanh(s / 2.0) * np.exp(1j * ang)
