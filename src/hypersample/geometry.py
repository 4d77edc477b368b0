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
* the half sum of positive roots is rho = 1/2;
* the circle of hyperbolic radius tau about the origin has Euclidean
  radius tanh(tau / 2).

Boundary points are unit complex numbers e^{i theta}.  The horocycle
"distance" (Busemann function) of x relative to boundary point b is the
logarithm of the Poisson kernel,

    A(x, b) = log P(x, b),    P(x, b) = (1 - |x|^2) / |x - b|^2,

so that exp(2 rho A(x, b)) integrates to 1 over the normalized boundary.
Most functions accept plain complex numbers (or arrays of them) as points;
the small Point wrapper exists for validated user input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SpaceParams",
    "Point",
    "as_complex",
    "distance",
    "sphere_area",
    "ball_volume",
    "busemann",
    "mobius_translate",
    "circle_points",
    "multiplicity_bound",
    "random_ball_points",
    "euclidean_radius",
]

# points closer to the boundary than this are rejected by constructors
_BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class SpaceParams:
    """Fixed analytic parameters of the (two dimensional) space.

    plancherel_scale multiplies the raw spectral density lam*tanh(pi*lam)
    and is determined once by calibration (see transforms.calibrate_plancherel);
    the default 1.0 is a placeholder, not a calibrated value.
    """

    rho: float = 0.5
    plancherel_scale: float = 1.0

    def __post_init__(self):
        if not (self.rho > 0 and self.plancherel_scale > 0):
            raise ValueError("rho and plancherel_scale must be positive")

    def with_scale(self, scale: float) -> "SpaceParams":
        if not scale > 0:
            raise ValueError(f"plancherel_scale must be positive, got {scale}")
        return replace(self, plancherel_scale=scale)


@dataclass(frozen=True)
class Point:
    """A point of the open unit disk."""

    u: float
    v: float

    def __post_init__(self):
        if self.u * self.u + self.v * self.v >= (1.0 - _BOUNDARY_MARGIN) ** 2:
            raise ValueError(f"point ({self.u}, {self.v}) is not inside the unit disk")

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)

    @classmethod
    def from_complex(cls, z: complex) -> "Point":
        return cls(float(np.real(z)), float(np.imag(z)))

    @classmethod
    def origin(cls) -> "Point":
        return cls(0.0, 0.0)


def as_complex(points) -> np.ndarray:
    """Coerce Point objects, complex scalars or sequences thereof to a complex array."""
    if isinstance(points, Point):
        return np.asarray(points.z, dtype=complex)
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], Point):
        return np.array([p.z for p in points], dtype=complex)
    return np.asarray(points, dtype=complex)


def distance(x, y) -> np.ndarray:
    """Geodesic distance, vectorized over complex arrays (or Points)."""
    zx, zy = as_complex(x), as_complex(y)
    num = np.abs(zx - zy)
    den = np.abs(1.0 - np.conj(zx) * zy)
    t = num / den
    # t < 1 for interior points; arctanh is the numerically stable route
    return 2.0 * np.arctanh(t)


def sphere_area(r) -> np.ndarray:
    """Circumference S(r) = 2 pi sinh r of the geodesic sphere of radius r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return 2.0 * np.pi * np.sinh(r)


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
    z = as_complex(x)
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
    za, zz = as_complex(a), as_complex(z)
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
    c = as_complex(center)
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


def multiplicity_bound(r: float | None = None, n_grid: int = 4096) -> float:
    """Ball-count bound B(3r)/B(r/4) for a given r, or its supremum over 0 < r < 1.

    The supremum (r=None) is the admissible-multiplicity constant for metric
    lattices: at most this many balls of radius r can contain a common point.
    """
    if r is not None:
        if not 0 < r:
            raise ValueError("r must be positive")
        return float(ball_volume(3.0 * r) / ball_volume(r / 4.0))
    rs = np.linspace(1e-4, 1.0, n_grid)
    vals = ball_volume(3.0 * rs) / ball_volume(rs / 4.0)
    return float(np.max(vals))


def random_ball_points(domain_radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly (w.r.t. hyperbolic area) from B(0, domain_radius)."""
    u = rng.random(n)
    # radial CDF of the area measure is (cosh s - 1)/(cosh R - 1)
    s = np.arccosh(1.0 + u * (np.cosh(domain_radius) - 1.0))
    ang = rng.random(n) * 2.0 * np.pi
    return np.tanh(s / 2.0) * np.exp(1j * ang)
