"""Band limited functions: synthesis and Bernstein certificates.

A function is omega band limited when its spectral coefficients vanish for
lam > omega.  Here that support condition is exact by construction: a
transforms.BandlimitedFunction holds coefficients only on its grid's one
quadrature panel, the band [0, omega].  Test objects are synthesized in the
spectral domain as smooth bump profiles per boundary mode, so there is no
spectral leakage to quantify.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import RHO
from .spectral import SpectralGrid, sobolev_multiplier
from .transforms import BandlimitedFunction, apply_multiplier

__all__ = [
    "synthesize",
    "bernstein_check",
]

_N_MODES = 3
_WIDTH_RANGE = (0.12, 0.3)
_CENTER_RANGE = (0.3, 0.7)
_BERNSTEIN_SLACK = 1e-10


def _bump_mask(t: np.ndarray) -> np.ndarray:
    """Smooth compactly supported profile on (0, 1), peak value 1 at t = 1/2."""
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(4.0 - 1.0 / (ti * (1.0 - ti)))
    return out


def synthesize(grid: SpectralGrid, seed: int = 0) -> BandlimitedFunction:
    """Deterministic pseudo-random element of the band limited class of grid,
    whose panel [0, omega] is the band.

    Each boundary mode |m| <= _N_MODES gets a Gaussian profile in lam (center
    and width drawn from _CENTER_RANGE and _WIDTH_RANGE, fractions of omega)
    multiplied by a smooth bump vanishing to all orders at 0 and omega, with
    a random complex amplitude.  Normalized to unit Plancherel norm.
    """
    if (grid.n_b - 1) // 2 < _N_MODES:
        raise ValueError(f"n_b must be at least {2 * _N_MODES + 2}")
    omega = grid.omega
    rng = np.random.default_rng(seed)
    lam = grid.lambda_nodes
    mask = _bump_mask(lam / omega)
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    for m in range(-_N_MODES, _N_MODES + 1):
        center = omega * rng.uniform(*_CENTER_RANGE)
        width = omega * rng.uniform(*_WIDTH_RANGE)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        profile = amp * np.exp(-((lam - center) ** 2) / (2.0 * width**2)) * mask
        values[:, m % grid.n_b] += profile
    f = BandlimitedFunction(grid, np.fft.ifft(values, axis=1) * grid.n_b)
    f.values /= f.norm()
    return f


def bernstein_check(f: BandlimitedFunction, sigma: float) -> dict:
    """Verify ||Delta^sigma f|| <= (omega^2 + rho^2)^sigma ||f||.

    Delta^sigma acts spectrally as the multiplier (lam^2 + rho^2)^sigma.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    lhs = apply_multiplier(f, sobolev_multiplier(sigma)).norm()
    rhs = (f.omega**2 + RHO**2) ** sigma * f.norm()
    return {
        "sigma": sigma,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs else math.inf,
        "pass": lhs <= rhs * (1.0 + _BERNSTEIN_SLACK),
    }
