"""Multipliers and the noise-stability probe shared by several test modules."""

import math

import numpy as np

from hypersample.geometry import RHO
from hypersample.sampling import SampleSet, build_frame, reconstruct
from hypersample.spectral import Multiplier, SpectralCoeffs, SpectralGrid


def identity_multiplier() -> Multiplier:
    return Multiplier(fn=lambda lam: np.ones_like(lam), label="identity")


def laplacian_multiplier() -> Multiplier:
    """Symbol of the Laplacian: hat(Delta f) = -(lam^2 + rho^2) hat(f)."""
    return Multiplier(fn=lambda lam: -(lam**2 + RHO**2), label="laplacian")


def stability_probe(s: SampleSet, noise_level: float, seed: int, *,
                    grid: SpectralGrid, cut: float,
                    n_levels: int = 5) -> dict:
    """Reconstruction error under seeded sample noise, over a level sweep.

    One complex Gaussian direction is drawn and scaled to noise_level times
    (1e-2 ... 1) in l2 norm, so the curve isolates the linearity of the
    solve; each noise level gets its own frame.  The certified
    amplification bound is c_stab = 1/sqrt(A) of the noiseless frame.
    """
    frame = build_frame(s, grid=grid, cut=cut)
    base = frame.function
    if noise_level == 0.0:
        levels = np.zeros(n_levels)
    else:
        levels = noise_level * np.logspace(-2, 0, n_levels)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
    direction /= np.linalg.norm(direction)
    errors = []
    for eps in levels:
        noisy = SampleSet(s.lattice, s.values + eps * direction, s.multiplier)
        diff = reconstruct(noisy, grid=grid, cut=cut).coeffs.values \
            - base.coeffs.values
        errors.append(SpectralCoeffs(grid, diff).norm())
    errors = np.asarray(errors)
    ratios = np.divide(errors, levels, out=np.zeros_like(errors),
                       where=levels > 0)
    return {
        "levels": levels,
        "errors": errors,
        "ratios": ratios,
        "c_stab": 1.0 / math.sqrt(frame.frame_bounds[0]),
    }
