"""The Laplacian's multiplier, a band-limited draw and the noise-stability
probe shared by several test modules."""

import math

import numpy as np

from hypersample.bandlimited import _N_MODES, _bump_mask
from hypersample.geometry import RHO
from hypersample.sampling import SampleSet, build_frame
from hypersample.spectral import Multiplier, SpectralGrid
from hypersample.transforms import BandlimitedFunction


def laplacian_multiplier() -> Multiplier:
    """Symbol of the Laplacian: hat(Delta f) = -(lam^2 + rho^2) hat(f)."""
    return Multiplier(fn=lambda lam: -(lam**2 + RHO**2), label="laplacian")


def gaussian_draw(grid: SpectralGrid, seed: int, *,
                  center_range: tuple[float, float],
                  width_range: tuple[float, float]) -> BandlimitedFunction:
    """A unit-norm band-limited function drawn as bandlimited.synthesize
    draws one, but with the centers and widths of the Gaussian profiles,
    as fractions of omega, from the given ranges."""
    omega = grid.omega
    rng = np.random.default_rng(seed)
    lam = grid.lambda_nodes
    mask = _bump_mask(lam / omega)
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    for m in range(-_N_MODES, _N_MODES + 1):
        center = omega * rng.uniform(*center_range)
        width = omega * rng.uniform(*width_range)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        values[:, m % grid.n_b] += \
            amp * np.exp(-((lam - center) ** 2) / (2.0 * width**2)) * mask
    f = BandlimitedFunction(grid, np.fft.ifft(values, axis=1) * grid.n_b)
    f.values /= f.norm()
    return f


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
        rec = build_frame(noisy, grid=grid, cut=cut).function
        diff = BandlimitedFunction(grid, rec.values - base.values)
        errors.append(diff.norm())
    errors = np.asarray(errors)
    ratios = np.divide(errors, levels, out=np.zeros_like(errors),
                       where=levels > 0)
    return {
        "levels": levels,
        "errors": errors,
        "ratios": ratios,
        "c_stab": 1.0 / math.sqrt(frame.frame_bounds[0]),
    }
