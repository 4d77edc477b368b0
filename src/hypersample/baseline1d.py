"""One-dimensional Euclidean baseline with closed-form kernels.

Band-limited signals on the line, the oversampled cardinal series, and
exponential-frame Gram reconstruction.  Everything here has elementary
closed forms (the band kernel is 2 omega sinc), which makes the module an
independent structural oracle for the curved-space code paths: the Gram
solve, the minimal-norm interpolant and the two-route agreement follow
the same shapes with none of the special-function machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandlimited import _bump_mask
from .errors import NotAFrame
from .spectral import _gauss_legendre

__all__ = [
    "Signal1D",
    "synthesize_1d",
    "sinc_reconstruct",
    "exp_frame_gram",
    "gram_reconstruct",
]

_PINV_CUT = 1e-12
# synthesize_1d's draw: Gaussian bumps on an n-point Gauss grid of the band,
# widths and centres as fractions of omega
_N_MODES = 3
_N_XI = 256
_WIDTH_RANGE = (0.08, 0.25)
_CENTER_RANGE = (-0.7, 0.7)


@dataclass(eq=False)
class Signal1D:
    """Spectral samples of f-hat on a quadrature grid over [-omega, omega].

    Values follow f(t) = (1/2pi) int f-hat(xi) e^(i t xi) d xi, so the
    squared norm is (1/2pi) sum w |modes|^2 (Parseval on the band).
    """

    omega: float
    xi_nodes: np.ndarray
    xi_weights: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("band limit must be positive")
        if not (self.xi_nodes.shape == self.xi_weights.shape
                == self.modes.shape):
            raise ValueError("spectral arrays must share one shape")
        if np.max(np.abs(self.xi_nodes)) > self.omega * (1 + 1e-12):
            raise ValueError("spectral nodes leave the band")

    def evaluate(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        wm = self.xi_weights * self.modes
        out = np.empty(t_arr.shape, dtype=complex)
        flat, res = t_arr.ravel(), out.ravel()
        step = max(1, int(2e6 / max(1, self.xi_nodes.size)))
        for start in range(0, flat.size, step):
            phases = np.exp(1j * np.outer(flat[start:start + step],
                                          self.xi_nodes))
            res[start:start + step] = phases @ wm / (2.0 * np.pi)
        if np.ndim(t) == 0:
            return complex(res[0])
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.xi_weights * np.abs(self.modes) ** 2)
                             / (2.0 * np.pi)))


def synthesize_1d(omega: float, seed: int = 0) -> Signal1D:
    """Seeded band-limited signal with a spectrum vanishing to all orders
    at the band edges (so it decays fast enough to truncate in space)."""
    if omega <= 0:
        raise ValueError("band limit must be positive")
    x, w = _gauss_legendre(_N_XI)
    xi = omega * x
    wgt = omega * w
    rng = np.random.default_rng(seed)
    mask = _bump_mask((x + 1.0) / 2.0)
    modes = np.zeros(_N_XI, dtype=complex)
    for _ in range(_N_MODES):
        center = omega * rng.uniform(*_CENTER_RANGE)
        width = omega * rng.uniform(*_WIDTH_RANGE)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        modes += amp * np.exp(-((xi - center) ** 2) / (2.0 * width**2))
    modes *= mask
    sig = Signal1D(omega, xi, wgt, modes)
    nrm = sig.norm()
    if nrm == 0.0:
        raise ValueError("degenerate draw produced the zero signal")
    sig.modes = modes / nrm
    return sig


def sinc_reconstruct(f, gamma: float, t_eval, n_trunc: int):
    """Oversampled cardinal series gamma sum f(gamma n Omega) sinc(...).

    Samples sit at spacing gamma pi / omega; the sinc keeps bandwidth
    omega, and the oversampling prefactor gamma makes the series exact for
    band-limited f.  Truncation at |n| <= n_trunc is accurate once the
    signal has decayed inside the sample window, so evaluation should stay
    in its central part; the seeded signals here decay faster than any
    power.  Every sample position must also lie where f.evaluate is still
    resolved: a Signal1D on an n-point Gauss grid aliases beyond
    |t| ~ pi n / (2 omega), so match n_trunc to the spectral resolution.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("oversampling factor gamma must lie in (0, 1)")
    omega = f.omega
    step = gamma * np.pi / omega
    xs = step * np.arange(-n_trunc, n_trunc + 1)
    samples = np.asarray(f.evaluate(xs))
    t_arr = np.atleast_1d(np.asarray(t_eval, dtype=float))
    out = np.empty(t_arr.shape, dtype=complex)
    flat, res = t_arr.ravel(), out.ravel()
    chunk = max(1, int(2e6 / xs.size))
    for start in range(0, flat.size, chunk):
        card = np.sinc(omega * (flat[start:start + chunk, None] - xs) / np.pi)
        res[start:start + chunk] = gamma * (card @ samples)
    if np.ndim(t_eval) == 0:
        return complex(res[0])
    return out


def _band_kernel(u: np.ndarray, omega: float) -> np.ndarray:
    """int_{-omega}^{omega} e^(i u xi) d xi = 2 omega sinc(omega u)."""
    return 2.0 * omega * np.sinc(omega * np.asarray(u) / np.pi)


def exp_frame_gram(x_points, omega: float) -> dict:
    """Gram matrix of the band exponentials e^(i x_j xi) with its bounds.

    G_jk = 2 omega sinc(omega (x_j - x_k)); the eigenvalue extremes are the
    frame bounds on the span of the points.  Finite sections of oversampled
    grids put the smallest eigenvalue at roundoff scale (the plunge of the
    prolate spectrum); that is still a frame, so only an eigenvalue the
    solver reports as nonpositive counts as degenerate.
    """
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one point")
    gram = _band_kernel(x[:, None] - x[None, :], omega)
    ev = np.linalg.eigvalsh(gram)
    if ev[0] <= 0.0:
        raise NotAFrame(
            f"minimal Gram eigenvalue {ev[0]:.3e} is numerically zero "
            f"against {ev[-1]:.3e}")
    return {"x": x, "omega": float(omega), "gram": gram,
            "frame_bounds": (float(ev[0]), float(ev[-1]))}


def gram_reconstruct(frame: dict, values, t_eval):
    """Minimal-norm band-limited interpolant of point values, by Gram solve.

    Solves G beta = s on the retained eigenspace and expands through the
    band kernel at the sample points.
    """
    x, omega, gram = frame["x"], frame["omega"], frame["gram"]
    s = np.asarray(values, dtype=complex)
    if s.shape != x.shape:
        raise ValueError("one value per sample point required")
    ev, vec = np.linalg.eigh(gram)
    keep = ev > _PINV_CUT * ev[-1]
    proj = vec[:, keep].conj().T @ s
    beta = vec[:, keep] @ (proj / ev[keep])
    t_arr = np.atleast_1d(np.asarray(t_eval, dtype=float))
    vals = _band_kernel(t_arr[:, None] - x, omega) @ beta
    if np.ndim(t_eval) == 0:
        return complex(vals[0])
    return vals
