"""Tests for the 1-D Euclidean baseline: sinc series and exponential Gram."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hypersample.baseline1d import (
    Signal1D,
    exp_frame_gram,
    gram_reconstruct,
    sinc_reconstruct,
    synthesize_1d,
)
from hypersample.errors import NotAFrame

OMEGA = 2.0
GAMMA = 0.8


@pytest.fixture(scope="module")
def sig():
    return synthesize_1d(OMEGA, seed=0)


@pytest.fixture(scope="module")
def uniform_frame():
    # 64 points at spacing gamma*pi/omega, centered on the origin
    step = GAMMA * np.pi / OMEGA
    x = step * (np.arange(64) - 31.5)
    return exp_frame_gram(x, OMEGA)


def test_synthesized_signal_has_unit_norm(sig):
    assert abs(sig.norm() - 1.0) < 1e-12
    val = sig.evaluate(0.3)
    assert isinstance(val, complex)


def test_time_domain_energy_matches_spectral_norm(sig):
    # Parseval across the two representations; the window is wide enough
    # that the superpolynomial spatial decay makes the cutoff negligible.
    t = np.linspace(-60.0, 60.0, 48001)
    vals = sig.evaluate(t)
    energy = np.trapezoid(np.abs(vals) ** 2, t)
    assert abs(energy - sig.norm() ** 2) < 1e-9


def test_signal_rejects_inconsistent_arrays():
    with pytest.raises(ValueError):
        Signal1D(OMEGA, np.zeros(4), np.zeros(3), np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        Signal1D(OMEGA, np.array([0.0, 3.0]), np.ones(2),
                 np.ones(2, dtype=complex))


def test_sinc_series_reconstructs_seeded_signal(sig):
    rng = np.random.default_rng(7)
    t = rng.uniform(-5.0, 5.0, 50)
    direct = sig.evaluate(t)
    # n_trunc matched to the spectral grid: samples stay where evaluate
    # still resolves the oscillation (|t| <~ pi*n_xi/(2*omega)).
    rec = sinc_reconstruct(sig, GAMMA, t, n_trunc=150)
    rel = np.max(np.abs(rec - direct)) / np.max(np.abs(direct))
    assert rel < 1e-6


def test_sinc_series_exact_at_sample_points(sig):
    step = GAMMA * np.pi / OMEGA
    t = step * np.array([-3.0, 0.0, 7.0])
    rec = sinc_reconstruct(sig, GAMMA, t, n_trunc=150)
    assert np.max(np.abs(rec - sig.evaluate(t))) < 1e-8


def test_sinc_series_matches_closed_form_signal():
    # f(t) = sin(1.8 t)/(pi t) has hat(f) = indicator of [-1.8, 1.8]:
    # closed-form samples, closed-form values, nothing shared with the
    # implementation under test.  The hard spectral edges mean only 1/t
    # spatial decay, so the series needs a deep truncation.
    class ClosedForm:
        omega = OMEGA

        def evaluate(self, t):
            t = np.asarray(t, dtype=float)
            safe = np.where(t == 0.0, 1.0, t)
            return np.where(t == 0.0, 1.8 / np.pi,
                            np.sin(1.8 * t) / (np.pi * safe)) + 0j

    f = ClosedForm()
    rng = np.random.default_rng(11)
    t = rng.uniform(-5.0, 5.0, 50)
    rec = sinc_reconstruct(f, GAMMA, t, n_trunc=2000)
    direct = f.evaluate(t)
    rel = np.max(np.abs(rec - direct)) / np.max(np.abs(direct))
    assert rel < 1e-6


def test_oversampling_margin_matters(sig):
    rng = np.random.default_rng(7)
    t = rng.uniform(-5.0, 5.0, 50)
    direct = sig.evaluate(t)
    err_08 = np.max(np.abs(sinc_reconstruct(sig, 0.8, t, n_trunc=150)
                           - direct))
    err_099 = np.max(np.abs(sinc_reconstruct(sig, 0.99, t, n_trunc=150)
                            - direct))
    assert err_099 > err_08


def test_sinc_rejects_bad_gamma(sig):
    for gamma in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(ValueError):
            sinc_reconstruct(sig, gamma, [0.0], n_trunc=150)


def test_gram_single_point():
    fr = exp_frame_gram([0.7], OMEGA)
    assert np.allclose(fr["gram"], [[2.0 * OMEGA]], rtol=0, atol=1e-14)


def test_gram_matches_quadrature_oracle():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-3.0, 3.0, 6))
    fr = exp_frame_gram(x, OMEGA)
    xi, w = leggauss(200)
    xi, w = OMEGA * xi, OMEGA * w
    quad = np.array([[np.sum(w * np.exp(1j * (a - b) * xi)).real
                      for b in x] for a in x])
    assert np.max(np.abs(fr["gram"] - quad)) < 1e-10


def test_gram_hermitian_toeplitz_for_uniform_points(uniform_frame):
    g = uniform_frame["gram"]
    assert np.max(np.abs(g - g.T)) == 0.0
    for off in range(g.shape[0]):
        assert np.ptp(np.diagonal(g, offset=off)) < 1e-13


def test_gram_frame_bounds_ordered(uniform_frame):
    lo, hi = uniform_frame["frame_bounds"]
    assert 0.0 < lo <= hi


def test_gram_rejects_coincident_points():
    with pytest.raises(NotAFrame):
        exp_frame_gram([0.0, 0.0], OMEGA)


def test_gram_closed_loop_on_uniform_grid(sig, uniform_frame):
    values = sig.evaluate(uniform_frame["x"])
    t = np.linspace(-6.0, 6.0, 41)
    rec = gram_reconstruct(uniform_frame, values, t)
    direct = sig.evaluate(t)
    rel = np.max(np.abs(rec - direct)) / np.max(np.abs(direct))
    assert rel < 1e-6


def test_gram_and_sinc_routes_agree(sig, uniform_frame):
    values = sig.evaluate(uniform_frame["x"])
    t = np.linspace(-6.0, 6.0, 41)
    rec_gram = gram_reconstruct(uniform_frame, values, t)
    rec_sinc = sinc_reconstruct(sig, GAMMA, t, n_trunc=150)
    assert np.max(np.abs(rec_gram - rec_sinc)) < 1e-5


def test_gram_reconstruct_validates_shapes(uniform_frame):
    with pytest.raises(ValueError):
        gram_reconstruct(uniform_frame, np.zeros(3), [0.0])


def test_gram_reconstruct_scalar_eval(sig, uniform_frame):
    values = sig.evaluate(uniform_frame["x"])
    out = gram_reconstruct(uniform_frame, values, 0.25)
    assert isinstance(out, complex)
    assert abs(out - sig.evaluate(0.25)) < 1e-8
