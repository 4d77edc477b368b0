"""Sample operators, factored frames, reconstruction, and stability probes."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersample.bandlimited import BandlimitedFunction, synthesize
from hypersample.errors import MultiplierVanishes
from hypersample.geometry import RHO, busemann, distance, mobius_translate
from hypersample.lattice import Lattice, build_lattice
from hypersample.sampling import (SampleSet, _band_factor, build_frame,
                                  convolution_samples, point_samples,
                                  reconstruct)
from hypersample.spectral import (SpectralCoeffs, _horocycle_planes,
                                  _plane_wave_basis, build_grid)
from hypersample.sphavg import AverageSpec, average_multiplier
from hypersample.splines import (SplineInterpolant, build_splines,
                                 spline_band_projection)
from hypersample.transforms import build_polar_grid

from helpers import identity_multiplier, laplacian_multiplier, stability_probe

OMEGA = 2.0
DOMAIN = 1.4


@pytest.fixture(scope="module")
def grid(space):
    return build_grid(space, lam_max=8.0, n_lambda=96, n_b=64, omega=OMEGA)


@pytest.fixture(scope="module")
def lattices():
    return {r: build_lattice(r, DOMAIN, seed=0) for r in (0.4, 0.2, 0.1)}


@pytest.fixture(scope="module")
def frames(lattices, grid):
    return {r: build_frame(lattices[r], grid=grid)
            for r in (0.4, 0.2, 0.1)}


@pytest.fixture(scope="module")
def frame8(lattices, grid):
    # raised cut: trades span for a projection that is stable to 1e-10
    return build_frame(lattices[0.2], grid=grid, cut=1e-8)


@pytest.fixture(scope="module")
def f(grid):
    return synthesize(grid, seed=0)


@pytest.fixture(scope="module")
def pgrid():
    return build_polar_grid(r_max=DOMAIN, n_r=160, n_theta=96)


def _rel_coeff_err(a, b, grid):
    diff = SpectralCoeffs(grid, a.coeffs.values - b.coeffs.values)
    return diff.norm() / b.coeffs.norm()


def test_point_samples_zero_function(f, lattices):
    zero = BandlimitedFunction(SpectralCoeffs(f.grid, 0.0 * f.coeffs.values))
    s = point_samples(zero, lattices[0.4])
    assert s.multiplier is None
    assert np.all(s.values == 0)


def test_point_samples_linearity(f, grid, lattices):
    lat = lattices[0.4]
    g = synthesize(grid, seed=7)
    combo = BandlimitedFunction(
        SpectralCoeffs(grid, 2.5 * f.coeffs.values - 1j * g.coeffs.values))
    lhs = point_samples(combo, lat).values
    rhs = 2.5 * point_samples(f, lat).values - 1j * point_samples(g, lat).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_point_samples_against_direct_quadrature(f, grid, lattices):
    # independent inversion: scalar Busemann formula and a flat python loop
    lat = lattices[0.2]
    s = point_samples(f, lat)
    idx = np.random.default_rng(11).choice(len(lat), size=5, replace=False)
    for j in idx:
        z = lat.points[j]
        total = 0.0 + 0.0j
        for i in range(grid.n_lambda):
            w = grid.lambda_measure[i] / grid.n_b
            for l in range(grid.n_b):
                b = cmath.exp(1j * grid.boundary_angles[l])
                a_xb = math.log((1 - abs(z) ** 2) / abs(z - b) ** 2)
                total += w * f.coeffs.values[i, l] * cmath.exp(
                    (1j * grid.lambda_nodes[i] + RHO) * a_xb)
        assert abs(total - s.values[j]) <= 1e-10 * abs(s.values[j])


def test_convolution_identity_matches_point(f, lattices):
    lat = lattices[0.2]
    conv = convolution_samples(f, lat, identity_multiplier())
    pts = point_samples(f, lat)
    assert conv.multiplier.label == "identity"
    assert np.max(np.abs(conv.values - pts.values)) <= 1e-12


def test_convolution_laplacian_matches_finite_differences(f, lattices):
    # Delta_H = ((1-|z|^2)^2/4) Delta_euclidean in the disk model
    lat = lattices[0.2]
    s = convolution_samples(f, lat, laplacian_multiplier())
    h = 1e-3
    for j in (3, 50, 200, 301, 442):
        z = lat.points[j]
        stencil = np.array([z, z + h, z - h, z + 1j * h, z - 1j * h])
        v = f.evaluate(stencil)
        lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h ** 2
        lap *= (1 - abs(z) ** 2) ** 2 / 4
        assert abs(lap - s.values[j]) <= 1e-2 * abs(s.values[j])


def test_sample_set_validation(f, lattices):
    lat = lattices[0.4]
    with pytest.raises(ValueError, match="one sample value"):
        SampleSet(lat, np.zeros(3))


def _weights(grid, m=None):
    # band quadrature weights measure |m|^2 / n_b of the frame operator
    sl = grid.band_slice
    mv = np.ones(grid.n_band) if m is None else m.values_on(grid)[sl]
    return grid.lambda_measure[sl] / grid.n_b * np.abs(mv) ** 2


def _factor_gram(lat, grid, m=None):
    # C C^H of the per-mode factor that build_frame decomposes
    c, _ = _band_factor(lat.points, grid, np.sqrt(_weights(grid, m)))
    return c @ c.conj().T


def _kernel_rows(points, lam, angles):
    # frame vectors e_j(lam_i, b_l) = e^((i lam_i + rho) A(x_j, b_l)) at
    # [l, j, i], one complex exponential each: the oracle for the factor
    a = busemann(points[None, :], angles[:, None])
    return np.exp((1j * lam + RHO) * a[:, :, None])


def _plane_wave_rows(lat, grid, m=None):
    # the weighted discrete plane-wave rows psi: F itself, never formed by
    # build_frame, whose Gram is psi psi^H
    sl = grid.band_slice
    rows = _kernel_rows(lat.points, grid.lambda_nodes[sl],
                        grid.boundary_angles)
    rows = rows.transpose(1, 2, 0).reshape(len(lat), -1)
    return rows * np.sqrt(np.repeat(_weights(grid, m), grid.n_b))


def _multiplier(name):
    if name == "laplacian":
        return laplacian_multiplier()
    if name == "average":
        return average_multiplier(AverageSpec(tau=0.2))
    return None


@pytest.mark.parametrize("name", [None, "laplacian", "average"])
@pytest.mark.parametrize("r", [0.4, 0.2])
def test_mode_rows_match_plane_wave_dft(grid, lattices, r, name):
    # G_m S, with mode -m built as conj(G_m), is the unitary DFT over the
    # boundary angles of the weighted plane-wave rows
    lat = lattices[r]
    sl = grid.band_slice
    scale = np.sqrt(_weights(grid, _multiplier(name)))
    a_max, series = _plane_wave_basis(lat.points, grid.lambda_nodes[sl],
                                      scale)
    half = np.empty((len(lat), len(series), grid.n_b // 2 + 1),
                    dtype=complex)
    for blk, k, plane in _horocycle_planes(lat.points, grid.boundary_angles,
                                           a_max, len(series)):
        half[blk, k] = np.fft.rfft(plane, axis=1, norm="ortho")
    ref = np.fft.fft(_kernel_rows(lat.points, grid.lambda_nodes[sl],
                                  grid.boundary_angles),
                     axis=0, norm="ortho") * scale
    top = np.max(np.abs(ref))
    for m in range(grid.n_b):
        g = half[:, :, m] if 2 * m <= grid.n_b \
            else half[:, :, grid.n_b - m].conj()
        assert np.max(np.abs(g @ series - ref[m])) <= 1e-14 * top


@pytest.mark.parametrize("name", [None, "laplacian", "average"])
def test_trimmed_series_degree_below_band(grid, lattices, name):
    # the factor's blocks are N x deg: the cut series must be narrower than
    # the n_band columns of the plane-wave blocks it replaces
    scale = np.sqrt(_weights(grid, _multiplier(name)))
    for lat in lattices.values():
        _, series = _plane_wave_basis(
            lat.points, grid.lambda_nodes[grid.band_slice], scale)
        assert series.shape[0] < grid.n_band


def test_spline_band_projection_matches_plane_wave_rows(space, grid):
    # the band transform of sum_j beta_j K(d(., x_j)) from the complex
    # plane waves themselves: (lam^2 + rho^2)^(-2k) sum_j beta_j conj(e_j),
    # on a lattice whose order-2 system meets the Lagrangian certificate
    system = build_splines(build_lattice(0.6, DOMAIN, seed=0), 2,
                           space=space)
    rng = np.random.default_rng(3)
    n = len(system.lattice)
    beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = spline_band_projection(SplineInterpolant(system, beta), grid)
    sl = grid.band_slice
    lam = grid.lambda_nodes[sl]
    rows = _kernel_rows(system.lattice.points, lam, grid.boundary_angles)
    want = np.einsum("j,lji->il", beta, rows.conj()) \
        * ((lam ** 2 + RHO ** 2) ** (-2 * system.k))[:, None]
    assert np.max(np.abs(got.coeffs.values[sl] - want)) \
        <= 1e-14 * np.max(np.abs(want))


def test_results_carry_their_grids_omega(space):
    # omega lives on the grid only: every band-limited result reads it there
    grid = build_grid(space, lam_max=6.0, n_lambda=48, n_b=32, omega=1.5)
    lat = build_lattice(0.8, 1.0, seed=0)
    f = synthesize(grid, seed=0)
    rec = reconstruct(build_frame(lat, grid=grid), point_samples(f, lat))
    interp = SplineInterpolant(build_splines(lat, 2, space=space),
                               np.ones(len(lat)))
    proj = spline_band_projection(interp, grid)
    assert f.omega == rec.omega == proj.omega == grid.omega == 1.5


def test_single_point_frame(grid):
    lat = Lattice(np.array([0j]), 0.2, 1, 0.2, 0)
    frame = build_frame(lat, grid=grid)
    assert frame.left.shape == (1, 1)
    a, b = frame.frame_bounds
    assert a == b > 0
    # phi_lam(0) = 1, so the one Gram entry is the band mass
    band_mass = grid.lambda_measure[grid.band_slice].sum()
    assert b == pytest.approx(band_mass, rel=1e-12)
    assert frame.raw_min == b


def test_frame_of_roundoff_scale_lattice(grid):
    # two points 3e-16 apart: every Gram entry is the band mass, rank one
    lat = Lattice(np.array([0.1 + 0j, 0.1 + 3e-16]), 0.2, 1, 0.2, 0)
    frame = build_frame(lat, grid=grid)
    band_mass = grid.lambda_measure[grid.band_slice].sum()
    assert np.allclose(_factor_gram(lat, grid), band_mass, rtol=1e-12,
                       atol=0.0)
    assert frame.rank == 1
    assert frame.frame_bounds[1] == pytest.approx(2 * band_mass, rel=1e-12)


def test_gram_hermitian_psd(frames):
    # the Gram is C C^H: its eigenvalues are squared singular values, so
    # the raw minimum is nonnegative and below the retained span's bounds
    for frame in frames.values():
        left = frame.left
        assert np.max(np.abs(left.conj().T @ left - np.eye(frame.rank))) \
            <= 1e-12
        a, b = frame.frame_bounds
        assert 0.0 <= frame.raw_min <= 1e-12 * b < a <= b


def test_gram_matches_zonal_kernel(frames, grid):
    # the factor's Gram depends on d(x_j, x_k) only, through the Legendre
    # average sum_i w_i P_{-1/2 + i lam_i}(cosh d)
    frame = frames[0.4]
    gram = _factor_gram(frame.lattice, grid)
    lam = grid.lambda_nodes[grid.band_slice]
    w = grid.lambda_measure[grid.band_slice]
    pts = frame.lattice.points[:6]
    top = abs(gram[0, 0])
    for j in range(6):
        for k in range(j + 1):
            d = distance(pts[j], pts[k])
            zonal = math.fsum(
                w[i] * float(mpmath.re(mpmath.legenp(-0.5 + 1j * lam[i], 0,
                                                     mpmath.cosh(d))))
                for i in range(lam.size))
            assert abs(gram[j, k] - zonal) <= 1e-8 * top


@pytest.mark.parametrize("tau", [None, 0.1])
@pytest.mark.parametrize("r", [0.4, 0.2])
def test_zonal_gram_matches_plane_wave_gram(grid, lattices, r, tau):
    # the compressed factor drops only directions at the roundoff floor, so
    # its Gram is the plane-wave Gram psi psi^H
    lat = lattices[r]
    m = None if tau is None else average_multiplier(AverageSpec(tau=tau))
    frame = build_frame(lat, m, grid=grid)
    psi = _plane_wave_rows(lat, grid, m)
    ref = psi @ psi.conj().T
    ev = np.linalg.eigvalsh(ref)
    b_top = ev[-1]
    assert np.max(np.abs(_factor_gram(lat, grid, m) - ref)) <= 1e-13 * b_top
    assert frame.rank == np.count_nonzero(ev > 1e-12 * frame.frame_bounds[1])
    assert frame.frame_bounds[1] == pytest.approx(b_top, rel=1e-13)


@pytest.mark.parametrize("r", [0.4, 0.2, 0.1])
def test_retained_vectors_match_dense_svd(frames, lattices, grid, r):
    # the factor's QR, the SVD of its triangle and Q applied to the rank
    # columns only, against one dense SVD of the assembled factor: N < K,
    # N about 1.7 K and N >> K
    frame = frames[r]
    c, _ = _band_factor(lattices[r].points, grid, np.sqrt(_weights(grid)))
    u, sv, _ = np.linalg.svd(c, full_matrices=False)
    rank = frame.rank
    assert rank == np.count_nonzero(sv ** 2 > 1e-12 * frame.frame_bounds[1])
    # the dual is W sigma^-1 with orthonormal W: its column norms are 1/sigma
    sig = 1.0 / np.linalg.norm(frame.dual, axis=0)
    assert np.max(np.abs(sig - sv[:rank])) <= 1e-12 * sv[0]
    # each SVD errs by eps sigma_max, so small sigma agree less closely
    assert np.max(np.abs(sig / sv[:rank] - 1.0)) <= 1e-10
    assert frame.frame_bounds == pytest.approx(
        (sv[rank - 1] ** 2, sv[0] ** 2), rel=1e-10)
    ref = u[:, :rank]
    for rows in np.array_split(np.arange(len(frame.lattice)), 8):
        proj = frame.left[rows] @ frame.left.conj().T
        assert np.max(np.abs(proj - ref[rows] @ ref.conj().T)) <= 1e-10


def _moved_spectrum_gap(frame, grid, moved_points):
    """Rank of the frame of frame's lattice with its points moved to
    moved_points, and the largest |difference| over the squared singular
    values above 1e-10 B, relative to the upper frame bound B."""
    lat = frame.lattice
    moved = build_frame(Lattice(moved_points, lat.r, lat.n_mult,
                                lat.domain_radius, lat.seed), grid=grid)
    b_top = frame.frame_bounds[1]
    ev, ev_moved = (1.0 / np.linalg.norm(f.dual, axis=0) ** 2
                    for f in (frame, moved))
    n_top = int(np.count_nonzero(ev > 1e-10 * b_top))
    return moved.rank, float(np.max(np.abs(ev_moved[:n_top] - ev[:n_top]))
                             / b_top)


@pytest.mark.parametrize("r", [0.4, 0.2])
@settings(max_examples=8, deadline=None)
@given(angle=st.floats(0.0, 2.0 * math.pi))
def test_frame_spectrum_is_rotation_invariant(frames, grid, r, angle):
    # a rotation is an isometry of the disk, so the rotated lattice has the
    # same frame spectrum; at radius 1.4 and omega = 2 the 64 boundary
    # angles resolve the boundary sum, and the spectra agree to roundoff
    # whether or not the rotation maps the angles onto each other
    frame = frames[r]
    rank, gap = _moved_spectrum_gap(
        frame, grid, frame.lattice.points * np.exp(1j * angle))
    assert rank == frame.rank
    assert gap <= 1e-12


@pytest.fixture(scope="module")
def frame256(space, lattices):
    grid256 = build_grid(space, lam_max=8.0, n_lambda=96, n_b=256,
                         omega=OMEGA)
    return build_frame(lattices[0.4], grid=grid256), grid256


@settings(max_examples=8, deadline=None)
@given(shift=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_frame_spectrum_is_mobius_invariant(frame256, shift, angle):
    # a Mobius translation is an isometry of the disk, so the moved lattice
    # has the same frame spectrum; the farthest point moves out to radius
    # 2.4, where 256 boundary angles still resolve the boundary sum
    frame, grid256 = frame256
    a = math.tanh(shift / 2.0) * cmath.exp(1j * angle)
    rank, gap = _moved_spectrum_gap(frame, grid256,
                                    mobius_translate(a, frame.lattice.points))
    assert rank == frame.rank
    assert gap <= 1e-12


def test_mobius_moved_spectrum_drifts_at_64_angles(frames, grid):
    # the frame's 64 boundary angles under-resolve the boundary sum once a
    # lattice point moves out to radius 2: the spectra drift apart by about
    # 1e-9 B.  A boundary quadrature whose angle count follows the domain
    # radius and band edge (ROADMAP open item 1) brings this under 1e-12 B
    frame = frames[0.4]
    _, gap = _moved_spectrum_gap(
        frame, grid, mobius_translate(math.tanh(0.3), frame.lattice.points))
    assert gap > 1e-12


def test_build_frame_memory(grid, lattices):
    # no transient follows N beyond the factor (N x K) and the left vectors
    # (N x rank): the mode rows and the factor's QR go one block at a time.
    # The frame keeps the synthesis factored, not as n_b x n_band x rank
    lat = lattices[0.1]
    tracemalloc.start()
    try:
        frame = build_frame(lat, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 0
    for value in vars(frame).values():
        for a in value if isinstance(value, list) else [value]:
            held += a.nbytes if isinstance(a, np.ndarray) else 0
    assert peak <= 20 * 2 ** 20
    assert held <= 4 * 2 ** 20


def test_frame_inequality_on_retained_span(frame8, grid):
    # A |beta|^2 <= |psi^H beta|^2 <= B |beta|^2 on the retained left
    # singular vectors, measured on the plane-wave rows themselves
    rng = np.random.default_rng(2)
    n = len(frame8.lattice)
    basis = frame8.left
    beta = basis @ (basis.conj().T @ (rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n)))
    psi = _plane_wave_rows(frame8.lattice, grid)
    quad = float(np.linalg.norm(psi.conj().T @ beta) ** 2)
    nsq = float(np.real(beta.conj() @ beta))
    a, b = frame8.frame_bounds
    assert a * nsq * (1 - 1e-10) <= quad <= b * nsq * (1 + 1e-10)


def test_frame_bounds_tighten_as_lattice_refines(frames):
    # trend check: finer lattices yield a snugger certified frame
    a_vals = [frames[r].frame_bounds[0] for r in (0.4, 0.2, 0.1)]
    b_vals = [frames[r].frame_bounds[1] for r in (0.4, 0.2, 0.1)]
    assert a_vals[0] < a_vals[1] < a_vals[2]
    assert b_vals[0] < b_vals[1] < b_vals[2]


def test_build_frame_input_validation(space, grid, lattices):
    no_band = build_grid(space, lam_max=8.0, n_lambda=96, n_b=64)
    with pytest.raises(ValueError, match="band panel"):
        build_frame(lattices[0.4], grid=no_band)
    with pytest.raises(ValueError, match="empty"):
        build_frame(Lattice(np.array([], dtype=complex), 0.2, 1, 1.0, 0),
                    grid=grid)


def test_vanishing_multiplier_rejected(grid, lattices):
    from hypersample.spectral import Multiplier
    dead = Multiplier(fn=lambda lam: np.where(lam < 1.0, 0.0, 1.0),
                      label="gate")
    with pytest.raises(MultiplierVanishes):
        build_frame(lattices[0.4], dead, grid=grid)


def test_reconstruct_zero_samples(frames, lattices):
    lat = lattices[0.2]
    rec = reconstruct(frames[0.2], SampleSet(lat, np.zeros(len(lat))))
    assert rec.coeffs.norm() == 0.0


def test_closed_loop_point_reconstruction(frames, f, lattices, pgrid):
    rec = reconstruct(frames[0.2], point_samples(f, lattices[0.2]))
    fv = f.evaluate(pgrid.points)
    err = pgrid.norm(rec.evaluate(pgrid.points) - fv) / pgrid.norm(fv)
    assert err < 5e-6


def test_reconstruction_error_decreases_with_r(frames, f, lattices, pgrid):
    fv = f.evaluate(pgrid.points)
    den = pgrid.norm(fv)
    errs = []
    for r in (0.4, 0.2, 0.1):
        rec = reconstruct(frames[r], point_samples(f, lattices[r]))
        errs.append(pgrid.norm(rec.evaluate(pgrid.points) - fv) / den)
    assert errs[0] > errs[1] > errs[2]


def test_deconvolution_equals_point_route_for_identity(f, grid, lattices):
    lat = lattices[0.2]
    frame_pt = build_frame(lat, grid=grid)
    frame_id = build_frame(lat, identity_multiplier(), grid=grid)
    rec_pt = reconstruct(frame_pt, point_samples(f, lat))
    rec_id = reconstruct(frame_id, convolution_samples(f, lat,
                                                       identity_multiplier()))
    assert _rel_coeff_err(rec_id, rec_pt, grid) <= 1e-12


def test_reconstruction_is_a_projection(frame8, f, lattices):
    # idempotence needs the raised cut; at 1e-12 the re-solve amplifies
    # quadrature rounding in the resampled values to the 1e-7 scale
    lat = lattices[0.2]
    f0 = reconstruct(frame8, point_samples(f, lat))
    f1 = reconstruct(frame8, point_samples(f0, lat))
    assert _rel_coeff_err(f1, f0, frame8.grid) <= 1e-10


def test_deconvolution_closed_loop(f, grid, lattices):
    # the pipeline is exact on its reconstructible class; reaching the
    # synthesized f itself is limited by the reweighted retained span
    lat = lattices[0.2]
    m = laplacian_multiplier()
    frame = build_frame(lat, m, grid=grid)
    f0 = reconstruct(frame, convolution_samples(f, lat, m))
    f1 = reconstruct(frame, convolution_samples(f0, lat, m))
    assert _rel_coeff_err(f1, f0, grid) < 1e-5


def test_reconstruct_matches_dense_lstsq(frames, f, grid, lattices):
    # the minimal-norm solution of psi y = samples with singular values cut
    # at sqrt(cut) of the largest, then divided by the weights
    lat = lattices[0.4]
    s = point_samples(f, lat)
    psi = _plane_wave_rows(lat, grid)
    y = np.linalg.lstsq(psi, s.values, rcond=math.sqrt(1e-12))[0]
    values = np.zeros((grid.n_lambda, grid.n_b), dtype=complex)
    values[grid.band_slice] = (y.reshape(grid.n_band, grid.n_b)
                               / np.sqrt(_weights(grid))[:, None])
    ref = BandlimitedFunction(SpectralCoeffs(grid, values))
    assert _rel_coeff_err(reconstruct(frames[0.4], s), ref, grid) <= 1e-6


def test_sample_frame_compatibility(f, grid, lattices, frames):
    m = laplacian_multiplier()
    frame_m = build_frame(lattices[0.2], m, grid=grid)
    with pytest.raises(ValueError, match="point samples"):
        reconstruct(frame_m, point_samples(f, lattices[0.2]))
    conv = convolution_samples(f, lattices[0.2], identity_multiplier())
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(frame_m, conv)
    with pytest.raises(ValueError, match="different lattices"):
        reconstruct(frames[0.4], point_samples(f, lattices[0.2]))


def test_stability_zero_noise(frame8, f, lattices):
    probe = stability_probe(frame8, point_samples(f, lattices[0.2]),
                            noise_level=0.0, seed=1)
    assert np.all(probe["errors"] == 0.0)
    assert np.all(probe["ratios"] == 0.0)


def test_stability_linear_and_bounded(frame8, f, lattices):
    probe = stability_probe(frame8, point_samples(f, lattices[0.2]),
                            noise_level=1e-4, seed=5)
    ratios = probe["ratios"]
    assert ratios.max() / ratios.min() <= 1.05
    assert ratios.max() <= probe["c_stab"] * (1 + 1e-9)


def test_adversarial_noise_realizes_stability_constant(frame8, f, lattices):
    # noise along the weakest retained left singular vector must amplify
    # by 1/sqrt(A)
    lat = lattices[0.2]
    s = point_samples(f, lat)
    worst = frame8.left[:, -1]
    eps = 1e-6
    noisy = SampleSet(lat, s.values + eps * worst)
    diff = SpectralCoeffs(frame8.grid,
                          reconstruct(frame8, noisy).coeffs.values
                          - reconstruct(frame8, s).coeffs.values)
    amp = diff.norm() / eps
    c_stab = stability_probe(frame8, s, 1e-6, seed=0)["c_stab"]
    assert c_stab / 2 <= amp <= 2 * c_stab
