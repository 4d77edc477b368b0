"""Sample operators, factored frames, reconstruction, and stability probes."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersample import sampling
from hypersample.bandlimited import BandlimitedFunction, synthesize
from hypersample.errors import MultiplierVanishes, NumericalFailure
from hypersample.geometry import (RHO, busemann, distance, euclidean_radius,
                                  mobius_translate, random_ball_points)
from hypersample.lattice import Lattice, build_lattice
from hypersample.sampling import (SampleSet, _band_factor, build_frame,
                                  convolution_samples, point_samples,
                                  reconstruct)
from hypersample.spectral import (IDENTITY, SpectralCoeffs,
                                  _horocycle_planes, _plane_wave_basis,
                                  build_grid)
from hypersample.sphavg import AverageSpec, average_multiplier
from hypersample.splines import (SplineInterpolant, build_splines,
                                 spline_band_projection)
from hypersample.transforms import build_polar_grid

from helpers import laplacian_multiplier, stability_probe

OMEGA = 2.0
DOMAIN = 1.4


@pytest.fixture(scope="module")
def grid(space):
    return build_grid(space, OMEGA, 48, 64)


@pytest.fixture(scope="module")
def lattices():
    return {r: build_lattice(r, DOMAIN, seed=0) for r in (0.4, 0.2, 0.1)}


@pytest.fixture(scope="module")
def frames(lattices, grid, f):
    return {r: build_frame(point_samples(f, lattices[r]), grid=grid)
            for r in (0.4, 0.2, 0.1)}


@pytest.fixture(scope="module")
def frame8(lattices, grid, f):
    # raised cut: trades span for a projection that is stable to 1e-10
    return build_frame(point_samples(f, lattices[0.2]), grid=grid, cut=1e-8)


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
    assert s.multiplier is IDENTITY
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
    # convolution with the Dirac mass is point evaluation, bit for bit
    lat = lattices[0.2]
    conv = convolution_samples(f, lat, IDENTITY)
    assert conv.multiplier.label == "identity"
    assert np.array_equal(conv.values, f.evaluate(lat.points))


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


def _weights(grid, m=IDENTITY):
    # band quadrature weights measure |m|^2 / n_b of the frame operator
    mv = m.values_on(grid)
    return grid.lambda_measure / grid.n_b * np.abs(mv) ** 2


def _factor(lat, grid, m=IDENTITY):
    # the per-mode factor C that build_frame decomposes, less the samples
    # column it appends
    c, _ = _band_factor(lat, grid, np.sqrt(_weights(grid, m)),
                        np.zeros(len(lat)))
    return c[:, :-1]


def _factor_gram(lat, grid, m=IDENTITY):
    c = _factor(lat, grid, m)
    return c @ c.conj().T


def _gram_gap(lat, grid, m=IDENTITY):
    # max |C C^H - psi psi^H| relative to the upper frame bound B, the
    # largest eigenvalue of psi psi^H
    psi = _plane_wave_rows(lat, grid, m)
    ref = psi @ psi.conj().T
    return np.max(np.abs(_factor_gram(lat, grid, m) - ref)) \
        / np.linalg.eigvalsh(ref)[-1]


def _zeros(lat, m=IDENTITY):
    # samples that leave only the frame's spectrum to look at
    return SampleSet(lat, np.zeros(len(lat)), m)


def _kernel_rows(points, lam, angles):
    # frame vectors e_j(lam_i, b_l) = e^((i lam_i + rho) A(x_j, b_l)) at
    # [l, j, i], one complex exponential each: the oracle for the factor
    a = busemann(points[None, :], angles[:, None])
    return np.exp((1j * lam + RHO) * a[:, :, None])


def _plane_wave_rows(lat, grid, m=IDENTITY):
    # the weighted discrete plane-wave rows psi: F itself, never formed by
    # build_frame, whose Gram is psi psi^H
    rows = _kernel_rows(lat.points, grid.lambda_nodes, grid.boundary_angles)
    rows = rows.transpose(1, 2, 0).reshape(len(lat), -1)
    return rows * np.sqrt(np.repeat(_weights(grid, m), grid.n_b))


def _multiplier(name):
    if name == "laplacian":
        return laplacian_multiplier()
    if name == "average":
        return average_multiplier(AverageSpec(tau=0.2))
    return IDENTITY


@pytest.mark.parametrize("name", [None, "laplacian", "average"])
@pytest.mark.parametrize("r", [0.4, 0.2])
def test_mode_rows_match_plane_wave_dft(grid, lattices, r, name):
    # G_m S, with mode -m built as conj(G_m), is the unitary DFT over the
    # boundary angles of the weighted plane-wave rows
    lat = lattices[r]
    scale = np.sqrt(_weights(grid, _multiplier(name)))
    a_max, series = _plane_wave_basis(lat.points, grid.lambda_nodes, scale)
    half = np.empty((len(lat), len(series), grid.n_b // 2 + 1),
                    dtype=complex)
    for blk, k, plane in _horocycle_planes(lat.points, grid.boundary_angles,
                                           a_max, len(series)):
        half[blk, k] = np.fft.rfft(plane, axis=1, norm="ortho")
    ref = np.fft.fft(_kernel_rows(lat.points, grid.lambda_nodes,
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
    # the n_lambda columns of the plane-wave blocks it replaces
    scale = np.sqrt(_weights(grid, _multiplier(name)))
    for lat in lattices.values():
        _, series = _plane_wave_basis(lat.points, grid.lambda_nodes, scale)
        assert series.shape[0] < grid.n_lambda


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
    lam = grid.lambda_nodes
    rows = _kernel_rows(system.lattice.points, lam, grid.boundary_angles)
    want = np.einsum("j,lji->il", beta, rows.conj()) \
        * ((lam ** 2 + RHO ** 2) ** (-2 * system.k))[:, None]
    assert np.max(np.abs(got.coeffs.values - want)) \
        <= 1e-14 * np.max(np.abs(want))


def test_results_carry_their_grids_omega(space):
    # omega lives on the grid only: every band-limited result reads it there
    grid = build_grid(space, 1.5, 24, 32)
    lat = build_lattice(0.8, 1.0, seed=0)
    f = synthesize(grid, seed=0)
    rec = reconstruct(point_samples(f, lat), grid=grid)
    interp = SplineInterpolant(build_splines(lat, 2, space=space),
                               np.ones(len(lat)))
    proj = spline_band_projection(interp, grid)
    assert f.omega == rec.omega == proj.omega == grid.omega == 1.5


def test_single_point_frame(grid):
    lat = Lattice(np.array([0j]), 0.2, 1, 0.2, 0)
    frame = build_frame(SampleSet(lat, [1.0]), grid=grid)
    assert frame.spectrum.shape == (1,)
    assert frame.rank == 1
    a, b = frame.frame_bounds
    assert a == b > 0
    # phi_lam(0) = 1, so the one Gram entry is the band mass, the squared
    # norm of the one plane-wave row
    band_mass = grid.lambda_measure.sum()
    assert b == pytest.approx(band_mass, rel=1e-12)
    psi = _plane_wave_rows(lat, grid)
    assert b == pytest.approx(np.vdot(psi, psi).real, rel=1e-12)


def test_frame_of_roundoff_scale_lattice(grid):
    # two points 3e-16 apart: every Gram entry is the band mass, rank one
    lat = Lattice(np.array([0.1 + 0j, 0.1 + 3e-16]), 0.2, 1, 0.2, 0)
    frame = build_frame(_zeros(lat), grid=grid)
    band_mass = grid.lambda_measure.sum()
    assert np.allclose(_factor_gram(lat, grid), band_mass, rtol=1e-12,
                       atol=0.0)
    assert frame.rank == 1
    assert frame.frame_bounds[1] == pytest.approx(2 * band_mass, rel=1e-12)


def test_gram_hermitian_psd(frames, lattices, grid):
    # the Gram is psi psi^H: its eigenvalues are squared singular values, so
    # they are nonnegative, the spectrum holds the leading ones and the
    # retained span's bounds clear the cut
    for r, frame in frames.items():
        psi = _plane_wave_rows(lattices[r], grid)
        # psi psi^H and psi^H psi share their nonzero eigenvalues
        small = psi @ psi.conj().T if psi.shape[0] <= psi.shape[1] \
            else psi.conj().T @ psi
        ev = np.linalg.eigvalsh(small)[::-1]
        a, b = frame.frame_bounds
        assert ev[-1] >= -1e-12 * b
        assert np.max(np.abs(frame.spectrum - ev[:frame.spectrum.size])) \
            <= 1e-12 * b
        assert 1e-12 * b < a <= b


def test_gram_matches_zonal_kernel(lattices, grid):
    # the factor's Gram depends on d(x_j, x_k) only, through the Legendre
    # average sum_i w_i P_{-1/2 + i lam_i}(cosh d)
    lat = lattices[0.4]
    gram = _factor_gram(lat, grid)
    lam = grid.lambda_nodes
    w = grid.lambda_measure
    pts = lat.points[:6]
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
    m = IDENTITY if tau is None else average_multiplier(AverageSpec(tau=tau))
    frame = build_frame(_zeros(lat, m), grid=grid)
    psi = _plane_wave_rows(lat, grid, m)
    ref = psi @ psi.conj().T
    ev = np.linalg.eigvalsh(ref)
    b_top = ev[-1]
    assert np.max(np.abs(_factor_gram(lat, grid, m) - ref)) <= 1e-13 * b_top
    assert frame.rank == np.count_nonzero(ev > 1e-12 * frame.frame_bounds[1])
    assert frame.frame_bounds[1] == pytest.approx(b_top, rel=1e-13)


@pytest.mark.parametrize("r", [0.4, 0.2, 0.1])
def test_retained_vectors_match_dense_svd(frames, lattices, grid, f, r):
    # the QR of the factor with the samples appended and one truncated
    # solve on its triangle, against one dense SVD of the assembled factor:
    # N < K, N about 1.7 K and N >> K
    frame, lat = frames[r], lattices[r]
    u, sv, _ = np.linalg.svd(_factor(lat, grid), full_matrices=False)
    rank = frame.rank
    assert rank == np.count_nonzero(sv ** 2 > 1e-12 * frame.frame_bounds[1])
    sig = np.sqrt(frame.spectrum[:rank])
    assert np.max(np.abs(sig - sv[:rank])) <= 1e-12 * sv[0]
    # each SVD errs by eps sigma_max, so small sigma agree less closely
    assert np.max(np.abs(sig / sv[:rank] - 1.0)) <= 1e-10
    assert frame.frame_bounds == pytest.approx(
        (sv[rank - 1] ** 2, sv[0] ** 2), rel=1e-10)
    # the interpolant resampled on the plane-wave rows is the samples'
    # projection on the retained left singular vectors
    s = point_samples(f, lat).values
    y = frame.function.coeffs.values * np.sqrt(_weights(grid))[:, None]
    ref = u[:, :rank]
    proj = _plane_wave_rows(lat, grid) @ y.ravel()
    assert np.max(np.abs(proj - ref @ (ref.conj().T @ s))) \
        <= 1e-10 * np.max(np.abs(s))


def _moved_spectrum_gap(frame, lat, grid, moved_points):
    """Rank of the frame of lat with its points moved to moved_points, and
    the largest |difference| from frame's over the squared singular values
    above 1e-10 B, relative to the upper frame bound B."""
    moved = build_frame(_zeros(Lattice(moved_points, lat.r, lat.n_mult,
                                       lat.domain_radius, lat.seed)),
                        grid=grid)
    b_top = frame.frame_bounds[1]
    ev, ev_moved = frame.spectrum, moved.spectrum
    n_top = int(np.count_nonzero(ev > 1e-10 * b_top))
    return moved.rank, float(np.max(np.abs(ev_moved[:n_top] - ev[:n_top]))
                             / b_top)


@pytest.mark.parametrize("r", [0.4, 0.2])
@settings(max_examples=8, deadline=None)
@given(angle=st.floats(0.0, 2.0 * math.pi))
def test_frame_spectrum_is_rotation_invariant(frames, lattices, grid, r,
                                              angle):
    # a rotation is an isometry of the disk, so the rotated lattice has the
    # same frame spectrum; at radius 1.4 and omega = 2 the 64 boundary
    # angles resolve the boundary sum, and the spectra agree to roundoff
    # whether or not the rotation maps the angles onto each other
    frame, lat = frames[r], lattices[r]
    rank, gap = _moved_spectrum_gap(frame, lat, grid,
                                    lat.points * np.exp(1j * angle))
    assert rank == frame.rank
    assert gap <= 1e-12


@pytest.fixture(scope="module")
def frame256(space, lattices):
    grid256 = build_grid(space, OMEGA, 48, 256)
    return build_frame(_zeros(lattices[0.4]), grid=grid256), grid256


@settings(max_examples=8, deadline=None)
@given(shift=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_frame_spectrum_is_mobius_invariant(frame256, lattices, shift,
                                            angle):
    # a Mobius translation is an isometry of the disk, so the moved lattice
    # has the same frame spectrum; the farthest point moves out to radius
    # 2.4, where 256 boundary angles still resolve the boundary sum
    frame, grid256 = frame256
    lat = lattices[0.4]
    a = math.tanh(shift / 2.0) * cmath.exp(1j * angle)
    rank, gap = _moved_spectrum_gap(frame, lat, grid256,
                                    mobius_translate(a, lat.points))
    assert rank == frame.rank
    assert gap <= 1e-12


def test_mobius_moved_spectrum_drifts_at_64_angles(frames, lattices, grid):
    # the frame's 64 boundary angles under-resolve the boundary sum once a
    # lattice point moves out to radius 2: the spectra drift apart by about
    # 1e-9 B.  A boundary quadrature whose angle count follows the domain
    # radius and band edge (ROADMAP open item 1) brings this under 1e-12 B
    lat = lattices[0.4]
    _, gap = _moved_spectrum_gap(frames[0.4], lat, grid,
                                 mobius_translate(math.tanh(0.3), lat.points))
    assert gap > 1e-12


def test_build_frame_memory(grid, lattices, f):
    # no transient follows N beyond the factor with the samples appended
    # (N x (K + 1), 7.7 MiB at r = 0.1): the mode rows and the factor's QR
    # go one block at a time, and the directions come from 64 ball points,
    # so no stack of per-lattice triangles exists (11.0 MiB measured).  The
    # frame holds no array that grows with N: the interpolant's
    # coefficients and the min(N, K) eigenvalues
    s = point_samples(f, lattices[0.1])
    tracemalloc.start()
    try:
        frame = build_frame(s, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = frame.spectrum.nbytes + frame.function.coeffs.values.nbytes
    assert peak <= 12 * 2 ** 20
    assert held <= 2 ** 19


def _ball_point_set(kind, seed, shift, angle, lattice):
    # a point set in B(o, DOMAIN), or the r = 0.4 lattice moved past it
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return random_ball_points(DOMAIN, 200, rng)
    if kind == "ring":
        return euclidean_radius(1.39) * np.exp(
            1j * (angle + 2.0 * np.pi * np.arange(150) / 150))
    if kind == "cluster":
        return mobius_translate(random_ball_points(DOMAIN - 0.01, 1, rng)[0],
                                random_ball_points(1e-2, 40, rng))
    if kind == "single":
        return random_ball_points(DOMAIN, 1, rng)
    return mobius_translate(math.tanh(shift / 2.0) * cmath.exp(1j * angle),
                            lattice.points)


@pytest.mark.parametrize("tau", [None, 0.1])
@pytest.mark.parametrize("kind",
                         ["uniform", "ring", "cluster", "single", "mobius"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_ball_directions_serve_any_point_set(grid, lattices, kind, tau, seed,
                                             shift, angle):
    # the directions come from the ball, not the points: whatever the
    # points in it, spread, on its rim, clustered, alone or moved past it,
    # the factor's Gram is the plane-wave Gram
    m = IDENTITY if tau is None else average_multiplier(AverageSpec(tau=tau))
    points = _ball_point_set(kind, seed, shift, angle, lattices[0.4])
    assert _gram_gap(Lattice(points, 0.4, 1, DOMAIN, 0), grid, m) <= 1e-13


def test_directions_belong_to_the_ball(grid, lattices):
    # two point sets of one size on one ball share every direction
    rng = np.random.default_rng(4)
    scale = np.sqrt(_weights(grid))
    n = len(lattices[0.4])
    dirs = [_band_factor(Lattice(p, 0.4, 1, DOMAIN, 0), grid, scale,
                         np.zeros(n))[1]
            for p in (lattices[0.4].points, random_ball_points(DOMAIN, n, rng))]
    assert len(dirs[0]) == grid.n_b
    assert all(np.array_equal(a, b) for a, b in zip(*dirs))


def test_ball_reaches_points_past_the_domain(grid):
    # the ball grows to the farthest point: here d(o, x) = 0.65 on a
    # lattice of domain radius 0.5
    lat = Lattice(np.array([0.3 + 0.1j]), 0.2, 1, 0.5, 0)
    assert distance(0j, lat.points[0]) > lat.domain_radius
    assert _gram_gap(lat, grid) <= 1e-13


def test_frame_builds_each_mode_row_once(grid, lattices, monkeypatch):
    # the lattice's mode rows are built once per frame, beside the ball's;
    # one batch of n_b / 2 + 1 SVDs chooses the directions
    lat = lattices[0.2]
    seen, batches = [], []
    mode_rows, svd = sampling._mode_rows, np.linalg.svd

    def counted_rows(points, *args):
        seen.append(points)
        return mode_rows(points, *args)

    def counted_svd(a, *args, **kwargs):
        batches.append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(sampling, "_mode_rows", counted_rows)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    build_frame(_zeros(lat), grid=grid)
    seen = np.concatenate(seen)
    on_lattice = np.isin(seen, lat.points)
    assert np.array_equal(np.sort_complex(seen[on_lattice]),
                          np.sort_complex(lat.points))
    assert np.count_nonzero(~on_lattice) \
        == sampling._BALL_RADII * sampling._BALL_OFFSETS
    assert batches == [(grid.n_b // 2 + 1,)]


def _retained_left(psi, rank):
    # the leading rank left singular vectors of the plane-wave rows
    return np.linalg.svd(psi, full_matrices=False)[0][:, :rank]


def test_frame_inequality_on_retained_span(frame8, lattices, grid):
    # A |beta|^2 <= |psi^H beta|^2 <= B |beta|^2 on the retained left
    # singular vectors, measured on the plane-wave rows themselves
    rng = np.random.default_rng(2)
    lat = lattices[0.2]
    n = len(lat)
    psi = _plane_wave_rows(lat, grid)
    basis = _retained_left(psi, frame8.rank)
    beta = basis @ (basis.conj().T @ (rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n)))
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


def test_build_frame_input_validation(grid):
    with pytest.raises(ValueError, match="empty"):
        build_frame(_zeros(Lattice(np.array([], dtype=complex), 0.2, 1, 1.0,
                                   0)), grid=grid)


def test_solve_rank_must_match_the_cut(grid, lattices, monkeypatch):
    # the solve's count of sigma > sqrt(cut) sigma_max and the spectrum's
    # count of sigma^2 > cut B must agree, or the rank reported is not the
    # rank the interpolant was solved at
    lstsq = np.linalg.lstsq

    def one_short(a, b, rcond):
        x, residuals, rank, sv = lstsq(a, b, rcond=rcond)
        return x, residuals, rank - 1, sv

    monkeypatch.setattr(np.linalg, "lstsq", one_short)
    with pytest.raises(NumericalFailure, match="kept"):
        build_frame(_zeros(lattices[0.4]), grid=grid)


def test_vanishing_multiplier_rejected(grid, lattices):
    from hypersample.spectral import Multiplier
    dead = Multiplier(fn=lambda lam: np.where(lam < 1.0, 0.0, 1.0),
                      label="gate")
    with pytest.raises(MultiplierVanishes):
        build_frame(_zeros(lattices[0.4], dead), grid=grid)


def test_reconstruct_zero_samples(grid, lattices):
    rec = reconstruct(_zeros(lattices[0.2]), grid=grid)
    assert rec.coeffs.norm() == 0.0


def test_closed_loop_point_reconstruction(frames, f, pgrid):
    rec = frames[0.2].function
    fv = f.evaluate(pgrid.points)
    err = pgrid.norm(rec.evaluate(pgrid.points) - fv) / pgrid.norm(fv)
    assert err < 5e-6


def test_reconstruction_error_decreases_with_r(frames, f, pgrid):
    fv = f.evaluate(pgrid.points)
    den = pgrid.norm(fv)
    errs = []
    for r in (0.4, 0.2, 0.1):
        rec = frames[r].function
        errs.append(pgrid.norm(rec.evaluate(pgrid.points) - fv) / den)
    assert errs[0] > errs[1] > errs[2]


def test_deconvolution_equals_point_route_for_identity(f, grid, lattices):
    lat = lattices[0.2]
    rec_pt = reconstruct(point_samples(f, lat), grid=grid)
    rec_id = reconstruct(SampleSet(lat, f.evaluate(lat.points)), grid=grid)
    assert np.array_equal(rec_id.coeffs.values, rec_pt.coeffs.values)


def test_reconstruction_is_a_projection(frame8, f, lattices):
    # idempotence needs the raised cut; at 1e-12 the re-solve amplifies
    # quadrature rounding in the resampled values to the 1e-7 scale
    f0 = frame8.function
    f1 = build_frame(point_samples(f0, lattices[0.2]), grid=f0.grid,
                     cut=1e-8).function
    assert _rel_coeff_err(f1, f0, f0.grid) <= 1e-10


def test_deconvolution_closed_loop(f, grid, lattices):
    # the pipeline is exact on its reconstructible class; reaching the
    # synthesized f itself is limited by the reweighted retained span
    lat = lattices[0.2]
    m = laplacian_multiplier()
    f0 = reconstruct(convolution_samples(f, lat, m), grid=grid)
    f1 = reconstruct(convolution_samples(f0, lat, m), grid=grid)
    assert _rel_coeff_err(f1, f0, grid) < 1e-5


def _dense_lstsq(s, grid, m=IDENTITY):
    # the minimal-norm solution of psi y = samples with singular values cut
    # at sqrt(cut) of the largest, taken to band coefficients by
    # conj(m) / sqrt(weights), the weights carrying |m|^2
    psi = _plane_wave_rows(s.lattice, grid, m)
    y = np.linalg.lstsq(psi, s.values, rcond=math.sqrt(1e-12))[0]
    to_coeffs = np.conj(m.values_on(grid)) / np.sqrt(_weights(grid, m))
    values = y.reshape(grid.n_lambda, grid.n_b) * to_coeffs[:, None]
    return BandlimitedFunction(SpectralCoeffs(grid, values))


@pytest.mark.parametrize("shape", ["n_below_k", "n_above_k", "one_point"])
def test_reconstruct_matches_dense_lstsq(f, grid, lattices, shape):
    # the QR of [C | s] leaves R trapezoidal (N < K), square over a tall Q
    # (N > K) or a single row (N = 1)
    lat = {"n_below_k": lattices[0.4], "n_above_k": lattices[0.1],
           "one_point": Lattice(np.array([0.3 + 0.1j]), 0.2, 1, 0.5, 0)}[shape]
    n, k = len(lat), _factor(lat, grid).shape[1]
    assert {"n_below_k": 1 < n < k, "n_above_k": n > k,
            "one_point": n == 1}[shape]
    s = point_samples(f, lat)
    assert _rel_coeff_err(reconstruct(s, grid=grid), _dense_lstsq(s, grid),
                          grid) <= 1e-6


def test_convolution_samples_filter_their_frame(f, grid, lattices):
    # the samples' multiplier weights the frame: the Laplacian's |m|^2
    # reshapes the spectrum, and its sign comes back in the coefficients
    lat = lattices[0.4]
    m = laplacian_multiplier()
    s = convolution_samples(f, lat, m)
    frame = build_frame(s, grid=grid)
    psi = _plane_wave_rows(lat, grid, m)
    sv = np.linalg.svd(psi, compute_uv=False)
    assert np.max(np.abs(frame.spectrum - sv ** 2)) \
        <= 1e-12 * frame.frame_bounds[1]
    assert _rel_coeff_err(frame.function, _dense_lstsq(s, grid, m),
                          grid) <= 1e-6


def test_stability_zero_noise(grid, f, lattices):
    probe = stability_probe(point_samples(f, lattices[0.2]), noise_level=0.0,
                            seed=1, grid=grid, cut=1e-8)
    assert np.all(probe["errors"] == 0.0)
    assert np.all(probe["ratios"] == 0.0)


def test_stability_linear_and_bounded(grid, f, lattices):
    probe = stability_probe(point_samples(f, lattices[0.2]),
                            noise_level=1e-4, seed=5, grid=grid, cut=1e-8)
    ratios = probe["ratios"]
    assert ratios.max() / ratios.min() <= 1.05
    assert ratios.max() <= probe["c_stab"] * (1 + 1e-9)


def test_adversarial_noise_realizes_stability_constant(frame8, f, grid,
                                                       lattices):
    # noise along the weakest retained left singular vector of the
    # plane-wave rows must amplify by 1/sqrt(A)
    lat = lattices[0.2]
    s = point_samples(f, lat)
    worst = _retained_left(_plane_wave_rows(lat, grid), frame8.rank)[:, -1]
    eps = 1e-6
    noisy = SampleSet(lat, s.values + eps * worst)
    rec = build_frame(noisy, grid=grid, cut=1e-8).function
    diff = SpectralCoeffs(grid, rec.coeffs.values
                          - frame8.function.coeffs.values)
    amp = diff.norm() / eps
    c_stab = 1.0 / math.sqrt(frame8.frame_bounds[0])
    assert c_stab / 2 <= amp <= 2 * c_stab
