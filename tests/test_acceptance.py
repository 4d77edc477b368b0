"""End-to-end acceptance gate: ten closed-loop criteria, one test each.

Each test asserts its criterion at the contractual tolerance and prints a
single "criterion NN ... PASS" line with the measured numbers; with
pytest -v the test names double as the pass/fail table.  Desk scale
throughout: band limits <= 4, lattices <= 2000 points.
"""

import math
from pathlib import Path

import pytest

from hypersample.bandlimited import synthesize
from hypersample.cli import _scenario_baseline1d, _scenario_bernstein, \
    _scenario_frame, _scenario_lattice, _scenario_plancherel, \
    _scenario_sphavg, _scenario_spline, _scenario_theorem73, load_config, \
    run, verify_all
from hypersample.geometry import ball_volume
from hypersample.lattice import build_lattice
from hypersample.sampling import convolution_samples, reconstruct
from hypersample.spectral import build_grid
from hypersample.sphavg import AverageSpec, average_multiplier, \
    near_identity_check
from hypersample.transforms import build_polar_grid, calibrate_plancherel

from helpers import laplacian_multiplier, stability_probe

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:02d} [{name}] PASS: {detail}")


@pytest.fixture(scope="module")
def grid2():
    return build_grid(2.0, 48, 64)


@pytest.fixture(scope="module")
def pg14():
    return build_polar_grid(1.4, 160, 96)


@pytest.fixture(scope="module")
def f2(grid2):
    return synthesize(grid2, seed=0)


def _rel(pgrid, got, want):
    return pgrid.norm(got - want) / pgrid.norm(want)


def test_criterion_01_plancherel_consistency():
    cfg = load_config(CONFIGS / "plancherel.ini")
    assert cfg.seeds == (0, 1, 2, 3, 4)
    rep = _scenario_plancherel(cfg)
    assert [row[0] for row in rep.rows] == list(cfg.seeds)
    for seed, spatial, spectral, rel, passed in rep.rows:
        assert rel == abs(spatial - spectral) / spatial
        assert rel < 1e-4
        assert passed
    assert rep.failures == []
    # the scenario checks the constant against its measurement
    scale = rep.info["calibration_scale"]
    assert scale == calibrate_plancherel().scale
    worst = max(row[3] for row in rep.rows)
    _report(1, "plancherel", f"worst relative error {worst:.3e} "
                             f"across 5 seeds (tolerance 1e-4); measured "
                             f"constant 2 pi x {2 * math.pi * scale!r}")


def test_criterion_02_bernstein():
    cfg = load_config(CONFIGS / "bernstein.ini")
    assert (cfg.omega, cfg.seeds) == (2.0, tuple(range(10)))
    rep = _scenario_bernstein(cfg)
    assert [row[:2] for row in rep.rows] == \
        [(seed, sigma) for seed in range(10) for sigma in (0.5, 1.0, 2.0, 4.0)]
    for seed, sigma, lhs, rhs, ratio, passed in rep.rows:
        assert ratio <= 1.0 + 1e-10
        assert passed
    assert rep.failures == []
    worst = max(row[4] for row in rep.rows)
    _report(2, "bernstein", f"largest lhs/rhs ratio {worst:.6f} over "
                            f"10 seeds x 4 orders (bound 1 + 1e-10)")


def test_criterion_03_lattice_certification():
    cfg = load_config(CONFIGS / "lattice.ini")
    assert (cfg.r_values, cfg.domain_radius, cfg.seeds) == \
        ((0.1, 0.2, 0.4), 1.5, (0,))
    rep = _scenario_lattice(cfg)
    assert [row[0] for row in rep.rows] == [0.1, 0.2, 0.4]
    details = []
    for r, n, sep, cover, fresh, mult, bound, passed in rep.rows:
        assert sep >= r / 2.0 - 1e-12
        assert cover <= r / 2.0
        assert fresh <= r / 2.0 + r / 8.0
        assert bound == math.ceil(ball_volume(3.0 * r) / ball_volume(r / 4.0))
        assert mult <= bound
        assert passed
        details.append(f"r={r}: N={n} mult {mult}<={bound}")
    assert rep.failures == []
    _report(3, "lattice", "; ".join(details))


def test_criterion_04_frame_reconstruction():
    cfg = load_config(CONFIGS / "frame_reconstruct.ini")
    assert (cfg.omega, cfg.r_values, cfg.domain_radius, cfg.seeds) == \
        (2.0, (0.4, 0.2, 0.1), 1.4, (0,))
    rep = _scenario_frame(cfg)
    assert [row[0] for row in rep.rows] == [0.4, 0.2, 0.1]
    errors = rep.info["errors_by_r"]
    assert [row[5] for row in rep.rows] == list(errors)
    assert errors[2] < 1e-6
    assert errors[0] > errors[1] > errors[2]
    assert all(row[3] > 0 for row in rep.rows)
    assert rep.failures == []
    _report(4, "frame reconstruction",
            "errors " + " > ".join(f"{e:.3e}" for e in errors)
            + " over r in (0.4, 0.2, 0.1); finest < 1e-6")


def test_criterion_05_deconvolution_stability(grid2, pg14, f2):
    lat = build_lattice(0.1, 1.4, seed=0)

    # Laplacian samples: strong reweighting rotates the retained span, so
    # exactness of the deconvolving solve is certified on the span itself:
    # project once, then demand the pipeline reproduce its own projection.
    m_lap = laplacian_multiplier()
    f0 = reconstruct(convolution_samples(f2, lat, m_lap), grid=grid2)
    rec_lap = reconstruct(convolution_samples(f0, lat, m_lap), grid=grid2)
    err_lap = _rel(pg14, rec_lap.on_grid(pg14), f0.on_grid(pg14))
    assert err_lap < 1e-4

    # spherical averages at tau = 0.2 reweight gently; the loop closes
    # against the true function
    m_avg = average_multiplier(AverageSpec(tau=0.2))
    s_avg = convolution_samples(f2, lat, m_avg)
    rec_avg = reconstruct(s_avg, grid=grid2)
    err_avg = _rel(pg14, rec_avg.on_grid(pg14), f2.on_grid(pg14))
    assert err_avg < 1e-4

    # sample noise propagates linearly (the solve is linear); the ratio of
    # output to input perturbation must be flat across levels within 5%
    probe = stability_probe(s_avg, 1e-3, seed=1, grid=grid2, cut=1e-12)
    ratios = probe["ratios"]
    spread = float(ratios.max() / ratios.min() - 1.0)
    assert spread <= 0.05
    _report(5, "deconvolution stability",
            f"laplacian-span error {err_lap:.3e}, averages error "
            f"{err_avg:.3e} (tolerance 1e-4), noise-linearity spread "
            f"{spread:.2e} (tolerance 5e-2), c_stab {probe['c_stab']:.3e}")


def test_criterion_06_two_path_spherical_average(grid2):
    cfg = load_config(CONFIGS / "spherical_avg.ini")
    assert (cfg.omega, cfg.tau, cfg.seeds) == (2.0, 0.2, (0,))
    rep = _scenario_sphavg(cfg)
    assert [row[0] for row in rep.rows] == list(range(10))
    for case, y_re, y_im, tau, n, d_re, d_im, s_re, s_im, diff, passed \
            in rep.rows:
        assert diff == abs(complex(d_re, d_im) - complex(s_re, s_im))
        assert diff <= 1e-6 * max(abs(complex(s_re, s_im)), 1e-3)
        assert passed
        # the multiplier sits within the stated distance of the plain
        # n-th power at every spectral node
        assert near_identity_check(grid2, AverageSpec(tau=tau, n=n))["passed"]
    assert {row[4] for row in rep.rows} == {0, 1}
    assert rep.failures == []
    worst = max(row[9] for row in rep.rows)
    _report(6, "two-path averages",
            f"worst |direct - symbol| {worst:.3e} over 10 cases "
            f"(tolerance 1e-6); node bound held in every case")


def test_criterion_07_overlapping_spheres():
    # the frame route alone: an empty spline schedule
    cfg = load_config(CONFIGS / "theorem73.ini", {"k_schedule": ""})
    assert (cfg.omega, cfg.r, cfg.tau_values, cfg.domain_radius) == \
        (2.0, 0.1, (0.0, 0.1, 0.3), 1.4)
    rep = _scenario_theorem73(cfg)
    errors = {}
    for row in rep.rows:
        tau, admissible, frame_error = row[2], row[5], row[6]
        assert admissible
        errors[tau] = frame_error
    assert list(errors) == [0.0, 0.1, 0.3]
    assert errors[0.3] < 1e-4
    flat = max(errors.values()) / min(errors.values())
    assert flat < 10.0
    assert rep.failures == []
    _report(7, "overlapping spheres",
            "errors " + ", ".join(f"tau={t:g}: {e:.3e}"
                                  for t, e in errors.items())
            + f"; spread {flat:.1f}x < 10x at fixed r = 0.1 < tau")


def test_criterion_08_spline_interpolation():
    # the variational characterization (orthogonality, minimal seminorm,
    # energy identity) is tested in test_splines.py on the same system
    cfg = load_config(CONFIGS / "spline_reconstruct.ini")
    assert (cfg.omega, cfg.r, cfg.domain_radius, cfg.k_schedule,
            cfg.seeds) == (1.0, 0.8, 2.0, (2, 4, 8), (0,))
    rep = _scenario_spline(cfg)
    rows = {row[0]: row for row in rep.rows}
    assert list(rows) == [2, 4, 8]
    _, status, n, condition, defect, err, passed = rows[2]
    assert status == "ok"
    assert defect <= 1e-8
    assert err < 1e-3
    assert passed
    # at this scale k = 4 already fails Cholesky: the conditioning wall
    # is reported, not hidden, and those rows do not claim to have passed
    assert rows[4][1] == "singular" and rows[4][-1] is False
    assert rows[8][1] == "singular" and rows[8][-1] is False
    assert rep.failures == []
    _report(8, "spline interpolation",
            f"N={n}, k=2 defect {defect:.3e} (tolerance 1e-8), condition "
            f"{condition:.3e}, interpolant error {err:.3e} (tolerance "
            f"1e-3); k=4 and k=8 singular in double precision")


def test_criterion_09_baseline_1d():
    cfg = load_config(CONFIGS / "baseline1d.ini")
    assert (cfg.omega, cfg.gamma, cfg.seeds) == (2.0, 0.8, (0,))
    rep = _scenario_baseline1d(cfg)
    [(gamma, n, lower, upper, rel, gram_rel, route_diff, passed)] = rep.rows
    assert (gamma, n) == (0.8, 64)
    assert rel < 1e-6
    assert route_diff < 1e-5
    assert passed
    assert rep.failures == []
    _report(9, "1-D baseline",
            f"sinc error {rel:.3e} at gamma 0.8 (tolerance 1e-6); "
            f"Gram-vs-sinc difference {route_diff:.3e} (tolerance 1e-5)")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(CONFIGS / "baseline1d.ini")
    assert run(cfg) == 0
    outdir = tmp_path / "baseline1d"
    first = {name: (outdir / name).read_bytes()
             for name in ("results.csv", "manifest.txt", "config.ini")}
    assert run(cfg) == 0
    for name, blob in first.items():
        assert (outdir / name).read_bytes() == blob
    # mutation hook: a perturbed density constant must fail verification
    assert verify_all(perturb_scale=0.01, only=["plancherel"]) == 1
    _report(10, "CLI determinism",
            "rerun byte-identical over results.csv, manifest.txt, "
            "config.ini; 1% density mutation fails the Parseval check")
