"""Tests for the experiment runner: configs, artifacts, determinism."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersample import cli, spectral
from hypersample.cli import (
    SCENARIOS,
    ExperimentConfig,
    _scenario_lattice,
    _spectral_grid,
    _scenario_theorem73,
    config_to_ini,
    load_config,
    main,
    run,
    verify_all,
)
from hypersample.errors import ConfigError, ProblemTooLarge
from hypersample.geometry import distance
from hypersample.lattice import Lattice

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def outroot(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(root))
    return root


def _write(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="ascii")
    return path


def test_config_roundtrips_bit_exactly(tmp_path):
    cfg = ExperimentConfig(scenario="frame_reconstruct", omega=2.0,
                           r_values=(0.4, 0.2, 0.1), seeds=(3,),
                           cut=1e-12, output="demo")
    path = _write(tmp_path, config_to_ini(cfg))
    assert load_config(path) == cfg


_positive = st.floats(1e-6, 1e6)


@st.composite
def _configs(draw):
    scenario = draw(st.sampled_from(list(SCENARIOS)))
    listed = SCENARIOS[scenario].listed
    omega = draw(_positive)
    counts = st.integers(4, 4096)
    # both angle counts resolve the synthesized modes |m| <= 3
    evens = st.integers(4, 2048).map(lambda k: 2 * k)
    return ExperimentConfig(
        scenario=scenario,
        omega=omega,
        r=draw(_positive),
        r_values=tuple(draw(st.lists(
            _positive, max_size=4, unique=True,
            min_size=int(listed == "r_values")))),
        tau=draw(st.floats(0.0, 1e6)),
        tau_values=tuple(draw(st.lists(
            st.floats(0.0, 1e6), max_size=4, unique=True,
            min_size=int(listed == "tau_values")))),
        n=draw(st.integers(0, 8)),
        k_schedule=tuple(draw(st.lists(
            st.integers(1, 16), max_size=4, unique=True,
            min_size=int(listed == "k_schedule")))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=1,
                                  max_size=4))),
        gamma=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        domain_radius=draw(_positive),
        # no scenario reads lam_max, so any finite value loads
        lam_max=draw(st.floats(-1e7, 1e7)),
        n_lambda=draw(counts),
        n_b=draw(evens),
        n_r=draw(counts),
        n_theta=draw(evens),
        cut=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        output=draw(st.text("abcxyz019_-", max_size=12)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
def test_config_ini_round_trip_property(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "exp.ini"
    path.write_text(config_to_ini(cfg), encoding="ascii")
    assert load_config(path) == cfg


@settings(max_examples=40, deadline=None)
@given(cfg=_configs(), data=st.data())
def test_repeated_list_value_exits_two(tmp_path_factory, cfg, data):
    # each scenario runs once per listed value, so a repeat would redo the
    # same work and write the same row twice
    field = data.draw(st.sampled_from(["r_values", "tau_values",
                                       "k_schedule"]))
    values = getattr(cfg, field) or {"r_values": (cfg.r,),
                                     "tau_values": (cfg.tau,),
                                     "k_schedule": (2,)}[field]
    repeated = list(values)
    repeated.insert(data.draw(st.integers(0, len(values))),
                    data.draw(st.sampled_from(values)))
    tmp = tmp_path_factory.mktemp("cfg")
    path = tmp / "exp.ini"
    path.write_text(config_to_ini(cfg), encoding="ascii")
    override = f"{field}={', '.join(repr(v) for v in repeated)}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(tmp / "runs"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", str(path), "--override", override]) == 2
    assert err.getvalue().startswith(f"config error: {field} repeats a value")
    assert "Traceback" not in err.getvalue()
    assert not (tmp / "runs").exists()


def test_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "[experiment]\nscenario = lattice\nwat = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[experiment]\nscenario = flat\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path,
                           "[experiment]\nscenario = lattice\nomega = x\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path,
                           "[experiment]\nscenario = lattice\nomega = -1\n"))


def test_config_requires_file_and_section(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[other]\nscenario = lattice\n"))


def test_overrides_win_over_file(tmp_path):
    path = _write(tmp_path, "[experiment]\nscenario = baseline1d\n"
                            "gamma = 0.8\n")
    cfg = load_config(path, {"gamma": "0.9", "seeds": "7"})
    assert cfg.gamma == 0.9
    assert cfg.seeds == (7,)


def test_scenario_defaults_are_applied(tmp_path):
    cfg = load_config(_write(tmp_path, "[experiment]\nscenario = theorem73\n"))
    assert cfg.tau_values == (0.0, 0.1, 0.3)
    assert cfg.r == 0.1
    # file values still win over the scenario layer
    cfg = load_config(_write(tmp_path, "[experiment]\nscenario = theorem73\n"
                                       "r = 0.3\n"))
    assert cfg.r == 0.3


def test_baseline_run_writes_artifacts_and_is_deterministic(tmp_path, outroot):
    path = _write(tmp_path, "[experiment]\nscenario = baseline1d\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 0
    outdir = outroot / "baseline1d"
    results = (outdir / "results.csv").read_bytes()
    manifest = (outdir / "manifest.txt").read_bytes()
    assert (outdir / "plot_results.py").exists()
    assert (outdir / "timings.txt").exists()

    text = manifest.decode("ascii")
    assert "plancherel_scale = " in text
    assert "tolerance.reconstruction_rel" in text
    assert "config.gamma = 0.8" in text

    # the echoed config reloads to the identical object
    assert load_config(outdir / "config.ini").scenario == "baseline1d"

    assert main(["run", str(path)]) == 0
    assert (outdir / "results.csv").read_bytes() == results
    assert (outdir / "manifest.txt").read_bytes() == manifest


def test_failing_invariant_exits_one(tmp_path, outroot, capsys):
    # a lattice this coarse cannot reach the finest-radius tolerance; the
    # run must fail and say which invariant broke
    path = _write(tmp_path, "[experiment]\nscenario = frame_reconstruct\n"
                            "seeds = 0\nr_values = 0.8\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "frame.error_at_finest" in err


def test_frame_rows_report_their_own_pass_fail(tmp_path, outroot):
    # the finest row misses the error tolerance, the coarser one need not
    path = _write(tmp_path, "[experiment]\nscenario = frame_reconstruct\n"
                            "seeds = 0\nr_values = 0.8, 0.6\n")
    assert main(["run", str(path)]) == 1
    outdir = outroot / "frame_reconstruct"
    lines = (outdir / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    tol = float(next(
        line.split(" = ")[1] for line in
        (outdir / "manifest.txt").read_text().splitlines()
        if line.startswith("tolerance.frame_rel_error_at_finest")))
    assert len(rows) == 2
    for i, row in enumerate(rows):
        ok = float(row["frame_lower"]) > 0 and (
            i < len(rows) - 1 or float(row["rel_error"]) < tol)
        assert row["passed"] == ("true" if ok else "false")
    assert rows[-1]["passed"] == "false"


def test_numerical_failure_exits_one_with_message(tmp_path, outroot, capsys,
                                                  monkeypatch):
    # a series degree cap too low for any point evaluation to converge
    monkeypatch.setattr(spectral, "_SERIES_MAX_DEG", 8)
    path = _write(tmp_path, "[experiment]\nscenario = spherical_avg\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NumericalFailure: plane-wave series")
    assert "Traceback" not in err


def test_lattice_scenario_runs(tmp_path, outroot):
    path = _write(tmp_path, "[experiment]\nscenario = lattice\n"
                            "r_values = 0.4\ndomain_radius = 1.2\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 0
    rows = (outroot / "lattice" / "results.csv").read_text().splitlines()
    assert rows[0].startswith("r,n_points,min_separation")
    assert len(rows) == 2 and rows[1].endswith("true")


def test_lattice_too_fine_for_memory_exits_one_at_once(outroot, capsys):
    # r = 1e-300 asks for a candidate net of about 1e602 points; its size
    # is known in closed form, before anything is allocated
    t0 = time.perf_counter()
    assert main(["run", str(ROOT / "configs" / "lattice.ini"),
                 "--override", "r_values=1e-300"]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("ProblemTooLarge: ")
    assert "Traceback" not in err
    assert not (outroot / "lattice" / "results.csv").exists()


@pytest.mark.parametrize("config, override, code", [
    ("lattice", "r_values=1e-300", 1),    # ProblemTooLarge
    ("plancherel", "lam_max=12", 2),      # a field plancherel does not use
])
def test_failed_run_leaves_no_earlier_results(outroot, config, override,
                                              code):
    # a good run, a stray file beside its results, then a run into the
    # same directory that raises: nothing may read as the second run's
    path = str(ROOT / "configs" / f"{config}.ini")
    assert main(["run", path]) == 0
    outdir = outroot / config
    assert (outdir / "results.csv").exists()
    (outdir / "stale.txt").write_text("from before")
    # a finished run replaces the whole directory
    assert main(["run", path]) == 0
    assert not (outdir / "stale.txt").exists()
    assert main(["run", path, "--override", override]) == code
    assert list(outroot.iterdir()) == []


@pytest.mark.parametrize("output", ["/abs", "..", "a/../..", "."])
def test_output_outside_the_root_is_a_config_error(output):
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="lattice", r_values=(0.4,), output=output)


@pytest.mark.parametrize("r", ["200", "1500"])
def test_lattice_far_coarser_than_the_domain_is_one_point(outroot, r):
    # at r >= R the lattice is {o}; past r = 1420, sinh(r / 2) overflows a
    # float, so the neighbour cells stop at the disk's diameter
    assert main(["run", str(ROOT / "configs" / "lattice.ini"),
                 "--override", f"r_values={r}"]) == 0
    lines = (outroot / "lattice" / "results.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert (row["n_points"], row["passed"]) == ("1", "true")


@pytest.mark.parametrize("config", ["theorem73", "spline_reconstruct"])
def test_spline_kernel_too_large_exits_one_before_the_lattice(outroot,
                                                              capsys, config):
    # at r = 0.01 any lattice on the theorem73 domain has at least 5.9e4
    # points, a kernel matrix of at least 28 GB; the 186,311-point lattice
    # took 25 s to build before the kernel failed.  Now refused at once
    t0 = time.perf_counter()
    assert main(["run", str(ROOT / "configs" / f"{config}.ini"),
                 "--override", "r=0.01"]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("ProblemTooLarge: ")
    assert "spline kernel matrix" in err and "Traceback" not in err
    assert not (outroot / config / "results.csv").exists()


def test_spline_scenario_fails_when_no_order_solves(outroot, capsys):
    # both orders end singular on the shipped lattice: the rows say so,
    # and with no order left the run fails
    assert main(["run", str(ROOT / "configs" / "spline_reconstruct.ini"),
                 "--override", "k_schedule=4,8"]) == 1
    assert capsys.readouterr().err.startswith("spline.no_order_solved: ")
    lines = (outroot / "spline_reconstruct" / "results.csv").read_text() \
        .splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["singular"] * 2


def test_spline_scenario_refuses_a_missed_lagrangian_certificate(outroot,
                                                                 capsys):
    # at k = 2 the r = 0.4 lattice on radius 1.4 (N = 123) solves with a
    # Lagrangian defect near 7.5e-8, above the 1e-8 certificate: the order
    # ends singular instead of reporting an ok row
    assert main(["run", str(ROOT / "configs" / "spline_reconstruct.ini"),
                 "--override", "r=0.4", "--override", "domain_radius=1.4",
                 "--override", "k_schedule=2"]) == 1
    assert capsys.readouterr().err.startswith("spline.no_order_solved: ")
    lines = (outroot / "spline_reconstruct" / "results.csv").read_text() \
        .splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["singular"]


def test_lattice_scenario_passes_when_r_reaches_the_domain(tmp_path,
                                                          outroot):
    # at r >= R the lattice is {o}, which covers the ball, and the ball
    # B(o, R - r) of fresh probes is empty
    path = _write(tmp_path, "[experiment]\nscenario = lattice\n"
                            "r_values = 0.1, 0.4\ndomain_radius = 0.01\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 0
    lines = (outroot / "lattice" / "results.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row["n_points"] == "1" and row["fresh_cover_max"] == "0.0"
        assert row["passed"] == "true"


def _lattice_rows_and_inputs(monkeypatch, space, cfg, lattice=None):
    """The lattice runner's rows, with the lattice and the fresh probes of
    each row; lattice, if given, stands in for build_lattice's."""
    lattices, probes = [], []
    build, draw = cli.build_lattice, cli.random_ball_points

    def built(r, domain_radius, seed):
        lattices.append(build(r, domain_radius, seed) if lattice is None
                        else lattice)
        return lattices[-1]

    def drawn(*args):
        probes.append(draw(*args))
        return probes[-1]

    monkeypatch.setattr(cli, "build_lattice", built)
    monkeypatch.setattr(cli, "random_ball_points", drawn)
    rows = _scenario_lattice(cfg, space).rows
    if len(probes) < len(rows):     # r >= domain_radius: no fresh probes
        probes = [np.empty(0, dtype=complex)] * len(rows)
    return zip(rows, lattices, probes)


def _assert_distances_match_brute_force(row, lat, probes):
    # the least geometry.distance over all pairs of distinct points (a
    # self pair would read 0.0), and the largest over the probes of the
    # least distance to a point
    pts = lat.points
    d = distance(pts[:, None], pts[None, :])
    np.fill_diagonal(d, np.inf)
    sep = d.min()
    fresh = distance(probes[:, None], pts[None, :]).min(axis=1) \
        .max(initial=0.0)
    _, n, got_sep, _, got_fresh, *_ = row
    assert n == pts.size
    for got, want in ((got_sep, sep), (got_fresh, fresh)):
        assert got == want or abs(got - want) <= 2 * np.spacing(want)


def test_lattice_runner_distances_match_brute_force(monkeypatch, space):
    cfg = ExperimentConfig(scenario="lattice", r_values=(0.4, 0.2),
                           domain_radius=1.5, seeds=(0,))
    for row, lat, probes in _lattice_rows_and_inputs(monkeypatch, space,
                                                     cfg):
        assert probes.size == 10_000
        _assert_distances_match_brute_force(row, lat, probes)


@pytest.mark.parametrize("points, domain_radius", [
    ([0.2, 0.1 + 0.1j], 1.5),   # a pair within r
    ([0.2, -0.5j], 1.5),        # pairs farther than r, read from all pairs
    ([0.2, 0.3 - 0.6j], 1.5),
    ([0.0], 0.01),              # one point, and r past the domain: no probes
])
def test_lattice_runner_distances_of_one_and_two_points(monkeypatch, space,
                                                        points,
                                                        domain_radius):
    lat = Lattice(np.array(points), 0.4, 2, domain_radius, 0)
    cfg = ExperimentConfig(scenario="lattice", r_values=(0.4,),
                           domain_radius=domain_radius, seeds=(0,))
    (row, _, probes), = _lattice_rows_and_inputs(monkeypatch, space, cfg,
                                                 lat)
    _assert_distances_match_brute_force(row, lat, probes)
    if len(points) == 1:
        assert (row[2], row[4]) == (np.inf, 0.0)


def test_inadmissible_tau_is_informative_not_fatal(tmp_path, outroot):
    # the spline schedule aborts at k = 2 on this lattice: that fails the
    # row, not the run
    path = _write(tmp_path, "[experiment]\nscenario = theorem73\n"
                            "r = 0.4\ntau_values = 0.6\nk_schedule = 2\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 0
    body = (outroot / "theorem73" / "results.csv").read_text()
    line = body.splitlines()[1]
    assert ",false," in line  # admissible column
    row = dict(zip(body.splitlines()[0].split(","), line.split(",")))
    assert (row["spline_aborted_at"], row["passed"]) == ("2", "false")
    manifest = (outroot / "theorem73" / "manifest.txt").read_text()
    assert "info.admissible_all = false" in manifest
    assert "failures = 0" in manifest


@pytest.mark.parametrize("overrides, taus, code", [
    # averages of -Delta f: the tau = 0 row's order-2 kernel has a tail
    # past the cutoff cap; the run's exit 1 is the frame-error invariant of
    # that admissible row, which the frame route misses at n = 1 (2.6e-2)
    (["n=1", "r=0.4"], ["0.0", "0.1", "0.3"], 1),
    # inadmissible tau, so no frame-error invariant applies
    (["n=2", "r=0.4", "tau_values=0.6"], ["0.6"], 0),
], ids=["n1_admissible", "n2_inadmissible"])
def test_theorem73_spline_tail_too_large_ends_the_schedule(outroot, capsys,
                                                          overrides, taus,
                                                          code):
    # TailTooLarge from the spline half stops its schedule at k = 2, as
    # SingularKernel does, and every frame row is still written
    args = [a for kv in overrides for a in ("--override", kv)]
    assert main(["run", str(ROOT / "configs" / "theorem73.ini"),
                 *args]) == code
    err = capsys.readouterr().err
    assert "TailTooLarge" not in err
    assert ("theorem73.frame_error: tau 0.0" in err) == bool(code)
    lines = (outroot / "theorem73" / "results.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert [row["tau"] for row in rows] == taus
    assert rows[0]["spline_aborted_at"] == "2"
    for row in rows:
        assert int(row["rank"]) > 0
        assert 0.0 < float(row["frame_lower"]) <= float(row["frame_upper"])
        assert math.isfinite(float(row["frame_error"]))


@pytest.mark.parametrize("override", [{"n_theta": "64"}, {"n_lambda": "64"}])
def test_theorem73_builds_its_grids_from_the_config(tmp_path, space,
                                                    override):
    # the error is measured on the config's polar grid and the function
    # lives on its spectral grid, so either override moves frame_error
    path = _write(tmp_path, "[experiment]\nscenario = theorem73\n"
                            "r = 0.4\ntau_values = 0.1\nk_schedule =\n")

    def frame_error(overrides):
        rep = _scenario_theorem73(load_config(path, overrides), space)
        [row] = rep.rows
        return row[rep.columns.index("frame_error")]

    assert frame_error(override) != frame_error({})


def test_theorem73_honours_cut(tmp_path, outroot):
    # the frame keeps more directions at a lower cut, which moves its error;
    # the manifest echoes the cut in force
    path = _write(tmp_path, "[experiment]\nscenario = theorem73\n"
                            "r = 0.4\ntau_values = 0.1\nk_schedule =\n"
                            "seeds = 0\n")

    def run_at(cut):
        assert main(["run", str(path), "--override", f"cut={cut}",
                     "--override", f"output=cut{cut}"]) == 0
        outdir = outroot / f"cut{cut}"
        lines = (outdir / "results.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        manifest = (outdir / "manifest.txt").read_text()
        assert f"tolerance.eigen_cut = {cut}" in manifest
        # no spline schedule, so nothing aborted and the row passes
        assert row["passed"] == "true"
        return float(row["frame_error"]), int(row["rank"])

    (err12, rank12), (err20, rank20) = run_at("1e-12"), run_at("1e-20")
    assert rank20 > rank12
    assert err20 != err12


@pytest.mark.parametrize("scenario", [
    name for name, spec in SCENARIOS.items()
    if not {"omega", "n_lambda"} & set(spec.unused)])
def test_band_scenarios_grid_is_the_band(space, scenario):
    # every node of a band scenario's spectral grid lies inside (0, omega),
    # n_lambda // 2 of them: no row of any coefficient field sits above it
    cfg = load_config(ROOT / "configs" / f"{scenario}.ini")
    grid = _spectral_grid(cfg, space)
    assert grid.omega == cfg.omega
    assert grid.n_lambda == cfg.n_lambda // 2
    assert 0.0 < grid.lambda_nodes[0]
    assert grid.lambda_nodes[-1] < cfg.omega


@pytest.mark.parametrize("override", ["lam_max=30", "n_r=64", "n_theta=64",
                                      "domain_radius=2.0"])
def test_plancherel_rejects_fields_it_does_not_use(tmp_path, outroot, capsys,
                                                   override):
    path = _write(tmp_path, "[experiment]\nscenario = plancherel\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario plancherel does not use "
                          + override.split("=")[0])
    assert "Traceback" not in err
    assert not outroot.exists()


class _RecordingConfig:
    """Reads through to a config and records the names of the fields read."""

    def __init__(self, cfg):
        self.__dict__.update(cfg=cfg, read=set())

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_unused_lists_exactly_the_fields_the_runner_does_not_read(space,
                                                                  scenario):
    spec = SCENARIOS[scenario]
    cfg = _RecordingConfig(ExperimentConfig(scenario=scenario, **{
        "seeds": (0,), **spec.defaults, **spec.verify}))
    spec.runner(cfg, space)
    unread = {f.name for f in dataclasses.fields(ExperimentConfig)} \
        - cfg.read - {"scenario", "output"}
    assert unread == set(spec.unused)


# a valid value other than every scenario's default, for each field that
# some scenario does not read
_UNREAD_VALUES = {"omega": "3", "r": "0.5", "r_values": "5", "tau": "0.3",
                  "tau_values": "0.5", "n": "1", "k_schedule": "3",
                  "gamma": "0.5", "domain_radius": "2.5", "lam_max": "30",
                  "n_lambda": "64", "n_b": "32", "n_r": "64",
                  "n_theta": "64", "cut": "0.999"}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_override_of_an_unread_field_exits_two(tmp_path, outroot, capsys,
                                               scenario):
    # a manifest must not echo a value its run never used
    path = _write(tmp_path, f"[experiment]\nscenario = {scenario}\n"
                            "seeds = 0\n")
    for name in SCENARIOS[scenario].unused:
        override = f"{name}={_UNREAD_VALUES[name]}"
        assert main(["run", str(path), "--override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: scenario {scenario} does not "
                              f"use {name}; leave it at its default")
        assert "Traceback" not in err
        assert not outroot.exists()


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.ini"))
                         + sorted(ROOT.glob("scenario_bench/workloads/*.ini")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_config_files_pass_run_validation(outroot, monkeypatch, path):
    # the configs and the benchmark's workload files must load and pass
    # run()'s check of unread fields; a stub runner stands in for the
    # scenario, so that a validation change cannot fail a benchmark run
    # unseen
    cfg = load_config(path)
    spec = SCENARIOS[cfg.scenario]
    monkeypatch.setitem(SCENARIOS, cfg.scenario, dataclasses.replace(
        spec, runner=lambda *_: cli._Report(["seed"], "seed", [])))
    assert run(cfg) == 0


@pytest.mark.parametrize("config", [None, "spline_reconstruct", "theorem73"])
def test_no_scipy_module_is_loaded(tmp_path, config):
    # the runtime needs numpy only: neither the import of the CLI nor a
    # scenario run may pull in scipy
    call = "0" if config is None else \
        f"main(['run', {str(ROOT / 'configs' / f'{config}.ini')!r}])"
    code = ("import sys\nfrom hypersample.cli import main\n"
            f"code = {call}\n"
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               HYPERSAMPLE_OUTPUT_ROOT=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"


def test_bad_config_exits_two(tmp_path, outroot, capsys):
    path = _write(tmp_path, "[experiment]\nscenario = lattice\nbogus = 1\n")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "n_b=33", "n_theta=95",          # odd angle counts
    "lam_max=1.0",                   # a field no scenario reads
    "cut=-1", "cut=0", "cut=1",      # eigenvalue cut outside (0, 1)
    "k_schedule=2, 0",               # spline order below 1
    "seeds=-1",                      # seeds feed numpy's generator
    "gamma=1.5",                     # the 1-D baseline must oversample
])
def test_bad_grid_or_solver_override_exits_two(tmp_path, outroot, capsys,
                                               override):
    path = _write(tmp_path, "[experiment]\nscenario = frame_reconstruct\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not (outroot / "frame_reconstruct").exists()


@pytest.mark.parametrize("scenario, field", [
    ("lattice", "r_values"), ("frame_reconstruct", "r_values"),
    ("spline_reconstruct", "k_schedule"), ("theorem73", "tau_values")])
def test_empty_scenario_list_exits_two(tmp_path, outroot, capsys, scenario,
                                       field):
    # with no value the scenario would write a header-only report, or fall
    # back to values that its manifest does not echo
    path = _write(tmp_path, f"[experiment]\nscenario = {scenario}\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", f"{field}="]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {scenario} needs at least one "
                          f"value in {field}")
    assert "Traceback" not in err
    assert not (outroot / scenario).exists()


_FLOAT_FIELDS = [name for name, ftype in
                 typing.get_type_hints(ExperimentConfig).items()
                 if ftype in (float, tuple[float, ...])]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_finite_float_exits_two(tmp_path, outroot, capsys, name, value):
    path = _write(tmp_path, "[experiment]\nscenario = frame_reconstruct\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", f"{name}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be finite")
    assert "Traceback" not in err
    assert not (outroot / "frame_reconstruct").exists()


@pytest.mark.parametrize("scenario", ["bernstein", "frame_reconstruct",
                                      "spline_reconstruct", "spherical_avg",
                                      "theorem73"])
def test_too_few_boundary_angles_exits_two(tmp_path, outroot, capsys,
                                           scenario):
    # each of these draws boundary modes |m| <= 3, which the boundary
    # circle resolves from n_b = 8 on: at 6, m = 3 and -3 share a column
    path = _write(tmp_path, f"[experiment]\nscenario = {scenario}\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", "n_b=6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_b must be at least 8")
    assert "Traceback" not in err
    assert not (outroot / scenario).exists()


@pytest.mark.parametrize("scenario", ["frame_reconstruct",
                                      "spline_reconstruct", "theorem73"])
def test_too_few_polar_angles_exits_two(tmp_path, outroot, capsys, scenario):
    # these evaluate the modes |m| <= 3 on the polar grid, whose circles
    # drop |m| = 3 below n_theta = 8
    path = _write(tmp_path, f"[experiment]\nscenario = {scenario}\n"
                            "seeds = 0\n")
    assert main(["run", str(path), "--override", "n_theta=6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_theta must be at least 8")
    assert "Traceback" not in err
    assert not (outroot / scenario).exists()


def test_verify_subset_and_empty(capsys):
    assert verify_all(only=["baseline1d"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("baseline1d  pass")
    assert verify_all(only=[""]) == 0
    assert "vacuous" in capsys.readouterr().err


def test_verify_runs_every_scenario_at_its_verify_size(capsys):
    # the verify sizes leave the fields a scenario does not use alone
    for spec in SCENARIOS.values():
        assert not set(spec.verify) & set(spec.unused)
    assert verify_all() == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows[:-1]] == \
        [[name, "pass"] for name in SCENARIOS]
    assert rows[-1] == f"all {len(SCENARIOS)} scenarios passed"


def test_verify_mutation_hook_trips_parseval(capsys):
    assert verify_all(perturb_scale=0.01, only=["plancherel"]) == 1
    assert "FAIL  plancherel.parseval_rel: " in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-1", "-2", "nan", "inf"])
def test_verify_refuses_a_bad_perturb_scale(capsys, value):
    # the perturbed density constant must stay finite and positive
    assert main(["verify", f"--perturb-scale={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: perturb_scale must be finite")
    assert "Traceback" not in err


def test_verify_catches_a_small_density_error(capsys):
    # a 1e-5 error in the density constant moves Parseval's balance by
    # 1e-5, above the runner's tolerance
    assert verify_all(perturb_scale=1e-5, only=["plancherel"]) == 1
    assert "FAIL  plancherel.parseval_rel: " in capsys.readouterr().out


def test_verify_reports_a_package_error_as_a_failure(monkeypatch, capsys):
    def refuse(cfg, space):
        raise ProblemTooLarge("too many points")

    spec = SCENARIOS["baseline1d"]
    monkeypatch.setitem(SCENARIOS, "baseline1d",
                        dataclasses.replace(spec, runner=refuse))
    assert verify_all(only=["baseline1d"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("baseline1d  FAIL  ProblemTooLarge: too many points")


def test_python_m_hypersample_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "hypersample", "verify",
                           "--only", "baseline1d"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("baseline1d  pass")
    assert "RuntimeWarning" not in proc.stderr


def test_calibrate_subcommand(capsys):
    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    scale = float(out.splitlines()[0].split("=")[1])
    assert scale == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-10)
