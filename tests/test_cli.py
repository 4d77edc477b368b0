"""Tests for the experiment runner: configs, artifacts, determinism."""

import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersample import spectral
from hypersample.cli import (
    SCENARIOS,
    ExperimentConfig,
    _scenario_theorem73,
    config_to_ini,
    load_config,
    main,
    run,
    verify_all,
)
from hypersample.errors import ConfigError


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
    omega = draw(_positive)
    counts = st.integers(4, 4096)
    evens = st.integers(2, 2048).map(lambda k: 2 * k)
    return ExperimentConfig(
        scenario=draw(st.sampled_from(SCENARIOS)),
        omega=omega,
        r=draw(_positive),
        r_values=tuple(draw(st.lists(_positive, max_size=4))),
        tau=draw(st.floats(0.0, 1e6)),
        tau_values=tuple(draw(st.lists(st.floats(0.0, 1e6), max_size=4))),
        n=draw(st.integers(0, 8)),
        k_schedule=tuple(draw(st.lists(st.integers(1, 16), max_size=4))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=1,
                                  max_size=4))),
        gamma=draw(_positive),
        domain_radius=draw(_positive),
        lam_max=draw(st.one_of(st.just(0.0),
                               st.floats(omega, 1e7, exclude_min=True))),
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


def test_inadmissible_tau_is_informative_not_fatal(tmp_path, outroot):
    path = _write(tmp_path, "[experiment]\nscenario = theorem73\n"
                            "r = 0.4\ntau_values = 0.6\nk_schedule =\n"
                            "seeds = 0\n")
    assert main(["run", str(path)]) == 0
    body = (outroot / "theorem73" / "results.csv").read_text()
    line = body.splitlines()[1]
    assert ",false," in line  # admissible column
    assert "info.admissible_all = false" in \
        (outroot / "theorem73" / "manifest.txt").read_text()


@pytest.mark.parametrize("override", [{"n_theta": "64"}, {"lam_max": "12"}])
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


def test_bad_config_exits_two(tmp_path, outroot, capsys):
    path = _write(tmp_path, "[experiment]\nscenario = lattice\nbogus = 1\n")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "n_b=33", "n_theta=95",          # odd angle counts
    "lam_max=1.0",                   # spectral cutoff below the band
    "cut=-1", "cut=0", "cut=1",      # eigenvalue cut outside (0, 1)
    "k_schedule=2, 0",               # spline order below 1
    "seeds=-1",                      # seeds feed numpy's generator
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


def test_verify_subset_and_empty(capsys):
    assert verify_all(only=["baseline1d"]) == 0
    out = capsys.readouterr().out
    assert "baseline1d.routes" in out and "pass" in out
    assert verify_all(only=[""]) == 0
    assert "vacuous" in capsys.readouterr().err


def test_verify_mutation_hook_trips_parseval(capsys):
    assert verify_all(perturb_scale=0.01, only=["transforms"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_calibrate_subcommand(capsys):
    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    scale = float(out.splitlines()[0].split("=")[1])
    assert scale == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-10)
