"""Experiment runner: configs, scenarios, CSV reports, deterministic manifests.

Eight scenarios exercise the library end to end.  Each run writes a
manifest (config echo, library version, spectral density constant,
tolerances in force), a results.csv with a fixed per-scenario
schema, a plot_results.py renderer and a timings.txt sidecar.  Result
files are byte-deterministic for identical configs at a fixed BLAS thread
count; wall-clock timings live only in the sidecar so reruns can be
compared by hash.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
import time
import typing
import uuid
from configparser import ConfigParser
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import spectral
from .bandlimited import _BERNSTEIN_SLACK, _N_MODES, bernstein_check, \
    synthesize
from .baseline1d import exp_frame_gram, gram_reconstruct, sinc_reconstruct, \
    synthesize_1d
from .errors import ConfigError, HypersampleError, SingularKernel
from .geometry import multiplicity_bound, random_ball_points
from .lattice import _min_separation, _probe_cover, build_lattice, \
    certify_cover, certify_multiplicity
from .sampling import _PINV_CUT, build_frame, point_samples
from .spectral import build_grid, sobolev_multiplier
from .sphavg import AverageSpec, average_multiplier, near_identity_check, \
    spherical_average_direct, theorem73_experiment
from .splines import _CERT_TOL, build_splines, check_kernel_size, \
    spline_interpolate
from .transforms import _CAL_LAM_MAX, _CAL_TAIL_TOL, _bump_norms_sq, \
    apply_multiplier, build_polar_grid, calibrate_plancherel

__all__ = [
    "ExperimentConfig",
    "load_config",
    "config_to_ini",
    "run",
    "verify_all",
    "main",
]

_OUTPUT_ROOT_ENV = "HYPERSAMPLE_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field serializes to key = value."""

    scenario: str = "plancherel"
    omega: float = 2.0
    r: float = 0.4
    r_values: tuple[float, ...] = ()
    tau: float = 0.2
    tau_values: tuple[float, ...] = ()
    n: int = 0
    k_schedule: tuple[int, ...] = (2, 4, 8)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    gamma: float = 0.8
    domain_radius: float = 1.4
    lam_max: float = 0.0  # read by no scenario: config files still set it
    n_lambda: int = 96
    n_b: int = 64
    n_r: int = 160
    n_theta: int = 96
    cut: float = _PINV_CUT
    output: str = ""

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose from {', '.join(SCENARIOS)}")
        # NaN passes every ordered comparison below, and inf overflows
        # when the grids and lattices are built
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v!r}")
        for name in ("omega", "domain_radius"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # the baseline1d cardinal series needs oversampling
        if not 0 < self.gamma < 1:
            raise ConfigError("gamma must lie in (0, 1)")
        if self.r <= 0 or any(v <= 0 for v in self.r_values):
            raise ConfigError("lattice radii must be positive")
        if self.tau < 0 or any(v < 0 for v in self.tau_values):
            raise ConfigError("average radii must be nonnegative")
        if self.n < 0:
            raise ConfigError("derivative order n must be nonnegative")
        if min((self.n_lambda, self.n_b, self.n_r, self.n_theta)) < 4:
            raise ConfigError("grid sizes must be at least 4")
        if self.n_b % 2 or self.n_theta % 2:
            raise ConfigError("angle counts n_b and n_theta must be even")
        for name in ("n_b", "n_theta"):
            if getattr(self, name) < 2 * _N_MODES + 2:
                raise ConfigError(f"{name} must be at least {2 * _N_MODES + 2}"
                                  f": the test functions use |m| <= {_N_MODES}")
        if not 0 < self.cut < 1:
            raise ConfigError("cut must lie in (0, 1)")
        # polyharmonic_kernel's tail bound takes sup|m| >= 1, so order 1
        # needs a spectral cutoff past its cap for every scenario multiplier
        if any(k < 2 for k in self.k_schedule):
            raise ConfigError("spline orders in k_schedule must be at least 2")
        # a scenario runs once per listed value: a repeat redoes the same
        # work and writes the same row twice
        for name in ("r_values", "tau_values", "k_schedule"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {_fmt(values)}")
        listed = SCENARIOS[self.scenario].listed
        if listed and not getattr(self, listed):
            raise ConfigError(f"{self.scenario} needs at least one value in "
                              f"{listed}")
        # a run replaces its output directory: keep it inside the root
        out = Path(self.output)
        if self.output and (out.is_absolute() or not out.parts
                            or ".." in out.parts):
            raise ConfigError(f"output must be a relative path below the "
                              f"output root, got {self.output!r}")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be nonnegative")


def _coerce(name: str, ftype, raw: str):
    raw = raw.strip()
    try:
        if ftype is float:
            return float(raw)
        if ftype is int:
            return int(raw)
        if ftype is str:
            return raw
        if typing.get_origin(ftype) is tuple:
            inner = typing.get_args(ftype)[0]
            parts = [p for p in (q.strip() for q in raw.split(",")) if p]
            return tuple(inner(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from None
    raise ConfigError(f"unsupported field type for {name}")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read an INI config ([experiment] section), then apply overrides."""
    parser = ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not parser.has_section("experiment"):
        raise ConfigError("config must contain an [experiment] section")
    items = dict(parser.items("experiment"))
    items.update(overrides or {})
    types = typing.get_type_hints(ExperimentConfig)
    spec = SCENARIOS.get(items.get("scenario", "plancherel").strip())
    values = dict(spec.defaults) if spec else {}
    for key, raw in items.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, types[key], raw)
    return ExperimentConfig(**values)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def config_to_ini(cfg: ExperimentConfig) -> str:
    lines = ["[experiment]"]
    for f in fields(cfg):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario execution


class _Report:
    """Accumulates rows, failures, timings and manifest extras for one run."""

    def __init__(self, columns, plot_x, plot_y):
        self.columns = list(columns)
        self.plot_x = plot_x
        self.plot_y = list(plot_y)
        self.rows: list[tuple] = []
        self.failures: list[str] = []
        self.tolerances: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.timings: list[tuple[str, float]] = []

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError("row does not match the schema")
        self.rows.append(row)

    def check(self, ok: bool, name: str, detail: str):
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @contextlib.contextmanager
    def timed(self, label: str):
        t0 = time.perf_counter()
        yield
        self.timings.append((label, time.perf_counter() - t0))

    def csv_text(self) -> str:
        out = [",".join(self.columns)]
        for row in self.rows:
            out.append(",".join(_fmt(v).replace(",", ";") for v in row))
        return "\n".join(out) + "\n"


def _rel_err(pgrid, got: np.ndarray, want: np.ndarray) -> float:
    return pgrid.norm(got - want) / pgrid.norm(want)


def _spectral_grid(cfg: ExperimentConfig):
    """The config's spectral grid: n_lambda // 2 nodes on the band."""
    return build_grid(cfg.omega, cfg.n_lambda // 2, cfg.n_b)


def _grids(cfg: ExperimentConfig):
    """The config's spectral grid and its polar grid over the domain."""
    return (_spectral_grid(cfg),
            build_polar_grid(cfg.domain_radius, cfg.n_r, cfg.n_theta))


def _scenario_plancherel(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["seed", "spatial_norm_sq", "spectral_norm_sq",
                   "rel_error", "passed"], "seed", ["rel_error"])
    tol, cal_tol = 1e-6, 1e-10
    rep.tolerances = {"parseval_rel": tol, "forward_tail": _CAL_TAIL_TOL,
                      "calibration_rel": cal_tol}
    grid = build_grid(_CAL_LAM_MAX, cfg.n_lambda, cfg.n_b)
    draws = []
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        center = 0.5 * math.sqrt(rng.random()) \
            * np.exp(2j * np.pi * rng.random())
        draws.append((center, 0.7 + 0.5 * rng.random()))
    with rep.timed("transform"):
        norms = _bump_norms_sq(grid, draws)
    for seed, spatial, spectral_sq in zip(cfg.seeds, *norms):
        rel = abs(spatial - spectral_sq) / spatial
        rep.add(seed, spatial, spectral_sq, rel, rel < tol)
        rep.check(rel < tol, "plancherel.parseval_rel",
                  f"seed {seed}: relative error {rel:.3e} >= {tol:.0e}")
    scale = rep.info["calibration_scale"] = calibrate_plancherel().scale
    off = abs(scale / spectral.PLANCHEREL_SCALE - 1.0)
    rep.check(off <= cal_tol, "plancherel.calibration",
              f"measured constant {scale!r} is off by {off:.3e}")
    return rep


def _scenario_bernstein(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["seed", "sigma", "lhs", "rhs", "ratio", "passed"],
                  "sigma", ["ratio"])
    rep.tolerances = {"bernstein_slack": _BERNSTEIN_SLACK}
    grid = _spectral_grid(cfg)
    for seed in cfg.seeds:
        with rep.timed(f"seed_{seed}"):
            f = synthesize(grid, seed)
            for sigma in (0.5, 1.0, 2.0, 4.0):
                chk = bernstein_check(f, sigma)
                ok = chk["pass"]
                rep.add(seed, sigma, chk["lhs"], chk["rhs"], chk["ratio"], ok)
                rep.check(ok, "bernstein.ratio_bound",
                          f"seed {seed} sigma {sigma}: "
                          f"ratio {chk['ratio']:.12f}")
    return rep


def _scenario_lattice(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["r", "n_points", "min_separation", "cover_radius",
                   "fresh_cover_max", "multiplicity", "multiplicity_bound",
                   "passed"], "r", ["min_separation", "cover_radius"])
    rep.tolerances = {"cover_probes": 10_000}
    for r in cfg.r_values:
        with rep.timed(f"r_{r:g}"):
            lat = build_lattice(r, cfg.domain_radius, seed=cfg.seeds[0])
            sep = _min_separation(lat.points, r)
            cov = certify_cover(lat)
            rng = np.random.default_rng(cfg.seeds[0] + 99)
            probes = random_ball_points(cfg.domain_radius - r, 10_000, rng) \
                if cfg.domain_radius > r else np.empty(0, dtype=complex)
            fresh = _probe_cover(probes, lat.points, r)
            mult = certify_multiplicity(lat)
        bound = multiplicity_bound(r)
        bound = math.ceil(bound) if math.isfinite(bound) else bound
        ok_sep = sep >= r / 2.0 - 1e-12
        ok_cov = cov <= r / 2.0 and fresh <= r / 2.0 + r / 8.0
        ok_mult = mult <= bound
        rep.add(r, len(lat), sep, cov, fresh, mult, bound,
                ok_sep and ok_cov and ok_mult)
        rep.check(ok_sep, "lattice.packing",
                  f"r {r}: separation {sep:.4f} < r/2")
        rep.check(ok_cov, "lattice.cover",
                  f"r {r}: cover {cov:.4f}, fresh {fresh:.4f}")
        rep.check(ok_mult, "lattice.multiplicity",
                  f"r {r}: {mult} > bound {bound}")
    return rep


def _scenario_frame(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["r", "n_points", "rank", "frame_lower", "frame_upper",
                   "rel_error", "passed"], "r", ["rel_error"])
    tol = 1e-6
    rep.tolerances = {"frame_rel_error_at_finest": tol, "eigen_cut": cfg.cut}
    grid, pgrid = _grids(cfg)
    f = synthesize(grid, cfg.seeds[0])
    f_ref = f.on_grid(pgrid)
    r_list = tuple(sorted(cfg.r_values, reverse=True))
    errors = []
    for r in r_list:
        with rep.timed(f"r_{r:g}"):
            lat = build_lattice(r, cfg.domain_radius, seed=cfg.seeds[0])
            frame = build_frame(point_samples(f, lat), grid=grid,
                                cut=cfg.cut)
            err = _rel_err(pgrid, frame.function.on_grid(pgrid), f_ref)
        errors.append(err)
        # every row needs a positive lower bound; the finest must also
        # meet the error tolerance
        ok = frame.frame_bounds[0] > 0 and (r != r_list[-1] or err < tol)
        rep.add(r, len(lat), frame.rank, frame.frame_bounds[0],
                frame.frame_bounds[1], err, ok)
    rep.check(errors[-1] < tol, "frame.error_at_finest",
              f"r {r_list[-1]}: relative error {errors[-1]:.3e} >= {tol:.0e}")
    mono = all(a > b for a, b in zip(errors, errors[1:]))
    rep.check(mono, "frame.monotone_in_density",
              f"errors {['%.3e' % e for e in errors]} not decreasing")
    rep.info["errors_by_r"] = tuple(errors)
    return rep


def _scenario_spline(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["k", "status", "n_points", "condition",
                   "lagrangian_defect", "rel_error", "passed"],
                  "k", ["rel_error"])
    err_tol = 1e-3
    rep.tolerances = {"lagrangian_defect": _CERT_TOL,
                      "interp_rel_error": err_tol}
    check_kernel_size(cfg.r, cfg.domain_radius)
    grid, pgrid = _grids(cfg)
    f = synthesize(grid, cfg.seeds[0])
    f_ref = f.on_grid(pgrid)
    lat = build_lattice(cfg.r, cfg.domain_radius, seed=cfg.seeds[0])
    s = point_samples(f, lat)
    rep.info["n_points"] = len(lat)
    first_k = True
    for k in cfg.k_schedule:
        with rep.timed(f"k_{k}"):
            try:
                system = build_splines(lat, int(k))
            except SingularKernel:
                rep.add(k, "singular", len(lat), math.inf, math.nan,
                        math.nan, False)
                continue
            interp = spline_interpolate(system, s)
            err = _rel_err(pgrid, interp.evaluate(pgrid.points), f_ref)
        ok_err = err < err_tol
        rep.add(k, "ok", len(lat), system.condition,
                system.lagrangian_defect, err, ok_err)
        if first_k:
            # guards are asserted for the first surviving order; higher
            # orders are reported as measured (the conditioning wall is
            # part of the result, not an error)
            rep.check(ok_err, "spline.interp_error",
                      f"k {k}: relative error {err:.3e} >= {err_tol:.0e}")
            first_k = False
    rep.check(not first_k, "spline.no_order_solved",
              f"every order in {_fmt(cfg.k_schedule)} ended singular")
    return rep


def _scenario_sphavg(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["case", "y_re", "y_im", "tau", "n", "direct_re",
                   "direct_im", "symbol_re", "symbol_im", "abs_diff",
                   "passed"], "case", ["abs_diff"])
    tol = 1e-6
    rep.tolerances = {"two_path_abs": tol}
    grid = _spectral_grid(cfg)
    f = synthesize(grid, cfg.seeds[0])
    rng = np.random.default_rng(42)
    with rep.timed("two_path_cases"):
        for case in range(10):
            y = 0.6 * math.sqrt(rng.random()) \
                * np.exp(2j * np.pi * rng.random())
            tau = 0.05 + 0.35 * rng.random()
            n = int(rng.integers(0, 2))
            g = apply_multiplier(f, sobolev_multiplier(float(n)))
            direct = spherical_average_direct(g, y, AverageSpec(tau=tau))
            mult = average_multiplier(AverageSpec(tau=tau, n=n))
            sym = apply_multiplier(f, mult).evaluate(
                np.array([complex(y)]))[0]
            diff = abs(direct - sym)
            ok = diff <= tol * max(abs(sym), 1e-3)
            rep.add(case, y.real, y.imag, tau, n, direct.real, direct.imag,
                    sym.real, sym.imag, diff, ok)
            rep.check(ok, "sphavg.two_path",
                      f"case {case}: |direct - symbol| = {diff:.3e}")
    with rep.timed("near_identity"):
        for n in (0, 1):
            chk = near_identity_check(grid, AverageSpec(tau=cfg.tau, n=n))
            rep.check(chk["passed"], "sphavg.near_identity",
                      f"n {n}, tau {cfg.tau}: bound violated at a node")
    rep.info["near_identity_n"] = (0, 1)
    return rep


def _scenario_theorem73(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["omega", "r", "tau", "n", "n_points", "admissible",
                   "frame_error", "frame_lower", "frame_upper", "rank",
                   "spline_ks", "spline_errors", "spline_aborted_at",
                   "passed"], "tau", ["frame_error"])
    tol, flat = 1e-4, 10.0
    rep.tolerances = {"frame_error": tol, "flatness_factor": flat,
                      "eigen_cut": cfg.cut}
    taus = cfg.tau_values
    with rep.timed("experiment"):
        grid, pgrid = _grids(cfg)
        results = theorem73_experiment(
            cfg.r, [AverageSpec(tau=float(tau), n=cfg.n) for tau in taus],
            seed=cfg.seeds[0], grid=grid, pgrid=pgrid,
            k_schedule=tuple(cfg.k_schedule), cut=cfg.cut)
    for tau, res in zip(taus, results):
        admissible = res["admissible"]
        ok = (not admissible) or res["frame_error"] < tol
        # an aborted spline schedule fails its row but not the run: the
        # conditioning wall is a reported result, as in spline_reconstruct
        aborted_at = res["spline_aborted_at"] or 0
        rep.add(cfg.omega, cfg.r, tau, cfg.n, res["n_points"], admissible,
                res["frame_error"], res["frame_bounds"][0],
                res["frame_bounds"][1], res["frame_rank"],
                tuple(res["spline_k_list"]), tuple(res["spline_errors"]),
                aborted_at, ok and not aborted_at)
        if admissible:
            rep.check(ok, "theorem73.frame_error",
                      f"tau {tau}: error {res['frame_error']:.3e} "
                      f">= {tol:.0e}")
    admissible_all = all(res["admissible"] for res in results)
    if admissible_all and len(taus) > 1:
        errors = [res["frame_error"] for res in results]
        lo, hi = min(errors), max(errors)
        rep.check(hi < flat * lo, "theorem73.flat_in_tau",
                  f"errors spread {hi / lo:.1f}x over tau {tuple(taus)}")
    rep.info["admissible_all"] = admissible_all
    return rep


def _scenario_baseline1d(cfg: ExperimentConfig) -> _Report:
    rep = _Report(["gamma", "n_points", "frame_lower", "frame_upper",
                   "sinc_rel_error", "gram_rel_error", "route_diff",
                   "passed"], "gamma", ["sinc_rel_error", "gram_rel_error"])
    tol, route_tol = 1e-6, 1e-5
    rep.tolerances = {"reconstruction_rel": tol, "route_agreement": route_tol}
    with rep.timed("baseline"):
        f = synthesize_1d(cfg.omega, cfg.seeds[0])
        step = cfg.gamma * np.pi / cfg.omega
        x = step * (np.arange(64) - 31.5)
        frame = exp_frame_gram(x, cfg.omega)
        t = np.linspace(-6.0, 6.0, 41)
        direct = f.evaluate(t)
        scale = float(np.max(np.abs(direct)))
        rec_sinc = sinc_reconstruct(f, cfg.gamma, t, n_trunc=150)
        rec_gram = gram_reconstruct(frame, f.evaluate(x), t)
        err_sinc = float(np.max(np.abs(rec_sinc - direct))) / scale
        err_gram = float(np.max(np.abs(rec_gram - direct))) / scale
        diff = float(np.max(np.abs(rec_sinc - rec_gram)))
    ok = err_sinc < tol and err_gram < tol and diff < route_tol
    rep.add(cfg.gamma, x.size, frame["frame_bounds"][0],
            frame["frame_bounds"][1], err_sinc, err_gram, diff, ok)
    rep.check(err_sinc < tol, "baseline1d.sinc_error",
              f"relative error {err_sinc:.3e}")
    rep.check(err_gram < tol, "baseline1d.gram_error",
              f"relative error {err_gram:.3e}")
    rep.check(diff < route_tol, "baseline1d.route_agreement",
              f"routes differ by {diff:.3e}")
    return rep


@dataclass(frozen=True)
class _Scenario:
    """One scenario: its runner; defaults layered under the file values (the
    resolved config is what gets echoed, so round-trips stay exact); the
    list field it runs once per value of, which must not be empty; the
    fields it never reads, which run() keeps at their defaults so that a
    manifest never echoes a value the run did not use; and the small size
    that `hypersample verify` runs it at, overrides layered on defaults
    (with seeds 0 unless they list seeds)."""

    runner: typing.Callable[[ExperimentConfig], _Report]
    defaults: dict = field(default_factory=dict)
    listed: str | None = None
    unused: tuple[str, ...] = ()
    verify: dict = field(default_factory=dict)


SCENARIOS = {
    # plancherel keeps the calibration's grids
    "plancherel": _Scenario(_scenario_plancherel, unused=(
        "omega", "r", "r_values", "tau", "tau_values", "n", "k_schedule",
        "gamma", "domain_radius", "lam_max", "n_r", "n_theta", "cut")),
    "bernstein": _Scenario(_scenario_bernstein, unused=(
        "r", "r_values", "tau", "tau_values", "n", "k_schedule", "gamma",
        "domain_radius", "lam_max", "n_r", "n_theta", "cut"),
        verify={"seeds": (0, 1)}),
    "lattice": _Scenario(_scenario_lattice, {
        "r_values": (0.1, 0.2, 0.4), "domain_radius": 1.5}, "r_values",
        unused=("omega", "r", "tau", "tau_values", "n", "k_schedule",
                "gamma", "lam_max", "n_lambda", "n_b", "n_r", "n_theta",
                "cut"),
        verify={"r_values": (0.4,), "domain_radius": 1.2}),
    # at r 0.4 alone the finest row misses the frame error tolerance
    "frame_reconstruct": _Scenario(_scenario_frame, {
        "r_values": (0.4, 0.2, 0.1)}, "r_values",
        unused=("r", "tau", "tau_values", "n", "k_schedule", "gamma",
                "lam_max"),
        verify={"r_values": (0.4, 0.3), "domain_radius": 1.2}),
    "spline_reconstruct": _Scenario(_scenario_spline, {
        "omega": 1.0, "r": 0.8, "domain_radius": 2.0}, "k_schedule",
        unused=("r_values", "tau", "tau_values", "n", "gamma", "lam_max",
                "cut"),
        verify={"k_schedule": (2,), "domain_radius": 1.6}),
    "spherical_avg": _Scenario(_scenario_sphavg, unused=(
        "r", "r_values", "tau_values", "n", "k_schedule", "gamma",
        "domain_radius", "lam_max", "n_r", "n_theta", "cut")),
    "theorem73": _Scenario(_scenario_theorem73, {
        "r": 0.1, "tau_values": (0.0, 0.1, 0.3), "k_schedule": (2,)},
        "tau_values", unused=("r_values", "tau", "gamma", "lam_max"),
        verify={"r": 0.4, "tau_values": (0.1,)}),
    "baseline1d": _Scenario(_scenario_baseline1d, unused=(
        "r", "r_values", "tau", "tau_values", "n", "k_schedule",
        "domain_radius", "lam_max", "n_lambda", "n_b", "n_r", "n_theta",
        "cut")),
}


# ---------------------------------------------------------------------------
# artifacts


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render error curves from results.csv (same directory as this script)."""

import csv
import pathlib

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = pathlib.Path(__file__).resolve().parent
X_COLUMN = {x!r}
Y_COLUMNS = {y!r}

with open(HERE / "results.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))

fig, ax = plt.subplots(figsize=(6, 4))
xs = [float(row[X_COLUMN]) for row in rows]
for col in Y_COLUMNS:
    ys = [float(row[col]) if row[col] not in ("", "nan") else float("nan")
          for row in rows]
    ax.plot(xs, ys, marker="o", label=col)
ax.set_xlabel(X_COLUMN)
ax.set_yscale("log")
ax.grid(True, which="both", alpha=0.3)
ax.legend()
ax.set_title({title!r})
fig.tight_layout()
fig.savefig(HERE / "results.png", dpi=150)
print(HERE / "results.png")
'''


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _manifest_text(cfg: ExperimentConfig, rep: _Report, version: str) -> str:
    lines = [f"library_version = {version}",
             f"plancherel_scale = {spectral.PLANCHEREL_SCALE!r}"]
    for f in fields(cfg):
        lines.append(f"config.{f.name} = {_fmt(getattr(cfg, f.name))}")
    for key in sorted(rep.tolerances):
        lines.append(f"tolerance.{key} = {_fmt(rep.tolerances[key])}")
    for key in sorted(rep.info):
        lines.append(f"info.{key} = {_fmt(rep.info[key])}")
    lines.append(f"failures = {len(rep.failures)}")
    for msg in rep.failures:
        lines.append(f"failure = {msg}")
    return "\n".join(lines) + "\n"


def run(cfg: ExperimentConfig) -> int:
    """Execute one scenario; write artifacts; 0 = pass, 1 = failed invariant.

    The files go to a fresh hidden sibling of the output directory, which
    replaces the output directory when the runner returns, passed or not,
    so the directory never mixes two runs' files.  A run that raises
    instead (a config error, a package error, an interrupt) removes the
    output directory, so no earlier run's results.csv reads as its own."""
    spec = SCENARIOS[cfg.scenario]
    outdir = Path(os.environ.get(_OUTPUT_ROOT_ENV, "runs")) \
        / (cfg.output or cfg.scenario)
    staging = outdir.parent / f".{outdir.name}.{uuid.uuid4().hex}"
    try:
        default = ExperimentConfig(scenario=cfg.scenario, **spec.defaults)
        for name in spec.unused:
            value = getattr(default, name)
            if getattr(cfg, name) != value:
                raise ConfigError(
                    f"scenario {cfg.scenario} does not use {name}; leave it "
                    f"at its default {_fmt(value) or '(empty)'}")
        staging.mkdir(parents=True)
        failures = _run_into(cfg, spec, staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(outdir, ignore_errors=True)
        raise
    shutil.rmtree(outdir, ignore_errors=True)
    staging.rename(outdir)
    if failures:
        print(failures[0], file=sys.stderr)
        return 1
    return 0


def _run_into(cfg: ExperimentConfig, spec: _Scenario,
              outdir: Path) -> list[str]:
    """Run cfg's scenario, write its files into outdir; the failures."""
    from . import __version__

    t0 = time.perf_counter()
    rep = spec.runner(cfg)
    total = time.perf_counter() - t0

    _write_text(outdir / "results.csv", rep.csv_text())
    _write_text(outdir / "manifest.txt",
                _manifest_text(cfg, rep, __version__))
    _write_text(outdir / "config.ini", config_to_ini(cfg))
    _write_text(outdir / "plot_results.py",
                _PLOT_TEMPLATE.format(x=rep.plot_x, y=rep.plot_y,
                                      title=cfg.scenario))
    timing_lines = [f"{label} = {secs:.3f} s" for label, secs in rep.timings]
    timing_lines.append(f"total = {total:.3f} s")
    _write_text(outdir / "timings.txt", "\n".join(timing_lines) + "\n")
    return rep.failures


# ---------------------------------------------------------------------------
# verify


def verify_all(perturb_scale: float = 0.0,
               only: list[str] | None = None) -> int:
    """Run every scenario's runner at its verify size; print a table.

    only keeps the scenarios whose names contain one of its substrings.
    perturb_scale is a relative error in spectral.PLANCHEREL_SCALE, rebound
    for the runs only; the plancherel runner's Parseval tolerance must
    catch it (the mutation hook that proves the suite is actually
    sensitive); it must be finite and above -1, so that the constant
    stays positive, or ConfigError is raised.  No files are written.
    """
    if not (math.isfinite(perturb_scale) and perturb_scale > -1.0):
        raise ConfigError(f"perturb_scale must be finite and above -1, "
                          f"got {perturb_scale!r}")
    names = list(SCENARIOS)
    if only is not None:
        wanted = [w for w in only if w]
        names = [name for name in names if any(w in name for w in wanted)]
        if not names:
            print("warning: no scenario matched, vacuous pass",
                  file=sys.stderr)
            return 0
    width = max(len(name) for name in names)
    failures = 0
    scale = spectral.PLANCHEREL_SCALE
    spectral.PLANCHEREL_SCALE = scale * (1.0 + perturb_scale)
    try:
        for name in names:
            spec = SCENARIOS[name]
            cfg = ExperimentConfig(scenario=name, **{
                "seeds": (0,), **spec.defaults, **spec.verify})
            t0 = time.perf_counter()
            try:
                rep = spec.runner(cfg)
            except HypersampleError as exc:
                status = f"FAIL  {type(exc).__name__}: {exc}"
            else:
                status = f"FAIL  {rep.failures[0]}" if rep.failures else "pass"
            failures += status != "pass"
            print(f"{name:<{width}}  {status}  "
                  f"[{time.perf_counter() - t0:.2f} s]")
    finally:
        spectral.PLANCHEREL_SCALE = scale
    print(f"{failures} of {len(names)} scenarios failed" if failures
          else f"all {len(names)} scenarios passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value: {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypersample",
        description="Sampling and reconstruction experiments on the "
                    "hyperbolic plane")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("config", help="INI file with an [experiment] section")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="set a config key (repeatable, wins over file)")

    p_verify = sub.add_parser("verify",
                              help="run every scenario at a small size")
    p_verify.add_argument("--perturb-scale", type=float, default=0.0,
                          help="inject a relative density-constant error "
                               "(mutation hook)")
    p_verify.add_argument("--only", default=None,
                          help="comma list of scenario name substrings")

    sub.add_parser("calibrate", help="measure the density constant 1/(2 pi)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config, _parse_overrides(args.override))
            return run(cfg)
        if args.command == "verify":
            only = None if args.only is None else args.only.split(",")
            return verify_all(args.perturb_scale, only)
        cal = calibrate_plancherel()
        print(f"plancherel_scale = {cal.scale!r}")
        print(f"spread = {cal.spread!r}")
        print(f"1/(2 pi)         = {spectral.PLANCHEREL_SCALE!r}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypersampleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
