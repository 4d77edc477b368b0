"""Per-layer timings and accuracy of this tree against a base revision.

    python3 scripts/bench.py --base <rev> [--stage NAME ...] [--out BENCH_<n>.json]

The base revision's `src/` is exported with `git archive` into a temporary
directory.  Each stage runs its worker in PROCS fresh interpreters per side,
with the BLAS pool pinned to two threads and `hypersample` imported from the
side's `src/`; base and head alternate which side runs first.  The `frame`
stage does this once per lattice radius (its cases), so that each radius has
its own peak resident set size.  Inside a process a worker times its calls
REPEATS times.  Process and repeat counts are constants of the stage table.

Worker contract: `python3 scripts/bench.py --worker STAGE [--case R]` prints
one JSON line of fields and writes the arrays it wants compared between the
sides to `arrays.npz` in its working directory (the driver gives every
process a fresh one).  A field's suffix decides its summary:

- `_s`: a time, or a list of REPEATS times; the median and every run over
  all processes of the side;
- `_mb`: memory, the median over processes;
- `_entries`: mode-table entries (lam, m, r, re, im), reported as their
  largest absolute error against 30-digit mpmath quadrature of the defining
  circle integral (computed once per point, in the driver);
- anything else, digests (`_sha256`) included: the first process's value.

Beside the two summaries, `head_against_base` holds `outputs_equal` (for
stages with digests: every digest identical in every process of both
sides), `differing_fields` (the fields other than times and memory on which
the sides' first processes differ) and, for each array,
`<name>_max_rel_diff` = max|head - base| / max|base| of the first
processes, or `<name>_shapes` = [base shape, head shape] when the shapes
differ (the frame and spline mode tables hold n_lambda // 2 lambda rows
since the spectral grid became the band alone, n_lambda before).

The workers call `build_frame(samples, grid=...)`, whose frame holds the
interpolant, time `sampling._ball_directions` and read the calibration's
grids from `transforms._CAL_LAM_MAX`, `_CAL_N_LAMBDA`, `_CAL_N_B` and
`_CAL_POLAR_GRID`, so `--base` must be a revision that defines those
constants: the change that added `_CAL_N_LAMBDA` and `_CAL_N_B`, or a
later one.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOMAIN = 1.4                      # the frame_reconstruct and theorem73 domain
LATTICE_RADII = (0.4, 0.2, 0.1, 0.05, 0.025)
# series field prefix: (spline order, t_max); past t = 4 the zonal sum
# switches to the Harish-Chandra expansion
KERNELS = {"kernel_k2": (2, 4.0), "kernel_k4": (4, 4.0),
           "kernel_k8": (8, 4.0), "kernel_k2_t6": (2, 6.0)}
# name: the scenario config whose grids `hypersample run` builds
GRIDS = {"frame": "frame_reconstruct", "spline": "spline_reconstruct"}
ORACLE_LAMS = (6e-4, 0.3, 3.0, 24.0)
ORACLE_RS = (4.5, 6.0, 8.0)
ORACLE_MS = (0, 5, 31)
NEAR_LAMS = (6e-4, 0.3, 3.0, 10.0)
NEAR_RS = (0.5, 1.4, 2.0, 3.0)


def _rss_mb() -> float:
    """Peak resident set size of this program (Linux `VmHWM`).

    `ru_maxrss` would do on its own, but a child starts with the peak of
    the process it was started from, and the driver holds both sides'
    arrays.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _memory(before: float) -> dict:
    """Peak RSS before a stage, at its end, and the difference."""
    peak = _rss_mb()
    return {"rss_before_mb": before, "peak_rss_mb": peak,
            "stage_rss_mb": peak - before}


def _digest(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _traced_mb(call) -> float:
    """Peak of the memory tracemalloc sees while call() runs, in MB; its
    value counts too, so a table's peak includes the table."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _times(call, repeats: int) -> tuple[list, object]:
    """REPEATS wall times of call() and its last value."""
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return times, value


def _space():
    from hypersample.geometry import SpaceParams
    from hypersample.transforms import calibrate_plancherel

    return SpaceParams().with_scale(calibrate_plancherel().scale)


def _grids(space, name: str):
    """The spectral and polar grid of the frame or spline scenario, built
    from its config by `cli._grids` as a run builds them."""
    from hypersample import cli

    cfg = cli.load_config(str(ROOT / "configs" / f"{GRIDS[name]}.ini"))
    return cli._grids(cfg, space)


def _setup(repeats, case):
    """Import of `hypersample.cli` (the scenario bench's `setup_s` starts
    with it) and the scipy modules it loaded, then a cold
    `calibrate_plancherel()` with |2 pi scale - 1|, the Parseval spread and
    the peak RSS after it, and the tracemalloc peak of one more cold
    calibration (`calibrate_traced_mb`)."""
    start = time.perf_counter()
    import hypersample.cli  # noqa: F401
    import_s = time.perf_counter() - start
    scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    import numpy as np

    from hypersample.transforms import calibrate_plancherel

    start = time.perf_counter()
    cal = calibrate_plancherel()
    calibrate_s = time.perf_counter() - start
    peak_rss_mb = _rss_mb()
    calibrate_plancherel.cache_clear()
    return {"import_s": import_s, "calibrate_s": calibrate_s,
            "setup_s": import_s + calibrate_s, "scipy_modules": len(scipy),
            "scale_error": abs(2.0 * np.pi * cal.scale - 1.0),
            "spread": cal.spread,
            "calibrate_traced_mb": _traced_mb(calibrate_plancherel),
            "peak_rss_mb": peak_rss_mb}, {}


def _modes(repeats, case):
    """Radial mode tables, |m| <= 31, on the calibration grids
    (`transforms._CAL_POLAR_GRID`, lam <= `_CAL_LAM_MAX` at `_CAL_N_LAMBDA`
    nodes and `_CAL_N_B` boundary angles) and
    the frame and spline grids: the whole table, with the length of its
    plane-wave basis S and the tracemalloc peak of one more call
    (`table_<grid>_traced_mb`, the table included), and its near part
    alone (the radii up to the switch radius) with its entries at the
    grid nodes nearest the near oracle points; then the far part of the
    calibration table and its values at the far oracle points.  The parts
    are the orders of `_radial_modes` and of `_expansion_orders` stacked
    into (lam, m, r) tables.  Then, on the frame and spline grids,
    `f.on_grid(pgrid)` of the seed-0 test function, which builds what it
    reads (`on_grid_<grid>_s`;
    `on_grid_<grid>_traced_mb`, its tracemalloc peak), with its values
    compared as an array."""
    import numpy as np

    from hypersample import transforms as tr
    from hypersample.bandlimited import synthesize
    from hypersample.geometry import SpaceParams
    from hypersample.spectral import build_grid

    def stacked(orders):
        return lambda *args: np.stack(list(orders(*args)), axis=1)

    near, far = stacked(tr._radial_modes), stacked(tr._expansion_orders)
    space = SpaceParams().with_scale(1.0)
    grids = {"calibration": (build_grid(space, tr._CAL_LAM_MAX,
                                        tr._CAL_N_LAMBDA, tr._CAL_N_B),
                             tr.build_polar_grid(*tr._CAL_POLAR_GRID)),
             **{name: _grids(space, name) for name in GRIDS}}
    basis, lengths = tr._plane_wave_basis, []

    def recorded(*args):
        a_max, series = basis(*args)
        lengths.append(len(series))
        return a_max, series

    tr._plane_wave_basis = recorded
    out, arrays = {}, {}
    for name, (grid, pgrid) in grids.items():
        lengths.clear()
        out[f"table_{name}_s"], arrays[f"table_{name}"] = _times(
            lambda: tr.radial_mode_table(grid, pgrid, 31), repeats)
        out[f"table_{name}_basis_length"] = lengths[0]
        out[f"table_{name}_traced_mb"] = _traced_mb(
            lambda: tr.radial_mode_table(grid, pgrid, 31))
        lams, rs = grid.lambda_nodes, pgrid.r_nodes
        rs = rs[rs <= tr._SWITCH_RADIUS]
        out[f"near_{name}_s"], vals = _times(
            lambda: near(lams, rs, tr._default_m_max(grid, pgrid)), repeats)
        li = sorted({int(abs(lams - lam).argmin()) for lam in NEAR_LAMS
                     if lam <= lams[-1]})
        ri = sorted({int(abs(rs - r).argmin()) for r in NEAR_RS
                     if r <= rs[-1]})
        out[f"near_{name}_entries"] = [
            (lams[i], m, rs[k], vals[i, m, k].real, vals[i, m, k].imag)
            for i in li for m in ORACLE_MS for k in ri]
    grid, pgrid = grids["calibration"]
    rs = pgrid.r_nodes[pgrid.r_nodes > tr._SWITCH_RADIUS]
    out["far_s"], _ = _times(
        lambda: far(grid.lambda_nodes, rs, 31), repeats)
    vals = far(np.array(ORACLE_LAMS), np.array(ORACLE_RS), max(ORACLE_MS))
    out["far_entries"] = [
        (lam, m, r, vals[i, m, k].real, vals[i, m, k].imag)
        for i, lam in enumerate(ORACLE_LAMS) for m in ORACLE_MS
        for k, r in enumerate(ORACLE_RS)]
    for name in GRIDS:
        grid, pgrid = grids[name]
        f = synthesize(grid, seed=0)
        out[f"on_grid_{name}_s"], arrays[f"on_grid_{name}"] = _times(
            lambda: f.on_grid(pgrid), repeats)
        out[f"on_grid_{name}_traced_mb"] = _traced_mb(
            lambda: f.on_grid(pgrid))
    return out, arrays


def _series(repeats, case):
    """Chebyshev series after a cold calibration: the polyharmonic kernel
    table for k = 2, 4, 8 at t_max = 4 and for k = 2 at t_max = 6, and
    `inverse_transform` of the frame test function (seed 0) at the points
    of the r = 0.1 lattice (N = 1889), each with the lengths of the series
    `_chebyshev_fit` returned on its first call (for the kernel, the
    plane-wave series before the zonal series); then `spherical_function`
    on 16 Gauss-Legendre lam <= 12 times 24 radii r <= 8 (`spherical_s`)."""
    from hypersample import spectral
    from hypersample.bandlimited import synthesize
    from hypersample.geometry import SpaceParams
    from hypersample.lattice import build_lattice
    from hypersample.splines import polyharmonic_kernel
    from hypersample.transforms import build_polar_grid, inverse_transform

    space = _space()
    fit, lengths = spectral._chebyshev_fit, []

    def recorded(*args):
        series = fit(*args)
        lengths.append(len(series))
        return series

    spectral._chebyshev_fit = recorded
    out, arrays = {}, {}
    for name, (k, t_max) in KERNELS.items():
        lengths.clear()
        out[f"{name}_s"], kern = _times(
            lambda: polyharmonic_kernel(space, k, t_max=t_max), repeats)
        out[f"{name}_series"] = lengths[:len(lengths) // repeats]
        arrays[name] = kern.table_values
    f = synthesize(_grids(space, "frame")[0], seed=0)
    points = build_lattice(0.1, DOMAIN, seed=0).points
    lengths.clear()
    out["inverse_s"], arrays["inverse"] = _times(
        lambda: inverse_transform(f.coeffs, points), repeats)
    out["inverse_series"] = lengths[:len(lengths) // repeats]
    out["inverse_n_points"] = int(points.size)
    lams = spectral.build_grid(SpaceParams(), 12.0, 16, 16).lambda_nodes
    rs = build_polar_grid(8.0, 24, 16).r_nodes
    out["spherical_s"], arrays["spherical"] = _times(
        lambda: spectral.spherical_function(lams[:, None], rs[None, :]),
        repeats)
    return out, arrays


def _lattice(repeats, case):
    """`build_lattice(r, 1.4, seed=0)` for each lattice radius, with the
    tracemalloc peak of one more build (`lattice_<r>_traced_mb`), N,
    `n_mult`, `certify_cover`, `certify_multiplicity` and a digest of the
    points."""
    from hypersample.lattice import (build_lattice, certify_cover,
                                     certify_multiplicity)

    out = {}
    for r in LATTICE_RADII:
        out[f"lattice_{r}_s"], lat = _times(
            lambda: build_lattice(r, DOMAIN, seed=0), repeats)
        out.update({f"lattice_{r}_traced_mb": _traced_mb(
                        lambda: build_lattice(r, DOMAIN, seed=0)),
                    f"lattice_{r}_n_points": len(lat),
                    f"lattice_{r}_n_mult": lat.n_mult,
                    f"lattice_{r}_cover": certify_cover(lat),
                    f"lattice_{r}_multiplicity": certify_multiplicity(lat),
                    f"lattice_{r}_points_sha256": _digest(lat.points)})
    return out, {}


def _frame(repeats, r):
    """The frame and the interpolant of the frame test function (seed 0)
    from the lattice of radius r on the 1.4 domain: the whole of it
    (`build_frame_s`), the time inside `sampling._band_factor`
    (`band_factor_s`: the plane-wave series, the frame directions, the
    lattice's Chebyshev planes and their DFT over the boundary angles, and
    the factor C), the time inside `sampling._ball_directions`
    (`directions_s`, part of `band_factor_s`: the ball's mode rows, their
    QRs and the per-mode SVDs) and the rest (`spectrum_s`: the frame
    spectrum and the interpolant from C), with N, rank, frame bounds, the
    relative error on the polar grid, the peak RSS before and after, the
    tracemalloc peak of one more interpolant through `sampling.reconstruct`
    (`frame_<r>_traced_mb`, its frame included) and a digest of the rank
    and bounds and of the interpolant's coefficients (`reconstruct` is also
    compared as an array)."""
    import numpy as np

    from hypersample import sampling
    from hypersample.bandlimited import synthesize
    from hypersample.lattice import build_lattice

    grid, pgrid = _grids(_space(), "frame")
    f = synthesize(grid, seed=0)
    lat = build_lattice(r, DOMAIN, seed=0)
    samples = sampling.point_samples(f, lat)
    ref = f.on_grid(pgrid)

    rss_before = _rss_mb()

    inside = {}

    def timed(call, key):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                inside[key] += time.perf_counter() - start
        return wrapper

    keys = {"_band_factor": "band_factor_s",
            "_ball_directions": "directions_s"}
    for name, key in keys.items():
        setattr(sampling, name, timed(getattr(sampling, name), key))
    out = {k: [] for k in (*keys.values(), "spectrum_s", "build_frame_s")}
    for _ in range(repeats):
        inside.update(dict.fromkeys(keys.values(), 0.0))
        start = time.perf_counter()
        frame = sampling.build_frame(samples, grid=grid)
        end = time.perf_counter()
        for key in keys.values():
            out[key].append(inside[key])
        out["spectrum_s"].append(end - start - inside["band_factor_s"])
        out["build_frame_s"].append(end - start)
    lower, upper = frame.frame_bounds
    rec = frame.function
    coeffs = rec.coeffs.values
    out.update(
        n_points=len(lat), rank=frame.rank, frame_lower=lower,
        frame_upper=upper,
        rel_error=float(pgrid.norm(rec.on_grid(pgrid) - ref) / pgrid.norm(ref)),
        **_memory(rss_before),
        frame_sha256=_digest(
            np.array([frame.rank, lower, upper]), coeffs))
    out[f"frame_{r}_traced_mb"] = _traced_mb(
        lambda: sampling.reconstruct(samples, grid=grid))
    return out, {"reconstruct": coeffs}


def _evaluate(repeats, case):
    """`SplineInterpolant.evaluate` of the `spline_reconstruct` interpolant
    (r = 0.8, domain 2, k = 2, seed 0) on its 160 x 96 polar grid
    (15,360 x 83 pairs), with the relative L2 error against the sampled
    function, the Lagrangian defect, the peak RSS before and after, and a
    digest of the values."""
    from hypersample.bandlimited import synthesize
    from hypersample.lattice import build_lattice
    from hypersample.sampling import point_samples
    from hypersample.splines import build_splines, spline_interpolate

    space = _space()
    grid, pgrid = _grids(space, "spline")
    f = synthesize(grid, seed=0)
    lat = build_lattice(0.8, 2.0, seed=0)
    system = build_splines(lat, 2, space=space)
    interp = spline_interpolate(system, point_samples(f, lat))
    points, ref = pgrid.points, f.on_grid(pgrid)
    rss_before = _rss_mb()
    times, values = _times(lambda: interp.evaluate(points), repeats)
    return {"evaluate_s": times, "n_points": len(lat),
            "n_evaluated": int(points.size),
            "rel_error": pgrid.norm(values - ref) / pgrid.norm(ref),
            "lagrangian_defect": system.lagrangian_defect,
            **_memory(rss_before), "values_sha256": _digest(values)}, {}


def _splines(repeats, case):
    """`build_splines(lat, 2)` on the r = 0.1 lattice of the 1.4 domain
    (N = 1889), which ends `SingularKernel` as in `theorem73`: the whole
    call, and its assembly (`assembly_s`, from the end of
    `polyharmonic_kernel` to the kernel matrix reaching
    `numpy.linalg.cholesky`; `assembly_rss_mb` at that point of the first
    call), with the outcome, the peak RSS before and after, and a digest of
    the kernel matrix."""
    import numpy as np

    from hypersample import splines
    from hypersample.errors import SingularKernel
    from hypersample.lattice import build_lattice

    space = _space()
    lat = build_lattice(0.1, DOMAIN, seed=0)
    seen: dict = {"assembly_s": []}
    kernel, cholesky = splines.polyharmonic_kernel, np.linalg.cholesky

    def traced_kernel(*args, **kwargs):
        result = kernel(*args, **kwargs)
        seen["kernel_end"] = time.perf_counter()
        return result

    def traced_cholesky(a):
        seen.setdefault("assembly_rss_mb", _rss_mb())
        seen["assembly_s"].append(time.perf_counter() - seen["kernel_end"])
        seen["matrix"] = a
        return cholesky(a)

    def call():
        try:
            splines.build_splines(lat, 2, space=space)
            return "solved"
        except SingularKernel:
            return "SingularKernel"

    splines.polyharmonic_kernel = traced_kernel
    np.linalg.cholesky = traced_cholesky
    rss_before = _rss_mb()
    times, outcome = _times(call, repeats)
    return {"build_splines_s": times, "assembly_s": seen["assembly_s"],
            "outcome": outcome, "n_points": len(lat),
            "assembly_rss_mb": seen["assembly_rss_mb"],
            **_memory(rss_before),
            "matrix_sha256": _digest(seen["matrix"])}, {}


def _theorem73(repeats, case):
    """`cli.run` of `configs/theorem73.ini` into the working directory,
    after a cold calibration that the timer leaves out, with the exit code,
    the peak RSS before and after, and a digest of `results.csv`."""
    from hypersample import cli

    _space()
    os.environ["HYPERSAMPLE_OUTPUT_ROOT"] = os.getcwd()
    cfg = cli.load_config(str(ROOT / "configs" / "theorem73.ini"))
    rss_before = _rss_mb()
    times, code = _times(lambda: cli.run(cfg), repeats)
    results = Path.cwd() / "theorem73" / "results.csv"
    return {"run_s": times, "exit_code": code, **_memory(rss_before),
            "results_sha256": hashlib.sha256(results.read_bytes()).hexdigest()
            }, {}


Stage = namedtuple("Stage", "worker procs repeats cases")
STAGES = {
    "setup": Stage(_setup, 8, 1, (None,)),
    "modes": Stage(_modes, 3, 3, (None,)),
    "series": Stage(_series, 5, 5, (None,)),
    "lattice": Stage(_lattice, 3, 3, (None,)),
    "frame": Stage(_frame, 3, 3, (0.4, 0.2, 0.1, 0.04, 0.025)),
    "evaluate": Stage(_evaluate, 5, 3, (None,)),
    "splines": Stage(_splines, 5, 3, (None,)),
    "theorem73": Stage(_theorem73, 5, 1, (None,)),
}


@functools.cache
def _mpmath_mode(lam: float, m: int, r: float) -> complex:
    """Phi_{lam, m}(r) by 30-digit quadrature of the circle integral."""
    import mpmath as mp

    with mp.workdps(30):
        r, expo = mp.mpf(r), mp.mpf(-0.5) + 1j * mp.mpf(lam)
        splits = [0] + [mp.exp(-r) * 4**k for k in range(12)
                        if mp.exp(-r) * 4**k < mp.pi] + [mp.pi]
        return complex(mp.quad(lambda t: (mp.cosh(r) - mp.sinh(r) * mp.cos(t))
                               ** expo * mp.cos(m * t), splits) / mp.pi)


def _run(src: Path, stage: str, case) -> tuple[dict, dict]:
    """One worker process on the side whose package lives in src."""
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    cmd = [sys.executable, __file__, "--worker", stage]
    if case is not None:
        cmd += ["--case", repr(case)]
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True)
        if proc.returncode:
            sys.exit(f"worker {stage} {case} failed on {src}:\n{proc.stderr}")
        dump = Path(cwd) / "arrays.npz"
        arrays = {}
        if dump.exists():
            with np.load(dump) as data:
                arrays = dict(data)
    return json.loads(proc.stdout.splitlines()[-1]), arrays


def _summary(runs: list[dict]) -> dict:
    out = {}
    for key, first in runs[0].items():
        values = [run[key] for run in runs]
        if key.endswith("_s"):
            times = [t for v in values for t in (v if isinstance(v, list)
                                                 else [v])]
            out[key] = {"median": statistics.median(times), "runs": times}
        elif key.endswith("_mb"):
            out[key] = statistics.median(values)
        elif key.endswith("_entries"):
            out[key.removesuffix("_entries") + "_max_abs_error_vs_mpmath"] = \
                max(abs(complex(re, im) - _mpmath_mode(lam, m, r))
                    for lam, m, r, re, im in first)
        else:
            out[key] = first
    return out


def _against(runs: dict, arrays: dict) -> dict:
    """Head against base: digests, other fields and arrays."""
    import numpy as np

    digests = [{k: v for k, v in run.items() if k.endswith("_sha256")}
               for side in runs.values() for run in side]
    base, head = runs["base"][0], runs["head"][0]
    out = {"differing_fields": sorted(
        k for k in head if not k.endswith(("_s", "_mb"))
        and head[k] != base.get(k))}
    if digests[0]:
        out["outputs_equal"] = all(d == digests[0] for d in digests)
    for name, ref in arrays["base"].items():
        got = arrays["head"][name]
        if got.shape != ref.shape:
            out[f"{name}_shapes"] = [list(ref.shape), list(got.shape)]
            continue
        out[f"{name}_max_rel_diff"] = float(
            np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, epilog="\n".join(
            f"{name}: {stage.worker.__doc__}" for name, stage in STAGES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git revision to compare against; it "
                                   "must define transforms._CAL_N_LAMBDA "
                                   "and _CAL_N_B")
    ap.add_argument("--stage", action="append", choices=STAGES,
                    help="stage to run; repeat for several (default: all)")
    ap.add_argument("--out", type=Path, help="also write the report here")
    ap.add_argument("--worker", choices=STAGES, help=argparse.SUPPRESS)
    ap.add_argument("--case", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        stage = STAGES[args.worker]
        fields, arrays = stage.worker(stage.repeats, args.case)
        if arrays:
            import numpy as np

            np.savez("arrays.npz", **arrays)
        print(json.dumps(fields))
        return 0
    if not args.base:
        ap.error("--base is required")

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         "BLAS pinned to 2 threads",
              "base": args.base, "stages": {}}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.base, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = [("base", Path(tmp) / "src"), ("head", ROOT / "src")]
        for name in args.stage or STAGES:
            stage, rows = STAGES[name], []
            for case in stage.cases:
                runs, arrays = {"base": [], "head": []}, {}
                for n in range(stage.procs):
                    for side, src in (sides if n % 2 == 0 else sides[::-1]):
                        fields, dumped = _run(src, name, case)
                        runs[side].append(fields)
                        arrays.setdefault(side, dumped)
                rows.append({"case": case, "base": _summary(runs["base"]),
                             "head": _summary(runs["head"]),
                             "head_against_base": _against(runs, arrays)})
                print(name, case, json.dumps(rows[-1]["head_against_base"]),
                      file=sys.stderr)
            report["stages"][name] = {"processes_per_side": stage.procs,
                                      "repeats_per_process": stage.repeats,
                                      "rows": rows}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
