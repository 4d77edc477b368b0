"""Start-up, lattice and spline-evaluation timings of this tree against a base revision.

    python3 scripts/bench_setup.py --base <rev> --out BENCH_12.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`; each kind runs
REPEATS times per side, and the side that runs first alternates with the
repeat.  Per side and repeat:

- `setup`: the import of `hypersample.cli` (what the scenario bench's
  `setup_s` starts with), the scipy modules it loaded, then a cold
  `calibrate_plancherel()` with |2 pi scale - 1|, the Parseval spread and
  the process's peak resident set size after it;
- `lattice`: `build_lattice(r, 1.4, seed=0)` for r = 0.4, 0.2, 0.1, 0.05
  and 0.025, one build each, with N, `n_mult`, `certify_cover` and a
  digest of the points' bytes (the summary says whether they equal the
  base's);
- `spline`: the `spline_reconstruct` interpolant (r = 0.8, domain 2, k = 2,
  omega = 1, seed 0) evaluated by `SplineInterpolant.evaluate` on the
  scenario's 160 x 96 polar grid, with the relative L2 error against the
  sampled function and the Lagrangian defect.

The summary holds the median and every repeat of each time, with the
stage's accuracy numbers beside it.

Both sides run this file's worker code.  The `spline` worker calls
`synthesize(grid, ...)`, which reads omega from the spectral grid alone, so
`--base` must be a revision whose `synthesize` has no `omega` or `space`
argument.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 8
KINDS = ("setup", "lattice", "spline")
DOMAIN = 1.4
RADII = (0.4, 0.2, 0.1, 0.05, 0.025)


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup_worker() -> dict:
    start = time.perf_counter()
    import hypersample.cli  # noqa: F401
    import_s = time.perf_counter() - start
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    import numpy as np

    from hypersample.transforms import calibrate_plancherel

    start = time.perf_counter()
    cal = calibrate_plancherel()
    return {"import_s": import_s, "scipy_modules": len(scipy),
            "calibrate_s": time.perf_counter() - start,
            "scale_error": abs(2.0 * np.pi * cal.scale - 1.0),
            "spread": cal.spread, "peak_rss_mb": _rss_mb()}


def _lattice_worker() -> dict:
    from hypersample.lattice import build_lattice, certify_cover

    out = {}
    for r in RADII:
        start = time.perf_counter()
        lat = build_lattice(r, DOMAIN, seed=0)
        out[f"lattice_{r}_s"] = time.perf_counter() - start
        out[f"lattice_{r}"] = {
            "n_points": len(lat), "n_mult": lat.n_mult,
            "cover": certify_cover(lat),
            "points_sha256": hashlib.sha256(lat.points.tobytes()).hexdigest()}
    return out


def _spline_worker() -> dict:
    from hypersample.bandlimited import synthesize
    from hypersample.geometry import SpaceParams
    from hypersample.lattice import build_lattice
    from hypersample.sampling import point_samples
    from hypersample.spectral import build_grid
    from hypersample.splines import build_splines, spline_interpolate
    from hypersample.transforms import build_polar_grid, calibrate_plancherel

    space = SpaceParams().with_scale(calibrate_plancherel().scale)
    grid = build_grid(space, 10.0, 96, 64, 1.0)
    pgrid = build_polar_grid(2.0, 160, 96)
    f = synthesize(grid, seed=0)
    lat = build_lattice(0.8, 2.0, seed=0)
    system = build_splines(lat, 2, space=space)
    interp = spline_interpolate(system, point_samples(f, lat))
    points = pgrid.points
    start = time.perf_counter()
    values = interp.evaluate(points)
    evaluate_s = time.perf_counter() - start
    ref = f.on_grid(pgrid)
    return {"evaluate_s": evaluate_s, "n_points": len(lat),
            "n_evaluated": int(points.size),
            "rel_error": pgrid.norm(values - ref) / pgrid.norm(ref),
            "lagrangian_defect": system.lagrangian_defect}


def _run(src: Path, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run([sys.executable, __file__, "--worker", kind],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def _times(runs: list[dict], key: str) -> dict:
    times = [r[key] for r in runs if key in r]
    return {"median": statistics.median(times), "runs": times}


def _summary(runs: list[dict]) -> dict:
    setup = [r for r in runs if "import_s" in r]
    spline = [r for r in runs if "evaluate_s" in r]
    lattice = [r for r in runs if "lattice_0.4_s" in r]
    out = {
        "import_s": _times(setup, "import_s"),
        "scipy_modules_after_import": max(r["scipy_modules"] for r in setup),
        "calibrate_s": _times(setup, "calibrate_s"),
        "setup_s": {"median": statistics.median(
            r["import_s"] + r["calibrate_s"] for r in setup)},
        "calibration_scale_error": setup[0]["scale_error"],
        "calibration_spread": setup[0]["spread"],
        "calibration_peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in setup),
        "spline_evaluate_s": _times(spline, "evaluate_s"),
    }
    out.update({k: spline[0][k] for k in ("n_points", "n_evaluated",
                                           "rel_error", "lagrangian_defect")})
    for r in RADII:
        out[f"build_lattice_{r}_s"] = _times(lattice, f"lattice_{r}_s")
        out[f"build_lattice_{r}"] = lattice[0][f"lattice_{r}"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", choices=KINDS)
    args = ap.parse_args()
    if args.worker:
        work = {"setup": _setup_worker, "lattice": _lattice_worker,
                "spline": _spline_worker}[args.worker]
        print(json.dumps(work()))
        return 0
    if not args.base:
        ap.error("--base is required")

    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.base, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = [("base", Path(tmp) / "src"), ("head", ROOT / "src")]
        for rep in range(REPEATS):
            for kind in KINDS:
                for name, src in (sides if rep % 2 == 0 else sides[::-1]):
                    runs[name].append(_run(src, kind))
    base, head = _summary(runs["base"]), _summary(runs["head"])
    for r in RADII:
        head[f"build_lattice_{r}"]["identical_to_base"] = (
            head[f"build_lattice_{r}"] == base[f"build_lattice_{r}"])
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "repeats": REPEATS,
        "base_summary": base,
        "head_summary": head,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
