"""Stage timings of `build_frame` of this tree against a base revision.

    python3 scripts/bench_frame.py --base <rev> --out BENCH_9.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`.  For r in
0.4, 0.2, 0.1, 0.04 (N = 123, 477, 1889, 11,771 on the radius-1.4 lattice)
each side runs in PROCS processes, base and head alternating, and each
process builds the `frame_reconstruct` frame (omega = 2, seed 0, the
acceptance grids) REPEATS times and reconstructs its test function.

Both sides run this file's worker code.  It calls `synthesize(grid, ...)`
and `build_frame(lat, grid=...)`, which read omega from the spectral grid
alone, so `--base` must be a revision whose `synthesize` and `build_frame`
have no `omega` or `space` argument.

Stage times come from timing wrappers installed in the worker, so both
sides are measured by the same code:

- `mode_qr_s`: `numpy.linalg.qr` inside `sampling._band_factor`;
- `mode_svd_s`: `numpy.linalg.svd` inside `_band_factor` (the per-mode SVDs);
- `rows_dft_s`: the rest of `_band_factor`: the Chebyshev rows
  e^{rho A} T_k(A / a_max) (made one degree at a time, as planes, since
  `spectral._horocycle_planes`), their DFT over the boundary angles and
  the products that form the factor C;
- `svd_c_s`: `numpy.linalg.svd` outside `_band_factor` (the thin SVD of C);
- `build_frame_s` and `reconstruct_s`: the two calls.

Each record holds the median of every stage over all PROCS x REPEATS
builds, the rank, frame bounds and relative error on the radius-1.4 polar
grid, and the median over processes of the peak resident set size.
"""

from __future__ import annotations

import argparse
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
DOMAIN = 1.4
R_VALUES = (0.4, 0.2, 0.1, 0.04)
PROCS = 3
REPEATS = 3
STAGES = ("rows_dft_s", "mode_qr_s", "mode_svd_s", "svd_c_s",
          "build_frame_s", "reconstruct_s")


def _timed(fn, clock: dict, key: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            clock[key] += time.perf_counter() - start
    return wrapper


def _worker(r: float) -> dict:
    import resource
    import warnings

    import numpy as np

    from hypersample import sampling
    from hypersample.bandlimited import synthesize
    from hypersample.errors import IllConditionedWarning
    from hypersample.geometry import SpaceParams
    from hypersample.lattice import build_lattice
    from hypersample.spectral import build_grid
    from hypersample.transforms import build_polar_grid, calibrate_plancherel

    warnings.simplefilter("ignore", IllConditionedWarning)
    space = SpaceParams().with_scale(calibrate_plancherel().scale)
    grid = build_grid(space, lam_max=8.0, n_lambda=96, n_b=64, omega=2.0)
    pgrid = build_polar_grid(DOMAIN, 160, 96)
    f = synthesize(grid, seed=0)
    lat = build_lattice(r, DOMAIN, seed=0)
    samples = sampling.point_samples(f, lat)
    ref = f.on_grid(pgrid)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    clock = dict.fromkeys(("factor", "qr", "svd", "svd_in_factor"), 0.0)
    qr, svd, factor = np.linalg.qr, np.linalg.svd, sampling._band_factor

    def band_factor(*args):
        before = clock["svd"]
        try:
            return _timed(factor, clock, "factor")(*args)
        finally:
            clock["svd_in_factor"] += clock["svd"] - before

    np.linalg.qr = _timed(qr, clock, "qr")
    np.linalg.svd = _timed(svd, clock, "svd")
    sampling._band_factor = band_factor
    stages = {k: [] for k in STAGES}
    for _ in range(REPEATS):
        clock.update(dict.fromkeys(clock, 0.0))
        start = time.perf_counter()
        frame = sampling.build_frame(lat, grid=grid)
        mid = time.perf_counter()
        rec = sampling.reconstruct(frame, samples)
        end = time.perf_counter()
        in_factor = clock["qr"] + clock["svd_in_factor"]
        stages["rows_dft_s"].append(clock["factor"] - in_factor)
        stages["mode_qr_s"].append(clock["qr"])
        stages["mode_svd_s"].append(clock["svd_in_factor"])
        stages["svd_c_s"].append(clock["svd"] - clock["svd_in_factor"])
        stages["build_frame_s"].append(mid - start)
        stages["reconstruct_s"].append(end - mid)
    np.linalg.qr, np.linalg.svd, sampling._band_factor = qr, svd, factor
    error = pgrid.norm(rec.on_grid(pgrid) - ref) / pgrid.norm(ref)
    return {"n_points": len(lat), "stages": stages, "rank": frame.rank,
            "frame_lower": frame.frame_bounds[0],
            "frame_upper": frame.frame_bounds[1], "rel_error": float(error),
            "peak_rss_mb_before": rss_before,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _run(src: Path, r: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--r", repr(r)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(side: str, r: float, runs: list[dict]) -> dict:
    last = runs[-1]
    row = {"side": side, "r": r, "domain_radius": DOMAIN,
           "n_points": last["n_points"]}
    for key in STAGES:
        row[key] = statistics.median(t for run in runs
                                     for t in run["stages"][key])
    row["build_frame_times_s"] = [t for run in runs
                                  for t in run["stages"]["build_frame_s"]]
    for key in ("rank", "frame_lower", "frame_upper", "rel_error"):
        row[key] = last[key]
    for key in ("peak_rss_mb_before", "peak_rss_mb"):
        row[key] = statistics.median(run[key] for run in runs)
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", action="store_true")
    ap.add_argument("--r", type=float)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(_worker(args.r)))
        return 0
    if not args.base:
        ap.error("--base is required")

    head = ROOT / "src"
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.base, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = [("base", Path(tmp) / "src"), ("head", head)]
        for r in R_VALUES:
            runs = {"base": [], "head": []}
            for n in range(PROCS):
                for name, src in (sides if n % 2 == 0 else sides[::-1]):
                    runs[name].append(_run(src, r))
            rows += [_summary(name, r, runs[name]) for name, _ in sides]
            print(json.dumps(rows[-2:]), file=sys.stderr)
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "processes_per_side": PROCS,
        "repeats_per_process": REPEATS,
        "build_frame": rows,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
