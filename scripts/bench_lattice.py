"""Lattice-build and large-frame timings of this tree against a base revision.

    python3 scripts/bench_lattice.py --base <rev> --out BENCH_7.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`:

- `build_lattice(r, 1.4, seed=0)` for r in 0.4, 0.2, 0.1, 0.05 on both
  sides (the side that runs first alternates with r), and r = 0.025 on this
  tree alone.  Each record holds the median and all repeat times, N,
  `certify_cover`, `n_mult`, `certify_multiplicity`, a digest of the points'
  bytes, and whether points, `n_mult` and both certificates equal the base.
- `build_frame` plus `reconstruct` at r = 0.04 on this tree: the
  `frame_reconstruct` test function (omega = 2, seed 0) on the acceptance
  grids, with the relative error on the radius-1.4 polar grid and the
  process's peak resident set size.

The frame worker calls `synthesize(grid, ...)` and
`build_frame(lat, grid=...)`, which read omega from the spectral grid alone;
it runs on this tree only, and the base side runs only the lattice worker,
so `--base` may be any revision that has `build_lattice`.
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
DOMAIN = 1.4
R_BOTH = (0.4, 0.2, 0.1, 0.05)
R_HEAD = (0.025,)
R_FRAME = 0.04
REPEATS = 3


def _lattice_worker(r: float) -> dict:
    from hypersample.lattice import (build_lattice, certify_cover,
                                     certify_multiplicity)

    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        lat = build_lattice(r, DOMAIN, seed=0)
        times.append(time.perf_counter() - start)
    return {"r": r, "domain_radius": DOMAIN, "seed": 0,
            "median_s": statistics.median(times), "times_s": times,
            "n_points": len(lat), "cover": certify_cover(lat),
            "n_mult": lat.n_mult, "multiplicity": certify_multiplicity(lat),
            "points_sha256": hashlib.sha256(lat.points.tobytes()).hexdigest()}


def _frame_worker(r: float) -> dict:
    import resource

    from hypersample.bandlimited import synthesize
    from hypersample.geometry import SpaceParams
    from hypersample.lattice import build_lattice
    from hypersample.sampling import build_frame, point_samples, reconstruct
    from hypersample.spectral import build_grid
    from hypersample.transforms import build_polar_grid, calibrate_plancherel

    space = SpaceParams().with_scale(calibrate_plancherel().scale)
    grid = build_grid(space, lam_max=8.0, n_lambda=96, n_b=64, omega=2.0)
    pgrid = build_polar_grid(DOMAIN, 160, 96)
    f = synthesize(grid, seed=0)
    lat = build_lattice(r, DOMAIN, seed=0)
    samples = point_samples(f, lat)
    ref = f.on_grid(pgrid)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        frame = build_frame(lat, grid=grid)
        rec = reconstruct(frame, samples)
        times.append(time.perf_counter() - start)
    error = pgrid.norm(rec.on_grid(pgrid) - ref) / pgrid.norm(ref)
    return {"r": r, "domain_radius": DOMAIN, "n_points": len(lat),
            "median_s": statistics.median(times), "times_s": times,
            "rank": frame.rank, "rel_error": float(error),
            "peak_rss_mb_before": rss_before,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def _run(src: Path, kind: str, r: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run(
        [sys.executable, __file__, "--worker", kind, "--r", repr(r)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _same(a: dict, b: dict) -> bool:
    return all(a[k] == b[k] for k in ("points_sha256", "n_mult", "cover",
                                      "multiplicity"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", choices=("lattice", "frame"))
    ap.add_argument("--r", type=float)
    args = ap.parse_args()
    if args.worker:
        work = _lattice_worker if args.worker == "lattice" else _frame_worker
        print(json.dumps(work(args.r)))
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
        base = Path(tmp) / "src"
        for n, r in enumerate(R_BOTH):
            sides = [("base", base), ("head", head)]
            got = {name: _run(src, "lattice", r)
                   for name, src in (sides if n % 2 == 0 else sides[::-1])}
            got["head"]["identical_to_base"] = _same(got["head"], got["base"])
            rows += [dict(side="base", **got["base"]),
                     dict(side="head", **got["head"])]
    for r in R_HEAD:
        rows.append(dict(side="head", **_run(head, "lattice", r)))
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "build_lattice": rows,
        "build_frame_reconstruct": _run(head, "frame", R_FRAME),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
