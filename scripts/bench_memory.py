"""Peak memory and time of the pairwise stages, this tree against a base.

    python3 scripts/bench_memory.py --base <rev> --out BENCH_16.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`.  Each stage
runs in PROCS processes per side, base and head alternating.  A process
calibrates, builds the stage's inputs, reads its peak resident set size
(`ru_maxrss`), then runs the stage INNER times (once for `theorem73`) and
reads the peak again.  The stages:

- `evaluate`: `SplineInterpolant.evaluate` of the k = 2 interpolant on the
  `spline_reconstruct` lattice (r = 0.8, domain 2, N = 83) at the points of
  its 160 x 96 polar grid (15,360 x 83 pairs);
- `build_splines`: `build_splines(lat, 2)` on the r = 0.1 lattice of the
  radius-1.4 domain (N = 1889), which ends `SingularKernel` as in
  `theorem73`.  `assembly_s` (median) and `assembly_rss_mb` (first call)
  stop where the kernel matrix reaches `numpy.linalg.cholesky`;
- `build_frame`: `build_frame` on the same lattice with the
  `frame_reconstruct` grids (omega = 2, lam_max = 8, 96 nodes, n_b = 64);
- `build_lattice`: `build_lattice(0.1, 1.4, seed=0)`;
- `theorem73`: `cli.run` of `configs/theorem73.ini`, calibration included.

Each record holds the median time over all PROCS x INNER calls, the medians
over processes of the peak RSS before the stage and at its end, and
`outputs_equal`: whether the SHA-256 digest of the stage's output (the
evaluated values, the assembled kernel matrix, the frame's left vectors,
synthesis and bounds, the lattice points and multiplicity, and
`results.csv`) is the same in every process of both sides.

Both sides run this file's worker code, which calls
`build_splines(lat, k, space=...)` and `build_frame(lat, grid=...)`, so
`--base` must be a revision with those signatures.
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
PROCS = 5
INNER = 3
STAGES = ("evaluate", "build_splines", "build_frame", "build_lattice",
          "theorem73")


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _timed(call, repeats: int) -> tuple[list[float], object]:
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return times, value


def _worker(stage: str) -> dict:
    import warnings

    import numpy as np

    from hypersample import cli, splines
    from hypersample.bandlimited import synthesize
    from hypersample.errors import IllConditionedWarning, SingularKernel
    from hypersample.geometry import SpaceParams
    from hypersample.lattice import build_lattice
    from hypersample.sampling import build_frame, point_samples
    from hypersample.spectral import build_grid
    from hypersample.transforms import build_polar_grid, calibrate_plancherel

    warnings.simplefilter("ignore", IllConditionedWarning)
    space = SpaceParams().with_scale(calibrate_plancherel().scale)
    out: dict = {}
    if stage == "evaluate":
        grid = build_grid(space, lam_max=10.0, n_lambda=96, n_b=64, omega=1.0)
        lat = build_lattice(0.8, 2.0, seed=0)
        interp = splines.spline_interpolate(
            splines.build_splines(lat, 2, space=space),
            point_samples(synthesize(grid, seed=0), lat))
        points = build_polar_grid(2.0, 160, 96).points
        out["rss_before_mb"] = _rss_mb()
        out["times"], values = _timed(lambda: interp.evaluate(points), INNER)
        out["digest"] = _digest(values)
    elif stage == "build_splines":
        lat = build_lattice(0.1, 1.4, seed=0)
        seen: dict = {}
        kernel, cholesky = splines.polyharmonic_kernel, np.linalg.cholesky

        def traced_kernel(*args, **kwargs):
            result = kernel(*args, **kwargs)
            seen["kernel_end"] = time.perf_counter()
            return result

        def traced_cholesky(a):
            seen.setdefault("assembly_rss_mb", _rss_mb())
            seen.setdefault("assembly_s", []).append(
                time.perf_counter() - seen["kernel_end"])
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
        out["rss_before_mb"] = _rss_mb()
        out["times"], out["outcome"] = _timed(call, INNER)
        splines.polyharmonic_kernel, np.linalg.cholesky = kernel, cholesky
        out["assembly_s"] = statistics.median(seen["assembly_s"])
        out["assembly_rss_mb"] = seen["assembly_rss_mb"]
        out["digest"] = _digest(seen["matrix"])
    elif stage == "build_frame":
        grid = build_grid(space, lam_max=8.0, n_lambda=96, n_b=64, omega=2.0)
        lat = build_lattice(0.1, 1.4, seed=0)
        out["rss_before_mb"] = _rss_mb()
        out["times"], frame = _timed(lambda: build_frame(lat, grid=grid),
                                     INNER)
        bounds = np.array(frame.frame_bounds + (frame.raw_min,))
        out["digest"] = _digest(frame.left, frame.synthesis, bounds)
    elif stage == "build_lattice":
        out["rss_before_mb"] = _rss_mb()
        out["times"], lat = _timed(lambda: build_lattice(0.1, 1.4, seed=0),
                                   INNER)
        out["digest"] = _digest(lat.points, np.array([lat.n_mult]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["HYPERSAMPLE_OUTPUT_ROOT"] = tmp
            cfg = cli.load_config(str(ROOT / "configs" / "theorem73.ini"))
            out["rss_before_mb"] = _rss_mb()
            out["times"], out["exit_code"] = _timed(lambda: cli.run(cfg), 1)
            out["digest"] = hashlib.sha256(
                (Path(tmp) / "theorem73" / "results.csv").read_bytes()
            ).hexdigest()
    out["peak_rss_mb"] = _rss_mb()
    return out


def _run(src: Path, stage: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run(
        [sys.executable, __file__, "--worker", stage],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    times = [t for run in runs for t in run["times"]]
    row = {"median_s": statistics.median(times), "times_s": times}
    for key in ("rss_before_mb", "peak_rss_mb", "assembly_s",
                "assembly_rss_mb"):
        if key in runs[0]:
            row[key] = statistics.median(run[key] for run in runs)
    row["stage_rss_mb"] = row["peak_rss_mb"] - row["rss_before_mb"]
    for key in ("outcome", "exit_code"):
        if key in runs[0]:
            row[key] = runs[0][key]
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", choices=STAGES)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0
    if not args.base:
        ap.error("--base is required")

    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "processes_per_side": PROCS,
        "repeats_per_process": INNER,
        "stages": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.base, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = [("base", Path(tmp) / "src"), ("head", ROOT / "src")]
        for stage in STAGES:
            runs = {"base": [], "head": []}
            for n in range(PROCS):
                for name, src in (sides if n % 2 == 0 else sides[::-1]):
                    runs[name].append(_run(src, stage))
            digests = {run["digest"] for side in runs.values() for run in side}
            row = {name: _summary(runs[name]) for name, _ in sides}
            row["outputs_equal"] = len(digests) == 1
            report["stages"][stage] = row
            print(stage, json.dumps(row), file=sys.stderr)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
