"""Chebyshev-series stage timings of this tree against a base revision.

    python3 scripts/bench_series.py --base <rev> --out BENCH_14.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`; each kind runs
REPEATS times per side, and the side that runs first alternates with the
repeat.  Each process calibrates cold first (the scale every stage needs),
then times its stage INNER times and keeps the median.  Per side and repeat:

- `calibrate`: the cold `calibrate_plancherel()` itself, with
  |2 pi scale - 1|;
- `kernel`: `polyharmonic_kernel(space, k, t_max=4)` for k = 2, 4, 8;
- `inverse`: `inverse_transform` of the `frame_reconstruct` test function
  (omega = 2, seed 0, lam_max = 8 with 96 nodes, n_b = 64) at the points
  of the r = 0.1 lattice on the radius-1.4 domain (N = 1889);
- `table`: a cold `radial_mode_table` (cache cleared before each call) on
  the `spline_reconstruct` grids (omega = 1, lam_max = 10, domain 2.0) and
  the `frame_reconstruct` grids (omega = 2, lam_max = 8, domain 1.4), 96
  lam nodes, n_b = 64, 160 radii, 96 angles, |m| <= 31.

Beside each time stands its accuracy against the base: max|dK| / K(0) of
the kernel tables, max|d f| / max|f| of the inverse values, max|d Phi| of
the mode tables (|Phi| <= 1), and each side's |2 pi scale - 1|.  The
values of each side's first repeat are compared.  Each stage also records
the lengths of the Chebyshev series it fitted (`spectral._chebyshev_fit`,
in call order: for the kernel, the Busemann series before the zonal series)
and, for the mode tables, the length of the plane-wave basis S they used.

Both sides run this file's worker code.  The `inverse` worker calls
`synthesize(grid, ...)`, which reads omega from the spectral grid alone, so
`--base` must be a revision whose `synthesize` has no `omega` or `space`
argument.
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
REPEATS = 5
INNER = 5
KINDS = ("calibrate", "kernel", "inverse", "table")
ORDERS = (2, 4, 8)
T_MAX = 4.0
# name: (omega, lam_max, domain radius)
TABLES = {"spline": (1.0, 10.0, 2.0), "frame": (2.0, 8.0, 1.4)}


def _fit_lengths(out: list) -> None:
    """Record the length of every series _chebyshev_fit returns."""
    from hypersample import spectral

    fit = spectral._chebyshev_fit

    def wrapper(*args):
        series = fit(*args)
        out.append(len(series))
        return series

    spectral._chebyshev_fit = wrapper


def _median_time(call, reset=lambda: None):
    times, value = [], None
    for _ in range(INNER):
        reset()
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


def _space():
    import numpy as np

    from hypersample.geometry import SpaceParams
    from hypersample.transforms import calibrate_plancherel

    start = time.perf_counter()
    cal = calibrate_plancherel()
    return (SpaceParams().with_scale(cal.scale),
            {"calibrate_s": time.perf_counter() - start,
             "scale_error": abs(2.0 * np.pi * cal.scale - 1.0)})


def _calibrate_worker(dump: Path) -> dict:
    return _space()[1]


def _kernel_worker(dump: Path) -> dict:
    import numpy as np

    from hypersample.splines import polyharmonic_kernel

    space, _ = _space()
    out, arrays = {}, {}
    lengths: list[int] = []
    _fit_lengths(lengths)
    for k in ORDERS:
        lengths.clear()
        out[f"kernel_k{k}_s"], kern = _median_time(
            lambda: polyharmonic_kernel(space, k, t_max=T_MAX))
        out[f"kernel_k{k}_series"] = lengths[:len(lengths) // INNER]
        arrays[f"k{k}"] = kern.table_values
    np.savez(dump, **arrays)
    return out


def _inverse_worker(dump: Path) -> dict:
    import numpy as np

    from hypersample.bandlimited import synthesize
    from hypersample.lattice import build_lattice
    from hypersample.spectral import build_grid
    from hypersample.transforms import inverse_transform

    space, _ = _space()
    grid = build_grid(space, lam_max=8.0, n_lambda=96, n_b=64, omega=2.0)
    f = synthesize(grid, seed=0)
    points = build_lattice(0.1, 1.4, seed=0).points
    lengths: list[int] = []
    _fit_lengths(lengths)
    elapsed, values = _median_time(lambda: inverse_transform(f.coeffs, points))
    np.savez(dump, values=values)
    return {"inverse_s": elapsed, "n_points": int(points.size),
            "inverse_series": lengths[:len(lengths) // INNER]}


def _table_worker(dump: Path) -> dict:
    import numpy as np

    from hypersample import transforms as tr
    from hypersample.spectral import build_grid

    space, _ = _space()
    basis = tr._plane_wave_basis
    s_lengths: list[int] = []

    def recorded(*args):
        a_max, series = basis(*args)
        s_lengths.append(len(series))
        return a_max, series

    tr._plane_wave_basis = recorded
    out, arrays = {}, {}
    for name, (omega, lam_max, domain) in TABLES.items():
        grid = build_grid(space, lam_max, 96, 64, omega)
        pgrid = tr.build_polar_grid(domain, 160, 96)
        s_lengths.clear()
        out[f"table_{name}_s"], table = _median_time(
            lambda: tr.radial_mode_table(grid, pgrid, 31),
            tr._TABLE_CACHE.clear)
        out[f"table_{name}_basis_length"] = s_lengths[0]
        arrays[name] = table
    np.savez(dump, **arrays)
    return out


def _run(src: Path, kind: str, dump: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run([sys.executable, __file__, "--worker", kind,
                          "--dump", str(dump)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    """Median and every repeat of each time; other fields from the first."""
    out = {}
    for key in sorted({k for r in runs for k in r}):
        values = [r[key] for r in runs if key in r]
        out[key] = ({"median": statistics.median(values), "runs": values}
                    if key.endswith("_s") else values[0])
    return out


def _accuracy(dumps: dict) -> dict:
    import numpy as np

    def load(side, kind):
        with np.load(dumps[side, kind]) as data:
            return dict(data)

    acc = {}
    base, head = load("base", "kernel"), load("head", "kernel")
    for k in ORDERS:
        ref = base[f"k{k}"]
        acc[f"kernel_k{k}_max_dK_over_K0"] = float(
            np.max(np.abs(head[f"k{k}"] - ref)) / abs(ref[0]))
    base, head = load("base", "inverse"), load("head", "inverse")
    ref = base["values"]
    acc["inverse_max_df_over_max_f"] = float(
        np.max(np.abs(head["values"] - ref)) / np.max(np.abs(ref)))
    base, head = load("base", "table"), load("head", "table")
    for name in TABLES:
        acc[f"table_{name}_max_dPhi"] = float(
            np.max(np.abs(head[name] - base[name])))
    return acc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", choices=KINDS)
    ap.add_argument("--dump", type=Path)
    args = ap.parse_args()
    if args.worker:
        work = {"calibrate": _calibrate_worker, "kernel": _kernel_worker,
                "inverse": _inverse_worker, "table": _table_worker}
        print(json.dumps(work[args.worker](args.dump)))
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
        dumps = {}
        for rep in range(REPEATS):
            for kind in KINDS:
                for name, src in (sides if rep % 2 == 0 else sides[::-1]):
                    dump = Path(tmp) / f"{name}-{kind}-{rep}.npz"
                    runs[name].append(_run(src, kind, dump))
                    dumps.setdefault((name, kind), dump)
        accuracy = _accuracy(dumps)
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "repeats": REPEATS,
        "inner_repeats": INNER,
        "base_summary": _summary(runs["base"]),
        "head_summary": _summary(runs["head"]),
        "head_against_base": accuracy,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
