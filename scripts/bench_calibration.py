"""Calibration and radial mode-table timings of this tree against a base revision.

    python3 scripts/bench_calibration.py --base <rev> --out BENCH_10.json

The base revision is exported with `git archive` into a temporary directory.
Every measurement runs in a fresh interpreter with the BLAS pool pinned to
two threads, importing `hypersample` from the side's `src/`; the side that
runs first alternates with the repeat.  Per side and repeat:

- `calibrate`: the import of `hypersample.transforms`, then a cold
  `calibrate_plancherel()`, with |2 pi scale - 1|, the Parseval spread and
  the process's peak resident set size;
- `table`: a cold `radial_mode_table` on the calibration grids (r_max = 8,
  128 radii, lam_max = 24 with 96 nodes, |m| <= 31);
- `far`: the far part of that table alone (the radii above the switch
  radius), through whichever far route the side has, plus that route's
  values at the oracle points, whose largest error against 30-digit mpmath
  quadrature of the defining circle integral is reported beside the time;
- `near`: the near part of a table alone (the radii up to the switch
  radius, `_modes_by_quadrature`), cold, on three grids: the calibration
  grids, and the `frame_reconstruct` (domain 1.4, omega 2) and
  `spline_reconstruct` (domain 2.0, omega 1) scenario grids (lam_max = 10
  with 96 nodes, 160 radii, 96 angles).  Beside each time: the largest
  error against mpmath of that table's entries at the grid nodes nearest
  the near oracle points (radii inside the grid's near part, lam inside
  its range).
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
KINDS = ("calibrate", "table", "far", "near")
ORACLE_LAMS = (6e-4, 0.3, 3.0, 24.0)
ORACLE_RS = (4.5, 6.0, 8.0)
ORACLE_MS = (0, 5, 31)
NEAR_LAMS = (6e-4, 0.3, 3.0, 10.0)
NEAR_RS = (0.5, 1.4, 2.0, 3.0)


def _calibration_grids():
    from hypersample.geometry import SpaceParams
    from hypersample.spectral import build_grid
    from hypersample.transforms import build_polar_grid

    grid = build_grid(SpaceParams().with_scale(1.0), 24.0, 96, 64)
    return grid, build_polar_grid(8.0, 128, 128)


def _near_grids():
    """(name, grid, polar grid) of the three near-table benchmarks."""
    from hypersample.geometry import SpaceParams
    from hypersample.spectral import build_grid
    from hypersample.transforms import build_polar_grid

    space = SpaceParams().with_scale(1.0)
    grid, pgrid = _calibration_grids()
    return [("calibration", grid, pgrid),
            ("frame", build_grid(space, 10.0, 96, 64, 2.0),
             build_polar_grid(1.4, 160, 96)),
            ("spline", build_grid(space, 10.0, 96, 64, 1.0),
             build_polar_grid(2.0, 160, 96))]


def _near_entries(grid, rs, vals) -> list:
    """(lam, m, r, re, im) of vals[lam, m, r] at the grid nodes nearest the
    near oracle points."""
    lams = grid.lambda_nodes
    li = sorted({int(abs(lams - lam).argmin()) for lam in NEAR_LAMS
                 if lam <= lams[-1]})
    ri = sorted({int(abs(rs - r).argmin()) for r in NEAR_RS if r <= rs[-1]})
    return [(float(lams[i]), m, float(rs[k]), vals[i, m, k].real,
             vals[i, m, k].imag) for i in li for m in ORACLE_MS for k in ri]


def _far_route():
    """The side's far-field route as f(lams, rs, m_max)."""
    from hypersample import transforms as tr

    if hasattr(tr, "_modes_by_expansion"):
        return tr._modes_by_expansion
    return lambda lams, rs, m_max: tr._march_modes(lams, rs, m_max,
                                                   tr._SWITCH_RADIUS)


def _worker(kind: str) -> dict:
    import resource

    start = time.perf_counter()
    import numpy as np

    from hypersample import transforms as tr
    import_s = time.perf_counter() - start
    out = {"import_s": import_s}
    if kind == "calibrate":
        start = time.perf_counter()
        cal = tr.calibrate_plancherel()
        out.update(calibrate_s=time.perf_counter() - start,
                   scale_error=abs(2.0 * np.pi * cal.scale - 1.0),
                   spread=cal.spread)
    elif kind == "table":
        grid, pgrid = _calibration_grids()
        start = time.perf_counter()
        tr.radial_mode_table(grid, pgrid, 31)
        out["table_s"] = time.perf_counter() - start
    elif kind == "near":
        for name, grid, pgrid in _near_grids():
            rs = pgrid.r_nodes[pgrid.r_nodes <= tr._SWITCH_RADIUS]
            m_max = tr._default_m_max(grid, pgrid)
            start = time.perf_counter()
            vals = tr._modes_by_quadrature(grid.lambda_nodes, rs, m_max)
            out[f"near_{name}_s"] = time.perf_counter() - start
            out[f"near_{name}_entries"] = _near_entries(grid, rs, vals)
    else:
        grid, pgrid = _calibration_grids()
        far = _far_route()
        rs = pgrid.r_nodes[pgrid.r_nodes > tr._SWITCH_RADIUS]
        start = time.perf_counter()
        far(grid.lambda_nodes, rs, 31)
        out["far_s"] = time.perf_counter() - start
        vals = far(np.array(ORACLE_LAMS), np.array(ORACLE_RS), max(ORACLE_MS))
        out["oracle_values"] = [[[(v.real, v.imag) for v in vals[i, m]]
                                 for m in ORACLE_MS]
                                for i in range(len(ORACLE_LAMS))]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _mpmath_mode(lam: float, m: int, r: float) -> complex:
    import mpmath as mp

    with mp.workdps(30):
        r, expo = mp.mpf(r), mp.mpf(-0.5) + 1j * mp.mpf(lam)
        splits = [0] + [mp.exp(-r) * 4**k for k in range(12)
                        if mp.exp(-r) * 4**k < mp.pi] + [mp.pi]
        return complex(mp.quad(lambda t: (mp.cosh(r) - mp.sinh(r) * mp.cos(t))
                               ** expo * mp.cos(m * t), splits) / mp.pi)


def _run(src: Path, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    out = subprocess.run([sys.executable, __file__, "--worker", kind],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict], refs: dict) -> dict:
    out = {}
    near = [f"near_{name}" for name in ("calibration", "frame", "spline")]
    for key in ("import_s", "calibrate_s", "table_s", "far_s",
                *(f"{n}_s" for n in near)):
        times = [r[key] for r in runs if key in r]
        out[key] = {"median": statistics.median(times), "runs": times}
    cal = [r for r in runs if "scale_error" in r]
    out["scale_error"] = cal[0]["scale_error"]
    out["spread"] = cal[0]["spread"]
    out["calibrate_peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in cal)
    vals = next(r["oracle_values"] for r in runs if "oracle_values" in r)
    out["far_max_abs_error_vs_mpmath"] = max(
        abs(complex(*vals[i][j][k]) - refs[lam, m, r])
        for i, lam in enumerate(ORACLE_LAMS) for j, m in enumerate(ORACLE_MS)
        for k, r in enumerate(ORACLE_RS))
    for n in near:
        entries = next(r[f"{n}_entries"] for r in runs if f"{n}_entries" in r)
        out[f"{n}_max_abs_error_vs_mpmath"] = max(
            abs(complex(re, im) - refs[lam, m, r])
            for lam, m, r, re, im in entries)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", choices=KINDS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(_worker(args.worker)))
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
                    runs[name].append(dict(kind=kind, **_run(src, kind)))
    refs = {(lam, m, r): _mpmath_mode(lam, m, r) for lam in ORACLE_LAMS
            for m in ORACLE_MS for r in ORACLE_RS}
    for run in runs["base"] + runs["head"]:
        for key, entries in run.items():
            if key.endswith("_entries"):
                for lam, m, r, _, _ in entries:
                    if (lam, m, r) not in refs:
                        refs[lam, m, r] = _mpmath_mode(lam, m, r)
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   "BLAS pinned to 2 threads",
        "base": args.base,
        "repeats": REPEATS,
        "oracle_points": {"lam": ORACLE_LAMS, "r": ORACLE_RS, "m": ORACLE_MS},
        "near_oracle_points": {"lam": NEAR_LAMS, "r": NEAR_RS, "m": ORACLE_MS,
                               "at": "nearest grid nodes"},
        "base_summary": _summary(runs["base"], refs),
        "head_summary": _summary(runs["head"], refs),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
