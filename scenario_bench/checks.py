"""Correctness judged from the numbers a scenario wrote, not from its flags.

Each checker reads `results.csv` and the `tolerance.*` lines of
`manifest.txt` and recomputes pass/fail itself: the `passed` column is
ignored (the frame scenario writes `true` in every row whatever the
error).  A checker returns the accuracy numbers the benchmark reports and
a list of problems; an empty list means the run is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# |2 pi scale - 1| of the Plancherel calibration; measured near 4e-14, so
# anything above this means the calibration itself went wrong
CALIBRATION_TOL = 1e-10


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out.setdefault(key, value)
    return out


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _frame(rows, tol):
    acc, bad = {}, []
    rows = sorted(rows, key=lambda row: -float(row["r"]))
    errors = [float(row["rel_error"]) for row in rows]
    finest = tol["frame_rel_error_at_finest"]
    acc["frame_rel_error"] = errors[-1]
    if not errors[-1] < finest:
        bad.append(f"finest r {rows[-1]['r']}: rel_error {errors[-1]:.3e} "
                   f">= {finest:.0e}")
    if not all(a > b for a, b in zip(errors, errors[1:])):
        bad.append(f"rel_error not decreasing with density: {errors}")
    for row in rows:
        bad += _frame_bounds(row, f"r {row['r']}")
    return acc, bad


def _frame_bounds(row, where):
    lower, upper = float(row["frame_lower"]), float(row["frame_upper"])
    rank, n = int(row["rank"]), int(row["n_points"])
    bad = []
    if not 0.0 < lower <= upper:
        bad.append(f"{where}: frame bounds ({lower:.3e}, {upper:.3e})")
    if not 1 <= rank <= n:
        bad.append(f"{where}: rank {rank} of {n} points")
    return bad


def _spline(rows, tol):
    first = rows[0]           # guards hold for the first order, k = 2
    if first["status"] != "ok":
        return {}, [f"k {first['k']}: status {first['status']}"]
    err, defect = float(first["rel_error"]), float(first["lagrangian_defect"])
    acc = {"spline_rel_error": err, "lagrangian_defect": defect}
    bad = []
    if not err < tol["interp_rel_error"]:
        bad.append(f"k {first['k']}: rel_error {err:.3e}")
    if not defect <= tol["lagrangian_defect"]:
        bad.append(f"k {first['k']}: lagrangian_defect {defect:.3e}")
    for row in rows[1:]:
        if row["status"] not in ("ok", "singular"):
            bad.append(f"k {row['k']}: status {row['status']}")
    return acc, bad


def _theorem73(rows, tol):
    acc, bad = {}, []
    for row in rows:
        err = float(row["frame_error"])
        acc.setdefault("frame_rel_error", err)
        if row["admissible"] == "true" and not err < tol["frame_error"]:
            bad.append(f"tau {row['tau']}: frame_error {err:.3e}")
        bad += _frame_bounds(row, f"tau {row['tau']}")
    return acc, bad


CHECKERS = {
    "frame_reconstruct": _frame,
    "spline_reconstruct": _spline,
    "theorem73": _theorem73,
}


def check_run(outdir: Path) -> tuple[dict[str, float], list[str]]:
    """Accuracy numbers and problems of one scenario output directory."""
    try:
        manifest = read_manifest(outdir / "manifest.txt")
        rows = read_rows(outdir / "results.csv")
    except OSError as exc:
        return {}, [f"missing output: {exc}"]
    scale = float(manifest["plancherel_scale"])
    acc = {"calibration_rel_error": abs(2.0 * math.pi * scale - 1.0)}
    bad = []
    if not acc["calibration_rel_error"] <= CALIBRATION_TOL:
        bad.append(f"calibration off by {acc['calibration_rel_error']:.3e}")
    if manifest.get("failures") != "0":
        bad.append(f"scenario reports {manifest.get('failures')} failures")
    if not rows:
        return acc, bad + ["results.csv has no rows"]
    tol = {key[len("tolerance."):]: float(value)
           for key, value in manifest.items() if key.startswith("tolerance.")}
    more, problems = CHECKERS[manifest["config.scenario"]](rows, tol)
    acc.update(more)
    return acc, bad + problems
