"""The 8 configs' results.csv against references written at 2 BLAS threads.

tests/reference holds each config's results.csv, written by
`hypersample run` at OPENBLAS_NUM_THREADS=2, and environment.json, the
numpy and BLAS build it was written with.  One subprocess runs all 8
configs at 2 threads.  In the recorded environment every file must match
its reference byte for byte.  Elsewhere ints, text and bools must match
exactly and floats to a relative tolerance per column (_REL_TOL, default
_DEFAULT_REL_TOL); the columns that are roundoff themselves are held to
their certificates instead (_ROUNDOFF).  A second subprocess runs the
thread-independent configs at 1 thread, and their files must equal the
2-thread files byte for byte, in any environment.

A change that moves a digit rewrites the references, so that its diff
shows every moved digit:

    PYTHONPATH=src python tests/test_reference_results.py
"""

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.ini"))
THREAD_FREE = ("baseline1d", "bernstein", "lattice", "spherical_avg",
               "spline_reconstruct")

_RUN = """
import sys
from hypersample import cli
codes = [cli.run(cli.load_config(path)) for path in sys.argv[1:]]
sys.exit(max(codes))
"""

# relative tolerance of a float column outside the recorded environment,
# about 25 times the largest move measured between 1 and 2 BLAS threads
_DEFAULT_REL_TOL = 1e-12
_REL_TOL = {
    ("frame_reconstruct", "rel_error"): 1e-8,
    ("frame_reconstruct", "frame_lower"): 1e-10,
    ("frame_reconstruct", "frame_upper"): 1e-10,
    ("theorem73", "frame_error"): 1e-8,
    ("theorem73", "frame_lower"): 1e-10,
    ("theorem73", "frame_upper"): 1e-10,
    ("spline_reconstruct", "condition"): 1e-7,
    ("spline_reconstruct", "rel_error"): 1e-8,
}


def _sym(row):
    return max(math.hypot(float(row["symbol_re"]), float(row["symbol_im"])),
               1e-3)


# columns that are roundoff and move by their own size: each row's value
# must meet the certificate its scenario checks (a nan must stay nan)
_ROUNDOFF = {
    ("spline_reconstruct", "lagrangian_defect"): lambda row: 1e-8,
    ("plancherel", "rel_error"): lambda row: 1e-6,
    ("spherical_avg", "abs_diff"): lambda row: 1e-6 * _sym(row),
    ("baseline1d", "sinc_rel_error"): lambda row: 1e-6,
    ("baseline1d", "gram_rel_error"): lambda row: 1e-6,
    ("baseline1d", "route_diff"): lambda row: 1e-5,
    # the Gram of 64 points is singular: its smallest eigenvalue sits at
    # the eigensolver's floor, 64 eps of the largest
    ("baseline1d", "frame_lower"):
        lambda row: 64 * 2.2e-16 * float(row["frame_upper"]),
}


def environment() -> dict:
    """The numpy and BLAS build and the CPU the results depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"OPENBLAS_NUM_THREADS": 2,
            "numpy": np.__version__,
            "blas": blas.get("openblas configuration",
                             f"{blas.get('name')} {blas.get('version')}"),
            "machine": platform.machine(),
            "cpu_features": sorted(k for k, v in __cpu_features__.items()
                                   if v)}


def run_configs(outroot: Path, threads: int, names) -> None:
    """`hypersample run` of each named config in one process at the given
    BLAS thread count, into outroot/<name>; raises unless every run exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(threads),
               HYPERSAMPLE_OUTPUT_ROOT=str(outroot))
    paths = [str(ROOT / "configs" / f"{name}.ini") for name in names]
    proc = subprocess.run([sys.executable, "-c", _RUN, *paths], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def two_threads(tmp_path_factory):
    root = tmp_path_factory.mktemp("threads2")
    run_configs(root, 2, CONFIGS)
    return root


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    head, *lines = text.splitlines()
    return head.split(","), [line.split(",") for line in lines]


def _float(text: str):
    """text as a float, or None for an int, a bool or other text."""
    if text.lstrip("-").isdigit():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _same(got: str, want: str, tol: float) -> bool:
    """One cell: a float to relative tolerance tol, anything else exactly;
    a tuple cell element by element."""
    got_v, want_v = got.split("; "), want.split("; ")
    if len(got_v) != len(want_v):
        return False
    for g, w in zip(got_v, want_v):
        a, b = _float(g), _float(w)
        if a is None or b is None:
            ok = g == w
        else:
            ok = a == b or math.isnan(a) and math.isnan(b) \
                or abs(a - b) <= tol * max(abs(a), abs(b))
        if not ok:
            return False
    return True


def _mismatches(name: str, got: str, want: str) -> list[str]:
    """The cells of got that leave want's outside the recorded
    environment."""
    (columns, got_rows), (want_columns, want_rows) = _rows(got), _rows(want)
    if columns != want_columns or len(got_rows) != len(want_rows):
        return ["columns or row count differ"]
    bad = []
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        row = dict(zip(columns, g_row))
        for col, g, w in zip(columns, g_row, w_row):
            if (name, col) in _ROUNDOFF and w != "nan":
                ok = abs(float(g)) <= _ROUNDOFF[name, col](row)
            else:
                ok = _same(g, w, _REL_TOL.get((name, col), _DEFAULT_REL_TOL))
            if not ok:
                bad.append(f"row {i} {col}: {g} against {w}")
    return bad


@pytest.mark.parametrize("name", CONFIGS)
def test_results_match_the_reference(two_threads, name):
    got = (two_threads / name / "results.csv").read_text()
    want = (REFERENCE / f"{name}.csv").read_text()
    recorded = json.loads((REFERENCE / "environment.json").read_text())
    if environment() == recorded:
        assert got == want
    else:
        assert _mismatches(name, got, want) == []


def test_thread_independent_configs_match_at_one_thread(two_threads,
                                                        tmp_path):
    run_configs(tmp_path, 1, THREAD_FREE)
    differ = [name for name in THREAD_FREE
              if (tmp_path / name / "results.csv").read_bytes()
              != (two_threads / name / "results.csv").read_bytes()]
    assert differ == []


def _moved(text: str, i: int, column: str, value: str) -> str:
    columns, rows = _rows(text)
    rows[i][columns.index(column)] = value
    return "\n".join(",".join(row) for row in [columns, *rows]) + "\n"


def test_the_comparison_outside_the_recorded_environment():
    for name in CONFIGS:
        text = (REFERENCE / f"{name}.csv").read_text()
        assert _mismatches(name, text, text) == []
    frame = (REFERENCE / "frame_reconstruct.csv").read_text()
    columns, rows = _rows(frame)
    err = float(rows[2][columns.index("rel_error")])
    near = _moved(frame, 2, "rel_error", repr(err * (1 + 1e-9)))
    assert _mismatches("frame_reconstruct", near, frame) == []
    far = _moved(frame, 2, "rel_error", repr(err * (1 + 1e-7)))
    assert [m.split(":")[0] for m in
            _mismatches("frame_reconstruct", far, frame)] == ["row 2 rel_error"]
    rank = _moved(frame, 2, "rank", "97")
    assert [m.split(":")[0] for m in
            _mismatches("frame_reconstruct", rank, frame)] == ["row 2 rank"]
    spline = (REFERENCE / "spline_reconstruct.csv").read_text()
    for defect, problems in (("5e-09", 0), ("2e-08", 1)):
        moved = _moved(spline, 0, "lagrangian_defect", defect)
        assert len(_mismatches("spline_reconstruct", moved, spline)) \
            == problems


def main() -> int:
    """Rewrite the references from a fresh 2-thread run of every config."""
    with tempfile.TemporaryDirectory() as tmp:
        run_configs(Path(tmp), 2, CONFIGS)
        REFERENCE.mkdir(exist_ok=True)
        for name in CONFIGS:
            (REFERENCE / f"{name}.csv").write_bytes(
                (Path(tmp) / name / "results.csv").read_bytes())
    (REFERENCE / "environment.json").write_text(
        json.dumps(environment(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
