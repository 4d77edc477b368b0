"""Smoke test of the per-layer bench harness's worker contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "scripts" / "bench.py"
STAGES = ("setup", "modes", "series", "lattice", "frame", "evaluate",
          "splines", "theorem73")


def _bench(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(BENCH), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True).stdout


def test_setup_worker_prints_one_json_line(tmp_path):
    out = _bench("--worker", "setup", cwd=tmp_path)
    [line] = out.splitlines()
    fields = json.loads(line)
    assert set(fields) == {"import_s", "calibrate_s", "setup_s",
                           "scipy_modules", "scale_error", "spread",
                           "calibrate_traced_mb", "peak_rss_mb"}
    assert fields["scale_error"] < 1e-13
    assert not list(tmp_path.iterdir())  # no arrays to compare


def test_help_names_every_stage(tmp_path):
    text = _bench("--help", cwd=tmp_path)
    for stage in STAGES:
        assert stage in text
