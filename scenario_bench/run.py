"""Scenario benchmark of hypersample: three workloads, one client, closed loop.

    python3 scenario_bench/run.py --workload frame --seed 3 --seconds 20 --trace 0
    python3 scenario_bench/run.py          # every workload, untraced and traced

Each measured process is a fresh interpreter (`worker.py`) that imports
`hypersample` from `src/`, calibrates cold, then calls `cli.run` on the
workload's pinned config (`workloads/<name>.ini`) with only `seeds` taken
from `--seed`.  Outputs go to a temporary directory under `.bench_out/`.

With `--trace 0` one scenario process runs untraced, then setup-only
processes run until there are at least SETUP_SAMPLES set-up times and
`--seconds` have passed; the end-to-end metrics are printed.  With
`--trace 1` one scenario process runs with every layer wrapped by
`spans.Tracer`; the per-layer metrics are printed.  Either way the run's
outputs are checked (`checks.py`) and its `results.csv` must match the
first run of the same sources, workload and seed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_run  # noqa: E402

WORKLOADS = ("frame", "spline", "sphavg_loop")
SETUP_SAMPLES = 3
# the load is one process; BLAS may use at most this many threads
BLAS_THREADS = 2
# every process is killed by this many seconds after the run began
DEADLINE_S = 170.0
OUT_ROOT = ROOT / ".bench_out"


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HYPERSAMPLE_OUTPUT_ROOT", None)
    return env


def environment() -> dict[str, object]:
    """What the numbers depend on, printed with every result."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "sources": source_digest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def worker(mode: str, workload: str, seed: int, tmp: Path, tag: str,
           deadline: float) -> dict:
    """Run one fresh process; return its measurements or an `error`."""
    outdir, result = tmp / tag, tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           str(HERE / "workloads" / f"{workload}.ini"), str(seed),
           str(outdir), str(result)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out"}
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"{mode} process exit {proc.returncode}: {tail[0]}"}
    out = json.loads(result.read_text())
    if mode != "setup":
        out["outdir"] = outdir / "run"
    return out


def judge(run: dict, workload: str, seed: int) -> list[str]:
    """Problems of one scenario run: exit code, numbers, repeatability."""
    if "error" in run:
        return [run["error"]]
    acc, problems = check_run(run["outdir"])
    run["accuracy"] = acc
    if run["exit_code"] != 0:
        problems.append(f"cli.run returned {run['exit_code']}")
    csv_path = run["outdir"] / "results.csv"
    if csv_path.exists():
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        first = OUT_ROOT / "digests" / f"{source_digest()}-{workload}-{seed}"
        first.parent.mkdir(parents=True, exist_ok=True)
        if not first.exists():
            first.write_text(digest)
        elif first.read_text() != digest:
            problems.append("results.csv differs from the first run of "
                            "these sources and seed")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; see the module docstring."""
    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_ROOT))
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    try:
        run = worker("trace" if trace else "run", workload, seed, tmp, "run",
                     deadline)
        problems = judge(run, workload, seed)
        attempted, failed = 1, int(bool(problems))
        setups = [run["setup_s"]] if "setup_s" in run else []
        while not trace and (len(setups) < SETUP_SAMPLES
                             or time.monotonic() - t0 < seconds):
            s = worker("setup", workload, seed, tmp, f"setup{attempted}",
                       deadline)
            attempted += 1
            if "error" in s:
                failed += 1
                problems.append(s["error"])
            else:
                setups.append(s["setup_s"])
            if failed > SETUP_SAMPLES or time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"run": run, "setups": setups, "attempted": attempted,
            "failed": failed, "problems": problems}


def e2e_metrics(res: dict) -> dict[str, float]:
    run = res["run"]
    return {"setup_s": statistics.median(res["setups"]),
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "calibration_rel_error":
                abs(2.0 * math.pi * run["plancherel_scale"] - 1.0)}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print one run's human-readable lines; return its result object."""
    print(f"== {workload}: attempted {res['attempted']}, failed "
          f"{res['failed']}, fail_ratio "
          f"{res['failed'] / res['attempted']:.3f}")
    for p in res["problems"]:
        print(f"   FAIL {p}")
    run = res["run"]
    for name, value in run.get("accuracy", {}).items():
        print(f"   {name} = {value:.6e} (accuracy)")
    metrics = {}
    if not trace and "wall_s" in run and res["setups"]:
        metrics = with_units(e2e_metrics(res), spec()["end_to_end"])
        print(f"   setup_s samples = {[round(s, 4) for s in res['setups']]}")
    elif trace and "layers" in run:
        metrics = with_units(run["layers"], spec()["per_layer"])
        print(f"   layer self times + cli.run.other_s - cli.run.s = "
              f"{run['layers_unaccounted_s']:.3e} s")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, with the tracing overhead."""
    out = {}
    for workload in WORKLOADS:
        plain = report(workload, measure(workload, seed, seconds, False), False)
        traced = report(workload, measure(workload, seed, seconds, True), True)
        if "wall_s" in plain["metrics"] and "cli.run.s" in traced["metrics"]:
            ratio = (traced["metrics"]["cli.run.s"]["value"]
                     / plain["metrics"]["wall_s"]["value"])
            print(f"   tracing overhead: traced cli.run.s / untraced wall_s "
                  f"= {ratio:.4f}")
        out[workload] = {"untraced": plain, "traced": traced}
    print(json.dumps(out))
    return 0 if all(r["correct"] for w in out.values() for r in w.values()) \
        else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hypersample" / "__init__.py").is_file():
        print(f"no hypersample sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    if args.workload is None:
        return summary(args.seed, args.seconds)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
