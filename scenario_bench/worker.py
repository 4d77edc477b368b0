"""One measured process: import, cold calibration, then one scenario run.

    python3 scenario_bench/worker.py MODE CONFIG SEED OUTDIR RESULT_JSON

MODE is `setup` (import and cold calibration only), `run` (then
`cli.run` untraced) or `trace` (the same with every layer wrapped by
`spans.Tracer`).  The scenario writes its artifacts under OUTDIR/run;
the measurements go to RESULT_JSON, and in `trace` mode the spans go to
OUTDIR/run/spans.jsonl.  The package is imported from `src/` of the checkout
that holds this file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def measure(mode: str, config: str, seed: int, outdir: str) -> dict:
    """Run one setup (and scenario); return the measurements."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from hypersample import cli, transforms
    import_s = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from spans import Tracer    # imports hypersample: after the timed import
        tracer = Tracer(workload=Path(config).stem,
                        run_id=f"{Path(config).stem}-{seed}-{os.getpid()}")
        tracer.install()
    try:
        t1 = time.perf_counter()
        cal = transforms.calibrate_plancherel()
        out = {"import_s": import_s,
               "calibrate_s": time.perf_counter() - t1,
               "plancherel_scale": cal.scale}
        out["setup_s"] = out["import_s"] + out["calibrate_s"]
        if mode == "setup":
            return out
        os.environ["HYPERSAMPLE_OUTPUT_ROOT"] = outdir
        cfg = cli.load_config(config, {"seeds": str(seed), "output": "run"})
        t2 = time.perf_counter()
        out["exit_code"] = cli.run(cfg)
        out["wall_s"] = time.perf_counter() - t2
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from spans import layer_metrics, unaccounted
        tracer.write_jsonl(Path(outdir) / "run" / "spans.jsonl")
        out["layers"] = layer_metrics(tracer.spans)
        out["layers_unaccounted_s"] = unaccounted(out["layers"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[0] not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, config, seed, outdir, result = argv
    out = measure(mode, config, int(seed), outdir)
    Path(result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
