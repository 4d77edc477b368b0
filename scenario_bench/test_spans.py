"""Tests of the benchmark's own span wrapper and output checks.

    PYTHONPATH=src python3 -m pytest -q scenario_bench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import hypersample  # noqa: E402
from hypersample import cli, lattice, sampling, sphavg, splines  # noqa: E402
from hypersample.geometry import SpaceParams  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def snapshot() -> dict:
    """(owner, attribute) -> object for every package module and class."""
    out = {}
    for mod in spans.package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for a, v in vars(value).items():
                    out[(mod.__name__, attr, a)] = v
    return out


def changed(before: dict) -> list:
    after = snapshot()
    return [key for key in before if after.get(key) is not before[key]]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_excludes_nested_children():
    # cli.run [0, 10] > build_splines [1, 7] > polyharmonic_kernel [2, 5]
    #                                       > distance [5.5, 6]
    tr = spans.Tracer(clock=FakeClock([0, 1, 2, 5, 5.5, 6, 7, 10]))
    with tr.span("cli.run"):
        with tr.span("splines.build_splines"):
            with tr.span("splines.polyharmonic_kernel"):
                pass
            with tr.span("geometry.distance") as d:
                d.attrs["pairs"] = 4
    m = spans.layer_metrics(tr.spans)
    assert m["splines.build_splines.s"] == 2.5
    assert m["splines.polyharmonic_kernel.s"] == 3.0
    assert m["geometry.distance.s"] == 0.5
    assert m["cli.run.other_s"] == 4.0
    assert m["cli.run.s"] == 10.0
    assert spans.unaccounted(m) == 0.0
    assert m["geometry.distance.pairs"] == 4


def test_build_splines_self_time_excludes_kernel():
    space = SpaceParams().with_scale(1.0 / (2.0 * 3.141592653589793))
    lat = lattice.build_lattice(0.8, 0.6, seed=0)
    tr = spans.Tracer()
    tr.install()
    try:
        with tr.span("cli.run"):
            splines.build_splines(lat, 2, space=space)
    finally:
        tr.uninstall()
    (system,) = [s for s in tr.spans if s.name == "splines.build_splines"]
    children = [s for s in tr.spans if s.parent == system.id]
    assert "splines.polyharmonic_kernel" in {c.name for c in children}
    selft = spans.self_times(tr.spans)[system.id]
    assert selft == pytest.approx(
        system.duration - sum(c.duration for c in children), abs=1e-12)
    kernel = next(c for c in children if c.name == "splines.polyharmonic_kernel")
    assert selft < system.duration - kernel.duration + 1e-12
    m = spans.layer_metrics(tr.spans)
    assert m["splines.build_splines.s"] == pytest.approx(selft, abs=1e-12)
    assert m["splines.build_splines.useful_ratio"] == 1.0
    assert m["splines.polyharmonic_kernel.exps"] > 0
    assert spans.unaccounted(m) == pytest.approx(0.0, abs=1e-9)


def test_every_binding_is_patched_and_restored():
    before = snapshot()
    originals = {t.label: t.resolve() for t in spans.TARGETS}
    sites = {label: spans.bindings(fn) for label, fn in originals.items()}
    # the imports the benchmark relies on are among the bindings found
    assert (sphavg, "build_frame") in sites["sampling.build_frame"]
    assert (cli, "build_frame") in sites["sampling.build_frame"]
    assert (splines.SplineInterpolant, "__call__") in \
        sites["splines.SplineInterpolant.evaluate"]
    tr = spans.Tracer()
    tr.install()
    try:
        for label, fn in originals.items():
            assert spans.bindings(fn) == [], f"{label} left unwrapped"
            wrappers = {id(getattr(owner, attr)) for owner, attr in sites[label]}
            assert len(wrappers) == 1
            owner, attr = sites[label][0]
            assert getattr(owner, attr).__wrapped__ is fn
        assert cli.build_frame is sphavg.build_frame is sampling.build_frame
        assert hypersample.run is cli.run
    finally:
        tr.uninstall()
    assert changed(before) == []


@pytest.mark.parametrize("mode", ["run", "trace"])
def test_run_leaves_module_attributes_original(mode, tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSAMPLE_OUTPUT_ROOT", str(tmp_path))
    cfg = tmp_path / "baseline1d.ini"
    cfg.write_text(cli.config_to_ini(cli.ExperimentConfig(scenario="baseline1d")))
    before = snapshot()
    out = worker.measure(mode, str(cfg), 0, str(tmp_path / "out"))
    assert out["exit_code"] == 0
    assert changed(before) == []
    if mode == "trace":
        assert out["layers"]["cli.run.s"] > 0
        assert out["layers_unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
        assert (tmp_path / "out" / "run" / "spans.jsonl").exists()


def test_frame_rows_judged_by_numbers_not_flags():
    rows = [{"r": "0.4", "n_points": "123", "rank": "81",
             "frame_lower": "1e-11", "frame_upper": "14.0",
             "rel_error": "6e-06", "passed": "true"},
            {"r": "0.1", "n_points": "1889", "rank": "98",
             "frame_lower": "2e-10", "frame_upper": "220.0",
             "rel_error": "3e-06", "passed": "true"}]
    tol = {"frame_rel_error_at_finest": 1e-6}
    acc, bad = checks.CHECKERS["frame_reconstruct"](rows, tol)
    assert acc["frame_rel_error"] == 3e-06
    assert len(bad) == 1 and "finest" in bad[0]
    rows[1]["rel_error"] = "2e-07"
    assert checks.CHECKERS["frame_reconstruct"](rows, tol)[1] == []
