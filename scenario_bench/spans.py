"""Spans timed from outside the library.

A `Tracer` replaces public functions of `hypersample.*` modules with
wrappers that record one span per call: name, start, end, parent span,
workload and run id, plus counts read from the call's arguments and
result.  Every binding of a wrapped function is patched (the defining
module, each module that imported it by name, and class attributes that
alias a method), so calls made inside the library are seen too.
`uninstall` puts every original back.

`layer_metrics` turns the spans of one run into the per-layer metrics:
self time per layer (a span's duration minus the time its child spans
cover), counts, and work counts computed from array sizes.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hypersample import splines, transforms

PACKAGE = "hypersample"


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# -- counts read at each boundary -------------------------------------------
# each takes (args, kwargs, result, before) and returns a dict of attributes;
# `result` is None when the call raised


def _table_before(args, kwargs):
    return len(transforms._TABLE_CACHE)


def _table_counts(args, kwargs, result, before):
    return {"miss": int(len(transforms._TABLE_CACHE) > before)}


def _inverse_counts(args, kwargs, result, before):
    coeffs = _arg(args, kwargs, 0, "coeffs")
    points = _size(_arg(args, kwargs, 1, "points"))
    grid = coeffs.grid
    return {"points": points,
            "evals": points * grid.n_lambda * grid.n_b}


def _lattice_counts(args, kwargs, result, before):
    return {"n_points": len(result) if result is not None else 0}


def _frame_counts(args, kwargs, result, before):
    n = len(_arg(args, kwargs, 0, "lat"))
    grid = kwargs["grid"]
    out = {"n_points": n,
           "gram_cmacs": n * n * grid.n_band * grid.n_b,
           "eigh_n3": n ** 3}
    if result is not None:
        out["rank"] = result.rank
    return out


def _kernel_counts(args, kwargs, result, before):
    if result is None:
        return {}
    return {"n_lambda": int(splines._kernel_lambda_grid(result.lam_max)[0].size)}


def _splines_counts(args, kwargs, result, before):
    # spline_reconstruct_deconvolve drops systems above this condition
    used = result is not None and result.condition <= splines._COND_LIMIT
    return {"used": int(used)}


def _evaluate_counts(args, kwargs, result, before):
    return {"points": _size(_arg(args, kwargs, 1, "points"))}


def _pair_counts(args, kwargs, result, before):
    return {"pairs": _size(*(list(args) + list(kwargs.values()))[:2])}


def _cpu_before(args, kwargs):
    return time.process_time()


def _cpu_counts(args, kwargs, result, before):
    return {"cpu_s": time.process_time() - before}


@dataclass(frozen=True)
class Target:
    """One public function to wrap: `module.qualname` in the package."""

    module: str
    qualname: str
    counts: Callable | None = None
    before: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"

    def resolve(self):
        owner = sys.modules[f"{PACKAGE}.{self.module}"]
        for part in self.qualname.split("."):
            owner = getattr(owner, part)
        return owner


TARGETS = (
    Target("cli", "run", _cpu_counts, _cpu_before),
    Target("transforms", "calibrate_plancherel"),
    Target("transforms", "forward_transform"),
    Target("transforms", "radial_mode_table", _table_counts, _table_before),
    Target("transforms", "inverse_transform", _inverse_counts),
    Target("transforms", "inverse_on_grid"),
    Target("lattice", "build_lattice", _lattice_counts),
    Target("lattice", "certify_cover"),
    Target("lattice", "certify_multiplicity"),
    Target("sampling", "build_frame", _frame_counts),
    Target("sampling", "reconstruct"),
    Target("splines", "polyharmonic_kernel", _kernel_counts),
    Target("splines", "build_splines", _splines_counts),
    Target("splines", "SplineInterpolant.evaluate", _evaluate_counts),
    Target("spectral", "spherical_function", _pair_counts),
    Target("geometry", "distance", _pair_counts),
    Target("geometry", "busemann", _pair_counts),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    workload: str
    run_id: str
    end: float = math.nan
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; `install` patches, `uninstall` restores."""

    def __init__(self, workload: str = "", run_id: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        self.workload, self.run_id, self.clock = workload, run_id, clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, self.clock(), parent,
                   self.workload, self.run_id)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            with tracer.span(target.label) as rec:
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if target.counts:
                        rec.attrs.update(
                            target.counts(args, kwargs, result, before))

        return traced

    def install(self) -> None:
        """Patch every binding of each target across loaded package modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            original = target.resolve()
            wrapper = self.wrap(target, original)
            for owner, attr in bindings(original):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent,
                    "workload": s.workload, "run_id": s.run_id,
                    "error": s.error, **s.attrs}) + "\n")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def bindings(obj) -> list[tuple[object, str]]:
    """Every (owner, attribute) in the package that holds `obj`: module
    globals, and class attributes of classes defined in the package."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if value is obj:
                found.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend((value, a) for a, v in vars(value).items()
                             if v is obj)
    return found


# -- aggregation --------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    inside = {root.id}
    for s in spans:          # spans are recorded in start order
        if s.parent in inside:
            inside.add(s.id)
    return [s for s in spans if s.id in inside]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Layer times (`<label>.s`) are self times summed over the spans inside
    the `cli.run` span, so together with `cli.run.other_s` (the part of the
    run no layer span covers) they add up to `cli.run.s`.  The cold
    calibration made before the run is reported on its own as
    `setup.calibrate_plancherel.s`.
    """
    runs = [s for s in spans if s.name == "cli.run"]
    if len(runs) != 1:
        raise ValueError(f"expected one cli.run span, found {len(runs)}")
    run = runs[0]
    inner = subtree(spans, run)
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = {t.label: [] for t in TARGETS}
    for s in inner:
        by_name.setdefault(s.name, []).append(s)

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    m: dict[str, float] = {}
    for t in TARGETS:
        if t.label != "cli.run":
            m[f"{t.label}.s"] = sum(selft[s.id] for s in by_name[t.label])
    m["cli.run.s"] = run.duration
    m["cli.run.cpu_s"] = run.attrs.get("cpu_s", math.nan)
    m["cli.run.other_s"] = selft[run.id]
    setup = [s for s in spans if s.name == "transforms.calibrate_plancherel"
             and s.parent is None]
    m["setup.calibrate_plancherel.s"] = sum(s.duration for s in setup)

    m["transforms.radial_mode_table.calls"] = \
        len(by_name["transforms.radial_mode_table"])
    m["transforms.radial_mode_table.misses"] = \
        total("transforms.radial_mode_table", "miss")
    m["transforms.inverse_transform.points"] = \
        total("transforms.inverse_transform", "points")
    m["transforms.inverse_transform.evals"] = \
        total("transforms.inverse_transform", "evals")
    m["lattice.build_lattice.n_points"] = \
        total("lattice.build_lattice", "n_points")

    n_frame = total("sampling.build_frame", "n_points")
    rank = total("sampling.build_frame", "rank")
    m["sampling.build_frame.n_points"] = n_frame
    m["sampling.build_frame.rank"] = rank
    m["sampling.build_frame.retained_ratio"] = rank / n_frame if n_frame else 0.0
    m["sampling.build_frame.gram_cmacs"] = \
        total("sampling.build_frame", "gram_cmacs")
    m["sampling.build_frame.eigh_n3"] = total("sampling.build_frame", "eigh_n3")

    kernels = by_name["splines.polyharmonic_kernel"]
    m["splines.polyharmonic_kernel.calls"] = len(kernels)
    exps = 0
    for k in kernels:
        # the one busemann call inside the kernel tabulates the (n_t, n_b) angles
        tab = [c for c in inner if c.parent == k.id
               and c.name == "geometry.busemann"]
        exps += k.attrs.get("n_lambda", 0) * sum(c.attrs["pairs"] for c in tab)
    m["splines.polyharmonic_kernel.exps"] = exps

    systems = by_name["splines.build_splines"]
    used = [s for s in systems if s.attrs.get("used")]
    m["splines.build_splines.singular"] = \
        sum(s.error == "SingularKernel" for s in systems)
    m["splines.build_splines.useful_ratio"] = \
        len(used) / len(systems) if systems else 0.0
    m["splines.build_splines.wasted_s"] = \
        sum(s.duration for s in systems if not s.attrs.get("used"))
    m["splines.SplineInterpolant.evaluate.points"] = \
        total("splines.SplineInterpolant.evaluate", "points")
    m["spectral.spherical_function.pairs"] = \
        total("spectral.spherical_function", "pairs")
    m["geometry.distance.pairs"] = total("geometry.distance", "pairs")
    m["trace.spans"] = len(inner)
    return m


def unaccounted(metrics: dict[str, float]) -> float:
    """cli.run.s minus (every layer's self time + cli.run.other_s)."""
    layers = sum(metrics[f"{t.label}.s"] for t in TARGETS
                 if t.label != "cli.run")
    return metrics["cli.run.s"] - layers - metrics["cli.run.other_s"]
