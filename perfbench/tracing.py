"""Spans and counts around the dsmsharp functions the CLI calls.

The program is traced from outside: ``Tracer.install`` replaces the module
attributes the CLI looks up at call time with wrappers that record a span
(name, start, end, parent, sample id) and take counts from return values,
public parameters, warning records and file sizes. Nothing in the package
changes. Spans stay in memory until the sample writes its result.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import time
from collections import Counter

# (module, attribute, span name); dsmsharp.cli binds the two tophat names
# itself, every other call goes through the module attribute
WRAPPED = (
    ("dsmsharp.cli", "build_stack", "tophat.build_stack"),
    ("dsmsharp.cli", "boundary_contours", "tophat.boundary_contours"),
    ("dsmsharp.lines", "detect_segments", "lines.detect_segments"),
    ("dsmsharp.lines", "filter_segments", "lines.filter_segments"),
    ("dsmsharp.lines", "assign_widths", "lines.assign_widths"),
    ("dsmsharp.graphcut", "build_problem", "graphcut.build_problem"),
    ("dsmsharp.graphcut", "minimize", "graphcut.minimize"),
    ("dsmsharp.graphcut", "interpolate_offsets", "graphcut.interpolate_offsets"),
    ("dsmsharp.graphcut", "warp_dsm", "graphcut.warp_dsm"),
    ("dsmsharp.planefit", "adjust_all", "planefit.adjust_all"),
    ("dsmsharp.evaluate", "report", "evaluate.report"),
    ("dsmsharp.evaluate", "sweep", "evaluate.sweep"),
    ("dsmsharp.raster", "load_heightfield", "raster.load_heightfield"),
    ("dsmsharp.raster", "save_heightfield", "raster.save_heightfield"),
    ("dsmsharp.raster", "load_image", "raster.load_image"),
    ("dsmsharp.raster", "save_mask", "raster.save_mask"),
)

LAYERS = ("cli", "tophat", "lines", "graphcut", "planefit", "evaluate", "raster")


class _FallbackCounter(logging.Handler):
    """Counts the plane fitter's constant-plane fallback warnings."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "constant-plane fallback" in record.getMessage():
            self.counts["planefit.fallback_sides"] += 1


class Tracer:
    def __init__(self, sample_id: int):
        self.sample_id = sample_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))
        logging.getLogger("dsmsharp.planefit").addHandler(_FallbackCounter(self.counts))

    def _wrap(self, fn, name):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the CLI passes these two by keyword; a list of our own gives
            # the counts without changing what the function computes
            if name == "graphcut.minimize" and kwargs.get("energy_trace") is None:
                kwargs["energy_trace"] = []
            if name == "planefit.adjust_all" and kwargs.get("debug_rows") is None:
                kwargs["debug_rows"] = []
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result, args, kwargs)
            return result

        return wrapper

    # counts, one method per wrapped name that yields any

    def _count_tophat_build_stack(self, stack, args, kwargs):
        self.counts["tophat.scales"] += len(stack.scales)
        if stack.cumulative_masks:
            self.counts["tophat.building_px"] += stack.cumulative_masks[-1].count()

    def _count_tophat_boundary_contours(self, contours, args, kwargs):
        self.counts["tophat.contour_points"] += sum(len(c) for c in contours)

    def _count_lines_detect_segments(self, segments, args, kwargs):
        self.counts["lines.raw"] += len(segments)

    def _count_lines_filter_segments(self, segments, args, kwargs):
        self.counts["lines.filtered"] += len(segments)

    def _count_lines_assign_widths(self, segments, args, kwargs):
        self.counts["lines.width_matched"] += len(segments)

    def _count_graphcut_build_problem(self, problem, args, kwargs):
        self.counts["graphcut.points"] += problem.size
        self.counts["graphcut.pairs"] += len(problem.pairs)

    def _count_graphcut_minimize(self, labeling, args, kwargs):
        energies = kwargs["energy_trace"]
        self.counts["graphcut.accepted_moves"] += len(energies) - 1
        self.counts["graphcut.energy_drop"] += energies[0] - energies[-1]

    def _count_planefit_adjust_all(self, adjusted, args, kwargs):
        self.counts["planefit.sides"] += len(kwargs["debug_rows"])

    def _count_raster_load_heightfield(self, hf, args, kwargs):
        self.counts["raster.bytes_read"] += os.path.getsize(args[0])

    _count_raster_load_image = _count_raster_load_heightfield

    def _count_raster_save_heightfield(self, none, args, kwargs):
        self.counts["raster.bytes_written"] += os.path.getsize(args[1])

    _count_raster_save_mask = _count_raster_save_heightfield


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(
            {
                "id": self.index,
                "name": self.name,
                "parent": t._open[-1] if t._open else None,
                "sample": t.sample_id,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index]["end"] = time.perf_counter()
        t._open.pop()
        return False


COUNTS = (
    "tophat.scales", "tophat.building_px", "tophat.contour_points",
    "lines.raw", "lines.filtered", "lines.width_matched",
    "graphcut.points", "graphcut.pairs", "graphcut.accepted_moves", "graphcut.energy_drop",
    "planefit.sides", "planefit.fallback_sides",
    "raster.bytes_read", "raster.bytes_written",
)


def layer_values(spans: list[dict], counts: dict) -> dict[str, float]:
    """One sample's per-layer values: seconds and calls per wrapped function,
    self seconds per layer (a span's time minus its child spans'; the
    `cli.main` spans give the `cli` layer's own time) and the counts.
    Functions and layers that did not run read 0."""
    out = dict.fromkeys(COUNTS, 0)
    out.update(dict.fromkeys((f"{layer}.self.s" for layer in LAYERS), 0.0))
    for _, _, name in WRAPPED:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    out["cli.invocations"] = 0
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        dur = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        out[f"{layer}.self.s"] += dur - child_time[s["id"]]
        if s["name"] == "cli.main":
            out["cli.invocations"] += 1
        else:
            out[f"{s['name']}.s"] += dur
            out[f"{s['name']}.calls"] += 1
    out.update(counts)
    raw = out["lines.raw"]
    out["lines.kept_ratio"] = out["lines.width_matched"] / raw if raw else 0.0
    return out
