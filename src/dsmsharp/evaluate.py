"""Quantitative comparison of DSM variants against a ground-truth surface.

Provides whole-image and boundary-buffer RMSE (buffers 5/10/20 px by
default), an RMSE-vs-buffer-width sweep, and elevation cross-sections along
an anchor segment. Variants on a different grid are first resampled onto the
truth grid so every method is scored on identical cells, and the boundary
scope always derives from the original input DSM so the scope itself cannot
favour one method. One chessboard distance map of the boundary stands for
every buffer, so the sweep is just a report over widths 1..N.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import Heightfield, boundary_distance, sample_bilinear


@dataclass(eq=False)
class RmseReport:
    whole_image: float
    per_buffer: dict[int, float]


@dataclass(eq=False)
class CrossSection:
    """Elevation profiles of several DSM variants along one segment."""

    anchor: tuple[tuple[float, float], tuple[float, float]]
    stations: np.ndarray  # distances along the section, strictly increasing
    profiles: dict[str, np.ndarray]
    rmse: dict[str, float]  # per variant, against the designated truth


def _world_extent(hf: Heightfield) -> tuple[float, float, float, float]:
    x0, y0 = hf.origin
    return x0, y0, x0 + hf.width * hf.cell_size, y0 + hf.height * hf.cell_size


def resample_to(reference: Heightfield, moving: Heightfield) -> Heightfield:
    """Resample ``moving`` onto the grid of ``reference``.

    Bilinear over the valid neighbours of each sample position (weights
    renormalised when some support cells are nodata); reference cells whose
    centers fall outside the moving raster's footprint become nodata.
    """
    rx0, ry0, rx1, ry1 = _world_extent(reference)
    mx0, my0, mx1, my1 = _world_extent(moving)
    if rx1 <= mx0 or mx1 <= rx0 or ry1 <= my0 or my1 <= ry0:
        raise ValueError(f"disjoint extents: x {mx0:g}..{mx1:g}, y {my0:g}..{my1:g} does not"
                         f" overlap the reference grid's x {rx0:g}..{rx1:g}, y {ry0:g}..{ry1:g}")

    cols = np.arange(reference.width)
    rows = np.arange(reference.height)
    wx = reference.origin[0] + (cols + 0.5) * reference.cell_size
    wy = reference.origin[1] + (reference.height - rows - 0.5) * reference.cell_size
    fx = (wx - moving.origin[0]) / moving.cell_size - 0.5
    fy = moving.height - 0.5 - (wy - moving.origin[1]) / moving.cell_size
    fxx, fyy = np.meshgrid(fx, fy)

    covered = (
        (fxx >= -0.5) & (fxx <= moving.width - 0.5) & (fyy >= -0.5) & (fyy <= moving.height - 0.5)
    )
    vals, valid = sample_bilinear(moving, fxx.ravel(), fyy.ravel(), skip_nodata=True)
    vals = vals.reshape(reference.height, reference.width)
    valid = valid.reshape(reference.height, reference.width)
    out = np.where(covered & valid, vals, reference.nodata)
    return Heightfield(out, reference.cell_size, reference.origin, reference.nodata)


def rmse(computed: Heightfield, truth: Heightfield, scope: np.ndarray | None = None) -> float:
    """Root mean square difference over in-scope cells valid in both fields."""
    if computed.values.shape != truth.values.shape:
        raise ValueError("fields must share one grid; resample first")
    select = computed.valid_mask() & truth.valid_mask()
    if scope is not None:
        if scope.shape != truth.values.shape:
            raise ValueError("scope mask dimensions do not match")
        select &= scope
    n = int(select.sum())
    if n == 0:
        raise ValueError("no valid cells in scope")
    diff = computed.values[select] - truth.values[select]
    return float(math.sqrt(float((diff * diff).mean())))


def report(
    computed: Heightfield,
    truth: Heightfield,
    distance: np.ndarray,
    widths: tuple[int, ...] = (5, 10, 20),
) -> RmseReport:
    """Whole-image plus boundary-buffer RMSE in one record; the buffer of
    width w is ``distance <= w``. Each value is ``rmse`` over its scope: one
    grid of squared errors serves every scope, read in the same cells and
    order. A width at or beyond the largest distance covers the whole grid,
    so every such width reads the whole-image value; the work follows the
    grid, not the widths."""
    if any(w <= 0 for w in widths):
        raise ValueError("buffer widths must be positive")
    if computed.values.shape != truth.values.shape:
        raise ValueError("fields must share one grid; resample first")
    if distance.shape != truth.values.shape:
        raise ValueError("scope mask dimensions do not match")
    both = computed.valid_mask() & truth.valid_mask()
    squared = np.zeros(truth.values.shape)
    np.subtract(computed.values, truth.values, out=squared, where=both)
    squared *= squared

    def scoped(select: np.ndarray) -> float:
        if not select.any():
            raise ValueError("no valid cells in scope")
        return float(math.sqrt(float(squared[select].mean())))

    whole = scoped(both)
    reach = int(distance.max())
    per_buffer = {w: whole if w >= reach else scoped(both & (distance <= w)) for w in widths}
    return RmseReport(whole, per_buffer)


def sweep(
    computed: Heightfield,
    truth: Heightfield,
    boundary_mask: np.ndarray,
    max_width: int = 20,
) -> list[tuple[int, float]]:
    """Boundary-buffer RMSE at every width 1..max_width (<= the grid's larger side)."""
    if not 1 <= max_width <= max(truth.values.shape):
        raise ValueError(f"max_width must be in 1..{max(truth.values.shape)}, got {max_width}")
    widths = tuple(range(1, max_width + 1))
    rep = report(computed, truth, boundary_distance(boundary_mask), widths)
    return sorted(rep.per_buffer.items())


def cross_section(
    variants: dict[str, Heightfield],
    anchor: tuple[tuple[float, float], tuple[float, float]],
    step: float = 0.5,
    truth_name: str | None = None,
) -> CrossSection:
    """Bilinear elevation profiles at uniform stations along the anchor.

    Station count is floor(length / step) + 1. Per-variant RMSE is computed
    against ``truth_name`` (default: the first variant).
    """
    if not 0 < step < math.inf:
        raise ValueError("step must be finite and positive")
    if not variants:
        raise ValueError("no variants given")
    names = list(variants)
    truth_name = truth_name or names[0]
    if truth_name not in variants:
        raise ValueError(f"unknown truth variant {truth_name!r}")
    shape = next(iter(variants.values())).values.shape
    for name, hf in variants.items():
        if hf.values.shape != shape:
            raise ValueError(f"variant {name!r} is on a different grid")

    (x1, y1), (x2, y2) = anchor
    h, w = shape
    for x, y in ((x1, y1), (x2, y2)):
        if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
            raise ValueError("anchor outside raster")
    length = math.hypot(x2 - x1, y2 - y1)
    if length == 0:
        raise ValueError("anchor has zero length")
    n_st = int(math.floor(length / step)) + 1
    stations = np.arange(n_st) * step
    ux, uy = (x2 - x1) / length, (y2 - y1) / length
    xs = x1 + stations * ux
    ys = y1 + stations * uy

    profiles = {}
    for name, hf in variants.items():
        vals, valid = sample_bilinear(hf, xs, ys, skip_nodata=True)
        profiles[name] = np.where(valid, vals, np.nan)

    truth_prof = profiles[truth_name]
    out_rmse = {}
    for name, prof in profiles.items():
        both = ~np.isnan(prof) & ~np.isnan(truth_prof)
        diff = prof[both] - truth_prof[both]
        out_rmse[name] = float(np.sqrt((diff * diff).mean())) if both.any() else float("nan")
    return CrossSection((tuple(anchor[0]), tuple(anchor[1])), stations, profiles, out_rmse)


# ---------------------------------------------------------------------------
# CSV emission (Table-style report, sweep, cross-section)
# ---------------------------------------------------------------------------


def write_report_csv(
    rows: list[tuple[str, str, RmseReport]], path: str | Path, widths: tuple[int, ...] = (5, 10, 20)
) -> None:
    """Rows of (region, method, report); one buffer column per width."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "method", "whole"] + [f"buf{w}" for w in widths])
        for region, method, rep in rows:
            writer.writerow(
                [region, method, f"{rep.whole_image:.3f}"]
                + [f"{rep.per_buffer[w]:.3f}" for w in widths]
            )


def write_sweep_csv(pairs: list[tuple[int, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width", "rmse"])
        for width, value in pairs:
            writer.writerow([width, f"{value:.6f}"])


def write_cross_section_csv(section: CrossSection, path: str | Path) -> None:
    names = list(section.profiles)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station"] + names)
        for i, s in enumerate(section.stations):
            writer.writerow(
                [f"{s:.3f}"] + [f"{section.profiles[n][i]:.6f}" for n in names]
            )
