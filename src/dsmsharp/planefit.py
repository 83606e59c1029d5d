"""Per-segment plane fitting: the second boundary sharpening method.

Every filtered line segment gets a rectangular buffer whose half width
adapts to the building-width index, min(3 * width, 30). DSM pixels strictly
on each side of the segment are fitted with a least-squares plane
h = a*x + b*y + c and overwritten from it, which forces a crisp height
break along the segment. No other cell changes.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import Heightfield, finite_or_nodata
from .lines import LineSegment

logger = logging.getLogger(__name__)


class InsufficientSupportError(ValueError):
    """Too few pixels on one side of a segment to fit a plane."""


class DegenerateGeometryError(ValueError):
    """Sample coordinates are collinear; the normal system is rank deficient."""


@dataclass(frozen=True)
class PlaneParams:
    """h = a*x + b*y + c, slopes in meters per pixel, offset in meters."""

    a: float
    b: float
    c: float

    def evaluate(self, xs, ys):
        return self.a * np.asarray(xs) + self.b * np.asarray(ys) + self.c


@dataclass(eq=False)
class SideSample:
    """DSM pixels strictly on one side of a directed segment.

    ``pixels`` is (n, 3) float64 with columns x, y, h; only non-nodata cells
    are collected.
    """

    side: str  # "left" | "right"
    pixels: np.ndarray

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.pixels = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 3)

    def __len__(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class FitConfig:
    width_multiplier: int = 3
    buffer_cap: int = 30
    min_points: int = 3

    def __post_init__(self):
        if min(self.width_multiplier, self.buffer_cap) <= 0:
            raise ValueError("fit config values must be positive")
        if self.min_points < 3:
            raise ValueError("min_points must be >= 3")


def buffer_half_width(width_index: int, config: FitConfig | None = None) -> int:
    """Adaptive rectangle half width: min(3 * width, 30) at the defaults."""
    config = config or FitConfig()
    if width_index < 1:
        raise ValueError("width_index must be >= 1")
    return min(config.width_multiplier * width_index, config.buffer_cap)


def collect_side_pixels(
    dsm: Heightfield, segment: LineSegment, half_width: int
) -> tuple[SideSample, SideSample]:
    """Split the segment's rectangular buffer into left/right samples.

    The rectangle is the segment swept perpendicular by +-half_width with no
    extension past the endpoints. Sidedness comes from the sign of the cross
    product (p2-p1) x (pixel-p1); pixels exactly on the line and nodata cells
    are excluded. With y growing downward, positive cross product is the
    "left" side (smaller x for a segment pointing down).
    """
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    (x1, y1), (x2, y2) = segment.p1, segment.p2
    dx, dy = x2 - x1, y2 - y1
    length = math.hypot(dx, dy)

    h, w = dsm.values.shape
    pad = half_width + 1
    xmin = max(0, int(math.floor(min(x1, x2) - pad)))
    xmax = min(w - 1, int(math.ceil(max(x1, x2) + pad)))
    ymin = max(0, int(math.floor(min(y1, y2) - pad)))
    ymax = min(h - 1, int(math.ceil(max(y1, y2) + pad)))
    if xmin > xmax or ymin > ymax:
        empty = np.empty((0, 3))
        return SideSample("left", empty), SideSample("right", empty)

    yy, xx = np.mgrid[ymin : ymax + 1, xmin : xmax + 1]
    rx = xx - x1
    ry = yy - y1
    t = (rx * dx + ry * dy) / length
    cross = dx * ry - dy * rx
    perp = cross / length
    vals = dsm.values[yy, xx]
    in_rect = (t >= 0.0) & (t <= length) & (np.abs(perp) <= half_width)
    valid = in_rect & (vals != dsm.nodata)

    def _side(mask):
        sel = valid & mask
        return np.column_stack([xx[sel], yy[sel], vals[sel]]).astype(np.float64)

    left = _side(cross > 0)
    right = _side(cross < 0)
    return SideSample("left", left), SideSample("right", right)


def fit_plane(sample: SideSample, min_points: int = 3) -> PlaneParams:
    """Least-squares plane through the sample via the normal equations.

    Coordinates are centered before solving to keep the 3x3 system well
    conditioned; the returned parameters refer to the original coordinates.
    """
    n = len(sample)
    if n < min_points:
        raise InsufficientSupportError(f"insufficient support: {n} < {min_points} points")
    xs, ys, hs = sample.pixels[:, 0], sample.pixels[:, 1], sample.pixels[:, 2]
    x0, y0 = xs.mean(), ys.mean()
    a_mat = np.column_stack([xs - x0, ys - y0, np.ones(n)])
    ata = a_mat.T @ a_mat
    if np.linalg.matrix_rank(ata) < 3:
        raise DegenerateGeometryError("degenerate geometry: collinear sample coordinates")
    try:
        sol = np.linalg.solve(ata, a_mat.T @ hs)
    except np.linalg.LinAlgError:
        raise DegenerateGeometryError("degenerate geometry: singular normal system") from None
    a, b, c_centered = float(sol[0]), float(sol[1]), float(sol[2])
    return PlaneParams(a, b, c_centered - a * x0 - b * y0)


def apply_plane(dsm: Heightfield, sample: SideSample, plane: PlaneParams) -> Heightfield:
    """Overwrite exactly the sample pixels with plane heights; returns a copy."""
    out = dsm.values.copy()
    if len(sample):
        ys, xs, heights = _plane_cells(sample, plane)
        out[ys, xs] = heights
    return dsm.like(out)


def _plane_cells(sample: SideSample, plane: PlaneParams):
    """Rows, columns and plane heights of the sample pixels."""
    xs, ys = sample.pixels[:, 0], sample.pixels[:, 1]
    return ys.astype(np.int64), xs.astype(np.int64), plane.evaluate(xs, ys)


def adjust_all(
    dsm: Heightfield,
    segments: list[LineSegment],
    config: FitConfig | None = None,
    debug_rows: list | None = None,
) -> Heightfield:
    """Run the per-segment plane adjustment over all segments in input order.

    Later segments see earlier adjustments. Sides that cannot be fitted fall
    back to the constant plane at their mean height; empty sides are skipped.
    Only the side pixels change: the planes are written into one copy of the
    DSM. ``debug_rows`` collects one fitted-plane record per side when given.
    """
    config = config or FitConfig()
    work = dsm.copy()
    for seg in segments:
        if seg.width_index is None:
            raise ValueError("segment is missing its width_index")
        half_width = buffer_half_width(seg.width_index, config)
        for sample in collect_side_pixels(work, seg, half_width):
            if len(sample) == 0:
                continue
            try:
                plane = fit_plane(sample, config.min_points)
            except (InsufficientSupportError, DegenerateGeometryError) as exc:
                logger.warning(
                    "constant-plane fallback for %s side of %s -> %s: %s",
                    sample.side, seg.p1, seg.p2, exc,
                )
                plane = PlaneParams(0.0, 0.0, float(sample.pixels[:, 2].mean()))
            ys, xs, heights = _plane_cells(sample, plane)
            if not finite_or_nodata(heights, dsm.nodata):
                raise ValueError("non-nodata cells must be finite")
            work.values[ys, xs] = heights
            if debug_rows is not None:
                debug_rows.append(
                    (
                        repr(seg.p1[0]), repr(seg.p1[1]), repr(seg.p2[0]), repr(seg.p2[1]),
                        sample.side, repr(plane.a), repr(plane.b), repr(plane.c), len(sample),
                    )
                )
    return work


def save_planes_csv(rows: list[tuple], path: str | Path) -> None:
    """Debug dump: one row per fitted side, x1,y1,x2,y2,side,a,b,c,n_points."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "y1", "x2", "y2", "side", "a", "b", "c", "n_points"])
        for row in rows:
            writer.writerow(list(row))
