"""Straight line segments on the orthophoto: detection, filtering, widths.

The detector follows the classic gradient-orientation region-growing recipe:
pixels with agreeing gradient orientations are grown into regions, each
region's principal axis becomes a candidate segment, and short or sparse
regions are dropped. It is fully deterministic for a fixed input. Detected
segments are then filtered against the DSM boundary buffer and assigned a
building-width index from the tophat contour stack.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .raster import BinaryMask, bresenham_line, dilate_mask
from .tophat import TophatStack

logger = logging.getLogger(__name__)


class UnmatchedSegmentError(ValueError):
    """A segment overlaps no tophat contour image at any scale."""


@dataclass
class LineSegment:
    """Directed segment in continuous pixel coordinates.

    ``width_index`` is the 1-based tophat scale index at which the segment
    first overlaps a building contour; None until estimated.
    """

    p1: tuple[float, float]
    p2: tuple[float, float]
    width_index: int | None = None

    def __post_init__(self):
        self.p1 = (float(self.p1[0]), float(self.p1[1]))
        self.p2 = (float(self.p2[0]), float(self.p2[1]))
        if self.p1 == self.p2:
            raise ValueError("degenerate segment: identical endpoints")

    def length(self) -> float:
        return math.hypot(self.p2[0] - self.p1[0], self.p2[1] - self.p1[1])

    def raster_points(self) -> np.ndarray:
        """Integer pixels on the Bresenham walk from p1 to p2."""
        return bresenham_line(
            round(self.p1[0]), round(self.p1[1]), round(self.p2[0]), round(self.p2[1])
        )


@dataclass(frozen=True)
class DetectorParams:
    gradient_threshold: float = 5.0
    angle_tolerance: float = 22.5  # degrees
    min_length: float = 15.0
    min_region_pixels: int = 20
    smoothing_sigma: float = 0.8  # anti-aliasing blur so staircase edges grade smoothly

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.gradient_threshold, self.min_length)):
            raise ValueError("detector thresholds must be positive and finite")
        if self.min_region_pixels <= 0:
            raise ValueError("min_region_pixels must be positive")
        if not 0 < self.angle_tolerance < 90:
            raise ValueError("angle_tolerance must be in (0, 90) degrees")
        if not 0 <= self.smoothing_sigma < math.inf:
            raise ValueError("smoothing_sigma must be >= 0 and finite")


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def _gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2x2 difference gradients on the (h-1, w-1) dual grid.

    The gradient at index (y, x) belongs to image point (x + 0.5, y + 0.5),
    which keeps detected lines registered with inter-pixel edges.
    """
    a = img.astype(np.float64)
    gx = (a[:-1, 1:] + a[1:, 1:] - a[:-1, :-1] - a[1:, :-1]) / 2.0
    gy = (a[1:, :-1] + a[1:, 1:] - a[:-1, :-1] - a[:-1, 1:]) / 2.0
    mag = np.hypot(gx, gy)
    return gx, gy, mag


def detect_segments(gray, params: DetectorParams | None = None) -> list[LineSegment]:
    """Grow straight regions of agreeing gradient orientation into segments.

    Endpoints are ordered so p1 is lexicographically smaller. Output order is
    the deterministic seed order (strongest gradient first).

    The output is fixed by this traversal, which any rewrite must keep:

    - seeds are the usable pixels (magnitude above the threshold) by
      magnitude descending, then row, then column; a visited seed is skipped;
    - a region grows breadth-first from its seed; each dequeued pixel tests
      its 8 neighbours in the order (-1,-1), (-1,0), (-1,1), (0,-1), (0,1),
      (1,-1), (1,0), (1,1) as (dy, dx);
    - a neighbour joins when its orientation is within the tolerance of the
      region's mean, taken mod pi. The mean is half the atan2 of the running
      sums of ``math.cos``/``math.sin`` of the doubled angles, recomputed at
      each dequeue; the sums grow after each accepted pixel;
    - the weighted fit sees the region's pixels in the order they joined.
    """
    params = params or DetectorParams()
    img = gray.samples if hasattr(gray, "samples") else np.asarray(gray)
    if img.ndim != 2:
        raise ValueError("detect_segments expects a single-band image")
    if img.shape[0] < 2 or img.shape[1] < 2:
        return []
    img = img.astype(np.float64)
    if params.smoothing_sigma > 0:
        img = ndimage.gaussian_filter(img, params.smoothing_sigma, truncate=3.0, mode="reflect")

    gx, gy, mag = _gradients(img)
    usable = mag > params.gradient_threshold
    if not usable.any():
        return []
    tol = math.radians(params.angle_tolerance)

    # flat grid padded by one cell; the border and the unusable cells start
    # visited, so neighbour lookups need no bounds checks. Memoryviews hand
    # the loop Python ints and floats without a Python object per pixel.
    pw = mag.shape[1] + 2
    inner = np.zeros((mag.shape[0] + 2, pw), dtype=bool)
    inner[1:-1, 1:-1] = usable
    visited = bytearray((~inner).tobytes())
    # usable cells in row-major order, stably sorted by magnitude descending
    seeds = memoryview(np.flatnonzero(inner)[np.argsort(-mag[usable], kind="stable")])
    angle = np.zeros(inner.shape)
    angle[1:-1, 1:-1] = np.arctan2(gy, gx)  # gradient orientation; compared mod pi
    angle = memoryview(angle.ravel())
    del inner, usable, gx, gy

    # flat steps to the up-left, up and up-right neighbours; adding a step
    # instead of subtracting it reaches the mirrored neighbour below
    ul, u, ur = pw + 1, pw, pw - 1
    cos, sin, atan2, pi = math.cos, math.sin, math.atan2, math.pi
    min_pixels = params.min_region_pixels
    segments: list[LineSegment] = []
    for seed in seeds:
        if visited[seed]:
            continue
        # region grows while orientations agree with the running mean,
        # tracked through doubled angles so opposite gradients align; the
        # region list is also the breadth-first queue, as a list iterator
        # goes on to the items appended while it runs
        region = [seed]
        visited[seed] = 1
        sum_cos = cos(2.0 * angle[seed])
        sum_sin = sin(2.0 * angle[seed])
        for cell in region:
            mean_angle = 0.5 * atan2(sum_sin, sum_cos)
            for n in (cell - ul, cell - u, cell - ur, cell - 1,
                      cell + 1, cell + ur, cell + u, cell + ul):
                if visited[n]:
                    continue
                d = abs(angle[n] - mean_angle) % pi
                if d > tol and pi - d > tol:
                    continue
                visited[n] = 1
                region.append(n)
                sum_cos += cos(2.0 * angle[n])
                sum_sin += sin(2.0 * angle[n])

        if len(region) < min_pixels:
            continue
        seg = _fit_segment(region, pw, mag, params.min_length)
        if seg is not None:
            segments.append(seg)

    return _suppress_duplicates(segments)


def _fit_segment(region, pw, mag, min_length) -> LineSegment | None:
    """Principal axis of a pixel region, weighted by gradient magnitude.

    region holds flat indices into mag's grid padded by one cell, whose rows
    are pw cells long.
    """
    rows, cols = np.divmod(np.array(region), pw)
    rows -= 1
    cols -= 1
    w = mag[rows, cols]
    xs = cols + 0.5
    ys = rows + 0.5
    wsum = w.sum()
    cx = float((w * xs).sum() / wsum)
    cy = float((w * ys).sum() / wsum)
    dxs = xs - cx
    dys = ys - cy
    mxx = float((w * dxs * dxs).sum())
    myy = float((w * dys * dys).sum())
    mxy = float((w * dxs * dys).sum())
    phi = 0.5 * math.atan2(2.0 * mxy, mxx - myy)
    ux, uy = math.cos(phi), math.sin(phi)
    t = dxs * ux + dys * uy
    tmin, tmax = float(t.min()), float(t.max())
    if tmax - tmin < min_length:
        return None
    e1 = (cx + tmin * ux, cy + tmin * uy)
    e2 = (cx + tmax * ux, cy + tmax * uy)
    if e2 < e1:
        e1, e2 = e2, e1
    return LineSegment(e1, e2)


def _point_segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = 0.0 if den == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _suppress_duplicates(segments: list[LineSegment], radius: float = 2.0) -> list[LineSegment]:
    """Drop segments whose endpoints both lie within radius of a longer kept one.

    Segments are visited by length descending, ties by index. Only the kept
    segments whose bounding box, grown by radius, holds both endpoints of the
    candidate can be that close; the exact distance test runs on those.
    """
    by_length = sorted(range(len(segments)), key=lambda i: (-segments[i].length(), i))
    ends = np.array([(*s.p1, *s.p2) for s in segments], dtype=np.float64).reshape(-1, 4)
    x1, y1, x2, y2 = ends.T
    x_min, x_max = np.minimum(x1, x2), np.maximum(x1, x2)
    y_min, y_max = np.minimum(y1, y2), np.maximum(y1, y2)
    # the slack keeps the box test conservative against rounding in the
    # exact distance, far above it for any pixel coordinate
    reach = radius + 1e-6
    left, right, top, bottom = x_min - reach, x_max + reach, y_min - reach, y_max + reach
    kept = np.zeros(len(segments), dtype=bool)
    for i in by_length:
        s = segments[i]
        near = (kept & (left <= x_min[i]) & (x_max[i] <= right)
                & (top <= y_min[i]) & (y_max[i] <= bottom))
        kept[i] = not any(
            _point_segment_distance(s.p1, segments[k].p1, segments[k].p2) <= radius
            and _point_segment_distance(s.p2, segments[k].p1, segments[k].p2) <= radius
            for k in np.flatnonzero(near).tolist()
        )
    return [s for i, s in enumerate(segments) if kept[i]]


# ---------------------------------------------------------------------------
# Filtering against the DSM boundary buffer
# ---------------------------------------------------------------------------


def _buffer_fraction_hits(points: np.ndarray, buffer_bits: np.ndarray) -> tuple[int, int]:
    h, w = buffer_bits.shape
    xs, ys = points[:, 0], points[:, 1]
    inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    hits = int(buffer_bits[ys[inside], xs[inside]].sum())
    return hits, len(points)


def filter_segments(
    segments: list[LineSegment],
    boundary_mask: BinaryMask,
    buffer_radius: int = 5,
) -> list[LineSegment]:
    """Keep segments with strictly more than half their raster pixels on the
    dilated DSM boundary; order is preserved."""
    if buffer_radius < 0:
        raise ValueError("buffer_radius must be >= 0")
    buffer = dilate_mask(boundary_mask, buffer_radius).bits
    out = []
    for seg in segments:
        hits, total = _buffer_fraction_hits(seg.raster_points(), buffer)
        if 2 * hits > total:
            out.append(seg)
    return out


# ---------------------------------------------------------------------------
# Width estimation from the tophat contour stack
# ---------------------------------------------------------------------------


def _width_index(pts: np.ndarray, buffers) -> int | None:
    """1-based index of the first buffer holding more than half of the
    walk ``pts``, or None."""
    for i, buf in enumerate(buffers, start=1):
        hits, total = _buffer_fraction_hits(pts, buf)
        if 2 * hits > total:
            return i
    return None


def estimate_width(segment: LineSegment, stack: TophatStack, overlap_radius: int = 2) -> int:
    """1-based index of the first contour image whose buffered pixels cover
    more than half the segment's raster walk."""
    if overlap_radius < 0:
        raise ValueError("overlap_radius must be >= 0")
    buffers = (dilate_mask(cimg, overlap_radius).bits for cimg in stack.contour_images)
    width = _width_index(segment.raster_points(), buffers)
    if width is None:
        raise UnmatchedSegmentError("unmatched segment")
    return width


def assign_widths(
    segments: list[LineSegment],
    stack: TophatStack,
    overlap_radius: int = 2,
) -> list[LineSegment]:
    """Width-annotate all segments, dropping the unmatched ones with a warning.

    Dilates each contour image once, so prefer this over estimate_width in a
    loop when annotating many segments.
    """
    buffered = [dilate_mask(ci, overlap_radius).bits for ci in stack.contour_images]
    out = []
    for seg in segments:
        width = _width_index(seg.raster_points(), buffered)
        if width is None:
            logger.warning("dropping unmatched segment %s -> %s", seg.p1, seg.p2)
            continue
        out.append(LineSegment(seg.p1, seg.p2, width))
    return out


# ---------------------------------------------------------------------------
# Segment CSV
# ---------------------------------------------------------------------------

_CSV_HEADER = ["x1", "y1", "x2", "y2", "width_index"]


def save_segments_csv(segments: list[LineSegment], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in segments:
            width = "" if s.width_index is None else str(s.width_index)
            writer.writerow([repr(s.p1[0]), repr(s.p1[1]), repr(s.p2[0]), repr(s.p2[1]), width])


def load_segments_csv(path: str | Path) -> list[LineSegment]:
    """Segments of a CSV written by save_segments_csv.

    Raises ValueError naming the file and the line of a row that is not
    four finite coordinates and an empty or positive width_index.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_CSV_HEADER)}")
        out = []
        for row in reader:
            if not row:
                continue
            try:
                out.append(_segment_from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def _segment_from_row(row: list[str]) -> LineSegment:
    if len(row) != 5:
        raise ValueError(f"bad row {row!r}")
    x1, y1, x2, y2 = (float(v) for v in row[:4])
    if not all(map(math.isfinite, (x1, y1, x2, y2))):
        raise ValueError(f"non-finite coordinate in {row!r}")
    width = int(row[4]) if row[4] != "" else None
    if width is not None and width < 1:
        raise ValueError(f"width_index must be >= 1, got {width}")
    return LineSegment((x1, y1), (x2, y2), width)
