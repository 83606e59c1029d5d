"""Straight line segments on the orthophoto: detection, filtering, widths.

The detector follows the classic gradient-orientation region-growing recipe:
pixels with agreeing gradient orientations are grown into regions, each
region's principal axis becomes a candidate segment, and short or sparse
regions are dropped. It is fully deterministic for a fixed input. Detected
segments are then filtered against the DSM boundary buffer and assigned a
building-width index by walking the tophat ladder up, rung by rung, until
each segment lies on a rung's contours.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import GAUSSIAN_SIGMA_MAX, bresenham_line, dilate_mask, gaussian, read_text, write_csv
from .tophat import Rung, TophatStack

logger = logging.getLogger(__name__)

# a segment matches a rung when more than half of its raster walk lies
# within this many pixels of the rung's contours
OVERLAP_RADIUS = 2


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
        if not 0 <= self.smoothing_sigma <= GAUSSIAN_SIGMA_MAX:
            limit, value = GAUSSIAN_SIGMA_MAX, self.smoothing_sigma
            raise ValueError(f"smoothing_sigma must be in [0, {limit:g}], got {value}")


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def _gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2x2 difference gradients on the (h-1, w-1) dual grid.

    The gradient at index (y, x) belongs to image point (x + 0.5, y + 0.5),
    which keeps detected lines registered with inter-pixel edges.
    """
    a = np.asarray(img, dtype=np.float64)
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
    img = gaussian(img, params.smoothing_sigma)

    # the image and the gradients are freed as soon as the padded angles exist
    gx, gy, mag = _gradients(img)
    del img
    pw = mag.shape[1] + 2
    angle = np.zeros((mag.shape[0] + 2, pw))
    np.arctan2(gy, gx, out=angle[1:-1, 1:-1])  # gradient orientation; compared mod pi
    del gx, gy
    usable = mag > params.gradient_threshold
    tol = math.radians(params.angle_tolerance)

    # flat grid padded by one cell; the border and the unusable cells start
    # visited, so neighbour lookups need no bounds checks. Memoryviews hand
    # the loop Python ints and floats without a Python object per pixel.
    inner = np.zeros(angle.shape, dtype=bool)
    inner[1:-1, 1:-1] = usable
    visited = bytearray((~inner).tobytes())
    # usable cells in row-major order, stably sorted by magnitude descending;
    # the flat indices are gathered into the sort order's own array
    order = np.argsort(-mag[usable], kind="stable")
    seeds = memoryview(np.take(np.flatnonzero(inner), order, out=order, mode="clip"))
    angle = memoryview(angle.ravel())
    del inner, usable

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


# more than the rounding of the fit's projections can add to its extent
_FIT_SLACK = 1e-6


def _fit_segment(region, pw, mag, min_length) -> LineSegment | None:
    """Principal axis of a pixel region, weighted by gradient magnitude.

    region holds flat indices into mag's grid padded by one cell, whose rows
    are pw cells long. The fit's extent along any axis is at most the
    diagonal of the pixel centres' bounding box, so a region whose diagonal
    falls short of min_length by more than _FIT_SLACK gives None unfitted.
    An end beyond the image's footprint, -0.5 <= x <= width - 0.5 and the
    same for y, moves along the line onto its edge, so sharpen takes every
    segment the detector gives.
    """
    rows, cols = np.divmod(np.array(region), pw)
    span = math.hypot(int(cols.max() - cols.min()), int(rows.max() - rows.min()))
    if span < min_length - _FIT_SLACK:
        return None
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
    # the image is one cell larger than its gradients' dual grid; the
    # centroid lies on its footprint, so the clipped ends enclose it
    gh, gw = mag.shape[0] + 1, mag.shape[1] + 1
    for c, u, side in ((cx, ux, gw), (cy, uy, gh)):
        if u != 0.0:
            a, b = sorted(((-0.5 - c) / u, (side - 0.5 - c) / u))
            tmin, tmax = max(tmin, a), min(tmax, b)
    if tmax - tmin < min_length:
        return None
    # an end clipped onto an edge may round past it
    e1, e2 = ((min(max(x, -0.5), gw - 0.5), min(max(y, -0.5), gh - 0.5))
              for x, y in ((cx + tmin * ux, cy + tmin * uy), (cx + tmax * ux, cy + tmax * uy)))
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


def filter_segments(
    segments: list[LineSegment],
    boundary_mask: np.ndarray,
    buffer_radius: int = 5,
) -> list[LineSegment]:
    """Keep segments with strictly more than half their raster pixels on the
    dilated DSM boundary; order is preserved. This is the width walk on the
    one image."""
    hits = _width_walk([seg.raster_points() for seg in segments], [boundary_mask], buffer_radius)
    return [seg for seg, hit in zip(segments, hits) if hit is not None]


# ---------------------------------------------------------------------------
# Width estimation: a walk up the tophat ladder
# ---------------------------------------------------------------------------


def _width_walk(
    walks: list[np.ndarray], images: Iterable[np.ndarray], radius: int
) -> list[int | None]:
    """Per raster walk, the 1-based index of the first image whose dilation
    by radius holds strictly more than half of the walk's pixels, or None;
    a pixel off the grid is a miss.

    Images are drawn one at a time and only while some walk is unmatched,
    so a lazy ladder builds no rung past the last one needed.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    widths: list[int | None] = [None] * len(walks)
    pending = list(range(len(walks)))
    upward = iter(images)
    index = 0
    while pending and (image := next(upward, None)) is not None:
        index += 1
        buffer = dilate_mask(image, radius)
        h, w = buffer.shape
        unmatched = []
        for k in pending:
            xs, ys = walks[k][:, 0], walks[k][:, 1]
            inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            if 2 * int(buffer[ys[inside], xs[inside]].sum()) > len(xs):
                widths[k] = index
            else:
                unmatched.append(k)
        pending = unmatched
    return widths


def estimate_width(
    segment: LineSegment, stack: TophatStack, overlap_radius: int = OVERLAP_RADIUS
) -> int:
    """1-based index of the first contour image whose buffered pixels cover
    more than half the segment's raster walk."""
    (width,) = _width_walk([segment.raster_points()], stack.contour_images, overlap_radius)
    if width is None:
        raise UnmatchedSegmentError("unmatched segment")
    return width


def assign_widths(
    segments: list[LineSegment],
    rungs: Iterable[Rung],
    overlap_radius: int = OVERLAP_RADIUS,
) -> list[LineSegment]:
    """Width-annotate all segments, dropping the unmatched ones with a warning.

    ``rungs`` is the tophat ladder bottom up: a lazy ``tophat.ladder``, which
    is walked only until every segment has its index (or the ladder ends at
    the building mask), or a built TophatStack. Each rung's contour image
    is dilated once, by ``overlap_radius`` (the method's fixed 2 px in the
    pipeline), for all the segments still unmatched.
    """
    widths = _width_walk(
        [seg.raster_points() for seg in segments],
        (rung.contour_image for rung in rungs),
        overlap_radius,
    )
    out = []
    for seg, width in zip(segments, widths):
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
    write_csv(path, _CSV_HEADER, [(*s.p1, *s.p2, s.width_index) for s in segments])


def load_segments_csv(path: str | Path, line_numbers: list | None = None) -> list[LineSegment]:
    """Segments of a CSV written by save_segments_csv; ``line_numbers``
    collects the line of each segment when given.

    Raises ValueError naming the file and the line of a row that is not
    four finite coordinates and an empty or positive width_index, of a byte
    that is not UTF-8 or of a field the csv module cannot read.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        if next(reader, None) != _CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_CSV_HEADER)}")
        out = []
        for row in reader:
            if not row:
                continue
            try:
                out.append(_segment_from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            if line_numbers is not None:
                line_numbers.append(reader.line_num)
    except csv.Error as exc:
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
