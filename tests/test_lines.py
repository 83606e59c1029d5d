import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dsmsharp import lines
from dsmsharp.lines import DetectorParams, LineSegment, UnmatchedSegmentError
from dsmsharp.raster import RasterImage, bresenham_line, dilate_mask
from dsmsharp.tophat import TophatStack


def make_stack(contour_images):
    masks = [c.copy() for c in contour_images]
    return TophatStack(
        scales=list(range(10, 10 * len(contour_images) + 1, 10)),
        cumulative_masks=masks,
        contour_images=list(contour_images),
    )


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def test_constant_image_gives_nothing():
    img = RasterImage(np.full((64, 64), 120, dtype=np.uint8))
    assert lines.detect_segments(img) == []


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 1)])
def test_an_image_one_pixel_thin_gives_nothing(shape):
    img = RasterImage((np.arange(40)[: max(shape)] * 6).reshape(shape).astype(np.uint8))
    assert lines.detect_segments(img) == []


def test_vertical_step_edge():
    img = np.zeros((128, 128), dtype=np.uint8)
    img[:, 64:] = 255
    segs = lines.detect_segments(RasterImage(img))
    assert len(segs) == 1
    (s,) = segs
    assert s.length() >= 100
    angle = math.degrees(math.atan2(s.p2[1] - s.p1[1], s.p2[0] - s.p1[0]))
    assert min(abs(abs(angle) - 90), abs(angle - 90)) < 2
    assert abs(s.p1[0] - 63.5) < 1.0  # edge sits between columns 63 and 64


def test_square_gives_four_edge_segments():
    img = np.full((96, 96), 40, dtype=np.uint8)
    img[28:68, 28:68] = 220
    segs = lines.detect_segments(RasterImage(img))
    assert len(segs) == 4
    # each true side line, in (x, y): left x=27.5, right x=67.5, top y=27.5, bottom y=67.5
    found = {"left": 0, "right": 0, "top": 0, "bottom": 0}
    for s in segs:
        mx = (s.p1[0] + s.p2[0]) / 2
        my = (s.p1[1] + s.p2[1]) / 2
        vertical = abs(s.p2[0] - s.p1[0]) < abs(s.p2[1] - s.p1[1])
        if vertical and abs(mx - 27.5) < 2:
            found["left"] += 1
        elif vertical and abs(mx - 67.5) < 2:
            found["right"] += 1
        elif not vertical and abs(my - 27.5) < 2:
            found["top"] += 1
        elif not vertical and abs(my - 67.5) < 2:
            found["bottom"] += 1
    assert all(v == 1 for v in found.values()), found


def test_endpoints_lexicographically_ordered():
    img = np.full((80, 80), 30, dtype=np.uint8)
    img[20:60, 20:60] = 200
    for s in lines.detect_segments(RasterImage(img)):
        assert s.p1 <= s.p2


def test_detection_matches_180_rotation():
    rng = np.random.default_rng(17)
    img = np.full((90, 90), 50, dtype=np.uint8)
    img[25:70, 30:65] = 210
    img = (img + rng.integers(0, 3, img.shape)).astype(np.uint8)
    segs = lines.detect_segments(RasterImage(img))
    rot = lines.detect_segments(RasterImage(img[::-1, ::-1].copy()))
    assert len(segs) == len(rot) > 0
    h, w = img.shape

    def canon(seglist, flip):
        out = []
        for s in seglist:
            pts = [s.p1, s.p2]
            if flip:
                pts = [((w - 1) - x, (h - 1) - y) for x, y in pts]
            out.append(tuple(sorted(pts)))
        return sorted(out)

    for a, b in zip(canon(segs, False), canon(rot, True)):
        for pa, pb in zip(a, b):
            assert math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= 1.0


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(angle_tolerance=95)
    with pytest.raises(ValueError):
        DetectorParams(min_length=0)


# ---------------------------------------------------------------------------
# Reference detector: the straightforward loops the detector must reproduce
# exactly (tuple seeds, bounds checks, a deque, an O(n^2) duplicate scan)
# ---------------------------------------------------------------------------


def _angle_diff_mod_pi(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def reference_detect_segments(gray, params=None):
    params = params or DetectorParams()
    img = gray.samples if hasattr(gray, "samples") else np.asarray(gray)
    if img.shape[0] < 2 or img.shape[1] < 2:
        return []
    img = img.astype(np.float64)
    if params.smoothing_sigma > 0:
        img = ndimage.gaussian_filter(img, params.smoothing_sigma, truncate=3.0, mode="reflect")

    gx, gy, mag = lines._gradients(img)
    gh, gw = mag.shape
    usable = mag > params.gradient_threshold
    if not usable.any():
        return []
    angle = np.arctan2(gy, gx)
    tol = math.radians(params.angle_tolerance)

    ys, xs = np.nonzero(usable)
    order = np.lexsort((xs, ys, -mag[ys, xs]))
    seeds = list(zip(ys[order].tolist(), xs[order].tolist()))

    visited = ~usable
    segments = []
    neigh = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

    for sy, sx in seeds:
        if visited[sy, sx]:
            continue
        region = [(sy, sx)]
        visited[sy, sx] = True
        sum_cos = math.cos(2.0 * angle[sy, sx])
        sum_sin = math.sin(2.0 * angle[sy, sx])
        queue = deque(region)
        while queue:
            cy, cx = queue.popleft()
            mean_angle = 0.5 * math.atan2(sum_sin, sum_cos)
            for dy, dx in neigh:
                ny, nx = cy + dy, cx + dx
                if ny < 0 or ny >= gh or nx < 0 or nx >= gw or visited[ny, nx]:
                    continue
                if _angle_diff_mod_pi(angle[ny, nx], mean_angle) > tol:
                    continue
                visited[ny, nx] = True
                region.append((ny, nx))
                queue.append((ny, nx))
                sum_cos += math.cos(2.0 * angle[ny, nx])
                sum_sin += math.sin(2.0 * angle[ny, nx])

        if len(region) < params.min_region_pixels:
            continue
        seg = _reference_fit_segment(region, mag, params.min_length)
        if seg is not None:
            segments.append(seg)

    return reference_suppress_duplicates(segments)


def _reference_fit_segment(region, mag, min_length):
    pts = np.array(region, dtype=np.float64)
    w = mag[pts[:, 0].astype(int), pts[:, 1].astype(int)]
    xs = pts[:, 1] + 0.5
    ys = pts[:, 0] + 0.5
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
    # ends beyond the image's footprint move along the line onto its edge;
    # the image is one cell larger than the gradients' grid
    h, w = mag.shape[0] + 1, mag.shape[1] + 1
    for c, u, side in ((cx, ux, w), (cy, uy, h)):
        if u != 0.0:
            a, b = sorted(((-0.5 - c) / u, (side - 0.5 - c) / u))
            tmin, tmax = max(tmin, a), min(tmax, b)
    if tmax - tmin < min_length:
        return None
    e1 = (cx + tmin * ux, cy + tmin * uy)
    e2 = (cx + tmax * ux, cy + tmax * uy)
    e1, e2 = ((min(max(x, -0.5), w - 0.5), min(max(y, -0.5), h - 0.5)) for x, y in (e1, e2))
    if e2 < e1:
        e1, e2 = e2, e1
    return LineSegment(e1, e2)


def reference_suppress_duplicates(segments, radius=2.0):
    by_length = sorted(range(len(segments)), key=lambda i: (-segments[i].length(), i))
    kept = []
    for i in by_length:
        s = segments[i]
        dup = any(
            lines._point_segment_distance(s.p1, segments[k].p1, segments[k].p2) <= radius
            and lines._point_segment_distance(s.p2, segments[k].p1, segments[k].p2) <= radius
            for k in kept
        )
        if not dup:
            kept.append(i)
    kept_set = set(kept)
    return [s for i, s in enumerate(segments) if i in kept_set]


def _test_image(kind, shape, seed):
    """uint8 test image: 'squares' (step-edge rectangles over faint noise),
    'rotated' (rotated rectangles, oblique edges) or 'noise'."""
    rng = np.random.default_rng(seed)
    h, w = shape
    img = rng.integers(0, 4, shape).astype(np.float64)
    if kind == "noise":
        return rng.integers(0, 256, shape).astype(np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(int(rng.integers(1, 6))):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        hx, hy = rng.uniform(2, max(3, w / 2)), rng.uniform(2, max(3, h / 2))
        theta = rng.uniform(0, math.pi) if kind == "rotated" else 0.0
        u = (xx - cx) * math.cos(theta) + (yy - cy) * math.sin(theta)
        v = -(xx - cx) * math.sin(theta) + (yy - cy) * math.cos(theta)
        img[(np.abs(u) <= hx) & (np.abs(v) <= hy)] = rng.integers(20, 250)
    return np.clip(img, 0, 255).astype(np.uint8)


def _as_tuples(segments):
    return [(s.p1, s.p2, s.width_index) for s in segments]


@pytest.mark.parametrize(
    "kind, shape, seed",
    [
        ("squares", (96, 96), 1),
        ("squares", (70, 120), 2),
        ("rotated", (96, 96), 3),
        ("rotated", (120, 64), 4),
        ("noise", (64, 64), 5),
        ("noise", (2, 80), 6),
        ("noise", (80, 2), 7),
        ("squares", (2, 80), 8),
        ("squares", (80, 2), 9),
        ("noise", (2, 2), 10),
    ],
)
def test_detector_matches_reference(kind, shape, seed):
    img = RasterImage(_test_image(kind, shape, seed))
    expected = reference_detect_segments(img)
    assert _as_tuples(lines.detect_segments(img)) == _as_tuples(expected)
    if kind != "noise" and min(shape) > 2:
        assert expected


@settings(max_examples=60)
@given(
    kind=st.sampled_from(["squares", "rotated", "noise"]),
    shape=st.tuples(st.integers(2, 64), st.integers(2, 64)),
    seed=st.integers(0, 2**32 - 1),
    params=st.builds(
        DetectorParams,
        gradient_threshold=st.floats(0.5, 60.0),
        angle_tolerance=st.floats(0.5, 89.5),
        min_length=st.floats(0.5, 20.0),
        min_region_pixels=st.integers(1, 30),
        smoothing_sigma=st.sampled_from([0.0, 0.5, 0.8, 1.7]),
    ),
)
def test_detector_matches_reference_random_params(kind, shape, seed, params):
    img = _test_image(kind, shape, seed)
    expected = reference_detect_segments(img, params)
    assert _as_tuples(lines.detect_segments(img, params)) == _as_tuples(expected)


def _seeded_regions(rng, h, w):
    """Random blobs of two or more distinct pixels and straight runs (whose
    fit spans the whole diagonal), as (row, col) lists."""
    for _ in range(40):
        r0, c0 = rng.integers(0, h - 12), rng.integers(0, w - 12)
        n = int(rng.integers(2, 40))
        rows, cols = (r0 + rng.integers(0, 12, n)).tolist(), (c0 + rng.integers(0, 12, n)).tolist()
        region = list(dict.fromkeys(zip(rows, cols)))
        if len(region) > 1:
            yield region
    # on some of these runs the fit's extent rounds to above the diagonal
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, 3), (3, 1), (-1, 1)):
        for n in range(2, 16):
            yield [(20 + k * dr, 1 + k * dc) for k in range(n)]


def _border_scene(seed):
    """Noise over four straight steps at random angles, most of them cutting
    the image's border."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(16, 64, 2))
    img = rng.normal(128, 40, (h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(4):
        a, c = rng.uniform(0, np.pi), rng.uniform(-w, w)
        img += 80 * ((np.cos(a) * xx + np.sin(a) * yy) > c)
    return np.clip(img, 0, 255)


@pytest.mark.parametrize("seed", [75, 151])
def test_segment_ends_stay_on_the_image_footprint(seed):
    # on these scenes a fitted end projects past the border; it moves along
    # its line onto the footprint's edge, where sharpen takes it
    img = _border_scene(seed)
    h, w = img.shape
    segs = lines.detect_segments(img)
    ends = [p for s in segs for p in (s.p1, s.p2)]
    assert all(-0.5 <= x <= w - 0.5 and -0.5 <= y <= h - 0.5 for x, y in ends)
    assert any(x in (-0.5, w - 0.5) or y in (-0.5, h - 0.5) for x, y in ends)
    assert segs == reference_detect_segments(img)


def test_fit_guard_matches_unguarded_fit():
    # min_length at, just below and just above each region's bounding-box
    # diagonal and its fitted extent, down to 1e-9 and one ulp apart
    rng = np.random.default_rng(12)
    h, w = 64, 64
    mag = rng.uniform(0.5, 9.0, (h, w))
    pw = w + 2
    nudges = (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3)
    for region in _seeded_regions(rng, h, w):
        rows, cols = np.array(region).T
        diag = math.hypot(int(np.ptp(cols)), int(np.ptp(rows)))
        flat = [(r + 1) * pw + c + 1 for r, c in region]
        fitted = _reference_fit_segment(region, mag, 0.0).length()
        for length in (diag, fitted, diag + 1.0, max(diag - 1.0, 0.1)):
            for min_length in [length + nudge for nudge in nudges] + [math.nextafter(length, 99)]:
                want = _reference_fit_segment(region, mag, min_length)
                got = lines._fit_segment(flat, pw, mag, min_length)
                assert (got is None) == (want is None)
                if want is not None:
                    assert (got.p1, got.p2) == (want.p1, want.p2)


def test_duplicate_suppression():
    base = LineSegment((10.0, 10.0), (50.0, 10.0))
    near = LineSegment((11.0, 11.0), (48.0, 10.5))
    far = LineSegment((10.0, 40.0), (50.0, 40.0))
    kept = lines._suppress_duplicates([base, near, far])
    assert kept == [base, far]


def test_duplicate_at_exactly_radius_is_dropped():
    base = LineSegment((10.0, 10.0), (50.0, 10.0))
    beside = LineSegment((10.0, 12.0), (48.0, 12.0))  # both ends 2.0 off the side
    beyond = LineSegment((30.0, 10.0), (52.0, 10.0))  # p2 2.0 past the end of base
    outside = LineSegment((30.0, 10.0), (52.5, 10.0))
    assert lines._suppress_duplicates([base, beside, beyond, outside]) == [base, outside]
    corner = LineSegment((20.0, 10.0), (53.0, 14.0))  # p2 at (3, 4) from the end: 5.0
    assert lines._suppress_duplicates([base, corner], radius=5.0) == [base]
    assert lines._suppress_duplicates([base, corner], radius=4.999) == [base, corner]


def test_duplicate_length_ties_keep_lower_index():
    a = LineSegment((0.0, 1.0), (10.0, 1.0))
    b = LineSegment((0.0, 0.0), (10.0, 0.0))
    c = LineSegment((10.0, 0.5), (0.0, 0.5))
    assert lines._suppress_duplicates([a, b, c]) == [a]
    assert lines._suppress_duplicates([c, b, a]) == [c]


_coord = st.integers(0, 240).map(lambda v: v / 4)  # 0 .. 60 in quarter pixels
_jitter = st.integers(-10, 10).map(lambda v: v / 4)  # up to 2.5 px


@st.composite
def _segment_sets(draw):
    """Random segments plus near-copies of some of them, with endpoint
    offsets in quarter pixels so distances of exactly 2.0 occur."""
    ends = draw(st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1, max_size=25))
    for _ in range(draw(st.integers(0, 25))):
        x1, y1, x2, y2 = draw(st.sampled_from(ends))
        ends.append((x1 + draw(_jitter), y1 + draw(_jitter),
                     x2 + draw(_jitter), y2 + draw(_jitter)))
    ends = draw(st.permutations(ends))
    return [LineSegment((x1, y1), (x2, y2)) for x1, y1, x2, y2 in ends if (x1, y1) != (x2, y2)]


@settings(max_examples=200)
@given(segments=_segment_sets(), radius=st.sampled_from([0.0, 0.5, 2.0, 3.25]))
def test_duplicate_suppression_matches_reference(segments, radius):
    expected = reference_suppress_duplicates(segments, radius)
    assert lines._suppress_duplicates(segments, radius) == expected


def test_degenerate_segment_rejected():
    with pytest.raises(ValueError):
        LineSegment((1.0, 2.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------


def test_segment_inside_buffer_kept():
    bits = np.zeros((40, 40), bool)
    bits[20, 5:35] = True
    seg = LineSegment((5.0, 20.0), (34.0, 20.0))
    assert lines.filter_segments([seg], bits, 2) == [seg]


def test_exactly_half_is_removed():
    # 10-pixel walk with exactly 5 pixels on buffer: strictly-more-than-half fails
    bits = np.zeros((10, 20), bool)
    bits[5, 0:5] = True
    seg = LineSegment((0.0, 5.0), (9.0, 5.0))
    assert lines.filter_segments([seg], bits, 0) == []
    bits[5, 5] = True  # 6 of 10 now hit
    assert lines.filter_segments([seg], bits, 0) == [seg]


def test_filter_matches_bresenham_recount():
    rng = np.random.default_rng(23)
    mask = rng.random((50, 50)) < 0.2
    radius = 3
    buffered = dilate_mask(mask, radius)
    segs = []
    for _ in range(40):
        x1, y1, x2, y2 = rng.integers(0, 50, 4)
        if (x1, y1) == (x2, y2):
            continue
        segs.append(LineSegment((float(x1), float(y1)), (float(x2), float(y2))))
    kept = lines.filter_segments(segs, mask, radius)
    expected = []
    for s in segs:
        pts = bresenham_line(round(s.p1[0]), round(s.p1[1]), round(s.p2[0]), round(s.p2[1]))
        hits = sum(bool(buffered[y, x]) for x, y in pts)
        if 2 * hits > len(pts):
            expected.append(s)
    assert kept == expected


def test_filter_monotone_in_radius_and_preserves_order():
    rng = np.random.default_rng(29)
    mask = rng.random((40, 40)) < 0.15
    segs = [
        LineSegment((float(a), float(b)), (float(c), float(d)))
        for a, b, c, d in rng.integers(0, 40, (30, 4))
        if (a, b) != (c, d)
    ]
    prev = lines.filter_segments(segs, mask, 0)
    for radius in (1, 2, 4):
        cur = lines.filter_segments(segs, mask, radius)
        assert set(id(s) for s in prev) <= set(id(s) for s in cur)
        order = [segs.index(s) for s in cur]
        assert order == sorted(order)
        prev = cur


# ---------------------------------------------------------------------------
# Width estimation
# ---------------------------------------------------------------------------


def _contour_image_with_line(shape, row, x0, x1):
    bits = np.zeros(shape, bool)
    bits[row, x0:x1] = True
    return bits


def test_width_one_for_first_image():
    shape = (30, 30)
    imgs = [_contour_image_with_line(shape, 10, 2, 28)] + [
        np.zeros(shape, bool) for _ in range(3)
    ]
    stack = make_stack(imgs)
    seg = LineSegment((2.0, 10.0), (27.0, 10.0))
    assert lines.estimate_width(seg, stack, 2) == 1


def test_width_is_index_of_last_image():
    shape = (30, 30)
    imgs = [np.zeros(shape, bool) for _ in range(39)] + [
        _contour_image_with_line(shape, 10, 2, 28)
    ]
    stack = make_stack(imgs)
    seg = LineSegment((2.0, 10.0), (27.0, 10.0))
    assert lines.estimate_width(seg, stack, 2) == 40


def test_unmatched_segment_raises():
    shape = (30, 30)
    stack = make_stack([np.zeros(shape, bool) for _ in range(5)])
    seg = LineSegment((2.0, 10.0), (27.0, 10.0))
    with pytest.raises(UnmatchedSegmentError, match="unmatched segment"):
        lines.estimate_width(seg, stack, 2)


def test_width_nesting_against_cumulative_masks():
    """A segment matched at scale i stays covered by every later cumulative
    region's buffer, since the masks are nested."""
    shape = (40, 40)
    imgs, masks = [], []
    for i in range(4):
        bits = np.zeros(shape, bool)
        if i >= 1:
            bits[10 : 12 + 4 * i, 5:35] = True
        masks.append(bits)
        edge = np.zeros(shape, bool)
        if i >= 1:
            edge[10, 5:35] = True
        imgs.append(edge)
    stack = TophatStack(scales=[10, 20, 30, 40], cumulative_masks=masks, contour_images=imgs)
    seg = LineSegment((5.0, 10.0), (34.0, 10.0))
    width = lines.estimate_width(seg, stack, 2)
    assert width == 2
    pts = seg.raster_points()
    for j in range(width - 1, 4):
        buf = dilate_mask(stack.cumulative_masks[j], 2)
        hits = sum(bool(buf[y, x]) for x, y in pts)
        assert 2 * hits > len(pts)


def test_assign_widths_drops_unmatched(caplog):
    shape = (30, 30)
    imgs = [_contour_image_with_line(shape, 10, 2, 28), np.zeros(shape, bool)]
    stack = make_stack(imgs)
    good = LineSegment((2.0, 10.0), (27.0, 10.0))
    bad = LineSegment((2.0, 25.0), (27.0, 25.0))
    out = lines.assign_widths([good, bad], stack, 2)
    assert [(s.p1, s.width_index) for s in out] == [(good.p1, 1)]


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    segs = [
        LineSegment((1.5, 2.25), (10.0, 3.0), 4),
        LineSegment((0.0, 0.0), (5.5, 9.125), None),
    ]
    p = tmp_path / "segments.csv"
    lines.save_segments_csv(segs, p)
    back = lines.load_segments_csv(p)
    assert [(s.p1, s.p2, s.width_index) for s in back] == [
        (s.p1, s.p2, s.width_index) for s in segs
    ]
    # header is the documented interface
    assert p.read_text().splitlines()[0] == "x1,y1,x2,y2,width_index"


def test_csv_bad_header(tmp_path):
    p = tmp_path / "segments.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="expected header"):
        lines.load_segments_csv(p)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2,3", "bad row ['1', '2', '3']"),
        ("1,2,x,4,", "could not convert string to float: 'x'"),
        ("1,2,inf,4,", "non-finite coordinate in ['1', '2', 'inf', '4', '']"),
        ("-nan,2,3,4,1", "non-finite coordinate in ['-nan', '2', '3', '4', '1']"),
        ("1,2,3,4,0", "width_index must be >= 1, got 0"),
        ("1,2,3,4,-2", "width_index must be >= 1, got -2"),
        ("1,2,1,2,1", "degenerate segment: identical endpoints"),
    ],
)
def test_csv_bad_row_names_file_and_line(tmp_path, row, message):
    p = tmp_path / "segments.csv"
    p.write_text(f"x1,y1,x2,y2,width_index\n0,0,5,5,1\n\n{row}\n")
    with pytest.raises(ValueError) as exc:
        lines.load_segments_csv(p)
    assert str(exc.value) == f"{p}: line 4: {message}"


_CSV_TOKENS = ["", "1", "-2", "0", "2.5", "nan", "inf", "1e400", "x", '"', '"1,2"', "\x00",
               "1,2", "width_index", "9" * 5000]


@st.composite
def _corrupted_segment_csvs(draw):
    """A small valid segment CSV with one to three edits: a field replaced,
    a line dropped, repeated or inserted, or raw bytes (non-UTF-8 too)
    written over or into the file."""
    rows = [["x1", "y1", "x2", "y2", "width_index"]]
    for _ in range(draw(st.integers(0, 3))):
        x1, y1 = draw(st.integers(0, 50)), draw(st.integers(0, 50))
        rows.append([str(x1), str(y1), str(x1 + 5), str(y1 + 1), draw(st.sampled_from(["", "3"]))])
    lines_ = [",".join(r) for r in rows]
    raws = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "drop", "repeat", "insert", "bytes"]))
        if kind == "field":
            i = draw(st.integers(0, len(lines_) - 1))
            fields = lines_[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_CSV_TOKENS))
            lines_[i] = ",".join(fields)
        elif kind == "drop" and len(lines_) > 1:
            del lines_[draw(st.integers(0, len(lines_) - 1))]
        elif kind == "repeat":
            i = draw(st.integers(0, len(lines_) - 1))
            lines_.insert(i, lines_[i])
        elif kind == "insert":
            lines_.insert(draw(st.integers(0, len(lines_))), draw(st.sampled_from(_CSV_TOKENS)))
        else:
            raws.append(draw(st.binary(min_size=1, max_size=3) | st.just(b'"' + b"x" * 140000)))
    data = "\n".join(lines_).encode() + b"\n"
    for raw in raws:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + raw + data[i + draw(st.integers(0, len(raw))) :]
    return data


@settings(max_examples=300)
@given(data=_corrupted_segment_csvs())
def test_corrupted_segment_csv_raises_only_value_error_naming_the_file(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("csv") / "segments.csv"
    p.write_bytes(data)
    try:
        segs = lines.load_segments_csv(p)
    except ValueError as exc:
        assert str(exc).startswith(f"{p}: ")
    else:
        for s in segs:
            assert all(map(math.isfinite, s.p1 + s.p2)) and s.p1 != s.p2
            assert s.width_index is None or s.width_index >= 1


@pytest.mark.parametrize(
    "data, message",
    [
        (b"x1,y1,x2,y2,width_index\r\n0,0,5,5,1\r\n\xe9,1,2,3,\n",
         "line 3: not UTF-8 text (byte 0xe9)"),
        (b'x1,y1,x2,y2,width_index\n"' + b"x" * 140000 + b'"\n',
         "line 2: field larger than field limit (131072)"),
    ],
    ids=["not-utf8", "field-too-large"],
)
def test_csv_unreadable_bytes_name_file_and_line(tmp_path, data, message):
    p = tmp_path / "segments.csv"
    p.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        lines.load_segments_csv(p)
    assert str(exc.value) == f"{p}: {message}"
