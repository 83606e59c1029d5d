import numpy as np
import pytest

from dsmsharp import planefit as pf
from dsmsharp.lines import LineSegment
from dsmsharp.raster import Heightfield
from dsmsharp.planefit import (
    DegenerateGeometryError,
    InsufficientSupportError,
    PlaneParams,
    SideSample,
)


def sample_of(points):
    return SideSample("left", np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# Buffer sizing
# ---------------------------------------------------------------------------


def test_buffer_half_width_examples():
    assert pf.buffer_half_width(1) == 3
    assert pf.buffer_half_width(10) == 30
    assert pf.buffer_half_width(40) == 30


def test_buffer_half_width_monotone_and_capped():
    prev = 0
    for w in range(1, 41):
        cur = pf.buffer_half_width(w)
        assert cur >= prev
        assert cur <= 30
        prev = cur


def test_buffer_half_width_rejects_bad_index():
    with pytest.raises(ValueError):
        pf.buffer_half_width(0)


# ---------------------------------------------------------------------------
# Side collection
# ---------------------------------------------------------------------------


def test_collect_sides_vertical_segment():
    dsm = Heightfield(np.arange(121, dtype=float).reshape(11, 11))
    seg = LineSegment((5.0, 0.0), (5.0, 10.0))
    left, right = pf.collect_side_pixels(dsm, seg, 2)
    left_cols = sorted(set(left.pixels[:, 0].astype(int)))
    right_cols = sorted(set(right.pixels[:, 0].astype(int)))
    assert left_cols == [3, 4]
    assert right_cols == [6, 7]
    assert sorted(set(left.pixels[:, 1].astype(int))) == list(range(11))
    assert len(left) == 22 and len(right) == 22
    # heights echo the raster
    for x, y, h in left.pixels:
        assert h == dsm.values[int(y), int(x)]


def test_collect_sides_excludes_line_pixels():
    dsm = Heightfield(np.zeros((11, 11)))
    seg = LineSegment((5.0, 0.0), (5.0, 10.0))
    left, right = pf.collect_side_pixels(dsm, seg, 3)
    for sample in (left, right):
        assert not (sample.pixels[:, 0] == 5).any()


def test_collect_sides_clips_to_raster():
    dsm = Heightfield(np.zeros((11, 11)))
    seg = LineSegment((0.0, 0.0), (0.0, 10.0))
    left, right = pf.collect_side_pixels(dsm, seg, 1)
    assert len(left) == 0  # left of the segment is off-raster
    assert sorted(set(right.pixels[:, 0].astype(int))) == [1]


def test_collect_sides_of_a_rectangle_off_the_grid_are_empty():
    dsm = Heightfield(np.zeros((10, 10)))
    left, right = pf.collect_side_pixels(dsm, LineSegment((30.0, 2.0), (40.0, 2.0)), 3)
    assert (left.side, right.side) == ("left", "right")
    assert left.pixels.shape == right.pixels.shape == (0, 3)


def test_collect_sides_respects_endpoints():
    dsm = Heightfield(np.zeros((20, 20)))
    seg = LineSegment((10.0, 5.0), (10.0, 9.0))
    left, right = pf.collect_side_pixels(dsm, seg, 2)
    ys = np.concatenate([left.pixels[:, 1], right.pixels[:, 1]])
    assert ys.min() >= 5 and ys.max() <= 9


def test_collect_sides_skips_nodata():
    vals = np.zeros((11, 11))
    vals[4, 3] = -9999.0
    dsm = Heightfield(vals)
    seg = LineSegment((5.0, 0.0), (5.0, 10.0))
    left, _ = pf.collect_side_pixels(dsm, seg, 2)
    coords = {(int(x), int(y)) for x, y, _ in left.pixels}
    assert (3, 4) not in coords
    assert len(left) == 21


def test_sides_disjoint():
    dsm = Heightfield(np.zeros((16, 16)))
    seg = LineSegment((3.0, 2.0), (12.0, 13.0))
    left, right = pf.collect_side_pixels(dsm, seg, 4)
    lc = {(int(x), int(y)) for x, y, _ in left.pixels}
    rc = {(int(x), int(y)) for x, y, _ in right.pixels}
    assert not (lc & rc)


# ---------------------------------------------------------------------------
# Plane fitting
# ---------------------------------------------------------------------------


def test_fit_exact_plane():
    plane = pf.fit_plane(sample_of([(0, 0, 1), (1, 0, 3), (0, 1, 4), (1, 1, 6)]))
    assert abs(plane.a - 2) < 1e-12
    assert abs(plane.b - 3) < 1e-12
    assert abs(plane.c - 1) < 1e-12


def test_fit_constant_plane():
    plane = pf.fit_plane(sample_of([(0, 0, 5), (3, 1, 5), (1, 4, 5), (2, 2, 5)]))
    assert abs(plane.a) < 1e-12 and abs(plane.b) < 1e-12 and abs(plane.c - 5) < 1e-12


def test_fit_matches_independent_solver():
    rng = np.random.default_rng(51)
    xs = rng.uniform(0, 40, 50)
    ys = rng.uniform(0, 40, 50)
    hs = 1.5 * xs - 0.75 * ys + 12.0 + rng.normal(0, 0.2, 50)
    plane = pf.fit_plane(sample_of(np.column_stack([xs, ys, hs])))
    a_mat = np.column_stack([xs, ys, np.ones(50)])
    ref, *_ = np.linalg.lstsq(a_mat, hs, rcond=None)
    assert abs(plane.a - ref[0]) < 1e-9
    assert abs(plane.b - ref[1]) < 1e-9
    assert abs(plane.c - ref[2]) < 1e-9


def test_fit_residual_orthogonality():
    rng = np.random.default_rng(52)
    xs = rng.uniform(0, 100, 80)
    ys = rng.uniform(0, 100, 80)
    hs = rng.normal(0, 5, 80)
    plane = pf.fit_plane(sample_of(np.column_stack([xs, ys, hs])))
    a_mat = np.column_stack([xs, ys, np.ones(80)])
    resid = a_mat @ np.array([plane.a, plane.b, plane.c]) - hs
    lhs = np.linalg.norm(a_mat.T @ resid)
    assert lhs <= 1e-6 * np.linalg.norm(a_mat.T @ hs)


def test_fit_insufficient_support():
    with pytest.raises(InsufficientSupportError, match="insufficient support"):
        pf.fit_plane(sample_of([(0, 0, 1), (1, 1, 2)]))


def test_fit_collinear_degenerate():
    pts = [(i, 2 * i + 1, float(i)) for i in range(6)]
    with pytest.raises(DegenerateGeometryError, match="degenerate geometry"):
        pf.fit_plane(sample_of(pts))


# ---------------------------------------------------------------------------
# Applying planes
# ---------------------------------------------------------------------------


def test_apply_constant_plane():
    dsm = Heightfield(np.zeros((8, 8)))
    sample = sample_of([(1, 1, 0), (2, 5, 0), (6, 3, 0)])
    out = pf.apply_plane(dsm, sample, PlaneParams(0, 0, 7))
    assert out.values[1, 1] == 7 and out.values[5, 2] == 7 and out.values[3, 6] == 7
    assert (out.values != 0).sum() == 3


def test_apply_an_empty_sample_returns_an_equal_copy():
    dsm = Heightfield(np.random.default_rng(61).normal(size=(6, 9)))
    out = pf.apply_plane(dsm, SideSample("left", np.zeros((0, 3))), PlaneParams(1, 2, 3))
    assert out.values is not dsm.values
    assert out.values.tobytes() == dsm.values.tobytes()


def test_apply_fitted_plane_reproduces_planar_data():
    yy, xx = np.mgrid[0:10, 0:10]
    vals = 0.5 * xx - 0.25 * yy + 3.0
    dsm = Heightfield(vals.astype(float))
    pts = [(x, y, vals[y, x]) for x in range(2, 6) for y in range(3, 8)]
    sample = sample_of(pts)
    plane = pf.fit_plane(sample)
    out = pf.apply_plane(dsm, sample, plane)
    assert np.allclose(out.values, dsm.values)


def test_apply_touches_exactly_sample_pixels():
    rng = np.random.default_rng(60)
    dsm = Heightfield(rng.normal(size=(12, 12)))
    pts = [(int(x), int(y), dsm.values[int(y), int(x)]) for x, y in rng.integers(0, 12, (9, 2))]
    sample = sample_of(pts)
    out = pf.apply_plane(dsm, sample, PlaneParams(1, 1, 100))
    changed = {(x, y) for y, x in zip(*np.nonzero(out.values != dsm.values))}
    assert changed <= {(int(p[0]), int(p[1])) for p in pts}


# ---------------------------------------------------------------------------
# Full adjustment
# ---------------------------------------------------------------------------


def test_adjust_all_no_segments_is_identity():
    rng = np.random.default_rng(62)
    dsm = Heightfield(rng.normal(size=(20, 20)))
    out = pf.adjust_all(dsm, [])
    assert np.array_equal(out.values, dsm.values)


def test_adjust_all_requires_width():
    dsm = Heightfield(np.zeros((10, 10)))
    with pytest.raises(ValueError, match="width_index"):
        pf.adjust_all(dsm, [LineSegment((1.0, 1.0), (8.0, 1.0))])


def side_cells(dsm, segments):
    """Cells of every side sample, each collected from the original DSM (a
    later segment's buffer does not depend on an earlier one's heights)."""
    region = np.zeros(dsm.values.shape, bool)
    for seg in segments:
        for s in pf.collect_side_pixels(dsm, seg, pf.buffer_half_width(seg.width_index)):
            region[s.pixels[:, 1].astype(int), s.pixels[:, 0].astype(int)] = True
    return region


def test_adjust_all_planar_sides_change_nothing_outside_ring():
    yy, xx = np.mgrid[0:30, 0:30]
    vals = (0.2 * xx + 0.1 * yy + 5.0).astype(float)
    dsm = Heightfield(vals)
    seg = LineSegment((14.5, 4.0), (14.5, 25.0), width_index=1)
    out = pf.adjust_all(dsm, [seg])
    # the fitted planes reproduce the data, so adjusted pixels are unchanged
    # to rounding; every other cell keeps its exact bits
    region = side_cells(dsm, [seg])
    assert region.any() and not region.all()
    assert np.array_equal(out.values[~region], dsm.values[~region])
    assert np.allclose(out.values[region], dsm.values[region], atol=1e-9)


def test_adjust_all_sharpens_blurred_step():
    from scipy.ndimage import gaussian_filter

    truth = np.zeros((40, 60))
    truth[:, 30:] = 10.0
    smeared = gaussian_filter(truth, sigma=2.0, truncate=3.0, mode="nearest")
    dsm = Heightfield(smeared)
    seg = LineSegment((29.5, 0.0), (29.5, 39.0), width_index=4)
    out = pf.adjust_all(dsm, [seg])
    band = np.zeros((40, 60), bool)
    band[:, 25:35] = True
    before = np.sqrt(((smeared - truth)[band] ** 2).mean())
    after = np.sqrt(((out.values - truth)[band] ** 2).mean())
    assert after < before


def test_adjust_all_touches_only_buffers_and_ring():
    rng = np.random.default_rng(63)
    dsm = Heightfield(rng.normal(size=(40, 40)))
    seg = LineSegment((20.0, 5.0), (20.0, 34.0), width_index=2)
    out = pf.adjust_all(dsm, [seg])
    hw = pf.buffer_half_width(2)
    changed = out.values != dsm.values
    assert changed.any()
    assert not (changed & ~side_cells(dsm, [seg])).any()
    for y, x in zip(*np.nonzero(changed)):
        assert abs(x - 20) <= hw
        assert 5 <= y <= 34


@pytest.mark.parametrize("nodata", [-9999.0, -np.inf, np.inf])
def test_adjust_all_crossing_segments_change_only_side_cells(nodata):
    rng = np.random.default_rng(64)
    vals = rng.normal(10.0, 3.0, size=(48, 52))
    vals[20:27, 22:30] = nodata  # a hole where the segments cross
    vals[rng.random(vals.shape) < 0.05] = nodata
    dsm = Heightfield(vals, nodata=nodata)
    segments = [
        LineSegment((4.0, 24.5), (47.0, 24.5), width_index=2),
        LineSegment((25.5, 3.0), (25.5, 44.0), width_index=3),
        LineSegment((6.0, 6.0), (44.0, 40.0), width_index=1),
    ]
    out = pf.adjust_all(dsm, segments)
    changed = out.values != dsm.values
    region = side_cells(dsm, segments)
    assert changed.any() and not region.all()
    assert not (changed & ~region).any()
    # a nodata cell is never a side pixel, so it stays nodata
    assert (out.values[vals == nodata] == nodata).all()


def test_adjust_all_constant_fallback_for_degenerate_side():
    vals = np.full((12, 12), 2.0)
    dsm = Heightfield(vals)
    # width 1 -> half width 3, but segment hugs the left edge so the left
    # side has a single 1-px column: collinear -> constant fallback
    seg = LineSegment((1.0, 2.0), (1.0, 9.0), width_index=1)
    out = pf.adjust_all(dsm, [seg])
    assert np.allclose(out.values, 2.0)


def test_adjust_all_skips_a_side_without_valid_pixels():
    # along the footprint's top edge, y = -0.5, the right side lies off the grid
    vals = np.tile(np.arange(20, dtype=float), (20, 1))
    dsm = Heightfield(vals)
    seg = LineSegment((2.0, -0.5), (15.0, -0.5), width_index=1)
    left, right = pf.collect_side_pixels(dsm, seg, pf.buffer_half_width(1))
    assert len(left) > 0 and len(right) == 0
    rows = []
    out = pf.adjust_all(dsm, [seg], debug_rows=rows)
    assert [(r[4], r[8]) for r in rows] == [("left", len(left))]
    assert np.allclose(out.values, vals)  # the left side's plane is the DSM's


def test_debug_rows_collected():
    dsm = Heightfield(np.zeros((20, 20)))
    seg = LineSegment((10.0, 3.0), (10.0, 16.0), width_index=1)
    rows = []
    pf.adjust_all(dsm, [seg], debug_rows=rows)
    assert len(rows) == 2
    assert {r[4] for r in rows} == {"left", "right"}

