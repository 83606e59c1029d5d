"""Graph-cut on the smeared ramp: ramp contours, one-sided bands, move skipping."""

import time

import numpy as np
import pytest

from dsmsharp import graphcut as gc
from dsmsharp import evaluate, lines, raster, synth
from dsmsharp.lines import LineSegment
from dsmsharp.raster import Contour, Heightfield
from dsmsharp.synth import Building, SceneSpec
from dsmsharp.tophat import TophatParams, boundary_contours, top_tophat

from test_graphcut import LABELS3, small_problem


def _walk(seg, shape):
    """The segment's raster walk burnt into a mask of ``shape``."""
    bits = np.zeros(shape, dtype=bool)
    xs, ys = seg.raster_points().T
    inside = (xs >= 0) & (xs < shape[1]) & (ys >= 0) & (ys < shape[0])
    bits[ys[inside], xs[inside]] = True
    return bits


def _walk_distance(seg, shape):
    """Chebyshev distance of every pixel to the segment's raster walk."""
    walk = _walk(seg, shape)
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    pts = np.argwhere(walk)  # (y, x)
    d = np.full(shape, np.inf)
    for y, x in pts:
        d = np.minimum(d, np.maximum(np.abs(yy - y), np.abs(xx - x)))
    return d


def _cross(seg, shape):
    (x1, y1), (x2, y2) = seg.p1, seg.p2
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (x2 - x1) * (yy - y1) - (y2 - y1) * (xx - x1)


def _check_bands(seg, roof_bits, radius):
    """Bands of one segment over a DSM that is high on ``roof_bits``."""
    shape = roof_bits.shape
    dsm = Heightfield(np.where(roof_bits, 10.0, 0.0))
    bands = gc.side_bands(dsm, [seg], radius)
    ground, roof = bands[gc.GROUND], bands[gc.ROOF]
    assert ground.any() and roof.any()
    dist = _walk_distance(seg, shape)
    assert (dist[ground] <= radius).all()
    assert (dist[roof] <= radius).all()
    # together the two sides are exactly the two-sided line buffer
    two_sided = raster.dilate_mask(_walk(seg, shape), radius)
    assert np.array_equal(ground | roof, two_sided)
    # each band stays on its own side; the roof side is where the DSM is high
    cross = _cross(seg, shape)
    roof_sign = np.sign(cross[roof_bits & two_sided & (cross != 0)]).mean()
    assert abs(roof_sign) == 1.0
    assert (np.sign(cross[roof & (cross != 0)]) == roof_sign).all()
    assert (np.sign(cross[ground & (cross != 0)]) == -roof_sign).all()
    # pixel centres on the line belong to both sides
    assert np.array_equal(ground & roof, two_sided & (cross == 0))
    return bands


@pytest.mark.parametrize("roof_right", [True, False])
@pytest.mark.parametrize("reverse", [False, True])
def test_side_bands_axis_aligned(roof_right, reverse):
    shape = (24, 24)
    xx = np.mgrid[0:24, 0:24][1]
    roof_bits = xx >= 11 if roof_right else xx <= 10
    seg = LineSegment((10.5, 3.0), (10.5, 20.0))
    if reverse:
        seg = LineSegment(seg.p2, seg.p1)
    bands = _check_bands(seg, roof_bits, 2)
    # the ortho edge sits between columns 10 and 11
    roof_cols = np.unique(np.nonzero(bands[gc.ROOF])[1])
    ground_cols = np.unique(np.nonzero(bands[gc.GROUND])[1])
    if roof_right:
        assert roof_cols.min() >= 11 and ground_cols.max() <= 10
    else:
        assert roof_cols.max() <= 10 and ground_cols.min() >= 11


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_side_bands_thirty_degrees(radius):
    shape = (40, 40)
    p1 = (6.0, 8.0)
    p2 = (6.0 + 26.0 * np.cos(np.radians(30)), 8.0 + 26.0 * np.sin(np.radians(30)))
    seg = LineSegment(p1, p2)
    roof_bits = _cross(seg, shape) < 0
    _check_bands(seg, roof_bits, radius)
    _check_bands(seg, ~roof_bits, radius)


# 10**29 used to overflow the window's int64 corners
def test_side_bands_radius_past_the_grid():
    shape = (24, 30)
    for seg in (LineSegment((10.5, 3.0), (10.5, 20.0)), LineSegment((-40.0, 2.0), (20.0, 21.0))):
        roof_bits = _cross(seg, shape) < 0
        bands = [_check_bands(seg, roof_bits, r) for r in (29, 30, 31, 1000, 10**29)]
        assert (bands[0][gc.GROUND] | bands[0][gc.ROOF]).all()
        for other in bands[1:]:
            assert np.array_equal(other, bands[0])


def test_side_bands_on_pixel_centres_radius_zero():
    # with no dilation only the walk is left, and it lies on the line
    roof_bits = np.mgrid[0:12, 0:12][0] < 6
    seg = LineSegment((2.0, 6.0), (9.0, 6.0))
    bands = gc.side_bands(Heightfield(np.where(roof_bits, 5.0, 0.0)), [seg], 0)
    walk = _walk(seg, (12, 12))
    assert np.array_equal(bands[gc.GROUND], walk)
    assert np.array_equal(bands[gc.ROOF], walk)


def test_side_bands_zero_length_segment_adds_nothing():
    seg = LineSegment((5.0, 5.0), (6.0, 5.0))
    seg.p2 = seg.p1
    bands = gc.side_bands(Heightfield(np.zeros((12, 12))), [seg], 2)
    assert bands.shape == (2, 12, 12)
    assert not bands.any()


# such a segment used to end in numpy's "negative dimensions are not allowed"
def test_side_bands_off_the_grid_adds_nothing():
    dsm = Heightfield(np.zeros((12, 12)))
    on_grid = LineSegment((2.0, 6.0), (9.0, 6.0))
    for off_grid in (LineSegment((50.0, 50.0), (60.0, 55.0)), LineSegment((-9.0, 3.0), (-4.0, 8.0))):
        assert not gc.side_bands(dsm, [off_grid], 2).any()
        both = gc.side_bands(dsm, [off_grid, on_grid], 2)
        assert np.array_equal(both, gc.side_bands(dsm, [on_grid], 2))


def test_side_bands_of_a_walk_past_int64_raise():
    # it once marked 68 band pixels where the same direction at 1e6 marks 80
    seg = LineSegment((0.0, 0.0), (1e18, 5e17))
    with pytest.raises(ValueError, match=r"leaves int64"):
        gc.side_bands(Heightfield(np.zeros((12, 12))), [seg])


# its three-million-pixel walk used to take two seconds and 400 MB
def test_side_bands_of_a_far_reaching_segment_walk_only_the_grid():
    n = 64
    seg = LineSegment((18.5, 10.0), (3000000.5, 11.0))
    roof_bits = np.mgrid[0:n, 0:n][0] < 10
    start = time.perf_counter()
    bands = gc.side_bands(Heightfield(np.where(roof_bits, 5.0, 0.0)), [seg], 2)
    assert time.perf_counter() - start < 0.5
    # on the grid the walk is row 10 from x = 18; the roof lies above it
    walk = np.zeros((n, n), dtype=bool)
    walk[10, 18:] = True
    buffer = raster.dilate_mask(walk, 2)
    cross = _cross(seg, (n, n))
    assert np.array_equal(bands[gc.GROUND], buffer & (cross >= 0))
    assert np.array_equal(bands[gc.ROOF], buffer & (cross <= 0))


def test_side_bands_rejects_negative_radius():
    with pytest.raises(ValueError):
        gc.side_bands(Heightfield(np.zeros((4, 4))), [], -1)


# ---------------------------------------------------------------------------
# Ramp contours
# ---------------------------------------------------------------------------


def _smeared_block(sigma, dims=(64, 64), size=(28, 28), height=10.0):
    spec = SceneSpec(
        dims=dims,
        buildings=[Building((dims[0] / 2, dims[1] / 2), size, height)],
        boundary_blur_sigma=sigma,
        noise_sigma=0.0,
        seed=1,
    )
    truth, smeared, ortho = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=40)
    return truth, smeared, ortho, top_tophat(smeared, params).mask, params


def test_ramp_contours_bracket_the_ramp():
    _, smeared, _, mask, params = _smeared_block(2.0)
    ground, roof = gc.ramp_contours(top_tophat(smeared, params))
    assert len(ground) == 1 and len(roof) == 1
    vals = smeared.values
    gx, gy = ground[0].points[:, 0], ground[0].points[:, 1]
    rx, ry = roof[0].points[:, 0], roof[0].points[:, 1]
    # ground-side ring lies below 20 % of the roof, the roof contour above 80 %
    assert (vals[gy, gx] <= 2.0 + 1e-9).all()
    assert (vals[ry, rx] > 8.0).all()
    # and the DSM's own 2.5 m boundary lies between them
    mid = boundary_contours(mask)[0].points
    assert gx.min() < mid[:, 0].min() < rx.min()
    assert rx.max() < mid[:, 0].max() < gx.max()


def test_ramp_contours_use_each_buildings_height():
    spec = SceneSpec(
        dims=(120, 64),
        buildings=[Building((30, 32), (24, 24), 20.0), Building((90, 32), (24, 24), 4.0)],
        boundary_blur_sigma=1.5,
        noise_sigma=0.0,
        seed=1,
    )
    _, smeared, _ = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=40)
    ground, roof = gc.ramp_contours(top_tophat(smeared, params))
    assert len(ground) == 2 and len(roof) == 2
    vals = smeared.values
    for c in roof:
        top = vals[c.points[:, 1], c.points[:, 0]]
        height = 20.0 if c.points[:, 0].mean() < 60 else 4.0
        assert (top > 0.8 * height - 0.05).all()


def test_ramp_contours_empty_mask():
    dsm = Heightfield(np.zeros((16, 16)))
    assert gc.ramp_contours(top_tophat(dsm, TophatParams(scale_min=10, scale_max=10))) == ([], [])


def test_crisp_dsm_keeps_zero_offsets():
    # on a crisp DSM both contours already lie in their bands: identity warp
    for sigma in (0.0, 0.5):
        truth, smeared, ortho, mask, params = _smeared_block(sigma)
        cmask = raster.rasterize_contours(boundary_contours(mask), smeared.values.shape)
        segs = lines.filter_segments(lines.detect_segments(raster.grayscale(ortho)), cmask, 5)
        assert len(segs) == 4
        ground, roof = gc.ramp_contours(top_tophat(smeared, params))
        problem = gc.build_problem(ground, roof, segs, smeared)
        labeling = gc.minimize(problem)
        assert (labeling.offsets == 0).all(), sigma


def test_smeared_ramp_is_squeezed_onto_the_lines():
    truth, smeared, ortho, mask, params = _smeared_block(2.0)
    cmask = raster.rasterize_contours(boundary_contours(mask), smeared.values.shape)
    segs = lines.filter_segments(lines.detect_segments(raster.grayscale(ortho)), cmask, 5)
    ground, roof = gc.ramp_contours(top_tophat(smeared, params))
    problem = gc.build_problem(ground, roof, segs, smeared)
    labeling = gc.minimize(problem)
    zero = gc.Labeling(np.zeros((problem.size, 2), int))
    assert gc.energy(problem, labeling) < gc.energy(problem, zero)
    # every contour point ends in the band on its own side
    assert all(gc.data_cost(problem, i, labeling.offsets[i]) == 0 for i in range(problem.size))
    field = gc.interpolate_offsets(problem, labeling)
    warped = gc.warp_dsm(smeared, field)
    scope = raster.dilate_mask(cmask, 5)
    assert evaluate.rmse(warped, truth, scope) < 0.9 * evaluate.rmse(smeared, truth, scope)


# ---------------------------------------------------------------------------
# Problems with a side per contour
# ---------------------------------------------------------------------------


def test_build_problem_sides_pick_their_band():
    dsm = Heightfield(np.where(np.mgrid[0:20, 0:20][1] >= 10, 10.0, 0.0))
    seg = LineSegment((9.5, 2.0), (9.5, 17.0))
    ground = Contour(np.array([[6, y] for y in range(4, 16)]), closed=False)
    roof = Contour(np.array([[12, y] for y in range(4, 16)]), closed=False)
    problem = gc.build_problem([ground], [roof], [seg], dsm)
    assert problem.line_buffer.shape == (2, 20, 20)
    assert list(problem.point_band) == [gc.GROUND] * 12 + [gc.ROOF] * 12
    # the ground contour needs +2 to reach column 8, the roof contour is home
    assert gc.data_cost(problem, 0, (0, 0)) == 10
    assert gc.data_cost(problem, 0, (2, 0)) == 0
    assert gc.data_cost(problem, 12, (0, 0)) == 0
    # column 11 is in the roof band only
    assert gc.data_cost(problem, 0, (5, 0)) == 10
    labeling = gc.minimize(problem)
    assert (labeling.offsets[:12, 0] > 0).all()
    assert (labeling.offsets[12:] == 0).all()


def test_build_problem_needs_the_dsm():
    c = Contour(np.array([[1, 1], [2, 1]]), closed=False)
    with pytest.raises(TypeError):
        gc.build_problem([c], [], [])


def test_point_band_must_name_a_layer():
    with pytest.raises(ValueError, match="missing buffer layer"):
        gc.ContourProblem(np.array([[1, 1]]), [(0, 1, False)], np.zeros((1, 5, 5), bool),
                          point_band=np.array([1]))


# ---------------------------------------------------------------------------
# Move skipping in minimize
# ---------------------------------------------------------------------------


def reference_minimize(problem, labels):
    """Plain expansion-move loop: try every label, keep strict improvements;
    each assignment is scored with the public energy."""
    larr = gc._label_array(labels)
    zero = int(np.nonzero((larr[:, 0] == 0) & (larr[:, 1] == 0))[0][0])
    dtable = gc._data_cost_table(problem, larr)
    vtable = gc.smooth_costs(larr[:, None] - larr[None])
    assign = np.full(problem.size, zero, dtype=np.int64)
    best = gc.energy(problem, gc.Labeling(larr[assign]))
    trace = [best]
    improved = True
    while improved:
        improved = False
        for alpha in range(len(labels)):
            proposal = gc._expansion_move(problem, assign, alpha, dtable, vtable, assign != alpha)
            if proposal is None:
                continue
            cand = gc.energy(problem, gc.Labeling(larr[proposal]))
            if cand < best:
                assign, best, improved = proposal, cand, True
                trace.append(best)
    return larr[assign], trace


def _random_problem(rng, two_layers):
    n = int(rng.integers(2, 7))
    pts = np.column_stack([rng.integers(2, 12, n), rng.integers(2, 12, n)])
    density = float(rng.uniform(0.1, 0.5))
    if two_layers:
        buf = rng.random((2, 14, 14)) < density
        band = rng.integers(0, 2, n)
        return gc.ContourProblem(pts, [(0, n, bool(rng.integers(0, 2)))], buf, point_band=band)
    buf = rng.random((14, 14)) < density
    return small_problem(pts, buf, closed=bool(rng.integers(0, 2)))


@pytest.mark.parametrize("two_layers", [False, True])
def test_minimize_equals_reference_loop(two_layers):
    rng = np.random.default_rng(104)
    for trial in range(60):
        prob = _random_problem(rng, two_layers)
        labels = gc.offset_labels() if trial % 10 == 0 else LABELS3
        trace = []
        got = gc.minimize(prob, labels=labels, energy_trace=trace)
        want, want_trace = reference_minimize(prob, labels)
        assert np.array_equal(got.offsets, want)
        assert trace == want_trace


def test_minimize_equals_reference_loop_on_contours():
    # longer contours with neighbour pairs, where most moves are skipped
    rng = np.random.default_rng(7)
    for _ in range(5):
        pts = [(x, 12) for x in range(6, 26)]
        buf = np.zeros((32, 32), bool)
        dx, dy = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        for x, y in pts:
            if rng.random() < 0.8:
                buf[y + dy, x + dx] = True
        prob = small_problem(pts, buf, closed=False)
        trace = []
        got = gc.minimize(prob, energy_trace=trace)
        want, want_trace = reference_minimize(prob, gc.offset_labels())
        assert np.array_equal(got.offsets, want)
        assert trace == want_trace


# ---------------------------------------------------------------------------
# Per-contour moves
# ---------------------------------------------------------------------------


def _random_contours(rng, two_layers):
    """2-4 random contours of 1-7 points each, open or closed, on one raster."""
    spans, start = [], 0
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(1, 8))
        spans.append((start, start + n, bool(rng.integers(0, 2))))
        start += n
    pts = np.column_stack([rng.integers(2, 12, start), rng.integers(2, 12, start)])
    layers = 2 if two_layers else 1
    buf = rng.random((layers, 14, 14)) < rng.uniform(0.1, 0.5)
    band = rng.integers(0, layers, start)
    return gc.ContourProblem(pts, spans, buf, point_band=band)


@pytest.mark.parametrize("two_layers", [False, True])
def test_minimize_equals_reference_loop_on_several_contours(two_layers):
    rng = np.random.default_rng(2001)
    for trial in range(40):
        prob = _random_contours(rng, two_layers)
        labels = gc.offset_labels() if trial % 5 == 0 else LABELS3
        trace = []
        got = gc.minimize(prob, labels=labels, energy_trace=trace)
        want, want_trace = reference_minimize(prob, labels)
        assert np.array_equal(got.offsets, want), trial
        assert trace == want_trace, trial


def test_expansion_move_splits_by_contour():
    # the move of two contours' points is each contour's own move
    rng = np.random.default_rng(11)
    larr = gc._label_array(LABELS3)
    for _ in range(40):
        prob = _random_contours(rng, bool(rng.integers(0, 2)))
        dtable = gc._data_cost_table(prob, larr)
        vtable = gc.smooth_costs(larr[:, None] - larr[None])
        assign = rng.integers(0, len(larr), prob.size)
        alpha = int(rng.integers(0, len(larr)))
        (a0, a1, _), (b0, b1, _) = prob.contour_spans[:2]
        in_a, in_b = np.zeros(prob.size, bool), np.zeros(prob.size, bool)
        in_a[a0:a1], in_b[b0:b1] = True, True
        movable = assign != alpha
        if not (movable & in_a).any() or not (movable & in_b).any():
            continue
        both = gc._expansion_move(prob, assign, alpha, dtable, vtable, movable & (in_a | in_b))
        only_a = gc._expansion_move(prob, assign, alpha, dtable, vtable, movable & in_a)
        only_b = gc._expansion_move(prob, assign, alpha, dtable, vtable, movable & in_b)
        assert np.array_equal(both[in_a], only_a[in_a])
        assert np.array_equal(both[in_b], only_b[in_b])
        rest = ~(in_a | in_b)
        assert np.array_equal(both[rest], assign[rest])
        assert np.array_equal(only_a[~in_a], assign[~in_a])


def test_rejected_moves_cut_only_contours_below_their_bound(monkeypatch):
    # The labels lie 6 px apart, past the smoothness radius, so neighbours
    # with different labels always pay the far cost. A: ten points 3 px
    # apart, each on its own band pixel, so every point already hits and its
    # pairs cost the least: A sits at its bound for every move. B: six points
    # whose band lies 6 rows below; the last two also hit where they are,
    # and one stray band pixel per other label tempts a single point into a
    # losing move.
    labels = [(0, -6), (-6, 0), (0, 0), (6, 0), (0, 6)]
    buf = np.zeros((20, 36), bool)
    a = [(2 + 3 * k, 3) for k in range(10)]
    b = [(4 + k, 12) for k in range(6)]
    for x, y in a:
        buf[y, x] = True
    for x, y in b:
        buf[y + 6, x] = True
    buf[12, 8:10] = True
    buf[6, 5] = buf[12, 0] = buf[12, 12] = True
    spans = [(0, 10, False), (10, 16, False)]
    prob = gc.ContourProblem(
        np.array(a + b), spans, buf[None], point_band=np.zeros(len(a + b), int)
    )
    sizes = []
    real = gc.maximum_flow

    def counting(graph, source, sink):
        sizes.append(graph.shape[0])
        return real(graph, source, sink)

    monkeypatch.setattr(gc, "maximum_flow", counting)
    trace = []
    labeling = gc.minimize(prob, labels=labels, energy_trace=trace)
    accepted = len(trace) - 1
    assert accepted >= 1
    assert (labeling.offsets[:10] == 0).all()
    assert (labeling.offsets[10:] == (0, 6)).all()
    # an accepted move cuts B, then all of A; a rejected one cuts B alone
    assert sizes.count(len(a) + 2) == accepted
    rejected = [s for s in sizes if s != len(a) + 2]
    assert len(rejected) > accepted
    assert max(rejected) <= len(b) + 2


@pytest.mark.parametrize(
    "spans",
    [
        [(0, 3, False), (2, 5, True)],  # overlapping
        [(0, 2, False), (3, 5, True)],  # gapped
        [(2, 5, False), (0, 2, True)],  # out of order
        [(0, 3, False)],  # short of the points
        [(0, 3, False), (3, 6, False)],  # past the points
        [(0, 3, False), (3, 2, False), (2, 5, False)],  # reversed span
    ],
)
def test_contour_spans_must_tile_the_points(spans):
    pts = np.array([[1, 1], [2, 1], [3, 1], [4, 1], [5, 1]])
    with pytest.raises(ValueError, match="tile"):
        gc.ContourProblem(pts, spans, np.zeros((1, 8, 8), bool), point_band=np.zeros(5, int))
