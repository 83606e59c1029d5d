"""Graph-cut's data-cost table, densification and warp against full-grid oracles.

The oracles are the straightforward versions the module must reproduce
bit for bit: the (labels x points) table built in one broadcast, the IDW
field from a search of every anchor for every band pixel, and the bilinear
sample of every pixel. The memory guards check that the working set follows
the moved pixels, the pair block and the warp slab, not the band.
"""

import tracemalloc

import numpy as np
import pytest

from dsmsharp import graphcut as gc
from dsmsharp.raster import Heightfield, sample_bilinear

NODATA = -9999.0


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def reference_data_cost_table(problem, labels):
    xs = problem.points[:, 0][None, :] + labels[:, 0][:, None]
    ys = problem.points[:, 1][None, :] + labels[:, 1][:, None]
    hit = gc._hits(problem, np.arange(problem.size)[None, :], xs, ys)
    return np.where(hit, 0, 10).astype(np.int64)


def reference_interpolate_offsets(problem, labeling, far_distance=20, idw_neighbors=8):
    """Each band pixel measures its squared distance to every anchor; the
    anchors at or within its k-th smallest distance blend, added up one
    distance in increasing order: the count and the integer offset sums of
    each distance, divided by it."""
    h, w = problem.line_buffer.shape[1:]
    dx = np.zeros((h, w), dtype=np.float64)
    dy = np.zeros((h, w), dtype=np.float64)
    if problem.size == 0:
        return gc.OffsetField(dx, dy)
    uniq, first = np.unique(problem.points, axis=0, return_index=True)
    axs, ays = uniq[:, 0], uniq[:, 1]
    offs = labeling.offsets[first]
    dx[ays, axs] = offs[:, 0]
    dy[ays, axs] = offs[:, 1]
    yy, xx = np.mgrid[0:h, 0:w]
    chessboard = np.full((h, w), h + w)
    for x, y in uniq:
        np.minimum(chessboard, np.maximum(abs(xx - x), abs(yy - y)), out=chessboard)
    # no pixel lies h + w from the contour, whatever the reach beyond that
    far = (chessboard >= min(far_distance, h + w)) & (chessboard > 0)
    far_ys, far_xs = np.nonzero(far)
    anchor_x = np.concatenate([axs, far_xs])
    anchor_y = np.concatenate([ays, far_ys])
    anchor_dx = np.concatenate([offs[:, 0], np.zeros(len(far_xs), int)])
    anchor_dy = np.concatenate([offs[:, 1], np.zeros(len(far_xs), int)])
    k = min(idw_neighbors, len(anchor_x))
    for y, x in zip(*np.nonzero((chessboard > 0) & ~far)):
        d2 = (anchor_x - x) ** 2 + (anchor_y - y) ** 2
        kth = np.partition(d2, k - 1)[k - 1]
        weight = sum_dx = sum_dy = 0.0
        for q in sorted(set(d2[d2 <= kth].tolist())):
            shell = d2 == q
            weight += int(shell.sum()) / q
            sum_dx += int(anchor_dx[shell].sum()) / q
            sum_dy += int(anchor_dy[shell].sum()) / q
        dx[y, x] = sum_dx / weight
        dy[y, x] = sum_dy / weight
    return gc.OffsetField(dx, dy)


def reference_warp_dsm(dsm, field):
    h, w = dsm.values.shape
    yy, xx = np.mgrid[0:h, 0:w]
    sx = xx.astype(np.float64) - field.dx
    sy = yy.astype(np.float64) - field.dy
    vals, valid = sample_bilinear(dsm, sx.ravel(), sy.ravel(), skip_nodata=False)
    out = np.where(valid, vals, dsm.nodata).reshape(h, w)
    return dsm.like(out)


# ---------------------------------------------------------------------------
# Seeded problems
# ---------------------------------------------------------------------------


def random_problem(rng, h, w, n_points, n_contours=3, far_distance=20):
    """Random contour points (duplicates allowed) on an (h, w) grid with a
    two-layer band stack; points lie anywhere, including the border."""
    points = np.column_stack([rng.integers(0, w, n_points), rng.integers(0, h, n_points)])
    cuts = np.sort(rng.choice(np.arange(1, n_points), n_contours - 1, replace=False))
    edges = [0, *cuts.tolist(), n_points]
    spans = [(a, b, bool(rng.integers(2))) for a, b in zip(edges[:-1], edges[1:])]
    bands = rng.random((2, h, w)) < 0.3
    point_band = rng.integers(0, 2, n_points)
    params = gc.GraphcutConfig(far_distance=far_distance)
    return gc.ContourProblem(points, spans, bands, params, point_band=point_band)


def random_labeling(rng, n, radius=gc.LABEL_RADIUS):
    offsets = rng.integers(-radius, radius + 1, (n, 2))
    offsets[rng.random(n) < 0.3] = 0
    return gc.Labeling(offsets)


def holey_dsm(rng, h, w):
    """Random heights with nodata on the whole border ring, a few inner
    holes and some -0.0 and +0.0 cells."""
    vals = rng.normal(0.0, 5.0, (h, w))
    vals[rng.random((h, w)) < 0.05] = -0.0
    vals[rng.random((h, w)) < 0.05] = 0.0
    vals[rng.random((h, w)) < 0.03] = NODATA
    vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = NODATA
    vals[1, 1:4] = -0.0  # -0.0 next to the nodata border
    return Heightfield(vals, nodata=NODATA)


def same_field(a, b):
    return a.dx.tobytes() == b.dx.tobytes() and a.dy.tobytes() == b.dy.tobytes()


# ---------------------------------------------------------------------------
# Data-cost table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_data_cost_table_matches_reference(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(5, 40, 2)
    problem = random_problem(rng, h, w, int(rng.integers(3, 200)))
    labels = gc._label_array(gc.offset_labels(int(rng.integers(1, 8))))
    table = gc._data_cost_table(problem, labels)
    assert table.dtype == np.int64
    assert table.tobytes() == reference_data_cost_table(problem, labels).tobytes()


def test_data_cost_table_of_labels_beyond_the_grid():
    rng = np.random.default_rng(7)
    problem = random_problem(rng, 6, 9, 12)
    labels = np.array([[0, 0], [40, 0], [0, -40], [-8, 5], [8, -5]])
    table = gc._data_cost_table(problem, labels)
    assert table.tobytes() == reference_data_cost_table(problem, labels).tobytes()
    assert (table[1:3] == 10).all()


# ---------------------------------------------------------------------------
# Densification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, far_distance, idw_neighbors",
    [(0, 20, 8), (1, 0, 8), (2, 1, 8), (3, 5, 1), (4, 200, 8), (5, 3, 3), (6, 7, 2)],
)
def test_interpolate_matches_reference(monkeypatch, seed, far_distance, idw_neighbors):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(20, 90, 2)
    problem = random_problem(rng, h, w, int(rng.integers(5, 120)), 4, far_distance)
    labeling = random_labeling(rng, problem.size)
    monkeypatch.setattr(gc, "IDW_NEIGHBORS", idw_neighbors)
    got = gc.interpolate_offsets(problem, labeling)
    want = reference_interpolate_offsets(problem, labeling, far_distance, idw_neighbors)
    assert same_field(got, want)


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
@pytest.mark.parametrize("far_distance", [4, 100])
def test_interpolate_over_many_blocks_matches_reference(monkeypatch, block, far_distance):
    # the walk split into batches of a few pairs, down to one squared
    # distance a batch and one source a chunk; both reaches gather and scatter
    rng = np.random.default_rng(block + far_distance)
    problem = random_problem(rng, 61, 47, 40, far_distance=far_distance)
    labeling = random_labeling(rng, problem.size)
    monkeypatch.setattr(gc, "_PAIR_BLOCK", block)
    got = gc.interpolate_offsets(problem, labeling)
    want = reference_interpolate_offsets(problem, labeling, far_distance)
    assert same_field(got, want)


def test_interpolate_with_more_neighbors_than_anchors(monkeypatch):
    # far_distance beyond the grid: the contour points are the only anchors
    rng = np.random.default_rng(11)
    problem = random_problem(rng, 30, 25, 6, n_contours=2, far_distance=40)
    labeling = random_labeling(rng, problem.size)
    n_anchors = len(np.unique(problem.points, axis=0))
    for k in (1, n_anchors, n_anchors + 1, 50):
        monkeypatch.setattr(gc, "IDW_NEIGHBORS", k)
        got = gc.interpolate_offsets(problem, labeling)
        want = reference_interpolate_offsets(problem, labeling, 40, k)
        assert same_field(got, want)


def test_interpolate_of_zero_labels_is_positive_zero():
    # the warp samples only pixels with a non-zero offset; a zero labeling
    # must give +0.0 everywhere
    problem = random_problem(np.random.default_rng(3), 12, 12, 4, n_contours=2, far_distance=6)
    labeling = gc.Labeling(np.zeros((problem.size, 2), int))
    got = gc.interpolate_offsets(problem, labeling)
    want = reference_interpolate_offsets(problem, labeling, 6)
    assert same_field(got, want)
    assert not np.signbit(got.dx).any() and not np.signbit(got.dy).any()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("far_distance", [0, 1, 2, 10**30])
def test_interpolate_on_tiny_grids(monkeypatch, shape, far_distance):
    # fewer anchors than neighbours: each band pixel blends all of them
    rng = np.random.default_rng(sum(shape))
    h, w = shape
    points = [(int(rng.integers(w)), int(rng.integers(h)))]
    problem = gc.ContourProblem(
        np.array(points), [(0, 1, False)], np.zeros((1, h, w), bool),
        gc.GraphcutConfig(far_distance=far_distance), point_band=np.zeros(1, int),
    )
    labeling = gc.Labeling(np.array([[3, -2]]))
    for k in (1, 8):
        monkeypatch.setattr(gc, "IDW_NEIGHBORS", k)
        got = gc.interpolate_offsets(problem, labeling)
        assert same_field(got, reference_interpolate_offsets(problem, labeling, far_distance, k))


@pytest.mark.parametrize("seed", range(3))
def test_interpolate_reach_beyond_the_grid_is_the_grid_side(seed):
    # no pixel is far at either reach, and 10**30 neither overflows nor allocates
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(8, 30, 2))
    problem = random_problem(rng, h, w, 12, far_distance=max(h, w))
    labeling = random_labeling(rng, problem.size)
    want = gc.interpolate_offsets(problem, labeling)
    assert same_field(want, reference_interpolate_offsets(problem, labeling, max(h, w)))
    problem.params = gc.GraphcutConfig(far_distance=10**30)
    assert same_field(gc.interpolate_offsets(problem, labeling), want)


def distinct_problem(rng, h, w, n_points, far_distance):
    """Random contour points on distinct pixels, in two open contours."""
    flat = rng.choice(h * w, n_points, replace=False)
    points = np.column_stack([flat % w, flat // w])
    half = n_points // 2
    bands = rng.random((2, h, w)) < 0.3
    params = gc.GraphcutConfig(far_distance=far_distance)
    return gc.ContourProblem(
        points, [(0, half, False), (half, n_points, False)], bands, params,
        point_band=rng.integers(0, 2, n_points),
    )


@pytest.mark.parametrize("seed, far_distance, idw_neighbors", [(0, 6, 8), (1, 20, 8), (2, 9, 3)])
def test_interpolate_does_not_depend_on_the_point_order(monkeypatch, seed, far_distance,
                                                        idw_neighbors):
    rng = np.random.default_rng(seed)
    problem = distinct_problem(rng, 40, 33, 60, far_distance)
    labeling = random_labeling(rng, problem.size)
    monkeypatch.setattr(gc, "IDW_NEIGHBORS", idw_neighbors)
    want = gc.interpolate_offsets(problem, labeling)
    for _ in range(3):
        order = rng.permutation(problem.size)
        shuffled = gc.ContourProblem(
            problem.points[order], problem.contour_spans, problem.line_buffer,
            problem.params, point_band=problem.point_band[order],
        )
        got = gc.interpolate_offsets(shuffled, gc.Labeling(labeling.offsets[order]))
        assert same_field(got, want)


@pytest.mark.parametrize("seed, far_distance", [(0, 5), (1, 20), (2, 200)])
def test_transposed_problem_gives_the_transposed_field(seed, far_distance):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 37, 52, 50, far_distance=far_distance)
    labeling = random_labeling(rng, problem.size)
    field = gc.interpolate_offsets(problem, labeling)
    transposed = gc.ContourProblem(
        problem.points[:, ::-1], problem.contour_spans, problem.line_buffer.transpose(0, 2, 1),
        problem.params, point_band=problem.point_band,
    )
    got = gc.interpolate_offsets(transposed, gc.Labeling(labeling.offsets[:, ::-1]))
    assert got.dx.tobytes() == np.ascontiguousarray(field.dy.T).tobytes()
    assert got.dy.tobytes() == np.ascontiguousarray(field.dx.T).tobytes()


# ---------------------------------------------------------------------------
# Warp
# ---------------------------------------------------------------------------


def random_field(rng, h, w, moved_share):
    """Fractional, integer, -0.0 and zero offsets; large ones reach past the
    border so the clamp runs."""
    dx = rng.normal(0.0, 3.0, (h, w))
    dy = rng.normal(0.0, 3.0, (h, w))
    dx[rng.random((h, w)) < 0.2] = 12.0
    dy[rng.random((h, w)) < 0.1] = -1.0
    still = rng.random((h, w)) >= moved_share
    dx[still] = 0.0
    dy[still] = 0.0
    dx[still & (rng.random((h, w)) < 0.5)] = -0.0
    dy[still & (rng.random((h, w)) < 0.5)] = -0.0
    only_x = rng.random((h, w)) < 0.05  # one axis moves, the other is -0.0
    dx[only_x], dy[only_x] = 0.5, -0.0
    return gc.OffsetField(dx, dy)


@pytest.mark.parametrize("seed, moved_share", [(0, 0.0), (1, 0.1), (2, 0.5), (3, 1.0)])
def test_warp_matches_reference(seed, moved_share):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(2, 40, 2)
    dsm = holey_dsm(rng, h, w)
    field = random_field(rng, h, w, moved_share)
    got = gc.warp_dsm(dsm, field)
    assert got.values.tobytes() == reference_warp_dsm(dsm, field).values.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2)])
def test_warp_of_thin_grids_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    vals = rng.normal(size=shape)
    vals.flat[0] = -0.0
    vals.flat[-1] = NODATA
    dsm = Heightfield(vals, nodata=NODATA)
    for share in (0.0, 0.5, 1.0):
        field = random_field(rng, *shape, share)
        got = gc.warp_dsm(dsm, field)
        assert got.values.tobytes() == reference_warp_dsm(dsm, field).values.tobytes()


def test_warp_zero_field_turns_negative_zero_positive():
    vals = np.array([[-0.0, 1.0, NODATA], [2.0, -0.0, -3.5]])
    dsm = Heightfield(vals, nodata=NODATA)
    field = gc.OffsetField(np.full(vals.shape, -0.0), np.zeros(vals.shape))
    out = gc.warp_dsm(dsm, field).values
    assert out.tobytes() == np.array([[0.0, 1.0, NODATA], [2.0, 0.0, -3.5]]).tobytes()
    assert out.tobytes() == reference_warp_dsm(dsm, field).values.tobytes()


def test_warp_next_to_an_infinite_nodata_hole():
    vals = np.arange(16.0).reshape(4, 4)
    vals[1, 2] = -np.inf
    dsm = Heightfield(vals, nodata=-np.inf)
    dx, dy = np.zeros((4, 4)), np.zeros((4, 4))
    dy[1, 1] = 1.0  # (1, 1) reads (1, 0), whose support holds the hole at (2, 1) at zero weight
    dy[2, 2] = 1.0  # (2, 2) reads the hole itself
    out = gc.warp_dsm(dsm, gc.OffsetField(dx, dy)).values
    want = vals.copy()
    want[1, 1], want[2, 2] = 1.0, -np.inf
    assert out.tobytes() == want.tobytes()


def test_warp_end_to_end_matches_reference():
    # a solved problem: densified offsets of a random labeling on a holey DSM
    rng = np.random.default_rng(21)
    h, w = 70, 90
    problem = random_problem(rng, h, w, 150, n_contours=5, far_distance=9)
    field = gc.interpolate_offsets(problem, random_labeling(rng, problem.size))
    dsm = holey_dsm(rng, h, w)
    got = gc.warp_dsm(dsm, field)
    assert got.values.tobytes() == reference_warp_dsm(dsm, field).values.tobytes()


# ---------------------------------------------------------------------------
# Memory guards
# ---------------------------------------------------------------------------


def traced_peak(fn, *args):
    """Peak bytes the call allocates beyond what was live when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_warp_allocates_for_the_moved_band_not_the_grid():
    n = 512
    rng = np.random.default_rng(5)
    dsm = Heightfield(rng.normal(10.0, 3.0, (n, n)))
    dx = np.zeros((n, n))
    dy = np.zeros((n, n))
    dx[250:262, 100:400] = rng.normal(0.0, 2.0, (12, 300))
    dy[100:400, 250:262] = 1.5
    field = gc.OffsetField(dx, dy)
    out, peak = traced_peak(gc.warp_dsm, dsm, field)
    grid = n * n * 8
    assert peak - out.values.nbytes < 2 * grid
    assert out.values.tobytes() == reference_warp_dsm(dsm, field).values.tobytes()


def test_interpolate_memory_follows_the_block_not_the_band():
    # far_distance covers the grid: every pixel but the contour is searched,
    # out to 370 px from the 200 contour anchors
    n = 512
    rng = np.random.default_rng(6)
    ring = [(x, 200) for x in range(200, 300)] + [(300, y) for y in range(200, 300)]
    problem = gc.ContourProblem(
        np.array(ring), [(0, len(ring), False)], np.zeros((1, n, n), bool),
        gc.GraphcutConfig(far_distance=n), point_band=np.zeros(len(ring), int),
    )
    labeling = random_labeling(rng, problem.size)
    field, peak = traced_peak(gc.interpolate_offsets, problem, labeling)
    outputs = field.dx.nbytes + field.dy.nbytes
    # per pixel: the int32 distances and counts, a float64 weight, four
    # masks and the int64 list of open pixels (28 bytes); per pair of the
    # block: eight int64 or float64 temporaries
    bound = 28 * n * n + 8 * 8 * gc._PAIR_BLOCK
    assert peak - outputs < bound
    assert bound < n * n * gc.IDW_NEIGHBORS * 8  # less than one array of the band's neighbours
