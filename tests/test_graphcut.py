import numpy as np
import pytest

from dsmsharp import graphcut as gc
from dsmsharp.raster import Contour, Heightfield


def small_problem(points, buffer_bits, closed=True, **params):
    spans = [(0, len(points), closed)]
    return gc.ContourProblem(
        np.asarray(points), spans, np.asarray(buffer_bits, bool), gc.GraphcutConfig(**params)
    )


def brute_force_energy(problem, larr):
    """Exhaustive minimum over all label assignments, enumerated as base-L digits."""
    dt = gc._data_cost_table(problem, larr)
    vt = gc._smooth_cost_table(problem, larr)
    n, L = problem.size, len(larr)
    idx = np.arange(L**n, dtype=np.int64)
    digits = (idx[:, None] // L ** np.arange(n - 1, -1, -1, dtype=np.int64)) % L
    total = dt[digits, np.arange(n)].sum(axis=1)
    for a, b in problem.pairs:
        total = total + vt[digits[:, a], digits[:, b]]
    return int(total.min())


LABELS3 = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


# ---------------------------------------------------------------------------
# Label grid
# ---------------------------------------------------------------------------


def test_label_grid_has_121_members():
    labels = gc.offset_labels()
    assert len(labels) == 121
    assert len(set(labels)) == 121
    assert all(-5 <= l.dx <= 5 and -5 <= l.dy <= 5 for l in labels)


def test_label_grid_row_major_order():
    labels = gc.offset_labels()
    assert labels[0] == (-5, -5)
    assert labels[1] == (-4, -5)
    assert labels[60] == (0, 0)
    assert labels[-1] == (5, 5)


# ---------------------------------------------------------------------------
# Cost terms
# ---------------------------------------------------------------------------


def test_data_cost_hit_and_miss():
    buf = np.zeros((20, 20), bool)
    buf[10, 12] = True
    prob = small_problem([(10, 10)], buf, closed=False)
    assert gc.data_cost(prob, 0, (2, 0)) == 0
    assert gc.data_cost(prob, 0, (3, 0)) == 10


def test_data_cost_empty_buffer():
    prob = small_problem([(5, 5)], np.zeros((10, 10), bool), closed=False)
    for label in gc.offset_labels():
        assert gc.data_cost(prob, 0, label) == 10


def test_data_cost_off_raster_is_miss():
    buf = np.ones((8, 8), bool)
    prob = small_problem([(7, 7)], buf, closed=False)
    assert gc.data_cost(prob, 0, (5, 5)) == 10
    assert gc.data_cost(prob, 0, (0, 0)) == 0


def test_smooth_cost_values():
    assert gc.smooth_cost((0, 0), (0, 0)) == 2  # near cost even for equal labels
    assert gc.smooth_cost((0, 0), (3, 4)) == 100  # norm exactly 5.0 is far
    assert gc.smooth_cost((-5, -5), (5, 5)) == 100
    assert gc.smooth_cost((0, 0), (3, 3)) == 2  # ~4.24 < 5
    params = gc.GraphcutConfig(smooth_cost_near=1, smooth_cost_far=7, smooth_radius=1.5)
    assert gc.smooth_cost((0, 0), (1, 1), params) == 1  # ~1.41 < 1.5
    assert gc.smooth_cost((0, 0), (0, 2), params) == 7


def test_cost_ranges_exhaustive():
    labels = gc.offset_labels()
    smooth_vals = {gc.smooth_cost(a, b) for a in labels for b in labels}
    assert smooth_vals == {2, 100}
    buf = np.zeros((30, 30), bool)
    buf[12:18, 12:18] = True
    prob = small_problem([(15, 15), (2, 2)], buf, closed=False)
    data_vals = {gc.data_cost(prob, i, l) for i in range(2) for l in labels}
    assert data_vals == {0, 10}


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def test_build_problem_no_segments_all_misses():
    contour = Contour(np.array([[i, 5] for i in range(3, 9)]), closed=False)
    prob = gc.build_problem([contour], [], [], Heightfield(np.zeros((12, 12))))
    assert not prob.line_buffer.any()
    assert all(gc.data_cost(prob, i, (0, 0)) == 10 for i in range(prob.size))


def test_build_problem_two_contours_spans():
    c1 = Contour(np.array([[1, 1], [2, 1], [3, 1]]), closed=True)
    c2 = Contour(np.array([[6, 6], [7, 6]]), closed=False)
    prob = gc.build_problem([c1], [c2], [], Heightfield(np.zeros((10, 10))))
    assert prob.contour_spans == [(0, 3, True), (3, 5, False)]
    assert sum(b - a for a, b, _ in prob.contour_spans) == prob.size


def test_build_problem_empty_errors():
    with pytest.raises(ValueError, match="nothing to adjust"):
        gc.build_problem([], [], [], Heightfield(np.zeros((10, 10))))


def test_flat_line_buffer_is_one_layer():
    prob = small_problem([(1, 1), (2, 1)], np.eye(4, dtype=bool), closed=False)
    assert prob.line_buffer.shape == (1, 4, 4)
    assert np.array_equal(prob.line_buffer[0], np.eye(4, dtype=bool))
    assert list(prob.point_band) == [0, 0]


@pytest.mark.parametrize("shape", [(4,), (1, 1, 4, 4)])
def test_line_buffer_needs_two_or_three_axes(shape):
    with pytest.raises(ValueError, match="line buffer"):
        small_problem([(0, 0)], np.zeros(shape, bool), closed=False)


@pytest.mark.parametrize("name", ["smooth_radius", "neighbor_reach"])
def test_problem_rejects_negative_reach(name):
    small_problem([(1, 1), (2, 1)], np.zeros((4, 4), bool), **{name: 0})
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        small_problem([(1, 1), (2, 1)], np.zeros((4, 4), bool), **{name: -1})


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def test_energy_single_point_no_pairs():
    buf = np.zeros((10, 10), bool)
    buf[5, 5] = True
    prob = small_problem([(5, 5)], buf, closed=False)
    assert len(prob.pairs) == 0
    assert gc.energy(prob, gc.Labeling(np.array([[0, 0]]))) == 0
    assert gc.energy(prob, gc.Labeling(np.array([[1, 0]]))) == 10


def test_energy_three_point_closed_contour():
    buf = np.ones((10, 10), bool)
    prob = small_problem([(2, 2), (3, 2), (3, 3)], buf, closed=True)
    # reach 8 with 3 points: each unordered pair once
    assert len(prob.pairs) == 3
    labeling = gc.Labeling(np.tile([(1, 1)], (3, 1)))
    assert gc.energy(prob, labeling) == 6


def test_energy_matches_scalar_resummation():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pts = np.column_stack([rng.integers(1, 15, n), rng.integers(1, 15, n)])
        buf = rng.random((16, 16)) < 0.4
        closed = bool(rng.integers(0, 2))
        prob = small_problem(pts, buf, closed=closed)
        offs = rng.integers(-5, 6, (n, 2))
        labeling = gc.Labeling(offs)
        total = sum(gc.data_cost(prob, i, offs[i]) for i in range(n))
        for a, b in prob.pairs:
            total += gc.smooth_cost(offs[a], offs[b])
        assert gc.energy(prob, labeling) == total


def test_energy_size_mismatch():
    prob = small_problem([(1, 1), (2, 2)], np.zeros((5, 5), bool), closed=False)
    with pytest.raises(ValueError):
        gc.energy(prob, gc.Labeling(np.zeros((3, 2), int)))


def test_neighbor_pairs_open_contour_reach():
    pts = [(i, 0) for i in range(12)]
    prob = small_problem(pts, np.zeros((1, 12), bool), closed=False)
    # open contour: i pairs with i+1..i+8 without wrapping
    want = {(i, j) for i in range(12) for j in range(i + 1, min(i + 9, 12))}
    assert {tuple(p) for p in prob.pairs} == want


# ---------------------------------------------------------------------------
# Minimisation
# ---------------------------------------------------------------------------


def test_zero_labeling_kept_when_already_in_buffer():
    buf = np.zeros((20, 20), bool)
    pts = [(5, y) for y in range(5, 12)]
    for x, y in pts:
        buf[y, x] = True
    prob = small_problem(pts, buf, closed=False)
    labeling = gc.minimize(prob)
    assert (labeling.offsets == 0).all()


def test_single_point_unique_shift_found():
    buf = np.zeros((30, 30), bool)
    buf[10, 12] = True  # only (dx, dy) = (2, 0) hits
    prob = small_problem([(10, 10)], buf, closed=False)
    labeling = gc.minimize(prob)
    assert tuple(labeling.offsets[0]) == (2, 0)
    assert gc.energy(prob, labeling) == 0


def test_minimize_never_worse_than_zero_and_matches_brute_force():
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pts = np.column_stack([rng.integers(2, 12, n), rng.integers(2, 12, n)])
        buf = rng.random((14, 14)) < 0.3
        prob = small_problem(pts, buf, closed=bool(rng.integers(0, 2)))
        labeling = gc.minimize(prob, labels=LABELS3)
        got = gc.energy(prob, labeling)
        zero = gc.energy(prob, gc.Labeling(np.zeros((n, 2), int)))
        assert got <= zero
        best = brute_force_energy(prob, gc._label_array(LABELS3))
        if best > 0:
            worst_gap = max(worst_gap, (got - best) / best)
    assert worst_gap <= 0.05


def test_energy_trace_strictly_decreasing():
    rng = np.random.default_rng(32)
    pts = np.column_stack([rng.integers(2, 25, 12), rng.integers(2, 25, 12)])
    buf = rng.random((28, 28)) < 0.25
    prob = small_problem(pts, buf, closed=True)
    trace = []
    gc.minimize(prob, energy_trace=trace)
    assert len(trace) >= 1
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_rigid_offset_instance_reaches_zero_data_cost():
    pts = [(x, 8) for x in range(4, 14)] + [(13, y) for y in range(9, 14)]
    buf = np.zeros((25, 25), bool)
    for x, y in pts:
        buf[y - 2, x + 3] = True  # whole contour shifted by (3, -2)
    prob = small_problem(pts, buf, closed=False)
    labeling = gc.minimize(prob)
    data_total = sum(gc.data_cost(prob, i, labeling.offsets[i]) for i in range(prob.size))
    assert data_total == 0
    assert (labeling.offsets == (3, -2)).all()


def test_minimize_requires_zero_label():
    prob = small_problem([(2, 2)], np.zeros((5, 5), bool), closed=False)
    with pytest.raises(ValueError):
        gc.minimize(prob, labels=[(1, 0), (0, 1)])


def test_minimize_deterministic_across_runs():
    rng = np.random.default_rng(33)
    pts = np.column_stack([rng.integers(2, 22, 18), rng.integers(2, 22, 18)])
    buf = rng.random((26, 26)) < 0.3
    prob = small_problem(pts, buf, closed=True)
    first = gc.minimize(prob).offsets
    second = gc.minimize(prob).offsets
    assert np.array_equal(first, second)


def test_minimize_all_uniform_costs_keeps_zero():
    # every move graph degenerates to zero capacities; nothing improves
    prob = small_problem([(5, 5), (6, 5), (7, 5)], np.zeros((12, 12), bool), closed=False)
    labeling = gc.minimize(prob)
    assert (labeling.offsets == 0).all()


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interpolate_all_zero_labels_gives_zero_field():
    pts = [(x, 10) for x in range(5, 15)]
    prob = small_problem(pts, np.zeros((20, 20), bool), closed=False)
    labeling = gc.Labeling(np.zeros((len(pts), 2), int))
    field = gc.interpolate_offsets(prob, labeling)
    assert np.allclose(field.dx, 0) and np.allclose(field.dy, 0)


def test_interpolate_exact_at_anchors():
    pts = [(x, 10) for x in range(5, 15)]
    prob = small_problem(pts, np.zeros((48, 48), bool), closed=False)
    offs = np.array([[(i % 3) - 1, 1] for i in range(len(pts))])
    field = gc.interpolate_offsets(prob, gc.Labeling(offs))
    for (x, y), (dx, dy) in zip(pts, offs):
        assert field.dx[y, x] == dx
        assert field.dy[y, x] == dy


def test_interpolate_midpoint_between_two_anchors():
    # one contour anchor with offset (4, 0); nearest zero anchors start 20 px
    # away, so the probe half way is equidistant from both anchor kinds
    h, w = 3, 25
    pts = [(2, 1)]
    prob = small_problem(pts, np.zeros((h, w), bool), closed=False)
    labeling = gc.Labeling(np.array([[4, 0]]))
    field = gc.interpolate_offsets(prob, labeling, far_distance=20, idw_neighbors=2)
    # probe (12, 1): contour anchor at distance 10, zero anchor (22, 1) at 10
    assert abs(field.dx[1, 12] - 2.0) < 1e-6
    assert abs(field.dy[1, 12]) < 1e-6


def test_interpolate_rejects_negative_far_distance():
    prob = small_problem([(2, 1)], np.zeros((6, 9), bool), closed=False)
    labeling = gc.Labeling(np.array([[1, 0]]))
    gc.interpolate_offsets(prob, labeling, far_distance=0)
    with pytest.raises(ValueError, match="far_distance must be >= 0"):
        gc.interpolate_offsets(prob, labeling, far_distance=-3)


def test_interpolate_takes_the_grid_of_the_problem():
    labeling = gc.Labeling(np.array([[1, 0]]))
    for shape in ((6, 9), (9, 6)):
        prob = small_problem([(2, 1)], np.zeros(shape, bool), closed=False)
        field = gc.interpolate_offsets(prob, labeling)
        assert field.dx.shape == field.dy.shape == shape
        assert field.dx[1, 2] == 1 and field.dy[1, 2] == 0


def test_interpolate_without_points_gives_the_zero_field():
    prob = gc.ContourProblem(np.zeros((0, 2), int), [], np.zeros((5, 7), bool))
    field = gc.interpolate_offsets(prob, gc.Labeling(np.zeros((0, 2), int)))
    assert field.dx.shape == field.dy.shape == (5, 7)
    assert not field.dx.any() and not field.dy.any()


# ---------------------------------------------------------------------------
# Warp
# ---------------------------------------------------------------------------


def test_warp_zero_field_is_identity():
    rng = np.random.default_rng(41)
    dsm = Heightfield(rng.normal(size=(15, 17)))
    field = gc.OffsetField(np.zeros((15, 17)), np.zeros((15, 17)))
    out = gc.warp_dsm(dsm, field)
    assert np.array_equal(out.values, dsm.values)


def test_warp_constant_shift_on_ramp():
    h, w = 12, 16
    vals = np.tile(np.arange(w, dtype=float), (h, 1))  # h = x
    dsm = Heightfield(vals)
    field = gc.OffsetField(np.ones((h, w)), np.zeros((h, w)))
    out = gc.warp_dsm(dsm, field)
    assert np.allclose(out.values[:, 1:], vals[:, 1:] - 1.0)
    assert np.allclose(out.values[:, 0], 0.0)  # clamped at the border


def test_warp_propagates_nodata():
    vals = np.ones((8, 8))
    vals[4, 4] = -9999.0
    dsm = Heightfield(vals)
    field = gc.OffsetField(np.full((8, 8), 0.5), np.zeros((8, 8)))
    out = gc.warp_dsm(dsm, field)
    # bilinear support of (4,4) and (5,4) both touch the nodata cell
    assert out.values[4, 4] == dsm.nodata
    assert out.values[4, 5] == dsm.nodata
    assert out.values[2, 2] == 1.0


def test_warp_zero_field_keeps_a_holey_dsm():
    rng = np.random.default_rng(42)
    vals = rng.normal(size=(8, 8))
    vals[3, 4] = -9999.0
    vals[7, 2] = -9999.0  # last row and column: their samples lean on the inner neighbour
    vals[1, 7] = -9999.0
    dsm = Heightfield(vals)
    out = gc.warp_dsm(dsm, gc.OffsetField(np.zeros((8, 8)), np.zeros((8, 8))))
    assert np.array_equal(out.values, dsm.values)


def test_warp_dimension_mismatch():
    dsm = Heightfield(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gc.warp_dsm(dsm, gc.OffsetField(np.zeros((5, 4)), np.zeros((5, 4))))


def test_labeling_csv_dump(tmp_path):
    pts = [(3, 4), (4, 4)]
    prob = small_problem(pts, np.zeros((8, 8), bool), closed=False)
    labeling = gc.Labeling(np.array([[1, -2], [0, 0]]))
    path = tmp_path / "labeling.csv"
    gc.save_labeling_csv(prob, labeling, path)
    assert path.read_text().splitlines() == ["x,y,dx,dy", "3,4,1,-2", "4,4,0,0"]
