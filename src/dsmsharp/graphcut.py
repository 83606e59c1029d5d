"""Offset-label optimisation that squeezes smeared DSM ramps onto image lines.

Every building contributes two iso-height contours of its tophat response:
a ground-side ring just outside the region above 20 % of the building's
height and a roof-side contour around the region above 80 %. Each filtered
segment gets a one-sided band on either side of its line; the roof side is
the side where the DSM is higher. Every contour pixel picks one 2-d integer
offset out of an 11x11 grid. A pixel whose shifted position lands in the
band on its own side is free, a miss costs 10; neighbouring contour pixels
pay 2 when their offsets agree within a 5-pixel radius and 100 otherwise.
Each band reaches 2 pixels from its line, each contour pixel pairs with
the next 8 along its contour, and every pixel 20 or more pixels from all
contour pixels keeps a zero offset. These are the method's fixed
constants; it takes no settings. Snapping the foot and the top of a ramp
onto the same line narrows the ramp instead of only translating it.

The multilabel energy is minimised by expansion moves, each solved as a
two-terminal minimum cut with integer capacities; non-submodular pairwise
entries are truncated upward so every move graph stays representable, and a
move is accepted only if it strictly lowers the true energy. Neighbour pairs
never cross contours, so a move graph is a disjoint union of per-contour
graphs. A move is scored by cutting only the contours whose lower bound for
that move lies below their current energy; the others end any move at
exactly their current energy, so they cannot decide it and are cut only
when the move is accepted. The labeling is the same as cutting every point
at once (see minimize). The winning offsets are densified by Shepard's
inverse-square weighting of each pixel's nearest anchors, found by an exact
search of the integer offsets one squared distance at a time that takes
every anchor tied at the last distance (see interpolate_offsets), and
applied as a backward bilinear warp. The steps hand each other plain
arrays: the label set is (L, 2) and the solved offsets (n, 2), both int64
(dx, dy) rows, and the dense field is two (h, w) float64 grids, dx and dy.

The cuts are the package's only use of scipy: its sparse max-flow and
breadth-first search. They are imported on first use, not with the module,
so importing the package and every command that does not run graph-cut
load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .raster import (
    Contour,
    Heightfield,
    boundary_distance,
    bresenham_line,
    dilate_mask,
    label,
    sample_bilinear,
    trace_contours,
    write_csv,
)
from .lines import LineSegment
from .tophat import Tophat

LABEL_RADIUS = 5
# the energy: a shifted point costs DATA_COST_HIT inside its band and
# DATA_COST_MISS outside; two neighbours pay SMOOTH_COST_NEAR when their
# offsets lie strictly closer than SMOOTH_RADIUS, SMOOTH_COST_FAR otherwise
DATA_COST_HIT, DATA_COST_MISS = 0, 10
SMOOTH_COST_NEAR, SMOOTH_COST_FAR = 2, 100
SMOOTH_RADIUS = 5.0
# the reaches: each point pairs with the next NEIGHBOR_REACH points along
# its contour, each segment's band reaches LINE_BUFFER_RADIUS pixels from
# its line (see side_bands), and a pixel FAR_DISTANCE or more from every
# contour pixel keeps a zero offset (see interpolate_offsets)
NEIGHBOR_REACH = 8
LINE_BUFFER_RADIUS = 2
FAR_DISTANCE = 20
# anchors whose offsets interpolate_offsets blends into each band pixel
IDW_NEIGHBORS = 8
# (pixel, offset) pairs of one shell interpolate_offsets tests at a time;
# bounds its temporaries
_PAIR_BLOCK = 1 << 16
# moved pixels warp_dsm samples at a time; bounds its temporaries
_WARP_BLOCK = 1 << 13

# band layers of a problem, and the ramp levels that pick their contours
GROUND, ROOF = 0, 1
GROUND_FRACTION = 0.2
ROOF_FRACTION = 0.8
HEIGHT_PERCENTILE = 95.0


def offset_labels(radius: int = LABEL_RADIUS) -> np.ndarray:
    """(L, 2) int64 (dx, dy) rows of the (2r+1)^2 offset grid in row-major
    order, dy outer and dx inner; 121 labels at the default."""
    r = np.arange(-radius, radius + 1, dtype=np.int64)
    dy, dx = np.meshgrid(r, r, indexing="ij")
    return np.column_stack([dx.ravel(), dy.ravel()])


def data_costs(hit) -> np.ndarray:
    """The data cost of each shifted point, by whether it hits its band."""
    return np.where(hit, DATA_COST_HIT, DATA_COST_MISS)


def smooth_costs(d) -> np.ndarray:
    """The smoothness cost of each pair whose offsets differ by d (..., 2)."""
    near = d[..., 0] ** 2 + d[..., 1] ** 2 < SMOOTH_RADIUS**2
    return np.where(near, SMOOTH_COST_NEAR, SMOOTH_COST_FAR)


@dataclass(eq=False)
class ContourProblem:
    """Data points and neighbourhood structure of one solve.

    ``contour_spans`` holds (start, stop, closed) index ranges partitioning
    ``points`` back into the source contours; they must tile ``0..n`` in
    order (ValueError otherwise), and closed spans wrap their neighbour
    reach, NEIGHBOR_REACH when the problem is built. ``line_buffer`` is a
    (k, h, w) bool stack of which ``point_band`` picks each point's layer
    (GROUND or ROOF for the one-sided bands of build_problem).
    """

    points: np.ndarray  # (n, 2) int pixel coordinates
    contour_spans: list[tuple[int, int, bool]]
    line_buffer: np.ndarray  # (k, h, w) bool
    point_band: np.ndarray = field(kw_only=True)  # (n,) layer index
    pairs: np.ndarray = field(init=False)  # (m, 2) unique unordered neighbour pairs

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.int64)
        self.line_buffer = np.asarray(self.line_buffer, dtype=bool)
        if self.line_buffer.ndim != 3:
            raise ValueError("line buffer must be (k, h, w)")
        layers, h, w = self.line_buffer.shape
        self.point_band = np.asarray(self.point_band, dtype=np.int64)
        if self.point_band.shape != (self.points.shape[0],):
            raise ValueError("point_band needs one layer index per point")
        if ((self.point_band < 0) | (self.point_band >= layers)).any():
            raise ValueError("point_band refers to a missing buffer layer")
        xs, ys = self.points[:, 0], self.points[:, 1]
        if ((xs < 0) | (xs >= w) | (ys < 0) | (ys >= h)).any():
            raise ValueError("contour points must lie inside the raster")
        edges = [0] + [stop for _, stop, _ in self.contour_spans]
        starts = [start for start, _, _ in self.contour_spans]
        if starts != edges[:-1] or edges != sorted(edges) or edges[-1] != self.size:
            raise ValueError("contour spans must tile the points in order")
        self.pairs = _neighbor_pairs(self.contour_spans, NEIGHBOR_REACH)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _neighbor_pairs(spans, reach: int) -> np.ndarray:
    """Each point pairs with the next `reach` points along its contour;
    closed contours wrap and every unordered pair is counted once."""
    chunks = []
    for start, stop, closed in spans:
        n = stop - start
        for k in range(1, min(reach, n - 1) + 1):
            if closed:
                a = np.arange(n, dtype=np.int64)
                b = (a + k) % n
            else:
                a = np.arange(n - k, dtype=np.int64)
                b = a + k
            chunks.append(np.column_stack([a, b]) + start)
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.vstack(chunks)
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0)


def build_problem(
    ground: list[Contour],
    roof: list[Contour],
    segments: list[LineSegment],
    dsm: Heightfield,
) -> ContourProblem:
    """Assemble the optimisation problem from the ground-side and roof-side
    contours of ramp_contours and the filtered segments on the grid of ``dsm``.

    Each contour is free only inside the one-sided band on its own side of
    the segments (see side_bands). The points are the ground contours
    followed by the roof contours; empty contours are left out.
    """
    kept = [(c, side) for side, cs in ((GROUND, ground), (ROOF, roof)) for c in cs if len(c)]
    if not kept:
        raise ValueError("nothing to adjust")
    spans = []
    start = 0
    for c, _ in kept:
        spans.append((start, start + len(c), c.closed))
        start += len(c)
    points = np.vstack([c.points for c, _ in kept])
    point_band = np.concatenate([np.full(len(c), side) for c, side in kept])
    bands = side_bands(dsm, segments)
    return ContourProblem(points, spans, bands, point_band=point_band)


def side_bands(
    dsm: Heightfield, segments: list[LineSegment], radius: int = LINE_BUFFER_RADIUS
) -> np.ndarray:
    """(2, h, w) bool stack of the GROUND and ROOF bands of all segments.

    Each segment's raster walk dilated by ``radius`` (its two-sided line
    buffer) is split by the sign of the cross product (p2-p1) x (pixel-p1);
    pixel centres on the line belong to both sides. The roof side is the
    side whose valid buffer pixels are higher on average. A zero-length
    segment, or one whose band lies off the grid, adds nothing.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    h, w = dsm.values.shape
    # only the walk's pixels on the grid are dilated, and from any of them a
    # radius of the grid's larger side already covers the whole grid
    radius = min(radius, max(h, w))
    # the walk is formed only on the grid grown by the radius, however long
    box = (-radius, -radius, w - 1 + radius, h - 1 + radius)
    bands = np.zeros((2, h, w), dtype=bool)
    valid = dsm.valid_mask()
    for seg in segments:
        (x1, y1), (x2, y2) = seg.p1, seg.p2
        dx, dy = x2 - x1, y2 - y1
        if dx == 0 and dy == 0:
            continue
        pts = bresenham_line(round(x1), round(y1), round(x2), round(y2), box)
        if not len(pts):
            continue  # the band lies off the grid
        x0, y0 = np.maximum(pts.min(axis=0) - radius, 0)
        xe, ye = np.minimum(pts.max(axis=0) + radius + 1, (w, h))
        win = np.s_[y0:ye, x0:xe]
        yy, xx = np.mgrid[win]
        walk = np.zeros(yy.shape, dtype=bool)
        xs, ys = pts[:, 0] - xx[0, 0], pts[:, 1] - yy[0, 0]
        inside = (xs >= 0) & (xs < walk.shape[1]) & (ys >= 0) & (ys < walk.shape[0])
        walk[ys[inside], xs[inside]] = True
        # the window spans the walk plus radius, so clipping at its edge loses nothing
        buffer = dilate_mask(walk, radius)
        cross = dx * (yy - y1) - dy * (xx - x1)
        left, right = buffer & (cross >= 0), buffer & (cross <= 0)
        vals, ok = dsm.values[win], valid[win]
        if _mean(vals[left & ok & (cross > 0)]) > _mean(vals[right & ok & (cross < 0)]):
            left, right = right, left  # left is the roof side
        bands[GROUND][win] |= left
        bands[ROOF][win] |= right
    return bands


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else -math.inf


def ramp_contours(top: Tophat) -> tuple[list[Contour], list[Contour]]:
    """Ground-side and roof-side contours of every building's smeared ramp.

    ``top`` is tophat.top_tophat of the DSM: a building is an 8-connected
    component of its mask, and its height is the 95th percentile of the
    response inside it. The roof-side contour traces the region where the
    response exceeds 80 % of that height, the ground-side contour is the
    ring of pixels just outside the region above 20 %. A region counts only
    with its connected parts that overlap the building, within LABEL_RADIUS
    pixels of it; a contour farther out could not reach a line anyway.
    """
    values = top.response
    shape = values.shape
    low = np.zeros(shape, dtype=bool)
    high = np.zeros(shape, dtype=bool)
    labels, boxes = label(top.mask)
    pad = LABEL_RADIUS
    for idx, sl in enumerate(boxes, start=1):
        win = tuple(
            slice(max(0, s.start - pad), min(n, s.stop + pad)) for s, n in zip(sl, shape)
        )
        comp = labels[win] == idx
        height = float(np.percentile(values[win][comp], HEIGHT_PERCENTILE))
        reach = dilate_mask(comp, pad)
        for region, fraction in ((low, GROUND_FRACTION), (high, ROOF_FRACTION)):
            parts, _ = label(reach & (values[win] > fraction * height))
            touching = np.unique(parts[comp])
            region[win] |= np.isin(parts, touching[touching > 0])
    del labels
    ground = trace_contours(dilate_mask(low, 1))
    roof = trace_contours(high)
    return ground, roof


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------


def _hits(problem: ContourProblem, point_index, xs, ys) -> np.ndarray:
    """Whether the shifted positions (xs, ys) of the given points land in
    their buffer layer; positions off the raster are misses."""
    _, h, w = problem.line_buffer.shape
    xs, ys = np.asarray(xs), np.asarray(ys)
    layer = np.broadcast_to(problem.point_band[point_index], xs.shape)
    inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    hit = np.zeros(xs.shape, dtype=bool)
    hit[inside] = problem.line_buffer[layer[inside], ys[inside], xs[inside]]
    return hit


def data_cost(problem: ContourProblem, point_index: int, label) -> int:
    """The hit cost (0) when the shifted point lands in its line buffer, else
    the miss cost (10). Shifts that leave the raster count as misses."""
    x = int(problem.points[point_index, 0]) + int(label[0])
    y = int(problem.points[point_index, 1]) + int(label[1])
    return int(data_costs(_hits(problem, point_index, x, y)))


def smooth_cost(l_p, l_q) -> int:
    """The near cost (2) when the two offsets differ by strictly less than the
    radius (5), else the far cost (100). Note the near cost applies even to
    identical labels."""
    return int(smooth_costs(np.subtract(l_p, l_q)))


def _data_cost_table(problem: ContourProblem, labels: np.ndarray) -> np.ndarray:
    """(n_labels, n_points) int data costs, filled one label at a time so
    the temporaries hold one row."""
    table = np.empty((len(labels), problem.size), dtype=np.int64)
    ids = np.arange(problem.size)
    xs, ys = problem.points[:, 0], problem.points[:, 1]
    for row, (dx, dy) in zip(table, labels):
        hit = _hits(problem, ids, xs + dx, ys + dy)
        row[:] = data_costs(hit)
    return table


def energy(problem: ContourProblem, offsets) -> int:
    """Total cost of the (n, 2) int (dx, dy) offsets, one per point: data
    over all points plus smoothness over neighbour pairs."""
    offs = np.asarray(offsets, dtype=np.int64)
    if len(offs) != problem.size:
        raise ValueError("labeling size does not match problem")
    xs = problem.points[:, 0] + offs[:, 0]
    ys = problem.points[:, 1] + offs[:, 1]
    hit = _hits(problem, np.arange(problem.size), xs, ys)
    total = int(data_costs(hit).sum())
    d = offs[problem.pairs[:, 0]] - offs[problem.pairs[:, 1]]
    total += int(smooth_costs(d).sum())
    return total


# ---------------------------------------------------------------------------
# Expansion-move minimisation
# ---------------------------------------------------------------------------


def maximum_flow(graph, source, sink):
    """scipy's ``maximum_flow``, imported on the first cut."""
    from scipy.sparse.csgraph import maximum_flow

    return maximum_flow(graph, source, sink)


def _expansion_move(problem, assign, alpha_idx, dtable, vtable, movable):
    """Best move of the ``movable`` points to alpha as a minimum cut; returns
    the proposed assignment, or None when no point is movable.

    The move graph uses the standard source/sink construction with one
    variable per movable point; every other point keeps its label and enters
    only as the fixed end of its pairs. Pairwise terms that violate
    submodularity are truncated by raising the keep/switch entry, which can
    only overestimate the proposal's energy, never underestimate it. A point
    switches when the source cannot reach it in the residual graph.
    """
    nv = int(movable.sum())
    if nv == 0:
        return None
    var_ids = np.nonzero(movable)[0]
    idx_of = np.full(assign.shape[0], -1, dtype=np.int64)
    idx_of[var_ids] = np.arange(nv)

    theta0 = dtable[assign[var_ids], var_ids].astype(np.int64)  # keep current
    theta1 = dtable[alpha_idx, var_ids].astype(np.int64)  # switch to alpha

    # arcs between two movable points
    pa, pb = problem.pairs[:, 0], problem.pairs[:, 1]
    va, vb = movable[pa], movable[pb]

    both = va & vb
    ia, ib = pa[both], pb[both]
    a_cost = vtable[assign[ia], assign[ib]]
    b_cost = vtable[assign[ia], alpha_idx]
    c_cost = vtable[alpha_idx, assign[ib]]
    d_cost = vtable[alpha_idx, alpha_idx]
    b_cost = np.maximum(b_cost, a_cost + d_cost - c_cost)  # truncate
    np.add.at(theta1, idx_of[ia], c_cost - a_cost)
    np.add.at(theta1, idx_of[ib], d_cost - c_cost)
    cap = b_cost + c_cost - a_cost - d_cost
    keep = cap > 0
    pair_rows, pair_cols, pair_caps = idx_of[ia[keep]], idx_of[ib[keep]], cap[keep]

    # one end fixed: a unary term on the movable end
    for fixed, moving, only in ((pa, pb, vb & ~va), (pb, pa, va & ~vb)):
        f, i = assign[fixed[only]], moving[only]
        np.add.at(theta0, idx_of[i], vtable[f, assign[i]])
        np.add.at(theta1, idx_of[i], vtable[f, alpha_idx])

    # terminal links: cutting source->i pays the switch cost, i->sink the keep cost
    base = np.minimum(theta0, theta1)
    cap_src = theta1 - base
    cap_snk = theta0 - base
    source, sink = nv, nv + 1

    src, snk = np.nonzero(cap_src > 0)[0], np.nonzero(cap_snk > 0)[0]
    rows = np.concatenate([pair_rows, np.full(len(src), source, dtype=np.int64), snk])
    cols = np.concatenate([pair_cols, src, np.full(len(snk), sink, dtype=np.int64)])
    caps = np.concatenate([pair_caps, cap_src[src], cap_snk[snk]])

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    graph = csr_matrix((caps, (rows, cols)), shape=(nv + 2, nv + 2), dtype=np.int64)
    flow = maximum_flow(graph, source, sink).flow
    residual = graph - flow
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    reach = breadth_first_order(residual, source, directed=True, return_predecessors=False)
    keep_side = np.zeros(nv + 2, dtype=bool)
    keep_side[reach] = True

    proposal = assign.copy()
    switch = ~keep_side[:nv]
    proposal[var_ids[switch]] = alpha_idx
    return proposal


def minimize(problem: ContourProblem, labels=None, energy_trace: list | None = None) -> np.ndarray:
    """Expansion-move descent from the all-zero labeling; returns the (n, 2)
    int64 (dx, dy) offset of each point.

    ``labels`` is an (L, 2) int array-like of (dx, dy) offsets that holds
    the zero offset (ValueError otherwise); offset_labels() by default.

    Sweeps the label grid in fixed row-major order and accepts a move only
    when it strictly lowers the energy, so ties keep the incumbent and the
    result never exceeds the all-zero initialisation. Terminates when a full
    sweep makes no progress. When given, ``energy_trace`` collects the
    initial energy followed by the energy after each accepted move.

    Every neighbour pair lies inside one contour, so a move graph is a
    disjoint union of per-contour graphs, and its cut (the points the source
    reaches in the residual graph) is the union of their cuts. Each move
    first cuts only the contours that can still improve. For a move to alpha,
    contour c's energy after the move is bounded below by
    ``LB_c = sum over its points of min(D_p(current), D_p(alpha)) +
    min(V) * (pairs of c)``, and above by its current energy ``E_c``: the
    cut minimises the truncated move energy, which bounds the true energy
    from above and equals ``E_c`` when every point keeps its label. A contour
    with ``LB_c == E_c`` therefore ends the move at exactly ``E_c`` and
    cannot decide whether the move wins; it can only shift labels through
    ties. The move is scored on the improvable contours (and skipped when
    there are none), and only an accepted move cuts the remaining contours
    too, so the labeling and the energy trace equal those of cutting every
    movable point at once.
    """
    larr = offset_labels() if labels is None else np.asarray(labels, dtype=np.int64)
    if larr.ndim != 2 or larr.shape[1] != 2:
        raise ValueError("labels must be an (L, 2) array of (dx, dy) offsets")
    zero_candidates = np.nonzero((larr[:, 0] == 0) & (larr[:, 1] == 0))[0]
    if len(zero_candidates) == 0:
        raise ValueError("label set must contain the zero offset")
    zero_idx = int(zero_candidates[0])

    dtable = _data_cost_table(problem, larr)
    vtable = smooth_costs(larr[:, None] - larr[None])
    point_ids = np.arange(problem.size)
    pa, pb = problem.pairs[:, 0], problem.pairs[:, 1]
    # contour id per point; the spans tile the points in order
    n_contours = len(problem.contour_spans)
    contour_of = np.repeat(
        np.arange(n_contours), [stop - start for start, stop, _ in problem.contour_spans]
    )
    pair_contour = contour_of[pa]

    def per_contour(values, ids=contour_of):
        return np.bincount(ids, weights=values, minlength=n_contours).astype(np.int64)

    def contour_state(assign):
        """Each point's data cost and each contour's energy."""
        current = dtable[assign, point_ids]
        pair_cost = vtable[assign[pa], assign[pb]]
        return current, per_contour(current) + per_contour(pair_cost, pair_contour)

    smooth_floor = int(vtable.min()) * per_contour(None, pair_contour)

    assign = np.full(problem.size, zero_idx, dtype=np.int64)
    current, contour_energy = contour_state(assign)
    best = int(contour_energy.sum())
    if energy_trace is not None:
        energy_trace.append(best)

    improved = True
    while improved:
        improved = False
        for alpha_idx in range(len(larr)):
            bound = per_contour(np.minimum(current, dtable[alpha_idx])) + smooth_floor
            open_points = (bound < contour_energy)[contour_of]
            movable = assign != alpha_idx
            proposal = _expansion_move(
                problem, assign, alpha_idx, dtable, vtable, movable & open_points
            )
            if proposal is None:
                continue
            cand = int(contour_state(proposal)[1].sum())
            if cand < best:
                rest = _expansion_move(
                    problem, proposal, alpha_idx, dtable, vtable, movable & ~open_points
                )
                assign = proposal if rest is None else rest
                best = cand
                improved = True
                current, contour_energy = contour_state(assign)
                if energy_trace is not None:
                    energy_trace.append(best)
    return larr[assign]


# ---------------------------------------------------------------------------
# Densification and warping
# ---------------------------------------------------------------------------


def interpolate_offsets(problem: ContourProblem, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Densify the (n, 2) (dx, dy) contour offsets, one per point, to every
    pixel of the problem's grid: the (h, w) float64 grids dx and dy.

    Anchors are the contour pixels (with their solved offsets) plus every
    pixel at Chebyshev distance >= FAR_DISTANCE from all contour pixels
    (offset zero); the reach is read when the function is called, and a
    reach beyond the grid's larger side makes no pixel far. Anchors keep
    their exact values; a problem without points gives the zero field.

    Every other pixel (the band) takes Shepard's inverse-square weighted
    mean of its IDW_NEIGHBORS nearest anchors. Ties are explicit: with d_k
    the distance of the k-th nearest anchor, every anchor at distance <= d_k
    joins, and a grid with fewer anchors than that blends all of them. The
    sums are built one distance shell at a time, each shell's integer counts
    and offset sums divided by its squared distance, in increasing distance.
    So the field does not depend on the order of the anchors, and the field
    of the transposed problem is the transposed field, bit for bit.

    The nearest anchors are found by walking the squared distances q = 1,
    2, 3, ... over the band pixels still open, each shell being every
    integer offset with dx^2 + dy^2 == q. A pixel at Chebyshev distance c
    from the contour has no contour anchor nearer than c and no far anchor
    nearer than the reach minus c, so it joins the walk at the shell of the
    smaller; it closes once it holds k anchors after a shell. Each shell is
    gathered from the open pixels a chunk at a time. Beyond the output grids
    and a few grid-sized masks and counters, memory follows _PAIR_BLOCK
    (pixel, offset) pairs, or one pixel's shell when it is more.
    """
    if len(offsets) != problem.size:
        raise ValueError("labeling size does not match problem")
    h, w = problem.line_buffer.shape[1:]
    dx = np.zeros((h, w), dtype=np.float64)
    dy = np.zeros((h, w), dtype=np.float64)
    if problem.size == 0:  # a reach past the empty mask's distance leaves no anchor
        return dx, dy

    uniq, first = np.unique(problem.points, axis=0, return_index=True)
    offs = np.asarray(offsets)[first]
    dx[uniq[:, 1], uniq[:, 0]] = offs[:, 0]
    dy[uniq[:, 1], uniq[:, 0]] = offs[:, 1]

    contour = np.zeros((h, w), dtype=bool)
    contour[uniq[:, 1], uniq[:, 0]] = True
    low = boundary_distance(contour).ravel()
    contour = contour.ravel()
    far = low >= FAR_DISTANCE
    anchor = contour | far
    band = ~anchor
    k = min(IDW_NEIGHBORS, int(np.count_nonzero(anchor)))
    # the distance below which a band pixel has no anchor, >= 1; 0 on anchors
    if far.any():
        np.minimum(low, FAR_DISTANCE - low, out=low)
    low[anchor] = 0
    del contour, far

    count = np.zeros(h * w, dtype=np.int32)  # a band pixel is open while count < k
    weight = np.zeros(h * w)
    sum_dx, sum_dy = dx.reshape(-1), dy.reshape(-1)
    active = np.empty(0, dtype=np.intp)  # the open pixels that have joined the walk
    joined, last, q = 0, int(low.max()), 0  # pixels with low <= joined have joined
    while active.size or joined < last:
        q += 1
        while joined < last and (joined + 1) ** 2 <= q:
            joined += 1
            active = np.concatenate([active, np.flatnonzero(low == joined)])
        oy, ox = _shell(q)
        if ox.size == 0:
            continue
        flat, step = oy * w + ox, max(1, _PAIR_BLOCK // ox.size)
        for i in range(0, active.size, step):
            pixels = active[i : i + step]
            t = pixels[:, None] + flat
            hit = ((pixels % w)[:, None] + ox).view(np.uint64) < w
            hit &= t.view(np.uint64) < anchor.size
            hit &= np.take(anchor, t, mode="clip")
            rows, cols = np.nonzero(hit)
            t = t[rows, cols]
            # a chunk's pixels are distinct; the offset sums are integers,
            # exact in float64, and a pixel without a hit adds +0.0
            n = np.bincount(rows, minlength=pixels.size)
            count[pixels] += n
            weight[pixels] += n / q
            sum_dx[pixels] += np.bincount(rows, sum_dx[t], minlength=pixels.size) / q
            sum_dy[pixels] += np.bincount(rows, sum_dy[t], minlength=pixels.size) / q
        active = active[count[active] < k]
    np.divide(sum_dx, weight, out=sum_dx, where=band)
    np.divide(sum_dy, weight, out=sum_dy, where=band)
    return dx, dy


def _shell(q: int):
    """(dy, dx) of every integer offset with dx^2 + dy^2 == q."""
    dy = np.arange(-math.isqrt(q), math.isqrt(q) + 1)
    # a float square root is exact on a perfect square below 2**52
    dx = np.sqrt(q - dy * dy).astype(np.int64)
    on = dx * dx + dy * dy == q
    dy, dx = dy[on], dx[on]
    return np.concatenate([dy, dy[dx > 0]]), np.concatenate([dx, -dx[dx > 0]])


def warp_dsm(dsm: Heightfield, dx: np.ndarray, dy: np.ndarray) -> Heightfield:
    """Backward-map the DSM through the offset field, the DSM-shaped (h, w)
    grids dx and dy, with bilinear sampling: pixel (x, y) samples the DSM
    at (x - dx, y - dy).

    Sample positions clamp to the border; a sample whose bilinear support
    touches nodata becomes nodata. Only the pixels with a non-zero offset
    are sampled: every other pixel gets what the bilinear sample at its own
    centre gives, its cell plus 0.0 (a -0.0 cell reads 0.0), or nodata where
    the cell is nodata. So the zero field reproduces the input. The moved
    pixels are sampled _WARP_BLOCK at a time, so beyond the output grid and
    the moved pixels' flat indices memory follows the block, not the grid.
    A non-finite offset of a moved pixel raises ValueError.
    """
    if dx.shape != dsm.values.shape or dy.shape != dsm.values.shape:
        raise ValueError("offset field dimensions do not match the DSM")
    out = dsm.values + 0.0
    out[~dsm.valid_mask()] = dsm.nodata
    w = out.shape[1]
    moved = np.flatnonzero((dx != 0) | (dy != 0))
    for lo in range(0, moved.size, _WARP_BLOCK):
        ys, xs = np.divmod(moved[lo : lo + _WARP_BLOCK], w)
        vals, valid = sample_bilinear(dsm, xs - dx[ys, xs], ys - dy[ys, xs])
        out[ys, xs] = np.where(valid, vals, dsm.nodata)
    return dsm.like(out)


# ---------------------------------------------------------------------------
# Debug dumps
# ---------------------------------------------------------------------------


def save_labeling_csv(problem: ContourProblem, offsets, path: str | Path) -> None:
    rows = np.column_stack([problem.points, offsets]).tolist()
    write_csv(path, ["x", "y", "dx", "dy"], rows)
