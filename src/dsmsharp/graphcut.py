"""Offset-label optimisation that squeezes smeared DSM ramps onto image lines.

Every building contributes two iso-height contours of its tophat response:
a ground-side ring just outside the region above 20 % of the building's
height and a roof-side contour around the region above 80 %. Each filtered
segment gets a one-sided band on either side of its line; the roof side is
the side where the DSM is higher. Every contour pixel picks one 2-d integer
offset out of an 11x11 grid. A pixel whose shifted position lands in the
band on its own side is free, a miss costs 10; neighbouring contour pixels
pay 2 when their offsets agree within a 5-pixel radius and 100 otherwise.
These are the method's fixed constants; the band width, the neighbour
reach and the densification reach are the settings of GraphcutConfig,
which every problem carries. Snapping the foot and the top of a ramp onto
the same line narrows the ramp instead of only translating it.

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
search over rings of integer offsets that takes every anchor tied at the
last distance (see interpolate_offsets), and applied as a backward
bilinear warp.

The cuts are the package's only use of scipy: its sparse max-flow and
breadth-first search. They are imported on first use, not with the module,
so importing the package and every command that does not run graph-cut
load numpy alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .raster import (
    BinaryMask,
    Contour,
    Heightfield,
    boundary_distance,
    dilate_mask,
    label,
    sample_bilinear,
    trace_contours,
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
# anchors whose offsets interpolate_offsets blends into each band pixel
IDW_NEIGHBORS = 8
# (pixel, offset) pairs interpolate_offsets tests at a time; bounds its
# temporaries
_PAIR_BLOCK = 1 << 16

# band layers of a problem, and the ramp levels that pick their contours
GROUND, ROOF = 0, 1
GROUND_FRACTION = 0.2
ROOF_FRACTION = 0.8
HEIGHT_PERCENTILE = 95.0


class OffsetLabel(NamedTuple):
    dx: int
    dy: int


def offset_labels(radius: int = LABEL_RADIUS) -> list[OffsetLabel]:
    """The (2r+1)^2 offset grid in row-major order; 121 labels at the default."""
    return [
        OffsetLabel(dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    ]


def _label_array(labels) -> np.ndarray:
    return np.asarray([(l[0], l[1]) for l in labels], dtype=np.int64)


def data_costs(hit) -> np.ndarray:
    """The data cost of each shifted point, by whether it hits its band."""
    return np.where(hit, DATA_COST_HIT, DATA_COST_MISS)


def smooth_costs(d) -> np.ndarray:
    """The smoothness cost of each pair whose offsets differ by d (..., 2)."""
    near = d[..., 0] ** 2 + d[..., 1] ** 2 < SMOOTH_RADIUS**2
    return np.where(near, SMOOTH_COST_NEAR, SMOOTH_COST_FAR)


@dataclass(frozen=True)
class GraphcutConfig:
    """The reaches of the solver: each point pairs with the next
    ``neighbor_reach`` points along its contour, ``line_buffer_radius`` is
    the half width of each segment's band (see side_bands) and
    ``far_distance`` the reach of interpolate_offsets.
    """

    neighbor_reach: int = 8
    line_buffer_radius: int = 2
    far_distance: int = 20

    def __post_init__(self):
        if self.neighbor_reach < 0:
            raise ValueError("neighbor_reach must be >= 0")
        if self.line_buffer_radius < 0:
            raise ValueError("line_buffer_radius must be >= 0")
        if self.far_distance < 0:
            raise ValueError("far_distance must be >= 0")


@dataclass(eq=False)
class ContourProblem:
    """Data points, neighbourhood structure and settings of one solve.

    ``contour_spans`` holds (start, stop, closed) index ranges partitioning
    ``points`` back into the source contours; they must tile ``0..n`` in
    order (ValueError otherwise), and closed spans wrap their neighbour
    reach. ``line_buffer`` is a (k, h, w) bool stack of which
    ``point_band`` picks each point's layer (GROUND or ROOF for the
    one-sided bands of build_problem).
    """

    points: np.ndarray  # (n, 2) int pixel coordinates
    contour_spans: list[tuple[int, int, bool]]
    line_buffer: np.ndarray  # (k, h, w) bool
    params: GraphcutConfig = field(default_factory=GraphcutConfig)
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
        self.pairs = _neighbor_pairs(self.contour_spans, self.params.neighbor_reach)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(eq=False)
class Labeling:
    """One offset per problem point; ``offsets`` is (n, 2) int (dx, dy)."""

    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)

    def __len__(self) -> int:
        return self.offsets.shape[0]


@dataclass(eq=False)
class OffsetField:
    """Dense per-pixel offsets, same shape as the DSM."""

    dx: np.ndarray
    dy: np.ndarray


def _neighbor_pairs(spans, reach: int) -> np.ndarray:
    """Each point pairs with the next `reach` points along its contour;
    closed contours wrap and every unordered pair is counted once."""
    chunks = []
    for start, stop, closed in spans:
        n = stop - start
        if n < 2:
            continue
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
    params: GraphcutConfig | None = None,
) -> ContourProblem:
    """Assemble the optimisation problem from the ground-side and roof-side
    contours of ramp_contours and the filtered segments on the grid of ``dsm``.

    Each contour is free only inside the one-sided band on its own side of
    the segments (see side_bands). The points are the ground contours
    followed by the roof contours; empty contours are left out.
    """
    params = params or GraphcutConfig()
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
    bands = side_bands(dsm, segments, params.line_buffer_radius)
    return ContourProblem(points, spans, bands, params, point_band=point_band)


def side_bands(
    dsm: Heightfield, segments: list[LineSegment], radius: int = GraphcutConfig.line_buffer_radius
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
    bands = np.zeros((2, h, w), dtype=bool)
    valid = dsm.valid_mask()
    for seg in segments:
        (x1, y1), (x2, y2) = seg.p1, seg.p2
        dx, dy = x2 - x1, y2 - y1
        if dx == 0 and dy == 0:
            continue
        pts = seg.raster_points()
        x0, y0 = np.maximum(pts.min(axis=0) - radius, 0)
        xe, ye = np.minimum(pts.max(axis=0) + radius + 1, (w, h))
        if x0 >= xe or y0 >= ye:
            continue  # the band lies off the grid
        win = np.s_[y0:ye, x0:xe]
        yy, xx = np.mgrid[win]
        walk = np.zeros(yy.shape, dtype=bool)
        xs, ys = pts[:, 0] - xx[0, 0], pts[:, 1] - yy[0, 0]
        inside = (xs >= 0) & (xs < walk.shape[1]) & (ys >= 0) & (ys < walk.shape[0])
        walk[ys[inside], xs[inside]] = True
        # the window spans the walk plus radius, so clipping at its edge loses nothing
        buffer = dilate_mask(BinaryMask(walk), radius).bits
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
    labels, boxes = label(top.mask.bits)
    pad = LABEL_RADIUS
    for idx, sl in enumerate(boxes, start=1):
        win = tuple(
            slice(max(0, s.start - pad), min(n, s.stop + pad)) for s, n in zip(sl, shape)
        )
        comp = labels[win] == idx
        height = float(np.percentile(values[win][comp], HEIGHT_PERCENTILE))
        reach = dilate_mask(BinaryMask(comp), pad).bits
        for region, fraction in ((low, GROUND_FRACTION), (high, ROOF_FRACTION)):
            parts, _ = label(reach & (values[win] > fraction * height))
            touching = np.unique(parts[comp])
            region[win] |= np.isin(parts, touching[touching > 0])
    del labels
    ground = trace_contours(dilate_mask(BinaryMask(low), 1))
    roof = trace_contours(BinaryMask(high))
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


def _smooth_cost_table(problem: ContourProblem, labels: np.ndarray) -> np.ndarray:
    """(n_labels, n_labels) int smooth costs."""
    d = labels[:, None, :] - labels[None, :, :]
    return smooth_costs(d).astype(np.int64)


def energy(problem: ContourProblem, labeling: Labeling) -> int:
    """Total cost: data over all points plus smoothness over neighbour pairs."""
    if len(labeling) != problem.size:
        raise ValueError("labeling size does not match problem")
    offs = labeling.offsets
    xs = problem.points[:, 0] + offs[:, 0]
    ys = problem.points[:, 1] + offs[:, 1]
    hit = _hits(problem, np.arange(problem.size), xs, ys)
    total = int(data_costs(hit).sum())
    if len(problem.pairs):
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
    pair_rows = pair_cols = pair_caps = np.empty(0, dtype=np.int64)
    pairs = problem.pairs
    if len(pairs):
        pa, pb = pairs[:, 0], pairs[:, 1]
        va, vb = movable[pa], movable[pb]

        both = va & vb
        if both.any():
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
            if only.any():
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


def minimize(problem: ContourProblem, labels=None, energy_trace: list | None = None) -> Labeling:
    """Expansion-move descent from the all-zero labeling.

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
    labels = offset_labels() if labels is None else list(labels)
    larr = _label_array(labels)
    zero_candidates = np.nonzero((larr[:, 0] == 0) & (larr[:, 1] == 0))[0]
    if len(zero_candidates) == 0:
        raise ValueError("label set must contain the zero offset")
    zero_idx = int(zero_candidates[0])

    dtable = _data_cost_table(problem, larr)
    vtable = _smooth_cost_table(problem, larr)
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
        for alpha_idx in range(len(labels)):
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
    return Labeling(larr[assign])


# ---------------------------------------------------------------------------
# Densification and warping
# ---------------------------------------------------------------------------


def interpolate_offsets(problem: ContourProblem, labeling: Labeling) -> OffsetField:
    """Densify sparse contour offsets to every pixel of the problem's grid.

    Anchors are the contour pixels (with their solved offsets) plus every
    pixel at Chebyshev distance >= ``far_distance`` from all contour pixels
    (offset zero); the reach is that of the problem's GraphcutConfig, and a
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

    The nearest anchors are found by walking integer offsets in (d^2, dy,
    dx) order, whole shells at a time, over the band pixels still open. A
    pixel at Chebyshev distance c from the contour has no contour anchor
    nearer than c and no far anchor nearer than the reach minus c, so it
    joins the walk at the shell of the smaller; it closes once it holds k
    anchors and its shell is complete. Each batch of shells either gathers
    from the open pixels or scatters from the anchors that can be nearest,
    whichever set is smaller; both give the same sums. Beyond the output
    grids and a few grid-sized masks and counters, memory follows
    _PAIR_BLOCK (pixel, offset) pairs, or one shell when one shell is more.
    """
    if len(labeling) != problem.size:
        raise ValueError("labeling size does not match problem")
    h, w = problem.line_buffer.shape[1:]
    dx = np.zeros((h, w), dtype=np.float64)
    dy = np.zeros((h, w), dtype=np.float64)
    if problem.size == 0:
        return OffsetField(dx, dy)

    uniq, first = np.unique(problem.points, axis=0, return_index=True)
    offs = labeling.offsets[first]
    dx[uniq[:, 1], uniq[:, 0]] = offs[:, 0]
    dy[uniq[:, 1], uniq[:, 0]] = offs[:, 1]

    contour = np.zeros((h, w), dtype=bool)
    contour[uniq[:, 1], uniq[:, 0]] = True
    low = boundary_distance(BinaryMask(contour)).ravel()
    contour = contour.ravel()
    # no pixel lies farther than the grid's larger side from the contour
    reach = min(problem.params.far_distance, max(h, w))
    far = low >= reach
    anchor = contour | far
    band = ~anchor
    remaining = int(np.count_nonzero(band))
    if remaining == 0:
        return OffsetField(dx, dy)
    k = min(IDW_NEIGHBORS, h * w - remaining)
    # A far anchor IDW_NEIGHBORS or more beyond the reach is never among a
    # band pixel's nearest: the chessboard steps from it towards the pixel
    # pass that many far anchors, each strictly nearer.
    sources = np.flatnonzero(contour | (far & (low < reach + IDW_NEIGHBORS)))
    # the distance below which a band pixel has no anchor, >= 1; 0 on anchors
    if far.any():
        np.minimum(low, reach - low, out=low)
    low[anchor] = 0
    del contour, far

    is_open = band.copy()
    count = np.zeros(h * w, dtype=np.int32)
    weight = np.zeros(h * w)
    sum_dx, sum_dy = dx.reshape(-1), dy.reshape(-1)
    active = sources[:0]  # the open pixels that have joined the walk
    joined, last, lo = 0, int(low.max()), 1  # pixels with low <= joined have joined
    while remaining:
        if active.size == 0:
            lo = max(lo, int(low[low > joined].min()) ** 2)
        while joined < last and (joined + 1) ** 2 <= lo:
            joined += 1
            new = np.flatnonzero(low == joined)
            active = np.concatenate([active, new[is_open[new]]])
        # a band that holds many more pixels than the anchors near it (the
        # first shells of a dense band, or a reach near the grid's side
        # around a small contour) is cheaper walked from the anchors
        scatter = sources.size < active.size
        batch = sources if scatter else active
        # about pi offsets per unit of d^2, so some _PAIR_BLOCK pairs a
        # batch; a batch ends where the next pixels join
        hi = lo + max(1, _PAIR_BLOCK // (4 * batch.size))
        if joined < last:
            hi = min(hi, (joined + 1) ** 2)
        q, oy, ox = _offsets(lo, hi)
        lo = hi
        if q.size == 0:
            continue
        flat, step = oy * w + ox, max(1, _PAIR_BLOCK // q.size)
        parts = []
        for i in range(0, batch.size, step):
            if scatter:
                anchors, pixels, cols = _pairs(batch[i : i + step], ox, flat, is_open, w)
            else:
                pixels, anchors, cols = _pairs(batch[i : i + step], ox, flat, anchor, w)
            parts.append((pixels, q[cols], sum_dx[anchors], sum_dy[anchors]))
        pixels, pq, pdx, pdy = (np.concatenate(a) for a in zip(*parts))
        if pixels.size == 0:
            continue
        touched = _add_shells(pixels, pq, pdx, pdy, k, count, weight, sum_dx, sum_dy)
        done = touched[count[touched] >= k]
        is_open[done] = False
        remaining -= done.size
        active = active[is_open[active]]
    np.divide(sum_dx, weight, out=sum_dx, where=band)
    np.divide(sum_dy, weight, out=sum_dy, where=band)
    return OffsetField(dx, dy)


def _pairs(sources, ox, flat, targets, w):
    """(source, target, offset index) of every offset from a source pixel
    that lands on the grid on a set bit of ``targets`` (flat, like the
    pixels); ``flat`` is each offset as a flat step, ``ox`` its x part."""
    t = sources[:, None] + flat
    ok = ((sources % w)[:, None] + ox).view(np.uint64) < w
    ok &= t.view(np.uint64) < targets.size
    ok &= np.take(targets, t, mode="clip")
    rows, cols = np.nonzero(ok)
    return sources[rows], t[rows, cols], cols


def _add_shells(pixels, q, odx, ody, k, count, weight, sum_dx, sum_dy):
    """Add one batch of anchors, each (pixel, squared distance, offset), to
    the pixels' sums in increasing distance; returns the pixels that took a
    shell, each once.

    A pixel takes each of its shells, whole, while it holds fewer than k
    anchors before that shell. A shell adds its anchor count and its integer
    offset sums divided by its squared distance, each pixel's shells in
    increasing order whatever the batch, so the sums repeat bit for bit.
    """
    order = np.lexsort((q, pixels))
    pixels, q = pixels[order], q[order]
    new_pixel = np.empty(pixels.size, dtype=bool)
    new_pixel[0] = True
    np.not_equal(pixels[1:], pixels[:-1], out=new_pixel[1:])
    new_shell = new_pixel.copy()
    new_shell[1:] |= q[1:] != q[:-1]
    shell = np.cumsum(new_shell) - 1
    starts = np.flatnonzero(new_shell)
    n = np.bincount(shell)
    sx = np.bincount(shell, odx[order])  # integer sums, exact in float64
    sy = np.bincount(shell, ody[order])
    pixels, q = pixels[starts], q[starts]
    # anchors each pixel holds before each of its shells
    before = np.cumsum(n) - n
    before -= np.maximum.accumulate(np.where(new_pixel[starts], before, 0))
    before += count[pixels]
    take = before < k
    pixels, q, n, sx, sy = pixels[take], q[take], n[take], sx[take], sy[take]
    # ufunc.at adds in index order, so each pixel's shells add in order
    np.add.at(count, pixels, n)
    np.add.at(weight, pixels, n / q)
    np.add.at(sum_dx, pixels, sx / q)
    np.add.at(sum_dy, pixels, sy / q)
    return pixels[np.append(True, pixels[1:] != pixels[:-1])]


def _offsets(lo: int, hi: int):
    """(d^2, dy, dx) of every integer offset with lo <= d^2 < hi, in
    (d^2, dy, dx) order."""
    r = math.isqrt(hi - 1)
    ys = np.arange(-r, r + 1)
    # each row's dx >= 0 run, from the least with dx^2 >= lo - dy^2 to the
    # largest with dx^2 < hi - dy^2; a float square root rounds correctly,
    # so its floor and ceiling are exact below 2**52
    top = np.sqrt(hi - 1 - ys * ys).astype(np.int64)
    bottom = np.ceil(np.sqrt(np.maximum(lo - ys * ys, 0))).astype(np.int64)
    runs = np.maximum(top - bottom + 1, 0)
    ys = np.repeat(ys, runs)
    xs = np.arange(ys.size) - np.repeat(np.cumsum(runs) - runs - bottom, runs)
    mirror = xs > 0
    ys = np.concatenate([ys, ys[mirror]])
    xs = np.concatenate([xs, -xs[mirror]])
    q = xs * xs + ys * ys
    order = np.lexsort((xs, ys, q))
    return q[order], ys[order], xs[order]


def warp_dsm(dsm: Heightfield, field: OffsetField) -> Heightfield:
    """Backward-map the DSM through the offset field with bilinear sampling.

    Sample positions clamp to the border; a sample whose bilinear support
    touches nodata becomes nodata. Only the pixels with a non-zero offset
    are sampled: every other pixel gets what the bilinear sample at its own
    centre gives, its cell plus 0.0 (a -0.0 cell reads 0.0), or nodata where
    the cell is nodata. So the zero field reproduces the input, and beyond
    the output grid memory follows the moved pixels, not the grid.
    """
    if field.dx.shape != dsm.values.shape or field.dy.shape != dsm.values.shape:
        raise ValueError("offset field dimensions do not match the DSM")
    out = dsm.values + 0.0
    out[~dsm.valid_mask()] = dsm.nodata
    ys, xs = np.nonzero((field.dx != 0) | (field.dy != 0))
    vals, valid = sample_bilinear(dsm, xs - field.dx[ys, xs], ys - field.dy[ys, xs])
    out[ys, xs] = np.where(valid, vals, dsm.nodata)
    return dsm.like(out)


# ---------------------------------------------------------------------------
# Debug dumps
# ---------------------------------------------------------------------------


def save_labeling_csv(problem: ContourProblem, labeling: Labeling, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "dx", "dy"])
        for (x, y), (dx, dy) in zip(problem.points, labeling.offsets):
            writer.writerow([int(x), int(y), int(dx), int(dy)])
