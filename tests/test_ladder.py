"""The lazy width walk up the tophat ladder against the full-stack oracle.

``oracle_assign_widths`` is width assignment as it was before the walk:
build every rung, dilate every contour image, then take each segment's
first hit. The walk must give the same segments, drop the same ones and
build no rung past the one the answer needs.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmsharp import lines, raster, synth, tophat
from dsmsharp.lines import LineSegment
from dsmsharp.synth import Building, SceneSpec
from dsmsharp.tophat import TophatParams


def oracle_assign_widths(segments, stack, overlap_radius=2):
    buffers = [raster.dilate_mask(ci, overlap_radius) for ci in stack.contour_images]
    out = []
    for seg in segments:
        pts = seg.raster_points()
        for index, buf in enumerate(buffers, start=1):
            h, w = buf.shape
            xs, ys = pts[:, 0], pts[:, 1]
            inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            if 2 * int(buf[ys[inside], xs[inside]].sum()) > len(pts):
                out.append(LineSegment(seg.p1, seg.p2, index))
                break
    return out


@pytest.fixture
def tophat_scales(monkeypatch):
    """Scales of every tophat the tophat module thresholds, in order."""
    scales = []
    real = tophat._thresholded

    def counting(dsm, scale, threshold):
        scales.append(scale)
        return real(dsm, scale, threshold)

    monkeypatch.setattr(tophat, "_thresholded", counting)
    return scales


def filtered_segments(dsm, ortho, params):
    mask = tophat.top_tophat(dsm, params).mask
    contours = raster.rasterize_contours(tophat.boundary_contours(mask), dsm.values.shape)
    raw = lines.detect_segments(raster.grayscale(ortho))
    return mask, lines.filter_segments(raw, contours, 5)


def check_walk(dsm, ortho, params, tophat_scales):
    """Walk and oracle agree; returns the segments in, the oracle's segments
    out and the 1-based index of the first rung equal to the building mask."""
    mask, segments = filtered_segments(dsm, ortho, params)
    stack = tophat.build_stack(dsm, params)
    expected = oracle_assign_widths(segments, stack)

    tophat_scales.clear()
    walked = lines.assign_widths(segments, tophat.ladder(dsm, params, building=mask), 2)
    assert walked == expected

    # the walk ends at the largest index when every segment matched, else
    # at the first rung equal to the building mask; it never evaluates the
    # top rung's tophat, which is the building mask
    top = stack.cumulative_masks[-1]
    saturated = next(
        i for i, m in enumerate(stack.cumulative_masks, start=1) if np.array_equal(m, top)
    )
    if len(expected) == len(segments):
        walked_rungs = max((s.width_index for s in expected), default=0)
    else:
        walked_rungs = saturated
    scales = params.scales()
    assert tophat_scales == [s for s in scales[:walked_rungs] if s != params.top_scale]
    return segments, expected, saturated


def test_walk_matches_oracle_on_a_seeded_scene(tophat_scales):
    """The largest building first shows at the rung where the mask stops
    growing, half way up the ladder: the walk needs that rung, no later one."""
    spec = SceneSpec(
        (128, 128),
        0.0,
        [
            Building((30, 34), (20, 26), 9.0),
            Building((92, 40), (36, 28), 12.0, 20.0),
            Building((64, 96), (56, 44), 7.0),
        ],
        0.8,
        0.03,
        11,
    )
    _, dsm, ortho = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=100)
    segments, kept, saturated = check_walk(dsm, ortho, params, tophat_scales)
    assert len(kept) == len(segments) > 0
    assert max(s.width_index for s in kept) == saturated == 5
    assert len(tophat_scales) == 5


def test_walk_matches_oracle_when_widths_drop_segments(tophat_scales):
    """A DSM fattened by 3 px against its ortho: two vertical lines lie off
    every rung's contours, so the walk runs up to the saturated rung."""
    buildings = [Building((40, 64), (40, 30), 8.0), Building((96, 60), (26, 44), 11.0)]
    spec = SceneSpec((128, 128), 0.0, buildings, 2.0, 0.05, 3)
    _, _, ortho = synth.generate(replace(spec, boundary_blur_sigma=0.0, noise_sigma=0.0))
    fat = [replace(b, size=(b.size[0] + 6, b.size[1] + 6)) for b in buildings]
    _, dsm, _ = synth.generate(replace(spec, buildings=fat))
    segments, kept, _ = check_walk(
        dsm, ortho, TophatParams(scale_min=10, scale_max=80), tophat_scales
    )
    assert 0 < len(kept) < len(segments)


def test_walk_matches_oracle_on_a_dsm_with_holes(tophat_scales):
    spec = SceneSpec(
        (96, 96),
        0.0,
        [Building((40, 48), (30, 30), 10.0), Building((76, 30), (16, 24), 6.0)],
        1.5,
        0.02,
        2,
    )
    _, smeared, ortho = synth.generate(spec)
    vals = smeared.values.copy()
    vals[40:44, 40:44] = -9999.0
    vals[0:6, 60:90] = -9999.0
    _, kept, _ = check_walk(
        raster.Heightfield(vals), ortho, TophatParams(scale_min=10, scale_max=60), tophat_scales
    )
    assert kept


def test_walk_matches_oracle_below_scale_max(tophat_scales):
    """With the step not dividing the range the top rung is scale 40, not
    45; the building first shows there, and the walk takes that rung from
    the building mask without a tophat of its own."""
    spec = SceneSpec((80, 80), 0.0, [Building((40, 40), (34, 34), 10.0)], 0.8, 0.02, 4)
    _, dsm, ortho = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=45, scale_step=10)
    assert params.top_scale == 40
    _, kept, _ = check_walk(dsm, ortho, params, tophat_scales)
    assert [s.width_index for s in kept] == [4] * 4
    assert tophat_scales == [10, 20, 30]


def test_no_segments_build_no_rungs(tophat_scales):
    dsm = raster.Heightfield(np.zeros((16, 16)))
    params = TophatParams(scale_min=10, scale_max=40)
    mask = tophat.top_tophat(dsm, params).mask
    tophat_scales.clear()
    assert lines.assign_widths([], tophat.ladder(dsm, params, building=mask), 2) == []
    assert tophat_scales == []


def test_ladder_without_building_mask_is_the_stack():
    spec = SceneSpec((64, 64), 0.0, [Building((32, 32), (20, 28), 10.0)], 1.5, 0.02, 5)
    _, dsm, _ = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=50)
    stack = tophat.build_stack(dsm, params)
    rungs = list(tophat.ladder(dsm, params))
    assert [r.scale for r in rungs] == stack.scales[: len(rungs)]
    for rung, mask, cimg in zip(rungs, stack.cumulative_masks, stack.contour_images):
        assert np.array_equal(rung.mask, mask)
        assert np.array_equal(rung.contour_image, cimg)

    # it ends at its first rung equal to the building mask, as it does when
    # given that mask; the stack's later rungs repeat that rung
    building = stack.cumulative_masks[-1]
    assert np.array_equal(rungs[-1].mask, building)
    assert not any(np.array_equal(r.mask, building) for r in rungs[:-1])
    assert len(rungs) < len(stack)
    last = stack.cumulative_masks[len(rungs) - 1]
    assert all(m is last for m in stack.cumulative_masks[len(rungs) :])
    walked = list(tophat.ladder(dsm, params, building=building))
    assert [r.scale for r in walked] == [r.scale for r in rungs]
