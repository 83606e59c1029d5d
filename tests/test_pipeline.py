"""In-memory integration runs across module boundaries."""

import numpy as np

from dsmsharp import evaluate, graphcut, planefit, raster, synth, tophat
from dsmsharp.cli import lines_stage, mask_stage, sharpen_stage
from dsmsharp.config import PipelineConfig
from dsmsharp.synth import Building, SceneSpec
from dsmsharp.tophat import TophatParams


def run_front_end(spec, tophat_params):
    """The CLI's mask and lines stages on a generated scene, with default
    settings but the tophat ladder."""
    truth, smeared, ortho = synth.generate(spec)
    top, cmask = mask_stage(smeared, tophat_params)
    cfg = PipelineConfig(tophat=tophat_params)
    _, _, matched = lines_stage(smeared, ortho, top.mask, cmask, cfg)
    return truth, smeared, tophat.boundary_contours(top.mask), cmask, matched


def run_graphcut(dsm, segments, tophat_params):
    """The CLI's graph-cut stage on the ramps of the DSM's top-scale tophat."""
    ramps = graphcut.ramp_contours(tophat.top_tophat(dsm, tophat_params))
    warped, (problem, labeling, _) = sharpen_stage("graphcut", dsm, segments, ramps)
    return problem, labeling, warped


def test_rotated_building_detected_and_sharpened():
    spec = SceneSpec(
        dims=(160, 160),
        buildings=[Building((80, 80), (56, 56), 10.0, rotation_deg=30.0)],
        boundary_blur_sigma=2.0,
        noise_sigma=0.02,
        seed=13,
    )
    params = TophatParams(scale_min=10, scale_max=120)
    truth, smeared, contours, cmask, filtered = run_front_end(spec, params)
    assert len(filtered) == 4
    # all four segments slope at +-30 / -60 degrees
    for s in filtered:
        ang = np.degrees(np.arctan2(s.p2[1] - s.p1[1], s.p2[0] - s.p1[0]))
        assert min(abs(abs(ang) - 30), abs(abs(ang) - 60)) < 3, ang

    adjusted = planefit.adjust_all(smeared, filtered)
    scope = raster.dilate_mask(cmask, 5)
    assert evaluate.rmse(adjusted, truth, scope) < evaluate.rmse(smeared, truth, scope)


def test_two_buildings_give_two_contours_and_eight_segments():
    spec = SceneSpec(
        dims=(192, 192),
        buildings=[Building((60, 60), (48, 48), 10.0), Building((140, 140), (28, 28), 7.0)],
        boundary_blur_sigma=1.5,
        noise_sigma=0.02,
        seed=3,
    )
    params = TophatParams(scale_min=10, scale_max=80)
    truth, smeared, contours, cmask, filtered = run_front_end(spec, params)
    assert len(contours) == 2
    assert len(filtered) == 8
    widths = {s.width_index for s in filtered}
    assert len(widths) >= 2  # different building sizes, different indices

    problem, labeling, warped = run_graphcut(smeared, filtered, params)
    assert len(problem.contour_spans) == 4  # a ground and a roof contour each
    # ramps already inside their bands on the image lines: zero offsets, identity warp
    assert (labeling.offsets == 0).all()
    assert np.array_equal(warped.values, smeared.values)


def test_nodata_hole_survives_both_methods():
    spec = SceneSpec(
        dims=(96, 96),
        buildings=[Building((48, 48), (30, 30), 10.0)],
        boundary_blur_sigma=1.5,
        noise_sigma=0.02,
        seed=2,
    )
    truth, smeared, ortho = synth.generate(spec)
    vals = smeared.values.copy()
    vals[40:44, 40:44] = -9999.0
    holey = raster.Heightfield(vals)
    params = TophatParams(scale_min=10, scale_max=60)
    top, cmask = mask_stage(holey, params)
    _, _, segs = lines_stage(holey, ortho, top.mask, cmask, PipelineConfig(tophat=params))
    assert len(segs) == 4

    adjusted = planefit.adjust_all(holey, segs)
    assert (adjusted.values[40:44, 40:44] == holey.nodata).all()

    _, _, warped = run_graphcut(holey, segs, params)
    assert (warped.values[40:44, 40:44] == holey.nodata).all()
    # scoring still works over the valid cells
    evaluate.rmse(adjusted, truth, raster.dilate_mask(cmask, 5))


def test_building_flush_with_border():
    spec = SceneSpec(
        dims=(80, 80),
        buildings=[Building((14, 40), (28, 40), 10.0)],
        boundary_blur_sigma=1.0,
        noise_sigma=0.0,
        seed=2,
    )
    params = TophatParams(scale_min=10, scale_max=60)
    truth, smeared, contours, cmask, segs = run_front_end(spec, params)
    # only three sides have image-visible edges; the fourth runs along the border
    assert len(segs) == 3
    adjusted = planefit.adjust_all(smeared, segs)
    scope = raster.dilate_mask(cmask, 5)
    assert evaluate.rmse(adjusted, truth, scope) < evaluate.rmse(smeared, truth, scope)


def test_graphcut_corrects_displaced_boundary():
    """When the DSM is displaced off the image lines, the offset solver snaps
    its ramps back and the warp follows the segments."""
    spec = SceneSpec(
        dims=(160, 160),
        buildings=[Building((80, 80), (56, 56), 10.0)],
        boundary_blur_sigma=1.0,
        noise_sigma=0.0,
        seed=1,
    )
    truth, smeared, ortho = synth.generate(spec)
    params = TophatParams(scale_min=10, scale_max=80)
    # roll the DSM 4 px east of the ortho to emulate a displaced boundary
    rolled = smeared.like(np.roll(smeared.values, 4, axis=1))
    top, cmask = mask_stage(rolled, params)
    # graph-cut needs no width indices, so all four filtered edges take part
    cfg = PipelineConfig(tophat=params, boundary_buffer_radius=8)
    _, segments, _ = lines_stage(rolled, ortho, top.mask, cmask, cfg)
    assert len(segments) == 4
    problem, labeling, warped = run_graphcut(rolled, segments, params)
    assert (labeling.offsets != 0).any(axis=1).all()
    assert graphcut.energy(problem, labeling) < graphcut.energy(
        problem, graphcut.Labeling(np.zeros((problem.size, 2), int))
    )
    scope = raster.dilate_mask(cmask, 5)
    assert evaluate.rmse(warped, truth, scope) < 0.5 * evaluate.rmse(rolled, truth, scope)
