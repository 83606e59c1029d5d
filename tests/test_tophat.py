import itertools

import numpy as np
import pytest

from dsmsharp import tophat
from dsmsharp.raster import (
    Heightfield,
    dilate_mask,
    load_mask,
    rasterize_contours,
    save_mask,
    trace_contours,
)
from dsmsharp.tophat import TophatParams


def block_field(size, block, height, at=None):
    """Flat ground with one raised square block; returns the field and footprint."""
    vals = np.zeros((size, size))
    y0, x0 = at if at is not None else ((size - block) // 2, (size - block) // 2)
    vals[y0 : y0 + block, x0 : x0 + block] = height
    fp = np.zeros((size, size), bool)
    fp[y0 : y0 + block, x0 : x0 + block] = True
    return Heightfield(vals), fp


def _axis_extreme(values, k, axis, op, pad):
    out = np.full_like(values, pad)
    for off in range(-k, k + 1):
        shifted = np.roll(values, off, axis=axis)
        if off > 0:
            idx = [slice(None)] * 2
            idx[axis] = slice(0, off)
            shifted[tuple(idx)] = pad
        elif off < 0:
            idx = [slice(None)] * 2
            idx[axis] = slice(off, None)
            shifted[tuple(idx)] = pad
        out = op(out, shifted)
    return out


def naive_tophat(values, se_size):
    """Reference opening built from explicit shift-and-compare passes."""
    k = se_size // 2
    eroded = _axis_extreme(values, k, 0, np.minimum, np.inf)
    eroded = _axis_extreme(eroded, k, 1, np.minimum, np.inf)
    opened = _axis_extreme(eroded, k, 0, np.maximum, -np.inf)
    opened = _axis_extreme(opened, k, 1, np.maximum, -np.inf)
    return values - opened


def test_tophat_constant_is_zero():
    hf = Heightfield(np.full((20, 20), 7.0))
    resp = tophat.white_tophat(hf, 5)
    assert np.allclose(resp.values, 0.0)


def test_tophat_block_smaller_than_element():
    hf, fp = block_field(48, 8, 10.0)
    resp = tophat.white_tophat(hf, 21)
    assert np.allclose(resp.values[fp], 10.0)
    assert np.allclose(resp.values[~fp], 0.0)
    assert np.array_equal(resp.values, naive_tophat(hf.values, 21))


def test_tophat_block_larger_than_element():
    hf, fp = block_field(48, 8, 10.0)
    resp = tophat.white_tophat(hf, 5)
    interior = np.zeros_like(fp)
    interior[22:26, 22:26] = True  # block core, clear of its own edges
    assert np.allclose(resp.values[interior], 0.0)
    assert np.array_equal(resp.values, naive_tophat(hf.values, 5))


def test_tophat_nonnegative_and_bounded():
    rng = np.random.default_rng(5)
    hf = Heightfield(rng.normal(10.0, 4.0, (32, 32)))
    resp = tophat.white_tophat(hf, 7)
    assert (resp.values >= -1e-9).all()
    assert (resp.values <= hf.values.max() - hf.values.min() + 1e-9).all()


def test_params_validation():
    with pytest.raises(ValueError):
        TophatParams(scale_min=0)
    with pytest.raises(ValueError):
        TophatParams(scale_min=50, scale_max=10)
    with pytest.raises(ValueError):
        TophatParams(height_threshold=0.0)


def test_default_stack_has_40_scales():
    params = TophatParams()
    assert params.scales() == list(range(10, 401, 10))
    hf = Heightfield(np.zeros((8, 8)))
    stack = tophat.build_stack(hf, params)
    assert len(stack) == 40


@pytest.mark.parametrize("scale_min, scale_max, scale_step", [(10, 400, 10), (10, 45, 10),
                                                            (7, 7, 3), (3, 50, 47), (5, 51, 2)])
def test_top_scale_is_the_last_scale(scale_min, scale_max, scale_step):
    params = TophatParams(scale_min=scale_min, scale_max=scale_max, scale_step=scale_step)
    assert params.top_scale == params.scales()[-1]


def test_top_scale_and_ladder_do_not_list_the_scales(monkeypatch):
    params = TophatParams(scale_max=10**7 + 5)
    monkeypatch.setattr(TophatParams, "scales", lambda self: pytest.fail("listed the scales"))
    assert params.top_scale == 10**7
    # the 30 px block first shows at scale 30, in the rung equal to the building mask
    hf, _ = block_field(64, 30, 10.0)
    rungs = [(rung.scale, rung.mask.any()) for rung in tophat.ladder(hf, params)]
    assert rungs == [(10, False), (20, False), (30, True)]


@pytest.mark.parametrize("shape", [(1, 1), (8, 8), (5, 30), (64, 64)])
@pytest.mark.parametrize("scale_min, scale_step", [(10, 10), (3, 7), (1, 1), (200, 10)])
def test_ladder_ends_at_the_first_scale_whose_element_covers_the_grid(
    shape, scale_min, scale_step
):
    # at the latest: every rung past that scale repeats its rung, bit for
    # bit, and the ladder ends at its first rung equal to the building mask
    side = max(shape)
    hf = Heightfield(np.random.default_rng(side).normal(0.0, 5.0, shape))
    params = TophatParams(scale_min=scale_min, scale_max=10**30, scale_step=scale_step)
    rungs = list(tophat.ladder(hf, params))
    scales = [rung.scale for rung in rungs]
    covering = next(s for s in itertools.count(scale_min, scale_step) if s // 2 >= side - 1)
    assert scales == list(range(scale_min, scales[-1] + 1, scale_step))
    assert scales[-1] <= covering
    top = tophat.white_tophat(hf, covering).values
    for later in (covering + scale_step, 10**30):
        assert tophat.white_tophat(hf, later).values.tobytes() == top.tobytes()
    building = tophat.top_tophat(hf, params).mask
    assert [np.array_equal(r.mask, building) for r in rungs] == [False] * len(rungs[1:]) + [True]


def test_stack_shares_the_last_rung_past_the_ladders_end():
    # the 11 px side is covered from scale 20 on; scales 25..40 share its rung
    hf = Heightfield(np.random.default_rng(3).normal(0.0, 5.0, (8, 11)))
    params = TophatParams(scale_min=5, scale_max=40, scale_step=5)
    stack = tophat.build_stack(hf, params)
    assert stack.scales == params.scales()
    assert len(stack.cumulative_masks) == len(stack.contour_images) == len(stack.scales)
    for scale, mask, contours in stack:
        response = tophat.white_tophat(hf, scale).values
        assert np.array_equal(mask, response > params.height_threshold)
        assert np.array_equal(contours, rasterize_contours(trace_contours(mask), (8, 11)))
    assert all(m is stack.cumulative_masks[3] for m in stack.cumulative_masks[3:])


def test_flat_field_gives_empty_stack():
    hf = Heightfield(np.zeros((32, 32)))
    params = TophatParams(scale_min=5, scale_max=25, scale_step=5)
    stack = tophat.build_stack(hf, params)
    assert not any(m.any() for m in stack.cumulative_masks)
    assert not any(c.any() for c in stack.contour_images)
    mask = tophat.top_tophat(hf, params).mask
    assert not mask.any()
    assert tophat.boundary_contours(mask) == []


def test_appearance_scales_of_two_blocks():
    """A block enters the per-scale mask at the first element exceeding it."""
    vals = np.zeros((200, 200))
    vals[20:28, 20:28] = 10.0  # 8 px block
    vals[60:160, 60:160] = 10.0  # 100 px block
    hf = Heightfield(vals)
    params = TophatParams(scale_min=10, scale_max=120, scale_step=10, height_threshold=2.5)
    stack = tophat.build_stack(hf, params)
    small = (slice(20, 28), slice(20, 28))
    large = (slice(60, 160), slice(60, 160))
    # scale 10: window 11 > 8 catches the small block, not the large one
    assert stack.cumulative_masks[0][small].all()
    assert not stack.cumulative_masks[0][large].any()
    # the large block stays absent until the element is strictly wider than it
    acc = np.zeros(hf.values.shape, bool)
    for i, scale in enumerate(params.scales()):
        window = 2 * (scale // 2) + 1
        covered = stack.cumulative_masks[i][large].all()
        assert covered == (window > 100), (scale, window, covered)
        acc |= naive_tophat(hf.values, scale) > params.height_threshold
        assert np.array_equal(stack.cumulative_masks[i], acc)


def test_cumulative_masks_are_nested():
    rng = np.random.default_rng(6)
    vals = np.zeros((60, 60))
    for _ in range(4):
        y, x = rng.integers(5, 40, 2)
        s = int(rng.integers(4, 12))
        vals[y : y + s, x : x + s] = 8.0
    params = TophatParams(scale_min=5, scale_max=45, scale_step=5)
    stack = tophat.build_stack(Heightfield(vals), params)
    for a, b in zip(stack.cumulative_masks, stack.cumulative_masks[1:]):
        assert (a <= b).all()
    final = tophat.top_tophat(Heightfield(vals), params).mask
    for m in stack.cumulative_masks:
        assert (m <= final).all()


def test_contour_images_inside_masks():
    hf, _ = block_field(40, 10, 9.0)
    stack = tophat.build_stack(hf, TophatParams(scale_min=15, scale_max=30, scale_step=15))
    for mask, cimg in zip(stack.cumulative_masks, stack.contour_images):
        assert (cimg <= mask).all()


def test_single_scale_stack_equals_thresholded_tophat():
    hf, _ = block_field(40, 6, 12.0)
    params = TophatParams(scale_min=9, scale_max=9, scale_step=1, height_threshold=2.5)
    stack = tophat.build_stack(hf, params)
    resp = tophat.white_tophat(hf, 9)
    want = resp.valid_mask() & (resp.values > 2.5)
    assert np.array_equal(stack.cumulative_masks[0], want)


def test_boundary_contours_of_block():
    hf, fp = block_field(40, 10, 9.0)
    mask = tophat.top_tophat(hf, TophatParams(scale_min=15, scale_max=15, scale_step=1)).mask
    contours = tophat.boundary_contours(mask)
    assert len(contours) == 1
    # border pixel count of a 10x10 block
    assert len(contours[0]) == 36


def test_building_mask_matches_footprint():
    hf, fp = block_field(64, 12, 10.0)
    mask = tophat.top_tophat(hf, TophatParams(scale_min=15, scale_max=30, scale_step=15)).mask
    assert np.array_equal(mask, fp)


def test_every_mask_is_a_2d_bool_array(tmp_path):
    hf, _ = block_field(40, 10, 9.0)
    params = TophatParams(scale_min=5, scale_max=25, scale_step=10)
    top = tophat.top_tophat(hf, params)
    stack = tophat.build_stack(hf, params)
    masks = [top.mask, *stack.cumulative_masks, *stack.contour_images]
    for rung in tophat.ladder(hf, params, building=top.mask):
        masks += [rung.mask, rung.contour_image]
    contour_mask = rasterize_contours(trace_contours(top.mask), top.mask.shape)
    masks += [contour_mask, dilate_mask(contour_mask, 2)]
    save_mask(contour_mask, tmp_path / "m.pgm")
    loaded = load_mask(tmp_path / "m.pgm")
    masks.append(loaded)
    for mask in masks:
        assert type(mask) is np.ndarray and mask.dtype == bool and mask.shape == (40, 40)
    assert np.array_equal(loaded, contour_mask)


def _holey_border_field():
    """Blocks of several sizes, one flush with the top-left corner, plus
    nodata holes inside a roof, on the ground and along the right border."""
    rng = np.random.default_rng(8)
    vals = rng.normal(0.0, 0.3, (70, 90))
    vals[0:14, 0:20] += 9.0  # touches two borders
    vals[30:38, 40:48] += 6.0
    vals[40:66, 10:40] += 12.0
    vals[50:53, 20:24] = -9999.0  # hole in a roof
    vals[20:23, 60:64] = -9999.0  # hole on the ground
    vals[5:60, 89] = -9999.0  # nodata strip on the border
    return Heightfield(vals)


@pytest.mark.parametrize(
    "params",
    [
        TophatParams(scale_min=5, scale_max=45, scale_step=5),
        TophatParams(scale_min=3, scale_max=40, scale_step=6),  # top of the ladder is 39
    ],
)
def test_building_mask_is_the_last_stack_mask(params):
    hf = _holey_border_field()
    stack = tophat.build_stack(hf, params)
    mask = tophat.top_tophat(hf, params).mask
    assert mask.any()
    assert np.array_equal(mask, stack.cumulative_masks[-1])
    assert not mask[~hf.valid_mask()].any()


def test_each_stack_mask_is_its_own_thresholded_response():
    hf = _holey_border_field()
    params = TophatParams(scale_min=5, scale_max=45, scale_step=5, height_threshold=2.0)
    stack = tophat.build_stack(hf, params)
    union = np.zeros(hf.values.shape, bool)
    for scale, mask in zip(stack.scales, stack.cumulative_masks):
        resp = tophat.white_tophat(hf, scale)
        own = resp.valid_mask() & (resp.values > params.height_threshold)
        union |= own
        assert np.array_equal(mask, own), scale
        assert np.array_equal(mask, union), scale
