"""raster's grid kernels against scipy.ndimage, bit for bit.

The package computes its window extremes, labels, chessboard distances and
Gaussian blurs with numpy alone; scipy.ndimage is the oracle each must
reproduce exactly, including the dtype, the signs of zeros and the
rounding of every sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from dsmsharp import raster
from dsmsharp.raster import GAUSSIAN_SIGMA_MAX

EXTREMES = {np.minimum: ndimage.minimum_filter1d, np.maximum: ndimage.maximum_filter1d}

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
# nodata markers, infinities and both zeros among ordinary heights
cells = st.one_of(
    st.floats(-100, 100, allow_nan=False),
    st.sampled_from([-9999.0, -np.inf, np.inf, 0.0, -0.0, 2.5]),
)
float_grids = shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=cells))
masks = shapes.flatmap(lambda shape: arrays(bool, shape))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scipy_window(work, half, extreme):
    """Both 1-d passes of scipy's filter, the window's outside held at the
    extreme's identity, so that the window is clipped to the grid."""
    if work.dtype == bool:
        identity = extreme is np.minimum
    else:
        identity = np.inf if extreme is np.minimum else -np.inf
    out = work.copy()
    for axis in (0, 1):
        EXTREMES[extreme](out, 2 * half + 1, axis, out, mode="constant", cval=identity)
    return out


@given(grid=float_grids, half=st.integers(0, 30), extreme=st.sampled_from(list(EXTREMES)))
def test_window_extreme_on_float_grids(grid, half, extreme):
    work = grid.copy()
    raster.window_extreme(work, half, extreme)
    assert same_bits(work, scipy_window(grid, half, extreme))


@given(bits=masks, half=st.integers(0, 30), extreme=st.sampled_from(list(EXTREMES)))
def test_window_extreme_on_masks(bits, half, extreme):
    work = bits.copy()
    raster.window_extreme(work, half, extreme)
    assert same_bits(work, scipy_window(bits, half, extreme))


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 40)])
@pytest.mark.parametrize("half", [0, 1, 3, 8, 50])
def test_window_extreme_on_lines_and_wide_windows(shape, half):
    grid = np.random.default_rng(sum(shape) + half).normal(size=shape)
    grid[..., ::3] = -0.0
    for extreme in EXTREMES:
        work = grid.copy()
        raster.window_extreme(work, half, extreme)
        assert same_bits(work, scipy_window(grid, half, extreme))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("half", [0, 2])
def test_window_extreme_on_grids_without_cells(shape, half):
    for extreme in EXTREMES:
        for dtype in (np.float64, bool):
            work = np.zeros(shape, dtype)
            raster.window_extreme(work, half, extreme)
            assert same_bits(work, scipy_window(np.zeros(shape, dtype), half, extreme))


def test_window_extreme_keeps_the_later_of_equal_zeros():
    # scipy keeps the window's last cell of the extreme value
    line = np.array([[0.0, -0.0, 0.0, 1.0, -0.0, 0.0, 0.0, -0.0]])
    for extreme in EXTREMES:
        for half in range(5):
            work = line.copy()
            raster.window_extreme(work, half, extreme)
            assert same_bits(work, scipy_window(line, half, extreme))


def test_window_extreme_rejects_a_negative_half():
    with pytest.raises(ValueError, match="half"):
        raster.window_extreme(np.zeros((3, 3)), -1, np.minimum)


@given(bits=masks)
def test_label_numbers_and_boxes_as_scipy(bits):
    labels, boxes = raster.label(bits)
    expected, count = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    assert same_bits(labels, expected)
    assert len(boxes) == count
    assert boxes == ndimage.find_objects(expected)


@pytest.mark.parametrize("seed", range(3))
def test_label_on_large_masks(seed):
    rng = np.random.default_rng(seed)
    bits = ndimage.binary_opening(rng.random((96, 130)) < 0.55)
    bits[40] = True  # one row joins every component it crosses
    labels, boxes = raster.label(bits)
    expected, _ = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    assert same_bits(labels, expected)
    assert boxes == ndimage.find_objects(expected)


@given(bits=masks.filter(np.any))
def test_boundary_distance_as_scipy(bits):
    distance = raster.boundary_distance(bits)
    expected = ndimage.distance_transform_cdt(~bits, metric="chessboard")
    assert same_bits(distance, expected)


def test_boundary_distance_on_a_large_grid():
    bits = np.random.default_rng(8).random((150, 97)) < 0.002
    expected = ndimage.distance_transform_cdt(~bits, metric="chessboard")
    assert same_bits(raster.boundary_distance(bits), expected)


def scipy_gaussian(values, sigma):
    return ndimage.gaussian_filter(values, sigma, truncate=3.0, mode="reflect")


@given(
    grid=shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))),
    sigma=st.sampled_from([0.3, 0.8, 2.0, 4.0]),
)
def test_gaussian_as_scipy(grid, sigma):
    # sigma 2 and 4 reach 6 and 12 cells, beyond the side of most grids here
    assert same_bits(raster.gaussian(grid, sigma), scipy_gaussian(grid, sigma))


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (3, 2), (40, 33)])
@pytest.mark.parametrize("sigma", [0.0, 1e-20, 0.1, 1.5, GAUSSIAN_SIGMA_MAX])
def test_gaussian_at_the_ends_of_its_range(shape, sigma):
    grid = np.random.default_rng(len(shape)).uniform(-50, 50, size=shape)
    expected = grid if sigma == 0 else scipy_gaussian(grid, sigma)
    assert same_bits(raster.gaussian(grid, sigma), expected)


def test_gaussian_of_an_image_is_float64():
    img = np.random.default_rng(9).integers(0, 256, size=(20, 17)).astype(np.uint8)
    assert same_bits(raster.gaussian(img, 0.8), scipy_gaussian(img.astype(np.float64), 0.8))


@pytest.mark.parametrize("sigma", [-0.5, GAUSSIAN_SIGMA_MAX * (1 + 1e-12), math.inf, math.nan])
def test_gaussian_rejects_sigma_outside_its_range(sigma):
    # the huge values are tried through the CLI, with the kernel replaced
    with pytest.raises(ValueError, match="sigma must be in"):
        raster.gaussian(np.zeros((2, 2)), sigma)
