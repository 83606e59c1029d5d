"""Multi-scale white-tophat extraction of building masks from the DSM.

A single structuring element cannot catch buildings of every size, so the
paper thresholds the responses of a whole ladder of element sizes and
takes their union. For square elements the opening shrinks as the element
grows (Matheron's granulometry; it still holds with the border clipping and
nodata skipping of ``raster.erode``/``dilate``), so the thresholded
responses are nested and their union is the response at the top of the
ladder: ``top_tophat`` thresholds that one tophat.

The scale at which a building first appears doubles as a width estimate for
the line segments along its boundary. ``ladder`` yields the rungs (mask and
contour image per scale) bottom up, each built only when the caller asks
for it, so the width walk of ``lines.assign_widths`` stops as soon as every
segment has its index; given the building mask, the walk reuses it for the
top rung and ends at the first rung equal to it, since nesting makes every
later rung equal to it too. An element whose half side spans the grid
opens the whole grid to one constant, and so does every larger one, so the
ladder ends at the first such scale; ``extract-mask --dump-stack`` writes
its rungs. ``build_stack`` lists one rung per scale, for
``lines.estimate_width``: the scales past the ladder's end share its last
rung.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .raster import (
    BinaryMask,
    Contour,
    Heightfield,
    rasterize_contours,
    trace_contours,
    window_extreme,
)


@dataclass(frozen=True)
class TophatParams:
    """Structuring-element ladder and binarisation threshold."""

    scale_min: int = 10
    scale_max: int = 400
    scale_step: int = 10
    height_threshold: float = 2.5

    def __post_init__(self):
        if not (0 < self.scale_min <= self.scale_max):
            raise ValueError("require 0 < scale_min <= scale_max")
        if self.scale_step <= 0:
            raise ValueError("scale_step must be positive")
        if not 0 < self.height_threshold < math.inf:
            raise ValueError("height_threshold must be positive and finite")

    def scales(self) -> list[int]:
        return list(range(self.scale_min, self.scale_max + 1, self.scale_step))

    @property
    def top_scale(self) -> int:
        """The ladder's largest element: scale_max only when the step divides
        the range. top_tophat uses it."""
        return self.scale_max - (self.scale_max - self.scale_min) % self.scale_step


class Rung(NamedTuple):
    """One scale of the ladder: its thresholded tophat and that mask's
    rasterised outer contours."""

    scale: int
    mask: BinaryMask
    contour_image: BinaryMask


@dataclass(eq=False)
class TophatStack:
    """Per-scale cumulative building masks and their rasterised contours.

    ``cumulative_masks[i]`` is the thresholded tophat response at
    ``scales[i]``. The responses grow with the scale, so each mask is also
    the union of all masks up to it; the last one is the building mask.
    """

    scales: list[int]
    cumulative_masks: list[BinaryMask] = field(default_factory=list)
    contour_images: list[BinaryMask] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self) -> Iterator[Rung]:
        """The stored rungs, bottom up, like a walk of ``ladder``."""
        return map(Rung, self.scales, self.cumulative_masks, self.contour_images)


def white_tophat(dsm: Heightfield, se_size: int) -> Heightfield:
    """DSM minus its opening with a square element of side 2*(se_size//2)+1:
    scale 10 opens with an 11 x 11 square.

    Responds to bright structures smaller than the element; the response is
    non-negative on valid cells and nodata where the DSM (or its opening)
    is nodata. The opening is ``dilate(erode(dsm))``, computed in one work
    array: nodata cells are +inf to the erosion, cells whose window held
    only nodata are -inf to the dilation, and the constant border is the
    same infinity, so both clip the window to the grid.
    """
    if se_size < 1:
        raise ValueError("se_size must be >= 1")
    valid = dsm.valid_mask()
    work = np.where(valid, dsm.values, np.inf)
    window_extreme(work, se_size // 2, np.minimum)
    work[work == np.inf] = -np.inf
    window_extreme(work, se_size // 2, np.maximum)
    valid &= work != -np.inf
    np.subtract(dsm.values, work, out=work, where=valid)
    work[~valid] = dsm.nodata
    return dsm.like(work)


class Tophat(NamedTuple):
    """A white tophat with -inf on nodata and its cells above the threshold."""

    response: np.ndarray
    mask: BinaryMask


def _thresholded(dsm: Heightfield, scale: int, threshold: float) -> Tophat:
    values = white_tophat(dsm, scale).values
    values[values == dsm.nodata] = -np.inf
    return Tophat(values, BinaryMask(values > threshold))


def ladder(
    dsm: Heightfield, params: TophatParams | None = None, building: BinaryMask | None = None
) -> Iterator[Rung]:
    """The ladder's rungs bottom up, each built when the caller asks for it.

    The ladder ends at the first scale whose element covers the grid (see
    white_tophat): every later rung would repeat its rung, bit for bit. With
    ``building`` (the building mask of the same DSM and params) the top
    rung reuses it instead of a tophat, and the walk ends after the first
    rung equal to it: the masks are nested, so every later one is too.
    """
    params = params or TophatParams()
    covering = 2 * (max(dsm.values.shape) - 1)  # the least scale whose half side spans the grid
    for scale in range(params.scale_min, params.scale_max + 1, params.scale_step):
        if building is not None and scale == params.top_scale:
            mask = building
        else:
            mask = _thresholded(dsm, scale, params.height_threshold).mask
        yield Rung(scale, mask, rasterize_contours(trace_contours(mask), mask.bits.shape))
        if scale >= covering or (
            building is not None and np.array_equal(mask.bits, building.bits)
        ):
            return


def build_stack(dsm: Heightfield, params: TophatParams | None = None) -> TophatStack:
    """Threshold the tophat response at each scale of the ladder; the scales
    past its end, where the element covers the grid, share its last rung."""
    params = params or TophatParams()
    stack = TophatStack(scales=params.scales())
    for rung in ladder(dsm, params):
        stack.cumulative_masks.append(rung.mask)
        stack.contour_images.append(rung.contour_image)
    missing = len(stack.scales) - len(stack.cumulative_masks)
    stack.cumulative_masks += [rung.mask] * missing
    stack.contour_images += [rung.contour_image] * missing
    return stack


def top_tophat(dsm: Heightfield, params: TophatParams | None = None) -> Tophat:
    """The tophat at the ladder's top scale; its mask, the ladder's union, is the building mask."""
    params = params or TophatParams()
    return _thresholded(dsm, params.top_scale, params.height_threshold)


def boundary_contours(mask: BinaryMask) -> list[Contour]:
    """Outer contours of the building mask. They scope segment filtering
    and the evaluation buffers; graph-cut traces its own ramp contours
    around the same buildings (graphcut.ramp_contours)."""
    return trace_contours(mask)
