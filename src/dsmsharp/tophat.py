"""Multi-scale white-tophat extraction of building masks from the DSM.

A single structuring element cannot catch buildings of every size, so the
paper thresholds the responses of a whole ladder of element sizes and
takes their union. For square elements the opening shrinks as the element
grows (Matheron's granulometry; it still holds with the border clipping and
nodata skipping of ``raster.erode``/``dilate``), so the thresholded
responses are nested and their union is the response at the top of the
ladder: ``building_mask`` thresholds that one tophat. ``build_stack`` keeps
the per-scale masks and contour images, because the scale at which a
building first appears doubles as a width estimate for the line segments
along its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .raster import (
    BinaryMask,
    Contour,
    Heightfield,
    dilate,
    erode,
    rasterize_contours,
    trace_contours,
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
        if self.height_threshold <= 0:
            raise ValueError("height_threshold must be positive")

    def scales(self) -> list[int]:
        return list(range(self.scale_min, self.scale_max + 1, self.scale_step))


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


def white_tophat(dsm: Heightfield, se_size: int) -> Heightfield:
    """DSM minus its opening with an se_size x se_size square element.

    Responds to bright structures smaller than the element; the response is
    non-negative on valid cells and nodata where the DSM (or its opening)
    is nodata.
    """
    if se_size < 1:
        raise ValueError("se_size must be >= 1")
    se_half = se_size // 2
    opened = dilate(erode(dsm, se_half), se_half)
    ok = dsm.valid_mask() & opened.valid_mask()
    resp = np.where(ok, dsm.values - opened.values, dsm.nodata)
    return dsm.like(resp)


def _hits(dsm: Heightfield, scale: int, threshold: float) -> np.ndarray:
    resp = white_tophat(dsm, scale)
    return resp.valid_mask() & (resp.values > threshold)


def build_stack(dsm: Heightfield, params: TophatParams | None = None) -> TophatStack:
    """Threshold the tophat response at each scale of the ladder."""
    params = params or TophatParams()
    stack = TophatStack(scales=params.scales())
    for scale in stack.scales:
        mask = BinaryMask(_hits(dsm, scale, params.height_threshold))
        stack.cumulative_masks.append(mask)
        stack.contour_images.append(rasterize_contours(trace_contours(mask), mask.bits.shape))
    return stack


def building_mask(dsm: Heightfield, params: TophatParams | None = None) -> BinaryMask:
    """The union of the ladder's masks: the thresholded tophat at its top scale."""
    params = params or TophatParams()
    return BinaryMask(_hits(dsm, params.scales()[-1], params.height_threshold))


def boundary_contours(mask: BinaryMask) -> list[Contour]:
    """Outer contours of the building mask. They scope segment filtering
    and the evaluation buffers; graph-cut labels the ramp contours of
    graphcut.ramp_contours instead."""
    return trace_contours(mask)
