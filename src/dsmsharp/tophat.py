"""Multi-scale white-tophat extraction of building masks from the DSM.

A single structuring element cannot catch buildings of every size, so the
paper thresholds the responses of a whole ladder of element sizes and
takes their union. For square elements the opening shrinks as the element
grows (Matheron's granulometry; it still holds with the border clipping and
nodata skipping of ``raster.erode``/``dilate``), so the thresholded
responses are nested and their union is the response at the top of the
ladder: ``building_mask`` thresholds that one tophat.

The scale at which a building first appears doubles as a width estimate for
the line segments along its boundary. ``ladder`` yields the rungs (mask and
contour image per scale) bottom up, each built only when the caller asks
for it, so the width walk of ``lines.assign_widths`` stops as soon as every
segment has its index; given the building mask, the walk reuses it for the
top rung and ends at the first rung equal to it, since nesting makes every
later rung equal to it too. ``build_stack`` collects the whole ladder, for
``extract-mask --dump-stack`` and ``lines.estimate_width``.
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
        if not 0 < self.height_threshold < math.inf:
            raise ValueError("height_threshold must be positive and finite")

    def scales(self) -> list[int]:
        return list(range(self.scale_min, self.scale_max + 1, self.scale_step))

    @property
    def top_scale(self) -> int:
        """The ladder's largest element: scale_max only when the step divides
        the range. The building mask and the ramp contours both use it."""
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


def ladder(
    dsm: Heightfield, params: TophatParams | None = None, building: BinaryMask | None = None
) -> Iterator[Rung]:
    """The ladder's rungs bottom up, each built when the caller asks for it.

    With ``building`` (the building mask of the same DSM and params) the
    top rung reuses it instead of a tophat, and the walk ends after the
    first rung equal to it: the masks are nested, so every later one is too.
    """
    params = params or TophatParams()
    for scale in range(params.scale_min, params.scale_max + 1, params.scale_step):
        if building is not None and scale == params.top_scale:
            mask = building
        else:
            mask = BinaryMask(_hits(dsm, scale, params.height_threshold))
        yield Rung(scale, mask, rasterize_contours(trace_contours(mask), mask.bits.shape))
        if building is not None and np.array_equal(mask.bits, building.bits):
            return


def build_stack(dsm: Heightfield, params: TophatParams | None = None) -> TophatStack:
    """Threshold the tophat response at each scale of the ladder."""
    params = params or TophatParams()
    stack = TophatStack(scales=params.scales())
    for rung in ladder(dsm, params):
        stack.cumulative_masks.append(rung.mask)
        stack.contour_images.append(rung.contour_image)
    return stack


def building_mask(dsm: Heightfield, params: TophatParams | None = None) -> BinaryMask:
    """The union of the ladder's masks: the thresholded tophat at its top scale."""
    params = params or TophatParams()
    return BinaryMask(_hits(dsm, params.top_scale, params.height_threshold))


def boundary_contours(mask: BinaryMask) -> list[Contour]:
    """Outer contours of the building mask. They scope segment filtering
    and the evaluation buffers. Graph-cut does not use them: it finds the
    same buildings in its own top-scale tophat and labels the ramp contours
    of graphcut.ramp_contours."""
    return trace_contours(mask)
