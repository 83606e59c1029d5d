"""dsmsharp: sharpen smeared building boundaries in digital surface models.

Stereo-matched DSMs smooth height discontinuities at building outlines.
This package extracts building boundaries from the DSM with a multi-scale
tophat, detects straight line segments on the co-registered orthophoto,
and realigns the DSM to those lines either by a graph-cut offset
optimisation or by per-segment least-squares plane fitting, with an
evaluation harness for boundary-buffer RMSE.
"""

from .raster import (
    Contour,
    GridFormatError,
    Heightfield,
    ImageFormatError,
    RasterImage,
    bresenham_line,
    dilate,
    dilate_mask,
    erode,
    grayscale,
    load_heightfield,
    load_image,
    load_mask,
    rasterize_contours,
    save_heightfield,
    save_image,
    save_mask,
    trace_contours,
)
from .tophat import (
    Rung,
    Tophat,
    TophatParams,
    TophatStack,
    boundary_contours,
    build_stack,
    ladder,
    top_tophat,
    white_tophat,
)
from .lines import (
    DetectorParams,
    LineSegment,
    UnmatchedSegmentError,
    assign_widths,
    detect_segments,
    estimate_width,
    filter_segments,
    load_segments_csv,
    save_segments_csv,
)
from .graphcut import (
    ContourProblem,
    build_problem,
    data_cost,
    energy,
    interpolate_offsets,
    minimize,
    offset_labels,
    ramp_contours,
    side_bands,
    smooth_cost,
    warp_dsm,
)
from .planefit import (
    DegenerateGeometryError,
    InsufficientSupportError,
    PlaneParams,
    adjust_all,
    apply_plane,
    buffer_half_width,
    collect_side_pixels,
    fit_plane,
)
from .evaluate import (
    CrossSection,
    RmseReport,
    boundary_distance,
    cross_section,
    resample_to,
    rmse,
    sweep,
)
from .synth import Building, SceneSpec, generate
from .config import PipelineConfig, build_config

__version__ = "0.1.0"
