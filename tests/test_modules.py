"""No module of the package reaches into a sibling's private names: what
one module uses of another is public. No module imports scipy when it is
itself imported, and none imports scipy.spatial at all. Only raster writes
CSV. The names the package exports are pinned."""

import ast
from pathlib import Path

import pytest

import dsmsharp

MODULES = sorted(Path(dsmsharp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _run_on_import(nodes):
    """The nodes under ``nodes`` that run when the module is imported: all
    but the bodies of functions."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _run_on_import(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    """scipy serves graph-cut's solvers only, so importing the package, and
    every command that does not run graph-cut, loads numpy alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        (node.lineno, name)
        for node in _run_on_import(tree.body)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    ]
    assert [(line, name) for line, name in imported if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_spatial(path):
    """Graph-cut's densification searches by rings, so scipy serves the
    max-flow and breadth-first search alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    ]
    spatial = [(line, name) for line, name in names if name.split(".")[:2] == ["scipy", "spatial"]]
    assert spatial == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_raster_calls_csv_writer(path):
    """raster.write_csv decides every table's text: its dialect, header and
    how a value becomes a field."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "writer"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "csv"
    ]
    assert bool(calls) == (path.name == "raster.py"), calls


# module -> the names ``dsmsharp/__init__.py`` imports from it, in its order
PUBLIC_NAMES = {
    "raster": [
        "Contour", "GridFormatError", "Heightfield", "ImageFormatError", "RasterImage",
        "bresenham_line", "dilate", "dilate_mask", "erode", "grayscale", "load_heightfield",
        "load_image", "load_mask", "rasterize_contours", "save_heightfield", "save_image",
        "save_mask", "trace_contours",
    ],
    "tophat": [
        "Rung", "Tophat", "TophatParams", "TophatStack", "boundary_contours", "build_stack",
        "ladder", "top_tophat", "white_tophat",
    ],
    "lines": [
        "DetectorParams", "LineSegment", "UnmatchedSegmentError", "assign_widths",
        "detect_segments", "estimate_width", "filter_segments", "load_segments_csv",
        "save_segments_csv",
    ],
    "graphcut": [
        "ContourProblem", "build_problem", "data_cost", "energy", "interpolate_offsets",
        "minimize", "offset_labels", "ramp_contours", "side_bands", "smooth_cost", "warp_dsm",
    ],
    "planefit": [
        "DegenerateGeometryError", "InsufficientSupportError", "PlaneParams", "adjust_all",
        "apply_plane", "buffer_half_width", "collect_side_pixels", "fit_plane",
    ],
    "evaluate": [
        "CrossSection", "RmseReport", "boundary_distance", "cross_section", "resample_to",
        "rmse", "sweep",
    ],
    "synth": ["Building", "SceneSpec", "generate"],
    "config": ["PipelineConfig", "build_config"],
}


def test_public_names_are_pinned():
    """Adding or removing an exported name is a deliberate change: it edits
    this table too."""
    path = Path(dsmsharp.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported == PUBLIC_NAMES
