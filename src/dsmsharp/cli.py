"""Command-line front end: one subcommand per pipeline stage plus run-all.

The stages are public, file-free functions over in-memory products; the
subcommands check, print and write plain files (ASCII grids, PGM/PPM, CSV)
so intermediate products stay inspectable, and all outputs are deterministic:
re-running a subcommand on unchanged inputs reproduces byte-identical files.
``main`` builds the config, and a bad input exits 2 with an ``error:`` line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import evaluate as ev
from . import graphcut as gc
from . import lines as ln
from . import planefit as pf
from . import raster, synth
from .config import PipelineConfig, build_config
# the tracer (perfbench/tracing.py) wraps boundary_contours here and tests wrap
# top_tophat; build_stack is not called here and stays bound only for the tracer
from .tophat import boundary_contours, build_stack, ladder, top_tophat  # noqa: F401

logger = logging.getLogger("dsmsharp")

_NO_CONTOURS = "no boundary contours on the original DSM; nothing to evaluate against"


def _require_file(path: Path | None, what: str) -> Path:
    if path is None:
        raise ValueError(f"no {what} path configured (flag --{what} or config key '{what}')")
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return Path(path)


def _outdir(cfg: PipelineConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def _load_dsm_and_ortho(cfg: PipelineConfig):
    """The DSM and the ortho, whose line pixels are taken as DSM cells, so
    the two must have the same size."""
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    ortho = raster.load_image(_require_file(cfg.ortho, "ortho"))
    if (ortho.height, ortho.width) != dsm.values.shape:
        raise ValueError(
            f"ortho is {ortho.width}x{ortho.height} but the DSM is {dsm.width}x{dsm.height};"
            " the ortho must be on the DSM's grid"
        )
    return dsm, ortho


def _config_from_args(args) -> PipelineConfig:
    # Path('') is '.'; the keys' paths are checked as the config is built
    for flag in ("config", "segments", "scene"):
        val = getattr(args, flag, None)
        if val is not None and not val.strip():
            raise ValueError(f"bad value {val!r} for --{flag}")
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    for flag in ("dsm", "ortho", "truth", "out"):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[flag] = val
    return build_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Pipeline stages: file-free; each subcommand runs one, run-all all of them
# ---------------------------------------------------------------------------


def mask_stage(dsm, tophat_params):
    """The top-scale tophat, whose mask is the building mask, and that
    mask's boundary contours rasterised onto the DSM grid."""
    top = top_tophat(dsm, tophat_params)
    return top, raster.rasterize_contours(boundary_contours(top.mask), dsm.values.shape)


def lines_stage(dsm, ortho, building, contour_mask, cfg):
    """The ortho's raw segments, those the contours keep and those of them
    the width walk matches, each with its width index. The walk climbs the
    tophat ladder from its bottom rung only as far as it needs; it reuses
    the building mask as its top rung and stops at the first rung equal to it."""
    raw = ln.detect_segments(raster.grayscale(ortho), cfg.detector)
    filtered = ln.filter_segments(raw, contour_mask, cfg.boundary_buffer_radius)
    return raw, filtered, ln.assign_widths(filtered, ladder(dsm, cfg.tophat, building=building))


def sharpen_stage(method, dsm, segments, ramps):
    """The DSM adjusted by one method, and the method's by-products: plane
    fit's per-side rows, or graph-cut's (problem, labeling, offset field),
    None when there are no ``ramps`` contours to move."""
    if method == "planefit":
        rows = []
        return pf.adjust_all(dsm, segments, debug_rows=rows), rows
    ground, roof = ramps
    if not ground and not roof:
        logger.warning("no boundary contours; graph-cut leaves the DSM unchanged")
        return dsm.copy(), None
    problem = gc.build_problem(ground, roof, segments, dsm)
    labeling = gc.minimize(problem)
    field = gc.interpolate_offsets(problem, labeling)
    return gc.warp_dsm(dsm, field), (problem, labeling, field)


def score_stage(truth, variants, contour_mask, widths):
    """name -> ev.report of each variant (all on the truth grid) over buffers
    around ``contour_mask``; a scope without valid cells is named."""
    if not contour_mask.any():
        raise ValueError(_NO_CONTOURS)
    distance = ev.boundary_distance(contour_mask)
    reports = {}
    for name, hf in variants.items():
        try:
            reports[name] = ev.report(hf, truth, distance, widths)
        except ValueError:
            both = hf.valid_mask() & truth.valid_mask()
            width = min(w for w in widths if not (both & (distance <= w)).any())
            scope = f"within {width} px of the boundary" if both.any() else "in the whole image"
            raise ValueError(f"variant {name!r} has no valid cells {scope}") from None
    return reports


def _same_grid(a, b) -> bool:
    """Whether two heightfields or grid headers share size, cell size and origin."""
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.cell_size == b.cell_size
        and a.origin == b.origin
    )


def _check_against_truth(cfg, truth):
    """Reject, before any work, an eval.sweep_max_width past the truth grid's
    larger side, where every row would repeat the whole-image RMSE, and an
    eval.section endpoint off the grid; ``truth`` may be the grid's header."""
    h, w = truth.height, truth.width
    if cfg.sweep_max_width > max(h, w):
        raise ValueError(
            f"eval.sweep_max_width must be <= {max(h, w)}, the larger side of the"
            f" {w}x{h} truth grid, got {cfg.sweep_max_width}"
        )
    if cfg.section is None:
        return
    x1, y1, x2, y2 = cfg.section
    for x, y in ((x1, y1), (x2, y2)):
        if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
            raise ValueError(
                f"eval.section point ({x:g}, {y:g}) lies outside the {w}x{h} truth grid"
            )


def _check_overlap(truth, grids) -> None:
    """Reject, before any work, a grid (name -> heightfield or header) whose
    extent misses the truth grid's; the error names its row."""
    for name, grid in grids.items():
        try:
            ev.check_overlap(truth, grid)
        except ValueError as exc:
            row = "original" if name == "original" else f"variant {name!r}"
            raise ValueError(f"{row}: {exc}") from None


def _save_masks(top, contour_mask, out):
    raster.save_mask(top.mask, out / "building_mask.pgm")
    raster.save_mask(contour_mask, out / "boundary_contours.pgm")
    logger.info("extract-mask: %d building pixels", top.mask.sum())


def _save_lines(raw, matched, out):
    ln.save_segments_csv(raw, out / "segments_raw.csv")
    ln.save_segments_csv(matched, out / "segments_filtered.csv")
    logger.info("detect-lines: %d raw, %d filtered segments", len(raw), len(matched))


def _sharpen_and_save(method, dsm, segments, ramps, out, debug):
    """sharpen_stage with its grid written and returned, and with --debug its by-products."""
    adjusted, extra = sharpen_stage(method, dsm, segments, ramps)
    if debug and method == "planefit":
        pf.save_planes_csv(extra, out / "planes.csv")
    elif debug and extra is not None:
        gc.save_labeling_csv(extra[0], extra[1], out / "labeling.csv")
        raster.save_heightfield(dsm.like(extra[2].dx), out / "offsets_dx.asc")
        raster.save_heightfield(dsm.like(extra[2].dy), out / "offsets_dy.asc")
    del extra  # graph-cut's offset field is two grids
    raster.save_heightfield(adjusted, out / f"adjusted_{method}.asc")
    logger.info("sharpen: wrote adjusted_%s.asc", method)
    return adjusted


def _evaluate_and_save(truth, original, variants, cfg, contour_mask=None):
    """RMSE report + sweeps (+ optional cross-section) on the truth grid.

    The buffers come from one distance map of the original DSM's building
    contours (``contour_mask`` when on the truth grid, else computed here).
    Every variant is scored once, over all the widths, before the output
    directory is made or any file is written.
    """
    on_truth = {
        name: hf if _same_grid(truth, hf) else ev.resample_to(truth, hf)
        for name, hf in [("original", original), *variants.items()]
    }

    if contour_mask is None or not _same_grid(truth, original):
        contour_mask = mask_stage(on_truth["original"], cfg.tophat)[1]
    sweep_widths = range(1, cfg.sweep_max_width + 1)
    widths = tuple(sorted({*cfg.eval_widths, *sweep_widths}))
    reports = score_stage(truth, on_truth, contour_mask, widths)
    out = _outdir(cfg)
    rows = [(cfg.region, name, rep) for name, rep in reports.items()]
    for _, name, rep in rows:
        ev.write_sweep_csv([(w, rep.per_buffer[w]) for w in sweep_widths], out / f"sweep_{name}.csv")
    ev.write_report_csv(rows, out / "rmse_report.csv", cfg.eval_widths)

    if cfg.section is not None:
        x1, y1, x2, y2 = cfg.section
        section_variants = {"truth": truth, **on_truth}
        section = ev.cross_section(section_variants, ((x1, y1), (x2, y2)))
        ev.write_cross_section_csv(section, out / "cross_section.csv")

    for region, name, rep in rows:
        buf = " ".join(f"buf{w}={rep.per_buffer[w]:.3f}" for w in sorted(set(cfg.eval_widths)))
        print(f"{region} {name}: whole={rep.whole_image:.3f} {buf}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg) -> None:
    scene = synth.parse_scene_config(_require_file(Path(args.scene), "scene"))
    truth, smeared, ortho = synth.generate(scene)
    out = _outdir(cfg)
    raster.save_heightfield(truth, out / "truth.asc")
    raster.save_heightfield(smeared, out / "smeared.asc")
    raster.save_image(ortho, out / "ortho.pgm")
    logger.info("synth: wrote truth.asc, smeared.asc, ortho.pgm to %s", out)


def cmd_extract_mask(args, cfg) -> None:
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    out = _outdir(cfg)
    top, contour_mask = mask_stage(dsm, cfg.tophat)
    _save_masks(top, contour_mask, out)
    if args.dump_stack:
        stack_dir = out / "stack"
        stack_dir.mkdir(exist_ok=True)
        for scale, cum, cimg in ladder(dsm, cfg.tophat, building=top.mask):
            raster.save_mask(cum, stack_dir / f"mask_{scale:03d}.pgm")
            raster.save_mask(cimg, stack_dir / f"contours_{scale:03d}.pgm")


def cmd_detect_lines(args, cfg) -> None:
    dsm, ortho = _load_dsm_and_ortho(cfg)
    top, contour_mask = mask_stage(dsm, cfg.tophat)
    mask = top.mask
    del top  # the response is not kept past the mask stage
    raw, _, matched = lines_stage(dsm, ortho, mask, contour_mask, cfg)
    _save_lines(raw, matched, _outdir(cfg))


def cmd_sharpen(args, cfg) -> None:
    # the segments are checked before the DSM is read or anything is written
    seg_path = Path(args.segments) if args.segments else cfg.out / "segments_filtered.csv"
    seg_lines: list[int] = []
    segments = ln.load_segments_csv(_require_file(seg_path, "segments"), seg_lines)
    if args.method == "planefit":
        missing = sum(seg.width_index is None for seg in segments)
        if missing:
            raise ValueError(
                f"{seg_path}: {missing} of {len(segments)} segments have no width_index;"
                " plane fit sizes its buffers from it (detect-lines writes it)"
            )
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    _check_on_grid(seg_path, segments, seg_lines, dsm)
    ramps = gc.ramp_contours(top_tophat(dsm, cfg.tophat)) if args.method == "graphcut" else None
    _sharpen_and_save(args.method, dsm, segments, ramps, _outdir(cfg), args.debug)


def _check_on_grid(path, segments, line_numbers, dsm) -> None:
    """Every endpoint must lie on the DSM grid's footprint, -0.5 <= x <=
    width - 0.5 and the same for y, as every segment detect-lines writes
    does; a line far off the grid would cost its whole raster walk."""
    xmax, ymax = dsm.width - 0.5, dsm.height - 0.5
    for seg, line in zip(segments, line_numbers):
        off = [p for p in (seg.p1, seg.p2) if not (-0.5 <= p[0] <= xmax and -0.5 <= p[1] <= ymax)]
        if off:
            raise ValueError(
                f"{path}: line {line}: endpoint {off[0]} lies off the {dsm.width}x{dsm.height}"
                f" DSM grid: x must lie in [-0.5, {xmax}] and y in [-0.5, {ymax}]"
            )


def _variant_paths(items) -> dict[str, Path]:
    """name -> path of each --variant NAME=PATH; a name must be new, must not
    be one of the fixed rows (original, truth) and must make a file name."""
    paths: dict[str, Path] = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--variant expects name=path, got {item!r}")
        name, _, path = (t.strip() for t in item.partition("="))
        if not name:
            raise ValueError(f"--variant needs a name before '=', got {item!r}")
        if not path:
            raise ValueError(f"--variant needs a path after '=', got {item!r}")
        if name in ("original", "truth") or name in paths:
            raise ValueError(f"--variant name {name!r} is already taken")
        if "/" in name or os.sep in name:
            raise ValueError(f"--variant name {name!r} must not contain a path separator")
        paths[name] = Path(path)
    return paths


def cmd_evaluate(args, cfg) -> None:
    paths = _variant_paths(args.variant)
    truth = raster.load_heightfield(_require_file(cfg.truth, "truth"))
    _check_against_truth(cfg, truth)
    original = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    variants = {
        name: raster.load_heightfield(_require_file(path, "variant"))
        for name, path in paths.items()
    }
    _check_overlap(truth, {"original": original, **variants})
    _evaluate_and_save(truth, original, variants, cfg)


def cmd_run_all(args, cfg) -> None:
    dsm, ortho = _load_dsm_and_ortho(cfg)
    # the truth's header is checked now and its cells are read to score: a
    # fault in its body stops the run after the stage outputs are written
    truth_path = _require_file(cfg.truth, "truth")
    truth_grid = raster.read_grid_header(truth_path)
    _check_against_truth(cfg, truth_grid)
    _check_overlap(truth_grid, {"original": dsm})
    out = _outdir(cfg)
    top, contour_mask = mask_stage(dsm, cfg.tophat)
    _save_masks(top, contour_mask, out)
    # on the DSM's grid the evaluation scores against these contours; off it,
    # the resampled original may hold buildings the DSM's tophat misses
    if _same_grid(truth_grid, dsm) and not contour_mask.any():
        raise ValueError(_NO_CONTOURS)
    methods = ["graphcut", "planefit"] if args.method == "both" else [args.method]
    mask, ramps = top.mask, gc.ramp_contours(top) if "graphcut" in methods else None
    del top  # the response is not kept past the ramps
    raw, filtered, segments = lines_stage(dsm, ortho, mask, contour_mask, cfg)
    _save_lines(raw, segments, out)
    del ortho, mask, raw, filtered  # the methods read none of them
    variants = {m: _sharpen_and_save(m, dsm, segments, ramps, out, args.debug) for m in methods}
    truth = raster.load_heightfield(truth_path)
    _evaluate_and_save(truth, dsm, variants, cfg, contour_mask)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmsharp",
        description="Sharpen smeared DSM building boundaries using orthophoto line segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic truth/smeared/ortho triple")
    p.add_argument("--scene", required=True, help="scene description file")

    p = sub.add_parser("extract-mask", help="multi-scale tophat building mask from the DSM")
    p.add_argument("--dsm")
    p.add_argument("--dump-stack", action="store_true",
                   help="also write each per-scale mask, up to the one equal to the building mask")

    p = sub.add_parser("detect-lines", help="detect, filter and width-annotate line segments")
    p.add_argument("--dsm")
    p.add_argument("--ortho")

    p = sub.add_parser("sharpen", help="adjust the DSM with one method")
    p.add_argument("--method", choices=("graphcut", "planefit"), required=True)
    p.add_argument("--dsm")
    p.add_argument("--segments", help="filtered segment CSV (default: <out>/segments_filtered.csv)")
    p.add_argument("--debug", action="store_true", help="write method-specific debug dumps")

    p = sub.add_parser("evaluate", help="RMSE report, sweeps and cross-sections vs. truth")
    p.add_argument("--dsm", help="the original (unadjusted) DSM")
    p.add_argument("--truth")
    p.add_argument("--variant", action="append", metavar="NAME=PATH", help="adjusted DSM to score")

    p = sub.add_parser("run-all", help="extract-mask, detect-lines, sharpen and evaluate in one go")
    p.add_argument("--dsm")
    p.add_argument("--ortho")
    p.add_argument("--truth")
    p.add_argument("--method", choices=("graphcut", "planefit", "both"), default="both")
    p.add_argument("--debug", action="store_true")

    # every subcommand, in the order added above, ends with the same options
    funcs = (cmd_synth, cmd_extract_mask, cmd_detect_lines, cmd_sharpen, cmd_evaluate, cmd_run_all)
    for p, func in zip(sub.choices.values(), funcs, strict=True):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key, e.g. --set tophat.height_threshold=2.0")
        p.add_argument("--verbose", action="store_true", help="chatty logging")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig acts once per process; the level is set again on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        args.func(args, _config_from_args(args))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
