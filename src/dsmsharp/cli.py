"""Command-line front end: one subcommand per pipeline stage plus run-all.

Every stage reads and writes plain files (ASCII grids, PGM/PPM, CSV) so
intermediate products stay inspectable, and all outputs are deterministic:
re-running a subcommand on unchanged inputs reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import evaluate as ev
from . import graphcut as gc
from . import lines as ln
from . import planefit as pf
from . import raster, synth
from .config import PipelineConfig, build_config
from .tophat import boundary_contours, build_stack, building_mask

logger = logging.getLogger("dsmsharp")


def _require_file(path: Path | None, what: str) -> Path:
    if path is None:
        raise ValueError(f"no {what} path configured (flag --{what} or config key '{what}')")
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return Path(path)


def _outdir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from_args(args) -> PipelineConfig:
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
# Pipeline stages: each subcommand runs one, run-all runs them in sequence
# and hands the products on in memory
# ---------------------------------------------------------------------------


def _mask_stage(dsm, cfg, out=None):
    """Building mask and its rasterised outer contours; written to out if given."""
    mask = building_mask(dsm, cfg.tophat)
    contour_mask = raster.rasterize_contours(boundary_contours(mask), dsm.values.shape)
    if out is not None:
        raster.save_mask(mask, out / "building_mask.pgm")
        raster.save_mask(contour_mask, out / "boundary_contours.pgm")
        logger.info("extract-mask: %d building pixels", mask.count())
    return mask, contour_mask


def _lines_stage(dsm, ortho, contour_mask, cfg, out):
    """Detect, filter and width-annotate the ortho's segments; the tophat
    ladder is built here only, for the width indices."""
    raw = ln.detect_segments(raster.grayscale(ortho), cfg.detector)
    filtered = ln.filter_segments(raw, contour_mask, cfg.boundary_buffer_radius)
    filtered = ln.assign_widths(filtered, build_stack(dsm, cfg.tophat), cfg.overlap_radius)
    ln.save_segments_csv(raw, out / "segments_raw.csv")
    ln.save_segments_csv(filtered, out / "segments_filtered.csv")
    logger.info("detect-lines: %d raw, %d filtered segments", len(raw), len(filtered))
    return filtered


def _sharpen_stage(method, dsm, mask, segments, cfg, out, debug):
    """Adjust the DSM with one method (graph-cut needs the building mask)."""
    if method == "graphcut":
        adjusted = _sharpen_graphcut(dsm, mask, segments, cfg, out, debug)
    else:
        rows: list | None = [] if debug else None
        adjusted = pf.adjust_all(dsm, segments, cfg.fit, debug_rows=rows)
        if debug:
            pf.save_planes_csv(rows, out / "planes.csv")
    raster.save_heightfield(adjusted, out / f"adjusted_{method}.asc")
    logger.info("sharpen: wrote adjusted_%s.asc", method)
    return adjusted


def _sharpen_graphcut(dsm, mask, segments, cfg, outdir, debug):
    ground, roof = gc.ramp_contours(dsm, mask, cfg.tophat.top_scale)
    contours = ground + roof
    if not contours:
        logger.warning("no boundary contours; graph-cut leaves the DSM unchanged")
        return dsm.copy()
    gcc = cfg.graphcut
    problem = gc.build_problem(
        contours,
        [gc.GROUND] * len(ground) + [gc.ROOF] * len(roof),
        segments,
        dsm,
        line_buffer_radius=gcc.line_buffer_radius,
        **gcc.problem_constants(),
    )
    labeling = gc.minimize(problem)
    contour_mask = raster.rasterize_contours(contours, dsm.values.shape)
    field = gc.interpolate_offsets(problem, labeling, contour_mask, far_distance=gcc.far_distance)
    if debug:
        gc.save_labeling_csv(problem, labeling, outdir / "labeling.csv")
        raster.save_heightfield(dsm.like(field.dx), outdir / "offsets_dx.asc")
        raster.save_heightfield(dsm.like(field.dy), outdir / "offsets_dy.asc")
    return gc.warp_dsm(dsm, field)


def _same_grid(a, b) -> bool:
    return (
        a.values.shape == b.values.shape
        and a.cell_size == b.cell_size
        and a.origin == b.origin
    )


def _evaluate_stage(truth, original, variants, cfg, out, contour_mask=None):
    """RMSE report + sweeps (+ optional cross-section) on the truth grid.

    The buffers grow from the contours of the original DSM's building mask:
    ``contour_mask`` when given on the truth grid, else computed here.
    """
    on_truth = {}
    for name, hf in [("original", original)] + list(variants.items()):
        on_truth[name] = hf if _same_grid(truth, hf) else ev.resample_to(truth, hf)

    if contour_mask is None or not _same_grid(truth, original):
        _, contour_mask = _mask_stage(on_truth["original"], cfg)
    if contour_mask.count() == 0:
        raise ValueError("no boundary contours on the original DSM; nothing to evaluate against")

    rows = []
    for name, hf in on_truth.items():
        rep = ev.report(hf, truth, contour_mask, cfg.eval_widths)
        rows.append((cfg.region, name, rep))
        pairs = ev.sweep(hf, truth, contour_mask, cfg.sweep_max_width)
        ev.write_sweep_csv(pairs, out / f"sweep_{name}.csv")
    ev.write_report_csv(rows, out / "rmse_report.csv", cfg.eval_widths)

    if cfg.section is not None:
        x1, y1, x2, y2 = cfg.section
        section_variants = {"truth": truth, **on_truth}
        section = ev.cross_section(section_variants, ((x1, y1), (x2, y2)), truth_name="truth")
        ev.write_cross_section_csv(section, out / "cross_section.csv")

    for region, name, rep in rows:
        buf = " ".join(f"buf{w}={rep.per_buffer[w]:.3f}" for w in sorted(rep.per_buffer))
        print(f"{region} {name}: whole={rep.whole_image:.3f} {buf}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    scene = synth.parse_scene_config(_require_file(Path(args.scene), "scene"))
    truth, smeared, ortho = synth.generate(scene)
    out = _outdir(cfg)
    raster.save_heightfield(truth, out / "truth.asc")
    raster.save_heightfield(smeared, out / "smeared.asc")
    raster.save_image(ortho, out / "ortho.pgm")
    logger.info("synth: wrote truth.asc, smeared.asc, ortho.pgm to %s", out)
    return 0


def cmd_extract_mask(args) -> int:
    cfg = _config_from_args(args)
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    out = _outdir(cfg)
    _mask_stage(dsm, cfg, out)
    if args.dump_stack:
        stack = build_stack(dsm, cfg.tophat)
        stack_dir = out / "stack"
        stack_dir.mkdir(exist_ok=True)
        for scale, cum, cimg in zip(stack.scales, stack.cumulative_masks, stack.contour_images):
            raster.save_mask(cum, stack_dir / f"mask_{scale:03d}.pgm")
            raster.save_mask(cimg, stack_dir / f"contours_{scale:03d}.pgm")
    return 0


def cmd_detect_lines(args) -> int:
    cfg = _config_from_args(args)
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    ortho = raster.load_image(_require_file(cfg.ortho, "ortho"))
    _, contour_mask = _mask_stage(dsm, cfg)
    _lines_stage(dsm, ortho, contour_mask, cfg, _outdir(cfg))
    return 0


def cmd_sharpen(args) -> int:
    cfg = _config_from_args(args)
    # the segments are checked before the DSM is read or anything is written
    seg_path = Path(args.segments) if args.segments else Path(cfg.out) / "segments_filtered.csv"
    segments = ln.load_segments_csv(_require_file(seg_path, "segments"))
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    out = _outdir(cfg)
    mask = building_mask(dsm, cfg.tophat) if args.method == "graphcut" else None
    _sharpen_stage(args.method, dsm, mask, segments, cfg, out, args.debug)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    truth = raster.load_heightfield(_require_file(cfg.truth, "truth"))
    original = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    variants = {}
    for item in args.variant or []:
        if "=" not in item:
            raise ValueError(f"--variant expects name=path, got {item!r}")
        name, _, path = item.partition("=")
        variants[name.strip()] = raster.load_heightfield(_require_file(Path(path), "variant"))
    _evaluate_stage(truth, original, variants, cfg, _outdir(cfg))
    return 0


def cmd_run_all(args) -> int:
    cfg = _config_from_args(args)
    dsm = raster.load_heightfield(_require_file(cfg.dsm, "dsm"))
    ortho = raster.load_image(_require_file(cfg.ortho, "ortho"))
    truth = raster.load_heightfield(_require_file(cfg.truth, "truth"))
    out = _outdir(cfg)
    mask, contour_mask = _mask_stage(dsm, cfg, out)
    segments = _lines_stage(dsm, ortho, contour_mask, cfg, out)
    methods = ["graphcut", "planefit"] if args.method == "both" else [args.method]
    variants = {m: _sharpen_stage(m, dsm, mask, segments, cfg, out, args.debug) for m in methods}
    _evaluate_stage(truth, dsm, variants, cfg, out, contour_mask)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="key = value config file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key, e.g. --set tophat.height_threshold=2.0",
    )
    sub.add_argument("--verbose", action="store_true", help="chatty logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmsharp",
        description="Sharpen smeared DSM building boundaries using orthophoto line segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic truth/smeared/ortho triple")
    p.add_argument("--scene", required=True, help="scene description file")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract-mask", help="multi-scale tophat building mask from the DSM")
    p.add_argument("--dsm", default=None)
    p.add_argument("--dump-stack", action="store_true", help="also write every per-scale mask")
    _add_common(p)
    p.set_defaults(func=cmd_extract_mask)

    p = sub.add_parser("detect-lines", help="detect, filter and width-annotate line segments")
    p.add_argument("--dsm", default=None)
    p.add_argument("--ortho", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_detect_lines)

    p = sub.add_parser("sharpen", help="adjust the DSM with one method")
    p.add_argument("--method", choices=("graphcut", "planefit"), required=True)
    p.add_argument("--dsm", default=None)
    p.add_argument("--segments", default=None, help="filtered segment CSV (default: <out>/segments_filtered.csv)")
    p.add_argument("--debug", action="store_true", help="write method-specific debug dumps")
    _add_common(p)
    p.set_defaults(func=cmd_sharpen)

    p = sub.add_parser("evaluate", help="RMSE report, sweeps and cross-sections vs. truth")
    p.add_argument("--dsm", default=None, help="the original (unadjusted) DSM")
    p.add_argument("--truth", default=None)
    p.add_argument("--variant", action="append", metavar="NAME=PATH", help="adjusted DSM to score")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-all", help="extract-mask, detect-lines, sharpen and evaluate in one go")
    p.add_argument("--dsm", default=None)
    p.add_argument("--ortho", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--method", choices=("graphcut", "planefit", "both"), default="both")
    p.add_argument("--debug", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
