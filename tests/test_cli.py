import argparse
import hashlib
import importlib.util
import inspect
import io
import logging
import os
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmsharp import cli, config, evaluate, graphcut, lines, planefit, raster, synth, tophat
from dsmsharp.lines import load_segments_csv, save_segments_csv
from dsmsharp.synth import Building, SceneSpec
from dsmsharp.tophat import TophatParams

from conftest import SMALL_SCALE_ARGS


def read_all_bytes(directory):
    return {
        p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def scene_file(tmp_path, body):
    p = tmp_path / "scene.cfg"
    p.write_text(body)
    return p


SCENE = """
width = 64
height = 64
blur_sigma = 1.5
noise_sigma = 0.02
seed = 5
building = 32 32 20 20 10.0
"""


def test_synth_writes_roundtrippable_files(tmp_path, run_cli):
    scene = scene_file(tmp_path, SCENE)
    out = tmp_path / "o"
    assert run_cli("synth", "--scene", scene, "--out", out) == 0
    truth = raster.load_heightfield(out / "truth.asc")
    smeared = raster.load_heightfield(out / "smeared.asc")
    ortho = raster.load_image(out / "ortho.pgm")
    assert truth.values.shape == (64, 64)
    assert smeared.values.shape == (64, 64)
    assert ortho.bands == 1


@pytest.mark.parametrize(
    "body, message",
    [
        ("width = 16\nheight = 16\nseed = -1\n", "line 3: seed must be >= 0, got -1"),
        (
            "width = 16\nheight = 16\nbuilding = 7 7 20 4 3\n",
            "line 3: building at (7.0, 7.0) extends outside the scene",
        ),
    ],
    ids=["negative-seed", "building-past-the-edge"],
)
def test_synth_scene_errors_name_file_and_line(tmp_path, run_cli, capsys, body, message):
    scene = scene_file(tmp_path, body)
    out = tmp_path / "o"
    assert run_cli("synth", "--scene", scene, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {scene}: {message}"]
    assert not out.exists()


def test_synth_scene_too_large_to_allocate(tmp_path, run_cli, capsys):
    # 6.9 EiB per grid fails at the first allocation, whatever the machine
    scene = scene_file(tmp_path, "width = 1000000000\nheight = 1000000000\n")
    out = tmp_path / "out"
    assert run_cli("synth", "--scene", scene, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "allocate" in err[0]


def test_synth_empty_scene_three_files(tmp_path, run_cli):
    scene = scene_file(tmp_path, "width = 16\nheight = 16\n")
    out = tmp_path / "o"
    assert run_cli("synth", "--scene", scene, "--out", out) == 0
    assert {p.name for p in out.iterdir()} == {"truth.asc", "smeared.asc", "ortho.pgm"}


def test_synth_deterministic(tmp_path, run_cli):
    scene = scene_file(tmp_path, SCENE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_cli("synth", "--scene", scene, "--out", out1)
    run_cli("synth", "--scene", scene, "--out", out2)
    assert read_all_bytes(out1) == read_all_bytes(out2)


# ---------------------------------------------------------------------------
# extract-mask
# ---------------------------------------------------------------------------


def test_extract_mask_block_scene(small_scene, run_cli):
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"], *SMALL_SCALE_ARGS
    )
    assert code == 0
    mask = raster.load_mask(small_scene["out"] / "building_mask.pgm")
    truth = raster.load_heightfield(small_scene["truth"])
    footprint = truth.values > 5.0
    overlap = (mask & footprint).sum() / footprint.sum()
    assert overlap > 0.95
    contours = raster.load_mask(small_scene["out"] / "boundary_contours.pgm")
    assert 0 < np.count_nonzero(contours) < np.count_nonzero(mask)


def test_extract_mask_flat_scene(tmp_path, run_cli):
    hf = raster.Heightfield(np.zeros((32, 32)))
    p = tmp_path / "flat.asc"
    raster.save_heightfield(hf, p)
    out = tmp_path / "o"
    assert run_cli("extract-mask", "--dsm", p, "--out", out, *SMALL_SCALE_ARGS) == 0
    assert not raster.load_mask(out / "building_mask.pgm").any()


def test_extract_mask_missing_input(tmp_path, run_cli, capsys):
    missing = tmp_path / "nope.asc"
    assert run_cli("extract-mask", "--dsm", missing, "--out", tmp_path / "o") == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, text", [(1, "ncols inf"), (1, "ncols nan"), (5, "cellsize nan"), (3, "xllcorner inf")]
)
@pytest.mark.parametrize(
    "command",
    [
        ("extract-mask",),
        ("detect-lines", "--ortho", "{ortho}"),
        ("sharpen", "--method", "planefit", "--segments", "{segments}"),
        ("evaluate", "--truth", "{truth}"),
        ("run-all", "--ortho", "{ortho}", "--truth", "{truth}"),
    ],
    ids=lambda c: c[0],
)
def test_non_finite_grid_header_exits_2(small_scene, tmp_path, run_cli, capsys, command,
                                        line, text):
    lines = small_scene["dsm"].read_text().splitlines(keepends=True)
    lines[line - 1] = text + "\n"
    bad = tmp_path / "bad.asc"
    bad.write_text("".join(lines))
    segments = tmp_path / "segments.csv"
    save_segments_csv([], segments)
    argv = [a.format(segments=segments, **small_scene) for a in command]
    code = run_cli(*argv, "--dsm", bad, "--out", tmp_path / "o")
    key, value = text.split()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line {line}: malformed header: non-finite {key} {value!r}"
    ]


def dumped_scales(out):
    """The scales of the dumped masks, which end at the first mask equal to
    building_mask.pgm: every earlier one differs from it. Each mask comes
    with its contour image."""
    building = raster.load_mask(out / "building_mask.pgm")
    masks = sorted((out / "stack").glob("mask_*.pgm"))
    equal = [np.array_equal(raster.load_mask(m), building) for m in masks]
    assert equal == [False] * len(masks[1:]) + [True]
    assert sorted(c.name for c in (out / "stack").glob("contours_*.pgm")) == [
        m.name.replace("mask_", "contours_") for m in masks
    ]
    return [int(m.stem.removeprefix("mask_")) for m in masks]


def test_extract_mask_dump_stack(small_scene, run_cli, tophat_scales):
    # the building first shows at the top scale, 30: the dump takes that
    # rung from the mask stage's building mask, with no tophat of its own
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
        "--dump-stack", "--set", "tophat.scale_max=30",
    )
    assert code == 0
    assert dumped_scales(small_scene["out"]) == [10, 20, 30]
    assert tophat_scales == [30, 10, 20]


@pytest.mark.parametrize("scale_max", [None, 10**30])
def test_extract_mask_dump_stack_ends_at_the_building_mask(small_scene, run_cli, scale_max):
    # the 28 px building first shows at scale 30, and every later rung would
    # repeat that rung: the default ladder (to 400) ends there, and so does
    # one that cannot be listed
    settings = [] if scale_max is None else ["--set", f"tophat.scale_max={scale_max}"]
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
        "--dump-stack", *settings,
    )
    assert code == 0
    assert dumped_scales(small_scene["out"]) == [10, 20, 30]


# ---------------------------------------------------------------------------
# detect-lines
# ---------------------------------------------------------------------------


def test_detect_lines_square_scene(small_scene, run_cli):
    code = run_cli(
        "detect-lines", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    raw = load_segments_csv(small_scene["out"] / "segments_raw.csv")
    filtered = load_segments_csv(small_scene["out"] / "segments_filtered.csv")
    assert len(filtered) == 4
    assert len(filtered) <= len(raw)
    assert all(s.width_index is not None for s in filtered)


def test_detect_lines_constant_ortho(small_scene, tmp_path, run_cli):
    flat = raster.RasterImage(np.full((64, 64), 99, dtype=np.uint8))
    p = tmp_path / "flat.pgm"
    raster.save_image(flat, p)
    code = run_cli(
        "detect-lines", "--dsm", small_scene["dsm"], "--ortho", p,
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert load_segments_csv(small_scene["out"] / "segments_raw.csv") == []
    assert load_segments_csv(small_scene["out"] / "segments_filtered.csv") == []


@pytest.mark.parametrize("command", ["detect-lines", "run-all"])
@pytest.mark.parametrize("shape", [(32, 48), (64, 63), (65, 64)])
def test_ortho_off_the_dsm_grid_is_rejected(small_scene, tmp_path, run_cli, capsys, command,
                                            shape):
    # line pixels are taken as DSM cells, so a differently sized ortho would
    # put the lines on the wrong cells
    ortho = raster.load_image(small_scene["ortho"])
    h, w = shape
    other = np.zeros(shape, dtype=np.uint8)
    other[:64, :64] = ortho.samples[:h, :w]  # the scene, cropped or padded
    p = tmp_path / "other.pgm"
    raster.save_image(raster.RasterImage(other), p)
    truth = ("--truth", small_scene["truth"]) if command == "run-all" else ()
    code = run_cli(
        command, "--dsm", small_scene["dsm"], "--ortho", p, *truth,
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert f"{w}x{h}" in err and "64x64" in err
    assert not small_scene["out"].exists()


# ---------------------------------------------------------------------------
# sharpen
# ---------------------------------------------------------------------------


def _detect(small_scene, run_cli):
    run_cli(
        "detect-lines", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )


def test_sharpen_planefit_no_segments_is_identity(small_scene, tmp_path, run_cli):
    empty = tmp_path / "none.csv"
    empty.write_text("x1,y1,x2,y2,width_index\n")
    code = run_cli(
        "sharpen", "--method", "planefit", "--dsm", small_scene["dsm"],
        "--segments", empty, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    out = raster.load_heightfield(small_scene["out"] / "adjusted_planefit.asc")
    original = raster.load_heightfield(small_scene["dsm"])
    assert np.array_equal(out.values, original.values)


def test_sharpen_graphcut_zero_optimal_is_identity(small_scene, run_cli):
    # segments drawn exactly on the DSM boundary contour keep every zero
    # offset in the buffer, so the warp is the identity
    _detect(small_scene, run_cli)
    code = run_cli(
        "sharpen", "--method", "graphcut", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    out = raster.load_heightfield(small_scene["out"] / "adjusted_graphcut.asc")
    original = raster.load_heightfield(small_scene["dsm"])
    assert np.array_equal(out.values, original.values)


def test_sharpen_graphcut_without_buildings_copies_the_dsm(tmp_path, run_cli, caplog):
    dsm = raster.Heightfield(np.random.default_rng(4).normal(0.0, 0.05, (32, 32)))
    paths = {name: tmp_path / name for name in ("flat.asc", "copy.asc", "none.csv")}
    raster.save_heightfield(dsm, paths["flat.asc"])
    raster.save_heightfield(raster.load_heightfield(paths["flat.asc"]), paths["copy.asc"])
    paths["none.csv"].write_text("x1,y1,x2,y2,width_index\n")
    code = run_cli(
        "sharpen", "--method", "graphcut", "--dsm", paths["flat.asc"],
        "--segments", paths["none.csv"], "--out", tmp_path / "o", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "dsmsharp"] == [
        ("WARNING", "no boundary contours; graph-cut leaves the DSM unchanged")
    ]
    adjusted = (tmp_path / "o" / "adjusted_graphcut.asc").read_bytes()
    assert adjusted == paths["copy.asc"].read_bytes()


def test_sharpen_planefit_improves_boundary(small_scene, run_cli):
    run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"], *SMALL_SCALE_ARGS
    )
    _detect(small_scene, run_cli)
    code = run_cli(
        "sharpen", "--method", "planefit", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    from dsmsharp import evaluate as ev

    truth = raster.load_heightfield(small_scene["truth"])
    original = raster.load_heightfield(small_scene["dsm"])
    adjusted = raster.load_heightfield(small_scene["out"] / "adjusted_planefit.asc")
    contours = raster.load_mask(small_scene["out"] / "boundary_contours.pgm")
    scope = raster.dilate_mask(contours, 5)
    assert ev.rmse(adjusted, truth, scope) < ev.rmse(original, truth, scope)


def test_sharpen_debug_dumps(small_scene, run_cli):
    _detect(small_scene, run_cli)
    run_cli(
        "sharpen", "--method", "graphcut", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], "--debug", *SMALL_SCALE_ARGS,
    )
    assert (small_scene["out"] / "labeling.csv").is_file()
    assert (small_scene["out"] / "offsets_dx.asc").is_file()
    assert (small_scene["out"] / "offsets_dy.asc").is_file()
    run_cli(
        "sharpen", "--method", "planefit", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], "--debug", *SMALL_SCALE_ARGS,
    )
    assert (small_scene["out"] / "planes.csv").is_file()


def test_planes_csv_holds_plain_floats(small_scene, run_cli):
    _detect(small_scene, run_cli)
    assert run_cli(
        "sharpen", "--method", "planefit", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], "--debug", *SMALL_SCALE_ARGS,
    ) == 0
    rows = (small_scene["out"] / "planes.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        a, b, c = row.split(",")[5:8]
        assert [a, b, c] == [repr(float(a)), repr(float(b)), repr(float(c))], row


def test_graphcut_uses_the_top_of_the_ladder(tmp_path, run_cli):
    # scale_max 59 and 50 with step 10 both end the ladder at 50, so the mask,
    # the ramp contours and every output must agree
    spec = SceneSpec(
        dims=(128, 128),
        buildings=[
            Building((50, 60), (36, 30), 10.0),
            Building((95, 80), (24, 40), 14.0, rotation_deg=20.0),
        ],
        boundary_blur_sigma=2.0,
        noise_sigma=0.05,
        seed=1,
    )
    truth, smeared, ortho = synth.generate(spec)
    raster.save_heightfield(truth, tmp_path / "truth.asc")
    raster.save_heightfield(smeared, tmp_path / "dsm.asc")
    raster.save_image(ortho, tmp_path / "ortho.pgm")
    outputs = []
    for scale_max in (59, 50):
        out = tmp_path / f"out{scale_max}"
        code = run_cli(
            "run-all", "--method", "graphcut", "--dsm", tmp_path / "dsm.asc",
            "--ortho", tmp_path / "ortho.pgm", "--truth", tmp_path / "truth.asc", "--out", out,
            "--set", f"tophat.scale_max={scale_max}",
        )
        assert code == 0
        outputs.append(read_all_bytes(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("method", ["planefit", "graphcut"])
@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,2,inf,40,3", "non-finite coordinate"),
        ("1,nan,30,40,3", "non-finite coordinate"),
        ("1,2,30,40,0", "width_index must be >= 1, got 0"),
    ],
)
def test_sharpen_rejects_bad_segment_rows(small_scene, tmp_path, run_cli, capsys, monkeypatch,
                                          method, row, reason):
    seg_path = tmp_path / "segments.csv"
    seg_path.write_text(f"x1,y1,x2,y2,width_index\n1,2,30,2,1\n{row}\n")

    def no_reads(path):
        raise AssertionError(f"DSM read before the segments were checked: {path}")

    monkeypatch.setattr(raster, "load_heightfield", no_reads)
    code = run_cli(
        "sharpen", "--method", method, "--dsm", small_scene["dsm"],
        "--segments", seg_path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {seg_path}: line 3: {reason}")
    assert not small_scene["out"].exists()


@pytest.mark.parametrize("dsm_present", [True, False])
def test_sharpen_planefit_rejects_segments_without_width_first(
    small_scene, tmp_path, run_cli, capsys, monkeypatch, dsm_present
):
    # raw detector output has no widths: plane fit cannot size its buffers,
    # and says so before it reads the DSM (or finds it missing) or makes --out
    seg_path = tmp_path / "segments_raw.csv"
    seg_path.write_text("x1,y1,x2,y2,width_index\n1,2,30,2,1\n1,5,30,5,\n4,9,4,40,\n")
    dsm = small_scene["dsm"] if dsm_present else tmp_path / "absent.asc"

    def no_reads(path):
        raise AssertionError(f"DSM read before the segments were checked: {path}")

    monkeypatch.setattr(raster, "load_heightfield", no_reads)
    code = run_cli(
        "sharpen", "--method", "planefit", "--dsm", dsm,
        "--segments", seg_path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {seg_path}: 2 of 3 segments have no width_index")
    assert not small_scene["out"].exists()


@pytest.mark.parametrize("method", ["planefit", "graphcut"])
@pytest.mark.parametrize(
    "row, endpoint",
    [("18.5,10.0,3000000.5,11.0,1", "(3000000.5, 11.0)"),
     ("-0.5,18,63.5,-0.625,1", "(63.5, -0.625)")],
)
def test_sharpen_rejects_a_segment_off_the_grid(small_scene, tmp_path, run_cli, capsys,
                                                monkeypatch, method, row, endpoint):
    # a line 3 million px long would cost graph-cut its whole raster walk;
    # it is rejected once the DSM is read, before any tophat
    seg_path = tmp_path / "segments.csv"
    seg_path.write_text(f"x1,y1,x2,y2,width_index\n18,18,46,18,1\n\n{row}\n")

    def no_tophat(*args):
        raise AssertionError("tophat ran before the segments were checked against the grid")

    monkeypatch.setattr(cli, "top_tophat", no_tophat)
    code = run_cli(
        "sharpen", "--method", method, "--dsm", small_scene["dsm"],
        "--segments", seg_path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {seg_path}: line 4: endpoint {endpoint} lies off the 64x64 DSM grid:"
        " x must lie in [-0.5, 63.5] and y in [-0.5, 63.5]"
    ]
    assert not small_scene["out"].exists()


@pytest.mark.parametrize("method", ["planefit", "graphcut"])
def test_sharpen_takes_segments_on_the_edge_of_the_grid(small_scene, tmp_path, run_cli, method):
    seg_path = tmp_path / "segments.csv"
    seg_path.write_text("x1,y1,x2,y2,width_index\n-0.5,18,63.5,18,1\n18,63.5,18,-0.5,1\n")
    code = run_cli(
        "sharpen", "--method", method, "--dsm", small_scene["dsm"],
        "--segments", seg_path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert (small_scene["out"] / f"adjusted_{method}.asc").is_file()


def test_sharpen_graphcut_takes_segments_without_width(small_scene, tmp_path, run_cli):
    # graph-cut reads only the lines' geometry
    seg_path = tmp_path / "segments_raw.csv"
    seg_path.write_text("x1,y1,x2,y2,width_index\n18,18,46,18,\n")
    code = run_cli(
        "sharpen", "--method", "graphcut", "--dsm", small_scene["dsm"],
        "--segments", seg_path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert (small_scene["out"] / "adjusted_graphcut.asc").is_file()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_truth_variant_zero_row(small_scene, run_cli, capsys):
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--variant", f"perfect={small_scene['truth']}",
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    report = (small_scene["out"] / "rmse_report.csv").read_text().splitlines()
    assert report[0] == "region,method,whole,buf5,buf10,buf20"
    perfect = [r for r in report[1:] if r.split(",")[1] == "perfect"]
    assert perfect[0].split(",")[2:] == ["0.000", "0.000", "0.000", "0.000"]
    assert (small_scene["out"] / "sweep_original.csv").is_file()
    assert (small_scene["out"] / "sweep_perfect.csv").is_file()


def test_evaluate_variant_on_finer_grid(small_scene, tmp_path, run_cli):
    """A variant on a 2x finer grid gets resampled onto the truth grid."""
    truth = raster.load_heightfield(small_scene["truth"])
    fine_vals = np.repeat(np.repeat(truth.values, 2, axis=0), 2, axis=1)
    fine = raster.Heightfield(fine_vals, cell_size=truth.cell_size / 2, origin=truth.origin)
    fine_path = tmp_path / "fine.asc"
    raster.save_heightfield(fine, fine_path)
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--variant", f"fine={fine_path}", "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    rows = (small_scene["out"] / "rmse_report.csv").read_text().splitlines()
    fine_row = [r for r in rows if r.split(",")[1] == "fine"][0]
    # block-replicated truth resampled back to the truth grid is nearly exact;
    # bilinear at cell centers of the doubled grid lands on flat patches
    assert float(fine_row.split(",")[2]) < 0.2


def test_evaluate_cross_section(small_scene, run_cli):
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--out", small_scene["out"], "--set", "eval.section=10,32,54,32", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    lines = (small_scene["out"] / "cross_section.csv").read_text().splitlines()
    assert lines[0].startswith("station,truth,original")


def test_evaluate_one_report_serves_buffers_and_sweep(small_scene, run_cli, capsys):
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--out", small_scene["out"], "--set", "eval.buffer_widths=3,25",
        "--set", "eval.sweep_max_width=4", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    out = small_scene["out"]
    assert (out / "rmse_report.csv").read_text().splitlines()[0] == "region,method,whole,buf3,buf25"
    sweep = (out / "sweep_original.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in sweep[1:]] == ["1", "2", "3", "4"]
    (printed,) = capsys.readouterr().out.splitlines()
    assert [t.split("=")[0] for t in printed.split() if t.startswith("buf")] == ["buf3", "buf25"]


@pytest.mark.parametrize(
    "keep, scope",
    [((0, 0), "in the whole image"), ((1, 1), "within 1 px of the boundary")],
    ids=["whole", "buffer"],
)
def test_evaluate_empty_scope_names_variant_and_scope_and_writes_nothing(
    small_scene, tmp_path, run_cli, capsys, keep, scope
):
    # valid only in the top-left corner (nowhere for 'whole'), ~18 px from the building
    values = np.full((64, 64), -9999.0)
    values[: keep[0], : keep[1]] = 1.0
    bad = tmp_path / "bad.asc"
    raster.save_heightfield(raster.Heightfield(values), bad)
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--variant", f"bad={bad}", "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: variant 'bad' has no valid cells {scope}\n"
    assert not small_scene["out"].exists()


@pytest.mark.parametrize(
    "variant_shape, mask_shape, error",
    [
        ((6, 6), (8, 8), "variant 'x' is 6x6 but the truth grid is 8x8; resample_to puts it on"
                         " the truth grid"),
        ((8, 8), (10, 9), "the contour mask is 9x10 but the truth grid is 8x8"),
    ],
    ids=["variant", "contour-mask"],
)
def test_score_stage_names_a_grid_off_the_truth(variant_shape, mask_shape, error):
    # run-all and evaluate resample first; a library caller may not
    truth = raster.Heightfield(np.zeros((8, 8)))
    mask = np.zeros(mask_shape, bool)
    mask[3, 3] = True
    variants = {"x": raster.Heightfield(np.zeros(variant_shape))}
    with pytest.raises(ValueError) as exc:
        cli.score_stage(truth, variants, mask, (5,))
    assert str(exc.value) == error


def test_evaluate_without_buildings_writes_nothing(tmp_path, run_cli, capsys):
    flat = tmp_path / "flat.asc"
    raster.save_heightfield(raster.Heightfield(np.zeros((32, 32))), flat)
    out = tmp_path / "X"
    assert run_cli("evaluate", "--dsm", flat, "--truth", flat, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no boundary contours on the original DSM; nothing to evaluate against"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, row",
    [
        (["evaluate", "--dsm", "{dsm}", "--variant", "far={far}"], "variant 'far'"),
        (["evaluate", "--dsm", "{far}"], "original"),
        (["run-all", "--dsm", "{far}", "--ortho", "{ortho}"], "original"),
    ],
    ids=["evaluate-variant", "evaluate-dsm", "run-all"],
)
def test_grid_off_the_truth_is_named_with_both_extents(
    small_scene, tmp_path, run_cli, capsys, argv, row
):
    dsm = raster.load_heightfield(small_scene["dsm"])
    far = tmp_path / "far.asc"
    raster.save_heightfield(raster.Heightfield(dsm.values, origin=(1000.0, 1000.0)), far)
    paths = {"dsm": small_scene["dsm"], "ortho": small_scene["ortho"], "far": far}
    code = run_cli(
        *(arg.format(**paths) for arg in argv), "--truth", small_scene["truth"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {row}: disjoint extents: x 1000..1064, y 1000..1064 does not overlap"
        " the reference grid's x 0..64, y 0..64\n"
    )
    # the check runs before any stage: nothing is written, not even --out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "far.asc", "ortho.pgm", "smeared.asc", "truth.asc",
    ]


def test_evaluate_dilates_no_mask(small_scene, run_cli, monkeypatch):
    """One distance map stands for every buffer: no per-width dilation."""
    radii = []
    real = raster.dilate_mask

    def counting(mask, radius):
        radii.append(radius)
        return real(mask, radius)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("dsmsharp") and hasattr(module, "dilate_mask"):
            monkeypatch.setattr(module, "dilate_mask", counting)
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--variant", f"perfect={small_scene['truth']}", "--out", small_scene["out"],
        *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert radii == []


def _evaluate_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, *argv):
    """Run evaluate; it must exit 2 before reading a variant or creating the
    output directory. Returns standard error."""
    real = raster.load_heightfield

    def truth_only(path):
        if Path(path) != small_scene["truth"]:
            raise AssertionError(f"grid read before the arguments were checked: {path}")
        return real(path)

    monkeypatch.setattr(raster, "load_heightfield", truth_only)
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--out", small_scene["out"], *argv, *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not small_scene["out"].exists()
    return err


@pytest.mark.parametrize(
    "variants",
    [
        ["original={dsm}"],
        ["truth={dsm}"],
        ["={dsm}"],
        [" ={dsm}"],
        ["a/b={dsm}"],
        [f"a{os.sep}b={{dsm}}"],
        ["p={dsm}", "p={truth}"],
        ["p="],
    ],
    ids=["original", "truth", "empty", "blank", "slash", "os-sep", "repeated", "empty-path"],
)
def test_evaluate_rejects_colliding_or_escaping_variant_names(
    small_scene, run_cli, capsys, monkeypatch, variants
):
    argv = []
    for v in variants:
        argv += ["--variant", v.format(dsm=small_scene["dsm"], truth=small_scene["truth"])]
    err = _evaluate_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, *argv)
    assert "--variant" in err


def test_evaluate_checks_section_against_truth_grid_first(small_scene, run_cli, capsys,
                                                         monkeypatch):
    err = _evaluate_rejected_before_any_work(
        small_scene, run_cli, capsys, monkeypatch, "--variant", f"p={small_scene['dsm']}",
        "--set", "eval.section=10,32,64,32",
    )
    assert "eval.section" in err and "64x64" in err


def test_run_all_checks_section_before_the_pipeline(small_scene, run_cli, capsys):
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"],
        "--set", "eval.section=-1,32,54,32", *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eval.section") and "64x64" in err
    assert not small_scene["out"].exists()


def test_run_all_reads_the_truth_after_the_methods(small_scene, run_cli, monkeypatch):
    real = raster.load_heightfield
    reads = []

    def recorded(path):
        adjusted = {p.name for p in small_scene["out"].glob("adjusted_*.asc")}
        reads.append((Path(path), adjusted))
        return real(path)

    monkeypatch.setattr(raster, "load_heightfield", recorded)
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert reads == [
        (small_scene["dsm"], set()),
        (small_scene["truth"], {"adjusted_graphcut.asc", "adjusted_planefit.asc"}),
    ]


def _truth_with_bad_header(small_scene, tmp_path):
    path = tmp_path / "bad_header.asc"
    lines = small_scene["truth"].read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] + ["cellsize -1\n"] + lines[5:]))
    return path, [f"error: {path}: line 5: malformed header: cellsize must be positive"]


def _truth_off_the_section(small_scene, tmp_path):
    return small_scene["truth"], [
        "error: eval.section point (10, 64) lies outside the 64x64 truth grid"
    ]


@pytest.mark.parametrize("truth", [_truth_with_bad_header, _truth_off_the_section],
                         ids=["bad-header", "section-off-grid"])
def test_run_all_checks_the_truth_header_before_the_mask(small_scene, tmp_path, run_cli, capsys,
                                                        truth):
    path, err = truth(small_scene, tmp_path)
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", path, "--out", small_scene["out"],
        "--set", "eval.section=10,32,10,64", *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == err
    assert not (small_scene["out"] / "building_mask.pgm").exists()


def test_run_all_reads_the_truth_body_last(small_scene, tmp_path, run_cli, capsys):
    """A fault in the truth's cells is found when the evaluation reads them,
    after every stage output is written and before any report is."""
    path = tmp_path / "bad_cell.asc"
    lines = small_scene["truth"].read_text().splitlines(keepends=True)
    lines[40] = "x " + lines[40].split(" ", 1)[1]
    path.write_text("".join(lines))
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", path, "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: line 41: bad cell value"]
    names = {p.name for p in small_scene["out"].iterdir()}
    assert {"building_mask.pgm", "segments_filtered.csv", "adjusted_graphcut.asc",
            "adjusted_planefit.asc"} <= names
    assert "rmse_report.csv" not in names


# ---------------------------------------------------------------------------
# run-all and idempotence
# ---------------------------------------------------------------------------


def test_run_all_writes_everything(small_scene, run_cli):
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    names = {p.name for p in small_scene["out"].iterdir()}
    assert {
        "building_mask.pgm", "boundary_contours.pgm", "segments_raw.csv",
        "segments_filtered.csv", "adjusted_graphcut.asc", "adjusted_planefit.asc",
        "rmse_report.csv", "sweep_original.csv", "sweep_graphcut.csv", "sweep_planefit.csv",
    } <= names


def test_run_all_single_method(small_scene, run_cli):
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--method", "planefit",
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    names = {p.name for p in small_scene["out"].iterdir()}
    assert "adjusted_planefit.asc" in names
    assert "adjusted_graphcut.asc" not in names


def test_run_all_on_a_dsm_with_holes(small_scene, tmp_path, run_cli):
    # holes across the building's left edge (x = 18) and inside its roof,
    # written with each nodata encoding the grid loader takes
    smeared = raster.load_heightfield(small_scene["dsm"])
    holes = np.zeros(smeared.values.shape, bool)
    holes[30:34, 16:21] = True
    holes[26:29, 36:40] = True
    runs = []
    for nodata in (-9999.0, -np.inf, np.inf):
        dsm = tmp_path / f"holes{nodata}.asc"
        raster.save_heightfield(
            raster.Heightfield(np.where(holes, nodata, smeared.values), nodata=nodata), dsm
        )
        out = tmp_path / f"out{nodata}"
        code = run_cli(
            "run-all", "--dsm", dsm, "--ortho", small_scene["ortho"],
            "--truth", small_scene["truth"], "--method", "both", "--out", out,
            *SMALL_SCALE_ARGS,
        )
        assert code == 0
        runs.append(out)
    for method in ("graphcut", "planefit"):
        grids = [raster.load_heightfield(out / f"adjusted_{method}.asc") for out in runs]
        valid = grids[0].valid_mask()
        for grid in grids[1:]:
            assert np.array_equal(grid.valid_mask(), valid)
            assert grid.values[valid].tobytes() == grids[0].values[valid].tobytes()
        if method == "planefit":
            assert not valid[holes].any()
            assert (grids[0].values[valid] != smeared.values[valid]).any()
    reports = {(out / "rmse_report.csv").read_text() for out in runs}
    assert len(reports) == 1
    assert {"graphcut", "planefit"} <= {line.split(",")[1] for line in reports.pop().splitlines()}


@pytest.mark.parametrize("fill", [0.0, -9999.0], ids=["flat", "nodata"])
def test_run_all_without_buildings_stops_after_the_mask(small_scene, tmp_path, run_cli, capsys,
                                                        fill):
    """On the truth's grid the evaluation scores against the mask stage's
    contours, so a DSM without buildings fails before any line or method runs."""
    dsm = tmp_path / "empty.asc"
    raster.save_heightfield(raster.Heightfield(np.full((64, 64), fill)), dsm)
    out = tmp_path / "o"
    code = run_cli(
        "run-all", "--dsm", dsm, "--ortho", small_scene["ortho"], "--truth", small_scene["truth"],
        "--method", "both", "--out", out, *SMALL_SCALE_ARGS,
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no boundary contours on the original DSM; nothing to evaluate against"
    ]
    assert not {p.name for p in out.iterdir()} & {
        "segments_raw.csv", "segments_filtered.csv", "adjusted_graphcut.asc", "adjusted_planefit.asc"
    }


def test_subcommands_rerun_byte_identical(small_scene, run_cli):
    args = (
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert run_cli(*args) == 0
    first = read_all_bytes(small_scene["out"])
    assert run_cli(*args) == 0
    second = read_all_bytes(small_scene["out"])
    assert first == second


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(small_scene, tmp_path, run_cli):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"dsm = {small_scene['dsm']}\nout = {tmp_path / 'from_file'}\n"
        "tophat.scale_min = 10\ntophat.scale_max = 40\n"
    )
    out_flag = tmp_path / "from_flag"
    assert run_cli("extract-mask", "--config", cfg, "--out", out_flag) == 0
    assert out_flag.is_dir()
    assert not (tmp_path / "from_file").exists()


def test_unknown_config_key_rejected(tmp_path, run_cli, capsys):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("nonsense.key = 1\n")
    assert run_cli("extract-mask", "--config", cfg) == 2
    assert "unknown key" in capsys.readouterr().err


# plane fit has no feather ring any more, and the constants of graph-cut's
# energy and reaches, plane fit's buffer and the width walk's overlap are no
# settings: each old key is an unknown one
_RETIRED_KEYS = [
    "fit.feather_band", "graphcut.data_cost_hit", "graphcut.data_cost_miss",
    "graphcut.smooth_cost_near", "graphcut.smooth_cost_far", "graphcut.smooth_radius",
    "fit.width_multiplier", "fit.buffer_cap", "fit.min_points", "lines.overlap_radius",
    "graphcut.neighbor_reach", "graphcut.line_buffer_radius", "graphcut.far_distance",
]


def test_removed_feather_band_key_rejected(small_scene, tmp_path, run_cli, capsys):
    cfg = tmp_path / "pipe.cfg"
    for key in _RETIRED_KEYS:
        assert key not in config._KEYS
        cfg.write_text(f"# retired\n{key} = 2\n")
        for args, reason in [
            (("--config", cfg), f"{cfg}: line 2: unknown key '{key}'"),
            (("--set", f"{key}=2"), f"unknown configuration key '{key}'"),
        ]:
            code = run_cli(
                "sharpen", "--method", "planefit", "--dsm", small_scene["dsm"],
                "--out", small_scene["out"], *args,
            )
            assert code == 2
            assert capsys.readouterr().err == f"error: {reason}\n"
            assert not small_scene["out"].exists()


def test_bad_set_value_rejected(small_scene, run_cli, capsys):
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
        "--set", "tophat.scale_min=banana",
    )
    assert code == 2


def test_set_override_applies(small_scene, run_cli):
    # a sky-high threshold wipes out the mask
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
        "--set", "tophat.height_threshold=500", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert not raster.load_mask(small_scene["out"] / "building_mask.pgm").any()


def test_verbose_applies_to_its_own_call_only(small_scene, run_cli, caplog):
    # the logger's level and the capture's are restored after the test
    caplog.set_level(logging.INFO, logger="dsmsharp")
    counts = []
    for flags in ((), ("--verbose",), ()):
        caplog.clear()
        code = run_cli(
            "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
            *SMALL_SCALE_ARGS, *flags,
        )
        assert code == 0
        counts.append(sum("building pixels" in r.getMessage() for r in caplog.records))
    assert counts == [0, 1, 0]


# each subcommand's own options as (option strings, required, default,
# choices, action, help), and the function it dispatches to; every
# subcommand then ends with the same four options
_COMMON_OPTIONS = [
    (("--config",), False, None, None, "_StoreAction", "key = value config file"),
    (("--out",), False, None, None, "_StoreAction", "output directory"),
    (("--set",), False, None, None, "_AppendAction",
     "override any config key, e.g. --set tophat.height_threshold=2.0"),
    (("--verbose",), False, False, None, "_StoreTrueAction", "chatty logging"),
]
PARSER_SHAPE = [
    ("synth", "cmd_synth", [
        (("--scene",), True, None, None, "_StoreAction", "scene description file"),
    ]),
    ("extract-mask", "cmd_extract_mask", [
        (("--dsm",), False, None, None, "_StoreAction", None),
        (("--dump-stack",), False, False, None, "_StoreTrueAction",
         "also write each per-scale mask, up to the one equal to the building mask"),
    ]),
    ("detect-lines", "cmd_detect_lines", [
        (("--dsm",), False, None, None, "_StoreAction", None),
        (("--ortho",), False, None, None, "_StoreAction", None),
    ]),
    ("sharpen", "cmd_sharpen", [
        (("--method",), True, None, ("graphcut", "planefit"), "_StoreAction", None),
        (("--dsm",), False, None, None, "_StoreAction", None),
        (("--segments",), False, None, None, "_StoreAction",
         "filtered segment CSV (default: <out>/segments_filtered.csv)"),
        (("--debug",), False, False, None, "_StoreTrueAction",
         "write method-specific debug dumps"),
    ]),
    ("evaluate", "cmd_evaluate", [
        (("--dsm",), False, None, None, "_StoreAction", "the original (unadjusted) DSM"),
        (("--truth",), False, None, None, "_StoreAction", None),
        (("--variant",), False, None, None, "_AppendAction", "adjusted DSM to score"),
    ]),
    ("run-all", "cmd_run_all", [
        (("--dsm",), False, None, None, "_StoreAction", None),
        (("--ortho",), False, None, None, "_StoreAction", None),
        (("--truth",), False, None, None, "_StoreAction", None),
        (("--method",), False, "both", ("graphcut", "planefit", "both"), "_StoreAction", None),
        (("--debug",), False, False, None, "_StoreTrueAction", None),
    ]),
]


def test_parser_shape_is_pinned():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shape = [
        (name, sub.get_default("func"), [
            (tuple(a.option_strings), a.required, a.default, a.choices, type(a).__name__, a.help)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, sub in subs.choices.items()
    ]
    assert shape == [
        (name, getattr(cli, func), [*options, *_COMMON_OPTIONS])
        for name, func, options in PARSER_SHAPE
    ]


def _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting):
    """Run run-all with one --set; it must exit 2 before reading a grid or
    creating the output directory. Returns standard error."""
    def no_reads(path):
        raise AssertionError(f"input read before the config was checked: {path}")

    monkeypatch.setattr(raster, "load_heightfield", no_reads)
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"],
        "--set", setting, *SMALL_SCALE_ARGS,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not small_scene["out"].exists()
    return err


@pytest.mark.parametrize(
    "setting",
    [
        "eval.section=10,32,10,32",
        "eval.sweep_max_width=0",
        "eval.buffer_widths=0,5",
        "eval.buffer_widths=5,5",
        "eval.buffer_widths=",
        "eval.buffer_widths=,",
        "eval.buffer_widths=5,,10",
        "eval.buffer_widths=5,10,",
        "eval.section=1,,2,3,4",
        "lines.boundary_buffer_radius=-1",
    ],
)
def test_invalid_config_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting):
    err = _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting)
    assert setting.split("=")[0] in err


@pytest.mark.parametrize(
    "spelling, name",
    [
        (["--out", ""], "out"),
        (["--set", "out="], "out"),
        (["--config", "{blank_out}"], "out"),
        (["--dsm", ""], "dsm"),
        (["--ortho", ""], "ortho"),
        (["--truth", ""], "truth"),
        (["--config", ""], "--config"),
    ],
    ids=["out-flag", "out-set", "out-config-line", "dsm-flag", "ortho-flag", "truth-flag",
         "config-flag"],
)
def test_an_empty_path_is_rejected(small_scene, tmp_path, run_cli, capsys, monkeypatch,
                                   spelling, name):
    # Path('') is '.': taken as a path, an empty value would write every
    # output into the working directory, or read it as a file
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    blank_out = tmp_path / "blank_out.cfg"
    blank_out.write_text("out =\n")
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], *SMALL_SCALE_ARGS,
        *(arg.format(blank_out=blank_out) for arg in spelling),
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: bad value '' for {name}"]
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "blank_out.cfg", "ortho.pgm", "smeared.asc", "truth.asc", "work",
    ]


@pytest.mark.parametrize("value", ["", "  "], ids=["empty", "blank"])
@pytest.mark.parametrize("flag", ["--segments", "--scene"])
def test_an_empty_segments_or_scene_path_is_rejected(tmp_path, run_cli, capsys, monkeypatch,
                                                     flag, value):
    # taken as given, '' would count as no --segments, which reads
    # <out>/segments_filtered.csv, and as a scene path it is '.'
    monkeypatch.chdir(tmp_path)
    raster.save_heightfield(raster.Heightfield(np.zeros((16, 16))), tmp_path / "flat.asc")
    (tmp_path / "o").mkdir()
    save_segments_csv([], tmp_path / "o" / "segments_filtered.csv")
    before = read_all_bytes(tmp_path)
    command = {
        "--segments": ["sharpen", "--method", "planefit", "--dsm", "flat.asc"],
        "--scene": ["synth"],
    }[flag]
    assert run_cli(*command, flag, value, "--out", "o") == 2
    assert capsys.readouterr().err.splitlines() == [f"error: bad value {value!r} for {flag}"]
    assert read_all_bytes(tmp_path) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run-all", "--dsm", "{dsm}", "--ortho", "{ortho}"],
         "no truth path configured (flag --truth or config key 'truth')"),
        (["extract-mask", "--dsm", "{dsm}", "--set", "tophat.scale_max"],
         "--set expects key=value, got 'tophat.scale_max'"),
        (["evaluate", "--dsm", "{dsm}", "--truth", "{truth}", "--variant", "x"],
         "--variant expects name=path, got 'x'"),
        (["extract-mask", "--dsm", "short.asc"],
         "short.asc: line 3: malformed header: missing 'xllcorner'"),
        (["detect-lines", "--dsm", "{dsm}", "--ortho", "zero.pgm"],
         "zero.pgm: bad dimensions 0x5"),
    ],
    ids=["run-all-without-truth", "set-without-equals", "variant-without-equals",
         "grid-header-cut-short", "pgm-of-zero-width"],
)
def test_malformed_arguments_and_inputs_are_rejected(small_scene, tmp_path, run_cli, capsys,
                                                     monkeypatch, argv, message):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "short.asc").write_text("ncols 4\nnrows 4\n")
    (work / "zero.pgm").write_bytes(b"P5\n0 5\n255\n")
    code = run_cli(*(arg.format(**small_scene) for arg in argv), "--out", "o")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (work / "o").exists()


# every sweep row past the truth grid's larger side repeats the whole-image
# RMSE; 10**20 was killed for memory, since every width from 1 was built
@pytest.mark.parametrize("command", ["run-all", "evaluate"])
def test_sweep_past_the_truth_grid_rejected_before_any_work(small_scene, run_cli, capsys,
                                                           monkeypatch, command):
    def no_scoring(*args):
        raise AssertionError("scoring started")

    monkeypatch.setattr(evaluate, "boundary_distance", no_scoring)
    inputs = {
        "run-all": ["--ortho", small_scene["ortho"]],
        "evaluate": ["--variant", f"v={small_scene['dsm']}"],
    }[command]
    tracemalloc.start()
    try:
        code = run_cli(
            command, "--dsm", small_scene["dsm"], "--truth", small_scene["truth"], *inputs,
            "--out", small_scene["out"], "--set", f"eval.sweep_max_width={10**12}",
            *SMALL_SCALE_ARGS,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: eval.sweep_max_width must be <= 64, the larger side of the 64x64 truth grid,"
        f" got {10**12}"
    ]
    assert not small_scene["out"].exists()
    assert peak < 2**22


def test_sweep_to_the_truth_grid_side_accepted(small_scene, run_cli):
    code = run_cli(
        "evaluate", "--dsm", small_scene["dsm"], "--truth", small_scene["truth"],
        "--out", small_scene["out"], "--set", "eval.sweep_max_width=64", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    sweep = (small_scene["out"] / "sweep_original.csv").read_text().splitlines()
    assert len(sweep) == 1 + 64


@pytest.mark.parametrize(
    "setting",
    [
        "detector.gradient_threshold=nan",
        "detector.angle_tolerance=nan",
        "detector.min_length=inf",
        "detector.smoothing_sigma=-inf",
        "tophat.height_threshold=nan",
        "eval.section=10,32,nan,32",
    ],
)
def test_non_finite_float_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch,
                                                   setting):
    key, _, value = setting.partition("=")
    err = _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting)
    assert err == f"error: bad value {value!r} for {key}\n"


def _no_gaussian(*args):
    raise AssertionError("the Gaussian kernel ran")


# 1e12 used to end in a MemoryError traceback, and 1e8 in the process being
# killed for memory; the kernel is replaced, so nothing of that size is tried
@pytest.mark.parametrize("sigma", ["1e12", "1e8", "100.5"])
def test_oversized_smoothing_sigma_rejected_before_any_work(small_scene, run_cli, capsys,
                                                            monkeypatch, sigma):
    monkeypatch.setattr(lines, "gaussian", _no_gaussian)
    setting = f"detector.smoothing_sigma={sigma}"
    message = f"error: smoothing_sigma must be in [0, 100], got {float(sigma)}\n"
    assert _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting) == message
    code = run_cli("detect-lines", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
                   "--out", small_scene["out"], "--set", setting)
    assert code == 2
    assert capsys.readouterr().err == message
    assert not small_scene["out"].exists()


@pytest.mark.parametrize("sigma", ["1e12", "1e8", "100.5"])
def test_synth_oversized_blur_sigma_rejected_before_any_work(tmp_path, run_cli, capsys,
                                                             monkeypatch, sigma):
    monkeypatch.setattr(synth, "gaussian", _no_gaussian)
    scene = scene_file(tmp_path, f"width = 16\nheight = 16\nblur_sigma = {sigma}\n")
    out = tmp_path / "o"
    assert run_cli("synth", "--scene", scene, "--out", out) == 2
    message = f"error: {scene}: line 3: blur_sigma must be <= 100, got {float(sigma)}"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_largest_gaussian_sigma_accepted():
    cfg = config.build_config(None, {"detector.smoothing_sigma": "100"})
    assert cfg.detector.smoothing_sigma == 100
    assert SceneSpec(dims=(4, 4), boundary_blur_sigma=100.0).boundary_blur_sigma == 100


@pytest.mark.parametrize("settings", [("scale_min=500", "scale_max=600"),
                                      ("scale_max=600", "scale_min=500")])
def test_settings_are_checked_in_any_order(small_scene, run_cli, settings):
    argv = [a for s in settings for a in ("--set", f"tophat.{s}")]
    code = run_cli("extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"], *argv)
    assert code == 0


@pytest.mark.parametrize(
    "command, flag",
    [
        (("synth",), "--scene"),
        (("extract-mask",), "--dsm"),
        (("detect-lines", "--dsm", "{dsm}", "--ortho", "{ortho}"), "--config"),
        (("sharpen", "--method", "graphcut", "--dsm", "{dsm}"), "--segments"),
        (("evaluate", "--dsm", "{dsm}"), "--truth"),
        (("run-all", "--ortho", "{ortho}", "--truth", "{truth}"), "--dsm"),
    ],
    ids=["synth", "extract-mask", "detect-lines", "sharpen", "evaluate", "run-all"],
)
def test_binary_file_as_text_input_exits_2(small_scene, tmp_path, run_cli, capsys, command, flag):
    # the ortho's three header lines are text, its payload (bytes 70 and 200) is not UTF-8
    binary = small_scene["ortho"]
    argv = [a.format(**small_scene) for a in command]
    assert run_cli(*argv, flag, binary, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {binary}: line 4: not UTF-8 text (byte 0xc8)"
    ]


def test_report_columns_follow_buffer_widths(small_scene, run_cli, capsys):
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"],
        "--method", "planefit", "--set", "eval.buffer_widths=3,7", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    report = (small_scene["out"] / "rmse_report.csv").read_text().splitlines()
    assert report[0] == "region,method,whole,buf3,buf7"
    assert [len(r.split(",")) for r in report[1:]] == [5, 5]
    printed = capsys.readouterr().out.splitlines()
    assert all(" buf3=" in line and " buf7=" in line for line in printed)


# ---------------------------------------------------------------------------
# each product once per run
# ---------------------------------------------------------------------------


@pytest.fixture
def rung_builds(monkeypatch):
    """Scales of the ladder rungs whose tophat the CLI evaluates, in order;
    the building mask's own tophat is not a rung."""
    scales, in_mask = [], []
    real_thresholded, real_top = tophat._thresholded, cli.top_tophat

    def thresholded(dsm, scale, threshold):
        if not in_mask:
            scales.append(scale)
        return real_thresholded(dsm, scale, threshold)

    def top(*args, **kwargs):
        in_mask.append(True)
        try:
            return real_top(*args, **kwargs)
        finally:
            in_mask.pop()

    monkeypatch.setattr(tophat, "_thresholded", thresholded)
    monkeypatch.setattr(cli, "top_tophat", top)
    return scales


@pytest.fixture
def tophat_scales(monkeypatch):
    """Scales of every white tophat the package evaluates, in order, from
    whichever module calls it."""
    scales, real = [], tophat.white_tophat

    def counting(dsm, se_size):
        scales.append(se_size)
        return real(dsm, se_size)

    for name, module in list(sys.modules.items()):
        if name.startswith("dsmsharp") and getattr(module, "white_tophat", None) is real:
            monkeypatch.setattr(module, "white_tophat", counting)
    return scales


def test_sharpen_graphcut_runs_one_top_scale_tophat(small_scene, run_cli, tophat_scales):
    """Graph-cut traces its ramps in the top-scale tophat, whose mask is the
    building mask, so sharpen evaluates that tophat once."""
    _detect(small_scene, run_cli)
    tophat_scales.clear()
    assert not hasattr(graphcut, "white_tophat")  # tophat alone finds the buildings
    code = run_cli(
        "sharpen", "--method", "graphcut", "--dsm", small_scene["dsm"],
        "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert tophat_scales == [TophatParams(scale_min=10, scale_max=40).top_scale]


def test_run_all_runs_one_top_scale_tophat(small_scene, run_cli, tophat_scales):
    """The building mask and graph-cut's ramp contours come from one tophat
    at the ladder's top scale; the width walk reuses its mask."""
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--method", "both", "--out", small_scene["out"],
        *SMALL_SCALE_ARGS,
    )
    assert code == 0
    assert tophat_scales.count(TophatParams(scale_min=10, scale_max=40).top_scale) == 1


def test_run_all_and_sharpen_write_the_same_graphcut_grid(tmp_path, run_cli):
    """run-all traces graph-cut's ramps in the mask stage's tophat, sharpen
    in a tophat of its own; on the same inputs and segments both write the
    same grid. The ramps of this scene's sigma-2 blur do move."""
    spec = SceneSpec((64, 64), 0.0, [Building((32, 32), (28, 28), 10.0)], 2.0, 0.02, 5)
    truth, smeared, ortho = synth.generate(spec)
    paths = {name: tmp_path / name for name in ("truth.asc", "dsm.asc", "ortho.pgm")}
    raster.save_heightfield(truth, paths["truth.asc"])
    raster.save_heightfield(smeared, paths["dsm.asc"])
    raster.save_image(ortho, paths["ortho.pgm"])
    out, here = tmp_path / "out", tmp_path / "here"
    assert run_cli(
        "run-all", "--dsm", paths["dsm.asc"], "--ortho", paths["ortho.pgm"],
        "--truth", paths["truth.asc"], "--method", "graphcut", "--out", out, *SMALL_SCALE_ARGS,
    ) == 0
    assert run_cli(
        "sharpen", "--method", "graphcut", "--dsm", paths["dsm.asc"],
        "--segments", out / "segments_filtered.csv", "--out", here, *SMALL_SCALE_ARGS,
    ) == 0
    name = "adjusted_graphcut.asc"
    assert (out / name).read_bytes() == (here / name).read_bytes()
    assert (raster.load_heightfield(out / name).values != smeared.values).any()


def _check_width_walk(scales, dsm_path, segments_path, params):
    """The rungs built are the bottom of the ladder, each once, no more than
    max(largest width index, first rung equal to the building mask); the
    top rung reuses the building mask."""
    scales = list(scales)  # building the stack below adds to a counting list
    stack = tophat.build_stack(raster.load_heightfield(dsm_path), params)
    top = stack.cumulative_masks[-1]
    saturated = next(
        i for i, m in enumerate(stack.cumulative_masks, start=1) if np.array_equal(m, top)
    )
    largest = max(s.width_index for s in load_segments_csv(segments_path))
    assert scales == params.scales()[: len(scales)]
    assert len(scales) <= max(largest, saturated)
    assert params.top_scale not in scales


def test_tophat_ladder_built_only_for_widths(small_scene, tmp_path, run_cli, rung_builds):
    scales = rung_builds
    dsm, truth, out = small_scene["dsm"], small_scene["truth"], small_scene["out"]
    params = TophatParams(scale_min=10, scale_max=40)

    def built(*argv):
        scales.clear()
        assert run_cli(*argv, *SMALL_SCALE_ARGS) == 0
        return list(scales)

    run_all = built(
        "run-all", "--dsm", dsm, "--ortho", small_scene["ortho"], "--truth", truth, "--out", out
    )
    _check_width_walk(run_all, dsm, out / "segments_filtered.csv", params)
    detect = built("detect-lines", "--dsm", dsm, "--ortho", small_scene["ortho"], "--out", out)
    assert detect == run_all
    assert built("extract-mask", "--dsm", dsm, "--out", out) == []
    for method in ("graphcut", "planefit"):
        assert built("sharpen", "--method", method, "--dsm", dsm, "--out", out) == []
    assert built(
        "evaluate", "--dsm", dsm, "--truth", truth, "--out", out,
        "--variant", f"planefit={out / 'adjusted_planefit.asc'}",
    ) == []
    # the dump reuses the mask stage's building mask as its top rung
    dump = built("extract-mask", "--dsm", dsm, "--out", tmp_path / "dump", "--dump-stack")
    scales = dumped_scales(tmp_path / "dump")
    assert dump == [s for s in scales if s != params.top_scale]
    assert scales == params.scales()[: len(scales)]


def test_run_all_truth_on_finer_grid(small_scene, tmp_path, run_cli, rung_builds):
    """A truth on another grid gets its own contour mask, from the original
    DSM resampled onto it; the width walk still runs once."""
    truth = raster.load_heightfield(small_scene["truth"])
    fine_vals = np.repeat(np.repeat(truth.values, 2, axis=0), 2, axis=1)
    fine = raster.Heightfield(fine_vals, cell_size=truth.cell_size / 2, origin=truth.origin)
    fine_path = tmp_path / "fine_truth.asc"
    raster.save_heightfield(fine, fine_path)
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", fine_path, "--method", "planefit", "--out", small_scene["out"],
        "--set", "tophat.scale_min=20", "--set", "tophat.scale_max=80",
    )
    assert code == 0
    params = TophatParams(scale_min=20, scale_max=80)
    _check_width_walk(
        rung_builds, small_scene["dsm"], small_scene["out"] / "segments_filtered.csv", params
    )
    rows = (small_scene["out"] / "rmse_report.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["original", "planefit"]


def _perfbench(name):
    """A benchmark module (perfbench/<name>.py), loaded from its file as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 of each workload's inputs per seed, as the benchmark writes them
BENCH_INPUTS = {
    1: {
        "city": {
            "truth.asc": "82b732d1162298bb3df9c2557d50308a848ac3cfb567af3699ef8b4fcfb7d905",
            "dsm.asc": "d0e4c5feade0eee7ce229a035b87ef137a31ea507dc763a0967564ef4a703101",
            "ortho.pgm": "8445d41af3ba7434e9a6b91984cb14a5c838f6e0c1cea5fddb3d7ec0c91f8a0d",
        },
        "clutter": {
            "truth.asc": "406d474d6ac6d7ef1cd5a25d000a2a6a04e9351b6487e8cae2888470231aa65c",
            "dsm.asc": "c76b8ebbae09f8a3dc63ec0315940fbcb34b2d62f42d009ee98b86fa129c0474",
            "ortho.pgm": "178920495f1a8022c2b633b358c69ba9b37b54b7e102059986f266653bfaa1ff",
        },
        "chain": {
            "truth.asc": "7407b9c0e086ad34a369f4dc47760aa6fba113b962af0af27c66e6b7be22e354",
            "dsm.asc": "20b3a685229c528f1541ffa90a5f99d1617055bbecfa870d95e73e9bc64b1a68",
            "ortho.pgm": "a4f532b263605af508d9e43e9671861f2a0e151a53e22878e30ae7aee96fe45c",
        },
    },
    2: {
        "city": {
            "truth.asc": "82b732d1162298bb3df9c2557d50308a848ac3cfb567af3699ef8b4fcfb7d905",
            "dsm.asc": "56afe76d798f64079c2f30cc83d457ee9c119479f9ac779cfdc4a0c3a08ac169",
            "ortho.pgm": "8445d41af3ba7434e9a6b91984cb14a5c838f6e0c1cea5fddb3d7ec0c91f8a0d",
        },
        "clutter": {
            "truth.asc": "406d474d6ac6d7ef1cd5a25d000a2a6a04e9351b6487e8cae2888470231aa65c",
            "dsm.asc": "3e65976bbb5992e550aea4b7430f322e76ca6807fce319b13ca077cc0ef05f8b",
            "ortho.pgm": "ddd863ae3272c5d3963adb66de67f9e51dde6e1355ecbd90be322485f1d04746",
        },
        "chain": {
            "truth.asc": "7407b9c0e086ad34a369f4dc47760aa6fba113b962af0af27c66e6b7be22e354",
            "dsm.asc": "7735da70240ff156dca2ab8810df1ef237f74bcb9e9306d31e90fb00a1fb3780",
            "ortho.pgm": "a4f532b263605af508d9e43e9671861f2a0e151a53e22878e30ae7aee96fe45c",
        },
    },
}


def bench_cases(table):
    """(workload, seed) of every seed in ``table``; a seed-1 case is named by
    its workload alone."""
    return [
        pytest.param(workload, seed, id=workload if seed == 1 else f"{workload}-seed{seed}")
        for seed in table
        for workload in sorted(table[seed])
    ]


@pytest.mark.parametrize("workload, seed", bench_cases(BENCH_INPUTS))
def test_bench_inputs_do_not_move(tmp_path, workload, seed):
    """A change to the scene generator or the writers that moves the
    benchmark's inputs fails here, not in a later bench comparison."""
    scenes = _perfbench("scenes")
    assert scenes.write_inputs(workload, seed, tmp_path) == BENCH_INPUTS[seed][workload]


# each workload's output digest per seed (the first 16 hex digits of
# perfbench/run.py's _digest): its timed invocations, then its quality ones
BENCH_OUTPUTS = {
    1: {
        "city": ["97783fbca3599d06"],
        "clutter": ["71f4aa2582a685ab", "c20903955e30aafd"],
        "chain": ["67310bf21f745ece"],
    },
    2: {
        "city": ["4e2590e8f487bc46"],
        "clutter": ["7ef43d1558d6db05", "7d32b26bdf70a25c"],
        "chain": ["d070dea86d156f01"],
    },
}


@pytest.mark.parametrize("workload, seed", bench_cases(BENCH_OUTPUTS))
def test_bench_outputs_do_not_move(tmp_path, workload, seed):
    """The benchmark's invocations, run in process, write the files the
    benchmark's digests were recorded from: a change that moves any output
    byte fails here, not in a later bench comparison."""
    run, scenes = _perfbench("run"), _perfbench("scenes")
    spec = run.WORKLOADS[workload]
    dirs = {"in": tmp_path / "in", "out": tmp_path / "out", "first": tmp_path / "out"}
    scenes.write_inputs(workload, seed, dirs["in"])
    digests = []
    for kind, out in (("timed", tmp_path / "out"), ("quality", tmp_path / "quality")):
        if kind in spec:
            for argv, _ in spec[kind]:
                assert cli.main(run._fill(argv, **dict(dirs, out=out))) == 0
            digests.append(run._digest(out)[:16])
    assert digests == BENCH_OUTPUTS[seed][workload]


# SHA-256 of every file run-all writes with --debug and a cross-section, which
# the benchmark's invocations never ask for: on the 64 px test scene, where
# graph-cut moves nothing (offsets_dx equals offsets_dy), and on README's 256 px
# scene, where it moves points
DEBUG_OUTPUTS = {
    "small": {
        "adjusted_graphcut.asc": "e08e915c4e6acb92965f5bbe1d18226fba0705322e0fd2141cdfd1f11a5aa1fb",
        "adjusted_planefit.asc": "8b1d63ef2bda1d6d59c9f80682c8e04be4745517419c159bcd1102c9313a0d42",
        "boundary_contours.pgm": "992a81bdd50f14b930c72d4af7f6e32fe25f64d294c48797d1cc630b302a38a3",
        "building_mask.pgm": "90c2a39b62eb3bf2c2e0477468692743c53dffab728d3fee88d0a75857b7779c",
        "cross_section.csv": "4c3f027358f2b4bac1ad3032de9889b011dce783b99d3c21d0361520382df707",
        "labeling.csv": "60c0440b1f8d352fcd49d6642172ed3876f12f4672419d2ac3116bc0f7eeb5aa",
        "offsets_dx.asc": "bbe7e908adf5a6fca75b9ea14df8588b300e9bfcf8052e6cc385f0824971f283",
        "offsets_dy.asc": "bbe7e908adf5a6fca75b9ea14df8588b300e9bfcf8052e6cc385f0824971f283",
        "planes.csv": "f93fed5a5dd10f9fe8ab510b5736dac67230995cd7074c7ee9c9fc4ed892f461",
        "rmse_report.csv": "1ff930b6e892edb5212245c7428864cf8d12975252ef46c627fde6f0ad6f0d70",
        "segments_filtered.csv": "4357cd284e13f1c4794da19bd1fd53fc11c27183bad76e02d29fda272cdea2c6",
        "segments_raw.csv": "9e04ee122f8407e4b8e8162e4b17c2c64a734632c4494ac68de1e887ba24b058",
        "sweep_graphcut.csv": "b4c63baeec3d724781d5c25048377c4737c58eeef38b65066204c5497988b4dd",
        "sweep_original.csv": "b4c63baeec3d724781d5c25048377c4737c58eeef38b65066204c5497988b4dd",
        "sweep_planefit.csv": "1f8e59433821d1092695d1dea82cc0a0e524332d746e3c20486726c12e461f34",
    },
    "readme": {
        "adjusted_graphcut.asc": "6571cd1461165b031df8063f79db834cc229afd354150fd7742f612c960ab403",
        "adjusted_planefit.asc": "61a9c870f9ec3685d1d106a1b94c0abba65841dfa7957d18d1d796a071d9bed6",
        "boundary_contours.pgm": "cf0fcd78a9133ec4dc5da8168b3d70af08cc87197f03af06bd12ba08490c8795",
        "building_mask.pgm": "1b926b681676f89cf92bbc54db66f3a59d1f0be771efbe26b9a863ff2bae9455",
        "cross_section.csv": "1f1e2c32e3f33021c2afdde6d8516406824ccdf232647434cf67f58cb767f8f1",
        "labeling.csv": "795e6f65ca224698b0208bdf6252bd46277c35c4efe4295ab01fecb6b0f3c169",
        "offsets_dx.asc": "e6f137c0b0d180a613ee26ce85266bf5e6efb0b0e9bce1b688500d615d821caf",
        "offsets_dy.asc": "0642ebc24e436c876e1c835c8a5d50af53322ec053e097b865bdb765bef0eefd",
        "planes.csv": "2cfe4b5c2912194b51726bad2f8f5306374a75a57f3a6dd828838b62c442a52a",
        "rmse_report.csv": "794d8814353f98ac8a71ece34a660ce22a28e9bb5166568a6bd577d54b7b6293",
        "segments_filtered.csv": "05044826e3864a961831d81d2da2d65963347faff26b65f7d10387971186f0c9",
        "segments_raw.csv": "783df667f9cff99d8c46a888f2ec3c03e41bcd73e0c8c639fa313ee739f37911",
        "sweep_graphcut.csv": "97826db7e6bb57dc232f6956a10d77aca66558d164c7edfb62e65e1fc572b03d",
        "sweep_original.csv": "5278cb6059f53fb9f9954b4cd44f68598cfe4355ca14f97a6f448e804f3bafba",
        "sweep_planefit.csv": "a4e98066aad0cca662b19288ae854e6a6cbb11d9b34d0608fe54dd21d5522550",
    },
}
DEBUG_SCENES = {
    "small": (None, SMALL_SCALE_ARGS, "5,32,58,32"),
    "readme": (
        SceneSpec(
            dims=(256, 256), buildings=[Building((128, 128), (80, 80), 10.0)],
            boundary_blur_sigma=2.0, noise_sigma=0.05, seed=7,
        ),
        (),
        "40,128,216,128",
    ),
}


@pytest.mark.parametrize("scene", sorted(DEBUG_SCENES))
def test_debug_outputs_do_not_move(small_scene, run_cli, scene):
    spec, scale_args, section = DEBUG_SCENES[scene]
    if spec is not None:
        truth, smeared, ortho = synth.generate(spec)
        raster.save_heightfield(truth, small_scene["truth"])
        raster.save_heightfield(smeared, small_scene["dsm"])
        raster.save_image(ortho, small_scene["ortho"])
    assert run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--method", "both", "--out", small_scene["out"],
        "--debug", "--set", f"eval.section={section}", *scale_args,
    ) == 0
    files = sorted(small_scene["out"].iterdir())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert digests == DEBUG_OUTPUTS[scene]


def test_every_benchmark_invocation_parses(tmp_path):
    """Each argument list the benchmark passes to the CLI, timed and
    quality, parses and reaches the subcommand it names."""
    run = _perfbench("run")
    dirs = {"in": tmp_path / "in", "out": tmp_path / "out", "first": tmp_path / "first"}
    funcs = {
        workload: [
            cli.build_parser().parse_args(run._fill(argv, **dirs)).func
            for argv, _ in [*spec["timed"], *spec.get("quality", [])]
        ]
        for workload, spec in run.WORKLOADS.items()
    }
    assert funcs == {
        "city": [cli.cmd_run_all],
        "clutter": [cli.cmd_run_all, cli.cmd_sharpen, cli.cmd_evaluate],
        "chain": [cli.cmd_extract_mask, cli.cmd_detect_lines, cli.cmd_sharpen, cli.cmd_sharpen,
                  cli.cmd_evaluate],
    }


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer wraps still exists and
    takes the keywords the tracer passes, so a refactor that drops one fails
    here instead of breaking a traced run."""
    tracing = _perfbench("tracing")
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    # the tracer hands these two a list of its own by keyword
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for fn, name in ((graphcut.minimize, "energy_trace"), (planefit.adjust_all, "debug_rows")):
        param = inspect.signature(fn).parameters.get(name)
        assert param is not None and param.kind in keyword, f"{fn.__name__}({name}=...)"


def test_traced_run_all_counts_every_graph_cut_step(small_scene, run_cli, monkeypatch):
    tracing = _perfbench("tracing")
    # the tracer replaces module attributes and adds a log handler; the
    # originals come back after the test
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(logging.getLogger("dsmsharp.planefit"), "handlers", [])
    tracer = tracing.Tracer(0)
    tracer.install()
    code = run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", small_scene["out"], *SMALL_SCALE_ARGS,
    )
    assert code == 0
    values = tracing.layer_values(tracer.spans, tracer.counts)
    for step in ("build_problem", "minimize", "interpolate_offsets", "warp_dsm"):
        assert values[f"graphcut.{step}.calls"] == 1, step
    assert values["graphcut.points"] > 0 and values["graphcut.pairs"] > 0
    assert values["planefit.adjust_all.calls"] == 1 and values["planefit.sides"] > 0
    # every stage calls the names the tracer wraps, so no per-layer count reads 0
    for name in ("tophat.boundary_contours.calls", "tophat.contour_points", "lines.raw",
                 "lines.filtered", "lines.width_matched", "evaluate.report.calls"):
        assert values[name] > 0, name


def test_stage_functions_give_the_files_run_all_writes(small_scene, tmp_path, run_cli):
    """The public stage functions, run in memory and saved with the CLI's
    writers, give run-all's files byte for byte, its debug dumps included."""
    out = small_scene["out"]
    assert run_cli(
        "run-all", "--dsm", small_scene["dsm"], "--ortho", small_scene["ortho"],
        "--truth", small_scene["truth"], "--out", out, "--debug", *SMALL_SCALE_ARGS,
    ) == 0
    cfg = config.build_config(None, {"tophat.scale_min": "10", "tophat.scale_max": "40"})
    dsm, ortho = raster.load_heightfield(small_scene["dsm"]), raster.load_image(small_scene["ortho"])
    top, contour_mask = cli.mask_stage(dsm, cfg.tophat)
    raw, _, matched = cli.lines_stage(dsm, ortho, top.mask, contour_mask, cfg)
    ramps = graphcut.ramp_contours(top)
    variants, extras = {"original": dsm}, {}
    for method in ("graphcut", "planefit"):
        variants[method], extras[method] = cli.sharpen_stage(method, dsm, matched, ramps)
    truth = raster.load_heightfield(small_scene["truth"])
    reports = cli.score_stage(truth, variants, contour_mask, cfg.eval_widths)

    mine = tmp_path / "mine"
    mine.mkdir()
    raster.save_mask(top.mask, mine / "building_mask.pgm")
    raster.save_mask(contour_mask, mine / "boundary_contours.pgm")
    save_segments_csv(raw, mine / "segments_raw.csv")
    save_segments_csv(matched, mine / "segments_filtered.csv")
    for method in ("graphcut", "planefit"):
        raster.save_heightfield(variants[method], mine / f"adjusted_{method}.asc")
    planefit.save_planes_csv(extras["planefit"], mine / "planes.csv")
    problem, offsets, dx, dy = extras["graphcut"]
    graphcut.save_labeling_csv(problem, offsets, mine / "labeling.csv")
    raster.save_heightfield(dsm.like(dx), mine / "offsets_dx.asc")
    raster.save_heightfield(dsm.like(dy), mine / "offsets_dy.asc")
    rows = [(cfg.region, name, rep) for name, rep in reports.items()]
    evaluate.write_report_csv(rows, mine / "rmse_report.csv", cfg.eval_widths)
    assert len(list(mine.iterdir())) == 11
    for path in mine.iterdir():
        assert path.read_bytes() == (out / path.name).read_bytes(), path.name


# ---------------------------------------------------------------------------
# every subcommand ends in 0 or 2 under random settings
# ---------------------------------------------------------------------------

_COMMANDS = {
    "synth": ["synth", "--scene", "{scene}"],
    "extract-mask": ["extract-mask", "--dsm", "{dsm}"],
    "extract-mask-dump-stack": ["extract-mask", "--dsm", "{dsm}", "--dump-stack"],
    "detect-lines": ["detect-lines", "--dsm", "{dsm}", "--ortho", "{ortho}"],
    "sharpen-planefit": ["sharpen", "--method", "planefit", "--dsm", "{dsm}",
                         "--segments", "{segments}"],
    "sharpen-graphcut": ["sharpen", "--method", "graphcut", "--dsm", "{dsm}",
                         "--segments", "{segments}"],
    "evaluate": ["evaluate", "--dsm", "{dsm}", "--truth", "{truth}", "--variant", "v={dsm}"],
    "run-all": ["run-all", "--dsm", "{dsm}", "--ortho", "{ortho}", "--truth", "{truth}"],
}

# every key but the output directory, which the flag sets
_SET_KEYS = sorted(k for k in config._KEYS if k != "out")

_SET_VALUES = st.one_of(
    st.integers(-10, 10**30).map(str),
    st.floats(-1e300, 1e300).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "0", "1,2", "3,4,5,6", "0,0,0,0", "x"]),
    st.text(alphabet="0123456789.,-+eEnaif x", max_size=8),
)


@pytest.fixture(scope="module")
def scene_inputs(tmp_path_factory):
    """The 64x64 one-building scene, its filtered segments and its scene file."""
    base = tmp_path_factory.mktemp("scene")
    spec = SceneSpec(dims=(64, 64), buildings=[Building((32, 32), (28, 28), 10.0)],
                     boundary_blur_sigma=1.5, noise_sigma=0.02, seed=5)
    truth, smeared, ortho = synth.generate(spec)
    paths = {"truth": base / "truth.asc", "dsm": base / "dsm.asc", "ortho": base / "ortho.pgm",
             "scene": scene_file(base, SCENE), "segments": base / "segments_filtered.csv"}
    raster.save_heightfield(truth, paths["truth"])
    raster.save_heightfield(smeared, paths["dsm"])
    raster.save_image(ortho, paths["ortho"])
    assert cli.main(["detect-lines", "--dsm", str(paths["dsm"]), "--ortho", str(paths["ortho"]),
                     "--out", str(base), *SMALL_SCALE_ARGS]) == 0
    return paths


# the largest values a setting can take; the random draws above seldom
# pair one with a command that reaches the stage using it
@pytest.mark.parametrize("value", [str(10**30), "1e300"])
@pytest.mark.parametrize("key", _SET_KEYS)
def test_extreme_setting_of_any_key_ends_in_exit_0_or_2(scene_inputs, tmp_path, key, value):
    argv = [a.format(**scene_inputs) for a in _COMMANDS["run-all"]]
    argv += ["--out", str(tmp_path / "out"), *SMALL_SCALE_ARGS, "--set", f"{key}={value}"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
        code = cli.main(argv)
    assert code in (0, 2)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2)


@settings(max_examples=80)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    pairs=st.lists(st.tuples(st.sampled_from(_SET_KEYS), _SET_VALUES), min_size=1, max_size=3),
)
def test_random_settings_end_in_exit_0_or_2(scene_inputs, tmp_path_factory, command, pairs):
    argv = [a.format(**scene_inputs) for a in _COMMANDS[command]]
    argv += ["--out", str(tmp_path_factory.mktemp("out")), *SMALL_SCALE_ARGS]
    for key, value in pairs:
        argv += ["--set", f"{key}={value}"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in (0, 2)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2)
    assert "Traceback" not in err
