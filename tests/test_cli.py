import numpy as np
import pytest

from dsmsharp import cli, raster, synth
from dsmsharp.lines import load_segments_csv
from dsmsharp.synth import Building, SceneSpec

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
    overlap = (mask.bits & footprint).sum() / footprint.sum()
    assert overlap > 0.95
    contours = raster.load_mask(small_scene["out"] / "boundary_contours.pgm")
    assert 0 < contours.count() < mask.count()


def test_extract_mask_flat_scene(tmp_path, run_cli):
    hf = raster.Heightfield(np.zeros((32, 32)))
    p = tmp_path / "flat.asc"
    raster.save_heightfield(hf, p)
    out = tmp_path / "o"
    assert run_cli("extract-mask", "--dsm", p, "--out", out, *SMALL_SCALE_ARGS) == 0
    assert raster.load_mask(out / "building_mask.pgm").count() == 0


def test_extract_mask_missing_input(tmp_path, run_cli, capsys):
    missing = tmp_path / "nope.asc"
    assert run_cli("extract-mask", "--dsm", missing, "--out", tmp_path / "o") == 2
    assert str(missing) in capsys.readouterr().err


def test_extract_mask_dump_stack(small_scene, run_cli):
    code = run_cli(
        "extract-mask", "--dsm", small_scene["dsm"], "--out", small_scene["out"],
        "--dump-stack", *SMALL_SCALE_ARGS,
    )
    assert code == 0
    stack_dir = small_scene["out"] / "stack"
    assert len(list(stack_dir.glob("mask_*.pgm"))) == 4
    assert len(list(stack_dir.glob("contours_*.pgm"))) == 4


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
    assert raster.load_mask(small_scene["out"] / "building_mask.pgm").count() == 0


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
        "graphcut.line_buffer_radius=-1",
        "lines.boundary_buffer_radius=-1",
        "lines.overlap_radius=-2",
    ],
)
def test_invalid_config_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting):
    err = _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting)
    assert setting.split("=")[0] in err


@pytest.mark.parametrize(
    "setting",
    [
        "detector.gradient_threshold=nan",
        "detector.angle_tolerance=nan",
        "detector.min_length=inf",
        "detector.smoothing_sigma=-inf",
        "tophat.height_threshold=nan",
        "graphcut.smooth_radius=inf",
        "eval.section=10,32,nan,32",
    ],
)
def test_non_finite_float_rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch,
                                                   setting):
    key, _, value = setting.partition("=")
    err = _rejected_before_any_work(small_scene, run_cli, capsys, monkeypatch, setting)
    assert err == f"error: bad value {value!r} for {key}\n"


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
def stack_calls(monkeypatch):
    """Arguments of every build_stack call the CLI makes."""
    calls = []
    real = cli.build_stack

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_stack", counting)
    return calls


def test_tophat_ladder_built_only_for_widths(small_scene, tmp_path, run_cli, stack_calls):
    calls = stack_calls
    dsm, truth, out = small_scene["dsm"], small_scene["truth"], small_scene["out"]

    def count(*argv):
        calls.clear()
        assert run_cli(*argv, *SMALL_SCALE_ARGS) == 0
        return len(calls)

    assert count(
        "run-all", "--dsm", dsm, "--ortho", small_scene["ortho"], "--truth", truth, "--out", out
    ) == 1
    assert count("detect-lines", "--dsm", dsm, "--ortho", small_scene["ortho"], "--out", out) == 1
    assert count("extract-mask", "--dsm", dsm, "--out", out) == 0
    for method in ("graphcut", "planefit"):
        assert count("sharpen", "--method", method, "--dsm", dsm, "--out", out) == 0
    assert count(
        "evaluate", "--dsm", dsm, "--truth", truth, "--out", out,
        "--variant", f"planefit={out / 'adjusted_planefit.asc'}",
    ) == 0
    assert count("extract-mask", "--dsm", dsm, "--out", tmp_path / "dump", "--dump-stack") == 1


def test_run_all_truth_on_finer_grid(small_scene, tmp_path, run_cli, stack_calls):
    """A truth on another grid gets its own contour mask, from the original
    DSM resampled onto it; the ladder still runs once."""
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
    assert len(stack_calls) == 1
    rows = (small_scene["out"] / "rmse_report.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["original", "planefit"]
