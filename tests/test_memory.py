"""The grid loader, the white tophat, the plane fit and the RMSE report
against the straightforward versions they replace, and guards on the memory
they take and the modules a run imports.

The references hold whole grids where the package works in place or line by
line: the loader decodes the whole file and splits its lines, the tophat
builds its opening from ``raster.erode`` and ``raster.dilate``, the plane fit
copies the DSM for every side, and the report thresholds the distance map
once per width. The package must reproduce them bit for bit, and raise the
same errors.
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dsmsharp
from dsmsharp import evaluate as ev
from dsmsharp import planefit as pf
from dsmsharp import raster, synth
from dsmsharp.lines import LineSegment
from dsmsharp.raster import BinaryMask, GridFormatError, Heightfield
from dsmsharp.synth import Building, SceneSpec
from dsmsharp.tophat import white_tophat

NODATAS = [-9999.0, -np.inf, np.inf]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_load_heightfield(path):
    path = Path(path)
    lines = raster.read_text(path, GridFormatError).splitlines()
    header = {}
    for lineno, key in enumerate(raster._HEADER_KEYS, start=1):
        if lineno > len(lines):
            raise GridFormatError(f"{path}: line {lineno}: malformed header: missing '{key}'")
        parts = lines[lineno - 1].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise GridFormatError(f"{path}: line {lineno}: malformed header: expected '{key}'")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise GridFormatError(
                f"{path}: line {lineno}: malformed header: bad value {parts[1]!r}"
            ) from None
        if key != "nodata_value" and not math.isfinite(header[key]):
            raise GridFormatError(
                f"{path}: line {lineno}: malformed header: non-finite {key} {parts[1]!r}"
            )
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols <= 0 or nrows <= 0 or ncols != header["ncols"] or nrows != header["nrows"]:
        raise GridFormatError(f"{path}: line 1: malformed header: bad grid dimensions")
    if header["cellsize"] <= 0:
        raise GridFormatError(f"{path}: line 5: malformed header: cellsize must be positive")
    nodata = header["nodata_value"]
    cells = np.empty(
        (min(nrows, len(lines)), min(ncols, max(map(len, lines)))), dtype=np.float64
    )
    row = 0
    for lineno in range(7, len(lines) + 1):
        tokens = lines[lineno - 1].split()
        if not tokens:
            continue
        if row >= nrows:
            raise GridFormatError(f"{path}: line {lineno}: cell count mismatch: extra data row")
        if len(tokens) != ncols:
            raise GridFormatError(
                f"{path}: line {lineno}: cell count mismatch: "
                f"expected {ncols} values, found {len(tokens)}"
            )
        try:
            cells[row] = [float(t) for t in tokens]
        except ValueError:
            raise GridFormatError(f"{path}: line {lineno}: bad cell value") from None
        if not (np.isfinite(cells[row]) | (cells[row] == nodata)).all():
            raise GridFormatError(f"{path}: line {lineno}: non-finite cell value")
        row += 1
    if row != nrows:
        raise GridFormatError(
            f"{path}: line {len(lines)}: cell count mismatch: "
            f"expected {nrows} data rows, found {row}"
        )
    return Heightfield(cells, header["cellsize"], (header["xllcorner"], header["yllcorner"]), nodata)


def reference_white_tophat(dsm, se_size):
    se_half = se_size // 2
    opened = raster.dilate(raster.erode(dsm, se_half), se_half)
    ok = dsm.valid_mask() & opened.valid_mask()
    with np.errstate(invalid="ignore"):  # nodata minus nodata, when infinite
        return dsm.like(np.where(ok, dsm.values - opened.values, dsm.nodata))


def reference_adjust_all(dsm, segments, debug_rows):
    work = dsm.copy()
    for seg in segments:
        half_width = pf.buffer_half_width(seg.width_index)
        for sample in pf.collect_side_pixels(work, seg, half_width):
            if len(sample) == 0:
                continue
            try:
                plane = pf.fit_plane(sample)
            except (pf.InsufficientSupportError, pf.DegenerateGeometryError):
                plane = pf.PlaneParams(0.0, 0.0, float(sample.pixels[:, 2].mean()))
            work = pf.apply_plane(work, sample, plane)
            debug_rows.append(
                (
                    repr(seg.p1[0]), repr(seg.p1[1]), repr(seg.p2[0]), repr(seg.p2[1]),
                    sample.side, repr(plane.a), repr(plane.b), repr(plane.c), len(sample),
                )
            )
    return work


def reference_report(computed, truth, distance, widths):
    per_buffer = {w: ev.rmse(computed, truth, BinaryMask(distance <= w)) for w in widths}
    return ev.RmseReport(ev.rmse(computed, truth), per_buffer)


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def same_field(a, b):
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.values.shape == b.values.shape
        and (a.cell_size, a.origin) == (b.cell_size, b.origin)
        and a.nodata == b.nodata or (math.isnan(a.nodata) and math.isnan(b.nodata))
    )


def holey_field(rng, shape, nodata, holes=3):
    """Random heights with rectangular nodata holes, one of them large."""
    values = rng.normal(20.0, 8.0, shape)
    h, w = shape
    for k in range(holes):
        size = max(h, w) // 2 if k == 0 else int(rng.integers(1, 4))
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        values[y : y + size, x : x + size] = nodata
    return Heightfield(values, nodata=nodata)


# ---------------------------------------------------------------------------
# Grid loader
# ---------------------------------------------------------------------------

# the separators str.splitlines splits at
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82A", b"\x80", b"\xf8"]


def _grid_text(rng, nodata):
    """The lines of a small grid with nodata holes."""
    h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    hf = holey_field(rng, (h, w), nodata, holes=1)
    lines = [f"ncols {w}", f"nrows {h}", "xllcorner 10.5", "yllcorner -3.0", "cellsize 0.5",
             f"NODATA_value {nodata!r}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in hf.values]
    return lines


def _corrupt(rng, lines):
    edits = ["header", "cell", "drop", "repeat", "blank", "extra", "token"]
    for _ in range(int(rng.integers(0, 3))):
        kind = edits[int(rng.integers(len(edits)))]
        i = int(rng.integers(len(lines)))
        if kind == "header":
            key = (lines[min(i, 5)].split() or ["ncols"])[0]
            lines[min(i, 5)] = key + " " + ["x", "nan", "-1", "0"][i % 4]
        elif kind == "cell" and len(lines) > 6:
            lines[max(i, 6)] = lines[max(i, 6)].replace(" ", " nan ", 1) + " inf"
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "blank":
            lines.insert(i, " \t")
        elif kind == "extra":
            lines.append("1.0 " * 3)
        else:
            lines[i] = lines[i] + " 7"
    return lines


def _ended(rng, lines):
    """Each line with a random line break after it."""
    return [line + _BREAKS[int(rng.integers(len(_BREAKS)))] for line in lines]


def _join(rng, lines):
    text = "".join(_ended(rng, lines))
    return text[: len(text) - int(rng.integers(0, 2))]  # sometimes no final break


@pytest.mark.parametrize("nodata", NODATAS)
def test_load_matches_the_whole_text_loader(tmp_path, nodata):
    rng = np.random.default_rng(NODATAS.index(nodata))
    path = tmp_path / "g.asc"
    loaded = failed = 0
    for _ in range(400):
        data = _join(rng, _corrupt(rng, _grid_text(rng, nodata))).encode("utf-8")
        path.write_bytes(data)
        want = outcome(reference_load_heightfield, path)
        got = outcome(raster.load_heightfield, path)
        header = outcome(raster.read_grid_header, path)
        if isinstance(want, Heightfield):
            loaded += 1
            assert same_field(got, want), data
            # repr, so that a NaN nodata compares equal
            assert repr(header) == repr(raster.GridHeader(
                want.width, want.height, want.cell_size, want.origin, want.nodata)), data
        else:
            failed += 1
            assert got == want, data
            if "malformed header" in want[1]:
                assert header == want, data
            else:
                assert isinstance(header, raster.GridHeader), data
    assert loaded > 50 and failed > 50


def test_bytes_that_are_not_utf8_win_over_every_other_fault(tmp_path):
    # a bad header line comes first; the undecodable bytes sit anywhere after it
    rng = np.random.default_rng(11)
    path = tmp_path / "g.asc"
    for _ in range(300):
        lines = _grid_text(rng, -9999.0)
        bad = int(rng.integers(6))
        lines[bad] = "nonsense 1"
        ended = _ended(rng, lines)
        data = bytearray("".join(ended).encode("utf-8"))
        start = len("".join(ended[: bad + 1]).encode("utf-8"))
        at = int(rng.integers(start, len(data) + 1))
        data[at:at] = _NOT_UTF8[int(rng.integers(len(_NOT_UTF8)))]
        path.write_bytes(bytes(data))
        want = outcome(reference_load_heightfield, path)
        assert "not UTF-8 text" in want[1]
        assert outcome(raster.load_heightfield, path) == want, bytes(data)
        assert outcome(raster.read_grid_header, path) == want, bytes(data)


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\u2028"])
def test_line_breaks_across_the_read_buffer(tmp_path, brk):
    # the reader decodes the file in blocks of 8 KiB; rows are 19 characters
    # plus the break, so at one of the paddings a break straddles a block end
    path = tmp_path / "g.asc"
    header = ["ncols 3", "nrows 1000", "xllcorner 0", "yllcorner 0", "cellsize 1",
              "NODATA_value -9999"]
    rows = [f"{r:5d}.25 {r:5d}.5 1" for r in range(1000)]
    for pad in range(22):
        text = brk.join(header + [" " * pad + rows[0]] + rows[1:])
        path.write_bytes(text.encode("utf-8"))
        assert same_field(raster.load_heightfield(path), reference_load_heightfield(path))
        path.write_bytes((text + brk).encode("utf-8") + b"\xff")
        assert outcome(raster.load_heightfield, path) == outcome(reference_load_heightfield, path)


def test_load_without_a_file_size_keeps_rows_as_read(tmp_path, monkeypatch):
    # a file that reports no size (a pipe, say) still loads, row by row
    path = tmp_path / "g.asc"
    raster.save_heightfield(holey_field(np.random.default_rng(2), (6, 5), -np.inf), path)
    want = reference_load_heightfield(path)
    real_stat = Path.stat
    monkeypatch.setattr(Path, "stat", lambda p, **kw: os.stat_result((0,) * 10)
                        if p == path else real_stat(p, **kw))
    assert same_field(raster.load_heightfield(path), want)


# ---------------------------------------------------------------------------
# White tophat, plane fit, report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodata", NODATAS)
def test_white_tophat_matches_erode_then_dilate(nodata):
    rng = np.random.default_rng(21)
    for shape in [(1, 1), (1, 7), (9, 1), (17, 23), (40, 31)]:
        dsm = holey_field(rng, shape, nodata)
        for se_size in (1, 2, 3, 4, 7, 15, 200):
            got = white_tophat(dsm, se_size)
            assert same_field(got, reference_white_tophat(dsm, se_size)), (shape, se_size)


def _segments(rng, n, h, w):
    segs = []
    while len(segs) < n:
        p1 = (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        p2 = (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        if p1 != p2:
            segs.append(LineSegment(p1, p2, width_index=int(rng.integers(1, 5))))
    return segs


@pytest.mark.parametrize("nodata", NODATAS)
def test_adjust_all_matches_a_copy_per_side(nodata):
    rng = np.random.default_rng(31)
    # a side of two cells along the top row, and a side of one column along
    # the left edge: each takes the constant plane at its mean height
    degenerate = [LineSegment((3.0, 0.5), (4.0, 0.5), width_index=1),
                  LineSegment((1.0, 40.0), (1.0, 44.0), width_index=2)]
    for _ in range(3):
        dsm = holey_field(rng, (48, 56), nodata)
        segments = [*degenerate, *_segments(rng, 12, 48, 56)]
        got_rows, want_rows = [], []
        got = pf.adjust_all(dsm, segments, debug_rows=got_rows)
        want = reference_adjust_all(dsm, segments, want_rows)
        assert same_field(got, want)
        assert got_rows == want_rows
        constant = [row[8] for row in got_rows[:4] if row[5] == row[6] == repr(0.0)]
        assert constant == [2, 5], got_rows[:4]


@pytest.mark.parametrize("nodata", NODATAS)
def test_report_matches_one_threshold_per_width(nodata):
    rng = np.random.default_rng(51)
    shape = (37, 29)
    computed = holey_field(rng, shape, nodata)
    truth = holey_field(rng, shape, nodata)
    boundary = np.zeros(shape, dtype=bool)
    boundary[10:20, 12] = True
    distance = ev.boundary_distance(BinaryMask(boundary))
    widths = tuple(range(1, int(distance.max()) + 4)) + (5, 1000)
    got = ev.report(computed, truth, distance, widths)
    want = reference_report(computed, truth, distance, widths)
    assert got.whole_image == want.whole_image
    assert got.per_buffer == want.per_buffer
    # no boundary: every width scopes nothing
    empty = ev.boundary_distance(BinaryMask(np.zeros(shape, dtype=bool)))
    assert outcome(ev.report, computed, truth, empty, (3,)) == outcome(
        reference_report, computed, truth, empty, (3,)
    )


def test_report_work_is_bounded_by_the_grid():
    # widths beyond the largest distance all read the whole grid; scoring a
    # million of them takes no longer than a few hundred threshold passes
    rng = np.random.default_rng(61)
    computed = Heightfield(rng.normal(size=(32, 32)))
    truth = Heightfield(rng.normal(size=(32, 32)))
    boundary = np.zeros((32, 32), dtype=bool)
    boundary[16, 8:24] = True
    distance = ev.boundary_distance(BinaryMask(boundary))
    reach = int(distance.max())
    widths = tuple(range(1, 10**6 + 1))
    start = time.perf_counter()
    rep = ev.report(computed, truth, distance, widths)
    elapsed = time.perf_counter() - start
    want = reference_report(computed, truth, distance, tuple(range(1, reach + 3)))
    assert [rep.per_buffer[w] for w in range(1, reach + 3)] == list(want.per_buffer.values())
    assert rep.per_buffer[10**6] == rep.whole_image == want.whole_image
    assert len(rep.per_buffer) == 10**6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Memory guards
# ---------------------------------------------------------------------------

N = 512
GRID = N * N * 8


def traced_peak(fn, *args):
    """Peak bytes the call allocates beyond what was live when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_grid_load_holds_its_cells_and_one_line(tmp_path):
    path = tmp_path / "g.asc"
    raster.save_heightfield(holey_field(np.random.default_rng(71), (N, N), -9999.0), path)
    longest = max(map(len, path.read_bytes().splitlines()))
    hf, peak = traced_peak(raster.load_heightfield, path)
    # a line's text, its tokens (a str object each) and their floats take a
    # small multiple of its length; the file is over 500 such lines
    assert peak - hf.values.nbytes < 16 * longest
    assert 16 * longest < path.stat().st_size / 16


def test_white_tophat_peaks_under_three_grids():
    dsm = holey_field(np.random.default_rng(72), (N, N), -9999.0)
    _, peak = traced_peak(white_tophat, dsm, 41)
    assert peak < 3 * GRID


def test_cell_check_allocates_no_grid():
    # -inf holes make the extremes non-finite: the check still reads only them
    dsm = holey_field(np.random.default_rng(74), (N, N), -np.inf)
    copy, peak = traced_peak(dsm.copy)
    assert peak - copy.values.nbytes < GRID / 64
    _, peak = traced_peak(dsm.like, dsm.values)
    assert peak < GRID / 64
    _, peak = traced_peak(raster.finite_or_nodata, dsm.values, dsm.nodata)
    assert peak < GRID / 64


def test_adjust_all_peak_does_not_grow_with_the_sides():
    dsm = holey_field(np.random.default_rng(73), (N, N), -9999.0)

    def rows(k):
        return [LineSegment((20.0, 10.5 + 12 * i), (480.0, 10.5 + 12 * i), width_index=2)
                for i in range(k)]

    peaks = []
    for k in (1, 40):
        out, peak = traced_peak(pf.adjust_all, dsm, rows(k))
        # beyond the output: collect_side_pixels's arrays over one segment's
        # bounding box (0.34-0.41 grid); the copy's finite-or-nodata check
        # allocates nothing
        assert peak - out.values.nbytes < GRID / 2
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < GRID / 8


# ---------------------------------------------------------------------------
# Imports
# ---------------------------------------------------------------------------

# the names of the scipy modules the interpreter has loaded; scipy serves
# graph-cut's solvers only, so no other command may load any
_SCIPY = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


def _python(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(dsmsharp.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_graphcut_solvers_load_only_when_graphcut_runs(tmp_path, run_cli):
    # the 64 px scene with a sigma-2 blur, whose ramps graph-cut does move
    spec = SceneSpec((64, 64), 0.0, [Building((32, 32), (28, 28), 10.0)], 2.0, 0.02, 5)
    _, smeared, ortho = synth.generate(spec)
    scene = {"dsm": str(tmp_path / "dsm.asc"), "ortho": str(tmp_path / "ortho.pgm"),
             "out": str(tmp_path / "out")}
    raster.save_heightfield(smeared, scene["dsm"])
    raster.save_image(ortho, scene["ortho"])
    assert run_cli("detect-lines", "--dsm", scene["dsm"], "--ortho", scene["ortho"],
                   "--out", scene["out"], "--set", "tophat.scale_max=40") == 0
    segments = str(tmp_path / "out" / "segments_filtered.csv")
    assert run_cli("sharpen", "--method", "graphcut", "--dsm", scene["dsm"], "--segments",
                   segments, "--out", tmp_path / "here", "--set", "tophat.scale_max=40") == 0
    code = f"""
import sys
import dsmsharp.cli

def solvers():
    return {_SCIPY}

def loaded(part):
    return any(m.split(".")[:2] == ["scipy", part] for m in sys.modules)

print(solvers())
for method in ("planefit", "graphcut"):
    code = dsmsharp.cli.main(["sharpen", "--method", method, "--dsm", {scene["dsm"]!r},
                              "--out", {scene["out"]!r}, "--set", "tophat.scale_max=40"])
    print(code, solvers() == [], loaded("sparse"), loaded("spatial"))
"""
    printed = _python(code, tmp_path).splitlines()
    # graph-cut loads scipy's sparse max-flow; densification needs no KD-tree
    assert printed == ["[]", "0 True False False", "0 False True False"]
    name = "adjusted_graphcut.asc"
    adjusted = tmp_path / "out" / name
    assert adjusted.read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert (raster.load_heightfield(adjusted).values != smeared.values).any()


def test_run_all_planefit_loads_no_graphcut_solver(small_scene, tmp_path):
    scene = {k: str(v) for k, v in small_scene.items()}
    code = f"""
import sys
import dsmsharp.cli

code = dsmsharp.cli.main(["run-all", "--method", "planefit", "--dsm", {scene["dsm"]!r},
                          "--ortho", {scene["ortho"]!r}, "--truth", {scene["truth"]!r},
                          "--out", {scene["out"]!r}, "--set", "tophat.scale_max=40"])
print(code, {_SCIPY})
"""
    assert _python(code, tmp_path).splitlines()[-1] == "0 []"  # after the report rows


def test_every_command_but_graphcut_loads_no_scipy(small_scene, tmp_path):
    scene = {k: str(v) for k, v in small_scene.items()}
    (tmp_path / "scene.cfg").write_text("width = 32\nheight = 32\nblur_sigma = 1.5\n"
                                         "building = 16 16 10 10 5\n")
    out, small = scene["out"], ["--set", "tophat.scale_max=40"]
    commands = [
        ["synth", "--scene", "scene.cfg", "--out", "synth"],
        ["extract-mask", "--dsm", scene["dsm"], "--out", out, *small],
        ["detect-lines", "--dsm", scene["dsm"], "--ortho", scene["ortho"], "--out", out, *small],
        ["sharpen", "--method", "planefit", "--dsm", scene["dsm"], "--out", out, *small],
        ["evaluate", "--dsm", scene["dsm"], "--truth", scene["truth"], "--out", out,
         "--variant", f"planefit={out}/adjusted_planefit.asc", *small],
        ["run-all", "--method", "planefit", "--dsm", scene["dsm"], "--ortho", scene["ortho"],
         "--truth", scene["truth"], "--out", "all", *small],
    ]
    code = f"""
import contextlib, io, sys
import dsmsharp.cli

print("import", {_SCIPY})
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):  # the report rows
        code = dsmsharp.cli.main(argv)
    print(argv[0], code, {_SCIPY})
"""
    assert _python(code, tmp_path).splitlines() == [
        "import []", "synth 0 []", "extract-mask 0 []", "detect-lines 0 []", "sharpen 0 []",
        "evaluate 0 []", "run-all 0 []",
    ]
