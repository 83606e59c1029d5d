import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmsharp import raster
from dsmsharp.raster import (
    GridFormatError,
    Heightfield,
    ImageFormatError,
    RasterImage,
)


# ---------------------------------------------------------------------------
# ESRI ASCII grid
# ---------------------------------------------------------------------------


def test_load_simple_grid(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\n"
        "NODATA_value -9999.0\n1.0 2.0\n3.0 4.0\n"
    )
    hf = raster.load_heightfield(p)
    assert hf.width == 2 and hf.height == 2
    assert hf.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_zero_ncols_is_malformed(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text(
        "ncols 0\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
    )
    with pytest.raises(GridFormatError, match="malformed header"):
        raster.load_heightfield(p)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        raster.load_heightfield("/nonexistent/grid.asc")


def test_cell_count_mismatch_reports_line(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
        "1 2\n3\n"
    )
    with pytest.raises(GridFormatError, match="line 8.*cell count mismatch"):
        raster.load_heightfield(p)


_GRID = (
    "ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\n"
    "NODATA_value -9999.0\n1.0 2.0\n3.0 4.0\n"
)


def _grid_with(tmp_path, line, text):
    """_GRID with its 1-based ``line`` replaced by ``text``, written to disk."""
    lines = _GRID.splitlines()
    lines[line - 1] = text
    p = tmp_path / "g.asc"
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.mark.parametrize(
    "line, text",
    [
        (1, "ncols inf"),
        (1, "ncols nan"),
        (2, "nrows -inf"),
        (2, "nrows 1e400"),
        (3, "xllcorner inf"),
        (3, "xllcorner nan"),
        (4, "yllcorner -inf"),
        (5, "cellsize nan"),
        (5, "cellsize inf"),
    ],
)
def test_non_finite_header_is_malformed(tmp_path, line, text):
    p = _grid_with(tmp_path, line, text)
    with pytest.raises(GridFormatError, match=f"{p}: line {line}: malformed header: non-finite"):
        raster.load_heightfield(p)


@pytest.mark.parametrize("value", ["0", "-1.5"])
def test_non_positive_cellsize_is_malformed(tmp_path, value):
    p = _grid_with(tmp_path, 5, f"cellsize {value}")
    with pytest.raises(GridFormatError, match="line 5: malformed header"):
        raster.load_heightfield(p)


def test_infinite_nodata_marker_is_kept(tmp_path):
    p = _grid_with(tmp_path, 6, "NODATA_value -inf")
    p.write_text(p.read_text().replace("2.0", "-inf"))
    hf = raster.load_heightfield(p)
    assert hf.nodata == -np.inf
    assert hf.valid_mask().tolist() == [[True, False], [True, True]]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_reports_line(tmp_path, cell):
    p = _grid_with(tmp_path, 8, f"3.0 {cell}")
    with pytest.raises(GridFormatError, match="line 8: non-finite cell value"):
        raster.load_heightfield(p)


@pytest.mark.parametrize("line, text", [(1, "ncols 1e300"), (2, "nrows 100000000000")])
def test_huge_dimensions_fail_on_the_rows(tmp_path, line, text):
    # dimensions no file of this size can hold are never allocated
    p = _grid_with(tmp_path, line, text)
    with pytest.raises(GridFormatError, match="cell count mismatch"):
        raster.load_heightfield(p)


_TOKENS = ["nan", "inf", "-inf", "1e400", "1e20", "0", "-1", "2.5", "3", "x", "", "1 2", "-9999.0"]


@st.composite
def _corrupted_grids(draw):
    """A small valid grid with one to three edits to its header or rows."""
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.floats(-50, 50), min_size=nrows * ncols, max_size=nrows * ncols))
    header = [["ncols", str(ncols)], ["nrows", str(nrows)], ["xllcorner", "10.5"],
              ["yllcorner", "-3.0"], ["cellsize", "0.5"], ["NODATA_value", "-9999.0"]]
    rows = [[repr(v) for v in cells[r * ncols : (r + 1) * ncols]] for r in range(nrows)]
    lines = [" ".join(h) for h in header] + [" ".join(r) for r in rows]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["header", "key", "cell", "drop", "repeat", "insert"]))
        token = draw(st.sampled_from(_TOKENS))
        if kind == "header":
            i = draw(st.integers(0, 5))
            lines[i] = f"{header[i][0]} {token}"
        elif kind == "key":
            i = draw(st.integers(0, 5))
            lines[i] = f"{token} {header[i][1]}"
        elif kind == "cell":
            r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
            rows[r][c] = token
            lines[6 + r] = " ".join(rows[r])
        elif kind == "drop" and len(lines) > 1:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "repeat":
            i = draw(st.integers(0, len(lines) - 1))
            lines.insert(i, lines[i])
        else:
            i = draw(st.integers(0, len(lines)))
            lines.insert(i, draw(st.text(alphabet=" \t.-+eE019naifx#", max_size=6)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(text=_corrupted_grids())
def test_corrupted_grid_raises_only_grid_format_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("grid") / "g.asc"
    p.write_text(text)
    try:
        hf = raster.load_heightfield(p)
    except GridFormatError as exc:
        assert str(exc).startswith(f"{p}: line ")
    else:
        assert np.isfinite(hf.values[hf.valid_mask()]).all()


def test_grid_that_is_not_utf8_names_file_and_line(tmp_path):
    p = tmp_path / "g.asc"
    p.write_bytes(b"ncols 1\nnrows 1\r\nxllcorner 0\n\xff")
    with pytest.raises(GridFormatError) as exc:
        raster.load_heightfield(p)
    assert str(exc.value) == f"{p}: line 4: not UTF-8 text (byte 0xff)"


def test_roundtrip_random_grid(tmp_path):
    rng = np.random.default_rng(42)
    vals = rng.normal(5.0, 3.0, (16, 16))
    # signed zero, the smallest subnormal, the largest float, whole numbers, nodata
    vals[0, :6] = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, -12.0, -9999.0]
    hf = Heightfield(vals, cell_size=0.25, origin=(100.5, -3.25))
    p = tmp_path / "g.asc"
    raster.save_heightfield(hf, p)
    body = p.read_text().splitlines()[6:]
    assert body == [" ".join(repr(float(v)) for v in row) for row in hf.values]
    back = raster.load_heightfield(p)
    assert np.array_equal(back.values, hf.values)
    assert np.signbit(back.values[0, 0])
    assert back.cell_size == hf.cell_size
    assert back.origin == hf.origin
    assert back.nodata == hf.nodata


def test_constant_field_body(tmp_path):
    hf = Heightfield(np.full((4, 4), 5.0))
    p = tmp_path / "g.asc"
    raster.save_heightfield(hf, p)
    body = p.read_text().splitlines()[6:]
    assert "".join(body).count("5") == 16


def test_nodata_cell_written_as_sentinel(tmp_path):
    vals = np.ones((3, 3))
    vals[1, 1] = -9999.0
    hf = Heightfield(vals, nodata=-9999.0)
    p = tmp_path / "g.asc"
    raster.save_heightfield(hf, p)
    row = p.read_text().splitlines()[7]
    assert row.split()[1] == "-9999.0"
    back = raster.load_heightfield(p)
    assert back.values[1, 1] == back.nodata


def test_heightfield_invariants():
    with pytest.raises(ValueError):
        Heightfield(np.ones((2, 2)), cell_size=0.0)
    with pytest.raises(ValueError):
        Heightfield(np.array([[np.nan, 1.0], [2.0, 3.0]]))
    # nan allowed only when it is not a data cell
    vals = np.array([[1.0, -9999.0], [2.0, 3.0]])
    assert Heightfield(vals).valid_mask().sum() == 3


def test_finite_or_nodata_matches_the_cellwise_rule():
    # the cellwise definition is the oracle for the check read off the extremes
    cells = [0.0, -1.5, np.inf, -np.inf, np.nan, -9999.0]
    for nodata in (-9999.0, 0.0, np.inf, -np.inf, np.nan):
        for n in (1, 2, 3):
            for combo in itertools.product(cells, repeat=n):
                values = np.array(combo)
                want = bool((np.isfinite(values) | (values == nodata)).all())
                assert raster.finite_or_nodata(values, nodata) == want, (combo, nodata)


@pytest.mark.parametrize(
    "georef",
    [dict(cell_size=np.nan), dict(cell_size=np.inf), dict(origin=(np.inf, 0.0)),
     dict(origin=(0.0, np.nan))],
)
def test_heightfield_rejects_non_finite_georeferencing(georef):
    with pytest.raises(ValueError, match="finite"):
        Heightfield(np.ones((2, 2)), **georef)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_write_csv_bytes(tmp_path):
    p = tmp_path / "t.csv"
    row = ("a b", 3, 0.1, np.float64(17.262687636245108), None)
    raster.write_csv(p, ["s", "i", "f", "np", "none"], [row])
    assert p.read_bytes() == b"s,i,f,np,none\r\na b,3,0.1,17.262687636245108,\r\n"


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------


def test_load_tiny_pgm(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\n1 1\n255\n" + bytes([128]))
    img = raster.load_image(p)
    assert img.bands == 1
    assert img.samples.tolist() == [[128]]


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    img = RasterImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
    p = tmp_path / "i.ppm"
    raster.save_image(img, p)
    back = raster.load_image(p)
    assert back.bands == 3
    assert np.array_equal(back.samples, img.samples)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    img = RasterImage(rng.integers(0, 256, (5, 7), dtype=np.uint8))
    p = tmp_path / "i.pgm"
    raster.save_image(img, p)
    assert np.array_equal(raster.load_image(p).samples, img.samples)


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ImageFormatError, match="unsupported maxval"):
        raster.load_image(p)


def test_unsupported_magic(tmp_path):
    p = tmp_path / "i.pbm"
    p.write_bytes(b"P4\n1 1\n\x00")
    with pytest.raises(ImageFormatError, match="unsupported magic"):
        raster.load_image(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ImageFormatError, match="truncated payload"):
        raster.load_image(p)


def test_pnm_comments(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([1, 2]))
    assert raster.load_image(p).samples.tolist() == [[1, 2]]


_PNM_RUNS = [b" ", b"\n", b"#", b"0", b"255", b"-1", b"P5", b"P6", b"x", b"\xff", b"\x80\xc3",
             b"9" * 5000]


@st.composite
def _corrupted_pnms(draw):
    """A small valid PGM or PPM with one to three byte edits, most of them in
    the header: overwrites, insertions, deletions and truncations, with
    digits, comments, signs, non-ASCII bytes and very long numbers."""
    bands = draw(st.sampled_from([1, 3]))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    payload = draw(st.binary(min_size=w * h * bands, max_size=w * h * bands))
    data = (b"P5" if bands == 1 else b"P6") + f"\n{w} {h}\n255\n".encode() + payload
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        i = draw(st.integers(0, min(len(data), 12)) | st.integers(0, len(data)))
        run = draw(st.sampled_from(_PNM_RUNS) | st.binary(min_size=1, max_size=3))
        if kind == "set":
            data = data[:i] + run + data[i + len(run) :]
        elif kind == "insert":
            data = data[:i] + run + data[i:]
        elif kind == "delete":
            data = data[:i] + data[i + draw(st.integers(1, 3)) :]
        else:
            data = data[:i]
    return data


@settings(max_examples=300)
@given(data=_corrupted_pnms())
def test_corrupted_pnm_raises_only_image_format_error(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("pnm") / "i.pnm"
    p.write_bytes(data)
    try:
        img = raster.load_image(p)
    except ImageFormatError as exc:
        assert str(exc).startswith(f"{p}: ")
    else:
        assert img.samples.dtype == np.uint8 and img.bands in (1, 3)


def test_pnm_header_number_too_long(tmp_path):
    p = tmp_path / "i.pgm"
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n" + bytes(4))
    with pytest.raises(ImageFormatError, match="header value too long"):
        raster.load_image(p)


def test_mask_roundtrip(tmp_path):
    bits = np.zeros((4, 4), dtype=bool)
    bits[1:3, 2] = True
    p = tmp_path / "m.pgm"
    raster.save_mask(bits, p)
    assert np.array_equal(raster.load_mask(p), bits)


# ---------------------------------------------------------------------------
# Grayscale
# ---------------------------------------------------------------------------


def test_grayscale_equal_bands():
    img = RasterImage(np.full((1, 1, 3), 90, dtype=np.uint8))
    assert raster.grayscale(img).samples[0, 0] == 90


def test_grayscale_mean_rounding():
    img = RasterImage(np.array([[[0, 255, 0]]], dtype=np.uint8))
    assert raster.grayscale(img).samples[0, 0] == 85


def test_grayscale_single_band_identity():
    img = RasterImage(np.array([[7, 9]], dtype=np.uint8))
    out = raster.grayscale(img)
    assert np.array_equal(out.samples, img.samples)


def test_two_band_image_rejected():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((2, 2, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Morphology
# ---------------------------------------------------------------------------


def naive_erode(values, valid, se_half, nodata):
    """Reference window-min scan, O(n * k^2)."""
    h, w = values.shape
    out = np.full((h, w), nodata)
    for y in range(h):
        for x in range(w):
            lo_y, hi_y = max(0, y - se_half), min(h, y + se_half + 1)
            lo_x, hi_x = max(0, x - se_half), min(w, x + se_half + 1)
            win = values[lo_y:hi_y, lo_x:hi_x]
            ok = valid[lo_y:hi_y, lo_x:hi_x]
            if ok.any():
                out[y, x] = win[ok].min()
    return out


def test_erode_constant():
    hf = Heightfield(np.full((10, 10), 3.5))
    for k in (0, 1, 4):
        assert np.array_equal(raster.erode(hf, k).values, hf.values)
        assert np.array_equal(raster.dilate(hf, k).values, hf.values)


def test_erode_zero_is_identity():
    rng = np.random.default_rng(0)
    hf = Heightfield(rng.normal(size=(6, 6)))
    assert np.array_equal(raster.erode(hf, 0).values, hf.values)


def test_erode_matches_naive_scan():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(20, 24))
    vals[rng.random((20, 24)) < 0.1] = -9999.0
    hf = Heightfield(vals)
    for k in (1, 3):
        got = raster.erode(hf, k).values
        want = naive_erode(vals, hf.valid_mask(), k, hf.nodata)
        assert np.array_equal(got, want)


def test_dilate_is_dual_of_erode():
    rng = np.random.default_rng(8)
    hf = Heightfield(rng.normal(size=(16, 16)))
    k = 2
    dual = -raster.erode(Heightfield(-hf.values), k).values
    assert np.allclose(raster.dilate(hf, k).values, dual)


def test_erode_dilate_sandwich_and_monotone():
    rng = np.random.default_rng(9)
    hf = Heightfield(rng.normal(size=(18, 18)))
    e1, e3 = raster.erode(hf, 1).values, raster.erode(hf, 3).values
    d1, d3 = raster.dilate(hf, 1).values, raster.dilate(hf, 3).values
    assert (e1 <= hf.values).all() and (hf.values <= d1).all()
    assert (e3 <= e1).all() and (d3 >= d1).all()


def test_opening_anti_extensive():
    rng = np.random.default_rng(10)
    hf = Heightfield(rng.normal(size=(16, 16)))
    for k in (1, 2, 4):
        opened = raster.dilate(raster.erode(hf, k), k)
        assert (opened.values <= hf.values + 1e-12).all()


def test_fully_nodata_window_stays_nodata():
    vals = np.full((9, 9), -9999.0)
    vals[0, 0] = 5.0
    hf = Heightfield(vals)
    out = raster.erode(hf, 1)
    assert out.values[8, 8] == hf.nodata
    assert out.values[0, 0] == 5.0


@pytest.mark.parametrize("shape", [(16, 12), (1, 7)])
@pytest.mark.parametrize("beyond", [1, 10**7])
def test_windows_beyond_the_grid_equal_the_grid_sized_window(shape, beyond):
    rng = np.random.default_rng(sum(shape))
    vals = rng.normal(size=shape)
    vals[rng.random(shape) < 0.2] = -9999.0
    hf = Heightfield(vals)
    bits = rng.random(shape) < 0.1
    grid = max(shape) - 1  # this half size already spans the grid from any cell
    eroded = raster.erode(hf, grid + beyond).values
    assert eroded.tobytes() == naive_erode(vals, hf.valid_mask(), grid, hf.nodata).tobytes()
    for op in (raster.erode, raster.dilate):
        assert op(hf, grid + beyond).values.tobytes() == op(hf, grid).values.tobytes()
    dilated = raster.dilate_mask(bits, grid + beyond)
    assert dilated.tobytes() == raster.dilate_mask(bits, grid).tobytes()


# ---------------------------------------------------------------------------
# Mask dilation
# ---------------------------------------------------------------------------


def test_dilate_mask_radius0_identity():
    rng = np.random.default_rng(11)
    m = rng.random((9, 9)) < 0.3
    assert np.array_equal(raster.dilate_mask(m, 0), m)


def test_dilate_mask_single_bit_block():
    bits = np.zeros((11, 11), dtype=bool)
    bits[5, 5] = True
    out = raster.dilate_mask(bits, 2)
    want = np.zeros((11, 11), dtype=bool)
    want[3:8, 3:8] = True
    assert np.array_equal(out, want)


def test_dilate_mask_matches_chebyshev_oracle():
    rng = np.random.default_rng(12)
    bits = rng.random((15, 14)) < 0.15
    radius = 3
    out = raster.dilate_mask(bits, radius)
    ys, xs = np.nonzero(bits)
    want = np.zeros_like(bits)
    for y in range(bits.shape[0]):
        for x in range(bits.shape[1]):
            if len(xs) and (np.maximum(np.abs(xs - x), np.abs(ys - y)) <= radius).any():
                want[y, x] = True
    assert np.array_equal(out, want)


def test_dilate_mask_monotone_in_radius():
    rng = np.random.default_rng(13)
    m = rng.random((12, 12)) < 0.2
    prev = raster.dilate_mask(m, 0)
    for r in (1, 2, 4):
        cur = raster.dilate_mask(m, r)
        assert (prev <= cur).all()
        prev = cur


# ---------------------------------------------------------------------------
# Contour tracing
# ---------------------------------------------------------------------------


def test_trace_empty_mask():
    assert raster.trace_contours(np.zeros((5, 5), bool)) == []


def test_trace_3x3_block():
    bits = np.zeros((7, 7), bool)
    bits[2:5, 2:5] = True
    cs = raster.trace_contours(bits)
    assert len(cs) == 1
    c = cs[0]
    assert c.closed and len(c) == 8
    border = {(x, y) for y in range(2, 5) for x in range(2, 5) if not (x == 3 and y == 3)}
    assert {tuple(p) for p in c.points} == border


def test_trace_two_components():
    bits = np.zeros((12, 12), bool)
    bits[1:4, 1:4] = True
    bits[7:11, 6:10] = True
    assert len(raster.trace_contours(bits)) == 2


def test_contours_rasterize_back_inside_mask():
    rng = np.random.default_rng(21)
    for _ in range(10):
        bits = rng.random((24, 24)) < 0.4
        cs = raster.trace_contours(bits)
        for c in cs:
            assert bits[c.points[:, 1], c.points[:, 0]].all()


def test_contour_points_touch_background():
    bits = np.zeros((10, 10), bool)
    bits[2:8, 3:9] = True
    (c,) = raster.trace_contours(bits)
    padded = np.pad(bits, 1)
    for x, y in c.points:
        neigh = padded[y : y + 3, x : x + 3]
        assert not neigh.all()


def test_closed_contours_counter_clockwise():
    bits = np.zeros((9, 9), bool)
    bits[1:6, 2:8] = True
    (c,) = raster.trace_contours(bits)
    x, y = c.points[:, 0], c.points[:, 1]
    shoelace = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    assert shoelace > 0

    # the trace starts at a component's first pixel in raster order and
    # turns clockwise on screen: no closed contour has a negative sum, and a
    # contour along a trail one pixel thin has a zero sum
    rng = np.random.default_rng(31)
    sums = []
    for _ in range(40):
        mask = rng.random((40, 40)) < rng.uniform(0.2, 0.7)
        for c in raster.trace_contours(mask):
            if c.closed:
                x, y = c.points[:, 0], c.points[:, 1]
                sums.append(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    assert min(sums) == 0 and max(sums) > 0


def test_consecutive_contour_points_8_connected():
    bits = np.zeros((13, 13), bool)
    bits[2:11, 2:11] = True
    bits[2:5, 2:5] = False  # notch
    (c,) = raster.trace_contours(bits)
    pts = c.points
    nxt = np.roll(pts, -1, axis=0)
    gaps = np.abs(pts - nxt).max(axis=1)
    assert (gaps[:-1] <= 1).all()
    assert gaps[-1] <= 1  # closed: last connects to first


def test_trace_visits_every_outer_border_pixel():
    """Foreground pixels 4-adjacent to the outside background all appear in a
    contour (8-connected components pair with 4-connected background, so a
    pixel touching the outside only diagonally is not an outer border pixel)."""
    from scipy import ndimage

    rng = np.random.default_rng(22)
    for _ in range(15):
        bits = ndimage.binary_closing(rng.random((26, 26)) < 0.45)
        contours = raster.trace_contours(bits)
        traced = set()
        for c in contours:
            traced |= {tuple(p) for p in c.points}
        # outside background: flood from the border over ~bits
        bg_labels, _ = ndimage.label(~bits)
        border_ids = set(np.unique(np.r_[
            bg_labels[0, :], bg_labels[-1, :], bg_labels[:, 0], bg_labels[:, -1]
        ])) - {0}
        outside = np.isin(bg_labels, list(border_ids)) if border_ids else np.zeros_like(bits)
        padded_out = np.pad(outside, 1, constant_values=True)
        for y, x in zip(*np.nonzero(bits)):
            cross = (
                padded_out[y, x + 1]
                | padded_out[y + 2, x + 1]
                | padded_out[y + 1, x]
                | padded_out[y + 1, x + 2]
            )
            if cross:
                assert (x, y) in traced, (x, y)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def test_bresenham_endpoints_and_connectivity():
    pts = raster.bresenham_line(2, 3, 10, 7)
    assert tuple(pts[0]) == (2, 3) and tuple(pts[-1]) == (10, 7)
    steps = np.abs(np.diff(pts, axis=0)).max(axis=1)
    assert (steps == 1).all()


def reference_bresenham(x0, y0, x1, y1):
    """The classic error-accumulating loop, one step at a time."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    pts = []
    x, y = x0, y0
    while True:
        pts.append((x, y))
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy
    return np.array(pts, dtype=np.int64)


_coords = st.integers(-1000, 1000)


@settings(max_examples=500)
@given(ends=st.tuples(_coords, _coords, _coords, _coords),
       box=st.none() | st.tuples(_coords, _coords, _coords, _coords))
def test_bresenham_closed_form_matches_the_loop(ends, box):
    want = reference_bresenham(*ends)
    if box is not None:
        xmin, ymin, xmax, ymax = box
        want = want[(xmin <= want[:, 0]) & (want[:, 0] <= xmax)
                    & (ymin <= want[:, 1]) & (want[:, 1] <= ymax)]
    got = raster.bresenham_line(*ends, box=box)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def test_bresenham_box_forms_only_its_own_steps():
    # three million steps, 46 of them in the box
    pts = raster.bresenham_line(3_000_000, 11, 18, 10, box=(0, 0, 63, 63))
    assert pts.tolist() == [[x, 10] for x in range(63, 17, -1)]


def test_bresenham_far_walk_gives_its_exact_points_in_the_box():
    # the closed form depends on the slope alone, so the first 12 steps of
    # the half-slope walk are those of the loop from (0, 0) to (22, 11)
    pts = raster.bresenham_line(0, 0, 10**6, 5 * 10**5, box=(0, 0, 11, 11))
    assert np.array_equal(pts, reference_bresenham(0, 0, 22, 11)[:12])


@pytest.mark.parametrize(
    "ends",
    [(0, 0, 10**18, 5 * 10**17), (0, 0, 4 * 10**18, 2 * 10**18), (-(10**19), 5, 5, 5)],
    ids=["1e18", "4e18", "end-past-int64"],
)
def test_bresenham_walk_past_int64_is_rejected(ends):
    # these once returned 9 points, or points off the line, or raised OverflowError
    with pytest.raises(ValueError, match=r"leaves int64"):
        raster.bresenham_line(*ends, box=(0, 0, 11, 11))


def test_bresenham_walk_that_misses_the_box_is_empty():
    pts = raster.bresenham_line(10**19, 0, 2 * 10**19, 3 * 10**18, box=(0, 0, 11, 11))
    assert pts.dtype == np.int64 and pts.shape == (0, 2)


def test_bilinear_ignores_nodata_of_zero_weight():
    vals = np.arange(16.0).reshape(4, 4)
    vals[1, 2] = -9999.0
    hf = Heightfield(vals)
    xs = np.array([1.0, 1.5, 1.0, 2.0, 3.0])
    ys = np.array([1.0, 1.0, 1.5, 1.0, 1.0])
    got, valid = raster.sample_bilinear(hf, xs, ys)
    # (1, 1) and (1, 1.5) never weigh the hole at (2, 1); (1.5, 1) and (2, 1) do
    assert valid.tolist() == [True, False, True, False, True]
    assert got[0] == 5.0 and got[2] == 7.0 and got[4] == 7.0
    assert got[1] == hf.nodata and got[3] == hf.nodata


@pytest.mark.parametrize("skip_nodata", [False, True])
def test_bilinear_ignores_infinite_nodata_of_zero_weight(skip_nodata):
    vals = np.arange(16.0).reshape(4, 4)
    vals[1, 2] = -np.inf
    hf = Heightfield(vals, nodata=-np.inf)
    got, valid = raster.sample_bilinear(
        hf, np.array([1.0, 1.0, 1.5]), np.array([1.0, 0.5, 1.0]), skip_nodata=skip_nodata
    )
    # (1, 1) and (1, 0.5) weigh the hole at (2, 1) by zero; (1.5, 1) by one half
    assert valid.tolist() == [True, True, skip_nodata]
    assert got[0] == 5.0 and got[1] == 3.0
    assert got[2] == (5.0 if skip_nodata else -np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("skip_nodata", [False, True])
def test_bilinear_rejects_non_finite_coords(bad, axis, skip_nodata):
    hf = Heightfield(np.arange(16.0).reshape(4, 4))
    coords = [np.array([1.0, 2.5, 0.0]), np.array([0.5, 1.0, 3.0])]
    coords[axis][1] = bad
    with pytest.raises(ValueError, match="sample coordinates must be finite"):
        raster.sample_bilinear(hf, *coords, skip_nodata=skip_nodata)


def test_bilinear_exact_at_integer_coords():
    rng = np.random.default_rng(30)
    hf = Heightfield(rng.normal(size=(6, 8)))
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
    vals, valid = raster.sample_bilinear(hf, xs.ravel(), ys.ravel())
    assert valid.all()
    assert np.array_equal(vals.reshape(6, 8), hf.values)
