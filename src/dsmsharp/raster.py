"""Raster containers and the low-level operations shared by the whole pipeline.

Heightfields travel as ESRI ASCII grids, images as binary PGM/PPM, masks as
PGM with 0/255; in memory a mask is an (h, w) bool array. Row 0 is always
the top image row; the ASCII-grid origin is the lower-left corner of the
raster footprint. All containers are treated as immutable after
construction, and every operation returns a new object except
``window_extreme``, which rewrites the work array it is given; so the
containers are safe to share between threads. Tables (segments, reports,
debug dumps) are written by ``write_csv``.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

DEFAULT_NODATA = -9999.0


class GridFormatError(ValueError):
    """Raised for malformed ESRI ASCII grid files (message carries the line number)."""


class ImageFormatError(ValueError):
    """Raised for unsupported or corrupt PGM/PPM files."""


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Heightfield:
    """Georeferenced single-band elevation raster (meters).

    ``values`` is a (height, width) float64 array in row-major top-to-bottom
    order. Cells equal to ``nodata`` are missing; every other cell is finite.
    ``origin`` is the world coordinate of the lower-left corner.
    """

    values: np.ndarray
    cell_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("heightfield must be a non-empty 2-d array")
        if not 0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be positive and finite")
        if len(self.origin) != 2 or not all(math.isfinite(v) for v in self.origin):
            raise ValueError("origin must be two finite coordinates")
        if not finite_or_nodata(self.values, self.nodata):
            raise ValueError("non-nodata cells must be finite")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def valid_mask(self) -> np.ndarray:
        return self.values != self.nodata

    def like(self, values: np.ndarray) -> "Heightfield":
        """New heightfield with the same georeferencing but different cells."""
        return Heightfield(values, self.cell_size, self.origin, self.nodata)

    def copy(self) -> "Heightfield":
        return self.like(self.values.copy())


def finite_or_nodata(values: np.ndarray, nodata: float) -> bool:
    """Whether every cell is finite or equal to nodata, read off the minimum
    and maximum alone: NaN propagates into both, and only an infinite nodata
    can be a non-finite extreme. No copy or mask of the cells is made."""
    lo, hi = values.min(), values.max()
    return (math.isfinite(lo) or lo == nodata) and (math.isfinite(hi) or hi == nodata)


@dataclass(eq=False)
class RasterImage:
    """8-bit intensity raster; ``samples`` is (h, w) or (h, w, 3) uint8."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.uint8)
        if self.samples.ndim != 2 and not (
            self.samples.ndim == 3 and self.samples.shape[2] == 3
        ):
            raise ValueError("image must have 1 or 3 bands")

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def bands(self) -> int:
        return 1 if self.samples.ndim == 2 else 3


@dataclass(eq=False)
class Contour:
    """Ordered trace of one region boundary.

    ``points`` is an (n, 2) int array of (x, y) pixel coordinates where
    consecutive points are 8-connected. The closed contours of
    ``trace_contours`` run clockwise on screen: their shoelace sum over
    (x, y) is never negative.
    """

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("contour points must be an (n, 2) array")

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _not_utf8(path, line: int, byte: int, error: type[ValueError]) -> ValueError:
    return error(f"{path}: line {line}: not UTF-8 text (byte {byte:#04x})")


def read_text(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """The file's text, decoded as UTF-8. A byte that does not decode raises
    ``error`` naming the path and the line (as splitlines counts them)."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise _not_utf8(path, line, data[exc.start], error) from None


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """The table as CSV in the csv module's default dialect (commas, \\r\\n
    line ends): the header, then one line per row. The csv module turns each
    value into text, so a float is its shortest exact decimal and None an
    empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# an undecodable byte b read with errors="surrogateescape" becomes U+DC00 + b;
# valid UTF-8 never decodes to a lone surrogate
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _text_lines(path: Path, error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the file, numbered and split as
    ``read_text(path).splitlines()`` would, read one line at a time. A byte
    that does not decode raises ``error`` as read_text does."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        lineno = 0
        # the reader ends a line at \n, \r or \r\n; splitlines also splits
        # at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        for chunk in fh:
            if not chunk.isascii():
                bad = _ESCAPED_BYTE.search(chunk)
                if bad:
                    line = lineno + len((chunk[: bad.start()] + ".").splitlines())
                    raise _not_utf8(path, line, ord(bad.group()) - 0xDC00, error)
            for line in chunk.splitlines():
                lineno += 1
                yield lineno, line


class GridHeader(NamedTuple):
    """The six header values of an ESRI ASCII grid, named as on Heightfield."""

    width: int
    height: int
    cell_size: float
    origin: tuple[float, float]
    nodata: float


def _failure(path: Path, lines: Iterator):
    """fail(lineno, message): the GridFormatError for a fault on that line of
    the file ``lines`` reads."""

    def fail(lineno: int, message: str) -> GridFormatError:
        for _ in lines:  # reading the rest raises for a byte that is not UTF-8
            pass
        return GridFormatError(f"{path}: line {lineno}: {message}")

    return fail


def _read_header(lines: Iterator, fail) -> GridHeader:
    """Consume and check the six header lines of ``lines``."""
    header: dict[str, float] = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
        text = next(lines, (lineno, None))[1]
        if text is None:
            raise fail(lineno, f"malformed header: missing '{key}'")
        parts = text.split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise fail(lineno, f"malformed header: expected '{key}'")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise fail(lineno, f"malformed header: bad value {parts[1]!r}") from None
        # the nodata marker is only compared against, so it may be infinite
        if key != "nodata_value" and not math.isfinite(header[key]):
            raise fail(lineno, f"malformed header: non-finite {key} {parts[1]!r}")

    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols <= 0 or nrows <= 0 or ncols != header["ncols"] or nrows != header["nrows"]:
        raise fail(1, "malformed header: bad grid dimensions")
    if header["cellsize"] <= 0:
        raise fail(5, "malformed header: cellsize must be positive")
    origin = (header["xllcorner"], header["yllcorner"])
    return GridHeader(ncols, nrows, header["cellsize"], origin, header["nodata_value"])


def read_grid_header(path: str | Path) -> GridHeader:
    """The header of an ESRI ASCII grid, checked as load_heightfield checks
    it. The cells are read only when the header is at fault, so that a byte
    that is not UTF-8 anywhere in the file wins as it does there."""
    path = Path(path)
    lines = _text_lines(path, GridFormatError)
    try:
        return _read_header(lines, _failure(path, lines))
    finally:
        lines.close()


def load_heightfield(path: str | Path) -> Heightfield:
    """Read an ESRI ASCII grid. Raises GridFormatError with the offending line.

    The file is read one line at a time, so a load holds the cells and one
    line of text. A byte that is not UTF-8 anywhere in the file is reported
    before any other fault, as if the whole text had been decoded first.
    """
    path = Path(path)
    lines = _text_lines(path, GridFormatError)
    fail = _failure(path, lines)
    header = _read_header(lines, fail)
    nrows, ncols, nodata = header.height, header.width, header.nodata

    # Every cell takes a character and a separator, so a file smaller than
    # that cannot hold the grid and fails the checks below: its cells are not
    # allocated up front but kept row by row (as are those of a file that
    # reports no size).
    fits = 2 * nrows * ncols <= path.stat().st_size + 1
    cells = np.empty((nrows, ncols)) if fits else []
    row, lineno = 0, len(_HEADER_KEYS)
    for lineno, text in lines:
        tokens = text.split()
        if not tokens:
            continue
        if row >= nrows:
            raise fail(lineno, "cell count mismatch: extra data row")
        if len(tokens) != ncols:
            raise fail(
                lineno, f"cell count mismatch: expected {ncols} values, found {len(tokens)}"
            )
        values = cells[row] if fits else np.empty(ncols)
        try:
            values[:] = [float(t) for t in tokens]
        except ValueError:
            raise fail(lineno, "bad cell value") from None
        if not finite_or_nodata(values, nodata):
            raise fail(lineno, "non-finite cell value")
        if not fits:
            cells.append(values)
        row += 1
    if row != nrows:
        raise fail(lineno, f"cell count mismatch: expected {nrows} data rows, found {row}")

    return Heightfield(cells, header.cell_size, header.origin, nodata)


def save_heightfield(hf: Heightfield, path: str | Path) -> None:
    """Write an ESRI ASCII grid, top row first. Every number is written as
    its shortest exact decimal (``repr`` of a Python float), so grids
    round-trip bit-exactly."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"ncols {hf.width}\n")
        fh.write(f"nrows {hf.height}\n")
        fh.write(f"xllcorner {float(hf.origin[0])!r}\n")
        fh.write(f"yllcorner {float(hf.origin[1])!r}\n")
        fh.write(f"cellsize {float(hf.cell_size)!r}\n")
        fh.write(f"NODATA_value {float(hf.nodata)!r}\n")
        for row in hf.values:
            fh.write(" ".join(map(repr, row.tolist())))
            fh.write("\n")


# ---------------------------------------------------------------------------
# PGM / PPM I/O
# ---------------------------------------------------------------------------


def _read_pnm_tokens(data: bytes, count: int, path: Path) -> tuple[list[int], int]:
    """Parse ``count`` ASCII integers after the magic, skipping '#' comments."""
    tokens: list[int] = []
    pos = 2
    while len(tokens) < count:
        if pos >= len(data):
            raise ImageFormatError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            if pos - start > 18:  # no image is this large, and int() rejects long digit runs
                raise ImageFormatError(f"{path}: header value too long")
            tokens.append(int(data[start:pos]))
        else:
            raise ImageFormatError(f"{path}: bad header byte {c!r}")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError(f"{path}: truncated header")
    return tokens, pos + 1


def load_image(path: str | Path) -> RasterImage:
    """Read a binary PGM (P5) or PPM (P6), maxval 255."""
    path = Path(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic == b"P5":
        bands = 1
    elif magic == b"P6":
        bands = 3
    else:
        raise ImageFormatError(f"{path}: unsupported magic number {magic!r}")
    (width, height, maxval), start = _read_pnm_tokens(data, 3, path)
    if maxval != 255:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval}")
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    need = width * height * bands
    payload = data[start : start + need]
    if len(payload) < need:
        raise ImageFormatError(f"{path}: truncated payload ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if bands == 1:
        return RasterImage(arr.reshape(height, width))
    return RasterImage(arr.reshape(height, width, 3))


def save_image(img: RasterImage, path: str | Path) -> None:
    """Write a binary PGM (1 band) or PPM (3 bands)."""
    path = Path(path)
    magic = b"P5" if img.bands == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + img.samples.tobytes())


def load_mask(path: str | Path) -> np.ndarray:
    """Read a PGM mask; any nonzero sample is foreground."""
    img = load_image(path)
    if img.bands != 1:
        raise ImageFormatError(f"{path}: mask must be single-band")
    return img.samples > 0


def save_mask(mask: np.ndarray, path: str | Path) -> None:
    """Write a mask as PGM with foreground 255."""
    save_image(RasterImage(np.where(mask, 255, 0).astype(np.uint8)), path)


def grayscale(img: RasterImage) -> RasterImage:
    """Equal-weight band mean, rounded half up; 1-band input passes through."""
    if img.bands == 1:
        return RasterImage(img.samples.copy())
    sums = img.samples.astype(np.int64).sum(axis=2)
    mean = np.floor(sums / 3.0 + 0.5).astype(np.uint8)
    return RasterImage(mean)


# ---------------------------------------------------------------------------
# Morphology
# ---------------------------------------------------------------------------


def erode(hf: Heightfield, se_half: int) -> Heightfield:
    """Minimum over the (2*se_half+1)^2 window clipped to the raster.

    Nodata cells are ignored inside the window; a window containing only
    nodata stays nodata.
    """
    return _extreme(hf, se_half, np.minimum, np.inf)


def dilate(hf: Heightfield, se_half: int) -> Heightfield:
    """Maximum over the (2*se_half+1)^2 window; nodata handled as in erode."""
    return _extreme(hf, se_half, np.maximum, -np.inf)


def _extreme(hf: Heightfield, se_half: int, extreme, pad: float) -> Heightfield:
    """erode or dilate: nodata cells take the pad, which every valid cell beats."""
    if se_half < 0:
        raise ValueError("se_half must be >= 0")
    work = np.where(hf.valid_mask(), hf.values, pad)
    window_extreme(work, se_half, extreme)
    work[work == pad] = hf.nodata
    return hf.like(work)


def dilate_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev (square) dilation into a new mask: set iff a set bit lies
    within distance radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    bits = mask.copy()
    window_extreme(bits, radius, np.maximum)
    return bits


# ---------------------------------------------------------------------------
# Grid kernels
#
# Each kernel gives, bit for bit, what scipy.ndimage gives for the same call
# (named in its docstring); the tests hold them to it. The separable ones
# work on 2-d "lines" arrays, one line per column, a slab of _SLAB columns
# at a time, so that their temporaries stay a small fraction of a grid.
# ---------------------------------------------------------------------------

_SLAB = 64


def window_extreme(work: np.ndarray, half: int, extreme) -> None:
    """Replace, in place, each cell of the 2-d ``work`` by the ``extreme``
    (np.minimum or np.maximum) of its (2*half+1)^2 window clipped to the grid.

    As scipy.ndimage's minimum_filter1d/maximum_filter1d of side 2*half+1
    along axis 0 and then axis 1, in constant mode with the extreme's
    identity (+inf, -inf or False) as the constant. Of cells that compare
    equal (+0.0 and -0.0) the window's last one is kept, as there.

    Along each axis the window is built by doubling: after k steps a cell
    holds the extreme of the 2**k cells from it on (fewer at the grid's
    end), and two such overlapping spans cover a window. np.minimum and
    np.maximum return their second argument on a tie, so every step keeps
    the later cell.
    """
    if half < 0:
        raise ValueError("half must be >= 0")
    for lines in (work, work.T):
        n, m = lines.shape
        size = 2 * min(int(half), max(n - 1, 0)) + 1  # a wider window covers the same cells
        span = 1 << (size.bit_length() - 1)  # the largest power of two <= size
        gap = size - span
        # lead copies of the first cell make cell i's window padded[i - gap :
        # i + span]; they are inside every window they reach, so change nothing
        lead = span - size // 2 - 1
        buf = np.empty((lead + n, min(m, _SLAB)), dtype=work.dtype)
        for j in range(0, m, _SLAB):
            cells = lines[:, j : j + _SLAB]
            padded = buf[:, : cells.shape[1]]
            padded[:lead] = cells[:1]
            padded[lead:] = cells
            step = 1
            while step < span:
                extreme(padded[:-step], padded[step:], out=padded[:-step])
                step *= 2
            extreme(padded[: n - gap], padded[gap:n], out=cells[gap:])
            extreme(padded[:1], padded[:gap], out=cells[:gap])


# the widest Gaussian accepted: its kernel reaches int(3 * sigma + 0.5) = 300
# cells, and its cost grows with the reach
GAUSSIAN_SIGMA_MAX = 100.0


def gaussian(values: np.ndarray, sigma: float) -> np.ndarray:
    """The 2-d ``values`` blurred by a Gaussian of ``sigma`` cells, as a new
    float64 array.

    As scipy.ndimage.gaussian_filter(values, sigma, truncate=3.0,
    mode="reflect"): the taps reach int(3 * sigma + 0.5) cells, the border
    is mirrored (d c b a | a b c d | d c b a) as often as the reach needs,
    and each output cell sums its taps in scipy's order, the centre first
    and then the symmetric pairs from the outermost in. ``sigma`` must lie
    in [0, GAUSSIAN_SIGMA_MAX]; that is checked before anything is
    allocated.
    """
    if not 0 <= sigma <= GAUSSIAN_SIGMA_MAX:
        raise ValueError(f"Gaussian sigma must be in [0, {GAUSSIAN_SIGMA_MAX:g}], got {sigma}")
    sigma = float(sigma)
    out = np.array(values, dtype=np.float64)
    reach = int(3.0 * sigma + 0.5)  # scipy's radius at truncate=3.0
    if reach == 0:  # the one tap is 1.0
        return out
    x = np.arange(-reach, reach + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    taps = phi / phi.sum()
    for lines in (out, out.T):
        n, m = lines.shape
        # the line's index at each padded position: the border mirrored, and
        # mirrored again wherever the reach passes the far end
        mirror = np.arange(-reach, n + reach) % (2 * n)
        mirror = np.where(mirror < n, mirror, 2 * n - 1 - mirror)
        total = np.empty((n, min(m, _SLAB)))
        pair = np.empty_like(total)
        for j in range(0, m, _SLAB):
            cells = lines[:, j : j + _SLAB]
            padded = cells.take(mirror, axis=0)
            t, p = total[:, : cells.shape[1]], pair[:, : cells.shape[1]]
            np.multiply(padded[reach : reach + n], taps[reach], out=t)
            for k in range(reach, 0, -1):
                np.add(padded[reach - k : reach - k + n], padded[reach + k : reach + k + n], out=p)
                p *= taps[reach - k]
                t += p
            cells[...] = t
    return out


def boundary_distance(boundary_mask: np.ndarray) -> np.ndarray:
    """Chessboard distance to the nearest boundary bit: ``distance <= w`` is
    ``dilate_mask(boundary_mask, w)``; beyond every width when empty.

    As scipy.ndimage.distance_transform_cdt(~bits, metric="chessboard"),
    int32. The distance along each row comes first; then one sweep down and
    one up take each row from its neighbour row's three nearest cells plus
    one, which is exact for the chessboard metric. Storing the distance
    minus the row index (plus it, going up) makes the "plus one" free.
    """
    bits = boundary_mask
    if not bits.any():
        return np.full(bits.shape, np.iinfo(np.int32).max, dtype=np.int32)
    h, w = bits.shape
    far = np.int32(1 << 29)  # beyond any grid, and far from overflow below
    x = np.arange(w, dtype=np.int32)
    before = np.where(bits, x, -far)
    np.maximum.accumulate(before, axis=1, out=before)
    after = np.where(bits, x, far)
    np.minimum.accumulate(after[:, ::-1], axis=1, out=after[:, ::-1])
    np.subtract(x, before, out=before)
    np.subtract(after, x, out=after)
    distance = np.minimum(before, after, out=before)
    y = np.arange(h, dtype=np.int32)[:, None]
    distance -= y
    _sweep_rows(distance)
    distance += 2 * y
    _sweep_rows(distance[::-1])
    distance -= y
    return distance


def _sweep_rows(grid: np.ndarray) -> None:
    """Lower each row of ``grid``, in order, to the smallest of the three
    nearest cells of the row before it."""
    minimum = np.minimum
    later, earlier = grid[1:], grid[:-1]
    for row, up, row_right, up_left, row_left, up_right in zip(
        later, earlier, later[:, 1:], earlier[:, :-1], later[:, :-1], earlier[:, 1:]
    ):
        minimum(row, up, out=row)
        minimum(row_right, up_left, out=row_right)
        minimum(row_left, up_right, out=row_left)


def label(bits: np.ndarray) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """8-connected components of the 2-d bool ``bits``.

    Returns int32 labels, 0 off the components and k on the k-th, numbered
    by their first cell in row-major order, and each component's bounding
    box as a (rows, columns) pair of slices: scipy.ndimage.label with a
    3x3 structure, and find_objects of its labels.

    Works on the row runs of set cells. A run touches the runs of the row
    above that overlap it widened by one cell; union-find joins touching
    runs under the smallest run index, which is the component's first run.
    """
    h, w = bits.shape
    edges = np.zeros((h, w + 2), dtype=bool)
    edges[:, 1:-1] = bits
    flips = np.flatnonzero(edges[:, 1:] != edges[:, :-1])  # on an (h, w + 1) grid
    row = flips[0::2] // (w + 1)
    start = flips[0::2] - row * (w + 1)
    stop = flips[1::2] - row * (w + 1)
    labels = np.zeros((h, w), dtype=np.int32)

    # the runs of the row above that touch each run form a contiguous range
    # [first, last) of the runs, sorted by (row, start)
    key = row * (w + 2)
    above = key - (w + 2)
    first = np.searchsorted(key + stop, above + start, "left")
    last = np.searchsorted(key + start, above + stop, "right")
    count = np.maximum(last - first, 0)
    run = np.repeat(np.arange(row.size), count)
    touched = np.arange(run.size) - np.repeat(np.cumsum(count) - count - first, count)

    parent = np.arange(row.size)
    while True:
        a, b = parent[run], parent[touched]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:  # point every run at its root
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand

    root = parent == np.arange(row.size)
    run_label = np.cumsum(root, dtype=np.int32)[parent]
    labels[bits] = np.repeat(run_label, stop - start)
    order = np.argsort(run_label)
    bounds = np.flatnonzero(np.diff(run_label[order], prepend=0))
    top = row[root]
    bottom = np.maximum.reduceat(row[order], bounds) + 1
    left = np.minimum.reduceat(start[order], bounds)
    right = np.maximum.reduceat(stop[order], bounds)
    row_slices = map(slice, top.tolist(), bottom.tolist())
    return labels, list(zip(row_slices, map(slice, left.tolist(), right.tolist())))


# ---------------------------------------------------------------------------
# Contour tracing
# ---------------------------------------------------------------------------

# Moore neighbourhood in clockwise screen order starting north; (dy, dx).
_MOORE = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _moore_trace(fg: np.ndarray, sy: int, sx: int) -> list[tuple[int, int]]:
    """Radial-sweep boundary trace on a padded bool array, from (sy, sx).

    Stops when the initial move out of the start pixel repeats (Jacob's
    criterion), which handles boundaries that pass through the start pixel
    more than once.
    """
    pts = [(sx, sy)]
    cy, cx = sy, sx
    scan = 6  # start is the first foreground pixel in scan order, so begin at its west neighbour
    first_move = None
    limit = 4 * int(fg.sum()) + 8
    for _ in range(limit):
        found = -1
        for i in range(8):
            k = (scan + i) % 8
            dy, dx = _MOORE[k]
            if fg[cy + dy, cx + dx]:
                found = k
                break
        if found < 0:
            return pts  # isolated pixel
        move = (cy, cx, found)
        if first_move is None:
            first_move = move
        elif move == first_move:
            pts.pop()  # the previous step re-entered the start pixel
            return pts
        dy, dx = _MOORE[found]
        cy, cx = cy + dy, cx + dx
        pts.append((cx, cy))
        # resume scanning one past the direction pointing back where we came from
        scan = (found + 5) % 8
    return pts


def trace_contours(mask: np.ndarray) -> list[Contour]:
    """Outer boundary of every 8-connected foreground component.

    Contours of three or more points are closed; tiny (1-2 pixel) components
    come back open. Each trace starts at its component's first pixel in
    raster order and turns clockwise on screen, so its shoelace sum over
    (x, y) is never negative.
    """
    labels, boxes = label(mask)
    contours: list[Contour] = []
    for idx, sl in enumerate(boxes, start=1):
        comp = labels[sl] == idx
        padded = np.pad(comp, 1)
        flat = int(np.argmax(padded))
        sy, sx = divmod(flat, padded.shape[1])
        pts = _moore_trace(padded, sy, sx)
        arr = np.array(pts, dtype=np.int64)
        arr[:, 0] += sl[1].start - 1
        arr[:, 1] += sl[0].start - 1
        contours.append(Contour(arr, closed=len(arr) >= 3))
    return contours


def rasterize_contours(contours: list[Contour], shape: tuple[int, int]) -> np.ndarray:
    """Burn contour points into a fresh mask of the given (height, width)."""
    bits = np.zeros(shape, dtype=bool)
    for c in contours:
        xs = np.clip(c.points[:, 0], 0, shape[1] - 1)
        ys = np.clip(c.points[:, 1], 0, shape[0] - 1)
        bits[ys, xs] = True
    return bits


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def bresenham_line(
    x0: int, y0: int, x1: int, y1: int, box: tuple[int, int, int, int] | None = None
) -> np.ndarray:
    """Integer raster walk from (x0, y0) to (x1, y1) inclusive, (n, 2) int array.

    The walk takes one step per pixel along its major axis, the one of the
    larger span a (x on a tie), and its step k = 0..a lies
    floor((2bk + a) / 2a) pixels along the minor axis of span b: b * k / a
    rounded half away from the start. This closed form gives the points of
    the classic error-accumulating loop. With ``box = (xmin, ymin, xmax,
    ymax)``, inclusive, only the walk's points inside the box are returned,
    in walk order. Only the steps whose major coordinate lies in the box are
    formed, so however long the segment, the work follows the box. A walk
    that misses the box is empty; one whose numbers would leave int64 (an
    end beyond 2**62, or too many steps of a long walk) raises ValueError.
    """
    x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
    ends = [(x0, x1), (y0, y1)]
    major = 1 if abs(y1 - y0) > abs(x1 - x0) else 0
    (m0, m1), (n0, n1) = ends[major], ends[1 - major]
    a, b = abs(m1 - m0), abs(n1 - n0)
    sm, sn = (1 if m0 < m1 else -1), (1 if n0 < n1 else -1)
    first, last = 0, a
    if box is not None:
        lo, hi = box[major], box[major + 2]
        # the steps whose major coordinate m0 + sm * k lies in [lo, hi]
        k_lo, k_hi = (lo - m0, hi - m0) if sm > 0 else (m0 - hi, m0 - lo)
        first, last = max(first, k_lo), min(last, k_hi)
    # a walk that misses the box is empty however far away its ends lie,
    # even where its step count would not fit int64
    if first > last:
        return np.empty((0, 2), dtype=np.int64)
    # the ends bound every coordinate below, and 2a + 2b(last - first)
    # bounds den and r + 2b * steps
    if max(map(abs, (x0, y0, x1, y1))) > 2**62 or 2 * a + 2 * b * (last - first) >= 2**63:
        raise ValueError(f"walk ({x0}, {y0}) -> ({x1}, {y1}) leaves int64")
    # counted from the first step, so the numbers stay as small as the box
    den = max(2 * a, 1)
    q, r = divmod(2 * b * first + a, den)
    steps = np.arange(last - first + 1, dtype=np.int64)
    m = (m0 + sm * first) + sm * steps
    n = (n0 + sn * q) + sn * ((r + 2 * b * steps) // den)
    if box is not None:
        keep = (box[1 - major] <= n) & (n <= box[3 - major])
        m, n = m[keep], n[keep]
    return np.column_stack([m, n] if major == 0 else [n, m])


def sample_bilinear(
    hf: Heightfield,
    xs: np.ndarray,
    ys: np.ndarray,
    skip_nodata: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear sample at fractional pixel coordinates, clamped to the border.

    Returns (values, valid). With ``skip_nodata`` the weights are
    renormalised over valid support cells and a sample is invalid only when
    all four are nodata; otherwise a nodata cell of nonzero weight invalidates it.
    A NaN or infinite coordinate raises ValueError.
    """
    h, w = hf.values.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("sample coordinates must be finite")
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.minimum(x0, w - 2) if w > 1 else x0 * 0
    y0 = np.minimum(y0, h - 2) if h > 1 else y0 * 0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0

    vals = [hf.values[y0, x0], hf.values[y0, x1], hf.values[y1, x0], hf.values[y1, x1]]
    weights = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
    valids = [v != hf.nodata for v in vals]
    # nodata cells count as 0.0, so an infinite nodata of zero weight adds nothing
    vsum = sum(w * np.where(ok, v, 0.0) for w, v, ok in zip(weights, vals, valids))

    if skip_nodata:
        wsum = sum(w * ok for w, ok in zip(weights, valids))
        valid = wsum > 0
        out = np.where(valid, vsum / np.where(valid, wsum, 1.0), hf.nodata)
        return out, valid

    valid = np.logical_and.reduce([ok | (w == 0) for w, ok in zip(weights, valids)])
    return np.where(valid, vsum, hf.nodata), valid
