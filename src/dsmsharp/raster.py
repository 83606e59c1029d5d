"""Raster containers and the low-level operations shared by the whole pipeline.

Heightfields travel as ESRI ASCII grids, images as binary PGM/PPM, masks as
PGM with 0/255. Row 0 is always the top image row; the ASCII-grid origin is
the lower-left corner of the raster footprint. All containers are treated as
immutable after construction and every operation returns a new object, so
they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

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
        valid = self.values != self.nodata
        if not np.all(np.isfinite(self.values[valid])):
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
class BinaryMask:
    """Per-pixel boolean raster; ``bits`` is (h, w) bool."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 2:
            raise ValueError("mask must be a 2-d array")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(eq=False)
class Contour:
    """Ordered trace of one region boundary.

    ``points`` is an (n, 2) int array of (x, y) pixel coordinates where
    consecutive points are 8-connected. Closed contours are oriented so the
    shoelace sum over (x, y) is positive.
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


def read_text(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """The file's text, decoded as UTF-8. A byte that does not decode raises
    ``error`` naming the path and the line (as splitlines counts them)."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        byte = data[exc.start]
        raise error(f"{path}: line {line}: not UTF-8 text (byte {byte:#04x})") from None


def load_heightfield(path: str | Path) -> Heightfield:
    """Read an ESRI ASCII grid. Raises GridFormatError with the offending line."""
    path = Path(path)
    lines = read_text(path, GridFormatError).splitlines()

    header: dict[str, float] = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
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
        # the nodata marker is only compared against, so it may be infinite
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

    # The file holds at most one row per line and one value per character, so
    # larger dimensions are not allocated; such a file fails the checks below.
    cells = np.empty(
        (min(nrows, len(lines)), min(ncols, max(map(len, lines)))), dtype=np.float64
    )
    row = 0
    for lineno in range(len(_HEADER_KEYS) + 1, len(lines) + 1):
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

    return Heightfield(
        cells,
        cell_size=header["cellsize"],
        origin=(header["xllcorner"], header["yllcorner"]),
        nodata=nodata,
    )


def _fmt(v: float) -> str:
    # shortest exact decimal representation so grids round-trip bit-exactly
    return repr(float(v))


def save_heightfield(hf: Heightfield, path: str | Path) -> None:
    """Write an ESRI ASCII grid, top row first."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"ncols {hf.width}\n")
        fh.write(f"nrows {hf.height}\n")
        fh.write(f"xllcorner {_fmt(hf.origin[0])}\n")
        fh.write(f"yllcorner {_fmt(hf.origin[1])}\n")
        fh.write(f"cellsize {_fmt(hf.cell_size)}\n")
        fh.write(f"NODATA_value {_fmt(hf.nodata)}\n")
        for row in hf.values:
            fh.write(" ".join(_fmt(v) for v in row))
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


def load_mask(path: str | Path) -> BinaryMask:
    """Read a PGM mask; any nonzero sample is foreground."""
    img = load_image(path)
    if img.bands != 1:
        raise ImageFormatError(f"{path}: mask must be single-band")
    return BinaryMask(img.samples > 0)


def save_mask(mask: BinaryMask, path: str | Path) -> None:
    """Write a mask as PGM with foreground 255."""
    save_image(RasterImage(np.where(mask.bits, 255, 0).astype(np.uint8)), path)


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
    if se_half < 0:
        raise ValueError("se_half must be >= 0")
    if se_half == 0:
        return hf.copy()
    work = np.where(hf.valid_mask(), hf.values, np.inf)
    size = _window(se_half, work.shape)
    out = ndimage.minimum_filter(work, size=size, mode="constant", cval=np.inf)
    return hf.like(np.where(np.isinf(out), hf.nodata, out))


def dilate(hf: Heightfield, se_half: int) -> Heightfield:
    """Maximum over the (2*se_half+1)^2 window; nodata handled as in erode."""
    if se_half < 0:
        raise ValueError("se_half must be >= 0")
    if se_half == 0:
        return hf.copy()
    work = np.where(hf.valid_mask(), hf.values, -np.inf)
    size = _window(se_half, work.shape)
    out = ndimage.maximum_filter(work, size=size, mode="constant", cval=-np.inf)
    return hf.like(np.where(np.isinf(out), hf.nodata, out))


def dilate_mask(mask: BinaryMask, radius: int) -> BinaryMask:
    """Chebyshev (square) dilation: set iff a set bit lies within distance radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return BinaryMask(mask.bits.copy())
    out = ndimage.maximum_filter(
        mask.bits.astype(np.uint8), size=_window(radius, mask.bits.shape), mode="constant", cval=0
    )
    return BinaryMask(out > 0)


def _window(half: int, shape: tuple[int, int]) -> int:
    """Side of a square window of the given half size, clamped so it spans
    the grid from any cell and no further: clipped to the grid, a wider
    window covers the same cells, so the filters give the same result."""
    return 2 * min(half, max(shape) - 1) + 1


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


def _shoelace(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def trace_contours(mask: BinaryMask) -> list[Contour]:
    """Outer boundary of every 8-connected foreground component.

    Contours of three or more points are closed and oriented with positive
    shoelace sum over (x, y); tiny (1-2 pixel) components come back open.
    """
    labels, n = ndimage.label(mask.bits, structure=np.ones((3, 3), dtype=int))
    contours: list[Contour] = []
    if n == 0:
        return contours
    slices = ndimage.find_objects(labels)
    for idx, sl in enumerate(slices, start=1):
        comp = labels[sl] == idx
        padded = np.pad(comp, 1)
        flat = int(np.argmax(padded))
        sy, sx = divmod(flat, padded.shape[1])
        pts = _moore_trace(padded, sy, sx)
        arr = np.array(pts, dtype=np.int64)
        arr[:, 0] += sl[1].start - 1
        arr[:, 1] += sl[0].start - 1
        closed = len(arr) >= 3
        if closed and _shoelace(arr) < 0:
            arr = np.vstack([arr[:1], arr[1:][::-1]])
        contours.append(Contour(arr, closed=closed))
    return contours


def rasterize_contours(contours: list[Contour], shape: tuple[int, int]) -> BinaryMask:
    """Burn contour points into a fresh mask of the given (height, width)."""
    bits = np.zeros(shape, dtype=bool)
    for c in contours:
        xs = np.clip(c.points[:, 0], 0, shape[1] - 1)
        ys = np.clip(c.points[:, 1], 0, shape[0] - 1)
        bits[ys, xs] = True
    return BinaryMask(bits)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def bresenham_line(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Integer raster walk from (x0, y0) to (x1, y1) inclusive, (n, 2) int array."""
    x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
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
    """
    h, w = hf.values.shape
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, w - 1.0)
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, h - 1.0)
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
