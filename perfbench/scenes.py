"""Seeded input scenes for the benchmark workloads.

Every scene is built on ``dsmsharp.synth.generate`` from a fixed layout of
building sizes, positions, heights and rotations. The seed draws the DSM
noise (and clutter's stripes and ortho noise), so the inputs differ from seed
to seed while the work per layer stays comparable. The CLI
only ever sees the written ``.asc``/``.pgm`` files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from dsmsharp import raster
from dsmsharp.raster import RasterImage
from dsmsharp.synth import Building, SceneSpec, generate

# (grid cell centre x, y, side x, side y, roof height, rotation in degrees)
# of the city layout: a 4 x 2 grid of 128 x 256 px cells on a 512 x 512 tile.
# Roofs this tall put the blurred DSM's tophat contour far enough outside the
# ortho edges that graph-cut accepts moves on every seed.
_CITY = (
    (64, 128, 90, 60, 42.0, 0.0),
    (192, 128, 56, 56, 30.0, 20.0),
    (320, 128, 100, 70, 50.0, 0.0),
    (448, 128, 60, 80, 36.0, 30.0),
    (64, 384, 44, 70, 28.0, 25.0),
    (192, 384, 96, 52, 46.0, 0.0),
    (320, 384, 70, 70, 56.0, 35.0),
    (448, 384, 84, 44, 34.0, 0.0),
)

# (centre x, y, side x, side y, roof height) of the two chain buildings on
# 512 x 512; at these heights the fattened DSM contour still matches six of
# the eight ortho lines, so the width-matching drop path runs
_CHAIN = ((160, 256, 120, 90, 5.0), (372, 240, 80, 130, 8.0))

# (centre x, y, side x, side y, roof height) of the clutter buildings on
# 768 x 768, sides <= 50 px
_CLUTTER = (
    (130, 140, 44, 36, 12.0),
    (384, 120, 50, 40, 16.0),
    (640, 150, 36, 48, 10.0),
    (140, 620, 40, 40, 18.0),
    (390, 640, 48, 30, 14.0),
    (630, 600, 32, 46, 20.0),
)


def city(seed: int):
    """512^2, 8 buildings of mixed size and height, half of them rotated.

    Graph-cut's labeling here lands in one of two modes (buf5 RMSE about
    10.05 or 12.25) depending on the noise alone; with the buildings moved
    by a few pixels it lands in more.
    """
    buildings = [
        Building((cx, cy), (sx, sy), height, rot) for cx, cy, sx, sy, height, rot in _CITY
    ]
    return generate(SceneSpec((512, 512), 0.0, buildings, 2.0, 0.05, seed))


def chain(seed: int):
    """512^2, 2 buildings; the DSM is fattened by 3 px against truth and ortho."""
    buildings = [Building((cx, cy), (sx, sy), height) for cx, cy, sx, sy, height in _CHAIN]
    spec = SceneSpec((512, 512), 0.0, buildings, 2.0, 0.05, seed)
    truth, _, ortho = generate(replace(spec, boundary_blur_sigma=0.0, noise_sigma=0.0))
    fat = [replace(b, size=(b.size[0] + 6, b.size[1] + 6)) for b in buildings]
    _, dsm, _ = generate(replace(spec, buildings=fat))
    return truth, dsm, ortho


def _draw_stripe(img: np.ndarray, roof: np.ndarray, rng) -> None:
    """Burn one thin bright or dark bar into img, off the roofs only.

    Works in the stripe's bounding box, so thousands of stripes stay cheap.
    """
    h, w = img.shape
    length = rng.uniform(12.0, 30.0)
    half_width = rng.uniform(0.6, 1.6)
    theta = rng.uniform(0.0, math.pi)
    cx, cy = rng.uniform(0, w), rng.uniform(0, h)
    value = rng.choice((20.0, 120.0, 160.0, 235.0))
    ux, uy = math.cos(theta), math.sin(theta)
    reach = 0.5 * length + half_width + 1
    x0, x1 = max(int(cx - reach), 0), min(int(cx + reach) + 1, w)
    y0, y1 = max(int(cy - reach), 0), min(int(cy + reach) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return
    yy, xx = np.mgrid[y0:y1, x0:x1]
    rx, ry = xx - cx, yy - cy
    along = rx * ux + ry * uy
    across = -rx * uy + ry * ux
    bar = (np.abs(along) <= 0.5 * length) & (np.abs(across) <= half_width)
    bar &= ~roof[y0:y1, x0:x1]
    img[y0:y1, x0:x1][bar] = value


def clutter(seed: int):
    """768^2, 6 buildings of <= 50 px sides; the ortho carries 6000 off-roof
    stripes and sigma 14 noise, so the line detector sees many false lines.

    The seed draws the stripes and the noise. The few false lines that
    survive the boundary filter differ from seed to seed, and they move both
    methods' RMSE by several percent.
    """
    buildings = [Building((cx, cy), (sx, sy), height) for cx, cy, sx, sy, height in _CLUTTER]
    spec = SceneSpec((768, 768), 0.0, buildings, 2.0, 0.05, seed)
    truth, dsm, ortho = generate(spec)
    roof = truth.values > spec.ground_height
    img = ortho.samples.astype(np.float64)
    rng = np.random.default_rng([seed, 3])
    for _ in range(6000):
        _draw_stripe(img, roof, rng)
    img += rng.normal(0.0, 14.0, size=img.shape)
    noisy = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return truth, dsm, RasterImage(noisy)


SCENES = {"city": city, "clutter": clutter, "chain": chain}


def write_inputs(name: str, seed: int, out: Path) -> dict[str, str]:
    """Write truth.asc, dsm.asc and ortho.pgm; return their SHA-256 by name."""
    truth, dsm, ortho = SCENES[name](seed)
    out.mkdir(parents=True, exist_ok=True)
    raster.save_heightfield(truth, out / "truth.asc")
    raster.save_heightfield(dsm, out / "dsm.asc")
    raster.save_image(ortho, out / "ortho.pgm")
    return {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("truth.asc", "dsm.asc", "ortho.pgm")
    }

