"""Deterministic synthetic scenes: crisp truth, smeared DSM, crisp ortho.

Stands in for a real stereo-matched DSM at desk scale. The "smeared" field
is the truth convolved with a truncated Gaussian (a symmetric stand-in for
a stereo matcher's boundary smear, which is one-sided: it lies on the side
the second view cannot see) plus seeded Gaussian noise, while the
orthophoto keeps hard edges exactly at the truth discontinuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import finite_float, read_key_values
from .raster import GAUSSIAN_SIGMA_MAX, Heightfield, RasterImage, gaussian

GROUND_INTENSITY = 70
ROOF_INTENSITY = 200


class SceneError(ValueError):
    """A scene field that fails its check. ``key`` is the scene-file key the
    field comes from; ``building`` is the index of the building at fault."""

    def __init__(self, message: str, key: str, building: int | None = None):
        super().__init__(message)
        self.key = key
        self.building = building


@dataclass(frozen=True)
class Building:
    """Axis sizes in pixels, rotated about the center by rotation_deg."""

    center: tuple[float, float]
    size: tuple[float, float]
    height: float
    rotation_deg: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, *self.size, self.height, self.rotation_deg))):
            raise ValueError("building fields must be finite")


@dataclass(eq=False)
class SceneSpec:
    dims: tuple[int, int]  # (width, height)
    ground_height: float = 0.0
    buildings: list[Building] = field(default_factory=list)
    boundary_blur_sigma: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        w, h = self.dims
        fields = {"width": w, "height": h, "ground_height": self.ground_height,
                  "blur_sigma": self.boundary_blur_sigma, "noise_sigma": self.noise_sigma,
                  "seed": self.seed}
        for key, value in fields.items():
            if not math.isfinite(value):
                raise SceneError("scene fields must be finite", key)
            if key in ("width", "height") and value <= 0:
                raise SceneError(f"{key} must be positive, got {value}", key)
            if key in ("blur_sigma", "noise_sigma", "seed") and value < 0:
                raise SceneError(f"{key} must be >= 0, got {value}", key)
            if key == "blur_sigma" and value > GAUSSIAN_SIGMA_MAX:
                raise SceneError(f"{key} must be <= {GAUSSIAN_SIGMA_MAX:g}, got {value}", key)
        for i, b in enumerate(self.buildings):
            if b.height <= 0:
                raise SceneError("building heights must be positive", "building", i)
            for cx, cy in _corners(b):
                if not (0 <= cx < w and 0 <= cy < h):
                    raise SceneError(
                        f"building at {b.center} extends outside the scene", "building", i
                    )


def _corners(b: Building):
    hw, hh = b.size[0] / 2.0, b.size[1] / 2.0
    rot = math.radians(b.rotation_deg)
    c, s = math.cos(rot), math.sin(rot)
    for ux, uy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh)):
        yield b.center[0] + c * ux - s * uy, b.center[1] + s * ux + c * uy


def _footprint(b: Building, dims: tuple[int, int]) -> np.ndarray:
    w, h = dims
    yy, xx = np.mgrid[0:h, 0:w]
    rx = xx - b.center[0]
    ry = yy - b.center[1]
    rot = math.radians(b.rotation_deg)
    c, s = math.cos(rot), math.sin(rot)
    u = c * rx + s * ry
    v = -s * rx + c * ry
    # half-open interval so an even size covers exactly that many pixel centers
    hw, hh = b.size[0] / 2.0, b.size[1] / 2.0
    return (u >= -hw) & (u < hw) & (v >= -hh) & (v < hh)


def generate(spec: SceneSpec) -> tuple[Heightfield, Heightfield, RasterImage]:
    """Build (truth, smeared, ortho) for the scene; deterministic per seed."""
    w, h = spec.dims
    truth = np.full((h, w), spec.ground_height, dtype=np.float64)
    occupied = np.zeros((h, w), dtype=bool)
    for b in spec.buildings:
        fp = _footprint(b, spec.dims)
        clash = occupied & fp & (truth != spec.ground_height + b.height)
        if clash.any():
            raise ValueError("ambiguous truth: overlapping buildings of different heights")
        truth[fp] = spec.ground_height + b.height
        occupied |= fp

    smeared = gaussian(truth, spec.boundary_blur_sigma)
    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma > 0:
        smeared += rng.normal(0.0, spec.noise_sigma, size=(h, w))

    ortho = np.where(occupied, ROOF_INTENSITY, GROUND_INTENSITY).astype(np.uint8)
    return (
        Heightfield(truth),
        Heightfield(smeared),
        RasterImage(ortho),
    )


# ---------------------------------------------------------------------------
# Plain key-value scene files
# ---------------------------------------------------------------------------


def _scene_value(path, lineno: int, key: str, text: str) -> float:
    """A finite number; width, height and seed must also be whole."""
    try:
        value = finite_float(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: bad value {text!r} for {key}") from None
    if key in ("width", "height", "seed") and not value.is_integer():
        raise ValueError(f"{path}: line {lineno}: {key} must be a whole number, got {text!r}")
    return value


def parse_scene_config(path: str | Path) -> SceneSpec:
    """Read a scene from `key = value` lines.

    Recognised keys: width, height, ground_height, blur_sigma, noise_sigma,
    seed, and one `building = cx cy width height roof_height [rotation]`
    line per building. '#' starts a comment. Every value must be a finite
    number, and width, height and seed whole ones. A scene the SceneSpec
    checks reject names the file and the line of the building or key at
    fault (only the file when that key is not given).
    """
    values: dict[str, float] = {"width": 0, "height": 0, "ground_height": 0.0,
                                "blur_sigma": 0.0, "noise_sigma": 0.0, "seed": 0}
    key_lines: dict[str, int] = {}
    building_lines: list[int] = []
    buildings: list[Building] = []
    for lineno, key, val in read_key_values(path, {"building", *values}):
        if key == "building":
            parts = val.split()
            if len(parts) not in (5, 6):
                raise ValueError(
                    f"{path}: line {lineno}: building needs 'cx cy w h height [rotation]'"
                )
            nums = [_scene_value(path, lineno, key, p) for p in parts]
            rot = nums[5] if len(nums) == 6 else 0.0
            buildings.append(Building((nums[0], nums[1]), (nums[2], nums[3]), nums[4], rot))
            building_lines.append(lineno)
        else:
            values[key] = _scene_value(path, lineno, key, val)
            key_lines[key] = lineno
    try:
        return SceneSpec(
            dims=(int(values["width"]), int(values["height"])),
            ground_height=values["ground_height"],
            buildings=buildings,
            boundary_blur_sigma=values["blur_sigma"],
            noise_sigma=values["noise_sigma"],
            seed=int(values["seed"]),
        )
    except SceneError as exc:
        lineno = key_lines.get(exc.key) if exc.building is None else building_lines[exc.building]
        where = "" if lineno is None else f"line {lineno}: "
        raise ValueError(f"{path}: {where}{exc}") from None
