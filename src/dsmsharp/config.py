"""Pipeline configuration: defaults, `key = value` files, CLI overrides.

Every tunable in the pipeline lives behind a dotted key (for example
``tophat.height_threshold``). The constants of the two methods (graph-cut's
energy and reaches, plane fit's buffer and the width walk's overlap) are no
tunables and have no key. Values come from built-in defaults, then an optional
config file, then explicit command-line settings, which win; the merged
settings are checked together, so their order does not matter. Unknown
keys are rejected.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .lines import DetectorParams
from .raster import read_text
from .tophat import TophatParams


@dataclass
class PipelineConfig:
    dsm: Path | None = None
    ortho: Path | None = None
    truth: Path | None = None
    out: Path = Path("out")
    region: str = "synthetic"
    tophat: TophatParams = field(default_factory=TophatParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    boundary_buffer_radius: int = 5  # segment filtering against DSM contours
    eval_widths: tuple[int, ...] = (5, 10, 20)
    sweep_max_width: int = 20
    section: tuple[float, float, float, float] | None = None


def finite_float(text: str) -> float:
    """float(text), rejecting nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def nonblank_path(text: str) -> Path:
    """Path(text), rejecting blank text, which Path would take as '.'."""
    if not text.strip():
        raise ValueError("blank path")
    return Path(text)


def _tuple_of(conv):
    """Converter for comma-separated values, each read with conv."""
    return lambda text: tuple(conv(t.strip()) for t in text.split(",") if t.strip())


# key -> (config attribute path, converter); a parameter group's keys are
# its fields, read by the type of their defaults
_KEYS: dict[str, tuple[tuple[str, ...], object]] = {
    "dsm": (("dsm",), nonblank_path),
    "ortho": (("ortho",), nonblank_path),
    "truth": (("truth",), nonblank_path),
    "out": (("out",), nonblank_path),
    "region": (("region",), str),
    **{
        f"{group.name}.{f.name}": (
            (group.name, f.name),
            {int: int, float: finite_float}[type(f.default)],
        )
        for group in dataclasses.fields(PipelineConfig)
        if dataclasses.is_dataclass(group.default_factory)
        for f in dataclasses.fields(group.default_factory)
    },
    "lines.boundary_buffer_radius": (("boundary_buffer_radius",), int),
    "eval.buffer_widths": (("eval_widths",), _tuple_of(int)),
    "eval.sweep_max_width": (("sweep_max_width",), int),
    "eval.section": (("section",), _tuple_of(finite_float)),
}

# lowest values of the keys a stage would reject only after the tophat ladder,
# or that have no meaning below it
_MINIMUM = {"lines.boundary_buffer_radius": 0, "eval.sweep_max_width": 1}


def read_key_values(path: str | Path, known) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each `key = value` line, whose key must
    be in known; '#' starts a comment."""
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, val = (t.strip() for t in line.partition("="))
        if key not in known:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        yield lineno, key, val


def read_config_file(path: str | Path) -> dict[str, str]:
    """Raw `key = value` pairs from a config file."""
    return {key: val for _, key, val in read_key_values(path, _KEYS)}


def apply_settings(cfg: PipelineConfig, settings: dict[str, str]) -> PipelineConfig:
    """Return a config with the given dotted-key settings applied.

    Each value is converted and range-checked on its own; each parameter
    group is then built once from its final values, so whether the settings
    are accepted does not depend on their order.
    """
    groups: dict[str, dict] = {}
    for key, raw in settings.items():
        if key not in _KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        attr_path, conv = _KEYS[key]
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            raise ValueError(f"bad value {raw!r} for {key}") from None
        if key == "eval.section" and len(value) != 4:
            raise ValueError("eval.section needs four numbers: x1,y1,x2,y2")
        if key == "eval.section" and value[:2] == value[2:]:
            raise ValueError("eval.section has zero length")
        if key == "eval.buffer_widths" and not 0 < len({w for w in value if w >= 1}) == len(value):
            raise ValueError(f"eval.buffer_widths must be one or more distinct positive widths,"
                             f" got {raw!r}")
        if key in _MINIMUM and value < _MINIMUM[key]:
            raise ValueError(f"{key} must be >= {_MINIMUM[key]}, got {value}")
        if len(attr_path) == 1:
            setattr(cfg, attr_path[0], value)
        else:
            groups.setdefault(attr_path[0], {})[attr_path[1]] = value
    for name, values in groups.items():
        setattr(cfg, name, dataclasses.replace(getattr(cfg, name), **values))
    return cfg


def build_config(
    config_path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> PipelineConfig:
    """Defaults, then the config file, then explicit overrides, which win;
    the merged settings are checked together."""
    settings = read_config_file(config_path) if config_path is not None else {}
    settings.update(overrides or {})
    return apply_settings(PipelineConfig(), settings)
