"""The `key = value` reader shared by pipeline config files and scene files,
and the checks of the parameter classes that library callers build."""

import functools

import numpy as np
import pytest

from dsmsharp import graphcut, synth
from dsmsharp.config import read_config_file
from dsmsharp.lines import DetectorParams
from dsmsharp.tophat import TophatParams


def test_config_file_pairs(tmp_path):
    p = tmp_path / "pipe.cfg"
    p.write_text("# header\n\ntophat.scale_min = 10  # trailing\nregion=north\nregion = south\n")
    assert read_config_file(p) == {"tophat.scale_min": "10", "region": "south"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("out = o\nnonsense\n", "line 2: expected 'key = value'"),
        ("# c\n\nnonsense.key = 1\n", "line 3: unknown key 'nonsense.key'"),
    ],
)
def test_config_file_errors(tmp_path, text, message):
    p = tmp_path / "pipe.cfg"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_config_file(p)
    assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("width = 10\nnonsense\n", "line 2: expected 'key = value'"),
        ("# c\nwibble = 3\n", "line 2: unknown key 'wibble'"),
        ("width = 10\nbuilding = 1 2 3\n", "line 2: building needs 'cx cy w h height [rotation]'"),
    ],
)
def test_scene_file_errors(tmp_path, text, message):
    p = tmp_path / "scene.cfg"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        synth.parse_scene_config(p)
    assert str(exc.value) == f"{p}: {message}"


_ONE_POINT_PROBLEM = functools.partial(
    graphcut.ContourProblem, np.zeros((1, 2), int), [(0, 1, False)], np.zeros((2, 2), bool)
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "make, name",
    [
        (DetectorParams, "gradient_threshold"),
        (DetectorParams, "angle_tolerance"),
        (DetectorParams, "min_length"),
        (DetectorParams, "smoothing_sigma"),
        (TophatParams, "height_threshold"),
        (_ONE_POINT_PROBLEM, "smooth_radius"),
    ],
    ids=lambda p: p if isinstance(p, str) else getattr(p, "__name__", "ContourProblem"),
)
def test_parameters_reject_non_finite_values(make, name, value):
    make(**{name: 1.0})
    with pytest.raises(ValueError):
        make(**{name: value})
