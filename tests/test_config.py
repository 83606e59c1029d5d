"""The `key = value` reader shared by pipeline config files and scene files,
and the checks of the parameter classes that library callers build."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmsharp import synth
from dsmsharp.config import _KEYS, build_config, read_config_file
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


@pytest.mark.parametrize("read", [read_config_file, synth.parse_scene_config])
def test_key_value_file_that_is_not_utf8_names_file_and_line(tmp_path, read):
    p = tmp_path / "binary.cfg"
    p.write_bytes(b"# header\nwidth = 1\xff\n")
    with pytest.raises(ValueError) as exc:
        read(p)
    assert str(exc.value) == f"{p}: line 2: not UTF-8 text (byte 0xff)"


def test_settings_are_checked_on_their_final_values(tmp_path):
    pair = {"tophat.scale_min": "500", "tophat.scale_max": "600"}
    for settings in (pair, dict(reversed(pair.items()))):
        tophat = build_config(None, settings).tophat
        assert (tophat.scale_min, tophat.scale_max) == (500, 600)
        p = tmp_path / "pipe.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        assert build_config(p).tophat == tophat
    # the overrides win over the file before anything is checked
    assert build_config(p, {"tophat.scale_max": "700"}).tophat.scale_max == 700
    with pytest.raises(ValueError, match="require 0 < scale_min <= scale_max"):
        build_config(p, {"tophat.scale_max": "400"})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "make, name",
    [
        (DetectorParams, "gradient_threshold"),
        (DetectorParams, "angle_tolerance"),
        (DetectorParams, "min_length"),
        (DetectorParams, "smoothing_sigma"),
        (TophatParams, "height_threshold"),
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__,
)
def test_parameters_reject_non_finite_values(make, name, value):
    make(**{name: 1.0})
    with pytest.raises(ValueError):
        make(**{name: value})


_NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from(["nan", "-inf", "1e400", "-0"]))


@settings(max_examples=500)
@given(
    key=st.sampled_from(sorted(_KEYS)),
    text=st.one_of(
        st.text(max_size=20),
        _NUMBERS.map(str),
        st.lists(_NUMBERS.map(str), max_size=5).map(",".join),
    ),
)
def test_any_value_of_any_key_is_taken_or_rejected_with_value_error(key, text):
    try:
        build_config(None, {key: text})
    except ValueError:
        pass


_CONFIG_KEYS = ["tophat.scale_min", "lines.boundary_buffer_radius", "region", "eval.section"]
_SCENE_KEYS = ["width", "height", "seed", "noise_sigma", "building"]
_VALUES = ["64", "0", "-1", "2.5", "1e400", "1e308", "nan", "inf", "-inf", "x", "", "1,2,3,4",
           "32 32 20 20 10", "32 32 20 20 10 30", "1e308 0 1e308 1e308 1 45", "1 2 3"]


@st.composite
def _corrupted_key_value_files(draw, keys):
    """Random bytes, or `key = value` lines of odd values mixed with junk
    lines and random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    junk = st.text(alphabet=" \t=#.-+eE019naifx", max_size=16)
    line = st.builds("{} = {}".format, st.sampled_from(keys), st.sampled_from(_VALUES) | junk)
    data = "\n".join(draw(st.lists(line | junk, max_size=8))).encode()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.binary(min_size=1, max_size=3)) + data[i:]
    return data


@pytest.mark.parametrize(
    "read, keys", [(read_config_file, _CONFIG_KEYS), (synth.parse_scene_config, _SCENE_KEYS)]
)
@settings(max_examples=300)
@given(data=st.data())
def test_corrupted_key_value_file_raises_only_value_error_naming_it(
    tmp_path_factory, read, keys, data
):
    p = tmp_path_factory.mktemp("kv") / "settings.cfg"
    p.write_bytes(data.draw(_corrupted_key_value_files(keys)))
    try:
        read(p)
    except ValueError as exc:
        assert str(exc).startswith(f"{p}: ")
