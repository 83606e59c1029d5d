import numpy as np
import pytest

from dsmsharp import synth
from dsmsharp.synth import Building, SceneSpec


def one_block_spec(**kw):
    defaults = dict(
        dims=(64, 64),
        ground_height=0.0,
        buildings=[Building((32, 32), (20, 20), 10.0)],
        boundary_blur_sigma=2.0,
        noise_sigma=0.0,
        seed=1,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


def test_empty_scene_constant():
    spec = SceneSpec(dims=(32, 32), ground_height=3.0, buildings=[], boundary_blur_sigma=2.0)
    truth, smeared, ortho = synth.generate(spec)
    assert np.allclose(truth.values, 3.0)
    assert np.allclose(smeared.values, 3.0)
    assert (ortho.samples == ortho.samples[0, 0]).all()


def test_truth_is_exact_step():
    truth, _, _ = synth.generate(one_block_spec())
    assert set(np.unique(truth.values)) == {0.0, 10.0}
    assert int((truth.values == 10.0).sum()) == 20 * 20


def test_truth_heights_only_ground_and_buildings():
    spec = one_block_spec(
        buildings=[Building((20, 20), (10, 10), 10.0), Building((45, 45), (12, 8), 4.5)],
        ground_height=1.0,
    )
    truth, _, _ = synth.generate(spec)
    assert set(np.unique(truth.values)) == {1.0, 11.0, 5.5}


def test_smeared_profile_monotone_across_edge():
    truth, smeared, _ = synth.generate(one_block_spec())
    # left building edge covers x in [22, 41]; scan the row through the center
    row = smeared.values[32, :]
    sigma = 2.0
    lo, hi = int(22 - 3 * sigma), int(22 + 3 * sigma)
    steps = np.diff(row[lo : hi + 1])
    assert (steps >= -1e-12).all()
    assert steps.max() > 0.5


def test_zero_blur_zero_noise_identity():
    spec = one_block_spec(boundary_blur_sigma=0.0, noise_sigma=0.0)
    truth, smeared, _ = synth.generate(spec)
    assert np.array_equal(truth.values, smeared.values)
    assert truth.values is not smeared.values


def test_determinism_same_seed():
    spec = one_block_spec(noise_sigma=0.1, seed=99)
    a = synth.generate(spec)
    b = synth.generate(spec)
    for x, y in zip(a[:2], b[:2]):
        assert np.array_equal(x.values, y.values)
    assert np.array_equal(a[2].samples, b[2].samples)


def test_different_seed_changes_noise():
    a = synth.generate(one_block_spec(noise_sigma=0.1, seed=1))[1]
    b = synth.generate(one_block_spec(noise_sigma=0.1, seed=2))[1]
    assert not np.array_equal(a.values, b.values)


def test_ortho_edges_match_truth_edges():
    truth, _, ortho = synth.generate(one_block_spec())
    roof = ortho.samples == synth.ROOF_INTENSITY
    assert np.array_equal(roof, truth.values == 10.0)


def test_rotated_building_footprint():
    spec = one_block_spec(buildings=[Building((32, 32), (20, 10), 8.0, rotation_deg=45.0)])
    truth, _, _ = synth.generate(spec)
    area = int((truth.values == 8.0).sum())
    assert abs(area - 200) < 30  # rasterised rotated rectangle, area ~ w*h


def test_overlap_different_heights_rejected():
    spec_kwargs = dict(
        dims=(40, 40),
        buildings=[Building((20, 20), (12, 12), 10.0), Building((24, 20), (12, 12), 5.0)],
    )
    with pytest.raises(ValueError, match="ambiguous truth"):
        synth.generate(SceneSpec(**spec_kwargs))


def test_overlap_equal_heights_allowed():
    spec = SceneSpec(
        dims=(40, 40),
        buildings=[Building((20, 20), (12, 12), 10.0), Building((24, 20), (12, 12), 10.0)],
    )
    truth, _, _ = synth.generate(spec)
    assert set(np.unique(truth.values)) == {0.0, 10.0}


def test_building_outside_dims_rejected():
    with pytest.raises(ValueError, match="outside the scene"):
        SceneSpec(dims=(30, 30), buildings=[Building((28, 15), (10, 10), 5.0)])


def test_nonpositive_height_rejected():
    with pytest.raises(ValueError):
        SceneSpec(dims=(30, 30), buildings=[Building((15, 15), (6, 6), 0.0)])


def test_scene_config_parsing(tmp_path):
    p = tmp_path / "scene.cfg"
    p.write_text(
        """
# comment line
width = 128
height = 96
ground_height = 1.5
blur_sigma = 2.0
noise_sigma = 0.05
seed = 7
building = 64 48 30 20 12.0
building = 20 20 8 8 6.0 30.0
"""
    )
    spec = synth.parse_scene_config(p)
    assert spec.dims == (128, 96)
    assert spec.ground_height == 1.5
    assert spec.boundary_blur_sigma == 2.0
    assert spec.noise_sigma == 0.05
    assert spec.seed == 7
    assert len(spec.buildings) == 2
    assert spec.buildings[1].rotation_deg == 30.0


def test_scene_config_unknown_key(tmp_path):
    p = tmp_path / "scene.cfg"
    p.write_text("width = 10\nheight = 10\nwibble = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        synth.parse_scene_config(p)


@pytest.mark.parametrize(
    "body, message",
    [
        ("width = x\n", "line 1: bad value 'x' for width"),
        ("width = 10\nheight = 10\nbuilding = 1 2 3 4 y\n", "line 3: bad value 'y' for building"),
        ("width = 10.7\n", "line 1: width must be a whole number, got '10.7'"),
        ("height = 8\nseed = 1.5\n", "line 2: seed must be a whole number, got '1.5'"),
        ("blur_sigma = nan\n", "line 1: bad value 'nan' for blur_sigma"),
        ("noise_sigma = inf\n", "line 1: bad value 'inf' for noise_sigma"),
        ("building = 5 5 4 4 1e400\n", "line 1: bad value '1e400' for building"),
        # SceneSpec's own checks, at the line of the key or building at fault
        ("width = 16\nseed = -1\nheight = 16\n", "line 2: seed must be >= 0, got -1"),
        ("width = 16\nheight = 0\n", "line 2: height must be positive, got 0"),
        ("height = 16\n", "width must be positive, got 0"),  # no width line
        ("width = 9\nheight = 9\n\nblur_sigma = -1\n", "line 4: blur_sigma must be >= 0, got -1.0"),
        (
            "width = 16\nheight = 16\nbuilding = 8 8 4 4 3\n# past the edge\n"
            "building = 7 7 20 4 3\nseed = 2\n",
            "line 5: building at (7.0, 7.0) extends outside the scene",
        ),
        (
            "width = 16\nbuilding = 8 8 4 4 3\nbuilding = 8 8 2 2 -1\nheight = 16\n",
            "line 3: building heights must be positive",
        ),
    ],
)
def test_scene_config_bad_values_name_file_and_line(tmp_path, body, message):
    p = tmp_path / "scene.cfg"
    p.write_text(body)
    with pytest.raises(ValueError) as exc:
        synth.parse_scene_config(p)
    assert str(exc.value) == f"{p}: {message}"


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SceneSpec(dims=(10, 10), seed=-1)


def test_scene_config_whole_float_accepted(tmp_path):
    p = tmp_path / "scene.cfg"
    p.write_text("width = 16.0\nheight = 12\nseed = 3.0\n")
    spec = synth.parse_scene_config(p)
    assert spec.dims == (16, 12) and spec.seed == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_scene_fields_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Building((bad, 5.0), (4.0, 4.0), 3.0)
    with pytest.raises(ValueError, match="finite"):
        Building((5.0, 5.0), (4.0, 4.0), 3.0, rotation_deg=bad)
    with pytest.raises(ValueError, match="finite"):
        SceneSpec(dims=(10, 10), boundary_blur_sigma=bad)
    with pytest.raises(ValueError, match="finite"):
        SceneSpec(dims=(10, 10), ground_height=bad)
