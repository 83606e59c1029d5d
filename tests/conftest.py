import pytest
from hypothesis import settings

from dsmsharp import raster, synth
from dsmsharp.cli import main as cli_main
from dsmsharp.synth import Building, SceneSpec


@pytest.fixture
def run_cli():
    def _run(*argv):
        return cli_main([str(a) for a in argv])

    return _run


@pytest.fixture
def small_scene(tmp_path):
    """64x64 scene with one 28 px building, written to disk; fast tophat range."""
    spec = SceneSpec(
        dims=(64, 64),
        ground_height=0.0,
        buildings=[Building((32, 32), (28, 28), 10.0)],
        boundary_blur_sigma=1.5,
        noise_sigma=0.02,
        seed=5,
    )
    truth, smeared, ortho = synth.generate(spec)
    paths = {
        "truth": tmp_path / "truth.asc",
        "dsm": tmp_path / "smeared.asc",
        "ortho": tmp_path / "ortho.pgm",
        "out": tmp_path / "out",
    }
    raster.save_heightfield(truth, paths["truth"])
    raster.save_heightfield(smeared, paths["dsm"])
    raster.save_image(ortho, paths["ortho"])
    return paths


SMALL_SCALE_ARGS = ("--set", "tophat.scale_min=10", "--set", "tophat.scale_max=40")


# property tests run the same examples on every run and never time out on a
# slow machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
