"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dsmsharp import graphcut as gc
from dsmsharp import lines, planefit, raster
from dsmsharp.cli import main as cli_main
from dsmsharp.raster import Heightfield
from dsmsharp.tophat import TophatParams, TophatStack, build_stack

from test_graphcut import LABELS3, brute_force_energy, small_problem


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


# ---------------------------------------------------------------------------
# 1. Morphology oracle
# ---------------------------------------------------------------------------


def _shifted(values, dy, dx, pad):
    h, w = values.shape
    out = np.full((h, w), pad)
    ys = slice(max(0, dy), h + min(0, dy))
    xs = slice(max(0, dx), w + min(0, dx))
    oys = slice(max(0, -dy), h + min(0, -dy))
    oxs = slice(max(0, -dx), w + min(0, -dx))
    out[ys, xs] = values[oys, oxs]
    return out


def naive_window_scan(values, valid, k, op, pad, nodata):
    """Plain window scan: fold min/max over every (dy, dx) offset in the window."""
    acc = np.full(values.shape, pad)
    src = np.where(valid, values, pad)
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            acc = op(acc, _shifted(src, dy, dx, pad))
    return np.where(np.isinf(acc), nodata, acc)


def test_criterion_1_morphology_oracle():
    with criterion("01 morphology-oracle", budget_s=5.0):
        rng = np.random.default_rng(101)
        for trial in range(50):
            vals = rng.normal(0.0, 5.0, (64, 64))
            if trial % 3 == 0:
                vals[rng.random((64, 64)) < 0.05] = -9999.0
            hf = Heightfield(vals)
            valid = hf.valid_mask()
            for k in (1, 2, 3, 5):
                want_e = naive_window_scan(vals, valid, k, np.minimum, np.inf, hf.nodata)
                want_d = naive_window_scan(vals, valid, k, np.maximum, -np.inf, hf.nodata)
                assert np.array_equal(raster.erode(hf, k).values, want_e)
                assert np.array_equal(raster.dilate(hf, k).values, want_d)


# ---------------------------------------------------------------------------
# 2. Plane-fit exactness
# ---------------------------------------------------------------------------


def test_criterion_2_plane_fit_exactness():
    with criterion("02 plane-fit-exactness", budget_s=2.0):
        rng = np.random.default_rng(102)
        for _ in range(100):
            a, b, c = rng.uniform(-10, 10, 3)
            n = int(rng.integers(10, 40))
            xs = rng.uniform(0, 50, n)
            ys = rng.uniform(0, 50, n)
            hs = a * xs + b * ys + c
            sample = planefit.SideSample("left", np.column_stack([xs, ys, hs]))
            plane = planefit.fit_plane(sample)
            assert abs(plane.a - a) <= 1e-9
            assert abs(plane.b - b) <= 1e-9
            assert abs(plane.c - c) <= 1e-9
            a_mat = np.column_stack([xs, ys, np.ones(n)])
            resid = a_mat @ np.array([plane.a, plane.b, plane.c]) - hs
            assert np.linalg.norm(a_mat.T @ resid) <= 1e-6 * np.linalg.norm(a_mat.T @ hs)


# ---------------------------------------------------------------------------
# 3. Energy-model constants
# ---------------------------------------------------------------------------


def test_criterion_3_energy_constants():
    with criterion("03 energy-constants", budget_s=5.0):
        labels = gc.offset_labels()
        assert len(labels) == 121
        assert len({(l.dx, l.dy) for l in labels}) == 121

        smooth_vals = {gc.smooth_cost(a, b) for a in labels for b in labels}
        assert smooth_vals == {2, 100}
        assert gc.smooth_cost((0, 0), (3, 4)) == 100  # norm exactly 5.0 is not < 5.0
        assert gc.smooth_cost((0, 0), (0, 0)) == 2

        buf = np.zeros((40, 40), bool)
        buf[15:25, 15:25] = True
        prob = small_problem([(20, 20), (3, 3), (36, 36)], buf, closed=False)
        data_vals = {
            gc.data_cost(prob, i, l) for i in range(prob.size) for l in labels
        }
        assert data_vals == {0, 10}


# ---------------------------------------------------------------------------
# 4. Optimizer soundness
# ---------------------------------------------------------------------------


def test_criterion_4_optimizer_soundness():
    with criterion("04 optimizer-soundness", budget_s=60.0):
        rng = np.random.default_rng(104)
        larr3 = gc._label_array(LABELS3)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            pts = np.column_stack([rng.integers(2, 12, n), rng.integers(2, 12, n)])
            buf = rng.random((14, 14)) < float(rng.uniform(0.1, 0.5))
            prob = small_problem(pts, buf, closed=bool(rng.integers(0, 2)))
            labeling = gc.minimize(prob, labels=LABELS3)
            got = gc.energy(prob, labeling)
            zero = gc.energy(prob, gc.Labeling(np.zeros((n, 2), int)))
            assert got <= zero
            best = brute_force_energy(prob, larr3)
            assert got <= best * 1.05 + 1e-9, (got, best)

        # rigid-offset-solvable instances reach zero data cost with full labels
        for _ in range(10):
            dx, dy = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            pts = [(x, 10) for x in range(6, 16)]
            buf = np.zeros((26, 26), bool)
            for x, y in pts:
                buf[y + dy, x + dx] = True
            prob = small_problem(pts, buf, closed=False)
            labeling = gc.minimize(prob)
            data_total = sum(
                gc.data_cost(prob, i, labeling.offsets[i]) for i in range(prob.size)
            )
            assert data_total == 0


# ---------------------------------------------------------------------------
# 5. Synthetic end-to-end (run-all, both methods)
# ---------------------------------------------------------------------------

SCENE_256 = """
width = 256
height = 256
ground_height = 0.0
blur_sigma = 2.0
noise_sigma = 0.05
seed = 7
building = 128 128 80 80 10.0
"""


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """One run-all over the 256 px reference scene; both methods, timed."""
    root = tmp_path_factory.mktemp("e2e")
    scene = root / "scene.cfg"
    scene.write_text(SCENE_256)
    assert cli_main(["synth", "--scene", str(scene), "--out", str(root)]) == 0
    t0 = time.perf_counter()
    code = cli_main(
        [
            "run-all",
            "--dsm", str(root / "smeared.asc"),
            "--ortho", str(root / "ortho.pgm"),
            "--truth", str(root / "truth.asc"),
            "--method", "both",
            "--out", str(root / "out"),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(root / "out" / "rmse_report.csv") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    return rows, elapsed


def test_criterion_5_planefit_end_to_end(end_to_end):
    with criterion("05a end-to-end-planefit", budget_s=35.0):
        rows, elapsed = end_to_end
        assert elapsed < 30.0, f"run-all took {elapsed:.1f}s"
        before = float(rows["original"]["buf5"])
        after = float(rows["planefit"]["buf5"])
        improvement = (before - after) / before
        print(f"  planefit boundary-5 improvement: {improvement * 100:.1f}%")
        assert improvement >= 0.20
        assert float(rows["planefit"]["whole"]) <= 1.05 * float(rows["original"]["whole"])


def test_criterion_5_graphcut_end_to_end(end_to_end):
    with criterion("05b end-to-end-graphcut", budget_s=35.0):
        rows, elapsed = end_to_end
        assert elapsed < 30.0, f"run-all took {elapsed:.1f}s"
        assert float(rows["graphcut"]["whole"]) <= 1.05 * float(rows["original"]["whole"])
        before = float(rows["original"]["buf5"])
        after = float(rows["graphcut"]["buf5"])
        improvement = (before - after) / before
        print(f"  graphcut boundary-5 improvement: {improvement * 100:.1f}%")
        assert improvement >= 0.10


# ---------------------------------------------------------------------------
# 6. Sweep monotonicity
# ---------------------------------------------------------------------------


def test_criterion_6_sweep_monotone():
    with criterion("06 sweep-monotonicity", budget_s=5.0):
        from dsmsharp import evaluate as ev

        truth = Heightfield(np.zeros((96, 96)))
        boundary = np.zeros((96, 96), bool)
        boundary[47:49, 20:76] = True
        band = raster.dilate_mask(boundary, 3)
        vals = np.zeros((96, 96))
        vals[band] = 0.8  # error confined to the 3-px boundary band
        computed = Heightfield(vals)
        pairs = ev.sweep(computed, truth, boundary, 20)
        values = [v for _, v in pairs]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# 7. Determinism and round trips
# ---------------------------------------------------------------------------


def test_criterion_7_determinism_and_roundtrips(tmp_path):
    with criterion("07 determinism-roundtrips", budget_s=5.0):
        rng = np.random.default_rng(107)

        hf = Heightfield(rng.normal(3.0, 2.0, (16, 16)), cell_size=0.5, origin=(10.0, 20.0))
        raster.save_heightfield(hf, tmp_path / "f.asc")
        back = raster.load_heightfield(tmp_path / "f.asc")
        assert np.array_equal(back.values, hf.values)
        raster.save_heightfield(back, tmp_path / "f2.asc")
        assert (tmp_path / "f.asc").read_bytes() == (tmp_path / "f2.asc").read_bytes()

        img = raster.RasterImage(rng.integers(0, 256, (9, 9, 3), dtype=np.uint8))
        raster.save_image(img, tmp_path / "i.ppm")
        assert np.array_equal(raster.load_image(tmp_path / "i.ppm").samples, img.samples)

        segs = [lines.LineSegment((1.25, 2.0), (8.0, 9.5), 3)]
        lines.save_segments_csv(segs, tmp_path / "s.csv")
        back_segs = lines.load_segments_csv(tmp_path / "s.csv")
        lines.save_segments_csv(back_segs, tmp_path / "s2.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

        scene = tmp_path / "scene.cfg"
        scene.write_text("width = 48\nheight = 48\nblur_sigma = 1.0\nnoise_sigma = 0.05\nseed = 3\nbuilding = 24 24 16 16 8.0\n")
        fast = ("--set", "tophat.scale_min=10", "--set", "tophat.scale_max=30")
        for sub in (
            ["synth", "--scene", str(scene)],
            ["extract-mask", "--dsm", str(tmp_path / "a" / "smeared.asc"), *fast],
        ):
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert cli_main(sub + ["--out", str(out_a)]) == 0
            assert cli_main(sub + ["--out", str(out_b)]) == 0
            files_a = {p.name: p.read_bytes() for p in out_a.iterdir() if p.is_file()}
            files_b = {p.name: p.read_bytes() for p in out_b.iterdir() if p.is_file()}
            for name in files_a.keys() & files_b.keys():
                assert files_a[name] == files_b[name], name


# ---------------------------------------------------------------------------
# 8. Scale-sweep count and the worked width values
# ---------------------------------------------------------------------------


def test_criterion_8_scale_sweep_and_worked_values():
    with criterion("08 scale-sweep-count", budget_s=5.0):
        params = TophatParams()
        assert params.scales() == list(range(10, 401, 10))
        stack = build_stack(Heightfield(np.zeros((8, 8))), params)
        assert len(stack.scales) == 40
        assert len(stack.cumulative_masks) == 40
        assert len(stack.contour_images) == 40

        # width index 1: segment on the very first contour image
        shape = (30, 30)
        def line_image(present):
            bits = np.zeros(shape, bool)
            if present:
                bits[10, 2:28] = True
            return bits

        seg = lines.LineSegment((2.0, 10.0), (27.0, 10.0))
        first = TophatStack(
            scales=list(range(10, 401, 10)),
            cumulative_masks=[line_image(True) for _ in range(40)],
            contour_images=[line_image(i == 0) for i in range(40)],
        )
        assert lines.estimate_width(seg, first, 2) == 1
        last = TophatStack(
            scales=list(range(10, 401, 10)),
            cumulative_masks=[line_image(True) for _ in range(40)],
            contour_images=[line_image(i == 39) for i in range(40)],
        )
        assert lines.estimate_width(seg, last, 2) == 40

        assert planefit.buffer_half_width(1) == 3
        assert planefit.buffer_half_width(40) == 30  # min(3 * 40, 30)
