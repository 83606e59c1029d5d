import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmsharp import evaluate as ev
from dsmsharp.raster import DEFAULT_NODATA, Heightfield, dilate_mask


def field(vals, **kw):
    return Heightfield(np.asarray(vals, dtype=float), **kw)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def test_resample_identical_grids_is_identity():
    rng = np.random.default_rng(70)
    hf = field(rng.normal(size=(9, 9)))
    out = ev.resample_to(hf, hf)
    assert np.allclose(out.values, hf.values)


def test_resample_downsample_ramp_exact():
    # fine grid: h = world x; coarse grid at doubled cell size over the same extent
    fine_vals = np.tile(np.arange(16, dtype=float) + 0.5, (16, 1))  # value = world x
    fine = field(fine_vals, cell_size=1.0, origin=(0.0, 0.0))
    coarse_ref = field(np.zeros((8, 8)), cell_size=2.0, origin=(0.0, 0.0))
    out = ev.resample_to(coarse_ref, fine)
    want = np.tile((np.arange(8) + 0.5) * 2.0, (8, 1))
    assert np.allclose(out.values, want)


def test_resample_nodata_block():
    vals = np.ones((8, 8))
    vals[2:6, 2:6] = -9999.0
    moving = field(vals)
    ref = field(np.zeros((8, 8)))
    out = ev.resample_to(ref, moving)
    assert out.values[3, 3] == ref.nodata
    assert out.values[0, 0] == 1.0


def test_resample_disjoint_extents():
    a = field(np.zeros((4, 4)), origin=(0.0, 0.0))
    b = field(np.zeros((4, 4)), origin=(100.0, 100.0))
    with pytest.raises(ValueError, match=r"disjoint extents: x 100\.\.104, y 100\.\.104 does"
                       r" not overlap the reference grid's x 0\.\.4, y 0\.\.4$"):
        ev.resample_to(a, b)


def test_resample_outside_becomes_nodata():
    ref = field(np.zeros((6, 6)), cell_size=1.0, origin=(0.0, 0.0))
    moving = field(np.ones((3, 3)), cell_size=1.0, origin=(0.0, 0.0))
    out = ev.resample_to(ref, moving)
    assert out.values[5, 0] == 1.0  # bottom-left corner overlaps (origin is lower-left)
    assert out.values[0, 5] == ref.nodata


def test_resample_exact_on_affine_fields():
    yy, xx = np.mgrid[0:12, 0:12]
    wx = (xx + 0.5) * 1.0
    wy = (12 - yy - 0.5) * 1.0
    moving = field(2.0 * wx - 0.5 * wy + 3.0, cell_size=1.0, origin=(0.0, 0.0))
    ref = field(np.zeros((6, 6)), cell_size=2.0, origin=(0.0, 0.0))
    out = ev.resample_to(ref, moving)
    ryy, rxx = np.mgrid[0:6, 0:6]
    rwx = (rxx + 0.5) * 2.0
    rwy = (6 - ryy - 0.5) * 2.0
    assert np.allclose(out.values, 2.0 * rwx - 0.5 * rwy + 3.0)


# ---------------------------------------------------------------------------
# RMSE
# ---------------------------------------------------------------------------


def test_rmse_identical_zero():
    hf = field(np.arange(16).reshape(4, 4))
    assert ev.rmse(hf, hf) == 0.0


def test_rmse_constant_offset():
    truth = field(np.zeros((5, 5)))
    comp = field(np.ones((5, 5)))
    assert ev.rmse(comp, truth) == pytest.approx(1.0)


def test_rmse_hand_case():
    truth = field([[0.0, 0.0], [0.0, 0.0]])
    comp = field([[0.0, 1.0], [2.0, 3.0]])
    assert ev.rmse(comp, truth) == pytest.approx(math.sqrt(14 / 4))


def test_rmse_symmetric():
    rng = np.random.default_rng(71)
    a = field(rng.normal(size=(6, 6)))
    b = field(rng.normal(size=(6, 6)))
    assert ev.rmse(a, b) == ev.rmse(b, a)


def test_rmse_scoped():
    truth = field(np.zeros((4, 4)))
    vals = np.zeros((4, 4))
    vals[0, 0] = 2.0
    comp = field(vals)
    bits = np.zeros((4, 4), bool)
    bits[0, 0] = True
    assert ev.rmse(comp, truth, bits) == pytest.approx(2.0)
    bits2 = np.zeros((4, 4), bool)
    bits2[3, 3] = True
    assert ev.rmse(comp, truth, bits2) == 0.0


def test_rmse_ignores_nodata_and_errors_when_empty():
    vals = np.full((3, 3), -9999.0)
    comp = field(vals)
    truth = field(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="no valid cells"):
        ev.rmse(comp, truth)


def test_rmse_grid_mismatch():
    with pytest.raises(ValueError):
        ev.rmse(field(np.zeros((3, 3))), field(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# Scopes and sweeps
# ---------------------------------------------------------------------------


def boundary(shape, sl):
    bits = np.zeros(shape, bool)
    bits[sl] = True
    return bits


def test_boundary_scopes_nested():
    b = boundary((40, 40), (slice(18, 22), slice(10, 30)))
    distance = ev.boundary_distance(b)
    assert ((distance <= 5) <= (distance <= 10)).all()
    assert ((distance <= 10) <= (distance <= 20)).all()


def test_boundary_scopes_nested_random():
    rng = np.random.default_rng(72)
    b = rng.random((30, 30)) < 0.05
    distance = ev.boundary_distance(b)
    assert ((distance <= 2) <= (distance <= 4)).all()
    assert ((distance <= 4) <= (distance <= 9)).all()


def test_boundary_scopes_empty_boundary():
    distance = ev.boundary_distance(np.zeros((10, 10), bool))
    assert not (distance <= 10**6).any()


def oracle_per_buffer(computed, truth, boundary_mask, widths):
    """One dilated scope per width: what the distance map replaces."""
    return {w: ev.rmse(computed, truth, dilate_mask(boundary_mask, w)) for w in widths}


@st.composite
def _scored_grids(draw):
    """A boundary mask with few bits (none, or on the border, as drawn) and
    two fields on its grid with nodata cells in either; one side may be 1 px."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bits = np.zeros(h * w, bool)
    bits[draw(st.lists(st.integers(0, h * w - 1), max_size=5))] = True
    cell = st.one_of(st.floats(-50, 50), st.just(DEFAULT_NODATA))

    def grid():
        cells = draw(st.lists(cell, min_size=h * w, max_size=h * w))
        return Heightfield(np.array(cells).reshape(h, w))

    widths = tuple(draw(st.lists(st.integers(1, 15), min_size=1, max_size=5)))
    return bits.reshape(h, w), grid(), grid(), widths


@settings(max_examples=300)
@given(case=_scored_grids())
def test_distance_buffers_match_dilation_oracle(case):
    mask, computed, truth, widths = case
    distance = ev.boundary_distance(mask)
    for w in range(0, 16):
        assert np.array_equal(distance <= w, dilate_mask(mask, w))
    try:
        want = oracle_per_buffer(computed, truth, mask, widths)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            ev.report(computed, truth, distance, widths)
        return
    assert ev.report(computed, truth, distance, widths).per_buffer == want


def test_sweep_matches_oracle_on_one_pixel_wide_raster():
    rng = np.random.default_rng(74)
    truth = field(rng.normal(size=(40, 1)))
    computed = field(rng.normal(size=(40, 1)))
    b = boundary((40, 1), (slice(0, 1), slice(None)))  # one border bit
    want = oracle_per_buffer(computed, truth, b, range(1, 40))
    assert ev.sweep(computed, truth, b, 39) == sorted(want.items())


def test_report_rejects_nonpositive_width():
    b = boundary((10, 10), (slice(4, 6), slice(2, 8)))
    hf = field(np.zeros((10, 10)))
    with pytest.raises(ValueError, match="positive"):
        ev.report(hf, hf, ev.boundary_distance(b), (0, 5))


def test_sweep_identical_all_zero():
    hf = field(np.arange(100, dtype=float).reshape(10, 10))
    b = boundary((10, 10), (slice(4, 6), slice(2, 8)))
    pairs = ev.sweep(hf, hf, b, 5)
    assert [w for w, _ in pairs] == [1, 2, 3, 4, 5]
    assert all(v == 0.0 for _, v in pairs)


def test_sweep_rejects_a_width_past_the_grid_before_building_the_widths():
    hf = field(np.zeros((8, 8)))
    b = boundary((8, 8), (slice(3, 5), slice(2, 6)))
    for width in (0, 9, 10**5):
        with pytest.raises(ValueError, match=f"max_width must be in 1..8, got {width}"):
            ev.sweep(hf, hf, b, width)
    assert [w for w, _ in ev.sweep(hf, hf, b, 8)] == list(range(1, 9))


def test_sweep_nonincreasing_for_banded_error():
    truth = field(np.zeros((50, 50)))
    vals = np.zeros((50, 50))
    b = boundary((50, 50), (slice(24, 26), slice(5, 45)))
    band = dilate_mask(b, 3)
    vals[band] = 1.0  # constant-magnitude error confined to a 3-px band
    comp = field(vals)
    pairs = ev.sweep(comp, truth, b, 20)
    values = [v for _, v in pairs]
    assert all(a >= b_ - 1e-12 for a, b_ in zip(values, values[1:]))


def test_sweep_width1_matches_rmse():
    rng = np.random.default_rng(73)
    truth = field(np.zeros((20, 20)))
    comp = field(rng.normal(size=(20, 20)))
    b = boundary((20, 20), (slice(9, 11), slice(3, 17)))
    pairs = ev.sweep(comp, truth, b, 3)
    assert pairs[0][1] == ev.rmse(comp, truth, dilate_mask(b, 1))


def test_rmse_after_resample_fine_to_coarse():
    # computed DSM on a grid twice as fine as the truth, same extent,
    # constant +0.5 m offset: resampled comparison sees exactly that offset
    truth = field(np.zeros((16, 16)), cell_size=2.0, origin=(0.0, 0.0))
    fine = field(np.full((32, 32), 0.5), cell_size=1.0, origin=(0.0, 0.0))
    resampled = ev.resample_to(truth, fine)
    assert resampled.values.shape == (16, 16)
    assert ev.rmse(resampled, truth) == pytest.approx(0.5)


def test_report_counts_and_values():
    truth = field(np.zeros((30, 30)))
    vals = np.zeros((30, 30))
    vals[14, 14] = 3.0
    comp = field(vals)
    b = boundary((30, 30), (slice(14, 16), slice(10, 20)))
    rep = ev.report(comp, truth, ev.boundary_distance(b), (5, 10, 20))
    assert rep.whole_image == pytest.approx(math.sqrt(9.0 / 900))
    assert set(rep.per_buffer) == {5, 10, 20}


# ---------------------------------------------------------------------------
# Cross-sections
# ---------------------------------------------------------------------------


def test_cross_section_truth_matches_itself():
    hf = field(np.tile(np.arange(30, dtype=float), (10, 1)))
    cs = ev.cross_section({"truth": hf, "same": hf}, ((2.0, 5.0), (27.0, 5.0)), step=0.5)
    assert set(vars(cs)) == {"stations", "profiles"}
    assert list(cs.profiles) == ["truth", "same"]
    assert not np.isnan(cs.profiles["truth"]).any()
    assert np.array_equal(cs.profiles["same"], cs.profiles["truth"])


def test_cross_section_station_count_and_spacing():
    hf = field(np.zeros((10, 30)))
    cs = ev.cross_section({"t": hf}, ((2.0, 5.0), (12.0, 5.0)), step=0.5)
    assert len(cs.stations) == int(10.0 / 0.5) + 1
    assert np.allclose(np.diff(cs.stations), 0.5)


def test_cross_section_step_profile():
    from scipy.ndimage import gaussian_filter

    truth_vals = np.zeros((20, 60))
    truth_vals[:, 30:] = 10.0
    blurred = gaussian_filter(truth_vals, 2.0, truncate=3.0, mode="nearest")
    variants = {"truth": field(truth_vals), "blurred": field(blurred)}
    cs = ev.cross_section(variants, ((20.0, 10.0), (40.0, 10.0)), step=0.5)
    prof = cs.profiles["blurred"]
    assert (np.diff(prof) >= -1e-9).all()  # monotone through the step
    tp = cs.profiles["truth"]
    assert tp[0] == 0.0 and tp[-1] == 10.0
    assert (prof != tp).any()


def test_cross_section_anchor_outside():
    hf = field(np.zeros((10, 10)))
    with pytest.raises(ValueError, match="anchor outside raster"):
        ev.cross_section({"t": hf}, ((0.0, 0.0), (40.0, 0.0)))


def test_cross_section_rejects_a_zero_length_anchor():
    hf = field(np.zeros((10, 10)))
    with pytest.raises(ValueError, match="anchor has zero length"):
        ev.cross_section({"t": hf}, ((2.0, 2.0), (2.0, 2.0)))


@pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
def test_cross_section_rejects_a_step_not_finite_and_positive(step):
    hf = field(np.zeros((10, 10)))
    with pytest.raises(ValueError, match="step must be finite and positive"):
        ev.cross_section({"t": hf}, ((0.0, 0.0), (5.0, 0.0)), step=step)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def test_report_csv_layout(tmp_path):
    rep = ev.RmseReport(1.2345, {5: 1.0, 10: 0.5, 20: 0.25})
    p = tmp_path / "r.csv"
    ev.write_report_csv([("region1", "original", rep)], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "region,method,whole,buf5,buf10,buf20"
    assert lines[1] == "region1,original,1.234,1.000,0.500,0.250"


def test_sweep_csv(tmp_path):
    p = tmp_path / "s.csv"
    ev.write_sweep_csv([(1, 0.5), (2, 0.25)], p)
    assert p.read_text().splitlines() == ["width,rmse", "1,0.500000", "2,0.250000"]


def test_cross_section_csv(tmp_path):
    hf = field(np.zeros((5, 12)))
    cs = ev.cross_section({"a": hf, "b": hf}, ((1.0, 2.0), (9.0, 2.0)), step=1.0)
    p = tmp_path / "c.csv"
    ev.write_cross_section_csv(cs, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "station,a,b"
    assert len(lines) == 1 + len(cs.stations)
