import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.idm import (FEATURE_VARIANTS, GRID, compute_idm,
                           context_feature, idm_feature, segmentation_feature,
                           spatial_features, symbol_idm)
from strokeseg.sketch import BBox, Sketch, Stroke, padded_square
from oracles import compute_idm_ref


def _grid(feature, index):
    return feature[index * GRID * GRID:(index + 1) * GRID * GRID].reshape(GRID, GRID)


def test_feature_length_and_range():
    pts = np.array([[0.0, 0.0], [5.0, 3.0], [10.0, 1.0]])
    f = compute_idm(pts, BBox(0.0, 0.0, 10.0, 10.0))
    assert f.shape == (720,)
    assert np.all(f >= 0.0) and np.all(f <= 1.0)


def test_horizontal_segment_exact_maps():
    xs = np.arange(0.0, 111.0, 10.0)  # lands exactly on cell centers
    pts = np.column_stack([xs, np.zeros_like(xs)])
    f = compute_idm(pts, BBox(0.0, 0.0, 110.0, 110.0))
    deg0, deg45, deg90, deg135, ends = (_grid(f, i) for i in range(5))

    expected0 = np.zeros((GRID, GRID))
    expected0[0, :] = 1.0
    npt.assert_allclose(deg0, expected0)
    npt.assert_allclose(deg90, 0.0)
    npt.assert_allclose(deg45, 0.0)  # 45 degrees off: response exactly 0
    npt.assert_allclose(deg135, 0.0)

    expected_ends = np.zeros((GRID, GRID))
    expected_ends[0, 0] = expected_ends[0, GRID - 1] = 1.0
    npt.assert_allclose(ends, expected_ends)


def test_diagonal_at_22_5_splits_response():
    a = np.radians(22.5)
    pts = np.array([[0.0, 0.0], [np.cos(a), np.sin(a)]])
    f = compute_idm(pts, BBox(0.0, 0.0, 11.0, 11.0))
    deg0, deg45 = _grid(f, 0), _grid(f, 1)
    # the first point sits exactly on cell (0,0); both neighbors score 0.5
    npt.assert_allclose(deg0[0, 0], 0.5)
    npt.assert_allclose(deg45[0, 0], 0.5)
    npt.assert_allclose(_grid(f, 2), 0.0)  # 90 degrees: 67.5 away
    npt.assert_allclose(deg0, deg45)


def test_reversal_invariance():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.normal(0, 2, size=(15, 2)), axis=0)
    canvas = BBox(-20.0, -20.0, 20.0, 20.0)
    f_fwd = compute_idm(pts, canvas)
    f_rev = compute_idm(pts[::-1], canvas)
    npt.assert_allclose(f_fwd[:576], f_rev[:576], atol=1e-12)
    npt.assert_allclose(f_fwd[576:], f_rev[576:])  # endpoint set is unordered


def test_resampling_density_stability():
    from strokeseg.preprocess import resample_stroke
    t = np.linspace(0.0, np.pi / 2.0, 400)
    arc = Stroke(points=np.column_stack([50.0 * np.cos(t), 50.0 * np.sin(t)]))
    pts = resample_stroke(arc, spacing=1.0).points
    pts2 = resample_stroke(arc, spacing=0.5).points
    canvas = BBox(0.0, 0.0, 50.0, 50.0)
    d = np.abs(compute_idm(pts, canvas) - compute_idm(pts2, canvas))
    assert d.max() < 0.1


def test_compute_idm_needs_two_points():
    with pytest.raises(ValueError):
        compute_idm(np.array([[1.0, 1.0]]), BBox(0.0, 0.0, 1.0, 1.0))


def test_vertical_lines_identical_regardless_of_length_or_position():
    short = Stroke(points=np.array([[200.0, 50.0], [200.0, 50.5], [200.0, 51.0]]))
    tall = Stroke(points=np.array([[10.0, 0.0], [10.0, 60.0], [10.0, 120.0]]))
    npt.assert_allclose(idm_feature(short), idm_feature(tall), atol=1e-12)


def test_symbol_idm_matches_stroke_idm_for_single_stroke():
    pts = np.array([[0.0, 0.0], [4.0, 1.0], [8.0, 7.0]])
    symbol = Sketch(strokes=[Stroke(points=pts)])
    npt.assert_allclose(symbol_idm(symbol), idm_feature(symbol.strokes[0]))


def test_symbol_idm_is_per_cell_max_over_strokes():
    s1 = Stroke(points=np.array([[0.0, 0.0], [10.0, 0.0]]))
    s2 = Stroke(points=np.array([[0.0, 10.0], [10.0, 10.0]]))
    both = symbol_idm(Sketch(strokes=[s1, s2]))
    canvas_pts = np.vstack([s1.points, s2.points])
    from strokeseg.sketch import padded_square
    canvas = padded_square(BBox.of_points(canvas_pts))
    alone = np.maximum(compute_idm(s1.points, canvas),
                       compute_idm(s2.points, canvas))
    npt.assert_allclose(both, alone)


def test_spatial_features_worked_example():
    st = Stroke(points=np.array([[0.0, 0.0], [255.0, 255.0]]))
    out = spatial_features(st, BBox(0.0, 0.0, 255.0, 255.0))
    npt.assert_allclose(out, [0.0, 0.0, 1.0, 1.0, 0.5, 0.5])


def test_spatial_features_shift_sensitivity():
    canvas = BBox(0.0, 0.0, 100.0, 100.0)
    st = Stroke(points=np.array([[10.0, 10.0], [20.0, 30.0]]))
    shifted = Stroke(points=st.points + 5.0)
    a = spatial_features(st, canvas)
    b = spatial_features(shifted, canvas)
    assert np.all(np.abs(a - b) > 0)


def test_closed_stroke_spatial_symmetry():
    st = Stroke(points=np.array([[10.0, 10.0], [30.0, 10.0], [10.0, 10.0]]))
    out = spatial_features(st, BBox(0.0, 0.0, 100.0, 100.0))
    npt.assert_allclose(out[:2], out[2:4])


def test_variant_assembly_lengths():
    symbol = Sketch(strokes=[
        Stroke(points=np.array([[0.0, 0.0], [10.0, 0.0]])),
        Stroke(points=np.array([[0.0, 10.0], [10.0, 10.0]])),
    ])
    canvas = BBox(0.0, 0.0, 255.0, 255.0)
    st = symbol.strokes[0]
    assert segmentation_feature(symbol, st, canvas, "idm").shape == (720,)
    assert segmentation_feature(symbol, st, canvas, "idm-spt").shape == (726,)
    assert segmentation_feature(symbol, st, canvas, "idm-spt-con").shape == (1446,)
    assert FEATURE_VARIANTS == ("idm", "idm-spt", "idm-spt-con")
    with pytest.raises(ValueError):
        segmentation_feature(symbol, st, canvas, "fisher")


def test_context_feature_shares_symbol_block():
    symbol = Sketch(strokes=[
        Stroke(points=np.array([[0.0, 0.0], [10.0, 0.0]])),
        Stroke(points=np.array([[5.0, 1.0], [5.0, 9.0]])),
    ])
    canvas = BBox(0.0, 0.0, 255.0, 255.0)
    f1 = context_feature(symbol, symbol.strokes[0], canvas)
    f2 = context_feature(symbol, symbol.strokes[1], canvas)
    npt.assert_allclose(f1[720:1440], f2[720:1440])
    assert not np.allclose(f1[:720], f2[:720])


def test_compute_idm_bit_identical_to_point_by_point_splat():
    rng = np.random.default_rng(20)
    far_edge = 0
    for i in range(1200):
        n = int(rng.integers(2, 30))
        if i % 3 == 0:    # integer points: whole-cell coordinates up to gx == 11
            pts = rng.integers(0, GRID, size=(n, 2)).astype(np.float64)
            canvas = BBox(0.0, 0.0, GRID - 1.0, GRID - 1.0)
        elif i % 3 == 1:  # a stroke on its own padded square, as idm_feature draws it
            pts = rng.uniform(-50.0, 50.0, size=(n, 2))
            canvas = padded_square(BBox.of_points(pts))
        else:             # points past the canvas get clipped onto its edges
            pts = rng.uniform(-20.0, 275.0, size=(n, 2))
            canvas = BBox(0.0, 0.0, 255.0, 255.0)
        far_edge += int(np.any((pts[:, 0] - canvas.x_min) / canvas.width >= 1.0))
        npt.assert_array_equal(compute_idm(pts, canvas), compute_idm_ref(pts, canvas))
    assert far_edge > 300
