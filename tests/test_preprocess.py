import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.preprocess import (normalize_sketch, preprocess_sketch,
                                  rdp_simplify, remove_tiny_strokes,
                                  resample_stroke)
from strokeseg.sketch import Sketch, Stroke
from oracles import rdp_indices_ref, rdp_ref, within_band


def _sketch(*pointsets, category=None):
    return Sketch(strokes=[Stroke(points=np.asarray(p, dtype=np.float64))
                           for p in pointsets], category=category)


def test_normalize_spans_zero_to_255_with_shared_scale():
    sk = _sketch([[10.0, 10.0], [20.0, 15.0]])
    out = normalize_sketch(sk)
    pts = out.all_points()
    npt.assert_allclose(pts.min(), 0.0, atol=1e-9)
    npt.assert_allclose(pts.max(), 255.0, atol=1e-9)
    # uniform scale: the 2:1 aspect of the input is preserved
    npt.assert_allclose(pts[1] - pts[0], [255.0, 127.5])


def test_normalize_is_idempotent():
    sk = _sketch([[0.0, 40.0], [255.0, 100.0]])
    out = normalize_sketch(sk)
    npt.assert_allclose(out.all_points(), sk.all_points(), atol=1e-9)


def test_normalize_pools_both_axes_and_strokes():
    sk = _sketch([[5.0, 50.0], [10.0, 60.0]], [[0.0, 90.0], [20.0, 100.0]])
    out = normalize_sketch(sk)
    pooled = out.all_points()
    npt.assert_allclose(pooled.min(), 0.0, atol=1e-9)
    npt.assert_allclose(pooled.max(), 255.0, atol=1e-9)


def test_normalize_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize_sketch(_sketch([[7.0, 7.0], [7.0, 7.0]]))


def test_normalize_keeps_labels():
    sk = Sketch(strokes=[Stroke(points=np.array([[0.0, 0.0], [1.0, 2.0]]),
                                label="leg")])
    assert normalize_sketch(sk).strokes[0].label == "leg"


def test_resample_vertical_segment_unit_spacing():
    out = resample_stroke(Stroke(points=np.array([[0.0, 0.0], [0.0, 4.0]])),
                          spacing=1.0)
    npt.assert_allclose(out.points, [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4]])


def test_resample_lshape_walks_arc_length():
    st = Stroke(points=np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
    out = resample_stroke(st, spacing=1.0)
    # arc length 7 -> 8 points, one per unit of arc, corner at arc 3
    expected = np.array([[0, 0], [1, 0], [2, 0], [3, 0],
                         [3, 1], [3, 2], [3, 3], [3, 4]], dtype=np.float64)
    npt.assert_allclose(out.points, expected, atol=1e-12)
    npt.assert_allclose(out.points[-1], st.points[-1])


def test_resample_short_segment_keeps_endpoints():
    st = Stroke(points=np.array([[0.0, 0.0], [0.3, 0.4]]))
    out = resample_stroke(st, spacing=1.0)
    npt.assert_allclose(out.points, st.points)


def test_resample_consecutive_spacing_is_uniform():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.normal(0, 3, size=(40, 2)), axis=0)
    out = resample_stroke(Stroke(points=pts), spacing=1.0).points
    gaps = np.linalg.norm(np.diff(out[:-1], axis=0), axis=1)
    # interior gaps measure 1 along the arc; chord lengths can only be shorter
    assert np.all(gaps <= 1.0 + 1e-9)
    assert gaps.mean() > 0.8


def test_rdp_drops_near_collinear_interior():
    st = Stroke(points=np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.0]]))
    out = rdp_simplify(st, epsilon=2.0)
    npt.assert_allclose(out.points, [[0.0, 0.0], [2.0, 0.0]])


def test_rdp_epsilon_zero_keeps_general_position_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 2.0]])
    out = rdp_simplify(Stroke(points=pts), epsilon=0.0)
    npt.assert_allclose(out.points, pts)


def test_rdp_keeps_far_corner():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
    out = rdp_simplify(Stroke(points=pts), epsilon=2.0)
    npt.assert_allclose(out.points, pts)


def test_rdp_matches_reference_on_random_polylines():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = rng.integers(2, 12)
        pts = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
        for eps in (0.5, 1.0, 2.0):
            mine = rdp_simplify(Stroke(points=pts), epsilon=eps).points
            ref = rdp_ref(pts, eps)
            npt.assert_array_equal(mine, ref)


def test_rdp_output_satisfies_band_condition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pts = rng.uniform(0, 10, size=(9, 2))
        out = rdp_simplify(Stroke(points=pts), epsilon=1.0).points
        kept = [int(np.where((pts == q).all(axis=1))[0][0]) for q in out]
        assert kept[0] == 0 and kept[-1] == len(pts) - 1
        assert within_band(pts, kept, 1.0)


def test_remove_tiny_strokes_threshold():
    long1 = [[0.0, 0.0], [40.0, 0.0]]
    tick = [[0.0, 0.0], [3.0, 0.0]]
    exact = [[0.0, 0.0], [15.0, 0.0]]
    out = remove_tiny_strokes(_sketch(long1, tick, exact), min_length=15.0)
    assert len(out) == 2
    npt.assert_allclose(out.strokes[1].points[-1], [15.0, 0.0])


def test_remove_tiny_strokes_zero_is_identity():
    sk = _sketch([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]])
    assert len(remove_tiny_strokes(sk, min_length=0.0)) == 2


def test_remove_tiny_strokes_all_tiny_errors():
    with pytest.raises(ValueError):
        remove_tiny_strokes(_sketch([[0.0, 0.0], [1.0, 0.0]]), min_length=15.0)


def test_preprocess_pipeline_end_to_end():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, np.pi, 60)
    arc = np.column_stack([40.0 * np.cos(t) + 50.0, 30.0 * np.sin(t) + 20.0])
    tick = np.array([[0.0, 0.0], [0.4, 0.3]])
    sk = _sketch(arc, tick, category="chair")
    out = preprocess_sketch(sk)
    assert out.category == "chair"
    assert len(out) == 1  # the tick dies to the length filter
    pts = out.all_points()
    assert pts.min() >= -1e-9 and pts.max() <= 255.0 + 1e-9
    # RDP with epsilon 2 cuts the 1px-resampled arc down hard
    assert 3 <= len(out.strokes[0].points) < 40


def test_preprocess_errors_when_nothing_survives():
    # after normalization the single 1px tick spans ~2.5px, under the filter
    sk = _sketch([[0.0, 100.0], [1.0, 100.0]])
    with pytest.raises(ValueError):
        preprocess_sketch(sk)


def test_normalize_hits_both_ends_exactly():
    rng = np.random.default_rng(17)
    for _ in range(300):
        strokes = [rng.uniform(-1e3, 1e3, size=(int(rng.integers(2, 12)), 2))
                   * rng.uniform(1e-3, 1e2) for _ in range(int(rng.integers(1, 4)))]
        pts = normalize_sketch(Sketch(strokes=[Stroke(points=s) for s in strokes])).all_points()
        assert pts.min() == 0.0
        assert pts.max() == 255.0


def _near_tie_polylines(rng):
    """Polylines whose RDP choices hinge on the last bits of a distance:
    points at epsilon * (1 +- k ulp-ish) from a rotated chord, resampled
    circular arcs (mirror-equal distances), and closed loops (a == b)."""
    for eps in (0.5, 1.0, 2.0):
        for _ in range(40):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            u = np.array([np.cos(theta), np.sin(theta)])
            a = rng.uniform(20.0, 235.0, size=2)
            length = rng.uniform(5.0, 60.0)
            s = np.sort(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 7))))
            k = rng.integers(-4, 5, size=len(s))
            side = rng.choice([-1.0, 1.0], size=len(s))
            off = eps * (1.0 + k * 1e-16) * side
            inner = a + np.outer(s * length, u) + np.outer(off, [-u[1], u[0]])
            yield np.vstack([a, inner, a + length * u]), eps
        for _ in range(20):
            span = rng.uniform(0.3, 2.0 * np.pi)
            t = np.linspace(0.0, span, 50)
            r = rng.uniform(3.0, 120.0)
            c = rng.uniform(0.0, 255.0, size=2)
            arc = Stroke(points=c + r * np.column_stack([np.cos(t), np.sin(t)]))
            yield resample_stroke(arc).points, eps
        for _ in range(10):
            t = np.linspace(0.0, 2.0 * np.pi, int(rng.integers(5, 40)))
            loop = rng.uniform(5.0, 200.0) * np.column_stack([np.cos(t), np.sin(t)])
            loop[-1] = loop[0]
            yield loop + rng.uniform(0.0, 50.0, size=2), eps


def test_rdp_near_ties_match_scalar_reference():
    rng = np.random.default_rng(29)
    for pts, eps in _near_tie_polylines(rng):
        out = rdp_simplify(Stroke(points=pts), epsilon=eps).points
        assert np.array_equal(out, pts[rdp_indices_ref(pts, eps)])


def test_rdp_keeps_endpoints_when_distances_overflow():
    # squared lengths overflow to NaN distances; as in the scalar algorithm,
    # no NaN exceeds epsilon
    pts = np.random.default_rng(41).uniform(-1.0, 1.0, size=(12, 2)) * 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        out = rdp_simplify(Stroke(points=pts), epsilon=2.0).points
    npt.assert_array_equal(out, pts[[0, -1]])
