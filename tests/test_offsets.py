import numpy as np
import numpy.testing as npt
import pytest

from strokeseg.offsets import (PADDING_ROW, PEN_DRAW, PEN_END, PEN_UP,
                               START_ROW, StrokeBatch, augment_scale,
                               make_stroke_batches, to_offsets)
from strokeseg.sketch import Sketch, Stroke
from oracles import from_offsets


def _stroke(*pts, label=None):
    return Stroke(points=np.asarray(pts, dtype=np.float64), label=label)


def test_pen_state_conventions():
    assert (PEN_DRAW, PEN_UP, PEN_END) == (0, 1, 2)
    npt.assert_array_equal(PADDING_ROW, [0, 0, 0, 0, 1])
    npt.assert_array_equal(START_ROW, [0, 0, 1, 0, 0])


def test_to_offsets_worked_example():
    rows = to_offsets(_stroke((3.0, 4.0), (3.0, 9.0)))
    npt.assert_allclose(rows, [[3.0, 4.0, 1.0, 0.0, 0.0],
                               [0.0, 5.0, 0.0, 1.0, 0.0]])


def test_to_offsets_origin_at_first_point():
    rows = to_offsets(_stroke((7.0, 2.0), (9.0, 2.0)), origin=(7.0, 2.0))
    npt.assert_allclose(rows[0, :2], [0.0, 0.0])


def test_offsets_round_trip():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.normal(0, 4, size=(12, 2)), axis=0) + [30.0, 40.0]
    st = _stroke(*pts)
    back = from_offsets(to_offsets(st))
    npt.assert_allclose(back, st.points, atol=1e-12)


def test_from_offsets_stops_at_pen_up_and_skips_padding():
    rows = np.array([[1.0, 1.0, 1, 0, 0],
                     [1.0, 0.0, 0, 1, 0],
                     [9.0, 9.0, 0, 0, 1],
                     [9.0, 9.0, 0, 0, 1]], dtype=np.float64)
    npt.assert_allclose(from_offsets(rows), [[1.0, 1.0], [2.0, 1.0]])


def test_make_stroke_batches_worked_example():
    # three sketches with 4, 2, and 1 strokes respectively
    def sk(n_strokes, step):
        strokes = [_stroke((0.0, 0.0), (step * (k + 1), 0.0), (step * (k + 1), 3.0))
                   for k in range(n_strokes)]
        return Sketch(strokes=strokes)

    sketches = [sk(4, 1.0), sk(2, 2.0), sk(1, 3.0)]
    batches = make_stroke_batches(sketches, batch_size=3)
    assert len(batches) == 4
    assert [b.temporal_index for b in batches] == [0, 1, 2, 3]
    for b in batches:
        assert b.sequences.shape[0] == 3
        assert b.sequences.shape[2] == 5

    # batch 2 (1-based): second strokes of sketches 1 and 2, padding for 3
    b2 = batches[1]
    npt.assert_allclose(b2.sequences[0], to_offsets(sketches[0].strokes[1]))
    npt.assert_allclose(b2.sequences[1], to_offsets(sketches[1].strokes[1]))
    npt.assert_array_equal(b2.sequences[2],
                           np.tile(PADDING_ROW, (b2.sequences.shape[1], 1)))
    npt.assert_array_equal(b2.mask, [[1, 1, 1], [1, 1, 1], [0, 0, 0]])

    # batches 3 and 4 only have real rows from the 4-stroke sketch
    for b in batches[2:]:
        assert b.mask[0].all()
        assert not b.mask[1].any() and not b.mask[2].any()


def test_make_stroke_batches_right_pads_to_longest():
    sketches = [Sketch(strokes=[_stroke((0, 0), (1, 0))]),
                Sketch(strokes=[_stroke((0, 0), (1, 0), (2, 0), (3, 0))])]
    (batch,) = make_stroke_batches(sketches, batch_size=2)
    assert batch.sequences.shape == (2, 4, 5)
    npt.assert_array_equal(batch.sequences[0, 2:],
                           np.tile(PADDING_ROW, (2, 1)))
    npt.assert_array_equal(batch.mask, [[1, 1, 0, 0], [1, 1, 1, 1]])


def test_make_stroke_batches_groups_by_window():
    sketches = [Sketch(strokes=[_stroke((0, 0), (1, 0))]) for _ in range(5)]
    batches = make_stroke_batches(sketches, batch_size=2)
    # windows of 2, 2, 1 sketches, each with a single temporal slot
    assert len(batches) == 3
    assert [b.sequences.shape[0] for b in batches] == [2, 2, 1]


def test_make_stroke_batches_single_sketch_no_padding():
    sk = Sketch(strokes=[_stroke((0, 0), (1, 0)), _stroke((1, 0), (1, 1))])
    batches = make_stroke_batches([sk], batch_size=1)
    assert len(batches) == 2
    for b in batches:
        assert b.mask.all()


def test_stroke_batch_validates_padding():
    seq = np.tile(PADDING_ROW, (1, 3, 1)).astype(np.float64)
    seq[0, 1] = [1.0, 0.0, 1.0, 0.0, 0.0]
    mask = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        StrokeBatch(sequences=seq, mask=mask, temporal_index=0)


def test_augment_scale_uses_one_factor_per_axis():
    rows = to_offsets(_stroke((0.0, 0.0), (10.0, 0.0), (20.0, 10.0), (30.0, 30.0)))
    rng = np.random.default_rng(1)
    out = augment_scale(rows, rng)
    with np.errstate(invalid="ignore"):
        fx = out[:, 0] / rows[:, 0]
        fy = out[:, 1] / rows[:, 1]
    fx = fx[np.isfinite(fx)]
    fy = fy[np.isfinite(fy)]
    assert np.allclose(fx, fx[0]) and np.allclose(fy, fy[0])
    assert 0.9 <= fx[0] <= 1.1 and 0.9 <= fy[0] <= 1.1
    npt.assert_array_equal(out[:, 2:], rows[:, 2:])


def test_augment_scale_draws_fresh_factors():
    rows = to_offsets(_stroke((1.0, 1.0), (2.0, 2.0)))
    rng = np.random.default_rng(2)
    draws = {float(augment_scale(rows, rng)[0, 0]) for _ in range(8)}
    assert len(draws) > 1
