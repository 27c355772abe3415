import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrtrack.core import MIN_HEIGHT, BBox
from mrtrack.kalman import kf_init, kf_predict, kf_update, state_bbox

from oracles import (
    covariance,
    kf8_init,
    kf8_predict,
    kf8_update,
    kf_blocks_init,
    kf_blocks_predict,
    kf_blocks_update,
)


def _center(b: BBox) -> tuple[float, float]:
    return ((b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2)


def _cv_box(cx, cy, w, h, vx, vy, t) -> BBox:
    x, y = cx + vx * t, cy + vy * t
    return BBox(x - w / 2, y - h / 2, x + w / 2, y + h / 2)


class TestInit:
    def test_mean_from_box(self):
        s = kf_init(BBox(0, 0, 10, 20))
        np.testing.assert_allclose(s.mean, [5, 10, 0.5, 20, 0, 0, 0, 0])

    def test_zero_width_tolerated(self):
        s = kf_init(BBox(10, 10, 10, 30))
        np.testing.assert_allclose(s.mean, [10, 20, 0, 20, 0, 0, 0, 0])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            kf_init(BBox(0, 0, 0, 0))

    def test_velocity_uncertainty_dominates(self):
        s = kf_init(BBox(0, 0, 40, 40))
        pos_var = np.diag(covariance(s))[:4]
        vel_var = np.diag(covariance(s))[4:]
        np.testing.assert_allclose(vel_var, 100 * pos_var)


class TestPredict:
    def test_constant_velocity_step(self):
        s = kf_init(BBox(0, 0, 10, 20))._replace(vcx=1.0)
        p = kf_predict(s)
        np.testing.assert_allclose(p.mean[:4], [6, 10, 0.5, 20])

    def test_zero_velocity_keeps_position_grows_covariance(self):
        s = kf_init(BBox(0, 0, 10, 20))
        p = kf_predict(s)
        np.testing.assert_allclose(p.mean, s.mean)
        assert np.trace(covariance(p)) > np.trace(covariance(s))

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            s = kf_init(BBox(0, 0, rng.uniform(5, 60), rng.uniform(5, 60)))
            for _ in range(rng.integers(2, 10)):
                if rng.random() < 0.5:
                    s = kf_predict(s)
                else:
                    w, h = rng.uniform(5, 60, 2)
                    x, y = rng.uniform(0, 200, 2)
                    s = kf_update(s, BBox(x, y, x + w, y + h))
                asym = np.max(np.abs(covariance(s) - covariance(s).T))
                assert asym < 1e-9
                assert np.min(np.linalg.eigvalsh(covariance(s))) > -1e-9


class TestUpdate:
    def test_zero_innovation_fixed_point(self):
        s = kf_init(BBox(10, 10, 50, 90))
        s = kf_predict(s)
        u = kf_update(s, state_bbox(s))
        np.testing.assert_allclose(u.mean, s.mean, atol=1e-9)

    def test_observed_block_trace_shrinks(self):
        s = kf_predict(kf_init(BBox(10, 10, 50, 90)))
        u = kf_update(s, BBox(12, 12, 52, 92))
        assert np.trace(covariance(u)[:4, :4]) <= np.trace(covariance(s)[:4, :4])

    def test_fixed_box_convergence(self):
        # start 2 px off target; after 10 predict/update rounds both the
        # estimate and the next prediction sit on the box
        target = BBox(50, 60, 90, 140)
        s = kf_init(BBox(48, 60, 88, 140))
        for _ in range(10):
            s = kf_predict(s)
            s = kf_update(s, target)
        for box in (state_bbox(s), state_bbox(kf_predict(s))):
            err = max(
                abs(a - b) for a, b in zip(box.as_tuple(), target.as_tuple())
            )
            assert err < 0.1

    def test_rejects_degenerate_measurement(self):
        s = kf_init(BBox(0, 0, 10, 20))
        with pytest.raises(ValueError):
            kf_update(s, BBox(5, 5, 15, 5))


class TestConstantVelocityTracking:
    def test_one_step_prediction_converges(self):
        # exact constant-velocity input at 10 px/frame
        s = kf_init(_cv_box(100, 100, 30, 40, 10, 0, 0))
        err = None
        for t in range(1, 11):
            s = kf_predict(s)
            pred = _center(state_bbox(s))
            true = (100 + 10 * t, 100)
            err = max(abs(pred[0] - true[0]), abs(pred[1] - true[1]))
            s = kf_update(s, _cv_box(100, 100, 30, 40, 10, 0, t))
        assert err < 0.5

    def test_prediction_error_non_increasing_after_frame_3(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vx, vy = rng.uniform(-8, 8, 2)
            w, h = rng.uniform(15, 90, 2)
            s = kf_init(_cv_box(200, 200, w, h, vx, vy, 0))
            errs = []
            for t in range(1, 12):
                s = kf_predict(s)
                pred = _center(state_bbox(s))
                true = (200 + vx * t, 200 + vy * t)
                errs.append(
                    max(abs(pred[0] - true[0]), abs(pred[1] - true[1]))
                )
                s = kf_update(s, _cv_box(200, 200, w, h, vx, vy, t))
            for a, b in zip(errs[2:], errs[3:]):
                assert b <= a + 1e-9
            assert errs[9] < 0.5


_boxes = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h),
    st.floats(-100, 600),
    st.floats(-100, 600),
    st.floats(0, 120),  # zero width is a valid measurement
    st.floats(1, 120),
)
# an int is a run of that many coasting predicts, a box is one update
_ops = st.lists(st.one_of(st.integers(1, 30), _boxes), max_size=12)


class TestBlockFilterMatchesReference:
    """The four 2-state blocks against the 8x8 filter in oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(_boxes, _ops)
    @example(BBox(10, 10, 50, 90), [BBox(14, 12, 54, 90), 25, BBox(70, 20, 110, 100)])
    @example(BBox(0, 0, 0, 30), [40, 3, BBox(5, 5, 5, 40), 1])
    def test_interleavings_match_8x8_filter(self, first, ops):
        s = kf_init(first)
        mean, cov = kf8_init(first.as_tuple())
        for op in ops:
            if isinstance(op, int):
                for _ in range(op):
                    s = kf_predict(s)
                    mean, cov = kf8_predict(mean, cov)
            else:
                s = kf_update(s, op)
                mean, cov = kf8_update(mean, cov, op.as_tuple())
            np.testing.assert_allclose(s.mean, mean, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(covariance(s), cov, rtol=1e-9, atol=1e-9)


class TestFloatState:
    """The filter state is plain floats whatever number type the boxes hold."""

    @pytest.mark.parametrize("number", [np.float64, int], ids=["numpy", "int"])
    def test_every_field_is_a_float(self, number):
        s = kf_init(BBox(*map(number, (10, 20, 50, 90))))
        assert all(type(v) is float for v in s)
        s = kf_predict(s)
        assert all(type(v) is float for v in s)
        s = kf_update(s, BBox(*map(number, (12, 21, 53, 92))))
        assert all(type(v) is float for v in s)


def _bits(values) -> list[str]:
    """Each value's exact bit pattern: 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


def _flat(state) -> tuple:
    mean, var_p, cov_pv, var_v = state
    return (*mean, *var_p, *cov_pv, *var_v)


# heights down to the filter's floor, at y1 = 0 so that y2 - y1 is exact
_low_boxes = st.builds(
    lambda x, w, h: BBox(x, 0.0, x + w, h),
    st.floats(-100, 600),
    st.one_of(st.just(0.0), st.floats(0, 120)),
    st.floats(MIN_HEIGHT, 1e-90),
)
_any_boxes = st.one_of(_boxes, _low_boxes)
# coasting runs long enough for a height to pass 0 and the covariance to grow
_long_ops = st.lists(st.one_of(st.integers(1, 200), _any_boxes), max_size=12)


class TestWrittenOutBlocksMatchOracle:
    """kf_init, kf_predict and kf_update against the mapped block update in
    oracles.py, bit for bit, on plain-float and on numpy-scalar boxes."""

    @settings(max_examples=200, deadline=None)
    @given(_any_boxes, _long_ops, st.booleans())
    @example(BBox(0, 0, 0, 30), [200, BBox(5, 5, 5, 40), 1], False)
    @example(BBox(3.5, 0.0, 3.5, MIN_HEIGHT), [BBox(10, 20, 50, 90), 150], True)
    def test_bit_identical(self, first, ops, numpy_boxes):
        def box(b):
            return BBox(*map(np.float64, b.as_tuple())) if numpy_boxes else b

        s = kf_init(box(first))
        o = kf_blocks_init(box(first).as_tuple())
        assert _bits(s) == _bits(_flat(o))
        for op in ops:
            if isinstance(op, int):
                for _ in range(op):
                    s = kf_predict(s)
                    o = kf_blocks_predict(o)
            else:
                s = kf_update(s, box(op))
                o = kf_blocks_update(o, box(op).as_tuple())
            assert _bits(s) == _bits(_flat(o))
