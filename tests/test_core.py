import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrtrack.core import (
    BBox,
    Detection,
    FramePacket,
    TrackerConfig,
    clamp_conf,
    iou,
    rescale_bbox,
    rescale_packet_to_native,
)

coords = st.floats(min_value=-500, max_value=500, allow_nan=False)
sizes = st.floats(min_value=0, max_value=300, allow_nan=False)
pos_sizes = st.floats(min_value=1, max_value=300, allow_nan=False)


@st.composite
def boxes(draw, min_size=0.0):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(sizes if min_size == 0 else pos_sizes)
    h = draw(sizes if min_size == 0 else pos_sizes)
    return BBox(x1, y1, x1 + w, y1 + h)


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 5, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            BBox(0, math.nan, 1, 1)

    def test_area(self):
        assert BBox(0, 0, 10, 20).area == 200


class TestIou:
    def test_identical_boxes(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_partial_overlap(self):
        # inter = 5*5, union = 100 + 100 - 25 = 175
        v = iou(BBox(0, 0, 10, 10), BBox(5, 5, 15, 15))
        assert v == pytest.approx(25 / 175, abs=1e-12)

    def test_degenerate_pair_is_zero(self):
        a = BBox(3, 3, 3, 3)
        assert iou(a, a) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a), abs=0)

    @given(boxes(), boxes())
    def test_bounded(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0

    @given(boxes(min_size=1))
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == pytest.approx(1.0, abs=1e-12)

    @given(boxes(), boxes(), st.sampled_from([2, 3, 7]))
    def test_uniform_rescale_invariance(self, a, b, k):
        base = (100, 100)
        scaled = (100 * k, 100 * k)
        va = iou(a, b)
        vb = iou(rescale_bbox(a, base, scaled), rescale_bbox(b, base, scaled))
        assert vb == pytest.approx(va, abs=1e-9)


class TestRescaleBBox:
    def test_uniform_upscale(self):
        b = rescale_bbox(BBox(0, 0, 96, 96), (192, 192), (320, 320))
        assert b.as_tuple() == pytest.approx((0, 0, 160, 160))

    def test_identity(self):
        b = BBox(3.5, 4.5, 70, 80)
        assert rescale_bbox(b, (192, 192), (192, 192)) == b

    def test_componentwise(self):
        b = rescale_bbox(BBox(19.2, 0, 96, 48), (192, 192), (320, 320))
        assert b.as_tuple() == pytest.approx((32, 0, 160, 80))

    def test_zero_source_resolution(self):
        with pytest.raises(ValueError):
            rescale_bbox(BBox(0, 0, 1, 1), (0, 192), (320, 320))

    @given(boxes(), st.tuples(st.integers(1, 2000), st.integers(1, 2000)),
           st.tuples(st.integers(1, 2000), st.integers(1, 2000)))
    def test_round_trip(self, b, r1, r2):
        back = rescale_bbox(rescale_bbox(b, r1, r2), r2, r1)
        for got, want in zip(back.as_tuple(), b.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)


class TestConfigs:
    def test_tracker_config_ordering(self):
        with pytest.raises(ValueError):
            TrackerConfig(high_threshold=0.3, low_threshold=0.5)

    def test_clamp_conf(self):
        assert clamp_conf(1.0) == 1.0 - 1e-4
        assert clamp_conf(-0.5) == 0.0
        assert clamp_conf(0.5) == 0.5


class TestDetectionAndPacket:
    def test_detection_validation(self):
        with pytest.raises(ValueError):
            Detection(BBox(0, 0, 1, 1), class_id=-1, conf=0.5)
        with pytest.raises(ValueError):
            Detection(BBox(0, 0, 1, 1), class_id=0, conf=1.5)

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            FramePacket(-1, (192, 192), (320, 320))
        with pytest.raises(ValueError):
            FramePacket(0, (0, 192), (320, 320))

    def test_rescale_packet_to_native(self):
        det = Detection(BBox(0, 0, 96, 96), 0, 0.9)
        packet = FramePacket(0, (192, 192), (320, 320), (det,))
        native = rescale_packet_to_native(packet)
        assert native.detections[0].bbox.as_tuple() == pytest.approx(
            (0, 0, 160, 160)
        )
        assert native.inference_resolution == (192, 192)

    def test_rescale_packet_identity(self):
        det = Detection(BBox(0, 0, 96, 96), 0, 0.9)
        packet = FramePacket(0, (320, 320), (320, 320), (det,))
        assert rescale_packet_to_native(packet) is packet
