import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrtrack.core import (
    MIN_HEIGHT,
    BBox,
    Detection,
    FramePacket,
    RescoreConfig,
    TrackerConfig,
    bbox_to_cxcyah,
    clamp_conf,
    iou,
    replace,
    rescale_bbox,
    rescale_packet_to_native,
)
from mrtrack.schedule import ResolutionSchedule
from mrtrack.synth import DegradationLevel, SynthScenario

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


# a valid example of each checked record, its defaulted fields at their defaults
_EXAMPLES = [
    BBox(0, 0, 1, 2),
    Detection(BBox(0, 0, 1, 1), 0, 0.5),
    FramePacket(0, (192, 192), (320, 320)),
    TrackerConfig(0.5, 0.1),
    RescoreConfig(),
    ResolutionSchedule(5, (320, 320), (192, 192), 463.0, 167.0),
    DegradationLevel((320, 320)),
    SynthScenario(1, 2, 3, (320, 320), (DegradationLevel((320, 320)),)),
]
_CHECKED = [type(example) for example in _EXAMPLES]

# (valid record, one invalid field, the message its checks raise), a row
# per checked record
_INVALID = [
    (_EXAMPLES[0], {"x2": -1}, "inverted box"),
    (_EXAMPLES[1], {"class_id": -1}, "negative class id"),
    (_EXAMPLES[2], {"frame_index": -1}, "negative frame index"),
    (_EXAMPLES[3], {"tau_iou": 1.5}, "tau_iou out of"),
    (_EXAMPLES[4], {"history_len": 0}, "history_len must be >= 1"),
    (_EXAMPLES[5], {"P": -1}, "P must be >= 0"),
    (_EXAMPLES[6], {"drop_prob": 1.5}, "probability out of"),
    (_EXAMPLES[7], {"n_objects": 0}, "n_objects must be positive"),
]


class TestRecords:
    """Checked records: NamedTuples whose constructor runs the checks."""

    @pytest.mark.parametrize("cls", _CHECKED, ids=lambda c: c.__name__)
    def test_constructor_matches_the_fields(self, cls):
        # the constructor takes the NamedTuple's fields, by position or by
        # keyword, and its defaults, which the YAML reader reads
        example = _EXAMPLES[_CHECKED.index(cls)]
        assert cls(*example) == example and type(cls(*example)) is cls
        assert cls(**example._asdict()) == example
        required = [f for f in cls._fields if f not in cls._field_defaults]
        built = cls(*example[:len(required)])
        assert {f: getattr(built, f) for f in cls._field_defaults} == cls._field_defaults
        assert cls.__slots__ == ()

    @pytest.mark.parametrize("cls", [BBox, Detection], ids=lambda c: c.__name__)
    def test_hand_written_constructor_lists_the_fields(self, cls):
        code = cls.__new__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls._fields

    @pytest.mark.parametrize("cls", _CHECKED[2:], ids=lambda c: c.__name__)
    def test_checked_keeps_the_class_identity(self, cls):
        base = cls.__mro__[1]
        assert (cls.__name__, cls.__qualname__, cls.__module__, cls.__doc__) == (
            base.__name__, base.__qualname__, base.__module__, base.__doc__)
        # pickle finds the class by module and qualified name, and rebuilds
        # the record through its constructor
        example = _EXAMPLES[_CHECKED.index(cls)]
        assert type(pickle.loads(pickle.dumps(example))) is cls

    def test_value_semantics(self):
        box = BBox(0, 0, 1, 2)
        assert repr(box) == "BBox(x1=0, y1=0, x2=1, y2=2)"
        assert box == BBox(0, 0, 1, 2) and hash(box) == hash(BBox(0, 0, 1, 2))
        assert box != BBox(0, 0, 1, 3)
        with pytest.raises(AttributeError):
            box.x1 = 5
        with pytest.raises(AttributeError):
            box.label = "a"
        cfg = TrackerConfig(0.5, 0.1)
        assert repr(cfg) == (
            "TrackerConfig(high_threshold=0.5, low_threshold=0.1, tau_iou=0.3, "
            "tau_init=2, tau_dead=5)"
        )
        with pytest.raises(AttributeError):
            cfg.label = "a"

    def test_replace_runs_the_checks(self):
        cfg = TrackerConfig(0.5, 0.1)
        assert replace(cfg, tau_iou=0.4) == TrackerConfig(0.5, 0.1, tau_iou=0.4)
        for record, change, message in _INVALID:
            with pytest.raises(ValueError, match=message):
                replace(record, **change)
            # _replace builds without them
            assert record._replace(**change)._asdict() == {**record._asdict(), **change}


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


def _unchecked(x1, y1, x2, y2):
    """A BBox built without its checks (``_make``), to reach the filter's own."""
    return BBox._make((x1, y1, x2, y2))


class TestBoxToFilterSpace:
    """``bbox_to_cxcyah``: the motion filter's one input check."""

    def test_converts(self):
        assert bbox_to_cxcyah(BBox(0, 10, 30, 20)) == (15.0, 15.0, 3.0, 10.0)

    def test_zero_height(self):
        with pytest.raises(ValueError, match=r"^zero-height box \(0, 5, 10, 5\) is under"):
            bbox_to_cxcyah(BBox(0, 5, 10, 5))

    def test_height_under_the_floor(self):
        with pytest.raises(ValueError, match=r"^box of height 1e-101 .* 1e-100 px floor"):
            bbox_to_cxcyah(BBox(0, 0, 1, 1e-101))
        assert bbox_to_cxcyah(BBox(0, 0, 1, MIN_HEIGHT))[3] == MIN_HEIGHT

    @pytest.mark.parametrize("corner", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_corner(self, corner, bad):
        box = [0.0, 0.0, 10.0, 10.0]
        box[corner] = bad
        # y2 = -inf or y1 = +inf makes the height -inf, which the floor rejects
        negative_height = (corner, bad) in ((3, -math.inf), (1, math.inf))
        message = "box of height -inf" if negative_height else "non-finite center, aspect or height"
        with pytest.raises(ValueError, match=message):
            bbox_to_cxcyah(_unchecked(*box))

    @pytest.mark.parametrize(
        "box",
        [
            BBox(1e308, 0, 1.7e308, 1),  # x1 + x2 overflows: the center
            BBox(-1e308, 0, 1e308, 1),  # x2 - x1 overflows: the aspect
            BBox(0, -1e308, 1, 1e308),  # y2 - y1 overflows: the height
            BBox(0, 0, 1e300, 1e-10),  # finite width over a tiny height: the aspect
        ],
    )
    def test_finite_box_that_overflows(self, box):
        with pytest.raises(ValueError, match=r": non-finite center, aspect or height$"):
            bbox_to_cxcyah(box)
