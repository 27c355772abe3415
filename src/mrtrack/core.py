"""Shared domain types, geometry, and configuration.

All boxes are axis-aligned rectangles in corner format (x1, y1, x2, y2),
real-valued pixel coordinates. Detector outputs arrive in the coordinate
space of whatever resolution the frame was inferred at; everything is
normalized to the native (full) resolution before association, via
``rescale_bbox`` / ``rescale_packet_to_native``.

The motion filter works in center/aspect-ratio/height space. Its input
check, ``bbox_to_cxcyah``, lives here, since the loaders apply it to every
box; the way back, a filter state to a box, is ``kalman.state_bbox``'s.

So does the rule for which box a file may hold, ``out_of_bounds`` and
``check_detection_box``: the detection loader and ``synth.generate`` both
apply it.

Records are NamedTuples, so no command pays for dataclass machinery at
start-up. A config or packet record is a NamedTuple with a ``_check``
method, which ``checked`` makes the slotted subclass whose constructor,
NamedTuple's own, runs it. ``BBox`` and ``Detection``, built once per box,
keep a hand-written ``__new__`` that checks, then builds with
``tuple.__new__``. ``_replace`` and ``_make`` skip the checks, so code
changes a record with ``replace``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

Resolution = tuple[int, int]

DEFAULT_EPSILON = 1e-4

# The largest coordinate magnitude a loaded box may have, in pixels. Below it,
# box areas and unions, and the filter's squared heights, stay finite.
MAX_COORDINATE = 1e100
# The smallest height the motion filter takes: its variances (h / 20)**2 stay
# normal floats (at 1e-200 they underflow and the update divides 0 by 0), and
# within MAX_COORDINATE the aspect w / h <= 2e200 stays finite.
MIN_HEIGHT = 1.0 / MAX_COORDINATE
_FLOAT_MAX = sys.float_info.max


# builds a record from one tuple of its values, after its constructor's checks
_record = tuple.__new__


class _BBox(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class BBox(_BBox):
    """Axis-aligned box with x1 <= x2, y1 <= y2 and finite coordinates."""

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float) -> BBox:
        # one chain holds only for ordered corners within the float range,
        # where the checks below all pass; anything else takes those checks
        if -_FLOAT_MAX <= x1 <= x2 <= _FLOAT_MAX and -_FLOAT_MAX <= y1 <= y2 <= _FLOAT_MAX:
            return _record(cls, (x1, y1, x2, y2))
        for v in (x1, y1, x2, y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        if x2 < x1 or y2 < y1:
            raise ValueError(f"inverted box: ({x1}, {y1}, {x2}, {y2})")
        return _record(cls, (x1, y1, x2, y2))

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


class _Detection(NamedTuple):
    bbox: BBox
    class_id: int
    conf: float


class Detection(_Detection):
    """One detector output: box, class index, confidence.

    On-disk confidences may be anywhere in [0, 1]; ingestion clamps them to
    [0, 1 - epsilon] (see ``clamp_conf``) so the rescoring algebra never
    divides by zero.
    """

    __slots__ = ()

    def __new__(cls, bbox: BBox, class_id: int, conf: float) -> Detection:
        if class_id < 0:
            raise ValueError(f"negative class id: {class_id}")
        if not math.isfinite(conf) or not 0.0 <= conf <= 1.0:
            raise ValueError(f"confidence out of [0, 1]: {conf!r}")
        return _record(cls, (bbox, class_id, conf))


def checked(base):
    """``base``, a NamedTuple with a ``_check`` method, as the slotted subclass
    of the same name whose constructor is NamedTuple's own (same parameters
    and defaults) followed by ``_check`` on the record it built."""
    make = base.__new__

    def __new__(cls, *args, **kwargs):
        record = make(cls, *args, **kwargs)
        record._check()
        return record

    return type(base.__name__, (base,), {
        "__slots__": (), "__new__": __new__, "__module__": base.__module__,
        "__qualname__": base.__qualname__, "__doc__": base.__doc__,
    })


@checked
class FramePacket(NamedTuple):
    """All detections of one frame, tagged with the inference resolution.

    Coordinates are in ``inference_resolution`` space until the CLI converts
    each loaded packet, once, with ``rescale_packet_to_native`` (tag kept).
    """

    frame_index: int
    inference_resolution: Resolution
    native_resolution: Resolution
    detections: tuple[Detection, ...] = ()

    def _check(self) -> None:
        if self.frame_index < 0:
            raise ValueError(f"negative frame index: {self.frame_index}")
        for res in (self.inference_resolution, self.native_resolution):
            if res[0] <= 0 or res[1] <= 0:
                raise ValueError(f"non-positive resolution: {res}")


class TrackOutput(NamedTuple):
    """One emitted track observation: id, motion-refined box, class, confidence."""

    track_id: int
    bbox: BBox
    class_id: int
    conf: float


@checked
class TrackerConfig(NamedTuple):
    """Association and lifecycle thresholds for the two-pass tracker."""

    high_threshold: float
    low_threshold: float
    tau_iou: float = 0.3
    tau_init: int = 2
    tau_dead: int = 5

    def _check(self) -> None:
        if not self.low_threshold < self.high_threshold:
            raise ValueError(
                f"low_threshold {self.low_threshold} must be below "
                f"high_threshold {self.high_threshold}"
            )
        if not 0.0 < self.tau_iou < 1.0:
            raise ValueError(f"tau_iou out of (0, 1): {self.tau_iou}")
        if self.tau_init < 1 or self.tau_dead < 1:
            raise ValueError("tau_init and tau_dead must be >= 1")


@checked
class RescoreConfig(NamedTuple):
    """Parameters of the confidence-fusion update."""

    history_len: int = 3

    def _check(self) -> None:
        if self.history_len < 1:
            raise ValueError(f"history_len must be >= 1: {self.history_len}")


def replace(record, **changes):
    """``record`` with ``changes``, built by its constructor, so a checked
    record's checks run on the result (``_replace`` would skip them)."""
    return type(record)(**{**record._asdict(), **changes})


def clamp_conf(conf: float) -> float:
    """Clamp a raw confidence into [0, 1 - DEFAULT_EPSILON]."""
    return min(max(conf, 0.0), 1.0 - DEFAULT_EPSILON)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def rescale_bbox(b: BBox, from_res: Resolution, to_res: Resolution) -> BBox:
    """Rescale box coordinates between two frame resolutions, per axis."""
    if from_res[0] <= 0 or from_res[1] <= 0:
        raise ValueError(f"zero-sized source resolution: {from_res}")
    sx = to_res[0] / from_res[0]
    sy = to_res[1] / from_res[1]
    return BBox(b.x1 * sx, b.y1 * sy, b.x2 * sx, b.y2 * sy)


def rescale_packet_to_native(packet: FramePacket) -> FramePacket:
    """Return a packet whose detection boxes are in native-resolution pixels."""
    res, native = packet.inference_resolution, packet.native_resolution
    if res == native:
        return packet
    dets = tuple(
        Detection(rescale_bbox(d.bbox, res, native), d.class_id, d.conf)
        for d in packet.detections
    )
    return FramePacket(packet.frame_index, res, native, dets)


def out_of_bounds(box: BBox) -> bool:
    """Whether a coordinate's magnitude is over ``MAX_COORDINATE``, which
    every loader rejects."""
    return max(map(abs, box)) > MAX_COORDINATE


def check_detection_box(bbox: BBox, inference: Resolution, native: Resolution) -> None:
    """The detection loader's checks on a box at its ``inference`` resolution
    past the parser's bound (``out_of_bounds``), which the caller applies
    first: a ValueError if rescaling it to ``native``
    resolution overflows or takes a coordinate over ``MAX_COORDINATE``, or
    if the native box is outside the motion filter's domain
    (``bbox_to_cxcyah``: a height under ``MIN_HEIGHT``)."""
    # as rescale_packet_to_native will: no rescale when the resolutions match;
    # an unscaled box is the one the parser's bound has already passed
    native_box = bbox
    if inference != native:
        try:
            native_box = rescale_bbox(bbox, inference, native)
        except (OverflowError, ValueError) as exc:
            raise ValueError(
                f"box {bbox.as_tuple()} does not rescale to native resolution: {exc}"
            ) from None
        if out_of_bounds(native_box):
            raise ValueError(
                f"box {bbox.as_tuple()} at native resolution has a coordinate "
                f"over {MAX_COORDINATE:g}"
            )
    try:
        bbox_to_cxcyah(native_box)
    except ValueError as exc:
        raise ValueError(f"{exc} (at native resolution)") from None


def bbox_to_cxcyah(b: BBox) -> tuple[float, float, float, float]:
    """Corner box to (center x, center y, aspect ratio w/h, height).

    The motion filter's one input check: a ValueError unless the height is
    at least ``MIN_HEIGHT`` and all four are finite. Zero width gives aspect 0.
    Each corner is converted with ``float()`` first, so the result is plain
    floats whatever number type ``b`` holds, ints included.
    """
    x1, y1, x2, y2 = float(b.x1), float(b.y1), float(b.x2), float(b.y2)
    h = y2 - y1
    if h < MIN_HEIGHT:
        what = "zero-height box" if h == 0.0 else f"box of height {h!r}"
        raise ValueError(
            f"{what} {b.as_tuple()} is under the motion filter's {MIN_HEIGHT:g} px floor"
        )
    cx, cy, a = (x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / h
    # a value is finite exactly when it is within the float range (NaN is
    # not), as BBox.__new__ tests; h >= MIN_HEIGHT needs only its upper bound
    if not (-_FLOAT_MAX <= cx <= _FLOAT_MAX and -_FLOAT_MAX <= cy <= _FLOAT_MAX
            and -_FLOAT_MAX <= a <= _FLOAT_MAX and h <= _FLOAT_MAX):
        raise ValueError(f"box {b.as_tuple()}: non-finite center, aspect or height")
    return cx, cy, a, h
