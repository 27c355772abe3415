"""Shared domain types, geometry, and configuration.

All boxes are axis-aligned rectangles in corner format (x1, y1, x2, y2),
real-valued pixel coordinates. Detector outputs arrive in the coordinate
space of whatever resolution the frame was inferred at; everything is
normalized to the native (full) resolution before association, via
``rescale_bbox`` / ``rescale_packet_to_native``.

The motion filter works in center/aspect-ratio/height space; the
conversion helpers between the two parameterizations live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

Resolution = tuple[int, int]

DEFAULT_EPSILON = 1e-4


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with x1 <= x2, y1 <= y2 and finite coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {v!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"inverted box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

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
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Detection:
    """One detector output: box, class index, confidence.

    On-disk confidences may be anywhere in [0, 1]; ingestion clamps them to
    [0, 1 - epsilon] (see ``clamp_conf``) so the rescoring algebra never
    divides by zero.
    """

    bbox: BBox
    class_id: int
    conf: float

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"negative class id: {self.class_id}")
        if not math.isfinite(self.conf) or not 0.0 <= self.conf <= 1.0:
            raise ValueError(f"confidence out of [0, 1]: {self.conf!r}")


@dataclass(frozen=True)
class FramePacket:
    """All detections of one frame, tagged with the inference resolution.

    Coordinates are in ``inference_resolution`` space until the CLI converts
    each loaded packet, once, with ``rescale_packet_to_native`` (tag kept).
    """

    frame_index: int
    inference_resolution: Resolution
    native_resolution: Resolution
    detections: tuple[Detection, ...] = ()

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError(f"negative frame index: {self.frame_index}")
        for res in (self.inference_resolution, self.native_resolution):
            if res[0] <= 0 or res[1] <= 0:
                raise ValueError(f"non-positive resolution: {res}")


@dataclass(frozen=True)
class TrackerConfig:
    """Association and lifecycle thresholds for the two-pass tracker."""

    high_threshold: float
    low_threshold: float
    tau_iou: float = 0.3
    tau_init: int = 2
    tau_dead: int = 5

    def __post_init__(self) -> None:
        if not self.low_threshold < self.high_threshold:
            raise ValueError(
                f"low_threshold {self.low_threshold} must be below "
                f"high_threshold {self.high_threshold}"
            )
        if not 0.0 < self.tau_iou < 1.0:
            raise ValueError(f"tau_iou out of (0, 1): {self.tau_iou}")
        if self.tau_init < 1 or self.tau_dead < 1:
            raise ValueError("tau_init and tau_dead must be >= 1")


@dataclass(frozen=True)
class RescoreConfig:
    """Parameters of the confidence-fusion update."""

    epsilon: float = DEFAULT_EPSILON
    history_len: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon out of (0, 1): {self.epsilon}")
        if self.history_len < 1:
            raise ValueError(f"history_len must be >= 1: {self.history_len}")


def clamp_conf(conf: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Clamp a raw confidence into [0, 1 - epsilon]."""
    return min(max(conf, 0.0), 1.0 - epsilon)


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
    if packet.inference_resolution == packet.native_resolution:
        return packet
    dets = tuple(
        replace(
            d,
            bbox=rescale_bbox(
                d.bbox, packet.inference_resolution, packet.native_resolution
            ),
        )
        for d in packet.detections
    )
    return replace(packet, detections=dets)


def bbox_to_cxcyah(b: BBox) -> tuple[float, float, float, float]:
    """Corner box to (center x, center y, aspect ratio w/h, height).

    Zero width is tolerated (aspect 0); zero height is an error because the
    aspect ratio and the height-scaled noise model are undefined there.
    """
    h = b.height
    if h <= 0.0:
        raise ValueError(f"degenerate box with zero height: {b.as_tuple()}")
    return ((b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0, b.width / h, h)


def cxcyah_to_bbox(cx: float, cy: float, a: float, h: float) -> BBox:
    """(center, aspect, height) back to a corner box, clamped non-degenerate."""
    h = max(h, 0.0)
    w = max(a, 0.0) * h
    return BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
