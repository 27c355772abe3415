"""Deterministic synthetic sequences with an emulated multi-resolution detector.

Objects move with constant velocity (optionally changing direction) inside
the native frame, bouncing off the borders. The detector emulator replays
the ground truth at a requested inference resolution, applying the
resolution's configured degradations: dropped detections, class flips,
confidence noise, and box jitter. Every draw is keyed on
(seed, frame, resolution), so identical queries are bit-identical
regardless of query order. Each box is checked as it is built against the
loaders' rule (``core.out_of_bounds``, and ``core.check_detection_box`` for
a detection), so every corpus generated loads.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .core import (
    MAX_COORDINATE, BBox, Detection, FramePacket, Resolution, check_detection_box,
    checked, clamp_conf, out_of_bounds, rescale_bbox,
)
from .evaluation import GroundTruthFrame


def _check_resolution(res: Resolution, what: str) -> None:
    """Each side positive and at most ``MAX_COORDINATE``, which also bounds
    the length of the file name ``synth`` gives a level."""
    if min(res) <= 0:
        raise ValueError(f"{what} must be positive: {res}")
    if max(res) > MAX_COORDINATE:
        raise ValueError(f"{what} has a side over {MAX_COORDINATE:g}: {res}")


@checked
class DegradationLevel(NamedTuple):
    """Detector-quality parameters at one inference resolution."""

    resolution: Resolution
    drop_prob: float = 0.0
    class_flip_prob: float = 0.0
    conf_noise_std: float = 0.0
    bbox_jitter_std: float = 0.0

    def _check(self) -> None:
        _check_resolution(self.resolution, "resolution")
        for p in (self.drop_prob, self.class_flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0, 1]: {p}")
        for std in (self.conf_noise_std, self.bbox_jitter_std):
            if not 0.0 <= std < math.inf:
                raise ValueError(f"noise std must be finite and non-negative: {std}")
        # a larger jitter draw can overflow before any box check runs
        if self.bbox_jitter_std > MAX_COORDINATE:
            raise ValueError(
                f"bbox_jitter_std is over {MAX_COORDINATE:g}: {self.bbox_jitter_std}"
            )


@checked
class SynthScenario(NamedTuple):
    """Scenario contract: trajectories plus per-resolution degradations."""

    seed: int
    n_objects: int
    frame_count: int
    native_resolution: Resolution
    degradation: tuple[DegradationLevel, ...]
    n_classes: int = 4
    speed_range: tuple[float, float] = (1.0, 3.0)
    size_range: tuple[float, float] = (28.0, 72.0)
    base_conf_range: tuple[float, float] = (0.7, 0.9)
    direction_change_prob: float = 0.0

    def _check(self) -> None:
        if self.n_objects <= 0:
            raise ValueError(f"n_objects must be positive: {self.n_objects}")
        if self.frame_count <= 0:
            raise ValueError(f"frame_count must be positive: {self.frame_count}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1: {self.n_classes}")
        if not 0.0 <= self.direction_change_prob <= 1.0:
            raise ValueError("direction_change_prob out of [0, 1]")
        _check_resolution(self.native_resolution, "native_resolution")
        # every range is sampled uniformly: its ends must be finite and ordered
        for name in ("speed_range", "size_range", "base_conf_range"):
            low, high = getattr(self, name)
            if not -math.inf < low <= high < math.inf:
                raise ValueError(f"{name} must be finite with low <= high: ({low}, {high})")
        for name in ("speed_range", "size_range"):
            if getattr(self, name)[0] < 0.0:
                raise ValueError(f"{name} must be non-negative: {getattr(self, name)}")
        # a faster object's position can overflow before any box check runs
        if self.speed_range[1] > MAX_COORDINATE:
            raise ValueError(f"speed_range has an end over {MAX_COORDINATE:g}: {self.speed_range}")
        if self.size_range[1] == 0.0:
            raise ValueError("size_range must not be (0, 0): boxes need a height")
        if self.size_range[1] > min(self.native_resolution):
            raise ValueError(
                f"size_range upper end {self.size_range[1]} exceeds the frame's "
                f"smaller side {min(self.native_resolution)}"
            )
        if not self.degradation:
            raise ValueError("at least one degradation level required")
        seen = set()
        for level in self.degradation:
            if level.resolution in seen:
                raise ValueError(f"duplicate resolution {level.resolution}")
            seen.add(level.resolution)
        # lower resolution must never be configured as less degraded
        by_area = self.by_area
        for hi, lo in zip(by_area, by_area[1:]):
            if lo.drop_prob < hi.drop_prob or lo.class_flip_prob < hi.class_flip_prob:
                raise ValueError(
                    f"degradation not monotone: {lo.resolution} is less degraded "
                    f"than {hi.resolution}"
                )

    @property
    def by_area(self) -> list[DegradationLevel]:
        """The levels by resolution area, largest first, stable on ties."""
        return sorted(self.degradation, key=lambda lv: -lv.resolution[0] * lv.resolution[1])

    def level_for(self, resolution: Resolution) -> DegradationLevel:
        for level in self.degradation:
            if level.resolution == resolution:
                return level
        configured = [lv.resolution for lv in self.degradation]
        raise ValueError(
            f"no degradation level for resolution {resolution}; "
            f"configured: {configured}"
        )


class _Trajectory(NamedTuple):
    class_id: int
    base_conf: float
    boxes: tuple[BBox, ...]


def _build_trajectories(sc: SynthScenario) -> list[_Trajectory]:
    import numpy as np

    rng = np.random.default_rng([sc.seed, 1])
    width, height = sc.native_resolution
    trajectories = []
    for index in range(sc.n_objects):
        w = float(rng.uniform(*sc.size_range))
        h = float(rng.uniform(*sc.size_range))
        cx = float(rng.uniform(w / 2, width - w / 2))
        cy = float(rng.uniform(h / 2, height - h / 2))
        speed = float(rng.uniform(*sc.speed_range))
        angle = float(rng.uniform(0, 2 * np.pi))
        vx, vy = speed * float(np.cos(angle)), speed * float(np.sin(angle))
        # cycle classes so every class has ground truth (balanced corpus)
        class_id = index % sc.n_classes
        base_conf = float(rng.uniform(*sc.base_conf_range))

        boxes = []
        for _t in range(sc.frame_count):
            boxes.append(BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
            if sc.direction_change_prob > 0 and rng.random() < sc.direction_change_prob:
                angle = float(rng.uniform(0, 2 * np.pi))
                vx, vy = speed * float(np.cos(angle)), speed * float(np.sin(angle))
            cx += vx
            cy += vy
            # bounce off the frame borders, keeping the box inside
            if cx - w / 2 < 0:
                cx = w - cx
                vx = -vx
            if cx + w / 2 > width:
                cx = 2 * width - w - cx
                vx = -vx
            if cy - h / 2 < 0:
                cy = h - cy
                vy = -vy
            if cy + h / 2 > height:
                cy = 2 * height - h - cy
                vy = -vy
        trajectories.append(_Trajectory(class_id, base_conf, tuple(boxes)))
    return trajectories


def _check_loadable(box: BBox, frame: int, inference, native) -> None:
    """A ValueError naming the frame unless ``box`` passes the checks of the
    loader that reads it: the bound of every box parser and, for a detection
    (``inference`` is not None), ``check_detection_box``."""
    try:
        if out_of_bounds(box):
            raise ValueError(f"box {box.as_tuple()} has a coordinate over {MAX_COORDINATE:g}")
        if inference is not None:
            check_detection_box(box, inference, native)
    except ValueError as exc:
        where = "ground truth" if inference is None else f"detections at {inference}"
        raise ValueError(f"{where} frame {frame}: {exc}") from None


def generate(
    sc: SynthScenario,
) -> tuple[list[GroundTruthFrame], Callable[[Resolution], list[FramePacket]]]:
    """Ground-truth frames plus a per-resolution detector emulator.

    The emulator maps an inference resolution to the full packet sequence
    at that resolution, detections in inference-space coordinates. A box
    that no loader would take is a ValueError, from ``generate`` for the
    ground truth and from the emulator for a detection.
    """
    import numpy as np

    trajectories = _build_trajectories(sc)
    gt_frames = [
        GroundTruthFrame(
            frame_index=t,
            objects=tuple((traj.boxes[t], traj.class_id) for traj in trajectories),
        )
        for t in range(sc.frame_count)
    ]
    for g in gt_frames:
        for box, _ in g.objects:
            _check_loadable(box, g.frame_index, None, None)

    def emulate(resolution: Resolution) -> list[FramePacket]:
        level = sc.level_for(resolution)
        rw, rh = resolution
        packets = []
        for t in range(sc.frame_count):
            rng = np.random.default_rng([sc.seed, 2, t, rw, rh])
            dets = []
            for traj in trajectories:
                # fixed draw count per object keeps streams aligned
                drop_u = rng.random()
                flip_u = rng.random()
                flip_pick = int(rng.integers(0, max(sc.n_classes - 1, 1)))
                conf_noise = rng.normal(0.0, 1.0)
                jitter = rng.normal(0.0, 1.0, size=4).tolist()
                if drop_u < level.drop_prob:
                    continue
                box = rescale_bbox(traj.boxes[t], sc.native_resolution, resolution)
                if level.bbox_jitter_std > 0:
                    j = [v * level.bbox_jitter_std for v in jitter]
                    x1, y1 = box.x1 + j[0], box.y1 + j[1]
                    x2, y2 = box.x2 + j[2], box.y2 + j[3]
                    box = BBox(
                        min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)
                    )
                class_id = traj.class_id
                if sc.n_classes > 1 and flip_u < level.class_flip_prob:
                    class_id = (traj.class_id + 1 + flip_pick) % sc.n_classes
                conf = clamp_conf(
                    traj.base_conf + conf_noise * level.conf_noise_std
                )
                _check_loadable(box, t, resolution, sc.native_resolution)
                dets.append(Detection(box, class_id, conf))
            packets.append(
                FramePacket(
                    frame_index=t,
                    inference_resolution=resolution,
                    native_resolution=sc.native_resolution,
                    detections=tuple(dets),
                )
            )
        return packets

    return gt_frames, emulate


# Degradation presets: CNN-like detectors mainly lose recall at low
# resolution (drops, depressed confidences); transformer-like detectors
# keep recall but misclassify more (precision loss).
_PROFILES = {
    "cnn-like": (
        dict(drop_prob=0.05, class_flip_prob=0.0, conf_noise_std=0.05,
             bbox_jitter_std=0.5),
        dict(drop_prob=0.30, class_flip_prob=0.01, conf_noise_std=0.18,
             bbox_jitter_std=1.5),
    ),
    "vit-like": (
        dict(drop_prob=0.02, class_flip_prob=0.01, conf_noise_std=0.03,
             bbox_jitter_std=0.5),
        dict(drop_prob=0.05, class_flip_prob=0.15, conf_noise_std=0.10,
             bbox_jitter_std=1.0),
    ),
}


def profile_scenario(
    profile: str,
    seed: int = 7,
    n_objects: int = 4,
    frame_count: int = 120,
) -> SynthScenario:
    """Preset scenario with the named degradation profile, 320x320 native
    and 192x192 low resolution."""
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; have {sorted(_PROFILES)}")
    full_kw, low_kw = _PROFILES[profile]
    return SynthScenario(
        seed=seed,
        n_objects=n_objects,
        frame_count=frame_count,
        native_resolution=(320, 320),
        degradation=(
            DegradationLevel(resolution=(320, 320), **full_kw),
            DegradationLevel(resolution=(192, 192), **low_kw),
        ),
    )
