"""Track state and lifecycle for the two-pass tracker."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import BBox, Detection
from .kalman import KalmanState, kf_init, state_bbox
from .rescore import RescoreDecision, adopt


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    REMOVED = "removed"


@dataclass(slots=True)
class Track:
    """One tracked object: motion state, class hypothesis, lifecycle counters.

    ``recent_confs`` is the window of matched detection confidences, a tuple
    that each fusion decision replaces whole.
    """

    track_id: int
    kf_state: KalmanState
    class_id: int
    conf: float
    conf_agg: float
    recent_confs: tuple[float, ...] = ()
    hit_streak: int = 1
    frames_since_update: int = 0
    status: TrackStatus = TrackStatus.TENTATIVE

    @classmethod
    def from_detection(cls, track_id: int, det: Detection, tau_init: int) -> "Track":
        """Start a track at its first hit: the motion filter at ``det``'s box,
        the class state ``rescore.adopt`` gives ``det``, and one hit counted by
        ``mark_matched`` (so it confirms at once when ``tau_init`` is 1)."""
        new_class, new_conf, conf_agg, _, history = adopt(det, False)
        track = cls(
            track_id, kf_init(det.bbox), new_class, new_conf, conf_agg, history, hit_streak=0
        )
        track.mark_matched(tau_init)
        return track

    def current_box(self) -> BBox:
        """Corner box of the current motion estimate."""
        return state_bbox(self.kf_state)

    def apply_rescore(self, decision: RescoreDecision) -> None:
        """Adopt a fusion decision."""
        self.class_id, self.conf, self.conf_agg, _, self.recent_confs = decision

    def mark_matched(self, tau_init: int) -> None:
        """Register a match for lifecycle purposes (call after kf/rescore)."""
        self.hit_streak += 1
        self.frames_since_update = 0
        if self.status is TrackStatus.TENTATIVE and self.hit_streak >= tau_init:
            self.status = TrackStatus.CONFIRMED

    def mark_missed(self, tau_dead: int) -> None:
        """Register a frame without a match; tentative tracks die immediately."""
        self.hit_streak = 0
        self.frames_since_update += 1
        if (
            self.status is TrackStatus.TENTATIVE
            or self.frames_since_update >= tau_dead
        ):
            self.status = TrackStatus.REMOVED


class TrackOutput(NamedTuple):
    """One emitted track observation: id, motion-refined box, class, confidence."""

    track_id: int
    bbox: BBox
    class_id: int
    conf: float
