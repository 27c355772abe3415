"""Track state and lifecycle for the two-pass tracker."""

from __future__ import annotations

from enum import Enum

from .core import BBox, Detection
from .kalman import KalmanState, kf_init, state_bbox
from .rescore import RescoreDecision, adopt


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    REMOVED = "removed"


# The per-frame status tests read these module globals (~9 ns each on CPython
# 3.11.7), not ``TrackStatus.X``, a descriptor lookup on the Enum class (~100 ns)
TENTATIVE = TrackStatus.TENTATIVE
CONFIRMED = TrackStatus.CONFIRMED
REMOVED = TrackStatus.REMOVED


class Track:
    """One tracked object: motion state, class hypothesis, lifecycle counters.

    ``recent_confs`` is the window of matched detection confidences, a tuple
    that each fusion decision replaces whole.
    """

    __slots__ = (
        "track_id", "kf_state", "class_id", "conf", "conf_agg", "recent_confs",
        "hit_streak", "frames_since_update", "status",
    )

    def __init__(
        self,
        track_id: int,
        kf_state: KalmanState,
        class_id: int,
        conf: float,
        conf_agg: float,
        recent_confs: tuple[float, ...] = (),
        hit_streak: int = 1,
        frames_since_update: int = 0,
        status: TrackStatus = TrackStatus.TENTATIVE,
    ) -> None:
        self.track_id = track_id
        self.kf_state = kf_state
        self.class_id = class_id
        self.conf = conf
        self.conf_agg = conf_agg
        self.recent_confs = recent_confs
        self.hit_streak = hit_streak
        self.frames_since_update = frames_since_update
        self.status = status

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
        if self.status is TENTATIVE and self.hit_streak >= tau_init:
            self.status = CONFIRMED

    def mark_missed(self, tau_dead: int) -> None:
        """Register a frame without a match; tentative tracks die immediately."""
        self.hit_streak = 0
        self.frames_since_update += 1
        if self.status is TENTATIVE or self.frames_since_update >= tau_dead:
            self.status = REMOVED
