"""Per-frame tracking pipeline and the multi-resolution cost model.

Each frame runs, in order: motion prediction for all active tracks,
confidence-based splitting of the detections, a first association pass of
high-confidence detections against all active tracks, a second pass of the
remaining medium-confidence detections against still-unmatched tracks,
lifecycle bookkeeping (tentative confirmation, stale removal), and
emission of confirmed track observations.

The resolution schedule interleaves P low-resolution inferences between
consecutive full-resolution ones. ``interleave`` picks each frame's packet
from a full- and a low-resolution stream; ``mean_mac`` gives the resulting
average per-frame compute cost and its relative reduction versus
full-res-only operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .association import iou_matrix, match
from .core import Detection, FramePacket, RescoreConfig, Resolution, TrackerConfig, checked
from .kalman import kf_predict, kf_update, state_corners
from .rescore import adopt, rescore_update
from .tracks import Track, TrackOutput, TrackStatus

# builds a record from one tuple of its values; TrackOutput has no checks
_record = tuple.__new__


@checked
class ResolutionSchedule(NamedTuple):
    """Interleaving policy plus per-resolution inference costs.

    ``P`` low-res frames separate consecutive full-res frames; the full-res
    fraction is 1 / (1 + P). Both resolutions have positive sides, and
    ``low_res`` none over ``full_res``'s. MAC figures are per-inference
    totals (any unit, as long as both share it); ``mac_full`` is positive
    and ``mac_low / mac_full`` finite, all as floats, so the mean and
    reduction ``mean_mac`` reports are finite for every ``P``.
    """

    P: int
    full_res: Resolution
    low_res: Resolution
    mac_full: float
    mac_low: float

    def _check(self) -> None:
        if self.P < 0:
            raise ValueError(f"P must be >= 0: {self.P}")
        for res in (self.full_res, self.low_res):
            if res[0] <= 0 or res[1] <= 0:
                raise ValueError(f"non-positive resolution: {res}")
        if self.low_res[0] > self.full_res[0] or self.low_res[1] > self.full_res[1]:
            raise ValueError(f"low_res {self.low_res} exceeds full_res {self.full_res}")
        try:
            full, low = float(self.mac_full), float(self.mac_low)
        except OverflowError:  # an int past the float range
            full = low = math.inf
        if not (0 < full < math.inf and 0 <= low < math.inf):
            raise ValueError(
                f"need finite mac_full > 0 and mac_low >= 0: {self.mac_full}, {self.mac_low}"
            )
        if not math.isfinite(low / full):
            raise ValueError(
                f"need a finite mac_low / mac_full: {self.mac_low} / {self.mac_full}"
            )


class MacSummary(NamedTuple):
    mean: float
    reduction: float


def is_full_res(t: int, P: int) -> bool:
    """True when frame t is scheduled at full resolution (every P+1 frames)."""
    if t < 0 or P < 0:
        raise ValueError("frame index and P must be non-negative")
    return t % (P + 1) == 0


def interleave(
    full: Sequence[FramePacket], low: Sequence[FramePacket], P: int
) -> list[FramePacket]:
    """Frame by frame, ``full``'s packet where P schedules full res, else ``low``'s."""
    pairs = zip(full, low, strict=True)
    return [f if is_full_res(f.frame_index, P) else lo for f, lo in pairs]


def mean_mac(s: ResolutionSchedule) -> MacSummary:
    """Average per-frame MAC cost of the schedule and its relative reduction.

    reduction = 1 - mean / mac_full, i.e. the fraction of full-res-only
    compute saved by interleaving. ``rho`` divides integers, which cannot
    overflow: as ``P`` grows it goes to 0.0 and the mean to ``mac_low``.
    """
    rho = 1 / (1 + s.P)
    mean = rho * s.mac_full + (1.0 - rho) * s.mac_low
    return MacSummary(mean, 1.0 - mean / s.mac_full)


class TrackerState:
    """Mutable per-sequence tracker state; strictly sequential per sequence."""

    __slots__ = ("active_tracks", "next_track_id", "frame_index")

    def __init__(self) -> None:
        self.active_tracks: list[Track] = []
        self.next_track_id = 0
        self.frame_index = -1


def _apply_match(
    track: Track,
    det: Detection,
    tcfg: TrackerConfig,
    rcfg: RescoreConfig,
    rescore_enabled: bool,
) -> None:
    track.kf_state = kf_update(track.kf_state, det.bbox)
    if rescore_enabled:
        decision = rescore_update(track, det, rcfg)
    else:
        # naive mode: the latest matched detection wins outright, as at a birth
        decision = adopt(det, det.class_id != track.class_id)
    track.apply_rescore(decision)
    track.mark_matched(tcfg.tau_init)


def step(
    state: TrackerState,
    frame: FramePacket,
    tcfg: TrackerConfig,
    rcfg: RescoreConfig = RescoreConfig(),
    *,
    rescore_enabled: bool = True,
    emit_coasted: bool = False,
) -> tuple[TrackerState, list[TrackOutput]]:
    """Advance the tracker by one frame and emit confirmed observations.

    Expects frame indices contiguous from 0 and detection boxes already in
    native-resolution coordinates. Detections below ``low_threshold`` are
    dropped; those at or above ``high_threshold`` are matched first, against
    every active track's predicted corners (``state_corners``, computed once
    per frame), and may start new tracks; the band in between is matched
    second, against the corners of the tracks the first pass left, and can
    only extend them; that pass runs only when the band has detections, and
    otherwise every track the first pass left is marked missed at once.
    Ids are handed out in creation order and ``active_tracks`` keeps that
    order, so each frame's outputs come in ascending id order.

    With ``emit_coasted`` unmatched confirmed tracks also emit their
    predicted boxes (until removed after ``tau_dead`` missed frames);
    otherwise only tracks updated this frame are emitted. Nothing floors a
    coasting height: it follows ``h + vh``, so a shrinking track's height
    can pass 0, and ``state_corners`` then gives zero height and width at
    the predicted center. Such boxes are emitted until ``tau_dead``; the
    Kalman mean stays finite. Nor does anything bound a coasting center, so
    ``kalman.state_bbox`` clamps each emitted corner into
    [-MAX_COORDINATE, MAX_COORDINATE], the range the loaders accept.
    """
    if frame.frame_index != state.frame_index + 1:
        raise ValueError(
            f"out-of-order frame index {frame.frame_index}; "
            f"expected {state.frame_index + 1}"
        )

    tracks, boxes = state.active_tracks, []
    for t in tracks:
        t.kf_state = s = kf_predict(t.kf_state)
        boxes.append(state_corners(s))

    high, low = tcfg.high_threshold, tcfg.low_threshold
    d_high, d_rem = [], []
    for d in frame.detections:
        if d.conf >= high:
            d_high.append(d)
        elif d.conf >= low:
            d_rem.append(d)

    first = match(iou_matrix(d_high, boxes), tcfg.tau_iou)
    for di, tj in first.matches:
        _apply_match(tracks[tj], d_high[di], tcfg, rcfg, rescore_enabled)
    left = first.unmatched_trackers
    if d_rem:
        second = match(iou_matrix(d_rem, [boxes[j] for j in left]), tcfg.tau_iou)
        for di, tj in second.matches:
            _apply_match(tracks[left[tj]], d_rem[di], tcfg, rcfg, rescore_enabled)
        left = [left[j] for j in second.unmatched_trackers]
    for j in left:
        tracks[j].mark_missed(tcfg.tau_dead)

    for di in first.unmatched_detections:
        tracks.append(Track.from_detection(state.next_track_id, d_high[di], tcfg.tau_init))
        state.next_track_id += 1

    # tracks is in creation order, so the outputs need no sort by id
    outputs = [
        _record(TrackOutput, (t.track_id, t.current_box(), t.class_id, t.conf))
        for t in tracks
        if t.status is TrackStatus.CONFIRMED
        and (t.frames_since_update == 0 or emit_coasted)
    ]

    state.active_tracks = [t for t in tracks if t.status is not TrackStatus.REMOVED]
    state.frame_index = frame.frame_index
    return state, outputs


def run_sequence(
    frames: list[FramePacket],
    tcfg: TrackerConfig,
    rcfg: RescoreConfig = RescoreConfig(),
    *,
    rescore_enabled: bool = True,
    emit_coasted: bool = False,
) -> tuple[TrackerState, dict[int, list[TrackOutput]]]:
    """Track a whole sequence; returns final state and outputs per frame."""
    state = TrackerState()
    outputs: dict[int, list[TrackOutput]] = {}
    for frame in frames:
        state, outs = step(
            state,
            frame,
            tcfg,
            rcfg,
            rescore_enabled=rescore_enabled,
            emit_coasted=emit_coasted,
        )
        outputs[frame.frame_index] = outs
    return state, outputs
