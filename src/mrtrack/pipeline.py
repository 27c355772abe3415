"""Per-frame tracking pipeline.

Each frame runs, in order: motion prediction for all active tracks,
confidence-based splitting of the detections, a first association pass of
high-confidence detections against all active tracks, a second pass of the
remaining medium-confidence detections against still-unmatched tracks,
lifecycle bookkeeping (tentative confirmation, stale removal), and
emission of confirmed track observations.
"""

from __future__ import annotations

from .association import iou_matrix, match
from .core import Detection, FramePacket, RescoreConfig, TrackerConfig, TrackOutput
from .kalman import kf_predict, kf_update, state_corners
from .rescore import adopt, rescore_update
# the status members as module globals, not ~100 ns Enum class lookups
from .tracks import CONFIRMED, REMOVED, Track

# builds a record from one tuple of its values; TrackOutput has no checks
_record = tuple.__new__


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
        if t.status is CONFIRMED
        and (t.frames_since_update == 0 or emit_coasted)
    ]

    if left:  # only a miss removes a track
        state.active_tracks = [t for t in tracks if t.status is not REMOVED]
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
