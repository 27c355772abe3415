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

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .association import iou_matrix, match
from .core import (
    Detection,
    FramePacket,
    RescoreConfig,
    Resolution,
    TrackerConfig,
)
from .kalman import kf_predict, kf_update
from .rescore import RescoreDecision, rescore_update
from .tracks import Track, TrackOutput, TrackStatus


@dataclass(frozen=True)
class ResolutionSchedule:
    """Interleaving policy plus per-resolution inference costs.

    ``P`` low-res frames separate consecutive full-res frames; the full-res
    fraction is 1 / (1 + P). MAC figures are per-inference totals (any unit,
    as long as both share it).
    """

    P: int
    full_res: Resolution
    low_res: Resolution
    mac_full: float
    mac_low: float

    def __post_init__(self) -> None:
        if self.P < 0:
            raise ValueError(f"P must be >= 0: {self.P}")
        if self.low_res[0] > self.full_res[0] or self.low_res[1] > self.full_res[1]:
            raise ValueError(
                f"low_res {self.low_res} exceeds full_res {self.full_res}"
            )
        if self.mac_full < 0 or self.mac_low < 0:
            raise ValueError("MAC counts must be non-negative")


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
    compute saved by interleaving.
    """
    if s.mac_full <= 0:
        raise ValueError("mac_full must be positive for a defined reduction")
    rho = 1.0 / (1.0 + s.P)
    mean = rho * s.mac_full + (1.0 - rho) * s.mac_low
    return MacSummary(mean, 1.0 - mean / s.mac_full)


@dataclass
class TrackerState:
    """Mutable per-sequence tracker state; strictly sequential per sequence."""

    active_tracks: list[Track] = field(default_factory=list)
    next_track_id: int = 0
    frame_index: int = -1
    removed_count: int = 0


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
        # naive mode: the latest matched detection wins outright
        decision = RescoreDecision(
            det.class_id,
            det.conf,
            min(det.conf, 1.0 - rcfg.epsilon),
            det.class_id != track.class_id,
            (det.conf,),
        )
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
    dropped; those at or above ``high_threshold`` associate first and may
    start new tracks; the band in between can only extend existing tracks.

    With ``emit_coasted`` unmatched confirmed tracks also emit their
    predicted boxes (until removed after ``tau_dead`` missed frames);
    otherwise only tracks updated this frame are emitted.
    """
    if frame.frame_index != state.frame_index + 1:
        raise ValueError(
            f"out-of-order frame index {frame.frame_index}; "
            f"expected {state.frame_index + 1}"
        )

    tracks = state.active_tracks
    for t in tracks:
        t.kf_state = kf_predict(t.kf_state)

    d_high = [d for d in frame.detections if d.conf >= tcfg.high_threshold]
    d_rem = [
        d
        for d in frame.detections
        if tcfg.low_threshold <= d.conf < tcfg.high_threshold
    ]

    first = match(iou_matrix(d_high, tracks), tcfg.tau_iou)
    matched_tracks: set[int] = set()
    for di, tj in first.matches:
        _apply_match(tracks[tj], d_high[di], tcfg, rcfg, rescore_enabled)
        matched_tracks.add(tj)

    remaining_idx = list(first.unmatched_trackers)
    remaining = [tracks[j] for j in remaining_idx]
    second = match(iou_matrix(d_rem, remaining), tcfg.tau_iou)
    for di, tj in second.matches:
        _apply_match(remaining[tj], d_rem[di], tcfg, rcfg, rescore_enabled)
        matched_tracks.add(remaining_idx[tj])
    # unmatched detections of the second pass are discarded

    for j, t in enumerate(tracks):
        if j not in matched_tracks:
            t.mark_missed(tcfg.tau_dead)

    for di in first.unmatched_detections:
        t = Track.from_detection(state.next_track_id, d_high[di], rcfg.epsilon)
        state.next_track_id += 1
        if t.hit_streak >= tcfg.tau_init:
            t.status = TrackStatus.CONFIRMED
        tracks.append(t)

    outputs = [
        TrackOutput(t.track_id, t.current_box(), t.class_id, t.conf)
        for t in tracks
        if t.status is TrackStatus.CONFIRMED
        and (t.frames_since_update == 0 or emit_coasted)
    ]
    outputs.sort(key=lambda o: o.track_id)

    state.removed_count += sum(
        1 for t in tracks if t.status is TrackStatus.REMOVED
    )
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
