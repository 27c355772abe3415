"""Multi-resolution video object detection post-processing.

Links per-frame detector outputs across time with a two-pass IoU/Kalman
tracker, fuses class confidences probabilistically, schedules full- and
low-resolution inference under a MAC cost model, and scores the result
with mAP50/precision/recall/F1. Includes reference linear-attention
kernels and a deterministic synthetic detector emulator for end-to-end
experiments.
"""

from .association import MatchResult, iou_matrix, match
from .core import (
    BBox,
    DEFAULT_EPSILON,
    Detection,
    FramePacket,
    RescoreConfig,
    TrackerConfig,
    clamp_conf,
    iou,
    rescale_bbox,
    rescale_packet_to_native,
)
from .evaluation import (
    GroundTruthFrame,
    MetricsReport,
    average_precision,
    evaluate,
    f1_max_threshold,
    match_frame,
)
from .kalman import KalmanState, kf_init, kf_predict, kf_update
from .linattn import (
    AttentionInput,
    OpCounter,
    attention_mac_ratio,
    factored_linear_attention,
    naive_relu_attention,
    run_attention_checks,
)
from .pipeline import (
    MacSummary,
    ResolutionSchedule,
    TrackerState,
    is_full_res,
    mean_mac,
    run_sequence,
    step,
)
from .rescore import RescoreDecision, rescore_update
from .synth import DegradationLevel, SynthScenario, generate, profile_scenario
from .tracks import Track, TrackOutput, TrackStatus

__version__ = "0.1.0"

__all__ = [
    "AttentionInput",
    "BBox",
    "DEFAULT_EPSILON",
    "DegradationLevel",
    "Detection",
    "FramePacket",
    "GroundTruthFrame",
    "KalmanState",
    "MacSummary",
    "MatchResult",
    "MetricsReport",
    "OpCounter",
    "RescoreConfig",
    "RescoreDecision",
    "ResolutionSchedule",
    "SynthScenario",
    "Track",
    "TrackOutput",
    "TrackStatus",
    "TrackerConfig",
    "TrackerState",
    "attention_mac_ratio",
    "average_precision",
    "clamp_conf",
    "evaluate",
    "f1_max_threshold",
    "factored_linear_attention",
    "generate",
    "iou",
    "iou_matrix",
    "is_full_res",
    "kf_init",
    "kf_predict",
    "kf_update",
    "match",
    "match_frame",
    "mean_mac",
    "naive_relu_attention",
    "profile_scenario",
    "rescale_bbox",
    "rescale_packet_to_native",
    "rescore_update",
    "run_attention_checks",
    "run_sequence",
    "step",
]
