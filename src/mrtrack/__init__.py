"""Multi-resolution video object detection post-processing.

Links per-frame detector outputs across time with a two-pass IoU/Kalman
tracker, fuses class confidences probabilistically, schedules full- and
low-resolution inference under a MAC cost model, and scores the result
with mAP50/precision/recall/F1. Includes reference linear-attention
kernels and a deterministic synthetic detector emulator for end-to-end
experiments.

The public names load on first access (PEP 562), so ``import mrtrack``
imports no submodule and no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "association": ("MatchResult", "iou_matrix", "match"),
    "core": (
        "BBox", "DEFAULT_EPSILON", "Detection", "FramePacket", "RescoreConfig",
        "TrackOutput", "TrackerConfig", "clamp_conf", "iou", "rescale_bbox",
        "rescale_packet_to_native",
    ),
    "evaluation": (
        "GroundTruthFrame", "MetricsReport", "Ranked", "average_precision", "evaluate",
        "f1_max_threshold", "rank_corpus",
    ),
    "kalman": ("KalmanState", "kf_init", "kf_predict", "kf_update"),
    "linattn": (
        "AttentionInput", "OpCounter", "attention_mac_ratio", "factored_linear_attention",
        "naive_relu_attention", "run_attention_checks",
    ),
    "pipeline": ("TrackerState", "run_sequence", "step"),
    "rescore": ("RescoreDecision", "rescore_update"),
    "schedule": ("MacSummary", "ResolutionSchedule", "is_full_res", "mean_mac"),
    "synth": ("DegradationLevel", "SynthScenario", "generate", "profile_scenario"),
    "tracks": ("Track", "TrackStatus"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
