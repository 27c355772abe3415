"""File formats and run configuration.

Detections, tracks, and ground truth are newline-delimited JSON, one record
per frame. Detection coordinates on disk live in the tagged inference
resolution; loading clamps confidences to [0, 1 - epsilon] but keeps
coordinates untouched (the tracking commands rescale to native resolution
themselves). Run configuration is a single YAML document with optional
preset inheritance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import yaml

from .core import (
    BBox,
    DEFAULT_EPSILON,
    Detection,
    FramePacket,
    RescoreConfig,
    Resolution,
    TrackerConfig,
    clamp_conf,
)
from .evaluation import GroundTruthFrame, MetricsReport
from .pipeline import ResolutionSchedule
from .synth import DegradationLevel, SynthScenario
from .tracks import TrackOutput


class FileFormatError(Exception):
    """Unparseable or structurally invalid input file."""


class ValidationError(Exception):
    """Well-formed input that violates a semantic contract."""


def _record_lines(path: str | Path) -> Iterable[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise FileFormatError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


def _require(record: dict, key: str, path, lineno: int):
    if key not in record:
        raise FileFormatError(f"{path}:{lineno}: missing field {key!r}")
    return record[key]


def _as_resolution(value, path, lineno: int) -> Resolution:
    try:
        w, h = int(value[0]), int(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise FileFormatError(f"{path}:{lineno}: bad resolution {value!r}") from exc
    return (w, h)


def _as_bbox(value, path, lineno: int) -> BBox:
    try:
        coords = [float(v) for v in value]
        if len(coords) != 4:
            raise ValueError("need 4 coordinates")
        return BBox(*coords)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}:{lineno}: bad bbox {value!r}: {exc}") from exc


def load_detection_file(
    path: str | Path, epsilon: float = DEFAULT_EPSILON
) -> dict[str, list[FramePacket]]:
    """Parse a detection file into per-sequence frame packets.

    Confidences are clamped to [0, 1 - epsilon]; boxes must have a positive
    height; frame indices must be strictly increasing within each sequence.
    """
    sequences: dict[str, list[FramePacket]] = {}
    for lineno, record in _record_lines(path):
        seq = str(_require(record, "sequence_id", path, lineno))
        frame = _require(record, "frame", path, lineno)
        if not isinstance(frame, int) or frame < 0:
            raise FileFormatError(f"{path}:{lineno}: bad frame index {frame!r}")
        inference = _as_resolution(
            _require(record, "inference_resolution", path, lineno), path, lineno
        )
        native = _as_resolution(
            _require(record, "native_resolution", path, lineno), path, lineno
        )
        dets = []
        for entry in _require(record, "detections", path, lineno):
            bbox = _as_bbox(_require(entry, "bbox", path, lineno), path, lineno)
            if bbox.height <= 0.0:
                raise ValidationError(
                    f"{path}:{lineno}: zero-height box {bbox.as_tuple()}: the "
                    "motion filter needs a positive height"
                )
            cls = _require(entry, "class", path, lineno)
            conf = _require(entry, "conf", path, lineno)
            try:
                conf = float(conf)
            except (TypeError, ValueError) as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: bad confidence {conf!r}"
                ) from exc
            if not 0.0 <= conf <= 1.0:
                raise FileFormatError(
                    f"{path}:{lineno}: confidence {conf} out of [0, 1]"
                )
            dets.append(Detection(bbox, int(cls), clamp_conf(conf, epsilon)))
        packets = sequences.setdefault(seq, [])
        if packets and frame <= packets[-1].frame_index:
            raise ValidationError(
                f"{path}:{lineno}: sequence {seq!r} frame {frame} not increasing"
            )
        packets.append(FramePacket(frame, inference, native, tuple(dets)))
    return sequences


def save_detection_file(
    path: str | Path, sequences: Mapping[str, list[FramePacket]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for packet in sequences[seq]:
                record = {
                    "sequence_id": seq,
                    "frame": packet.frame_index,
                    "inference_resolution": list(packet.inference_resolution),
                    "native_resolution": list(packet.native_resolution),
                    "detections": [
                        {
                            "bbox": [float(v) for v in d.bbox.as_tuple()],
                            "class": d.class_id,
                            "conf": float(d.conf),
                        }
                        for d in packet.detections
                    ],
                }
                fh.write(json.dumps(record) + "\n")


def load_track_file(
    path: str | Path,
) -> dict[str, dict[int, list[TrackOutput]]]:
    """Parse a track file into sequence -> frame -> emitted tracks."""
    sequences: dict[str, dict[int, list[TrackOutput]]] = {}
    for lineno, record in _record_lines(path):
        seq = str(_require(record, "sequence_id", path, lineno))
        frame = _require(record, "frame", path, lineno)
        outs = []
        for entry in _require(record, "tracks", path, lineno):
            outs.append(
                TrackOutput(
                    track_id=int(_require(entry, "id", path, lineno)),
                    bbox=_as_bbox(_require(entry, "bbox", path, lineno), path, lineno),
                    class_id=int(_require(entry, "class", path, lineno)),
                    conf=float(_require(entry, "conf", path, lineno)),
                )
            )
        frames = sequences.setdefault(seq, {})
        if frame in frames:
            raise ValidationError(
                f"{path}:{lineno}: duplicate frame {frame} in sequence {seq!r}"
            )
        frames[frame] = outs
    return sequences


def save_track_file(
    path: str | Path, sequences: Mapping[str, dict[int, list[TrackOutput]]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for frame in sorted(sequences[seq]):
                record = {
                    "sequence_id": seq,
                    "frame": frame,
                    "tracks": [
                        {
                            "id": o.track_id,
                            "bbox": [float(v) for v in o.bbox.as_tuple()],
                            "class": o.class_id,
                            "conf": float(o.conf),
                        }
                        for o in sequences[seq][frame]
                    ],
                }
                fh.write(json.dumps(record) + "\n")


def load_groundtruth_file(
    path: str | Path,
) -> dict[str, list[GroundTruthFrame]]:
    sequences: dict[str, list[GroundTruthFrame]] = {}
    for lineno, record in _record_lines(path):
        seq = str(_require(record, "sequence_id", path, lineno))
        frame = _require(record, "frame", path, lineno)
        objects = tuple(
            (
                _as_bbox(_require(entry, "bbox", path, lineno), path, lineno),
                int(_require(entry, "class", path, lineno)),
            )
            for entry in _require(record, "objects", path, lineno)
        )
        frames = sequences.setdefault(seq, [])
        if frames and frame <= frames[-1].frame_index:
            raise ValidationError(
                f"{path}:{lineno}: sequence {seq!r} frame {frame} not increasing"
            )
        frames.append(GroundTruthFrame(frame, objects))
    return sequences


def save_groundtruth_file(
    path: str | Path, sequences: Mapping[str, list[GroundTruthFrame]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for gt in sequences[seq]:
                record = {
                    "sequence_id": seq,
                    "frame": gt.frame_index,
                    "objects": [
                        {
                            "bbox": [float(v) for v in box.as_tuple()],
                            "class": cls,
                        }
                        for box, cls in gt.objects
                    ],
                }
                fh.write(json.dumps(record) + "\n")


@dataclass(frozen=True)
class RunConfig:
    """Everything one tracking run needs: thresholds, schedule, toggles."""

    tracker: TrackerConfig
    rescore: RescoreConfig
    schedule: ResolutionSchedule
    preset: str | None = None
    rescore_enabled: bool = True
    emit_coasted: bool = False


# Per-detector presets: association thresholds from the tracking
# hyperparameter tuning, MAC figures (in MMAC) from the model baselines,
# default P at each model's most efficient lossless operating point.
_PRESET_TABLE = {
    "nanodet": dict(high=0.45, low=0.30, mac_full=463.0, mac_low=167.0, P=5),
    "yolox": dict(high=0.40, low=0.15, mac_full=316.0, mac_low=114.0, P=1),
    "effvit": dict(high=0.55, low=0.10, mac_full=281.0, mac_low=101.0, P=1),
}

PRESET_NAMES = tuple(sorted(_PRESET_TABLE))


def preset_config(name: str, P: int | None = None) -> RunConfig:
    """Built-in configuration for one of the supported detector presets."""
    if name not in _PRESET_TABLE:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    row = _PRESET_TABLE[name]
    return RunConfig(
        tracker=TrackerConfig(
            high_threshold=row["high"],
            low_threshold=row["low"],
            tau_iou=0.3,
            tau_init=2,
            tau_dead=5,
        ),
        rescore=RescoreConfig(),
        schedule=ResolutionSchedule(
            P=row["P"] if P is None else P,
            full_res=(320, 320),
            low_res=(192, 192),
            mac_full=row["mac_full"],
            mac_low=row["mac_low"],
        ),
        preset=name,
    )


def load_run_config(
    config_path: str | Path | None = None,
    preset: str | None = None,
    P: int | None = None,
    emit_coasted: bool | None = None,
    rescore_enabled: bool | None = None,
) -> RunConfig:
    """Resolve a run configuration: preset defaults, then file, then flags."""
    doc: dict = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise FileFormatError(f"{config_path}: invalid YAML: {exc}") from exc
        if not isinstance(doc, dict):
            raise FileFormatError(f"{config_path}: config must be a mapping")

    base_name = preset or doc.get("preset")
    if base_name is None:
        raise ValidationError(
            "no preset given and no 'preset' key in the config file; "
            f"available presets: {', '.join(PRESET_NAMES)}"
        )
    cfg = preset_config(str(base_name))

    try:
        tracker_kw = dict(doc.get("tracker") or {})
        if tracker_kw:
            cfg = replace(
                cfg,
                tracker=replace(cfg.tracker, **tracker_kw),
            )
        sched_kw = dict(doc.get("schedule") or {})
        for key in ("full_res", "low_res"):
            if key in sched_kw:
                sched_kw[key] = (int(sched_kw[key][0]), int(sched_kw[key][1]))
        if sched_kw:
            cfg = replace(cfg, schedule=replace(cfg.schedule, **sched_kw))
        rescore_kw = dict(doc.get("rescore_config") or {})
        if rescore_kw:
            cfg = replace(cfg, rescore=replace(cfg.rescore, **rescore_kw))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{config_path}: bad config value: {exc}") from exc

    if "P" in doc:
        cfg = replace(cfg, schedule=replace(cfg.schedule, P=int(doc["P"])))
    if "emit_coasted" in doc:
        cfg = replace(cfg, emit_coasted=bool(doc["emit_coasted"]))
    if "rescore" in doc:
        cfg = replace(cfg, rescore_enabled=bool(doc["rescore"]))

    if P is not None:
        cfg = replace(cfg, schedule=replace(cfg.schedule, P=P))
    if emit_coasted is not None:
        cfg = replace(cfg, emit_coasted=emit_coasted)
    if rescore_enabled is not None:
        cfg = replace(cfg, rescore_enabled=rescore_enabled)
    return cfg


def load_scenario(path: str | Path, seed: int | None = None) -> SynthScenario:
    """Parse a scenario YAML document; an explicit seed overrides the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise FileFormatError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: scenario must be a mapping")
    try:
        levels = tuple(
            DegradationLevel(
                resolution=(int(lv["resolution"][0]), int(lv["resolution"][1])),
                drop_prob=float(lv.get("drop_prob", 0.0)),
                class_flip_prob=float(lv.get("class_flip_prob", 0.0)),
                conf_noise_std=float(lv.get("conf_noise_std", 0.0)),
                bbox_jitter_std=float(lv.get("bbox_jitter_std", 0.0)),
            )
            for lv in doc.get("degradation", ())
        )
        kwargs = dict(
            seed=int(doc["seed"]) if seed is None else seed,
            n_objects=int(doc["n_objects"]),
            frame_count=int(doc["frame_count"]),
            native_resolution=(
                int(doc["native_resolution"][0]),
                int(doc["native_resolution"][1]),
            ),
            degradation=levels,
        )
        for key in (
            "n_classes",
            "direction_change_prob",
        ):
            if key in doc:
                kwargs[key] = doc[key]
        for key in ("speed_range", "size_range", "base_conf_range"):
            if key in doc:
                kwargs[key] = (float(doc[key][0]), float(doc[key][1]))
        return SynthScenario(**kwargs)
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing scenario field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: invalid scenario: {exc}") from exc


def save_scenario(path: str | Path, sc: SynthScenario) -> None:
    doc = {
        "seed": sc.seed,
        "n_objects": sc.n_objects,
        "frame_count": sc.frame_count,
        "native_resolution": list(sc.native_resolution),
        "n_classes": sc.n_classes,
        "speed_range": list(sc.speed_range),
        "size_range": list(sc.size_range),
        "base_conf_range": list(sc.base_conf_range),
        "direction_change_prob": sc.direction_change_prob,
        "degradation": [
            {
                "resolution": list(lv.resolution),
                "drop_prob": lv.drop_prob,
                "class_flip_prob": lv.class_flip_prob,
                "conf_noise_std": lv.conf_noise_std,
                "bbox_jitter_std": lv.bbox_jitter_std,
            }
            for lv in sc.degradation
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "threshold": report.threshold_used,
        "map": report.map,
        "mean_precision": report.mean_precision,
        "mean_recall": report.mean_recall,
        "mean_f1": report.mean_f1,
        "per_class": {
            str(cls): {
                "ap": m.ap,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "tp": m.tp,
                "fp": m.fp,
                "fn": m.fn,
            }
            for cls, m in sorted(report.per_class.items())
        },
    }


def render_report(report: MetricsReport) -> str:
    """Human-readable metrics table, 4 decimal places."""
    lines = [f"threshold: {report.threshold_used:.4f}"]
    lines.append("class      AP      prec    recall  F1        TP     FP     FN")
    for cls, m in sorted(report.per_class.items()):
        lines.append(
            f"{cls:<9d}  {m.ap:.4f}  {m.precision:.4f}  {m.recall:.4f}  "
            f"{m.f1:.4f}  {m.tp:>5d}  {m.fp:>5d}  {m.fn:>5d}"
        )
    lines.append(
        f"mAP {report.map:.4f} | precision {report.mean_precision:.4f} | "
        f"recall {report.mean_recall:.4f} | F1 {report.mean_f1:.4f}"
    )
    return "\n".join(lines)
