"""File formats and run configuration.

Detections, tracks, and ground truth are newline-delimited JSON, one record
per frame, read and written by one record codec: the three formats differ
only in their header fields, their entries key and their entry parsers.
Detection coordinates on disk live in the tagged inference resolution, and
loading keeps them (the CLI converts each loaded file once, in
``cli._load_native``); it clamps confidences to [0, 1 - epsilon].
Run configuration is a single YAML document with optional preset
inheritance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .core import (
    BBox,
    DEFAULT_EPSILON,
    Detection,
    FramePacket,
    RescoreConfig,
    Resolution,
    TrackerConfig,
    clamp_conf,
    rescale_bbox,
)
from .evaluation import GroundTruthFrame, MetricsReport
from .pipeline import ResolutionSchedule
from .synth import DegradationLevel, SynthScenario
from .tracks import TrackOutput


class FileFormatError(Exception):
    """Unparseable or structurally invalid input file."""


class ValidationError(Exception):
    """Well-formed input that violates a semantic contract."""


# Field parsers over json.loads output, whose values have exact built-in
# types (``type(v) is int`` excludes bool). The reader adds path:line.
_NUMBERS = frozenset((int, float))


def _decode(line: bytes):
    """One JSON value; bad syntax, bytes or nesting, or an integer over the
    interpreter's digit limit, is a FileFormatError."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from None


def _field(obj: dict, key: str):
    if key not in obj:
        raise FileFormatError(f"missing field {key!r}")
    return obj[key]


def _object(value, what: str) -> dict:
    if type(value) is not dict:
        raise FileFormatError(f"{what} is not an object: {value!r}")
    return value


def _index(value, what: str) -> int:
    """Frame index, class or track id: a non-negative integer."""
    if type(value) is not int or value < 0:
        raise FileFormatError(f"bad {what} {value!r}: need a non-negative integer")
    return value


def _resolution(value, what: str) -> Resolution:
    pair = type(value) is list and len(value) == 2
    if not pair or not all(type(v) is int and v > 0 for v in value):
        raise FileFormatError(f"bad {what} {value!r}: need two positive integers")
    return (value[0], value[1])


def _bbox(value) -> BBox:
    try:
        if type(value) is not list or len(value) != 4:
            raise ValueError("need 4 coordinates")
        if not _NUMBERS.issuperset(map(type, value)):
            raise ValueError("coordinates must be numbers")
        return BBox(*map(float, value))
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad bbox {value!r}: {exc}") from None


def _conf(value) -> float:
    if type(value) not in _NUMBERS or not 0.0 <= value <= 1.0:
        raise FileFormatError(f"bad confidence {value!r}: need a number in [0, 1]")
    return float(value)


class _Format(NamedTuple):
    """A record format: its entries key and its header (resolution) fields."""

    entries: str
    header: tuple[str, ...] = ()


_DETECTIONS = _Format("detections", ("inference_resolution", "native_resolution"))
_TRACKS = _Format("tracks")
_GROUNDTRUTH = _Format("objects")

# sequence -> records in file order, each (frame, header resolutions, entries)
_Records = dict[str, list[tuple[int, tuple[Resolution, ...], Sequence]]]


def _read_records(
    path: str | Path,
    fmt: _Format,
    parse_entry: Callable[[dict, tuple[Resolution, ...]], object],
) -> _Records:
    """The one JSONL reader: every failure names ``path:line``.

    ``parse_entry`` gets each entry and its record's header resolutions.
    Structure and field errors raise FileFormatError; frames not strictly
    increasing within a sequence raise ValidationError, as does whatever
    ``parse_entry`` raises as one.
    """
    sequences: _Records = {}
    # bytes in, so json.loads decodes each line and a bad byte names its line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _object(_decode(line), "record")
                seq = _field(record, "sequence_id")
                if type(seq) is not str:
                    raise FileFormatError(f"bad sequence_id {seq!r}: need a string")
                frame = _index(_field(record, "frame"), "frame index")
                header = tuple(_resolution(_field(record, k), k) for k in fmt.header)
                entries = _field(record, fmt.entries)
                if type(entries) is not list:
                    raise FileFormatError(f"{fmt.entries!r} is not a list")
                parsed = [parse_entry(_object(e, "entry"), header) for e in entries]
                rows = sequences.setdefault(seq, [])
                if rows and frame <= rows[-1][0]:
                    raise ValidationError(
                        f"sequence {seq!r} frame {frame} not increasing"
                    )
            except (FileFormatError, ValidationError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            rows.append((frame, header, parsed))
    return sequences


def is_track_file(path: str | Path) -> bool:
    """Whether the first record of a file has a ``tracks`` key.

    A first line that does not parse gives False, so the loader then called
    reports it with ``path:line``.
    """
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    return "tracks" in _object(_decode(line), "record")
                except FileFormatError:
                    return False
    return False


def _write_records(
    path: str | Path, fmt: _Format, sequences: _Records, dump_entry: Callable[..., dict]
) -> None:
    """The one JSONL writer: sequences sorted by id, records in list order."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sorted(sequences):
            for frame, header, entries in sequences[seq]:
                record = {"sequence_id": seq, "frame": frame}
                record.update((k, list(res)) for k, res in zip(fmt.header, header))
                record[fmt.entries] = [dump_entry(e) for e in entries]
                fh.write(json.dumps(record) + "\n")


def _box_list(b: BBox) -> list[float]:
    return [float(v) for v in b.as_tuple()]


def load_detection_file(
    path: str | Path, epsilon: float = DEFAULT_EPSILON
) -> dict[str, list[FramePacket]]:
    """Parse a detection file into per-sequence frame packets.

    Confidences are clamped to [0, 1 - epsilon]. A box is a ValidationError
    if it has zero height, in its own or in native coordinates, because the
    motion filter needs a positive height, or if rescaling it to native
    resolution overflows.
    """

    def entry(e: dict, header: tuple[Resolution, Resolution]) -> Detection:
        bbox = _bbox(_field(e, "bbox"))
        # as rescale_packet_to_native will: no rescale when the resolutions match
        try:
            native = bbox if header[0] == header[1] else rescale_bbox(bbox, *header)
        except (OverflowError, ValueError) as exc:
            raise ValidationError(
                f"box {bbox.as_tuple()} does not rescale to native resolution: {exc}"
            ) from None
        if native.height <= 0.0:
            raise ValidationError(
                f"zero-height box {bbox.as_tuple()} at native resolution: the "
                "motion filter needs a positive height"
            )
        cls = _index(_field(e, "class"), "class")
        return Detection(bbox, cls, clamp_conf(_conf(_field(e, "conf")), epsilon))

    return {
        seq: [FramePacket(f, *res, tuple(dets)) for f, res, dets in rows]
        for seq, rows in _read_records(path, _DETECTIONS, entry).items()
    }


def save_detection_file(
    path: str | Path, sequences: Mapping[str, list[FramePacket]]
) -> None:
    def entry(d: Detection) -> dict:
        return {"bbox": _box_list(d.bbox), "class": d.class_id, "conf": float(d.conf)}

    records = {
        seq: [
            (p.frame_index, (p.inference_resolution, p.native_resolution), p.detections)
            for p in packets
        ]
        for seq, packets in sequences.items()
    }
    _write_records(path, _DETECTIONS, records, entry)


def load_track_file(path: str | Path) -> dict[str, dict[int, list[TrackOutput]]]:
    """Parse a track file into sequence -> frame -> emitted tracks."""

    def entry(e: dict, _: tuple) -> TrackOutput:
        return TrackOutput(
            track_id=_index(_field(e, "id"), "track id"),
            bbox=_bbox(_field(e, "bbox")),
            class_id=_index(_field(e, "class"), "class"),
            conf=_conf(_field(e, "conf")),
        )

    return {
        seq: {frame: outs for frame, _, outs in rows}
        for seq, rows in _read_records(path, _TRACKS, entry).items()
    }


def save_track_file(
    path: str | Path, sequences: Mapping[str, dict[int, list[TrackOutput]]]
) -> None:
    def entry(o: TrackOutput) -> dict:
        return {"id": o.track_id, "bbox": _box_list(o.bbox),
                "class": o.class_id, "conf": float(o.conf)}

    records = {
        seq: [(f, (), frames[f]) for f in sorted(frames)]
        for seq, frames in sequences.items()
    }
    _write_records(path, _TRACKS, records, entry)


def load_groundtruth_file(path: str | Path) -> dict[str, list[GroundTruthFrame]]:
    def entry(e: dict, _: tuple) -> tuple[BBox, int]:
        return (_bbox(_field(e, "bbox")), _index(_field(e, "class"), "class"))

    return {
        seq: [GroundTruthFrame(f, tuple(objects)) for f, _, objects in rows]
        for seq, rows in _read_records(path, _GROUNDTRUTH, entry).items()
    }


def save_groundtruth_file(
    path: str | Path, sequences: Mapping[str, list[GroundTruthFrame]]
) -> None:
    def entry(obj: tuple[BBox, int]) -> dict:
        return {"bbox": _box_list(obj[0]), "class": obj[1]}

    records = {
        seq: [(g.frame_index, (), g.objects) for g in frames]
        for seq, frames in sequences.items()
    }
    _write_records(path, _GROUNDTRUTH, records, entry)


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
        import yaml  # here, not at the top: most runs never read YAML

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
    import yaml

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
    import yaml

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
