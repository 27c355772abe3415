"""File formats and run configuration.

Detections, tracks, and ground truth are newline-delimited JSON, one record
per frame, read and written by one record codec: the three formats differ
only in their header fields, their entries key and their entry parsers.
Detection coordinates on disk live in the tagged inference resolution, and
loading keeps them (the CLI converts each loaded file once, in
``cli._load_native``); it clamps confidences to [0, 1 - epsilon], and checks
each box with ``core.check_detection_box``, as ``synth.generate`` does.
Run configuration and synthetic scenarios are YAML documents, read by the
field types of the records they fill; a run configuration can inherit a
preset.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence, get_args, get_origin,
    get_type_hints,
)

from .core import (
    MAX_COORDINATE,
    BBox,
    Detection,
    FramePacket,
    RescoreConfig,
    Resolution,
    TrackerConfig,
    TrackOutput,
    check_detection_box,
    clamp_conf,
    out_of_bounds,
    replace,
)
from .evaluation import GroundTruthFrame, MetricsReport
from .schedule import ResolutionSchedule

if TYPE_CHECKING:  # pragma: no cover
    from .synth import SynthScenario


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
        box = BBox(*map(float, value))
        if out_of_bounds(box):
            raise ValueError(f"a coordinate exceeds {MAX_COORDINATE:g}")
        return box
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
    increasing within a sequence raise ValidationError, as does a
    ValueError from ``parse_entry`` (a box past ``core``'s checks).
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
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
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
    return [float(v) for v in b]


def load_detection_file(path: str | Path) -> dict[str, list[FramePacket]]:
    """Parse a detection file into per-sequence frame packets.

    Confidences are clamped to [0, 1 - epsilon], and each box passes
    ``core.check_detection_box``.
    """

    def entry(e: dict, header: tuple[Resolution, Resolution]) -> Detection:
        bbox = _bbox(_field(e, "bbox"))
        check_detection_box(bbox, *header)
        cls = _index(_field(e, "class"), "class")
        return Detection(bbox, cls, clamp_conf(_conf(_field(e, "conf"))))

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


class RunConfig(NamedTuple):
    """Everything one tracking run needs: thresholds, schedule, toggles."""

    tracker: TrackerConfig
    rescore: RescoreConfig
    schedule: ResolutionSchedule
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


def preset_config(name: str) -> RunConfig:
    """Built-in configuration for one of the supported detector presets."""
    if name not in _PRESET_TABLE:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    row = _PRESET_TABLE[name]
    return RunConfig(
        tracker=TrackerConfig(high_threshold=row["high"], low_threshold=row["low"]),
        rescore=RescoreConfig(),
        schedule=ResolutionSchedule(
            P=row["P"],
            full_res=(320, 320),
            low_res=(192, 192),
            mac_full=row["mac_full"],
            mac_low=row["mac_low"],
        ),
    )


def _read_mapping(path: str | Path, what: str) -> dict:
    """A YAML mapping, {} for an empty file; anything else is a FileFormatError."""
    import yaml  # here, not at the top: most runs never read YAML

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    # ValueError: an integer over the interpreter's digit limit
    except (yaml.YAMLError, UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: invalid YAML: {exc}") from exc
    if doc is not None and type(doc) is not dict:
        raise FileFormatError(f"{path}: {what} must be a mapping")
    return doc or {}


# What a YAML value needs to fill a field of each scalar type. yaml.safe_load
# gives exact built-in types, and ``type(v) is int`` excludes bool.
_SCALARS = {
    int: ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    float: ("a number", lambda v: type(v) in _NUMBERS),
    bool: ("true or false", lambda v: type(v) is bool),
}


def _check_keys(mapping: dict, known, prefix: str) -> None:
    for key in mapping:
        if key not in known:
            raise ValueError(f"unknown key {prefix}{key}; known: {', '.join(known)}")


def _keywords(cls, mapping, what: str) -> dict:
    """A YAML mapping as keyword arguments of record ``cls``, each value
    parsed by its field's type. ``what`` names the mapping ("" at the top)."""
    if type(mapping) is not dict:
        raise ValueError(f"{what} must be a mapping, got {mapping!r}")
    types = get_type_hints(cls)
    prefix = f"{what}." if what else ""
    _check_keys(mapping, types, prefix)
    return {k: _parse(types[k], v, prefix + k) for k, v in mapping.items()}


def _parse(tp, value, what: str):
    """A YAML value as type ``tp``: a record from a mapping, a tuple from a
    list, a scalar by ``_SCALARS``; nothing is coerced. A missing required
    record field is a KeyError, any other mismatch a ValueError.
    """
    if hasattr(tp, "_fields"):
        kwargs = _keywords(tp, value, what)
        for name in tp._fields:
            if name not in tp._field_defaults and name not in kwargs:
                raise KeyError(f"{what}.{name}" if what else name)
        return tp(**kwargs)
    if get_origin(tp) is tuple:
        types = get_args(tp)
        if types[-1] is Ellipsis and type(value) is list:
            types = types[:1] * len(value)
        if type(value) is not list or len(value) != len(types):
            raise ValueError(f"bad {what} {value!r}: need a list of {len(types)}")
        items = enumerate(zip(types, value))
        return tuple(_parse(t, v, f"{what}[{i}]") for i, (t, v) in items)
    needs, ok = _SCALARS[tp]
    if not ok(value):
        raise ValueError(f"bad {what} {value!r}: need {needs}")
    try:
        return tp(value)
    except OverflowError:
        raise ValueError(f"bad {what} {value!r}: out of float range") from None


# a config file's sections, each a partial override of a preset's record,
# and its top-level values; with "preset", these are all its keys
_SECTIONS = {"tracker": TrackerConfig, "schedule": ResolutionSchedule,
             "rescore_config": RescoreConfig}
_TOGGLES = {"P": int, "emit_coasted": bool, "rescore": bool}
_CONFIG_KEYS = ("preset", *_TOGGLES, *_SECTIONS)


def load_run_config(
    config_path: str | Path | None = None,
    preset: str | None = None,
    P: int | None = None,
    emit_coasted: bool | None = None,
    rescore_enabled: bool | None = None,
) -> RunConfig:
    """Resolve a run configuration: preset defaults, then file, then flags.

    Every key of the file is parsed by its field's YAML type, and must be
    known, before a flag that is not None replaces its value. The file's
    ``schedule`` section applies before its top-level ``P``.
    """
    doc = {} if config_path is None else _read_mapping(config_path, "config")
    where = "" if config_path is None else f"{config_path}: "
    try:
        _check_keys(doc, _CONFIG_KEYS, "")
        file_preset = doc.get("preset")
        if "preset" in doc and not (type(file_preset) is str and file_preset in _PRESET_TABLE):
            raise ValueError(
                f"bad preset {file_preset!r}: need one of {', '.join(PRESET_NAMES)}"
            )
        sections = {k: _keywords(cls, doc.get(k, {}), k) for k, cls in _SECTIONS.items()}
        toggles = {k: _parse(tp, doc[k], k) for k, tp in _TOGGLES.items() if k in doc}

        flags = dict(P=P, emit_coasted=emit_coasted, rescore=rescore_enabled)
        toggles.update((k, v) for k, v in flags.items() if v is not None)
        name = file_preset if preset is None else preset
        if name is None:
            raise ValidationError(
                f"{where}no preset given and no 'preset' key in the config file; "
                f"available presets: {', '.join(PRESET_NAMES)}"
            )
        base = preset_config(name)
        schedule = replace(base.schedule, **sections["schedule"])
        if "P" in toggles:
            schedule = replace(schedule, P=toggles["P"])
        return RunConfig(
            tracker=replace(base.tracker, **sections["tracker"]),
            rescore=replace(base.rescore, **sections["rescore_config"]),
            schedule=schedule,
            rescore_enabled=toggles.get("rescore", True),
            emit_coasted=toggles.get("emit_coasted", False),
        )
    except ValueError as exc:
        raise ValidationError(f"{where}bad config value: {exc}") from exc


def load_scenario(path: str | Path, seed: int | None = None) -> SynthScenario:
    """Parse a scenario YAML document; a ``seed`` that is not None (the
    CLI's ``--seed``) replaces the file's."""
    from .synth import SynthScenario  # here: only ``synth`` reads scenarios

    doc = _read_mapping(path, "scenario")
    if seed is not None:
        doc["seed"] = seed
    try:
        return _parse(SynthScenario, doc, "")
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing scenario field {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid scenario: {exc}") from exc


def _plain(value):
    """A record as a dict in field order, tuples as lists: YAML-ready."""
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    return list(map(_plain, value)) if type(value) is tuple else value


def save_scenario(path: str | Path, sc: SynthScenario) -> None:
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(_plain(sc), fh, sort_keys=False)


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "threshold": report.threshold_used,
        "map": report.map,
        "mean_precision": report.mean_precision,
        "mean_recall": report.mean_recall,
        "mean_f1": report.mean_f1,
        "per_class": {str(cls): m._asdict() for cls, m in sorted(report.per_class.items())},
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
