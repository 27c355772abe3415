import copy
import io
import json
import math
import re
import reprlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mrtrack.cli import main
from mrtrack.core import BBox, Detection, FramePacket, TrackOutput
from mrtrack.evaluation import GroundTruthFrame
from mrtrack.fileio import (
    FileFormatError,
    ValidationError,
    load_detection_file,
    load_groundtruth_file,
    load_run_config,
    load_scenario,
    load_track_file,
    preset_config,
    save_detection_file,
    save_groundtruth_file,
    save_scenario,
    save_track_file,
)
from mrtrack.synth import DegradationLevel, SynthScenario, profile_scenario


def _packets():
    return {
        "seq-a": [
            FramePacket(
                0,
                (320, 320),
                (320, 320),
                (Detection(BBox(0.5, 1.25, 30, 40), 2, 0.875),),
            ),
            FramePacket(1, (192, 192), (320, 320), ()),
        ],
        "seq-b": [FramePacket(0, (320, 320), (320, 320), ())],
    }


class TestDetectionFile:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        save_detection_file(path, _packets())
        assert load_detection_file(path) == _packets()

    def test_conf_clamped_on_load(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"sequence_id": "a", "frame": 0, "inference_resolution": [320, 320],'
            ' "native_resolution": [320, 320], "detections":'
            ' [{"bbox": [0, 0, 5, 5], "class": 0, "conf": 1.0}]}\n'
        )
        packets = load_detection_file(path)
        assert packets["a"][0].detections[0].conf == 1.0 - 1e-4

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"sequence_id": "a"}\nnot json\n')
        with pytest.raises(FileFormatError, match=r":1"):
            load_detection_file(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"sequence_id": "a", "frame": 0}\n')
        with pytest.raises(FileFormatError, match="inference_resolution"):
            load_detection_file(path)

    def test_non_increasing_frames_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        rec = (
            '{"sequence_id": "a", "frame": %d, "inference_resolution": [320, 320],'
            ' "native_resolution": [320, 320], "detections": []}'
        )
        path.write_text(rec % 1 + "\n" + rec % 1 + "\n")
        with pytest.raises(ValidationError, match="not increasing"):
            load_detection_file(path)

    def test_box_of_zero_native_height_rejected(self, tmp_path):
        # 7.0 and the next float up both scale by 320/192 to 11.666666666666668
        path = tmp_path / "dets.jsonl"
        path.write_text(
            '{"sequence_id": "a", "frame": 0, "inference_resolution": [192, 192],'
            ' "native_resolution": [320, 320], "detections":'
            ' [{"bbox": [10, 7.0, 20, 7.000000000000001], "class": 0, "conf": 0.9}]}\n'
        )
        with pytest.raises(ValidationError, match=r":1: zero-height box"):
            load_detection_file(path)

    def test_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text("")
        assert load_detection_file(path) == {}

    def test_native_box_bound_checked_once(self, tmp_path, monkeypatch):
        import mrtrack.core
        import mrtrack.fileio

        calls = []

        def counted(box):
            calls.append(box)
            return mrtrack.core.MAX_COORDINATE < max(map(abs, box))

        monkeypatch.setattr(mrtrack.core, "out_of_bounds", counted)
        monkeypatch.setattr(mrtrack.fileio, "out_of_bounds", counted)
        path = tmp_path / "dets.jsonl"
        save_detection_file(path, {"s": [FramePacket(0, (320, 320), (320, 320), (
            Detection(BBox(0, 0, 5, 5), 0, 0.5), Detection(BBox(1, 2, 3, 4), 1, 0.5),
        ))]})
        load_detection_file(path)
        assert calls == [BBox(0, 0, 5, 5), BBox(1, 2, 3, 4)]


class TestTrackAndGroundTruthFiles:
    def test_track_round_trip(self, tmp_path):
        data = {
            "s": {
                0: [TrackOutput(0, BBox(1, 2, 3, 4), 1, 0.5)],
                1: [],
            }
        }
        path = tmp_path / "tracks.jsonl"
        save_track_file(path, data)
        assert load_track_file(path) == data

    def test_groundtruth_round_trip(self, tmp_path):
        data = {
            "s": [
                GroundTruthFrame(0, ((BBox(0, 0, 10, 10), 3),)),
                GroundTruthFrame(1, ()),
            ]
        }
        path = tmp_path / "gt.jsonl"
        save_groundtruth_file(path, data)
        assert load_groundtruth_file(path) == data


# One valid record per format; each test file holds it at frames 0 and 1.
_BOX = [10.0, 20.0, 60.0, 90.0]
_VALID = {
    "detection": {
        "sequence_id": "s", "frame": 0, "inference_resolution": [320, 320],
        "native_resolution": [320, 320],
        "detections": [{"bbox": _BOX, "class": 1, "conf": 0.9}],
    },
    "track": {
        "sequence_id": "s", "frame": 0,
        "tracks": [{"id": 0, "bbox": _BOX, "class": 1, "conf": 0.9}],
    },
    "groundtruth": {
        "sequence_id": "s", "frame": 0,
        "objects": [{"bbox": _BOX, "class": 1}],
    },
}


def _locations(value, loc=()):
    """Every key path into a JSON value, the root included."""
    yield loc
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _locations(child, loc + (key,))


def _mutate(record, loc, kind, value=None):
    """Copy of ``record`` with the value at ``loc`` deleted, set to ``value``,
    or wrapped in a list or an object; deleting the root gives None."""
    root = {"r": copy.deepcopy(record)}
    parent, loc = root, ("r", *loc)
    for key in loc[:-1]:
        parent = parent[key]
    old = parent[loc[-1]]
    if kind == "delete":
        del parent[loc[-1]]
    else:
        new = {"set": value, "wrap-list": [old], "wrap-dict": {"v": old}}[kind]
        parent[loc[-1]] = new
    return root.get("r")


def _eval_with(tmp_path, fmt, first_record):
    """Run `eval --threshold fixed:0.0` on valid files, except that frame 0
    of the ``fmt`` file is ``first_record`` (None: left out).

    Returns (exit code, stderr, path of the ``fmt`` file).
    """
    pred_fmt = "detection" if fmt == "groundtruth" else fmt
    paths = {}
    for own in (pred_fmt, "groundtruth"):
        first = first_record if own == fmt else _VALID[own]
        records = [r for r in (first, dict(_VALID[own], frame=1)) if r is not None]
        paths[own] = tmp_path / f"{own}.jsonl"
        paths[own].write_text("".join(json.dumps(r) + "\n" for r in records))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["eval", str(paths[pred_fmt]), str(paths["groundtruth"]),
                   "--threshold", "fixed:0.0"])
    return rc, err.getvalue(), paths[fmt]


def _assert_clean_exit(rc, err, path):
    assert rc in (0, 2, 3)
    if rc:
        assert re.search(re.escape(str(path)) + r":\d+: ", err), err


_BAD_VALUES = [None, True, "", "0", "x", math.nan, math.inf, -math.inf,
               -1, -0.5, 1.7, 2**31, 10**400, [], {}]
_MUTATIONS = st.one_of(
    st.just(("delete", None)),
    st.tuples(st.just("set"), st.sampled_from(_BAD_VALUES)),
    st.tuples(st.sampled_from(["wrap-list", "wrap-dict"]), st.none()),
)


# (format, key path into the frame-0 record, value set there, exit code);
# a zero-height box is rejected only in detection files, and so is a box
# whose rescale to native resolution overflows: 10**400 / 320 is not a
# float, and 5 * 10**309 / 320 is a float that overflows the box's x2. A
# coordinate over MAX_COORDINATE (1e100) is a parse error in every format,
# and a detection box that exceeds it only at native resolution (9e99 * 320
# / 192) is rejected like an overflowing rescale. A detection box under the
# motion filter's 1e-100 px height floor is rejected too: at 1e-200 its
# variances underflow (the filter divided 0 by 0), and at 1e-250 the aspect
# 1e100 / 1e-250 overflows (it never associated).
_HUGE_BOX = [0, 0, 1e200, 1e200]
_CASES = [
    ("detection", ("detections", 0, "bbox"), _HUGE_BOX, 2),
    ("groundtruth", ("objects", 0, "bbox"), _HUGE_BOX, 2),
    ("track", ("tracks", 0, "bbox"), _HUGE_BOX, 2),
    ("detection", (), dict(_VALID["detection"], inference_resolution=[192, 192],
                           detections=[{"bbox": [0, 0, 9e99, 9e99], "class": 1, "conf": 0.9}]),
     3),
    ("detection", ("detections", 0, "class"), -1, 2),
    ("detection", ("detections", 0, "class"), 1.7, 2),
    ("detection", ("detections",), 5, 2),
    ("detection", ("detections",), [5], 2),
    ("detection", ("inference_resolution",), [0, 320], 2),
    ("detection", ("detections", 0, "bbox"), [10, 20, 60, 20], 3),
    ("detection", ("detections", 0, "bbox"), [0, 0, 1, 1e-200], 3),
    ("detection", ("detections", 0, "bbox"), [0, 0, 1e100, 1e-250], 3),
    ("detection", ("native_resolution",), [10**400, 320], 3),
    ("detection", ("native_resolution",), [5 * 10**309, 320], 3),
    ("groundtruth", ("frame",), "0", 2),
    ("groundtruth", ("objects", 0, "class"), -1, 2),
    ("groundtruth", ("objects", 0, "bbox"), [10, 20, 60, 20], 0),
    ("track", ("frame",), "0", 2),
    ("track", ("frame",), 2, 3),
    ("track", ("tracks", 0, "class"), -1, 2),
    ("track", ("tracks", 0, "conf"), "x", 2),
    ("track", ("tracks", 0, "conf"), 1.5, 2),
    ("track", ("tracks", 0, "bbox"), [10, 20, 60, 20], 0),
]


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "fmt, loc, value, expected",
        _CASES,
        ids=[f"{f}:{'.'.join(map(str, loc))}={reprlib.repr(v)}"
             for f, loc, v, _ in _CASES],
    )
    def test_exit_code_and_location(self, tmp_path, fmt, loc, value, expected):
        record = _mutate(_VALID[fmt], loc, "set", value)
        rc, err, path = _eval_with(tmp_path, fmt, record)
        assert rc == expected, err
        _assert_clean_exit(rc, err, path)

    def test_boxes_at_the_coordinate_bound_track_and_score(self, tmp_path, capsys):
        # areas of 4e200 and filter variances of ~1e198 stay finite: one track,
        # three true positives, and no overflow warning (which fails the suite)
        box = [-1e100, -1e100, 1e100, 1e100]
        dets, gt, tracks = (tmp_path / n for n in ("d.jsonl", "gt.jsonl", "t.jsonl"))
        records = [dict(_VALID["detection"], frame=t,
                        detections=[{"bbox": box, "class": 1, "conf": 0.9}]) for t in range(3)]
        dets.write_text("".join(json.dumps(r) + "\n" for r in records))
        gt.write_text("".join(json.dumps({"sequence_id": "s", "frame": t, "objects": [
            {"bbox": box, "class": 1}]}) + "\n" for t in range(3)))
        assert main(["track", str(dets), "--preset", "nanodet", "--P", "0",
                     "--out", str(tracks)]) == 0
        assert "tracks created: 1 " in capsys.readouterr().out
        assert main(["eval", str(dets), str(gt), "--threshold", "fixed:0.0"]) == 0
        assert "mAP 1.0000" in capsys.readouterr().out

    def test_undecodable_bytes_name_their_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(_VALID["groundtruth"]) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_bytes(b"\n\xff\xfa\n")
        rc = main(["eval", str(pred), str(gt), "--threshold", "fixed:0.0"])
        assert rc == 2
        assert f"{pred}:2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        b'{"sequence_id": "s", "frame": 1' + b"0" * 5000 + b"}",
        b"[" * 100_000,
    ], ids=["integer-over-digit-limit", "deep-nesting"])
    def test_unparseable_json_names_its_line(self, tmp_path, capsys, line):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(_VALID["groundtruth"]) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_bytes(line + b"\n")
        rc = main(["eval", str(pred), str(gt), "--threshold", "fixed:0.0"])
        assert rc == 2
        assert f"{pred}:1: invalid JSON" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(_VALID)), st.data())
    def test_mutated_records_exit_cleanly(self, tmp_path, fmt, data):
        loc = data.draw(st.sampled_from(list(_locations(_VALID[fmt]))))
        kind, value = data.draw(_MUTATIONS)
        # another sequence id is well-formed; it fails a cross-file check
        assume(not (loc == ("sequence_id",) and isinstance(value, str)))
        record = _mutate(_VALID[fmt], loc, kind, value)
        _assert_clean_exit(*_eval_with(tmp_path, fmt, record))


class TestRunConfig:
    def test_preset_values(self):
        cfg = preset_config("nanodet")
        assert cfg.tracker.high_threshold == 0.45
        assert cfg.tracker.low_threshold == 0.30
        assert cfg.schedule.mac_full == 463.0
        assert cfg.schedule.mac_low == 167.0
        assert cfg.schedule.P == 5
        cfg = preset_config("yolox")
        assert (cfg.tracker.high_threshold, cfg.tracker.low_threshold) == (0.40, 0.15)
        assert (cfg.schedule.mac_full, cfg.schedule.mac_low) == (316.0, 114.0)
        cfg = preset_config("effvit")
        assert (cfg.tracker.high_threshold, cfg.tracker.low_threshold) == (0.55, 0.10)
        assert (cfg.schedule.mac_full, cfg.schedule.mac_low) == (281.0, 101.0)

    def test_shared_lifecycle_defaults(self):
        for name in ("nanodet", "yolox", "effvit"):
            cfg = preset_config(name)
            assert cfg.tracker.tau_iou == 0.3
            assert cfg.tracker.tau_dead == 5
            assert cfg.tracker.tau_init == 2

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_config("resnet")

    def test_config_file_inherits_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "preset: nanodet\n"
            "P: 2\n"
            "emit_coasted: true\n"
            "tracker:\n  high_threshold: 0.5\n"
        )
        cfg = load_run_config(path)
        assert cfg.tracker.high_threshold == 0.5
        assert cfg.tracker.low_threshold == 0.30
        assert cfg.schedule.P == 2
        assert cfg.emit_coasted

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("preset: nanodet\nP: 2\n")
        cfg = load_run_config(path, P=4, rescore_enabled=False)
        assert cfg.schedule.P == 4
        assert not cfg.rescore_enabled

    def test_requires_some_preset(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("P: 2\n")
        with pytest.raises(ValidationError):
            load_run_config(path)


_README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExamples:
    """The README's config and scenario YAML load as documented."""

    def test_config_block(self, tmp_path):
        (block,) = re.findall(r"```yaml\n(.*?)```", _README.read_text(), re.S)
        path = tmp_path / "cfg.yaml"
        path.write_text(block)
        cfg = load_run_config(path)
        assert (cfg.schedule.P, cfg.emit_coasted, cfg.rescore_enabled) == (2, True, True)
        assert (cfg.tracker.high_threshold, cfg.schedule.mac_full) == (0.5, 500.0)

    def test_scenario_heredoc(self, tmp_path):
        (block,) = re.findall(r"<<'EOF'\n(.*?)EOF", _README.read_text(), re.S)
        path = tmp_path / "scenario.yaml"
        path.write_text(block)
        sc = load_scenario(path)
        assert (sc.seed, sc.n_objects, sc.frame_count) == (7, 4, 240)
        assert [lv.resolution for lv in sc.degradation] == [(320, 320), (192, 192)]


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        sc = profile_scenario("cnn-like", seed=3)
        path = tmp_path / "scenario.yaml"
        save_scenario(path, sc)
        assert load_scenario(path) == sc
        # every field in declaration order, tuples as lists
        doc = yaml.safe_load(path.read_text())
        assert list(doc) == list(SynthScenario._fields)
        assert doc["native_resolution"] == [320, 320]
        assert list(doc["degradation"][1]) == list(DegradationLevel._fields)

    def test_seed_override(self, tmp_path):
        sc = profile_scenario("cnn-like", seed=3)
        path = tmp_path / "scenario.yaml"
        save_scenario(path, sc)
        assert load_scenario(path, seed=99).seed == 99

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(FileFormatError):
            load_scenario(path)

    def test_invalid_scenario_values(self, tmp_path):
        sc = profile_scenario("cnn-like", seed=3)
        path = tmp_path / "scenario.yaml"
        save_scenario(path, sc)
        text = path.read_text().replace("n_objects: 4", "n_objects: 0")
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_scenario(path)
