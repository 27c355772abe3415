import copy
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mrtrack
from mrtrack import cli, evaluation
from mrtrack.cli import EXIT_OK, EXIT_PARSE, EXIT_SUITE, EXIT_VALIDATION, build_parser, main
from mrtrack.core import BBox, Detection, FramePacket, RescoreConfig, TrackerConfig, replace
from mrtrack.fileio import (
    load_track_file,
    report_to_dict,
    save_detection_file,
    save_groundtruth_file,
    save_scenario,
)
from mrtrack.evaluation import GroundTruthFrame
from mrtrack.pipeline import ResolutionSchedule
from mrtrack.synth import DegradationLevel, SynthScenario, profile_scenario

FULL = (320, 320)


def _python(*args):
    """Run a fresh interpreter that imports this checkout's mrtrack."""
    src = str(Path(mrtrack.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _cv_packets(n=15, res=FULL, conf=0.9):
    packets = []
    for t in range(n):
        box = BBox(10 + 4 * t, 20 + 2 * t, 60 + 4 * t, 90 + 2 * t)
        packets.append(
            FramePacket(t, res, FULL, (Detection(box, 0, conf),))
        )
    return packets


def _gt_frames(n=15):
    return [
        GroundTruthFrame(t, ((BBox(10 + 4 * t, 20 + 2 * t, 60 + 4 * t, 90 + 2 * t), 0),))
        for t in range(n)
    ]


@pytest.fixture
def corpus(tmp_path):
    dets = tmp_path / "dets.jsonl"
    gt = tmp_path / "gt.jsonl"
    save_detection_file(dets, {"s": _cv_packets()})
    save_groundtruth_file(gt, {"s": _gt_frames()})
    return dets, gt


class TestTrackCommand:
    def test_noiseless_p0_reproduces_boxes(self, tmp_path, corpus, capsys):
        dets, _ = corpus
        out = tmp_path / "tracks.jsonl"
        rc = main(
            ["track", str(dets), "--preset", "nanodet", "--P", "0",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        tracks = load_track_file(out)["s"]
        assert tracks[0] == []  # tentative on the first frame
        for t in range(10, 15):
            assert len(tracks[t]) == 1
            got = tracks[t][0].bbox
            want = BBox(10 + 4 * t, 20 + 2 * t, 60 + 4 * t, 90 + 2 * t)
            assert max(
                abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())
            ) < 0.5
        summary = capsys.readouterr().out
        assert "frames: 15" in summary
        assert "mean MAC" in summary

    def test_empty_detection_file(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("")
        out = tmp_path / "tracks.jsonl"
        rc = main(["track", str(dets), "--preset", "nanodet", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == ""

    def test_schedule_mismatch_names_frame(self, tmp_path, capsys):
        packets = _cv_packets()
        packets[3] = FramePacket(
            3, (192, 192), FULL, packets[3].detections
        )
        dets = tmp_path / "dets.jsonl"
        save_detection_file(dets, {"s": packets})
        rc = main(
            ["track", str(dets), "--preset", "nanodet", "--P", "0",
             "--out", str(tmp_path / "t.jsonl")]
        )
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "frame 3" in err

    def test_schedule_mismatch_names_the_low_res_slot(self, tmp_path):
        # low_res equals full_res, so the slot cannot be told from the resolution
        packets = _cv_packets(n=3)
        packets[1] = replace(packets[1], inference_resolution=(192, 192))
        dets = tmp_path / "dets.jsonl"
        save_detection_file(dets, {"s": packets})
        config = _write_yaml(tmp_path / "cfg.yaml",
                             {"preset": "nanodet", "schedule": {"low_res": [320, 320]}})
        rc, err = _run(["track", str(dets), "--config", str(config), "--P", "1",
                        "--out", str(tmp_path / "t.jsonl")])
        assert rc == EXIT_VALIDATION
        assert ("sequence 's' frame 1: schedule P=1 expects low-res (320, 320), "
                "file has (192, 192)") in err

    def test_coasted_boxes_stay_in_the_loadable_range(self, tmp_path):
        # a 5e99-px box moving 1e99 px a frame coasts past 1e100 after frame 3
        packets = [
            FramePacket(t, FULL, FULL, (Detection(
                BBox(t * 1e99, 0, t * 1e99 + 5e99, 1), 0, 0.9),) if t < 4 else ())
            for t in range(10)
        ]
        dets, tracks, gt = (tmp_path / n for n in ("dets.jsonl", "t.jsonl", "gt.jsonl"))
        save_detection_file(dets, {"s": packets})
        save_groundtruth_file(gt, {"s": [GroundTruthFrame(t, ()) for t in range(10)]})
        assert _run(["track", str(dets), "--preset", "nanodet", "--P", "0",
                     "--emit-coasted", "--out", str(tracks)]) == (EXIT_OK, "")
        emitted = load_track_file(tracks)["s"]
        assert [outs[0].bbox.x2 for outs in (emitted[6], emitted[7])] == [1e100, 1e100]
        assert _run(["eval", str(tracks), str(gt), "--threshold", "fixed:0.5"]) == (EXIT_OK, "")

    def test_malformed_record_is_parse_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("{broken\n")
        rc = main(["track", str(dets), "--preset", "nanodet",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == EXIT_PARSE
        assert ":1" in capsys.readouterr().err

    def test_zero_height_box_is_validation_error(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        save_detection_file(dets, {"s": _cv_packets(n=1)})
        record = json.loads(dets.read_text())
        record["frame"] = 1
        record["detections"][0]["bbox"] = [10, 10, 20, 10]
        with open(dets, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        proc = _python("-m", "mrtrack", "track", str(dets), "--preset", "nanodet",
                       "--out", str(tmp_path / "t.jsonl"))
        assert proc.returncode == EXIT_VALIDATION
        assert f"{dets}:2:" in proc.stderr
        assert "Traceback" not in proc.stderr


# prints which of the heavy modules a fresh interpreter has loaded
_LOADED = (
    "print(sorted({'numpy', 'scipy', 'yaml', 'dataclasses', 'mrtrack.synth'}"
    " & set(sys.modules)))"
)


class TestStartup:
    """Start-up cost: numpy loads only in the commands that compute with it, and
    scipy and yaml load in none of them. No command but ``synth`` loads the
    emulator, and none loads ``dataclasses`` (records are NamedTuples). One
    fresh interpreter per case."""

    def _loaded(self, statement):
        proc = _python("-c", f"import sys\n{statement}\n{_LOADED}")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def _run_main(self, argv):
        # --help exits through SystemExit(0); a command returns its exit code
        return self._loaded(
            f"import mrtrack.cli\ntry:\n    code = mrtrack.cli.main({argv!r})\n"
            f"except SystemExit as exc:\n    code = exc.code\nassert code == 0, code"
        )

    def test_package_import_loads_none(self):
        assert self._loaded("import mrtrack") == "[]"

    def test_cli_import_does_not_load_scipy(self):
        assert self._loaded("import mrtrack.cli") == "[]"

    @pytest.mark.parametrize("command", ["track", "eval", "sweep", "synth", "attn-check"])
    def test_help_loads_none(self, command):
        assert self._run_main([command, "--help"]) == "[]"

    @pytest.mark.parametrize("threshold", ["f1max", "fixed:0.5"])
    @pytest.mark.parametrize("kind", ["detections", "tracks"])
    def test_eval_loads_none(self, corpus, tmp_path, kind, threshold):
        dets, gt = corpus
        predictions = dets
        if kind == "tracks":
            predictions = tmp_path / "tracks.jsonl"
            assert main(["track", str(dets), "--preset", "nanodet", "--P", "0",
                         "--out", str(predictions)]) == EXIT_OK
        out = tmp_path / "report.json"
        argv = ["eval", str(predictions), str(gt), "--threshold", threshold,
                "--out", str(out)]
        assert self._run_main(argv) == "[]"
        assert out.stat().st_size > 0

    @pytest.fixture
    def synth_corpus(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=20))
        out = tmp_path / "corpus"
        assert main(["synth", str(scenario), "--out", str(out), "--P", "2"]) == EXIT_OK
        return out

    def test_track_does_not_load_scipy(self, synth_corpus, tmp_path):
        argv = ["track", str(synth_corpus / "detections_P2.jsonl"), "--preset", "nanodet",
                "--P", "2", "--out", str(tmp_path / "tracks.jsonl")]
        assert self._run_main(argv) == "['numpy']"
        assert (tmp_path / "tracks.jsonl").stat().st_size > 0

    def test_sweep_does_not_load_scipy(self, synth_corpus, tmp_path):
        argv = ["sweep", str(synth_corpus / "detections_320x320.jsonl"),
                str(synth_corpus / "detections_192x192.jsonl"), str(synth_corpus / "gt.jsonl"),
                "--preset", "nanodet", "--P-values", "0,2", "--out", str(tmp_path / "rows.jsonl")]
        assert self._run_main(argv) == "['numpy']"
        assert (tmp_path / "rows.jsonl").stat().st_size > 0

    @pytest.mark.parametrize("command", ["track", "sweep"])
    def test_config_run_loads_no_dataclasses_or_synth(self, synth_corpus, tmp_path, command):
        # a config file takes the YAML reader through every section's record
        config = _write_yaml(tmp_path / "cfg.yaml", {
            "preset": "nanodet", "tracker": {"tau_iou": 0.25},
            "schedule": {"mac_low": 150.0}, "rescore_config": {"history_len": 4},
        })
        out = tmp_path / "out.jsonl"
        if command == "track":
            argv = ["track", str(synth_corpus / "detections_P2.jsonl"), "--P", "2"]
        else:
            argv = ["sweep", str(synth_corpus / "detections_320x320.jsonl"),
                    str(synth_corpus / "detections_192x192.jsonl"),
                    str(synth_corpus / "gt.jsonl"), "--P-values", "0,2"]
        loaded = self._run_main([*argv, "--config", str(config), "--out", str(out)])
        assert "'dataclasses'" not in loaded and "'mrtrack.synth'" not in loaded, loaded
        assert out.stat().st_size > 0


class TestLazyPackage:
    """``mrtrack``'s public names resolve on access to their submodules' objects."""

    def test_each_name_is_the_submodule_object(self):
        assert len(mrtrack.__all__) == 46
        for name in mrtrack.__all__:
            module = importlib.import_module(f"mrtrack.{mrtrack._SOURCES[name]}")
            value = getattr(mrtrack, name)
            assert value is getattr(module, name), name
            # the table names the module that defines it, not one that imports it
            assert getattr(value, "__module__", module.__name__) == module.__name__, name

    def test_star_import_and_unknown_name(self):
        namespace = {}
        exec("from mrtrack import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == set(mrtrack.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            mrtrack.no_such_name


class TestEvalCommand:
    def test_perfect_tracks_score_one(self, tmp_path, corpus, capsys):
        dets, _ = corpus
        tracks = tmp_path / "tracks.jsonl"
        main(["track", str(dets), "--preset", "nanodet", "--P", "0",
              "--out", str(tracks)])
        capsys.readouterr()
        # ground truth derived from the tracks themselves
        gt_own = tmp_path / "gt_own.jsonl"
        track_data = load_track_file(tracks)
        save_groundtruth_file(
            gt_own,
            {
                "s": [
                    GroundTruthFrame(t, tuple((o.bbox, o.class_id) for o in outs))
                    for t, outs in sorted(track_data["s"].items())
                ]
            },
        )
        report = tmp_path / "report.json"
        rc = main(
            ["eval", str(tracks), str(gt_own), "--threshold", "fixed:0.0",
             "--out", str(report)]
        )
        assert rc == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["map"] == pytest.approx(1.0)
        assert doc["mean_f1"] == pytest.approx(1.0)
        assert "mAP" in capsys.readouterr().out

    def test_detections_evaluate_directly(self, corpus, capsys):
        dets, gt = corpus
        rc = main(["eval", str(dets), str(gt), "--threshold", "f1max"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mAP 1.0000" in out

    def test_detection_file_with_sequence_named_tracks(self, tmp_path, capsys):
        # the predictions file type comes from the first record's keys, not
        # from the text "tracks" appearing in it
        dets = tmp_path / "dets.jsonl"
        gt = tmp_path / "gt.jsonl"
        save_detection_file(dets, {"tracks": _cv_packets()})
        save_groundtruth_file(gt, {"tracks": _gt_frames()})
        rc = main(["eval", str(dets), str(gt), "--threshold", "fixed:0.0"])
        assert rc == EXIT_OK
        assert "mAP 1.0000" in capsys.readouterr().out

    def test_missing_sequence_listed(self, tmp_path, corpus, capsys):
        dets, _ = corpus
        gt2 = tmp_path / "gt2.jsonl"
        save_groundtruth_file(gt2, {"other": _gt_frames()})
        rc = main(["eval", str(dets), str(gt2)])
        assert rc == EXIT_VALIDATION
        assert "'s'" in capsys.readouterr().err

    def test_empty_groundtruth_under_f1max_is_validation_error(
        self, tmp_path, corpus, capsys
    ):
        dets, _ = corpus
        gt_empty = tmp_path / "gt_empty.jsonl"
        save_groundtruth_file(gt_empty, {"s": [GroundTruthFrame(0, ())]})
        rc = main(["eval", str(dets), str(gt_empty)])
        assert rc == EXIT_VALIDATION
        assert f"{gt_empty}: no ground-truth objects" in capsys.readouterr().err

    def test_fixed_zero_is_not_f1max(self, tmp_path, corpus, capsys):
        # 0.0 is falsy: the F1-max threshold of this corpus is 0.9
        dets, gt = corpus
        report = tmp_path / "report.json"
        assert main(["eval", str(dets), str(gt), "--threshold", "fixed:0",
                     "--out", str(report)]) == EXIT_OK
        ranked = evaluation.rank_corpus(
            {("s", p.frame_index): list(p.detections) for p in _cv_packets()},
            {("s", g.frame_index): list(g.objects) for g in _gt_frames()},
        )
        want = json.loads(json.dumps(report_to_dict(evaluation.evaluate(ranked, 0.0))))
        assert json.loads(report.read_text()) == want
        assert capsys.readouterr().out.startswith("threshold: 0.0000\n")

    def test_bad_threshold_spec_is_usage_error(self, corpus):
        dets, gt = corpus
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(dets), str(gt), "--threshold", "nonsense"])
        assert exc.value.code == 2


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=30))
        out_dir = tmp_path / "corpus"
        rc = main(["synth", str(scenario), "--out", str(out_dir), "--P", "2"])
        assert rc == EXIT_OK
        for name in (
            "gt.jsonl",
            "detections_320x320.jsonl",
            "detections_192x192.jsonl",
            "detections_P2.jsonl",
        ):
            assert (out_dir / name).exists()

    def test_deterministic_reruns(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=20))
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["synth", str(scenario), "--out", str(out_dir)]) == EXIT_OK
            outs.append((out_dir / "detections_192x192.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=20))
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["synth", str(scenario), "--out", str(a)])
        main(["synth", str(scenario), "--out", str(b), "--seed", "6"])
        assert (a / "gt.jsonl").read_bytes() != (b / "gt.jsonl").read_bytes()


class TestSweepCommand:
    def test_p0_baseline_matches_eval(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=40))
        corpus_dir = tmp_path / "corpus"
        main(["synth", str(scenario), "--out", str(corpus_dir), "--P", "1"])
        capsys.readouterr()

        full = corpus_dir / "detections_320x320.jsonl"
        low = corpus_dir / "detections_192x192.jsonl"
        gt = corpus_dir / "gt.jsonl"
        rows_path = tmp_path / "rows.jsonl"
        rc = main(
            ["sweep", str(full), str(low), str(gt), "--preset", "nanodet",
             "--P-values", "0,1", "--out", str(rows_path)]
        )
        assert rc == EXIT_OK
        sweep_out = capsys.readouterr().out
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        base0 = next(r for r in rows if r["P"] == 0 and r["method"] == "baseline")

        report = tmp_path / "report.json"
        main(["eval", str(full), str(gt), "--out", str(report)])
        doc = json.loads(report.read_text())
        assert base0["map"] == pytest.approx(doc["map"], abs=1e-12)
        assert base0["f1"] == pytest.approx(doc["mean_f1"], abs=1e-12)

        # every other row is track + eval of the same interleaved stream, exactly
        thr = doc["threshold"]  # the full-res F1-max threshold sweep resolves
        assert f"baseline threshold: {thr:.4f}" in sweep_out

        def scores(pred, threshold) -> dict:
            assert main(["eval", str(pred), str(gt), "--threshold", threshold,
                         "--out", str(report)]) == EXIT_OK
            d = json.loads(report.read_text())
            return {"map": d["map"], "precision": d["mean_precision"],
                    "recall": d["mean_recall"], "f1": d["mean_f1"]}

        def row(P, method) -> dict:
            r = next(r for r in rows if r["P"] == P and r["method"] == method)
            return {k: r[k] for k in ("map", "precision", "recall", "f1")}

        streams = {0: full, 1: corpus_dir / "detections_P1.jsonl"}
        for P, stream in streams.items():
            tracks = tmp_path / f"tracks_P{P}.jsonl"
            assert main(["track", str(stream), "--preset", "nanodet", "--P", str(P),
                         "--out", str(tracks)]) == EXIT_OK
            assert row(P, "tracked") == scores(tracks, "fixed:0.0")
        assert row(1, "baseline") == scores(streams[1], f"fixed:{thr!r}")

    def test_mac_column_reproduces_cost_model(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=24))
        corpus_dir = tmp_path / "corpus"
        main(["synth", str(scenario), "--out", str(corpus_dir)])
        rows_path = tmp_path / "rows.jsonl"
        rc = main(
            ["sweep", str(corpus_dir / "detections_320x320.jsonl"),
             str(corpus_dir / "detections_192x192.jsonl"),
             str(corpus_dir / "gt.jsonl"), "--preset", "nanodet",
             "--P-values", "0,5", "--out", str(rows_path)]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        row5 = next(r for r in rows if r["P"] == 5)
        assert 100 * row5["reduction"] == pytest.approx(53.3, abs=0.5)
        row0 = next(r for r in rows if r["P"] == 0)
        assert row0["mean_mac"] == pytest.approx(463.0)

    def test_fixed_zero_is_not_f1max(self, tmp_path, corpus, capsys):
        full, gt = corpus
        low = tmp_path / "low.jsonl"
        save_detection_file(low, {"s": _cv_packets(res=(192, 192))})
        rc = main(["sweep", str(full), str(low), str(gt), "--preset", "nanodet",
                   "--P-values", "0", "--threshold", "fixed:0"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("baseline threshold: 0.0000\n")

    def test_empty_groundtruth_under_f1max_is_validation_error(
        self, tmp_path, corpus, capsys
    ):
        full, _ = corpus
        low = tmp_path / "low.jsonl"
        save_detection_file(low, {"s": _cv_packets(res=(192, 192))})
        gt_empty = tmp_path / "gt_empty.jsonl"
        save_groundtruth_file(gt_empty, {"s": [GroundTruthFrame(0, ())]})
        rc = main(["sweep", str(full), str(low), str(gt_empty), "--preset", "nanodet"])
        assert rc == EXIT_VALIDATION
        assert f"{gt_empty}: no ground-truth objects" in capsys.readouterr().err


def _strict_json(line):
    """``line`` parsed as JSON proper: NaN and Infinity are not JSON values."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(line, parse_constant=reject)


class TestCostModelRange:
    """Every P the parsers accept prints a finite cost, however large (a
    schedule whose cost ratio overflows is a `TestYamlTypes` row)."""

    HUGE = 10**400

    @pytest.fixture
    def one_frame(self, tmp_path):
        full, low, gt = tmp_path / "full.jsonl", tmp_path / "low.jsonl", tmp_path / "gt.jsonl"
        save_detection_file(full, {"s": _cv_packets(n=1)})
        save_detection_file(low, {"s": _cv_packets(n=1, res=(192, 192))})
        save_groundtruth_file(gt, {"s": _gt_frames(n=1)})
        return full, low, gt

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_track_with_p_past_float_range(self, tmp_path, one_frame, capsys, where):
        flags = (["--preset", "nanodet", "--P", str(self.HUGE)] if where == "flag" else
                 ["--config", str(_write_yaml(tmp_path / "cfg.yaml",
                                              {"preset": "nanodet", "P": self.HUGE}))])
        out = tmp_path / "tracks.jsonl"
        assert main(["track", str(one_frame[0]), *flags, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "mean MAC 167.0 (63.9% reduction vs full-res)" in stdout
        assert load_track_file(out) == {"s": {0: []}}

    def test_sweep_with_p_past_float_range(self, tmp_path, one_frame, capsys):
        rows_path = tmp_path / "rows.jsonl"
        rc = main(["sweep", *map(str, one_frame), "--preset", "nanodet",
                   "--P-values", f"0,{self.HUGE}", "--out", str(rows_path)])
        assert rc == EXIT_OK
        assert "63.9%" in capsys.readouterr().out
        rows = [_strict_json(line) for line in rows_path.read_text().splitlines()]
        assert [(r["P"], r["mean_mac"]) for r in rows] == [
            (0, 463.0), (0, 463.0), (self.HUGE, 167.0), (self.HUGE, 167.0)]


class TestStreamContract:
    """Tracked streams must run contiguously from frame 0, in full and low files alike."""

    def _sweep(self, tmp_path, full, low, *flags):
        """Exit code of `sweep` over {sequence: packets} maps for the two files."""
        paths = [tmp_path / name for name in ("full.jsonl", "low.jsonl", "gt.jsonl")]
        save_detection_file(paths[0], full)
        save_detection_file(paths[1], low)
        save_groundtruth_file(paths[2], {seq: _gt_frames() for seq in {**full, **low}})
        return main(["sweep", *map(str, paths), "--preset", "nanodet", *flags])

    def test_track_rejects_a_frame_gap(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        save_detection_file(dets, {"s": _cv_packets(n=3)[::2]})  # frames 0, 2
        rc = main(["track", str(dets), "--preset", "nanodet", "--P", "0",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == EXIT_VALIDATION
        assert "frame 2" in capsys.readouterr().err

    def test_sweep_rejects_frame_count_mismatch(self, tmp_path):
        low = _cv_packets(n=14, res=(192, 192))
        assert self._sweep(tmp_path, {"s": _cv_packets()}, {"s": low}) == EXIT_VALIDATION

    def test_sweep_rejects_different_sequences(self, tmp_path):
        low = _cv_packets(res=(192, 192))
        assert self._sweep(tmp_path, {"s": _cv_packets()}, {"t": low}) == EXIT_VALIDATION

    def test_sweep_rejects_the_same_gap_in_both_files(self, tmp_path):
        full = _cv_packets()[::2]
        low = _cv_packets(res=(192, 192))[::2]
        assert self._sweep(tmp_path, {"s": full}, {"s": low}) == EXIT_VALIDATION

    def test_track_rejects_a_frame_at_another_native_resolution(self, tmp_path, capsys):
        packets = _cv_packets(n=5)
        packets[3] = replace(packets[3], native_resolution=(640, 640))
        dets = tmp_path / "dets.jsonl"
        save_detection_file(dets, {"s": packets})
        rc = main(["track", str(dets), "--preset", "nanodet", "--P", "0",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == EXIT_VALIDATION
        assert "sequence 's' frame 3: native resolution (640, 640)" in capsys.readouterr().err

    @pytest.mark.parametrize("retag", [{3}, set(range(15))], ids=["one-frame", "whole-file"])
    def test_sweep_rejects_low_frames_at_another_native_resolution(
        self, tmp_path, capsys, retag
    ):
        low = [replace(p, native_resolution=(640, 640)) if p.frame_index in retag else p
               for p in _cv_packets(res=(192, 192))]
        assert self._sweep(tmp_path, {"s": _cv_packets()}, {"s": low}) == EXIT_VALIDATION
        assert f"sequence 's' frame {min(retag)}: native" in capsys.readouterr().err

    def test_sweep_rescales_each_loaded_packet_once(self, tmp_path, monkeypatch):
        rescale, calls = cli.rescale_packet_to_native, []

        def counted(packet):
            calls.append(packet.frame_index)
            return rescale(packet)

        monkeypatch.setattr(cli, "rescale_packet_to_native", counted)
        full, low = _cv_packets(), _cv_packets(res=(192, 192))
        rc = self._sweep(tmp_path, {"s": full}, {"s": low}, "--P-values", "0,1,2,3,4,5")
        assert rc == EXIT_OK
        assert len(calls) == len(full) + len(low)


class TestArgumentChecks:
    """Out-of-range flag values are usage errors that name the flag, not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "d.jsonl", "--out", "t.jsonl", "--P", "-1"],
            ["synth", "s.yaml", "--out", "o", "--P", "-2"],
            ["sweep", "f.jsonl", "l.jsonl", "g.jsonl", "--P-values", "-1"],
            ["eval", "p.jsonl", "g.jsonl", "--grid-step", "0"],
            ["eval", "p.jsonl", "g.jsonl", "--grid-step", "nan"],
            ["eval", "p.jsonl", "g.jsonl", "--grid-step", "1e-13"],
            ["eval", "p.jsonl", "g.jsonl", "--threshold", "fixed:nan"],
            ["attn-check", "--tol", "nan"],
            ["attn-check", "--tol", "-1"],
            ["sweep", "f.jsonl", "l.jsonl", "g.jsonl", "--P-values", "1,x"],
            ["attn-check", "--n-values", "1,x"],
        ],
        ids=["track-P", "synth-P", "sweep-P-values", "grid-step-0", "grid-step-nan",
             "grid-step-under-floor", "threshold-nan", "tol-nan", "tol-negative",
             "sweep-P-values-not-int", "n-values-not-int"],
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert f"argument {argv[-2]}:" in capsys.readouterr().err

    def test_range_ends_are_accepted(self):
        args = build_parser().parse_args(
            ["eval", "p.jsonl", "g.jsonl", "--threshold", "fixed:1", "--grid-step", "0.5"]
        )
        assert (args.threshold, args.grid_step) == (1.0, 0.5)
        args = build_parser().parse_args(["sweep", "f", "l", "g", "--P-values", "0,5"])
        assert args.P_values == [0, 5]


class TestMatchingPasses:
    """How often evaluation matches each frame: once per ranked table, which the
    F1-max scan and the report at its threshold share."""

    @pytest.fixture
    def count_matches(self, monkeypatch):
        original, calls = evaluation.match_frame_flags, []

        def counted(dets, gts):
            calls.append(1)
            return original(dets, gts)

        monkeypatch.setattr(evaluation, "match_frame_flags", counted)
        return calls

    def test_sweep_f1max_matches_each_frame_once_per_report(
        self, tmp_path, corpus, count_matches
    ):
        dets, gt = corpus
        low = tmp_path / "low.jsonl"
        save_detection_file(low, {"s": _cv_packets(res=(192, 192))})
        P_values = [0, 1, 2]
        rc = main(["sweep", str(dets), str(low), str(gt), "--preset", "nanodet",
                   "--P-values", ",".join(map(str, P_values))])
        assert rc == EXIT_OK
        # the threshold scan over the full-res frames, then a baseline and a
        # tracked report per P
        assert len(count_matches) == 15 * (1 + 2 * len(P_values))

    def test_eval_f1max_matches_each_frame_once(self, corpus, count_matches):
        dets, gt = corpus
        assert main(["eval", str(dets), str(gt), "--threshold", "f1max"]) == EXIT_OK
        assert len(count_matches) == 15


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main`` run in-process; usage errors included."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def _write_yaml(path: Path, doc) -> Path:
    path.write_text(yaml.safe_dump(doc))
    return path


def _scenario_doc(**changes) -> dict:
    doc = {"seed": 5, "n_objects": 4, "frame_count": 6, "native_resolution": [320, 320],
           "degradation": [{"resolution": [320, 320]}, {"resolution": [192, 192]}]}
    return {**doc, **changes}


# the scenario of the synth corpus-check repros: 2 objects, 3 frames, seed 1
_REPRO = {"seed": 1, "n_objects": 2, "frame_count": 3}


def _level(**changes) -> list:
    """The default two degradation levels, the low one changed."""
    return [{"resolution": [320, 320]}, {"resolution": [192, 192], **changes}]


def _bad_input_cases():
    """(id, argv template over {tmp}, {dets} and {gt}, config or scenario file
    contents or None, exit code)."""
    track = ["track", "{dets}", "--preset", "nanodet", "--P", "0", "--out", "{tmp}/t.jsonl"]
    with_config = ["track", "{dets}", "--config", "{tmp}/cfg.yaml", "--out", "{tmp}/t.jsonl"]
    # a schedule the corpus fits, so only the config value can fail the run
    at_p0 = with_config + ["--P", "0"]
    synth = ["synth", "{tmp}/scenario.yaml", "--out", "{tmp}/corpus"]
    cases = [
        ("track-dir", ["track", "{tmp}", "--preset", "nanodet", "--out", "{tmp}/t.jsonl"],
         None, EXIT_PARSE),
        ("track-out-dir", track[:-1] + ["{tmp}"], None, EXIT_PARSE),
        ("eval-out-dir", ["eval", "{dets}", "{gt}", "--out", "{tmp}"], None, EXIT_PARSE),
        ("config-dir", track + ["--config", "{tmp}"], None, EXIT_PARSE),
        ("synth-negative-seed", synth + ["--seed", "-1"], _scenario_doc(), EXIT_VALIDATION),
        ("synth-zero-native", synth, _scenario_doc(native_resolution=[0, 320]),
         EXIT_VALIDATION),
        ("synth-zero-level", synth,
         _scenario_doc(degradation=[{"resolution": [320, 320]}, {"resolution": [0, 192]}]),
         EXIT_VALIDATION),
        ("synth-size-over-frame", synth, _scenario_doc(size_range=[400, 500]),
         EXIT_VALIDATION),
        ("synth-reversed-speed", synth, _scenario_doc(speed_range=[3, 1]), EXIT_VALIDATION),
        ("attn-d-0", ["attn-check", "--d", "0"], None, EXIT_PARSE),
        ("attn-n-values-0", ["attn-check", "--n-values", "0"], None, EXIT_PARSE),
        ("attn-trials-0", ["attn-check", "--trials", "0"], None, EXIT_PARSE),
        ("config-mac-full-0", at_p0,
         {"preset": "nanodet", "schedule": {"mac_full": 0}}, EXIT_VALIDATION),
        ("config-P-negative", with_config,
         {"preset": "nanodet", "P": -1}, EXIT_VALIDATION),
        ("config-P-text", with_config,
         {"preset": "nanodet", "P": "abc"}, EXIT_VALIDATION),
        ("config-emit-coasted-string", at_p0,
         {"preset": "nanodet", "emit_coasted": "false"}, EXIT_VALIDATION),
        ("config-rescore-int", at_p0,
         {"preset": "nanodet", "rescore": 0}, EXIT_VALIDATION),
        ("config-not-utf8", with_config, b"P: \xff\n", EXIT_PARSE),
        ("config-int-over-digit-limit", with_config, b"P: 1" + b"0" * 5000 + b"\n",
         EXIT_PARSE),
        ("config-nested-past-recursion-limit", with_config,
         b"preset: " + b"[" * 5000 + b"]" * 5000 + b"\n", EXIT_PARSE),
        ("config-a-number", with_config, b"0\n", EXIT_PARSE),
        ("scenario-a-number", synth, b"0\n", EXIT_PARSE),
        ("scenario-not-utf8", synth, b"seed: \xff\n", EXIT_PARSE),
    ]
    return [pytest.param(argv, doc, code, id=name) for name, argv, doc, code in cases]


class TestNoTraceback:
    """Bad arguments and files exit 2 or 3 with an `error:` line; nothing escapes main."""

    @pytest.mark.parametrize("argv, doc, code", _bad_input_cases())
    def test_bad_input_exits_cleanly(self, tmp_path, corpus, argv, doc, code):
        dets, gt = corpus
        if doc is not None:
            target = "scenario.yaml" if argv[0] == "synth" else "cfg.yaml"
            if isinstance(doc, bytes):
                (tmp_path / target).write_bytes(doc)
            else:
                _write_yaml(tmp_path / target, doc)
        argv = [a.format(tmp=tmp_path, dets=dets, gt=gt) for a in argv]
        rc, err = _run(argv)
        assert rc == code, err
        assert "error:" in err


class TestScenarioChecks:
    """A scenario that synth cannot generate exits 3, naming the file, before
    anything is written: ``--out`` is not even created."""

    @pytest.mark.parametrize("changes, extra, message", [
        pytest.param({"degradation": [{"resolution": [320, 320]}, {"resolution": [0, 192]}]},
                     [], "resolution must be positive", id="level-zero-resolution"),
        pytest.param({"native_resolution": [0, 320]}, [],
                     "native_resolution must be positive", id="native-zero"),
        pytest.param({"speed_range": [3, 1]}, [], "speed_range must be finite",
                     id="speed-reversed"),
        pytest.param({"speed_range": [-1, 2]}, [], "speed_range must be non-negative",
                     id="speed-negative"),
        pytest.param({"speed_range": [1, float("inf")]}, [], "speed_range must be finite",
                     id="speed-inf"),
        pytest.param({"speed_range": [float("nan"), 1]}, [], "speed_range must be finite",
                     id="speed-nan"),
        pytest.param({"size_range": [72, 28]}, [], "size_range must be finite",
                     id="size-reversed"),
        pytest.param({"size_range": [-4, 20]}, [], "size_range must be non-negative",
                     id="size-negative"),
        # most draws fit the 200-px side: unchecked, only some seeds would fail
        pytest.param({"native_resolution": [320, 200], "size_range": [28, 210],
                      "degradation": [{"resolution": [320, 200]}]}, [],
                     "exceeds the frame's smaller side 200", id="size-over-smaller-side"),
        pytest.param({"base_conf_range": [0.9, 0.7]}, [], "base_conf_range must be finite",
                     id="base-conf-reversed"),
        # zero-size boxes, which track rejects as zero-height detections
        pytest.param({"size_range": [0, 0]}, [], "size_range must not be (0, 0)",
                     id="size-zero"),
        pytest.param({"degradation": _level(conf_noise_std=math.nan)}, [],
                     "noise std must be finite", id="conf-noise-nan"),
        pytest.param({"degradation": [{"resolution": [320, 320],
                                       "bbox_jitter_std": math.inf}]},
                     [], "noise std must be finite", id="jitter-inf"),
        pytest.param({"degradation": [{"resolution": [320, 320]}]}, ["--P", "2"],
                     "needs at least two configured resolutions", id="P-with-one-level"),
        # each of these used to crash or write a corpus that eval rejects
        pytest.param({**_REPRO, "native_resolution": [10**400, 320]}, [],
                     "native_resolution has a side over 1e+100", id="native-past-float-range"),
        pytest.param({**_REPRO, "native_resolution": [10**150, 320]}, [],
                     "native_resolution has a side over 1e+100", id="native-past-bound"),
        pytest.param({**_REPRO, "degradation": [{"resolution": [320, 320]},
                                                {"resolution": [10**101, 192]}]}, [],
                     "resolution has a side over 1e+100", id="level-past-bound"),
        # 28-72 px boxes vanish at 1e100, and the [1, 1] boxes rescale past the bound
        pytest.param({**_REPRO, "native_resolution": [10**100, 10**100],
                      "degradation": [{"resolution": [10**100, 10**100]},
                                      {"resolution": [1, 1], "bbox_jitter_std": 0.5}]}, [],
                     "px floor (at native resolution)", id="boxes-vanish-at-the-bound"),
        pytest.param({**_REPRO, "degradation": _level(bbox_jitter_std=1.0e100)}, [],
                     "detections at (192, 192) frame 0: box", id="jitter-past-bound"),
        # flung out of the frame at 1e100 px a frame; every detection is dropped
        pytest.param({**_REPRO, "native_resolution": [10**20, 10**20],
                      "size_range": [1.0e19, 5.0e19], "speed_range": [1.0e100, 1.0e100],
                      "degradation": [{"resolution": [10**20, 10**20], "drop_prob": 1.0},
                                      {"resolution": [1, 1], "drop_prob": 1.0}]}, [],
                     "ground truth frame 2: box", id="ground-truth-past-bound"),
        # past the bound, draws overflowed to inf with numpy warnings before any box check
        pytest.param({**_REPRO, "degradation": _level(bbox_jitter_std=1.0e308)}, [],
                     "bbox_jitter_std is over 1e+100", id="jitter-past-float-range"),
        pytest.param({**_REPRO, "speed_range": [1.0e308, 1.0e308]}, [],
                     "speed_range has an end over 1e+100", id="speed-past-float-range"),
    ])
    def test_rejected_before_writing(self, tmp_path, changes, extra, message):
        scenario = _write_yaml(tmp_path / "scenario.yaml", _scenario_doc(**changes))
        out = tmp_path / "corpus"
        rc, err = _run(["synth", str(scenario), "--out", str(out), *extra])
        assert rc == EXIT_VALIDATION, err
        assert message in err
        if not extra:
            assert f"error: {scenario}: invalid scenario: " in err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_name_too_long_rejected_before_writing(self, tmp_path):
        scenario = _write_yaml(tmp_path / "scenario.yaml", _scenario_doc(**_REPRO))
        out = tmp_path / "corpus"
        rc, err = _run(["synth", str(scenario), "--out", str(out), "--P", str(10**300)])
        assert rc == EXIT_PARSE, err
        assert err.count("error:") == 1 and "File name too long" in err
        assert not out.exists()

    def test_file_system_without_a_name_limit(self, tmp_path, monkeypatch):
        # pathconf reports -1 where the file system sets no name limit
        monkeypatch.setattr(os, "pathconf", lambda path, name: -1)
        scenario = _write_yaml(tmp_path / "scenario.yaml", _scenario_doc(**_REPRO))
        out = tmp_path / "corpus"
        assert _run(["synth", str(scenario), "--out", str(out), "--P", "2"]) == (EXIT_OK, "")
        assert (out / "detections_P2.jsonl").exists()


@pytest.fixture(scope="module")
def p5_corpus(tmp_path_factory):
    """The interleaved P=5 detections and ground truth of a 4-object, 6-frame scenario."""
    root = tmp_path_factory.mktemp("p5")
    scenario = _write_yaml(root / "scenario.yaml", _scenario_doc())
    assert _run(["synth", str(scenario), "--out", str(root), "--P", "5"])[0] == EXIT_OK
    return root / "detections_P5.jsonl", root / "gt.jsonl"


class TestYamlTypes:
    """Each YAML value needs its field's exact type and each key must be known;
    anything else exits 3 with one `error:` line naming the file."""

    @pytest.mark.parametrize("doc, message", [
        pytest.param({"schedule": {"full_res": [320]}}, "schedule.full_res [320]",
                     id="full-res-short"),
        pytest.param({"schedule": {"full_res": {"a": 1}}}, "schedule.full_res {'a': 1}",
                     id="full-res-mapping"),
        pytest.param({"rescore_config": {"history_len": 2.5}}, "rescore_config.history_len",
                     id="history-len-float"),
        pytest.param({"P": 5.9}, "bad P 5.9", id="P-float"),
        pytest.param({"P": 5.0}, "bad P 5.0", id="P-integral-float"),
        pytest.param({"schedule": {"full_res": [320.7, 320]}}, "schedule.full_res[0] 320.7",
                     id="full-res-floats"),
        pytest.param({"tracker": {"tau_init": 1.5}}, "tracker.tau_init 1.5",
                     id="tau-init-float"),
        pytest.param({"rescore_config": {"history_len": True}}, "history_len True",
                     id="history-len-bool"),
        pytest.param({"tracker": {"high_threshold": True}}, "high_threshold True",
                     id="threshold-bool"),
        pytest.param({"schedule": [["P", 2]]}, "schedule must be a mapping",
                     id="schedule-pairs"),
        pytest.param({"emit_coasetd": True}, "unknown key emit_coasetd", id="top-level-typo"),
        pytest.param({"tracker": {"tau_iuo": 0.3}}, "unknown key tracker.tau_iuo",
                     id="section-typo"),
        pytest.param({"rescore_config": {"epsilon": 0.001}},
                     "unknown key rescore_config.epsilon", id="epsilon-removed"),
        pytest.param({"schedule": {"mac_full": math.inf}}, "need finite mac_full",
                     id="mac-full-inf"),
        pytest.param({"schedule": {"mac_low": math.nan}}, "need finite mac_full",
                     id="mac-low-nan"),
        pytest.param({"schedule": {"mac_full": 10**400}}, "mac_full 1000",
                     id="mac-full-over-float-range"),
        pytest.param({"schedule": {"mac_full": 1.0e-300, "mac_low": 1.0e10}},
                     "need a finite mac_low / mac_full: 10000000000.0 / 1e-300",
                     id="mac-ratio-over-float-range"),
        pytest.param({"preset": 5}, "bad preset 5: need one of effvit, nanodet, yolox",
                     id="preset-int"),
        pytest.param({"preset": True}, "bad preset True", id="preset-bool"),
        # the range checks each record's constructor runs on the merged values
        pytest.param({"tracker": {"tau_iou": 1.5}}, "tau_iou out of (0, 1)", id="tau-iou-range"),
        pytest.param({"tracker": {"low_threshold": 0.9}}, "must be below high_threshold 0.45",
                     id="low-above-high"),
        pytest.param({"tracker": {"tau_dead": 0}}, "tau_init and tau_dead must be >= 1",
                     id="tau-dead-zero"),
        pytest.param({"rescore_config": {"history_len": 0}}, "history_len must be >= 1",
                     id="history-len-zero"),
        pytest.param({"schedule": {"low_res": [640, 640]}}, "exceeds full_res",
                     id="low-res-over-full-res"),
        pytest.param({"schedule": {"full_res": [0, 0], "low_res": [0, 0]}},
                     "non-positive resolution: (0, 0)", id="zero-resolution"),
    ])
    def test_bad_config_value(self, tmp_path, p5_corpus, doc, message):
        self._assert_rejected(tmp_path, p5_corpus, doc, message, [])

    @pytest.mark.parametrize("doc, message, flags", [
        pytest.param({"P": "abc"}, "bad P 'abc'", ["--P", "5"], id="P-text"),
        pytest.param({"emit_coasted": "maybe"}, "bad emit_coasted 'maybe'",
                     ["--emit-coasted"], id="emit-coasted-text"),
        pytest.param({"rescore": 7}, "bad rescore 7", ["--no-rescore"], id="rescore-int"),
        pytest.param({"preset": "nosuch"}, "bad preset 'nosuch'", ["--preset", "nanodet"],
                     id="preset-unknown"),
    ])
    def test_flag_replaces_only_a_checked_value(self, tmp_path, p5_corpus, doc, message,
                                                flags):
        self._assert_rejected(tmp_path, p5_corpus, doc, message, flags)

    @staticmethod
    def _assert_rejected(tmp_path, p5_corpus, doc, message, flags):
        dets, _ = p5_corpus
        config = _write_yaml(tmp_path / "cfg.yaml", {"preset": "nanodet", **doc})
        rc, err = _run(["track", str(dets), "--config", str(config),
                        "--out", str(tmp_path / "t.jsonl"), *flags])
        assert rc == EXIT_VALIDATION, err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"error: {config}: bad config value: " in err
        assert message in err

    def test_missing_preset_names_the_file(self, tmp_path, p5_corpus):
        dets, _ = p5_corpus
        config = _write_yaml(tmp_path / "cfg.yaml", {"P": 5})
        out = ["--out", str(tmp_path / "t.jsonl")]
        rc, err = _run(["track", str(dets), "--config", str(config), *out])
        assert rc == EXIT_VALIDATION
        assert err.startswith(f"error: {config}: no preset given and no 'preset' key")
        # without a config file the message names none
        rc, err = _run(["track", str(dets), *out])
        assert rc == EXIT_VALIDATION
        assert err.startswith("error: no preset given and no 'preset' key")

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"native_resolution": [320]}, "native_resolution [320]",
                     id="native-short"),
        pytest.param({"degradation": [{"resolution": [320]}]},
                     "degradation[0].resolution [320]", id="level-resolution-short"),
        pytest.param({"speed_range": [1]}, "speed_range [1]", id="speed-short"),
        pytest.param({"n_classes": 2.5}, "bad n_classes 2.5", id="n-classes-float"),
        pytest.param({"seed": 7.9}, "bad seed 7.9", id="seed-float"),
        pytest.param({"seed": 7.0}, "bad seed 7.0", id="seed-integral-float"),
        pytest.param({"degradation": [{"resolution": {"a": 1}}]},
                     "degradation[0].resolution {'a': 1}", id="level-resolution-mapping"),
        pytest.param({"degradation": _level(drop_prob=True)}, "drop_prob True",
                     id="drop-prob-bool"),
        pytest.param({"n_clases": 3}, "unknown key n_clases", id="top-level-typo"),
        pytest.param({"degradation": _level(drop_prb=0.3)},
                     "unknown key degradation[1].drop_prb", id="level-typo"),
    ])
    def test_invalid_scenario(self, tmp_path, changes, message):
        scenario = _write_yaml(tmp_path / "scenario.yaml", _scenario_doc(**changes))
        out = tmp_path / "corpus"
        rc, err = _run(["synth", str(scenario), "--out", str(out)])
        assert rc == EXIT_VALIDATION, err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"error: {scenario}: invalid scenario: " in err
        assert message in err
        assert not out.exists()

    def test_missing_required_field_is_a_parse_error(self, tmp_path):
        doc = _scenario_doc(degradation=[{"drop_prob": 0.1}])
        scenario = _write_yaml(tmp_path / "scenario.yaml", doc)
        rc, err = _run(["synth", str(scenario), "--out", str(tmp_path / "corpus")])
        assert rc == EXIT_PARSE
        assert f"error: {scenario}: missing scenario field 'degradation[0].resolution'" in err


# The keys of every config and scenario level, so that a key drawn for one
# level is often one that belongs to another
_YAML_KEYS = sorted(
    {name for cls in (SynthScenario, DegradationLevel, TrackerConfig, RescoreConfig,
                      ResolutionSchedule) for name in cls._fields}
    | {"preset", "P", "emit_coasted", "rescore", "tracker", "schedule", "rescore_config"}
)
# every count drawn is 5 or below, so a scenario synth accepts generates in milliseconds
_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 5) | st.text("x5.", max_size=2)
    | st.sampled_from([0.0, 0.25, 0.9, 2.5, -1.0, 5.0, math.nan, math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_YAML_KEYS), inner, max_size=2),
    max_leaves=8,
)
# values that fit some field, so that many edited documents still run
_FITTING_VALUES = st.sampled_from(
    [0, 1, 2, 5, 0.0, 0.3, 0.5, 0.9, True, False, [320, 320], [192, 192], [1.0, 3.0], [0, 0]]
)


@st.composite
def _edited(draw, doc):
    """``doc`` after up to three edits, each at a mapping anywhere in it: a key
    (its own, another level's or a typo) set to any value or deleted, or a
    mapping value rewritten as a list of [key, value] pairs."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        nodes, stack = [], [doc]
        while stack:
            node = stack.pop()
            if type(node) is dict:
                nodes.append(node)
                stack.extend(node.values())
            elif type(node) is list:
                stack.extend(node)
        if not nodes:
            break
        node = draw(st.sampled_from(nodes))
        own = sorted(node, key=str) or _YAML_KEYS
        key = draw(st.sampled_from(own) | st.sampled_from(_YAML_KEYS)
                   | st.sampled_from([f"{k}s" for k in own]))
        edit = draw(st.sampled_from(["set", "delete", "pairs"]))
        if edit == "delete":
            node.pop(key, None)
        elif edit == "pairs" and type(node.get(key)) is dict:
            node[key] = [[k, v] for k, v in node[key].items()]
        else:
            node[key] = draw(_FITTING_VALUES | _YAML_VALUES)
    return doc


def _assert_documented_exit(rc, err):
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION), err
    assert "Traceback" not in err
    if rc != EXIT_OK:
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestYamlFuzz:
    """Config and scenario documents with values of every YAML shape in every
    slot: each run exits 0, 2 or 3, and every corpus synth writes is usable."""

    # every key set, so that edits land on each of them
    _CONFIG = {"preset": "nanodet", "P": 2, "emit_coasted": True, "rescore": True,
               "tracker": {"high_threshold": 0.5, "low_threshold": 0.3, "tau_iou": 0.3,
                           "tau_init": 2, "tau_dead": 5},
               "schedule": {"P": 2, "full_res": [320, 320], "low_res": [192, 192],
                            "mac_full": 500.0, "mac_low": 167},
               "rescore_config": {"history_len": 3}}
    _LEVEL = {"drop_prob": 0.1, "class_flip_prob": 0.1, "conf_noise_std": 0.1,
              "bbox_jitter_std": 0.5}
    _SCENARIO = _scenario_doc(
        frame_count=5, n_classes=3, speed_range=[1, 3.0], size_range=[28, 72],
        base_conf_range=[0.7, 0.9], direction_change_prob=0.1,
        degradation=[{"resolution": [320, 320], **_LEVEL}, {"resolution": [192, 192], **_LEVEL}])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_config(self, fuzz_files, data):
        doc = data.draw(_edited(self._CONFIG))
        with tempfile.TemporaryDirectory() as tmp:
            config = _write_yaml(Path(tmp) / "cfg.yaml", doc)
            rc, err = _run(["track", fuzz_files["dets"][2], "--config", str(config),
                            "--out", str(Path(tmp) / "t.jsonl")])
        _assert_documented_exit(rc, err)

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_scenario(self, data):
        doc = data.draw(_edited(self._SCENARIO))
        P = data.draw(st.sampled_from([[], ["--P", "1"]]))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            scenario = _write_yaml(root / "scenario.yaml", doc)
            rc, err = _run(["synth", str(scenario), "--out", str(root / "corpus"), *P])
            _assert_documented_exit(rc, err)
            if rc == EXIT_OK:
                self._check_corpus(root / "corpus")
            else:
                # the scenario is checked whole, before anything is written
                assert not (root / "corpus").exists()
                one_level = "needs at least two configured resolutions" in err
                assert err.startswith(f"error: {scenario}: ") or one_level, err

    @staticmethod
    def _check_corpus(corpus):
        """Each detection file scores against the ground truth, and each
        per-resolution file tracks at P=0 with that resolution as the schedule's."""
        gt = str(corpus / "gt.jsonl")
        for dets in sorted(corpus.glob("detections_*.jsonl")):
            assert _run(["eval", str(dets), gt]) == (EXIT_OK, "")
            if dets.stem[len("detections_"):].startswith("P"):
                continue
            res = [int(v) for v in dets.stem[len("detections_"):].split("x")]
            config = _write_yaml(corpus / "cfg.yaml", {
                "preset": "nanodet", "P": 0, "schedule": {"full_res": res, "low_res": res}})
            tracks = corpus / "tracks.jsonl"
            assert _run(["track", str(dets), "--config", str(config),
                         "--out", str(tracks)]) == (EXIT_OK, "")
            assert _run(["eval", str(tracks), gt, "--threshold", "fixed:0.0"]) == (EXIT_OK, "")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A tiny corpus plus good and bad inputs for every argument of every command."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = _write_yaml(root / "scenario.yaml", _scenario_doc())
    corpus = root / "corpus"
    assert _run(["synth", str(scenario), "--out", str(corpus), "--P", "2"])[0] == EXIT_OK
    tracks = root / "tracks.jsonl"
    assert _run(["track", str(corpus / "detections_P2.jsonl"), "--preset", "nanodet",
                 "--P", "2", "--out", str(tracks)])[0] == EXIT_OK
    (root / "garbage.jsonl").write_text("{not json\n")
    (root / "latin1.yaml").write_bytes(b"preset: \xe9\n")
    (root / "empty.jsonl").write_text("")
    (root / "out").mkdir()
    bad = [str(root), str(root / "missing.jsonl"), str(root / "garbage.jsonl"),
           str(root / "empty.jsonl"), str(root / "latin1.yaml")]
    configs = [
        _write_yaml(root / f"cfg{i}.yaml", doc)
        for i, doc in enumerate([
            {"preset": "yolox", "P": 2}, {"emit_coasted": "no"}, {"preset": "nanodet", "P": -3},
            {"preset": "nanodet", "schedule": {"mac_full": 0}}, ["preset"],
            {"preset": "effvit", "tracker": {"tau_iou": 2}},
        ])
    ]
    scenarios = [
        _write_yaml(root / f"scenario{i}.yaml", doc)
        for i, doc in enumerate([
            _scenario_doc(), _scenario_doc(native_resolution=[0, 320]),
            _scenario_doc(speed_range=[3, 1]), {"seed": 1},
        ])
    ]
    dets = [str(corpus / n) for n in ("detections_320x320.jsonl", "detections_192x192.jsonl",
                                      "detections_P2.jsonl")]
    return {
        "root": root,
        "dets": dets + bad,
        "preds": dets + [str(tracks)] + bad,
        "gt": [str(corpus / "gt.jsonl")] + dets[:1] + bad,
        "config": [str(c) for c in configs] + bad,
        "scenario": [str(c) for c in scenarios] + bad,
    }


_INTS = ["0", "1", "2", "5", "-1", "x", ""]


@st.composite
def _argv(draw, files):
    """One command line: a subcommand with valid and invalid values in every slot."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    maybe = lambda flag, values: [flag, pick(values)] if draw(st.booleans()) else []  # noqa: E731
    out = str(files["root"] / "out" / pick(["o.jsonl", ""])) if draw(st.booleans()) \
        else str(files["root"] / "no-such-dir" / "o.jsonl")
    config = (maybe("--config", files["config"]) + maybe("--preset", ["nanodet", "effvit"])
              + draw(st.sampled_from([[], ["--emit-coasted"], ["--no-rescore"]])))
    threshold = maybe("--threshold", ["f1max", "fixed:0.3", "fixed:2", "nonsense"])
    grid = maybe("--grid-step", ["0.01", "0.5", "0", "nan"])
    command = pick(["track", "eval", "sweep", "synth", "attn-check"])
    if command == "track":
        return ["track", pick(files["dets"]), *config, *maybe("--P", _INTS), "--out", out]
    if command == "eval":
        return ["eval", pick(files["preds"]), pick(files["gt"]), *threshold, *grid,
                *maybe("--out", [out])]
    if command == "sweep":
        return ["sweep", pick(files["dets"]), pick(files["dets"]), pick(files["gt"]), *config,
                *maybe("--P-values", ["0,2", "1", "-1", "", "a", "0,0", f"0,{10**399}"]),
                *threshold, *grid, *maybe("--out", [out])]
    if command == "synth":
        return ["synth", pick(files["scenario"]), "--out",
                str(files["root"] / pick(["synth-out", "garbage.jsonl"])),
                *maybe("--seed", _INTS), *maybe("--P", _INTS)]
    return ["attn-check", *maybe("--n-values", ["1", "4,8", "0", "-1", "a"]),
            *maybe("--d", ["1", "4", "0"]), *maybe("--trials", ["1", "2", "0"]),
            *maybe("--tol", ["1e-6", "0", "nan"]), *maybe("--seed", ["0", "-1"])]


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_command_line_exits_with_a_documented_code(self, fuzz_files, data):
        argv = data.draw(_argv(fuzz_files))
        rc, err = _run(argv)
        assert rc in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SUITE), err
        if rc in (EXIT_PARSE, EXIT_VALIDATION):
            assert "error:" in err


class TestAttnCheckCommand:
    def test_default_suite_passes(self, capsys):
        rc = main(["attn-check", "--trials", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "attention checks passed" in out
        assert "FAIL" not in out

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SUITE}) == 4
