import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrtrack
from mrtrack import cli
from mrtrack.cli import EXIT_OK, EXIT_PARSE, EXIT_SUITE, EXIT_VALIDATION, build_parser, main
from mrtrack.core import BBox, Detection, FramePacket
from mrtrack.fileio import (
    load_track_file,
    save_detection_file,
    save_groundtruth_file,
    save_scenario,
)
from mrtrack.evaluation import GroundTruthFrame
from mrtrack.synth import profile_scenario

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


# prints which of the optional heavy modules a fresh interpreter has loaded
_LOADED = "print(sorted({'scipy', 'yaml'} & set(sys.modules)))"


class TestStartup:
    """Start-up cost: the CLI and its tracking commands import neither scipy nor yaml."""

    def test_cli_import_does_not_load_scipy(self):
        proc = _python("-c", f"import sys, mrtrack.cli; {_LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.fixture
    def synth_corpus(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(scenario, profile_scenario("cnn-like", seed=5, frame_count=20))
        out = tmp_path / "corpus"
        assert main(["synth", str(scenario), "--out", str(out), "--P", "2"]) == EXIT_OK
        return out

    def _run_main(self, argv):
        proc = _python("-c", f"import sys, mrtrack.cli; mrtrack.cli.main({argv!r}); {_LOADED}")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_track_does_not_load_scipy(self, synth_corpus, tmp_path):
        argv = ["track", str(synth_corpus / "detections_P2.jsonl"), "--preset", "nanodet",
                "--P", "2", "--out", str(tmp_path / "tracks.jsonl")]
        assert self._run_main(argv) == "[]"
        assert (tmp_path / "tracks.jsonl").stat().st_size > 0

    def test_sweep_does_not_load_scipy(self, synth_corpus, tmp_path):
        argv = ["sweep", str(synth_corpus / "detections_320x320.jsonl"),
                str(synth_corpus / "detections_192x192.jsonl"), str(synth_corpus / "gt.jsonl"),
                "--preset", "nanodet", "--P-values", "0,2", "--out", str(tmp_path / "rows.jsonl")]
        assert self._run_main(argv) == "[]"
        assert (tmp_path / "rows.jsonl").stat().st_size > 0


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
        main(["synth", str(scenario), "--out", str(corpus_dir)])
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
        capsys.readouterr()
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        base0 = next(r for r in rows if r["P"] == 0 and r["method"] == "baseline")

        report = tmp_path / "report.json"
        main(["eval", str(full), str(gt), "--out", str(report)])
        doc = json.loads(report.read_text())
        assert base0["map"] == pytest.approx(doc["map"], abs=1e-12)
        assert base0["f1"] == pytest.approx(doc["mean_f1"], abs=1e-12)

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
            ["eval", "p.jsonl", "g.jsonl", "--threshold", "fixed:nan"],
        ],
        ids=["track-P", "synth-P", "sweep-P-values", "grid-step-0", "grid-step-nan",
             "threshold-nan"],
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
        assert (args.threshold, args.grid_step) == (("fixed", 1.0), 0.5)
        args = build_parser().parse_args(["sweep", "f", "l", "g", "--P-values", "0,5"])
        assert args.P_values == [0, 5]


class TestAttnCheckCommand:
    def test_default_suite_passes(self, capsys):
        rc = main(["attn-check", "--trials", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "attention checks passed" in out
        assert "FAIL" not in out

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SUITE}) == 4
