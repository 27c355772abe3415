import copy
import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrtrack import pipeline
from mrtrack.association import iou_matrix
from mrtrack.cli import EXIT_OK, main
from mrtrack.core import (
    MAX_COORDINATE,
    MIN_HEIGHT,
    BBox,
    Detection,
    FramePacket,
    RescoreConfig,
    TrackerConfig,
    rescale_packet_to_native,
)
from mrtrack.evaluation import GroundTruthFrame, evaluate, rank_corpus
from mrtrack.fileio import (
    load_detection_file,
    load_track_file,
    preset_config,
    save_groundtruth_file,
    save_scenario,
    save_track_file,
)
from mrtrack.kalman import kf_predict, state_corners
from mrtrack.pipeline import (
    ResolutionSchedule,
    TrackerState,
    interleave,
    is_full_res,
    mean_mac,
    run_sequence,
    step,
)
from mrtrack.synth import generate, profile_scenario
from mrtrack.tracks import TrackStatus

# association thresholds of the small-CNN preset
TCFG = TrackerConfig(high_threshold=0.45, low_threshold=0.30)
RCFG = RescoreConfig()
RES = (320, 320)


def _packet(t, dets):
    return FramePacket(t, RES, RES, tuple(dets))


def _det(x, y, size=40, cls=0, conf=0.9):
    return Detection(BBox(x, y, x + size, y + size), cls, conf)


class TestSchedule:
    def test_frame_zero_is_always_full_res(self):
        for P in range(8):
            assert is_full_res(0, P)

    def test_p_zero_all_full_res(self):
        assert all(is_full_res(t, 0) for t in range(50))

    def test_p_five_pattern(self):
        full = [t for t in range(20) if is_full_res(t, 5)]
        assert full == [0, 6, 12, 18]

    def test_exactly_one_full_res_per_window(self):
        for P in range(7):
            for start in range(40):
                window = [is_full_res(t, P) for t in range(start, start + P + 1)]
                assert sum(window) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_full_res(-1, 0)


class TestMeanMac:
    def test_p_zero_is_full_cost(self):
        s = ResolutionSchedule(0, (320, 320), (192, 192), 463.0, 167.0)
        mac = mean_mac(s)
        assert mac.mean == pytest.approx(463.0)
        assert mac.reduction == pytest.approx(0.0)

    def test_small_cnn_p5(self):
        s = ResolutionSchedule(5, (320, 320), (192, 192), 463.0, 167.0)
        mac = mean_mac(s)
        assert mac.mean == pytest.approx(1298 / 6, abs=0.05)
        assert 100 * mac.reduction == pytest.approx(53.3, abs=0.5)

    def test_anchor_free_cnn_p1(self):
        s = ResolutionSchedule(1, (320, 320), (192, 192), 316.0, 114.0)
        mac = mean_mac(s)
        assert mac.mean == pytest.approx(215.0)
        assert 100 * mac.reduction == pytest.approx(32.0, abs=0.5)

    def test_transformer_p1(self):
        s = ResolutionSchedule(1, (320, 320), (192, 192), 281.0, 101.0)
        mac = mean_mac(s)
        assert mac.mean == pytest.approx(191.0)
        assert 100 * mac.reduction == pytest.approx(32.0, abs=0.5)

    def test_p_past_float_range_costs_mac_low(self):
        s = ResolutionSchedule(10**400, (320, 320), (192, 192), 463.0, 167.0)
        mac = mean_mac(s)
        assert mac.mean == 167.0
        assert mac.reduction == 1 - 167.0 / 463.0

    def test_zero_full_cost_is_an_error(self):
        # the schedule itself rejects it, so mean_mac never sees one
        with pytest.raises(ValueError):
            ResolutionSchedule(1, (320, 320), (192, 192), 0.0, 0.0)

    @pytest.mark.parametrize("mac_full, mac_low", [(1, 10**400), (10**400, 1)],
                             ids=["mac-low", "mac-full"])
    def test_mac_figures_past_float_range_are_rejected(self, mac_full, mac_low):
        with pytest.raises(ValueError, match="need finite mac_full > 0 and mac_low >= 0"):
            ResolutionSchedule(1, (320, 320), (192, 192), mac_full, mac_low)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ResolutionSchedule(-1, (320, 320), (192, 192), 1.0, 1.0)
        with pytest.raises(ValueError):
            ResolutionSchedule(0, (192, 192), (320, 320), 1.0, 1.0)
        with pytest.raises(ValueError, match=r"non-positive resolution: \(320, -5\)"):
            ResolutionSchedule(1, (320, -5), (192, -9), 1.0, 0.5)


class TestStepLifecycle:
    def test_first_detection_creates_tentative_no_output(self):
        state = TrackerState()
        state, outs = step(state, _packet(0, [_det(10, 10)]), TCFG, RCFG)
        assert outs == []
        assert len(state.active_tracks) == 1
        assert state.active_tracks[0].status is TrackStatus.TENTATIVE

    def test_second_consecutive_match_confirms(self):
        state = TrackerState()
        state, _ = step(state, _packet(0, [_det(10, 10)]), TCFG, RCFG)
        state, outs = step(state, _packet(1, [_det(10, 10)]), TCFG, RCFG)
        assert len(outs) == 1
        assert state.active_tracks[0].status is TrackStatus.CONFIRMED

    def test_low_conf_detection_never_creates_track(self):
        state = TrackerState()
        state, outs = step(state, _packet(0, [_det(10, 10, conf=0.35)]), TCFG, RCFG)
        assert state.active_tracks == []
        assert outs == []

    def test_below_low_threshold_discarded(self):
        state = TrackerState()
        state, _ = step(state, _packet(0, [_det(10, 10)]), TCFG, RCFG)
        # conf 0.2 < low_threshold: cannot even extend the existing track
        state, _ = step(state, _packet(1, [_det(10, 10, conf=0.2)]), TCFG, RCFG)
        assert state.active_tracks == []  # tentative track died on the miss

    def test_second_pass_keeps_track_alive(self):
        state = TrackerState()
        for t in range(2):
            state, _ = step(state, _packet(t, [_det(10, 10)]), TCFG, RCFG)
        track_id = state.active_tracks[0].track_id
        # medium-confidence detection only matches in the second pass
        state, outs = step(state, _packet(2, [_det(11, 10, conf=0.35)]), TCFG, RCFG)
        assert [o.track_id for o in outs] == [track_id]
        assert state.active_tracks[0].frames_since_update == 0

    def test_confirmed_track_removed_after_tau_dead_misses(self):
        state = TrackerState()
        for t in range(2):
            state, _ = step(state, _packet(t, [_det(10, 10)]), TCFG, RCFG)
        for t in range(2, 6):
            state, _ = step(state, _packet(t, []), TCFG, RCFG)
            assert len(state.active_tracks) == 1
        state, _ = step(state, _packet(6, []), TCFG, RCFG)  # 5th miss
        assert state.active_tracks == []
        assert state.next_track_id - len(state.active_tracks) == 1

    def test_tentative_track_dies_on_single_miss(self):
        state = TrackerState()
        state, _ = step(state, _packet(0, [_det(10, 10)]), TCFG, RCFG)
        state, _ = step(state, _packet(1, []), TCFG, RCFG)
        assert state.active_tracks == []

    def test_out_of_order_frame_rejected(self):
        state = TrackerState()
        state, _ = step(state, _packet(0, [_det(10, 10)]), TCFG, RCFG)
        with pytest.raises(ValueError):
            step(state, _packet(5, []), TCFG, RCFG)
        with pytest.raises(ValueError):
            step(TrackerState(), _packet(3, []), TCFG, RCFG)

    def test_no_output_for_coasted_by_default(self):
        state = TrackerState()
        for t in range(2):
            state, _ = step(state, _packet(t, [_det(10, 10)]), TCFG, RCFG)
        state, outs = step(state, _packet(2, []), TCFG, RCFG)
        assert outs == []

    def test_emit_coasted_outputs_predicted_box(self):
        state = TrackerState()
        for t in range(2):
            state, _ = step(state, _packet(t, [_det(10 + 5 * t, 10)]), TCFG, RCFG)
        state, outs = step(state, _packet(2, []), TCFG, RCFG, emit_coasted=True)
        assert len(outs) == 1
        # the coasted box keeps moving at the estimated velocity
        assert outs[0].bbox.x1 > 10


    def test_coasting_through_zero_height_emits_clamped_boxes(self, tmp_path):
        # the height shrinks 16 px a frame, so coasting drives it below 0;
        # state_bbox clamps the emitted box to a zero-size point
        state, emitted = TrackerState(), {}
        boxes = [BBox(100, 100, 140, 100 + h) for h in (80, 64, 48, 32)]
        for t in range(4 + TCFG.tau_dead):
            dets = [Detection(boxes[t], 0, 0.9)] if t < len(boxes) else []
            state, emitted[t] = step(state, _packet(t, dets), TCFG, RCFG, emit_coasted=True)
            for track in state.active_tracks:
                assert all(math.isfinite(v) for v in track.kf_state.mean)
                assert t == 0 or track.kf_state.mean[7] < 0.0
        coasted = [emitted[t] for t in range(4, 4 + TCFG.tau_dead)]
        # emitted for each of the first tau_dead - 1 misses, removed at the last
        assert [len(outs) for outs in coasted] == [1] * (TCFG.tau_dead - 1) + [0]
        assert state.active_tracks == [] and state.next_track_id - len(state.active_tracks) == 1
        heights = [outs[0].bbox.height for outs in coasted[:-1]]
        assert heights[0] > 0.0 and heights[-2:] == [0.0, 0.0]
        for outs in coasted[:-1]:
            box = outs[0].bbox
            assert box.x1 <= box.x2 and box.y1 <= box.y2

        tracks, gt = tmp_path / "tracks.jsonl", tmp_path / "gt.jsonl"
        save_track_file(tracks, {"s": emitted})
        assert load_track_file(tracks) == {"s": emitted}
        save_groundtruth_file(gt, {"s": [
            GroundTruthFrame(t, ((boxes[min(t, 3)], 0),)) for t in emitted
        ]})
        with redirect_stdout(io.StringIO()):
            assert main(["eval", str(tracks), str(gt)]) == EXIT_OK


class TestStepTracking:
    def test_id_stability_on_linear_motion(self):
        state = TrackerState()
        ids = set()
        for t in range(30):
            state, outs = step(
                state, _packet(t, [_det(10 + 3 * t, 20 + 2 * t)]), TCFG, RCFG
            )
            ids.update(o.track_id for o in outs)
        assert len(ids) == 1

    def test_two_objects_keep_distinct_ids(self):
        state = TrackerState()
        per_frame = []
        for t in range(20):
            dets = [_det(10 + 3 * t, 10), _det(200 - 3 * t, 200)]
            state, outs = step(state, _packet(t, dets), TCFG, RCFG)
            per_frame.append(sorted(o.track_id for o in outs))
        assert per_frame[-1] == per_frame[2]
        assert len(per_frame[-1]) == 2

    def test_noiseless_boxes_reproduced_within_tolerance(self):
        state = TrackerState()
        worst = 0.0
        for t in range(20):
            box = BBox(10 + 4 * t, 20 + 2 * t, 70 + 4 * t, 100 + 2 * t)
            packet = _packet(t, [Detection(box, 0, 0.9)])
            state, outs = step(state, packet, TCFG, RCFG)
            if t >= 10:
                got = outs[0].bbox
                worst = max(
                    worst,
                    max(
                        abs(a - b)
                        for a, b in zip(got.as_tuple(), box.as_tuple())
                    ),
                )
        assert worst < 0.5

    def test_rescore_applied_on_match(self):
        state = TrackerState()
        state, _ = step(state, _packet(0, [_det(10, 10, cls=1, conf=0.6)]), TCFG, RCFG)
        state, _ = step(state, _packet(1, [_det(10, 10, cls=1, conf=0.5)]), TCFG, RCFG)
        track = state.active_tracks[0]
        assert track.conf_agg == pytest.approx(0.8, abs=1e-9)
        assert track.conf == pytest.approx(0.55)

    def test_naive_mode_adopts_latest_detection(self):
        state = TrackerState()
        state, _ = step(
            state, _packet(0, [_det(10, 10, cls=1, conf=0.6)]), TCFG, RCFG,
            rescore_enabled=False,
        )
        state, _ = step(
            state, _packet(1, [_det(10, 10, cls=2, conf=0.5)]), TCFG, RCFG,
            rescore_enabled=False,
        )
        track = state.active_tracks[0]
        assert track.class_id == 2
        assert track.conf == pytest.approx(0.5)

    def test_passes_score_the_predicted_corners(self, monkeypatch):
        """The first pass scores every track's predicted corners, the second
        only the rows of the tracks the first pass left."""
        scored = []

        def recording(dets, boxes):
            scored.append(list(boxes))
            return iou_matrix(dets, boxes)

        monkeypatch.setattr(pipeline, "iou_matrix", recording)
        state = TrackerState()
        for t in range(3):
            dets = [_det(10 + 3 * t, 10), _det(100 + 3 * t, 100), _det(200 + 3 * t, 200)]
            state, _ = step(state, _packet(t, dets), TCFG, RCFG)
        before = [track.kf_state for track in state.active_tracks]
        scored.clear()
        # track 1 gets a high-confidence detection, track 2 a medium-band one
        dets = [_det(109, 100), _det(209, 200, conf=0.35)]
        state, _ = step(state, _packet(3, dets), TCFG, RCFG)
        predicted = [state_corners(kf_predict(s)) for s in before]
        assert scored == [predicted, [predicted[0], predicted[2]]]
        assert [track.frames_since_update for track in state.active_tracks] == [1, 0, 0]

    def test_deterministic_replay(self):
        frames = [
            _packet(t, [_det(10 + 3 * t, 10), _det(150, 150 + 2 * t, cls=1)])
            for t in range(15)
        ]
        _, out1 = run_sequence(copy.deepcopy(frames), TCFG, RCFG)
        _, out2 = run_sequence(copy.deepcopy(frames), TCFG, RCFG)
        assert out1 == out2


class TestNumpyScalarBoxes:
    """Boxes of numpy scalars, as an API caller may build them, track and
    score as their plain-float originals do."""

    def test_same_outputs_as_the_float_copy(self):
        gt_frames, emulate = generate(
            profile_scenario("cnn-like", seed=11, n_objects=12, frame_count=60)
        )
        stream = [
            rescale_packet_to_native(p)
            for p in interleave(emulate((320, 320)), emulate((192, 192)), 5)
        ]
        numpy_stream = [
            FramePacket(p.frame_index, p.inference_resolution, p.native_resolution, tuple(
                Detection(BBox(*map(np.float64, d.bbox)), d.class_id, d.conf)
                for d in p.detections
            ))
            for p in stream
        ]
        gts = {("s", g.frame_index): list(g.objects) for g in gt_frames}
        numpy_gts = {
            key: [(BBox(*map(np.float64, box)), cls) for box, cls in objects]
            for key, objects in gts.items()
        }
        assert type(numpy_stream[0].detections[0].bbox.x1) is np.float64

        def report(outputs_by_frame, gts):
            keyed = {("s", t): list(outs) for t, outs in outputs_by_frame.items()}
            return evaluate(rank_corpus(keyed, gts))

        def detections(frames):
            return {p.frame_index: p.detections for p in frames}

        assert report(detections(numpy_stream), numpy_gts) == report(detections(stream), gts)
        cfg = preset_config("nanodet")
        for emit_coasted in (False, True):
            for rescore_enabled in (False, True):
                runs = [
                    run_sequence(frames, cfg.tracker, cfg.rescore,
                                 rescore_enabled=rescore_enabled, emit_coasted=emit_coasted)
                    for frames in (numpy_stream, stream)
                ]
                (state, got), (float_state, want) = runs
                assert got == want and sum(map(len, want.values())) > 0
                assert [t.kf_state for t in state.active_tracks] == [
                    t.kf_state for t in float_state.active_tracks
                ]
                assert report(got, numpy_gts) == report(want, gts)


# Each side log-uniform over the loader's range, [MIN_HEIGHT, MAX_COORDINATE]
# px. The center is within 1e6 times the smaller side of the origin: two
# accepted boxes outside that bound still never associate (6 tracks, no
# output), so they are documented limits, not drawn. One is a height of one
# float step at 1e100, [-1e100, -1e100, 1e100, -9.999999999999999e99], which
# cy +- h/2 rounds away in the predicted box; the other is [0, 0, 1e-250,
# 1e-100], whose area underflows to 0.
_SIDE = st.floats(-100, 100).map(lambda e: 10.0**e)


class TestSteadyBox:
    @settings(max_examples=100, deadline=None)
    @given(_SIDE, _SIDE, st.floats(-1, 1), st.floats(-1, 1), st.integers(1, 6))
    def test_one_track_emitted_from_confirmation_on(self, w, h, u, v, n):
        reach = 1e6 * min(w, h)
        cx, cy = u * reach, v * reach
        box = [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]
        assume(max(map(abs, box)) <= MAX_COORDINATE and box[3] - box[1] >= MIN_HEIGHT)
        tau_init = preset_config("nanodet").tracker.tau_init
        record = {"sequence_id": "s", "inference_resolution": list(RES),
                  "native_resolution": list(RES),
                  "detections": [{"bbox": box, "class": 0, "conf": 0.9}]}
        with tempfile.TemporaryDirectory() as tmp:
            dets, tracks = Path(tmp) / "dets.jsonl", Path(tmp) / "tracks.jsonl"
            dets.write_text("".join(json.dumps(dict(record, frame=t)) + "\n" for t in range(n)))
            out = io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(out):
                warnings.simplefilter("error", RuntimeWarning)
                rc = main(["track", str(dets), "--preset", "nanodet", "--P", "0",
                           "--out", str(tracks)])
            assert rc == EXIT_OK
            emitted = load_track_file(tracks)["s"]
        assert "tracks created: 1 " in out.getvalue()
        assert {t: [o.track_id for o in outs] for t, outs in emitted.items()} == {
            t: [0] if t >= tau_init - 1 else [] for t in range(n)
        }


def _ids_and_boxes(path):
    """A track file's text with each track's class and confidence cut out."""
    return re.sub(r', "class": \d+, "conf": [^}]+', "", path.read_text())


def _run_ok(*argv):
    with redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == EXIT_OK


class TestRescoreChangesOnlyClasses:
    """Rescoring decides a track's class and confidence and nothing else: with
    or without it the same tracks exist, with the same ids and boxes; and the
    naive tracker reports each emitted track as its frame's detection. The
    effvit preset's band [0.10, 0.55) sends the most detections through the
    second pass, where a class-dependent association would show; the pinned
    corpus is one where it does."""

    @settings(max_examples=25, deadline=None)
    @example("cnn-like", 37959, 14, 14, 4)
    @given(
        st.sampled_from(["cnn-like", "vit-like"]),
        st.integers(0, 2**16),
        st.integers(1, 20),
        st.integers(5, 60),
        st.integers(0, 5),
    )
    def test_naive_and_rescored_tracks_share_ids_and_boxes(
        self, profile, seed, n_objects, frames, P
    ):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_scenario(tmp / "sc.yaml", profile_scenario(
                profile, seed=seed, n_objects=n_objects, frame_count=frames))
            _run_ok("synth", tmp / "sc.yaml", "--out", tmp / "corpus", "--P", P)
            dets = tmp / "corpus" / f"detections_P{P}.jsonl"

            def track(*flags):
                out = tmp / f"tracks{''.join(flags)}.jsonl"
                _run_ok("track", dets, "--preset", "effvit", "--P", P, *flags, "--out", out)
                return out

            for coasted in ([], ["--emit-coasted"]):
                rescored = _ids_and_boxes(track(*coasted))
                assert _ids_and_boxes(track(*coasted, "--no-rescore")) == rescored

            loaded = {p.frame_index: {(d.class_id, d.conf) for d in p.detections}
                      for p in load_detection_file(dets)[f"synth-{seed}"]}
            naive = load_track_file(tmp / "tracks--no-rescore.jsonl")[f"synth-{seed}"]
        for t, outs in naive.items():
            assert {(o.class_id, o.conf) for o in outs} <= loaded[t]
