import copy

import pytest

from mrtrack.core import BBox, Detection, FramePacket, RescoreConfig, TrackerConfig
from mrtrack.pipeline import (
    ResolutionSchedule,
    TrackerState,
    is_full_res,
    mean_mac,
    run_sequence,
    step,
)
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

    def test_zero_full_cost_is_an_error(self):
        s = ResolutionSchedule(1, (320, 320), (192, 192), 0.0, 0.0)
        with pytest.raises(ValueError):
            mean_mac(s)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ResolutionSchedule(-1, (320, 320), (192, 192), 1.0, 1.0)
        with pytest.raises(ValueError):
            ResolutionSchedule(0, (192, 192), (320, 320), 1.0, 1.0)


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
        assert state.removed_count == 1

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

    def test_deterministic_replay(self):
        frames = [
            _packet(t, [_det(10 + 3 * t, 10), _det(150, 150 + 2 * t, cls=1)])
            for t in range(15)
        ]
        _, out1 = run_sequence(copy.deepcopy(frames), TCFG, RCFG)
        _, out2 = run_sequence(copy.deepcopy(frames), TCFG, RCFG)
        assert out1 == out2
