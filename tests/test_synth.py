import numpy as np
import pytest

from mrtrack.core import rescale_bbox
from mrtrack.fileio import (
    load_detection_file,
    load_groundtruth_file,
    save_detection_file,
    save_groundtruth_file,
)
from mrtrack.synth import (
    DegradationLevel,
    SynthScenario,
    generate,
    profile_scenario,
)

FULL = (320, 320)
LOW = (192, 192)


def _clean_scenario(seed=3, frames=50, objects=3):
    return SynthScenario(
        seed=seed,
        n_objects=objects,
        frame_count=frames,
        native_resolution=FULL,
        degradation=(
            DegradationLevel(resolution=FULL),
            DegradationLevel(resolution=LOW),
        ),
    )


class TestValidation:
    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            SynthScenario(
                seed=1, n_objects=0, frame_count=10, native_resolution=FULL,
                degradation=(DegradationLevel(resolution=FULL),),
            )

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            SynthScenario(
                seed=1, n_objects=1, frame_count=0, native_resolution=FULL,
                degradation=(DegradationLevel(resolution=FULL),),
            )

    def test_non_monotone_degradation_rejected(self):
        with pytest.raises(ValueError):
            SynthScenario(
                seed=1, n_objects=1, frame_count=10, native_resolution=FULL,
                degradation=(
                    DegradationLevel(resolution=FULL, drop_prob=0.5),
                    DegradationLevel(resolution=LOW, drop_prob=0.1),
                ),
            )

    def test_unknown_resolution_query(self):
        _, emulate = generate(_clean_scenario())
        with pytest.raises(ValueError):
            emulate((64, 64))

    def test_levels_by_area_largest_first_stable_on_ties(self):
        levels = tuple(DegradationLevel(resolution=res)
                       for res in [(96, 96), (320, 320), (192, 48), (48, 192)])
        sc = SynthScenario(seed=1, n_objects=1, frame_count=1, native_resolution=FULL,
                           degradation=levels)
        assert [lv.resolution for lv in sc.by_area] == [
            (320, 320), (96, 96), (192, 48), (48, 192)]

    def test_probability_range(self):
        with pytest.raises(ValueError):
            DegradationLevel(resolution=FULL, drop_prob=1.5)


class TestGroundTruth:
    def test_boxes_stay_in_bounds(self):
        sc = _clean_scenario(seed=9, frames=400, objects=5)
        gt_frames, _ = generate(sc)
        for frame in gt_frames:
            for box, _ in frame.objects:
                assert box.x1 >= -1e-9 and box.y1 >= -1e-9
                assert box.x2 <= FULL[0] + 1e-9 and box.y2 <= FULL[1] + 1e-9

    def test_constant_velocity_between_bounces(self):
        sc = _clean_scenario(seed=4, frames=10, objects=1)
        gt_frames, _ = generate(sc)
        centers = [
            ((b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2)
            for b, _ in (f.objects[0] for f in gt_frames)
        ]
        d0 = (centers[1][0] - centers[0][0], centers[1][1] - centers[0][1])
        d1 = (centers[2][0] - centers[1][0], centers[2][1] - centers[1][1])
        assert d1 == pytest.approx(d0)


class TestEmulator:
    def test_noiseless_detections_equal_ground_truth(self):
        sc = _clean_scenario()
        gt_frames, emulate = generate(sc)
        for res in (FULL, LOW):
            packets = emulate(res)
            assert len(packets) == sc.frame_count
            for gt, packet in zip(gt_frames, packets):
                assert len(packet.detections) == len(gt.objects)
                for det, (gbox, gcls) in zip(packet.detections, gt.objects):
                    want = rescale_bbox(gbox, FULL, res)
                    assert det.class_id == gcls
                    for a, b in zip(det.bbox.as_tuple(), want.as_tuple()):
                        assert a == pytest.approx(b, abs=1e-9)

    def test_reproducible_bit_identical(self):
        sc = _clean_scenario(seed=12)
        _, emulate1 = generate(sc)
        _, emulate2 = generate(sc)
        assert emulate1(LOW) == emulate2(LOW)

    def test_different_seeds_differ(self):
        _, e1 = generate(_clean_scenario(seed=1))
        _, e2 = generate(_clean_scenario(seed=2))
        assert e1(FULL) != e2(FULL)

    def test_drop_rate_calibrated(self):
        sc = SynthScenario(
            seed=17, n_objects=1, frame_count=1000, native_resolution=FULL,
            degradation=(
                DegradationLevel(resolution=FULL),
                DegradationLevel(resolution=LOW, drop_prob=0.3),
            ),
        )
        _, emulate = generate(sc)
        kept = sum(len(p.detections) for p in emulate(LOW))
        assert (1000 - kept) / 1000 == pytest.approx(0.30, abs=0.02)

    def test_flip_rate_calibrated(self):
        sc = SynthScenario(
            seed=18, n_objects=1, frame_count=1000, native_resolution=FULL,
            degradation=(
                DegradationLevel(resolution=FULL),
                DegradationLevel(resolution=LOW, class_flip_prob=0.15),
            ),
        )
        gt_frames, emulate = generate(sc)
        true_cls = gt_frames[0].objects[0][1]
        flips = sum(
            1
            for p in emulate(LOW)
            for d in p.detections
            if d.class_id != true_cls
        )
        assert flips / 1000 == pytest.approx(0.15, abs=0.02)

    def test_confidence_noise_moves_confidences(self):
        sc = SynthScenario(
            seed=19, n_objects=1, frame_count=200, native_resolution=FULL,
            degradation=(
                DegradationLevel(resolution=FULL),
                DegradationLevel(resolution=LOW, conf_noise_std=0.1),
            ),
        )
        _, emulate = generate(sc)
        confs = [d.conf for p in emulate(LOW) for d in p.detections]
        assert np.std(confs) == pytest.approx(0.1, abs=0.03)
        assert all(0.0 <= c <= 1 - 1e-4 for c in confs)


class TestLoadableBoxes:
    """``generate`` keeps the loaders' box rule itself, with no CLI: the
    scenarios of the CLI's ground-truth-past-bound and jitter-past-bound rows."""

    def test_ground_truth_past_the_bound(self):
        # flung out of the frame at 1e100 px a frame; every detection is dropped
        native = (10**20, 10**20)
        sc = SynthScenario(
            seed=1, n_objects=2, frame_count=3, native_resolution=native,
            size_range=(1.0e19, 5.0e19), speed_range=(1.0e100, 1.0e100),
            degradation=(
                DegradationLevel(resolution=native, drop_prob=1.0),
                DegradationLevel(resolution=(1, 1), drop_prob=1.0),
            ),
        )
        with pytest.raises(ValueError, match="ground truth frame 2: box"):
            generate(sc)

    def test_detection_jitter_past_the_bound(self):
        sc = SynthScenario(
            seed=1, n_objects=2, frame_count=3, native_resolution=FULL,
            degradation=(
                DegradationLevel(resolution=FULL),
                DegradationLevel(resolution=LOW, bbox_jitter_std=1.0e100),
            ),
        )
        _, emulate = generate(sc)
        with pytest.raises(ValueError, match=r"detections at \(192, 192\) frame 0: box"):
            emulate(LOW)


class TestFileRoundTrip:
    """``generate`` builds the records the loaders build: boxes of plain
    floats, which a save and a load return unchanged."""

    @pytest.mark.parametrize(
        "profile, seed, frames",
        [("cnn-like", 5, 40), ("vit-like", 4242, 300)],
        ids=["determinism-corpus", "vit-like-4242"],
    )
    def test_load_of_save_equals_generated(self, tmp_path, profile, seed, frames):
        gt_frames, emulate = generate(
            profile_scenario(profile, seed=seed, n_objects=4, frame_count=frames)
        )
        gt = {"s": gt_frames}
        save_groundtruth_file(tmp_path / "gt.jsonl", gt)
        assert load_groundtruth_file(tmp_path / "gt.jsonl") == gt
        boxes = [box for g in gt_frames for box, _ in g.objects]
        for res in (FULL, LOW):
            dets = {"s": emulate(res)}
            path = tmp_path / f"detections_{res[0]}.jsonl"
            save_detection_file(path, dets)
            assert load_detection_file(path) == dets
            boxes += [d.bbox for p in dets["s"] for d in p.detections]
        assert all(type(v) is float for box in boxes for v in box)


class TestProfiles:
    def test_cnn_like_profile(self):
        sc = profile_scenario("cnn-like", seed=5)
        assert sc.level_for(LOW).drop_prob == pytest.approx(0.30)
        assert sc.level_for(FULL).drop_prob < sc.level_for(LOW).drop_prob

    def test_vit_like_profile(self):
        sc = profile_scenario("vit-like", seed=5)
        assert sc.level_for(LOW).class_flip_prob == pytest.approx(0.15)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_scenario("mystery")
