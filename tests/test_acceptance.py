"""Acceptance suite: one pass/fail line per criterion (run with -s to see all).

Covers the quantitative cost-model targets, the fusion-algebra properties,
assignment optimality against brute force, motion-filter convergence,
attention-kernel equivalence and scaling, the end-to-end synthetic trend
reproduction, evaluation correctness, and byte-level determinism of every
command.
"""

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from mrtrack.association import match
from mrtrack.cli import EXIT_OK, main, sweep_reports
from mrtrack.core import (
    DEFAULT_EPSILON,
    BBox,
    Detection,
    RescoreConfig,
    iou,
    rescale_packet_to_native,
)
from mrtrack.evaluation import average_precision, evaluate, f1_max_threshold
from mrtrack.fileio import preset_config, save_scenario
from mrtrack.kalman import kf_init, kf_predict, kf_update, state_bbox
from mrtrack.linattn import (
    OpCounter,
    attention_mac_ratio,
    factored_linear_attention,
    naive_relu_attention,
    random_attention_input,
)
from mrtrack.pipeline import ResolutionSchedule, interleave, mean_mac, run_sequence
from mrtrack.rescore import rescore_update
from mrtrack.synth import generate, profile_scenario
from mrtrack.tracks import Track

from oracles import brute_force_assignment_value, f1_sweep_oracle, rescore_oracle_step

FULL = (320, 320)
LOW = (192, 192)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


class TestCostModel:
    def test_small_cnn_reduction(self):
        start = time.perf_counter()
        s = ResolutionSchedule(5, FULL, LOW, 463.0, 167.0)
        red = 100 * mean_mac(s).reduction
        elapsed = time.perf_counter() - start
        _criterion(
            "cost model: small-CNN preset P=5 reduction 53.3 +/- 0.5 pp",
            abs(red - 53.3) <= 0.5 and elapsed < 1.0,
            f"{red:.2f}%",
        )

    def test_p1_reductions(self):
        start = time.perf_counter()
        red_y = 100 * mean_mac(ResolutionSchedule(1, FULL, LOW, 316.0, 114.0)).reduction
        red_e = 100 * mean_mac(ResolutionSchedule(1, FULL, LOW, 281.0, 101.0)).reduction
        elapsed = time.perf_counter() - start
        _criterion(
            "cost model: anchor-free CNN and transformer presets P=1 "
            "reduction 32.0 +/- 0.5 pp",
            abs(red_y - 32.0) <= 0.5 and abs(red_e - 32.0) <= 0.5 and elapsed < 1.0,
            f"{red_y:.2f}% / {red_e:.2f}%",
        )

    def test_attention_patch_ratio(self):
        start = time.perf_counter()
        ratio = attention_mac_ratio(FULL, LOW, 8)
        elapsed = time.perf_counter() - start
        _criterion(
            "cost model: attention cost ratio 320->192 is 2.78 +/- 0.05",
            abs(ratio - 2.78) <= 0.05 and elapsed < 1.0,
            f"{ratio:.4f}",
        )


class TestRescoreAlgebra:
    def test_property_suite(self):
        cfg = RescoreConfig()
        eps = DEFAULT_EPSILON
        rng = np.random.default_rng(42)
        start = time.perf_counter()

        def mk_track(cls, agg, hist):
            return Track(0, None, cls, sum(hist) / len(hist), agg, list(hist))

        def det(cls, conf):
            return Detection(BBox(0, 0, 10, 10), cls, conf)

        # order independence of same-class folding
        order_ok = True
        for _ in range(300):
            seq = rng.random(int(rng.integers(2, 7))) * (1 - eps)
            start_agg = float(rng.random() * (1 - eps))

            def fold(values):
                agg = start_agg
                for c in values:
                    agg = min(1 - (1 - agg) * (1 - c), 1 - eps)
                return agg

            base = fold(seq)
            perm = rng.permutation(seq)
            order_ok &= abs(fold(perm) - base) <= 1e-12

        # monotonicity, containment, switch-iff, oracle equivalence
        mono_ok = contain_ok = switch_ok = oracle_ok = True
        n_sequences = 10_000
        for _ in range(n_sequences):
            cls = int(rng.integers(0, 4))
            agg = float(rng.random() * (1 - eps))
            track = mk_track(cls, agg, [agg])
            o_cls, o_agg, o_hist = cls, agg, [agg]
            for _ in range(int(rng.integers(1, 9))):
                d_cls = int(rng.integers(0, 4))
                d_conf = float(rng.random() * (1 - eps))
                prev_agg = track.conf_agg
                prev_cls = track.class_id
                decision = rescore_update(track, det(d_cls, d_conf), cfg)
                if d_cls == prev_cls:
                    mono_ok &= decision.new_conf_agg >= prev_agg - 1e-15
                else:
                    reduced = max(1 - (1 - prev_agg) / (1 - d_conf), 0.0)
                    expect = prev_agg < d_conf or reduced < d_conf
                    switch_ok &= decision.class_switched == expect
                contain_ok &= 0.0 <= decision.new_conf_agg <= 1 - eps
                track.apply_rescore(decision)
                o_cls, o_conf, o_agg, o_hist, _sw = rescore_oracle_step(
                    o_cls, o_agg, o_hist, d_cls, d_conf, eps, cfg.history_len
                )
                oracle_ok &= (
                    track.class_id == o_cls
                    and abs(track.conf - o_conf) <= 1e-15
                    and abs(track.conf_agg - o_agg) <= 1e-15
                )
        elapsed = time.perf_counter() - start
        _criterion(
            "rescore algebra: order independence, monotonicity, containment, "
            "switch rule, interpreter oracle over 10,000 sequences in <10 s",
            order_ok and mono_ok and contain_ok and switch_ok and oracle_ok
            and elapsed < 10.0,
            f"{elapsed:.2f} s",
        )


class TestAssociationOptimality:
    def test_hungarian_equals_brute_force(self):
        rng = np.random.default_rng(1234)
        start = time.perf_counter()
        ok = True
        for k in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            matrix = rng.random((n, m))
            if k % 3 == 0:
                matrix = np.round(matrix * 20) / 20  # force ties
            result = match(matrix, 0.3)
            got = sum(matrix[i, j] for i, j in result.matches)
            want = brute_force_assignment_value(matrix.tolist(), 0.3)
            ok &= abs(got - want) <= 1e-12
            ok &= all(matrix[i, j] >= 0.3 for i, j in result.matches)
        elapsed = time.perf_counter() - start
        _criterion(
            "association: optimal total IoU equals brute force on 1,000 "
            "gated instances up to 6x6 in <10 s",
            ok and elapsed < 10.0,
            f"{elapsed:.2f} s",
        )


class TestKalmanConvergence:
    def test_constant_velocity_prediction(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            vx, vy = rng.uniform(-12, 12, 2)
            w, h = rng.uniform(10, 120, 2)
            cx, cy = rng.uniform(100, 400, 2)

            def box(t):
                x, y = cx + vx * t, cy + vy * t
                return BBox(x - w / 2, y - h / 2, x + w / 2, y + h / 2)

            s = kf_init(box(0))
            err_at_10 = None
            for t in range(1, 11):
                s = kf_predict(s)
                b = state_bbox(s)
                pcx, pcy = (b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2
                err_at_10 = max(abs(pcx - (cx + vx * t)), abs(pcy - (cy + vy * t)))
                s = kf_update(s, box(t))
            worst = max(worst, err_at_10)
        elapsed = time.perf_counter() - start
        _criterion(
            "kalman: one-step prediction error < 0.5 px by frame 10 on 100 "
            "noiseless constant-velocity runs in <5 s",
            worst < 0.5 and elapsed < 5.0,
            f"worst {worst:.4f} px, {elapsed:.2f} s",
        )


class TestLinearAttention:
    def test_equivalence_and_scaling(self):
        rng = np.random.default_rng(77)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            inp = random_attention_input(rng, n, 16, 16)
            a = naive_relu_attention(inp)
            b = factored_linear_attention(inp)
            worst = max(
                worst, float(np.max(np.abs(a - b)) / (np.max(np.abs(a)) + 1e-300))
            )

        ratios = {}
        for fn, name in (
            (factored_linear_attention, "factored"),
            (naive_relu_attention, "naive"),
        ):
            counts = {}
            for n in (32, 64):
                counter = OpCounter()
                fn(random_attention_input(rng, n, 16, 16), counter)
                counts[n] = counter.multiplies
            ratios[name] = counts[64] / counts[32]
        elapsed = time.perf_counter() - start
        _criterion(
            "linear attention: factored == naive within 1e-6 over 1,000 "
            "instances; multiply ratios 2x/4x in <30 s",
            worst <= 1e-6
            and 1.9 <= ratios["factored"] <= 2.1
            and 3.8 <= ratios["naive"] <= 4.2
            and elapsed < 30.0,
            f"err {worst:.2e}, ratios {ratios['factored']:.2f}/{ratios['naive']:.2f}, "
            f"{elapsed:.2f} s",
        )


def _native(packets):
    return [rescale_packet_to_native(p) for p in packets]


@lru_cache(maxsize=None)
def _standard_corpus():
    """Fixed-seed end-to-end corpus: cnn-like (30% low-res drops), P sweep."""
    cfg = replace(preset_config("nanodet"), emit_coasted=True)
    sc = profile_scenario("cnn-like", seed=7, frame_count=240)
    gt_frames, emulate = generate(sc)
    full, low = {"s": _native(emulate(FULL))}, {"s": _native(emulate(LOW))}
    # the baseline threshold is the F1-max one of the full-resolution detections
    _, reports = sweep_reports(full, low, {"s": gt_frames}, cfg, (0, 5))
    return dict(zip((0, 5), reports))


class TestEndToEndTrends:
    def test_recall_gap_at_p5(self):
        start = time.perf_counter()
        results = _standard_corpus()
        baseline, tracked = results[5]
        gap = 100 * (tracked.mean_recall - baseline.mean_recall)
        elapsed = time.perf_counter() - start
        _criterion(
            "end to end: tracked recall exceeds frame-by-frame recall by "
            ">= 10 pp at P=5 (30% low-res drops)",
            gap >= 10.0 and elapsed < 120.0,
            f"+{gap:.1f} pp in {elapsed:.1f} s",
        )

    def test_rescore_halves_class_errors(self):
        start = time.perf_counter()
        cfg = preset_config("nanodet")
        sc = profile_scenario("vit-like", seed=11, frame_count=240)
        gt_frames, emulate = generate(sc)
        stream = interleave(_native(emulate(FULL)), _native(emulate(LOW)), 5)
        gt_by_frame = {g.frame_index: g.objects for g in gt_frames}

        def class_error_rate(outputs):
            total = errors = 0
            for t, outs in outputs.items():
                for o in outs:
                    best, best_cls = 0.0, None
                    for gbox, gcls in gt_by_frame[t]:
                        v = iou(o.bbox, gbox)
                        if v > best:
                            best, best_cls = v, gcls
                    if best > 0.5:
                        total += 1
                        errors += o.class_id != best_cls
            return errors / total

        rates = {}
        for enabled in (True, False):
            _, outs = run_sequence(
                stream,
                cfg.tracker,
                cfg.rescore,
                rescore_enabled=enabled,
                emit_coasted=True,
            )
            rates[enabled] = class_error_rate(outs)
        reduction = 100 * (1 - rates[True] / rates[False])
        elapsed = time.perf_counter() - start
        _criterion(
            "end to end: confidence fusion cuts confirmed-track class errors "
            "by >= 50% vs naive mode (15% injected flips)",
            reduction >= 50.0 and elapsed < 120.0,
            f"{100 * rates[False]:.1f}% -> {100 * rates[True]:.1f}% "
            f"(-{reduction:.0f}%) in {elapsed:.1f} s",
        )

    def test_map_degradation_shape(self):
        start = time.perf_counter()
        results = _standard_corpus()
        base0, track0 = results[0]
        base5, track5 = results[5]
        tracked_deg = 100 * (track0.map - track5.map)
        baseline_deg = 100 * (base0.map - base5.map)
        elapsed = time.perf_counter() - start
        _criterion(
            "end to end: tracked mAP degrades < 3 pp from P=0 to P=5 while "
            "the frame-by-frame baseline degrades > 10 pp",
            tracked_deg < 3.0 and baseline_deg > 10.0 and elapsed < 120.0,
            f"tracked -{tracked_deg:.2f} pp, baseline -{baseline_deg:.1f} pp",
        )


class TestEvaluationCorrectness:
    def test_ap_hand_cases_and_f1_sweep(self):
        start = time.perf_counter()
        ap_ok = (
            average_precision([True, False], 1) == 1.0
            and average_precision([False, True], 1) == 0.5
            and average_precision([True, True], 2) == 1.0
        )

        rng = np.random.default_rng(55)
        dets, gts = {}, {}
        for t in range(30):
            objs = [(BBox(20 + 40 * i, 40, 40 + 40 * i, 60), i % 2) for i in range(3)]
            frame = [
                Detection(BBox(20 + 40 * i, 40, 40 + 40 * i, 60), i % 2,
                          float(rng.uniform(0.6, 0.95)))
                for i in range(3)
            ]
            for _ in range(int(rng.integers(0, 3))):
                frame.append(
                    Detection(
                        BBox(200 + rng.uniform(0, 80), 150, 300, 180),
                        int(rng.integers(0, 2)),
                        float(rng.uniform(0.05, 0.55)),
                    )
                )
            dets[("p", t)] = frame
            gts[("p", t)] = objs
        thr = f1_max_threshold(dets, gts, grid_step=0.01)
        report = evaluate(dets, gts, thr)
        grid = [round(k * 0.01, 12) for k in range(100)] + [1 - 1e-4]
        want_thr, want_f1 = f1_sweep_oracle(dets, gts, grid, evaluate)
        sweep_ok = abs(thr - want_thr) <= 1e-12 and abs(report.mean_f1 - want_f1) <= 1e-12
        elapsed = time.perf_counter() - start
        _criterion(
            "evaluation: AP hand cases exact and F1-max threshold matches "
            "brute-force sweep in <10 s",
            ap_ok and sweep_ok and elapsed < 10.0,
            f"threshold {thr:.2f}, {elapsed:.2f} s",
        )


class TestDeterminism:
    def test_commands_are_byte_identical_on_rerun(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        save_scenario(
            scenario, profile_scenario("cnn-like", seed=5, frame_count=40)
        )

        artifacts = {}
        for tag in ("a", "b"):
            root = tmp_path / tag
            root.mkdir()

            def run(argv):
                rc = main(argv)
                captured = capsys.readouterr()
                assert rc == EXIT_OK, captured.err
                # the destination path is the one legitimately varying input
                return captured.out.replace(str(root), "<out>")
            corpus = root / "corpus"
            stdout = []
            stdout.append(run(["synth", str(scenario), "--out", str(corpus), "--P", "5"]))
            full = corpus / "detections_320x320.jsonl"
            low = corpus / "detections_192x192.jsonl"
            inter = corpus / "detections_P5.jsonl"
            gt = corpus / "gt.jsonl"
            tracks = root / "tracks.jsonl"
            stdout.append(
                run(["track", str(inter), "--preset", "nanodet", "--P", "5",
                     "--emit-coasted", "--out", str(tracks)])
            )
            report = root / "report.json"
            stdout.append(
                run(["eval", str(tracks), str(gt), "--threshold", "fixed:0.0",
                     "--out", str(report)])
            )
            rows = root / "rows.jsonl"
            stdout.append(
                run(["sweep", str(full), str(low), str(gt), "--preset", "nanodet",
                     "--P-values", "0,5", "--emit-coasted", "--out", str(rows)])
            )
            stdout.append(run(["attn-check", "--trials", "5"]))
            artifacts[tag] = {
                "stdout": "\n".join(stdout),
                "gt": gt.read_bytes(),
                "full": full.read_bytes(),
                "low": low.read_bytes(),
                "inter": inter.read_bytes(),
                "tracks": tracks.read_bytes(),
                "report": report.read_bytes(),
                "rows": rows.read_bytes(),
            }
        ok = artifacts["a"] == artifacts["b"]
        _criterion(
            "determinism: synth/track/eval/sweep/attn-check reruns are "
            "byte-identical",
            ok,
        )
