#!/usr/bin/env python3
"""Ablation: frame-by-frame vs naive tracking vs tracking with rescoring.

Uses a transformer-like degradation scenario (15% class flips at low
resolution) where the naive tracker happily propagates misclassifications;
the confidence-fusion rules recover most of the lost precision. Prints a
three-row comparison at a fixed interleave factor.
"""

import argparse
import sys

from mrtrack.core import rescale_packet_to_native
from mrtrack.evaluation import evaluate, f1_max_threshold
from mrtrack.fileio import preset_config
from mrtrack.pipeline import interleave, run_sequence
from mrtrack.synth import generate, profile_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--preset", default="nanodet")
    parser.add_argument("--P", type=int, default=5)
    parser.add_argument("--frames", type=int, default=240)
    args = parser.parse_args()

    cfg = preset_config(args.preset, P=args.P)
    scenario = profile_scenario("vit-like", seed=args.seed, frame_count=args.frames)
    gt_frames, emulate = generate(scenario)
    gts = {("s", g.frame_index): list(g.objects) for g in gt_frames}
    full = [rescale_packet_to_native(p) for p in emulate(cfg.schedule.full_res)]
    low = [rescale_packet_to_native(p) for p in emulate(cfg.schedule.low_res)]
    stream = interleave(full, low, args.P)

    def dets_of(packets):
        return {("s", p.frame_index): list(p.detections) for p in packets}

    thr, _ = f1_max_threshold(dets_of(full), gts, 0.01)
    rows = [("frame-by-frame", evaluate(dets_of(stream), gts, thr))]

    for label, rescore in (("naive tracking", False), ("rescored tracking", True)):
        _, outputs = run_sequence(
            stream,
            cfg.tracker,
            cfg.rescore,
            rescore_enabled=rescore,
            emit_coasted=True,
        )
        tracked = {("s", t): outs for t, outs in outputs.items()}
        rows.append((label, evaluate(tracked, gts, 0.0)))

    print(f"scenario: vit-like flips, P={args.P}, baseline threshold {thr:.2f}")
    print(f"{'method':<18s} {'mAP':>7s} {'prec':>7s} {'recall':>7s} {'F1':>7s}")
    for label, report in rows:
        print(
            f"{label:<18s} {report.map:7.4f} {report.mean_precision:7.4f} "
            f"{report.mean_recall:7.4f} {report.mean_f1:7.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
