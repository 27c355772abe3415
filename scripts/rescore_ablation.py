#!/usr/bin/env python3
"""Ablation: frame-by-frame vs naive tracking vs tracking with rescoring.

Uses a transformer-like degradation scenario (15% class flips at low
resolution) where the naive tracker happily propagates misclassifications;
the confidence-fusion rules recover most of the lost precision. Prints a
three-row comparison at a fixed interleave factor.
"""

import argparse
import sys

from mrtrack.cli import sweep_reports, tracked_reports
from mrtrack.core import rescale_packet_to_native, replace
from mrtrack.fileio import load_run_config
from mrtrack.synth import generate, profile_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--preset", default="nanodet")
    parser.add_argument("--P", type=int, default=5)
    parser.add_argument("--frames", type=int, default=240)
    args = parser.parse_args()

    cfg = load_run_config(preset=args.preset, P=args.P)
    scenario = profile_scenario("vit-like", seed=args.seed, frame_count=args.frames)
    gt_frames, emulate = generate(scenario)
    full, low = (
        {"s": [rescale_packet_to_native(p) for p in emulate(res)]}
        for res in (cfg.schedule.full_res, cfg.schedule.low_res)
    )

    gt = {"s": gt_frames}
    naive_cfg, rescored_cfg = (
        replace(cfg, rescore_enabled=rescore, emit_coasted=True) for rescore in (False, True)
    )
    thr, [(baseline, naive)] = sweep_reports(full, low, gt, naive_cfg, [args.P])
    [rescored] = tracked_reports(full, low, gt, rescored_cfg, [args.P])
    rows = [
        ("frame-by-frame", baseline),
        ("naive tracking", naive),
        ("rescored tracking", rescored),
    ]

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
