#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, then sweep the interleave factor.

Generates a CNN-like degradation scenario (30% detection drops at low
resolution), materializes ground truth and per-resolution detection files,
and compares frame-by-frame baseline metrics against the tracker across
P = 0..5. Tracker rows emit coasted boxes, which is what keeps recall flat
while the baseline collapses.
"""

import argparse
import sys
from pathlib import Path

from mrtrack.cli import _parse_nonnegative, _parse_positive, main as mrtrack_main
from mrtrack.fileio import PRESET_NAMES, save_scenario
from mrtrack.synth import profile_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep_demo", help="working directory")
    parser.add_argument("--seed", type=_parse_nonnegative, default=7)
    parser.add_argument("--preset", choices=PRESET_NAMES, default="nanodet")
    parser.add_argument("--frames", type=_parse_positive, default=240)
    args = parser.parse_args()

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path, or a file on the way to it
        parser.error(f"argument --out: cannot create directory {out}: {exc.strerror}")
    scenario_path = out / "scenario.yaml"
    save_scenario(
        scenario_path,
        profile_scenario("cnn-like", seed=args.seed, frame_count=args.frames),
    )

    rc = mrtrack_main(["synth", str(scenario_path), "--out", str(out / "corpus")])
    if rc != 0:
        return rc
    corpus = out / "corpus"
    return mrtrack_main(
        [
            "sweep",
            str(corpus / "detections_320x320.jsonl"),
            str(corpus / "detections_192x192.jsonl"),
            str(corpus / "gt.jsonl"),
            "--preset",
            args.preset,
            "--emit-coasted",
            "--out",
            str(out / "sweep.jsonl"),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
