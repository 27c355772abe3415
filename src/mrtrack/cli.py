"""Command-line surface: track, eval, sweep, synth, attn-check."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import Sequence

from .core import FramePacket, replace, rescale_packet_to_native
from .evaluation import (
    GRID_STEP_RANGE, GroundTruthFrame, MetricsReport, Ranked, evaluate, f1_max_threshold,
    rank_corpus,
)
from .fileio import (
    FileFormatError,
    PRESET_NAMES,
    RunConfig,
    ValidationError,
    is_track_file,
    load_detection_file,
    load_groundtruth_file,
    load_run_config,
    load_scenario,
    load_track_file,
    render_report,
    report_to_dict,
    save_detection_file,
    save_groundtruth_file,
    save_track_file,
)
from .pipeline import run_sequence
from .schedule import interleave, is_full_res, mean_mac

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SUITE = 4


def _ranged(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then a usage error unless ``ok``."""

    def parse(spec: str):
        try:
            if ok(value := convert(spec)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {spec!r}")

    return parse


_parse_nonnegative = _ranged(int, lambda n: n >= 0, "an int >= 0")
_parse_positive = _ranged(int, lambda n: n > 0, "an int > 0")
_parse_grid_step = _ranged(
    float, lambda step: GRID_STEP_RANGE[0] <= step <= GRID_STEP_RANGE[1],
    "a step in [{:g}, {:g}]".format(*GRID_STEP_RANGE),
)
_parse_fixed = _ranged(float, lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_parse_tol = _ranged(float, lambda tol: 0.0 <= tol < float("inf"), "a finite value >= 0")


def _parse_threshold(spec: str) -> float | None:
    """A fixed threshold, or None for the F1-max one."""
    if spec == "f1max":
        return None
    if spec.startswith("fixed:"):
        return _parse_fixed(spec.split(":", 1)[1])
    raise argparse.ArgumentTypeError(
        f"expected 'f1max' or 'fixed:<value>', got {spec!r}"
    )


def _parse_int_list(spec: str, item) -> list[int]:
    """Comma-separated values, each parsed by ``item``, a ``_ranged`` type."""
    values = [item(v) for v in spec.split(",") if v.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _load_native(path: str) -> dict[str, list[FramePacket]]:
    """Load a detection file in native coordinates: each packet rescaled once."""
    return {
        seq: [rescale_packet_to_native(p) for p in packets]
        for seq, packets in load_detection_file(path).items()
    }


def _check_streams(*files: dict[str, list[FramePacket]]) -> None:
    """The files cover the same sequences with equal frame counts; each sequence
    runs contiguously from frame 0 at one native resolution, the same in every file."""
    seqs = sorted(files[0])
    if any(sorted(f) != seqs for f in files):
        raise ValidationError("full/low detection files cover different sequences")
    for seq in seqs:
        counts = [len(f[seq]) for f in files]
        if min(counts) != max(counts):
            raise ValidationError(
                f"full/low detection files disagree: {' vs '.join(map(str, counts))} frames"
            )
    for seq in seqs:
        native = files[0][seq][0].native_resolution
        for packets in (f[seq] for f in files):
            for i, packet in enumerate(packets):
                if packet.frame_index != i:
                    raise ValidationError(
                        f"sequence {seq!r}: frame {packet.frame_index} out of order "
                        f"(expected {i}; frames must be contiguous from 0)"
                    )
                if packet.native_resolution != native:
                    raise ValidationError(
                        f"sequence {seq!r} frame {i}: native resolution "
                        f"{packet.native_resolution}, not the sequence's {native}"
                    )


def _validate_stream(seq: str, packets: list[FramePacket], cfg: RunConfig) -> None:
    """Check that each frame's inference resolution is the one the schedule gives it."""
    sched = cfg.schedule
    for packet in packets:
        full = is_full_res(packet.frame_index, sched.P)
        expected = sched.full_res if full else sched.low_res
        if packet.inference_resolution != expected:
            kind = "full-res" if full else "low-res"
            raise ValidationError(
                f"sequence {seq!r} frame {packet.frame_index}: schedule P={sched.P} "
                f"expects {kind} {expected}, file has {packet.inference_resolution}"
            )


def _track_sequences(
    sequences: dict[str, list[FramePacket]], cfg: RunConfig
) -> tuple[dict[str, dict[int, list]], int, int]:
    """Run the tracker per sequence; returns (outputs, created, removed)."""
    results: dict[str, dict[int, list]] = {}
    created = removed = 0
    for seq in sorted(sequences):
        _validate_stream(seq, sequences[seq], cfg)
        state, outputs = run_sequence(
            sequences[seq],
            cfg.tracker,
            cfg.rescore,
            rescore_enabled=cfg.rescore_enabled,
            emit_coasted=cfg.emit_coasted,
        )
        results[seq] = outputs
        created += state.next_track_id
        removed += state.next_track_id - len(state.active_tracks)
    return results, created, removed


def _dets_for_eval(sequences: dict[str, list[FramePacket]]) -> dict:
    return {
        (seq, p.frame_index): list(p.detections)
        for seq, packets in sequences.items()
        for p in packets
    }


def _tracks_for_eval(track_outputs: dict[str, dict[int, list]]) -> dict:
    # evaluate reads only bbox, class_id and conf, which a TrackOutput has
    return {
        (seq, frame): outs
        for seq, frames in track_outputs.items()
        for frame, outs in frames.items()
    }


def _gt_for_eval(gt_sequences: dict) -> dict:
    return {
        (seq, g.frame_index): list(g.objects)
        for seq, frames in gt_sequences.items()
        for g in frames
    }


def _check_sequences_covered(pred_ids, gt_ids) -> None:
    missing = sorted(set(pred_ids) - set(gt_ids))
    if missing:
        raise ValidationError(
            f"sequences missing from ground truth: {', '.join(map(repr, missing))}"
        )


def cmd_track(args) -> int:
    cfg = load_run_config(
        args.config,
        preset=args.preset,
        P=args.P,
        emit_coasted=args.emit_coasted,
        rescore_enabled=args.rescore_enabled,
    )
    sequences = _load_native(args.detections)
    _check_streams(sequences)
    results, created, removed = _track_sequences(sequences, cfg)
    save_track_file(args.out, results)

    frames = sum(len(p) for p in sequences.values())
    mac = mean_mac(cfg.schedule)
    print(
        f"sequences: {len(sequences)} | frames: {frames} | "
        f"tracks created: {created} | tracks removed: {removed}"
    )
    print(
        f"schedule P={cfg.schedule.P}: mean MAC {mac.mean:.1f} "
        f"({100 * mac.reduction:.1f}% reduction vs full-res)"
    )
    return EXIT_OK


def _f1max_threshold(ranked: Ranked, grid_step: float, gt_path: str) -> float:
    """The F1-max threshold of a ranked corpus (undefined without ground-truth objects)."""
    if not ranked.n_gt:
        raise ValidationError(
            f"{gt_path}: no ground-truth objects, so the F1-max threshold is "
            "undefined; pass --threshold fixed:<value>"
        )
    return f1_max_threshold(ranked, grid_step)


def cmd_eval(args) -> int:
    if is_track_file(args.predictions):
        dets = _tracks_for_eval(load_track_file(args.predictions))
    else:
        dets = _dets_for_eval(_load_native(args.predictions))

    gt_data = load_groundtruth_file(args.groundtruth)
    # every loaded sequence has at least one frame, so it has a key in dets
    _check_sequences_covered({seq for seq, _ in dets}, gt_data.keys())
    ranked = rank_corpus(dets, _gt_for_eval(gt_data))
    thr = args.threshold
    if thr is None:
        thr = _f1max_threshold(ranked, args.grid_step, args.groundtruth)
    report = evaluate(ranked, thr)
    print(render_report(report))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def sweep_reports(
    full: dict[str, list[FramePacket]],
    low: dict[str, list[FramePacket]],
    gt_sequences: dict[str, list[GroundTruthFrame]],
    cfg: RunConfig,
    P_values: Sequence[int],
    threshold=None,
    grid_step=0.01,
    gt_path="ground truth",
) -> tuple[float, list[tuple[MetricsReport, MetricsReport]]]:
    """Score the interleaved stream at each P, frame by frame and tracked.

    ``full`` and ``low`` hold native-coordinate packets of the same frames.
    The baseline threshold is ``threshold`` (``--threshold`` as parsed) or,
    when that is None, the F1-max threshold of the full-resolution
    detections, resolved once. Returns it with a (baseline, tracked)
    report pair per P: the interleaved detections at that threshold, and
    ``tracked_reports``'s report.
    """
    # equal lengths and both contiguous: the two files share every frame index
    _check_streams(full, low)
    _check_sequences_covered(full.keys(), gt_sequences.keys())
    gts = _gt_for_eval(gt_sequences)
    if threshold is None:
        threshold = _f1max_threshold(rank_corpus(_dets_for_eval(full), gts), grid_step, gt_path)

    baselines = [
        evaluate(rank_corpus(_dets_for_eval(_interleave(full, low, P)), gts), threshold)
        for P in P_values
    ]
    return threshold, list(zip(baselines, tracked_reports(full, low, gt_sequences, cfg, P_values)))


def tracked_reports(
    full: dict[str, list[FramePacket]],
    low: dict[str, list[FramePacket]],
    gt_sequences: dict[str, list[GroundTruthFrame]],
    cfg: RunConfig,
    P_values: Sequence[int],
) -> list[MetricsReport]:
    """Per P, the report at threshold 0 of the outputs of ``cfg``'s tracker,
    with its schedule at P, on the stream interleaved from ``full`` and
    ``low``: native-coordinate packets of the same frames, as
    ``sweep_reports`` checks them."""
    gts = _gt_for_eval(gt_sequences)
    reports = []
    for P in P_values:
        cfg_P = replace(cfg, schedule=replace(cfg.schedule, P=P))
        tracked, _, _ = _track_sequences(_interleave(full, low, P), cfg_P)
        reports.append(evaluate(rank_corpus(_tracks_for_eval(tracked), gts)))
    return reports


def _interleave(full, low, P: int) -> dict[str, list[FramePacket]]:
    """Each sequence's ``interleave`` at P."""
    return {seq: interleave(full[seq], low[seq], P) for seq in sorted(full)}


def cmd_sweep(args) -> int:
    cfg = load_run_config(
        args.config,
        preset=args.preset,
        emit_coasted=args.emit_coasted,
        rescore_enabled=args.rescore_enabled,
    )
    full, low = _load_native(args.full), _load_native(args.low)
    baseline_thr, reports = sweep_reports(
        full, low, load_groundtruth_file(args.gt), cfg, args.P_values,
        args.threshold, args.grid_step, args.gt,
    )

    rows = []
    for P, pair in zip(args.P_values, reports):
        mac = mean_mac(replace(cfg.schedule, P=P))
        for method, report in zip(("baseline", "tracked"), pair):
            rows.append(
                {
                    "P": P,
                    "method": method,
                    "map": report.map,
                    "precision": report.mean_precision,
                    "recall": report.mean_recall,
                    "f1": report.mean_f1,
                    "mean_mac": mac.mean,
                    "reduction": mac.reduction,
                }
            )

    print(f"baseline threshold: {baseline_thr:.4f}")
    print("  P  method     mAP     precision  recall  F1      MMAC     savings")
    for r in rows:
        print(
            f"  {r['P']:<2d} {r['method']:<9s}  {r['map']:.4f}  {r['precision']:.4f}"
            f"     {r['recall']:.4f}  {r['f1']:.4f}  {r['mean_mac']:7.1f}  "
            f"{100 * r['reduction']:5.1f}%"
        )
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
    return EXIT_OK


def _check_names(out_dir: Path, names) -> None:
    """An OSError for a name past the file system's limit, before ``out_dir``
    or anything in it is created."""
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    limit = os.pathconf(existing, "PC_NAME_MAX")
    if limit < 0:  # the file system sets no limit
        return
    for name in names:
        if len(os.fsencode(name)) > limit:
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG),
                          str(out_dir / name))


def cmd_synth(args) -> int:
    from .synth import generate  # here: no other command needs the emulator

    sc = load_scenario(args.scenario, seed=args.seed)
    if args.P is not None and len(sc.degradation) < 2:
        raise ValidationError(
            "interleaved output needs at least two configured resolutions"
        )
    try:
        gt_frames, emulate = generate(sc)
        levels = {lv.resolution: emulate(lv.resolution) for lv in sc.degradation}
    except ValueError as exc:  # a box no loader would take
        raise ValidationError(f"{args.scenario}: invalid scenario: {exc}") from None
    # file name -> (saver, frames), in the order they are written and listed
    outputs = {"gt.jsonl": (save_groundtruth_file, gt_frames)}
    for (w, h), packets in levels.items():
        outputs[f"detections_{w}x{h}.jsonl"] = (save_detection_file, packets)
    if args.P is not None:
        full, low = (levels[lv.resolution] for lv in (sc.by_area[0], sc.by_area[-1]))
        stream = interleave(full, low, args.P)
        outputs[f"detections_P{args.P}.jsonl"] = (save_detection_file, stream)
    out_dir = Path(args.out)
    _check_names(out_dir, outputs)

    out_dir.mkdir(parents=True, exist_ok=True)
    seq = f"synth-{sc.seed}"
    for name, (save, frames) in outputs.items():
        save(out_dir / name, {seq: frames})
    print(
        f"scenario seed={sc.seed}: {sc.n_objects} objects, "
        f"{sc.frame_count} frames -> {out_dir}"
    )
    for name in outputs:
        print(f"  {name}")
    return EXIT_OK


def cmd_attn_check(args) -> int:
    from .linattn import run_attention_checks

    report = run_attention_checks(
        n_values=args.n_values,
        d=args.d,
        trials=args.trials,
        tolerance=args.tol,
        seed=args.seed,
    )
    for line in report.lines:
        print(line)
    if not report.passed:
        print("attention checks FAILED")
        return EXIT_SUITE
    print("attention checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtrack",
        description=(
            "Multi-resolution video object detection post-processing: "
            "tracking, rescoring, evaluation, and synthetic benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_p=True):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument(
            "--preset",
            choices=PRESET_NAMES,
            help="built-in detector preset (overrides the config file's preset)",
        )
        if with_p:
            p.add_argument(
                "--P", type=_parse_nonnegative, help="low-res frames per full-res frame"
            )
        p.add_argument(
            "--emit-coasted",
            action="store_true",
            default=None,
            help="also emit unmatched confirmed tracks at their predicted boxes",
        )
        p.add_argument(
            "--no-rescore",
            dest="rescore_enabled",
            action="store_false",
            default=None,
            help="disable confidence fusion (naive tracking mode)",
        )

    def add_threshold_flags(p, threshold_help):
        p.add_argument(
            "--threshold", type=_parse_threshold, default=None, help=threshold_help
        )
        p.add_argument("--grid-step", type=_parse_grid_step, default=0.01)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("detections", help="detection file (JSONL)")
    add_config_flags(p)
    p.add_argument("--out", required=True, help="output track file (JSONL)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score detections or tracks against ground truth")
    p.add_argument("predictions", help="detection or track file (JSONL)")
    p.add_argument("groundtruth", help="ground-truth file (JSONL)")
    add_threshold_flags(p, "'f1max' or 'fixed:<value>' (default f1max)")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep", help="baseline-vs-tracked metrics while varying P"
    )
    p.add_argument("full", help="full-resolution detection file")
    p.add_argument("low", help="low-resolution detection file")
    p.add_argument("gt", help="ground-truth file")
    add_config_flags(p, with_p=False)
    p.add_argument(
        "--P-values",
        dest="P_values",
        type=lambda spec: _parse_int_list(spec, _parse_nonnegative),
        default=[0, 1, 2, 3, 4, 5],
        help="comma-separated P values (default 0,1,2,3,4,5)",
    )
    add_threshold_flags(p, "baseline threshold: 'f1max' (at full res) or 'fixed:<value>'")
    p.add_argument("--out", help="also write rows as JSONL")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="materialize a synthetic corpus")
    p.add_argument("scenario", help="scenario YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument(
        "--P",
        type=_parse_nonnegative,
        help="also write an interleaved detection file for this P",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "attn-check", help="attention kernel equivalence and scaling suite"
    )
    p.add_argument("--n-values", dest="n_values",
                   type=lambda spec: _parse_int_list(spec, _parse_positive),
                   default=[8, 16, 32, 64])
    p.add_argument("--d", type=_parse_positive, default=16)
    p.add_argument("--trials", type=_parse_positive, default=100)
    p.add_argument("--tol", type=_parse_tol, default=1e-6)
    p.add_argument("--seed", type=_parse_nonnegative, default=0)
    p.set_defaults(func=cmd_attn_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # a ValueError no loader turned into a ValidationError, e.g. a bad synth seed
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
