"""Command-line surface: track, eval, sweep, synth, attn-check."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core import Detection, FramePacket, rescale_packet_to_native
from .evaluation import MetricsReport, evaluate, f1_max_threshold
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
from .linattn import run_attention_checks
from .pipeline import is_full_res, mean_mac, run_sequence
from .synth import generate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SUITE = 4


def _parse_threshold(spec: str) -> tuple[str, float | None]:
    if spec == "f1max":
        return ("f1max", None)
    if spec.startswith("fixed:"):
        try:
            return ("fixed", float(spec.split(":", 1)[1]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected 'f1max' or 'fixed:<value>', got {spec!r}"
    )


def _parse_int_list(spec: str) -> list[int]:
    try:
        values = [int(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {spec!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _validate_stream(
    seq: str, packets: list[FramePacket], cfg: RunConfig
) -> list[FramePacket]:
    """Check frame contiguity and schedule/resolution agreement; rescale."""
    sched = cfg.schedule
    native_packets = []
    for i, packet in enumerate(packets):
        if packet.frame_index != i:
            raise ValidationError(
                f"sequence {seq!r}: frame {packet.frame_index} out of order "
                f"(expected {i}; frames must be contiguous from 0)"
            )
        expected = (
            sched.full_res if is_full_res(packet.frame_index, sched.P) else sched.low_res
        )
        if packet.inference_resolution != expected:
            kind = "full-res" if expected == sched.full_res else "low-res"
            raise ValidationError(
                f"sequence {seq!r} frame {packet.frame_index}: schedule P={sched.P} "
                f"expects {kind} {expected}, file has {packet.inference_resolution}"
            )
        native_packets.append(rescale_packet_to_native(packet))
    return native_packets


def _track_sequences(
    sequences: dict[str, list[FramePacket]], cfg: RunConfig
) -> tuple[dict[str, dict[int, list]], int, int]:
    """Run the tracker per sequence; returns (outputs, created, removed)."""
    results: dict[str, dict[int, list]] = {}
    created = removed = 0
    for seq in sorted(sequences):
        packets = _validate_stream(seq, sequences[seq], cfg)
        state, outputs = run_sequence(
            packets,
            cfg.tracker,
            cfg.rescore,
            rescore_enabled=cfg.rescore_enabled,
            emit_coasted=cfg.emit_coasted,
        )
        results[seq] = outputs
        created += state.next_track_id
        removed += state.removed_count
    return results, created, removed


def _dets_for_eval(sequences: dict[str, list[FramePacket]]) -> dict:
    dets = {}
    for seq, packets in sequences.items():
        for packet in packets:
            native = rescale_packet_to_native(packet)
            dets[(seq, packet.frame_index)] = list(native.detections)
    return dets


def _tracks_for_eval(track_outputs: dict[str, dict[int, list]]) -> dict:
    dets = {}
    for seq, frames in track_outputs.items():
        for frame, outs in frames.items():
            dets[(seq, frame)] = [
                Detection(o.bbox, o.class_id, o.conf) for o in outs
            ]
    return dets


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
    sequences = load_detection_file(args.detections)
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


def _f1_max(
    dets: dict, gts: dict, grid_step: float, gt_path: str
) -> tuple[float, MetricsReport]:
    """F1-max threshold sweep; undefined without ground-truth objects."""
    if not any(gts.values()):
        raise ValidationError(
            f"{gt_path}: no ground-truth objects, so the F1-max threshold is "
            "undefined; pass --threshold fixed:<value>"
        )
    return f1_max_threshold(dets, gts, grid_step)


def cmd_eval(args) -> int:
    if is_track_file(args.predictions):
        track_data = load_track_file(args.predictions)
        dets = _tracks_for_eval(track_data)
        pred_ids = track_data.keys()
    else:
        det_data = load_detection_file(args.predictions)
        dets = _dets_for_eval(det_data)
        pred_ids = det_data.keys()

    gt_data = load_groundtruth_file(args.groundtruth)
    _check_sequences_covered(pred_ids, gt_data.keys())
    gts = _gt_for_eval(gt_data)
    kind, value = args.threshold
    if kind == "fixed":
        report = evaluate(dets, gts, value)
    else:
        _, report = _f1_max(dets, gts, args.grid_step, args.groundtruth)
    print(render_report(report))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _interleave(
    full: list[FramePacket], low: list[FramePacket], P: int
) -> list[FramePacket]:
    if len(full) != len(low):
        raise ValidationError(
            f"full/low detection files disagree: {len(full)} vs {len(low)} frames"
        )
    stream = []
    for f_pkt, l_pkt in zip(full, low):
        if f_pkt.frame_index != l_pkt.frame_index:
            raise ValidationError(
                f"full/low frame indices disagree: {f_pkt.frame_index} "
                f"vs {l_pkt.frame_index}"
            )
        stream.append(f_pkt if is_full_res(f_pkt.frame_index, P) else l_pkt)
    return stream


def cmd_sweep(args) -> int:
    cfg = load_run_config(
        args.config,
        preset=args.preset,
        emit_coasted=args.emit_coasted,
        rescore_enabled=args.rescore_enabled,
    )
    full_seqs = load_detection_file(args.full)
    low_seqs = load_detection_file(args.low)
    gt_data = load_groundtruth_file(args.gt)
    if sorted(full_seqs) != sorted(low_seqs):
        raise ValidationError("full/low detection files cover different sequences")
    _check_sequences_covered(full_seqs.keys(), gt_data.keys())
    gts = _gt_for_eval(gt_data)

    # the baseline threshold comes from full-resolution detections only
    full_dets = _dets_for_eval(full_seqs)
    kind, value = args.threshold
    if kind == "fixed":
        baseline_thr = value
    else:
        baseline_thr, _ = _f1_max(full_dets, gts, args.grid_step, args.gt)

    rows = []
    for P in args.P_values:
        sched = replace(cfg.schedule, P=P)
        row_cfg = replace(cfg, schedule=sched)
        streams = {
            seq: _interleave(full_seqs[seq], low_seqs[seq], P)
            for seq in sorted(full_seqs)
        }
        baseline_report = evaluate(_dets_for_eval(streams), gts, baseline_thr)
        tracked_outputs, _, _ = _track_sequences(streams, row_cfg)
        tracked_report = evaluate(_tracks_for_eval(tracked_outputs), gts, 0.0)
        mac = mean_mac(sched)
        for method, report in (
            ("baseline", baseline_report),
            ("tracked", tracked_report),
        ):
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


def cmd_synth(args) -> int:
    sc = load_scenario(args.scenario, seed=args.seed)
    gt_frames, emulate = generate(sc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seq = f"synth-{sc.seed}"

    save_groundtruth_file(out_dir / "gt.jsonl", {seq: gt_frames})
    written = ["gt.jsonl"]
    packets_by_res = {}
    for level in sc.degradation:
        w, h = level.resolution
        packets = emulate(level.resolution)
        packets_by_res[level.resolution] = packets
        name = f"detections_{w}x{h}.jsonl"
        save_detection_file(out_dir / name, {seq: packets})
        written.append(name)

    if args.P is not None:
        by_area = sorted(
            packets_by_res, key=lambda res: res[0] * res[1], reverse=True
        )
        if len(by_area) < 2:
            raise ValidationError(
                "interleaved output needs at least two configured resolutions"
            )
        stream = _interleave(
            packets_by_res[by_area[0]], packets_by_res[by_area[-1]], args.P
        )
        name = f"detections_P{args.P}.jsonl"
        save_detection_file(out_dir / name, {seq: stream})
        written.append(name)

    print(
        f"scenario seed={sc.seed}: {sc.n_objects} objects, "
        f"{sc.frame_count} frames -> {out_dir}"
    )
    for name in written:
        print(f"  {name}")
    return EXIT_OK


def cmd_attn_check(args) -> int:
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
            p.add_argument("--P", type=int, help="low-res frames per full-res frame")
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

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("detections", help="detection file (JSONL)")
    add_config_flags(p)
    p.add_argument("--out", required=True, help="output track file (JSONL)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score detections or tracks against ground truth")
    p.add_argument("predictions", help="detection or track file (JSONL)")
    p.add_argument("groundtruth", help="ground-truth file (JSONL)")
    p.add_argument(
        "--threshold",
        type=_parse_threshold,
        default=("f1max", None),
        help="'f1max' or 'fixed:<value>' (default f1max)",
    )
    p.add_argument("--grid-step", type=float, default=0.01)
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
        type=_parse_int_list,
        default=[0, 1, 2, 3, 4, 5],
        help="comma-separated P values (default 0,1,2,3,4,5)",
    )
    p.add_argument(
        "--threshold",
        type=_parse_threshold,
        default=("f1max", None),
        help="baseline threshold: 'f1max' (at full res) or 'fixed:<value>'",
    )
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--out", help="also write rows as JSONL")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="materialize a synthetic corpus")
    p.add_argument("scenario", help="scenario YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument(
        "--P",
        type=int,
        help="also write an interleaved detection file for this P",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "attn-check", help="attention kernel equivalence and scaling suite"
    )
    p.add_argument("--n-values", dest="n_values", type=_parse_int_list,
                   default=[8, 16, 32, 64])
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_attn_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
