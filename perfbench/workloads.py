"""The benchmark's three workloads: inputs, CLI command and output checks.

Each workload is a single-sequence corpus from `mrtrack.synth.profile_scenario`
written as JSONL, one `mrtrack` command run on it, and the streams the
in-process tracker timing steps through. Why each was chosen:

- dense-track: 40 objects, so each frame's IoU matrix is ~40 x 40 and
  association dominates `track`; no evaluation runs.
- sparse-sweep: 4 objects with frequent class flips at low resolution;
  `sweep` tracks the stream at each of P=0..5, so the matrices are at most
  4 x 4 and Kalman, rescoring and per-frame bookkeeping dominate. The
  fixed threshold keeps the 100-point F1 sweep out.
- f1max-eval: raw full-resolution detections scored with `eval --threshold
  f1max`, which is almost all evaluation; no tracker code runs in the
  command. The in-process tracker timing uses the same detections.

Every output is compared with `reference` (ids, classes and frame sets
exactly; boxes, confidences and metric values within 1e-9).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

TOL = 1e-9
SEQ = "bench"
FULL, LOW = (320, 320), (192, 192)
P_VALUES = (0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Spec:
    name: str
    profile: str
    n_objects: int
    frames: int
    subcommand: str


SPECS = {
    s.name: s
    for s in (
        Spec("dense-track", "cnn-like", 40, 200, "track"),
        Spec("sparse-sweep", "vit-like", 4, 300, "sweep"),
        Spec("f1max-eval", "cnn-like", 8, 300, "eval"),
    )
}


@dataclass
class Workload:
    """A generated corpus with its command, tracker streams and reference."""

    spec: Spec
    seed: int
    argv: list[str]
    out_path: Path
    gt: dict
    streams: list = field(default_factory=list)  # program FramePackets, native res
    expected_streams: list = field(default_factory=list)  # reference tracks per stream
    expected_output: object = None

    @property
    def tracked_frames(self) -> int:
        """Frames the CLI command passes through the tracker."""
        if self.spec.name == "dense-track":
            return self.spec.frames
        if self.spec.name == "sparse-sweep":
            return self.spec.frames * len(P_VALUES)
        return 0

    def check_output(self, path: Path) -> tuple[str | None, dict]:
        """Compare a command's output file with the reference.

        Returns (first disagreement or None, quality) where quality holds
        map50 and mean_f1 of the workload's primary output.
        """
        if not path.is_file():
            return f"no output file {path.name}", {}
        if self.spec.name == "dense-track":
            got = read_track_file(path)
            dets = {f: [o[1] + (o[2], o[3]) for o in outs] for f, outs in got.items()}
            report = ref.evaluate(dets, self.gt, 0.0)
            return diff_tracks(got, self.expected_output), _quality(report["map"], report["mean_f1"])
        if self.spec.name == "sparse-sweep":
            with open(path, encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            last = rows[-1] if rows else {}
            return diff_rows(rows, self.expected_output), _quality(last.get("map"), last.get("f1"))
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        return diff_report(report, self.expected_output), _quality(report.get("map"), report.get("mean_f1"))

    def check_stream(self, index: int, outputs: dict) -> str | None:
        """Compare in-process `step` outputs (frame -> TrackOutputs) with the reference."""
        got = {
            f: [(o.track_id, o.bbox.as_tuple(), o.class_id, o.conf) for o in outs]
            for f, outs in outputs.items()
        }
        return diff_tracks(got, self.expected_streams[index])


def _quality(map50, mean_f1) -> dict:
    return {"map50": map50, "mean_f1": mean_f1}


# ---------------------------------------------------------------- inputs


def _write_detections(path: Path, packets) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in packets:
            fh.write(json.dumps({
                "sequence_id": SEQ,
                "frame": p.frame_index,
                "inference_resolution": list(p.inference_resolution),
                "native_resolution": list(p.native_resolution),
                "detections": [
                    {"bbox": [float(v) for v in d.bbox.as_tuple()],
                     "class": int(d.class_id), "conf": float(d.conf)}
                    for d in p.detections
                ],
            }) + "\n")


def _write_groundtruth(path: Path, frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in frames:
            fh.write(json.dumps({
                "sequence_id": SEQ,
                "frame": g.frame_index,
                "objects": [
                    {"bbox": [float(v) for v in box.as_tuple()], "class": int(cls)}
                    for box, cls in g.objects
                ],
            }) + "\n")


def check_shape(spec: Spec, gt_frames, full, low) -> None:
    """Raise if a generated corpus differs in shape from the workload's definition."""
    problems = []
    if len(gt_frames) != spec.frames or len(full) != spec.frames or len(low) != spec.frames:
        problems.append("frame count")
    if any(len(g.objects) != spec.n_objects for g in gt_frames):
        problems.append("objects per frame")
    if [p.frame_index for p in full] != list(range(spec.frames)):
        problems.append("frame indices")
    if any(p.inference_resolution != FULL for p in full) or any(
        p.inference_resolution != LOW for p in low
    ):
        problems.append("resolution tags")
    # detections per frame stay near the object count (drop rates are <= 30%)
    for packets in (full, low):
        n = sum(len(p.detections) for p in packets)
        if not 0.6 * spec.n_objects * spec.frames <= n <= spec.n_objects * spec.frames:
            problems.append(f"detection count {n}")
    if problems:
        raise ValueError(f"{spec.name}: corpus shape differs: {', '.join(problems)}")


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs from `seed` into `work` and its reference."""
    from mrtrack.core import rescale_packet_to_native
    from mrtrack.synth import generate, profile_scenario

    spec = SPECS[name]
    sc = profile_scenario(
        spec.profile, seed=seed, n_objects=spec.n_objects, frame_count=spec.frames
    )
    gt_frames, emulate = generate(sc)
    full, low = emulate(FULL), emulate(LOW)
    check_shape(spec, gt_frames, full, low)

    gt_path, full_path, low_path = work / "gt.jsonl", work / "full.jsonl", work / "low.jsonl"
    _write_groundtruth(gt_path, gt_frames)
    _write_detections(full_path, full)
    gt = ref.load_groundtruth(gt_path)

    def packets_for(P):
        return [f if f.frame_index % (P + 1) == 0 else lo for f, lo in zip(full, low)]

    if name == "dense-track":
        p5 = work / "detections_P5.jsonl"
        _write_detections(p5, packets_for(5))
        out = work / "tracks.jsonl"
        argv = ["track", str(p5), "--preset", "nanodet", "--P", "5", "--emit-coasted",
                "--out", str(out)]
        wl = Workload(spec, seed, argv, out, gt)
        expected = ref.track(ref.load_detections(p5))
        wl.streams = [[rescale_packet_to_native(p) for p in packets_for(5)]]
        wl.expected_streams = [expected]
        wl.expected_output = expected
    elif name == "sparse-sweep":
        _write_detections(low_path, low)
        out = work / "rows.jsonl"
        argv = ["sweep", str(full_path), str(low_path), str(gt_path), "--preset", "nanodet",
                "--emit-coasted", "--threshold", "fixed:0.5", "--out", str(out)]
        wl = Workload(spec, seed, argv, out, gt)
        rfull, rlow = ref.load_detections(full_path), ref.load_detections(low_path)
        rows = []
        for P in P_VALUES:
            stream = ref.interleave(rfull, rlow, P)
            tracks = ref.track(stream)
            wl.streams.append([rescale_packet_to_native(p) for p in packets_for(P)])
            wl.expected_streams.append(tracks)
            mean, reduction = ref.mean_mac(P)
            baseline = ref.evaluate(dict(stream), gt, 0.5)
            tracked = ref.evaluate(
                {f: [o[1] + (o[2], o[3]) for o in outs] for f, outs in tracks.items()}, gt, 0.0
            )
            for method, r in (("baseline", baseline), ("tracked", tracked)):
                rows.append({
                    "P": P, "method": method, "map": r["map"],
                    "precision": r["mean_precision"], "recall": r["mean_recall"],
                    "f1": r["mean_f1"], "mean_mac": mean, "reduction": reduction,
                })
        wl.expected_output = rows
    else:
        out = work / "report.json"
        argv = ["eval", str(full_path), str(gt_path), "--threshold", "f1max", "--out", str(out)]
        wl = Workload(spec, seed, argv, out, gt)
        rfull = ref.load_detections(full_path)
        wl.streams = [list(full)]
        wl.expected_streams = [ref.track(rfull)]
        wl.expected_output = ref.f1max(dict(rfull), gt)
    return wl


# ---------------------------------------------------------------- comparison


def read_track_file(path: Path) -> dict:
    """Track file of one sequence -> {frame: [(id, box, class, conf)]}."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["frame"]] = [
                (t["id"], tuple(t["bbox"]), t["class"], t["conf"]) for t in rec["tracks"]
            ]
    return out


def _close(a, b) -> bool:
    return (
        isinstance(a, (int, float))
        and not isinstance(a, bool)
        and math.isfinite(a)
        and abs(a - b) <= TOL
    )


def diff_tracks(got: dict, want: dict) -> str | None:
    """First disagreement between two {frame: [(id, box, class, conf)]} maps."""
    if set(got) != set(want):
        return f"frame sets differ ({len(got)} vs {len(want)} frames)"
    for f in sorted(want):
        g, w = got[f], want[f]
        if [(o[0], o[2]) for o in g] != [(o[0], o[2]) for o in w]:
            return f"frame {f}: track ids or classes differ"
        for a, b in zip(g, w):
            if len(a[1]) != 4 or not all(_close(x, y) for x, y in zip(a[1], b[1])):
                return f"frame {f} track {a[0]}: box differs by more than {TOL}"
            if not _close(a[3], b[3]):
                return f"frame {f} track {a[0]}: confidence differs by more than {TOL}"
    return None


def diff_rows(got: list, want: list) -> str | None:
    """First disagreement between two lists of sweep rows."""
    if [(r.get("P"), r.get("method")) for r in got] != [(r["P"], r["method"]) for r in want]:
        return "sweep rows differ in P or method"
    for g, w in zip(got, want):
        for key in ("map", "precision", "recall", "f1", "mean_mac", "reduction"):
            if not _close(g.get(key), w[key]):
                return f"P={w['P']} {w['method']}: {key} differs by more than {TOL}"
    return None


def diff_report(got: dict, want: dict) -> str | None:
    """First disagreement between two `eval --out` reports."""
    for key in ("threshold", "map", "mean_precision", "mean_recall", "mean_f1"):
        if not _close(got.get(key), want[key]):
            return f"{key} differs by more than {TOL}"
    per_class = got.get("per_class", {})
    if set(per_class) != set(want["per_class"]):
        return "report classes differ"
    for cls, w in want["per_class"].items():
        g = per_class[cls]
        if any(g.get(k) != w[k] for k in ("tp", "fp", "fn")):
            return f"class {cls}: tp/fp/fn differ"
        for key in ("ap", "precision", "recall", "f1"):
            if not _close(g.get(key), w[key]):
                return f"class {cls}: {key} differs by more than {TOL}"
    return None
