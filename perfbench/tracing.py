"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public names in the modules that import them (for
example `mrtrack.pipeline.iou_matrix` or `mrtrack.cli.run_sequence`) to
wrappers that record a span per call (name, start, end, parent span,
frame id) and count the decisions visible at that boundary. Spans stay in
memory and are written once, at the end of the run. `core.iou` is not
wrapped: it runs about a million times per command, so `cells` and
`pairs` count that work instead.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter

# (importing module, public name, span name). A target missing from its
# module raises at install, so a renamed or moved function fails loudly.
TARGETS = (
    ("mrtrack.cli", "main", "cli.main"),
    ("mrtrack.cli", "load_detection_file", "fileio.load_detection_file"),
    ("mrtrack.cli", "load_groundtruth_file", "fileio.load_groundtruth_file"),
    ("mrtrack.cli", "save_track_file", "fileio.save_track_file"),
    ("mrtrack.cli", "rescale_packet_to_native", "core.rescale_packet_to_native"),
    ("mrtrack.cli", "run_sequence", "pipeline.run_sequence"),
    ("mrtrack.cli", "evaluate", "evaluation.evaluate"),
    ("mrtrack.cli", "f1_max_threshold", "evaluation.f1_max_threshold"),
    ("mrtrack.pipeline", "step", "pipeline.step"),
    ("mrtrack.pipeline", "iou_matrix", "association.iou_matrix"),
    ("mrtrack.pipeline", "match", "association.match"),
    ("mrtrack.pipeline", "kf_predict", "kalman.kf_predict"),
    ("mrtrack.pipeline", "kf_update", "kalman.kf_update"),
    ("mrtrack.pipeline", "rescore_update", "rescore.rescore_update"),
    ("mrtrack.tracks", "kf_init", "kalman.kf_init"),
    ("mrtrack.tracks", "state_bbox", "kalman.state_bbox"),
    ("mrtrack.evaluation", "evaluate", "evaluation.evaluate"),
    ("mrtrack.evaluation", "match_frame_flags", "evaluation.match_frame_flags"),
    ("mrtrack.evaluation", "average_precision", "evaluation.average_precision"),
)

_TRACKER = {
    "pipeline.run_sequence", "pipeline.step", "association.iou_matrix",
    "association.match", "kalman.kf_predict", "kalman.kf_update",
    "rescore.rescore_update", "kalman.kf_init", "kalman.state_bbox",
}
_EVALUATION = {
    "evaluation.evaluate", "evaluation.match_frame_flags", "evaluation.average_precision",
}

# span -> workloads on which the command never reaches it; every other
# (span, workload) pair must record calls
ZERO_ON = {
    **{name: {"f1max-eval"} for name in _TRACKER},
    **{name: {"dense-track"} for name in _EVALUATION},
    "evaluation.f1_max_threshold": {"dense-track", "sparse-sweep"},
    "fileio.load_groundtruth_file": {"dense-track"},
    "fileio.save_track_file": {"sparse-sweep", "f1max-eval"},
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters recorded by wrappers around public functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, frame]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._frame = None
        self._match_in_step = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            snapshot = before(args, kwargs) if before else None
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._frame]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after:
                after(snapshot, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ counters

    def _after_fileio_load_detection_file(self, _, args, kwargs, result):
        self.counts["fileio.load_detection_file.bytes"] += os.path.getsize(
            _arg(args, kwargs, 0, "path")
        )

    def _after_fileio_save_track_file(self, _, args, kwargs, result):
        self.counts["fileio.save_track_file.bytes"] += os.path.getsize(
            _arg(args, kwargs, 0, "path")
        )

    def _after_pipeline_run_sequence(self, _, args, kwargs, result):
        self.counts["frames_tracked"] += len(_arg(args, kwargs, 0, "frames"))
        self.counts["active_left"] += len(result[0].active_tracks)

    def _before_pipeline_step(self, args, kwargs):
        state = _arg(args, kwargs, 0, "state")
        frame = _arg(args, kwargs, 1, "frame")
        tcfg = _arg(args, kwargs, 2, "tcfg")
        self._frame = frame.frame_index
        self._match_in_step = 0
        self.counts["pipeline.dets_dropped_low"] += sum(
            1 for d in frame.detections if d.conf < tcfg.low_threshold
        )
        return (
            len(state.active_tracks),
            {t.track_id for t in state.active_tracks if t.status.name == "CONFIRMED"},
            state.next_track_id,
        )

    def _after_pipeline_step(self, snapshot, args, kwargs, result):
        n_before, confirmed_before, next_before = snapshot
        state, outputs = result
        born = state.next_track_id - next_before
        active = {t.track_id: t for t in state.active_tracks}
        self.counts["tracks.births"] += born
        self.counts["tracks.removals"] += n_before + born - len(active)
        self.counts["tracks.confirmations"] += sum(
            1
            for tid, t in active.items()
            if t.status.name == "CONFIRMED" and tid not in confirmed_before
        )
        self.counts["tracks.coasted_emissions"] += sum(
            1 for o in outputs if active[o.track_id].frames_since_update > 0
        )
        self._frame = None

    def _after_association_iou_matrix(self, _, args, kwargs, result):
        self.counts["association.iou_matrix.cells"] += result.size

    def _after_association_match(self, _, args, kwargs, result):
        cost = _arg(args, kwargs, 0, "cost_matrix")
        tau = _arg(args, kwargs, 1, "tau_iou")
        self.counts["association.iou_matrix.gated_cells"] += int((cost >= tau).sum())
        self._match_in_step += 1
        which = "first" if self._match_in_step == 1 else "second"
        self.counts[f"pipeline.{which}_pass_matches"] += len(result.matches)

    def _after_rescore_rescore_update(self, _, args, kwargs, result):
        track, det = _arg(args, kwargs, 0, "track"), _arg(args, kwargs, 1, "det")
        self.counts["rescore.class_switches"] += bool(result.class_switched)
        self.counts["rescore.shrinks"] += (
            det.class_id != track.class_id and track.conf_agg >= det.conf
        )

    def _after_evaluation_match_frame_flags(self, _, args, kwargs, result):
        self.counts["evaluation.match_frame_flags.pairs"] += len(
            _arg(args, kwargs, 0, "dets")
        ) * len(_arg(args, kwargs, 1, "gts"))

    # ------------------------------------------------------------ summaries

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {
            span: {"calls": 0, "s": 0.0, "self_s": 0.0} for _, _, span in TARGETS
        }
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return totals

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, frame in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "frame": frame,
                }) + "\n")


def reconcile(tracer: Tracer, expected_frames: int) -> list[str]:
    """Counter identities that must hold after a traced command."""
    c, t = tracer.counts, tracer.layer_totals()
    problems = []
    if c["tracks.births"] - c["tracks.removals"] != c["active_left"]:
        problems.append(
            f"births {c['tracks.births']} - removals {c['tracks.removals']} "
            f"!= active tracks left {c['active_left']}"
        )
    if c["tracks.births"] != t["kalman.kf_init"]["calls"]:
        problems.append("births != kf_init calls")
    matches = c["pipeline.first_pass_matches"] + c["pipeline.second_pass_matches"]
    for span in ("kalman.kf_update", "rescore.rescore_update"):
        if matches != t[span]["calls"]:
            problems.append(f"first + second pass matches {matches} != {span} calls {t[span]['calls']}")
    if not t["pipeline.step"]["calls"] == c["frames_tracked"] == expected_frames:
        problems.append(
            f"step calls {t['pipeline.step']['calls']}, frames given to run_sequence "
            f"{c['frames_tracked']} and frames expected {expected_frames} differ"
        )
    return problems


def coverage(totals: dict, workload: str) -> list[str]:
    """Spans that were bypassed where the workload runs them, or reached where it must not."""
    problems = []
    for span, t in sorted(totals.items()):
        if workload in ZERO_ON.get(span, ()):
            if t["calls"] != 0:
                problems.append(f"{span} ran {t['calls']} times; expected 0 on {workload}")
        elif t["calls"] == 0:
            problems.append(f"{span} recorded no calls on {workload}")
    return problems


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for one traced command."""
    t, c = tracer.layer_totals(), tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def timed(span, self_time=False):
        m[f"{span}.calls"] = (t[span]["calls"], "count")
        m[f"{span}.s"] = (t[span]["s"], "s")
        if self_time:
            m[f"{span}.self_s"] = (t[span]["self_s"], "s")

    timed("cli.main", self_time=True)
    timed("fileio.load_detection_file")
    m["fileio.load_detection_file.bytes"] = (c["fileio.load_detection_file.bytes"], "bytes")
    timed("fileio.load_groundtruth_file")
    timed("fileio.save_track_file")
    m["fileio.save_track_file.bytes"] = (c["fileio.save_track_file.bytes"], "bytes")
    timed("core.rescale_packet_to_native")
    timed("pipeline.step", self_time=True)
    for name in ("first_pass_matches", "second_pass_matches", "dets_dropped_low"):
        m[f"pipeline.{name}"] = (c[f"pipeline.{name}"], "count")
    timed("association.iou_matrix")
    cells = c["association.iou_matrix.cells"]
    m["association.iou_matrix.cells"] = (cells, "count")
    m["association.iou_matrix.gated_ratio"] = (
        c["association.iou_matrix.gated_cells"] / cells if cells else 0.0, "ratio"
    )
    timed("association.match")
    timed("kalman.kf_predict")
    timed("kalman.kf_update")
    m["kalman.kf_init.calls"] = (t["kalman.kf_init"]["calls"], "count")
    m["kalman.state_bbox.calls"] = (t["kalman.state_bbox"]["calls"], "count")
    timed("rescore.rescore_update")
    for name in ("rescore.class_switches", "rescore.shrinks", "tracks.births",
                 "tracks.confirmations", "tracks.removals", "tracks.coasted_emissions"):
        m[name] = (c[name], "count")
    timed("evaluation.evaluate", self_time=True)
    timed("evaluation.match_frame_flags")
    m["evaluation.match_frame_flags.pairs"] = (c["evaluation.match_frame_flags.pairs"], "count")
    timed("evaluation.average_precision")
    m["evaluation.f1_max_threshold.s"] = (t["evaluation.f1_max_threshold"]["s"], "s")
    return m
