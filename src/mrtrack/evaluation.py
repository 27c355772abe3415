"""Detection-quality metrics: mAP50, per-class precision/recall/F1.

Frames are matched greedily in confidence order: a detection is a true
positive iff it shares the ground-truth class and overlaps an unclaimed
ground-truth box with IoU strictly greater than the gate (0.5). Average
precision uses all-point interpolation (area under the precision
envelope). Per-class metrics are averaged unweighted over every class
that appears in the ground truth or among the detections kept at the
threshold.

``rank_corpus`` matches every frame once, with all its detections, and
every score reads from its table. Greedy matching in descending confidence
makes a detection's TP flag depend only on the detections ranked above it,
so a confidence threshold keeps a prefix of each frame's ranking and of
each class's, with the flags it would have had if the detections below
the threshold had been dropped before matching. ``class_counts`` is the
one statement of that rule: it gives each scored class's (kept, TP,
ground-truth) counts at each threshold of a grid. ``evaluate`` scores its
row at one threshold; ``f1_max_threshold`` returns the grid threshold whose
row has the highest mean F1 (ties toward the higher threshold).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .core import BBox, DEFAULT_EPSILON, Detection

# (sequence_id, frame_index) -> contents of that frame
FrameKey = tuple[str, int]
GtObject = tuple[BBox, int]

IOU_GATE = 0.5
# The grid steps ``f1_max_threshold`` accepts, ends included. The floor keeps
# the grid to ~10^4 points; under 1e-12, rounding repeats points and it never ends.
GRID_STEP_RANGE = (DEFAULT_EPSILON, 0.5)


class GroundTruthFrame(NamedTuple):
    """Reference objects of one frame, native-resolution coordinates."""

    frame_index: int
    objects: tuple[GtObject, ...]


class ClassMetrics(NamedTuple):
    ap: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


class MetricsReport(NamedTuple):
    """Per-class and aggregate detection metrics at one threshold."""

    per_class: dict[int, ClassMetrics]
    map: float
    mean_precision: float
    mean_recall: float
    mean_f1: float
    threshold_used: float


def match_frame_flags(
    dets: Sequence[Detection], gts: Sequence[GtObject]
) -> list[bool]:
    """TP flag per detection (in the given order); each GT claimed once.

    A detection scans only its own class's ground truth, grouped once as
    ``[x1, y1, x2, y2, area, used]`` rows, and computes each IoU by
    ``core.iou``'s arithmetic, in its order. A pair whose intersection or
    union is empty has IoU 0.0, which never beats the gate, so it is skipped.
    """
    by_class: dict[int, list[list]] = {}
    for (gx1, gy1, gx2, gy2), gcls in gts:
        row = [gx1, gy1, gx2, gy2, (gx2 - gx1) * (gy2 - gy1), False]
        by_class.setdefault(gcls, []).append(row)
    flags = []
    for d in dets:
        x1, y1, x2, y2 = d.bbox
        area = (x2 - x1) * (y2 - y1)
        # starting at the gate, only an IoU above it can claim a box
        best, best_row = IOU_GATE, None
        for row in by_class.get(d.class_id, ()):
            gx1, gy1, gx2, gy2, garea, used = row
            if used:
                continue
            iw = (gx2 if gx2 < x2 else x2) - (gx1 if gx1 > x1 else x1)
            if iw <= 0.0:
                continue
            ih = (gy2 if gy2 < y2 else y2) - (gy1 if gy1 > y1 else y1)
            if ih <= 0.0:
                continue
            inter = iw * ih
            union = area + garea - inter
            if union <= 0.0:
                continue
            v = inter / union
            if v > best:
                best, best_row = v, row
        if best_row is not None:
            best_row[5] = True
        flags.append(best_row is not None)
    return flags


def average_precision(flags: Sequence[bool], n_gt: int) -> float:
    """All-point interpolated AP from confidence-ranked TP/FP flags.

    Sums (recall step) x (precision envelope) rank by rank. An FP rank adds
    a zero step, and its precision is below that of the TP rank before it,
    so it never sets the envelope: the sum runs over the TP ranks alone.
    """
    if n_gt <= 0 or len(flags) == 0:
        return 0.0
    tp_ranks = [rank for rank, f in enumerate(flags, 1) if f]
    precision = [tp / rank for tp, rank in enumerate(tp_ranks, 1)]
    envelope = list(accumulate(reversed(precision), max))
    ap = prev_r = 0.0
    for tp, p in enumerate(reversed(envelope), 1):
        r = tp / n_gt
        ap += (r - prev_r) * p
        prev_r = r
    return ap


class Ranked(NamedTuple):
    """A corpus matched once, at threshold 0: every score reads from it.

    ``records`` maps each class to its (conf, TP flag) records in descending
    confidence, then frame key and rank in its frame, the order they are
    appended in, which the stable sort keeps among equal confidences.
    ``n_gt`` counts each class's ground-truth objects.
    """

    records: dict[int, list[tuple[float, bool]]]
    n_gt: dict[int, int]


def rank_corpus(
    dets_by_frame: Mapping[FrameKey, Sequence[Detection]],
    gts_by_frame: Mapping[FrameKey, Sequence[GtObject]],
) -> Ranked:
    """Match every frame once, with all its detections, into a ``Ranked``."""
    records: dict[int, list[tuple[float, bool]]] = {}
    n_gt: dict[int, int] = {}
    keys = sorted(set(dets_by_frame.keys()) | set(gts_by_frame.keys()))
    for key in keys:
        gts = list(gts_by_frame.get(key, ()))
        for _, gcls in gts:
            n_gt[gcls] = n_gt.get(gcls, 0) + 1
        # stable: equal confidences keep input order
        dets = sorted(dets_by_frame.get(key, ()), key=lambda d: -d.conf)
        flags = match_frame_flags(dets, gts)
        for d, f in zip(dets, flags):
            records.setdefault(d.class_id, []).append((d.conf, f))
    for recs in records.values():
        recs.sort(key=lambda r: -r[0])
    return Ranked(records, n_gt)


def class_counts(
    ranked: Ranked, grid: Sequence[float]
) -> list[dict[int, tuple[int, int, int]]]:
    """Each scored class's (kept, TP, ground-truth) counts at each threshold.

    A record is kept at a threshold when its confidence is >= it, so a
    class's kept records are a prefix of its ranking, and TP counts the
    flags of that prefix. A class is scored at a threshold when it has
    ground truth or a kept record. Rows follow ``grid``; each lists its
    classes in ascending order.
    """
    records, n_gt = ranked
    rows: list[dict[int, tuple[int, int, int]]] = [{} for _ in grid]
    for cls in sorted(set(records) | set(n_gt)):
        recs = records.get(cls, [])
        ascending = [conf for conf, _ in reversed(recs)]
        prefix_tp = list(accumulate((f for _, f in recs), initial=0))
        gt_count = n_gt.get(cls, 0)
        for row, thr in zip(rows, grid):
            kept = len(recs) - bisect_left(ascending, thr)
            if kept or gt_count:
                row[cls] = (kept, prefix_tp[kept], gt_count)
    return rows


def _class_prf(kept: int, tp: int, n_gt: int) -> tuple[float, float, float]:
    """(precision, recall, F1) of one class from its kept, TP and GT counts."""
    precision = tp / kept if kept else 0.0
    recall = tp / n_gt if n_gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def evaluate(ranked: Ranked, threshold: float = 0.0) -> MetricsReport:
    """Score a ranked corpus at a fixed confidence threshold.

    Per-class counts are ``class_counts`` at ``threshold``; AP pools each
    class's kept records over all frames and sequences.
    """
    (counts,) = class_counts(ranked, [threshold])
    per_class: dict[int, ClassMetrics] = {}
    for cls, (kept, tp, gt_count) in counts.items():
        precision, recall, f1 = _class_prf(kept, tp, gt_count)
        kept_flags = [f for _, f in ranked.records.get(cls, [])[:kept]]
        per_class[cls] = ClassMetrics(
            ap=average_precision(kept_flags, gt_count),
            precision=precision,
            recall=recall,
            f1=f1,
            tp=tp,
            fp=kept - tp,
            fn=gt_count - tp,
        )

    return MetricsReport(
        per_class=per_class,
        map=_mean([m.ap for m in per_class.values()]),
        mean_precision=_mean([m.precision for m in per_class.values()]),
        mean_recall=_mean([m.recall for m in per_class.values()]),
        mean_f1=_mean([m.f1 for m in per_class.values()]),
        threshold_used=threshold,
    )


def f1_max_threshold(ranked: Ranked, grid_step: float = 0.01) -> float:
    """Confidence threshold maximizing mean F1 over a regular grid.

    The grid is {0, step, 2*step, ...} below 1 - epsilon, plus 1 - epsilon
    itself; ties are broken toward the higher threshold. The mean F1 at
    each grid point is ``evaluate``'s, from the same ``class_counts`` rows.
    """
    finest, coarsest = GRID_STEP_RANGE
    if not finest <= grid_step <= coarsest:
        raise ValueError(f"grid_step out of [{finest:g}, {coarsest:g}]: {grid_step}")
    if not ranked.n_gt:
        raise ValueError("empty ground truth: F1 sweep undefined")

    top = 1.0 - DEFAULT_EPSILON
    grid = []
    k = 0
    # rounding keeps decimal grids exact (14 * 0.05 would otherwise
    # overshoot 0.7 and exclude detections at that confidence)
    while round(k * grid_step, 12) < top:
        grid.append(round(k * grid_step, 12))
        k += 1
    grid.append(top)

    f1 = [
        _mean([_class_prf(*counts)[2] for counts in row.values()])
        for row in class_counts(ranked, grid)
    ]
    return grid[max(range(len(grid)), key=lambda i: (f1[i], i))]
