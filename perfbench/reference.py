"""Frozen reference for the outputs the benchmark checks.

An independent implementation of the tracker and the evaluator, written
against the JSONL files the program reads and kept apart from `src/` so
that a change to the program is compared with the behaviour it had when
the benchmark was defined. The arithmetic repeats the program's formulas
operation for operation (Kalman filter, IoU, gated assignment, fusion
rule, lifecycle, greedy matching), so its outputs agree with the program
to the last bit; the checks allow 1e-9 on boxes, confidences and metrics.

The F1-maximising threshold is found differently from the program: the
greedy TP/FP flags do not depend on the threshold (raising it cuts a
suffix of each frame's confidence-ranked list), so one matching pass and
per-class cumulative counts give every grid point's mean F1.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linear_sum_assignment

EPSILON = 1e-4
HISTORY_LEN = 3
IOU_GATE = 0.5
GRID_STEP = 0.01
# the nanodet preset: confidence split, IoU gate, lifecycle and MAC costs
HIGH, LOW = 0.45, 0.30
TAU_IOU, TAU_INIT, TAU_DEAD = 0.3, 2, 5
MAC_FULL, MAC_LOW = 463.0, 167.0

_PS, _VS = 1.0 / 20, 1.0 / 160
_F = np.eye(8)
for _i in range(4):
    _F[_i, 4 + _i] = 1.0
_H = np.eye(4, 8)


# ---------------------------------------------------------------- inputs


def load_detections(path):
    """Detection file -> list of (frame, dets) with native-resolution boxes.

    Each detection is (x1, y1, x2, y2, class, conf); confidences are clamped
    to [0, 1 - epsilon] as on ingestion.
    """
    frames = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            (iw, ih), (nw, nh) = rec["inference_resolution"], rec["native_resolution"]
            sx, sy = nw / iw, nh / ih
            dets = []
            for d in rec["detections"]:
                x1, y1, x2, y2 = (float(v) for v in d["bbox"])
                if (iw, ih) != (nw, nh):
                    x1, y1, x2, y2 = x1 * sx, y1 * sy, x2 * sx, y2 * sy
                conf = min(max(float(d["conf"]), 0.0), 1.0 - EPSILON)
                dets.append((x1, y1, x2, y2, int(d["class"]), conf))
            frames.append((rec["frame"], dets))
    return frames


def load_groundtruth(path):
    """Ground-truth file -> {frame: [(x1, y1, x2, y2, class)]}."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["frame"]] = [
                tuple(float(v) for v in o["bbox"]) + (int(o["class"]),)
                for o in rec["objects"]
            ]
    return out


# ---------------------------------------------------------------- geometry


def iou_matrix(a, b) -> np.ndarray:
    """N x M IoU of corner boxes; elementwise the scalar formula."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def _xyah(x1, y1, x2, y2):
    h = y2 - y1
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / h, h)


def _box(mean):
    cx, cy, a, h = mean[:4]
    h = max(h, 0.0)
    w = max(a, 0.0) * h
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


# ---------------------------------------------------------------- Kalman


def _sym(cov):
    return (cov + cov.T) / 2.0


def _kf_init(det):
    cx, cy, a, h = _xyah(*det[:4])
    mean = np.array([cx, cy, a, h, 0.0, 0.0, 0.0, 0.0])
    pos_std = np.array([2 * _PS * h, 2 * _PS * h, 1e-2, 2 * _PS * h])
    vel_std = 10.0 * pos_std
    return mean, np.diag(np.square(np.concatenate([pos_std, vel_std])))


def _kf_predict(mean, cov):
    h = mean[3]
    std = np.array(
        [_PS * h, _PS * h, 1e-2, _PS * h, _VS * h, _VS * h, 1e-5, _VS * h]
    )
    return _F @ mean, _sym(_F @ cov @ _F.T + np.diag(np.square(std)))


def _kf_update(mean, cov, det):
    z = np.array(_xyah(*det[:4]))
    h = mean[3]
    r = np.diag(np.square(np.array([_PS * h, _PS * h, 1e-1, _PS * h])))
    s = _H @ cov @ _H.T + r
    gain = np.linalg.solve(s.T, (cov @ _H.T).T).T
    mean = mean + gain @ (z - _H @ mean)
    ikh = np.eye(8) - gain @ _H
    return mean, _sym(ikh @ cov @ ikh.T + gain @ r @ gain.T)


# ---------------------------------------------------------------- tracker


def _assign(m: np.ndarray):
    """Gated maximum-IoU assignment -> (sorted matches, unmatched dets, unmatched tracks)."""
    n, k = m.shape
    if n == 0 or k == 0:
        return [], list(range(n)), list(range(k))
    feasible = m >= TAU_IOU
    size = max(n, k)
    cost = np.zeros((size, size))
    cost[:n, :k][feasible] = -m[feasible]
    cost[:n, :k] += (np.arange(n)[:, None] * k + np.arange(k)[None, :]) * (
        1e-10 / (n * k)
    )
    rows, cols = linear_sum_assignment(cost)
    matches = sorted(
        (int(i), int(j)) for i, j in zip(rows, cols) if i < n and j < k and feasible[i, j]
    )
    md = {i for i, _ in matches}
    mt = {j for _, j in matches}
    return matches, [i for i in range(n) if i not in md], [j for j in range(k) if j not in mt]


class _Track:
    __slots__ = ("tid", "mean", "cov", "cls", "conf", "agg", "recent", "streak", "since", "status")

    def __init__(self, tid, det):
        self.tid = tid
        self.mean, self.cov = _kf_init(det)
        self.cls, self.conf = det[4], det[5]
        self.agg = min(max(det[5], 0.0), 1.0 - EPSILON)
        self.recent = [det[5]]
        self.streak, self.since = 1, 0
        self.status = "confirmed" if self.streak >= TAU_INIT else "tentative"

    def matched(self, det):
        self.mean, self.cov = _kf_update(self.mean, self.cov, det)
        cls, conf = det[4], det[5]
        agg, new_cls, switched = self.agg, self.cls, False
        if cls == self.cls:
            agg = 1.0 - (1.0 - agg) * (1.0 - conf)
        elif agg < conf:
            new_cls, agg, switched = cls, conf, True
        else:
            agg = max(1.0 - (1.0 - agg) / (1.0 - conf), 0.0)
            if agg < conf:
                new_cls, agg, switched = cls, conf, True
        self.recent = [conf] if switched else (self.recent + [conf])[-HISTORY_LEN:]
        self.cls = new_cls
        self.conf = sum(self.recent) / len(self.recent)
        self.agg = min(agg, 1.0 - EPSILON)
        self.streak += 1
        self.since = 0
        if self.status == "tentative" and self.streak >= TAU_INIT:
            self.status = "confirmed"

    def missed(self):
        self.streak = 0
        self.since += 1
        if self.status == "tentative" or self.since >= TAU_DEAD:
            self.status = "removed"


def track(frames):
    """Two-pass tracker -> {frame: [(id, box, class, conf)]} sorted by id.

    Confirmed tracks are emitted every frame, coasted ones included.
    """
    tracks: list[_Track] = []
    next_id = 0
    out = {}
    for index, dets in frames:
        for t in tracks:
            t.mean, t.cov = _kf_predict(t.mean, t.cov)
        high = [d for d in dets if d[5] >= HIGH]
        rem = [d for d in dets if LOW <= d[5] < HIGH]
        boxes = [_box(t.mean) for t in tracks]
        first, new_dets, left = _assign(iou_matrix([d[:4] for d in high], boxes))
        for di, tj in first:
            tracks[tj].matched(high[di])
        second, _, _ = _assign(iou_matrix([d[:4] for d in rem], [boxes[j] for j in left]))
        for di, tj in second:
            tracks[left[tj]].matched(rem[di])
        hit = {tj for _, tj in first} | {left[tj] for _, tj in second}
        for j, t in enumerate(tracks):
            if j not in hit:
                t.missed()
        for di in new_dets:
            tracks.append(_Track(next_id, high[di]))
            next_id += 1
        out[index] = [
            (t.tid, _box(t.mean), t.cls, t.conf) for t in tracks if t.status == "confirmed"
        ]
        tracks = [t for t in tracks if t.status != "removed"]
    return out


def interleave(full, low, P: int):
    """Frame t from the full-resolution list when t % (P + 1) == 0."""
    return [f if f[0] % (P + 1) == 0 else lo for f, lo in zip(full, low)]


def mean_mac(P: int) -> tuple[float, float]:
    rho = 1.0 / (1.0 + P)
    mean = rho * MAC_FULL + (1.0 - rho) * MAC_LOW
    return mean, 1.0 - mean / MAC_FULL


# ---------------------------------------------------------------- evaluation


def _flags(dets, gts):
    """Greedy TP flags for confidence-sorted dets; each GT claimed once."""
    if not dets or not gts:
        return [False] * len(dets)
    m = iou_matrix([d[:4] for d in dets], [g[:4] for g in gts])
    gcls = np.array([g[4] for g in gts])
    free = np.ones(len(gts), dtype=bool)
    flags = []
    for i, d in enumerate(dets):
        row = np.where(free & (gcls == d[4]), m[i], -1.0)
        j = int(np.argmax(row))
        ok = bool(row[j] > IOU_GATE)
        if ok:
            free[j] = False
        flags.append(ok)
    return flags


def _ranked(dets_by_frame, gts_by_frame):
    """Per class: (conf, frame, rank, flag) records and GT counts, at threshold 0."""
    records: dict[int, list] = {}
    n_gt: dict[int, int] = {}
    for key in sorted(set(dets_by_frame) | set(gts_by_frame)):
        gts = gts_by_frame.get(key, [])
        for g in gts:
            n_gt[g[4]] = n_gt.get(g[4], 0) + 1
        dets = sorted(dets_by_frame.get(key, []), key=lambda d: -d[5])
        for rank, (d, f) in enumerate(zip(dets, _flags(dets, gts))):
            records.setdefault(d[4], []).append((d[5], key, rank, f))
    for recs in records.values():
        recs.sort(key=lambda r: (-r[0], r[1], r[2]))
    return records, n_gt


def _class_row(tp: int, fp: int, n_gt: int):
    fn = n_gt - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, fn


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def evaluate(dets_by_frame, gts_by_frame, threshold: float = 0.0) -> dict:
    """Report in the layout of `mrtrack eval --out` at a fixed threshold.

    `dets_by_frame` maps frame -> [(x1, y1, x2, y2, class, conf)], and
    `gts_by_frame` maps frame -> [(x1, y1, x2, y2, class)].
    """
    kept = {k: [d for d in v if d[5] >= threshold] for k, v in dets_by_frame.items()}
    records, n_gt = _ranked(kept, gts_by_frame)
    per_class = {}
    for cls in sorted(set(records) | set(n_gt)):
        flags = np.array([r[3] for r in records.get(cls, [])], dtype=float)
        gt = n_gt.get(cls, 0)
        tp = int(flags.sum())
        precision, recall, f1, fn = _class_row(tp, len(flags) - tp, gt)
        ap = 0.0
        if gt > 0 and len(flags):
            ctp = np.cumsum(flags)
            prec = ctp / (ctp + np.cumsum(1.0 - flags))
            env = np.maximum.accumulate(prec[::-1])[::-1]
            ap = float(np.sum(np.diff(ctp / gt, prepend=0.0) * env))
        per_class[str(cls)] = {
            "ap": ap, "precision": precision, "recall": recall, "f1": f1,
            "tp": tp, "fp": len(flags) - tp, "fn": fn,
        }
    rows = per_class.values()
    return {
        "threshold": threshold,
        "map": _mean([r["ap"] for r in rows]),
        "mean_precision": _mean([r["precision"] for r in rows]),
        "mean_recall": _mean([r["recall"] for r in rows]),
        "mean_f1": _mean([r["f1"] for r in rows]),
        "per_class": per_class,
    }


def f1max(dets_by_frame, gts_by_frame) -> dict:
    """Report at the grid threshold maximising mean F1 (ties to the higher one)."""
    top = 1.0 - EPSILON
    grid, k = [], 0
    while round(k * GRID_STEP, 12) < top:
        grid.append(round(k * GRID_STEP, 12))
        k += 1
    grid.append(top)

    records, n_gt = _ranked(dets_by_frame, gts_by_frame)
    # per class: ascending confidences, and TP counts of each ranked prefix
    scans = {
        cls: (
            np.array([r[0] for r in recs])[::-1],
            np.concatenate(([0], np.cumsum([r[3] for r in recs]))),
        )
        for cls, recs in records.items()
    }
    classes = sorted(set(records) | set(n_gt))
    best_thr, best_f1 = None, -1.0
    for thr in grid:
        f1s = []
        for cls in classes:
            kept = tp = 0
            if cls in scans:
                conf, prefix_tp = scans[cls]
                kept = len(conf) - int(np.searchsorted(conf, thr, side="left"))
                tp = int(prefix_tp[kept])
            if kept == 0 and n_gt.get(cls, 0) == 0:
                continue
            f1s.append(_class_row(tp, kept - tp, n_gt.get(cls, 0))[2])
        mean_f1 = _mean(f1s)
        if mean_f1 >= best_f1:
            best_thr, best_f1 = thr, mean_f1
    return evaluate(dets_by_frame, gts_by_frame, best_thr)
