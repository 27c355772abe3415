"""IoU cost matrices and gated optimal one-to-one matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Detection
from .tracks import Track


@dataclass(frozen=True)
class MatchResult:
    """Partition of detection and tracker indices into matches and leftovers."""

    matches: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_trackers: tuple[int, ...]


def iou_matrix(dets: Sequence[Detection], tracks: Sequence[Track]) -> np.ndarray:
    """N x M matrix of IoU between detection boxes and current track boxes.

    Matching is class-agnostic: IoU alone decides association and the
    rescoring step resolves class conflicts afterwards. Each entry equals
    ``core.iou(det.bbox, track.current_box())`` bit for bit: the track
    corners come from the Kalman means by the arithmetic of
    ``core.cxcyah_to_bbox`` and the IoU by that of ``core.iou``, broadcast.
    """
    if not dets or not tracks:
        # the second pass often has nothing on one side; skip the array set-up
        return np.zeros((len(dets), len(tracks)))
    d = np.array([det.bbox.as_tuple() for det in dets])
    cx, cy, a, h = np.array([t.kf_state.mean[:4] for t in tracks]).T
    h = np.maximum(h, 0.0)
    w = np.maximum(a, 0.0) * h
    tx1, ty1, tx2, ty2 = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    dx1, dy1, dx2, dy2 = (col[:, None] for col in d.T)

    iw = np.maximum(0.0, np.minimum(dx2, tx2) - np.maximum(dx1, tx1))
    ih = np.maximum(0.0, np.minimum(dy2, ty2) - np.maximum(dy1, ty1))
    inter = iw * ih
    union = (dx2 - dx1) * (dy2 - dy1) + (tx2 - tx1) * (ty2 - ty1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def match(cost_matrix: np.ndarray, tau_iou: float) -> MatchResult:
    """Maximum-total-IoU one-to-one assignment with a hard IoU gate.

    Pairs with IoU below ``tau_iou`` are never matched, and an entity stays
    unmatched whenever that raises the total (the solver runs on a
    square-padded reward matrix where gated and padded cells contribute
    zero, so it never trades a strong pair for match cardinality). Among
    assignments with equal total IoU, a tiny index-based perturbation
    deterministically prefers low (detection, tracker) index pairs.
    """
    n, m = cost_matrix.shape
    if n == 0 or m == 0:
        return MatchResult((), tuple(range(n)), tuple(range(m)))
    # imported here so that commands which never match skip scipy's start-up
    from scipy.optimize import linear_sum_assignment

    feasible = cost_matrix >= tau_iou
    size = max(n, m)
    cost = np.zeros((size, size))
    cost[:n, :m][feasible] = -cost_matrix[feasible]
    bias = (np.arange(n)[:, None] * m + np.arange(m)[None, :]) * (1e-10 / (n * m))
    cost[:n, :m] += bias
    rows, cols = linear_sum_assignment(cost)

    matches = sorted(
        (int(i), int(j))
        for i, j in zip(rows, cols)
        if i < n and j < m and feasible[i, j]
    )
    matched_d = {i for i, _ in matches}
    matched_t = {j for _, j in matches}
    return MatchResult(
        tuple(matches),
        tuple(i for i in range(n) if i not in matched_d),
        tuple(j for j in range(m) if j not in matched_t),
    )
