"""IoU cost matrices and gated optimal one-to-one matching."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import Detection
from .tracks import Track

if TYPE_CHECKING:
    import numpy as np


class MatchResult(NamedTuple):
    """Partition of detection and tracker indices into matches and leftovers."""

    matches: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_trackers: tuple[int, ...]


# Frames of at most this many detection-track pairs take ``_iou_scalar``,
# larger ones ``_iou_broadcast``. The broadcast's ~20 numpy calls cost a
# fixed ~55 us; the loop costs ~0.3-0.6 us a pair, more when more pairs
# overlap. Replaying the benchmark workloads' calls and all-overlap frames
# through both (2-vCPU x86 host, median us per call): 1-16 pairs 4-16
# against 56-66, 64 pairs 32-40 against 69-70, 100-144 pairs 50-67 against
# 72-73, 225-400 pairs 104-133 against 79-80. 64 keeps the loop under 0.6x
# the broadcast's time even when every pair overlaps.
SCALAR_MAX_CELLS = 64


def iou_matrix(dets: Sequence[Detection], tracks: Sequence[Track]) -> np.ndarray:
    """N x M matrix of IoU between detection boxes and current track boxes.

    Matching is class-agnostic: IoU alone decides association and the
    rescoring step resolves class conflicts afterwards. For a track box
    inside [-MAX_COORDINATE, MAX_COORDINATE], each entry equals
    ``core.iou(det.bbox, track.current_box())`` bit for bit: the track
    corners come from the Kalman means by the arithmetic of
    ``core.cxcyah_to_bbox``, without its clamp to that range, and the IoU
    by that of ``core.iou``.

    Two paths compute it, chosen by the frame's size: a frame of at most
    ``SCALAR_MAX_CELLS`` (64) detection-track pairs takes a plain loop
    (``_iou_scalar``), which skips numpy's fixed per-call cost, and a larger
    one a numpy broadcast (``_iou_broadcast``); the constant's comment holds
    the timings it was set from. The contract above holds on both: they do
    the same float64 operations in the same order, and a pair with no
    intersection or no positive union scores zero.
    """
    import numpy as np

    if not dets or not tracks:
        # the second pass often has nothing on one side; skip the array set-up
        return np.zeros((len(dets), len(tracks)))
    if len(dets) * len(tracks) <= SCALAR_MAX_CELLS:
        return _iou_scalar(dets, tracks)
    return _iou_broadcast(dets, tracks)


def _iou_scalar(dets: Sequence[Detection], tracks: Sequence[Track]) -> np.ndarray:
    """``iou_matrix`` by a loop over pairs, from one (corners, area) row per track."""
    import numpy as np

    table = []
    for t in tracks:
        cx, cy, a, h = t.kf_state[:4]
        h = 0.0 if h < 0.0 else h
        w = (0.0 if a < 0.0 else a) * h
        x1, y1, x2, y2 = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
        table.append((x1, y1, x2, y2, (x2 - x1) * (y2 - y1)))
    rows = []
    for det in dets:
        # float() is exact for numpy.float64, which synth's boxes hold, and
        # keeps the loop off numpy's slow scalar arithmetic
        x1, y1, x2, y2 = map(float, det.bbox)
        area = (x2 - x1) * (y2 - y1)
        row = []
        for tx1, ty1, tx2, ty2, t_area in table:
            # min() and max() written out, which is the same choice (signed
            # zeros included) without two calls per pair
            iw = (tx2 if tx2 < x2 else x2) - (tx1 if tx1 > x1 else x1)
            if iw > 0.0:
                ih = (ty2 if ty2 < y2 else y2) - (ty1 if ty1 > y1 else y1)
                if ih > 0.0:
                    inter = iw * ih
                    union = area + t_area - inter
                    if union > 0.0:  # false for NaN, as the broadcast's gate
                        row.append(inter / union)
                        continue
            row.append(0.0)
        rows.append(row)
    return np.array(rows)


def _iou_broadcast(dets: Sequence[Detection], tracks: Sequence[Track]) -> np.ndarray:
    """``iou_matrix`` by numpy broadcasting over the whole frame."""
    import numpy as np

    n, m = len(dets), len(tracks)
    d = np.fromiter(chain.from_iterable(det.bbox for det in dets), float, 4 * n)
    means = np.fromiter(chain.from_iterable(t.kf_state[:4] for t in tracks), float, 4 * m)
    cx, cy, a, h = means.reshape(m, 4).T
    h = np.maximum(h, 0.0)
    w = np.maximum(a, 0.0) * h
    tx1, ty1, tx2, ty2 = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    dx1, dy1, dx2, dy2 = (col[:, None] for col in d.reshape(n, 4).T)

    iw = np.maximum(0.0, np.minimum(dx2, tx2) - np.maximum(dx1, tx1))
    ih = np.maximum(0.0, np.minimum(dy2, ty2) - np.maximum(dy1, ty1))
    inter = iw * ih
    union = (dx2 - dx1) * (dy2 - dy1) + (tx2 - tx1) * (ty2 - ty1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def match(cost_matrix: np.ndarray, tau_iou: float) -> MatchResult:
    """Maximum-total-IoU one-to-one assignment with a hard IoU gate.

    Pairs with IoU below ``tau_iou`` are never matched, and an entity stays
    unmatched whenever that raises the total: gated pairs count zero, so no
    strong pair is traded for match cardinality.

    The solver is exact. Each detection with a feasible pair first takes its
    best tracker. If no two detections want the same tracker, that reaches
    the sum of the row maxima, which bounds every matching from above, so it
    is optimal. Otherwise the optimum splits over the connected components of
    the feasible pairs: a component holding detections that want the same
    tracker is solved by a shortest augmenting path (``_assign``) on its
    square-padded cost block, and every other detection keeps its best
    tracker.

    Ties are broken by index. A detection whose best IoU is shared by several
    trackers wants the lowest-index one. Inside a solved component the costs
    carry a perturbation of ``(i * m + j) * 1e-10 / (n * m)``, which prefers
    low (detection, tracker) index pairs among assignments of equal total;
    what it leaves tied (a sum of perturbations is the same for every full
    assignment of a square block), the augmenting path settles, serving
    detections and scanning trackers in index order. The result is
    deterministic, and small all-equal blocks match on their diagonal, but
    on exactly tied optima it may differ from other exact solvers.

    Cost: a component of k mutually overlapping detections and trackers takes
    O(k^3) Python steps: 12-20 ms for a 100 x 100 all-feasible matrix on a
    2-vCPU x86 host, where a compiled solver takes under 1 ms. Tracker frames
    give components of at most about a dozen, most of them a single pair.
    """
    import numpy as np

    n, m = cost_matrix.shape
    if n == 0 or m == 0:
        return MatchResult((), tuple(range(n)), tuple(range(m)))
    feasible = cost_matrix >= tau_iou
    best = np.where(feasible, cost_matrix, -np.inf).argmax(axis=1).tolist()
    live = feasible.any(axis=1).tolist()
    chosen = {i: j for i, (j, ok) in enumerate(zip(best, live)) if ok}
    if len(set(chosen.values())) < len(chosen):
        wanted = Counter(chosen.values())
        contested = [i for i, j in chosen.items() if wanted[j] > 1]
        for rows, cols in _components(feasible, contested):
            for i in rows:
                del chosen[i]
            chosen.update(_solve_component(cost_matrix, tau_iou, rows, cols))

    matches = sorted(chosen.items())
    matched_t = set(chosen.values())
    return MatchResult(
        tuple(matches),
        tuple(i for i in range(n) if i not in chosen),
        tuple(j for j in range(m) if j not in matched_t),
    )


def _components(
    feasible: np.ndarray, seeds: list[int]
) -> list[tuple[list[int], list[int]]]:
    """(rows, cols) of each connected component of feasible pairs holding a seed row."""
    components, seen = [], set()
    for seed in seeds:
        if seed in seen:
            continue
        rows, found, cols = [seed], {seed}, set()
        for i in rows:  # breadth-first: rows appended below are visited in turn
            for j in feasible[i].nonzero()[0].tolist():
                if j not in cols:
                    cols.add(j)
                    new = set(feasible[:, j].nonzero()[0].tolist()) - found
                    found |= new
                    rows += new
        seen |= found
        components.append((sorted(found), sorted(cols)))
    return components


def _solve_component(
    cost_matrix: np.ndarray, tau_iou: float, rows: list[int], cols: list[int]
) -> list[tuple[int, int]]:
    """Optimal feasible pairs within one component, as global (row, col) indices."""
    n, m = cost_matrix.shape
    scale = 1e-10 / (n * m)
    block = cost_matrix[rows][:, cols]
    gate = (block >= tau_iou).tolist()
    size = max(len(rows), len(cols))
    pad = [0.0] * (size - len(cols))
    cost = [
        [
            (-x if ok else 0.0) + (i * m + j) * scale
            for j, x, ok in zip(cols, values, gates)
        ] + pad
        for i, values, gates in zip(rows, block.tolist(), gate)
    ]
    cost += [[0.0] * size for _ in range(size - len(rows))]
    return [
        (rows[a], cols[b])
        for a, b in enumerate(_assign(cost)[: len(rows)])
        if b < len(cols) and gate[a][b]
    ]


def _assign(cost: list[list[float]]) -> list[int]:
    """Minimum-cost perfect assignment of a square matrix -> column of each row.

    Shortest augmenting paths with row and column potentials (the
    Jonker-Volgenant family). Seeded the Jonker-Volgenant way: each row's
    potential is its minimum cost, and a row whose first minimum no other
    row shares starts assigned to it, so only the other rows augment.
    """
    k = len(cost)
    u = [min(row) for row in cost]
    v = [0.0] * k
    first = [row.index(low) for row, low in zip(cost, u)]
    col_of = [j if first.count(j) == 1 else -1 for j in first]
    row_of = [-1] * k
    for i, j in enumerate(col_of):
        if j >= 0:
            row_of[j] = i
    for start in range(k):
        if col_of[start] >= 0:
            continue
        # Dijkstra over columns on reduced costs, which the potentials keep >= 0
        dist, via = [math.inf] * k, [-1] * k
        todo, scanned = list(range(k)), []
        i, d = start, 0.0
        while True:
            row, ui = cost[i], u[i]
            for j in todo:
                reduced = d + row[j] - ui - v[j]
                if reduced < dist[j]:
                    dist[j], via[j] = reduced, i
            j = min(todo, key=dist.__getitem__)
            todo.remove(j)
            if row_of[j] < 0:
                break
            scanned.append(j)
            i, d = row_of[j], dist[j]
        total = dist[j]
        u[start] += total
        for s in scanned:
            v[s] -= total - dist[s]
            u[row_of[s]] += total - dist[s]
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of
