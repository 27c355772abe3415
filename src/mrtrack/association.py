"""IoU cost matrices of detections against track boxes (corner rows, which
the tracker computes once per frame), and gated optimal one-to-one matching."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import Detection

if TYPE_CHECKING:
    import numpy as np


class MatchResult(NamedTuple):
    """Partition of detection and tracker indices into matches and leftovers."""

    matches: tuple[tuple[int, int], ...]
    unmatched_detections: tuple[int, ...]
    unmatched_trackers: tuple[int, ...]


# builds a record from one tuple of its values; MatchResult has no checks
_record = tuple.__new__


# The one size rule of both association steps: a frame of at most this many
# detection-track pairs takes the plain-Python path of ``iou_matrix``
# (``_iou_scalar``) and of ``match`` (``_best_scalar``), a larger one the
# numpy path (``_iou_broadcast``, ``_best_numpy``). numpy's paths pay a fixed
# set-up cost per call that the loops skip; the loops pay per pair. Replaying
# the benchmark workloads' calls and all-overlap frames (2-vCPU x86 host,
# median us per call), ``iou_matrix``: 1-16 pairs 4-16 against 56-66, 64
# pairs 32-40 against 69-70, 100-144 pairs 50-67 against 72-73, 225-400
# pairs 104-133 against 79-80; 64 keeps the loop under 0.6x the broadcast's
# time even when every pair overlaps. ``match``'s best-tracker step, two
# replays: 1-16 pairs 1.2-4.1 against 9.0-10.3, 64 pairs 5.3-8.7 against
# 6.4-11.8, 6.2-7.7 against 6.2-10.0 when every pair is feasible; so 64
# holds for both functions.
SCALAR_MAX_CELLS = 64


def iou_matrix(dets: Sequence[Detection], boxes: Sequence[tuple]) -> np.ndarray:
    """N x M matrix of IoU between detection boxes and track boxes.

    ``boxes`` holds one (x1, y1, x2, y2) row per track, unclamped: the
    tracker passes ``kalman.state_corners`` of each predicted state.
    Matching is class-agnostic: IoU alone decides association and the
    rescoring step resolves class conflicts afterwards. Each entry is
    computed by the arithmetic of ``core.iou``, in its order, so for a row
    inside [-MAX_COORDINATE, MAX_COORDINATE] it equals
    ``core.iou(det.bbox, kalman.state_bbox(state))`` bit for bit.

    Two paths compute it, chosen by the frame's size: a frame of at most
    ``SCALAR_MAX_CELLS`` (64) detection-track pairs takes a plain loop
    (``_iou_scalar``), which skips numpy's fixed per-call cost, and a larger
    one a numpy broadcast (``_iou_broadcast``); the constant's comment holds
    the timings it was set from. The contract above holds on both: they do
    the same float64 operations in the same order, and a pair with no
    intersection or no positive union scores zero.
    """
    import numpy as np

    if not dets or not boxes:
        # a frame with no tracks, or no detections, needs no array set-up
        return np.zeros((len(dets), len(boxes)))
    if len(dets) * len(boxes) <= SCALAR_MAX_CELLS:
        return _iou_scalar(dets, boxes)
    return _iou_broadcast(dets, boxes)


def _iou_scalar(dets: Sequence[Detection], boxes: Sequence[tuple]) -> np.ndarray:
    """``iou_matrix`` by a loop over pairs."""
    import numpy as np

    table = [(x1, y1, x2, y2, (x2 - x1) * (y2 - y1)) for x1, y1, x2, y2 in boxes]
    flat = []  # the matrix row by row
    for det in dets:
        x1, y1, x2, y2 = det.bbox
        area = (x2 - x1) * (y2 - y1)
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
                        flat.append(inter / union)
                        continue
            flat.append(0.0)
    return np.fromiter(flat, float, len(flat)).reshape(len(dets), len(boxes))


def _iou_broadcast(dets: Sequence[Detection], boxes: Sequence[tuple]) -> np.ndarray:
    """``iou_matrix`` by numpy broadcasting over the whole frame."""
    import numpy as np

    n, m = len(dets), len(boxes)
    d = np.fromiter(chain.from_iterable(det.bbox for det in dets), float, 4 * n)
    t = np.fromiter(chain.from_iterable(boxes), float, 4 * m)
    tx1, ty1, tx2, ty2 = t.reshape(m, 4).T
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

    The best trackers come from a plain loop over the rows' Python floats
    (``_best_scalar``) for a frame of at most ``SCALAR_MAX_CELLS`` (64)
    pairs, which skips numpy's fixed per-call cost, and from numpy
    (``_best_numpy``) for a larger one; both give the same choice, a NaN
    entry never feasible. The feasibility array the components need is
    built only when two detections want the same tracker.

    Every part of the result is in ascending order, and it is assembled
    once: one set of the chosen trackers serves both the conflict test and
    ``unmatched_trackers``, and as both helpers give the detections in
    ascending order, the matches are re-sorted, and the set rebuilt, only
    after a component solve has rewritten them.

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
    n, m = cost_matrix.shape
    if n == 0 or m == 0:
        return _record(MatchResult, ((), tuple(range(n)), tuple(range(m))))
    if n * m <= SCALAR_MAX_CELLS:
        chosen = _best_scalar(cost_matrix, tau_iou)
    else:
        chosen = _best_numpy(cost_matrix, tau_iou)
    matched_t = set(chosen.values())
    if len(matched_t) < len(chosen):
        feasible = cost_matrix >= tau_iou
        wanted = Counter(chosen.values())
        contested = [i for i, j in chosen.items() if wanted[j] > 1]
        for rows, cols in _components(feasible, contested):
            for i in rows:
                del chosen[i]
            chosen.update(_solve_component(cost_matrix, tau_iou, rows, cols))
        # the solves appended their pairs; the helpers filled rows in order
        chosen = dict(sorted(chosen.items()))
        matched_t = set(chosen.values())

    # a side whose indices are all matched skips its scan
    return _record(MatchResult, (
        tuple(chosen.items()),
        tuple([i for i in range(n) if i not in chosen]) if len(chosen) < n else (),
        tuple([j for j in range(m) if j not in matched_t]) if len(matched_t) < m else (),
    ))


def _best_scalar(cost_matrix: np.ndarray, tau_iou: float) -> dict[int, int]:
    """Each detection with a feasible pair -> its best tracker, by a loop over rows."""
    chosen = {}
    for i, row in enumerate(cost_matrix.tolist()):
        best, top = -1, tau_iou
        for j, v in enumerate(row):
            # NaN fails ``>=``; ``>`` keeps the lowest index of a tied best
            if v >= tau_iou and (best < 0 or v > top):
                best, top = j, v
        if best >= 0:
            chosen[i] = best
    return chosen


def _best_numpy(cost_matrix: np.ndarray, tau_iou: float) -> dict[int, int]:
    """``_best_scalar`` by numpy: argmax takes the lowest index of a tied best."""
    import numpy as np

    feasible = cost_matrix >= tau_iou
    best = np.where(feasible, cost_matrix, -np.inf).argmax(axis=1).tolist()
    live = feasible.any(axis=1).tolist()
    return {i: j for i, (j, ok) in enumerate(zip(best, live)) if ok}


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
