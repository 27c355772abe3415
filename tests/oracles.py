"""Independent reference implementations used as test oracles.

Deliberately primitive: enumerative or step-by-step transliterations kept
separate from the production code paths they check.
"""

from itertools import permutations

import numpy as np

from mrtrack.association import MatchResult
from mrtrack.evaluation import ClassMetrics, MetricsReport


def brute_force_assignment_value(matrix, tau):
    """Maximum total IoU over all gated one-to-one assignments.

    Pads to a square weight matrix where gated pairs contribute zero, then
    maximizes over all full permutations; any partial gated matching is the
    feasible subset of some permutation, so the optima coincide.
    """
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    size = max(n, m)
    w = [[0.0] * size for _ in range(size)]
    for i in range(n):
        for j in range(m):
            if matrix[i][j] >= tau:
                w[i][j] = matrix[i][j]
    best = 0.0
    for perm in permutations(range(size)):
        total = sum(w[i][perm[i]] for i in range(size))
        if total > best:
            best = total
    return best


def subset_assignment_value(matrix, tau):
    """``brute_force_assignment_value`` for ``tau > 0``, enumerated over sets
    of used trackers instead of permutations: row by row, the best total of
    every set of trackers the rows so far can take (a row may take none).
    O(n * m * 2^m) in place of O(size! * size), so 9 x 9 stays cheap.
    """
    best = {0: 0.0}  # bit mask of the trackers taken -> best total
    for row in matrix:
        grown = dict(best)  # this row left unmatched
        for used, total in best.items():
            for j, v in enumerate(row):
                if v >= tau and not used >> j & 1:
                    key = used | 1 << j
                    if key not in grown or total + v > grown[key]:
                        grown[key] = total + v
        best = grown
    return max(best.values())


def lsap_match_oracle(cost_matrix, tau_iou):
    """Gated maximum-IoU assignment solved by scipy's linear_sum_assignment.

    Pads to a square cost matrix where gated and padded cells cost zero,
    adds the index perturbation ``(i * m + j) * 1e-10 / (n * m)`` and keeps
    the feasible pairs of the optimal permutation: the solver mrtrack's own
    ``association.match`` replaced, kept as its reference.
    """
    from scipy.optimize import linear_sum_assignment

    n, m = cost_matrix.shape
    if n == 0 or m == 0:
        return MatchResult((), tuple(range(n)), tuple(range(m)))

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


def rescore_oracle_step(cl_j, conf_agg, history, cl_i, conf_i,
                        eps=1e-4, hist_len=3):
    """One fusion update, transliterated step by step from the update rules."""
    switched = False
    if cl_j == cl_i:
        conf_agg = 1.0 - (1.0 - conf_i) * (1.0 - conf_agg)
    else:
        if conf_agg < conf_i:
            cl_j = cl_i
            conf_agg = conf_i
            switched = True
        else:
            conf_agg = 1.0 - (1.0 - conf_agg) / (1.0 - conf_i)
            conf_agg = max(conf_agg, 0.0)
            if conf_agg < conf_i:
                cl_j = cl_i
                conf_agg = conf_i
                switched = True
    if switched:
        history = [conf_i]
    else:
        history = (list(history) + [conf_i])[-hist_len:]
    conf_j = sum(history) / len(history)
    conf_agg = min(conf_agg, 1.0 - eps)
    return cl_j, conf_j, conf_agg, history, switched


def average_precision_oracle(flags, n_gt):
    """All-point interpolated AP with numpy prefix sums over every rank.

    The numpy form ``evaluation.average_precision`` had before it ran in
    pure Python over the TP ranks; the same additions in the same order.
    """
    if n_gt <= 0 or len(flags) == 0:
        return 0.0
    flags_arr = np.asarray(flags, dtype=float)
    tp = np.cumsum(flags_arr)
    fp = np.cumsum(1.0 - flags_arr)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def grid_counts_oracle(records, grid):
    """(kept, TP) per grid threshold by ``np.searchsorted`` over the ascending
    confidences and a numpy TP prefix sum."""
    ascending = np.array([r[0] for r in reversed(records)])
    prefix_tp = np.cumsum([0] + [r[1] for r in records])
    kept = len(records) - np.searchsorted(ascending, grid, side="left")
    return list(zip(kept.tolist(), prefix_tp[kept].tolist()))


def iou_oracle(a, b):
    """IoU of two corner boxes from their coordinates; 0.0 for an empty union."""
    ax1, ay1, ax2, ay2 = a.as_tuple()
    bx1, by1, bx2, by2 = b.as_tuple()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


def match_flags_oracle(dets, gts):
    """TP flag per detection, in the given order, by the greedy rule: each
    claims the unclaimed ground truth of its class with the highest IoU (the
    first on ties) when that IoU exceeds the VOC gate of 0.5."""
    claimed, flags = set(), []
    for d in dets:
        candidates = [(iou_oracle(d.bbox, box), -j) for j, (box, cls) in enumerate(gts)
                      if cls == d.class_id and j not in claimed]
        best, neg_j = max(candidates, default=(0.0, None))
        flags.append(best > 0.5)
        if flags[-1]:
            claimed.add(-neg_j)
    return flags


def evaluate_oracle(dets_by_frame, gts_by_frame, threshold):
    """The report at ``threshold`` by filter-then-match: detections below the
    threshold are dropped before any frame is ranked and matched, and a class
    is scored when it has ground truth or a kept detection.

    The reference for ``evaluation.evaluate``, which instead cuts a prefix
    of each class's ranking in a table matched once at threshold 0. It
    matches with ``match_flags_oracle`` and scores AP with
    ``average_precision_oracle``, none of the code it checks.
    """
    records, n_gt = {}, {}
    for key in sorted(set(dets_by_frame) | set(gts_by_frame)):
        gts = list(gts_by_frame.get(key, ()))
        for _, gcls in gts:
            n_gt[gcls] = n_gt.get(gcls, 0) + 1
        kept = [d for d in dets_by_frame.get(key, ()) if d.conf >= threshold]
        dets = sorted(kept, key=lambda d: -d.conf)
        for d, f in zip(dets, match_flags_oracle(dets, gts)):
            records.setdefault(d.class_id, []).append((d.conf, f))
    per_class = {}
    for cls in sorted(set(records) | set(n_gt)):
        flags = [f for _, f in sorted(records.get(cls, []), key=lambda r: -r[0])]
        gt_count = n_gt.get(cls, 0)
        tp = sum(flags)
        fp = len(flags) - tp
        fn = gt_count - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = ClassMetrics(
            average_precision_oracle(flags, gt_count), precision, recall, f1, tp, fp, fn
        )

    def mean(name):
        values = [getattr(m, name) for m in per_class.values()]
        return sum(values) / len(values) if values else 0.0

    return MetricsReport(per_class, mean("ap"), mean("precision"), mean("recall"),
                         mean("f1"), threshold)


def f1_sweep_oracle(dets_by_frame, gts_by_frame, grid):
    """Exhaustive grid sweep of ``evaluate_oracle``; later (higher) thresholds
    win ties."""
    best_thr, best_f1 = None, -1.0
    for thr in grid:
        f1 = evaluate_oracle(dets_by_frame, gts_by_frame, thr).mean_f1
        if f1 >= best_f1:
            best_thr, best_f1 = thr, f1
    return best_thr, best_f1


# Constant-velocity Kalman filter written as one 8x8 linear system over
# (cx, cy, a, h, vcx, vcy, va, vh): the reference for mrtrack.kalman, which
# runs the same filter as four 2-state blocks.
_F8 = np.eye(8)
for _i in range(4):
    _F8[_i, 4 + _i] = 1.0
_H8 = np.eye(4, 8)


def _cxcyah(box):
    x1, y1, x2, y2 = box
    h = y2 - y1
    if h <= 0.0:
        raise ValueError(f"degenerate box with zero height: {box}")
    return np.array([(x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / h, h])


def covariance(state):
    """The full 8x8 covariance of a ``KalmanState``, assembled from its blocks."""
    cov = np.zeros((8, 8))
    for i in range(4):
        cov[i, i] = getattr(state, f"p{i}")
        cov[i, 4 + i] = cov[4 + i, i] = getattr(state, f"c{i}")
        cov[4 + i, 4 + i] = getattr(state, f"v{i}")
    return cov


def kf8_init(box, ps=1.0 / 20):
    """(mean, covariance) of a filter started at a corner box, zero velocity."""
    z = _cxcyah(box)
    h = z[3]
    pos_std = np.array([2 * ps * h, 2 * ps * h, 1e-2, 2 * ps * h])
    std = np.concatenate([pos_std, 10.0 * pos_std])
    return np.concatenate([z, np.zeros(4)]), np.diag(np.square(std))


def kf8_predict(mean, cov, ps=1.0 / 20, vs=1.0 / 160):
    """One constant-velocity frame: F x and F P F^T + Q, symmetrised."""
    h = mean[3]
    std = np.array([ps * h, ps * h, 1e-2, ps * h, vs * h, vs * h, 1e-5, vs * h])
    cov = _F8 @ cov @ _F8.T + np.diag(np.square(std))
    return _F8 @ mean, (cov + cov.T) / 2.0


def kf8_update(mean, cov, box, ps=1.0 / 20):
    """Correct the observed position with a corner box; Joseph-form covariance."""
    z = _cxcyah(box)
    h = mean[3]
    meas_cov = np.diag(np.square([ps * h, ps * h, 1e-1, ps * h]))
    projected = _H8 @ cov @ _H8.T + meas_cov
    gain = np.linalg.solve(projected.T, (cov @ _H8.T).T).T
    mean = mean + gain @ (z - _H8 @ mean)
    ikh = np.eye(8) - gain @ _H8
    cov = ikh @ cov @ ikh.T + gain @ meas_cov @ gain.T
    return mean, (cov + cov.T) / 2.0


# The same filter as four 2-state blocks, one generic block update mapped over
# them: the exact reference for mrtrack.kalman's written-out arithmetic. A
# state is (mean, var_p, cov_pv, var_v): 8 means, then three 4-tuples.


def kf_blocks_init(box):
    """Block state of a filter started at a corner box, zero velocity."""
    x1, y1, x2, y2 = box
    h = y2 - y1
    cx, cy, a = (x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / h
    p = 2 * (1.0 / 20) * h
    v = 10.0 * p
    va = 10.0 * 1e-2
    return (
        (cx, cy, a, h, 0.0, 0.0, 0.0, 0.0),
        (p * p, p * p, 1e-2 * 1e-2, p * p),
        (0.0, 0.0, 0.0, 0.0),
        (v * v, v * v, va * va, v * v),
    )


def kf_blocks_predict(state):
    """One constant-velocity frame, per block P' = F P F^T + diag(q_p, q_v)."""
    mean, var_p, cov_pv, var_v = state
    cx, cy, a, h, vcx, vcy, va, vh = mean
    qp = 1.0 / 20 * h
    qv = 1.0 / 160 * h
    qp, qv = qp * qp, qv * qv
    p0, p1, p2, p3 = var_p
    c0, c1, c2, c3 = cov_pv
    v0, v1, v2, v3 = var_v
    return (
        (cx + vcx, cy + vcy, a + va, h + vh, vcx, vcy, va, vh),
        (p0 + 2.0 * c0 + v0 + qp, p1 + 2.0 * c1 + v1 + qp,
         p2 + 2.0 * c2 + v2 + 1e-2 * 1e-2, p3 + 2.0 * c3 + v3 + qp),
        (c0 + v0, c1 + v1, c2 + v2, c3 + v3),
        (v0 + qv, v1 + qv, v2 + 1e-5 * 1e-5, v3 + qv),
    )


def _update_block(z, x, dx, p, c, v, r):
    """One (position, velocity) block corrected by a measurement z of variance r:
    the new (x, dx, var_p, cov_pv, var_v), Joseph form."""
    total = p + r
    kp, kv = p / total, c / total
    innovation = z - x
    one_kp = 1.0 - kp
    return (
        x + kp * innovation,
        dx + kv * innovation,
        one_kp * one_kp * p + kp * kp * r,
        one_kp * (c - kv * p) + kp * kv * r,
        v - 2.0 * kv * c + kv * kv * p + kv * kv * r,
    )


def kf_blocks_update(state, box):
    """Correct the observed positions with a corner box, block by block."""
    mean, var_p, cov_pv, var_v = state
    x1, y1, x2, y2 = box
    h = y2 - y1
    z = ((x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / h, h)
    r_std = 1.0 / 20 * mean[3]
    r_pos = r_std * r_std
    meas_var = (r_pos, r_pos, 1e-1 * 1e-1, r_pos)
    pos, vel, var_p, cov_pv, var_v = zip(
        *map(_update_block, z, mean, mean[4:], var_p, cov_pv, var_v, meas_var)
    )
    return pos + vel, var_p, cov_pv, var_v
