"""Independent reference implementations used as test oracles.

Deliberately primitive: enumerative or step-by-step transliterations kept
separate from the production code paths they check.
"""

from itertools import permutations

import numpy as np


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


def f1_sweep_oracle(dets_by_frame, gts_by_frame, grid, evaluate_fn):
    """Exhaustive grid sweep; later (higher) thresholds win ties."""
    best_thr, best_f1 = None, -1.0
    for thr in grid:
        f1 = evaluate_fn(dets_by_frame, gts_by_frame, thr).mean_f1
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
