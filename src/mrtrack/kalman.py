"""Constant-velocity Kalman filter over (cx, cy, a, h) box states.

State vector: (cx, cy, a, h, vcx, vcy, va, vh) where a is the width/height
aspect ratio. The filter observes the four position components. Noise
standard deviations scale with the box height, so large objects tolerate
proportionally larger motion; the aspect channel uses small fixed noise.
The time step is exactly one frame.

The 8-state filter is exactly four independent 2-state filters, one per
(position_i, velocity_i) pair: the transition couples position_i only with
velocity_i, the observation reads position_i only, and the process noise,
the measurement noise and the initial covariance are all diagonal. A
covariance that is zero outside the four 2x2 blocks therefore stays zero
through every predict and update, so the state keeps just each block's
(var_p, cov_pv, var_v) and both steps are closed-form scalar arithmetic,
written out block by block. The blocks still share one input: every noise
scale reads the current height estimate.

The state is plain Python floats, whatever float type the measured boxes
use: ``core.bbox_to_cxcyah`` converts each corner with ``float()``, which is
exact for ``numpy.float64``, so the filter never runs numpy scalar
arithmetic and its values are the same for either input. The way back to a
box is ``state_corners``, which association scores, clamped by ``state_bbox``.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import MAX_COORDINATE, BBox, bbox_to_cxcyah

# height-relative standard deviations (per unit of box height) of the
# position channels and of the velocity channels
_POSITION_NOISE_SCALE = 1.0 / 20
_VELOCITY_NOISE_SCALE = 1.0 / 160
# fixed variances of the aspect channel (index 2): initial position and
# velocity, process noise of position and velocity, and measurement
_ASPECT_INIT_VAR = 1e-2 * 1e-2
_ASPECT_INIT_VEL_VAR = (10.0 * 1e-2) * (10.0 * 1e-2)
_ASPECT_POS_NOISE_VAR = 1e-2 * 1e-2
_ASPECT_VEL_NOISE_VAR = 1e-5 * 1e-5
_ASPECT_MEAS_VAR = 1e-1 * 1e-1

# builds a KalmanState from one tuple of its 20 values, without the argument
# binding of the generated constructor
_record = tuple.__new__


class KalmanState(NamedTuple):
    """Filter state: the 8 means, then the per-block covariance terms.

    For each position index i, ``p<i>``, ``c<i>`` and ``v<i>`` are the
    variance of position_i, its covariance with velocity_i and the variance
    of velocity_i; every other covariance entry is zero.
    """

    cx: float
    cy: float
    a: float
    h: float
    vcx: float
    vcy: float
    va: float
    vh: float
    p0: float
    p1: float
    p2: float
    p3: float
    c0: float
    c1: float
    c2: float
    c3: float
    v0: float
    v1: float
    v2: float
    v3: float

    @property
    def mean(self) -> tuple[float, ...]:
        """(cx, cy, a, h, vcx, vcy, va, vh)."""
        return self[:8]


def kf_init(measurement: BBox) -> KalmanState:
    """Start a filter at a measured box, zero velocity.

    The initial velocity uncertainty is 10x the position uncertainty, so the
    first few updates transfer position innovations into the velocity
    estimate quickly.
    """
    cx, cy, a, h = bbox_to_cxcyah(measurement)
    p = 2 * _POSITION_NOISE_SCALE * h
    v = 10.0 * p
    pp, vv = p * p, v * v
    return _record(KalmanState, (
        cx, cy, a, h, 0.0, 0.0, 0.0, 0.0,
        pp, pp, _ASPECT_INIT_VAR, pp,
        0.0, 0.0, 0.0, 0.0,
        vv, vv, _ASPECT_INIT_VEL_VAR, vv,
    ))


def kf_predict(s: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity; inflate covariance.

    Per block, F = [[1, 1], [0, 1]] gives P' = F P F^T + diag(q_p, q_v).
    """
    cx, cy, a, h, vcx, vcy, va, vh, p0, p1, p2, p3, c0, c1, c2, c3, v0, v1, v2, v3 = s
    qp = _POSITION_NOISE_SCALE * h
    qv = _VELOCITY_NOISE_SCALE * h
    qp, qv = qp * qp, qv * qv
    return _record(KalmanState, (
        cx + vcx, cy + vcy, a + va, h + vh, vcx, vcy, va, vh,
        p0 + 2.0 * c0 + v0 + qp,
        p1 + 2.0 * c1 + v1 + qp,
        p2 + 2.0 * c2 + v2 + _ASPECT_POS_NOISE_VAR,
        p3 + 2.0 * c3 + v3 + qp,
        c0 + v0, c1 + v1, c2 + v2, c3 + v3,
        v0 + qv, v1 + qv, v2 + _ASPECT_VEL_NOISE_VAR, v3 + qv,
    ))


def kf_update(s: KalmanState, measurement: BBox) -> KalmanState:
    """Correct the four observed components with a measured box.

    Per block, with measurement variance r, innovation variance
    S = var_p + r and gain k = (kp, kv) = (var_p, cov_pv) / S, the
    covariance takes the Joseph form P' = A P A^T + k r k^T with
    A = [[1 - kp, 0], [-kv, 1]], which keeps each block symmetric
    positive-semidefinite under long predict/update interleavings.
    """
    z0, z1, z2, z3 = bbox_to_cxcyah(measurement)
    x0, x1, x2, x3, d0, d1, d2, d3, p0, p1, p2, p3, c0, c1, c2, c3, v0, v1, v2, v3 = s
    r_std = _POSITION_NOISE_SCALE * x3
    r = r_std * r_std
    # block i: gain (k<i>, l<i>) = (kp, kv), innovation e<i>, m<i> = 1 - kp
    # block 0: cx
    total = p0 + r
    k0, l0 = p0 / total, c0 / total
    e0 = z0 - x0
    m0 = 1.0 - k0
    # block 1: cy
    total = p1 + r
    k1, l1 = p1 / total, c1 / total
    e1 = z1 - x1
    m1 = 1.0 - k1
    # block 2: a, with the aspect channel's fixed measurement variance
    total = p2 + _ASPECT_MEAS_VAR
    k2, l2 = p2 / total, c2 / total
    e2 = z2 - x2
    m2 = 1.0 - k2
    # block 3: h
    total = p3 + r
    k3, l3 = p3 / total, c3 / total
    e3 = z3 - x3
    m3 = 1.0 - k3
    return _record(KalmanState, (
        x0 + k0 * e0, x1 + k1 * e1, x2 + k2 * e2, x3 + k3 * e3,
        d0 + l0 * e0, d1 + l1 * e1, d2 + l2 * e2, d3 + l3 * e3,
        m0 * m0 * p0 + k0 * k0 * r,
        m1 * m1 * p1 + k1 * k1 * r,
        m2 * m2 * p2 + k2 * k2 * _ASPECT_MEAS_VAR,
        m3 * m3 * p3 + k3 * k3 * r,
        m0 * (c0 - l0 * p0) + k0 * l0 * r,
        m1 * (c1 - l1 * p1) + k1 * l1 * r,
        m2 * (c2 - l2 * p2) + k2 * l2 * _ASPECT_MEAS_VAR,
        m3 * (c3 - l3 * p3) + k3 * l3 * r,
        v0 - 2.0 * l0 * c0 + l0 * l0 * p0 + l0 * l0 * r,
        v1 - 2.0 * l1 * c1 + l1 * l1 * p1 + l1 * l1 * r,
        v2 - 2.0 * l2 * c2 + l2 * l2 * p2 + l2 * l2 * _ASPECT_MEAS_VAR,
        v3 - 2.0 * l3 * c3 + l3 * l3 * p3 + l3 * l3 * r,
    ))


def state_corners(s: KalmanState) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) of the state mean, unclamped. A height or aspect
    below 0 counts as 0; ``-0.0`` stays ``-0.0``, as ``max(v, 0.0)`` keeps it."""
    cx, cy, a, h = s[:4]
    h = 0.0 if h < 0.0 else h
    half_w, half_h = (0.0 if a < 0.0 else a) * h / 2.0, h / 2.0
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def state_bbox(s: KalmanState) -> BBox:
    """``state_corners`` as a checked BBox, each corner clamped into
    [-MAX_COORDINATE, MAX_COORDINATE], where a file can hold it; a NaN or
    infinite mean that leaves a corner NaN raises ValueError."""
    x1, y1, x2, y2 = state_corners(s)
    # ordered corners inside the range pass every check of BBox.__new__
    if (-MAX_COORDINATE <= x1 <= x2 <= MAX_COORDINATE
            and -MAX_COORDINATE <= y1 <= y2 <= MAX_COORDINATE):
        return _record(BBox, (x1, y1, x2, y2))
    # x1 <= x2 and y1 <= y2, so these four bound all four corners
    if not (-MAX_COORDINATE <= x1 and -MAX_COORDINATE <= y1
            and x2 <= MAX_COORDINATE and y2 <= MAX_COORDINATE):
        x1, y1, x2, y2 = (min(max(v, -MAX_COORDINATE), MAX_COORDINATE)
                          for v in (x1, y1, x2, y2))
    return BBox(x1, y1, x2, y2)
