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
(var_p, cov_pv, var_v) and both steps are closed-form scalar arithmetic.
The blocks still share one input: every noise scale reads the current
height estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BBox, bbox_to_cxcyah, cxcyah_to_bbox

Quad = tuple[float, float, float, float]

# height-relative standard deviations (per unit of box height) of the
# position channels and of the velocity channels
_POSITION_NOISE_SCALE = 1.0 / 20
_VELOCITY_NOISE_SCALE = 1.0 / 160
# fixed standard deviations of the aspect channel (index 2)
_ASPECT_INIT_STD = 1e-2
_ASPECT_POS_NOISE_STD = 1e-2
_ASPECT_VEL_NOISE_STD = 1e-5
_ASPECT_MEAS_STD = 1e-1


@dataclass(frozen=True, slots=True)
class KalmanState:
    """Filter state: the 8 means and the per-block covariance terms.

    ``mean`` is (cx, cy, a, h, vcx, vcy, va, vh). For each position index i,
    ``var_p[i]``, ``cov_pv[i]`` and ``var_v[i]`` are the variance of
    position_i, its covariance with velocity_i and the variance of
    velocity_i; every other covariance entry is zero. Treat as immutable.
    """

    mean: tuple[float, ...]
    var_p: Quad
    cov_pv: Quad
    var_v: Quad


def kf_init(measurement: BBox) -> KalmanState:
    """Start a filter at a measured box, zero velocity.

    The initial velocity uncertainty is 10x the position uncertainty, so the
    first few updates transfer position innovations into the velocity
    estimate quickly.
    """
    cx, cy, a, h = bbox_to_cxcyah(measurement)
    p = 2 * _POSITION_NOISE_SCALE * h
    v = 10.0 * p
    va = 10.0 * _ASPECT_INIT_STD
    return KalmanState(
        (cx, cy, a, h, 0.0, 0.0, 0.0, 0.0),
        (p * p, p * p, _ASPECT_INIT_STD * _ASPECT_INIT_STD, p * p),
        (0.0, 0.0, 0.0, 0.0),
        (v * v, v * v, va * va, v * v),
    )


def kf_predict(s: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity; inflate covariance.

    Per block, F = [[1, 1], [0, 1]] gives P' = F P F^T + diag(q_p, q_v).
    """
    cx, cy, a, h, vcx, vcy, va, vh = s.mean
    qp = _POSITION_NOISE_SCALE * h
    qv = _VELOCITY_NOISE_SCALE * h
    qp, qv = qp * qp, qv * qv
    p0, p1, p2, p3 = s.var_p
    c0, c1, c2, c3 = s.cov_pv
    v0, v1, v2, v3 = s.var_v
    return KalmanState(
        (cx + vcx, cy + vcy, a + va, h + vh, vcx, vcy, va, vh),
        (
            p0 + 2.0 * c0 + v0 + qp,
            p1 + 2.0 * c1 + v1 + qp,
            p2 + 2.0 * c2 + v2 + _ASPECT_POS_NOISE_STD * _ASPECT_POS_NOISE_STD,
            p3 + 2.0 * c3 + v3 + qp,
        ),
        (c0 + v0, c1 + v1, c2 + v2, c3 + v3),
        (v0 + qv, v1 + qv, v2 + _ASPECT_VEL_NOISE_STD * _ASPECT_VEL_NOISE_STD, v3 + qv),
    )


def _update_block(
    z: float, x: float, dx: float, p: float, c: float, v: float, r: float
) -> tuple[float, float, float, float, float]:
    """One (position, velocity) block corrected by a measurement z of variance r.

    Returns the new (x, dx, var_p, cov_pv, var_v).
    """
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


def kf_update(s: KalmanState, measurement: BBox) -> KalmanState:
    """Correct the four observed components with a measured box.

    Per block, with innovation variance S = var_p + r and gain
    k = (kp, kv) = (var_p, cov_pv) / S, the covariance takes the Joseph form
    P' = A P A^T + k r k^T with A = [[1 - kp, 0], [-kv, 1]], which keeps each
    block symmetric positive-semidefinite under long predict/update
    interleavings.
    """
    z = bbox_to_cxcyah(measurement)
    r_std = _POSITION_NOISE_SCALE * s.mean[3]
    r_pos = r_std * r_std
    meas_var = (r_pos, r_pos, _ASPECT_MEAS_STD * _ASPECT_MEAS_STD, r_pos)
    pos, vel, var_p, cov_pv, var_v = zip(
        *map(_update_block, z, s.mean, s.mean[4:], s.var_p, s.cov_pv, s.var_v, meas_var)
    )
    return KalmanState(pos + vel, var_p, cov_pv, var_v)


def state_bbox(s: KalmanState) -> BBox:
    """Corner-format box of the current state mean."""
    return cxcyah_to_bbox(*s.mean[:4])
