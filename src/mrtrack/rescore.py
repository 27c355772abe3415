"""Probabilistic class/confidence fusion applied on every track match.

A track carries an aggregated confidence ``conf_agg`` for its current class
hypothesis. A matched detection of the same class raises it by the union
rule 1 - (1 - conf_agg) * (1 - conf_i): the complement of both detections
being wrong at once. A conflicting class shrinks it by the normalized
margin 1 - (1 - conf_agg) / (1 - conf_i), clamped at zero, and the track
switches to the challenger's class whenever the (possibly reduced)
aggregate falls below the challenger's confidence. conf_agg is capped at
1 - epsilon after every update so the shrink rule can always act.

The per-track reported confidence is the mean of the most recent matched
detection confidences (up to ``history_len``); the history restarts when
the class switches, since older confidences refer to a different class
hypothesis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .core import DEFAULT_EPSILON, Detection, RescoreConfig

if TYPE_CHECKING:  # pragma: no cover
    from .tracks import Track


class RescoreDecision(NamedTuple):
    """Result of one fusion step; apply to the track via ``Track.apply_rescore``.

    ``history`` is the track's new window of matched detection confidences,
    whose mean is ``new_conf``.
    """

    new_class: int
    new_conf: float
    new_conf_agg: float
    class_switched: bool
    history: tuple[float, ...]


def rescore_update(
    track: "Track", det: Detection, cfg: RescoreConfig = RescoreConfig()
) -> RescoreDecision:
    """Fuse a matched detection into a track's class/confidence state.

    Pure function over the track's (class_id, conf_agg, recent_confs);
    raises if the detection confidence was not clamped below 1 upstream.
    """
    if det.conf >= 1.0:
        raise ValueError(
            f"detection confidence {det.conf} >= 1; clamp to 1 - epsilon on ingestion"
        )
    conf_agg = track.conf_agg
    new_class = track.class_id
    switched = False

    if det.class_id == track.class_id:
        conf_agg = 1.0 - (1.0 - conf_agg) * (1.0 - det.conf)
    elif conf_agg < det.conf:
        new_class, conf_agg, switched = det.class_id, det.conf, True
    else:
        conf_agg = 1.0 - (1.0 - conf_agg) / (1.0 - det.conf)
        conf_agg = max(conf_agg, 0.0)
        if conf_agg < det.conf:
            new_class, conf_agg, switched = det.class_id, det.conf, True

    if switched:
        history = (det.conf,)
    else:
        history = (*track.recent_confs, det.conf)[-cfg.history_len:]
    new_conf = sum(history) / len(history)
    conf_agg = min(conf_agg, 1.0 - DEFAULT_EPSILON)
    return RescoreDecision(new_class, new_conf, conf_agg, switched, history)
