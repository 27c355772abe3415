"""Probabilistic class/confidence fusion applied on every track match.

A track carries an aggregated confidence ``conf_agg`` for its current class
hypothesis, and the mean of its most recent matched detection confidences
(up to ``history_len``) as its reported confidence. Two rules change it:

- ``rescore_update`` fuses a matched detection. One of the same class raises
  ``conf_agg`` by the union rule 1 - (1 - conf_agg) * (1 - conf_i): the
  complement of both detections being wrong at once. A conflicting class
  shrinks it by the normalized margin 1 - (1 - conf_agg) / (1 - conf_i),
  clamped at zero, and the challenger wins when the result falls below its
  confidence. conf_agg is capped at 1 - epsilon so the shrink can always act.
- ``adopt`` restarts the state from one detection: its class, its confidence
  (clamped, as ``conf_agg``) and a one-entry history. A birth, a challenger's
  win and every match of the naive (``--no-rescore``) tracker go through it;
  older confidences refer to a different class hypothesis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .core import DEFAULT_EPSILON, Detection, RescoreConfig, clamp_conf

if TYPE_CHECKING:  # pragma: no cover
    from .tracks import Track


# builds a record from one tuple of its values; RescoreDecision has no checks
_record = tuple.__new__


class RescoreDecision(NamedTuple):
    """Result of one fusion step; apply to the track via ``Track.apply_rescore``.

    ``class_switched`` is true when ``new_class`` replaces a different class
    of the track. ``history`` is the track's new window of matched detection
    confidences, whose mean is ``new_conf``.
    """

    new_class: int
    new_conf: float
    new_conf_agg: float
    class_switched: bool
    history: tuple[float, ...]


def adopt(det: Detection, switched: bool) -> RescoreDecision:
    """The class state that ``det`` alone gives a track; ``switched`` tells
    whether the track held another class before."""
    return _record(
        RescoreDecision, (det.class_id, det.conf, clamp_conf(det.conf), switched, (det.conf,))
    )


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
    if det.class_id == track.class_id:
        conf_agg = 1.0 - (1.0 - track.conf_agg) * (1.0 - det.conf)
    else:
        # a track already below det.conf has a quotient >= 1, shrinks to 0.0 and switches
        conf_agg = max(1.0 - (1.0 - track.conf_agg) / (1.0 - det.conf), 0.0)
        if conf_agg < det.conf:
            return adopt(det, True)
    history = (*track.recent_confs, det.conf)[-cfg.history_len:]
    cap = 1.0 - DEFAULT_EPSILON
    return _record(RescoreDecision, (
        track.class_id,
        sum(history) / len(history),
        # min(conf_agg, cap) written out: the same choice, NaN included,
        # without the ~100 ns builtin call
        cap if cap < conf_agg else conf_agg,
        False,
        history,
    ))
