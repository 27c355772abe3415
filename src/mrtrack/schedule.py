"""The multi-resolution schedule and its MAC cost model.

The resolution schedule interleaves P low-resolution inferences between
consecutive full-resolution ones. ``interleave`` picks each frame's packet
from a full- and a low-resolution stream; ``mean_mac`` gives the resulting
average per-frame compute cost and its relative reduction versus
full-res-only operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import FramePacket, Resolution, checked


@checked
class ResolutionSchedule(NamedTuple):
    """Interleaving policy plus per-resolution inference costs.

    ``P`` low-res frames separate consecutive full-res frames; the full-res
    fraction is 1 / (1 + P). Both resolutions have positive sides, and
    ``low_res`` none over ``full_res``'s. MAC figures are per-inference
    totals (any unit, as long as both share it); ``mac_full`` is positive
    and ``mac_low / mac_full`` finite, all as floats, so the mean and
    reduction ``mean_mac`` reports are finite for every ``P``.
    """

    P: int
    full_res: Resolution
    low_res: Resolution
    mac_full: float
    mac_low: float

    def _check(self) -> None:
        if self.P < 0:
            raise ValueError(f"P must be >= 0: {self.P}")
        for res in (self.full_res, self.low_res):
            if res[0] <= 0 or res[1] <= 0:
                raise ValueError(f"non-positive resolution: {res}")
        if self.low_res[0] > self.full_res[0] or self.low_res[1] > self.full_res[1]:
            raise ValueError(f"low_res {self.low_res} exceeds full_res {self.full_res}")
        try:
            full, low = float(self.mac_full), float(self.mac_low)
        except OverflowError:  # an int past the float range
            full = low = math.inf
        if not (0 < full < math.inf and 0 <= low < math.inf):
            raise ValueError(
                f"need finite mac_full > 0 and mac_low >= 0: {self.mac_full}, {self.mac_low}"
            )
        if not math.isfinite(low / full):
            raise ValueError(
                f"need a finite mac_low / mac_full: {self.mac_low} / {self.mac_full}"
            )


class MacSummary(NamedTuple):
    mean: float
    reduction: float


def is_full_res(t: int, P: int) -> bool:
    """True when frame t is scheduled at full resolution (every P+1 frames)."""
    if t < 0 or P < 0:
        raise ValueError("frame index and P must be non-negative")
    return t % (P + 1) == 0


def interleave(
    full: Sequence[FramePacket], low: Sequence[FramePacket], P: int
) -> list[FramePacket]:
    """Frame by frame, ``full``'s packet where P schedules full res, else ``low``'s."""
    pairs = zip(full, low, strict=True)
    return [f if is_full_res(f.frame_index, P) else lo for f, lo in pairs]


def mean_mac(s: ResolutionSchedule) -> MacSummary:
    """Average per-frame MAC cost of the schedule and its relative reduction.

    reduction = 1 - mean / mac_full, i.e. the fraction of full-res-only
    compute saved by interleaving. ``rho`` divides integers, which cannot
    overflow: as ``P`` grows it goes to 0.0 and the mean to ``mac_low``.
    """
    rho = 1 / (1 + s.P)
    mean = rho * s.mac_full + (1.0 - rho) * s.mac_low
    return MacSummary(mean, 1.0 - mean / s.mac_full)
