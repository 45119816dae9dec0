"""Map collector-clock timestamps onto a venue clock.

Records that carry both timestamps become knots of a piecewise-linear map.
Between knots the map interpolates linearly; outside the knot range the
nearest knot's offset is carried at slope one, so no drift is invented
beyond the observed range.  All arithmetic is anchored to integer knots
because epoch nanoseconds do not fit exactly in a float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import FewerThanTwoKnots
from .records import MarketRecord


@dataclass(frozen=True)
class ClockMap:
    venue: str
    local_knots: np.ndarray  # int64, strictly increasing
    exch_knots: np.ndarray  # int64, nondecreasing
    rejected_knots: int = 0

    def __post_init__(self):
        if len(self.local_knots) < 2:
            raise FewerThanTwoKnots(f"{self.venue}: {len(self.local_knots)} knot(s)")

    def to_exchange(self, local_ts: int) -> int:
        """Exchange-clock nanoseconds for one collector-clock timestamp."""
        locs = self.local_knots
        exs = self.exch_knots
        if local_ts <= int(locs[0]):
            return local_ts + int(exs[0]) - int(locs[0])
        if local_ts >= int(locs[-1]):
            return local_ts + int(exs[-1]) - int(locs[-1])
        i = int(np.searchsorted(locs, local_ts, side="right")) - 1
        l0, l1 = int(locs[i]), int(locs[i + 1])
        e0, e1 = int(exs[i]), int(exs[i + 1])
        if local_ts == l0:
            return e0
        # Deltas are small (knot spacing), so float interpolation is exact
        # to well under a nanosecond.
        frac = (local_ts - l0) / (l1 - l0)
        return e0 + int(round(frac * (e1 - e0)))


def align_clock(records: Iterable[MarketRecord]) -> ClockMap:
    """Build a ClockMap from the records of one venue stream.

    Knots whose exchange timestamp would move backwards are rejected and
    counted; fewer than two surviving knots raises FewerThanTwoKnots.
    """
    locals_: list[int] = []
    exchs: list[int] = []
    rejected = 0
    venue = ""
    for rec in records:
        venue = rec.venue
        if rec.exch_ts is None:
            continue
        if locals_ and rec.local_ts <= locals_[-1]:
            rejected += 1
            continue
        if exchs and rec.exch_ts < exchs[-1]:
            rejected += 1
            continue
        locals_.append(rec.local_ts)
        exchs.append(rec.exch_ts)
    if len(locals_) < 2:
        raise FewerThanTwoKnots(f"{venue or '<empty>'}: {len(locals_)} usable knot(s)")
    return ClockMap(
        venue=venue,
        local_knots=np.asarray(locals_, dtype=np.int64),
        exch_knots=np.asarray(exchs, dtype=np.int64),
        rejected_knots=rejected,
    )
