"""Map collector-clock timestamps onto a venue clock.

Records that carry both timestamps become knots of a piecewise-linear map.
Between knots the map interpolates linearly; outside the knot range the
nearest knot's offset is carried at slope one, so no drift is invented
beyond the observed range.  All arithmetic is anchored to integer knots
because epoch nanoseconds do not fit exactly in a float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
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


class _Knots:
    """One venue's clock-map knots and rejected count, kept as its records arrive."""

    __slots__ = ("venue", "local", "exch", "rejected")

    def __init__(self):
        from array import array  # imported when first used, as only aligning needs it

        self.venue = ""
        self.local = array("q")
        self.exch = array("q")
        self.rejected = 0

    def extend(self, records: Iterable[MarketRecord]) -> None:
        """The rule: a record with an exchange timestamp is a knot, unless its
        local_ts does not rise or its exch_ts falls, which rejects it."""
        last_local, last_exch = (self.local[-1], self.exch[-1]) if self.local else (-math.inf, -math.inf)
        local: list[int] = []  # appended to faster than an array, then moved into one
        exch: list[int] = []
        venue, rejected = self.venue, 0
        for venue, _, local_ts, _, exch_ts in records:
            if exch_ts is None:
                continue
            if local_ts <= last_local or exch_ts < last_exch:
                rejected += 1
            else:
                local.append(local_ts)
                exch.append(exch_ts)
                last_local, last_exch = local_ts, exch_ts
        self.local.fromlist(local)
        self.exch.fromlist(exch)
        self.venue = venue
        self.rejected += rejected


def align_clock(records: Iterable[MarketRecord], knots: _Knots | None = None) -> ClockMap:
    """Build a ClockMap from the records of one venue stream, after `knots`,
    the state align_clocks kept of the venue's earlier records, if given.

    Knots whose exchange timestamp would move backwards are rejected and
    counted; fewer than two surviving knots raises FewerThanTwoKnots.
    """
    if knots is None:
        knots = _Knots()
    knots.extend(records)
    if len(knots.local) < 2:
        raise FewerThanTwoKnots(f"{knots.venue or '<empty>'}: {len(knots.local)} usable knot(s)")
    return ClockMap(
        venue=knots.venue,
        local_knots=np.array(knots.local, dtype=np.int64),
        exch_knots=np.array(knots.exch, dtype=np.int64),
        rejected_knots=knots.rejected,
    )


def align_clocks(records: Iterable[MarketRecord]) -> dict[str, ClockMap]:
    """align_clock of each venue's records in a stream of several venues, by
    venue name, in one pass that keeps each venue's knots and no record."""
    knots: dict[str, _Knots] = {}
    for venue, run in groupby(records, key=attrgetter("venue")):
        venue_knots = knots.get(venue)
        if venue_knots is None:
            venue_knots = knots[venue] = _Knots()
        venue_knots.extend(run)
    return {venue: align_clock((), knots.pop(venue)) for venue in sorted(knots)}
