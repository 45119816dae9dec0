"""Fixed 10ms-grid resampling of a merged multi-venue record stream.

Each grid point g owns the half-open window (g - 10ms, g], so a record
belongs to the frame of grid point ceil(local_ts / 10ms), and the grid runs
from the first record's grid point to the last one's.  A frame carries the
last book state with local_ts <= g and the taker volumes summed over the
window, so no record after g can influence it.  Venues with no two-sided book
yet are marked absent; downstream features treat absent as missing.

Each venue's records are read once, in order.  The book is read after the
last record of each frame that a book record touched; the frames no book
record touched carry the previous read forward (the empty book before the
first).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from ..errors import CrossedTicker, UnsortedInput, open_output
from .book import BOOK_DEPTH, LocalBook, apply_delta, apply_snapshot, merge_ticker
from .records import (
    GRID_NS,
    KIND_BOOK_DELTA,
    KIND_BOOK_SNAPSHOT,
    KIND_TICKER,
    KIND_TRADE,
    SIDE_BUY,
    MarketRecord,
)

CSV_COLUMNS = (
    ["grid_ts", "venue", "present", "best_bid", "best_ask", "mid", "buy_volume", "sell_volume"]
    + [f"bid_price_{i}" for i in range(1, BOOK_DEPTH + 1)]
    + [f"bid_qty_{i}" for i in range(1, BOOK_DEPTH + 1)]
    + [f"ask_price_{i}" for i in range(1, BOOK_DEPTH + 1)]
    + [f"ask_qty_{i}" for i in range(1, BOOK_DEPTH + 1)]
)


@dataclass
class VenueFrames:
    """Column arrays for one venue, one row per grid point."""

    present: np.ndarray  # bool
    best_bid: np.ndarray
    best_ask: np.ndarray
    mid: np.ndarray
    buy_volume: np.ndarray
    sell_volume: np.ndarray
    bid_price: np.ndarray  # (n, BOOK_DEPTH), NaN-padded
    bid_qty: np.ndarray  # (n, BOOK_DEPTH), 0-padded
    ask_price: np.ndarray
    ask_qty: np.ndarray


@dataclass
class FrameSet:
    grid_ts: np.ndarray  # int64
    venues: dict[str, VenueFrames]

    @property
    def n_frames(self) -> int:
        return len(self.grid_ts)

    @property
    def venue_names(self) -> list[str]:
        return sorted(self.venues)


_NAN_LEVELS = (math.nan,) * BOOK_DEPTH
_ZERO_LEVELS = (0.0,) * BOOK_DEPTH


def _book_part(book: LocalBook) -> tuple[float, ...]:
    """present, best bid, best ask, mid, then bid prices, bid qtys, ask prices,
    ask qtys padded to BOOK_DEPTH (prices with NaN, qtys with 0)."""
    present = book.two_sided()
    bb = book.best_bid()
    ba = book.best_ask()
    bids = book.top_levels("bid")
    asks = book.top_levels("ask")
    bid_pad = BOOK_DEPTH - len(bids)
    ask_pad = BOOK_DEPTH - len(asks)
    return (
        1.0 if present else 0.0,
        bb if bb is not None else math.nan,
        ba if ba is not None else math.nan,
        (bb + ba) / 2.0 if present else math.nan,
        *(p for p, _ in bids), *_NAN_LEVELS[:bid_pad],
        *(q for _, q in bids), *_ZERO_LEVELS[:bid_pad],
        *(p for p, _ in asks), *_NAN_LEVELS[:ask_pad],
        *(q for _, q in asks), *_ZERO_LEVELS[:ask_pad],
    )


def _venue_frames(records: list[MarketRecord], grid: range) -> VenueFrames:
    """One venue's frames, one per grid index in `grid`, from its records.
    Trade qtys are summed into their frame in record order, starting from 0.0.
    """
    first, n = grid.start, len(grid)
    buy = [0.0] * n
    sell = [0.0] * n
    book = LocalBook()
    parts = [_book_part(book)]  # row 0: the empty book
    read_at = np.zeros(n, dtype=np.intp)  # row of `parts` each frame a book record touched ends with
    pending = None  # the frame of the last book record, whose read is still due
    for rec in records:
        frame = -(-rec.local_ts // GRID_NS) - first  # ceil: the grid point whose window holds it
        kind = rec.kind
        if kind == KIND_TRADE:
            if rec.payload.side == SIDE_BUY:
                buy[frame] += rec.payload.qty
            else:
                sell[frame] += rec.payload.qty
            continue
        if pending is not None and frame != pending:
            parts.append(_book_part(book))
            read_at[pending] = len(parts) - 1
        pending = frame
        if kind == KIND_BOOK_SNAPSHOT:
            apply_snapshot(book, rec.payload)
        elif kind == KIND_BOOK_DELTA:
            apply_delta(book, rec.payload)
        elif kind == KIND_TICKER:
            try:
                merge_ticker(book, rec.payload)
            except CrossedTicker:
                pass  # the book is unchanged
    if pending is not None:
        parts.append(_book_part(book))
        read_at[pending] = len(parts) - 1
    # Reads are taken in frame order, so a running max carries each one forward.
    table = np.array(parts, dtype=np.float64)[np.maximum.accumulate(read_at)]
    levels = table[:, 4:].reshape(n, 4, BOOK_DEPTH)
    return VenueFrames(
        present=table[:, 0] != 0.0,
        best_bid=table[:, 1].copy(),
        best_ask=table[:, 2].copy(),
        mid=table[:, 3].copy(),
        buy_volume=np.array(buy, dtype=np.float64),
        sell_volume=np.array(sell, dtype=np.float64),
        bid_price=levels[:, 0].copy(),
        bid_qty=levels[:, 1].copy(),
        ask_price=levels[:, 2].copy(),
        ask_qty=levels[:, 3].copy(),
    )


def resample(records: Iterable[MarketRecord], venues: Sequence[str] | None = None) -> FrameSet:
    """Resample a local_ts-sorted record stream onto the fixed grid.

    The order is checked as records arrive: UnsortedInput, with the 0-based
    position of the first violation, is raised before any later record is
    read.  The venues framed are `venues`, or every venue of the stream;
    records of other venues still extend the grid.
    """
    by_venue: defaultdict[str, list[MarketRecord]] = defaultdict(list)
    first_ts = last_ts = None
    for pos, rec in enumerate(records):
        ts = rec.local_ts
        if last_ts is not None and ts < last_ts:
            raise UnsortedInput(pos)
        last_ts = ts
        if first_ts is None:
            first_ts = ts
        by_venue[rec.venue].append(rec)
    if venues is None:
        venues = sorted(by_venue)
    grid = range(0)  # grid indices, from the ceil of the first record's local_ts to the last's
    if last_ts is not None:
        grid = range(-(-first_ts // GRID_NS), -(-last_ts // GRID_NS) + 1)
    return FrameSet(
        grid_ts=np.arange(grid.start, grid.stop, dtype=np.int64) * GRID_NS,
        venues={v: _venue_frames(by_venue[v], grid) for v in venues},
    )


def _format_column(col: np.ndarray) -> list[str]:
    """``format(x, ".9g")`` of every cell, NaN as "".

    Each distinct bit pattern is formatted once.  Keying on bits rather than
    on float equality keeps 0.0 and -0.0 apart, which compare equal but print
    differently.
    """
    bits, where = np.unique(np.asarray(col, dtype=np.float64).view(np.int64), return_inverse=True)
    cells = [
        "" if math.isnan(x) else format(x, ".9g") for x in bits.view(np.float64).tolist()
    ]
    return np.array(cells, dtype=object)[where].tolist()


def write_frames_csv(frames: FrameSet, path: str | Path) -> None:
    with open_output(path) as fh:
        _write_frames(frames, fh)


def _write_frames(frames: FrameSet, fh: IO[str]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    grid_ts = [str(ts) for ts in frames.grid_ts.tolist()]
    n = len(grid_ts)
    for venue in frames.venue_names:
        vf = frames.venues[venue]
        columns = [
            grid_ts,
            [venue] * n,
            ["1" if p else "0" for p in vf.present.tolist()],
        ]
        for col in (vf.best_bid, vf.best_ask, vf.mid, vf.buy_volume, vf.sell_volume):
            columns.append(_format_column(col))
        for block in (vf.bid_price, vf.bid_qty, vf.ask_price, vf.ask_qty):
            columns.extend(_format_column(block[:, j]) for j in range(BOOK_DEPTH))
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
