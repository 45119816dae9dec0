"""Fixed 10ms-grid resampling of a merged multi-venue record stream.

Each grid point g owns the half-open window (g - 10ms, g].  A frame carries
the last book state with local_ts <= g and the taker volumes aggregated over
the window, so no record after g can influence it.  Venues with no two-sided
book yet are marked absent; downstream features treat absent as missing.

The book changes far less often than the grid ticks, so each venue keeps the
book-derived part of its last row (present, best bid/ask, mid, top levels) and
rebuilds it only when a book record has arrived since the last emit.  This
relies on one invariant: every book mutation passes through
``_VenueAccumulator.on_record``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from ..errors import CrossedTicker, UnsortedInput
from .book import BOOK_DEPTH, LocalBook, apply_delta, apply_snapshot, merge_ticker
from .records import (
    KIND_BOOK_DELTA,
    KIND_BOOK_SNAPSHOT,
    KIND_TICKER,
    KIND_TRADE,
    SIDE_BUY,
    MarketRecord,
)

GRID_NS = 10_000_000  # 10ms

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


class _VenueAccumulator:
    def __init__(self):
        self.book = LocalBook()
        self.buy = 0.0
        self.sell = 0.0
        self.rejected_tickers = 0
        self.rows: list[tuple[float, ...]] = []  # buy, sell, then _book_part
        self._book_cells: tuple[float, ...] = ()
        self._book_changed = True

    def on_record(self, rec: MarketRecord) -> None:
        kind = rec.kind
        if kind == KIND_TRADE:
            if rec.payload.side == SIDE_BUY:
                self.buy += rec.payload.qty
            else:
                self.sell += rec.payload.qty
            return
        self._book_changed = True
        if kind == KIND_BOOK_SNAPSHOT:
            apply_snapshot(self.book, rec.payload)
        elif kind == KIND_BOOK_DELTA:
            apply_delta(self.book, rec.payload)
        elif kind == KIND_TICKER:
            try:
                merge_ticker(self.book, rec.payload)
            except CrossedTicker:
                self.rejected_tickers += 1

    def emit(self) -> None:
        if self._book_changed:
            self._book_cells = _book_part(self.book)
            self._book_changed = False
        self.rows.append((self.buy, self.sell, *self._book_cells))
        self.buy = 0.0
        self.sell = 0.0


def _rows_to_frames(rows: list[tuple[float, ...]]) -> VenueFrames:
    table = np.array(rows, dtype=np.float64).reshape(len(rows), 6 + 4 * BOOK_DEPTH)
    levels = table[:, 6:].reshape(len(rows), 4, BOOK_DEPTH)
    return VenueFrames(
        present=table[:, 2] != 0.0,
        best_bid=table[:, 3].copy(),
        best_ask=table[:, 4].copy(),
        mid=table[:, 5].copy(),
        buy_volume=table[:, 0].copy(),
        sell_volume=table[:, 1].copy(),
        bid_price=levels[:, 0].copy(),
        bid_qty=levels[:, 1].copy(),
        ask_price=levels[:, 2].copy(),
        ask_qty=levels[:, 3].copy(),
    )


def resample(records: Iterable[MarketRecord], venues: Sequence[str] | None = None) -> FrameSet:
    """Resample a local_ts-sorted record stream onto the fixed grid.

    Raises UnsortedInput with the 0-based position of the first violation.
    The venue universe is taken from `venues` or discovered from the stream
    (which forces materializing it first).
    """
    if venues is None:
        records = list(records)
        venues = sorted({r.venue for r in records})
    accs = {v: _VenueAccumulator() for v in venues}

    grid: int | None = None
    grid_points: list[int] = []
    last_ts: int | None = None
    for pos, rec in enumerate(records):
        if last_ts is not None and rec.local_ts < last_ts:
            raise UnsortedInput(pos)
        last_ts = rec.local_ts
        if grid is None:
            grid = -(-rec.local_ts // GRID_NS) * GRID_NS  # ceil to grid
        while rec.local_ts > grid:
            grid_points.append(grid)
            for acc in accs.values():
                acc.emit()
            grid += GRID_NS
        if rec.venue in accs:
            accs[rec.venue].on_record(rec)
    if grid is not None:
        grid_points.append(grid)
        for acc in accs.values():
            acc.emit()

    return FrameSet(
        grid_ts=np.asarray(grid_points, dtype=np.int64),
        venues={v: _rows_to_frames(accs[v].rows) for v in venues},
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
