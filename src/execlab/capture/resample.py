"""Fixed 10ms-grid resampling of a merged multi-venue record stream.

Each grid point g owns the half-open window (g - 10ms, g], so a record
belongs to the frame of grid point ceil(local_ts / 10ms), and the grid runs
from the first record's grid point to the last one's.  A frame carries the
last book state with local_ts <= g and the taker volumes summed over the
window, so no record after g can influence it.  Venues with no two-sided book
yet are marked absent; downstream features treat absent as missing.

The stream is read in one pass, and each record is dropped once it is
applied, so memory grows with the number of frames, not of records.  Each
venue keeps only its book, the book reads taken so far and its taker volumes
per frame.  The book is read after the last record of each frame that a
book record touched; the frames no book record touched carry the previous
read forward (the empty book before the first).
"""

from __future__ import annotations

import math
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


class _VenueState:
    """One venue's part of the single pass: its book, the book reads taken
    so far, and the taker volumes per frame.

    `reads` holds the reads flat, _READ_WIDTH doubles per row, row 0 being
    the empty book; row i + 1 was read at the end of frame `read_frames[i]`.
    `buy` and `sell` are indexed by frame and grown on demand; trade qtys are
    added into their frame in record order, starting from 0.0.
    """

    __slots__ = ("book", "reads", "read_frames", "buy", "sell", "pending")

    def __init__(self) -> None:
        # Imported on first use, not with the module: a process that never
        # resamples, such as one training on cached frames, skips loading it.
        from array import array

        self.book = LocalBook()
        self.reads = array("d", _EMPTY_READ)
        self.read_frames = array("q")
        self.buy = array("d")
        self.sell = array("d")
        self.pending = -1  # the frame of the last book record, whose read is still due; -1: none

    def apply(self, frame: int, kind: str, payload) -> None:
        """Apply a book record of frame `frame`, first reading the book if
        the previous book record's frame has ended."""
        if frame != self.pending:
            if self.pending >= 0:
                self._read()
            self.pending = frame
        if kind == KIND_BOOK_SNAPSHOT:
            apply_snapshot(self.book, payload)
        elif kind == KIND_BOOK_DELTA:
            apply_delta(self.book, payload)
        elif kind == KIND_TICKER:
            try:
                merge_ticker(self.book, payload)
            except CrossedTicker:
                pass  # the book is unchanged

    def _read(self) -> None:
        self.reads.extend(_book_part(self.book))
        self.read_frames.append(self.pending)

    def frames(self, n: int) -> VenueFrames:
        """The venue's frames for a grid of `n` points."""
        if self.pending >= 0:
            self._read()
        read_at = np.zeros(n, dtype=np.intp)
        read_at[np.frombuffer(self.read_frames, dtype=np.int64)] = np.arange(1, len(self.read_frames) + 1)
        # Reads are taken in frame order, so a running max carries each one forward.
        reads = np.frombuffer(self.reads, dtype=np.float64).reshape(-1, _READ_WIDTH)
        table = reads[np.maximum.accumulate(read_at)]
        levels = table[:, 4:].reshape(n, 4, BOOK_DEPTH)
        return VenueFrames(
            present=table[:, 0] != 0.0,
            best_bid=table[:, 1].copy(),
            best_ask=table[:, 2].copy(),
            mid=table[:, 3].copy(),
            buy_volume=_volumes(self.buy, n),
            sell_volume=_volumes(self.sell, n),
            bid_price=levels[:, 0].copy(),
            bid_qty=levels[:, 1].copy(),
            ask_price=levels[:, 2].copy(),
            ask_qty=levels[:, 3].copy(),
        )


_EMPTY_READ = _book_part(LocalBook())
_READ_WIDTH = len(_EMPTY_READ)


def _grow(volumes, frame: int) -> None:
    """Extend `volumes` with zeros past index `frame`, at least doubling it."""
    volumes.frombytes(bytes(volumes.itemsize * max(frame + 1 - len(volumes), len(volumes))))


def _volumes(volumes, n: int) -> np.ndarray:
    """The first `n` volumes, zero past the grown length."""
    out = np.zeros(n, dtype=np.float64)
    m = min(n, len(volumes))
    out[:m] = np.frombuffer(volumes, dtype=np.float64)[:m]
    return out


def resample(records: Iterable[MarketRecord], venues: Sequence[str] | None = None) -> FrameSet:
    """Resample a local_ts-sorted record stream onto the fixed grid.

    The order is checked as records arrive: UnsortedInput, with the 0-based
    position of the first violation, is raised before any later record is
    read.  The venues framed are `venues`, or every venue of the stream;
    records of other venues still extend the grid.
    """
    discover = venues is None
    states = {} if discover else {v: _VenueState() for v in venues}
    first = 0  # the grid index of the first record
    last_ts = None
    for pos, (venue, kind, ts, payload, _) in enumerate(records):
        if last_ts is None:
            first = -(-ts // GRID_NS)
        elif ts < last_ts:
            raise UnsortedInput(pos)
        last_ts = ts
        state = states.get(venue)
        if state is None:
            if not discover:
                continue
            state = states[venue] = _VenueState()
        frame = -(-ts // GRID_NS) - first  # ceil: the grid point whose window holds it
        if kind == KIND_TRADE:
            _, qty, side = payload
            volumes = state.buy if side == SIDE_BUY else state.sell
            if frame >= len(volumes):
                _grow(volumes, frame)
            volumes[frame] += qty
        else:
            state.apply(frame, kind, payload)
    stop = first if last_ts is None else -(-last_ts // GRID_NS) + 1
    order = sorted(states) if discover else list(states)
    # Each venue's state is dropped as soon as its frames are built.
    return FrameSet(
        grid_ts=np.arange(first, stop, dtype=np.int64) * GRID_NS,
        venues={v: states.pop(v).frames(stop - first) for v in order},
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
