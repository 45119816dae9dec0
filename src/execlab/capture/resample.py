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

from ..errors import CrossedTicker, UnsortedInput, VolumeOverflow, open_output
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


# The parts of a book row, in the order CSV_COLUMNS lists their levels.
BID_PRICE, BID_QTY, ASK_PRICE, ASK_QTY = range(4)


@dataclass
class VenueFrames:
    """Column arrays for one venue, one row per grid point.

    Each book is held once per change, not once per frame: `book` has one
    row for each run of consecutive frames whose books are bit-identical,
    and frame i's book is book[book_at[i]].  `book_table` builds the pair,
    and the pair is a function of the per-frame books alone.  bid_price,
    bid_qty, ask_price and ask_qty are read-only (n, BOOK_DEPTH) copies
    gathered from it.
    """

    present: np.ndarray  # bool
    best_bid: np.ndarray
    best_ask: np.ndarray
    mid: np.ndarray
    buy_volume: np.ndarray
    sell_volume: np.ndarray
    book: np.ndarray  # (k, 4, BOOK_DEPTH): bid prices (NaN-padded), bid qtys (0-padded), ask prices, ask qtys
    book_at: np.ndarray  # int64, one per frame: 0 first, steps of 0 or 1, k - 1 last

    def _levels(self, part: int) -> np.ndarray:
        levels = self.book[self.book_at, part]
        levels.flags.writeable = False
        return levels

    bid_price = property(lambda self: self._levels(BID_PRICE))
    bid_qty = property(lambda self: self._levels(BID_QTY))
    ask_price = property(lambda self: self._levels(ASK_PRICE))
    ask_qty = property(lambda self: self._levels(ASK_QTY))


def book_table(rows: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(book, book_at) of the frames whose books are rows[at], for rows of
    shape (m, 4, BOOK_DEPTH) and an `at` that steps by 0 or 1: the rows at
    which a frame's book is not bit for bit the previous frame's, and each
    frame's index into them."""
    if len(at) == 0:
        return np.empty((0, 4, BOOK_DEPTH)), np.empty(0, dtype=np.int64)
    used = rows[at[0] : at[-1] + 1]
    bits = used.view(np.int64)
    changed = np.empty(len(used), dtype=bool)
    changed[0] = True
    changed[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2))
    run = np.cumsum(changed, dtype=np.int64) - 1
    return used[changed], run[at - at[0]]


def is_book_index(book_at: np.ndarray, k: int) -> bool:
    """Whether `book_at` indexes a book table of `k` rows as `book_table`
    builds it: 0 first, steps of 0 or 1, k - 1 last (empty when k is 0)."""
    if len(book_at) == 0:
        return k == 0
    steps = np.diff(book_at)
    return book_at[0] == 0 and book_at[-1] == k - 1 and bool(((steps == 0) | (steps == 1)).all())


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
        at = np.maximum.accumulate(read_at)
        reads = np.frombuffer(self.reads, dtype=np.float64).reshape(-1, _READ_WIDTH)
        book, book_at = book_table(reads[:, 4:].reshape(-1, 4, BOOK_DEPTH), at)
        return VenueFrames(
            present=reads[at, 0] != 0.0,
            best_bid=reads[at, 1],
            best_ask=reads[at, 2],
            mid=reads[at, 3],
            buy_volume=_volumes(self.buy, n),
            sell_volume=_volumes(self.sell, n),
            book=book,
            book_at=book_at,
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
    records of other venues still extend the grid.  VolumeOverflow names a
    venue's first frame whose taker volumes, or book depth (both sides' level
    quantities, as signals.depth_imbalance sums them), sum past the float range.
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
    grid_ts = np.arange(first, stop, dtype=np.int64) * GRID_NS
    frames = {}
    for v in sorted(states) if discover else list(states):
        # Each venue's state is dropped as soon as its frames are built.
        vf = frames[v] = states.pop(v).frames(len(grid_ts))
        # Trade and level qtys are finite, so only a sum can overflow, and only to +inf.
        with np.errstate(over="ignore"):
            depth = (vf.book[:, BID_QTY].sum(axis=1) + vf.book[:, ASK_QTY].sum(axis=1))[vf.book_at]
        for what, total in (("taker volume", np.maximum(vf.buy_volume, vf.sell_volume)), ("book depth", depth)):
            if (total == np.inf).any():
                raise VolumeOverflow(f"venue {v}: {what} at grid_ts {grid_ts[(total == np.inf).argmax()]} overflows")
    return FrameSet(grid_ts=grid_ts, venues=frames)


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


_BLOCK_ROWS = 2048  # frames of one venue the CSV writer formats at a time, which bounds its memory


def write_frames_csv(frames: FrameSet, path: str | Path) -> None:
    with open_output(path) as fh:
        _write_frames(frames, fh)


def _write_frames(frames: FrameSet, fh: IO[str]) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for venue in frames.venue_names:
        for i0 in range(0, frames.n_frames, _BLOCK_ROWS):
            _write_block(frames, venue, slice(i0, i0 + _BLOCK_ROWS), fh)


def _write_block(frames: FrameSet, venue: str, rows: slice, fh: IO[str]) -> None:
    """The CSV lines of one venue's frames ``rows``, dropped on return."""
    vf = frames.venues[venue]
    at = vf.book_at[rows]
    # Each book row the block uses is formatted once, its 4 x BOOK_DEPTH cells joined, and
    # repeated over its frames.  A row whose run crosses a block edge is formatted in both blocks.
    cells = _format_column(vf.book[at[0] : at[-1] + 1].reshape(-1))
    width = 4 * BOOK_DEPTH
    books = [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
    columns = [
        [str(ts) for ts in frames.grid_ts[rows].tolist()],
        [venue] * len(at),
        ["1" if p else "0" for p in vf.present[rows].tolist()],
        *(_format_column(col[rows]) for col in (vf.best_bid, vf.best_ask, vf.mid, vf.buy_volume, vf.sell_volume)),
        np.array(books, dtype=object)[at - at[0]].tolist(),
    ]
    fh.writelines(",".join(row) + "\n" for row in zip(*columns))
