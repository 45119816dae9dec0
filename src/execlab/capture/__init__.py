"""Capture format, clock alignment, local book maintenance, 10ms resampling.

Live venue connectors are deliberately out of scope: anything that yields
MarketRecord objects in local_ts order (file replay via read_capture) plugs
into the same pipeline.
"""

from __future__ import annotations

from .book import LocalBook, apply_delta, apply_snapshot, merge_ticker
from .clock import ClockMap, align_clock, align_clocks
from .records import (
    KIND_BOOK_DELTA,
    KIND_BOOK_SNAPSHOT,
    KIND_TICKER,
    KIND_TRADE,
    KINDS,
    SIDE_BUY,
    SIDE_SELL,
    BookPayload,
    MarketRecord,
    TickerPayload,
    TradePayload,
    read_capture,
    record_to_line,
    write_capture,
)
from .resample import (
    BOOK_DEPTH,
    CSV_COLUMNS,
    GRID_NS,
    FrameSet,
    VenueFrames,
    resample,
    write_frames_csv,
)

__all__ = [
    "BOOK_DEPTH",
    "BookPayload",
    "CSV_COLUMNS",
    "ClockMap",
    "FrameSet",
    "GRID_NS",
    "KINDS",
    "KIND_BOOK_DELTA",
    "KIND_BOOK_SNAPSHOT",
    "KIND_TICKER",
    "KIND_TRADE",
    "LocalBook",
    "MarketRecord",
    "SIDE_BUY",
    "SIDE_SELL",
    "TickerPayload",
    "TradePayload",
    "VenueFrames",
    "align_clock",
    "align_clocks",
    "apply_delta",
    "apply_snapshot",
    "merge_ticker",
    "read_capture",
    "record_to_line",
    "resample",
    "write_capture",
    "write_frames_csv",
]

