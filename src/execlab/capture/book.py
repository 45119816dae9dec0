"""Locally reconstructed order book: snapshot/delta application and ticker merge.

Tickers usually refresh faster than depth updates, so the local book is kept
live by splicing them in: the top of book is replaced by the ticker and any
resting level the ticker contradicts (levels crossing it, or levels claiming
to be better than the new top) is dropped as stale.  Deeper levels are left
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CrossedTicker
from .records import BookPayload, TickerPayload

BOOK_DEPTH = 5  # levels per side that the frames carry


@dataclass
class LocalBook:
    bids: dict[float, float] = field(default_factory=dict)  # price -> qty
    asks: dict[float, float] = field(default_factory=dict)

    def best_bid(self) -> float | None:
        return max(self.bids) if self.bids else None

    def best_ask(self) -> float | None:
        return min(self.asks) if self.asks else None

    def two_sided(self) -> bool:
        return bool(self.bids) and bool(self.asks)

    def top_levels(self, side: str) -> list[tuple[float, float]]:
        """The best BOOK_DEPTH (price, qty) levels of one side, best first."""
        if side == "bid":
            prices = sorted(self.bids, reverse=True)[:BOOK_DEPTH]
            return [(p, self.bids[p]) for p in prices]
        prices = sorted(self.asks)[:BOOK_DEPTH]
        return [(p, self.asks[p]) for p in prices]


def apply_snapshot(book: LocalBook, payload: BookPayload) -> LocalBook:
    """Replace the book with the snapshot; zero-qty levels are skipped.

    A crossed snapshot is repaired by dropping the crossing ask levels, the
    same fixed choice as everywhere else in this module.
    """
    book.bids = {p: q for p, q in payload.bids if q > 0}
    book.asks = {p: q for p, q in payload.asks if q > 0}
    bb = book.best_bid()
    if bb is not None:
        for price in [p for p in book.asks if p <= bb]:
            del book.asks[price]
    return book


def apply_delta(book: LocalBook, payload: BookPayload) -> LocalBook:
    """Apply level upserts/deletes; qty 0 deletes, qty > 0 upserts.

    An upsert that crosses the other side removes the older crossing levels:
    the incoming level is newer information than whatever it crosses.  Bids
    are applied before asks, so within one delta the asks win a conflict.
    """
    for price, qty in payload.bids:
        if qty <= 0:
            book.bids.pop(price, None)
        else:
            book.bids[price] = qty
            for ask in [p for p in book.asks if p <= price]:
                del book.asks[ask]
    for price, qty in payload.asks:
        if qty <= 0:
            book.asks.pop(price, None)
        else:
            book.asks[price] = qty
            for bid in [p for p in book.bids if p >= price]:
                del book.bids[bid]
    return book


def merge_ticker(book: LocalBook, payload: TickerPayload) -> LocalBook:
    """Splice a best bid/ask quote into the book.

    Postcondition: best bid == ticker bid and best ask == ticker ask.  Levels
    above the new best bid or below the new best ask (which includes anything
    crossing the ticker) are stale and removed; deeper levels survive.
    """
    if payload.bid_price >= payload.ask_price:
        raise CrossedTicker(
            f"ticker bid {payload.bid_price} >= ask {payload.ask_price}"
        )
    for price in [p for p in book.bids if p > payload.bid_price]:
        del book.bids[price]
    for price in [p for p in book.asks if p < payload.ask_price]:
        del book.asks[price]
    book.bids[payload.bid_price] = payload.bid_qty
    book.asks[payload.ask_price] = payload.ask_qty
    return book
