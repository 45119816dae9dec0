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


@dataclass
class LocalBook:
    bids: dict[float, float] = field(default_factory=dict)  # price -> qty
    asks: dict[float, float] = field(default_factory=dict)
    last_update_local_ts: int | None = None

    def best_bid(self) -> float | None:
        return max(self.bids) if self.bids else None

    def best_ask(self) -> float | None:
        return min(self.asks) if self.asks else None

    def two_sided(self) -> bool:
        return bool(self.bids) and bool(self.asks)

    def mid(self) -> float | None:
        if not self.two_sided():
            return None
        return (self.best_bid() + self.best_ask()) / 2.0

    def top_levels(self, side: str, depth: int = 5) -> list[tuple[float, float]]:
        if side == "bid":
            prices = sorted(self.bids, reverse=True)[:depth]
            return [(p, self.bids[p]) for p in prices]
        prices = sorted(self.asks)[:depth]
        return [(p, self.asks[p]) for p in prices]


def apply_snapshot(book: LocalBook, payload: BookPayload, local_ts: int) -> LocalBook:
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
    book.last_update_local_ts = local_ts
    return book


def apply_delta(book: LocalBook, payload: BookPayload, local_ts: int) -> LocalBook:
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
    book.last_update_local_ts = local_ts
    return book


def merge_ticker(book: LocalBook, payload: TickerPayload, local_ts: int) -> LocalBook:
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
    book.last_update_local_ts = local_ts
    return book
