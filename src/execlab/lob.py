"""Order-book views and market-order fill simulation.

Pure value semantics: fills return a new view, so parallel rollouts can
share frame data safely.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BookView:
    """Top-K levels per side, best first; prices strictly ordered, qty > 0."""

    bids: tuple[tuple[float, float], ...]
    asks: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class FillResult:
    avg_price: float  # qty-weighted; 0.0 when nothing filled
    filled_qty: float
    book: BookView


def fill_market_sell(view: BookView, qty: float) -> FillResult:
    """Walk bid levels best-first; anything beyond visible depth stays unfilled."""
    if qty < 0:
        raise ValueError("qty must be >= 0")
    remaining = qty
    notional = 0.0
    filled = 0.0
    new_bids: list[tuple[float, float]] = []
    for price, avail in view.bids:
        if remaining <= 0:
            new_bids.append((price, avail))
            continue
        take = min(remaining, avail)
        notional += take * price
        filled += take
        remaining -= take
        if avail - take > 0:
            new_bids.append((price, avail - take))
    avg = notional / filled if filled > 0 else 0.0
    return FillResult(avg, filled, BookView(tuple(new_bids), view.asks))
