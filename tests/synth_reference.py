"""The per-record generator `synth.generate` replaced, kept as the reference
its column writer is checked against: `write_capture(generate_records(...))`
writes the bytes `generate` writes.  Also the numpy-scalar loop that
`synth._ou_path` replaced, which its Python-float loop must match bit for bit."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from execlab.capture.records import (
    KIND_BOOK_SNAPSHOT,
    KIND_TRADE,
    SIDE_BUY,
    SIDE_SELL,
    BookPayload,
    MarketRecord,
    TradePayload,
)
from execlab.capture.resample import GRID_NS
from execlab.synth import _GRID_MS, _SNAP_OFF, _TRADE_OFF, _TRADE_SPACING, SynthConfig, _materialize, duration_steps


def ou_path(rng: np.random.Generator, n: int, tau_steps: float, stat_std: float) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck path sampled at the grid, one numpy scalar at a time."""
    if stat_std == 0:
        return np.zeros(n)
    phi = float(np.exp(-1.0 / tau_steps))
    innov_std = stat_std * np.sqrt(1.0 - phi * phi)
    w = rng.standard_normal(n)
    out = np.empty(n)
    prev = rng.standard_normal() * stat_std
    for k in range(n):
        prev = phi * prev + innov_std * w[k]
        out[k] = prev
    return out


def _venue_clock_offset(venue_idx: int) -> int:
    # Constant per-venue skew so align_clock has something honest to find.
    return (venue_idx + 1) * 5_000


def generate_records(config: SynthConfig, duration_s: float) -> Iterator[MarketRecord]:
    """The same market as generate_frames, as a sorted MarketRecord stream."""
    n = duration_steps(duration_s)
    draws = _materialize(config, n)
    names = config.venue_names
    update_steps = config.book_update_ms // _GRID_MS
    for k in range(n):
        base = k * GRID_NS
        row = k // update_steps  # the book step k holds
        step_records: list[tuple[tuple[int, int, int], MarketRecord]] = []
        for idx, name in enumerate(names):
            vd = draws.venues[name]
            if k % update_steps == 0:
                ts = base + _SNAP_OFF
                payload = BookPayload(
                    bids=tuple((float(p), float(q)) for p, q in zip(vd.bid_px[row], vd.bid_qty[row])),
                    asks=tuple((float(p), float(q)) for p, q in zip(vd.ask_px[row], vd.ask_qty[row])),
                )
                step_records.append(
                    (
                        (ts, idx, 0),
                        MarketRecord(name, KIND_BOOK_SNAPSHOT, ts, payload, ts - _venue_clock_offset(idx)),
                    )
                )
            n_tr = int(vd.n_trades[k])
            n_buy = int(vd.buys[k])
            if n_tr:
                price = float(vd.mid[row])
                spacing = min(_TRADE_SPACING, max(1, 7_000_000 // (n_tr * len(names))))
                for j in range(n_tr):
                    ts = base + _TRADE_OFF + (j * len(names) + idx) * spacing
                    side = SIDE_BUY if j < n_buy else SIDE_SELL
                    step_records.append(
                        (
                            (ts, idx, 1 + j),
                            MarketRecord(
                                name,
                                KIND_TRADE,
                                ts,
                                TradePayload(price, config.trade_qty, side),
                                ts - _venue_clock_offset(idx),
                            ),
                        )
                    )
        step_records.sort(key=lambda kv: kv[0])
        for _, rec in step_records:
            yield rec

