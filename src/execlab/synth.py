"""Reproducible multi-venue synthetic markets with a planted, testable signal.

Generative model, per 10ms grid step:

* The leader venue's latent price moves by ``mid0 * (vol * z_k + mu_k)``
  where ``z_k`` is white noise and ``mu_k`` is a slowly mean-reverting
  drift (correlation time ``drift_tau_s``, stationary stdev ``drift_vol``).
  The drift is the predictable component.
* Follower venues carry the leader's latent price delayed by ``lag_ms``
  plus a constant ``basis`` and a small level noise.
* Order flow reveals the drift: the taker-buy probability is
  ``0.5 * (1 + signal_strength * clip(mu_k / drift_vol, -1, 1))`` on every
  venue, independently per venue.  ``signal_strength = 0`` plants nothing.
* Books refresh every ``book_update_ms``; depth follows ``depth_profile``
  with a bid/ask tilt equal to the same revealed signal plus per-venue
  noise, so book imbalance carries the signal too.

``generate_frames`` materializes resampled frames directly from the draws;
``generate`` serializes the identical draws as a capture file, so
``resample(generate(...)) == generate_frames(...)`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.random import default_rng

from .capture.records import (
    KIND_BOOK_SNAPSHOT,
    KIND_TRADE,
    SIDE_BUY,
    SIDE_SELL,
    TS_MAX,
    BookPayload,
    MarketRecord,
    TradePayload,
)
from .capture.resample import BOOK_DEPTH, GRID_NS, FrameSet, VenueFrames
from .capture import write_capture
from .errors import InvalidConfig

_STEPS_PER_S = 1_000_000_000 // GRID_NS
_GRID_MS = GRID_NS // 1_000_000


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_venues: int = 3
    leader: int = 0
    lag_ms: tuple[int, ...] = (0, 200, 300)
    basis: tuple[float, ...] = (0.0, 0.5, -0.5)
    vol: float = 2e-5  # per-10ms return stdev
    drift_vol: float = 2e-6  # stationary stdev of the predictable drift, per step
    drift_tau_s: float = 3.0  # drift correlation time
    signal_strength: float = 0.5  # fraction of the drift revealed in flow/book
    trade_intensity: float = 2.0  # mean trades per venue per step
    trade_qty: float = 1.0
    depth_profile: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0, 12.0)
    tilt_noise: float = 0.15  # per-venue noise on the book tilt
    level_noise: float = 0.005  # price-unit noise on each venue's book placement
    mid0: float = 100.0
    tick: float = 0.01
    half_spread_ticks: int = 1
    book_update_ms: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.n_venues < 1:
            raise InvalidConfig("n_venues must be >= 1")
        if not (0 <= self.leader < self.n_venues):
            raise InvalidConfig("leader must index a venue")
        if len(self.lag_ms) != self.n_venues or len(self.basis) != self.n_venues:
            raise InvalidConfig("lag_ms and basis must have one entry per venue")
        if any(l < 0 for l in self.lag_ms):
            raise InvalidConfig("lag_ms must be >= 0")
        if self.lag_ms[self.leader] != 0:
            raise InvalidConfig("leader lag must be 0")
        if self.vol < 0 or self.drift_vol < 0:
            raise InvalidConfig("vol and drift_vol must be >= 0")
        if not (0.0 <= self.signal_strength <= 1.0):
            raise InvalidConfig("signal_strength must lie in [0, 1]")
        if self.trade_intensity < 0 or self.trade_qty <= 0:
            raise InvalidConfig("trade_intensity must be >= 0 and trade_qty > 0")
        if len(self.depth_profile) != BOOK_DEPTH or any(d <= 0 for d in self.depth_profile):
            raise InvalidConfig(f"depth_profile needs {BOOK_DEPTH} positive levels")
        if self.mid0 <= 0 or self.tick <= 0 or self.half_spread_ticks < 1:
            raise InvalidConfig("mid0, tick must be > 0 and half_spread_ticks >= 1")
        if self.book_update_ms < _GRID_MS or self.book_update_ms % _GRID_MS != 0:
            raise InvalidConfig(f"book_update_ms must be a positive multiple of {_GRID_MS}")
        if self.drift_tau_s <= 0:
            raise InvalidConfig("drift_tau_s must be > 0")

    @property
    def venue_names(self) -> list[str]:
        return [f"v{i}" for i in range(self.n_venues)]

    def lag_steps(self, venue_idx: int) -> int:
        return self.lag_ms[venue_idx] * 1_000_000 // GRID_NS


@dataclass
class _VenueDraws:
    mid: np.ndarray  # frame mid per step (book-cadence staircase)
    bid_px: np.ndarray  # (n, BOOK_DEPTH)
    ask_px: np.ndarray
    bid_qty: np.ndarray
    ask_qty: np.ndarray
    n_trades: np.ndarray  # int per step
    buys: np.ndarray  # taker-buy count per step


@dataclass
class _Draws:
    n_steps: int
    venues: dict[str, _VenueDraws] = field(default_factory=dict)


def _ou_path(rng: np.random.Generator, n: int, tau_steps: float, stat_std: float) -> np.ndarray:
    """Stationary Ornstein-Uhlenbeck path sampled at the grid."""
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


def _materialize(config: SynthConfig, n_steps: int) -> _Draws:
    rng = default_rng(config.seed)
    n = n_steps
    z = rng.standard_normal(n)
    drift = _ou_path(rng, n, config.drift_tau_s * _STEPS_PER_S, config.drift_vol)
    increments = config.mid0 * (config.vol * z + drift)
    latent = config.mid0 + np.cumsum(increments)

    if config.drift_vol > 0:
        revealed = config.signal_strength * np.clip(drift / config.drift_vol, -1.0, 1.0)
    else:
        revealed = np.zeros(n)

    update_steps = config.book_update_ms // _GRID_MS
    book_rows = np.arange(0, n, update_steps)
    hold = np.repeat(np.arange(len(book_rows)), update_steps)[:n]

    half_spread = config.half_spread_ticks * config.tick
    depth = np.asarray(config.depth_profile)
    level_off = np.arange(BOOK_DEPTH) * config.tick

    draws = _Draws(n_steps=n)
    for idx, name in enumerate(config.venue_names):
        lag = config.lag_steps(idx)
        lagged = latent[np.maximum(np.arange(n) - lag, 0)]
        level_eps = rng.standard_normal(len(book_rows)) * config.level_noise
        venue_latent = lagged[book_rows] + config.basis[idx] + level_eps
        tilt_eps = rng.standard_normal(len(book_rows)) * config.tilt_noise
        tilt = np.clip(revealed[book_rows] + tilt_eps, -0.95, 0.95)

        mid_b = venue_latent
        bid_qty_b = depth[None, :] * (1.0 + tilt)[:, None]
        ask_qty_b = depth[None, :] * (1.0 - tilt)[:, None]
        bid_px_b = (mid_b - half_spread)[:, None] - level_off[None, :]
        ask_px_b = (mid_b + half_spread)[:, None] + level_off[None, :]

        n_trades = rng.poisson(config.trade_intensity, size=n)
        p_buy = 0.5 * (1.0 + revealed)
        buys = rng.binomial(n_trades, p_buy)

        draws.venues[name] = _VenueDraws(
            mid=mid_b[hold],
            bid_px=bid_px_b[hold],
            ask_px=ask_px_b[hold],
            bid_qty=bid_qty_b[hold],
            ask_qty=ask_qty_b[hold],
            n_trades=n_trades,
            buys=buys,
        )
    return draws


def _frames_from_draws(config: SynthConfig, draws: _Draws) -> FrameSet:
    n = draws.n_steps
    grid_ts = (np.arange(1, n + 1, dtype=np.int64)) * GRID_NS
    venues: dict[str, VenueFrames] = {}
    half_spread = config.half_spread_ticks * config.tick
    for name, vd in draws.venues.items():
        best_bid = vd.mid - half_spread
        best_ask = vd.mid + half_spread
        venues[name] = VenueFrames(
            present=np.ones(n, dtype=bool),
            best_bid=best_bid,
            best_ask=best_ask,
            # Same float expression the resampler uses, so both paths agree
            # bit for bit.
            mid=(best_bid + best_ask) / 2.0,
            buy_volume=vd.buys * config.trade_qty,
            sell_volume=(vd.n_trades - vd.buys) * config.trade_qty,
            bid_price=vd.bid_px,
            bid_qty=vd.bid_qty,
            ask_price=vd.ask_px,
            ask_qty=vd.ask_qty,
        )
    return FrameSet(grid_ts=grid_ts, venues=venues)


def duration_steps(duration_s: float) -> int:
    """Grid steps in a synthetic market of duration_s seconds: at least one,
    and so few that the market's last grid time, steps * GRID_NS, which its
    records all precede, is at most TS_MAX, the last timestamp a capture holds."""
    steps = duration_s * _STEPS_PER_S
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise InvalidConfig(f"duration must cover at least one {_GRID_MS} ms grid step, got {duration_s} s")
    if round(steps) > TS_MAX // GRID_NS:
        raise InvalidConfig(f"duration must end by the last capture timestamp, {TS_MAX} ns, got {duration_s} s")
    return int(round(steps))


def generate_frames(config: SynthConfig, duration_s: float) -> FrameSet:
    """Resampled frames of the synthetic market, bypassing serialization."""
    return _frames_from_draws(config, _materialize(config, duration_steps(duration_s)))


_SNAP_OFF = 1_000_000  # snapshot offset into the window, ns
_TRADE_OFF = 2_000_000
_TRADE_SPACING = 10_000


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
        step_records: list[tuple[tuple[int, int, int], MarketRecord]] = []
        for idx, name in enumerate(names):
            vd = draws.venues[name]
            if k % update_steps == 0:
                ts = base + _SNAP_OFF
                payload = BookPayload(
                    bids=tuple((float(p), float(q)) for p, q in zip(vd.bid_px[k], vd.bid_qty[k])),
                    asks=tuple((float(p), float(q)) for p, q in zip(vd.ask_px[k], vd.ask_qty[k])),
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
                price = float(vd.mid[k])
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


def generate(config: SynthConfig, duration_s: float, path: str | Path) -> int:
    """Write the synthetic market as a capture file; returns records written."""
    duration_steps(duration_s)  # generate_records is lazy: check before the file is created
    return write_capture(generate_records(config, duration_s), path)
