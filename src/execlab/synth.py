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

The draws hold each venue's book once per refresh, and each step's trade
counts.  ``generate_frames`` materializes resampled frames directly from the
draws, repeating each book over the grid steps it covers;
``generate`` serializes the identical draws as a capture file, so
``resample(generate(...)) == generate_frames(...)`` bit for bit: the frames
end, as the resampler's grid does, at the last step that holds a record, and
a frame's taker volume is its trades' sizes added one after another.  It writes
the draws column-wise, one block of ``_BLOCK_STEPS`` grid steps at a time:
numpy computes every record's step, timestamp, venue and rank, one sort puts
them in capture order, and each line, trade or book snapshot, is formatted
from the columns in the bytes the JSON encoder would write for its record.
Both refuse draws that a capture cannot carry (see ``_materialize``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.random import default_rng

from .capture.records import _EXCH_TS, KIND_BOOK_SNAPSHOT, SIDE_BUY, SIDE_SELL, TS_MAX, _trade_head, _trade_tail
from .capture.resample import BOOK_DEPTH, GRID_NS, FrameSet, VenueFrames, book_table
from .errors import InvalidConfig, open_output

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
    mid: np.ndarray  # per book refresh
    bid_px: np.ndarray  # (refreshes, BOOK_DEPTH)
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
    path = rng.standard_normal(n)
    path *= innov_std  # the innovations, overwritten by the path below
    prev = float(rng.standard_normal() * stat_std)
    # A memoryview reads and writes Python floats, not numpy scalars: the same
    # multiply-add in the same order at a fraction of the cost, in no more memory.
    cells = memoryview(path)
    for k in range(n):
        prev = phi * prev + cells[k]
        cells[k] = prev
    return path


def _materialize(config: SynthConfig, n_steps: int) -> _Draws:
    """The market's draws, one book per refresh, unless a capture of them
    would not read back as their frames: a price in them is not a finite
    number > 0, a level quantity, a book's depth (both sides' level quantities
    summed) or a step's taker volume is not finite, or a book's prices do not
    strictly fall on the bid side, rise on the ask side and put the best bid
    below the best ask (the resampler keys levels by price, and a tick below
    the float spacing of the prices merges them)."""
    rng = default_rng(config.seed)
    n = n_steps
    # A draw that overflows or is NaN is refused below, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
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

        half_spread = config.half_spread_ticks * config.tick
        depth = np.asarray(config.depth_profile)
        level_off = np.arange(BOOK_DEPTH) * config.tick

        draws = _Draws(n_steps=n)
        for idx, name in enumerate(config.venue_names):
            lagged = latent[np.maximum(book_rows - config.lag_steps(idx), 0)]
            level_eps = rng.standard_normal(len(book_rows)) * config.level_noise
            mid = lagged + config.basis[idx] + level_eps
            tilt_eps = rng.standard_normal(len(book_rows)) * config.tilt_noise
            tilt = np.clip(revealed[book_rows] + tilt_eps, -0.95, 0.95)
            bid_qty = depth[None, :] * (1.0 + tilt)[:, None]
            ask_qty = depth[None, :] * (1.0 - tilt)[:, None]
            bid_px = (mid - half_spread)[:, None] - level_off[None, :]
            ask_px = (mid + half_spread)[:, None] + level_off[None, :]

            n_trades = rng.poisson(config.trade_intensity, size=n)
            buys = rng.binomial(n_trades, 0.5 * (1.0 + revealed))

            # NaN fails every comparison.
            if not all(px.min() > 0 and px.max() < np.inf for px in (mid, bid_px, ask_px)):
                raise InvalidConfig(f"venue {name} draws a price that is not a finite number > 0")
            if not all(qty.max() < np.inf for qty in (bid_qty, ask_qty)):
                raise InvalidConfig(f"venue {name} draws a book quantity that is not finite")
            if not (bid_qty.sum(axis=1) + ask_qty.sum(axis=1)).max() < np.inf:
                raise InvalidConfig(f"venue {name} draws a book depth that sums past the float range")
            if not (
                (bid_px[:, 1:] < bid_px[:, :-1]).all()
                and (ask_px[:, 1:] > ask_px[:, :-1]).all()
                and (bid_px[:, 0] < ask_px[:, 0]).all()
            ):
                raise InvalidConfig(
                    f"venue {name} draws a book whose price levels are not strictly ordered: "
                    f"a tick of {config.tick} is too fine for the float spacing of its prices"
                )
            max_trades = int(n_trades.max())
            if not _taker_volumes(config.trade_qty, max_trades)[-1] < np.inf:
                raise InvalidConfig(
                    f"venue {name} draws a taker volume that is not finite: "
                    f"{max_trades} trades of {config.trade_qty} in a step"
                )
            draws.venues[name] = _VenueDraws(mid, bid_px, ask_px, bid_qty, ask_qty, n_trades, buys)
    return draws


def _taker_volumes(trade_qty: float, max_trades: int) -> np.ndarray:
    """The volume of k trades of trade_qty at index k, for k up to max_trades,
    summed one trade after another as the resampler sums a frame's trades:
    k * trade_qty may round otherwise."""
    return np.concatenate(([0.0], np.cumsum(np.full(max_trades, float(trade_qty)))))


def _framed_steps(config: SynthConfig, draws: _Draws) -> int:
    """The steps up to the last one that holds a record of the capture: the
    resampler's grid ends at its last record."""
    book_steps = config.book_update_ms // _GRID_MS
    last_book = (draws.n_steps - 1) // book_steps * book_steps
    n = last_book + 1
    for vd in draws.venues.values():
        traded = np.flatnonzero(vd.n_trades[last_book:])
        if len(traded):
            n = max(n, last_book + int(traded[-1]) + 1)
    return n


def _frames_from_draws(config: SynthConfig, draws: _Draws) -> FrameSet:
    """The frames of `draws`, which it empties."""
    n = _framed_steps(config, draws)
    grid_ts = (np.arange(1, n + 1, dtype=np.int64)) * GRID_NS
    venues: dict[str, VenueFrames] = {}
    half_spread = config.half_spread_ticks * config.tick
    volumes = _taker_volumes(config.trade_qty, max(int(vd.n_trades.max()) for vd in draws.venues.values()))
    hold = np.arange(n) // (config.book_update_ms // _GRID_MS)  # each step's book refresh
    # Each venue's draws are dropped once its frames are made, so the next
    # venue's frames reuse their heap memory: freed all at the end, that
    # memory would stay resident (about 0.5 MB of a 300 s market's train run).
    shared_at = None
    for name in list(draws.venues):
        vd = draws.venues.pop(name)
        mid = vd.mid[hold]
        best_bid = mid - half_spread
        best_ask = mid + half_spread
        n_trades, buys = vd.n_trades[:n], vd.buys[:n]
        book, book_at = book_table(np.stack((vd.bid_px, vd.bid_qty, vd.ask_px, vd.ask_qty), axis=1), hold)
        # Venues whose books change on the same frames share one index.
        if shared_at is not None and np.array_equal(book_at, shared_at):
            book_at = shared_at
        shared_at = book_at
        venues[name] = VenueFrames(
            present=np.ones(n, dtype=bool),
            best_bid=best_bid,
            best_ask=best_ask,
            # Same float expression the resampler uses, so both paths agree
            # bit for bit.
            mid=(best_bid + best_ask) / 2.0,
            buy_volume=volumes[buys],
            sell_volume=volumes[n_trades - buys],
            book=book,
            book_at=book_at,
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
_CLOCK_SKEW = 5_000  # venue i's clock runs (i + 1) * _CLOCK_SKEW ns behind, for align_clock to find
_BLOCK_STEPS = 250  # grid steps generate formats at a time, which bounds its memory


def generate(config: SynthConfig, duration_s: float, path: str | Path) -> int:
    """Write the synthetic market as a capture file; returns records written.

    Per grid step, each venue's book snapshot on its book steps comes first,
    at _SNAP_OFF into the step, then its trades from _TRADE_OFF on, spread
    over 7 ms across the venues and ordered by (local_ts, venue, trade).
    """
    draws = _materialize(config, duration_steps(duration_s))  # both may refuse: before the file is created
    written = 0
    with open_output(path) as fh:
        for text, count in _capture_blocks(config, draws):
            fh.write(text)
            written += count
    return written


def _snapshot_format(venue: str) -> str:
    """The str.format template of a book_snapshot line of `venue`, as the JSON
    encoder writes it, from local_ts, exch_ts, then each bid level's price and
    qty in turn, then each ask level's.  The levels are finite floats, for
    which the encoder writes their repr."""
    head = f'{{"venue":{json.dumps(venue, ensure_ascii=False)},"kind":"{KIND_BOOK_SNAPSHOT}","local_ts":'
    levels = "[" + ",".join(["[{!r},{!r}]"] * BOOK_DEPTH) + "]"
    return (
        head.replace("{", "{{").replace("}", "}}")
        + "{}" + _EXCH_TS + '{},"payload":{{"bids":' + levels + ',"asks":' + levels + "}}}}\n"
    )


def _capture_blocks(config: SynthConfig, draws: _Draws) -> Iterator[tuple[str, int]]:
    """The capture of `draws` as (text, records) for each block of
    _BLOCK_STEPS whole grid steps, its records built column by column."""
    names = config.venue_names
    nv = len(names)
    update_steps = config.book_update_ms // _GRID_MS
    qty = json.dumps(config.trade_qty)  # as the JSON encoder writes it: an int stays one
    heads = [_trade_head(name) for name in names]
    snapshot_formats = [_snapshot_format(name).format for name in names]
    for k0 in range(0, draws.n_steps, _BLOCK_STEPS):
        k1 = min(k0 + _BLOCK_STEPS, draws.n_steps)
        row0, row1 = k0 // update_steps, (k1 - 1) // update_steps + 1  # the books the block's steps hold
        snap0 = -(-k0 // update_steps)  # the first book refreshed in the block
        snap_steps = np.arange(snap0, row1) * update_steps
        snap_ts = snap_steps * GRID_NS + _SNAP_OFF
        lines: list[str] = []
        keys: list[tuple[np.ndarray, ...]] = []  # (step, local_ts, venue, rank) per record, in `lines` order
        for idx, name in enumerate(names):
            vd = draws.venues[name]
            skew = (idx + 1) * _CLOCK_SKEW
            # Per snapshot: each bid level's price and qty in turn, then each ask level's.
            bids = np.stack((vd.bid_px[snap0:row1], vd.bid_qty[snap0:row1]), axis=2)
            asks = np.stack((vd.ask_px[snap0:row1], vd.ask_qty[snap0:row1]), axis=2)
            levels = np.concatenate((bids, asks), axis=1).reshape(len(snap_steps), 4 * BOOK_DEPTH)
            snapshot = snapshot_formats[idx]
            lines += [
                snapshot(t, e, *row) for t, e, row in zip(snap_ts.tolist(), (snap_ts - skew).tolist(), levels.tolist())
            ]
            keys.append((snap_steps, snap_ts, np.full(len(snap_steps), idx), np.zeros(len(snap_steps), dtype=np.int64)))

            n_trades = vd.n_trades[k0:k1]
            step = np.repeat(np.arange(k0, k1), n_trades)
            j = np.arange(len(step)) - np.repeat(np.cumsum(n_trades) - n_trades, n_trades)
            spacing = np.minimum(_TRADE_SPACING, np.maximum(1, 7_000_000 // np.maximum(n_trades * nv, 1)))
            # A trade's ts lies below (step + 1) * GRID_NS <= TS_MAX (see duration_steps)
            # while its step has at most 7e6 trades, so int64 holds it exactly.
            ts = step * GRID_NS + _TRADE_OFF + (j * nv + idx) * np.repeat(spacing, n_trades)
            # A venue's trades within one book row share its mid as their price,
            # so each (row, side) has one payload; its tail is formatted once.
            tails = np.array(
                [_trade_tail(repr(p), qty, side) for p in vd.mid[row0:row1].tolist() for side in (SIDE_BUY, SIDE_SELL)],
                dtype=object,
            )
            sells = j >= np.repeat(vd.buys[k0:k1], n_trades)
            tail = tails[(step // update_steps - row0) * 2 + sells]
            head = heads[idx]
            lines += [f"{head}{t}{_EXCH_TS}{e}{p}" for t, e, p in zip(ts.tolist(), (ts - skew).tolist(), tail.tolist())]
            keys.append((step, ts, np.full(len(step), idx), j + 1))
        step, ts, venue, rank = (np.concatenate(column) for column in zip(*keys))
        # The step first, so a step's records all precede the next step's.
        order = np.lexsort((rank, venue, ts, step))
        yield "".join([lines[i] for i in order.tolist()]), len(lines)
