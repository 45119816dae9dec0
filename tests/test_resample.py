import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execlab.capture import (
    BOOK_DEPTH,
    CSV_COLUMNS,
    GRID_NS,
    FrameSet,
    MarketRecord,
    TickerPayload,
    TradePayload,
    read_capture,
    resample,
    write_frames_csv,
)
from execlab.capture.book import LocalBook, apply_delta, apply_snapshot, merge_ticker
from execlab.capture.resample import _READ_WIDTH, _VenueState, is_book_index
from execlab.capture.records import BookPayload
from execlab.errors import CrossedTicker, UnsortedInput
from execlab.synth import SynthConfig, generate
from reference import per_frame_levels, venue_frames

MS = 1_000_000
SHORT_MARKET_FRAMES_SHA256 = "102ab502e1013e545babd2ed18915795c81011f6dad326563e368b0bc4f3af4b"


def snap(ts, venue="v0", bid=100.0, ask=100.1):
    return MarketRecord(
        venue, "book_snapshot", ts, BookPayload(bids=((bid, 2.0),), asks=((ask, 3.0),))
    )


def trade(ts, qty, side, venue="v0"):
    return MarketRecord(venue, "trade", ts, TradePayload(100.0, qty, side))


def test_empty_window_has_zero_volumes():
    frames = resample([snap(1 * MS), snap(25 * MS)])
    assert frames.n_frames == 3  # grid points 10, 20, 30 ms
    v = frames.venues["v0"]
    assert v.buy_volume.tolist() == [0.0, 0.0, 0.0]
    assert v.sell_volume.tolist() == [0.0, 0.0, 0.0]


def test_window_aggregation_by_side():
    frames = resample([snap(1 * MS), trade(13 * MS, 2.0, "buy"), trade(17 * MS, 5.0, "sell")])
    v = frames.venues["v0"]
    assert frames.grid_ts.tolist() == [10 * MS, 20 * MS]
    assert v.buy_volume.tolist() == [0.0, 2.0]
    assert v.sell_volume.tolist() == [0.0, 5.0]


def test_no_lookahead_boundary():
    # A record 1ns after the grid point must not affect that frame.
    at_grid = resample([snap(1 * MS), trade(20 * MS, 7.0, "buy")])
    after_grid = resample([snap(1 * MS), trade(20 * MS + 1, 7.0, "buy")])
    assert at_grid.venues["v0"].buy_volume.tolist() == [0.0, 7.0]
    assert after_grid.venues["v0"].buy_volume.tolist() == [0.0, 0.0, 7.0]


def test_book_state_is_last_at_or_before_grid():
    frames = resample([snap(1 * MS, bid=100.0), snap(9 * MS, bid=101.0, ask=101.2), snap(11 * MS, bid=99.0, ask=99.2)])
    v = frames.venues["v0"]
    assert v.best_bid[0] == 101.0  # 9ms state, not the 11ms one
    assert v.best_bid[1] == 99.0


def test_absent_venue_marked_until_two_sided():
    records = [
        MarketRecord("v0", "book_snapshot", 1 * MS, BookPayload(bids=((100.0, 1.0),))),
        snap(12 * MS),
    ]
    frames = resample(records)
    v = frames.venues["v0"]
    assert not v.present[0]
    assert np.isnan(v.mid[0])
    assert v.present[1]


def test_unsorted_input_reports_position():
    records = [snap(10 * MS), snap(30 * MS), snap(20 * MS)]
    with pytest.raises(UnsortedInput) as exc:
        resample(records)
    assert exc.value.position == 2


def test_deterministic_csv(tmp_path):
    records = [snap(1 * MS), trade(13 * MS, 2.0, "buy"), snap(21 * MS, venue="v1", bid=99.5, ask=99.6)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_frames_csv(resample(records), a)
    write_frames_csv(resample(records), b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("grid_ts,venue,present,best_bid,best_ask,mid")


def test_ticker_updates_between_snapshots():
    records = [
        snap(1 * MS),
        MarketRecord("v0", "ticker", 15 * MS, TickerPayload(100.05, 1.0, 100.08, 1.0)),
    ]
    frames = resample(records)
    v = frames.venues["v0"]
    assert v.best_bid[1] == 100.05
    assert v.best_ask[1] == 100.08


def test_grid_points_are_multiples_of_grid():
    frames = resample([snap(3 * MS), trade(47 * MS, 1.0, "sell")])
    assert all(ts % GRID_NS == 0 for ts in frames.grid_ts)


# -- the frames CSV writer against a cell-by-cell reference --------------------


def _reference_csv(frames) -> str:
    """The frames CSV written one cell at a time with format(x, ".9g")."""

    def fmt(x):
        return "" if math.isnan(x) else format(x, ".9g")

    lines = [",".join(CSV_COLUMNS)]
    for venue in frames.venue_names:
        vf = frames.venues[venue]
        for i, ts in enumerate(frames.grid_ts):
            cells = [str(int(ts)), venue, "1" if vf.present[i] else "0"]
            cells += [fmt(col[i]) for col in (vf.best_bid, vf.best_ask, vf.mid, vf.buy_volume, vf.sell_volume)]
            for block in (vf.bid_price, vf.bid_qty, vf.ask_price, vf.ask_qty):
                cells += [fmt(block[i, j]) for j in range(BOOK_DEPTH)]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = np.array(
    [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
     1.7976931348623157e308, -1.7976931348623157e308, 1e300, 123456789012.0, 0.1, 1 / 3, 100.05, 1e-9]
)


def _random_frameset(rng, n, venues):
    def col(*shape):
        out = np.where(rng.random(shape) < 0.5, rng.choice(SPECIAL_FLOATS, shape), rng.normal(0, 1e3, shape))
        # Long runs of one value, as in a book that rarely changes.
        return np.repeat(out[: -(-n // 3)], 3, axis=0)[:n]

    frames = {}
    for v in venues:
        frames[v] = venue_frames(
            rng.random(n) < 0.7, col(n), col(n), col(n), col(n), col(n),
            col(n, BOOK_DEPTH), col(n, BOOK_DEPTH), col(n, BOOK_DEPTH), col(n, BOOK_DEPTH),
        )
    grid = (np.arange(n, dtype=np.int64) + rng.integers(0, 2**40)) * GRID_NS
    return FrameSet(grid_ts=grid, venues=frames)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), n_venues=st.integers(0, 3))
def test_frames_csv_matches_cell_by_cell_reference(tmp_path_factory, seed, n, n_venues):
    frames = _random_frameset(np.random.default_rng(seed), n, [f"v{i}" for i in range(n_venues)][::-1])
    path = tmp_path_factory.mktemp("csv") / "frames.csv"
    write_frames_csv(frames, path)
    assert path.read_bytes() == _reference_csv(frames).encode("utf-8")


def test_frames_csv_keeps_signed_zero_apart(tmp_path):
    col = np.array([0.0, -0.0, 0.0, -0.0, np.nan, -np.nan])
    vf = venue_frames(np.ones(6, bool), col, col, col, col, col, *(np.zeros((6, BOOK_DEPTH)) for _ in range(4)))
    frames = FrameSet(grid_ts=np.arange(6, dtype=np.int64) * GRID_NS, venues={"v0": vf})
    write_frames_csv(frames, tmp_path / "frames.csv")
    text = (tmp_path / "frames.csv").read_text()
    assert [line.split(",")[3] for line in text.splitlines()[1:]] == ["0", "-0", "0", "-0", "", ""]
    assert text == _reference_csv(frames)


def test_frames_csv_digest_of_short_synthetic_market(tmp_path):
    cfg = SynthConfig(seed=1234, signal_strength=0.5, lag_ms=(0, 200, 300), tilt_noise=0.6)
    capture = tmp_path / "market.ndjson"
    generate(cfg, 5.0, capture)
    path = tmp_path / "frames.csv"
    write_frames_csv(resample(read_capture(capture)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHORT_MARKET_FRAMES_SHA256


# -- the resampler against one that rebuilds top-of-book at every grid point ---


def _reference_resample(records, venues=None):
    """Resample by re-reading every book from LocalBook at every grid point."""
    records = list(records)
    if venues is None:
        venues = sorted({r.venue for r in records})
    books = {v: LocalBook() for v in venues}
    volumes = {v: [0.0, 0.0] for v in venues}
    rows = {v: [] for v in venues}
    grid_points = []

    def emit():
        for v in venues:
            book = books[v]
            bb, ba = book.best_bid(), book.best_ask()
            present = book.two_sided()
            rows[v].append(
                (present, math.nan if bb is None else bb, math.nan if ba is None else ba,
                 (bb + ba) / 2.0 if present else math.nan, *volumes[v],
                 book.top_levels("bid"), book.top_levels("ask"))
            )
            volumes[v] = [0.0, 0.0]

    grid = None
    for rec in records:
        if grid is None:
            grid = -(-rec.local_ts // GRID_NS) * GRID_NS
        while rec.local_ts > grid:
            grid_points.append(grid)
            emit()
            grid += GRID_NS
        if rec.venue not in books:
            continue
        book = books[rec.venue]
        if rec.kind == "trade":
            volumes[rec.venue][0 if rec.payload.side == "buy" else 1] += rec.payload.qty
        elif rec.kind == "book_snapshot":
            apply_snapshot(book, rec.payload)
        elif rec.kind == "book_delta":
            apply_delta(book, rec.payload)
        else:
            try:
                merge_ticker(book, rec.payload)
            except CrossedTicker:
                pass
    if grid is not None:
        grid_points.append(grid)
        emit()

    out = {}
    for v in venues:
        n = len(rows[v])
        cols = {
            "present": np.zeros(n, dtype=bool),
            **{k: np.full(n, np.nan) for k in ("best_bid", "best_ask", "mid")},
            "buy_volume": np.zeros(n),
            "sell_volume": np.zeros(n),
            "bid_price": np.full((n, BOOK_DEPTH), np.nan),
            "bid_qty": np.zeros((n, BOOK_DEPTH)),
            "ask_price": np.full((n, BOOK_DEPTH), np.nan),
            "ask_qty": np.zeros((n, BOOK_DEPTH)),
        }
        for i, (p, bb, ba, mid, buy, sell, bids, asks) in enumerate(rows[v]):
            cols["present"][i] = p
            cols["best_bid"][i], cols["best_ask"][i], cols["mid"][i] = bb, ba, mid
            cols["buy_volume"][i], cols["sell_volume"][i] = buy, sell
            for j, (px, q) in enumerate(bids):
                cols["bid_price"][i, j], cols["bid_qty"][i, j] = px, q
            for j, (px, q) in enumerate(asks):
                cols["ask_price"][i, j], cols["ask_qty"][i, j] = px, q
        out[v] = venue_frames(**cols)
    return FrameSet(grid_ts=np.asarray(grid_points, dtype=np.int64), venues=out)


_PRICE = st.integers(990, 1010).map(lambda k: k / 10)  # few prices, so levels collide and cross
_QTY = st.sampled_from([0.0, 0.5, 1.0, 2.5])
_LEVELS = st.lists(st.tuples(_PRICE, _QTY), max_size=7).map(tuple)
_PAYLOADS = {
    "trade": st.builds(TradePayload, _PRICE, st.sampled_from([0.25, 1.0, 3.0]), st.sampled_from(["buy", "sell"])),
    "book_snapshot": st.builds(BookPayload, _LEVELS, _LEVELS),
    "book_delta": st.builds(BookPayload, _LEVELS, _LEVELS),
    # Crossed tickers (bid >= ask) are drawn too; the resampler rejects them.
    "ticker": st.builds(TickerPayload, _PRICE, st.sampled_from([1.0, 2.0]), _PRICE, st.sampled_from([1.0, 2.0])),
}


@st.composite
def _streams(draw):
    ts = draw(st.integers(0, 3 * GRID_NS))
    records = []
    for _ in range(draw(st.integers(0, 60))):
        # Steps of 0, within one window, exactly one grid step, or across several.
        ts += draw(st.sampled_from([0, 1, 3 * MS, GRID_NS, 4 * GRID_NS + 7]))
        kind = draw(st.sampled_from(sorted(_PAYLOADS)))
        venue = draw(st.sampled_from(["v0", "v1", "v2"]))
        records.append(MarketRecord(venue, kind, ts, draw(_PAYLOADS[kind])))
    # None discovers the venues; a list may leave some out or name one with no records.
    venues = draw(st.sampled_from([None, ["v0", "v1", "v2"], ["v0", "v1", "v2", "v9"], ["v2", "v1"]]))
    return records, venues


def _assert_frames_equal(got, want):
    assert got.grid_ts.dtype == want.grid_ts.dtype and np.array_equal(got.grid_ts, want.grid_ts)
    assert list(got.venues) == list(want.venues)
    for v, vf in want.venues.items():
        for name, col in vars(vf).items():
            mine = getattr(got.venues[v], name)
            assert mine.dtype == col.dtype and mine.shape == col.shape, (v, name)
            assert np.array_equal(mine, col, equal_nan=True), (v, name)


@settings(max_examples=200, deadline=None)
@given(stream=_streams())
def test_resample_matches_per_grid_point_rebuild(stream):
    records, venues = stream
    _assert_frames_equal(resample(records, venues=venues), _reference_resample(records, venues))


def test_resample_matches_reference_on_every_kind_of_update():
    records = [
        snap(1 * MS),
        MarketRecord("v0", "book_delta", 12 * MS, BookPayload(bids=((100.0, 0.0), (99.9, 1.0)))),
        MarketRecord("v0", "book_delta", 23 * MS, BookPayload(bids=((100.2, 1.0),))),  # crosses the ask
        MarketRecord("v0", "ticker", 34 * MS, TickerPayload(100.3, 1.0, 100.1, 1.0)),  # crossed: rejected
        MarketRecord("v0", "ticker", 45 * MS, TickerPayload(100.0, 1.0, 100.4, 1.0)),
        trade(51 * MS, 1.0, "buy"),
        MarketRecord("v0", "book_delta", 62 * MS, BookPayload(asks=((100.4, 0.0),))),  # one-sided again
        snap(72 * MS),
        trade(76 * MS, 1.5, "buy"),  # the last record of the 80 ms frame follows a book change
        MarketRecord("v0", "book_delta", 83 * MS, BookPayload(asks=((100.1, 0.0),))),  # two book records
        MarketRecord("v0", "book_delta", 87 * MS, BookPayload(asks=((100.3, 1.0),))),  # in the 90 ms frame
        trade(95 * MS, 2.0, "sell", venue="v1"),
    ]
    got = resample(records, venues=["v0", "v1"])
    _assert_frames_equal(got, _reference_resample(records, ["v0", "v1"]))
    v = got.venues["v0"]
    assert v.present.tolist() == [True, True, False, False, True, True, False, True, True, True]
    assert v.best_bid[4] == 100.0 and np.isnan(v.best_ask[6])
    assert v.buy_volume[7] == 1.5 and v.best_ask[7] == 100.1
    assert v.best_ask[8] == 100.3 and v.best_ask[9] == 100.3
    assert not got.venues["v1"].present.any()


# -- the book table against the per-frame expansion it replaced ---------------

_NAN_WITH_PAYLOAD = float(np.array(0x7FF8000000000123).view(np.float64))
# 0.0 and -0.0 key one level but read back as two bit patterns.
_ODD_LEVELS = st.lists(
    st.tuples(st.one_of(_PRICE, st.sampled_from([0.0, -0.0, _NAN_WITH_PAYLOAD])), _QTY), max_size=7
).map(tuple)


@st.composite
def _book_streams(draw):
    """One venue's book records, some frames apart: snapshots, deltas (qty 0
    deletes a level), tickers, and repeats of the last snapshot."""
    ts = draw(st.integers(0, 3 * GRID_NS))
    records, last = [], None
    for _ in range(draw(st.integers(0, 40))):
        ts += draw(st.sampled_from([0, 1, 3 * MS, GRID_NS, 4 * GRID_NS + 7]))
        kind = draw(st.sampled_from(["book_snapshot", "book_delta", "ticker", "repeat"]))
        if kind == "repeat":
            if last is None:
                continue
            kind, payload = "book_snapshot", last
        elif kind == "ticker":
            payload = draw(_PAYLOADS["ticker"])
        else:
            payload = BookPayload(draw(_ODD_LEVELS), draw(_ODD_LEVELS))
        if kind == "book_snapshot":
            last = payload
        records.append(MarketRecord("v0", kind, ts, payload))
    return records


@settings(max_examples=150, deadline=None)
@given(records=_book_streams())
def test_book_table_reads_back_as_the_per_frame_levels(records):
    # The reads the venue's state took, expanded to every frame as the
    # resampler once held them, are what the four views return, bit for bit.
    seen = []
    frames_of = _VenueState.frames

    def spy(state, n):
        vf = frames_of(state, n)
        reads = np.frombuffer(state.reads, dtype=np.float64).reshape(-1, _READ_WIDTH).copy()
        seen.append((reads, np.frombuffer(state.read_frames, dtype=np.int64).copy(), n))
        return vf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_VenueState, "frames", spy)
        vf = resample(records, venues=["v0"]).venues["v0"]
    ((reads, read_frames, n),) = seen
    want = per_frame_levels(reads, read_frames, n)
    for name, levels in want.items():
        got = getattr(vf, name)
        assert (got.dtype, got.shape, got.tobytes()) == (levels.dtype, levels.shape, levels.tobytes()), name
        assert not got.flags.writeable
    # One book row per run of frames whose books are bit-identical.
    bits = np.stack(list(want.values()), axis=1).view(np.int64)
    runs = int(n > 0) + int((bits[1:] != bits[:-1]).any(axis=(1, 2)).sum())
    assert vf.book.shape == (runs, 4, BOOK_DEPTH)
    assert vf.book_at.dtype == np.int64 and is_book_index(vf.book_at, runs)


# -- the streaming contract ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(stream=_streams())
def test_resample_of_an_iterator_equals_resample_of_the_list(stream):
    records, venues = stream
    _assert_frames_equal(resample(iter(records), venues=venues), resample(records, venues=venues))


def test_unsorted_input_is_raised_before_the_next_record_is_read():
    records = [snap(10 * MS), trade(15 * MS, 1.0, "buy"), snap(30 * MS), snap(20 * MS)]

    def stream():
        yield from records
        raise AssertionError("pulled past the first out-of-order record")

    with pytest.raises(UnsortedInput) as exc:
        resample(stream())
    assert exc.value.position == 3


def test_resample_holds_frames_not_records(tmp_path):
    capture = tmp_path / "market.ndjson"
    generate(SynthConfig(seed=1234), 10.0, capture)
    tracemalloc.start()
    try:
        frames = resample(read_capture(capture))
        held_by_frames, peak = tracemalloc.get_traced_memory()
        del frames
        start = tracemalloc.get_traced_memory()[0]
        records = list(read_capture(capture))
        held_by_records = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(records) > 0
    assert peak - held_by_frames < held_by_records / 4
