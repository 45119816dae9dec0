import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from execlab.capture import (
    MarketRecord,
    TickerPayload,
    TradePayload,
    read_capture,
    write_capture,
)
from execlab.capture.records import (
    TS_MAX,
    TS_MIN,
    BookPayload,
    _trade_head,
    parse_record,
    read_capture_lines,
    record_to_line,
)
from execlab.capture.resample import GRID_NS, resample
from execlab.errors import ExecLabError, MalformedLine, UnknownKind
from execlab.synth import SynthConfig
from synth_reference import generate_records


def _mixed_records(n=1000):
    records = []
    for i in range(n):
        ts = 1_000_000_000 + i * 37_000
        kind = i % 4
        if kind == 0:
            rec = MarketRecord("v0", "trade", ts, TradePayload(100.5 + i * 0.01, 1.25, "buy"))
        elif kind == 1:
            rec = MarketRecord(
                "v1",
                "book_snapshot",
                ts,
                BookPayload(bids=((100.0, 2.0), (99.9, 3.5)), asks=((100.1, 1.0),)),
                exch_ts=ts - 5000,
            )
        elif kind == 2:
            rec = MarketRecord("v0", "book_delta", ts, BookPayload(bids=((99.8, 0.0),)))
        else:
            rec = MarketRecord("v2", "ticker", ts, TickerPayload(100.0, 1.0, 100.1, 2.0), exch_ts=ts)
        records.append(rec)
    return records


def test_round_trip_identity(tmp_path):
    records = _mixed_records()
    path = tmp_path / "cap.ndjson"
    write_capture(records, path)
    first = path.read_bytes()
    loaded = list(read_capture(path))
    assert loaded == records
    path2 = tmp_path / "cap2.ndjson"
    write_capture(loaded, path2)
    assert path2.read_bytes() == first


def test_empty_file_yields_empty_stream(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    assert list(read_capture(path)) == []


def test_truncated_last_line_reports_line_number(tmp_path):
    records = _mixed_records(10)
    path = tmp_path / "cap.ndjson"
    write_capture(records, path)
    text = path.read_text()
    path.write_text(text[:-20])  # chop into the last record
    with pytest.raises(MalformedLine) as exc:
        list(read_capture(path))
    assert exc.value.line_no == 10


def test_unknown_kind():
    line = '{"venue":"v0","kind":"quote_burst","local_ts":1,"payload":{}}'
    with pytest.raises(UnknownKind) as exc:
        list(read_capture_lines([line]))
    assert exc.value.kind == "quote_burst"
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"price": -1.0, "qty": 1.0, "side": "buy"}, "price"),
        ({"price": 1.0, "qty": 0.0, "side": "buy"}, "qty"),
        ({"price": 1.0, "qty": 1.0, "side": "held"}, "side"),
    ],
)
def test_trade_validation(payload, reason):
    import json

    line = json.dumps({"venue": "v0", "kind": "trade", "local_ts": 5, "payload": payload})
    with pytest.raises(MalformedLine) as exc:
        list(read_capture_lines([line]))
    assert reason in exc.value.reason


def test_missing_field_is_malformed():
    with pytest.raises(MalformedLine):
        list(read_capture_lines(['{"venue":"v0","kind":"trade","payload":{}}']))


def test_write_lines_returns_count(tmp_path):
    path = tmp_path / "cap.ndjson"
    assert write_capture(_mixed_records(17), path) == 17
    assert path.read_text().count("\n") == 17


def test_exch_ts_omitted_when_absent():
    rec = MarketRecord("v0", "trade", 1, TradePayload(1.0, 1.0, "sell"))
    assert '"exch_ts"' not in record_to_line(rec)


# -- every rejection, with its exact reason and line number -------------------

GOOD_TRADE = {"price": 1.0, "qty": 1.0, "side": "buy"}
GOOD_TICKER = {"bid_price": 1.0, "bid_qty": 1.0, "ask_price": 2.0, "ask_qty": 1.0}


_DROP = object()


def _line(kind="trade", payload=GOOD_TRADE, **fields):
    """One wire line: a valid record of `kind` with `fields` replaced (or dropped)."""
    obj = {"venue": "v0", "kind": kind, "local_ts": 5, "exch_ts": 4, "payload": payload, **fields}
    return json.dumps({key: value for key, value in obj.items() if value is not _DROP})


def _rejection(line):
    """(line_no, reason) for `line` read as the third line of a capture."""
    ok = _line()
    with pytest.raises(MalformedLine) as exc:
        list(read_capture_lines([ok, ok, line]))
    assert str(exc.value) == f"line {exc.value.line_no}: {exc.value.reason}"
    return exc.value.line_no, exc.value.reason


def _book(bids=(), asks=()):
    return {"bids": bids, "asks": asks}


REJECTIONS = [
    ("[1, 2]", "record must be a JSON object"),
    ('"trade"', "record must be a JSON object"),
    ("null", "record must be a JSON object"),
    (_line(venue=_DROP), "missing field 'venue'"),
    (_line(kind=_DROP), "missing field 'kind'"),
    (_line(local_ts=_DROP), "missing field 'local_ts'"),
    (_line(payload=_DROP), "missing field 'payload'"),
    (_line(venue=_DROP, payload=_DROP), "missing field 'venue'"),
    (_line(venue=""), "venue must be a nonempty string"),
    (_line(venue=7), "venue must be a nonempty string"),
    (_line(venue=None), "venue must be a nonempty string"),
    (_line(local_ts=1.5), "local_ts must be an integer"),
    (_line(local_ts="5"), "local_ts must be an integer"),
    (_line(local_ts=None), "local_ts must be an integer"),
    (_line(exch_ts=1.5), "exch_ts must be an integer"),
    (_line(exch_ts="4"), "exch_ts must be an integer"),
    # a timestamp and its 10 ms grid time must both fit int64
    (_line(local_ts=TS_MAX + 1), f"local_ts must lie in [{TS_MIN}, {TS_MAX}]"),
    (_line(local_ts=TS_MIN - 1), f"local_ts must lie in [{TS_MIN}, {TS_MAX}]"),
    (_line(local_ts=10**20), f"local_ts must lie in [{TS_MIN}, {TS_MAX}]"),
    (_line(exch_ts=TS_MAX + 1), f"exch_ts must lie in [{TS_MIN}, {TS_MAX}]"),
    (_line(exch_ts=-(10**20)), f"exch_ts must lie in [{TS_MIN}, {TS_MAX}]"),
    (_line(payload=[1.0]), "payload must be an object"),
    (_line(payload="x"), "payload must be an object"),
    # Checks run in order: venue, local_ts, exch_ts, payload, then the body.
    (_line(venue="", local_ts=1.5), "venue must be a nonempty string"),
    (_line(local_ts=1.5, exch_ts=1.5), "local_ts must be an integer"),
    (_line(exch_ts=1.5, payload=[]), "exch_ts must be an integer"),
    (_line(kind="nope", payload=[]), "payload must be an object"),
    (_line(payload={"qty": 1.0, "side": "buy"}), "trade price must be > 0"),
    (_line(payload={**GOOD_TRADE, "price": 0.0}), "trade price must be > 0"),
    (_line(payload={**GOOD_TRADE, "price": -2}), "trade price must be > 0"),
    (_line(payload={**GOOD_TRADE, "price": "1.0"}), "trade price must be > 0"),
    (_line(payload={**GOOD_TRADE, "price": None}), "trade price must be > 0"),
    (_line(payload={**GOOD_TRADE, "price": False}), "trade price must be > 0"),
    (_line(payload={"price": 1.0, "side": "buy"}), "trade qty must be > 0"),
    (_line(payload={**GOOD_TRADE, "qty": 0}), "trade qty must be > 0"),
    (_line(payload={**GOOD_TRADE, "qty": [1.0]}), "trade qty must be > 0"),
    (_line(payload={"price": 1.0, "qty": 1.0}), "trade side must be 'buy' or 'sell'"),
    (_line(payload={**GOOD_TRADE, "side": "BUY"}), "trade side must be 'buy' or 'sell'"),
    (_line(payload={**GOOD_TRADE, "side": 1}), "trade side must be 'buy' or 'sell'"),
    (_line(payload={"price": 0.0, "qty": 0.0, "side": "x"}), "trade price must be > 0"),
    (_line(payload={"price": 1.0, "qty": 0.0, "side": "x"}), "trade qty must be > 0"),
]
for _kind in ("book_snapshot", "book_delta"):
    for _side, _other in (("bids", "asks"), ("asks", "bids")):
        REJECTIONS += [
            (_line(_kind, {_side: {"1": 2}}), f"{_side} must be a list"),
            (_line(_kind, {_side: None}), f"{_side} must be a list"),
            (_line(_kind, {_side: [[1.0, 1.0], 5]}), f"{_side} level must be [price, qty]"),
            (_line(_kind, {_side: [[1.0]]}), f"{_side} level must be [price, qty]"),
            (_line(_kind, {_side: [[1.0, 1.0, 1.0]]}), f"{_side} level must be [price, qty]"),
            (_line(_kind, {_side: [{"price": 1.0}]}), f"{_side} level must be [price, qty]"),
            (_line(_kind, {_side: [[0.0, 1.0]]}), f"{_side} price must be > 0"),
            (_line(_kind, {_side: [[-1.0, 1.0]]}), f"{_side} price must be > 0"),
            (_line(_kind, {_side: [["1", 1.0]]}), f"{_side} price must be > 0"),
            (_line(_kind, {_side: [[None, 1.0]]}), f"{_side} price must be > 0"),
            (_line(_kind, {_side: [[1.0, -0.5]]}), f"{_side} qty must be >= 0"),
            (_line(_kind, {_side: [[1.0, "0"]]}), f"{_side} qty must be >= 0"),
            (_line(_kind, {_side: [[1.0, 1.0], [2.0, None]]}), f"{_side} qty must be >= 0"),
            (_line(_kind, {_side: [[0.0, -1.0]]}), f"{_side} price must be > 0"),
        ]
    # Bids are checked before asks.
    REJECTIONS.append((_line(_kind, {"bids": [[0.0, 1.0]], "asks": 3}), "bids price must be > 0"))
for _key in ("bid_price", "bid_qty", "ask_price", "ask_qty"):
    REJECTIONS += [
        (_line("ticker", {k: v for k, v in GOOD_TICKER.items() if k != _key}), f"ticker {_key} must be > 0"),
        (_line("ticker", {**GOOD_TICKER, _key: 0.0}), f"ticker {_key} must be > 0"),
        (_line("ticker", {**GOOD_TICKER, _key: -1}), f"ticker {_key} must be > 0"),
        (_line("ticker", {**GOOD_TICKER, _key: "1"}), f"ticker {_key} must be > 0"),
        (_line("ticker", {**GOOD_TICKER, _key: False}), f"ticker {_key} must be > 0"),
    ]
# Numbers must be finite: NaN, the infinities, a literal such as 1e999 that
# reads as one, and an integer past the largest float are rejected.
INFINITE_LITERAL = _line(payload={**GOOD_TRADE, "qty": 7.5}).replace("7.5", "1e999")
REJECTIONS += [
    (_line(payload={**GOOD_TRADE, "price": math.inf}), "trade price must be finite"),
    (_line(payload={**GOOD_TRADE, "price": math.nan}), "trade price must be finite"),
    (_line(payload={**GOOD_TRADE, "price": 10**400}), "trade price must be finite"),
    (_line(payload={**GOOD_TRADE, "qty": -math.inf}), "trade qty must be finite"),
    (INFINITE_LITERAL, "trade qty must be finite"),
    (_line("book_snapshot", {"bids": [[math.inf, 1.0]]}), "bids price must be finite"),
    (_line("book_delta", {"asks": [[1.0, math.inf]]}), "asks qty must be finite"),
    (_line("book_delta", {"asks": [[1.0, math.nan]]}), "asks qty must be finite"),
    (_line("ticker", {**GOOD_TICKER, "bid_qty": math.inf}), "ticker bid_qty must be finite"),
    (_line("ticker", {**GOOD_TICKER, "ask_price": math.nan}), "ticker ask_price must be finite"),
]
# Ticker fields are checked in wire order.
REJECTIONS.append((_line("ticker", {"bid_price": 1.0, "bid_qty": 0, "ask_price": 0}), "ticker bid_qty must be > 0"))


@pytest.mark.parametrize("line, reason", REJECTIONS)
def test_every_rejection_reason_and_line(line, reason):
    assert _rejection(line) == (3, reason)


@pytest.mark.parametrize("ts", [TS_MIN, TS_MAX])
def test_extreme_timestamps_resample_to_their_grid_time(ts):
    (rec,) = read_capture_lines([_line(local_ts=ts, exch_ts=ts)])
    assert (rec.local_ts, rec.exch_ts) == (ts, ts)
    assert resample([rec]).grid_ts.tolist() == [-(-ts // GRID_NS) * GRID_NS]


def test_parse_record_rejects_non_object_directly():
    with pytest.raises(MalformedLine) as exc:
        parse_record(["venue"], 12)
    assert (exc.value.line_no, exc.value.reason) == (12, "record must be a JSON object")


def test_unknown_kind_checked_after_payload_shape():
    with pytest.raises(UnknownKind) as exc:
        list(read_capture_lines([_line(), _line(kind="quote", payload={"a": 1})]))
    assert (exc.value.kind, exc.value.line_no) == ("quote", 2)
    with pytest.raises(UnknownKind) as exc:
        list(read_capture_lines([_line(kind=None)]))
    assert (exc.value.kind, exc.value.line_no) == ("None", 1)


def test_bools_are_accepted_as_numbers():
    (trade,) = read_capture_lines([_line(local_ts=True, exch_ts=False, payload={"price": True, "qty": True, "side": "sell"})])
    assert (trade.local_ts, trade.exch_ts) == (True, False)
    assert trade.payload == TradePayload(1.0, 1.0, "sell")
    assert type(trade.payload.price) is float
    (book,) = read_capture_lines([_line("book_delta", {"bids": [[True, False]], "asks": [[2, True]]})])
    assert book.payload == BookPayload(bids=((1.0, 0.0),), asks=((2.0, 1.0),))
    assert all(type(x) is float for lvl in book.payload.bids + book.payload.asks for x in lvl)
    (ticker,) = read_capture_lines([_line("ticker", {"bid_price": True, "bid_qty": 1, "ask_price": 2, "ask_qty": True})])
    assert ticker.payload == TickerPayload(1.0, 1.0, 2.0, 1.0)


def test_accepted_edge_values():
    (rec,) = read_capture_lines([_line(exch_ts=None, payload={**GOOD_TRADE, "extra": 1})])
    assert rec.exch_ts is None
    (rec,) = read_capture_lines([_line(exch_ts=_DROP)])
    assert rec.exch_ts is None
    (rec,) = read_capture_lines([_line("book_snapshot", {})])
    assert rec.payload == BookPayload()
    (rec,) = read_capture_lines([_line("book_snapshot", {"bids": [], "asks": [[1e300, 0]]})])
    assert rec.payload == BookPayload(bids=(), asks=((1e300, 0.0),))
    (rec,) = read_capture_lines([_line("ticker", {**GOOD_TICKER, "ask_price": 10**300})])
    assert rec.payload.ask_price == 1e300


def test_deeply_nested_line_is_malformed():
    deep = "[" * 100_000 + "]" * 100_000
    line = '{"venue":"v0","kind":"trade","local_ts":1,"payload":' + deep + "}"
    with pytest.raises(MalformedLine) as exc:
        list(read_capture_lines([_line(), line]))
    assert (exc.value.line_no, exc.value.reason) == (2, "invalid JSON: nested too deeply")


# -- canonical trade lines, read without the JSON decoder -------------------------


_SURROGATE_BYTES = re.compile("[\udc80-\udcff]")


def reference_read_capture_lines(lines):
    """The line loop that canonical trade lines now skip: every line goes
    through json.loads and parse_record."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() and _SURROGATE_BYTES.search(line):
            raise MalformedLine(line_no, "not valid UTF-8")
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_no, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:
            raise MalformedLine(line_no, f"invalid JSON: {exc}") from exc
        yield parse_record(obj, line_no)


def outcome(read, lines):
    """The records `read` makes of `lines`, every field as its type and repr,
    or the kind and message of the error it raises."""
    try:
        records = list(read(lines))
    except ExecLabError as exc:
        return type(exc).__name__, str(exc)
    return [
        (type(rec.payload), [(type(v), repr(v)) for v in (*rec[:3], rec.exch_ts, *rec.payload)])
        for rec in records
    ]


_TS = st.one_of(
    st.integers(0, 2**62),
    st.integers(TS_MIN - 3, TS_MIN + 3),
    st.integers(TS_MAX - 3, TS_MAX + 3),
    st.integers(-(10**21), 10**21),
)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_TRADE_LINES = st.builds(
    lambda venue, local_ts, exch_ts, price, qty, side: record_to_line(
        MarketRecord(venue, "trade", local_ts, TradePayload(price, qty, side), exch_ts)
    ),
    venue=st.sampled_from(["v0", "binance", "v\u00e9"]) | st.text(),
    local_ts=_TS,
    exch_ts=st.none() | _TS,
    price=_POSITIVE | _POSITIVE | st.floats(allow_nan=False, allow_infinity=False),
    qty=_POSITIVE | _POSITIVE | st.floats(allow_nan=False, allow_infinity=False),
    side=st.sampled_from(["buy", "sell"]) | st.sampled_from(["buy", "sell"]) | st.text(max_size=5),
)
_NUMBER_TOKEN = re.compile(r"-?[0-9][0-9.eE+-]*")
_TOKENS = [
    "1e400", "-1e400", "1e-400", "-0.0", "-0", "0", "7", "1.5", "1E5", "1.", ".5", "+1", "1e", "0x10",
    "12345678901234567890", "-12345678901234567890", "1234567890123456789", "0123", "00",
    "true", "false", "null", "NaN", "Infinity", "-Infinity", "\u0663", "1\u0663", "1.\u0663", "1e\u0663",
    str(TS_MAX), str(TS_MAX + 1), str(TS_MIN), str(TS_MIN - 1),
]
_CHARS = st.sampled_from(list('0123456789-+.eE"\\,:{}[] \t\x00\x1f\x7f\u00e9\u0663\ud800\udc80'))


@st.composite
def trade_line_and_mutant(draw):
    """A trade line as record_to_line writes it, and that line with one
    character replaced, inserted or deleted, or one number token replaced;
    each with a line end."""
    line = draw(_TRADE_LINES)
    if draw(st.booleans()):
        spans = [m.span() for m in _NUMBER_TOKEN.finditer(line)]
        start, end = draw(st.sampled_from(spans))
        mutant = line[:start] + draw(st.sampled_from(_TOKENS)) + line[end:]
    else:
        i = draw(st.integers(0, len(line) - 1) | st.just(len('{"venue":"')))  # or the venue's first character
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        char = "" if how == "delete" else draw(_CHARS | _CHARS | st.characters())
        mutant = line[:i] + char + line[i + (how != "insert"):]
    ends = st.sampled_from(["\n", "", "\r\n", " \n"])
    return line + draw(ends), mutant + draw(ends)


@settings(max_examples=500, deadline=None)
@given(lines=trade_line_and_mutant())
def test_trade_lines_read_as_the_json_decoder_reads_them(lines):
    ok = record_to_line(MarketRecord("v0", "trade", 5, TradePayload(1.0, 2.0, "buy"))) + "\n"
    for line in lines:
        capture = [ok, line, ok]
        assert outcome(read_capture_lines, capture) == outcome(reference_read_capture_lines, capture)


def test_every_number_token_in_every_number_reads_as_the_json_decoder_reads_it():
    line = record_to_line(MarketRecord("v0", "trade", 5, TradePayload(1.5, 2.0, "buy"), exch_ts=4)) + "\n"
    for start, end in [m.span() for m in _NUMBER_TOKEN.finditer(line)]:
        for token in _TOKENS:
            capture = [line, line[:start] + token + line[end:]]
            assert outcome(read_capture_lines, capture) == outcome(reference_read_capture_lines, capture), capture


def test_canonical_trade_lines_skip_the_json_decoder(monkeypatch):
    records = list(generate_records(SynthConfig(seed=3), 2.0))
    lines = [record_to_line(rec) + "\n" for rec in records]
    decoded = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real_loads(text))
    assert list(read_capture_lines(lines)) == records
    trades = sum(rec.kind == "trade" for rec in records)
    assert trades > 0 and len(decoded) == len(records) - trades
    # The same file with other separators is still read, each line by the decoder.
    decoded.clear()
    spaced = [json.dumps(rec.to_wire()) + "\n" for rec in records]
    assert list(read_capture_lines(spaced)) == records
    assert len(decoded) == len(records)


def test_trades_share_their_venue_and_side_strings(tmp_path):
    path = tmp_path / "market.ndjson"
    write_capture(generate_records(SynthConfig(seed=3), 2.0), path)
    trades = [rec for rec in read_capture(path) if rec.kind == "trade"]
    for value in (lambda rec: rec.venue, lambda rec: rec.payload.side):
        first = {}
        for rec in trades:
            assert value(rec) is first.setdefault(value(rec), value(rec))
        assert len(first) > 1


# -- edge records, written and read back -------------------------------------------


def _trade(venue="v0", local_ts=5, price=1.0, qty=2.0, side="buy", exch_ts=None, kind="trade"):
    return MarketRecord(venue, kind, local_ts, TradePayload(price, qty, side), exch_ts)


EDGE_RECORDS = [
    _trade(),
    _trade(venue=""),
    _trade(venue='v"0'),
    _trade(venue="v\\0"),
    _trade(venue="v\x00"),
    _trade(venue="v\u00e9\u65e5"),
    _trade(local_ts=True),
    _trade(exch_ts=np.int64(4)),
    _trade(local_ts=TS_MAX, exch_ts=TS_MIN),
    _trade(local_ts=TS_MAX + 1),
    _trade(exch_ts=TS_MIN - 1),
    _trade(local_ts=2**64),
    _trade(exch_ts=-(2**64)),
    _trade(local_ts=10**5000),  # more digits than int() prints
    _trade(price=-0.0, qty=5e-324),
    _trade(price=1.7976931348623157e308, qty=-1.7976931348623157e308),
    _trade(price=math.nan),
    _trade(qty=-math.inf),
    _trade(price=np.float64(1.5)),
    _trade(qty=np.int64(2)),
    _trade(qty=2),
    _trade(side="BUY"),
    _trade(side=np.str_("sell")),
    _trade(kind="book_snapshot"),
    MarketRecord("v0", "trade", 5, BookPayload(((1.0, 2.0),), ())),
    MarketRecord("v0", "trade", 5, (1.0, 2.0, "buy")),
]


@pytest.mark.parametrize("record", EDGE_RECORDS, ids=range(len(EDGE_RECORDS)))
def test_edge_record_reads_back_as_the_json_decoder_reads_it(record, tmp_path):
    path = tmp_path / "cap.ndjson"
    try:
        write_capture([record], path)
    except (AttributeError, TypeError, ValueError):  # to_wire's and the JSON encoder's errors
        assert not path.exists()  # no partial capture is left behind
        return
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 1
    read = outcome(read_capture_lines, lines)
    assert read == outcome(reference_read_capture_lines, lines)
    if record.kind == "trade":
        # synth builds its trade lines from the same head, for any venue.
        assert lines[0].startswith(_trade_head(record.venue))
        if isinstance(read, list):
            assert list(read_capture(path)) == [record]
