"""Canonical capture format: one timestamped venue event per NDJSON line.

Wire format (one record per line, keys in this order):

    {"venue": str, "kind": str, "local_ts": int, "exch_ts": int?, "payload": {...}}

Timestamps are integer nanoseconds on the collector clock (``local_ts``) and,
when the venue reported one, on the venue clock (``exch_ts``), within
[TS_MIN, TS_MAX], so that a timestamp and its 10 ms grid time both fit int64.
Payload bodies by kind:

    trade          {"price": float, "qty": float, "side": "buy"|"sell"}
    book_snapshot  {"bids": [[price, qty], ...], "asks": [[price, qty], ...]}
    book_delta     same shape as book_snapshot; qty 0 deletes a level
    ticker         {"bid_price": float, "bid_qty": float,
                    "ask_price": float, "ask_qty": float}

Records are immutable named tuples, and a payload's fields are its wire keys,
in wire order.  Writing the records read from a valid file reproduces it
byte for byte.

A trade line in the canonical form `write_capture` writes is read without
the JSON decoder, by one compiled pattern.  Every other line, and a
canonical trade whose values fail a range check, takes the general path,
json.loads and `parse_record`, which alone raises errors; the records and
errors are the same either way.  A valid file in another form still reads
correctly, only slower.

`write_capture` writes every record as json.dumps of its wire object,
`to_wire()`.  `synth gen` builds its trade lines without the encoder, from
`_trade_head`, `_EXCH_TS` and `_trade_tail` below; test_synth.py checks
those bytes against what `write_capture` writes for the same records.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from ..errors import MalformedLine, UnknownKind, open_output

KIND_TRADE = "trade"
KIND_BOOK_SNAPSHOT = "book_snapshot"
KIND_BOOK_DELTA = "book_delta"
KIND_TICKER = "ticker"

KINDS = (KIND_TRADE, KIND_BOOK_SNAPSHOT, KIND_BOOK_DELTA, KIND_TICKER)

SIDE_BUY = "buy"
SIDE_SELL = "sell"

GRID_NS = 10_000_000  # 10ms, the resampling grid step
# A timestamp's grid time, ceil(ts / GRID_NS) * GRID_NS, lies in [ts, TS_MAX]
# for every ts in this range, the int64 range cut at its last grid point.
TS_MIN = -(2**63)
TS_MAX = (2**63 - 1) // GRID_NS * GRID_NS


class TradePayload(NamedTuple):
    price: float
    qty: float
    side: str  # taker side


class BookPayload(NamedTuple):
    """Price levels for a snapshot or delta; qty 0 only meaningful in deltas."""

    bids: tuple[tuple[float, float], ...] = ()
    asks: tuple[tuple[float, float], ...] = ()


class TickerPayload(NamedTuple):
    bid_price: float
    bid_qty: float
    ask_price: float
    ask_qty: float


Payload = Union[TradePayload, BookPayload, TickerPayload]


class MarketRecord(NamedTuple):
    venue: str
    kind: str
    local_ts: int
    payload: Payload
    exch_ts: int | None = None

    def to_wire(self) -> dict:
        """The wire object: a payload's fields are its keys, in field order."""
        line: dict = {"venue": self.venue, "kind": self.kind, "local_ts": self.local_ts}
        if self.exch_ts is not None:
            line["exch_ts"] = self.exch_ts
        line["payload"] = self.payload._asdict()
        return line


_NUMBER = (int, float)  # bool is an int, so it passes as a number
_FLOAT_MAX = sys.float_info.max  # a larger int has no float; inf and NaN are no finite number


def _out_of_range(line_no: int, what: str, rule: str, value) -> MalformedLine:
    """The rejection of a value that failed `rule` or is not a finite number."""
    finite = not isinstance(value, _NUMBER) or -_FLOAT_MAX <= value <= _FLOAT_MAX
    return MalformedLine(line_no, f"{what} must be {rule if finite else 'finite'}")


def _bad_ts(line_no: int, what: str, value) -> MalformedLine:
    """The rejection of a timestamp that is no integer or out of range."""
    if not isinstance(value, int):
        return MalformedLine(line_no, f"{what} must be an integer")
    return MalformedLine(line_no, f"{what} must lie in [{TS_MIN}, {TS_MAX}]")


def _parse_levels(raw, line_no: int, what: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list):
        raise MalformedLine(line_no, f"{what} must be a list")
    out = []
    for lvl in raw:
        if not (isinstance(lvl, list) and len(lvl) == 2):
            raise MalformedLine(line_no, f"{what} level must be [price, qty]")
        price, qty = lvl
        if not (isinstance(price, _NUMBER) and 0 < price <= _FLOAT_MAX):
            raise _out_of_range(line_no, f"{what} price", "> 0", price)
        if not (isinstance(qty, _NUMBER) and 0 <= qty <= _FLOAT_MAX):
            raise _out_of_range(line_no, f"{what} qty", ">= 0", qty)
        out.append((float(price), float(qty)))
    return tuple(out)


def parse_record(obj: dict, line_no: int = 0) -> MarketRecord:
    if not isinstance(obj, dict):
        raise MalformedLine(line_no, "record must be a JSON object")
    try:
        venue = obj["venue"]
        kind = obj["kind"]
        local_ts = obj["local_ts"]
        body = obj["payload"]
    except KeyError:
        missing = next(k for k in ("venue", "kind", "local_ts", "payload") if k not in obj)
        raise MalformedLine(line_no, f"missing field {missing!r}") from None
    if not (isinstance(venue, str) and venue != ""):
        raise MalformedLine(line_no, "venue must be a nonempty string")
    if not (isinstance(local_ts, int) and TS_MIN <= local_ts <= TS_MAX):
        raise _bad_ts(line_no, "local_ts", local_ts)
    exch_ts = obj.get("exch_ts")
    if not (exch_ts is None or (isinstance(exch_ts, int) and TS_MIN <= exch_ts <= TS_MAX)):
        raise _bad_ts(line_no, "exch_ts", exch_ts)
    if not isinstance(body, dict):
        raise MalformedLine(line_no, "payload must be an object")

    if kind == KIND_TRADE:
        price, qty, side = body.get("price"), body.get("qty"), body.get("side")
        if not (isinstance(price, _NUMBER) and 0 < price <= _FLOAT_MAX):
            raise _out_of_range(line_no, "trade price", "> 0", price)
        if not (isinstance(qty, _NUMBER) and 0 < qty <= _FLOAT_MAX):
            raise _out_of_range(line_no, "trade qty", "> 0", qty)
        if side not in (SIDE_BUY, SIDE_SELL):
            raise MalformedLine(line_no, "trade side must be 'buy' or 'sell'")
        payload: Payload = TradePayload(float(price), float(qty), side)
    elif kind in (KIND_BOOK_SNAPSHOT, KIND_BOOK_DELTA):
        payload = BookPayload(
            bids=_parse_levels(body.get("bids", []), line_no, "bids"),
            asks=_parse_levels(body.get("asks", []), line_no, "asks"),
        )
    elif kind == KIND_TICKER:
        vals = []
        for key in TickerPayload._fields:
            v = body.get(key)
            if not (isinstance(v, _NUMBER) and 0 < v <= _FLOAT_MAX):
                raise _out_of_range(line_no, f"ticker {key}", "> 0", v)
            vals.append(float(v))
        payload = TickerPayload(*vals)
    else:
        raise UnknownKind(str(kind), line_no)
    return MarketRecord(venue=venue, kind=kind, local_ts=local_ts, payload=payload, exch_ts=exch_ts)


def record_to_line(record: MarketRecord) -> str:
    return json.dumps(record.to_wire(), separators=(",", ":"), ensure_ascii=False)


_UNDECODED = re.compile("[\udc80-\udcff]")  # the surrogates errors="surrogateescape" maps bad bytes to


def read_capture(path: str | Path) -> Iterator[MarketRecord]:
    """Stream records from an NDJSON capture file.

    Raises MalformedLine with the 1-based offending line number, also for a
    line that is not valid UTF-8; an empty file yields an empty stream.
    """
    # A byte that is not UTF-8 is kept as a lone surrogate, for its line to reject.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from read_capture_lines(fh)


# A trade line exactly as record_to_line writes it: its fields in wire order,
# a venue with nothing JSON escapes, and JSON numbers whose integer part has at
# most 19 digits, so that int() always converts one.  json.loads gives this
# line's values by the same int() and float() conversions.
_INT = r"-?(?:0|[1-9][0-9]{0,18})"
_NUM = _INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_CANONICAL_TRADE = re.compile(
    r'\{"venue":"([^"\\\x00-\x1f]+)","kind":"trade","local_ts":(' + _INT + r')(?:,"exch_ts":(' + _INT + r'))?'
    r',"payload":\{"price":(' + _NUM + r'),"qty":(' + _NUM + r'),"side":"(buy|sell)"\}\}\n?'
)


def read_capture_lines(lines: Iterable[str]) -> Iterator[MarketRecord]:
    canonical_trade = _CANONICAL_TRADE.fullmatch
    # Every trade shares the first string read of its venue and side, so
    # records held in memory do not each keep a fresh copy of both.
    shared = {SIDE_BUY: SIDE_BUY, SIDE_SELL: SIDE_SELL}
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() and _UNDECODED.search(line):
            raise MalformedLine(line_no, "not valid UTF-8")
        if match := canonical_trade(line):
            venue, local_ts, exch_ts, price, qty, side = match.groups()
            local_ts, price, qty = int(local_ts), float(price), float(qty)
            if exch_ts is not None:
                exch_ts = int(exch_ts)
            if (
                TS_MIN <= local_ts <= TS_MAX
                and (exch_ts is None or TS_MIN <= exch_ts <= TS_MAX)
                and 0 < price <= _FLOAT_MAX
                and 0 < qty <= _FLOAT_MAX
            ):
                venue = shared.setdefault(venue, venue)
                yield MarketRecord(venue, KIND_TRADE, local_ts, TradePayload(price, qty, shared[side]), exch_ts)
                continue
            # A value out of range: the general path below raises its error.
        stripped = line.strip()
        if not stripped:
            # A blank trailing line is tolerated; a blank interior line is not
            # distinguishable here, so blanks are simply skipped.
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_no, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal longer than int() converts
            raise MalformedLine(line_no, f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise MalformedLine(line_no, "invalid JSON: nested too deeply") from exc
        yield parse_record(obj, line_no)


def write_capture(records: Iterable[MarketRecord], path: str | Path) -> int:
    """Write records as NDJSON; returns the number of records written."""
    count = 0
    with open_output(path) as fh:
        for record in records:
            fh.write(record_to_line(record) + "\n")
            count += 1
    return count


# The bytes of a canonical trade line: _trade_head(venue), local_ts, then
# _EXCH_TS and exch_ts when there is one, then _trade_tail of the payload.
_EXCH_TS = ',"exch_ts":'


def _trade_head(venue: str) -> str:
    """A canonical trade line of `venue` up to its local_ts value."""
    return f'{{"venue":{json.dumps(venue, ensure_ascii=False)},"kind":"trade","local_ts":'


def _trade_tail(price: str, qty: str, side: str) -> str:
    """A canonical trade line after its timestamps, from the JSON of its
    price and qty: the payload and the line end."""
    return f',"payload":{{"price":{price},"qty":{qty},"side":"{side}"}}}}\n'
