import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from execlab.capture import MarketRecord, TradePayload, align_clock, align_clocks, read_capture
from execlab.capture.clock import ClockMap
from execlab.cli import _write_clock_maps, _write_json, main
from execlab.errors import FewerThanTwoKnots
from execlab.synth import SynthConfig, generate


def _rec(local_ts, exch_ts=None, venue="v0"):
    return MarketRecord(venue, "trade", local_ts, TradePayload(1.0, 1.0, "buy"), exch_ts=exch_ts)


def _map(knots):
    return ClockMap(
        venue="v0",
        local_knots=np.asarray([k[0] for k in knots], dtype=np.int64),
        exch_knots=np.asarray([k[1] for k in knots], dtype=np.int64),
    )


def test_exact_at_knot():
    cmap = _map([(100, 90), (200, 190)])
    assert cmap.to_exchange(100) == 90
    assert cmap.to_exchange(200) == 190


def test_linear_interpolation_between_knots():
    cmap = _map([(100, 90), (200, 190)])
    assert cmap.to_exchange(150) == 140


def test_constant_offset_extrapolation():
    cmap = _map([(100, 90), (200, 150)])
    assert cmap.to_exchange(40) == 30  # first knot offset -10
    assert cmap.to_exchange(260) == 210  # last knot offset -50


def test_single_knot_rejected():
    with pytest.raises(FewerThanTwoKnots):
        align_clock([_rec(100, 90), _rec(150), _rec(200)])


def test_nonmonotone_exch_knot_dropped_not_fatal():
    cmap = align_clock([_rec(100, 90), _rec(200, 50), _rec(300, 290)])
    assert cmap.rejected_knots == 1
    assert list(cmap.local_knots) == [100, 300]
    assert cmap.to_exchange(100) == 90
    assert cmap.to_exchange(300) == 290


def test_epoch_scale_exactness():
    # Epoch nanoseconds exceed float64 integer precision; knots must still
    # map exactly.
    base = 1_700_000_000_000_000_000
    cmap = _map([(base, base - 123_456), (base + 60_000_000_000, base + 60_000_000_000 - 123_000)])
    assert cmap.to_exchange(base) == base - 123_456
    assert cmap.to_exchange(base + 60_000_000_000) == base + 60_000_000_000 - 123_000


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(-1000, 1000)),
        min_size=2,
        max_size=30,
    ),
    st.lists(st.integers(-10**5, 2 * 10**6), min_size=1, max_size=50),
)
def test_mapped_time_nondecreasing(raw_knots, queries):
    # Build valid knots: strictly increasing local, nondecreasing exch.
    raw_knots.sort()
    locals_, exchs = [], []
    for loc, off in raw_knots:
        if locals_ and loc <= locals_[-1]:
            continue
        exch = (exchs[-1] if exchs else 0) + abs(off)
        locals_.append(loc)
        exchs.append(exch)
    if len(locals_) < 2:
        return
    cmap = _map(list(zip(locals_, exchs)))
    queries = sorted(queries)
    mapped = [cmap.to_exchange(q) for q in queries]
    assert all(a <= b for a, b in zip(mapped, mapped[1:]))


# -- one pass over several venues ----------------------------------------------


def reference_align_clock(records):
    """align_clock as it was before its rule moved into the per-venue state."""
    locals_, exchs = [], []
    rejected = 0
    venue = ""
    for rec in records:
        venue = rec.venue
        if rec.exch_ts is None:
            continue
        if locals_ and rec.local_ts <= locals_[-1]:
            rejected += 1
            continue
        if exchs and rec.exch_ts < exchs[-1]:
            rejected += 1
            continue
        locals_.append(rec.local_ts)
        exchs.append(rec.exch_ts)
    if len(locals_) < 2:
        raise FewerThanTwoKnots(f"{venue or '<empty>'}: {len(locals_)} usable knot(s)")
    return ClockMap(
        venue=venue,
        local_knots=np.asarray(locals_, dtype=np.int64),
        exch_knots=np.asarray(exchs, dtype=np.int64),
        rejected_knots=rejected,
    )


def _fields(cmap):
    return cmap.venue, cmap.local_knots.tolist(), cmap.exch_knots.tolist(), cmap.rejected_knots


def outcome(align, records):
    """What `align` makes of `records`: the fields of each clock map, or the error."""
    try:
        return align(records)
    except FewerThanTwoKnots as exc:
        return str(exc)


_STAMP = st.integers(-(2**63), 2**63 - 1) | st.integers(-20, 20)
_STREAMS = st.lists(
    st.builds(_rec, _STAMP, st.none() | _STAMP, st.sampled_from(["v0", "v1", "é\"v"])), max_size=40
)


@settings(max_examples=200)
@given(_STREAMS)
def test_align_clock_keeps_its_rule(records):
    one_venue = [rec._replace(venue="v0") for rec in records]
    want = outcome(lambda recs: _fields(reference_align_clock(recs)), one_venue)
    assert outcome(lambda recs: _fields(align_clock(recs)), one_venue) == want
    assert outcome(lambda recs: _fields(align_clock(recs)), iter(one_venue)) == want


@settings(max_examples=200)
@given(_STREAMS)
def test_align_clocks_is_align_clock_of_each_venue(records):
    by_venue = {}
    for rec in records:
        by_venue.setdefault(rec.venue, []).append(rec)
    want = {venue: outcome(lambda recs: _fields(reference_align_clock(recs)), by_venue[venue]) for venue in by_venue}
    # The first venue, in name order, with fewer than two knots is the one reported.
    failed = [want[venue] for venue in sorted(want) if isinstance(want[venue], str)]
    got = outcome(lambda recs: [(venue, _fields(cmap)) for venue, cmap in align_clocks(recs).items()], iter(records))
    assert got == (failed[0] if failed else sorted(want.items()))


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.tuples(st.lists(st.tuples(_STAMP, _STAMP), min_size=2, max_size=4), st.integers(0, 10**6)),
        max_size=3,
    )
)
def test_clock_maps_are_written_as_write_json_writes_them(tmp_path_factory, maps):
    cmaps = {
        venue: ClockMap(venue, np.array([k[0] for k in knots]), np.array([k[1] for k in knots]), rejected)
        for venue, (knots, rejected) in maps.items()
    }
    plain = {"venues": {v: {"knots": [list(k) for k in knots], "rejected_knots": r} for v, (knots, r) in maps.items()}}
    tmp = tmp_path_factory.mktemp("maps")
    _write_clock_maps(tmp / "streamed.json", cmaps)
    _write_json(tmp / "plain.json", plain)
    assert (tmp / "streamed.json").read_bytes() == (tmp / "plain.json").read_bytes()


def test_capture_align_holds_knots_not_records(tmp_path):
    capture = tmp_path / "market.ndjson"
    generate(SynthConfig(seed=1234), 10.0, capture)
    argv = ["capture", "align", str(capture), str(tmp_path / "clock.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # once first, so that what the first call sets up for good is not counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            main(argv)
            peak = tracemalloc.get_traced_memory()[1] - start
            start = tracemalloc.get_traced_memory()[0]
            records = list(read_capture(capture))
            held_by_records = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
    assert len(json.loads((tmp_path / "clock.json").read_text())["venues"]) == 3
    assert len(records) > 0
    assert peak < held_by_records / 4
