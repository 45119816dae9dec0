import pytest
from hypothesis import given, settings, strategies as st

from execlab.capture import LocalBook, apply_delta, apply_snapshot, merge_ticker
from execlab.capture.records import BookPayload, TickerPayload
from execlab.errors import CrossedTicker


def make_book(bids, asks):
    return LocalBook(bids=dict(bids), asks=dict(asks))


def test_merge_ticker_idempotent_at_top():
    book = make_book({100.0: 2.0, 99.9: 5.0}, {100.1: 3.0, 100.2: 1.0})
    before_bids, before_asks = dict(book.bids), dict(book.asks)
    merge_ticker(book, TickerPayload(100.0, 2.0, 100.1, 3.0))
    assert book.bids == before_bids
    assert book.asks == before_asks


def test_merge_ticker_replaces_stale_best_ask():
    book = make_book({99.0: 1.0}, {100.0: 2.0, 100.1: 3.0})
    merge_ticker(book, TickerPayload(99.5, 1.0, 100.05, 4.0))
    assert book.asks == {100.05: 4.0, 100.1: 3.0}
    assert book.best_bid() == 99.5


def test_merge_crossed_ticker_rejected_book_unchanged():
    book = make_book({99.0: 1.0}, {100.0: 2.0})
    before_bids, before_asks = dict(book.bids), dict(book.asks)
    with pytest.raises(CrossedTicker):
        merge_ticker(book, TickerPayload(101.0, 1.0, 100.0, 1.0))
    assert book.bids == before_bids
    assert book.asks == before_asks


def test_merge_ticker_drops_crossing_resting_levels():
    book = make_book({100.0: 1.0, 99.0: 2.0}, {101.0: 1.0})
    merge_ticker(book, TickerPayload(99.2, 1.0, 99.8, 1.0))
    # resting bid 100.0 crossed the new ask; stale vs new top either way
    assert book.best_bid() == 99.2
    assert book.best_ask() == 99.8
    assert 100.0 not in book.bids
    assert book.bids[99.0] == 2.0


def test_empty_delta_is_noop():
    book = make_book({100.0: 1.0}, {100.2: 1.0})
    before_bids, before_asks = dict(book.bids), dict(book.asks)
    apply_delta(book, BookPayload())
    assert book.bids == before_bids and book.asks == before_asks


def test_delta_delete_best_bid_promotes_next_level():
    book = make_book({100.0: 1.0, 99.9: 2.0}, {100.2: 1.0})
    apply_delta(book, BookPayload(bids=((100.0, 0.0),)))
    assert book.best_bid() == 99.9


def test_delta_delete_absent_level_is_noop():
    book = make_book({100.0: 1.0}, {100.2: 1.0})
    apply_delta(book, BookPayload(asks=((105.0, 0.0),)))
    assert book.asks == {100.2: 1.0}


def test_delta_crossing_upsert_removes_older_side():
    book = make_book({100.0: 1.0}, {100.2: 2.0, 100.4: 1.0})
    apply_delta(book, BookPayload(bids=((100.3, 5.0),)))
    assert book.best_bid() == 100.3
    assert 100.2 not in book.asks
    assert book.asks == {100.4: 1.0}


def test_snapshot_replaces_and_skips_zero_qty():
    book = make_book({42.0: 1.0}, {43.0: 1.0})
    apply_snapshot(book, BookPayload(bids=((10.0, 1.0), (9.0, 0.0)), asks=((11.0, 2.0),)))
    assert book.bids == {10.0: 1.0}
    assert book.asks == {11.0: 2.0}


_price = st.integers(1, 60).map(lambda p: p / 2.0)
_qty = st.integers(0, 5).map(float)
_level = st.tuples(_price, _qty)


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(["delta", "ticker", "snapshot"]))
    if kind == "ticker":
        bid = draw(_price)
        ask = draw(_price)
        return ("ticker", TickerPayload(bid, max(draw(_qty), 0.5), ask, max(draw(_qty), 0.5)))
    levels = BookPayload(
        bids=tuple(draw(st.lists(_level, max_size=4))),
        asks=tuple(draw(st.lists(_level, max_size=4))),
    )
    return (kind, levels)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops(), max_size=30))
def test_book_invariants_after_any_op_sequence(ops):
    book = LocalBook()
    for kind, payload in ops:
        if kind == "ticker":
            try:
                merge_ticker(book, payload)
            except CrossedTicker:
                pass
        elif kind == "delta":
            apply_delta(book, payload)
        else:
            apply_snapshot(book, payload)
        assert all(q > 0 for q in book.bids.values())
        assert all(q > 0 for q in book.asks.values())
        if book.two_sided():
            assert book.best_bid() < book.best_ask()
