import pytest
from hypothesis import given, strategies as st

from execlab.lob import BookView, fill_market_sell


def view(bids=(), asks=()):
    return BookView(tuple(bids), tuple(asks))


def test_fill_zero_qty_leaves_book():
    v = view(bids=[(100.0, 3.0)])
    result = fill_market_sell(v, 0.0)
    assert result.filled_qty == 0.0
    assert result.book == v


def test_fill_walks_levels_best_first():
    v = view(bids=[(100.0, 3.0), (99.0, 5.0)])
    result = fill_market_sell(v, 4.0)
    assert result.filled_qty == 4.0
    assert result.avg_price == pytest.approx((3 * 100.0 + 1 * 99.0) / 4.0)
    assert result.book.bids == ((99.0, 4.0),)


def test_fill_beyond_depth_reports_partial():
    v = view(bids=[(100.0, 3.0), (99.0, 5.0)])
    result = fill_market_sell(v, 100.0)
    assert result.filled_qty == 8.0
    assert result.book.bids == ()


def test_negative_qty_rejected():
    with pytest.raises(ValueError):
        fill_market_sell(view(bids=[(100.0, 1.0)]), -1.0)


_book = st.lists(
    st.tuples(st.integers(50, 150), st.integers(1, 20)), min_size=0, max_size=6
).map(
    lambda lvls: tuple(
        sorted({(float(p), float(q)) for p, q in lvls}, key=lambda pq: -pq[0])
    )
)


@given(_book, st.floats(0, 200))
def test_fill_conserves_quantity(bids, qty):
    # distinct prices only, best-first
    seen, clean = set(), []
    for p, q in bids:
        if p not in seen:
            seen.add(p)
            clean.append((p, q))
    v = view(bids=clean)
    before = sum(q for _, q in v.bids)
    result = fill_market_sell(v, qty)
    after = sum(q for _, q in result.book.bids)
    assert before - after == pytest.approx(result.filled_qty)
    assert result.filled_qty <= qty + 1e-12


@given(_book, st.floats(0.1, 50), st.floats(0.1, 50))
def test_sell_avg_price_nonincreasing_in_qty(bids, q1, q2):
    seen, clean = set(), []
    for p, q in bids:
        if p not in seen:
            seen.add(p)
            clean.append((p, q))
    if not clean:
        return
    v = view(bids=clean)
    lo, hi = sorted((q1, q2))
    r_lo = fill_market_sell(v, lo)
    r_hi = fill_market_sell(v, hi)
    if r_lo.filled_qty > 0 and r_hi.filled_qty > 0:
        assert r_hi.avg_price <= r_lo.avg_price + 1e-9
