from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from execlab.capture.resample import GRID_NS, FrameSet, VenueFrames
from execlab.errors import DegenerateXError, TooFewPointsError
from execlab.signals import (
    bin_curve,
    cross_sum,
    depth_imbalance,
    feature_bundle,
    feature_series,
    fit_line,
    flow_imbalance,
    flow_imbalance_norm,
    future_return_bps,
    horizon_report,
    peer_spread,
    peer_spread_centered,
    r_squared,
    trailing_mean,
    trailing_min_max,
)
from execlab.synth import SynthConfig, generate_frames


def frames_from(mid=None, buy=None, sell=None, bid_qty=None, ask_qty=None, venue="v0", present=None):
    n = len(mid if mid is not None else buy)
    mid = np.asarray(mid, dtype=float) if mid is not None else np.full(n, 100.0)
    buy = np.asarray(buy, dtype=float) if buy is not None else np.zeros(n)
    sell = np.asarray(sell, dtype=float) if sell is not None else np.zeros(n)
    bq = np.asarray(bid_qty, dtype=float) if bid_qty is not None else np.ones((n, 5))
    aq = np.asarray(ask_qty, dtype=float) if ask_qty is not None else np.ones((n, 5))
    pres = np.asarray(present, dtype=bool) if present is not None else np.ones(n, dtype=bool)
    vf = VenueFrames(
        present=pres,
        best_bid=mid - 0.05,
        best_ask=mid + 0.05,
        mid=mid,
        buy_volume=buy,
        sell_volume=sell,
        bid_price=np.tile(mid[:, None], (1, 5)),
        bid_qty=bq,
        ask_price=np.tile(mid[:, None], (1, 5)),
        ask_qty=aq,
    )
    return vf


def build_frameset(**venues):
    n = len(next(iter(venues.values())).mid)
    return FrameSet(grid_ts=np.arange(1, n + 1) * GRID_NS, venues=venues)


# -- rolling helpers against brute-force oracles ----------------------------


def brute_trailing_min_max(x, window):
    lo = np.full(len(x), np.nan)
    hi = np.full(len(x), np.nan)
    for t in range(len(x)):
        if not np.isfinite(x[t]):
            continue
        seg = x[max(0, t - window + 1) : t + 1]
        seg = seg[np.isfinite(seg)]
        lo[t] = seg.min()
        hi[t] = seg.max()
    return lo, hi


def brute_trailing_mean(x, window):
    out = np.full(len(x), np.nan)
    for t in range(len(x)):
        if not np.isfinite(x[t]):
            continue
        seg = x[max(0, t - window + 1) : t + 1]
        seg = seg[np.isfinite(seg)]
        out[t] = seg.mean()
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(-50, 50), st.just(float("nan"))), min_size=1, max_size=120
    ),
    st.integers(1, 15),
)
def test_trailing_extrema_match_bruteforce(vals, window):
    x = np.asarray(vals)
    lo, hi = trailing_min_max(x, window)
    blo, bhi = brute_trailing_min_max(x, window)
    assert np.allclose(lo, blo, equal_nan=True)
    assert np.allclose(hi, bhi, equal_nan=True)


def ndimage_trailing_min_max(x, window):
    """The scipy.ndimage version that `trailing_min_max` replaced, kept as
    its reference."""
    bad = ~np.isfinite(x)
    lo_in = np.where(bad, np.inf, x)
    hi_in = np.where(bad, -np.inf, x)
    # Positive origin shifts the filter window left, making it trailing:
    # [t - window + 1, t]; 'nearest' edge padding turns the warmup into an
    # expanding window because padded entries replicate x[0].
    origin = (window - 1) // 2
    lo = minimum_filter1d(lo_in, size=window, mode="nearest", origin=origin)
    hi = maximum_filter1d(hi_in, size=window, mode="nearest", origin=origin)
    lo = np.where(bad, np.nan, lo)
    hi = np.where(bad, np.nan, hi)
    return lo, hi


FLOAT_MAX = np.finfo(np.float64).max
SPECIAL_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, FLOAT_MAX, -FLOAT_MAX])


@st.composite
def extrema_series(draw):
    """Runs of one value (NaN, +-inf, signed zeros, +-float max, ties)
    between seeded random stretches at several scales, some rounded to make
    ties and -0.0."""
    pieces = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 400))
        if draw(st.booleans()):
            pieces.append(np.full(n, draw(SPECIAL_VALUES | st.floats(-1e3, 1e3))))
            continue
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        piece = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e6, 1e300])), size=n)
        pieces.append(np.round(piece) if draw(st.booleans()) else piece)
    return np.concatenate(pieces)


def mixed_zeros(x):
    zeros = x[x == 0]
    return bool(np.signbit(zeros).any() and not np.signbit(zeros).all())


@settings(max_examples=150, deadline=None)
@given(extrema_series(), st.data())
def test_trailing_extrema_match_ndimage_bit_for_bit(x, data):
    window = data.draw(st.one_of(st.just(1), st.integers(2, 50), st.integers(1, 2 * len(x))))
    got = trailing_min_max(x, window)
    ref = ndimage_trailing_min_max(x, window)
    for g, r in zip(got, ref):
        if mixed_zeros(x):
            # +0.0 == -0.0: which one a window holding both yields is unspecified
            assert np.array_equal(g, r, equal_nan=True)
        else:
            assert np.array_equal(g.view(np.int64), r.view(np.int64))


def test_trailing_extrema_of_mixed_zeros_compare_equal():
    x = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
    lo, hi = trailing_min_max(x, 3)
    assert lo.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, -1.0]
    assert hi.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]
    # the only caller passes |x|, which holds no -0.0, so its bits are fixed
    lo_abs, hi_abs = trailing_min_max(np.abs(x), 3)
    assert not np.signbit(lo_abs).any() and not np.signbit(hi_abs).any()


def test_a_window_longer_than_the_series_is_the_expanding_window():
    # a window of 10**12 points used to allocate that many cells
    x = np.random.default_rng(9).standard_normal(500)
    x[[3, 70]] = np.nan
    for got, want in zip(trailing_min_max(x, 10**12), trailing_min_max(x, len(x))):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(-50, 50), st.just(float("nan"))), min_size=1, max_size=120
    ),
    st.integers(1, 15),
)
def test_trailing_mean_matches_bruteforce(vals, window):
    x = np.asarray(vals)
    assert np.allclose(trailing_mean(x, window), brute_trailing_mean(x, window), equal_nan=True)


# -- feature examples --------------------------------------------------------


def test_flow_imbalance_examples():
    vf = frames_from(mid=[100, 100, 100], buy=[10, 10, 0], sell=[10, 4, 0])
    frames = build_frameset(v0=vf)
    oim = flow_imbalance(frames, "v0")
    assert oim.tolist() == [0.0, 6.0, 0.0]


def test_flow_imbalance_missing_when_absent():
    vf = frames_from(mid=[100, 100], buy=[1, 1], sell=[0, 0], present=[False, True])
    frames = build_frameset(v0=vf)
    oim = flow_imbalance(frames, "v0")
    assert np.isnan(oim[0]) and oim[1] == 1.0


def test_flow_imbalance_norm_hand_example():
    # trailing window {2, 6, 4} with current value -4 -> -(4-2)/(6-2) = -0.5
    out = flow_imbalance_norm(np.array([2.0, -6.0, -4.0]), window=3)
    assert out[2] == pytest.approx(-0.5)
    # boundaries: window max -> sign, first point degenerate -> 0
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.0)


def test_flow_imbalance_norm_range_and_degenerate():
    rng = np.random.default_rng(0)
    out = flow_imbalance_norm(rng.normal(size=500), window=30)
    assert np.nanmax(np.abs(out)) <= 1.0 + 1e-12
    assert flow_imbalance_norm(np.full(5, 3.0), window=4).tolist() == [0.0] * 5


def test_depth_imbalance_examples():
    even = frames_from(mid=[100.0], bid_qty=np.full((1, 5), 2.0), ask_qty=np.full((1, 5), 2.0))
    assert depth_imbalance(build_frameset(v0=even), "v0")[0] == 0.0
    one_sided = frames_from(mid=[100.0], bid_qty=np.full((1, 5), 2.0), ask_qty=np.zeros((1, 5)))
    assert depth_imbalance(build_frameset(v0=one_sided), "v0")[0] == 1.0
    skew = frames_from(mid=[100.0], bid_qty=np.full((1, 5), 6.0), ask_qty=np.full((1, 5), 2.0))
    assert depth_imbalance(build_frameset(v0=skew), "v0")[0] == pytest.approx(0.5)


def test_cross_sum_examples():
    mk = lambda v: np.array([v])
    assert cross_sum([mk(0.5), mk(-0.2), mk(0.1)])[0] == pytest.approx(0.4)
    assert cross_sum([mk(0.5)])[0] == pytest.approx(0.5)
    assert cross_sum([mk(0.5), mk(0.5), mk(-1.0)])[0] == pytest.approx(0.0)
    assert np.isnan(cross_sum([mk(float("nan")), mk(float("nan"))])[0])
    assert cross_sum([mk(0.3), mk(float("nan"))])[0] == pytest.approx(0.3)


def test_cross_decomposition_exact():
    cfg = SynthConfig(seed=3)
    frames = generate_frames(cfg, 30.0)
    per_venue = [flow_imbalance(frames, v) for v in frames.venue_names]
    assert np.array_equal(cross_sum(per_venue), sum(per_venue))


def test_peer_spread_examples():
    v0 = frames_from(mid=[100.0, 100.0])
    v1 = frames_from(mid=[100.2, 100.0])
    v2 = frames_from(mid=[100.3, 100.0])
    frames = build_frameset(v0=v0, v1=v1, v2=v2)
    spread = peer_spread(frames, "v0")
    assert spread[0] == pytest.approx(0.5)
    assert spread[1] == pytest.approx(0.0)
    solo = build_frameset(v0=frames_from(mid=[100.0]))
    assert np.isnan(peer_spread(solo, "v0")[0])


def test_peer_spread_centered_examples():
    series = np.array([1.0, 1.0, 4.0])
    out = peer_spread_centered(series, window=3)
    assert out[2] == pytest.approx(2.0)
    assert np.allclose(peer_spread_centered(np.full(3, 2.5), window=3), 0.0)
    assert np.allclose(peer_spread_centered(series, window=1), 0.0)


def test_future_return_examples():
    flat = build_frameset(v0=frames_from(mid=[100.0] * 5))
    assert np.allclose(future_return_bps(flat, "v0", 2)[:3], 0.0)
    step = build_frameset(v0=frames_from(mid=[100.0, 100.01]))
    out = future_return_bps(step, "v0", 1)
    assert out[0] == pytest.approx(1.0)
    assert np.isnan(out[1])


# -- regression ---------------------------------------------------------------


def test_r_squared_hand_example():
    assert r_squared(np.array([1.0, 2, 3]), np.array([1.0, 2, 4])) == pytest.approx(0.5)


def test_r_squared_boundaries():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full(3, y.mean())) == 0.0


def test_fit_line_perfect_and_mean_prediction():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_line(x, 2 * x + 1)
    assert fit.beta == pytest.approx(2.0)
    assert fit.alpha == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_line_r2_matches_independent_two_pass():
    rng = np.random.default_rng(4)
    x = rng.normal(size=400)
    y = 0.3 * x + rng.normal(size=400)
    fit = fit_line(x, y)
    yhat = fit.alpha + fit.beta * x
    ss_res = np.sum((y - yhat) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    oracle = 1.0 - ss_res / ss_tot
    assert abs(fit.r2 - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_fit_line_errors():
    with pytest.raises(TooFewPointsError):
        fit_line(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DegenerateXError):
        fit_line(np.full(10, 2.0), np.arange(10.0))


def test_bin_curve_of_too_few_paired_points_raises():
    # an empty curve used to end in an IndexError from np.percentile
    y = np.array([1.0, np.nan, 2.0, np.nan])
    for x in (np.full(4, np.nan), np.arange(4.0)):
        with pytest.raises(TooFewPointsError, match=f"^{np.count_nonzero(np.isfinite(x + y))} paired points$"):
            bin_curve(x, y)


def test_bin_curve_self_prediction_slope_one():
    rng = np.random.default_rng(5)
    y = rng.normal(size=5000)
    centers, means, counts = bin_curve(y, y, n_bins=20)
    ok = counts > 0
    # mean of y within a bin of y is the bin center up to in-bin spread
    assert np.all(np.diff(means[ok]) > 0)
    slope = np.polyfit(centers[ok], means[ok], 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_horizon_report_shapes_and_bins():
    cfg = SynthConfig(seed=8)
    frames = generate_frames(cfg, 120.0)
    feat = depth_imbalance(frames, "v0")
    report = horizon_report("depth_imbalance", feat, frames, "v0", (100, 500, 1000), 500)
    assert len(report.fits) == 3
    assert len(report.bin_centers) == 20
    assert report.bin_counts.sum() > 0
    d = report.to_json_dict()
    assert {h["horizon_ms"] for h in d["horizons"]} == {100, 500, 1000}


def test_horizon_report_of_a_constant_feature_is_degenerate():
    # fit_line still raises; the report records the fit and goes on.
    frames = generate_frames(SynthConfig(seed=8), 20.0)
    feat = np.full(frames.n_frames, 0.5)
    report = horizon_report("constant", feat, frames, "v0", (100, 500), 500)
    y = future_return_bps(frames, "v0", 10)
    assert report.fits[0].n == np.count_nonzero(np.isfinite(y)) >= 3
    assert all(f.degenerate and np.isnan([f.alpha, f.beta, f.r2]).all() for f in report.fits)
    assert report.to_json_dict()["horizons"][0] == {
        "horizon_ms": 100, "alpha": None, "beta": None, "r2": None, "n": report.fits[0].n, "degenerate": True
    }
    assert report.bin_counts.sum() > 0


def test_feature_bundle_scopes():
    cfg = SynthConfig(seed=2)
    frames = generate_frames(cfg, 20.0)
    single = feature_bundle(frames, "v1", "single")
    assert list(single) == ["flow_imbalance_norm", "depth_imbalance"]
    cross = feature_bundle(frames, "v1", "cross")
    assert list(cross) == [
        "flow_imbalance_norm",
        "depth_imbalance",
        "cross_flow_imbalance_norm",
        "cross_depth_imbalance",
        "peer_spread_centered_bps",
    ]
    with pytest.raises(ValueError):
        feature_bundle(frames, "v1", "both")


@pytest.mark.parametrize("target", ["v0", "v1", "v2"])
def test_features_without_peers_are_the_targets_own(target):
    # With every peer absent, the cross arm holds the single arm's signals
    # and no peer spread: no feature reads an absent venue.
    frames = generate_frames(SynthConfig(seed=2), 20.0)
    venues = {
        name: vf if name == target else replace(vf, present=np.zeros_like(vf.present))
        for name, vf in frames.venues.items()
    }
    values = feature_series(FrameSet(frames.grid_ts, venues), target, 2000)
    assert np.isfinite(values["flow_imbalance_norm"]).any() and np.isfinite(values["depth_imbalance"]).any()
    np.testing.assert_array_equal(values["cross_flow_imbalance_norm"], values["flow_imbalance_norm"])
    np.testing.assert_array_equal(values["cross_depth_imbalance"], values["depth_imbalance"])
    assert np.isnan(values["peer_spread_centered"]).all()
    assert np.isnan(values["peer_spread_centered_bps"]).all()


def test_anti_lookahead_under_future_permutation():
    # Mutating data after grid point t must not change any feature at or
    # before t.
    cfg = SynthConfig(seed=31)
    frames_a = generate_frames(cfg, 60.0)
    frames_b = generate_frames(cfg, 60.0)
    cut = 3000
    rng = np.random.default_rng(0)
    for vf in frames_b.venues.values():
        perm = rng.permutation(np.arange(cut + 1, frames_b.n_frames))
        for field in ("mid", "buy_volume", "sell_volume"):
            arr = getattr(vf, field)
            arr[cut + 1 :] = arr[perm]
        vf.bid_qty[cut + 1 :] = vf.bid_qty[perm]
        vf.ask_qty[cut + 1 :] = vf.ask_qty[perm]
    for scope in ("single", "cross"):
        fa = feature_bundle(frames_a, "v1", scope)
        fb = feature_bundle(frames_b, "v1", scope)
        for name in fa:
            assert np.array_equal(fa[name][: cut + 1], fb[name][: cut + 1], equal_nan=True), (
                scope,
                name,
            )
