import dataclasses
import hashlib
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from execlab.capture import read_capture, resample, write_capture
from execlab.capture.records import GRID_NS, TS_MAX
from execlab.cli import main
from execlab.errors import InvalidConfig
from execlab.synth import SynthConfig, _materialize, duration_steps, generate, generate_frames
from markets import flat_market, flat_market_config, flat_market_frames
from synth_reference import generate_records

# SHA-256 of the capture `synth gen` writes.  The first two were written when
# every record went through json.dumps: the default market, and one venue
# trading an integer quantity, which the writer passes to the JSON encoder.
# The other two were written by the per-record generator, now
# synth_reference.generate_records, before the column writer replaced it.
PINNED_CAPTURES = {
    "default": (
        {"version": 1, "synth_duration_s": 5.0},
        "c1d877db1bf169a49dbda730167fa80b8150f5bd767e02873cde6122cc73bd17",
    ),
    "int_qty_one_venue": (
        {
            "version": 1,
            "synth": {"seed": 3, "n_venues": 1, "lag_ms": [0], "basis": [0.0], "trade_qty": 2},
            "synth_duration_s": 5.0,
        },
        "cde24406863fefeb9847b8e2d07b2bab3064ed445c82f0a70b257da993f50450",
    ),
    # Four venues, book rows of 7 steps and 333 steps in all, so neither
    # lines up with a block of the column writer.
    "four_venues_70ms_books": (
        {
            "version": 1,
            "synth": {
                "seed": 5,
                "n_venues": 4,
                "lag_ms": [0, 70, 140, 210],
                "basis": [0.0, 0.5, -0.5, 0.25],
                "book_update_ms": 70,
                "trade_intensity": 40.0,
            },
            "synth_duration_s": 3.33,
        },
        "4f8fbf749182288f280de3848d2017ab425cd56c7d3def33cd819b7f69011af1",
    ),
    # One venue whose book rows, 300 steps each, are longer than a block.
    "one_venue_3s_books": (
        {
            "version": 1,
            "synth": {"seed": 8, "n_venues": 1, "lag_ms": [0], "basis": [0.0], "book_update_ms": 3000},
            "synth_duration_s": 9.5,
        },
        "c87b3232074929ab9425d9bbf04074fbb9049f64dc431ad76fd345babbf9c617",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CAPTURES))
def test_synth_gen_writes_the_pinned_bytes(tmp_path, name):
    config, digest = PINNED_CAPTURES[name]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "market.ndjson"
    assert main(["synth", "gen", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_duration_ends_by_the_last_capture_timestamp():
    last = TS_MAX // GRID_NS  # steps in the longest market
    assert duration_steps(last / 100) == last
    with pytest.raises(InvalidConfig, match="last capture timestamp"):
        duration_steps((last + 1) / 100)
    with pytest.raises(InvalidConfig, match="last capture timestamp"):
        duration_steps(1e12)


def test_same_seed_identical_bytes(tmp_path):
    cfg = SynthConfig(seed=9)
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    generate(cfg, 5.0, a)
    generate(cfg, 5.0, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0


def test_different_seed_differs(tmp_path):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    generate(SynthConfig(seed=1), 5.0, a)
    generate(SynthConfig(seed=2), 5.0, b)
    assert a.read_bytes() != b.read_bytes()


def test_records_and_frames_paths_agree_bitwise(tmp_path):
    cfg = SynthConfig(seed=3)
    path = tmp_path / "cap.ndjson"
    generate(cfg, 8.0, path)
    via_records = resample(read_capture(path))
    direct = generate_frames(cfg, 8.0)
    assert np.array_equal(via_records.grid_ts, direct.grid_ts)
    for venue in direct.venue_names:
        a, b = via_records.venues[venue], direct.venues[venue]
        for field in (
            "present",
            "best_bid",
            "best_ask",
            "mid",
            "buy_volume",
            "sell_volume",
            "bid_price",
            "bid_qty",
            "ask_price",
            "ask_qty",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (venue, field)


def test_flat_market_constant_mid_and_depth():
    frames = flat_market_frames(250.0, 3.0)
    v = frames.venues["v0"]
    assert np.all(v.mid == 250.0)
    assert np.all(v.buy_volume == 0.0)
    assert np.all(v.sell_volume == 0.0)
    depth = v.bid_qty.sum(axis=1)
    assert np.all(depth == depth[0])
    assert np.all(v.bid_qty == v.ask_qty)


def test_flat_market_file_round_trip(tmp_path):
    path = tmp_path / "flat.ndjson"
    flat_market(100.0, 2.0, path)
    frames = resample(read_capture(path))
    assert np.all(frames.venues["v0"].mid == 100.0)


def test_follower_tracks_lagged_leader_with_basis():
    cfg = SynthConfig(seed=11, level_noise=0.0, book_update_ms=10)
    frames = generate_frames(cfg, 120.0)
    lag_steps = cfg.lag_steps(1)
    lead = frames.venues["v0"].mid
    fol = frames.venues["v1"].mid
    # after the first lag_steps rows the follower is exactly lagged + basis
    diff = fol[lag_steps:] - lead[:-lag_steps]
    assert np.allclose(diff, cfg.basis[1], atol=1e-9)


def test_basis_sample_mean():
    cfg = SynthConfig(seed=21)
    frames = generate_frames(cfg, 600.0)
    lead = frames.venues["v0"].mid
    fol = frames.venues["v1"].mid
    diff = fol - lead
    lag_steps = cfg.lag_steps(1)
    n = len(diff)
    # lag-autocorrelated series: effective sample size scaled down
    stderr = diff.std(ddof=1) * np.sqrt((2 * lag_steps + 1) / n)
    assert abs(diff.mean() - cfg.basis[1]) < 3 * stderr + 1e-3


def test_follower_regression_slope_one_at_configured_lag():
    cfg = SynthConfig(seed=19)
    frames = generate_frames(cfg, 600.0)
    lag_steps = cfg.lag_steps(1)
    lead = frames.venues["v0"].mid
    fol = frames.venues["v1"].mid
    x = lead[:-lag_steps]
    y = fol[lag_steps:] - cfg.basis[1]
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_lag_detected_by_cross_correlogram():
    cfg = SynthConfig(seed=5, lag_ms=(0, 200, 300))
    frames = generate_frames(cfg, 900.0)
    lead_ret = np.diff(frames.venues["v0"].mid)
    fol_ret = np.diff(frames.venues["v1"].mid)
    lags = np.arange(0, 61)
    cors = []
    for lag in lags:
        if lag == 0:
            cors.append(np.corrcoef(lead_ret, fol_ret)[0, 1])
        else:
            cors.append(np.corrcoef(lead_ret[:-lag], fol_ret[lag:])[0, 1])
    best = lags[int(np.argmax(cors))]
    assert abs(int(best) - 20) <= 1  # 200ms at 10ms bins


def test_zero_signal_strength_plants_nothing():
    cfg = SynthConfig(seed=7, signal_strength=0.0, n_venues=1, lag_ms=(0,), basis=(0.0,))
    frames = generate_frames(cfg, 1200.0)  # 120k samples
    v = frames.venues["v0"]
    oim = v.buy_volume - v.sell_volume
    ret = np.diff(v.mid)
    rho = np.corrcoef(oim[:-1], ret)[0, 1]
    assert abs(rho) < 0.02


def test_generate_checks_duration_before_creating_the_file(tmp_path):
    path = tmp_path / "market.ndjson"
    with pytest.raises(InvalidConfig):
        generate(SynthConfig(), 0.0, path)
    assert not path.exists()


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        SynthConfig(lag_ms=(0, 200))  # wrong arity
    with pytest.raises(InvalidConfig):
        SynthConfig(signal_strength=1.5)
    with pytest.raises(InvalidConfig):
        SynthConfig(lag_ms=(100, 200, 300))  # leader must have lag 0
    with pytest.raises(InvalidConfig):
        SynthConfig(book_update_ms=15)
    with pytest.raises(InvalidConfig):
        generate_frames(SynthConfig(), 0.0)


def test_trade_side_bias_follows_drift_sign():
    cfg = SynthConfig(seed=13, signal_strength=1.0, trade_intensity=5.0)
    frames = generate_frames(cfg, 600.0)
    v = frames.venues["v0"]
    oim = v.buy_volume - v.sell_volume
    fwd = frames.venues["v0"].mid
    horizon = 100  # 1s
    ret = fwd[horizon:] - fwd[:-horizon]
    rho = np.corrcoef(oim[: -horizon], ret)[0, 1]
    assert rho > 0.05


# -- the column writer ---------------------------------------------------------


@st.composite
def markets(draw):
    """A valid market and a duration in whole grid steps, small enough that
    the per-record reference writes it in well under a second."""
    n_venues = draw(st.integers(1, 4))
    leader = draw(st.integers(0, n_venues - 1))
    lag_ms = [0 if i == leader else draw(st.integers(0, 500)) for i in range(n_venues)]
    intensity = draw(st.sampled_from([0.0, 0.3, 2.0, 40.0, 200.0, 400.0]))
    config = SynthConfig(
        seed=draw(st.integers(0, 2**16)),
        n_venues=n_venues,
        leader=leader,
        lag_ms=tuple(lag_ms),
        basis=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n_venues)),
        vol=draw(st.sampled_from([0.0, 2e-5, 1e-4])),
        trade_intensity=intensity,
        trade_qty=draw(st.one_of(st.integers(1, 3), st.floats(0.01, 50.0))),
        book_update_ms=draw(st.integers(1, 250)) * 10,
    )
    max_steps = max(1, min(777, int(4000 // max(1.0, intensity * n_venues))))
    return config, draw(st.integers(1, max_steps)) / 100


def _bytes_of(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.ndjson"
        write(path)
        return path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(markets())
# Book rows of 300 steps across blocks of 250, and a duration that is no multiple of either.
@example((SynthConfig(n_venues=1, lag_ms=(0,), basis=(0.0,), book_update_ms=3000, trade_qty=2), 7.77))
# The trade-spacing branch: more than 700 trades of all venues in one step.
@example((SynthConfig(n_venues=4, lag_ms=(0, 10, 20, 30), basis=(0.0,) * 4, trade_intensity=400.0), 0.03))
# Two venues' trades at one local_ts, which the venue index orders.
@example((SynthConfig(seed=1, n_venues=2, lag_ms=(0, 0), basis=(0.0, 0.0), trade_intensity=400.0), 0.03))
def test_generate_writes_the_bytes_of_the_per_record_generator(market):
    config, duration_s = market
    written = _bytes_of(lambda path: generate(config, duration_s, path))
    assert written == _bytes_of(lambda path: write_capture(generate_records(config, duration_s), path))


def test_generate_returns_the_records_written(tmp_path):
    config = SynthConfig(seed=4, n_venues=2, lag_ms=(0, 100), basis=(0.0, 0.1))
    path = tmp_path / "market.ndjson"
    n = generate(config, 6.0, path)
    assert n == len(path.read_text().splitlines()) == len(list(generate_records(config, 6.0)))


def test_generate_holds_a_block_of_lines_not_the_capture(tmp_path):
    config = SynthConfig(seed=1234)
    tracemalloc.start()
    try:
        draws = _materialize(config, duration_steps(30.0))
        held_by_draws = tracemalloc.get_traced_memory()[0]
        del draws
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        generate(config, 30.0, tmp_path / "market.ndjson")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # The 30 s capture is 2.9 MB; the lines of all of it take about 11 MB.
    assert (tmp_path / "market.ndjson").stat().st_size > 2_000_000
    assert peak - held_by_draws < 3_000_000


def test_draws_hold_each_book_once_per_refresh():
    config = SynthConfig(seed=1234)
    n_steps = duration_steps(300.0)
    tracemalloc.start()
    try:
        draws = _materialize(config, n_steps)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    refreshes = -(-n_steps // (config.book_update_ms * 1_000_000 // GRID_NS))
    vd = draws.venues["v0"]
    assert len(vd.mid) == len(vd.bid_px) == refreshes and len(vd.n_trades) == n_steps
    # Per venue: the mid and 4 x 5 levels of each book, and two int64 counts per step.
    # Books repeated over their 10 steps would hold about 16.6 MB.
    need = config.n_venues * (refreshes * 21 * 8 + n_steps * 2 * 8)
    assert held < 1.1 * need


def test_frames_hold_each_book_once_per_refresh():
    config = SynthConfig(seed=1234)
    tracemalloc.start()
    try:
        frames = generate_frames(config, 300.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = frames.n_frames
    refreshes = -(-n // (config.book_update_ms * 1_000_000 // GRID_NS))
    assert all(len(vf.book) == refreshes for vf in frames.venues.values())
    # grid_ts, and per venue: present, five float columns and the book index
    # per frame, and 4 x 5 levels per refresh.  Levels per frame would hold
    # about 17.5 MB.
    need = n * 8 + config.n_venues * (n * (1 + 5 * 8 + 8) + refreshes * 20 * 8)
    assert held < 1.1 * need


@pytest.mark.parametrize("vol", [0.05, 1e306], ids=["negative-prices", "overflow"])
def test_synth_gen_refuses_draws_its_reader_would_reject(tmp_path, capsys, vol):
    (tmp_path / "cfg.json").write_text(json.dumps({"synth": {"seed": 1, "vol": vol}, "synth_duration_s": 5.0}))
    out = tmp_path / "market.ndjson"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["synth", "gen", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        with pytest.raises(InvalidConfig, match="price that is not a finite number > 0"):
            generate_frames(SynthConfig(seed=1, vol=vol), 5.0)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ConfigParse: synth: venue v0 draws a price that is not a finite number > 0\n"
    )
    assert not out.exists()


def test_draws_with_an_infinite_book_quantity_are_refused():
    with pytest.raises(InvalidConfig, match="book quantity that is not finite"):
        generate_frames(SynthConfig(depth_profile=(1.7e308,) * 5), 1.0)


def test_draws_whose_book_depth_overflows_are_refused(tmp_path, capsys):
    # Levels of 4e307 are finite, their depth is not; resample refuses such a
    # capture, so neither path may make its frames.
    config = SynthConfig(seed=3, depth_profile=(4e307,) * 5, tilt_noise=0, signal_strength=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig, match="^venue v0 draws a book depth that sums past the float range$"):
            generate_frames(config, 5.0)
    code, out = synth_gen(tmp_path, {"seed": 3, "depth_profile": [4e307] * 5, "tilt_noise": 0, "signal_strength": 0})
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ConfigParse: synth: venue v0 draws a book depth that sums past the float range\n"
    )
    assert not out.exists()


def synth_gen(tmp_path, synth: dict) -> tuple[int, Path]:
    """`synth gen` of a 3 s market, with warnings turned into errors."""
    (tmp_path / "cfg.json").write_text(json.dumps({"synth": synth, "synth_duration_s": 3.0}))
    out = tmp_path / "market.ndjson"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["synth", "gen", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("mid0", [1e14, 1e15, 1e308])
def test_synth_gen_refuses_book_levels_a_float_cannot_tell_apart(tmp_path, capsys, mid0):
    # With a tick of 0.01 the levels round together from about 1e14 on, and
    # the capture's book would read back as another book.
    code, out = synth_gen(tmp_path, {"seed": 1, "mid0": mid0})
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ConfigParse: synth: venue v0 draws a book whose price levels are not strictly ordered: "
        "a tick of 0.01 is too fine for the float spacing of its prices\n"
    )
    assert not out.exists()


def test_synth_gen_keeps_a_book_of_1e12(tmp_path):
    code, out = synth_gen(tmp_path, {"seed": 1, "mid0": 1e12})
    assert code == 0
    config = SynthConfig(seed=1, mid0=1e12)
    assert_same_frames(resample(read_capture(out)), generate_frames(config, 3.0))


def test_synth_gen_refuses_a_taker_volume_that_overflows(tmp_path, capsys):
    code, out = synth_gen(tmp_path, {"seed": 1, "trade_qty": 1e308})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParse: synth: venue v0 draws a taker volume that is not finite: ")
    assert err.endswith(" trades of 1e+308 in a step\n")
    assert not out.exists()


def assert_same_frames(got, want) -> None:
    """Bit for bit in every column of every venue, NaNs in the same places."""
    assert got.grid_ts.tobytes() == want.grid_ts.tobytes()
    assert list(got.venues) == list(want.venues)
    for venue, frames in want.venues.items():
        for f in dataclasses.fields(frames):
            a, b = getattr(got.venues[venue], f.name), getattr(frames, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (venue, f.name)


@st.composite
def oracle_markets(draw):
    """A market of 1-3 venues and a few seconds, over the prices, ticks,
    spreads, book cadences, lags and trade sizes a config may set."""
    n_venues = draw(st.integers(1, 3))
    lag_ms = [0] + [draw(st.integers(0, 50)) * 10 for _ in range(n_venues - 1)]
    mid0 = draw(st.one_of(st.floats(10.0, 1e12), st.sampled_from([10.0, 1e12])))
    config = SynthConfig(
        seed=draw(st.integers(0, 2**16)),
        n_venues=n_venues,
        lag_ms=tuple(lag_ms),
        basis=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n_venues)),
        mid0=mid0,
        tick=draw(st.sampled_from([1e-4, 0.01, 0.05, 0.5])),
        half_spread_ticks=draw(st.integers(1, 4)),
        book_update_ms=draw(st.integers(1, 50)) * 10,
        trade_qty=draw(st.one_of(st.integers(1, 5), st.floats(0.001, 1e6))),
        trade_intensity=draw(st.sampled_from([0.0, 2.0, 20.0])),
    )
    return config, draw(st.integers(100, 400)) / 100


@settings(max_examples=25, deadline=None)
@given(oracle_markets())
# A tick of 1e-4 is below the float spacing at 1e12: refused.
@example((SynthConfig(n_venues=1, lag_ms=(0,), basis=(0.0,), mid0=1e12, tick=1e-4), 1.0))
# Many trades of a size that does not add up exactly: 0.1 * 6 != 0.1 + ... + 0.1.
@example((SynthConfig(seed=2, trade_qty=0.1, trade_intensity=20.0), 1.0))
# Every refresh is the same book, so each frame set holds one book row.
@example((flat_market_config(), 2.0))
def test_generate_frames_is_the_resampled_capture(market):
    config, duration_s = market
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.ndjson"
        try:
            want = generate_frames(config, duration_s)
        except InvalidConfig as exc:
            with pytest.raises(InvalidConfig, match=re.escape(str(exc))):
                generate(config, duration_s, path)
            assert not path.exists()
            return
        generate(config, duration_s, path)
        assert_same_frames(resample(read_capture(path)), want)
