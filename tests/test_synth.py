import hashlib
import json

import numpy as np
import pytest

from execlab.capture import read_capture, resample
from execlab.capture.records import GRID_NS, TS_MAX
from execlab.cli import main
from execlab.errors import InvalidConfig
from execlab.synth import SynthConfig, duration_steps, generate, generate_frames
from markets import flat_market, flat_market_frames

# SHA-256 of the capture `synth gen` writes, as written when every record
# went through json.dumps: the default market, and one venue trading an
# integer quantity, which the writer passes to the JSON encoder.
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
