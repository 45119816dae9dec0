"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.  The
heavy fixtures (planted-signal market, trained policies) are shared across
criteria, mirroring how the training-budget criteria are defined.
"""

import time

import numpy as np
import pytest

from execlab.capture import read_capture, resample
from execlab.env import ExecutionEnv, ProblemSpec, run_episode, run_episodes
from execlab.evalkit import (
    SIGNAL_BUCKETS,
    Arm,
    SampledPolicy,
    TwapPolicy,
    action_heatmap,
    compare,
    implementation_shortfall,
)
from execlab.ppo import (
    PolicyParams,
    PpoConfig,
    RolloutBuffer,
    action_mask,
    policy_forward,
    sample_actions,
    update,
)
from execlab.ppo.trainer import train_policy
from execlab.signals import (
    cross_sum,
    depth_imbalance,
    feature_bundle,
    fit_line,
    flow_imbalance,
    flow_imbalance_norm,
    future_return_bps,
    horizon_steps,
    peer_spread,
    peer_spread_centered,
    window_steps,
    bin_curve,
)
from execlab.synth import SynthConfig, generate, generate_frames
from gradcheck import gradient_check_ppo
from markets import flat_market
from reference import RandomPolicy

# Pinned experiment constants: the planted-signal market of criteria 3-6 and 9.
MARKET = SynthConfig(
    seed=1234, signal_strength=0.5, lag_ms=(0, 200, 300), tilt_noise=0.6
)
MARKET_DURATION_S = 1800.0
TARGET = "v1"
HORIZONS_MS = (100, 200, 500, 1000, 5000, 10000)
WINDOW = window_steps(30_000)
TRAIN_UPDATES = 250
SEED_CROSS = 505
SEED_SINGLE = 506
SEED_IMPACT = 505
EVAL_SEED = 777
POLICY_DRAW_SEED = 42
N_EVAL_EPISODES = 1000
BOOTSTRAP_DRAWS = 200
BOOTSTRAP_BLOCK = 600  # 6s blocks ~ 2x drift correlation time


def report(criterion: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status} - {detail}{suffix}")


@pytest.fixture(scope="module")
def market():
    frames = generate_frames(MARKET, MARKET_DURATION_S)
    return frames


@pytest.fixture(scope="module")
def bundles(market):
    return {
        "cross": feature_bundle(market, TARGET, "cross"),
        "single": feature_bundle(market, TARGET, "single"),
    }


@pytest.fixture(scope="module")
def trained(market, bundles):
    spec = ProblemSpec()
    spec_impact = ProblemSpec(impact_enabled=True)
    config = PpoConfig(seed=0)
    t0 = time.time()
    cross, _ = train_policy(
        market, spec, bundles["cross"], TARGET, config, TRAIN_UPDATES, seed=SEED_CROSS
    )
    single, _ = train_policy(
        market, spec, bundles["single"], TARGET, config, TRAIN_UPDATES, seed=SEED_SINGLE
    )
    impact, _ = train_policy(
        market, spec_impact, bundles["cross"], TARGET, config, TRAIN_UPDATES, seed=SEED_IMPACT
    )
    return {
        "cross": cross,
        "single": single,
        "impact": impact,
        "train_seconds": time.time() - t0,
    }


@pytest.fixture(scope="module")
def comparison(market, bundles, trained):
    spec = ProblemSpec()
    arms = {
        "TWAP": Arm(TwapPolicy(spec)),
        "PPO_single": Arm(SampledPolicy(trained["single"], POLICY_DRAW_SEED), bundles["single"]),
        "PPO_cross": Arm(SampledPolicy(trained["cross"], POLICY_DRAW_SEED), bundles["cross"]),
    }
    return compare(arms, market, spec, TARGET, n_episodes=N_EVAL_EPISODES, seed=EVAL_SEED)


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_flat_market_twap_is_exactly_fee(tmp_path):
    t0 = time.time()
    path = tmp_path / "flat.ndjson"
    flat_market(100.0, 51.0, path)
    frames = resample(read_capture(path))
    spec = ProblemSpec()
    env = ExecutionEnv(frames, spec, {}, "v0")
    trace = run_episode(env, TwapPolicy(spec), 0)
    p0 = float(frames.venues["v0"].best_bid[0])
    shortfall = implementation_shortfall(trace.total_cash, spec.total_units, p0)
    rel_err = abs(shortfall - (-3e-4)) / 3e-4
    elapsed = time.time() - t0
    ok = rel_err < 1e-9 and elapsed < 1.0
    report(1, ok, f"flat TWAP IS {shortfall * 1e4:.6f} bps, rel err {rel_err:.2e}", elapsed)
    assert rel_err < 1e-9
    assert elapsed < 1.0


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_rewards_telescope_to_shortfall(market, bundles):
    t0 = time.time()
    worst = 0.0
    for spec in (ProblemSpec(), ProblemSpec(impact_enabled=True)):
        env = ExecutionEnv(market, spec, bundles["cross"], TARGET)
        rng = np.random.default_rng(21)
        starts = env.sample_starts(500, rng)
        policy = RandomPolicy(seed=9)
        for trace in run_episodes(env, policy, starts):
            p0 = float(market.venues[TARGET].best_bid[trace.start_row])
            shortfall = implementation_shortfall(trace.total_cash, spec.total_units, p0)
            rel = abs(trace.total_reward - shortfall) / max(abs(shortfall), 1e-12)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(2, ok, f"1000 episodes, worst |sum(rewards) - IS| rel = {worst:.2e}", elapsed)
    assert worst < 1e-9
    assert elapsed < 10.0


# -- criterion 3 --------------------------------------------------------------


def _block_bootstrap_indices(rng, n, block):
    starts = rng.integers(0, n - block, size=(n // block) + 1)
    idx = (starts[:, None] + np.arange(block)[None, :]).ravel()[:n]
    return idx


def _r2_of(x, y):
    mask = np.isfinite(x) & np.isfinite(y)
    return fit_line(x[mask], y[mask]).r2, x[mask], y[mask]


def test_criterion_3_cross_signal_orders_and_decays(market):
    t0 = time.time()
    oimn = {v: flow_imbalance_norm(flow_imbalance(market, v), WINDOW) for v in market.venue_names}
    imb = {v: depth_imbalance(market, v) for v in market.venue_names}
    families = {
        "OIMN": (oimn[TARGET], cross_sum(list(oimn.values()))),
        "IMB": (imb[TARGET], cross_sum(list(imb.values()))),
    }
    rng = np.random.default_rng(2718)
    ordering_ok = True
    decay_ok = True
    details = []
    for name, (single_vals, cross_vals) in families.items():
        r2_single, r2_cross = [], []
        for h in HORIZONS_MS:
            y = future_return_bps(market, TARGET, horizon_steps(h))
            r2_single.append(fit_line(single_vals, y).r2)
            r2_cross.append(fit_line(cross_vals, y).r2)
        ordering_ok &= all(c >= s for c, s in zip(r2_cross, r2_single))
        details.append(f"{name} peak cross r2 {max(r2_cross):.3f}")
        # decay beyond the peak, within paired block-bootstrap noise (95%)
        for series_vals, r2s in ((single_vals, r2_single), (cross_vals, r2_cross)):
            peak = int(np.argmax(r2s))
            for k in range(peak, len(HORIZONS_MS) - 1):
                if r2s[k + 1] <= r2s[k]:
                    continue
                y_a = future_return_bps(market, TARGET, horizon_steps(HORIZONS_MS[k]))
                y_b = future_return_bps(market, TARGET, horizon_steps(HORIZONS_MS[k + 1]))
                mask = np.isfinite(series_vals) & np.isfinite(y_a) & np.isfinite(y_b)
                xs, ya, yb = series_vals[mask], y_a[mask], y_b[mask]
                deltas = []
                for _ in range(BOOTSTRAP_DRAWS):
                    idx = _block_bootstrap_indices(rng, len(xs), BOOTSTRAP_BLOCK)
                    fa = fit_line(xs[idx], ya[idx])
                    fb = fit_line(xs[idx], yb[idx])
                    deltas.append(fb.r2 - fa.r2)
                # decay is contradicted only if the rise is significant
                if np.quantile(deltas, 0.05) > 0:
                    decay_ok = False
    elapsed = time.time() - t0
    ok = ordering_ok and decay_ok and elapsed < 120.0
    report(
        3,
        ok,
        f"cross >= single at all horizons: {ordering_ok}; decay beyond peak: {decay_ok}; "
        + "; ".join(details),
        elapsed,
    )
    assert ordering_ok
    assert decay_ok
    assert elapsed < 120.0


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_spread_predictiveness(market):
    t0 = time.time()
    spread = peer_spread_centered(peer_spread(market, TARGET), WINDOW)
    y500 = future_return_bps(market, TARGET, horizon_steps(500))
    point = fit_line(spread, y500).r2
    rng = np.random.default_rng(3141)
    mask = np.isfinite(spread) & np.isfinite(y500)
    xs, ys = spread[mask], y500[mask]
    r2s = []
    for _ in range(BOOTSTRAP_DRAWS):
        idx = _block_bootstrap_indices(rng, len(xs), BOOTSTRAP_BLOCK)
        r2s.append(fit_line(xs[idx], ys[idx]).r2)
    ci_low = float(np.quantile(r2s, 0.025))
    centers, means, counts = bin_curve(spread, y500, 20)
    mid = means[2:18]
    finite = mid[np.isfinite(mid)]
    monotone = bool(np.all(np.diff(finite) >= -1e-12)) and len(finite) >= 14
    elapsed = time.time() - t0
    ok = ci_low > 0 and monotone and elapsed < 120.0
    report(
        4,
        ok,
        f"spread r2@500ms {point:.4f} (bootstrap 2.5% = {ci_low:.4f}); "
        f"middle-16 bin curve monotone: {monotone}",
        elapsed,
    )
    assert ci_low > 0
    assert monotone
    assert elapsed < 120.0


# -- criteria 5 and 6 ----------------------------------------------------------


def test_criterion_5_learning_gain_ordering(comparison, trained):
    t0 = time.time()
    gain_cross = comparison.gain_bps("PPO_cross")
    gain_single = comparison.gain_bps("PPO_single")
    elapsed = trained["train_seconds"] + (time.time() - t0)
    ok = gain_cross > gain_single > 0 and min(gain_cross, gain_single) >= 0.2
    report(
        5,
        ok,
        f"Gain(PPO_cross) {gain_cross:+.3f} bps > Gain(PPO_single) {gain_single:+.3f} bps > 0, "
        f"both >= 0.2 bps over {N_EVAL_EPISODES} paired episodes",
        elapsed,
    )
    assert gain_cross > gain_single > 0
    assert gain_single >= 0.2
    assert elapsed < 1800.0


def test_criterion_6_price_impact_robustness(market, bundles, trained, comparison):
    t0 = time.time()
    spec_impact = ProblemSpec(impact_enabled=True)
    arms = {
        "TWAP": Arm(TwapPolicy(spec_impact)),
        "PPO_cross": Arm(SampledPolicy(trained["impact"], POLICY_DRAW_SEED), bundles["cross"]),
    }
    impact_report = compare(
        arms, market, spec_impact, TARGET, n_episodes=N_EVAL_EPISODES, seed=EVAL_SEED
    )
    gain_impact = impact_report.gain_bps("PPO_cross")
    std_impact = impact_report.results["PPO_cross"].std_bps
    std_plain = comparison.results["PPO_cross"].std_bps
    elapsed = time.time() - t0
    ok = gain_impact > 0 and std_impact < std_plain
    report(
        6,
        ok,
        f"impact arm gain {gain_impact:+.3f} bps > 0; IS std {std_impact:.2f} bps "
        f"< criterion-5 run {std_plain:.2f} bps",
        elapsed,
    )
    assert gain_impact > 0
    assert std_impact < std_plain


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_ppo_correctness_suite():
    t0 = time.time()
    # gradient check on the full loss
    rng = np.random.default_rng(11)
    params = PolicyParams.init(rng, 7, 51)
    n = 64
    states = rng.standard_normal((n, 7))
    masks = action_mask(rng.integers(1, 51, n), 51)
    probs, values, _, _ = policy_forward(params, states, masks)
    actions = sample_actions(probs, rng)
    batch = {
        "states": states,
        "actions": actions,
        "masks": masks,
        "log_probs": np.log(probs[np.arange(n), actions]),
        "advantages": rng.standard_normal(n),
        "value_targets": rng.standard_normal(n) * 0.1,
    }
    grad_err = gradient_check_ppo(params, batch, PpoConfig(), rng, n_probes=120, h=1e-5)

    # masked actions never sampled in 1e6 draws
    mask = action_mask(4, 10)
    probs_small, _, _, _ = policy_forward(PolicyParams.init(rng, 3, 10), np.zeros((1, 3)), mask)
    draws = sample_actions(np.repeat(probs_small, 1_000_000, axis=0), rng)
    masked_ok = int(draws.max()) <= 4

    # planted-reward bandit converges within 200 updates
    config = PpoConfig(entropy_coef=1e-3, minibatch_size=64, seed=0)
    brng = np.random.default_rng(0)
    bparams = PolicyParams.init(brng, 3, 5)
    state = np.array([0.3, -0.2, 0.1])
    for _ in range(200):
        bstates = np.tile(state, (256, 1))
        bmasks = np.ones((256, 5), dtype=bool)
        bprobs, bvalues, _, _ = policy_forward(bparams, bstates, bmasks)
        bactions = sample_actions(bprobs, brng)
        buf = RolloutBuffer(
            states=bstates,
            actions=bactions,
            masks=bmasks,
            log_probs=np.log(bprobs[np.arange(256), bactions]),
            rewards=(bactions == 2).astype(float),
            values=bvalues,
            dones=np.ones(256, dtype=bool),
        )
        buf.finalize(config)
        update(bparams, buf, config, brng)
    final_probs, _, _, _ = policy_forward(bparams, state[None, :], np.ones((1, 5), dtype=bool))
    bandit_mass = float(final_probs[0, 2])

    elapsed = time.time() - t0
    ok = grad_err <= 1e-4 and masked_ok and bandit_mass >= 0.95 and elapsed < 60.0
    report(
        7,
        ok,
        f"gradcheck max rel err {grad_err:.2e}; masked never sampled: {masked_ok}; "
        f"bandit mass on paying action {bandit_mass:.4f}",
        elapsed,
    )
    assert grad_err <= 1e-4
    assert masked_ok
    assert bandit_mass >= 0.95
    assert elapsed < 60.0


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_no_lookahead_audit(tmp_path):
    t0 = time.time()
    cfg = SynthConfig(seed=77, signal_strength=0.5, lag_ms=(0, 200, 300))
    path = tmp_path / "audit.ndjson"
    generate(cfg, 60.0, path)
    base_records = list(read_capture(path))
    venues = sorted({r.venue for r in base_records})
    base_frames = resample(base_records, venues=venues)
    window = window_steps(5_000)

    def features_of(frames):
        out = dict(feature_bundle(frames, TARGET, "cross", window_ms=5_000))
        return out

    base_features = features_of(base_frames)
    spec = ProblemSpec(horizon_s=20.0)
    env_base = ExecutionEnv(base_frames, spec, base_features, TARGET)

    rng = np.random.default_rng(55)
    probes = 0
    clean = True
    n = base_frames.n_frames
    for trial in range(12):
        cut_row = int(rng.integers(n // 4, n - 50))
        cut_ts = int(base_frames.grid_ts[cut_row])
        mutated = []
        for rec in base_records:
            if rec.local_ts <= cut_ts:
                mutated.append(rec)
                continue
            roll = rng.random()
            if roll < 0.2:
                continue  # drop the record
            payload = rec.payload
            if rec.kind == "trade":
                flipped = "buy" if payload.side == "sell" else "sell"
                payload = type(payload)(
                    payload.price * (1 + 0.001 * rng.standard_normal()),
                    payload.qty + float(rng.integers(0, 3)),
                    flipped if roll < 0.6 else payload.side,
                )
            mutated.append(type(rec)(rec.venue, rec.kind, rec.local_ts, payload, rec.exch_ts))
        frames_mut = resample(mutated, venues=venues)
        feats_mut = features_of(frames_mut)
        for name, values in base_features.items():
            same = np.array_equal(
                values[: cut_row + 1], feats_mut[name][: cut_row + 1], equal_nan=True
            )
            clean &= same
            probes += cut_row + 1
        # environment states at decision rows up to the cutoff
        env_mut = ExecutionEnv(frames_mut, spec, feats_mut, TARGET)
        start = 0
        s_base = env_base.reset([start])
        s_mut = env_mut.reset([start])
        while s_base.rows[0] + spec.decision_steps() <= cut_row:
            clean &= np.array_equal(s_base.vectors, s_mut.vectors, equal_nan=True)
            probes += 1
            r_base, _, done = env_base.step(np.minimum(5, s_base.inventory))
            r_mut, _, _ = env_mut.step(np.minimum(5, s_mut.inventory))
            clean &= r_base[0] == r_mut[0]
            s_base, s_mut = env_base.states, env_mut.states
            if done[0]:
                break
    elapsed = time.time() - t0
    ok = clean and probes >= 10_000 and elapsed < 60.0
    report(8, ok, f"{probes} probes across 12 mutated replays, all unchanged: {clean}", elapsed)
    assert clean
    assert probes >= 10_000
    assert elapsed < 60.0


# -- criterion 9 --------------------------------------------------------------


def test_criterion_9_heatmap_monotonicity(market, bundles, trained):
    t0 = time.time()
    spec = ProblemSpec()
    grid = action_heatmap(
        SampledPolicy(trained["cross"], POLICY_DRAW_SEED),
        market,
        spec,
        bundles["cross"],
        TARGET,
        signal_name="cross_depth_imbalance",
        n_episodes=1000,
        seed=99,
        min_count=10,
    )
    # an inversion is an aggressiveness increase beyond one cell standard
    # error (~0.05 at these visit counts) as remaining time grows
    tol = 0.05
    monotone = True
    for bucket in SIGNAL_BUCKETS:
        mean = grid.mean(bucket)
        for v in range(grid.n_buckets):
            col = [mean[t, v] for t in range(grid.n_buckets) if np.isfinite(mean[t, v])]
            inversions = sum(1 for a, b in zip(col, col[1:]) if b > a + tol)
            if inversions > 1:
                monotone = False
    dec = grid.global_mean("decrease")
    inc = grid.global_mean("increase")
    elapsed = time.time() - t0
    ok = monotone and dec > inc and elapsed < 120.0
    report(
        9,
        ok,
        f"aggressiveness nonincreasing in remaining time (<=1 inversion/row): {monotone}; "
        f"decrease mean {dec:.3f} > increase mean {inc:.3f}",
        elapsed,
    )
    assert monotone
    assert dec > inc
    assert elapsed < 120.0
