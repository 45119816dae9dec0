import numpy as np
import pytest

from execlab.env import ExecutionEnv, ProblemSpec, policy_dims, run_episode, run_episodes
from execlab.evalkit import (
    Arm,
    GreedyPolicy,
    SampledPolicy,
    TwapPolicy,
    action_heatmap,
    compare,
    implementation_shortfall,
    trace_csv_lines,
    twap_schedule,
    write_report_json,
)
from execlab.ppo import PolicyParams
from execlab.signals import feature_bundle
from execlab.synth import SynthConfig, generate_frames
from markets import flat_market_frames
from reference import RandomPolicy


@pytest.fixture(scope="module")
def noisy():
    return generate_frames(SynthConfig(seed=17), 150.0)


# -- twap schedule -------------------------------------------------------------


def test_twap_even_split():
    assert twap_schedule(ProblemSpec(total_units=50, n_decisions=10)) == [5] * 10


def test_twap_unit_split():
    assert twap_schedule(ProblemSpec(total_units=10, n_decisions=10)) == [1] * 10


def test_twap_remainder_spread_earliest():
    schedule = twap_schedule(ProblemSpec(total_units=52, n_decisions=10))
    assert schedule == [6, 6, 5, 5, 5, 5, 5, 5, 5, 5]
    assert sum(schedule) == 52


# -- cash / shortfall / gain -----------------------------------------------------


def test_cash_sell_all_at_start_no_fee():
    frames = flat_market_frames(100.0, 51.0)
    spec = ProblemSpec(fee_rate=0.0)
    env = ExecutionEnv(frames, spec, {}, "v0")
    trace = run_episode(env, lambda states: states.inventory, 0)
    p0 = float(frames.venues["v0"].best_bid[0])
    assert trace.total_cash == pytest.approx(spec.total_units * p0, rel=1e-12)


def test_cash_flat_twap_with_fee_closed_form():
    frames = flat_market_frames(100.0, 51.0)
    spec = ProblemSpec()
    env = ExecutionEnv(frames, spec, {}, "v0")
    trace = run_episode(env, TwapPolicy(spec), 0)
    p0 = float(frames.venues["v0"].best_bid[0])
    assert trace.total_cash == pytest.approx(spec.total_units * p0 * (1 - 3e-4), rel=1e-12)


def test_terminal_contribution_hand_example():
    # leftover 5 units at price 100 with penalty 0.02: 5*100 - 0.02*25*100 = 450
    spec = ProblemSpec(penalty_coef=0.02)
    from execlab.env import settle_terminal

    liq, pen = settle_terminal(5.0, 100.0, spec)
    assert liq - pen == pytest.approx(450.0)


def test_implementation_shortfall_examples():
    assert implementation_shortfall(5000.0, 50, 100.0) == 0.0
    assert implementation_shortfall(0.999 * 5000.0, 50, 100.0) * 1e4 == pytest.approx(-10.0)


# -- compare ---------------------------------------------------------------------


def test_compare_twap_gain_is_zero(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    report = compare({"TWAP": Arm(TwapPolicy(spec))}, noisy, spec, "v1", n_episodes=50, seed=3)
    assert report.gain_bps("TWAP") == 0.0
    row = report.table()[0]
    assert row["policy"] == "TWAP"
    assert row["Gain_bps"] == 0.0


def test_compare_is_deterministic(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    arms = {"TWAP": Arm(TwapPolicy(spec)), "RAND": Arm(RandomPolicy(seed=1))}

    def run():
        arms_fresh = {"TWAP": Arm(TwapPolicy(spec)), "RAND": Arm(RandomPolicy(seed=1))}
        return compare(arms_fresh, noisy, spec, "v1", n_episodes=40, seed=5)

    r1, r2 = run(), run()
    assert np.array_equal(r1.start_rows, r2.start_rows)
    for name in arms:
        assert np.array_equal(r1.results[name].shortfalls_bps, r2.results[name].shortfalls_bps)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_compare_pairing_same_starts(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    fb = feature_bundle(noisy, "v1", "single")
    params = PolicyParams.init(np.random.default_rng(0), *policy_dims(spec, fb))
    arms = {
        "TWAP": Arm(TwapPolicy(spec)),
        "PPO_single": Arm(GreedyPolicy(params), fb),
    }
    report = compare(arms, noisy, spec, "v1", n_episodes=30, seed=7)
    starts_twap = [t.start_row for t in report.results["TWAP"].traces]
    starts_ppo = [t.start_row for t in report.results["PPO_single"].traces]
    assert starts_twap == starts_ppo == report.start_rows.tolist()


def test_histogram_mass_sums_to_episodes(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    report = compare(
        {"TWAP": Arm(TwapPolicy(spec)), "RAND": Arm(RandomPolicy(2))},
        noisy,
        spec,
        "v1",
        n_episodes=64,
        seed=9,
    )
    for counts in report.histogram_counts.values():
        assert counts.sum() == 64


def test_report_emitters(tmp_path, noisy):
    spec = ProblemSpec(horizon_s=20.0)
    report = compare(
        {"TWAP": Arm(TwapPolicy(spec))}, noisy, spec, "v1", n_episodes=10, seed=1
    )
    write_report_json(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").exists()
    hist_lines = report.histogram_csv_lines()
    assert hist_lines[0] == "bin_left,bin_right,TWAP"
    trace_lines = trace_csv_lines(report.results["TWAP"].traces[0], noisy.grid_ts)
    assert trace_lines[0] == "t,mid,q,action,reward,cash"
    assert len(trace_lines) == 1 + spec.n_decisions


def test_sampled_policy_batch_matches_episodes_one_at_a_time(noisy):
    # one batch draws the same uniforms, in the same order, as one draw per
    # decision over episodes run one after another
    spec = ProblemSpec(horizon_s=20.0)
    fb = feature_bundle(noisy, "v1", "cross")
    params = PolicyParams.init(np.random.default_rng(4), *policy_dims(spec, fb))
    env = ExecutionEnv(noisy, spec, fb, "v1")
    starts = env.sample_starts(40, np.random.default_rng(8))
    batch = run_episodes(env, SampledPolicy(params, seed=3), starts)
    policy = SampledPolicy(params, seed=3)
    for start, trace in zip(starts, batch):
        single = run_episode(env, policy, int(start))
        assert np.array_equal(single.actions, trace.actions)
        assert np.array_equal(single.cash, trace.cash)
    assert len({int(a) for t in batch for a in t.actions}) > 3


def test_policies_are_batch_callables(noisy):
    spec = ProblemSpec(horizon_s=20.0, total_units=52)
    fb = feature_bundle(noisy, "v1", "single")
    env = ExecutionEnv(noisy, spec, fb, "v1")
    states = env.reset([0, 5, 9], inventory=[52, 3, 0])
    assert TwapPolicy(spec)(states).tolist() == [6, 3, 0]
    params = PolicyParams.init(np.random.default_rng(0), *policy_dims(spec, fb))
    for policy in (GreedyPolicy(params), SampledPolicy(params, 1), RandomPolicy(2)):
        actions = policy(states)
        assert actions.shape == (3,)
        assert np.all((actions >= 0) & (actions <= states.inventory))


# -- heatmap ---------------------------------------------------------------------


class AlwaysDump:
    def __call__(self, states):
        return states.inventory


class NeverSell:
    def __call__(self, states):
        return np.zeros_like(states.inventory)


def test_heatmap_aggressiveness_bounds(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    fb = feature_bundle(noisy, "v1", "cross")
    grid_dump = action_heatmap(
        AlwaysDump(), noisy, spec, fb, "v1", "cross_depth_imbalance", n_episodes=20, seed=3
    )
    for bucket in ("increase", "unchanged", "decrease"):
        mean = grid_dump.mean(bucket)
        filled = mean[np.isfinite(mean)]
        assert np.all(filled == 1.0)
    grid_hold = action_heatmap(
        NeverSell(), noisy, spec, fb, "v1", "cross_depth_imbalance", n_episodes=20, seed=3
    )
    for bucket in ("increase", "unchanged", "decrease"):
        mean = grid_hold.mean(bucket)
        filled = mean[np.isfinite(mean)]
        assert np.all(filled == 0.0)


def test_heatmap_csv_format(noisy):
    spec = ProblemSpec(horizon_s=20.0)
    fb = feature_bundle(noisy, "v1", "cross")
    grid = action_heatmap(
        AlwaysDump(), noisy, spec, fb, "v1", "cross_depth_imbalance", n_episodes=5, seed=3
    )
    lines = grid.csv_lines()
    assert lines[0] == "time_bucket,volume_bucket,signal_bucket,aggressiveness"
    assert len(lines) == 1 + 3 * 10 * 10
    # empty cells serialize as a trailing empty field
    assert any(line.endswith(",") for line in lines[1:])
