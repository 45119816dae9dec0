import numpy as np
import pytest
from scipy import stats as scipy_stats

from execlab.env import (
    ExecutionEnv,
    ProblemSpec,
    impact_cost,
    run_episode,
    run_episodes,
    settle_terminal,
)
from execlab.errors import CaptureTooShort, OversellError
from execlab.evalkit import implementation_shortfall
from execlab.signals import feature_bundle
from execlab.synth import SynthConfig, generate_frames
from markets import flat_market_frames
from reference import RandomPolicy


@pytest.fixture(scope="module")
def flat():
    return flat_market_frames(100.0, 51.0)


@pytest.fixture(scope="module")
def noisy():
    return generate_frames(SynthConfig(seed=5), 120.0)


def make_env(frames, spec=None, features=None, venue="v0"):
    return ExecutionEnv(frames, spec or ProblemSpec(), features or {}, venue)


def uniform_start_pvalue(starts, n_admissible, buckets=10):
    """Chi-square p-value that sampled starts are uniform over the admissible range."""
    edges = np.linspace(0, n_admissible, buckets + 1)
    counts, _ = np.histogram(starts, bins=edges)
    return float(scipy_stats.chisquare(counts).pvalue)


# -- spec and helpers ---------------------------------------------------------


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(total_units=0)
    with pytest.raises(ValueError):
        ProblemSpec(fee_rate=-0.1)
    with pytest.raises(ValueError):
        ProblemSpec(fill_model="auction")
    assert ProblemSpec().decision_steps() == 500


def test_impact_cost_examples():
    spec = ProblemSpec(total_units=50, impact_coef=1e-5)
    # a tenth of the target per decision is free
    assert impact_cost(5.0, spec, 20000.0) == 0.0
    assert impact_cost(0.0, spec, 20000.0) == 0.0
    assert impact_cost(10.0, spec, 20000.0) == pytest.approx(1e-5 * 0.1 * 50 * 20000.0)
    assert impact_cost(10.0, spec, 20000.0) == pytest.approx(1.0)


def test_settle_terminal_examples():
    spec = ProblemSpec(penalty_coef=0.02)
    cash0, pen0 = settle_terminal(0.0, 100.0, spec)
    assert cash0 == 0.0 and pen0 == 0.0
    cash, pen = settle_terminal(5.0, 100.0, spec)
    assert pen == pytest.approx(50.0)
    assert cash == pytest.approx(500.0)
    assert settle_terminal(7.0, 3.0, spec)[1] >= 0.0


# -- reward math --------------------------------------------------------------


def test_reward_zero_action_flat_price(flat):
    env = make_env(flat)
    env.reset([0])
    rewards, _, _ = env.step([0])
    assert rewards[0] == pytest.approx(0.0, abs=1e-15)


def test_reward_hand_example_partial_sale(flat):
    # q 50 -> 45 at flat price: reward = -fee * 5 / 50 = -3e-5
    env = make_env(flat)
    env.reset([0])
    rewards, _, _ = env.step([5])
    assert rewards[0] == pytest.approx(-3e-5, rel=1e-9)
    assert env.states.inventory[0] == 45


def test_reward_hand_example_sell_everything(flat):
    env = make_env(flat)
    env.reset([0])
    rewards, _, _ = env.step([50])
    assert rewards[0] == pytest.approx(-3e-4, rel=1e-9)
    assert env.states.inventory[0] == 0


def test_oversell_guarded(flat):
    env = make_env(flat)
    env.reset([0])
    env.step([30])
    with pytest.raises(OversellError):
        env.step([21])


def test_terminal_penalty_in_reward_and_cash(flat):
    spec = ProblemSpec()
    env = make_env(flat, spec)
    state = env.reset([0])
    for _ in range(spec.n_decisions - 1):
        env.step([0])
        state = env.states
    rewards, cash_delta, done = env.step([0])  # hold everything to the end
    assert done[0]
    # liquidation of 50 at the flat bid minus penalty 0.02 * 2500 * bid; the
    # flat price leaves the penalty as the whole reward
    bid = float(flat.venues["v0"].best_bid[state.rows[0]])
    penalty = -rewards[0] * spec.total_units * float(flat.venues["v0"].best_bid[0])
    assert penalty == pytest.approx(0.02 * 2500 * bid)
    assert cash_delta[0] == pytest.approx(50 * bid - 0.02 * 2500 * bid)


def test_inventory_conservation(noisy):
    fb = feature_bundle(noisy, "v1", "cross")
    env = make_env(noisy, ProblemSpec(), fb, "v1")
    policy = RandomPolicy(seed=3)
    rng = np.random.default_rng(0)
    for trace in run_episodes(env, policy, env.sample_starts(50, rng)):
        q_end = trace.inventory[-1] - trace.actions[-1]
        assert sum(trace.actions) + q_end == ProblemSpec().total_units


def test_rewards_sum_to_shortfall_all_fill_models(noisy):
    fb = feature_bundle(noisy, "v1", "cross")
    for fill, impact in (("quote", False), ("walk", False), ("linear", True), ("quote", True)):
        spec = ProblemSpec(fill_model=fill, impact_enabled=impact, linear_impact_k=0.001)
        env = make_env(noisy, spec, fb, "v1")
        policy = RandomPolicy(seed=11)
        rng = np.random.default_rng(1)
        for trace in run_episodes(env, policy, env.sample_starts(100, rng)):
            p0 = float(noisy.venues["v1"].best_bid[trace.start_row])
            shortfall = implementation_shortfall(trace.total_cash, spec.total_units, p0)
            assert trace.total_reward == pytest.approx(shortfall, rel=1e-9, abs=1e-15)


def test_episode_determinism(noisy):
    fb = feature_bundle(noisy, "v1", "cross")
    env = make_env(noisy, ProblemSpec(), fb, "v1")
    t1 = run_episode(env, RandomPolicy(seed=5), 100)
    t2 = run_episode(env, RandomPolicy(seed=5), 100)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.rewards, t2.rewards)
    assert np.array_equal(t1.cash, t2.cash)


# -- episode sampling ---------------------------------------------------------


def test_capture_exactly_one_episode_long(flat):
    spec = ProblemSpec()
    span = spec.decision_steps() * spec.n_decisions
    short = flat_market_frames(100.0, (span + 1) / 100.0)
    env = make_env(short, spec)
    starts = env.admissible_starts()
    assert starts.tolist() == [0]


def test_capture_too_short(flat):
    tiny = flat_market_frames(100.0, 10.0)
    with pytest.raises(CaptureTooShort):
        make_env(tiny).admissible_starts()


def test_sampled_starts_deterministic(flat):
    env = make_env(flat)
    a = env.sample_starts(20, np.random.default_rng(9)).tolist()
    b = env.sample_starts(20, np.random.default_rng(9)).tolist()
    assert a == b


def test_sampled_starts_uniform(noisy):
    env = make_env(noisy, ProblemSpec(horizon_s=10.0), venue="v0")
    starts = env.sample_starts(1000, np.random.default_rng(3))
    n_admissible = len(env.admissible_starts())
    assert uniform_start_pvalue(starts, n_admissible) > 0.001


# -- state construction -------------------------------------------------------


def test_state_fractions_at_boundaries(flat):
    env = make_env(flat)
    vec = env.reset([0]).vectors[0]
    assert vec[-2] == 1.0  # q / V
    assert vec[-1] == 1.0  # m / H
    env.step([50])
    assert env.states.vectors[0][-2] == 0.0


def test_flat_market_signals_zero_or_missing(flat):
    fb = feature_bundle(flat, "v0", "cross")
    env = make_env(flat, features=fb)
    state = env.reset([0])
    # the spread needs a peer venue: missing, and substituted with 0
    assert np.isnan(fb["peer_spread_centered_bps"][0])
    assert np.all(state.signals == 0.0)


def test_book_walk_fill_worse_than_quote(noisy):
    fb = feature_bundle(noisy, "v1", "single")
    env_q = make_env(noisy, ProblemSpec(fill_model="quote"), fb, "v1")
    env_w = make_env(noisy, ProblemSpec(fill_model="walk"), fb, "v1")
    _, px_q = env_q.fill(np.array([0]), np.array([40]))
    _, px_w = env_w.fill(np.array([0]), np.array([40]))
    assert px_w[0] <= px_q[0]


def test_linear_impact_moves_fill_price(noisy):
    fb = feature_bundle(noisy, "v1", "single")
    spec = ProblemSpec(fill_model="linear", linear_impact_k=0.01)
    env = make_env(noisy, spec, fb, "v1")
    state = env.reset([0])
    _, fill_px = env.fill(state.rows, np.array([10]))
    price = float(noisy.venues["v1"].best_bid[state.rows[0]])
    assert fill_px[0] == pytest.approx(price - 0.01 * 10)


# -- batches ----------------------------------------------------------------------


def test_reset_checks_ranges(flat):
    env = make_env(flat)
    with pytest.raises(ValueError):
        env.reset([0, 1], inventory=[50, 51])
    with pytest.raises(ValueError):
        env.reset([0, 1], steps_left=[0, 10])
    with pytest.raises(ValueError):
        env.reset([0], steps_left=11)


def test_finished_episodes_hold_until_the_batch_ends(flat):
    env = make_env(flat)
    env.reset([0, 0], inventory=[50, 10], steps_left=[10, 1])
    rewards, cash, done = env.step([5, 0])
    assert done.tolist() == [False, True]
    with pytest.raises(OversellError):
        env.step([5, 1])  # a finished episode may only hold
    for _ in range(9):
        rewards, cash, done = env.step([5, 0])
        assert rewards[1] == 0.0 and cash[1] == 0.0
    assert done.all()
    with pytest.raises(RuntimeError):
        env.step([0, 0])


def test_step_before_reset_raises(flat):
    with pytest.raises(RuntimeError):
        make_env(flat).step([0])
