"""The batched engine against a scalar reference environment.

`ScalarEnv` is the one-episode environment the batched `ExecutionEnv`
replaced, kept here as the reference: Python scalars, one `step` per
episode, book-walk fills through `lob.fill_market_sell`.  Every reward, cash
delta, next inventory and state vector of the engine must equal it bit for
bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from execlab.env import FILL_BOOK_WALK, FILL_MODELS, FILL_QUOTE, ExecutionEnv, ProblemSpec
from execlab.lob import BookView, fill_market_sell
from execlab.signals import feature_bundle
from execlab.synth import SynthConfig, generate_frames

FRAMES = generate_frames(SynthConfig(seed=5), 60.0)
FEATURES = feature_bundle(FRAMES, "v1", "cross", window_ms=5_000)


class ScalarEnv:
    """One episode at a time, as the environment computed it before batching."""

    def __init__(self, frames, spec, features, target_venue):
        self.spec = spec
        names = tuple(features)
        self.matrix = (
            np.column_stack([features[k] for k in names]) if names else np.zeros((frames.n_frames, 0))
        )
        self.vf = frames.venues[target_venue]
        self.step_rows = spec.decision_steps()

    def reset(self, row, inventory, steps_left):
        self.row, self.inventory, self.steps_left = row, inventory, steps_left
        self.start_price = float(self.vf.best_bid[row])

    def vector(self):
        raw = self.matrix[self.row]
        signals = np.where(np.isfinite(raw), raw, 0.0)
        return np.concatenate(
            [signals, [self.inventory / self.spec.total_units, self.steps_left / self.spec.n_decisions]]
        )

    def book_view(self, row):
        vf = self.vf
        bids = tuple(
            (float(p), float(q)) for p, q in zip(vf.bid_price[row], vf.bid_qty[row]) if np.isfinite(p) and q > 0
        )
        asks = tuple(
            (float(p), float(q)) for p, q in zip(vf.ask_price[row], vf.ask_qty[row]) if np.isfinite(p) and q > 0
        )
        return BookView(bids, asks)

    def fill(self, row, action, price):
        spec = self.spec
        if action == 0:
            return 0.0, 0.0
        if spec.fill_model == FILL_QUOTE:
            fill_px = price
        elif spec.fill_model == FILL_BOOK_WALK:
            result = fill_market_sell(self.book_view(row), float(action))
            leftover = float(action) - result.filled_qty
            if leftover > 0:
                worst = self.book_view(row).bids[-1][0]
                notional = result.avg_price * result.filled_qty + worst * leftover
            else:
                notional = result.avg_price * result.filled_qty
            fill_px = notional / float(action)
        else:
            fill_px = price - spec.linear_impact_k * float(action)
        return action * fill_px * (1.0 - spec.fee_rate), fill_px

    def step(self, action):
        spec = self.spec
        row, next_row = self.row, self.row + self.step_rows
        price = float(self.vf.best_bid[row])
        next_price = float(self.vf.best_bid[next_row])
        q_next = self.inventory - action
        proceeds, fill_px = self.fill(row, action, price)
        cost = 0.0
        if spec.impact_enabled:
            v = spec.total_units
            cost = spec.impact_coef * max(0.0, action / v - 0.1) * v * self.start_price
        denom = spec.total_units * self.start_price
        reward = (q_next * (next_price - price) - (action * price - proceeds) - cost) / denom
        cash_delta = proceeds - cost
        self.steps_left -= 1
        if self.steps_left == 0:
            penalty = spec.penalty_coef * q_next * q_next * next_price
            reward -= penalty / denom
            cash_delta += q_next * next_price - penalty
        self.row, self.inventory = next_row, q_next
        return reward, cash_delta, fill_px


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    fill_model=st.sampled_from(FILL_MODELS),
    impact=st.booleans(),
    total_units=st.sampled_from([7, 50, 120]),
    n_decisions=st.sampled_from([1, 4, 10]),
    batch=st.integers(1, 32),
    partial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_matches_scalar_reference(fill_model, impact, total_units, n_decisions, batch, partial, seed):
    spec = ProblemSpec(
        total_units=total_units,
        horizon_s=20.0,
        n_decisions=n_decisions,
        fill_model=fill_model,
        impact_enabled=impact,
        linear_impact_k=0.001,
    )
    rng = np.random.default_rng(seed)
    env = ExecutionEnv(FRAMES, spec, FEATURES, "v1")
    starts = env.sample_starts(batch, rng)
    inventory = rng.integers(0, total_units + 1, batch) if partial else np.full(batch, total_units)
    steps_left = rng.integers(1, n_decisions + 1, batch) if partial else np.full(batch, n_decisions)
    refs = [ScalarEnv(FRAMES, spec, FEATURES, "v1") for _ in range(batch)]
    for ref, s, q, m in zip(refs, starts, inventory, steps_left):
        ref.reset(int(s), int(q), int(m))

    states = env.reset(starts, inventory=inventory, steps_left=steps_left)
    for _ in range(n_decisions):
        live = [i for i in range(batch) if refs[i].steps_left > 0]
        if not live:
            break
        assert bits(states.vectors[live]) == bits([refs[i].vector() for i in live])
        # mostly small trades, with whole-inventory dumps that exhaust visible depth
        frac = np.where(rng.random(batch) < 0.2, 1.0, rng.random(batch) * 0.5)
        actions = np.where(states.steps_left > 0, np.floor(frac * states.inventory), 0).astype(int)
        rewards, cash, done = env.step(actions)
        expected = [refs[i].step(int(actions[i])) for i in live]
        assert bits(rewards[live]) == bits([e[0] for e in expected])
        assert bits(cash[live]) == bits([e[1] for e in expected])
        _, fill_px = env.fill(states.rows[live], actions[live])
        assert bits(fill_px[actions[live] > 0]) == bits([e[2] for e, a in zip(expected, actions[live]) if a > 0])
        states = env.states
        assert states.inventory.tolist() == [ref.inventory for ref in refs]
        assert done.tolist() == [ref.steps_left == 0 for ref in refs]
    assert (states.steps_left == 0).all()
