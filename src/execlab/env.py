"""The discrete optimal-execution MDP over resampled frames.

An episode sells `total_units` over `horizon_s` seconds in `n_decisions`
equally spaced decisions on one target venue.  The environment's reference
price series S_t is the target venue's best bid at decision times: the
quote-fill price, the reward, and the cash/shortfall accounting all share
that basis, which is what makes the summed per-step rewards equal the
episode's implementation shortfall exactly.

Per-step reward (relative P&L):

    R_t = [ q_next * (S_next - S_t) - (a * S_t - net proceeds) - C ] / (V * S_0)

where net proceeds come from the configured fill model and C is the
optional impact cost.  Under quote fill this reduces to the plain
fee-times-turnover form.  At the terminal step the remaining inventory is
liquidated at S_T and the quadratic ending penalty is charged to both the
reward and the cash.

`ExecutionEnv` runs a batch of episodes in lockstep on arrays; every fill
model is evaluated for the whole batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capture.resample import BID_PRICE, BID_QTY, FrameSet
from .config import FILL_BOOK_WALK, FILL_QUOTE, ProblemSpec
from .errors import CaptureTooShort, OversellError
from .lob import fill_market_sell  # noqa: F401  perfbench/tracing.py patches this name; no caller here


def impact_cost(action, spec: ProblemSpec, start_price):
    """Extra cost of trading faster than a tenth of the target per decision."""
    if np.any(np.asarray(action) < 0):
        raise ValueError("action must be >= 0")
    v = spec.total_units
    return spec.impact_coef * np.maximum(0.0, action / v - 0.1) * v * start_price


def settle_terminal(inventory, terminal_price, spec: ProblemSpec):
    """(liquidation cash, ending penalty) for inventory left at the horizon."""
    penalty = spec.penalty_coef * inventory * inventory * terminal_price
    return inventory * terminal_price, penalty


@dataclass(frozen=True)
class States:
    """A batch of execution states, one row per episode."""

    inventory: np.ndarray  # units left to sell
    steps_left: np.ndarray  # decisions left; 0 once the episode is done
    n_decisions: int
    rows: np.ndarray  # frame row of each state
    signals: np.ndarray  # (episodes, features), missing values replaced by 0
    vectors: np.ndarray  # policy inputs: signals, inventory / V, steps_left / H


def policy_dims(spec: ProblemSpec, features: dict[str, np.ndarray]) -> tuple[int, int]:
    """(input width, action count) of a policy over `features`: a state vector
    is the features, inventory / V and steps_left / H, and an action sells
    0..V units."""
    return len(features) + 2, spec.total_units + 1


class ExecutionEnv:
    """A batch of episodes over one FrameSet, stepped in lockstep.

    Built once per (frames, spec, features, target venue); `reset` starts one
    episode per start row and `step` advances every episode by one decision.
    Episodes that start with fewer decisions left finish earlier: a finished
    episode keeps its last state, only action 0 is legal for it, and its
    reward and cash delta are 0.
    """

    def __init__(
        self,
        frames: FrameSet,
        spec: ProblemSpec,
        features: dict[str, np.ndarray],
        target_venue: str,
    ):
        self.frames = frames
        self.spec = spec
        self.target_venue = target_venue
        self.feature_names = tuple(features)
        signals = (
            np.column_stack([features[k] for k in self.feature_names])
            if features
            else np.zeros((frames.n_frames, 0))
        )
        # column_stack made a fresh array: its missing values are zeroed in place
        missing = np.isfinite(signals)
        np.logical_not(missing, out=missing)
        np.copyto(signals, 0.0, where=missing)
        self._signals = signals
        self._venue = frames.venues[target_venue]
        self._ref_price = self._venue.best_bid
        self._step_rows = spec.decision_steps()
        self._span = self._step_rows * spec.n_decisions
        self.rows = self.inventory = self.steps_left = self.start_price = None
        self._starts: np.ndarray | None = None

    # -- episode admission ---------------------------------------------------

    def admissible_starts(self) -> np.ndarray:
        """Start rows with the target venue present at every decision row;
        computed on first use and kept, since they depend only on the build."""
        if self._starts is not None:
            return self._starts
        n = self.frames.n_frames
        n_starts = n - self._span
        if n_starts < 1:
            raise CaptureTooShort(
                f"need {self._span + 1} frames for one episode, have {n}"
            )
        # start i is admissible when present[i + k * step_rows] for every
        # decision row k: one AND per k over a shifted slice
        present = self._venue.present
        ok = present[:n_starts].astype(bool)
        for lo in range(self._step_rows, self._span + 1, self._step_rows):
            np.logical_and(ok, present[lo : lo + n_starts], out=ok)
        starts = np.flatnonzero(ok)
        if len(starts) == 0:
            raise CaptureTooShort(
                f"no start with the target venue {self.target_venue} present at all "
                f"{self.spec.n_decisions + 1} decision rows "
                f"(present in {np.count_nonzero(present)} of {n} frames)"
            )
        self._starts = starts
        return starts

    def sample_starts(self, n: int, rng: np.random.Generator) -> np.ndarray:
        starts = self.admissible_starts()
        return starts[rng.integers(0, len(starts), size=n)]

    # -- episode API -----------------------------------------------------------

    def reset(self, start_rows, inventory=None, steps_left=None) -> States:
        """Start one episode per start row; evaluation always uses the full (V, H) start.

        Training may pass a partial (inventory, steps_left) start so that
        late-episode states stay covered by rollouts (exploring starts); the
        reward denominator still references the start row's price.
        """
        spec = self.spec
        rows = np.atleast_1d(np.asarray(start_rows, dtype=np.int64))
        inventory = np.broadcast_to(
            spec.total_units if inventory is None else inventory, rows.shape
        ).astype(np.int64)
        steps_left = np.broadcast_to(
            spec.n_decisions if steps_left is None else steps_left, rows.shape
        ).astype(np.int64)
        if ((inventory < 0) | (inventory > spec.total_units)).any():
            raise ValueError("inventory outside [0, total_units]")
        if ((steps_left < 1) | (steps_left > spec.n_decisions)).any():
            raise ValueError("steps_left outside [1, n_decisions]")
        self.rows, self.inventory, self.steps_left = rows, inventory, steps_left
        self.start_price = self._ref_price[rows]
        return self.states

    @property
    def states(self) -> States:
        spec = self.spec
        signals = self._signals[self.rows]
        vectors = np.column_stack(
            [signals, self.inventory / spec.total_units, self.steps_left / spec.n_decisions]
        )
        return States(
            inventory=self.inventory,
            steps_left=self.steps_left,
            n_decisions=spec.n_decisions,
            rows=self.rows,
            signals=signals,
            vectors=vectors,
        )

    def fill(self, rows: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(net proceeds, average fill price before fee) of selling `actions`
        units at `rows`; both are 0 where nothing is sold."""
        spec = self.spec
        price = self._ref_price[rows]
        if spec.fill_model == FILL_QUOTE:
            fill_px = price
        elif spec.fill_model == FILL_BOOK_WALK:
            fill_px = self._walk_bids(rows, actions)
        else:  # linear impact in execution speed
            fill_px = price - spec.linear_impact_k * actions
        sold = actions > 0
        proceeds = np.where(sold, actions * fill_px * (1.0 - spec.fee_rate), 0.0)
        return proceeds, np.where(sold, fill_px, 0.0)

    def _walk_bids(self, rows: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Average price of market sells that walk the visible bids best first,
        accumulating as `lob.fill_market_sell` does.  Once visible depth is
        exhausted the remainder clears at the worst visible bid, so inventory
        accounting stays exact."""
        book, at = self._venue.book, self._venue.book_at[rows]
        bid_px = book[at, BID_PRICE]
        bid_qty = book[at, BID_QTY]
        visible = np.isfinite(bid_px) & (bid_qty > 0)
        px = np.where(visible, bid_px, 0.0)
        qty = np.where(visible, bid_qty, 0.0)
        remaining = actions.astype(float)
        notional = np.zeros(len(rows))
        filled = np.zeros(len(rows))
        for level in range(px.shape[1]):
            take = np.minimum(remaining, qty[:, level])
            notional += take * px[:, level]
            filled += take
            remaining -= take
        worst = px[np.arange(len(rows)), px.shape[1] - 1 - np.argmax(visible[:, ::-1], axis=1)]
        leftover = actions - filled
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(filled > 0, notional / filled, 0.0)
            notional = np.where(leftover > 0, avg * filled + worst * leftover, avg * filled)
            return notional / actions

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every episode by one decision: (rewards, cash deltas, done flags)."""
        if self.steps_left is None or not self.steps_left.any():
            raise RuntimeError("episode not active; call reset()")
        spec = self.spec
        actions = np.asarray(actions, dtype=np.int64).reshape(self.rows.shape)
        live = self.steps_left > 0
        legal = np.where(live, self.inventory, 0)
        bad = (actions < 0) | (actions > legal)
        if bad.any():
            i = int(np.argmax(bad))
            raise OversellError(f"action {actions[i]} outside [0, {legal[i]}]")
        rows = self.rows
        next_rows = np.where(live, rows + self._step_rows, rows)
        price = self._ref_price[rows]
        next_price = self._ref_price[next_rows]
        q_next = self.inventory - actions

        proceeds, _ = self.fill(rows, actions)
        cost = impact_cost(actions, spec, self.start_price) if spec.impact_enabled else 0.0
        denom = spec.total_units * self.start_price
        rewards = (q_next * (next_price - price) - (actions * price - proceeds) - cost) / denom
        cash_delta = proceeds - cost

        steps_left = self.steps_left - live
        done = steps_left == 0
        terminal = live & done
        liquidation, penalty = settle_terminal(q_next, next_price, spec)
        rewards = np.where(terminal, rewards - penalty / denom, rewards)
        cash_delta = np.where(terminal, cash_delta + (liquidation - penalty), cash_delta)
        self.rows, self.inventory, self.steps_left = next_rows, q_next, steps_left
        return rewards, cash_delta, done


# ---------------------------------------------------------------------------
# Episode running
# ---------------------------------------------------------------------------

Policy = Callable[[States], np.ndarray]
"""A policy maps a batch of states to integer units to sell, one per row."""


@dataclass
class EpisodeTrace:
    """One episode's decisions: frame rows, mids, inventory before the
    decision, action, reward and cash accumulated after it."""

    start_row: int
    rows: np.ndarray
    mids: np.ndarray
    inventory: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    cash: np.ndarray

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())

    @property
    def total_cash(self) -> float:
        return float(self.cash[-1])


def run_episodes(env: ExecutionEnv, policy: Policy, start_rows) -> list[EpisodeTrace]:
    """Run one full episode from each start row, all in lockstep: one policy
    call per decision, for every episode, whatever its inventory."""
    n = env.spec.n_decisions
    states = env.reset(start_rows)
    shape = (n, len(states.rows))
    rows, inventory, actions = (np.empty(shape, dtype=np.int64) for _ in range(3))
    rewards, cash = np.empty(shape), np.empty(shape)
    running = np.zeros(shape[1])
    for t in range(n):
        rows[t], inventory[t] = states.rows, states.inventory
        actions[t] = policy(states)
        rewards[t], cash_delta, _ = env.step(actions[t])
        running = running + cash_delta
        cash[t] = running
        states = env.states
    mids = env.frames.venues[env.target_venue].mid[rows]
    return [
        EpisodeTrace(int(rows[0, i]), rows[:, i], mids[:, i], inventory[:, i], actions[:, i],
                     rewards[:, i], cash[:, i])
        for i in range(shape[1])
    ]


def run_episode(env: ExecutionEnv, policy: Policy, start_row: int) -> EpisodeTrace:
    """A batch of one."""
    return run_episodes(env, policy, [start_row])[0]
