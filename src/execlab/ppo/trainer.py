"""Rollout collection against the execution environment and the training loop.

A rollout runs a batch of episodes in lockstep: one batched forward pass and
one batched env.step per decision level; episodes that finish early drop out
of the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from numpy.random import default_rng

from ..capture.resample import FrameSet
from ..env import ExecutionEnv, ProblemSpec, policy_dims
from .agent import (
    LossStats,
    PolicyParams,
    PpoConfig,
    RolloutBuffer,
    action_mask,
    policy_forward,
    sample_actions,
    update,
)

# Share of each rollout's episodes that start at a random (inventory, steps_left).
EXPLORE_STARTS = 0.2


@dataclass
class TrainLog:
    rows: list[dict] = field(default_factory=list)

    COLUMNS = ("update", "episodes", "mean_episode_reward_bps", *(f.name for f in fields(LossStats)))

    def append(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def csv_lines(self) -> list[str]:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(format(row[c], ".8g") if isinstance(row[c], float) else str(row[c]) for c in self.COLUMNS))
        return lines


def collect_rollout(
    env: ExecutionEnv,
    starts: np.ndarray,
    params: PolicyParams,
    rng: np.random.Generator,
    inventories: np.ndarray | None = None,
    steps_left: np.ndarray | None = None,
) -> tuple[RolloutBuffer, np.ndarray]:
    """Run one episode per start in lockstep; returns (buffer, per-episode rewards).

    Episodes may start mid-horizon (exploring starts); finished episodes drop
    out of the forward pass.  The buffer holds each episode's steps in order,
    episode after episode.
    """
    states = env.reset(starts, inventory=inventories, steps_left=steps_left)
    episode_reward = np.zeros(len(states.rows))
    steps = []
    for _ in range(env.spec.n_decisions):
        active = np.flatnonzero(states.steps_left > 0)
        if not len(active):
            break
        vecs = states.vectors[active]
        masks = action_mask(states.inventory[active], params.n_actions)
        probs, values, _, _ = policy_forward(params, vecs, masks)
        actions = sample_actions(probs, rng)
        all_actions = np.zeros(len(states.rows), dtype=np.int64)
        all_actions[active] = actions
        rewards, _, dones = env.step(all_actions)
        episode_reward += rewards
        logp = np.log(probs[np.arange(len(active)), actions])
        steps.append((active, vecs, actions, masks, logp, rewards[active], values, dones[active]))
        states = env.states
    episode, *columns = (np.concatenate(column) for column in zip(*steps))
    # a stable sort keeps each episode's steps in time order
    order = np.argsort(episode, kind="stable")
    return RolloutBuffer(*(column[order] for column in columns)), episode_reward


def train_policy(
    frames: FrameSet,
    spec: ProblemSpec,
    features: dict[str, np.ndarray],
    target_venue: str,
    config: PpoConfig,
    n_updates: int,
    seed: int,
) -> tuple[PolicyParams, TrainLog]:
    """Train a policy on episodes sampled from one capture.

    A fraction EXPLORE_STARTS of each rollout's episodes begins at a random
    (inventory, steps_left) instead of the full problem, so late-horizon
    states with inventory remaining stay represented in every rollout; the
    sell-by-the-deadline behavior would otherwise decay once the policy stops
    visiting them.  Evaluation always runs full episodes.
    """
    rng = default_rng(seed)
    params = PolicyParams.init(rng, *policy_dims(spec, features))

    episodes_per_rollout = max(1, config.rollout_steps // spec.n_decisions)
    env = ExecutionEnv(frames, spec, features, target_venue)
    log = TrainLog()
    full_rewards_slice = slice(0, None)
    for upd in range(n_updates):
        starts = env.sample_starts(episodes_per_rollout, rng)
        inventories = np.full(episodes_per_rollout, spec.total_units)
        steps = np.full(episodes_per_rollout, spec.n_decisions)
        n_explore = int(round(EXPLORE_STARTS * episodes_per_rollout))
        if n_explore:
            # The tail indices explore; the head stays full episodes so the
            # logged mean episode reward remains comparable across updates.
            # Explored inventories sit near the natural q ~ V * m/H manifold:
            # that is where stranding failures actually happen, and staying
            # near it keeps the explored episodes' penalty advantages from
            # swamping minibatch normalization.
            m_exp = rng.integers(1, spec.n_decisions + 1, n_explore)
            frac = m_exp / spec.n_decisions * rng.uniform(0.3, 2.5, n_explore)
            q_exp = np.clip(np.round(spec.total_units * frac), 1, spec.total_units)
            inventories[-n_explore:] = q_exp.astype(int)
            steps[-n_explore:] = m_exp
            full_rewards_slice = slice(0, episodes_per_rollout - n_explore)
        buffer, episode_rewards = collect_rollout(
            env, starts, params, rng, inventories=inventories, steps_left=steps
        )
        buffer.finalize(config)
        stats = update(params, buffer, config, rng)
        log.append(
            update=upd,
            episodes=episodes_per_rollout,
            mean_episode_reward_bps=float(episode_rewards[full_rewards_slice].mean() * 1e4),
            **stats,
        )
    return params, log
