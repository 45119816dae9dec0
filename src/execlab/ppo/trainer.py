"""Rollout collection against the execution environment and the training loop.

A rollout runs a batch of episodes in lockstep: one batched forward pass and
one batched env.step per decision level; episodes that finish early drop out
of the forward pass.

Training runs under the BLAS rule (`blas.one_blas_thread`) and, where one
thread is in force, forks a helper process that takes the critic's minibatch
steps while this one takes the actor's (`_CriticHelper`); the two networks
share no parameter, so the result has the same bits as without a helper.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.random import default_rng

from ..blas import one_blas_thread
from ..capture.resample import FrameSet
from ..env import ExecutionEnv, ProblemSpec, policy_dims
from ..errors import CriticHelperError
from .agent import (
    LossStats,
    PolicyParams,
    PpoConfig,
    RolloutBuffer,
    action_mask,
    critic_steps,
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
    inventories: np.ndarray,
    steps_left: np.ndarray,
) -> tuple[RolloutBuffer, np.ndarray]:
    """Run one episode per start in lockstep, from the given inventories and
    decisions left; returns (buffer, per-episode rewards).

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


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _CriticHelper:
    """A forked process that takes the critic's minibatch steps of every
    update of one train_policy call (see agent.update) on the copy of the
    critic and its Adam state it gets at the fork.  Requests and replies are
    pickled over two pipes; a helper lost on the way is a CriticHelperError.
    Leaving the `with` block reaps the helper, killed first when it raises."""

    def __init__(self, params: PolicyParams, config: PpoConfig):
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        request_r, request_w, reply_r, reply_w = fds
        if self.pid == 0:
            # os._exit: no return into the caller's code, and none of its atexit handlers
            try:
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve_critic(params, config, requests, replies)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(request_r)
        os.close(reply_w)
        self._params = params
        self._requests = os.fdopen(request_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    def send(self, states: np.ndarray, value_targets: np.ndarray, orders: list[np.ndarray]) -> None:
        try:
            pickle.dump((states, value_targets, orders), self._requests, protocol=pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except OSError as exc:  # a helper that has ended leaves the pipe broken
            raise CriticHelperError(f"cannot send a request to the critic's helper process ({type(exc).__name__}: {exc})") from exc

    def receive(self) -> list[tuple[float, bool]]:
        """`critic_steps`' result, once the helper's critic and Adam state are written into the params."""
        try:
            reply = pickle.load(self._replies)
        except Exception as exc:  # no reply, part of one, or an exception whose class does not rebuild
            raise CriticHelperError(f"cannot read a reply from the critic's helper process ({type(exc).__name__}: {exc})") from exc
        if isinstance(reply, Exception):
            raise reply
        critic, opt = self._params.critic, self._params.critic_opt
        critic.flat[...], opt.m[...], opt.v[...], opt.t, steps = reply
        return steps

    def __enter__(self) -> "_CriticHelper":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            os.kill(self.pid, signal.SIGKILL)
        for pipe in (self._requests, self._replies):
            with contextlib.suppress(OSError):  # a pipe the helper's end left broken
                pipe.close()
        os.waitpid(self.pid, 0)  # at the end of its requests the helper exits


def _serve_critic(params: PolicyParams, config: PpoConfig, requests, replies) -> None:
    while True:
        try:
            states, value_targets, orders = pickle.load(requests)
        except EOFError:
            return
        try:
            steps = critic_steps(params.critic, params.critic_opt, states, value_targets, orders, config)
            reply = (params.critic.flat, params.critic_opt.m, params.critic_opt.v, params.critic_opt.t, steps)
        except Exception as exc:  # raised in the caller
            reply = exc
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


def _critic_helper(params: PolicyParams, config: PpoConfig, single_thread: bool):
    """A _CriticHelper where one BLAS thread is in force, os.fork exists, two
    CPUs are usable and no other Python thread runs (a fork copies only the
    calling thread, and a lock another one holds would stay held in the
    helper); else, or where no pipe or process can be had (EMFILE, EAGAIN,
    ENOMEM), a context that yields None."""
    if single_thread and hasattr(os, "fork") and _usable_cpus() >= 2 and threading.active_count() == 1:
        with contextlib.suppress(OSError):
            return _CriticHelper(params, config)
    return contextlib.nullcontext()


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

    Runs under `one_blas_thread`, with the critic's steps in a helper
    process where one can run; neither changes the result.
    """
    rng = default_rng(seed)
    params = PolicyParams.init(rng, *policy_dims(spec, features))
    episodes_per_rollout = max(1, config.rollout_steps // spec.n_decisions)
    log = TrainLog()
    # The tail episodes explore; the head stays full episodes so the logged
    # mean episode reward remains comparable across updates.
    n_explore = int(round(EXPLORE_STARTS * episodes_per_rollout))
    full_episodes = slice(0, episodes_per_rollout - n_explore)
    with one_blas_thread() as single_thread, _critic_helper(params, config, single_thread) as helper:
        env = ExecutionEnv(frames, spec, features, target_venue)
        for upd in range(n_updates):
            starts = env.sample_starts(episodes_per_rollout, rng)
            inventories = np.full(episodes_per_rollout, spec.total_units)
            steps = np.full(episodes_per_rollout, spec.n_decisions)
            if n_explore:
                # Explored inventories sit near the natural q ~ V * m/H manifold:
                # that is where stranding failures actually happen, and staying
                # near it keeps the explored episodes' penalty advantages from
                # swamping minibatch normalization.
                m_exp = rng.integers(1, spec.n_decisions + 1, n_explore)
                frac = m_exp / spec.n_decisions * rng.uniform(0.3, 2.5, n_explore)
                q_exp = np.clip(np.round(spec.total_units * frac), 1, spec.total_units)
                inventories[-n_explore:] = q_exp.astype(int)
                steps[-n_explore:] = m_exp
            buffer, episode_rewards = collect_rollout(env, starts, params, rng, inventories, steps)
            buffer.finalize(config)
            stats = update(params, buffer, config, rng, critic_helper=helper)
            log.append(
                update=upd,
                episodes=episodes_per_rollout,
                mean_episode_reward_bps=float(episode_rewards[full_episodes].mean() * 1e4),
                **stats,
            )
    return params, log
