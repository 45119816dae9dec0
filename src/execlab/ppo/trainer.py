"""Rollout collection against the execution environment and the training loop.

A rollout runs a batch of episodes in lockstep: one batched forward pass and
one batched env.step per decision level; episodes that finish early drop out
of the forward pass.

Training runs with one OpenBLAS thread (`one_blas_thread`) and, where it
can, forks a helper process that takes the critic's minibatch steps while
this one takes the actor's (`_CriticHelper`); the two networks share no
parameter, so the result has the same bits as without a helper.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

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


# (get, set) names of the thread count in the builds of OpenBLAS numpy ships with.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when no loaded library has both."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            getter, setter = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """The console script's BLAS rule for the length of the block: one
    OpenBLAS thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.
    The caller's count is restored on exit; without a setter nothing
    changes.  Yields whether one thread is in force."""
    control = openblas_threads()
    if control is None:
        yield False
        return
    get, set_threads = control
    before = get()
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        set_threads(1)
    try:
        yield get() == 1
    finally:
        if get() != before:
            set_threads(before)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _CriticHelper:
    """A forked process that takes the critic's minibatch steps of every
    update of one train_policy call (see agent.update) on the copy of the
    critic and its Adam state it gets at the fork.  Requests and replies are
    pickled over two pipes.  Leaving the `with` block reaps the helper,
    killed first when the block raises."""

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
            # os._exit: the helper never returns into the caller's code and
            # runs none of its atexit handlers.
            status = 1
            try:
                os.close(request_w)
                os.close(reply_r)
                _serve_critic(params, config, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self._requests = os.fdopen(request_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    def send(self, states: np.ndarray, value_targets: np.ndarray, orders: list[np.ndarray]) -> None:
        pickle.dump((states, value_targets, orders), self._requests, protocol=pickle.HIGHEST_PROTOCOL)
        self._requests.flush()

    def receive(self):
        try:
            reply = pickle.load(self._replies)
        except EOFError:
            raise ChildProcessError("the critic's helper process ended without a reply") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

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
            reply = _picklable(exc)
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


def _picklable(exc: Exception) -> Exception:
    """`exc`, or a RuntimeError naming it where it does not survive a pickle
    round trip (a custom __init__ signature, an attribute pickle refuses)."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


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
