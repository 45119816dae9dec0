"""train_policy takes the critic's minibatch steps in a forked helper process
where it can (one OpenBLAS thread in force, os.fork, two usable CPUs, no
other Python thread, a pipe and a process to be had).  The helper path must
give the bits of the serial path, training in one process, raise what it
raises, leave no process behind and hand the caller its BLAS thread count
back; where the helper cannot run, the serial path runs."""

import os
import pickle
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from execlab import blas, signals
from execlab.env import ProblemSpec
from execlab.errors import CriticHelperError, NonFiniteLossError
from execlab.ppo import PpoConfig, RolloutBuffer, agent, trainer, update
from execlab.synth import SynthConfig, generate_frames
from test_ppo import off_policy_batch, previous_update, trained_params

CONTROL = blas.openblas_threads()
needs_helper = pytest.mark.skipif(
    CONTROL is None or not hasattr(os, "fork") or trainer._usable_cpus() < 2,
    reason="the helper needs OpenBLAS, os.fork and two usable CPUs",
)

SPEC = ProblemSpec(horizon_s=2.0, n_decisions=10)
# 20 episodes a rollout, 4 of them exploring starts: rollouts of 150-200
# steps, so the last minibatch of 64 is mostly a short one.
CONFIG = PpoConfig(rollout_steps=200, minibatch_size=64, update_epochs=2)
MARKETS = {
    "three_venues": SynthConfig(seed=3),
    "two_venues": SynthConfig(seed=8, n_venues=2, lag_ms=(0, 100), basis=(0.0, 0.5), trade_intensity=5.0),
}


@pytest.fixture(scope="module", params=sorted(MARKETS))
def market(request):
    frames = generate_frames(MARKETS[request.param], 30.0)
    return frames, signals.feature_bundle(frames, "v1", "cross")


def train(market, config=CONFIG, n_updates=3):
    frames, features = market
    return trainer.train_policy(frames, SPEC, features, "v1", config, n_updates=n_updates, seed=1)


def outcome(params, rows):
    """The parameters, Adam states and logged rows, as bytes."""
    arrays = (params.actor.flat, params.critic.flat, params.actor_opt.m, params.actor_opt.v,
              params.critic_opt.m, params.critic_opt.v)
    logged = [(key, np.float64(value).tobytes()) for row in rows for key, value in row.items()]
    return [a.tobytes() for a in arrays], params.actor_opt.t, params.critic_opt.t, params.updates_done, logged


def trained(market, config=CONFIG):
    params, log = train(market, config)
    return outcome(params, log.rows)


@pytest.fixture
def rule_sets_the_count(monkeypatch):
    """No user thread count, so train_policy sets one thread itself; the
    caller runs two, which it must get back."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    get, set_threads = CONTROL
    before = get()
    set_threads(2)
    yield
    set_threads(before)


def record_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def record_updates(monkeypatch) -> list[tuple[int, bool, int]]:
    """(BLAS threads, whether a helper is given, rollout steps) per update."""
    seen = []
    real = trainer.update

    def recording(params, buffer, config, rng, **kwargs):
        seen.append((CONTROL[0](), kwargs["critic_helper"] is not None, len(buffer)))
        return real(params, buffer, config, rng, **kwargs)

    monkeypatch.setattr(trainer, "update", recording)
    return seen


def record_pipes(monkeypatch) -> tuple[list[int], list[int]]:
    """The file descriptors os.pipe opens, and those os.close closes."""
    opened, closed = [], []
    pipe, close = os.pipe, os.close

    def recording_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    def recording_close(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "close", recording_close)
    return opened, closed


def forbid_fork(monkeypatch) -> None:
    def fork():
        raise AssertionError("the serial path forks no helper")

    monkeypatch.setattr(os, "fork", fork)


def serial(market, config=CONFIG):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forbid_fork(m)
        return trained(market, config)


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unrebuildable(Exception):
    def __init__(self, code, detail):  # pickle rebuilds it from args alone, and fails
        super().__init__(f"code {code}: {detail}")


def fail_unrebuildably(*args):
    raise Unrebuildable(7, "the critic failed")


def half_a_reply(params, config, requests, replies):
    pickle.load(requests)
    reply = pickle.dumps((params.critic.flat, params.critic_opt.m, params.critic_opt.v, params.critic_opt.t, []))
    replies.write(reply[: len(reply) // 2])


CANNOT_READ = "cannot read a reply from the critic's helper process "
# Ways to lose the helper: (the trainer's name the helper runs, its
# replacement, the message of the CriticHelperError the caller raises).
HELPER_FAILURES = {
    "exit": ("critic_steps", lambda *args: os._exit(3), CANNOT_READ + r"\(EOFError: "),
    "sigkill": ("critic_steps", lambda *args: os.kill(os.getpid(), signal.SIGKILL), CANNOT_READ + r"\(EOFError: "),
    "truncated_reply": ("_serve_critic", half_a_reply, CANNOT_READ + r"\(UnpicklingError: "),
    "unrebuildable_exception": ("critic_steps", fail_unrebuildably, CANNOT_READ + r"\(TypeError: .*Unrebuildable"),
    # the request meets a closed pipe, or the reply an end of file
    "no_request_taken": (
        "_serve_critic", lambda *args: None,
        r"cannot (send a request to the critic's helper process \(BrokenPipeError|read a reply .* \(EOFError): ",
    ),
}


@needs_helper
def test_helper_gives_the_serial_bits(market, rule_sets_the_count, monkeypatch):
    want = serial(market)
    forks = record_forks(monkeypatch)
    seen = record_updates(monkeypatch)
    got = trained(market)
    assert got == want
    assert len(forks) == 1
    assert {(threads, helper) for threads, helper, _ in seen} == {(1, True)}
    assert any(n % CONFIG.minibatch_size >= 2 for *_, n in seen)  # a short last minibatch
    assert_no_child()
    assert CONTROL[0]() == 2


@needs_helper
@pytest.mark.parametrize(
    "lr", [{"critic_lr": 1e300}, {"actor_lr": 1e307}, {"actor_lr": 1e307, "critic_lr": 1e300}],
    ids=["critic", "actor", "both"],
)
def test_helper_raises_what_the_serial_path_raises(market, rule_sets_the_count, monkeypatch, lr):
    config = PpoConfig(rollout_steps=200, minibatch_size=64, update_epochs=2, **lr)
    with pytest.raises(NonFiniteLossError) as want, np.errstate(all="ignore"):
        serial(market, config)
    forks = record_forks(monkeypatch)
    with pytest.raises(NonFiniteLossError) as got, np.errstate(all="ignore"):
        train(market, config)
    assert str(got.value) == str(want.value)
    assert len(forks) == 1
    assert_no_child()
    assert CONTROL[0]() == 2


@needs_helper
def test_an_error_in_the_helper_reaches_the_caller(market, rule_sets_the_count):
    def raising(exc):
        def failing(*args):
            raise exc

        return failing

    # what the helper raises is raised as itself; a helper lost on the way is one named error
    cases = [("critic_steps", raising(exc), type(exc), f"^{exc}$")
             for exc in (ValueError("the critic failed"), MemoryError("Unable to allocate 8. EiB"))]
    cases += [(*patch, CriticHelperError, "^" + message) for *patch, message in HELPER_FAILURES.values()]
    for name, replacement, raised, message in cases:
        with pytest.MonkeyPatch.context() as m, pytest.raises(raised, match=message):
            m.setattr(trainer, name, replacement)
            train(market)
        assert_no_child()
        assert CONTROL[0]() == 2, message


@needs_helper
def test_a_failing_parent_kills_and_reaps_the_helper(market, rule_sets_the_count, monkeypatch):
    rollouts = []
    real = trainer.collect_rollout

    def second_fails(*args, **kwargs):
        rollouts.append(1)
        if len(rollouts) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "collect_rollout", second_fails)
    with pytest.raises(KeyboardInterrupt):
        train(market)
    assert_no_child()
    assert CONTROL[0]() == 2


@needs_helper
@pytest.mark.parametrize("away", ["setter", "fork", "fork_fails", "second_cpu", "user_threads", "one_python_thread"])
def test_without_the_helper_the_serial_path_runs(market, rule_sets_the_count, monkeypatch, away):
    want = serial(market)
    if away == "one_python_thread":
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
    if away == "setter":
        monkeypatch.setattr(blas, "openblas_threads", lambda: None)
    elif away == "fork":
        monkeypatch.delattr(os, "fork")
    elif away == "fork_fails":
        opened, closed = record_pipes(monkeypatch)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
    elif away == "second_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:  # the user's two threads stay, and two threads a process leave no CPU for a helper
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    if away not in ("fork", "fork_fails"):
        forbid_fork(monkeypatch)
    seen = record_updates(monkeypatch)
    try:
        assert trained(market) == want
    finally:
        if away == "one_python_thread":
            done.set()
            other.join(timeout=10)
    if away == "one_python_thread":
        assert not other.is_alive()
    assert {helper for _, helper, _ in seen} == {False}
    if away == "fork_fails":  # the helper's two pipes were made, and closed again
        assert len(opened) == 4 and set(opened) <= set(closed)
    if away == "user_threads":
        assert {threads for threads, _, _ in seen} == {2}
    assert CONTROL[0]() == 2


# -- the split update in one process ---------------------------------------------


class InProcessHelper:
    """The helper's side of `update`, run in this process on its own copy
    of the critic and its Adam state."""

    def __init__(self, params, config):
        self.params, self.config = params, config
        self.critic, self.opt = params.critic.copy(), params.critic_opt.copy()

    def send(self, states, value_targets, orders):
        self.request = (states, value_targets, orders)

    def receive(self):
        steps = agent.critic_steps(self.critic, self.opt, *self.request, self.config)
        critic, opt = self.params.critic, self.params.critic_opt
        critic.flat[...], opt.m[...], opt.v[...], opt.t = self.critic.flat, self.opt.m, self.opt.v, self.opt.t
        return steps


def three_ways(params, buffer, config, seed):
    """The result of test_ppo's reference update, of update and of update
    with an InProcessHelper, or the exception each raises."""
    results = []
    for way in ("reference", "update", "split"):
        copy = params.copy()
        rng = np.random.default_rng(seed)
        try:
            with np.errstate(all="ignore"):
                if way == "reference":
                    stats = previous_update(copy, buffer, config, rng)
                else:
                    helper = InProcessHelper(copy, config) if way == "split" else None
                    stats = update(copy, buffer, config, rng, critic_helper=helper)
        except Exception as exc:
            results.append((type(exc), str(exc)))
        else:
            results.append(outcome(copy, [stats]))
    return results


def rollout(rng, params, n, **columns):
    batch = dict(off_policy_batch(rng, params, n), **columns)
    return RolloutBuffer(**batch, rewards=np.zeros(n), values=np.zeros(n), dones=np.zeros(n, dtype=bool))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 150),
    st.booleans(),
    st.sampled_from([0.0, 0.01, 0.5]),
)
def test_split_update_gives_the_serial_bits(seed, n, normalize, max_grad_norm):
    rng = np.random.default_rng(seed)
    params = trained_params(rng, 5, 11)
    config = PpoConfig(minibatch_size=32, update_epochs=2, normalize_advantages=normalize, max_grad_norm=max_grad_norm)
    reference, serial, split = three_ways(params, rollout(rng, params, n), config, seed)
    assert serial == reference
    assert split == reference


@pytest.mark.parametrize(
    "columns, normalize, message",
    [
        # the critic's value loss overflows
        ({"value_targets": np.full(100, 1e200)}, True, "loss=inf"),
        # one advantage is NaN: the actor's terms are NaN from its minibatch on
        ({"advantages": np.r_[np.zeros(70), np.nan, np.zeros(29)]}, True, "loss=nan"),
        # both halves finite, their sum is not
        ({"advantages": np.full(100, -1e308), "value_targets": np.full(100, 1.2e154)}, False, "loss=inf"),
    ],
    ids=["critic", "actor", "total"],
)
def test_split_update_raises_at_the_serial_minibatch(columns, normalize, message):
    rng = np.random.default_rng(5)
    params = trained_params(rng, 5, 11)
    config = PpoConfig(minibatch_size=32, update_epochs=2, normalize_advantages=normalize)
    assert three_ways(params, rollout(rng, params, 100, **columns), config, 5) == [(NonFiniteLossError, message)] * 3
