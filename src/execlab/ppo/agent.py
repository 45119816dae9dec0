"""Actor-critic PPO with a clipped objective, GAE, entropy bonus and
masked discrete actions.

The actor and critic are separate 64x64 tanh networks (see net.py).  Action
masks zero out probabilities of actions above the remaining inventory before
normalization, so an illegal action has probability exactly 0.  The clipped
surrogate, value loss and entropy term follow the standard form

    loss = -E[min(r A, clip(r, 1-eps, 1+eps) A)]
           + value_coef * E[(V(s) - target)^2]
           - entropy_coef * E[H(pi(.|s))]

with r the new/old probability ratio and advantages normalized per
minibatch.  The two networks share no parameter, so each takes its own
minibatch steps through one loop, `_steps`: the actor on `ppo_loss`, its
clipped surrogate and entropy terms, and the critic on `value_loss`;
`_joined` adds the two into the loss above.  Gradients are assembled by
hand and verified against central finite differences by the tests
(tests/gradcheck.py, where `full_ppo_loss` joins the two in one call).
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..config import PpoConfig
from ..errors import AllMaskedError, CheckpointError, NonFiniteLossError, open_output
from .net import (
    FIELDS, AdamState, MlpParams, ForwardCache, adam_step, init_mlp, mlp_backward, mlp_forward,
)

CHECKPOINT_VERSION = 1


@dataclass
class PolicyParams:
    actor: MlpParams
    critic: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState
    n_inputs: int
    n_actions: int
    updates_done: int = 0

    @classmethod
    def init(cls, rng: np.random.Generator, n_inputs: int, n_actions: int) -> "PolicyParams":
        actor = init_mlp(rng, n_inputs, n_actions)
        critic = init_mlp(rng, n_inputs, 1)
        return cls(
            actor=actor,
            critic=critic,
            actor_opt=AdamState.zeros(actor.size),
            critic_opt=AdamState.zeros(critic.size),
            n_inputs=n_inputs,
            n_actions=n_actions,
        )

    def copy(self) -> "PolicyParams":
        return replace(
            self,
            actor=self.actor.copy(),
            critic=self.critic.copy(),
            actor_opt=self.actor_opt.copy(),
            critic_opt=self.critic_opt.copy(),
        )


def masked_probs(logits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Softmax over legal actions; masked entries get probability exactly 0."""
    if not masks.any(axis=-1).all():
        raise AllMaskedError("a state admits no legal action")
    probs = np.where(masks, logits, -np.inf)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs, where=masks)  # exp(-inf) is slow, and zeroed next
    np.copyto(probs, 0.0, where=~masks)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def policy_forward(
    params: PolicyParams, states: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, ForwardCache, ForwardCache]:
    """(action probabilities, values, actor cache, critic cache) for a batch."""
    states = np.atleast_2d(states)
    masks = np.atleast_2d(masks)
    actor_cache = mlp_forward(params.actor, states)
    critic_cache = mlp_forward(params.critic, states)
    probs = masked_probs(actor_cache.out, masks)
    return probs, critic_cache.out[:, 0], actor_cache, critic_cache


def sample_actions(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row; masked actions can never be drawn."""
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(probs.shape[0])
    return (u[:, None] > cdf).sum(axis=-1)


def action_mask(inventory: np.ndarray | int, n_actions: int) -> np.ndarray:
    """Legal actions are 0..inventory inclusive."""
    inv = np.atleast_1d(np.asarray(inventory))
    return np.arange(n_actions)[None, :] <= inv[:, None]


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    discount: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    delta_t = r_t + discount * V(s_{t+1}) * (1 - done_t) - V(s_t), advantages
    are the (discount * lam)-weighted suffix sums of the deltas, and targets
    are advantages + values.  The value after a terminal step is 0.
    """
    # Python floats are IEEE doubles: the loop rounds as numpy scalars would.
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    n = len(r)
    decay = discount * lam
    advantages = [0.0] * n
    running = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if d[t] else 1.0
        next_value = v[t + 1] if t + 1 < n else 0.0
        delta = r[t] + discount * next_value * nonterminal - v[t]
        running = delta + decay * nonterminal * running
        advantages[t] = running
    adv = np.array(advantages, dtype=np.float64)
    return adv, adv + values


@dataclass
class RolloutBuffer:
    states: np.ndarray
    actions: np.ndarray
    masks: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray = field(default=None)  # type: ignore[assignment]
    value_targets: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.actions)

    def finalize(self, config: PpoConfig) -> None:
        self.advantages, self.value_targets = gae(
            self.rewards, self.values, self.dones, config.discount, config.gae_lambda
        )


@dataclass
class LossStats:
    total: float
    clip_objective: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float


def ppo_loss(
    params: PolicyParams,
    batch: dict[str, np.ndarray],
    config: PpoConfig,
    *,
    out: MlpParams | None = None,
) -> tuple[LossStats, MlpParams | None]:
    """The actor's loss statistics and analytic gradient for one minibatch.

    The gradient is written into `out` when given, and is None where the
    actor's terms or gradient are not finite; nothing is raised.  The
    critic's term is `value_loss`'s, so the stats' total and value_loss are
    NaN until `_joined` adds it.
    """
    states = batch["states"]
    actions = batch["actions"]
    masks = batch["masks"]
    old_logp = batch["log_probs"]
    adv = batch["advantages"]
    n = len(actions)
    eps = config.clip_ratio

    # Means and the std as numpy's mean() and std() compute them (sum / n,
    # then the root of the squared deviations' sum / n), without their
    # per-call overhead; the bits are the same.
    if config.normalize_advantages:
        adv = adv - adv.sum() / n
        adv /= math.sqrt(np.square(adv).sum() / n) + 1e-8

    actor_cache = mlp_forward(params.actor, states)
    probs = masked_probs(actor_cache.out, masks)
    rows = np.arange(n)
    p_taken = probs[rows, actions]
    logp = np.log(p_taken)
    ratio = np.exp(logp - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    objective = np.minimum(unclipped, clipped)

    # log(probs) once, 0 where a probability is not positive; numpy's log(0)
    # is slow, so it is not evaluated at all
    logp_full = np.log(probs, out=np.zeros_like(probs), where=probs > 0)
    plogp = probs * logp_full
    entropy = -plogp.sum(axis=-1)

    stats = LossStats(
        total=math.nan,
        clip_objective=float(objective.sum() / n),
        value_loss=math.nan,
        entropy=float(entropy.sum() / n),
        approx_kl=float((old_logp - logp).sum() / n),
        clip_fraction=np.count_nonzero(np.abs(ratio - 1.0) > eps) / n,
    )
    if not (np.isfinite(stats.clip_objective) and np.isfinite(stats.entropy)):
        return stats, None
    # Actor gradient.  The min() gates the ratio path: gradient flows only
    # where the unclipped branch attains the minimum.
    active = (unclipped <= clipped).astype(float)
    coef = active * ratio * adv  # d objective / d logp(a)
    # one_hot - probs: 0.0 - p rounds (and signs zeros) as the one-hot would
    grad_logits = np.subtract(0.0, probs)
    grad_logits[rows, actions] += 1.0
    grad_logits *= coef[:, None]
    np.negative(grad_logits, out=grad_logits)
    grad_logits /= n
    # Entropy term: dH/dz_k = -p_k (log p_k + H); loss carries -entropy_coef * H.
    logp_full += entropy[:, None]
    ent_term = np.multiply(probs, config.entropy_coef, out=plogp)
    ent_term *= logp_full
    ent_term /= n
    grad_logits += ent_term
    np.copyto(grad_logits, 0.0, where=~masks)
    grads = mlp_backward(params.actor, actor_cache, grad_logits, out=out)
    return stats, grads if np.isfinite(grads.flat).all() else None


def value_loss(
    critic: MlpParams,
    states: np.ndarray,
    value_targets: np.ndarray,
    config: PpoConfig,
    *,
    out: MlpParams | None = None,
) -> tuple[float, MlpParams | None]:
    """The critic's mean squared value error on one minibatch and the
    gradient of value_coef times it (written into `out` when given), None
    where the error or the gradient is not finite."""
    cache = mlp_forward(critic, states)
    value_err = cache.out[:, 0] - value_targets
    loss = float(np.square(value_err).sum() / len(value_err))  # np.mean's sum / n
    if not np.isfinite(loss):
        return loss, None
    grad_value = (config.value_coef * 2.0 * value_err / len(value_err))[:, None]
    grads = mlp_backward(critic, cache, grad_value, out=out)
    return loss, grads if np.isfinite(grads.flat).all() else None


def _joined(
    actor: LossStats,
    actor_finite: bool,
    value: float,
    critic_finite: bool,
    config: PpoConfig,
    update: int,
    minibatch: int,
) -> LossStats:
    """The LossStats of minibatch `minibatch` (counted over the update's
    epochs) of update `update` from the actor's stats and the critic's value
    loss, raising NonFiniteLossError that names the update, the minibatch and
    the first of the loss, the actor's gradient and the critic's gradient
    that is not finite."""
    total = -actor.clip_objective + config.value_coef * value - config.entropy_coef * actor.entropy
    if not np.isfinite(total):
        what = f"loss={total}"
    elif not actor_finite:
        what = "the actor's gradient is not finite"
    elif not critic_finite:
        what = "the critic's gradient is not finite"
    else:
        return replace(actor, total=total, value_loss=value)
    raise NonFiniteLossError(f"update {update}, minibatch {minibatch}: {what}")


def _clip_grad_norm(grads: MlpParams, max_norm: float) -> None:
    # Squared once, summed layer by layer: one sum or dot product over the
    # whole vector adds in a different order and changes the trained
    # parameters' bits.
    squares = np.square(grads.flat)
    total, lo = 0.0, 0
    for g in grads.arrays:
        total += float(squares[lo : lo + g.size].sum())
        lo += g.size
    total = math.sqrt(total)
    if total > max_norm:
        grads.flat *= max_norm / total


def _minibatches(n: int, size: int):
    """(lo, hi) of each minibatch of an epoch; a last one of fewer than 2 rows is skipped."""
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        if hi - lo >= 2:
            yield lo, hi


def update(
    params: PolicyParams,
    buffer: RolloutBuffer,
    config: PpoConfig,
    rng: np.random.Generator,
    *,
    critic_helper=None,
) -> dict[str, float]:
    """Several epochs of minibatch Adam steps over one rollout; returns means.

    Every epoch's permutation is drawn first.  The actor's steps
    (`_actor_steps`) and the critic's (`critic_steps`) are the one loop
    `_steps` run on each network; the networks share no parameter, so they
    are taken one after the other, and each minibatch's stats and errors are
    joined afterwards by `_joined`, in minibatch order.  A
    `critic_helper` (see ppo.trainer) takes the critic's steps elsewhere
    while this process takes the actor's: `send(states, value_targets,
    orders)` starts them, and `receive()` writes the critic and its Adam
    state into `params` and returns `critic_steps`' result.
    """
    if buffer.advantages is None:
        buffer.finalize(config)
    orders = [rng.permutation(len(buffer)) for _ in range(config.update_epochs)]
    if critic_helper is not None:
        critic_helper.send(buffer.states, buffer.value_targets, orders)
    actor = _actor_steps(params, buffer, config, orders)
    if critic_helper is None:
        critic = critic_steps(params.critic, params.critic_opt, buffer.states, buffer.value_targets, orders, config)
    else:
        critic = critic_helper.receive()
    # zip stops at the shorter half, whose last minibatch is then the first that fails
    stats = [_joined(*a, *c, config, params.updates_done, i) for i, (a, c) in enumerate(zip(actor, critic))]
    params.updates_done += 1
    return {f.name: float(np.mean([getattr(s, f.name) for s in stats])) for f in fields(LossStats)}


def _actor_steps(params: PolicyParams, buffer: RolloutBuffer, config: PpoConfig, orders: list) -> list:
    """`_steps` of the actor, with each minibatch's stats without the critic's terms."""
    columns = {key: getattr(buffer, key) for key in ("states", "actions", "masks", "log_probs", "advantages")}
    loss = lambda batch, out: ppo_loss(params, batch, config, out=out)  # noqa: E731
    return _steps(params.actor, params.actor_opt, config.actor_lr, loss, columns, orders, config)


def critic_steps(
    critic: MlpParams,
    opt: AdamState,
    states: np.ndarray,
    value_targets: np.ndarray,
    orders: list[np.ndarray],
    config: PpoConfig,
) -> list[tuple[float, bool]]:
    """`_steps` of the critic, on `critic` and `opt`, with each minibatch's value loss."""
    loss = lambda batch, out: value_loss(critic, batch["states"], batch["value_targets"], config, out=out)  # noqa: E731
    columns = {"states": states, "value_targets": value_targets}
    return _steps(critic, opt, config.critic_lr, loss, columns, orders, config)


def _steps(net: MlpParams, opt: AdamState, lr: float, loss, columns: dict, orders: list, config: PpoConfig) -> list:
    """One network's minibatch Adam steps over the epoch permutations
    `orders`, on `net` and `opt` in place.  `loss(batch, out)` gives a
    minibatch's (statistic, gradient written into `out`, or None where it is
    not finite).  Returns each minibatch's (statistic, whether its gradient
    is finite), up to the first where it is not."""
    grads = MlpParams(len(net.w1), len(net.b3))  # every minibatch's loss writes into it
    steps = []
    for order in orders:
        # one gather per epoch; minibatches are slices of the shuffled columns
        shuffled = {key: column[order] for key, column in columns.items()}
        for lo, hi in _minibatches(len(order), config.minibatch_size):
            statistic, step_grads = loss({key: column[lo:hi] for key, column in shuffled.items()}, grads)
            steps.append((statistic, step_grads is not None))
            if step_grads is None:
                return steps
            if config.max_grad_norm > 0:
                _clip_grad_norm(step_grads, config.max_grad_norm)
            adam_step(net, step_grads, opt, lr)
    return steps


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: PolicyParams, config: PpoConfig, meta: dict | None = None) -> None:
    """Write the checkpoint to `path` as given; no ".npz" suffix is added."""
    arrays = {}
    for net_name, net in (("actor", params.actor), ("critic", params.critic)):
        for field_name, arr in zip(FIELDS, net.arrays):
            arrays[f"{net_name}_{field_name}"] = arr
    arrays["actor_opt_m"] = params.actor_opt.m
    arrays["actor_opt_v"] = params.actor_opt.v
    arrays["critic_opt_m"] = params.critic_opt.m
    arrays["critic_opt_v"] = params.critic_opt.v
    header = {
        "version": CHECKPOINT_VERSION,
        "n_inputs": params.n_inputs,
        "n_actions": params.n_actions,
        "updates_done": params.updates_done,
        "actor_opt_t": params.actor_opt.t,
        "critic_opt_t": params.critic_opt.t,
        "config": asdict(config),
        "meta": meta or {},
    }
    arrays["header_json"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    with open_output(path, "wb") as fh:
        np.savez(fh, **arrays)


# What reading a damaged archive or member raises: zipfile's errors (a bad
# CRC, an encrypted member or an unsupported compression is a RuntimeError),
# numpy's for a .npy header it cannot parse, and I/O errors.
_UNREADABLE = (OSError, ValueError, EOFError, RuntimeError, SyntaxError, zipfile.BadZipFile, tokenize.TokenError)


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, PpoConfig, dict]:
    """(params, config, meta) from a file `save_checkpoint` wrote.

    Raises CheckpointError when the file is not an npz archive, lacks an
    array or a header field, holds a member that cannot be read back, has
    another version, a header count that is not a non-negative integer, a PPO
    config PpoConfig refuses or a meta that is not an object, or holds a
    weight array whose dtype or shape does not fit the network its header
    describes.
    """
    try:
        data = np.load(path)
    except _UNREADABLE as exc:
        raise CheckpointError(f"not an npz archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError("a single .npy array, not an npz archive")
    with data:

        def array(key: str) -> np.ndarray:
            if key not in data.files:
                raise CheckpointError(f"no {key!r} array")
            try:
                return data[key]
            except _UNREADABLE as exc:
                raise CheckpointError(f"{key} cannot be read: {exc}") from exc

        try:
            header = json.loads(bytes(array("header_json")).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"header_json is not JSON: {exc}") from exc
        except RecursionError as exc:
            raise CheckpointError("header_json is not JSON: nested too deeply") from exc
        version = header.get("version") if isinstance(header, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        needed = {"n_inputs", "n_actions", "updates_done", "actor_opt_t", "critic_opt_t", "config", "meta"}
        if missing := sorted(needed - header.keys()):
            raise CheckpointError(f"header_json has no {', '.join(map(repr, missing))}")
        for key in ("n_inputs", "n_actions", "updates_done", "actor_opt_t", "critic_opt_t"):
            if type(header[key]) is not int or header[key] < 0:
                raise CheckpointError(f"header_json {key} is not a non-negative integer: {header[key]!r}")
        if not isinstance(header["meta"], dict):
            raise CheckpointError(f"header_json meta is not an object: {header['meta']!r}")
        try:
            config = PpoConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"header_json config: {exc}") from exc
        n_inputs, n_actions = header["n_inputs"], header["n_actions"]
        nets = {"actor": MlpParams(n_inputs, n_actions), "critic": MlpParams(n_inputs, 1)}
        for net_name, net in nets.items():
            for field_name, view in zip(FIELDS, net.arrays):
                stored = array(f"{net_name}_{field_name}")
                if stored.dtype != view.dtype:
                    raise CheckpointError(f"{net_name}_{field_name} has dtype {stored.dtype}, not {view.dtype}")
                if stored.shape != view.shape:
                    raise CheckpointError(
                        f"{net_name}_{field_name} has shape {stored.shape}, the header's "
                        f"n_inputs={n_inputs}, n_actions={n_actions} need {view.shape}"
                    )
                view[...] = stored
        actor_opt, critic_opt = (
            AdamState(array(f"{name}_opt_m"), array(f"{name}_opt_v"), header[f"{name}_opt_t"])
            for name in nets
        )
    params = PolicyParams(
        actor=nets["actor"],
        critic=nets["critic"],
        actor_opt=actor_opt,
        critic_opt=critic_opt,
        n_inputs=n_inputs,
        n_actions=n_actions,
        updates_done=header["updates_done"],
    )
    return params, config, header["meta"]
