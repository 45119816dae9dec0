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
minibatch.  Gradients are assembled by hand and verified against central
finite differences by the tests (tests/gradcheck.py).
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..errors import AllMaskedError, CheckpointError, NonFiniteLossError, open_output
from .net import (
    FIELDS, AdamState, MlpParams, ForwardCache, adam_step, init_mlp, mlp_backward, mlp_forward,
)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class PpoConfig:
    clip_ratio: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    minibatch_size: int = 256
    rollout_steps: int = 2048
    normalize_advantages: bool = True
    max_grad_norm: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.clip_ratio < 1.0):
            raise ValueError("clip_ratio must lie in (0, 1)")
        if not (0.0 <= self.discount <= 1.0 and 0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("discount and gae_lambda must lie in [0, 1]")
        # update skips any minibatch of fewer than 2 rows
        if self.minibatch_size < 2:
            raise ValueError(f"minibatch_size must be >= 2, got {self.minibatch_size}")
        # with no epoch, update takes no step and logs the mean of nothing
        if self.update_epochs < 1:
            raise ValueError(f"update_epochs must be >= 1, got {self.update_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    out: tuple[MlpParams, MlpParams] | None = None,
) -> tuple[LossStats, MlpParams, MlpParams]:
    """Loss statistics and analytic gradients for one minibatch.

    Returns (stats, actor gradients, critic gradients); the gradients are
    written into `out`'s (actor, critic) pair when given.  Raises
    NonFiniteLossError when the loss stops being finite.
    """
    states = batch["states"]
    actions = batch["actions"]
    masks = batch["masks"]
    old_logp = batch["log_probs"]
    adv = batch["advantages"]
    targets = batch["value_targets"]
    n = len(actions)
    eps = config.clip_ratio

    if config.normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    probs, values, actor_cache, critic_cache = policy_forward(params, states, masks)
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

    value_err = values - targets
    value_loss = float(np.mean(value_err**2))
    clip_obj = float(objective.mean())
    entropy_mean = float(entropy.mean())
    total = -clip_obj + config.value_coef * value_loss - config.entropy_coef * entropy_mean
    if not np.isfinite(total):
        raise NonFiniteLossError(f"loss={total}")

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
    actor_out, critic_out = out if out is not None else (None, None)
    actor_grads = mlp_backward(params.actor, actor_cache, grad_logits, out=actor_out)

    grad_value = (config.value_coef * 2.0 * value_err / n)[:, None]
    critic_grads = mlp_backward(params.critic, critic_cache, grad_value, out=critic_out)

    if not (np.isfinite(actor_grads.flat).all() and np.isfinite(critic_grads.flat).all()):
        raise NonFiniteLossError("non-finite gradient")

    stats = LossStats(
        total=total,
        clip_objective=clip_obj,
        value_loss=value_loss,
        entropy=entropy_mean,
        approx_kl=float(np.mean(old_logp - logp)),
        clip_fraction=float(np.mean(np.abs(ratio - 1.0) > eps)),
    )
    return stats, actor_grads, critic_grads


def _clip_grad_norm(grads: MlpParams, max_norm: float) -> None:
    # Summed layer by layer: one dot product over the whole vector adds in a
    # different order and changes the trained parameters' bits.
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.arrays)))
    if total > max_norm:
        grads.flat *= max_norm / total


def update(
    params: PolicyParams,
    buffer: RolloutBuffer,
    config: PpoConfig,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Several epochs of minibatch Adam steps over one rollout; returns means."""
    if buffer.advantages is None:
        buffer.finalize(config)
    n = len(buffer)
    stats_acc: dict[str, list[float]] = {f.name: [] for f in fields(LossStats)}
    # ppo_loss writes every minibatch's gradients into these two
    grads = (MlpParams(params.n_inputs, params.n_actions), MlpParams(params.n_inputs, 1))
    for _ in range(config.update_epochs):
        order = rng.permutation(n)
        # one gather per epoch; minibatches are slices of the shuffled arrays
        shuffled = {
            key: getattr(buffer, key)[order]
            for key in ("states", "actions", "masks", "log_probs", "advantages", "value_targets")
        }
        for lo in range(0, n, config.minibatch_size):
            hi = min(lo + config.minibatch_size, n)
            if hi - lo < 2:
                continue
            batch = {key: column[lo:hi] for key, column in shuffled.items()}
            stats, actor_grads, critic_grads = ppo_loss(params, batch, config, out=grads)
            if config.max_grad_norm > 0:
                _clip_grad_norm(actor_grads, config.max_grad_norm)
                _clip_grad_norm(critic_grads, config.max_grad_norm)
            adam_step(params.actor, actor_grads, params.actor_opt, config.actor_lr)
            adam_step(params.critic, critic_grads, params.critic_opt, config.critic_lr)
            for key in stats_acc:
                stats_acc[key].append(getattr(stats, key))
    params.updates_done += 1
    return {k: float(np.mean(v)) for k, v in stats_acc.items()}


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
