"""Central finite-difference verification of the analytic PPO gradients, for the tests.

The package takes each network's minibatch steps apart (see
execlab.ppo.agent); `full_ppo_loss` joins the actor's terms and the
critic's into the full loss in one call, for the gradient checks and the
bit-for-bit tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from execlab.ppo.agent import LossStats, MlpParams, PolicyParams, PpoConfig, _joined, ppo_loss, value_loss


def full_ppo_loss(
    params: PolicyParams,
    batch: dict[str, np.ndarray],
    config: PpoConfig,
    *,
    out: tuple[MlpParams, MlpParams] | None = None,
) -> tuple[LossStats, MlpParams, MlpParams]:
    """The full PPO loss of one minibatch as `update` forms it: the
    actor's terms (`ppo_loss`) and the critic's (`value_loss`) joined by
    `_joined`, which raises NonFiniteLossError where the loss or a gradient
    is not finite.  Returns (stats, actor gradients, critic gradients), the
    gradients written into `out`'s (actor, critic) pair when given."""
    actor_out, critic_out = out if out is not None else (None, None)
    stats, actor_grads = ppo_loss(params, batch, config, out=actor_out)
    value, critic_grads = value_loss(params.critic, batch["states"], batch["value_targets"], config, out=critic_out)
    return _joined(stats, actor_grads is not None, value, critic_grads is not None, config), actor_grads, critic_grads


def gradient_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta: np.ndarray,
    rng: np.random.Generator,
    n_probes: int = 120,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes `n_probes` randomly chosen coordinates of theta; relative error is
    |fd - an| / max(|fd| + |an|, 1e-8).
    """
    _, grad = loss_and_grad(theta)
    idx = rng.choice(theta.size, size=min(n_probes, theta.size), replace=False)
    worst = 0.0
    for i in idx:
        bumped = theta.copy()
        bumped[i] += h
        up, _ = loss_and_grad(bumped)
        bumped[i] -= 2 * h
        down, _ = loss_and_grad(bumped)
        fd = (up - down) / (2 * h)
        an = grad[i]
        err = abs(fd - an) / max(abs(fd) + abs(an), 1e-8)
        worst = max(worst, err)
    return worst


def gradient_check_ppo(
    params: PolicyParams,
    batch: dict[str, np.ndarray],
    config: PpoConfig,
    rng: np.random.Generator,
    n_probes: int = 120,
    h: float = 1e-5,
) -> float:
    """Finite-difference check of the full PPO loss (actor + critic weights)."""
    work = params.copy()
    n_actor = work.actor.size

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        work.actor.flat[:] = theta[:n_actor]
        work.critic.flat[:] = theta[n_actor:]
        stats, actor_grads, critic_grads = full_ppo_loss(work, batch, config)
        return stats.total, np.concatenate([actor_grads.flat, critic_grads.flat])

    theta = np.concatenate([params.actor.flat, params.critic.flat])
    return gradient_check(loss_and_grad, theta, rng, n_probes, h)
