"""Central finite-difference verification of the analytic PPO gradients, for the tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from execlab.ppo.agent import PolicyParams, PpoConfig, ppo_loss


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
        stats, actor_grads, critic_grads = ppo_loss(work, batch, config)
        return stats.total, np.concatenate([actor_grads.flat, critic_grads.flat])

    theta = np.concatenate([params.actor.flat, params.critic.flat])
    return gradient_check(loss_and_grad, theta, rng, n_probes, h)
