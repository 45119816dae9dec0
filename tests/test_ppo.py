from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from execlab.errors import AllMaskedError, NonFiniteLossError
from execlab.ppo import (
    LossStats,
    MlpParams,
    PolicyParams,
    PpoConfig,
    RolloutBuffer,
    action_mask,
    adam_step,
    gae,
    load_checkpoint,
    masked_probs,
    mlp_backward,
    mlp_forward,
    policy_forward,
    sample_actions,
    save_checkpoint,
    update,
)
from execlab.ppo import agent
from execlab.ppo.net import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FIELDS, ForwardCache, init_mlp
from gradcheck import full_ppo_loss, gradient_check, gradient_check_ppo


def make_params(n_inputs=7, n_actions=51, seed=0):
    return PolicyParams.init(np.random.default_rng(seed), n_inputs, n_actions)


def random_batch(params, n=64, seed=1, adv_scale=1.0):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, params.n_inputs))
    inv = rng.integers(1, params.n_actions, n)
    masks = action_mask(inv, params.n_actions)
    probs, values, _, _ = policy_forward(params, states, masks)
    actions = sample_actions(probs, rng)
    logp = np.log(probs[np.arange(n), actions])
    return {
        "states": states,
        "actions": actions,
        "masks": masks,
        "log_probs": logp,
        "advantages": rng.standard_normal(n) * adv_scale,
        "value_targets": rng.standard_normal(n) * 0.1,
    }


# -- masked distribution -------------------------------------------------------


def test_uniform_logits_full_mask():
    params = make_params()
    probs, _, _, _ = policy_forward(
        params, np.zeros((1, 7)), np.ones((1, 51), dtype=bool)
    )
    # output layer starts near zero, so the distribution starts near uniform
    assert probs.shape == (1, 51)
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0].max() < 0.03


def test_zero_inventory_point_mass_on_zero():
    params = make_params()
    mask = action_mask(0, 51)
    probs, _, _, _ = policy_forward(params, np.zeros((1, 7)), mask)
    assert probs[0, 0] == 1.0
    assert np.all(probs[0, 1:] == 0.0)


def test_equal_logits_over_partial_mask():
    logits = np.zeros((1, 6))
    mask = np.array([[True] * 6])
    probs = masked_probs(logits, mask)
    assert np.allclose(probs, 1 / 6)


def test_all_masked_raises():
    with pytest.raises(AllMaskedError):
        masked_probs(np.zeros((1, 4)), np.zeros((1, 4), dtype=bool))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=12),
    st.integers(1, 11),
)
def test_masked_probs_valid_distribution(logits, n_legal):
    logits = np.array([logits])
    n = logits.shape[1]
    mask = np.zeros((1, n), dtype=bool)
    mask[0, : min(n_legal, n)] = True
    probs = masked_probs(logits, mask)
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs[~mask] == 0.0)


def test_masked_actions_never_sampled():
    params = make_params(n_actions=10)
    rng = np.random.default_rng(0)
    inv = 4
    mask = action_mask(inv, 10)
    probs, _, _, _ = policy_forward(params, np.zeros((1, 7)), mask)
    draws = sample_actions(np.repeat(probs, 1_000_000, axis=0), rng)
    assert draws.max() <= inv


# -- GAE ------------------------------------------------------------------------


def test_gae_hand_example():
    rewards = np.array([0.0, 1.0])
    values = np.array([0.5, 0.5])
    dones = np.array([False, True])
    adv, targets = gae(rewards, values, dones, 0.99, 0.95)
    delta0 = 0.0 + 0.99 * 0.5 - 0.5
    delta1 = 1.0 - 0.5
    assert adv[1] == pytest.approx(delta1)
    assert adv[0] == pytest.approx(delta0 + 0.99 * 0.95 * delta1)
    assert adv[0] == pytest.approx(0.46525)
    assert np.allclose(targets, adv + values)


def test_gae_gamma_lambda_one_reduces_to_returns_minus_values():
    rng = np.random.default_rng(2)
    rewards = rng.normal(size=10)
    values = rng.normal(size=10)
    dones = np.zeros(10, dtype=bool)
    dones[-1] = True
    adv, _ = gae(rewards, values, dones, 1.0, 1.0)
    suffix_sums = np.cumsum(rewards[::-1])[::-1]
    assert np.allclose(adv, suffix_sums - values)


def test_gae_one_step_episode():
    adv, targets = gae(np.array([1.0]), np.array([0.0]), np.array([True]), 0.99, 0.95)
    assert adv[0] == pytest.approx(1.0)
    assert targets[0] == pytest.approx(1.0)


def test_gae_resets_across_episode_boundaries():
    rewards = np.array([1.0, 1.0, 1.0, 1.0])
    values = np.zeros(4)
    dones = np.array([False, True, False, True])
    adv, _ = gae(rewards, values, dones, 1.0, 1.0)
    assert np.allclose(adv, [2.0, 1.0, 2.0, 1.0])


def reference_gae(rewards, values, dones, discount, lam):
    # The loop over numpy scalars that the loop over Python floats replaced.
    n = len(rewards)
    advantages = np.zeros(n)
    running = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        next_value = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + discount * next_value * nonterminal - values[t]
        running = delta + discount * lam * nonterminal * running
        advantages[t] = running
    return advantages, advantages + values


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.booleans(), min_size=0, max_size=60),
    st.sampled_from([0.0, 1.0, None]),
    st.sampled_from([0.0, 1.0, None]),
)
def test_gae_matches_numpy_scalar_loop(seed, dones, discount, lam):
    rng = np.random.default_rng(seed)
    discount = rng.random() if discount is None else discount
    lam = rng.random() if lam is None else lam
    dones = np.array(dones, dtype=bool)
    rewards = rng.standard_normal(len(dones)) * rng.choice([1e-6, 1.0, 1e3])
    values = rng.standard_normal(len(dones))
    got = gae(rewards, values, dones, discount, lam)
    want = reference_gae(rewards, values, dones, discount, lam)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# -- clipped objective -----------------------------------------------------------


def clip_term(ratio, adv, eps=0.2):
    return min(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)


def test_clip_hand_examples():
    assert clip_term(2.0, 1.0) == pytest.approx(1.2)
    assert clip_term(0.5, -1.0) == pytest.approx(-0.8)
    assert clip_term(1.0, 0.7) == pytest.approx(0.7)  # identity ratio, clip inactive


@given(st.floats(0.0, 10.0), st.floats(-5, 5))
def test_clip_objective_upper_bound(ratio, adv):
    # the signed objective contribution never exceeds (1 + eps) * |adv|
    assert clip_term(ratio, adv) <= (1 + 0.2) * abs(adv) + 1e-12


def test_identity_ratio_clip_objective_is_mean_advantage():
    params = make_params()
    batch = random_batch(params, n=128, seed=3)
    config = PpoConfig(normalize_advantages=False, entropy_coef=0.0, value_coef=0.0)
    stats, _, _ = full_ppo_loss(params, batch, config)
    # behavior probs were recorded from the same params, so the ratio is 1
    assert stats.clip_objective == pytest.approx(batch["advantages"].mean(), rel=1e-9)
    assert stats.clip_fraction == 0.0
    assert stats.approx_kl == pytest.approx(0.0, abs=1e-12)


def test_nonfinite_loss_raises():
    params = make_params()
    batch = random_batch(params)
    batch["advantages"] = np.full_like(batch["advantages"], np.nan)
    with pytest.raises(NonFiniteLossError):
        full_ppo_loss(params, batch, PpoConfig())


@pytest.mark.parametrize(
    "value, actor_finite, critic_finite, what",
    [
        (np.inf, False, False, "loss=inf"),
        (1.0, False, False, "the actor's gradient is not finite"),
        (1.0, True, False, "the critic's gradient is not finite"),
    ],
    ids=["loss", "actor", "critic"],
)
def test_nonfinite_loss_names_what_failed_and_where(value, actor_finite, critic_finite, what):
    stats = LossStats(
        total=np.nan, clip_objective=0.0, value_loss=np.nan, entropy=0.0, approx_kl=0.0, clip_fraction=0.0
    )
    with pytest.raises(NonFiniteLossError) as exc:
        agent._joined(stats, actor_finite, value, critic_finite, PpoConfig(), 2, 7)
    assert str(exc.value) == f"update 2, minibatch 7: {what}"


# -- gradients -------------------------------------------------------------------


def test_gradient_check_quadratic_oracle():
    rng = np.random.default_rng(4)
    center = rng.standard_normal(40)

    def quad(theta):
        return float(((theta - center) ** 2).sum()), 2.0 * (theta - center)

    err = gradient_check(quad, rng.standard_normal(40), rng, n_probes=40, h=1e-4)
    assert err <= 1e-6


def test_gradient_check_full_ppo_loss():
    params = make_params()
    batch = random_batch(params, n=48, seed=5)
    rng = np.random.default_rng(6)
    err = gradient_check_ppo(params, batch, PpoConfig(), rng, n_probes=150, h=1e-5)
    assert err <= 1e-4


def test_gradient_check_critic_only():
    params = make_params()
    batch = random_batch(params, n=48, seed=7)
    config = PpoConfig(entropy_coef=0.0)
    rng = np.random.default_rng(8)

    def critic_loss(theta):
        work = params.copy()
        work.critic.flat[:] = theta
        stats, _, critic_grads = full_ppo_loss(work, batch, config)
        # isolate the value term: actor part of the loss is theta-independent
        return stats.total, critic_grads.flat

    err = gradient_check(critic_loss, params.critic.flat, rng, n_probes=80, h=1e-5)
    assert err <= 1e-5


def test_zero_input_state_finite_gradients():
    params = make_params()
    cache = mlp_forward(params.actor, np.zeros((4, 7)))
    grads = mlp_backward(params.actor, cache, np.ones((4, 51)))
    for g in grads.arrays:
        assert np.isfinite(g).all()


# -- update ----------------------------------------------------------------------


def _bandit_rollout(params, config, rng, paying=2, n=256, n_actions=5):
    state = np.array([0.3, -0.2, 0.1])
    states = np.tile(state, (n, 1))
    masks = np.ones((n, n_actions), dtype=bool)
    probs, values, _, _ = policy_forward(params, states, masks)
    actions = sample_actions(probs, rng)
    logp = np.log(probs[np.arange(n), actions])
    rewards = (actions == paying).astype(float)
    buf = RolloutBuffer(
        states=states,
        actions=actions,
        masks=masks,
        log_probs=logp,
        rewards=rewards,
        values=values,
        dones=np.ones(n, dtype=bool),
    )
    buf.finalize(config)
    return buf


def _train_bandit(config, n_updates, seed=0, paying=2, n_actions=5):
    rng = np.random.default_rng(seed)
    params = PolicyParams.init(rng, 3, n_actions)
    for _ in range(n_updates):
        buf = _bandit_rollout(params, config, rng, paying=paying, n_actions=n_actions)
        update(params, buf, config, rng)
    probs, _, _, _ = policy_forward(
        params, np.array([[0.3, -0.2, 0.1]]), np.ones((1, n_actions), dtype=bool)
    )
    return probs[0]


def test_bandit_converges_to_paying_action():
    config = PpoConfig(entropy_coef=1e-3, minibatch_size=64, seed=0)
    probs = _train_bandit(config, n_updates=200)
    assert probs[2] >= 0.95


def test_large_entropy_keeps_policy_near_uniform():
    # without advantage normalization the entropy-dominated fixed point is
    # softmax(reward / entropy_coef), which stays near uniform for large coef
    config = PpoConfig(
        entropy_coef=5.0, minibatch_size=64, normalize_advantages=False, seed=0
    )
    probs = _train_bandit(config, n_updates=150)
    assert probs.max() < 0.35


def test_zero_advantages_move_actor_only_via_entropy():
    params = make_params()
    batch = random_batch(params, n=64, seed=9, adv_scale=0.0)
    config = PpoConfig(entropy_coef=0.0, normalize_advantages=False)
    _, actor_grads, _ = full_ppo_loss(params, batch, config)
    for g in actor_grads.arrays:
        assert np.allclose(g, 0.0)
    config_ent = PpoConfig(entropy_coef=0.01, normalize_advantages=False)
    _, actor_grads_ent, _ = full_ppo_loss(params, batch, config_ent)
    assert any(np.abs(g).max() > 0 for g in actor_grads_ent.arrays)


# The six-array layout that one vector per network replaced, kept as the
# reference: gradients come back as six arrays, Adam concatenates them and the
# parameters, and writes the updated vector back array by array.


@dataclass
class SixArrays:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def arrays(self):
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def flatten(self):
        return np.concatenate([a.ravel() for a in self.arrays])

    flat = property(flatten)  # ppo_loss reads the gradients' vector to test finiteness

    def set_flat(self, flat):
        i = 0
        for a in self.arrays:
            a[...] = flat[i : i + a.size].reshape(a.shape)
            i += a.size


def reference_mlp_backward(params, cache, grad_out, out=None):
    g3 = grad_out
    dw3 = cache.h2.T @ g3
    db3 = g3.sum(axis=0)
    g2 = (g3 @ params.w3.T) * (1.0 - cache.h2 * cache.h2)
    dw2 = cache.h1.T @ g2
    db2 = g2.sum(axis=0)
    g1 = (g2 @ params.w2.T) * (1.0 - cache.h1 * cache.h1)
    dw1 = cache.x.T @ g1
    db1 = g1.sum(axis=0)
    return SixArrays(dw1, db1, dw2, db2, dw3, db3)


def reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    g = grads.flatten()
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    flat = params.flatten()
    flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
    params.set_flat(flat)


def reference_clip_grad_norm(grads, max_norm):
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.arrays)))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.arrays:
            g *= scale
    return total > max_norm


@pytest.mark.parametrize("max_grad_norm", [0.5, 0.0])
def test_flat_layout_matches_six_array_reference(monkeypatch, max_grad_norm):
    config = PpoConfig(minibatch_size=64, max_grad_norm=max_grad_norm)

    def train(layout):
        rng = np.random.default_rng(3)
        params = layout(PolicyParams.init(rng, 3, 5))
        for _ in range(3):
            update(params, _bandit_rollout(params, config, rng), config, rng)
        return params

    def six_arrays(params):
        return replace(
            params,
            actor=SixArrays(*(a.copy() for a in params.actor.arrays)),
            critic=SixArrays(*(a.copy() for a in params.critic.arrays)),
        )

    new = train(lambda params: params)
    clipped = []
    with monkeypatch.context() as m:
        m.setattr(agent, "mlp_backward", reference_mlp_backward)
        m.setattr(agent, "adam_step", reference_adam_step)
        m.setattr(agent, "_clip_grad_norm", lambda g, n: clipped.append(reference_clip_grad_norm(g, n)))
        ref = train(six_arrays)
    assert any(clipped) == (max_grad_norm > 0)
    for name in ("actor", "critic"):
        assert getattr(new, name).flat.tobytes() == getattr(ref, name).flatten().tobytes()
        new_opt, ref_opt = getattr(new, f"{name}_opt"), getattr(ref, f"{name}_opt")
        assert (new_opt.t, new_opt.m.tobytes(), new_opt.v.tobytes()) == (
            ref_opt.t, ref_opt.m.tobytes(), ref_opt.v.tobytes()
        )

        # perfbench hashes `arrays`: they must be views of the vector, in FIELDS order
        net = getattr(new, name).copy()
        net.flat[:] = np.arange(net.size)
        assert np.concatenate([a.ravel() for a in net.arrays]).tobytes() == net.flat.tobytes()
        for field_name, view in zip(FIELDS, net.arrays):
            assert getattr(net, field_name) is view
            assert np.shares_memory(view, net.flat)
            assert not np.shares_memory(view, getattr(new, name).flat)


def test_update_is_deterministic_under_seed():
    def run():
        params = PolicyParams.init(np.random.default_rng(3), 3, 5)
        config = PpoConfig(minibatch_size=64)
        rng = np.random.default_rng(7)
        for _ in range(3):
            buf = _bandit_rollout(params, config, rng, n_actions=params.n_actions)
            update(params, buf, config, rng)
        return params.actor.flat

    assert np.array_equal(run(), run())


# The minibatch as it was before it was made lean (temporaries, a log per use,
# a fresh gradient vector per call, per-minibatch gathers), kept as the
# reference that the lean path must match bit for bit.


def previous_masked_probs(logits, masks):
    if not masks.any(axis=-1).all():
        raise AllMaskedError("a state admits no legal action")
    shifted = np.where(masks, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    expd = np.where(masks, np.exp(shifted), 0.0)
    return expd / expd.sum(axis=-1, keepdims=True)


def previous_mlp_forward(params, x):
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    out = h2 @ params.w3 + params.b3
    return ForwardCache(x=x, h1=h1, h2=h2, out=out)


def previous_mlp_backward(params, cache, grad_out):
    grads = MlpParams(params.n_in, params.n_out, np.empty(params.size))
    g3 = grad_out
    np.matmul(cache.h2.T, g3, out=grads.w3)
    g3.sum(axis=0, out=grads.b3)
    g2 = (g3 @ params.w3.T) * (1.0 - cache.h2 * cache.h2)
    np.matmul(cache.h1.T, g2, out=grads.w2)
    g2.sum(axis=0, out=grads.b2)
    g1 = (g2 @ params.w2.T) * (1.0 - cache.h1 * cache.h1)
    np.matmul(cache.x.T, g1, out=grads.w1)
    g1.sum(axis=0, out=grads.b1)
    return grads


def previous_adam_step(params, grads, state, lr):
    g = grads.flat
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    params.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def previous_ppo_loss(params, batch, config, where="update 0, minibatch 0"):
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

    actor_cache = previous_mlp_forward(params.actor, states)
    critic_cache = previous_mlp_forward(params.critic, states)
    probs = previous_masked_probs(actor_cache.out, masks)
    values = critic_cache.out[:, 0]
    rows = np.arange(n)
    p_taken = probs[rows, actions]
    logp = np.log(p_taken)
    ratio = np.exp(logp - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    objective = np.minimum(unclipped, clipped)

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    entropy = -plogp.sum(axis=-1)

    value_err = values - targets
    value_loss = float(np.mean(value_err**2))
    clip_obj = float(objective.mean())
    entropy_mean = float(entropy.mean())
    total = -clip_obj + config.value_coef * value_loss - config.entropy_coef * entropy_mean
    if not np.isfinite(total):
        raise NonFiniteLossError(f"{where}: loss={total}")

    active = (unclipped <= clipped).astype(float)
    coef = active * ratio * adv
    one_hot = np.zeros_like(probs)
    one_hot[rows, actions] = 1.0
    grad_logits = -(coef[:, None] * (one_hot - probs)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        logp_full = np.where(probs > 0, np.log(probs), 0.0)
    grad_logits += config.entropy_coef * probs * (logp_full + entropy[:, None]) / n
    grad_logits = np.where(masks, grad_logits, 0.0)
    actor_grads = previous_mlp_backward(params.actor, actor_cache, grad_logits)

    grad_value = (config.value_coef * 2.0 * value_err / n)[:, None]
    critic_grads = previous_mlp_backward(params.critic, critic_cache, grad_value)

    for name, grads in (("actor", actor_grads), ("critic", critic_grads)):
        if not np.isfinite(grads.flat).all():
            raise NonFiniteLossError(f"{where}: the {name}'s gradient is not finite")

    stats = LossStats(
        total=total,
        clip_objective=clip_obj,
        value_loss=value_loss,
        entropy=entropy_mean,
        approx_kl=float(np.mean(old_logp - logp)),
        clip_fraction=float(np.mean(np.abs(ratio - 1.0) > eps)),
    )
    return stats, actor_grads, critic_grads


def previous_update(params, buffer, config, rng, minibatches=None):
    n = len(buffer)
    stats_acc = {f.name: [] for f in fields(LossStats)}
    for _ in range(config.update_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.minibatch_size):
            idx = order[lo : lo + config.minibatch_size]
            if len(idx) < 2:
                continue
            batch = {
                "states": buffer.states[idx],
                "actions": buffer.actions[idx],
                "masks": buffer.masks[idx],
                "log_probs": buffer.log_probs[idx],
                "advantages": buffer.advantages[idx],
                "value_targets": buffer.value_targets[idx],
            }
            if minibatches is not None:
                minibatches.append(len(idx))
            where = f"update {params.updates_done}, minibatch {len(stats_acc['total'])}"
            stats, actor_grads, critic_grads = previous_ppo_loss(params, batch, config, where)
            if config.max_grad_norm > 0:
                agent._clip_grad_norm(actor_grads, config.max_grad_norm)
                agent._clip_grad_norm(critic_grads, config.max_grad_norm)
            previous_adam_step(params.actor, actor_grads, params.actor_opt, config.actor_lr)
            previous_adam_step(params.critic, critic_grads, params.critic_opt, config.critic_lr)
            for key in stats_acc:
                stats_acc[key].append(getattr(stats, key))
    params.updates_done += 1
    return {k: float(np.mean(v)) for k, v in stats_acc.items()}


def off_policy_batch(rng, params, n):
    """A minibatch with partial masks, and behaviour log-probs far enough from
    the current policy that ratios fall outside the clip range on both sides."""
    states = rng.standard_normal((n, params.n_inputs))
    masks = action_mask(rng.integers(0, params.n_actions, n), params.n_actions)
    probs, _, _, _ = policy_forward(params, states, masks)
    actions = sample_actions(probs, rng)
    return {
        "states": states,
        "actions": actions,
        "masks": masks,
        "log_probs": np.log(probs[np.arange(n), actions]) + rng.normal(0.0, 0.5, n),
        "advantages": rng.standard_normal(n) * rng.choice([0.01, 1.0, 100.0]),
        "value_targets": rng.standard_normal(n),
    }


def trained_params(rng, n_inputs, n_actions, steps=3):
    """Params a few Adam steps away from init, so the Adam moments are nonzero."""
    params = PolicyParams.init(rng, n_inputs, n_actions)
    config = PpoConfig()
    for _ in range(steps):
        _, actor_grads, critic_grads = previous_ppo_loss(params, off_policy_batch(rng, params, 32), config)
        previous_adam_step(params.actor, actor_grads, params.actor_opt, config.actor_lr)
        previous_adam_step(params.critic, critic_grads, params.critic_opt, config.critic_lr)
    return params


def stats_bytes(stats):
    return np.array([getattr(stats, f.name) for f in fields(LossStats)]).tobytes()


def assert_same_policy(new, ref):
    for name in ("actor", "critic"):
        assert getattr(new, name).flat.tobytes() == getattr(ref, name).flat.tobytes()
        new_opt, ref_opt = getattr(new, f"{name}_opt"), getattr(ref, f"{name}_opt")
        assert (new_opt.t, new_opt.m.tobytes(), new_opt.v.tobytes()) == (
            ref_opt.t, ref_opt.m.tobytes(), ref_opt.v.tobytes()
        )
    assert new.updates_done == ref.updates_done


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 200),
    st.booleans(),
    st.sampled_from([0.0, 0.01, 0.5, 1e3]),
    st.sampled_from([0.0, 0.01, 1.0]),
)
def test_lean_minibatch_matches_previous(seed, n, normalize, max_grad_norm, entropy_coef):
    rng = np.random.default_rng(seed)
    params = trained_params(rng, int(rng.integers(1, 12)), int(rng.integers(2, 52)))
    config = PpoConfig(
        normalize_advantages=normalize, max_grad_norm=max_grad_norm, entropy_coef=entropy_coef
    )
    batch = off_policy_batch(rng, params, n)

    probs, _, actor_cache, _ = policy_forward(params, batch["states"], batch["masks"])
    ref_cache = previous_mlp_forward(params.actor, batch["states"])
    for name in ("h1", "h2", "out"):
        assert getattr(actor_cache, name).tobytes() == getattr(ref_cache, name).tobytes()
    assert probs.tobytes() == previous_masked_probs(ref_cache.out, batch["masks"]).tobytes()

    # the gradients land in `out`, which may hold the last minibatch's
    out = (MlpParams(params.n_inputs, params.n_actions), MlpParams(params.n_inputs, 1))
    out[0].flat[:] = rng.standard_normal(out[0].size)
    stats, actor_grads, critic_grads = full_ppo_loss(params, batch, config, out=out)
    assert actor_grads is out[0] and critic_grads is out[1]
    ref_stats, ref_actor, ref_critic = previous_ppo_loss(params, batch, config)
    assert stats_bytes(stats) == stats_bytes(ref_stats)
    assert actor_grads.flat.tobytes() == ref_actor.flat.tobytes()
    assert critic_grads.flat.tobytes() == ref_critic.flat.tobytes()

    new, ref = params.copy(), params.copy()
    if max_grad_norm > 0:
        agent._clip_grad_norm(actor_grads, max_grad_norm)
        agent._clip_grad_norm(ref_actor, max_grad_norm)
    adam_step(new.actor, actor_grads, new.actor_opt, config.actor_lr)
    previous_adam_step(ref.actor, ref_actor, ref.actor_opt, config.actor_lr)
    assert_same_policy(new, ref)


def test_lean_minibatch_covers_clipping_and_masks():
    # The examples above are drawn so that every minibatch exercises both
    # sides of the clip range and masks of every width.
    rng = np.random.default_rng(0)
    params = trained_params(rng, 7, 51)
    batch = off_policy_batch(rng, params, 256)
    probs, _, _, _ = policy_forward(params, batch["states"], batch["masks"])
    ratio = np.exp(np.log(probs[np.arange(256), batch["actions"]]) - batch["log_probs"])
    assert (ratio < 0.8).any() and (ratio > 1.2).any()
    widths = batch["masks"].sum(axis=1)
    assert widths.min() == 1 and widths.max() == 51


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.sampled_from([1, 2, 0, 17]),
    st.booleans(),
    st.sampled_from([0.0, 0.01, 0.5]),
)
def test_lean_update_matches_per_minibatch_gathers(seed, full, tail, normalize, max_grad_norm):
    minibatch_size = 32
    n = full * minibatch_size + tail
    if n < 2:
        n = minibatch_size + 1  # one minibatch and a skipped tail of 1
    rng = np.random.default_rng(seed)
    params = trained_params(rng, 5, 11)
    batch = off_policy_batch(rng, params, n)
    buffer = RolloutBuffer(
        **batch, rewards=np.zeros(n), values=np.zeros(n), dones=np.zeros(n, dtype=bool)
    )
    config = PpoConfig(
        minibatch_size=minibatch_size, update_epochs=2, normalize_advantages=normalize,
        max_grad_norm=max_grad_norm,
    )
    new, ref = params.copy(), params.copy()
    sizes = []
    got = update(new, buffer, config, np.random.default_rng(seed))
    want = previous_update(ref, buffer, config, np.random.default_rng(seed), sizes)
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    assert_same_policy(new, ref)
    # a tail of 1 row is skipped, a tail of 2 or more is a minibatch of its own
    assert sizes.count(n % minibatch_size) == (2 if n % minibatch_size >= 2 else 0)


def test_training_a_copy_leaves_the_original_untouched():
    # Adam writes its moments in place; a copy must own its own.
    rng = np.random.default_rng(4)
    original = trained_params(rng, 3, 5)
    before = [a.tobytes() for a in (
        original.actor.flat, original.critic.flat, original.actor_opt.m, original.actor_opt.v,
        original.critic_opt.m, original.critic_opt.v,
    )]
    copy = original.copy()
    config = PpoConfig(minibatch_size=64)
    update(copy, _bandit_rollout(copy, config, rng), config, rng)
    after = [a.tobytes() for a in (
        original.actor.flat, original.critic.flat, original.actor_opt.m, original.actor_opt.v,
        original.critic_opt.m, original.critic_opt.v,
    )]
    assert after == before
    assert copy.actor_opt.m.tobytes() != original.actor_opt.m.tobytes()


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = make_params()
    config = PpoConfig(entropy_coef=0.005)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, config, meta={"scope": "cross", "seed": 5})
    loaded, loaded_config, meta = load_checkpoint(path)
    assert loaded_config == config
    assert meta == {"scope": "cross", "seed": 5}
    assert np.array_equal(loaded.actor.flat, params.actor.flat)
    assert np.array_equal(loaded.critic.flat, params.critic.flat)
    assert loaded.n_actions == params.n_actions
    state = np.random.default_rng(0).standard_normal((3, 7))
    mask = action_mask(np.array([50, 10, 3]), 51)
    p1, v1, _, _ = policy_forward(params, state, mask)
    p2, v2, _, _ = policy_forward(loaded, state, mask)
    assert np.array_equal(p1, p2)
    assert np.array_equal(v1, v2)


def test_init_mlp_shapes():
    net = init_mlp(np.random.default_rng(0), 7, 51)
    assert net.w1.shape == (7, 64)
    assert net.w2.shape == (64, 64)
    assert net.w3.shape == (64, 51)
    assert net.size == 7 * 64 + 64 + 64 * 64 + 64 + 64 * 51 + 51
