"""On-policy rollout storage, GAE, and the clipped-surrogate PPO update
with reverse-mode gradients through the from-scratch MLPs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .networks import (Adam, PolicyParams, backward_batch, clip_grads_global,
                       forward_batch, gaussian_entropy, gaussian_log_prob,
                       LOG_STD_MAX, LOG_STD_MIN)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    rollout_steps: int = 2048
    minibatch_size: int = 256
    epochs_per_update: int = 10
    clip_epsilon: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    max_grad_norm: float = 0.5
    total_steps: int = 1_000_000
    target_kl: float | None = None  # optional early stop, off by default
    lr_decay: bool = False

    def __post_init__(self):
        for name in ("rollout_steps", "minibatch_size", "epochs_per_update"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not (0 < self.clip_epsilon < 1):
            raise ValueError("clip_epsilon must be in (0, 1)")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must be in (0, 1]")
        if not (0 <= self.gae_lambda <= 1):
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.rollout_steps % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide rollout_steps")


class RolloutBuffer:
    """Fixed-capacity on-policy store. Log-probs correspond to the raw
    (pre-clip) actions; rewards are the scaled ones fed to GAE."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int = 3):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.log_probs = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.values = np.zeros(capacity)
        self.dones = np.zeros(capacity)
        self.advantages = np.zeros(capacity)
        self.returns = np.zeros(capacity)
        self.ptr = 0
        self.advantages_ready = False

    @property
    def full(self) -> bool:
        return self.ptr == self.capacity

    def add(self, obs, action, log_prob, reward, value, done):
        if self.full:
            raise ValueError("rollout buffer is full")
        i = self.ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = 1.0 if done else 0.0
        self.ptr += 1

    def reset(self):
        self.ptr = 0
        self.advantages_ready = False


def compute_gae(buffer: RolloutBuffer, bootstrap_value: float,
                gamma: float, lam: float) -> RolloutBuffer:
    """Fill advantages A_t = sum_l (gamma*lam)^l * delta_{t+l} (cut at
    dones) and returns = A_t + V(s_t)."""
    if not buffer.full:
        raise ValueError("buffer must be full before computing GAE")
    rewards, values, dones = buffer.rewards, buffer.values, buffer.dones
    n = rewards.shape[0]
    adv = np.empty(n, dtype=np.float64)
    next_value = float(bootstrap_value)
    last = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
        next_value = values[t]
    buffer.advantages = adv
    buffer.returns = buffer.advantages + buffer.values
    buffer.advantages_ready = True
    return buffer


def _minibatch_loss_and_grads(params: PolicyParams, obs, actions, logp_old,
                              adv, returns, cfg: TrainConfig):
    """Total PPO loss and its gradients in flat_list() order.

    The policy term maximizes min(rho*A, clamp(rho)*A); the gradient of
    the min flows through rho only where the unclipped branch is active
    (the clamp has zero slope when it saturates).
    """
    n = obs.shape[0]
    eps = cfg.clip_epsilon

    adv_std = float(np.std(adv))
    adv_hat = (adv - float(np.mean(adv))) / (adv_std + 1e-8)

    h1, h2, h3, mean = forward_batch(params.actor, obs)
    log_std = params.log_std
    logp_new = gaussian_log_prob(actions, mean, log_std)
    ratio = np.exp(logp_new - logp_old)
    surr1 = ratio * adv_hat
    surr2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv_hat
    policy_loss = -float(np.mean(np.minimum(surr1, surr2)))

    dlogp = np.where(surr1 <= surr2, -adv_hat * ratio / n, 0.0)
    inv_var = np.exp(-2.0 * log_std)
    resid = (actions - mean) * inv_var
    dmean = dlogp[:, None] * resid
    dlog_std = np.sum(dlogp[:, None] * (resid * (actions - mean) - 1.0), axis=0)

    entropy = gaussian_entropy(log_std)
    dlog_std = dlog_std - cfg.entropy_coef * np.ones_like(log_std)

    actor_grads = backward_batch(params.actor, obs, h1, h2, h3, dmean)

    c1, c2, c3, v = forward_batch(params.critic, obs)
    v = v[:, 0]
    verr = v - returns
    value_loss = float(np.mean(verr * verr))
    dv = (cfg.value_coef * 2.0 / n) * verr
    critic_grads = backward_batch(params.critic, obs, c1, c2, c3, dv[:, None])

    total_loss = (policy_loss + cfg.value_coef * value_loss
                  - cfg.entropy_coef * entropy)
    grads = actor_grads + [dlog_std] + critic_grads
    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(logp_old - logp_new)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
    }
    return total_loss, grads, stats


def ppo_update(params: PolicyParams, buffer: RolloutBuffer, cfg: TrainConfig,
               rng: np.random.Generator, adam: Adam | None = None,
               lr: float | None = None):
    """Run epochs_per_update passes of shuffled minibatches over the
    buffer, mutating params in place. theta_old lives in the stored
    log-probs and stays fixed for the whole update."""
    if not buffer.advantages_ready:
        raise ValueError("advantages must be computed before the update")
    if adam is None:
        adam = Adam([p.shape for p in params.flat_list()])
    if lr is None:
        lr = cfg.learning_rate

    flat = params.flat_list()
    n = buffer.capacity
    mb = cfg.minibatch_size
    agg: dict[str, float] = {}
    n_batches = 0
    stop = False
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(n)
        for start in range(0, n, mb):
            idx = perm[start:start + mb]
            loss, grads, stats = _minibatch_loss_and_grads(
                params, buffer.obs[idx], buffer.actions[idx],
                buffer.log_probs[idx], buffer.advantages[idx],
                buffer.returns[idx], cfg)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite PPO loss: {stats}; "
                    f"adv range [{buffer.advantages.min()}, {buffer.advantages.max()}]")
            clip_grads_global(grads, cfg.max_grad_norm)
            adam.step(flat, grads, lr)
            np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX, out=params.log_std)
            for k, val in stats.items():
                agg[k] = agg.get(k, 0.0) + val
            n_batches += 1
            if cfg.target_kl is not None and stats["approx_kl"] > 1.5 * cfg.target_kl:
                stop = True
                break
        if stop:
            break
    out = {k: v / n_batches for k, v in agg.items()}
    return params, out
