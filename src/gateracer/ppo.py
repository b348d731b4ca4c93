"""On-policy rollout storage, GAE, and the clipped-surrogate PPO update
with reverse-mode gradients through the from-scratch MLPs.

Each minibatch runs as two halves that share nothing but the global-norm
clip: the policy half (actor and log_std) on the calling thread, and the
value half (critic) on one worker thread that the update opens and
joins. For the length of the update, OpenBLAS runs one thread per
caller, set through its thread control found with `ctypes` and restored
on exit; without the pin the two threads would oversubscribe the cores.
BLAS's thread count does not change its results here, and every array
gets the same operations in the same order, so training is bit-identical
to running the halves one after the other. Where no such control is
found, both halves run on the calling thread. `fill_values` runs with
BLAS at one thread as well, so that no spinning BLAS thread is left
beside the update's worker."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .domains import (COUNT, NATURAL, NON_NEGATIVE, POSITIVE, ConfigBlock,
                      Domain)
from .networks import (Adam, PolicyParams, backward_batch, clip_grads_global,
                       forward_batch, gaussian_entropy, gaussian_log_prob,
                       LOG_STD_MAX, LOG_STD_MIN)


@dataclass
class TrainConfig(ConfigBlock):
    learning_rate: float = POSITIVE(1e-4)
    rollout_steps: int = COUNT(2048)
    minibatch_size: int = COUNT(256)
    epochs_per_update: int = COUNT(10)
    clip_epsilon: float = Domain("in (0, 1)", lambda v: 0 < v < 1)(0.2)
    gamma: float = Domain("in (0, 1]", lambda v: 0 < v <= 1)(0.99)
    gae_lambda: float = Domain("in [0, 1]", lambda v: 0 <= v <= 1)(0.95)
    value_coef: float = NON_NEGATIVE(0.5)
    entropy_coef: float = NON_NEGATIVE(0.0)
    max_grad_norm: float = POSITIVE(0.5)  # a negative one flips the step
    total_steps: int = NATURAL(1_000_000)

    def __post_init__(self):
        super().__post_init__()
        if self.rollout_steps % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide rollout_steps")


class RolloutBuffer:
    """Fixed-capacity on-policy store. Actions are the policy's samples,
    unbounded; rewards are the scaled ones fed to GAE. Their log-probs,
    the values and the bootstrap value are filled once the buffer is full
    (fill_values)."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int = 3):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.log_probs = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.values = np.zeros(capacity)
        self.bootstrap_value = 0.0
        self.dones = np.zeros(capacity)
        self.advantages = np.zeros(capacity)
        self.returns = np.zeros(capacity)
        self.ptr = 0
        self.advantages_ready = False

    @property
    def full(self) -> bool:
        return self.ptr == self.capacity

    def add(self, obs, action, reward, done):
        if self.full:
            raise ValueError("rollout buffer is full")
        i = self.ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.dones[i] = 1.0 if done else 0.0
        self.ptr += 1


def fill_values(buffer: RolloutBuffer, params: PolicyParams,
                next_obs: np.ndarray, chunk: int) -> RolloutBuffer:
    """Set values = V(obs) in the critic's dtype, bootstrap_value =
    V(next_obs) (0 when the last step ended an episode), and the theta_old
    log_probs in float64, from one copy of the actor and log_std, so that
    they are exact against a float64 recomputation. Chunks of `chunk` rows
    keep the hidden activations minibatch-sized. BLAS runs one thread
    here too: after a two-thread product, OpenBLAS's own thread spins for
    about 0.13 s of CPU, and the update that follows would share the
    second core with it."""
    if not buffer.full:
        raise ValueError("buffer must be full before computing values")
    actor = [a.astype(np.float64) for a in params.actor]
    log_std = params.log_std.astype(np.float64)
    with _one_blas_thread():
        for start in range(0, buffer.capacity, chunk):
            rows = slice(start, start + chunk)
            obs = buffer.obs[rows]
            buffer.values[rows] = forward_batch(params.critic, obs)[3][:, 0]
            buffer.log_probs[rows] = gaussian_log_prob(
                buffer.actions[rows], forward_batch(actor, obs)[3], log_std)
        buffer.bootstrap_value = 0.0 if buffer.dones[-1] else float(
            forward_batch(params.critic, next_obs[None])[3][0, 0])
    return buffer


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


def _policy_half(actor: list[np.ndarray], log_std: np.ndarray, obs, actions,
                 logp_old, adv, cfg: TrainConfig):
    """Gradients of the clipped-surrogate and entropy terms for the
    actor's arrays then log_std, and the stats they yield.

    The policy term maximizes min(rho*A, clamp(rho)*A); the gradient of
    the min flows through rho only where the unclipped branch is active
    (the clamp has zero slope when it saturates). Computes in the dtype
    of log_std: the batch is cast to it, and the gradients come back in
    it.
    """
    dtype = log_std.dtype
    obs, actions, logp_old, adv = (np.asarray(a, dtype=dtype)
                                   for a in (obs, actions, logp_old, adv))
    n = obs.shape[0]
    eps = cfg.clip_epsilon

    adv_std = float(np.std(adv))
    adv_hat = (adv - float(np.mean(adv))) / (adv_std + 1e-8)

    h1, h2, h3, mean = forward_batch(actor, obs)
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

    grads = backward_batch(actor, obs, h1, h2, h3, dmean) + [dlog_std]
    stats = {
        "policy_loss": policy_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(logp_old - logp_new)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
    }
    return grads, stats


def _value_half(critic: list[np.ndarray], obs, returns, cfg: TrainConfig):
    """The value loss (mean squared error against the returns) and the
    gradients of its weighted term for the critic's arrays, in the
    critic's dtype."""
    dtype = critic[0].dtype
    obs, returns = (np.asarray(a, dtype=dtype) for a in (obs, returns))
    n = obs.shape[0]
    c1, c2, c3, v = forward_batch(critic, obs)
    verr = v[:, 0] - returns
    value_loss = float(np.mean(verr * verr))
    dv = (cfg.value_coef * 2.0 / n) * verr
    return value_loss, backward_batch(critic, obs, c1, c2, c3, dv[:, None])


def _join_halves(policy_grads, policy_stats, value_loss, value_grads,
                 cfg: TrainConfig):
    """(total loss, gradients in flat_list() order, stats) of a minibatch
    from its two halves."""
    stats = dict(policy_stats, value_loss=value_loss)
    total_loss = (stats["policy_loss"] + cfg.value_coef * value_loss
                  - cfg.entropy_coef * stats["entropy"])
    return total_loss, policy_grads + value_grads, stats


def _minibatch_loss_and_grads(params: PolicyParams, obs, actions, logp_old,
                              adv, returns, cfg: TrainConfig):
    """Total PPO loss and its gradients in flat_list() order: the two
    halves one after the other, in the dtype of the parameters."""
    return _join_halves(
        *_policy_half(params.actor, params.log_std, obs, actions, logp_old,
                      adv, cfg),
        *_value_half(params.critic, obs, returns, cfg), cfg)


# OpenBLAS's thread-count setter and getter: as numpy 2 wheels export
# them, as numpy 1 wheels do, and as other builds do
_BLAS_THREAD_CONTROLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_thread_control():
    """(set, get) of the thread count of the OpenBLAS numpy loaded, or
    None when no such control is found. Symbol lookup through numpy's
    core extension also searches the libraries it links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for set_name, get_name in _BLAS_THREAD_CONTROLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads = getattr(lib, set_name)
            get_threads = getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS at one thread per caller, the count found restored on exit;
    yields False, and changes nothing, where no BLAS thread control is
    found."""
    control = _blas_thread_control()
    if control is None:
        yield False
        return
    set_threads, get_threads = control
    before = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)


@contextlib.contextmanager
def _value_worker():
    """Yields the `submit` of the value half's thread: a worker thread,
    with BLAS at one thread until the worker is joined, or the calling
    thread where no BLAS thread control is found."""
    # imported here: concurrent.futures loads logging, about 10 ms of the
    # start of every process, training or not
    from concurrent.futures import Future, ThreadPoolExecutor

    def run_now(fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    with _one_blas_thread() as pinned:
        if not pinned:
            yield run_now
            return
        with ThreadPoolExecutor(1, thread_name_prefix="ppo-value") as pool:
            yield pool.submit


def _minibatches(rng: np.random.Generator, n: int, size: int, epochs: int):
    """Row indices of each minibatch: one permutation per epoch, drawn
    when the epoch starts."""
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, size):
            yield perm[start:start + size]


def ppo_update(params: PolicyParams, buffer: RolloutBuffer, cfg: TrainConfig,
               rng: np.random.Generator, adam: Adam | None = None) -> dict:
    """Run epochs_per_update passes of shuffled minibatches over the
    buffer, mutating params in place, at the constant learning_rate;
    returns the stats averaged over the minibatches. theta_old lives in
    the stored log-probs and stays fixed for the whole update.

    Each minibatch's forward and backward run in float32 on the float32
    parameters themselves, and its float32 gradients go straight to
    clipping and to Adam, whose moments are float32 too. The buffer stays
    float64: its observations are cast to float32 once per update, and
    the other columns as the halves read their rows.

    After each minibatch's clip, the worker takes the critic's Adam step
    and then the next value half, while the caller takes the actor's step
    and the next policy half."""
    if not buffer.advantages_ready:
        raise ValueError("advantages must be computed before the update")
    if adam is None:
        adam = Adam([p.shape for p in params.flat_list()])

    flat = params.flat_list()
    k = len(params.actor) + 1  # the policy half's arrays lead flat_list()
    obs = buffer.obs.astype(np.float32)
    batches = _minibatches(rng, buffer.capacity, cfg.minibatch_size,
                           cfg.epochs_per_update)

    def value_job(critic_grads, t, idx):
        """The critic's step t of the last minibatch, if any, then the
        value half of the next, if any."""
        if critic_grads is not None:
            adam.step(flat[k:], critic_grads, cfg.learning_rate, t=t, first=k)
        if idx is not None:
            return _value_half(params.critic, obs[idx], buffer.returns[idx],
                               cfg)

    agg: dict[str, float] = {}
    n_batches = 0
    with _value_worker() as submit:
        idx = next(batches)
        value = submit(value_job, None, None, idx)
        while idx is not None:
            policy = _policy_half(
                params.actor, params.log_std, obs[idx], buffer.actions[idx],
                buffer.log_probs[idx], buffer.advantages[idx], cfg)
            loss, grads, stats = _join_halves(*policy, *value.result(), cfg)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite PPO loss: {stats}; "
                    f"adv range [{buffer.advantages.min()}, {buffer.advantages.max()}]")
            clip_grads_global(grads, cfg.max_grad_norm)
            t = adam.t + 1
            idx = next(batches, None)
            value = submit(value_job, grads[k:], t, idx)
            adam.step(flat[:k], grads[:k], cfg.learning_rate, t=t)
            np.clip(params.log_std, LOG_STD_MIN, LOG_STD_MAX, out=params.log_std)
            for key, val in stats.items():
                agg[key] = agg.get(key, 0.0) + val
            n_batches += 1
        value.result()  # the last critic step lands before the update returns
    return {key: val / n_batches for key, val in agg.items()}
