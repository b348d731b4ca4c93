"""From-scratch actor/critic MLPs (3 hidden tanh layers), the diagonal
Gaussian action head, and an adaptive-moment optimizer.

The parameters are float64, and so is acting in training; the
optimizer's moments are float32. The MLP functions compute in the dtype
of the weights they are given, casting the input to it, which lets the
PPO update run its minibatches and evaluation act in float32.
`Adam.step` can step a run of the arrays at a named step number, so that
the update steps actor and critic on two threads at once."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HIDDEN_SIZE = 256
ACTION_DIM = 3
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG2PI = math.log(2.0 * math.pi)


def _init_layout(a) -> np.ndarray:
    """A float64 copy in the policy's memory order: Fortran for a wide
    matrix (init builds it as a transposed QR factor), C otherwise. BLAS
    sums in a different order per layout, so restored weights must take
    the same one to stay bit-identical to the run that saved them."""
    wide = np.ndim(a) == 2 and a.shape[0] < a.shape[1]
    return np.array(a, dtype=np.float64, order="F" if wide else "C")


def _orthogonal(rng: np.random.Generator, shape, gain: float) -> np.ndarray:
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return _init_layout(gain * q[: shape[0], : shape[1]])


def init_mlp(rng: np.random.Generator, in_dim: int, hidden: int,
             out_dim: int, final_gain: float) -> list[np.ndarray]:
    """Weights/biases [W1, b1, ..., W4, b4]; orthogonal init, sqrt(2) gain
    on hidden layers, final_gain on the output layer."""
    sizes = [in_dim, hidden, hidden, hidden, out_dim]
    params = []
    for i in range(4):
        gain = final_gain if i == 3 else math.sqrt(2.0)
        params.append(_orthogonal(rng, (sizes[i], sizes[i + 1]), gain))
        params.append(np.zeros(sizes[i + 1]))
    return params


@dataclass
class PolicyParams:
    actor: list[np.ndarray]
    log_std: np.ndarray
    critic: list[np.ndarray]

    @property
    def obs_dim(self) -> int:
        return self.actor[0].shape[0]

    def flat_list(self) -> list[np.ndarray]:
        """Canonical parameter ordering used by the optimizer and the
        checkpoint format."""
        return list(self.actor) + [self.log_std] + list(self.critic)

    @classmethod
    def from_flat_list(cls, flat) -> "PolicyParams":
        """Inverse of flat_list(); copies into the init memory layout."""
        flat = [_init_layout(a) for a in flat]
        n = (len(flat) - 1) // 2
        return cls(actor=flat[:n], log_std=flat[n], critic=flat[n + 1:])

    def astype(self, dtype) -> "PolicyParams":
        """A copy in `dtype`; each array keeps its memory order."""
        return PolicyParams(
            actor=[a.astype(dtype) for a in self.actor],
            log_std=self.log_std.astype(dtype),
            critic=[c.astype(dtype) for c in self.critic],
        )


def init_policy(rng: np.random.Generator, obs_dim: int,
                hidden: int = HIDDEN_SIZE,
                action_dim: int = ACTION_DIM) -> PolicyParams:
    actor = init_mlp(rng, obs_dim, hidden, action_dim, final_gain=0.01)
    critic = init_mlp(rng, obs_dim, hidden, 1, final_gain=1.0)
    return PolicyParams(actor=actor, log_std=np.zeros(action_dim), critic=critic)


def _mlp_forward(x, w1, b1, w2, b2, w3, b3, w4, b4):
    """3-hidden-layer tanh MLP on one input or a batch; returns the hidden
    activations for backprop and the output."""
    h1 = np.tanh(np.dot(x, w1) + b1)
    h2 = np.tanh(np.dot(h1, w2) + b2)
    h3 = np.tanh(np.dot(h2, w3) + b3)
    return h1, h2, h3, np.dot(h3, w4) + b4


def forward(params: PolicyParams, obs: np.ndarray):
    """(mean, log_std) of the action distribution, from the actor alone,
    for one observation `(obs_dim,)` or a batch `(n, obs_dim)`; the mean
    is `(action_dim,)` or `(n, action_dim)` to match. The critic is not
    needed to act; training evaluates it batched once per rollout
    (ppo.fill_values)."""
    obs = np.asarray(obs, dtype=params.actor[0].dtype)
    if obs.ndim not in (1, 2) or obs.shape[-1] != params.obs_dim:
        raise ValueError(f"expected obs shape ({params.obs_dim},) or "
                         f"(n, {params.obs_dim}), got {obs.shape}")
    return _mlp_forward(obs, *params.actor)[3], params.log_std.copy()


def forward_batch(net: list[np.ndarray], obs: np.ndarray):
    """Batched MLP forward in the weights' dtype; returns (h1, h2, h3,
    out)."""
    return _mlp_forward(np.ascontiguousarray(obs, dtype=net[0].dtype), *net)


def backward_batch(net: list[np.ndarray], obs, h1, h2, h3, dout):
    """Parameter gradients, given d(loss)/d(output), in the init_mlp
    layout."""
    x = np.ascontiguousarray(obs)
    dout = np.ascontiguousarray(dout)
    w2, w3, w4 = net[2], net[4], net[6]
    dw4 = np.dot(h3.T, dout)
    db4 = np.sum(dout, axis=0)
    dz3 = np.dot(dout, w4.T) * (1.0 - h3 * h3)
    dw3 = np.dot(h2.T, dz3)
    db3 = np.sum(dz3, axis=0)
    dz2 = np.dot(dz3, w3.T) * (1.0 - h2 * h2)
    dw2 = np.dot(h1.T, dz2)
    db2 = np.sum(dz2, axis=0)
    dz1 = np.dot(dz2, w2.T) * (1.0 - h1 * h1)
    dw1 = np.dot(x.T, dz1)
    db1 = np.sum(dz1, axis=0)
    return [dw1, db1, dw2, db2, dw3, db3, dw4, db4]


def gaussian_log_prob(action, mean, log_std) -> np.ndarray:
    """Diagonal-Gaussian log density; summed over the action axis."""
    z = (action - mean) * np.exp(-log_std)
    return -0.5 * np.sum(z * z + 2.0 * log_std + LOG2PI, axis=-1)


def gaussian_entropy(log_std) -> float:
    return float(np.sum(log_std + 0.5 * (1.0 + LOG2PI)))


def sample_action(mean, log_std, rng: np.random.Generator):
    """(action, log_prob) for one observation's 1-D mean. The log-prob is
    summed term by term in gaussian_log_prob's order. The action is not
    bounded here: `dynamics.step` clamps each command to [-1, 1]."""
    m = mean.tolist()
    std = np.exp(log_std).tolist()
    inv_std = np.exp(-log_std).tolist()
    eps = rng.standard_normal(len(m)).tolist()
    raw = [mi + si * ei for mi, si, ei in zip(m, std, eps)]
    total = 0.0
    for ri, mi, ki, li in zip(raw, m, inv_std, log_std.tolist()):
        z = (ri - mi) * ki
        total += z * z + 2.0 * li + LOG2PI
    return np.array(raw), -0.5 * total


class Adam:
    """First/second-moment adaptive steps with bias correction. The
    moments are float32, like the update's gradients; the step is
    computed in float32 and subtracted from the float64 parameters."""

    def __init__(self, shapes, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s, dtype=np.float32) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float32) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray],
             lr: float, t: int | None = None, first: int = 0) -> None:
        """Step number `t`, by default the next one, for the arrays from
        index `first` on. Two disjoint runs of arrays can take the same
        step on two threads at once: each names the step, and t becomes
        it."""
        t = self.t + 1 if t is None else t
        self.t = t
        b1t = 1.0 - self.beta1 ** t
        b2t = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(params, grads, self.m[first:], self.v[first:]):
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), with one float32
            # scratch array holding each intermediate term in turn
            d = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(m))
            m *= self.beta1
            m += d
            np.multiply(g, g, out=d)
            d *= 1.0 - self.beta2
            v *= self.beta2
            v += d
            np.multiply(v, 1.0 / b2t, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            np.divide(m, d, out=d)
            d *= lr / b1t
            p -= d


def clip_grads_global(grads: list[np.ndarray], max_norm: float) -> float:
    """In-place global-norm clipping; returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
