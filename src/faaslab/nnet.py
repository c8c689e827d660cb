"""Minimal dense-network substrate used by the actor, critic, and Q-learner.

A network is a ReLU trunk followed by one or more linear heads: the actor has
one softmax head per action dimension, the critic a single scalar head, the
Q-learner one head over compound actions. Parameters live in flat lists of
numpy arrays; gradients are computed by explicit backpropagation so they can
be verified against finite differences.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-8  # guards log() against zero-probability actions

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden: tuple[int, ...] = (150, 150)
    head_sizes: tuple[int, ...] = (1,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1 or any(h < 1 for h in self.hidden) \
                or any(h < 1 for h in self.head_sizes) or not self.head_sizes:
            raise ConfigError("network dimensions must be positive")

    @property
    def n_trunk(self) -> int:
        return len(self.hidden)


def init_params(spec: NetworkSpec) -> list[np.ndarray]:
    """Fan-in-scaled uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(spec.seed)
    params: list[np.ndarray] = []
    fan_in = spec.input_dim
    for width in spec.hidden:
        bound = 1.0 / np.sqrt(fan_in)
        params.append(rng.uniform(-bound, bound, size=(fan_in, width)))
        params.append(np.zeros(width))
        fan_in = width
    for head in spec.head_sizes:
        bound = 1.0 / np.sqrt(fan_in)
        params.append(rng.uniform(-bound, bound, size=(fan_in, head)))
        params.append(np.zeros(head))
    return params


def _check_input(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.input_dim:
        raise ConfigError(f"input dimension {x.shape[1]} != expected {spec.input_dim}")
    return x


def _forward(spec: NetworkSpec, params: Sequence[np.ndarray],
             x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (per-head raw outputs, trunk activations incl. input)."""
    acts = [x]
    h = x
    for i in range(spec.n_trunk):
        w, b = params[2 * i], params[2 * i + 1]
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    heads = []
    base = 2 * spec.n_trunk
    for j in range(len(spec.head_sizes)):
        w, b = params[base + 2 * j], params[base + 2 * j + 1]
        heads.append(h @ w + b)
    return heads, acts


def _backward(spec: NetworkSpec, params: Sequence[np.ndarray],
              acts: list[np.ndarray],
              head_grads: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Parameter gradients given d(loss)/d(head outputs)."""
    grads: list[Optional[np.ndarray]] = [None] * len(params)
    base = 2 * spec.n_trunk
    top = acts[-1]
    delta = np.zeros_like(top)
    for j, g in enumerate(head_grads):
        w = params[base + 2 * j]
        grads[base + 2 * j] = top.T @ g
        grads[base + 2 * j + 1] = g.sum(axis=0)
        delta += g @ w.T
    for i in range(spec.n_trunk - 1, -1, -1):
        delta = delta * (acts[i + 1] > 0.0)
        w = params[2 * i]
        grads[2 * i] = acts[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ w.T
    return grads  # type: ignore[return-value]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_heads(spec: NetworkSpec, params: Sequence[np.ndarray],
                  x: np.ndarray) -> list[np.ndarray]:
    """Raw (linear) head outputs, one (batch, head_size) array per head."""
    heads, _ = _forward(spec, params, _check_input(spec, x))
    return heads


def forward_actor(spec: NetworkSpec, params: Sequence[np.ndarray],
                  x: np.ndarray) -> list[np.ndarray]:
    """Per-head action probabilities via softmax over each head's logits."""
    return [_softmax(h) for h in forward_heads(spec, params, x)]


def forward_critic(spec: NetworkSpec, params: Sequence[np.ndarray],
                   x: np.ndarray) -> np.ndarray:
    if spec.head_sizes != (1,):
        raise ConfigError("critic networks need a single scalar head")
    return forward_heads(spec, params, x)[0][:, 0]


def head_entropy(probs: np.ndarray) -> np.ndarray:
    p = np.maximum(probs, PROB_FLOOR)
    return -(probs * np.log(p)).sum(axis=1)


def actor_loss_and_grad(
    spec: NetworkSpec,
    params: Sequence[np.ndarray],
    states: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    entropy_beta: float = 0.0,
) -> tuple[float, list[np.ndarray]]:
    """Policy objective and its gradient in the ascent direction.

    objective = mean_t [ sum_i log p_i(a_i | s_t) * A_t + entropy_beta * H(pi(s_t)) ]
    Advantages are treated as constants. Callers negate the gradients before
    handing them to a descent-style optimizer.
    """
    x = _check_input(spec, states)
    actions = np.atleast_2d(np.asarray(actions, dtype=np.int64))
    advantages = np.asarray(advantages, dtype=np.float64).reshape(-1)
    batch = x.shape[0]
    if actions.shape != (batch, len(spec.head_sizes)) or advantages.shape[0] != batch:
        raise ConfigError("batch shapes disagree")
    heads, acts = _forward(spec, params, x)
    loss = 0.0
    head_grads = []
    rows = np.arange(batch)
    for i, logits in enumerate(heads):
        probs = _softmax(logits)
        chosen = probs[rows, actions[:, i]]
        ent = head_entropy(probs)
        loss += float(np.mean(np.log(np.maximum(chosen, PROB_FLOOR)) * advantages
                              + entropy_beta * ent))
        onehot = np.zeros_like(probs)
        onehot[rows, actions[:, i]] = 1.0
        g_logp = (onehot - probs) * advantages[:, None]
        logp = np.log(np.maximum(probs, PROB_FLOOR))
        g_ent = -probs * (logp + ent[:, None])
        head_grads.append((g_logp + entropy_beta * g_ent) / batch)
    return loss, _backward(spec, params, acts, head_grads)


def critic_loss_and_grad(
    spec: NetworkSpec,
    params: Sequence[np.ndarray],
    states: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared TD error and its gradient in the descent direction: the
    ``q_loss_and_grad`` of the one scalar head, with every action index 0."""
    if spec.head_sizes != (1,):
        raise ConfigError("critic networks need a single scalar head")
    actions = np.zeros(len(np.atleast_2d(states)), dtype=np.int64)
    return q_loss_and_grad(spec, params, states, actions, targets)


def q_loss_and_grad(
    spec: NetworkSpec,
    params: Sequence[np.ndarray],
    states: np.ndarray,
    action_indices: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error on the chosen action's value, descent direction."""
    x = _check_input(spec, states)
    idx = np.asarray(action_indices, dtype=np.int64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    heads, acts = _forward(spec, params, x)
    q = heads[0]
    batch = x.shape[0]
    if idx.shape != (batch,) or targets.shape != (batch,):
        raise ConfigError("batch shapes disagree")
    rows = np.arange(batch)
    err = q[rows, idx] - targets
    loss = float(np.mean(err ** 2))
    grad_out = np.zeros_like(q)
    grad_out[rows, idx] = 2.0 * err / batch
    return loss, _backward(spec, params, acts, [grad_out])


def global_norm(grads: Sequence[np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))


class ParameterStore:
    """Shared weights plus optimizer state.

    ``snapshot`` copies the weights out; ``apply`` takes one Adam step. The
    version counter increases by one per applied update (used for bias
    correction and bookkeeping).
    """

    def __init__(self, spec: NetworkSpec, params: Optional[list[np.ndarray]] = None):
        self.spec = spec
        self.params = [p.copy() for p in (params or init_params(spec))]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.version = 0

    def snapshot(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]

    def apply(self, grads: Sequence[np.ndarray], lr: float = 1e-4,
              clip_norm: Optional[float] = None) -> int:
        """Adam descent step on the given gradients; returns the new version."""
        if len(grads) != len(self.params):
            raise ConfigError("gradient list length mismatch")
        for g, p in zip(grads, self.params):
            if g.shape != p.shape:
                raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if clip_norm is not None:
            norm = global_norm(grads)
            if norm > clip_norm:
                grads = [g * (clip_norm / norm) for g in grads]
        self.version += 1
        t = self.version
        bias1 = 1.0 - ADAM_BETA1 ** t
        bias2 = 1.0 - ADAM_BETA2 ** t
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g ** 2
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        return self.version

    # ------------------------------------------------------------ checkpoints

    def save(self, path: str | Path) -> None:
        meta = {
            "format": CHECKPOINT_FORMAT,
            "input_dim": self.spec.input_dim,
            "hidden": list(self.spec.hidden),
            "head_sizes": list(self.spec.head_sizes),
            "seed": self.spec.seed,
            "version": self.version,
        }
        arrays = {f"p{i}": p for i, p in enumerate(self.params)}
        arrays.update({f"m{i}": m for i, m in enumerate(self.m)})
        arrays.update({f"v{i}": v for i, v in enumerate(self.v)})
        with Path(path).open("wb") as fh:  # keep the exact path, no .npz suffixing
            np.savez(fh, meta=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "ParameterStore":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"checkpoint {path} not found")
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if meta.get("format") != CHECKPOINT_FORMAT:
                    raise ConfigError(f"{path}: unsupported checkpoint format "
                                      f"{meta.get('format')}")
                spec = NetworkSpec(input_dim=int(meta["input_dim"]),
                                   hidden=tuple(meta["hidden"]),
                                   head_sizes=tuple(meta["head_sizes"]),
                                   seed=int(meta["seed"]))
                store = cls(spec)
                n = len(store.params)
                for i in range(n):
                    for attr, key in ((store.params, f"p{i}"), (store.m, f"m{i}"),
                                      (store.v, f"v{i}")):
                        arr = data[key]
                        if arr.shape != attr[i].shape:
                            raise ConfigError(f"{path}: array {key} has shape {arr.shape}, "
                                              f"expected {attr[i].shape}")
                        if not np.isfinite(arr).all():
                            raise ConfigError(f"{path}: array {key} holds non-finite values")
                        attr[i] = arr.astype(np.float64)
                store.version = int(meta["version"])
        except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError,
                zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: corrupt checkpoint "
                              f"({type(exc).__name__}: {exc})") from None
        return store
