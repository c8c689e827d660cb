"""Single-agent DQN baseline over compound actions.

The three action dimensions are coarsened to four points each (the outermost,
inner-third, and middle indices of the 11-point grid), giving 64 compound
actions scored by one value head. Uniform replay, a periodically refreshed
target network, and linearly annealed epsilon-greedy exploration complete the
standard recipe.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..env import ScalingAction, ServerlessEnv
from ..errors import ConfigError, require
from ..nnet import NetworkSpec, ParameterStore, forward_heads, q_loss_and_grad
from ..workload import WorkloadSpec
from .a3c import EpisodeStats, TrainConfig

DQN_GRID_POINTS = (0, 3, 7, 10)  # indices into the 11-point action grid
N_COMPOUND_ACTIONS = len(DQN_GRID_POINTS) ** 3
EPS_START = 1.0  # exploration rate at the first step,
EPS_END = 0.05   # annealed linearly to this over the first half of the run's steps


def compound_to_action(index: int) -> ScalingAction:
    """Mixed-radix decode: index -> (a1, a2, a3) on the coarse grid."""
    if not 0 <= index < N_COMPOUND_ACTIONS:
        raise ConfigError(f"compound action {index} outside [0, {N_COMPOUND_ACTIONS})")
    base = len(DQN_GRID_POINTS)
    i1, rem = divmod(index, base * base)
    i2, i3 = divmod(rem, base)
    return ScalingAction(DQN_GRID_POINTS[i1], DQN_GRID_POINTS[i2], DQN_GRID_POINTS[i3])


def greedy_index(values: np.ndarray) -> int:
    """Argmax over one head's action values or probabilities; ties resolve to the lowest index."""
    return int(np.argmax(values))


@dataclass(frozen=True)
class DqnConfig:
    """DQN's own schedule and step size; its discount, trunk and seed are ``train``'s."""
    episodes: int = 300
    lr: float = 1e-4
    buffer_capacity: int = 10_000
    batch_size: int = 32
    target_refresh: int = 200   # gradient updates between target-network syncs

    def __post_init__(self) -> None:
        for key in ("episodes", "batch_size", "target_refresh"):
            require(getattr(self, key) >= 1, f"dqn.{key} must be >= 1", getattr(self, key))
        require(self.buffer_capacity >= self.batch_size,
                "dqn.buffer_capacity must be >= dqn.batch_size", self.buffer_capacity)
        require(0 < self.lr <= 1, "dqn.lr must lie in (0, 1]", self.lr)


@dataclass
class DqnResult:
    store: ParameterStore
    stats: list[EpisodeStats]


def dqn_train(
    env: ServerlessEnv,
    pool: Sequence[WorkloadSpec],
    config: DqnConfig,
    shared: TrainConfig,
    store: Optional[ParameterStore] = None,
) -> DqnResult:
    if not pool:
        raise ConfigError("empty workload pool")
    spec = NetworkSpec(input_dim=env.state_dim, hidden=shared.hidden,
                       head_sizes=(N_COMPOUND_ACTIONS,), seed=shared.seed)
    if store is None:
        store = ParameterStore(spec)
    elif store.spec != spec:
        raise ConfigError("resumed DQN checkpoint does not match the environment")
    target_params = store.snapshot()
    rng = np.random.default_rng(shared.seed)
    buffer: deque = deque(maxlen=config.buffer_capacity)

    global_step = 0
    updates = 0
    stats: list[EpisodeStats] = []

    for episode in range(config.episodes):
        workload = pool[episode % len(pool)]
        state = env.reset(workload)
        anneal_steps = max(1, config.episodes * env.total_steps // 2)
        done = False
        total_reward = 0.0
        while not done:
            frac = min(1.0, global_step / anneal_steps)
            eps = EPS_START + (EPS_END - EPS_START) * frac
            if rng.random() < eps:
                a_idx = int(rng.integers(N_COMPOUND_ACTIONS))
            else:
                values = forward_heads(spec, store.params, state)[0][0]
                a_idx = greedy_index(values)
            next_state, reward, done = env.step(compound_to_action(a_idx))
            buffer.append((state, a_idx, reward, next_state, done))
            total_reward += reward
            state = next_state
            global_step += 1
            if len(buffer) >= config.batch_size:
                picks = rng.choice(len(buffer), size=config.batch_size, replace=False)
                batch = [buffer[i] for i in picks]
                states = np.stack([b[0] for b in batch])
                actions = np.array([b[1] for b in batch], dtype=np.int64)
                rewards = np.array([b[2] for b in batch], dtype=np.float64)
                next_states = np.stack([b[3] for b in batch])
                terminal = np.array([b[4] for b in batch], dtype=bool)
                next_q = forward_heads(spec, target_params, next_states)[0]
                bootstrap = np.where(terminal, 0.0, next_q.max(axis=1))
                targets = rewards + shared.gamma * bootstrap
                _, grads = q_loss_and_grad(spec, store.params, states, actions, targets)
                store.apply(grads, lr=config.lr)
                updates += 1
                if updates % config.target_refresh == 0:
                    target_params = store.snapshot()
        summary = env.ledger.summary()
        stats.append(EpisodeStats(worker=0, episode=episode, reward=total_reward,
                                  rfrt=summary.rfrt, rfr=summary.rfr, cost=summary.cost,
                                  updates=updates))
    return DqnResult(store=store, stats=stats)
