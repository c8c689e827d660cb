"""Single-agent DQN baseline over compound actions.

The three action dimensions are coarsened to four points each (the outermost,
inner-third, and middle indices of the 11-point grid), giving 64 compound
actions scored by one value head. Uniform replay, a periodically refreshed
target network, and linearly annealed epsilon-greedy exploration complete the
standard recipe. Episodes run through ``a3c.play_episode``, the training loop
the actor-critic workers use, and the replay buffer keeps each step as the
``(state, action, reward, next_state, done)`` tuple that ``record`` receives.
``dqn_train`` takes and returns its store as ``a3c.train`` does, named ``dqn``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..env import ScalingAction, ServerlessEnv
from ..errors import ConfigError, require
from ..nnet import NetworkSpec, ParameterStore, forward_heads, q_loss_and_grad
from ..workload import WorkloadSpec
from .a3c import (TrainConfig, TrainResult, play_episode, resumed, step_columns,
                  td_target)

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


# compound_to_action's inverse, for the actions that the replay buffer keeps
ACTION_INDEX = {compound_to_action(i): i for i in range(N_COMPOUND_ACTIONS)}


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


def dqn_train(
    envs: Sequence[ServerlessEnv],
    pool: Sequence[WorkloadSpec],
    config: TrainConfig,
    stores: Optional[Mapping[str, ParameterStore]] = None,
    *,
    dqn: DqnConfig,
) -> TrainResult:
    """Train on ``envs``' one environment over ``pool`` in order; ``stores`` may hold ``dqn``."""
    if len(envs) != 1:
        raise ConfigError(f"need 1 environment, got {len(envs)}")
    if not pool:
        raise ConfigError("empty workload pool")
    env = envs[0]
    spec = NetworkSpec(input_dim=env.state_dim, hidden=config.hidden,
                       head_sizes=(N_COMPOUND_ACTIONS,), seed=config.seed)
    store = resumed((stores or {}).get("dqn"), spec, "DQN")
    target_params = store.snapshot()
    rng = np.random.default_rng(config.seed)
    buffer: deque = deque(maxlen=dqn.buffer_capacity)
    global_step = updates = 0

    def act(state: np.ndarray) -> ScalingAction:
        anneal_steps = max(1, dqn.episodes * env.total_steps // 2)
        eps = EPS_START + (EPS_END - EPS_START) * min(1.0, global_step / anneal_steps)
        if rng.random() < eps:
            return compound_to_action(int(rng.integers(N_COMPOUND_ACTIONS)))
        return compound_to_action(greedy_index(forward_heads(spec, store.params, state)[0][0]))

    def record(state, action, reward, next_state, done) -> None:
        nonlocal global_step, updates, target_params
        buffer.append((state, action, reward, next_state, done))
        global_step += 1
        if len(buffer) < dqn.batch_size:
            return
        picks = rng.choice(len(buffer), size=dqn.batch_size, replace=False)
        states, actions, rewards, next_states, terminal = step_columns([buffer[i] for i in picks])
        next_q = forward_heads(spec, target_params, next_states)[0]
        targets = td_target(rewards, next_q.max(axis=1), terminal, config.gamma)
        _, grads = q_loss_and_grad(spec, store.params, states, np.array(
            [ACTION_INDEX[a] for a in actions], dtype=np.int64), targets)
        store.apply(grads, lr=dqn.lr)
        updates += 1
        if updates % dqn.target_refresh == 0:
            target_params = store.snapshot()

    stats = [play_episode(env, pool[episode % len(pool)], act, record, 0, episode)
             for episode in range(dqn.episodes)]
    return TrainResult({"dqn": store}, stats)
