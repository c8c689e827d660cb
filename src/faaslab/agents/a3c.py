"""Multi-worker advantage actor-critic training over the scaling environment.

Every worker owns an environment copy and local network parameters. Workers
sample actions from their local actor, accumulate transitions, and every
``update_freq`` steps (or at episode end) push gradients to the shared global
stores and pull back a fresh snapshot. ``train`` is the only entry point. It
runs the workers round-robin, one episode each, on the calling thread, so a
run is reproducible from its seed. The A3C paper runs workers as lock-free
threads; under CPython's global interpreter lock the pure-Python simulator
gains nothing from threads, so there are none.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..env import ACTION_SIZES, ScalingAction, ServerlessEnv
from ..errors import ConfigError, FaasLabError, SimulationError, require
from ..nnet import (NetworkSpec, ParameterStore, actor_loss_and_grad,
                    critic_loss_and_grad, forward_actor, forward_critic)
from ..workload import WorkloadSpec

ACTOR_HIDDEN = (150, 150)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: ScalingAction
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class TrainConfig:
    workers: int = 3
    episodes: int = 100            # per worker
    gamma: float = 0.6
    lr: float = 1e-4
    update_freq: int = 30
    entropy_beta: float = 0.01
    seed: int = 7
    sync_mode: str = "deterministic"  # the only mode; kept for configs that name it
    hidden: tuple[int, ...] = ACTOR_HIDDEN

    def __post_init__(self) -> None:
        for key in ("workers", "episodes", "update_freq"):
            require(getattr(self, key) >= 1, f"train.{key} must be >= 1", getattr(self, key))
        require(0.0 <= self.gamma < 1.0, "train.gamma must lie in [0, 1)", self.gamma)
        require(0 < self.lr <= 1, "train.lr must lie in (0, 1]", self.lr)
        require(0 <= self.entropy_beta <= 1, "train.entropy_beta must lie in [0, 1]", self.entropy_beta)
        require(self.seed >= 0, "train.seed must be >= 0", self.seed)
        require(self.sync_mode == "deterministic", "train.sync_mode must be 'deterministic' "
                "(workers run round-robin on one thread)", self.sync_mode)
        require(all(h >= 1 for h in self.hidden), "train.hidden widths must be >= 1",
                self.hidden)


@dataclass
class EpisodeStats:
    worker: int
    episode: int
    reward: float
    rfrt: float
    rfr: float
    cost: float
    updates: int


@dataclass
class TrainResult:
    actor: ParameterStore
    critic: ParameterStore
    stats: list[EpisodeStats]


def select_action(spec: NetworkSpec, params: Sequence[np.ndarray], state: np.ndarray,
                  rng: np.random.Generator) -> ScalingAction:
    """Sample one index per head of the factorized policy (greedy evaluation
    takes each head's ``greedy_index`` instead, in ``agents.evaluate``)."""
    probs = [head[0] for head in forward_actor(spec, params, state)]
    return ScalingAction(*(sample_index(p / p.sum(), rng) for p in probs))


def sample_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(p), p=p)`` by the same inverse-CDF lookup and one
    ``rng.random()`` draw, without ``choice``'s per-call argument checks."""
    cdf = p.cumsum()
    if not cdf[-1] > 0:  # also NaN, which searchsorted would map to index 0
        raise SimulationError(f"policy probabilities sum to {cdf[-1]}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def compute_advantages(
    transitions: Sequence[Transition],
    critic_spec: NetworkSpec,
    critic_params: Sequence[np.ndarray],
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step TD advantages and critic targets for a contiguous segment.

    advantage_t = r_t + gamma * V(s_{t+1}) - V(s_t), bootstrapping 0 past a
    terminal transition; the critic target is r_t + gamma * V(s_{t+1}).
    """
    if not transitions:
        raise ConfigError("empty transition segment")
    states = np.stack([t.state for t in transitions])
    next_states = np.stack([t.next_state for t in transitions])
    rewards = np.array([t.reward for t in transitions], dtype=np.float64)
    terminal = np.array([t.terminal for t in transitions], dtype=bool)
    v = forward_critic(critic_spec, critic_params, states)
    v_next = forward_critic(critic_spec, critic_params, next_states)
    v_next = np.where(terminal, 0.0, v_next)
    targets = rewards + gamma * v_next
    return targets - v, targets


class _Worker:
    """Per-worker mutable state: local parameters, step counter, memory."""

    def __init__(self, worker_id: int, env: ServerlessEnv, actor_spec: NetworkSpec,
                 critic_spec: NetworkSpec, global_actor: ParameterStore,
                 global_critic: ParameterStore, config: TrainConfig):
        self.worker_id = worker_id
        self.env = env
        self.actor_spec = actor_spec
        self.critic_spec = critic_spec
        self.global_actor = global_actor
        self.global_critic = global_critic
        self.config = config
        self.rng = np.random.default_rng(config.seed + 1000 * worker_id)
        self.local_actor = global_actor.snapshot()
        self.local_critic = global_critic.snapshot()
        self.t = 0  # lifetime step counter; update cadence runs off it
        self.memory: list[Transition] = []
        self.updates = 0

    def _flush(self) -> None:
        advantages, targets = compute_advantages(self.memory, self.critic_spec,
                                                 self.local_critic, self.config.gamma)
        states = np.stack([t.state for t in self.memory])
        actions = np.array([t.action.as_tuple() for t in self.memory], dtype=np.int64)
        _, actor_grads = actor_loss_and_grad(self.actor_spec, self.local_actor,
                                             states, actions, advantages,
                                             self.config.entropy_beta)
        _, critic_grads = critic_loss_and_grad(self.critic_spec, self.local_critic,
                                               states, targets)
        # Actor gradients arrive in the ascent direction; the store descends.
        self.global_actor.apply([-g for g in actor_grads], lr=self.config.lr)
        self.global_critic.apply(critic_grads, lr=self.config.lr)
        self.local_actor = self.global_actor.snapshot()
        self.local_critic = self.global_critic.snapshot()
        self.memory.clear()
        self.updates += 1

    def run_episode(self, workload: WorkloadSpec, episode: int) -> EpisodeStats:
        try:
            state = self.env.reset(workload)
            done = False
            total_reward = 0.0
            while not done:
                action = select_action(self.actor_spec, self.local_actor, state, self.rng)
                next_state, reward, done = self.env.step(action)
                self.memory.append(Transition(state, action, reward, next_state, done))
                total_reward += reward
                self.t += 1
                if self.t % self.config.update_freq == 0 or done:
                    self._flush()
                state = next_state
        except FaasLabError as exc:
            raise type(exc)(f"worker {self.worker_id}: {exc}") from exc
        summary = self.env.ledger.summary()
        return EpisodeStats(worker=self.worker_id, episode=episode,
                            reward=total_reward, rfrt=summary.rfrt,
                            rfr=summary.rfr, cost=summary.cost,
                            updates=self.updates)


def train(
    envs: Sequence[ServerlessEnv],
    pool: Sequence[WorkloadSpec],
    config: TrainConfig,
    actor_store: Optional[ParameterStore] = None,
    critic_store: Optional[ParameterStore] = None,
    on_episode: Optional[Callable[[EpisodeStats], None]] = None,
) -> TrainResult:
    """Run ``config.workers`` workers against shared global stores.

    The workload pool is shuffled once (seeded); worker ``w``'s episode ``e``
    takes entry ``(w + e * workers) % len(pool)``. Workers advance
    round-robin, one episode each, on the calling thread. ``on_episode`` gets
    each episode's row while that worker's ``env.engine`` and ``env.ledger``
    still hold the episode; when it returns they are released.
    """
    if len(envs) != config.workers:
        raise ConfigError(f"need {config.workers} environments, got {len(envs)}")
    if not pool:
        raise ConfigError("empty workload pool")
    state_dim = envs[0].state_dim
    actor_spec = NetworkSpec(input_dim=state_dim, hidden=config.hidden,
                             head_sizes=ACTION_SIZES, seed=config.seed)
    critic_spec = NetworkSpec(input_dim=state_dim, hidden=config.hidden,
                              head_sizes=(1,), seed=config.seed + 1)
    if actor_store is None:
        actor_store = ParameterStore(actor_spec)
    elif actor_store.spec != actor_spec:
        raise ConfigError("resumed actor checkpoint does not match the environment")
    if critic_store is None:
        critic_store = ParameterStore(critic_spec)
    elif critic_store.spec != critic_spec:
        raise ConfigError("resumed critic checkpoint does not match the environment")

    order = list(pool)
    random.Random(config.seed).shuffle(order)
    stats: list[EpisodeStats] = []
    workers = [_Worker(w, envs[w], actor_spec, critic_spec, actor_store,
                       critic_store, config) for w in range(config.workers)]
    for episode in range(config.episodes):
        for worker in workers:
            workload = order[(worker.worker_id + episode * config.workers) % len(order)]
            row = worker.run_episode(workload, episode)
            stats.append(row)
            if on_episode is not None:
                on_episode(row)
            # on_episode may read the engine; afterwards only one worker's is alive.
            worker.env.release()
    return TrainResult(actor=actor_store, critic=critic_store, stats=stats)
