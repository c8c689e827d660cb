"""Multi-worker advantage actor-critic training over the scaling environment.

Every worker owns an environment copy and local network parameters. Workers
sample actions from their local actor, keep each step as the ``(state,
action, reward, next_state, done)`` tuple that ``record`` receives, and every
``update_freq`` steps (or at episode end) push gradients to the shared global
stores and pull back a fresh snapshot. ``train`` is the only entry point. It
runs the workers round-robin, one episode each, on the calling thread, so a
run is reproducible from its seed. The A3C paper runs workers as lock-free
threads; under CPython's global interpreter lock the pure-Python simulator
gains nothing from threads, so there are none. Each episode runs through
``play_episode``, the one reset-and-step loop that DQN training shares, and
``train`` takes and returns its stores by checkpoint name, as ``dqn_train`` does.
"""
from __future__ import annotations

import random
from dataclasses import astuple, dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..env import ACTION_SIZES, ScalingAction, ServerlessEnv
from ..errors import ConfigError, FaasLabError, SimulationError, require
from ..nnet import (NetworkSpec, ParameterStore, actor_loss_and_grad,
                    critic_loss_and_grad, forward_actor, forward_critic)
from ..workload import WorkloadSpec

ACTOR_HIDDEN = (150, 150)


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


@dataclass
class TrainResult:
    """A learner's trained stores by checkpoint name, and one row per episode."""
    stores: dict[str, ParameterStore]
    stats: list[EpisodeStats]


def play_episode(env: ServerlessEnv, workload: WorkloadSpec,
                 act: Callable[[np.ndarray], ScalingAction], record: Callable[..., None],
                 worker: int, episode: int) -> EpisodeStats:
    """One training episode: reset, then ``act(state)``, step and ``record(state,
    action, reward, next_state, done)`` to its end; metrics from ``env.ledger.summary()``."""
    state, done, total_reward = env.reset(workload), False, 0.0
    while not done:
        action = act(state)
        next_state, reward, done = env.step(action)
        record(state, action, reward, next_state, done)
        total_reward += reward
        state = next_state
    summary = env.ledger.summary()
    return EpisodeStats(worker, episode, total_reward, summary.rfrt, summary.rfr, summary.cost)


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


def step_columns(steps: Sequence[tuple]) -> tuple:
    """``record``'s ``(state, action, reward, next_state, done)`` steps as five
    columns, the states and next states stacked into arrays."""
    if not steps:
        raise ConfigError("empty batch of steps")
    states, actions, rewards, next_states, done = zip(*steps)
    return np.stack(states), actions, rewards, np.stack(next_states), done


def td_target(rewards: Sequence[float], bootstrap: np.ndarray, done: Sequence[bool],
              gamma: float) -> np.ndarray:
    """One-step TD targets r + gamma * bootstrap, the bootstrap 0 past a terminal step."""
    return np.array(rewards, dtype=np.float64) + gamma * np.where(
        np.array(done, dtype=bool), 0.0, bootstrap)


def compute_advantages(columns: tuple, critic_spec: NetworkSpec, critic_params: Sequence[np.ndarray],
                       gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step TD advantages and critic targets for a segment's ``step_columns``:
    the target bootstraps V(s_{t+1}) and the advantage is the target - V(s_t)."""
    states, _, rewards, next_states, done = columns
    v = forward_critic(critic_spec, critic_params, states)
    targets = td_target(rewards, forward_critic(critic_spec, critic_params, next_states),
                        done, gamma)
    return targets - v, targets


def resumed(store: Optional[ParameterStore], spec: NetworkSpec, name: str) -> ParameterStore:
    """``store`` if it was built to ``spec``, a fresh store if it is None; a
    ConfigError naming each field that differs otherwise."""
    if store is None:
        return ParameterStore(spec)
    diffs = [f"{f.name} {a!r} in the checkpoint, {b!r} in this run"
             for f, a, b in zip(fields(spec), astuple(store.spec), astuple(spec)) if a != b]
    if diffs:
        raise ConfigError(f"resumed {name} checkpoint does not match: " + "; ".join(diffs))
    return store


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
        self.memory: list[tuple] = []  # the segment's steps since the last flush

    def _act(self, state: np.ndarray) -> ScalingAction:
        return select_action(self.actor_spec, self.local_actor, state, self.rng)

    def _record(self, state: np.ndarray, action: ScalingAction, reward: float,
                next_state: np.ndarray, done: bool) -> None:
        self.memory.append((state, action, reward, next_state, done))
        self.t += 1
        if self.t % self.config.update_freq == 0 or done:
            self._flush()

    def _flush(self) -> None:
        columns = step_columns(self.memory)
        advantages, targets = compute_advantages(columns, self.critic_spec,
                                                 self.local_critic, self.config.gamma)
        states, actions = columns[0], np.array([a.as_tuple() for a in columns[1]], dtype=np.int64)
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

    def run_episode(self, workload: WorkloadSpec, episode: int) -> EpisodeStats:
        try:
            return play_episode(self.env, workload, self._act, self._record,
                                self.worker_id, episode)
        except FaasLabError as exc:
            raise type(exc)(f"worker {self.worker_id}: {exc}") from exc


def train(
    envs: Sequence[ServerlessEnv],
    pool: Sequence[WorkloadSpec],
    config: TrainConfig,
    stores: Optional[Mapping[str, ParameterStore]] = None,
    on_episode: Optional[Callable[[EpisodeStats], None]] = None,
) -> TrainResult:
    """Run ``config.workers`` workers against shared global stores.

    ``stores`` may hold a resumed ``actor`` and ``critic``; a missing one starts
    fresh. The result's ``stores`` holds both under those names.

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
    stores = stores or {}
    actor = resumed(stores.get("actor"), actor_spec, "actor")
    critic = resumed(stores.get("critic"), critic_spec, "critic")

    order = list(pool)
    random.Random(config.seed).shuffle(order)
    stats: list[EpisodeStats] = []
    workers = [_Worker(w, envs[w], actor_spec, critic_spec, actor, critic, config)
               for w in range(config.workers)]
    for episode in range(config.episodes):
        for worker in workers:
            workload = order[(worker.worker_id + episode * config.workers) % len(order)]
            row = worker.run_episode(workload, episode)
            stats.append(row)
            if on_episode is not None:
                on_episode(row)
            # on_episode may read the engine; afterwards only one worker's is alive.
            worker.env.release()
    return TrainResult({"actor": actor, "critic": critic}, stats)
