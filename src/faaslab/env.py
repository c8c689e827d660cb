"""Episodic scaling environment over the cluster simulator.

Each step decodes a 3-dimensional discrete action (horizontal target
utilization, CPU resize delta, memory resize delta), applies vertical then
horizontal scaling for one target function, lets the simulator run for an
observation window, and emits a blended negative reward.

``start_episode`` and ``run_window`` are the only code that starts, advances
and drains an episode: the agents reach them through ``reset`` and ``step``,
and the rule-based baselines call them directly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import (POD_CPU_MAX, POD_MEM_MAX, ClusterEngine, FunctionProfile,
                      SimConfig, VmSpec)
from .errors import ConfigError, SimulationError, require
from .metrics import EpisodeLedger, RewardBounds, step_reward
from .workload import WorkloadSpec, synthesize

ACTION_SIZES = (11, 11, 11)
TARGET_UTIL_MIN = 0.10
TARGET_UTIL_MAX = 0.90
CPU_DELTA_MAX = 0.25   # vCPU per action step at full deflection
MEM_DELTA_MAX = 256.0  # MB per action step at full deflection


@dataclass(frozen=True)
class ScalingAction:
    a1: int  # horizontal target-utilization index
    a2: int  # cpu resize index
    a3: int  # mem resize index

    def __post_init__(self) -> None:
        for value, size, name in zip((self.a1, self.a2, self.a3), ACTION_SIZES,
                                     ("a1", "a2", "a3")):
            if not 0 <= value < size:
                raise ConfigError(f"action index {name}={value} outside [0, {size})")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class DecodedAction:
    target_util: float
    cpu_delta: float
    mem_delta: float


def grid_value(j: int, k: int) -> float:
    """j-th point of the K-point symmetric grid over [-1, 1]."""
    if not 0 <= j < k:
        raise ConfigError(f"grid index {j} outside [0, {k})")
    return 2.0 * j / (k - 1) - 1.0


def decode(action: ScalingAction) -> DecodedAction:
    k1, k2, k3 = ACTION_SIZES
    frac = action.a1 / (k1 - 1)
    return DecodedAction(
        target_util=TARGET_UTIL_MIN + (TARGET_UTIL_MAX - TARGET_UTIL_MIN) * frac,
        cpu_delta=CPU_DELTA_MAX * grid_value(action.a2, k2),
        mem_delta=MEM_DELTA_MAX * grid_value(action.a3, k3),
    )


@dataclass(frozen=True)
class EnvConfig:
    decision_interval: float = 10.0
    observe_delay: float = 10.0
    beta: float = 1.0
    target_mode: str = "random"  # "random" (training) | "highest_rfrt" (evaluation)
    rfrt_cap: float = 20.0       # state normalizer for the response-time ratio
    rate_cap: float = 60.0       # state normalizer for arrival rate (req/s)

    def __post_init__(self) -> None:
        for key in ("decision_interval", "observe_delay", "rfrt_cap", "rate_cap"):
            require(getattr(self, key) > 0, f"env.{key} must be > 0", getattr(self, key))
        require(self.observe_delay <= self.decision_interval + 1e-9,
                "env.observe_delay must not exceed env.decision_interval", self.observe_delay)
        require(0.0 <= self.beta <= 1.0, "env.beta must lie in [0, 1]", self.beta)
        require(self.target_mode in ("random", "highest_rfrt"),
                "env.target_mode must be 'random' or 'highest_rfrt'", self.target_mode)


FEATURES_PER_VM = 7
FEATURES_PER_FN = 9


class ServerlessEnv:
    """One agent's copy of the scaling decision process.

    Environments are independent and single-threaded; training with several
    workers instantiates one environment per worker. ``log_events`` turns on
    the engine's event log, which no episode metric reads. VM capacity
    features are normalized by the fleet's largest VM.
    """

    def __init__(
        self,
        vms: Sequence[VmSpec],
        profiles: dict[int, FunctionProfile],
        env_config: EnvConfig = EnvConfig(),
        sim_config: SimConfig = SimConfig(),
        bounds: Optional[RewardBounds] = None,
        seed: int = 0,
        log_events: bool = False,
    ):
        self.vms = tuple(sorted(vms, key=lambda s: s.vm_id))
        if not self.vms:
            raise ConfigError("cluster has no VMs")
        self._max_cpu = max(s.cpu_capacity for s in self.vms)
        self._max_mem = max(s.mem_capacity for s in self.vms)
        self.profiles = dict(profiles)
        self.config = env_config
        self.sim_config = sim_config
        self.bounds = bounds
        self._rng = random.Random(seed)
        self.engine: Optional[ClusterEngine] = None
        self.ledger: Optional[EpisodeLedger] = None
        self.target_fn: Optional[int] = None
        self.done = True
        self._steps_taken = 0
        self.log_events = log_events

    @property
    def state_dim(self) -> int:
        return FEATURES_PER_VM * len(self.vms) + FEATURES_PER_FN

    # ------------------------------------------------------------------ reset

    def start_episode(self, workload: WorkloadSpec) -> None:
        """Build the engine for ``workload`` at time 0; ``reset`` adds target and state."""
        self.engine = ClusterEngine(self.vms, self.profiles, workload.applications,
                                    self.sim_config, log_events=self.log_events)
        self.engine.load_arrivals(synthesize(workload))
        self.engine.advance(0.0)
        self.ledger = EpisodeLedger(self.engine)
        steps = workload.duration / self.config.decision_interval
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("workload.duration must be a multiple of env.decision_interval")
        self.total_steps = int(round(steps))
        self._steps_taken = 0
        self.done = False

    def reset(self, workload: WorkloadSpec) -> np.ndarray:
        """Start an episode; random targets are drawn with the constructor's ``seed``."""
        self.start_episode(workload)
        self._select_target()
        return self._state()

    def _select_target(self) -> None:
        fns = self.engine.deployed_fns
        if self.config.target_mode == "random":
            self.target_fn = fns[self._rng.randrange(len(fns))]
        else:
            now = self.engine.clock
            t0 = now - self.config.observe_delay
            scored = sorted(((-self.engine.window_rfrt(fn, t0, now), fn) for fn in fns))
            self.target_fn = scored[0][1]

    # ------------------------------------------------------------------- step

    def step(self, action: ScalingAction,
             rewarded: bool = True) -> tuple[np.ndarray, Optional[float], bool, dict]:
        """Apply ``action`` to the target function and run one decision window.

        With ``rewarded=False`` (greedy evaluation) the window's reward
        channels and the reward are not computed: the reward is None, and no
        calibrated bounds are needed.
        """
        if self.done or self.engine is None:
            raise SimulationError("episode is over; call reset() before stepping")
        decoded = decode(action)
        target = self.target_fn
        t0 = self.engine.clock
        cpu_star, mem_star = self.engine.clamp_vertical(target, decoded.cpu_delta,
                                                        decoded.mem_delta)
        self.engine.apply_vertical(target, cpu_star, mem_star)
        n_delta = self.engine.horizontal_delta(target, decoded.target_util)
        self.engine.apply_horizontal(target, n_delta)

        channels = self.run_window(t0, channels=rewarded)
        reward = step_reward(channels, self.bounds, self.config.beta) if rewarded else None
        if not self.done:
            self._select_target()
        info = {
            "target_fn": target,
            "decoded": decoded,
            "clamped": (cpu_star, mem_star),
            "n_delta": n_delta,
            "channels": channels,
            "time": self.engine.clock,
        }
        return self._state(), reward, self.done, info

    def run_window(self, t0: float, channels: bool) -> Optional[tuple[float, float, float]]:
        """Advance through the decision window at ``t0``; drain after the last one.

        Returns the observation window's (rfrt, rfr, cost) if ``channels``, else None.
        """
        self.engine.advance(t0 + self.config.observe_delay)
        window = (self.ledger.window_channels(t0, t0 + self.config.observe_delay)
                  if channels else None)
        self.engine.advance(t0 + self.config.decision_interval)
        self._steps_taken += 1
        if self._steps_taken >= self.total_steps:
            while self.engine.pending_requests():
                t = self.engine.next_event_time()
                if t is None:
                    raise SimulationError("pending requests but no scheduled events")
                self.engine.advance(t)
            self.done = True
        return window

    # ------------------------------------------------------------------ state

    def _state(self) -> np.ndarray:
        cfg = self.config
        engine = self.engine
        replicas = engine.replicas_per_vm(self.target_fn)
        max_replicas = engine.config.max_replicas
        features: list[float] = []
        for vm_id, vm in engine.vms.items():
            spec = vm.spec
            features.extend((
                vm.cpu_used / spec.cpu_capacity,
                vm.mem_used / spec.mem_capacity,
                vm.cpu_allocated / spec.cpu_capacity,
                vm.mem_allocated / spec.mem_capacity,
                spec.cpu_capacity / self._max_cpu,
                spec.mem_capacity / self._max_mem,
                replicas[vm_id] / max_replicas,
            ))
        fn = engine.snapshot(self.target_fn, cfg.observe_delay)
        features.extend((
            fn.pod_cpu / POD_CPU_MAX,
            fn.pod_mem / POD_MEM_MAX,
            fn.req_cpu / POD_CPU_MAX,
            fn.req_mem / POD_MEM_MAX,
            fn.arrival_rate / cfg.rate_cap,
            fn.rfrt / cfg.rfrt_cap,
            fn.rfr,
            fn.avg_pod_cpu_util,
            fn.avg_pod_mem_util,
        ))
        state = np.clip(np.asarray(features, dtype=np.float64), 0.0, 1.0)
        if not np.all(np.isfinite(state)):
            raise SimulationError("non-finite state feature")
        return state
