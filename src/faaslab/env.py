"""Episodic scaling environment over the cluster simulator.

Each decision tick applies one command per function (``ServerlessEnv.apply``),
a replica target or a 3-dimensional discrete action (horizontal target
utilization, CPU resize delta, memory resize delta), then runs the simulator
for one decision window. ``run_episode`` drives whole episodes under a policy;
the agents' ``step`` commands one target and emits a blended negative reward
scored over the window. ``start_episode`` and ``run_window`` alone decide where
each window starts (at the engine clock) and how many there are.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cluster import (MAX_REPLICAS, POD_CPU_MAX, POD_MEM_MAX, ClusterEngine,
                      FunctionProfile, PodPhase, SimConfig, VmSpec)
from .errors import ConfigError, SimulationError, require
from .metrics import EpisodeLedger, RewardBounds, step_reward
from .workload import Arrivals, WorkloadSpec, synthesize

ACTION_SIZES = (11, 11, 11)
TARGET_UTIL_MIN = 0.10
TARGET_UTIL_MAX = 0.90
CPU_DELTA_MAX = 0.25   # vCPU per action step at full deflection
MEM_DELTA_MAX = 256.0  # MB per action step at full deflection
RFRT_CAP = 20.0        # state normalizer for the response-time ratio
RATE_CAP = 60.0        # state normalizer for arrival rate (req/s)
MAX_TICKS = 100_000    # decision windows per episode: a day at 0.864 s


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
    beta: float = 1.0
    target_mode: str = "random"  # training; "highest_rfrt": evaluation, most failing first

    def __post_init__(self) -> None:
        require(self.decision_interval > 0, "env.decision_interval must be > 0",
                self.decision_interval)
        require(0.0 <= self.beta <= 1.0, "env.beta must lie in [0, 1]", self.beta)
        require(self.target_mode in ("random", "highest_rfrt"),
                "env.target_mode must be 'random' or 'highest_rfrt'", self.target_mode)


# Each tick's commands for ``ServerlessEnv.apply``, read off the environment.
Policy = Callable[["ServerlessEnv"], Mapping[int, "ScalingAction | int"]]
FEATURES_PER_VM = 7
FEATURES_PER_FN = 9


class ServerlessEnv:
    """One copy of the scaling decision process; independent and single-threaded.

    Training with several workers instantiates one environment per worker.
    ``log_events`` turns on the engine's event log, which no episode metric
    reads. VM capacity features are normalized by the fleet's largest VM.
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
        self.log_events = log_events

    @property
    def state_dim(self) -> int:
        return FEATURES_PER_VM * len(self.vms) + FEATURES_PER_FN

    # ------------------------------------------------------------------ reset

    def start_episode(self, workload: WorkloadSpec, arrivals: Optional[Arrivals] = None) -> None:
        """Build the engine for ``workload`` at time 0; ``reset`` adds target and state.

        ``arrivals`` is ``synthesize(workload)`` made once by a caller that runs
        several episodes on one workload; when omitted it is synthesized here.
        The previous episode's engine is released first, so it is freed before
        the next one is built.
        """
        self.release()
        steps = workload.duration / self.config.decision_interval
        if not 0.5 <= steps <= MAX_TICKS:  # round(steps) must be a tick count in [1, MAX_TICKS]
            raise ConfigError(f"env.decision_interval ({self.config.decision_interval}) gives "
                              f"workload.duration ({workload.duration}) {steps:.6g} ticks, "
                              f"outside [1, {MAX_TICKS}]")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("workload.duration must be a multiple of env.decision_interval")
        self.engine = ClusterEngine(self.vms, self.profiles, workload.applications,
                                    self.sim_config, log_events=self.log_events)
        if arrivals is None:
            arrivals = synthesize(workload)
        self.engine.load_arrivals(*arrivals)
        self.engine.advance(0.0)
        self.ledger = EpisodeLedger(self.engine)
        self.total_steps = int(round(steps))
        self._steps_taken = 0
        self.done = False

    def release(self) -> None:
        """Drop the episode's engine and ledger; ``step`` then raises until the next reset."""
        self.engine = None
        self.ledger = None
        self.done = True

    def reset(self, workload: WorkloadSpec) -> np.ndarray:
        """Start an episode; random targets are drawn with the constructor's ``seed``."""
        self.start_episode(workload)
        return self.observe()

    def observe(self, target_mode: Optional[str] = None) -> np.ndarray:
        """Pick this tick's target by ``target_mode``, else the config's; return its state."""
        engine = self.engine
        fns = engine.deployed_fns
        if (target_mode or self.config.target_mode) == "random":
            self.target_fn = fns[self._rng.randrange(len(fns))]
        else:
            # Drops and queued requests outrank an empty window's neutral ratio 1.0.
            now = engine.clock
            t0 = now - self.config.decision_interval
            windows = {fn: engine.window(fn, t0, now) for fn in fns}
            self.target_fn = min(fns, key=lambda fn: (
                -(windows[fn].drops + engine.queued_requests(fn)), -windows[fn].rfrt, fn))
        return self._state()

    # ------------------------------------------------------------------- step

    def step(self, action: ScalingAction) -> tuple[np.ndarray, float, bool]:
        """Apply ``action`` to the target function, run one decision window and
        score it with the calibrated bounds."""
        if self.done or self.engine is None:
            raise SimulationError("episode is over; call reset() before stepping")
        self.apply({self.target_fn: action})
        reward = step_reward(self.run_window(channels=True), self.bounds, self.config.beta)
        return self._state() if self.done else self.observe(), reward, self.done

    def apply(self, commands: Mapping[int, ScalingAction | int]) -> None:
        """Apply each function's command in function id order. A ``ScalingAction``
        resizes the pods, then scales to its utilization target read against the
        resized limits; an ``int`` is a replica target."""
        engine = self.engine
        for fn, command in sorted(commands.items()):
            if isinstance(command, ScalingAction):
                d = decode(command)
                engine.apply_vertical(fn, *engine.clamp_vertical(fn, d.cpu_delta, d.mem_delta))
                engine.apply_horizontal(fn, engine.horizontal_delta(fn, d.target_util))
            else:
                engine.apply_horizontal(fn, command - len(engine.live_pods(fn)))

    def run_episode(self, workload: WorkloadSpec, policy: Policy, channels: bool = False,
                    arrivals: Optional[Arrivals] = None) -> list[tuple[float, float, float]]:
        """Start an episode and run it to its end, each tick applying ``policy(self)``.
        Returns every window's (rfrt, rfr, cost) if ``channels``."""
        self.start_episode(workload, arrivals)
        windows = []
        while not self.done:
            self.apply(policy(self))
            windows.append(self.run_window(channels))
        return windows if channels else []

    def run_window(self, channels: bool) -> Optional[tuple[float, float, float]]:
        """Run the decision window that starts at the engine clock; drain after the last.

        Returns the window's (rfrt, rfr, cost) if ``channels``, else None.
        """
        t0 = self.engine.clock
        t1 = t0 + self.config.decision_interval
        self.engine.advance(t1)
        window = self.ledger.window_channels(t0, t1) if channels else None
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
        engine = self.engine
        # One pass over the pods in pod-id order: each VM's CPU and memory in
        # use, and its live replicas of the target function.
        cpu_used, mem_used, replicas = (dict.fromkeys(engine.vms, 0) for _ in range(3))
        for pod in engine.pods.values():
            vm_id = pod.vm_id
            cpu_used[vm_id] += pod.cpu_used
            mem_used[vm_id] += pod.mem_used
            if pod.function_id == self.target_fn and pod.phase is not PodPhase.TERMINATING:
                replicas[vm_id] += 1
        features: list[float] = []
        for vm_id, vm in engine.vms.items():
            spec = vm.spec
            features.extend((
                cpu_used[vm_id] / spec.cpu_capacity,
                mem_used[vm_id] / spec.mem_capacity,
                vm.cpu_allocated / spec.cpu_capacity,
                vm.mem_allocated / spec.mem_capacity,
                spec.cpu_capacity / self._max_cpu,
                spec.mem_capacity / self._max_mem,
                replicas[vm_id] / MAX_REPLICAS,
            ))
        fn = engine.snapshot(self.target_fn, self.config.decision_interval)
        features.extend((
            fn.pod_cpu / POD_CPU_MAX,
            fn.pod_mem / POD_MEM_MAX,
            fn.req_cpu / POD_CPU_MAX,
            fn.req_mem / POD_MEM_MAX,
            fn.arrival_rate / RATE_CAP,
            fn.rfrt / RFRT_CAP,
            fn.rfr,
            fn.avg_pod_cpu_util,
            fn.avg_pod_mem_util,
        ))
        state = np.clip(np.asarray(features, dtype=np.float64), 0.0, 1.0)
        if not np.all(np.isfinite(state)):
            raise SimulationError("non-finite state feature")
        return state
