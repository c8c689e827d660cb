"""Rule-based horizontal scalers driven through the same simulator stepping.

Unlike the learned agent, which reconfigures a single target function per
decision tick, these controllers evaluate every deployed function on every
tick (matching how the real autoscalers operate). None of them emit vertical
resizes. Episodes start, advance and drain through ``ServerlessEnv``, the
same code that runs the learned agents' episodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cluster import (ClusterEngine, FunctionProfile, FunctionSnapshot, SimConfig,
                      VmSpec, ceil_guarded, cpu_target_replicas)
from .env import EnvConfig, ServerlessEnv
from .errors import ConfigError, require
from .metrics import EpisodeMetrics
from .workload import WorkloadSpec


@dataclass(frozen=True)
class KnativeConfig:
    target_concurrency: float = 4.0
    target_utilization: float = 0.75

    def __post_init__(self) -> None:
        require(self.target_concurrency > 0, "baselines.knative.target_concurrency must be > 0",
                self.target_concurrency)
        require(0 < self.target_utilization <= 1,
                "baselines.knative.target_utilization must lie in (0, 1]",
                self.target_utilization)


@dataclass(frozen=True)
class KubeCpuConfig:
    cpu_threshold: float = 0.50

    def __post_init__(self) -> None:
        require(0 < self.cpu_threshold <= 1, "baselines.kube_cpu.cpu_threshold must lie in (0, 1]",
                self.cpu_threshold)


@dataclass(frozen=True)
class OpenFaasConfig:
    capacity_threshold: float = 4.0
    rps_threshold: float = 8.0
    cpu_threshold: float = 0.50
    long_exec_cutoff: float = 2.0    # seconds; slower functions use capacity mode
    high_rate_cutoff: float = 20.0   # req/s; faster+busier functions use rps mode

    def __post_init__(self) -> None:
        for key in ("capacity_threshold", "rps_threshold", "long_exec_cutoff",
                    "high_rate_cutoff"):
            require(getattr(self, key) > 0, f"baselines.openfaas.{key} must be > 0",
                    getattr(self, key))
        # cpu mode decides with the kube_cpu rule, which needs (0, 1]
        require(0 < self.cpu_threshold <= 1,
                "baselines.openfaas.cpu_threshold must lie in (0, 1]", self.cpu_threshold)


@dataclass(frozen=True)
class BaselinePolicyConfig:
    knative: KnativeConfig = field(default_factory=KnativeConfig)
    kube_cpu: KubeCpuConfig = field(default_factory=KubeCpuConfig)
    openfaas: OpenFaasConfig = field(default_factory=OpenFaasConfig)


def _outstanding(snap: FunctionSnapshot) -> int:
    # Concurrency as the autoscaler sees it: executing plus waiting requests.
    return snap.running_requests + snap.queued_requests


def knative_decide(snap: FunctionSnapshot, cfg: KnativeConfig,
                   max_replicas: int) -> int:
    desired = ceil_guarded(_outstanding(snap)
                           / (cfg.target_concurrency * cfg.target_utilization))
    return min(max(desired, 0), max_replicas)


def kube_cpu_decide(snap: FunctionSnapshot, cfg: KubeCpuConfig,
                    max_replicas: int) -> int:
    return cpu_target_replicas(snap.replicas, snap.avg_pod_cpu_util, snap.queued_requests,
                               cfg.cpu_threshold, max_replicas)


def openfaas_decide(snap: FunctionSnapshot, cfg: OpenFaasConfig,
                    max_replicas: int) -> int:
    if snap.standard_response_time > cfg.long_exec_cutoff:
        desired = ceil_guarded(_outstanding(snap) / cfg.capacity_threshold)
    elif snap.arrival_rate > cfg.high_rate_cutoff:
        desired = ceil_guarded(snap.arrival_rate / cfg.rps_threshold)
    else:  # cpu mode: the kube_cpu rule
        return cpu_target_replicas(snap.replicas, snap.avg_pod_cpu_util, snap.queued_requests,
                                   cfg.cpu_threshold, max_replicas)
    return min(max(desired, 0), max_replicas)


BASELINES = ("knative", "kube_cpu", "openfaas")


def decide(policy: str, snap: FunctionSnapshot, cfg: BaselinePolicyConfig,
           max_replicas: int) -> int:
    if policy == "knative":
        return knative_decide(snap, cfg.knative, max_replicas)
    if policy == "kube_cpu":
        return kube_cpu_decide(snap, cfg.kube_cpu, max_replicas)
    if policy == "openfaas":
        return openfaas_decide(snap, cfg.openfaas, max_replicas)
    raise ConfigError(f"unknown baseline {policy!r}; choose from {BASELINES}")


@dataclass
class BaselineResult:
    summary: EpisodeMetrics
    channels: list[tuple[float, float, float]]
    engine: ClusterEngine


def run_baseline(
    policy: str,
    vms: Sequence[VmSpec],
    profiles: dict[int, FunctionProfile],
    workload: WorkloadSpec,
    env_config: EnvConfig = EnvConfig(),
    sim_config: SimConfig = SimConfig(),
    policy_config: Optional[BaselinePolicyConfig] = None,
    collect_channels: bool = False,
    log_events: bool = False,
) -> BaselineResult:
    """One full episode under a rule-based scaler.

    Every ``decision_interval`` the policy's desired replica count is turned
    into a scaling delta per function and applied; ``ServerlessEnv.run_window``
    then runs the window, as it does for the learned agent, so calibration,
    training and evaluation share one definition. No target is picked and no
    agent state is built. ``log_events`` keeps the engine's event log.
    """
    cfg = policy_config or BaselinePolicyConfig()
    env = ServerlessEnv(vms, profiles, env_config, sim_config, log_events=log_events)
    env.start_episode(workload)
    engine = env.engine
    channels: list[tuple[float, float, float]] = []
    for step in range(env.total_steps):
        t0 = step * env_config.decision_interval
        # Every function is judged on the cluster as it stood before this tick's scaling.
        snaps = [engine.snapshot(fn, env_config.observe_delay) for fn in engine.deployed_fns]
        for snap in snaps:
            desired = decide(policy, snap, cfg, sim_config.max_replicas)
            engine.apply_horizontal(snap.function_id, desired - snap.replicas)
        window = env.run_window(t0, collect_channels)
        if collect_channels:
            channels.append(window)
    return BaselineResult(summary=env.ledger.summary(), channels=channels, engine=engine)
