"""Rule-based horizontal scalers, run as ``ServerlessEnv.run_episode`` policies.

Each controller sets a replica target for every deployed function on every
tick, as the real autoscalers do, and none emits a vertical resize.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cluster import (ClusterEngine, FunctionProfile, FunctionSnapshot, SimConfig, VmSpec,
                      cpu_target_replicas, replica_count)
from .env import EnvConfig, Policy, ServerlessEnv
from .errors import ConfigError, require
from .metrics import EpisodeMetrics
from .workload import Arrivals, WorkloadSpec


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
        # knative_decide divides by the product, which two tiny factors underflow to 0.
        product = self.target_concurrency * self.target_utilization
        require(product > 0, "baselines.knative.target_concurrency * "
                "baselines.knative.target_utilization must be > 0", product)


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


def knative_decide(snap: FunctionSnapshot, cfg: KnativeConfig) -> int:
    return replica_count(_outstanding(snap) / (cfg.target_concurrency * cfg.target_utilization))


def kube_cpu_decide(snap: FunctionSnapshot, cfg: KubeCpuConfig) -> int:
    return cpu_target_replicas(snap, cfg.cpu_threshold)


def openfaas_decide(snap: FunctionSnapshot, cfg: OpenFaasConfig) -> int:
    if snap.standard_response_time > cfg.long_exec_cutoff:
        return replica_count(_outstanding(snap) / cfg.capacity_threshold)
    if snap.arrival_rate > cfg.high_rate_cutoff:
        return replica_count(snap.arrival_rate / cfg.rps_threshold)
    return cpu_target_replicas(snap, cfg.cpu_threshold)  # cpu mode: the kube_cpu rule


BASELINES = ("knative", "kube_cpu", "openfaas")


def decide(policy: str, snap: FunctionSnapshot, cfg: BaselinePolicyConfig) -> int:
    if policy == "knative":
        return knative_decide(snap, cfg.knative)
    if policy == "kube_cpu":
        return kube_cpu_decide(snap, cfg.kube_cpu)
    if policy == "openfaas":
        return openfaas_decide(snap, cfg.openfaas)
    raise ConfigError(f"unknown baseline {policy!r}; choose from {BASELINES}")


def _tick_targets(name: str, snapshots: Sequence[tuple[int, FunctionSnapshot]],
                  cfg: BaselinePolicyConfig) -> dict[int, int]:
    """``name``'s replica target for each ``(function, snapshot)`` of one tick."""
    return {fn: decide(name, snap, cfg) for fn, snap in snapshots}


def baseline_policy(name: str, cfg: BaselinePolicyConfig,
                    shadows: Optional[list[str]] = None) -> Policy:
    """``name``'s replica target for every function, each decided on its snapshot
    over the last decision window; all are read before any function scales.

    Each tick also drops from ``shadows``, a list of other baseline names,
    every baseline whose targets on the same snapshots differ from ``name``'s.
    """
    def targets(env: ServerlessEnv) -> dict[int, int]:
        engine, interval = env.engine, env.config.decision_interval
        snapshots = [(fn, engine.snapshot(fn, interval)) for fn in engine.deployed_fns]
        own = _tick_targets(name, snapshots, cfg)
        if shadows:
            shadows[:] = [twin for twin in shadows
                          if _tick_targets(twin, snapshots, cfg) == own]
        return own
    return targets


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
    arrivals: Optional[Arrivals] = None,
    twins: Optional[dict] = None,
) -> BaselineResult:
    """One full episode under a ``baseline_policy``, which picks no target and
    builds no agent state. ``arrivals``, if given, is the caller's ``synthesize(workload)``.

    ``twins`` is one dict per workload, shared by the calls that run each
    baseline on it. An episode stores its result under every other baseline
    not yet in the dict whose targets equalled its own on every tick: the
    engine is deterministic and the targets are its only input, so that
    baseline's episode is this one. A call for a stored baseline returns the
    stored result without simulating; it raises ``ConfigError`` if any other
    argument but ``arrivals`` differs from the call that stored it.
    """
    cfg = policy_config or BaselinePolicyConfig()
    call = (vms, profiles, workload, env_config, sim_config, cfg, collect_channels)
    if twins is not None and policy in twins:
        made_for, result = twins[policy]
        if made_for != call:
            raise ConfigError(f"twins hold {policy!r} for another workload or configuration; "
                              f"pass one dict per workload")
        return result
    shadows = ([] if twins is None else
               [twin for twin in BASELINES if twin != policy and twin not in twins])
    env = ServerlessEnv(vms, profiles, env_config, sim_config)
    channels = env.run_episode(workload, baseline_policy(policy, cfg, shadows),
                               collect_channels, arrivals)
    result = BaselineResult(summary=env.ledger.summary(), channels=channels, engine=env.engine)
    for twin in shadows:
        twins[twin] = (call, result)
    return result
