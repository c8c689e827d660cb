"""Greedy-policy evaluation over banded workload sets.

Targets are either rule-based baseline names or checkpoint paths; checkpoints
are recognized by head layout (three 11-way heads: actor policy; one 64-way
head: compound-action value policy). Evaluation always selects the function
with the worst recent response-time ratio as the scaling target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..baselines import BASELINES, BaselinePolicyConfig, run_baseline
from ..cluster import FunctionProfile, SimConfig, VmSpec
from ..env import ACTION_SIZES, EnvConfig, ScalingAction, ServerlessEnv
from ..errors import ConfigError
from ..metrics import EpisodeMetrics, RewardBounds
from ..nnet import ParameterStore, forward_actor, forward_heads
from ..workload import WorkloadSpec
from .dqn import N_COMPOUND_ACTIONS, compound_to_action, greedy_index

BASELINE_NAMES = BASELINES


@dataclass(frozen=True)
class EvalRow:
    target: str
    band: str
    workload_index: int
    rart: float
    rfr: float
    cost: float


def _policy_from_store(store: ParameterStore):
    heads = store.spec.head_sizes
    if heads == ACTION_SIZES:
        def actor_policy(state: np.ndarray) -> ScalingAction:
            heads = forward_actor(store.spec, store.params, state)
            return ScalingAction(*(greedy_index(head[0]) for head in heads))
        return actor_policy
    if heads == (N_COMPOUND_ACTIONS,):
        def value_policy(state: np.ndarray) -> ScalingAction:
            values = forward_heads(store.spec, store.params, state)[0][0]
            return compound_to_action(greedy_index(values))
        return value_policy
    raise ConfigError(f"checkpoint head layout {heads} is not a known policy")


def _greedy_episode(store: ParameterStore, vms, profiles, workload: WorkloadSpec,
                    env_config: EnvConfig, sim_config: SimConfig) -> EpisodeMetrics:
    """One episode under the checkpoint's greedy policy; no reward is computed."""
    policy = _policy_from_store(store)
    env = ServerlessEnv(vms, profiles,
                        replace(env_config, target_mode="highest_rfrt"),
                        sim_config, seed=0)
    state = env.reset(workload)
    if store.spec.input_dim != env.state_dim:
        raise ConfigError(f"checkpoint expects state dim {store.spec.input_dim}, "
                          f"environment provides {env.state_dim}")
    done = False
    while not done:
        state, _, done, _ = env.step(policy(state), rewarded=False)
    return env.ledger.summary()


def evaluate_targets(
    targets: Sequence[str],
    workload_sets: dict[str, list[WorkloadSpec]],
    vms: Sequence[VmSpec],
    profiles: dict[int, FunctionProfile],
    env_config: EnvConfig = EnvConfig(),
    sim_config: SimConfig = SimConfig(),
    bounds: Optional[RewardBounds] = None,
    policy_config: Optional[BaselinePolicyConfig] = None,
    parallel: int = 1,
) -> list[EvalRow]:
    """Per-workload metrics for every target on every banded workload set.

    Episodes run one after another on the calling thread; rows come back
    sorted by (target, band, workload index) whatever the order of
    ``targets``. ``bounds`` is ignored: greedy evaluation computes no reward.
    It stays in the signature for callers that pass the arguments by
    position, and ``parallel`` for callers that name it; it must be 1,
    because the pure-Python simulator gains nothing from threads.
    """
    if parallel != 1:
        raise ConfigError(f"parallel must be 1 (evaluation runs on one thread), "
                          f"got {parallel}")
    stores: dict[str, ParameterStore] = {}
    for target in targets:
        if target not in BASELINES:
            path = Path(target)
            if not path.exists():
                raise ConfigError(f"unknown target {target!r}: neither a baseline "
                                  f"name {BASELINES} nor a checkpoint path")
            stores[target] = ParameterStore.load(path)

    rows = []
    for target in targets:
        for band, workloads in sorted(workload_sets.items()):
            for idx, workload in enumerate(workloads):
                if target in stores:
                    summary = _greedy_episode(stores[target], vms, profiles, workload,
                                              env_config, sim_config)
                else:
                    summary = run_baseline(target, vms, profiles, workload, env_config,
                                           sim_config, policy_config).summary
                rows.append(EvalRow(target=target, band=band, workload_index=idx,
                                    rart=summary.rart, rfr=summary.rfr, cost=summary.cost))
    rows.sort(key=lambda r: (r.target, r.band, r.workload_index))
    return rows


def aggregate(rows: Sequence[EvalRow]) -> list[dict]:
    """Mean metrics per (target, band); RART means ignore undefined episodes."""
    groups: dict[tuple[str, str], list[EvalRow]] = {}
    for row in rows:
        groups.setdefault((row.target, row.band), []).append(row)
    out = []
    for (target, band), members in sorted(groups.items()):
        rarts = [m.rart for m in members if not math.isnan(m.rart)]
        out.append({
            "target": target,
            "band": band,
            "workloads": len(members),
            "rart": sum(rarts) / len(rarts) if rarts else math.nan,
            "rfr": sum(m.rfr for m in members) / len(members),
            "cost": sum(m.cost for m in members) / len(members),
        })
    return out
