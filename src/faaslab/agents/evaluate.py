"""Greedy-policy evaluation over banded workload sets.

Targets are either rule-based baseline names or checkpoint paths; checkpoints
are recognized by head layout (three 11-way heads: actor policy; one 64-way
head: compound-action value policy). A checkpoint's policy always targets the
function with the most window drops plus queued requests, then the worst
window response-time ratio (``highest_rfrt``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ..baselines import BASELINES, BaselinePolicyConfig, run_baseline
from ..cluster import FunctionProfile, SimConfig, VmSpec, float_sum
from ..env import ACTION_SIZES, EnvConfig, Policy, ScalingAction, ServerlessEnv
from ..errors import ConfigError
from ..metrics import RewardBounds
from ..nnet import ParameterStore, forward_actor, forward_heads
from ..workload import WorkloadSpec, synthesize
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


def _policy_from_store(store: ParameterStore) -> Callable[[np.ndarray], ScalingAction]:
    """The checkpoint's greedy action for one state."""
    heads = store.spec.head_sizes
    if heads == ACTION_SIZES:
        return lambda state: ScalingAction(*(
            greedy_index(head[0]) for head in forward_actor(store.spec, store.params, state)))
    if heads == (N_COMPOUND_ACTIONS,):
        return lambda state: compound_to_action(
            greedy_index(forward_heads(store.spec, store.params, state)[0][0]))
    raise ConfigError(f"checkpoint head layout {heads} is not a known policy")


def greedy_policy(store: ParameterStore) -> Policy:
    """Each tick, the checkpoint's greedy action for its ``highest_rfrt`` target."""
    act = _policy_from_store(store)
    def policy(env: ServerlessEnv) -> dict[int, ScalingAction]:
        state = env.observe("highest_rfrt")
        return {env.target_fn: act(state)}
    return policy


def load_policy(path: str, vms: Sequence[VmSpec],
                profiles: dict[int, FunctionProfile]) -> Policy:
    """The greedy policy of the checkpoint at ``path``, checked against the cluster."""
    if not Path(path).exists():
        raise ConfigError(f"unknown target {path!r}: neither a baseline "
                          f"name {BASELINES} nor a checkpoint path")
    store = ParameterStore.load(path)
    state_dim = ServerlessEnv(vms, profiles).state_dim
    if store.spec.input_dim != state_dim:
        raise ConfigError(f"checkpoint {path} expects state dim "
                          f"{store.spec.input_dim}, environment provides {state_dim}")
    return greedy_policy(store)


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

    Episodes run one after another on the calling thread, band by band and
    workload by workload; each workload's arrivals are synthesized once for
    every target. A baseline whose targets matched an earlier baseline's on
    every tick of the workload shares that episode (``run_baseline``'s
    ``twins``) instead of simulating it again. Rows come back sorted by
    (target, band, workload index).
    ``bounds`` is ignored, as greedy evaluation computes no reward, and
    ``parallel`` must be 1; both stay for callers that pass them.
    """
    if parallel != 1:
        raise ConfigError(f"parallel must be 1 (evaluation runs on one thread), "
                          f"got {parallel}")
    # Every checkpoint is loaded and checked before the first episode runs.
    policies = {target: load_policy(target, vms, profiles)
                for target in targets if target not in BASELINES}

    rows = []
    for band, workloads in sorted(workload_sets.items()):
        for idx, workload in enumerate(workloads):
            arrivals, twins = synthesize(workload), {}
            for target in targets:
                if target in policies:
                    env = ServerlessEnv(vms, profiles, env_config, sim_config)
                    env.run_episode(workload, policies[target], arrivals=arrivals)
                    summary = env.ledger.summary()
                else:
                    summary = run_baseline(target, vms, profiles, workload, env_config,
                                           sim_config, policy_config,
                                           arrivals=arrivals, twins=twins).summary
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
            "rart": float_sum(rarts) / len(rarts) if rarts else math.nan,
            "rfr": float_sum(m.rfr for m in members) / len(members),
            "cost": float_sum(m.cost for m in members) / len(members),
        })
    return out
