"""Learning agents: the multi-worker actor-critic trainer, the DQN baseline
agent, and greedy-policy evaluation over banded workload sets."""

from .a3c import (EpisodeStats, TrainConfig, TrainResult, Transition,
                  compute_advantages, select_action, train)
from .dqn import (DQN_GRID_POINTS, N_COMPOUND_ACTIONS, DqnConfig, DqnResult,
                  compound_to_action, dqn_train, greedy_index)
from .evaluate import BASELINE_NAMES, EvalRow, aggregate, evaluate_targets

__all__ = [
    "EpisodeStats", "TrainConfig", "TrainResult", "Transition",
    "compute_advantages", "select_action", "train",
    "DQN_GRID_POINTS", "N_COMPOUND_ACTIONS", "DqnConfig", "DqnResult",
    "compound_to_action", "dqn_train", "greedy_index",
    "BASELINE_NAMES", "EvalRow", "aggregate", "evaluate_targets",
]
