"""faaslab: a desk-scale serverless autoscaling laboratory.

A deterministic discrete-event simulator of a multi-tenant serverless VM
cluster, an episodic scaling environment over it, a multi-worker actor-critic
trainer with factorized discrete actions, a DQN agent, rule-based baseline
scalers, and a CLI experiment runner.
"""

__version__ = "0.1.0"

from .cluster import (Application, ClusterEngine, FunctionProfile, PodPhase,
                      PodState, SimConfig, VmSpec, VmState)
from .env import EnvConfig, ScalingAction, ServerlessEnv, decode
from .errors import ConfigError, FaasLabError, SimulationError
from .metrics import EpisodeLedger, RewardBounds, step_reward
from .workload import TraceSeries, WorkloadSpec, load_traces, make_workload, synthesize

__all__ = [
    "__version__",
    "Application", "ClusterEngine", "FunctionProfile", "PodPhase", "PodState",
    "SimConfig", "VmSpec", "VmState",
    "EnvConfig", "ScalingAction", "ServerlessEnv", "decode",
    "ConfigError", "FaasLabError", "SimulationError",
    "EpisodeLedger", "RewardBounds", "step_reward",
    "TraceSeries", "WorkloadSpec", "load_traces", "make_workload", "synthesize",
]
