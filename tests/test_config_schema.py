"""The typed config reader, held to every leaf key.

Each leaf key of the config sections, plus ``beta_list``, ``cluster`` and
``applications``, is set to each of eight wrong-or-edge values. The loader
must either accept the value or raise a ``ConfigError`` that names the key,
and an accepted value must never make a command exit 3 (an unexpected
error). ``train --agent dqn`` runs every accepted value here; the full command
cross product (also ``train``, ``train-sweep``, ``calibrate``, ``evaluate`` of
the three baselines, ``simulate``, and ``train`` followed by ``evaluate`` of
the actor checkpoint it wrote and ``report``) runs under
``HYPOTHESIS_PROFILE=ci``.
"""
import copy
import dataclasses
import os

import pytest
import yaml

from faaslab.agents.a3c import TrainConfig
from faaslab.agents.dqn import DqnConfig
from faaslab.baselines import KnativeConfig, KubeCpuConfig, OpenFaasConfig
from faaslab.cli import EXIT_RUNTIME, main
from faaslab.cluster import SimConfig
from faaslab.config import (WorkloadSettings, load_cluster_file, load_experiment,
                            load_profiles_file)
from faaslab.env import EnvConfig
from faaslab.errors import ConfigError
from faaslab.metrics import ChannelBounds, RewardBounds

SECTIONS = {"env": EnvConfig, "sim": SimConfig, "train": TrainConfig, "dqn": DqnConfig,
            "workload": WorkloadSettings, "baselines.knative": KnativeConfig,
            "baselines.kube_cpu": KubeCpuConfig, "baselines.openfaas": OpenFaasConfig}
LEAF_KEYS = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
             for f in dataclasses.fields(cls)] + ["beta_list", "cluster", "applications"]
VALUES = ["abc", None, -1, 0, 2.5, [1], {"a": 1}, True]

# One app on one VM, 20 s episodes, one episode per agent.
BASE = {
    "applications": ["primary"],
    "cluster": ["t4g.large"],
    "workload": {"duration": 20, "workloads_per_band": 1, "train_pool_size": 1,
                 "calibration_per_band": 1},
    "train": {"workers": 1, "episodes": 1, "hidden": [4]},
    "dqn": {"episodes": 1, "batch_size": 2, "buffer_capacity": 8, "hidden": [4]},
}


def config_with(key, value):
    cfg = copy.deepcopy(BASE)
    *sections, leaf = key.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return cfg


def accepted(key, value):
    """Whether ``load_experiment`` takes ``key: value``; a rejection must name the key."""
    try:
        load_experiment(overrides=config_with(key, value))
    except ConfigError as exc:
        assert key in str(exc), f"{key}: {value!r} rejected without naming the key: {exc}"
        return False
    return True


@pytest.mark.parametrize("key", LEAF_KEYS)
def test_value_is_accepted_or_names_its_key(key):
    for value in VALUES:
        accepted(key, value)


COMMANDS = [
    "train --agent dqn",
    *(pytest.param(command, marks=pytest.mark.skipif(
        os.environ.get("HYPOTHESIS_PROFILE") != "ci",
        reason="the full command cross product runs under HYPOTHESIS_PROFILE=ci"))
      for command in ("train", "train-sweep", "calibrate",
                      "evaluate --targets kube_cpu knative openfaas", "simulate",
                      "train && evaluate --targets {checkpoint} && report")),
]


def run_steps(command, config, run_dir):
    """Run the ``&&``-separated steps of ``command`` up to the first nonzero exit.

    ``{checkpoint}`` stands for the actor checkpoint an earlier step wrote.
    """
    for step in command.split(" && "):
        if "{checkpoint}" in step:
            step = step.format(checkpoint=next(run_dir.glob("actor_*.npz")))
        code = main([*step.split(), "--config", str(config)])
        if code:
            return code
    return code


@pytest.mark.parametrize("command", COMMANDS)
def test_accepted_value_never_exits_3(tmp_path, capsys, command):
    # A seeded calibration file: train must not stop at a missing one.
    calibration = tmp_path / "calibration.yaml"
    RewardBounds(ChannelBounds(0.0, 2.0), ChannelBounds(0.0, 1.0),
                 ChannelBounds(0.0, 1e-3)).save(calibration)
    path = tmp_path / "config.yaml"
    crashed = []
    for key in LEAF_KEYS:
        for i, value in enumerate(VALUES):
            if not accepted(key, value):
                continue
            run_dir = tmp_path / f"run-{key}-{i}"  # holds no earlier run's outputs
            cfg = config_with(key, value)
            cfg.update(output_dir=str(run_dir), calibration_file=str(calibration))
            path.write_text(yaml.safe_dump(cfg))
            if run_steps(command, path, run_dir) == EXIT_RUNTIME:
                crashed.append((key, value, capsys.readouterr().err.strip()))
            capsys.readouterr()
    assert crashed == []


@pytest.mark.parametrize("overrides, key", [
    ({"beta_lst": [0.5]}, "beta_lst"),
    ({"env": {"beta": 0.5, "cpu_cap_norm": 8.0}}, "env.cpu_cap_norm"),
    ({"baselines": {"knative": {"target": 2}}}, "baselines.knative.target"),
    ({"baselines": {"kube_cpu": 0.5}}, "baselines.kube_cpu"),
    ({"train": {"seed": True}}, "train.seed"),
    ({"sim": {"max_replicas": 2.5}}, "sim.max_replicas"),
    ({"train": {"lr": float("inf")}}, "train.lr"),
    ({"sim": {"exec_noise_sigma": float("nan")}}, "sim.exec_noise_sigma"),
    ({"workload": {"jitter": "abc"}}, "workload.jitter"),
    ({"dqn": {"hidden": [8, 2.5]}}, "dqn.hidden"),
    ({"sim": {"active_time_mode": 1}}, "sim.active_time_mode"),
    ({"output_dir": 5}, "output_dir"),
    ({"calibration_file": ["a"]}, "calibration_file"),
    ({"cluster_file": True}, "cluster_file"),
    ({"profiles_file": 1.0}, "profiles_file"),
    ({"traces_file": {"a": 1}}, "traces_file"),
    ({"dqn": {"target_refresh": 0}}, "dqn.target_refresh"),
    ({"train": {"grad_clip": 0.0}}, "train.grad_clip"),
    ({"workload": {"calibration_per_band": 0}}, "workload.calibration_per_band"),
    ({"baselines": {"openfaas": {"cpu_threshold": 2.5}}}, "baselines.openfaas.cpu_threshold"),
    # finite but huge: they would overflow lognormvariate and window_rates
    ({"sim": {"exec_noise_sigma": 1.0e+308}}, "sim.exec_noise_sigma"),
    ({"sim": {"exec_noise_sigma": 1.0e+15}}, "sim.exec_noise_sigma"),
    ({"workload": {"duration": 1.0e+308}}, "workload.duration"),
    ({"workload": {"duration": 1.0e+15}}, "workload.duration"),
])
def test_wrong_type_or_unknown_key_is_named(overrides, key):
    with pytest.raises(ConfigError, match=key):
        load_experiment(overrides=overrides)


def test_upper_bounds_are_inclusive():
    exp = load_experiment(overrides={"sim": {"exec_noise_sigma": 10},
                                     "workload": {"duration": 86400}})
    assert exp.sim.exec_noise_sigma == 10 and exp.workload.duration == 86400


def test_values_are_kept_as_given():
    exp = load_experiment(overrides={"env": {"beta": 1}, "train": {"grad_clip": None},
                                     "baselines": {"knative": None}})
    assert type(exp.env.beta) is int  # a float field takes an int unchanged
    assert exp.train.grad_clip is None
    assert exp.baselines.knative == KnativeConfig()


@pytest.mark.parametrize("row, message", [
    ({"vm_id": "a", "cpu_capacity": 2.0, "mem_capacity": 8192.0, "unit_price": 0.1},
     r"\[0\].vm_id' must be int"),
    ({"vm_id": 0, "cpu_capacity": 2.0, "mem_capacity": 8192.0}, "missing key 'unit_price'"),
    ({"vm_id": 0, "cpu_capacity": 2.0, "mem_capacity": 8192.0, "unit_price": 0.1,
      "gpu": 1}, r"\[0\].gpu"),
])
def test_cluster_file_rows_are_typed(tmp_path, row, message):
    path = tmp_path / "cluster.yaml"
    path.write_text(yaml.safe_dump([row]))
    with pytest.raises(ConfigError, match=message):
        load_cluster_file(path)


def test_profiles_file_rows_are_typed(tmp_path):
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump([{
        "function_id": 0, "req_cpu": "0.25", "req_mem": 256.0,
        "standard_response_time": 1.0, "cold_start_seconds": 2.0,
        "initial_pod_cpu": 1.0, "initial_pod_mem": 1024.0}]))
    with pytest.raises(ConfigError, match=r"\[0\].req_cpu' must be a finite float"):
        load_profiles_file(path)
