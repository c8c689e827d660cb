"""The typed config reader, held to every leaf key.

Each leaf key of the config sections, plus ``beta_list``, ``cluster`` and
``applications``, is set to each of twelve wrong-or-edge values. The loader
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
import re

import pytest
import yaml

from faaslab.agents.a3c import TrainConfig
from faaslab.agents.dqn import DqnConfig
from faaslab.baselines import KnativeConfig, KubeCpuConfig, OpenFaasConfig
from faaslab.cli import EXIT_CONFIG, EXIT_RUNTIME, main
from faaslab.cluster import FunctionProfile, SimConfig, VmSpec
from faaslab.config import WorkloadSettings, load_experiment, load_records
from faaslab.env import EnvConfig
from faaslab.errors import ConfigError
from faaslab.metrics import ChannelBounds, RewardBounds

SECTIONS = {"env": EnvConfig, "sim": SimConfig, "train": TrainConfig, "dqn": DqnConfig,
            "workload": WorkloadSettings, "baselines.knative": KnativeConfig,
            "baselines.kube_cpu": KubeCpuConfig, "baselines.openfaas": OpenFaasConfig}
LEAF_KEYS = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
             for f in dataclasses.fields(cls)] + ["beta_list", "cluster", "applications"]
# 1e308 is finite but overflows anything it is multiplied into; 5e-324 passes a
# > 0 check but overflows anything divided by it
VALUES = ["abc", None, -1, 0, 2.5, [1], [], ["nope"], {"a": 1}, True, 1.0e+308, 5.0e-324]

# One app on one VM, 20 s episodes, one episode per agent.
BASE = {
    "applications": ["primary"],
    "cluster": ["t4g.large"],
    "workload": {"duration": 20, "workloads_per_band": 1, "train_pool_size": 1,
                 "calibration_per_band": 1},
    "train": {"workers": 1, "episodes": 1, "hidden": [4]},
    "dqn": {"episodes": 1, "batch_size": 2, "buffer_capacity": 8},
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


# The ids are written out, so removing a case renames no other; each keeps the
# name its list position once gave it.
@pytest.mark.parametrize("overrides, key", [
    ({"beta_lst": [0.5]}, "beta_lst"),
    ({"env": {"beta": 0.5, "cpu_cap_norm": 8.0}}, "env.cpu_cap_norm"),
    ({"baselines": {"knative": {"target": 2}}}, "baselines.knative.target"),
    ({"baselines": {"kube_cpu": 0.5}}, "baselines.kube_cpu"),
    ({"train": {"seed": True}}, "train.seed"),
    ({"sim": {"max_replicas": 2.5}}, "unknown config key sim.max_replicas"),
    ({"train": {"lr": float("inf")}}, "train.lr"),
    # retired: a routed request runs exactly its standard response time
    ({"sim": {"exec_noise_sigma": 0.0}}, "sim.exec_noise_sigma"),
    ({"workload": {"jitter": "abc"}}, "workload.jitter"),
    ({"train": {"hidden": [8, 2.5]}}, "train.hidden"),
    ({"sim": {"active_time_mode": 1}}, "sim.active_time_mode"),
    ({"output_dir": 5}, "output_dir"),
    ({"calibration_file": ["a"]}, "calibration_file"),
    ({"cluster_file": True}, "cluster_file"),
    ({"profiles_file": 1.0}, "profiles_file"),
    ({"traces_file": {"a": 1}}, "traces_file"),
    ({"dqn": {"target_refresh": 0}}, "dqn.target_refresh"),
    ({"workload": {"calibration_per_band": 0}}, "workload.calibration_per_band"),
    ({"baselines": {"openfaas": {"cpu_threshold": 2.5}}}, "baselines.openfaas.cpu_threshold"),
    # finite but huge: retries would fall due at inf, window_rates would overflow
    ({"sim": {"retry_interval": 1.0e+308}}, "sim.retry_interval"),
    ({"sim": {"retry_interval": 1.0e+15}}, "sim.retry_interval"),
    ({"workload": {"duration": 1.0e+308}}, "workload.duration"),
    ({"workload": {"duration": 1.0e+15}}, "workload.duration"),
    # a finite but huge entropy weight trained into infinite Adam moments
    ({"train": {"entropy_beta": 1.0e+308}}, "train.entropy_beta"),
    # train-sweep would exit 0 having trained nothing
    ({"beta_list": []}, "beta_list"),
    ({"applications": []}, "applications"),
    ({"applications": ["primary", "primary"]}, "applications"),
    # train-sweep names each run's outputs {beta:g}: the second run would overwrite the first
    ({"beta_list": [0.1234561, 0.1234564]}, "beta_list"),
    ({"beta_list": [1, 1.0]}, "beta_list"),
    # a zero-width layer would fail later, in the network, naming no key
    ({"train": {"hidden": [0]}}, "train.hidden"),
    ({"train": {"hidden": [8, 0]}}, "train.hidden"),
    # a finite but huge step size trained an actor whose forward pass overflowed
    ({"train": {"lr": 1.0e+308}}, "train.lr"),
    ({"dqn": {"lr": 1.0e+308}}, "dqn.lr"),
], ids=["overrides0-beta_lst", "overrides1-env.cpu_cap_norm",
        "overrides2-baselines.knative.target", "overrides3-baselines.kube_cpu",
        "overrides4-train.seed", "overrides5-unknown config key sim.max_replicas",
        "overrides6-train.lr", "overrides7-sim.exec_noise_sigma", "overrides8-workload.jitter",
        "train.hidden-non-integer", "overrides10-sim.active_time_mode", "overrides11-output_dir",
        "overrides12-calibration_file", "overrides13-cluster_file",
        "overrides14-profiles_file", "overrides15-traces_file",
        "overrides16-dqn.target_refresh", "overrides18-workload.calibration_per_band",
        "overrides19-baselines.openfaas.cpu_threshold", "overrides20-sim.retry_interval",
        "overrides21-sim.retry_interval", "overrides22-workload.duration",
        "overrides23-workload.duration", "overrides24-train.entropy_beta",
        "overrides25-beta_list", "overrides26-applications", "overrides27-applications",
        "overrides28-beta_list", "overrides29-beta_list", "train.hidden-zero-width",
        "train.hidden-second-layer-zero", "train.lr-huge", "dqn.lr-huge"])
def test_wrong_type_or_unknown_key_is_named(overrides, key):
    with pytest.raises(ConfigError, match=key):
        load_experiment(overrides=overrides)


def test_upper_bounds_are_inclusive():
    exp = load_experiment(overrides={"sim": {"retry_interval": 3600},
                                     "workload": {"duration": 86400}})
    assert exp.sim.retry_interval == 3600 and exp.workload.duration == 86400


def test_values_are_kept_as_given():
    exp = load_experiment(overrides={"env": {"beta": 1}, "calibration_file": None,
                                     "baselines": {"knative": None}})
    assert type(exp.env.beta) is int  # a float field takes an int unchanged
    assert exp.calibration_file == exp.output_dir / "calibration.yaml"
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
        load_records(path, VmSpec, "vm_id")


PROFILE_ROW = {"function_id": 0, "req_cpu": 0.25, "req_mem": 256.0,
               "standard_response_time": 1.0, "cold_start_seconds": 2.0,
               "initial_pod_cpu": 1.0, "initial_pod_mem": 1024.0}


def test_profiles_file_rows_are_typed(tmp_path):
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump([{**PROFILE_ROW, "req_cpu": "0.25"}]))
    with pytest.raises(ConfigError, match=r"\[0\].req_cpu' must be a finite float"):
        load_records(path, FunctionProfile, "function_id")


@pytest.mark.parametrize("applications", [[], [{"app_id": 0, "functions": [0]}] * 2],
                         ids=["empty", "repeated-app-id"])
def test_explicit_applications_name_their_key(tmp_path, applications):
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump([PROFILE_ROW]))
    with pytest.raises(ConfigError, match="applications"):
        load_experiment(overrides={"profiles_file": str(path), "applications": applications})


VM_ROW = {"vm_id": 0, "cpu_capacity": 2.0, "mem_capacity": 8192.0, "unit_price": 0.1}


@pytest.mark.parametrize("key, field, rows, extra", [
    ("cluster_file", "vm_id", [VM_ROW, {**VM_ROW, "cpu_capacity": 4.0}], {}),
    ("profiles_file", "function_id", [PROFILE_ROW, {**PROFILE_ROW, "req_cpu": 0.5}],
     {"applications": [{"app_id": 0, "functions": [0]}]}),
], ids=["vm_id", "function_id"])
def test_repeated_record_id_names_the_file(tmp_path, capsys, key, field, rows, extra):
    path = tmp_path / "records.yaml"
    path.write_text(yaml.safe_dump(rows))
    overrides = {key: str(path), **extra}
    with pytest.raises(ConfigError, match=re.escape(f"{path}[1]: duplicate {field} 0")):
        load_experiment(overrides=overrides)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({**BASE, **overrides}))
    assert main(["simulate", "--config", str(config), "--band", "high",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and field in err


@pytest.mark.parametrize("change, field", [
    ({"initial_pod_cpu": 0.05}, "initial_pod_cpu"),   # below POD_CPU_MIN
    ({"initial_pod_mem": 64.0}, "initial_pod_mem"),   # below POD_MEM_MIN
    ({"req_cpu": 0.3, "initial_pod_cpu": 0.2}, "req_cpu"),
    ({"req_cpu": 1.5}, "req_cpu"),                    # no pod within POD_CPU_MAX fits one
    ({"req_mem": 2048.0}, "req_mem"),
], ids=["cpu-below-min", "mem-below-min", "cpu-fits-no-request", "req-cpu-above-max",
        "mem-fits-no-request"])
def test_profile_the_engine_cannot_run_is_rejected_at_load(tmp_path, change, field):
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump([{**PROFILE_ROW, **change}]))
    with pytest.raises(ConfigError, match=field):
        load_records(path, FunctionProfile, "function_id")


def test_profile_limits_at_the_pod_bounds_load():
    edge = {**PROFILE_ROW, "req_cpu": 0.1, "req_mem": 128.0}
    for cpu, mem in ((0.1, 128.0), (1.0, 3072.0), (0.1 - 1e-12, 3072.0 + 1e-12)):
        FunctionProfile(**{**edge, "initial_pod_cpu": cpu, "initial_pod_mem": mem})
    # a pod that fits exactly one request, up to float error
    FunctionProfile(**{**PROFILE_ROW, "req_cpu": 0.3, "initial_pod_cpu": 0.1 + 0.2})


@pytest.mark.parametrize("cls, key, good, change, message", [
    (FunctionProfile, "function_id", PROFILE_ROW, {"initial_pod_cpu": 0.05},
     "function 1: initial_pod_cpu must lie in"),
    (VmSpec, "vm_id", VM_ROW, {"cpu_capacity": 0.0}, "vm 1: capacities must be positive"),
], ids=["profile", "vm"])
def test_record_check_names_its_file_and_row(tmp_path, cls, key, good, change, message):
    path = tmp_path / "records.yaml"
    path.write_text(yaml.safe_dump([good, {**good, key: 1, **change}]))
    with pytest.raises(ConfigError, match=re.escape(f"{path}[1]: {message}")):
        load_records(path, cls, key)


@pytest.mark.parametrize("change", [{"cpu_capacity": 0.05}, {"mem_capacity": 100.0}],
                         ids=["cpu", "mem"])
def test_cluster_that_holds_no_initial_pod_is_rejected(tmp_path, capsys, change):
    cluster = tmp_path / "cluster.yaml"
    cluster.write_text(yaml.safe_dump([{**VM_ROW, **change}, {**VM_ROW, "vm_id": 1, **change}]))
    with pytest.raises(ConfigError, match=re.escape(
            f"no VM of cluster_file {cluster} holds function 0's initial pod")):
        load_experiment(overrides={"cluster_file": str(cluster)})
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({**BASE, "cluster_file": str(cluster)}))
    assert main(["simulate", "--config", str(config), "--band", "high",
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "cluster_file" in capsys.readouterr().err


def test_cluster_fit_uses_the_placement_tolerance(tmp_path):
    # primary's initial pod is 1.0 vCPU and 2048 MB; one VM holds it to within 1e-9
    cluster = tmp_path / "cluster.yaml"
    cluster.write_text(yaml.safe_dump([{**VM_ROW, "cpu_capacity": 1.0 - 1e-10,
                                        "mem_capacity": 2048.0 - 1e-10}]))
    exp = load_experiment(overrides={"applications": ["primary"], "cluster_file": str(cluster)})
    assert (exp.profiles[0].initial_pod_cpu, exp.profiles[0].initial_pod_mem) == (1.0, 2048.0)
    cluster.write_text(yaml.safe_dump([{**VM_ROW, "cpu_capacity": 1.0 - 1e-6}]))
    with pytest.raises(ConfigError, match="cluster_file"):
        load_experiment(overrides={"applications": ["primary"], "cluster_file": str(cluster)})
