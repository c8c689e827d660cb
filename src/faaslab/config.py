"""Experiment configuration: presets, YAML loading, and workload derivation.

A single structured config file drives every command. Two presets exist:
``desk`` (5 VMs, 3 applications over 4 functions, 60 s episodes, 10 evaluation
workloads per band) for laptop-scale runs, and ``paper`` (20 VMs, 8
applications over 9 functions, 300 s episodes, 60 workloads per band) for
full-scale experiments. Every value is overridable from the file or CLI.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

import yaml

from .agents.a3c import TrainConfig
from .agents.dqn import DqnConfig
from .baselines import (BaselinePolicyConfig, KnativeConfig, KubeCpuConfig,
                        OpenFaasConfig)
from .cluster import Application, FunctionProfile, SimConfig, VmSpec
from .env import EnvConfig
from .errors import ConfigError
from .workload import (EVAL_BANDS, TRAIN_BAND, TraceSeries, WorkloadSpec,
                       load_traces, make_workload, select_apps, synthetic_traces,
                       training_apps)

# Table of VM shapes: (vCPU, memory MB, $/hour).
VM_SHAPES = {
    "m6g.medium": (1.0, 4096.0, 0.048),
    "t4g.large": (2.0, 8192.0, 0.0848),
    "t4g.xlarge": (4.0, 16384.0, 0.1696),
    "t4g.2xlarge": (8.0, 32768.0, 0.3392),
}

_PRESETS: dict[str, dict[str, Any]] = {
    "desk": {
        "applications": ["primary", "thumbnail", "load"],
        "workload": {"duration": 60, "workloads_per_band": 10, "train_pool_size": 10},
        "train": {"workers": 3, "episodes": 50},
        "cluster": ["m6g.medium", "t4g.large", "t4g.large", "t4g.xlarge", "t4g.2xlarge"],
    },
    "paper": {
        "applications": ["primary", "float", "matmul", "linpack", "load", "dd",
                          "gzip", "thumbnail"],
        "workload": {"duration": 300, "workloads_per_band": 60, "train_pool_size": 30},
        "train": {"workers": 3, "episodes": 300},
        "cluster": (["m6g.medium"] * 5 + ["t4g.large"] * 5
                    + ["t4g.xlarge"] * 5 + ["t4g.2xlarge"] * 5),
    },
}

_EVAL_SEED_OFFSET = 10_000
_CALIB_SEED_OFFSET = 50_000


def cluster_from_shapes(shapes: Sequence[str]) -> list[VmSpec]:
    vms = []
    for vm_id, name in enumerate(shapes):
        if name not in VM_SHAPES:
            raise ConfigError(f"unknown VM shape {name!r}; known: {sorted(VM_SHAPES)}")
        cpu, mem, price = VM_SHAPES[name]
        vms.append(VmSpec(vm_id=vm_id, cpu_capacity=cpu, mem_capacity=mem,
                          unit_price=price))
    return vms


def load_cluster_file(path: str | Path) -> list[VmSpec]:
    """YAML list of {vm_id, cpu_capacity, mem_capacity, unit_price} records."""
    data = _read_yaml(path)
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list of VM records")
    try:
        return [VmSpec(**row) for row in data]
    except TypeError as exc:
        raise ConfigError(f"{path}: bad VM record ({exc})") from None


def load_profiles_file(path: str | Path) -> dict[int, FunctionProfile]:
    """YAML list of function profile records keyed by function_id."""
    data = _read_yaml(path)
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list of profile records")
    profiles = {}
    for row in data:
        try:
            profile = FunctionProfile(**row)
        except TypeError as exc:
            raise ConfigError(f"{path}: bad profile record ({exc})") from None
        if profile.function_id in profiles:
            raise ConfigError(f"{path}: duplicate function id {profile.function_id}")
        profiles[profile.function_id] = profile
    return profiles


def _read_yaml(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None


@dataclass(frozen=True)
class WorkloadSettings:
    duration: float = 60.0
    workloads_per_band: int = 10
    train_pool_size: int = 10
    calibration_per_band: int = 20
    constant_rate: Optional[int] = None  # replaces traces with a flat rate
    jitter: bool = False
    bands: tuple[str, ...] = ("low", "mid", "high")

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.workloads_per_band < 1 or self.train_pool_size < 1:
            raise ConfigError("invalid workload settings")
        if self.constant_rate is not None and self.constant_rate < 0:
            raise ConfigError(
                f"workload.constant_rate must be >= 0 or null, got {self.constant_rate}")
        for band in self.bands:
            if band not in EVAL_BANDS:
                raise ConfigError(f"unknown band {band!r}; known: {sorted(EVAL_BANDS)}")


@dataclass
class Experiment:
    """Fully resolved experiment: inputs plus derived workload builders."""

    raw: dict
    vms: list[VmSpec]
    profiles: dict[int, FunctionProfile]
    apps: list[Application]
    corpus: list[TraceSeries]
    env: EnvConfig
    sim: SimConfig
    train: TrainConfig
    dqn: DqnConfig
    baselines: BaselinePolicyConfig
    workload: WorkloadSettings
    beta_list: list[float]
    output_dir: Path
    calibration_file: Path
    eval_parallel: int = 1  # always 1; load_experiment rejects other values

    @property
    def config_hash(self) -> str:
        """Hash of the resolved config, without where its outputs go."""
        inputs = {k: v for k, v in self.raw.items()
                  if k not in ("output_dir", "calibration_file")}
        canon = json.dumps(inputs, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    # --------------------------------------------------------- workload sets

    def _constant_corpus(self) -> list[TraceSeries]:
        rate = self.workload.constant_rate
        length = int(self.workload.duration)
        return [TraceSeries(trace_id=f"constant-{rate}", counts=(rate,) * length)]

    def _one(self, band: Optional[tuple[int, int]], seed: int,
             training: bool) -> WorkloadSpec:
        if self.workload.constant_rate is not None:
            corpus, band = self._constant_corpus(), None
        else:
            corpus = self.corpus
        apps = training_apps(self.apps, seed) if training else self.apps
        return make_workload(apps, corpus, band, self.workload.duration,
                             seed, jitter=self.workload.jitter, training=training)

    def train_pool(self) -> list[WorkloadSpec]:
        """Training workloads; each drives at most MAX_TRAINING_ENTRY_FNS
        entry functions, drawn from its own seed when the preset has more."""
        base = self.train.seed
        return [self._one(TRAIN_BAND, base + i, training=True)
                for i in range(self.workload.train_pool_size)]

    def _banded(self, bands: Sequence[str], offset: int,
                per_band: int) -> dict[str, list[WorkloadSpec]]:
        """``per_band`` workloads per band, seeded ``offset + 100 * k + i``
        for the k-th band in sorted order."""
        return {band: [self._one(EVAL_BANDS[band], offset + 100 * k + i, training=False)
                       for i in range(per_band)]
                for k, band in enumerate(sorted(bands))}

    def eval_sets(self, bands: Optional[Sequence[str]] = None) -> dict[str, list[WorkloadSpec]]:
        chosen = tuple(bands) if bands else self.workload.bands
        for band in chosen:
            if band not in EVAL_BANDS:
                raise ConfigError(f"unknown band {band!r}")
        return self._banded(chosen, _EVAL_SEED_OFFSET, self.workload.workloads_per_band)

    def calibration_sets(self) -> dict[str, list[WorkloadSpec]]:
        return self._banded(self.workload.bands, _CALIB_SEED_OFFSET,
                            self.workload.calibration_per_band)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _section(data: dict, name: str) -> dict:
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return dict(section)


def _listed(value, key: str) -> list:
    """A config value that must be a list; a scalar is an error naming the key."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    return list(value)


def _build(cls, data: dict, name: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None


def load_experiment(path: Optional[str | Path] = None,
                    overrides: Optional[dict] = None) -> Experiment:
    """Resolve preset defaults, the config file, and CLI overrides, in order."""
    file_data: dict = {}
    if path is not None:
        loaded = _read_yaml(path)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        file_data = loaded
    preset = (overrides or {}).get("preset") or file_data.get("preset", "desk")
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; known: {sorted(_PRESETS)}")
    data = _merge(_PRESETS[preset], file_data)
    if overrides:
        data = _merge(data, overrides)
    data["preset"] = preset

    if data.get("cluster_file"):
        vms = load_cluster_file(data["cluster_file"])
    else:
        shapes = data.get("cluster")
        if not shapes:
            raise ConfigError("config needs either cluster_file or a cluster shape list")
        vms = cluster_from_shapes(_listed(shapes, "cluster"))

    applications = data.get("applications")
    if data.get("profiles_file"):
        profiles = load_profiles_file(data["profiles_file"])
        if not isinstance(applications, list) or not all(
                isinstance(a, dict) for a in applications):
            raise ConfigError("profiles_file requires explicit applications: "
                              "[{app_id, functions}]")
        for a in applications:
            for key in ("app_id", "functions"):
                if key not in a:
                    raise ConfigError(f"applications entry {a} is missing key {key!r}")
        apps = [Application(app_id=a["app_id"],
                            function_sequence=tuple(_listed(a["functions"],
                                                            "applications.functions")))
                for a in applications]
        for app in apps:
            for fn in app.function_sequence:
                if fn not in profiles:
                    raise ConfigError(f"application {app.app_id} uses function {fn} "
                                      "missing from the profiles file")
    else:
        if not isinstance(applications, list) or not all(
                isinstance(a, str) for a in applications):
            raise ConfigError("applications must be catalog names (or provide profiles_file)")
        profiles, apps = select_apps(applications)

    if data.get("traces_file"):
        corpus = load_traces(data["traces_file"])
    else:
        corpus = synthetic_traces()

    env = _build(EnvConfig, _section(data, "env"), "env")
    sim = _build(SimConfig, _section(data, "sim"), "sim")
    train = _build(TrainConfig, {k: tuple(_listed(v, "train.hidden")) if k == "hidden" else v
                                 for k, v in _section(data, "train").items()}, "train")
    dqn = _build(DqnConfig, {k: tuple(_listed(v, "dqn.hidden")) if k == "hidden" else v
                             for k, v in _section(data, "dqn").items()}, "dqn")
    b = _section(data, "baselines")
    baselines = BaselinePolicyConfig(
        knative=_build(KnativeConfig, _section(b, "knative"), "baselines.knative"),
        kube_cpu=_build(KubeCpuConfig, _section(b, "kube_cpu"), "baselines.kube_cpu"),
        openfaas=_build(OpenFaasConfig, _section(b, "openfaas"), "baselines.openfaas"),
    )
    workload = _build(WorkloadSettings, {
        k: tuple(_listed(v, "workload.bands")) if k == "bands" else v
        for k, v in _section(data, "workload").items()}, "workload")

    beta_list = _listed(data.get("beta_list", [0.0, 0.25, 0.5, 0.75, 1.0]), "beta_list")
    if not all(isinstance(x, (int, float)) and 0 <= x <= 1 for x in beta_list):
        raise ConfigError("beta_list values must lie in [0, 1]")

    eval_parallel = data.get("eval_parallel", 1)
    if eval_parallel != 1:
        raise ConfigError(f"eval_parallel must be 1 (evaluation runs on one thread), "
                          f"got {eval_parallel!r}")

    output_dir = Path(data.get("output_dir", "runs"))
    calibration_file = Path(data.get("calibration_file")
                            or output_dir / "calibration.yaml")
    return Experiment(
        raw=data, vms=vms, profiles=profiles, apps=apps, corpus=corpus,
        env=env, sim=sim, train=train, dqn=dqn, baselines=baselines,
        workload=workload, beta_list=[float(x) for x in beta_list],
        output_dir=output_dir, calibration_file=calibration_file,
    )
