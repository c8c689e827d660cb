"""Experiment configuration: presets, YAML loading, and workload derivation.

A single structured config file drives every command. Two presets exist:
``desk`` (5 VMs, 3 applications over 4 functions, 60 s episodes, 10 evaluation
workloads per band) for laptop-scale runs, and ``paper`` (20 VMs, 8
applications over 9 functions, 300 s episodes, 60 workloads per band) for
full-scale experiments. Every value is overridable from the file or CLI.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from .agents.a3c import TrainConfig
from .agents.dqn import DqnConfig
from .baselines import BaselinePolicyConfig
from .cluster import Application, FunctionProfile, SimConfig, VmSpec
from .env import EnvConfig
from .errors import ConfigError, read_yaml, require
from .workload import (BUNDLED_TRACES, EVAL_BANDS, TRAIN_BAND, TraceSeries, WorkloadSpec,
                       load_traces, make_workload, select_apps, training_apps)

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
            raise ConfigError(f"cluster lists unknown VM shape {name!r}; "
                              f"known: {sorted(VM_SHAPES)}")
        cpu, mem, price = VM_SHAPES[name]
        vms.append(VmSpec(vm_id=vm_id, cpu_capacity=cpu, mem_capacity=mem,
                          unit_price=price))
    return vms


def load_records(path: str | Path, cls, key: str) -> dict:
    """A YAML file's non-empty list of ``cls`` records, keyed by their ``key`` field."""
    data = read_yaml(path)
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list of {cls.__name__} records")
    records = {}
    for i, row in enumerate(data):
        where = f"{path}[{i}]"
        kwargs = _fields(cls, row, where)
        try:
            record = cls(**kwargs)
        except ConfigError as exc:  # the record's own check names no file or row
            raise ConfigError(f"{where}: {exc}") from None
        rid = getattr(record, key)
        if rid in records:
            raise ConfigError(f"{where}: duplicate {key} {rid}")
        records[rid] = record
    return records


@dataclass(frozen=True)
class WorkloadSettings:
    duration: float = 60.0
    workloads_per_band: int = 10
    train_pool_size: int = 10
    calibration_per_band: int = 20
    jitter: bool = False

    def __post_init__(self) -> None:
        require(0 < self.duration <= 86400 and float(self.duration).is_integer(),
                "workload.duration must be a whole number of seconds in (0, 86400]",
                self.duration)
        for key in ("workloads_per_band", "train_pool_size", "calibration_per_band"):
            require(getattr(self, key) >= 1, f"workload.{key} must be >= 1", getattr(self, key))


@dataclass(frozen=True)
class _AppEntry:
    """One explicit application chain, used with a profiles file."""
    app_id: int
    functions: tuple[int, ...]


@dataclass(frozen=True)
class _TopLevel:
    """The keys a config file may hold at its top level."""
    preset: str = "desk"
    applications: Optional[list] = None  # catalog names, or _AppEntry mappings
    cluster: Optional[tuple[str, ...]] = None
    cluster_file: Optional[str] = None
    profiles_file: Optional[str] = None
    traces_file: Optional[str] = None
    output_dir: str = "runs"
    calibration_file: Optional[str] = None
    beta_list: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    env: EnvConfig = field(default_factory=EnvConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    baselines: BaselinePolicyConfig = field(default_factory=BaselinePolicyConfig)
    workload: WorkloadSettings = field(default_factory=WorkloadSettings)

    def __post_init__(self) -> None:
        require(self.beta_list, "beta_list must hold at least one beta", list(self.beta_list))
        for beta in self.beta_list:
            require(0 <= beta <= 1, "beta_list values must lie in [0, 1]", beta)
        names = [f"{beta:g}" for beta in self.beta_list]  # as _train_one names a run's outputs
        require(len(set(names)) == len(names), "beta_list values must differ within "
                "6 significant digits, which name each run's outputs", list(self.beta_list))


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
    eval_parallel: int = 1  # read only by the benchmark; goes with ROADMAP item 2 PR B

    @property
    def config_hash(self) -> str:
        """Hash of the resolved config, without where its outputs go."""
        inputs = {k: v for k, v in self.raw.items()
                  if k not in ("output_dir", "calibration_file")}
        canon = json.dumps(inputs, sort_keys=True, default=str)
        import hashlib  # imported here: it loads OpenSSL, ~3.6 MB in every process
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    # --------------------------------------------------------- workload sets

    def _one(self, band: tuple[int, int], seed: int, training: bool) -> WorkloadSpec:
        apps = training_apps(self.apps, seed) if training else self.apps
        return make_workload(apps, self.corpus, band, self.workload.duration,
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
        chosen = tuple(bands or EVAL_BANDS)
        for band in chosen:
            if band not in EVAL_BANDS:
                raise ConfigError(f"unknown band {band!r}")
        return self._banded(chosen, _EVAL_SEED_OFFSET, self.workload.workloads_per_band)

    def calibration_sets(self) -> dict[str, list[WorkloadSpec]]:
        return self._banded(tuple(EVAL_BANDS), _CALIB_SEED_OFFSET,
                            self.workload.calibration_per_band)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _typed(cls, data, name: str):
    """Read config value ``data`` as annotation ``cls``; errors name ``name``.

    A dataclass takes a mapping (null gives its defaults) and reads each field by
    its annotation, recursively; an unknown or missing key is an error. ``int``
    rejects bool and float, ``float`` takes a finite float or an int (kept as
    given), ``Optional[X]`` also takes null, and ``tuple[X, ...]`` a list of X.
    """
    if is_dataclass(cls):
        return cls(**_fields(cls, data, name))
    if get_origin(cls) is Union:  # Optional[X]
        return None if data is None else _typed(get_args(cls)[0], data, name)
    if get_origin(cls) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(f"config key {name!r} must be a list, got {data!r}")
        return tuple(_typed(get_args(cls)[0], item, name) for item in data)
    ok = (isinstance(data, int) or isinstance(data, float) and math.isfinite(data)
          if cls is float else isinstance(data, cls)) and isinstance(data, bool) is (cls is bool)
    if not ok:
        kind = "a finite float" if cls is float else cls.__name__
        raise ConfigError(f"config key {name!r} must be {kind}, got {data!r}")
    return data


def _fields(cls, data, name: str) -> dict:
    """Dataclass ``cls``'s constructor arguments read from mapping ``data``
    (null gives its defaults), each typed by ``_typed``; errors name ``name``."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {data!r}")
    hints, prefix = get_type_hints(cls), f"{name}." if name else ""
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown config key {prefix}{key}")
    for f in fields(cls):
        if f.name not in data and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{name} is missing key {f.name!r}")
    return {key: _typed(hints[key], value, prefix + key) for key, value in data.items()}


def load_experiment(path: Optional[str | Path] = None,
                    overrides: Optional[dict] = None) -> Experiment:
    """Resolve preset defaults, the config file, and CLI overrides, in order.

    The trace corpus is read from ``traces_file``, or from the bundled
    ``BUNDLED_TRACES`` when it is unset; ``raw`` keeps ``traces_file`` as
    given, so the default adds nothing to ``config_hash``.
    """
    file_data = {} if path is None else read_yaml(path)
    if file_data is None:  # an empty file
        file_data = {}
    if not isinstance(file_data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    preset = (overrides or {}).get("preset") or file_data.get("preset", "desk")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; known: {sorted(_PRESETS)}")
    data = _merge(_PRESETS[preset], file_data)
    if overrides:
        data = _merge(data, overrides)
    data["preset"] = preset

    top = _typed(_TopLevel, data, "")

    if top.cluster_file:
        vms = list(load_records(top.cluster_file, VmSpec, "vm_id").values())
    elif top.cluster:
        vms = cluster_from_shapes(top.cluster)
    else:
        raise ConfigError("cluster must list at least one VM shape (or set cluster_file)")

    if top.profiles_file:
        profiles = load_records(top.profiles_file, FunctionProfile, "function_id")
        if top.applications is None:
            raise ConfigError("profiles_file requires explicit applications: "
                              "[{app_id, functions}]")
        entries = [_typed(_AppEntry, a, f"applications[{i}]")
                   for i, a in enumerate(top.applications)]
        apps = [Application(e.app_id, e.functions) for e in entries]
        for app in apps:
            for fn in app.function_sequence:
                if fn not in profiles:
                    raise ConfigError(f"application {app.app_id} uses function {fn} "
                                      "missing from the profiles file")
    else:
        if top.applications is None or not all(isinstance(a, str) for a in top.applications):
            raise ConfigError("applications must be catalog names (or provide profiles_file)")
        profiles, apps = select_apps(top.applications)
    app_ids = [app.app_id for app in apps]
    require(app_ids, "applications must list at least one application", top.applications)
    require(len(set(app_ids)) == len(app_ids), "applications must not list an app id twice",
            top.applications)
    # Each function's first pod goes on one VM; a cluster with no room for it
    # would drop every request to the function.
    for fn in sorted({fn for app in apps for fn in app.function_sequence}):
        cpu, mem = profiles[fn].initial_pod_cpu, profiles[fn].initial_pod_mem
        if not any(vm.holds(cpu, mem) for vm in vms):
            source = f"cluster_file {top.cluster_file}" if top.cluster_file else "cluster"
            raise ConfigError(f"no VM of {source} holds function {fn}'s initial pod "
                              f"({cpu} vCPU, {mem} MB)")

    corpus = load_traces(top.traces_file or BUNDLED_TRACES)
    output_dir = Path(top.output_dir)
    return Experiment(
        raw=data, vms=vms, profiles=profiles, apps=apps, corpus=corpus,
        env=top.env, sim=top.sim, train=top.train, dqn=top.dqn, baselines=top.baselines,
        workload=top.workload, beta_list=[float(x) for x in top.beta_list],
        output_dir=output_dir,
        calibration_file=Path(top.calibration_file or output_dir / "calibration.yaml"),
    )
