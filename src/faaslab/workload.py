"""Workload ingestion and synthesis.

Traces carry per-minute invocation counts; each count is reinterpreted as the
request rate (req/s) during one second-long window of the workload. Arrivals
inside a window are evenly spaced by default (keeps oracle tests exact); a
jitter flag places them uniformly at random instead, which is equivalent to a
Poisson process conditioned on the window count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle, islice
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .cluster import Application, FunctionProfile
from .errors import ConfigError

TRAIN_BAND = (10, 60)
EVAL_BANDS = {"low": (5, 20), "mid": (20, 40), "high": (40, 60)}
MAX_TRAINING_ENTRY_FNS = 4


@dataclass(frozen=True)
class TraceSeries:
    trace_id: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ConfigError(f"trace {self.trace_id!r} is empty")
        if any(c < 0 for c in self.counts):
            raise ConfigError(f"trace {self.trace_id!r} has negative counts")

    def rate_at(self, window: int) -> int:
        return self.counts[window % len(self.counts)]


def load_traces(path: str | Path) -> list[TraceSeries]:
    """Parse a delimited trace file: ``trace_id, c1 c2 ... cn`` per line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    series = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'id, counts...'")
        trace_id, _, rest = line.partition(",")
        trace_id = trace_id.strip()
        if not trace_id:
            raise ConfigError(f"{path}:{lineno}: missing trace id")
        try:
            counts = tuple(int(tok) for tok in rest.split())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-integer count ({exc})") from None
        if not counts:
            raise ConfigError(f"{path}:{lineno}: no counts")
        if any(c < 0 for c in counts):
            raise ConfigError(f"{path}:{lineno}: negative count")
        series.append(TraceSeries(trace_id=trace_id, counts=counts))
    if not series:
        raise ConfigError(f"{path}: no traces found")
    return series


def synthetic_traces(n: int = 40, length: int = 360, seed: int = 20260810,
                     max_rate: int = 60) -> list[TraceSeries]:
    """Bundled stand-in corpus with fluctuating per-window request rates.

    Mixes a random baseline, a slow sinusoid-like swell, and occasional
    bursts. Purely synthetic; replaces external trace datasets in the default
    configuration.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        base = rng.randint(1, max(1, max_rate // 4))
        amplitude = rng.randint(0, max(1, max_rate // 6))
        period = rng.randint(40, 180)
        phase = rng.randint(0, period)
        counts = []
        level = base
        for t in range(length):
            swell = amplitude * abs(((t + phase) % period) - period / 2) / (period / 2)
            level += rng.choice((-1, 0, 0, 1))
            level = min(max(level, 0), max_rate)
            burst = rng.randint(0, base) if rng.random() < 0.05 else 0
            counts.append(int(min(max_rate, max(0, level + swell + burst))))
        out.append(TraceSeries(trace_id=f"synth-{i:03d}", counts=tuple(counts)))
    return out


@dataclass(frozen=True)
class WorkloadSpec:
    """One episode worth of request traffic over a set of applications."""

    duration: float
    applications: tuple[Application, ...]
    entry_traces: Mapping[int, TraceSeries]  # entry function id -> assigned series
    band: tuple[int, int] | None = None      # aggregate req/s bounds per window
    seed: int = 0
    jitter: bool = False                      # random placement inside each window

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError("workload duration must be positive")
        if not self.applications:
            raise ConfigError("workload has no applications")
        for app in self.applications:
            entry = app.function_sequence[0]
            if entry not in self.entry_traces:
                raise ConfigError(f"application {app.app_id}: entry function {entry} has no trace")

    @property
    def entry_functions(self) -> tuple[int, ...]:
        return tuple(sorted({app.function_sequence[0] for app in self.applications}))


def _band_fit(raw: dict[int, int], lo: int, hi: int) -> dict[int, int]:
    """Adjust one window's per-function counts so the aggregate lands in [lo, hi].

    Counts are scaled proportionally toward the nearest band edge, then
    nudged one request at a time (largest raw share first, ties to the lowest
    function id) to absorb rounding. Deterministic.
    """
    fns = sorted(raw)
    total = sum(raw.values())
    if lo <= total <= hi:
        return dict(raw)
    target = min(max(total, lo), hi)
    if total == 0:
        fitted = {fn: 0 for fn in fns}
    else:
        fitted = {fn: int(round(raw[fn] * target / total)) for fn in fns}
    order = sorted(fns, key=lambda fn: (-raw[fn], fn))
    sum_now = sum(fitted.values())
    i = 0
    while sum_now < lo:
        fitted[order[i % len(order)]] += 1
        sum_now += 1
        i += 1
    i = 0
    while sum_now > hi:
        fn = order[i % len(order)]
        if fitted[fn] > 0:
            fitted[fn] -= 1
            sum_now -= 1
        i += 1
    return fitted


def window_rates(spec: WorkloadSpec) -> list[dict[int, int]]:
    """Per-window request rate for each entry function, band-fitted if set."""
    windows = int(spec.duration)
    if windows != spec.duration:
        raise ConfigError("workload duration must be a whole number of seconds")
    entries = spec.entry_functions
    rates = []
    for w in range(windows):
        raw = {fn: spec.entry_traces[fn].rate_at(w) for fn in entries}
        if spec.band is not None:
            raw = _band_fit(raw, spec.band[0], spec.band[1])
        rates.append(raw)
    return rates


def synthesize(spec: WorkloadSpec) -> list[tuple[float, int]]:
    """Materialize the arrival list: time-ordered (timestamp, app_id) pairs.

    Only entry functions get synthetic arrivals; chained successors are
    spawned by the simulator when the preceding function completes. When
    several applications share an entry function the per-window count is
    dealt round-robin across them.
    """
    entry_apps: dict[int, list[int]] = {}
    for app in spec.applications:
        entry_apps.setdefault(app.function_sequence[0], []).append(app.app_id)
    for apps in entry_apps.values():
        apps.sort()
    rng = random.Random(spec.seed)
    arrivals: list[tuple[float, int]] = []
    deal = {fn: 0 for fn in entry_apps}  # index of the app the next arrival goes to
    for w, rates in enumerate(window_rates(spec)):
        for fn in sorted(rates):
            count = rates[fn]
            if count <= 0:
                continue
            if spec.jitter:
                times = [w + off for off in sorted([rng.random() for _ in range(count)])]
            else:
                times = [w + i / count for i in range(count)]
            apps = entry_apps[fn]
            start = deal[fn]
            arrivals.extend(zip(times, islice(cycle(apps), start, None)))
            deal[fn] = (start + count) % len(apps)
    arrivals.sort(key=itemgetter(0))
    return arrivals


def training_apps(applications: Sequence[Application], seed: int) -> tuple[Application, ...]:
    """The applications one training workload drives.

    With at most MAX_TRAINING_ENTRY_FNS entry functions that is all of them;
    with more, the applications of a ``seed``-drawn subset of that many entry
    functions.
    """
    apps = tuple(applications)
    entries = sorted({app.function_sequence[0] for app in apps})
    if len(entries) <= MAX_TRAINING_ENTRY_FNS:
        return apps
    chosen = set(random.Random(seed).sample(entries, MAX_TRAINING_ENTRY_FNS))
    return tuple(app for app in apps if app.function_sequence[0] in chosen)


def make_workload(
    applications: Sequence[Application],
    corpus: Sequence[TraceSeries],
    band: tuple[int, int] | None,
    duration: float,
    seed: int,
    jitter: bool = False,
    training: bool = False,
) -> WorkloadSpec:
    """Assign one trace per entry function (seeded draw) into a WorkloadSpec."""
    if not corpus:
        raise ConfigError("empty trace corpus")
    apps = tuple(applications)
    entries = sorted({app.function_sequence[0] for app in apps})
    if training and len(entries) > MAX_TRAINING_ENTRY_FNS:
        raise ConfigError(
            f"training workloads allow at most {MAX_TRAINING_ENTRY_FNS} entry functions, got {len(entries)}")
    rng = random.Random(seed)
    assigned = {fn: corpus[rng.randrange(len(corpus))] for fn in entries}
    return WorkloadSpec(duration=duration, applications=apps, entry_traces=assigned,
                        band=band, seed=seed, jitter=jitter)


# --------------------------------------------------------------------------
# Bundled application catalog. Twelve benchmark-style applications spanning
# high/medium/low CPU and memory appetite, single functions and chains. The
# profile numbers are illustrative defaults for simulation experiments, not
# measurements of the named benchmarks.

_SENS_CPU = {"high": 0.25, "medium": 0.1, "low": 0.05}     # vCPU per request
_SENS_MEM = {"high": 512.0, "medium": 256.0, "low": 128.0}  # MB per request

# name, cpu sensitivity, mem sensitivity, per-function (r0 seconds, cold start seconds)
_CATALOG: list[tuple[str, str, str, list[tuple[float, float]]]] = [
    ("primary", "high", "high", [(0.5, 5.0)]),
    ("float", "high", "high", [(0.3, 5.0)]),
    ("matmul", "high", "high", [(2.0, 5.5)]),
    ("linpack", "high", "high", [(1.5, 5.5)]),
    ("load", "low", "low", [(0.2, 2.0)]),
    ("dd", "high", "medium", [(1.0, 4.0)]),
    ("gzip", "high", "medium", [(0.8, 4.0)]),
    ("thumbnail", "low", "medium", [(0.4, 2.5), (0.6, 3.0)]),
    ("facial", "medium", "medium", [(1.0, 3.5), (2.0, 3.5), (1.5, 3.0), (0.5, 3.0), (0.5, 3.0)]),
    ("todo", "low", "low", [(0.2, 2.0), (0.2, 2.0), (0.3, 2.0), (0.2, 2.0), (0.2, 2.0)]),
    ("image", "medium", "medium", [(0.6, 3.0), (0.9, 3.5)]),
    ("video", "high", "high", [(4.0, 6.0), (3.0, 6.0)]),
]

# Initial pod limits size each replica for roughly four concurrent requests.
_INITIAL_CONCURRENCY = 4


def builtin_catalog() -> tuple[dict[int, FunctionProfile], list[Application], dict[str, int]]:
    """The bundled application set: profiles, app chains, and name -> app id."""
    profiles: dict[int, FunctionProfile] = {}
    apps: list[Application] = []
    names: dict[str, int] = {}
    fn_id = 0
    for app_id, (name, cpu_sens, mem_sens, stages) in enumerate(_CATALOG):
        seq = []
        for r0, cold in stages:
            req_cpu = _SENS_CPU[cpu_sens]
            req_mem = _SENS_MEM[mem_sens]
            profiles[fn_id] = FunctionProfile(
                function_id=fn_id,
                req_cpu=req_cpu,
                req_mem=req_mem,
                standard_response_time=r0,
                cold_start_seconds=cold,
                initial_pod_cpu=min(1.0, _INITIAL_CONCURRENCY * req_cpu),
                initial_pod_mem=min(3072.0, _INITIAL_CONCURRENCY * req_mem),
            )
            seq.append(fn_id)
            fn_id += 1
        apps.append(Application(app_id=app_id, function_sequence=tuple(seq)))
        names[name] = app_id
    return profiles, apps, names


def select_apps(names: Sequence[str]) -> tuple[dict[int, FunctionProfile], list[Application]]:
    """Subset of the catalog by application name, profiles trimmed to match."""
    profiles, apps, index = builtin_catalog()
    chosen = []
    for name in names:
        if name not in index:
            raise ConfigError(f"unknown application {name!r}; catalog: {sorted(index)}")
        chosen.append(apps[index[name]])
    used = {fn for app in chosen for fn in app.function_sequence}
    return {fn: profiles[fn] for fn in sorted(used)}, chosen
