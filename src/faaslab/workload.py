"""Workload ingestion and synthesis.

Traces carry per-minute invocation counts; each count is reinterpreted as the
request rate (req/s) during one second-long window of the workload. Arrivals
inside a window are evenly spaced by default (keeps oracle tests exact); a
jitter flag places them uniformly at random instead, which is equivalent to a
Poisson process conditioned on the window count.

The default corpus ships as the trace file ``BUNDLED_TRACES``: 40 synthetic
series of 360 counts, written once by ``synthetic_traces`` in
``tests/oracles.py``, whose parameters its ``#`` header line names. It is read
like any ``traces_file``, which replaces it.

Synthesis runs as numpy array passes, not a loop per window and arrival:
``window_rates`` band-fits one windows x entry-functions count array, and
``synthesize`` derives each arrival's window, offset and dealt app from it.
The times are bit-identical to the scalar rule kept as the reference in
``tests/oracles.py``. Each offset or rescaled count is one correctly rounded
float64 division (``i / count``, ``raw * target / total``) on the same exact
integers, and a stable sort keeps arrivals with tied times in (window,
function, index) order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import Application, FunctionProfile
from .errors import ConfigError, read_text

TRAIN_BAND = (10, 60)
EVAL_BANDS = {"low": (5, 20), "mid": (20, 40), "high": (40, 60)}
MAX_TRAINING_ENTRY_FNS = 4
BUNDLED_TRACES = Path(__file__).parent / "data" / "synthetic_traces.txt"
# One workload's arrivals as ``synthesize`` returns them: (times, app_ids).
Arrivals = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TraceSeries:
    trace_id: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ConfigError(f"trace {self.trace_id!r} is empty")
        if min(self.counts) < 0:
            raise ConfigError(f"trace {self.trace_id!r} has negative counts")


def load_traces(path: str | Path) -> list[TraceSeries]:
    """Parse a delimited trace file: ``trace_id, c1 c2 ... cn`` per line;
    blank lines and ``#`` lines are skipped."""
    text = read_text(path)
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
            counts = tuple(map(int, rest.split()))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-integer count ({exc})") from None
        try:
            series.append(TraceSeries(trace_id=trace_id, counts=counts))
        except ConfigError as exc:  # the record's own check names no file or line
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not series:
        raise ConfigError(f"{path}: no traces found")
    return series


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
        if self.band is not None and not (
                len(self.band) == 2 and all(isinstance(b, int) for b in self.band)
                and 0 <= self.band[0] <= self.band[1]):
            raise ConfigError(f"workload band must be integers 0 <= lo <= hi, got {self.band}")
        for app in self.applications:
            entry = app.function_sequence[0]
            if entry not in self.entry_traces:
                raise ConfigError(f"application {app.app_id}: entry function {entry} has no trace")

    @property
    def entry_functions(self) -> tuple[int, ...]:
        return tuple(sorted({app.function_sequence[0] for app in self.applications}))


def window_rates(spec: WorkloadSpec) -> np.ndarray:
    """Per-window request rate of each entry function, band-fitted if set.

    One integer array of windows x entry functions, columns in
    ``spec.entry_functions`` order. A window whose aggregate lies outside
    ``band`` is scaled proportionally toward the nearest band edge. If its
    rounded sum still misses the band it is nudged one request at a time
    (largest raw share first, ties to the lowest function id). Deterministic.
    """
    windows = int(spec.duration)
    if windows != spec.duration:
        raise ConfigError("workload duration must be a whole number of seconds")
    rates = np.stack([np.resize(np.array(spec.entry_traces[fn].counts, dtype=np.int64), windows)
                      for fn in spec.entry_functions], axis=1)
    if spec.band is None:
        return rates
    lo, hi = spec.band
    total = rates.sum(axis=1)
    target = np.clip(total, lo, hi)
    off = np.flatnonzero(total != target)
    raw = rates[off]
    # One float64 division of exact integers, rounded half to even: the value
    # int(round(raw * target / total)) gives on Python ints.
    fitted = np.rint(raw * target[off, None] / np.maximum(total[off], 1)[:, None]).astype(np.int64)
    sums = fitted.sum(axis=1)
    for k in np.flatnonzero((sums < lo) | (sums > hi)).tolist():
        row, order = fitted[k], np.argsort(-raw[k], kind="stable")
        n, short, excess = len(order), lo - int(sums[k]), int(sums[k]) - hi
        if short > 0:  # one request each, round-robin in nudge order
            row[order] += short // n + (np.arange(n) < short % n)
        i = 0
        while excess > 0:
            fn = order[i % n]
            if row[fn] > 0:
                row[fn] -= 1
                excess -= 1
            i += 1
    rates[off] = fitted
    return rates


def synthesize(spec: WorkloadSpec) -> Arrivals:
    """Materialize the arrivals as two time-ordered columns: ``times``
    (float64 seconds) and ``app_ids`` (int64), the form ``load_arrivals`` takes.

    Only entry functions get synthetic arrivals; chained successors are
    spawned by the simulator when the preceding function completes. When
    several applications share an entry function its arrivals are dealt
    round-robin across them (sorted by app id), window after window.

    Both columns are read-only, so one batch can be loaded into several
    episodes' engines without any of them altering it.
    """
    rates = window_rates(spec)
    entries = spec.entry_functions
    counts = rates.ravel()  # cells in (window, entry function) order
    cell = np.repeat(np.arange(counts.size), counts)
    index = np.arange(cell.size) - (np.cumsum(counts) - counts)[cell]  # within its cell
    if spec.jitter:
        rng = random.Random(spec.seed)
        draws = np.array([rng.random() for _ in range(cell.size)])
        offsets = draws[np.lexsort((draws, cell))]  # sorted within each cell
    else:
        offsets = index / counts[cell]
    times = cell // len(entries) + offsets
    # An arrival's running index among its entry function's arrivals, modulo
    # that function's app count, picks its app from the function's sorted ids.
    apps = [sorted(app.app_id for app in spec.applications if app.function_sequence[0] == fn)
            for fn in entries]
    sizes = np.array([len(ids) for ids in apps])
    column = cell % len(entries)
    dealt = (np.cumsum(rates, axis=0) - rates).ravel()[cell] + index
    app_ids = np.concatenate(apps)[(np.cumsum(sizes) - sizes)[column] + dealt % sizes[column]]
    order = np.argsort(times, kind="stable")
    times, app_ids = times[order], app_ids[order]
    times.setflags(write=False)
    app_ids.setflags(write=False)
    return times, app_ids


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
    band: tuple[int, int],
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
            raise ConfigError(f"applications lists unknown application {name!r}; "
                              f"catalog: {sorted(index)}")
        chosen.append(apps[index[name]])
    used = {fn for app in chosen for fn in app.function_sequence}
    return {fn: profiles[fn] for fn in sorted(used)}, chosen
