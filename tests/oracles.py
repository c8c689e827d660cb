"""Independent brute-force recomputation of episode metrics from the raw
request ledger. Deliberately avoids the engine's streaming histories
(completion lists, busy logs, counters): everything derives from per-request
timestamps and statuses.

Also the scalar workload synthesis rule, one window, function and arrival at
a time, as the reference for the array passes of ``faaslab.workload``;
``arrival_columns``, which turns (time, app_id) pairs into the two columns
``ClusterEngine.load_arrivals`` takes; ``completed_chains``, which reads an
engine's two per-app chain lists as one root id -> ratio map;
``synthetic_traces``, the generator of the bundled trace corpus
``faaslab.workload.BUNDLED_TRACES``; and ``neumaier_sum``, the built-in
``sum()`` of Python 3.12, for tests that swap it in."""
from __future__ import annotations

import random
from collections.abc import Iterable
from itertools import cycle, islice
from operator import itemgetter

from faaslab.cluster import ClusterEngine, RequestStatus
from faaslab.errors import ConfigError
from faaslab.workload import TraceSeries, WorkloadSpec


def arrival_columns(arrivals: Iterable[tuple[float, int]]) -> tuple[list[float], list[int]]:
    """The ``(times, app_ids)`` columns of (time, app_id) pairs, in input order."""
    arrivals = list(arrivals)
    return [t for t, _ in arrivals], [app_id for _, app_id in arrivals]


def completed_chains(engine: ClusterEngine) -> dict[int, dict[int, float]]:
    """Per app, root id -> ratio of each completed chain, from ``chain_roots`` and ``chain_ratios``."""
    return {app_id: dict(zip(engine.chain_roots[app_id], ratios))
            for app_id, ratios in engine.chain_ratios.items()}


def brute_rart(engine: ClusterEngine) -> float:
    chains: dict[int, list] = {}
    for req in engine.requests.values():
        chains.setdefault(req.root_id, []).append(req)
    per_app: dict[int, list[float]] = {}
    for root_id, members in chains.items():
        members.sort(key=lambda r: r.chain_index)
        app = engine.apps[members[0].app_id]
        if len(members) != len(app.function_sequence):
            continue
        if any(r.status is not RequestStatus.COMPLETED for r in members):
            continue
        actual = sum(r.finish_time - r.arrival_time for r in members)
        standard = sum(engine.profiles[r.function_id].standard_response_time
                       for r in members)
        per_app.setdefault(app.app_id, []).append(actual / standard)
    means = [sum(v) / len(v) for v in per_app.values() if v]
    if not means:
        raise ValueError("no completed chains")
    return sum(means) / len(means)


def brute_rfr(engine: ClusterEngine) -> float:
    total = len(engine.requests)
    dropped = sum(1 for r in engine.requests.values()
                  if r.status is RequestStatus.DROPPED)
    return dropped / total if total else 0.0


def brute_rfrt(engine: ClusterEngine) -> float:
    ratios = [(r.finish_time - r.arrival_time)
              / engine.profiles[r.function_id].standard_response_time
              for r in engine.requests.values()
              if r.status is RequestStatus.COMPLETED]
    return sum(ratios) / len(ratios) if ratios else 1.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


def brute_cost(engine: ClusterEngine) -> float:
    """VM cost from the union of each VM's per-request execution intervals.

    The intervals come from the event log alone: ``pod_create`` places a pod
    on a VM, ``assign`` starts a request on a pod and ``finish`` ends it.
    """
    assert engine.log_events, "brute_cost reads the event log"
    pod_vm: dict[int, int] = {}
    started: dict[int, tuple[float, int]] = {}
    per_vm: dict[int, list[tuple[float, float]]] = {}
    for time, kind, *ids in engine.event_log:
        if kind == "pod_create":
            pod_vm[ids[0]] = ids[1]
        elif kind == "assign":
            started[ids[0]] = (time, pod_vm[ids[1]])
        elif kind == "finish":
            start, vm_id = started.pop(ids[0])
            per_vm.setdefault(vm_id, []).append((start, time))
    cost = 0.0
    for vm in engine.vms.values():
        busy = _union_length(per_vm.get(vm.spec.vm_id, []))
        cost += vm.spec.unit_price * busy / 3600.0
    return cost


# --------------------------------------------------------------------------
# The scalar synthesis rule that faaslab.workload replaced with array passes,
# kept verbatim apart from names; TraceSeries.rate_at(w) was counts[w % len].

def scalar_band_fit(raw: dict[int, int], lo: int, hi: int) -> dict[int, int]:
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


def scalar_window_rates(spec: WorkloadSpec) -> list[dict[int, int]]:
    """Per-window request rate for each entry function, band-fitted if set."""
    windows = int(spec.duration)
    if windows != spec.duration:
        raise ConfigError("workload duration must be a whole number of seconds")
    entries = spec.entry_functions
    rates = []
    for w in range(windows):
        raw = {fn: spec.entry_traces[fn].counts[w % len(spec.entry_traces[fn].counts)]
               for fn in entries}
        if spec.band is not None:
            raw = scalar_band_fit(raw, spec.band[0], spec.band[1])
        rates.append(raw)
    return rates


def scalar_synthesize(spec: WorkloadSpec) -> list[tuple[float, int]]:
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
    for w, rates in enumerate(scalar_window_rates(spec)):
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


def synthetic_traces(n: int = 40, length: int = 360, seed: int = 20260810,
                     max_rate: int = 60) -> list[TraceSeries]:
    """Bundled stand-in corpus with fluctuating per-window request rates.

    Mixes a random baseline, a slow sinusoid-like swell, and occasional
    bursts. Purely synthetic; its default-parameter output is the file
    ``BUNDLED_TRACES``, which replaces external trace datasets in the default
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


def neumaier_sum(items, start=0):
    """The built-in ``sum()`` as Python 3.12 runs it: floats are added with
    Neumaier compensation, anything else with plain ``+``."""
    total, compensation = start, 0.0
    for x in items:
        if isinstance(x, float) and isinstance(total, (int, float)):
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        else:
            total = total + x
    return total + compensation if compensation else total
