"""Discrete-event simulation of a multi-tenant serverless VM cluster.

Heterogeneous VMs host function pods. Requests are load-balanced round-robin
over ready pods, queue with periodic retries when no capacity exists, and are
dropped once the retry budget is exhausted. Pods start cold (Creating ->
Ready) and drain gracefully on scale-down (Terminating). Horizontal scaling
follows a target-CPU-utilization rule; vertical scaling resizes pod limits in
place subject to feasibility clamping.
"""
from __future__ import annotations

import bisect
import heapq
import math
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import pairwise
from operator import add, countOf, itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, SimulationError, require

# Hard bounds on a single pod's resource limits (vCPU / MB).
POD_CPU_MIN = 0.1
POD_CPU_MAX = 1.0
POD_MEM_MIN = 128.0
POD_MEM_MAX = 3072.0

# Cap on concurrent replicas of any single function, under every scaling rule.
# A constant, not a config key: the agent state divides by it, and a
# checkpoint records no normalizer.
MAX_REPLICAS = 80

_EPS = 1e-9


def replica_count(x: float) -> int:
    """Replicas for load ratio ``x``: capped, so ``inf`` gives ``MAX_REPLICAS``, then
    rounded up, tolerating float error that nudges an exact integer upward."""
    return math.ceil(min(x, MAX_REPLICAS) - _EPS)


def floor_guarded(x: float) -> int:
    """Floor that tolerates float error nudging an exact integer downward."""
    return math.floor(x + _EPS)


def float_sum(xs: Iterable[float]) -> float:
    """``0.0 + x0 + x1 + ...`` left to right, on every Python version.

    Python 3.12's built-in ``sum()`` adds floats with compensation, so a
    metric summed with it could differ from 3.10 and 3.11 in its last bits.
    """
    return reduce(add, xs, 0.0)


def desired_replicas(current: int, avg_cpu_util: float, target_util: float) -> int:
    """Replica count that brings average pod CPU utilization to the target.

    desired = ceil(min(M * C / T, MAX_REPLICAS)). With zero replicas the
    product uses one virtual replica, so a utilization proxy of 1.0 (queued
    traffic but no pods) bootstraps creation instead of staying pinned at 0.
    """
    if target_util <= 0.0:
        raise SimulationError(f"target utilization must be positive, got {target_util}")
    base = max(current, 1)
    return replica_count(base * avg_cpu_util / target_util)


def cpu_target_replicas(snap: FunctionSnapshot, target_util: float) -> int:
    """Replica count of the function in ``snap`` under the CPU-target rule.

    Not-ready (Creating) pods are set aside, as the Kubernetes HPA does:
    - no replicas: utilization reads 1.0 while requests queue and 0.0
      otherwise, so queued traffic creates the first pods;
    - replicas but none ready: the count holds, as no pod reports a load;
    - ``desired_replicas`` above the ready count while some pods are
      Creating: the count never drops, so no pod goes before it can serve;
    - otherwise ``desired_replicas``, whose average counts Creating pods at 0.
    """
    replicas, ready = snap.replicas, snap.ready_replicas
    if not replicas:
        return desired_replicas(0, 1.0 if snap.queued_requests else 0.0, target_util)
    if not ready:
        return replicas
    desired = desired_replicas(replicas, snap.avg_pod_cpu_util, target_util)
    return max(desired, replicas) if desired > ready else desired


class PodPhase(Enum):
    CREATING = "Creating"
    READY = "Ready"
    TERMINATING = "Terminating"


class RequestStatus(Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    COMPLETED = "Completed"
    DROPPED = "Dropped"


@dataclass(frozen=True)
class VmSpec:
    vm_id: int
    cpu_capacity: float  # vCPU cores
    mem_capacity: float  # MB
    unit_price: float    # $/hour

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0 or self.mem_capacity <= 0:
            raise ConfigError(f"vm {self.vm_id}: capacities must be positive")
        if self.unit_price < 0:
            raise ConfigError(f"vm {self.vm_id}: unit price must be nonnegative")

    def holds(self, cpu: float, mem: float) -> bool:
        """Whether a pod of these limits fits this VM while it is empty,
        within the tolerance of ``ClusterEngine._place_pod``."""
        return self.cpu_capacity - cpu >= -_EPS and self.mem_capacity - mem >= -_EPS


@dataclass(slots=True)
class VmState:
    """Mutable per-VM bookkeeping.

    Its pods are those whose ``PodState.vm_id`` names it; its pod count and
    its CPU and memory in use are read off them, not kept here. ``busy_log``
    is the only record of when the VM was "active": by default while it has
    at least one in-flight request, optionally (``active_time_mode="pods"``)
    while it hosts at least one pod. It holds the closed busy intervals;
    ``busy_since``, set exactly while the VM is active, starts the open one.
    The intervals are disjoint and appended in time order, so both their
    starts and their ends ascend, and ``busy_overlap`` bisects to the first
    interval that can overlap a window instead of scanning the whole log.
    """

    spec: VmSpec
    cpu_allocated: float = 0.0
    mem_allocated: float = 0.0
    inflight: int = 0
    busy_since: Optional[float] = None
    busy_log: list[tuple[float, float]] = field(default_factory=list)

    def busy_overlap(self, t0: float, t1: float) -> float:
        """Total busy time inside [t0, t1]; the open interval counts to t1.

        Intervals ending at or before t0, or starting after t1, would add
        exactly 0.0, so they are skipped without changing the sum.
        """
        total = 0.0
        log = self.busy_log
        for i in range(bisect.bisect_right(log, t0, key=itemgetter(1)), len(log)):
            start, end = log[i]
            if start > t1:
                break
            total += max(0.0, min(end, t1) - max(start, t0))
        if self.busy_since is not None:
            total += max(0.0, t1 - max(self.busy_since, t0))
        return total


@dataclass(frozen=True)
class FunctionProfile:
    function_id: int
    req_cpu: float                 # vCPU consumed per in-flight request
    req_mem: float                 # MB consumed per in-flight request
    standard_response_time: float  # seconds on a warm pod
    cold_start_seconds: float      # pod creation -> readiness
    initial_pod_cpu: float         # vCPU limit for newly deployed pods
    initial_pod_mem: float         # MB limit for newly deployed pods

    def __post_init__(self) -> None:
        for name in ("req_cpu", "req_mem", "standard_response_time",
                     "cold_start_seconds", "initial_pod_cpu", "initial_pod_mem"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"function {self.function_id}: {name} must be positive")
        # A new pod must be one the engine may resize to and must fit one
        # request, by the bounds of _assert_feasible and PodState.concurrency_bound.
        for limit, req, lo, hi in (("initial_pod_cpu", "req_cpu", POD_CPU_MIN, POD_CPU_MAX),
                                   ("initial_pod_mem", "req_mem", POD_MEM_MIN, POD_MEM_MAX)):
            if not lo - _EPS <= getattr(self, limit) <= hi + _EPS:
                raise ConfigError(f"function {self.function_id}: {limit} must lie in "
                                  f"[{lo}, {hi}], got {getattr(self, limit)}")
            if floor_guarded(getattr(self, limit) / getattr(self, req)) < 1:
                raise ConfigError(f"function {self.function_id}: {req} {getattr(self, req)} "
                                  f"exceeds {limit} {getattr(self, limit)}: a pod fits no request")
        if self.standard_response_time >= 10.0:
            raise ConfigError(f"function {self.function_id}: standard_response_time must stay below 10 s")


@dataclass(slots=True)
class PodState:
    pod_id: int
    profile: FunctionProfile
    vm_id: int
    cpu_limit: float
    mem_limit: float
    phase: PodPhase
    in_flight: int = 0  # requests running on the pod now
    # Requests the limits admit at once; kept in step with them by ``resize``.
    max_concurrency: int = field(init=False)

    def __post_init__(self) -> None:
        self.max_concurrency = self.concurrency_bound()

    def concurrency_bound(self) -> int:
        return floor_guarded(min(self.cpu_limit / self.profile.req_cpu,
                                 self.mem_limit / self.profile.req_mem))

    def resize(self, cpu_delta: float, mem_delta: float) -> None:
        self.cpu_limit += cpu_delta
        self.mem_limit += mem_delta
        self.max_concurrency = self.concurrency_bound()

    @property
    def is_open(self) -> bool:
        """Ready and below its concurrency bound: routing may assign to it."""
        return self.phase is PodPhase.READY and self.in_flight < self.max_concurrency

    @property
    def function_id(self) -> int:
        return self.profile.function_id

    @property
    def cpu_used(self) -> float:
        return self.in_flight * self.profile.req_cpu

    @property
    def mem_used(self) -> float:
        return self.in_flight * self.profile.req_mem


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One request as it stood when the record was built from the engine's columns."""

    request_id: int
    app_id: int
    chain_index: int
    function_id: int
    arrival_time: float
    root_id: int
    chain_elapsed: float = 0.0  # summed response time of the chain's earlier stages
    finish_time: Optional[float] = None
    status: RequestStatus = RequestStatus.QUEUED
    retries: int = 0
    pod_id: Optional[int] = None


# The pod-column mark of a dropped request, which never holds a pod.
_DROPPED = -1


def _request_status(finish_time: Optional[float], pod_id: Optional[int]) -> RequestStatus:
    """A request's status from its finish-time and pod columns."""
    if pod_id is None:
        return RequestStatus.QUEUED
    if pod_id == _DROPPED:
        return RequestStatus.DROPPED
    return RequestStatus.RUNNING if finish_time is None else RequestStatus.COMPLETED


class RequestView(Mapping[int, RequestRecord]):
    """Read-only mapping of request id to ``RequestRecord`` over the engine's
    columns and chain links.

    ``len`` is O(1). Each lookup builds a new frozen record: a snapshot that
    later events do not change. A request with no link starts its own chain:
    its chain index, root and elapsed time read ``(0, its own id, 0.0)``.
    """

    __slots__ = ("_columns", "_links")

    def __init__(self, columns: tuple[list, ...], links: Mapping[int, tuple[int, int, float]]):
        self._columns = columns
        self._links = links

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._columns[0])))

    def __getitem__(self, rid: int) -> RequestRecord:
        if not isinstance(rid, int) or not 0 <= rid < len(self._columns[0]):
            raise KeyError(rid)
        app_id, fn, arrival, finish, retries, pod = [column[rid] for column in self._columns]
        stage, root, elapsed = self._links.get(rid, (0, rid, 0.0))
        return RequestRecord(rid, app_id, stage, fn, arrival, root, elapsed, finish,
                             _request_status(finish, pod), retries,
                             None if pod == _DROPPED else pod)


@dataclass(frozen=True)
class Application:
    app_id: int
    function_sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.function_sequence:
            raise ConfigError(f"application {self.app_id}: empty function sequence")


@dataclass(frozen=True)
class SimConfig:
    retry_interval: float = 1.0
    max_retries: int = 10
    active_time_mode: str = "inflight"  # "inflight" | "pods"

    def __post_init__(self) -> None:
        # A retry falls due one interval after the clock. An hour is far past
        # the presets' 1 s; at 1e308 the second retry would fall due at inf.
        require(0 < self.retry_interval <= 3600, "sim.retry_interval must lie in (0, 3600]",
                self.retry_interval)
        require(self.max_retries >= 0, "sim.max_retries must be >= 0", self.max_retries)
        require(self.active_time_mode in ("inflight", "pods"),
                "sim.active_time_mode must be 'inflight' or 'pods'", self.active_time_mode)


class FunctionSnapshot(NamedTuple):
    """One function's load and performance, handed to scaling policies and the RL state."""

    function_id: int
    pod_cpu: float
    pod_mem: float
    req_cpu: float
    req_mem: float
    arrival_rate: float
    rfrt: float
    rfr: float
    avg_pod_cpu_util: float
    avg_pod_mem_util: float
    replicas: int
    ready_replicas: int
    running_requests: int
    queued_requests: int
    standard_response_time: float


class FunctionWindow(NamedTuple):
    """One function's traffic in a window (t0, t1], as ``ClusterEngine.window`` counts it."""

    arrivals: int
    drops: int
    rfrt: float
    rfr: float


# Event kinds of a heap entry (time, seq, kind, arg); arg is a request or pod id.
_FINISH, _POD_READY = 0, 1
# The next-arrival pair once every loaded arrival is dispatched: after the
# (time, seq) of any event, even one at time inf.
_NO_ARRIVAL = (math.inf, math.inf)


class ClusterEngine:
    """Single-threaded deterministic event-queue simulator.

    An engine owns its full cluster state; parallel experiments use
    independent engine instances. All event dispatch is ordered by
    (timestamp, insertion sequence) so identical inputs replay identically.

    Pending events come from three sources, all keyed by the same (time, seq):

    * retries sit in ``_retries``, a FIFO of ``(time, seq, request_id)``,
      one per queued request. A retry is due one ``retry_interval`` after
      the clock it was pushed at, and the clock never goes back, so each
      push goes at the tail.
    * finishes and pod readiness sit in ``_heap`` as ``(time, seq, kind,
      arg)``, where ``kind`` is ``_FINISH`` or ``_POD_READY`` and ``arg`` the
      request or pod id.
    * loaded arrivals sit in ``_pending``, three columns of times, sequence
      numbers and app ids in ``(time, seq)`` order; the ones before
      ``_cursor`` are dispatched, and once all are the columns are emptied.
      The columns are lists, except that a batch loaded without a merge
      keeps its consecutive sequence numbers as one ``range``.

    ``advance`` is the one dispatch loop. It always takes the smallest of the
    FIFO head, the heap top and the next arrival, so the order is the one a
    single heap of every event would give, and runs retries, arrivals,
    finishes and routing inline; only pod readiness calls a method. A due
    retry is logged, then dropped once the retry budget is spent, routed
    when its function has an open pod (``open_pods``), or re-queued. An
    arrival or a chain hand-off is routed when its function has an open
    pod; otherwise it is queued at once. Both routes run one block at the
    end of the loop body. ``route_request`` is the same rule for one queued
    request, for callers outside the loop.

    Requests are columns: ``req_function_id`` and its parallel lists, one
    per ``RequestRecord`` field after the id but the chain fields and the
    status, indexed by request id. They hold no object the garbage collector
    tracks. A request that starts its own chain (an arrival) stores no chain
    state; ``chain_links`` maps each later stage's request id to its
    ``(chain_index, root_id, chain_elapsed)``, written at the hand-off. A
    request's status is read off its pod and finish columns: no pod means
    queued, a pod and no finish time running, a finish time completed, and
    the mark ``_DROPPED`` in the pod column dropped. ``requests`` is a
    read-only ``RequestView`` of them whose lookups build frozen snapshots.
    Each pod counts its running requests in ``PodState.in_flight``, and each
    finish appends its time and response-time ratio to the function's
    ``completion_times`` and ``completion_ratios``, in finish order; each
    drop appends its time to ``drop_times``. ``completed_total`` and
    ``dropped_total`` are counts over those lists, not counters of their own. A
    request's start time and VM are not stored: its ``assign`` log entry
    says when it started and on which pod, and the pod table ``pods`` is the
    one record of where each pod runs.

    With ``log_events`` every event also appends a ``(time, kind, *ids)``
    tuple to ``event_log``; otherwise nothing is appended and ``event_log``
    stays empty. The log is a pure sink: nothing in the simulation reads it.
    """

    def __init__(
        self,
        vms: Sequence[VmSpec],
        profiles: Iterable[FunctionProfile] | Mapping[int, FunctionProfile],
        apps: Iterable[Application],
        config: SimConfig = SimConfig(),
        log_events: bool = True,
    ):
        if isinstance(profiles, Mapping):
            profiles = profiles.values()
        self.config = config
        self._pods_mode = config.active_time_mode == "pods"
        self.clock = 0.0
        self.vms: dict[int, VmState] = {}
        for spec in sorted(vms, key=lambda s: s.vm_id):
            if spec.vm_id in self.vms:
                raise ConfigError(f"duplicate vm id {spec.vm_id}")
            self.vms[spec.vm_id] = VmState(spec=spec)
        if not self.vms:
            raise ConfigError("cluster has no VMs")
        self.profiles: dict[int, FunctionProfile] = {}
        for p in profiles:
            if p.function_id in self.profiles:
                raise ConfigError(f"duplicate function id {p.function_id}")
            self.profiles[p.function_id] = p
        self.apps: dict[int, Application] = {}
        for app in apps:
            if app.app_id in self.apps:
                raise ConfigError(f"duplicate app id {app.app_id}")
            for fn in app.function_sequence:
                if fn not in self.profiles:
                    raise ConfigError(f"application {app.app_id} uses function {fn} without a profile")
            self.apps[app.app_id] = app
        self.deployed_fns: tuple[int, ...] = tuple(sorted(
            {fn for app in self.apps.values() for fn in app.function_sequence}))

        # Current pod sizing per function; newly created pods adopt it.
        self.pod_size: dict[int, tuple[float, float]] = {
            fn: (self.profiles[fn].initial_pod_cpu, self.profiles[fn].initial_pod_mem)
            for fn in self.profiles
        }
        self.pods: dict[int, PodState] = {}
        self.fn_pods: dict[int, list[int]] = {fn: [] for fn in self.profiles}
        self._rr_cursor: dict[int, int] = {fn: 0 for fn in self.profiles}
        # Pods per function for which ``PodState.is_open`` holds.
        self.open_pods: dict[int, int] = {fn: 0 for fn in self.profiles}

        # One column per RequestRecord field after the id but the chain
        # fields and the status, indexed by request id; the status is derived
        # by ``_request_status``.
        self._req_columns = tuple([] for _ in range(6))
        (self.req_app_id, self.req_function_id, self.req_arrival_time,
         self.req_finish_time, self.req_retries, self.req_pod_id) = self._req_columns
        # (chain_index, root_id, chain_elapsed) of each request at chain index
        # 1 or more; a request with no entry reads (0, its own id, 0.0).
        self.chain_links: dict[int, tuple[int, int, float]] = {}
        self.requests: Mapping[int, RequestRecord] = RequestView(self._req_columns,
                                                                 self.chain_links)
        self._app_fns = {app_id: app.function_sequence for app_id, app in self.apps.items()}
        # Per app, each fully completed chain's root id and response-time
        # ratio (its summed response time over its summed standard response
        # time), as two parallel lists in completion order.
        self.chain_roots: dict[int, list[int]] = {app_id: [] for app_id in self.apps}
        self.chain_ratios: dict[int, list[float]] = {app_id: [] for app_id in self.apps}
        self._chain_standard: dict[int, float] = {
            app_id: float_sum(self.profiles[fn].standard_response_time
                              for fn in app.function_sequence)
            for app_id, app in self.apps.items()
        }
        # Monotone per-function histories for windowed metrics.
        self.arrival_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.completion_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.completion_ratios: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.drop_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self._windows: dict[tuple, FunctionWindow] = {}  # ``window`` memo; ``advance`` empties it

        self.log_events = log_events
        self.event_log: list[tuple] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._retries: deque[tuple[float, int, int]] = deque()
        self._pending: tuple[list[float], Sequence[int], list[int]] = ([], [], [])
        self._cursor = 0
        self._seq = 0
        self._next_pod_id = 0

    # ------------------------------------------------------------------ events

    def _push(self, time: float, kind: int, arg: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, arg))

    def load_arrivals(self, times: Sequence[float] | np.ndarray,
                      app_ids: Sequence[int] | np.ndarray) -> None:
        """Queue entry-function arrivals: one of app ``app_ids[i]`` at ``times[i]``.

        Arrival ``i`` takes sequence number ``_seq + 1 + i``, so ties in time
        dispatch in input order. The input need not be sorted; a sorted batch
        loaded while no arrival is pending skips the merge. A batch with an
        unknown app or a time before the clock is rejected whole: the
        ``ConfigError`` names its first such arrival and the engine is left
        as it was. Failing those, a batch with a NaN or infinite time is
        rejected the same way, naming its first one.
        """
        times = np.asarray(times, dtype=np.float64)
        apps = np.asarray(app_ids)
        if times.ndim != 1 or apps.shape != times.shape:
            raise ConfigError("arrival times and app ids must be two columns of one length")
        clock = self.clock
        unknown = ~np.isin(apps, list(self.apps))
        bad = unknown | (times < clock)
        if bad.any():
            k = int(bad.argmax())
            if unknown[k]:
                raise ConfigError(f"arrival references unknown app {apps[k].item()}")
            raise ConfigError(f"arrival at {times[k].item()} lies before the clock ({clock})")
        nonfinite = ~np.isfinite(times)
        if nonfinite.any():
            raise ConfigError(
                f"arrival at {times[nonfinite.argmax()].item()} is not a finite time")
        seqs = range(self._seq + 1, self._seq + 1 + times.size)
        self._seq += times.size
        apps = apps.astype(np.int64)
        rest = self._cursor
        if rest < len(self._pending[0]) or (times[1:] < times[:-1]).any():
            # merge the undispatched arrivals and the batch in (time, seq) order
            columns = [np.concatenate((np.array(old[rest:], dtype=new.dtype), new))
                       for old, new in zip(self._pending, (times, np.array(seqs), apps))]
            order = np.lexsort((columns[1], columns[0]))
            self._pending = tuple(column[order].tolist() for column in columns)
        else:
            self._pending = (times.tolist(), seqs, apps.tolist())
        self._cursor = 0

    def advance(self, until: float) -> None:
        """Dispatch every event with timestamp <= until and move the clock to it.

        A finish or drop is recorded only in its function's time lists. With
        ``log_events`` each dispatched event is appended to ``event_log``."""
        if until < self.clock - _EPS:
            raise SimulationError(f"cannot advance backwards ({self.clock} -> {until})")
        self._windows.clear()
        heap = self._heap
        retries = self._retries
        pending_times, pending_seqs, pending_apps = self._pending
        n_pending = len(pending_times)
        i = self._cursor
        # The next arrival's (time, seq), rebuilt as each arrival is dispatched.
        nxt = (pending_times[i], pending_seqs[i]) if i < n_pending else _NO_ARRIVAL
        # The last sequence number issued; written back to ``_seq`` on every exit.
        seq = self._seq
        pods = self.pods
        vms = self.vms
        fn_pods = self.fn_pods
        rr_cursor = self._rr_cursor
        app_fns = self._app_fns
        open_pods = self.open_pods
        arrival_times = self.arrival_times
        completion_times = self.completion_times
        completion_ratios = self.completion_ratios
        drop_times = self.drop_times
        chain_roots = self.chain_roots
        chain_ratios = self.chain_ratios
        chain_standard = self._chain_standard
        links = self.chain_links
        (req_app_id, req_fn, req_arrival_time, req_finish_time, req_retries,
         req_pod_id) = self._req_columns
        max_retries = self.config.max_retries
        retry_interval = self.config.retry_interval
        pods_mode = self._pods_mode
        heappop, heappush = heapq.heappop, heapq.heappush
        ready, terminating = PodPhase.READY, PodPhase.TERMINATING
        log = self.event_log if self.log_events else None
        while True:
            if retries and (not heap or retries[0] < heap[0]) and retries[0] < nxt:
                time, _, rid = retries[0]
                if time > until:
                    break
                retries.popleft()
                self.clock = time
                fn = req_fn[rid]
                if log is not None:
                    log.append((time, "retry", rid))
                tries = req_retries[rid]
                if tries >= max_retries:
                    req_pod_id[rid] = _DROPPED
                    drop_times[fn].append(time)
                    if log is not None:
                        log.append((time, "drop", rid))
                    continue
                req_retries[rid] = tries + 1
                if not open_pods[fn]:
                    seq += 1
                    retries.append((time + retry_interval, seq, rid))
                    continue
            else:
                if heap and heap[0] < nxt:
                    if heap[0][0] > until:
                        break
                    time, _, kind, arg = heappop(heap)
                    self.clock = time
                    if kind:  # _POD_READY
                        self._on_pod_ready(arg)
                        continue
                    pod = pods[req_pod_id[arg]]
                    profile = pod.profile
                    fn = req_fn[arg]
                    vm = vms[pod.vm_id]
                    req_finish_time[arg] = time
                    in_flight = pod.in_flight = pod.in_flight - 1
                    if pod.phase is ready and in_flight == pod.max_concurrency - 1:
                        open_pods[fn] += 1
                    vm.inflight -= 1
                    if not vm.inflight and not pods_mode:
                        # The last request left: close the busy interval. In
                        # "pods" mode the pod is still on the VM, so it stays active.
                        vm.busy_log.append((vm.busy_since, time))
                        vm.busy_since = None
                    response = time - req_arrival_time[arg]
                    ratio = response / profile.standard_response_time
                    completion_times[fn].append(time)
                    completion_ratios[fn].append(ratio)
                    if log is not None:
                        log.append((time, "finish", arg))
                    if pod.phase is terminating and not in_flight:
                        self._remove_pod(pod)
                    app_id = req_app_id[arg]
                    fns = app_fns[app_id]
                    if len(fns) == 1:
                        # A one-function chain is its request: (0.0 + response)
                        # / (0 + standard) is bit for bit ``ratio``.
                        chain_roots[app_id].append(arg)
                        chain_ratios[app_id].append(ratio)
                        continue
                    # Stages finish in chain order, so this adds up in the same
                    # order as the standard times in ``_chain_standard``.
                    stage, root, elapsed = links.get(arg) or (0, arg, 0.0)
                    elapsed += response
                    stage += 1
                    if stage == len(fns):
                        chain_roots[app_id].append(root)
                        chain_ratios[app_id].append(elapsed / chain_standard[app_id])
                        continue
                    # Chained functions hand off immediately: no inter-function delay.
                    rid = len(req_fn)
                    links[rid] = (stage, root, elapsed)
                else:
                    time = nxt[0]
                    if time > until or nxt is _NO_ARRIVAL:
                        break
                    self.clock = time
                    app_id = pending_apps[i]
                    i += 1
                    nxt = (pending_times[i], pending_seqs[i]) if i < n_pending else _NO_ARRIVAL
                    stage = 0
                    rid = len(req_fn)
                    fns = app_fns[app_id]
                # Request ``rid``, for stage ``stage`` of ``app_id``, arrives
                # now. It is routed below if its function has an open pod and
                # queued otherwise; a failed arrival-time attempt counts as
                # its first retry.
                fn = fns[stage]
                req_app_id.append(app_id)
                req_fn.append(fn)
                req_arrival_time.append(time)
                req_finish_time.append(None)
                req_pod_id.append(None)
                arrival_times[fn].append(time)
                if log is not None:
                    log.append((time, "arrival", rid, fn))
                if not open_pods[fn]:
                    req_retries.append(1)
                    if log is not None:
                        log.append((time, "queue", rid))
                    seq += 1
                    retries.append((time + retry_interval, seq, rid))
                    continue
                req_retries.append(0)
            # Start request ``rid`` of ``fn`` on the next open pod by the
            # function's round-robin cursor: charge the pod and its VM and
            # schedule the finish. The cursor's own pod is almost always
            # open; only otherwise are the others scanned, from the next one.
            pod_ids = fn_pods[fn]
            n = len(pod_ids)
            if n:
                k = rr_cursor[fn] % n
                pod = pods[pod_ids[k]]
            if not n or pod.phase is not ready or pod.in_flight >= pod.max_concurrency:
                for off in range(1, n):
                    j = (k + off) % n
                    pod = pods[pod_ids[j]]
                    if pod.phase is ready and pod.in_flight < pod.max_concurrency:
                        k = j
                        break
                else:
                    self._seq = seq
                    raise SimulationError(
                        f"function {fn}: open-pod count is {open_pods[fn]} but no pod is open")
            k += 1
            rr_cursor[fn] = k if k < n else 0
            pod_id = pod.pod_id
            vm = vms[pod.vm_id]
            req_pod_id[rid] = pod_id
            in_flight = pod.in_flight = pod.in_flight + 1
            if in_flight == pod.max_concurrency:
                open_pods[fn] -= 1
            vm.inflight += 1
            if vm.busy_since is None:  # in either mode a VM serving a request is active
                vm.busy_since = time
            if log is not None:
                log.append((time, "assign", rid, pod_id))
            seq += 1
            heappush(heap, (time + pod.profile.standard_response_time, seq, _FINISH, rid))
        self._seq = seq
        if i and i == n_pending:  # every loaded arrival is dispatched: free the columns
            self._pending, i = ([], [], []), 0
        self._cursor = i
        self.clock = max(self.clock, until)  # an until up to _EPS behind keeps the clock

    def next_event_time(self) -> Optional[float]:
        next_arrival = self._pending[0][self._cursor:self._cursor + 1]  # [] when none
        return min([queue[0][0] for queue in (self._heap, self._retries) if queue]
                   + next_arrival, default=None)

    @property
    def completed_total(self) -> int:
        """Requests completed so far: the summed length of ``completion_times``."""
        return sum(map(len, self.completion_times.values()))

    @property
    def dropped_total(self) -> int:
        """Requests dropped so far: the summed length of ``drop_times``."""
        return sum(map(len, self.drop_times.values()))

    def pending_requests(self) -> bool:
        """True while any request is neither completed nor dropped."""
        return len(self.req_function_id) > self.completed_total + self.dropped_total

    def _log(self, kind: str, *ids) -> None:
        if self.log_events:
            self.event_log.append((self.clock, kind) + ids)

    # --------------------------------------------------------------- lifecycle

    def route_request(self, rid: int) -> int:
        """Start queued request ``rid`` on the next open pod by its function's round-robin cursor.

        This is the single-request form of the rule ``advance`` applies
        inline. Starting the request withdraws its pending retry, charges the
        pod and its VM, and schedules its finish; the pod id is returned. A
        request that is not queued, or a function with no open pod, raises
        ``SimulationError`` and leaves the engine as it was.
        """
        if not 0 <= rid < len(self.req_pod_id) or self.req_pod_id[rid] is not None:
            raise SimulationError(f"request {rid} is not queued")
        fn = self.req_function_id[rid]
        pod_ids = self.fn_pods[fn]
        n = len(pod_ids)
        cursor = self._rr_cursor[fn] % n if n else 0
        for off in range(n):
            pod = self.pods[pod_ids[(cursor + off) % n]]
            if pod.is_open:
                break
        else:
            raise SimulationError(
                f"function {fn}: open-pod count is {self.open_pods[fn]} but no pod is open")
        self._rr_cursor[fn] = (cursor + off + 1) % n
        self._retries.remove(next(entry for entry in self._retries if entry[2] == rid))
        now = self.clock
        pod_id = pod.pod_id
        vm = self.vms[pod.vm_id]
        self.req_pod_id[rid] = pod_id
        pod.in_flight += 1
        if pod.in_flight == pod.max_concurrency:
            self.open_pods[fn] -= 1
        vm.inflight += 1
        if vm.busy_since is None:  # in either mode a VM serving a request is active
            vm.busy_since = now
        self._log("assign", rid, pod_id)
        self._push(now + pod.profile.standard_response_time, _FINISH, rid)
        return pod_id

    def _on_pod_ready(self, pod_id: int) -> None:
        pod = self.pods.get(pod_id)
        if pod is None or pod.phase is not PodPhase.CREATING:
            return  # stale: pod was scaled down while starting
        pod.phase = PodPhase.READY
        if pod.is_open:
            self.open_pods[pod.function_id] += 1
        self._log("pod_ready", pod_id)

    # -------------------------------------------------------------- scaling

    def live_pods(self, fn: int) -> list[PodState]:
        """Pods of a function that participate in scaling (not Terminating)."""
        return [self.pods[pid] for pid in self.fn_pods[fn]
                if self.pods[pid].phase is not PodPhase.TERMINATING]

    def horizontal_delta(self, fn: int, target_util: float) -> int:
        """Replica change that brings fn's average pod CPU utilization to the
        target: the ``kube_cpu`` rule on the function's ``snapshot``."""
        if fn not in self.profiles:
            raise ConfigError(f"unknown function {fn}")
        snap = self.snapshot(fn, 0.0)
        return cpu_target_replicas(snap, target_util) - snap.replicas

    def apply_horizontal(self, fn: int, delta: int) -> None:
        """Create ``delta`` pods of fn, or remove ``-delta``.

        Creations use best-fit placement (smallest remaining CPU after
        placement, ties to the lowest vm id); once a placement fits nowhere
        the rest are skipped. Removals take idle pods first,
        newest first; busy pods drain via Terminating.
        """
        for _ in range(delta):
            if self._place_pod(fn) is None:
                break
        if delta < 0:
            self._scale_down(fn, -delta)

    def _place_pod(self, fn: int) -> Optional[int]:
        cpu, mem = self.pod_size[fn]
        best = None
        best_key = None
        for vm in self.vms.values():
            rem_cpu = vm.spec.cpu_capacity - vm.cpu_allocated - cpu
            rem_mem = vm.spec.mem_capacity - vm.mem_allocated - mem
            if rem_cpu < -_EPS or rem_mem < -_EPS:
                continue
            key = (rem_cpu, vm.spec.vm_id)
            if best_key is None or key < best_key:
                best, best_key = vm, key
        if best is None:
            return None
        pod_id = self._next_pod_id
        self._next_pod_id += 1
        profile = self.profiles[fn]
        self.pods[pod_id] = PodState(pod_id=pod_id, profile=profile, vm_id=best.spec.vm_id,
                                     cpu_limit=cpu, mem_limit=mem, phase=PodPhase.CREATING)
        self.fn_pods[fn].append(pod_id)
        best.cpu_allocated += cpu
        best.mem_allocated += mem
        if self._pods_mode and best.busy_since is None:  # the VM's first pod
            best.busy_since = self.clock
        self._push(self.clock + profile.cold_start_seconds, _POD_READY, pod_id)
        self._log("pod_create", pod_id, best.spec.vm_id)
        return pod_id

    def _scale_down(self, fn: int, count: int) -> None:
        chosen = sorted(self.live_pods(fn), key=lambda p: (p.in_flight > 0, -p.pod_id))[:count]
        for pod in chosen:
            if not pod.in_flight:
                self._remove_pod(pod)
                continue
            if pod.is_open:
                self.open_pods[fn] -= 1
            pod.phase = PodPhase.TERMINATING
            self._log("pod_terminating", pod.pod_id)

    def _remove_pod(self, pod: PodState) -> None:
        if pod.is_open:
            self.open_pods[pod.function_id] -= 1
        vm = self.vms[pod.vm_id]
        vm.cpu_allocated -= pod.cpu_limit
        vm.mem_allocated -= pod.mem_limit
        fn = pod.function_id
        idx = self.fn_pods[fn].index(pod.pod_id)
        self.fn_pods[fn].pop(idx)
        if idx < self._rr_cursor[fn]:
            self._rr_cursor[fn] -= 1
        if self.fn_pods[fn]:
            self._rr_cursor[fn] %= len(self.fn_pods[fn])
        else:
            self._rr_cursor[fn] = 0
        del self.pods[pod.pod_id]
        if self._pods_mode and all(p.vm_id != pod.vm_id for p in self.pods.values()):
            vm.busy_log.append((vm.busy_since, self.clock))  # the VM's last pod left
            vm.busy_since = None
        self._log("pod_remove", pod.pod_id)

    def clamp_vertical(self, fn: int, cpu_delta: float, mem_delta: float) -> tuple[float, float]:
        """Largest same-sign feasible resize deltas, clamped independently.

        Growing is limited by the per-pod maxima and by free capacity on every
        VM hosting live replicas; shrinking by the per-pod minima and by the
        highest instantaneous utilization among live replicas. A fully
        infeasible direction clamps to zero.
        """
        if fn not in self.profiles:
            raise ConfigError(f"unknown function {fn}")
        cpu_now, mem_now = self.pod_size[fn]
        live = self.live_pods(fn)
        per_vm = [(self.vms[vm_id], n) for vm_id, n in Counter(p.vm_id for p in live).items()]

        def clamp(delta: float, now: float, lo: float, hi: float,
                  util_floor: float, free_per_replica: Iterable[float]) -> float:
            if delta > 0:
                return max(0.0, min(delta, hi - now, *free_per_replica))
            if delta < 0:
                floor = max(lo, util_floor)
                return min(0.0, max(delta, floor - now))
            return 0.0

        cpu_floor = max((p.cpu_used for p in live), default=0.0)
        mem_floor = max((p.mem_used for p in live), default=0.0)
        cpu_star = clamp(cpu_delta, cpu_now, POD_CPU_MIN, POD_CPU_MAX, cpu_floor,
                         ((vm.spec.cpu_capacity - vm.cpu_allocated) / n for vm, n in per_vm))
        mem_star = clamp(mem_delta, mem_now, POD_MEM_MIN, POD_MEM_MAX, mem_floor,
                         ((vm.spec.mem_capacity - vm.mem_allocated) / n for vm, n in per_vm))
        return cpu_star, mem_star

    def apply_vertical(self, fn: int, cpu_delta: float, mem_delta: float) -> None:
        """In-place resize of every live pod; future pods adopt the new size."""
        cpu_now, mem_now = self.pod_size[fn]
        self.pod_size[fn] = (cpu_now + cpu_delta, mem_now + mem_delta)
        for pod in self.live_pods(fn):
            was_open = pod.is_open
            pod.resize(cpu_delta, mem_delta)
            self.open_pods[fn] += pod.is_open - was_open
            vm = self.vms[pod.vm_id]
            vm.cpu_allocated += cpu_delta
            vm.mem_allocated += mem_delta
        self._assert_feasible(fn)

    def _assert_feasible(self, fn: int) -> None:
        cpu, mem = self.pod_size[fn]
        if not (POD_CPU_MIN - _EPS <= cpu <= POD_CPU_MAX + _EPS):
            raise SimulationError(f"function {fn}: pod cpu limit {cpu} out of bounds")
        if not (POD_MEM_MIN - _EPS <= mem <= POD_MEM_MAX + _EPS):
            raise SimulationError(f"function {fn}: pod mem limit {mem} out of bounds")
        for pod in self.live_pods(fn):
            if pod.cpu_used > pod.cpu_limit + _EPS or pod.mem_used > pod.mem_limit + _EPS:
                raise SimulationError(f"pod {pod.pod_id}: limit resized below utilization")
        for vm in self.vms.values():
            if vm.cpu_allocated > vm.spec.cpu_capacity + _EPS:
                raise SimulationError(f"vm {vm.spec.vm_id}: cpu over-allocated")
            if vm.mem_allocated > vm.spec.mem_capacity + _EPS:
                raise SimulationError(f"vm {vm.spec.vm_id}: mem over-allocated")

    # ------------------------------------------------------------ observation

    def queued_requests(self, fn: int) -> int:
        """Queued requests of ``fn``: its entries in the retry FIFO, counted now."""
        return countOf(map(self.req_function_id.__getitem__, map(itemgetter(2), self._retries)), fn)

    def window(self, fn: int, t0: float, t1: float) -> FunctionWindow:
        """Arrivals and drops of ``fn`` in (t0, t1], the mean response-time ratio
        (RFRT) of its completions there, 1.0 with none so that idle functions
        neither reward nor punish a policy, and drops over arrivals (RFR), 0.0
        with no arrivals."""
        if (counts := self._windows.get((fn, t0, t1))) is not None:  # counted since the last advance
            return counts
        times = self.arrival_times[fn]
        arrivals = bisect.bisect_right(times, t1) - bisect.bisect_right(times, t0)
        times = self.drop_times[fn]
        drops = bisect.bisect_right(times, t1) - bisect.bisect_right(times, t0)
        times = self.completion_times[fn]
        ratios = self.completion_ratios[fn][bisect.bisect_right(times, t0):
                                            bisect.bisect_right(times, t1)]
        counts = self._windows[fn, t0, t1] = FunctionWindow(
            arrivals, drops, float_sum(ratios) / len(ratios) if ratios else 1.0,
            drops / arrivals if arrivals else 0.0)
        return counts

    def snapshot(self, fn: int, window: float) -> FunctionSnapshot:
        """Function ``fn`` now; rates and ratios cover the last ``window`` seconds.

        Idle pods' utilization terms are exactly 0.0, so the sums skip them."""
        now = self.clock
        counts = self.window(fn, now - window, now)
        profile = self.profiles[fn]
        req_cpu, req_mem = profile.req_cpu, profile.req_mem
        pods = self.pods
        terminating, ready_phase = PodPhase.TERMINATING, PodPhase.READY
        replicas = ready = running = 0
        cpu_utils, mem_utils = [], []
        for pid in self.fn_pods[fn]:
            pod = pods[pid]
            if (phase := pod.phase) is not terminating:
                replicas += 1
                ready += phase is ready_phase
                if n := pod.in_flight:
                    running += n
                    cpu_utils.append(n * req_cpu / pod.cpu_limit)
                    mem_utils.append(n * req_mem / pod.mem_limit)
        cpu_size, mem_size = self.pod_size[fn]
        return FunctionSnapshot(
            fn, cpu_size, mem_size, req_cpu, req_mem,
            counts.arrivals / window if window > 0 else 0.0,
            counts.rfrt, counts.rfr,
            float_sum(cpu_utils) / replicas if replicas else 0.0,
            float_sum(mem_utils) / replicas if replicas else 0.0,
            replicas, ready, running, self.queued_requests(fn),
            profile.standard_response_time)

    # ------------------------------------------------------------ diagnostics

    def check_invariants(self) -> None:
        """Recount derived counts and totals from their records; raise AssertionError on drift.

        Tests call it, and so does the benchmark after every episode. The
        checks raise explicitly, so they also run under ``python -O``.
        """
        hosted: dict[int, list[PodState]] = {vm_id: [] for vm_id in self.vms}
        for pod in self.pods.values():
            hosted[pod.vm_id].append(pod)
        for vm_id, vm in self.vms.items():
            pods = hosted[vm_id]
            _check(vm.inflight == sum(p.in_flight for p in pods), "vm in-flight count drift")
            _check(abs(sum(p.cpu_limit for p in pods) - vm.cpu_allocated) < 1e-6, "cpu allocation drift")
            _check(abs(sum(p.mem_limit for p in pods) - vm.mem_allocated) < 1e-6, "mem allocation drift")
            _check(vm.cpu_allocated <= vm.spec.cpu_capacity + 1e-6, "cpu over-allocation")
            _check(vm.mem_allocated <= vm.spec.mem_capacity + 1e-6, "mem over-allocation")
            _check(sum(p.cpu_used for p in pods) <= vm.cpu_allocated + 1e-6, "cpu usage above allocation")
            _check(sum(p.mem_used for p in pods) <= vm.mem_allocated + 1e-6, "mem usage above allocation")
            active = bool(pods) if self._pods_mode else vm.inflight > 0
            _check((vm.busy_since is not None) == active, "busy interval out of step with activity")
        _check(len({len(column) for column in self._req_columns}) == 1,
               "request columns differ in length")
        running_pods: Counter[int] = Counter()
        queued_rids = []
        finished = dropped = 0
        for rid, (pod_id, finish, retries) in enumerate(zip(
                self.req_pod_id, self.req_finish_time, self.req_retries)):
            if pod_id is None:
                _check(finish is None, "queued request with a finish time")
                queued_rids.append(rid)
            elif pod_id == _DROPPED:
                _check(finish is None, "dropped request with a finish time")
                dropped += 1
            elif finish is None:
                running_pods[pod_id] += 1
            else:
                finished += 1
            # a request queued on arrival counts that failed attempt as retry 1
            _check(retries <= max(self.config.max_retries, 1), "retries above the retry budget")
        _check(self.completed_total == finished,
               "finish times differ from the completion times")
        _check(all(len(self.completion_ratios[fn]) == len(times)
                   for fn, times in self.completion_times.items()),
               "completion times and ratios differ in length")
        _check(self.dropped_total == dropped, "drop marks differ from the drop times")
        _check(all(len(self.chain_roots[app_id]) == len(ratios)
                   for app_id, ratios in self.chain_ratios.items()),
               "chain roots and ratios differ in length")
        _check(Counter({fn: len(times) for fn, times in self.arrival_times.items()})
               == Counter(self.req_function_id), "arrival times differ from the request count")
        app_of, fn_of, links = self.req_app_id, self.req_function_id, self.chain_links
        for rid, (stage, root, _) in links.items():
            _check(0 <= rid < len(fn_of), "chain link of an unknown request")
            fns = self._app_fns[app_of[rid]]
            _check(1 <= stage < len(fns), "chain link index out of range")
            _check(fn_of[rid] == fns[stage], "chain link on another function")
            _check(0 <= root < rid and root not in links and app_of[root] == app_of[rid],
                   "chain link root is not an earlier entry request of its app")
        _check(all(fn == self._app_fns[app_id][0]
                   for rid, (app_id, fn) in enumerate(zip(app_of, fn_of)) if rid not in links),
               "entry request on another function")
        # window() bisects these lists, so each must ascend
        for name, record in (("arrival", self.arrival_times), ("completion", self.completion_times),
                             ("drop", self.drop_times)):
            _check(all(a <= b for times in record.values() for a, b in pairwise(times)),
                   f"{name} times out of order")
        _check(all(a < b for a, b in pairwise(self._retries)), "retry FIFO out of order")
        # queued_rids ascends: one pending retry per queued request and none for any other
        _check(sorted(rid for _, _, rid in self._retries) == queued_rids,
               "queued requests and pending retries differ")
        for pod in self.pods.values():
            _check(pod.in_flight == running_pods[pod.pod_id], "in-flight count drift")
            _check(pod.max_concurrency == pod.concurrency_bound(), "stale concurrency bound")
            _check(pod.in_flight <= pod.max_concurrency, "pod concurrency overflow")
            if pod.phase is PodPhase.CREATING:
                _check(not pod.in_flight, "creating pod is serving requests")
        for fn, pod_ids in self.fn_pods.items():
            open_count = sum(1 for pid in pod_ids if self.pods[pid].is_open)
            _check(open_count == self.open_pods[fn], "open-pod count drift")
        _check(all(kind in (_FINISH, _POD_READY) for _, _, kind, _ in self._heap),
               "heap entry of an unknown kind")
        _check(all(seq <= self._seq for _, seq, _, _ in self._heap),
               "heap entry with an unissued sequence number")
        _check(all(seq <= self._seq for _, seq, _ in self._retries),
               "retry with an unissued sequence number")
        times, seqs, apps = self._pending
        _check(len(times) == len(seqs) == len(apps), "pending arrival columns differ in length")
        _check(0 <= self._cursor <= len(times), "arrival cursor out of range")
        pending = list(zip(times[self._cursor:], seqs[self._cursor:]))
        _check(all(a < b for a, b in pairwise(pending)), "pending arrivals out of order")
        _check(not pending or pending[0][0] >= self.clock, "pending arrival before the clock")
        _check(all(seq <= self._seq for _, seq in pending),
               "pending arrival with an unissued sequence number")


def _check(ok: bool, message: str) -> None:
    """``assert ok, message`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(message)
