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
import random
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import pairwise
from operator import itemgetter
from typing import Optional

from .errors import ConfigError, SimulationError, require

# Hard bounds on a single pod's resource limits (vCPU / MB).
POD_CPU_MIN = 0.1
POD_CPU_MAX = 1.0
POD_MEM_MIN = 128.0
POD_MEM_MAX = 3072.0

# Cap on concurrent replicas of any single function.
MAX_REPLICAS = 80

_EPS = 1e-9


def ceil_guarded(x: float) -> int:
    """Ceiling that tolerates float error nudging an exact integer upward."""
    return math.ceil(x - _EPS)


def floor_guarded(x: float) -> int:
    """Floor that tolerates float error nudging an exact integer downward."""
    return math.floor(x + _EPS)


def desired_replicas(
    current: int,
    avg_cpu_util: float,
    target_util: float,
    max_replicas: int = MAX_REPLICAS,
) -> int:
    """Replica count that brings average pod CPU utilization to the target.

    desired = min(ceil(M * C / T), max_replicas). With zero replicas the
    product uses one virtual replica, so a utilization proxy of 1.0 (queued
    traffic but no pods) bootstraps creation instead of staying pinned at 0.
    """
    if target_util <= 0.0:
        raise SimulationError(f"target utilization must be positive, got {target_util}")
    base = max(current, 1)
    return min(ceil_guarded(base * avg_cpu_util / target_util), max_replicas)


def cpu_target_replicas(replicas: int, avg_cpu_util: float, queued: int,
                        target_util: float, max_replicas: int) -> int:
    """``desired_replicas`` of a function; with zero replicas its utilization
    reads 1.0 while requests queue and 0.0 otherwise."""
    if not replicas:
        avg_cpu_util = 1.0 if queued else 0.0
    return desired_replicas(replicas, avg_cpu_util, target_util, max_replicas)


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


@dataclass(slots=True)
class VmState:
    """Mutable per-VM bookkeeping.

    ``pod_count`` counts the VM's pods; ``PodState.vm_id`` says which they are.
    ``busy_log`` is the only record of when the VM was "active": by default
    while it has at least one in-flight request, optionally
    (``active_time_mode="pods"``) while it hosts at least one pod. It holds
    the closed busy intervals; ``busy_since``, set exactly while the VM is
    active, starts the open one. The intervals are disjoint and appended in
    time order, so both their starts and their ends ascend, and
    ``busy_overlap`` bisects to the first interval that can overlap a window
    instead of scanning the whole log.
    """

    spec: VmSpec
    cpu_allocated: float = 0.0
    mem_allocated: float = 0.0
    cpu_used: float = 0.0
    mem_used: float = 0.0
    pod_count: int = 0
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
        if self.initial_pod_cpu > POD_CPU_MAX + _EPS:
            raise ConfigError(f"function {self.function_id}: initial_pod_cpu exceeds {POD_CPU_MAX} vCPU")
        if self.initial_pod_mem > POD_MEM_MAX + _EPS:
            raise ConfigError(f"function {self.function_id}: initial_pod_mem exceeds {POD_MEM_MAX} MB")
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

    @property
    def cpu_util(self) -> float:
        return self.cpu_used / self.cpu_limit

    @property
    def mem_util(self) -> float:
        return self.mem_used / self.mem_limit


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
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    status: RequestStatus = RequestStatus.QUEUED
    retries: int = 0
    pod_id: Optional[int] = None
    vm_id: Optional[int] = None


class RequestView(Mapping[int, RequestRecord]):
    """Read-only mapping of request id to ``RequestRecord`` over the engine's columns.

    ``len`` is O(1). Each lookup builds a new frozen record: a snapshot that
    later events do not change.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple[list, ...]):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._columns[0])))

    def __getitem__(self, rid: int) -> RequestRecord:
        if not isinstance(rid, int) or not 0 <= rid < len(self._columns[0]):
            raise KeyError(rid)
        return RequestRecord(rid, *[column[rid] for column in self._columns])


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
    max_replicas: int = MAX_REPLICAS
    exec_noise_sigma: float = 0.0      # lognormal sigma on execution time; 0 disables
    active_time_mode: str = "inflight"  # "inflight" | "pods"
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.retry_interval > 0, "sim.retry_interval must be > 0", self.retry_interval)
        require(self.max_retries >= 0, "sim.max_retries must be >= 0", self.max_retries)
        require(self.max_replicas >= 1, "sim.max_replicas must be >= 1", self.max_replicas)
        require(self.active_time_mode in ("inflight", "pods"),
                "sim.active_time_mode must be 'inflight' or 'pods'", self.active_time_mode)
        # lognormvariate's exp(sigma * z) overflows past 709: z > 70 at sigma 10, never drawn
        require(0 <= self.exec_noise_sigma <= 10, "sim.exec_noise_sigma must lie in [0, 10]",
                self.exec_noise_sigma)


@dataclass(frozen=True)
class FunctionSnapshot:
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
    running_requests: int
    queued_requests: int
    standard_response_time: float


# Event kinds of a heap entry (time, seq, kind, arg); arg is an app, request or pod id.
_ARRIVAL, _FINISH, _POD_READY = 0, 1, 2


class ClusterEngine:
    """Single-threaded deterministic event-queue simulator.

    An engine owns its full cluster state; parallel experiments use
    independent engine instances. All event dispatch is ordered by
    (timestamp, insertion sequence) so identical inputs replay identically.

    Pending events are of four kinds, all keyed by the same (time, seq):

    * retries sit in ``_retries``, a FIFO of ``(time, seq, request_id)``,
      one per queued request; ``queued`` counts them per function. A retry
      is due one ``retry_interval`` after the clock it was pushed at, and
      the clock never goes back, so each push goes at the tail.
    * arrivals, finishes and pod readiness sit in ``_heap`` as
      ``(time, seq, kind, arg)``, where ``kind`` is ``_ARRIVAL``,
      ``_FINISH`` or ``_POD_READY`` and ``arg`` the app, request or pod id.
    * loaded arrivals not yet in the heap wait in ``_arrivals``, sorted
      latest first. Each ``load_arrivals`` moves the earliest one into the
      heap and each dispatched arrival moves the next one, so the earliest
      pending arrival is always in the heap.

    ``advance`` is the one dispatch loop. It always takes the smaller of the
    FIFO head and the heap top, so the order is the one a single heap of
    every event would give, and runs retries, arrivals and finishes inline.
    A due retry is logged, then dropped once the retry budget is spent,
    routed when its function has an open pod (``open_pods``), or re-queued.
    An arrival or a chain hand-off calls ``route_request`` only when its
    function has an open pod; otherwise it is queued at once.

    Requests are columns: ``req_status`` and its parallel lists, one per
    ``RequestRecord`` field after the id, indexed by request id. They hold
    no object the garbage collector tracks. ``requests`` is a read-only
    ``RequestView`` of them whose lookups build frozen snapshots. Each pod
    counts its running requests in ``PodState.in_flight``, and each finish
    appends its time and response-time ratio to the function's
    ``completion_times`` and ``completion_ratios``, in finish order. The pod
    table ``pods`` is the one record of where each pod runs.

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

        # One column per RequestRecord field after the id, indexed by request id.
        self._req_columns = tuple([] for _ in fields(RequestRecord)[1:])
        (self.req_app_id, self.req_chain_index, self.req_function_id,
         self.req_arrival_time, self.req_root_id, self.req_chain_elapsed,
         self.req_start_time, self.req_finish_time, self.req_status,
         self.req_retries, self.req_pod_id, self.req_vm_id) = self._req_columns
        self.requests: Mapping[int, RequestRecord] = RequestView(self._req_columns)
        self._app_fns = {app_id: app.function_sequence for app_id, app in self.apps.items()}
        # Per app, root id -> response-time ratio of each fully completed chain:
        # its summed response time over its summed standard response time.
        self.chain_ratios: dict[int, dict[int, float]] = {app_id: {} for app_id in self.apps}
        self._chain_standard: dict[int, float] = {
            app_id: sum(self.profiles[fn].standard_response_time
                        for fn in app.function_sequence)
            for app_id, app in self.apps.items()
        }
        # Queued requests per function; each has one entry in ``_retries``.
        self.queued: dict[int, int] = {fn: 0 for fn in self.profiles}
        self.creation_shortfall: dict[int, int] = {fn: 0 for fn in self.profiles}

        # Monotone per-function histories for windowed metrics.
        self.arrival_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.completion_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.completion_ratios: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.drop_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}

        self.completed_total = 0
        self.dropped_total = 0

        self.log_events = log_events
        self.event_log: list[tuple] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._retries: deque[tuple[float, int, int]] = deque()
        self._arrivals: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._next_pod_id = 0
        self._rng = random.Random(config.seed)

    # ------------------------------------------------------------------ events

    def _push(self, time: float, kind: int, arg: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, arg))

    def _push_retry(self, request_id: int) -> None:
        self._seq += 1
        self._retries.append((self.clock + self.config.retry_interval, self._seq,
                              request_id))

    def load_arrivals(self, arrivals: Iterable[tuple[float, int]]) -> None:
        """Queue entry-function arrivals as (timestamp, app_id) pairs.

        Each arrival takes its sequence number in input order, so ties in time
        dispatch in input order. The input need not be sorted; a sorted batch
        loaded while no arrival is pending skips the sort. A batch with an
        unknown app or a time before the clock is rejected whole: the
        ``ConfigError`` names its first such arrival and the engine is left
        as it was. Failing those, a batch with a NaN or infinite time is
        rejected the same way, naming its first one.
        """
        apps = self.apps
        clock = self.clock
        seq = self._seq
        batch = []
        last = clock
        in_order = True
        nonfinite = None  # the batch's first NaN or infinite time
        for t, app_id in arrivals:
            if app_id not in apps:
                raise ConfigError(f"arrival references unknown app {app_id}")
            if not t >= last:  # out of order, before the clock, NaN, or after an inf
                if t < clock:
                    raise ConfigError(f"arrival at {t} lies before the clock ({clock})")
                if nonfinite is None:
                    if batch and last == math.inf:
                        nonfinite = last
                    elif t != t:
                        nonfinite = t
                in_order = False
            last = t
            seq += 1
            batch.append((t, seq, _ARRIVAL, app_id))
        if nonfinite is None and batch and last == math.inf:
            nonfinite = last  # only infinite times follow the batch's first one
        if nonfinite is not None:
            raise ConfigError(f"arrival at {nonfinite} is not a finite time")
        if batch:
            self._seq = seq
            pending = self._arrivals
            if pending or not in_order:
                pending.extend(batch)
                pending.sort(reverse=True)
            else:  # an in-order batch alone: latest first is its reverse
                batch.reverse()
                pending.extend(batch)
            heapq.heappush(self._heap, pending.pop())

    def advance(self, until: float) -> None:
        """Dispatch every event with timestamp <= until and move the clock to it.

        With ``log_events`` each dispatched event is appended to ``event_log``."""
        if until < self.clock - _EPS:
            raise SimulationError(f"cannot advance backwards ({self.clock} -> {until})")
        heap = self._heap
        retries = self._retries
        arrivals = self._arrivals
        pods = self.pods
        vms = self.vms
        app_fns = self._app_fns
        open_pods = self.open_pods
        n_queued = self.queued
        arrival_times = self.arrival_times
        completion_times = self.completion_times
        completion_ratios = self.completion_ratios
        (req_app_id, req_chain_index, req_fn, req_arrival_time, req_root_id, req_chain_elapsed,
         _, req_finish_time, req_status, req_retries, req_pod_id, _) = self._req_columns
        # Column handles for the new-request block.
        (add_app_id, add_chain_index, add_fn, add_arrival_time, add_root_id,
         add_chain_elapsed, add_start_time, add_finish_time, add_status, add_retries,
         add_pod_id, add_vm_id) = (column.append for column in self._req_columns)
        max_retries = self.config.max_retries
        pods_mode = self._pods_mode
        push_retry = self._push_retry
        route = self.route_request
        heappop, heappush = heapq.heappop, heapq.heappush
        ready, terminating = PodPhase.READY, PodPhase.TERMINATING
        queued = RequestStatus.QUEUED
        log = self.event_log if self.log_events else None
        while True:
            if retries and (not heap or retries[0] < heap[0]):
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
                    req_status[rid] = RequestStatus.DROPPED
                    n_queued[fn] -= 1
                    self.dropped_total += 1
                    self.drop_times[fn].append(time)
                    if log is not None:
                        log.append((time, "drop", rid))
                    continue
                req_retries[rid] = tries + 1
                if open_pods[fn]:
                    route(rid)
                else:
                    push_retry(rid)
                continue
            if not heap or heap[0][0] > until:
                break
            time, _, kind, arg = heappop(heap)
            self.clock = time
            if kind == _FINISH:
                pod = pods[req_pod_id[arg]]
                profile = pod.profile
                fn = req_fn[arg]
                vm = vms[pod.vm_id]
                req_status[arg] = RequestStatus.COMPLETED
                req_finish_time[arg] = time
                in_flight = pod.in_flight = pod.in_flight - 1
                if pod.phase is ready and in_flight == pod.max_concurrency - 1:
                    open_pods[fn] += 1
                vm.cpu_used -= profile.req_cpu
                vm.mem_used -= profile.req_mem
                vm.inflight -= 1
                if not vm.inflight and not pods_mode:
                    # The last request left: close the busy interval. In
                    # "pods" mode the pod is still on the VM, so it stays active.
                    vm.busy_log.append((vm.busy_since, time))
                    vm.busy_since = None
                self.completed_total += 1
                response = time - req_arrival_time[arg]
                completion_times[fn].append(time)
                completion_ratios[fn].append(response / profile.standard_response_time)
                if log is not None:
                    log.append((time, "finish", arg))
                if pod.phase is terminating and not in_flight:
                    self._remove_pod(pod)
                # Stages finish in chain order, so this adds up in the same
                # order as the standard times in ``_chain_standard``.
                elapsed = req_chain_elapsed[arg] + response
                app_id = req_app_id[arg]
                root = req_root_id[arg]
                stage = req_chain_index[arg] + 1
                fns = app_fns[app_id]
                if stage == len(fns):
                    self.chain_ratios[app_id][root] = elapsed / self._chain_standard[app_id]
                    continue
                # Chained functions hand off immediately: no inter-function delay.
            elif kind == _ARRIVAL:
                if arrivals:
                    heappush(heap, arrivals.pop())
                app_id, stage, root, elapsed = arg, 0, len(req_status), 0.0
                fns = app_fns[arg]
            else:
                self._on_pod_ready(arg)
                continue
            # A request for stage ``stage`` of ``app_id`` arrives now, with the
            # next id. It is routed if its function has an open pod and queued
            # otherwise; a failed arrival-time attempt counts as its first retry.
            rid = len(req_status)
            fn = fns[stage]
            add_app_id(app_id)
            add_chain_index(stage)
            add_fn(fn)
            add_arrival_time(time)
            add_root_id(root)
            add_chain_elapsed(elapsed)
            add_start_time(None)
            add_finish_time(None)
            add_status(queued)
            add_pod_id(None)
            add_vm_id(None)
            arrival_times[fn].append(time)
            if log is not None:
                log.append((time, "arrival", rid, fn))
            if open_pods[fn]:
                add_retries(0)
                route(rid)
            else:
                add_retries(1)
                n_queued[fn] += 1
                if log is not None:
                    log.append((time, "queue", rid))
                push_retry(rid)
        self.clock = max(self.clock, until)  # an until up to _EPS behind keeps the clock

    def next_event_time(self) -> Optional[float]:
        return min((queue[0][0] for queue in (self._heap, self._retries) if queue),
                   default=None)

    def pending_requests(self) -> bool:
        """True while any request is neither completed nor dropped."""
        return len(self.requests) > self.completed_total + self.dropped_total

    def _log(self, kind: str, *ids) -> None:
        if self.log_events:
            self.event_log.append((self.clock, kind) + ids)

    # --------------------------------------------------------------- lifecycle

    def route_request(self, rid: int) -> int:
        """Start request ``rid`` on the next open pod by the per-function round-robin cursor.

        Starting it charges the pod and its VM and schedules its finish; the
        pod id is returned. Callers route only while ``open_pods`` counts an
        open pod for the request's function; a scan that finds none raises
        ``SimulationError``.
        """
        fn = self.req_function_id[rid]
        open_pods = self.open_pods[fn]
        pod_ids = self.fn_pods[fn]
        pods = self.pods
        ready = PodPhase.READY
        n = len(pod_ids)
        cursor = self._rr_cursor[fn] % n if n else 0
        for off in range(n):
            pod = pods[pod_ids[(cursor + off) % n]]
            if pod.phase is ready and pod.in_flight < pod.max_concurrency:
                break
        else:
            raise SimulationError(
                f"function {fn}: open-pod count is {open_pods} but no pod is open")
        self._rr_cursor[fn] = (cursor + off + 1) % n
        now = self.clock
        pod_id = pod.pod_id
        profile = pod.profile
        vm = self.vms[pod.vm_id]
        self.req_status[rid] = RequestStatus.RUNNING
        self.req_start_time[rid] = now
        self.req_pod_id[rid] = pod_id
        self.req_vm_id[rid] = pod.vm_id
        if self.req_retries[rid]:  # a request that never queued is not counted
            self.queued[fn] -= 1
        pod.in_flight += 1
        if pod.in_flight == pod.max_concurrency:
            self.open_pods[fn] -= 1
        vm.cpu_used += profile.req_cpu
        vm.mem_used += profile.req_mem
        vm.inflight += 1
        if vm.busy_since is None:  # in either mode a VM serving a request is active
            vm.busy_since = now
        if self.log_events:
            self.event_log.append((now, "assign", rid, pod_id))
        exec_time = profile.standard_response_time
        sigma = self.config.exec_noise_sigma
        if sigma > 0:
            exec_time *= self._rng.lognormvariate(0.0, sigma)
        self._seq += 1
        heapq.heappush(self._heap, (now + exec_time, self._seq, _FINISH, rid))
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

    def _live_pods(self, fn: int) -> list[PodState]:
        """Pods of a function that participate in scaling (not Terminating)."""
        return [self.pods[pid] for pid in self.fn_pods[fn]
                if self.pods[pid].phase is not PodPhase.TERMINATING]

    def replicas_per_vm(self, fn: int) -> Counter[int]:
        """Live pods of ``fn`` on each VM, keyed by vm id; 0 for a VM without one."""
        return Counter(pod.vm_id for pod in self._live_pods(fn))

    def horizontal_delta(self, fn: int, target_util: float) -> int:
        """Replica change that brings fn's average pod CPU utilization to the target."""
        if fn not in self.profiles:
            raise ConfigError(f"unknown function {fn}")
        live = self._live_pods(fn)
        util = sum(p.cpu_util for p in live) / len(live) if live else 0.0
        return cpu_target_replicas(len(live), util, self.queued[fn], target_util,
                                   self.config.max_replicas) - len(live)

    def apply_horizontal(self, fn: int, delta: int) -> list[int]:
        """Create or remove pods; returns ids of pods created/affected.

        Creations use best-fit placement (smallest remaining CPU after
        placement, ties to the lowest vm id); placements that fit nowhere are
        skipped and counted as shortfall. Removals take idle pods first,
        newest first; busy pods drain via Terminating.
        """
        if delta > 0:
            created = []
            for _ in range(delta):
                pod_id = self._place_pod(fn)
                if pod_id is None:
                    self.creation_shortfall[fn] += delta - len(created)
                    break
                created.append(pod_id)
            return created
        if delta < 0:
            return self._scale_down(fn, -delta)
        return []

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
        best.pod_count += 1
        best.cpu_allocated += cpu
        best.mem_allocated += mem
        if self._pods_mode and best.busy_since is None:  # the VM's first pod
            best.busy_since = self.clock
        self._push(self.clock + profile.cold_start_seconds, _POD_READY, pod_id)
        self._log("pod_create", pod_id, best.spec.vm_id)
        return pod_id

    def _scale_down(self, fn: int, count: int) -> list[int]:
        chosen = sorted(self._live_pods(fn), key=lambda p: (p.in_flight > 0, -p.pod_id))[:count]
        for pod in chosen:
            if not pod.in_flight:
                self._remove_pod(pod)
                continue
            if pod.is_open:
                self.open_pods[fn] -= 1
            pod.phase = PodPhase.TERMINATING
            self._log("pod_terminating", pod.pod_id)
        return [pod.pod_id for pod in chosen]

    def _remove_pod(self, pod: PodState) -> None:
        if pod.is_open:
            self.open_pods[pod.function_id] -= 1
        vm = self.vms[pod.vm_id]
        vm.pod_count -= 1
        vm.cpu_allocated -= pod.cpu_limit
        vm.mem_allocated -= pod.mem_limit
        if self._pods_mode and not vm.pod_count:  # the VM's last pod left
            vm.busy_log.append((vm.busy_since, self.clock))
            vm.busy_since = None
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
        live = self._live_pods(fn)
        per_vm = [(self.vms[vm_id], n) for vm_id, n in self.replicas_per_vm(fn).items()]

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
        for pod in self._live_pods(fn):
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
        for pod in self._live_pods(fn):
            if pod.cpu_used > pod.cpu_limit + _EPS or pod.mem_used > pod.mem_limit + _EPS:
                raise SimulationError(f"pod {pod.pod_id}: limit resized below utilization")
        for vm in self.vms.values():
            if vm.cpu_allocated > vm.spec.cpu_capacity + _EPS:
                raise SimulationError(f"vm {vm.spec.vm_id}: cpu over-allocated")
            if vm.mem_allocated > vm.spec.mem_capacity + _EPS:
                raise SimulationError(f"vm {vm.spec.vm_id}: mem over-allocated")

    # ------------------------------------------------------------ observation

    def window_arrivals(self, fn: int, t0: float, t1: float) -> int:
        return _count_in_window(self.arrival_times[fn], t0, t1)

    def window_drops(self, fn: int, t0: float, t1: float) -> int:
        return _count_in_window(self.drop_times[fn], t0, t1)

    def window_rfrt(self, fn: int, t0: float, t1: float) -> float:
        """Mean response-time ratio of fn requests completed in (t0, t1].

        An empty window reports the neutral ratio 1.0, so idle functions
        neither reward nor punish a scaling policy.
        """
        times = self.completion_times[fn]
        ratios = self.completion_ratios[fn][bisect.bisect_right(times, t0):
                                            bisect.bisect_right(times, t1)]
        return sum(ratios) / len(ratios) if ratios else 1.0

    def window_rfr(self, fn: int, t0: float, t1: float) -> float:
        """Drops in (t0, t1] over arrivals in (t0, t1]; 0.0 with no arrivals."""
        arrived = self.window_arrivals(fn, t0, t1)
        return self.window_drops(fn, t0, t1) / arrived if arrived else 0.0

    def snapshot(self, fn: int, window: float) -> FunctionSnapshot:
        """Function ``fn`` now; rates and ratios cover the last ``window`` seconds."""
        now = self.clock
        t0 = now - window
        live = self._live_pods(fn)
        cpu_size, mem_size = self.pod_size[fn]
        profile = self.profiles[fn]
        return FunctionSnapshot(
            function_id=fn,
            pod_cpu=cpu_size,
            pod_mem=mem_size,
            req_cpu=profile.req_cpu,
            req_mem=profile.req_mem,
            arrival_rate=(self.window_arrivals(fn, t0, now) / window
                          if window > 0 else 0.0),
            rfrt=self.window_rfrt(fn, t0, now),
            rfr=self.window_rfr(fn, t0, now),
            avg_pod_cpu_util=sum(p.cpu_util for p in live) / len(live) if live else 0.0,
            avg_pod_mem_util=sum(p.mem_util for p in live) / len(live) if live else 0.0,
            replicas=len(live),
            running_requests=sum(p.in_flight for p in live),
            queued_requests=self.queued[fn],
            standard_response_time=profile.standard_response_time,
        )

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
            _check(vm.pod_count == len(pods), "pod count drift")
            _check(vm.inflight == sum(p.in_flight for p in pods), "vm in-flight count drift")
            _check(abs(sum(p.cpu_limit for p in pods) - vm.cpu_allocated) < 1e-6, "cpu allocation drift")
            _check(abs(sum(p.mem_limit for p in pods) - vm.mem_allocated) < 1e-6, "mem allocation drift")
            _check(abs(sum(p.cpu_used for p in pods) - vm.cpu_used) < 1e-6, "cpu usage drift")
            _check(abs(sum(p.mem_used for p in pods) - vm.mem_used) < 1e-6, "mem usage drift")
            _check(vm.cpu_allocated <= vm.spec.cpu_capacity + 1e-6, "cpu over-allocation")
            _check(vm.mem_allocated <= vm.spec.mem_capacity + 1e-6, "mem over-allocation")
            _check(vm.cpu_used <= vm.cpu_allocated + 1e-6, "cpu usage above allocation")
            _check(vm.mem_used <= vm.mem_allocated + 1e-6, "mem usage above allocation")
            active = vm.pod_count > 0 if self._pods_mode else vm.inflight > 0
            _check((vm.busy_since is not None) == active, "busy interval out of step with activity")
        _check(len({len(column) for column in self._req_columns}) == 1,
               "request columns differ in length")
        running_pods: Counter[int] = Counter()
        queued_rids = []
        for rid, (status, pod_id, finish, retries) in enumerate(zip(
                self.req_status, self.req_pod_id, self.req_finish_time, self.req_retries)):
            if status is RequestStatus.RUNNING:
                _check(pod_id is not None and finish is None,
                       "running request without a pod or with a finish time")
                running_pods[pod_id] += 1
            elif status is RequestStatus.COMPLETED:
                _check(finish is not None, "completed request without a finish time")
            elif status is RequestStatus.QUEUED:
                _check(pod_id is None, "queued request holding a pod")
                queued_rids.append(rid)
            _check(retries <= self.config.max_retries, "retries above the retry budget")
        for pod in self.pods.values():
            _check(pod.in_flight == running_pods[pod.pod_id], "in-flight count drift")
            _check(pod.max_concurrency == pod.concurrency_bound(), "stale concurrency bound")
            _check(pod.in_flight <= pod.max_concurrency, "pod concurrency overflow")
            if pod.phase is PodPhase.CREATING:
                _check(not pod.in_flight, "creating pod is serving requests")
        for fn, pod_ids in self.fn_pods.items():
            open_count = sum(1 for pid in pod_ids if self.pods[pid].is_open)
            _check(open_count == self.open_pods[fn], "open-pod count drift")
        _check(all(a < b for a, b in pairwise(self._retries)), "retry FIFO out of order")
        # queued_rids ascends: one pending retry per queued request and none for any other
        _check(sorted(rid for _, _, rid in self._retries) == queued_rids,
               "queued requests and pending retries differ")
        queued_fns = Counter(self.req_function_id[rid] for rid in queued_rids)
        _check(self.queued == {fn: queued_fns[fn] for fn in self.profiles}, "queued count drift")
        pending = self._arrivals
        _check(all(a > b for a, b in pairwise(pending)), "pending arrivals out of order")
        _check(not pending or min((e for e in self._heap if e[2] == _ARRIVAL),
                                  default=pending[-1]) < pending[-1],
               "earliest pending arrival is not in the heap")


def _check(ok: bool, message: str) -> None:
    """``assert ok, message`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(message)


def _count_in_window(times: list[float], t0: float, t1: float) -> int:
    """Events with timestamp in the half-open window (t0, t1]."""
    return bisect.bisect_right(times, t1) - bisect.bisect_right(times, t0)
