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
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, pairwise
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, SimulationError

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

    ``active_seconds`` accumulates wall time during which the VM is "active";
    by default that is time with at least one in-flight request, optionally
    (``active_time_mode="pods"``) time hosting at least one pod. Closed busy
    intervals are kept in ``busy_log`` for interval cost queries. They are
    disjoint and appended in time order, so both their starts and their ends
    ascend, and ``busy_overlap`` bisects to the first interval that can
    overlap a window instead of scanning the whole log.
    """

    spec: VmSpec
    cpu_allocated: float = 0.0
    mem_allocated: float = 0.0
    cpu_used: float = 0.0
    mem_used: float = 0.0
    pods: set[int] = field(default_factory=set)
    inflight: int = 0
    active_seconds: float = 0.0
    busy_since: Optional[float] = None
    busy_log: list[tuple[float, float]] = field(default_factory=list)

    def active_seconds_until(self, now: float) -> float:
        open_part = (now - self.busy_since) if self.busy_since is not None else 0.0
        return self.active_seconds + open_part

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
    ready_at: float
    in_flight: set[int] = field(default_factory=set)
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
        return self.phase is PodPhase.READY and len(self.in_flight) < self.max_concurrency

    @property
    def function_id(self) -> int:
        return self.profile.function_id

    @property
    def cpu_used(self) -> float:
        return len(self.in_flight) * self.profile.req_cpu

    @property
    def mem_used(self) -> float:
        return len(self.in_flight) * self.profile.req_mem

    @property
    def cpu_util(self) -> float:
        return self.cpu_used / self.cpu_limit

    @property
    def mem_util(self) -> float:
        return self.mem_used / self.mem_limit


@dataclass(slots=True)
class RequestRecord:
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

    @property
    def response_time(self) -> float:
        if self.status is not RequestStatus.COMPLETED:
            raise SimulationError(f"request {self.request_id} has no response time")
        return self.finish_time - self.arrival_time


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
        if self.retry_interval <= 0 or self.max_retries < 0 or self.max_replicas < 1:
            raise ConfigError("invalid simulator configuration")
        if self.active_time_mode not in ("inflight", "pods"):
            raise ConfigError(f"unknown active_time_mode {self.active_time_mode!r}")


# Snapshot records handed to scaling policies and the RL state builder.

@dataclass(frozen=True)
class VmSnapshot:
    vm_id: int
    cpu_util: float
    mem_util: float
    cpu_alloc: float
    mem_alloc: float
    cpu_capacity: float
    mem_capacity: float
    target_replicas: int


@dataclass(frozen=True)
class FunctionSnapshot:
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


@dataclass(frozen=True)
class ClusterSnapshot:
    time: float
    vms: tuple[VmSnapshot, ...]
    functions: dict[int, FunctionSnapshot]


# Heap entry: (time, seq, handler, arg); dispatch calls handler(engine, arg).
_Event = tuple[float, int, Callable[["ClusterEngine", int], None], int]


class ClusterEngine:
    """Single-threaded deterministic event-queue simulator.

    An engine owns its full cluster state; parallel experiments use
    independent engine instances. All event dispatch is ordered by
    (timestamp, insertion sequence) so identical inputs replay identically.

    Pending events live in three places, all keyed by the same (time, seq):

    * ``_retries``, a FIFO of ``(time, seq, request_id)``: every pending
      retry, one per queued request. A retry is due one ``retry_interval``
      after the clock it was pushed at, so it almost always goes at the tail;
      one that falls due before the tail (possible after ``advance`` goes back
      by up to ``_EPS``) is inserted in order.
    * ``_arrivals``, the loaded arrivals that are not yet in the heap, sorted
      latest first. Each ``load_arrivals`` moves the earliest one into the
      heap and each dispatched arrival moves the next one, so the earliest
      pending arrival is always in the heap.
    * ``_heap``, entries ``(time, seq, handler, arg)``: finishes, pod
      readiness and arrivals, never a retry.

    ``advance`` always dispatches the smaller of the FIFO head and the heap
    top, so the order is the one a single heap of every event would give.
    A due retry is logged, then dropped once the retry budget is spent,
    routed when its function has an open pod (``open_pods``), or re-queued.

    An arrival calls ``route_request`` only when its function has an open
    pod (``open_pods``); otherwise it is queued at once.

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

        self.requests: dict[int, RequestRecord] = {}
        # Per app, root id -> response-time ratio of each fully completed chain:
        # its summed response time over its summed standard response time.
        self.chain_ratios: dict[int, dict[int, float]] = {app_id: {} for app_id in self.apps}
        self._chain_standard: dict[int, float] = {
            app_id: sum(self.profiles[fn].standard_response_time
                        for fn in app.function_sequence)
            for app_id, app in self.apps.items()
        }
        self.queued_ids: dict[int, set[int]] = {fn: set() for fn in self.profiles}
        self.creation_shortfall: dict[int, int] = {fn: 0 for fn in self.profiles}

        # Monotone per-function histories for windowed metrics.
        self.arrival_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}
        self.completions: dict[int, list[tuple[float, float]]] = {fn: [] for fn in self.profiles}
        self.drop_times: dict[int, list[float]] = {fn: [] for fn in self.profiles}

        self.completed_total = 0
        self.dropped_total = 0

        self.log_events = log_events
        self.event_log: list[tuple] = []
        self._heap: list[_Event] = []
        self._retries: deque[tuple[float, int, int]] = deque()
        self._arrivals: list[_Event] = []
        self._seq = 0
        self._next_pod_id = 0
        self._next_request_id = 0
        self._rng = random.Random(config.seed)

    # ------------------------------------------------------------------ events

    def _push(self, time: float, handler: Callable[[ClusterEngine, int], None],
              arg: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, arg))

    def _push_retry(self, request_id: int) -> None:
        self._seq += 1
        entry = (self.clock + self.config.retry_interval, self._seq, request_id)
        retries = self._retries
        if retries and entry < retries[-1]:
            bisect.insort(retries, entry)
        else:
            retries.append(entry)

    def load_arrivals(self, arrivals: Iterable[tuple[float, int]]) -> None:
        """Queue entry-function arrivals as (timestamp, app_id) pairs.

        Each arrival takes its sequence number in input order, so ties in time
        dispatch in input order. The input need not be sorted.
        """
        batch = []
        for t, app_id in arrivals:
            if app_id not in self.apps:
                raise ConfigError(f"arrival references unknown app {app_id}")
            if t < self.clock:
                raise ConfigError(f"arrival at {t} lies before the clock ({self.clock})")
            self._seq += 1
            batch.append((t, self._seq, ClusterEngine._on_arrival, app_id))
        if batch:
            pending = self._arrivals
            pending.extend(batch)
            pending.sort(reverse=True)
            heapq.heappush(self._heap, pending.pop())

    def advance(self, until: float) -> list[tuple]:
        """Dispatch every event with timestamp <= until; returns the new log slice."""
        if until < self.clock - _EPS:
            raise SimulationError(f"cannot advance backwards ({self.clock} -> {until})")
        mark = len(self.event_log)
        heap = self._heap
        retries = self._retries
        requests = self.requests
        open_pods = self.open_pods
        max_retries = self.config.max_retries
        log = self.event_log if self.log_events else None
        while True:
            if retries and (not heap or retries[0] < heap[0]):
                time, _, request_id = retries[0]
                if time > until:
                    break
                retries.popleft()
                self.clock = time
                req = requests[request_id]
                fn = req.function_id
                if log is not None:
                    log.append((time, "retry", request_id))
                if req.retries >= max_retries:
                    req.status = RequestStatus.DROPPED
                    self.queued_ids[fn].discard(request_id)
                    self.dropped_total += 1
                    self.drop_times[fn].append(time)
                    if log is not None:
                        log.append((time, "drop", request_id))
                    continue
                req.retries += 1
                if not open_pods[fn] or self.route_request(req) is None:
                    self._push_retry(request_id)
            elif heap and heap[0][0] <= until:
                time, _, handler, arg = heapq.heappop(heap)
                self.clock = time
                handler(self, arg)
            else:
                break
        self.clock = until
        return self.event_log[mark:]

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

    def _on_arrival(self, app_id: int) -> None:
        if self._arrivals:
            heapq.heappush(self._heap, self._arrivals.pop())
        self._arrive(app_id, 0, None)

    def _arrive(self, app_id: int, chain_index: int, root_id: Optional[int],
                chain_elapsed: float = 0.0) -> None:
        """A request for stage ``chain_index`` of ``app_id`` arrives now.

        ``root_id`` None starts a new chain rooted at this request. The
        request is routed if its function has an open pod and queued
        otherwise; a failed arrival-time attempt counts as its first retry.
        """
        rid = self._next_request_id
        self._next_request_id = rid + 1
        now = self.clock
        fn = self.apps[app_id].function_sequence[chain_index]
        req = RequestRecord(rid, app_id, chain_index, fn, now,
                            rid if root_id is None else root_id, chain_elapsed)
        self.requests[rid] = req
        self.arrival_times[fn].append(now)
        if self.log_events:
            self.event_log.append((now, "arrival", rid, fn))
        if not self.open_pods[fn] or self.route_request(req) is None:
            self.queued_ids[fn].add(rid)
            req.retries = 1
            if self.log_events:
                self.event_log.append((now, "queue", rid))
            self._push_retry(rid)

    def route_request(self, req: RequestRecord) -> Optional[int]:
        """Assign a queued request via the per-function round-robin cursor.

        Returns the pod id on assignment, or None when every ready pod is at
        its concurrency bound. That case costs O(1): ``open_pods`` counts the
        pods that could take the request, and at 0 the pod scan is skipped.
        """
        fn = req.function_id
        open_pods = self.open_pods.get(fn)
        if open_pods is None:
            raise ConfigError(f"request targets unknown function {fn}")
        if not open_pods:
            return None
        pod_ids = self.fn_pods[fn]
        pods = self.pods
        ready = PodPhase.READY
        n = len(pod_ids)
        cursor = self._rr_cursor[fn] % n if n else 0
        for off in range(n):
            pod = pods[pod_ids[(cursor + off) % n]]
            if pod.phase is ready and len(pod.in_flight) < pod.max_concurrency:
                self._rr_cursor[fn] = (cursor + off + 1) % n
                self._assign(req, pod)
                return pod.pod_id
        return None

    def _assign(self, req: RequestRecord, pod: PodState) -> None:
        """Start ``req`` on ``pod``, which must be open."""
        now = self.clock
        rid = req.request_id
        profile = pod.profile
        in_flight = pod.in_flight
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.RUNNING
        req.start_time = now
        req.pod_id = pod.pod_id
        req.vm_id = pod.vm_id
        if req.retries:  # a request that never queued is not in the set
            self.queued_ids[req.function_id].discard(rid)
        in_flight.add(rid)
        if len(in_flight) == pod.max_concurrency:
            self.open_pods[req.function_id] -= 1
        vm.cpu_used += profile.req_cpu
        vm.mem_used += profile.req_mem
        vm.inflight += 1
        if vm.busy_since is None:  # in either mode a VM serving a request is active
            vm.busy_since = now
        if self.log_events:
            self.event_log.append((now, "assign", rid, pod.pod_id))
        exec_time = profile.standard_response_time
        sigma = self.config.exec_noise_sigma
        if sigma > 0:
            exec_time *= self._rng.lognormvariate(0.0, sigma)
        self._seq += 1
        heapq.heappush(self._heap, (now + exec_time, self._seq, ClusterEngine._on_finish, rid))

    def _on_finish(self, request_id: int) -> None:
        now = self.clock
        req = self.requests[request_id]
        pod = self.pods[req.pod_id]
        profile = pod.profile
        in_flight = pod.in_flight
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.COMPLETED
        req.finish_time = now
        in_flight.discard(request_id)
        if pod.phase is PodPhase.READY and len(in_flight) == pod.max_concurrency - 1:
            self.open_pods[req.function_id] += 1
        vm.cpu_used -= profile.req_cpu
        vm.mem_used -= profile.req_mem
        vm.inflight -= 1
        if not vm.inflight and not self._pods_mode:
            # The last request left: close the busy interval. In "pods" mode
            # the pod is still on the VM, so the VM stays active.
            vm.active_seconds += now - vm.busy_since
            vm.busy_log.append((vm.busy_since, now))
            vm.busy_since = None
        self.completed_total += 1
        response = now - req.arrival_time
        self.completions[req.function_id].append(
            (now, response / profile.standard_response_time))
        if self.log_events:
            self.event_log.append((now, "finish", request_id))
        if pod.phase is PodPhase.TERMINATING and not in_flight:
            self._remove_pod(pod)
        # Stages finish in chain order, so this adds up in the same order as
        # the standard times in ``_chain_standard``.
        elapsed = req.chain_elapsed + response
        nxt = req.chain_index + 1
        if nxt < len(self.apps[req.app_id].function_sequence):
            # Chained functions hand off immediately: no inter-function delay.
            self._arrive(req.app_id, nxt, req.root_id, elapsed)
        else:
            self.chain_ratios[req.app_id][req.root_id] = (
                elapsed / self._chain_standard[req.app_id])

    def _on_pod_ready(self, pod_id: int) -> None:
        pod = self.pods.get(pod_id)
        if pod is None or pod.phase is not PodPhase.CREATING:
            return  # stale: pod was scaled down while starting
        pod.phase = PodPhase.READY
        if pod.is_open:
            self.open_pods[pod.function_id] += 1
        self._log("pod_ready", pod_id)

    # ----------------------------------------------------------- vm activity

    def _update_vm_activity(self, vm: VmState) -> None:
        active = bool(vm.pods) if self._pods_mode else vm.inflight > 0
        if active and vm.busy_since is None:
            vm.busy_since = self.clock
        elif not active and vm.busy_since is not None:
            vm.active_seconds += self.clock - vm.busy_since
            vm.busy_log.append((vm.busy_since, self.clock))
            vm.busy_since = None

    # -------------------------------------------------------------- scaling

    def _live_pods(self, fn: int) -> list[PodState]:
        """Pods of a function that participate in scaling (not Terminating)."""
        return [self.pods[pid] for pid in self.fn_pods[fn]
                if self.pods[pid].phase is not PodPhase.TERMINATING]

    def pod_count(self, fn: int) -> int:
        return len(self._live_pods(fn))

    def avg_cpu_util(self, fn: int) -> float:
        """Average pod CPU utilization; 1.0 proxy when traffic waits on zero pods."""
        live = self._live_pods(fn)
        if not live:
            return 1.0 if self.queued_ids[fn] else 0.0
        return sum(p.cpu_util for p in live) / len(live)

    def horizontal_delta(self, fn: int, target_util: float) -> int:
        if fn not in self.profiles:
            raise ConfigError(f"unknown function {fn}")
        current = self.pod_count(fn)
        return desired_replicas(current, self.avg_cpu_util(fn), target_util,
                                self.config.max_replicas) - current

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
        pod = PodState(pod_id=pod_id, profile=profile, vm_id=best.spec.vm_id,
                       cpu_limit=cpu, mem_limit=mem, phase=PodPhase.CREATING,
                       ready_at=self.clock + profile.cold_start_seconds)
        self.pods[pod_id] = pod
        self.fn_pods[fn].append(pod_id)
        best.pods.add(pod_id)
        best.cpu_allocated += cpu
        best.mem_allocated += mem
        self._update_vm_activity(best)
        self._push(pod.ready_at, ClusterEngine._on_pod_ready, pod_id)
        self._log("pod_create", pod_id, best.spec.vm_id)
        return pod_id

    def _scale_down(self, fn: int, count: int) -> list[int]:
        live = self._live_pods(fn)
        idle = sorted((p for p in live if not p.in_flight), key=lambda p: -p.pod_id)
        busy = sorted((p for p in live if p.in_flight), key=lambda p: -p.pod_id)
        affected = []
        for pod in idle[:count]:
            self._remove_pod(pod)
            affected.append(pod.pod_id)
        for pod in busy[:max(0, count - len(idle))]:
            if pod.is_open:
                self.open_pods[fn] -= 1
            pod.phase = PodPhase.TERMINATING
            self._log("pod_terminating", pod.pod_id)
            affected.append(pod.pod_id)
        return affected

    def _remove_pod(self, pod: PodState) -> None:
        if pod.is_open:
            self.open_pods[pod.function_id] -= 1
        vm = self.vms[pod.vm_id]
        vm.pods.discard(pod.pod_id)
        vm.cpu_allocated -= pod.cpu_limit
        vm.mem_allocated -= pod.mem_limit
        self._update_vm_activity(vm)
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
        per_vm: dict[int, int] = {}
        for pod in live:
            per_vm[pod.vm_id] = per_vm.get(pod.vm_id, 0) + 1

        def vm_avail(vm: VmState, dim: str) -> float:
            if dim == "cpu":
                return vm.spec.cpu_capacity - vm.cpu_allocated
            return vm.spec.mem_capacity - vm.mem_allocated

        def clamp(delta: float, now: float, lo: float, hi: float,
                  util_floor: float, dim: str) -> float:
            if delta > 0:
                room = hi - now
                for vm_id, replicas in per_vm.items():
                    room = min(room, vm_avail(self.vms[vm_id], dim) / replicas)
                return max(0.0, min(delta, room))
            if delta < 0:
                floor = max(lo, util_floor)
                return min(0.0, max(delta, floor - now))
            return 0.0

        cpu_floor = max((p.cpu_used for p in live), default=0.0)
        mem_floor = max((p.mem_used for p in live), default=0.0)
        cpu_star = clamp(cpu_delta, cpu_now, POD_CPU_MIN, POD_CPU_MAX, cpu_floor, "cpu")
        mem_star = clamp(mem_delta, mem_now, POD_MEM_MIN, POD_MEM_MAX, mem_floor, "mem")
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

    def window_completions(self, fn: int, t0: float, t1: float) -> list[float]:
        """Response-time ratios of requests completed inside (t0, t1]."""
        entries = self.completions[fn]
        lo = bisect.bisect_right(entries, t0, key=lambda e: e[0])
        hi = bisect.bisect_right(entries, t1, key=lambda e: e[0])
        return [ratio for _, ratio in entries[lo:hi]]

    def snapshot(self, target_fn: Optional[int], window: float) -> ClusterSnapshot:
        now = self.clock
        t0 = now - window
        vm_rows = []
        for vm in self.vms.values():
            replicas = 0
            if target_fn is not None:
                replicas = sum(1 for pid in vm.pods
                               if self.pods[pid].function_id == target_fn
                               and self.pods[pid].phase is not PodPhase.TERMINATING)
            vm_rows.append(VmSnapshot(
                vm_id=vm.spec.vm_id,
                cpu_util=vm.cpu_used / vm.spec.cpu_capacity,
                mem_util=vm.mem_used / vm.spec.mem_capacity,
                cpu_alloc=vm.cpu_allocated / vm.spec.cpu_capacity,
                mem_alloc=vm.mem_allocated / vm.spec.mem_capacity,
                cpu_capacity=vm.spec.cpu_capacity,
                mem_capacity=vm.spec.mem_capacity,
                target_replicas=replicas,
            ))
        fns = {}
        for fn in self.deployed_fns:
            live = self._live_pods(fn)
            arrived = self.window_arrivals(fn, t0, now)
            ratios = self.window_completions(fn, t0, now)
            drops = self.window_drops(fn, t0, now)
            cpu_size, mem_size = self.pod_size[fn]
            profile = self.profiles[fn]
            fns[fn] = FunctionSnapshot(
                function_id=fn,
                pod_cpu=cpu_size,
                pod_mem=mem_size,
                req_cpu=profile.req_cpu,
                req_mem=profile.req_mem,
                arrival_rate=arrived / window if window > 0 else 0.0,
                rfrt=sum(ratios) / len(ratios) if ratios else 1.0,
                rfr=drops / arrived if arrived else 0.0,
                avg_pod_cpu_util=sum(p.cpu_util for p in live) / len(live) if live else 0.0,
                avg_pod_mem_util=sum(p.mem_util for p in live) / len(live) if live else 0.0,
                replicas=len(live),
                ready_replicas=sum(1 for p in live if p.phase is PodPhase.READY),
                running_requests=sum(len(p.in_flight) for p in live),
                queued_requests=len(self.queued_ids[fn]),
                standard_response_time=profile.standard_response_time,
            )
        return ClusterSnapshot(time=now, vms=tuple(vm_rows), functions=fns)

    # ------------------------------------------------------------ diagnostics

    def request_counts(self) -> dict[str, int]:
        counts = {status.value: 0 for status in RequestStatus}
        for req in self.requests.values():
            counts[req.status.value] += 1
        counts["Total"] = len(self.requests)
        return counts

    def check_invariants(self) -> None:
        """Recompute derived quantities from scratch and compare; test hook."""
        for vm in self.vms.values():
            alloc_cpu = sum(self.pods[p].cpu_limit for p in vm.pods)
            alloc_mem = sum(self.pods[p].mem_limit for p in vm.pods)
            used_cpu = sum(self.pods[p].cpu_used for p in vm.pods)
            used_mem = sum(self.pods[p].mem_used for p in vm.pods)
            assert abs(alloc_cpu - vm.cpu_allocated) < 1e-6, "cpu allocation drift"
            assert abs(alloc_mem - vm.mem_allocated) < 1e-6, "mem allocation drift"
            assert abs(used_cpu - vm.cpu_used) < 1e-6, "cpu usage drift"
            assert abs(used_mem - vm.mem_used) < 1e-6, "mem usage drift"
            assert vm.cpu_allocated <= vm.spec.cpu_capacity + 1e-6, "cpu over-allocation"
            assert vm.mem_allocated <= vm.spec.mem_capacity + 1e-6, "mem over-allocation"
            assert vm.cpu_used <= vm.cpu_allocated + 1e-6, "cpu usage above allocation"
            assert vm.mem_used <= vm.mem_allocated + 1e-6, "mem usage above allocation"
        for pod in self.pods.values():
            assert pod.max_concurrency == pod.concurrency_bound(), "stale concurrency bound"
            assert len(pod.in_flight) <= pod.max_concurrency, "pod concurrency overflow"
            if pod.phase is PodPhase.CREATING:
                assert not pod.in_flight, "creating pod is serving requests"
        for fn, pod_ids in self.fn_pods.items():
            open_count = sum(1 for pid in pod_ids if self.pods[pid].is_open)
            assert open_count == self.open_pods[fn], "open-pod count drift"
        counts = self.request_counts()
        assert (counts["Completed"] + counts["Dropped"] + counts["Queued"]
                + counts["Running"]) == counts["Total"], "request accounting broken"
        assert all(a < b for a, b in pairwise(self._retries)), "retry FIFO out of order"
        for fn, ids in self.queued_ids.items():
            assert ids == {r.request_id for r in self.requests.values()
                           if r.function_id == fn and r.status is RequestStatus.QUEUED}, \
                "queued-id set drift"
        assert (Counter(rid for _, _, rid in self._retries)
                == Counter(chain.from_iterable(self.queued_ids.values()))), \
            "queued requests and pending retries differ"
        pending = self._arrivals
        assert all(a > b for a, b in pairwise(pending)), "pending arrivals out of order"
        assert not pending or min((e for e in self._heap if e[2] is ClusterEngine._on_arrival),
                                  default=pending[-1]) < pending[-1], \
            "earliest pending arrival is not in the heap"


def _count_in_window(times: list[float], t0: float, t1: float) -> int:
    """Events with timestamp in the half-open window (t0, t1]."""
    return bisect.bisect_right(times, t1) - bisect.bisect_right(times, t0)
