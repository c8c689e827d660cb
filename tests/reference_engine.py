"""A reference engine: the simulator's plain rules, kept as a differential oracle.

``ReferenceEngine`` subclasses ``ClusterEngine`` and replaces every fast path
of the per-request lifecycle with the rule it stands for:

* one heap holds every event as ``(time, seq, handler, arg)``, and
  ``advance`` calls ``handler(engine, arg)``; only the ``_POD_READY`` entries
  the inherited ``_place_pod`` pushes carry an event kind, dispatched to
  ``ClusterEngine._on_pod_ready``. A loaded batch is zipped into (time,
  app) pairs, checked pair by pair for its app and the clock, then again
  for a non-finite time, then each arrival is pushed. Each retry is a heap
  entry dispatched through ``_on_retry``, which logs it and then drops the
  request at the retry budget or attempts routing again;
* routing scans the function's pods round-robin and tests phase and
  concurrency bound directly; it never reads ``open_pods``;
* each lifecycle step goes through its own small helper:
  ``_arrive`` -> ``_route_or_queue`` -> ``route_request`` -> ``_assign`` ->
  ``_update_vm_activity``/``_log``;
* each request is one mutable ``Record`` in the ``requests`` dict, where
  ``ClusterEngine`` keeps columns;
* queued requests are kept as per-function id sets in ``queued_ids``, and the
  inherited ``snapshot`` and ``horizontal_delta`` read their sizes through
  ``queued_requests``;
* a VM's busy interval opens and closes by ``_update_vm_activity``, which
  asks ``_vm_is_active``: in-flight requests, or in "pods" mode a scan of the
  pod table. It runs after every assign and finish, and after the inherited
  ``_place_pod`` and ``_remove_pod``, so their inline rule is checked too;
* completed chains are recomputed from the request records when read, and each
  finish appends its response time computed from the record;
* ``busy_overlap`` sums over the whole busy log.

Scaling (placement, scale-down, resizes, pod readiness) has no fast path and
is inherited. Run side by side with a ``ClusterEngine`` on the same inputs,
every event, record and float must come out the same.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from faaslab.cluster import (_EPS, _POD_READY, ClusterEngine, PodPhase, PodState,
                             RequestStatus, VmState)
from faaslab.errors import ConfigError, SimulationError


@dataclass(slots=True)
class Record:
    """The fields of ``RequestRecord``, as one mutable object per request."""

    request_id: int
    app_id: int
    chain_index: int
    function_id: int
    arrival_time: float
    root_id: int
    chain_elapsed: float = 0.0
    finish_time: Optional[float] = None
    status: RequestStatus = RequestStatus.QUEUED
    retries: int = 0
    pod_id: Optional[int] = None


class FullScanVm(VmState):
    """A VM whose ``busy_overlap`` visits every closed interval."""

    def busy_overlap(self, t0: float, t1: float) -> float:
        total = 0.0
        for start, end in self.busy_log:
            total += max(0.0, min(end, t1) - max(start, t0))
        if self.busy_since is not None:
            total += max(0.0, t1 - max(self.busy_since, t0))
        return total


class ReferenceEngine(ClusterEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vms = {vm_id: FullScanVm(spec=vm.spec) for vm_id, vm in self.vms.items()}
        self.requests: dict[int, Record] = {}
        self.queued_ids: dict[int, set[int]] = {fn: set() for fn in self.profiles}

    # ------------------------------------------------------------------ events

    def load_arrivals(self, times: Iterable[float], app_ids: Iterable[int]) -> None:
        arrivals = [(float(t), app_id) for t, app_id in zip(times, app_ids)]
        for t, app_id in arrivals:
            if app_id not in self.apps:
                raise ConfigError(f"arrival references unknown app {app_id}")
            if t < self.clock:
                raise ConfigError(f"arrival at {t} lies before the clock ({self.clock})")
        for t, _ in arrivals:
            if not math.isfinite(t):
                raise ConfigError(f"arrival at {t} is not a finite time")
        for t, app_id in arrivals:
            self._push(t, ReferenceEngine._on_arrival, app_id)

    def _push_retry(self, request_id: int) -> None:
        self._push(self.clock + self.config.retry_interval, ReferenceEngine._on_retry,
                   request_id)

    def advance(self, until: float) -> list[tuple]:
        if until < self.clock - _EPS:
            raise SimulationError(f"cannot advance backwards ({self.clock} -> {until})")
        mark = len(self.event_log)
        while self._heap and self._heap[0][0] <= until:
            time, _, handler, arg = heapq.heappop(self._heap)
            self.clock = time
            if handler == _POD_READY:  # pushed by the inherited _place_pod
                handler = ClusterEngine._on_pod_ready
            handler(self, arg)
        self.clock = max(self.clock, until)
        return self.event_log[mark:]

    def next_event_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    # --------------------------------------------------------------- lifecycle

    def _on_arrival(self, app_id: int) -> None:
        self._arrive(app_id, 0, None)

    def _arrive(self, app_id: int, chain_index: int, root_id: Optional[int],
                chain_elapsed: float = 0.0) -> None:
        rid = len(self.requests)
        fn = self.apps[app_id].function_sequence[chain_index]
        req = Record(request_id=rid, app_id=app_id, chain_index=chain_index,
                     function_id=fn, arrival_time=self.clock,
                     root_id=rid if root_id is None else root_id,
                     chain_elapsed=chain_elapsed)
        self.requests[rid] = req
        self.arrival_times[fn].append(self.clock)
        self._log("arrival", rid, fn)
        self._route_or_queue(req)

    def _route_or_queue(self, req: Record) -> None:
        if self.route_request(req.request_id) is not None:
            return
        self.queued_ids[req.function_id].add(req.request_id)
        req.retries = 1  # the failed arrival-time attempt counts
        self._log("queue", req.request_id)
        self._push_retry(req.request_id)

    @staticmethod
    def takes_requests(pod: PodState) -> bool:
        return (pod.phase is PodPhase.READY
                and pod.in_flight < pod.concurrency_bound())

    def route_request(self, rid: int) -> Optional[int]:
        req = self.requests[rid]
        fn = req.function_id
        pod_ids = self.fn_pods[fn]
        n = len(pod_ids)
        cursor = self._rr_cursor[fn] % n if n else 0
        for off in range(n):
            pod = self.pods[pod_ids[(cursor + off) % n]]
            if self.takes_requests(pod):
                self._rr_cursor[fn] = (cursor + off + 1) % n
                self._assign(req, pod)
                return pod.pod_id
        return None

    def _assign(self, req: Record, pod: PodState) -> None:
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.RUNNING
        req.pod_id = pod.pod_id
        self.queued_ids[req.function_id].discard(req.request_id)
        pod.in_flight += 1
        if pod.in_flight == pod.max_concurrency:
            self.open_pods[req.function_id] -= 1
        vm.inflight += 1
        self._update_vm_activity(vm)
        self._log("assign", req.request_id, pod.pod_id)
        self._push(self.clock + pod.profile.standard_response_time, ReferenceEngine._on_finish,
                   req.request_id)

    def _on_retry(self, request_id: int) -> None:
        req = self.requests[request_id]
        self._log("retry", request_id)
        if req.retries >= self.config.max_retries:
            req.status = RequestStatus.DROPPED
            self.queued_ids[req.function_id].discard(request_id)
            self.drop_times[req.function_id].append(self.clock)
            self._log("drop", request_id)
            return
        req.retries += 1
        if self.route_request(request_id) is None:
            self._push_retry(request_id)

    def _on_finish(self, request_id: int) -> None:
        req = self.requests[request_id]
        pod = self.pods[req.pod_id]
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.COMPLETED
        req.finish_time = self.clock
        pod.in_flight -= 1
        if pod.phase is PodPhase.READY and pod.in_flight == pod.max_concurrency - 1:
            self.open_pods[req.function_id] += 1
        vm.inflight -= 1
        self._update_vm_activity(vm)
        response = req.finish_time - req.arrival_time
        self.completion_times[req.function_id].append(self.clock)
        self.completion_ratios[req.function_id].append(
            response / pod.profile.standard_response_time)
        self._log("finish", request_id)
        if pod.phase is PodPhase.TERMINATING and not pod.in_flight:
            self._remove_pod(pod)
        nxt = req.chain_index + 1
        if nxt < len(self.apps[req.app_id].function_sequence):
            self._arrive(req.app_id, nxt, req.root_id,
                         req.chain_elapsed + response)

    # ----------------------------------------------------------- vm activity

    def _place_pod(self, fn: int) -> Optional[int]:
        pod_id = super()._place_pod(fn)
        if pod_id is not None:
            self._update_vm_activity(self.vms[self.pods[pod_id].vm_id])
        return pod_id

    def _remove_pod(self, pod: PodState) -> None:
        super()._remove_pod(pod)
        self._update_vm_activity(self.vms[pod.vm_id])

    def _vm_is_active(self, vm: VmState) -> bool:
        if self.config.active_time_mode == "pods":
            return any(pod.vm_id == vm.spec.vm_id for pod in self.pods.values())
        return vm.inflight > 0

    def _update_vm_activity(self, vm: VmState) -> None:
        active = self._vm_is_active(vm)
        if active and vm.busy_since is None:
            vm.busy_since = self.clock
        elif not active and vm.busy_since is not None:
            vm.busy_log.append((vm.busy_since, self.clock))
            vm.busy_since = None

    # -------------------------------------------------------------- recounts

    @property
    def completed_chains(self) -> dict[int, dict[int, float]]:
        """Per app, root id -> ratio of every fully completed chain, from the records."""
        chains: dict[int, list[Record]] = {}
        for req in self.requests.values():
            chains.setdefault(req.root_id, []).append(req)
        ratios: dict[int, dict[int, float]] = {app_id: {} for app_id in self.apps}
        for root_id, members in chains.items():
            app = self.apps[members[0].app_id]
            if (len(members) == len(app.function_sequence)
                    and all(r.status is RequestStatus.COMPLETED for r in members)):
                members.sort(key=lambda r: r.chain_index)
                actual = sum(r.finish_time - r.arrival_time for r in members)
                standard = sum(self.profiles[fn].standard_response_time
                               for fn in app.function_sequence)
                ratios[app.app_id][root_id] = actual / standard
        return ratios

    # ``EpisodeLedger.summary`` reads these two parallel lists per app; here
    # they list the completed chains in root-id order, not completion order.
    @property
    def chain_roots(self) -> dict[int, list[int]]:
        return {app_id: list(ratios) for app_id, ratios in self.completed_chains.items()}

    @property
    def chain_ratios(self) -> dict[int, list[float]]:
        return {app_id: list(ratios.values())
                for app_id, ratios in self.completed_chains.items()}

    @chain_roots.setter
    def chain_roots(self, _value) -> None:
        pass  # ClusterEngine.__init__ sets up the store the fast path fills

    @chain_ratios.setter
    def chain_ratios(self, _value) -> None:
        pass

    # ``EpisodeLedger.summary`` and ``pending_requests`` count requests by the
    # length of this column; here it is read off the records.
    @property
    def req_function_id(self) -> list[int]:
        return [req.function_id for req in self.requests.values()]

    @req_function_id.setter
    def req_function_id(self, _value) -> None:
        pass

    def queued_requests(self, fn: int) -> int:
        """Queued requests of ``fn``, from its id set."""
        return len(self.queued_ids[fn])

    def open_pod_counts(self) -> dict[int, int]:
        """Per function, the pods routing could assign to, by a full scan."""
        return {fn: sum(1 for pid in pod_ids if self.takes_requests(self.pods[pid]))
                for fn, pod_ids in self.fn_pods.items()}
