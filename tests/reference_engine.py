"""A reference engine: the simulator's plain rules, kept as a differential oracle.

``ReferenceEngine`` subclasses ``ClusterEngine`` and replaces every fast path
of the per-request lifecycle with the rule it stands for:

* one heap holds every event. Each loaded arrival is pushed at load time, and
  each retry is a heap entry dispatched through ``_on_retry``, which logs it
  and then drops the request at the retry budget or attempts routing again;
* routing scans the function's pods round-robin and tests phase and
  concurrency bound directly; it never reads ``open_pods``;
* each lifecycle step goes through its own small helper:
  ``_arrive`` -> ``_route_or_queue`` -> ``route_request`` -> ``_assign`` ->
  ``_update_vm_activity``/``_log``;
* chain ratios are recomputed from the request records when read;
* ``busy_overlap`` sums over the whole busy log.

Scaling (placement, scale-down, resizes, pod readiness) has no fast path and
is inherited. Run side by side with a ``ClusterEngine`` on the same inputs,
every event, record and float must come out the same.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Optional

from faaslab.cluster import (_EPS, ClusterEngine, PodPhase, PodState,
                             RequestRecord, RequestStatus, VmState)
from faaslab.errors import ConfigError, SimulationError


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

    # ------------------------------------------------------------------ events

    def load_arrivals(self, arrivals: Iterable[tuple[float, int]]) -> None:
        for t, app_id in arrivals:
            if app_id not in self.apps:
                raise ConfigError(f"arrival references unknown app {app_id}")
            if t < self.clock:
                raise ConfigError(f"arrival at {t} lies before the clock ({self.clock})")
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
            handler(self, arg)
        self.clock = until
        return self.event_log[mark:]

    def next_event_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    # --------------------------------------------------------------- lifecycle

    def _on_arrival(self, app_id: int) -> None:
        self._arrive(app_id, 0, None)

    def _arrive(self, app_id: int, chain_index: int, root_id: Optional[int],
                chain_elapsed: float = 0.0) -> None:
        rid = self._next_request_id
        self._next_request_id += 1
        fn = self.apps[app_id].function_sequence[chain_index]
        req = RequestRecord(request_id=rid, app_id=app_id, chain_index=chain_index,
                            function_id=fn, arrival_time=self.clock,
                            root_id=rid if root_id is None else root_id,
                            chain_elapsed=chain_elapsed)
        self.requests[rid] = req
        self.arrival_times[fn].append(self.clock)
        self._log("arrival", rid, fn)
        self._route_or_queue(req)

    def _route_or_queue(self, req: RequestRecord) -> None:
        if self.route_request(req) is not None:
            return
        self.queued_ids[req.function_id].add(req.request_id)
        req.retries = 1  # the failed arrival-time attempt counts
        self._log("queue", req.request_id)
        self._push_retry(req.request_id)

    @staticmethod
    def takes_requests(pod: PodState) -> bool:
        return (pod.phase is PodPhase.READY
                and len(pod.in_flight) < pod.concurrency_bound())

    def route_request(self, req: RequestRecord) -> Optional[int]:
        fn = req.function_id
        if fn not in self.fn_pods:
            raise ConfigError(f"request targets unknown function {fn}")
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

    def _assign(self, req: RequestRecord, pod: PodState) -> None:
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.RUNNING
        req.start_time = self.clock
        req.pod_id = pod.pod_id
        req.vm_id = pod.vm_id
        self.queued_ids[req.function_id].discard(req.request_id)
        pod.in_flight.add(req.request_id)
        if len(pod.in_flight) == pod.max_concurrency:
            self.open_pods[req.function_id] -= 1
        vm.cpu_used += pod.profile.req_cpu
        vm.mem_used += pod.profile.req_mem
        vm.inflight += 1
        self._update_vm_activity(vm)
        self._log("assign", req.request_id, pod.pod_id)
        exec_time = pod.profile.standard_response_time
        if self.config.exec_noise_sigma > 0:
            exec_time *= self._rng.lognormvariate(0.0, self.config.exec_noise_sigma)
        self._push(self.clock + exec_time, ReferenceEngine._on_finish, req.request_id)

    def _on_retry(self, request_id: int) -> None:
        req = self.requests[request_id]
        self._log("retry", request_id)
        if req.retries >= self.config.max_retries:
            req.status = RequestStatus.DROPPED
            self.queued_ids[req.function_id].discard(request_id)
            self.dropped_total += 1
            self.drop_times[req.function_id].append(self.clock)
            self._log("drop", request_id)
            return
        req.retries += 1
        if self.route_request(req) is None:
            self._push_retry(request_id)

    def _on_finish(self, request_id: int) -> None:
        req = self.requests[request_id]
        pod = self.pods[req.pod_id]
        vm = self.vms[pod.vm_id]
        req.status = RequestStatus.COMPLETED
        req.finish_time = self.clock
        pod.in_flight.discard(request_id)
        if pod.phase is PodPhase.READY and len(pod.in_flight) == pod.max_concurrency - 1:
            self.open_pods[req.function_id] += 1
        vm.cpu_used -= pod.profile.req_cpu
        vm.mem_used -= pod.profile.req_mem
        vm.inflight -= 1
        self._update_vm_activity(vm)
        self.completed_total += 1
        ratio = req.response_time / pod.profile.standard_response_time
        self.completions[req.function_id].append((self.clock, ratio))
        self._log("finish", request_id)
        if pod.phase is PodPhase.TERMINATING and not pod.in_flight:
            self._remove_pod(pod)
        nxt = req.chain_index + 1
        if nxt < len(self.apps[req.app_id].function_sequence):
            self._arrive(req.app_id, nxt, req.root_id,
                         req.chain_elapsed + req.response_time)

    # ----------------------------------------------------------- vm activity

    def _vm_is_active(self, vm: VmState) -> bool:
        if self.config.active_time_mode == "pods":
            return bool(vm.pods)
        return vm.inflight > 0

    def _update_vm_activity(self, vm: VmState) -> None:
        active = self._vm_is_active(vm)
        if active and vm.busy_since is None:
            vm.busy_since = self.clock
        elif not active and vm.busy_since is not None:
            vm.active_seconds += self.clock - vm.busy_since
            vm.busy_log.append((vm.busy_since, self.clock))
            vm.busy_since = None

    # -------------------------------------------------------------- recounts

    @property
    def chain_ratios(self) -> dict[int, dict[int, float]]:
        """Per app, root id -> ratio of every fully completed chain, from the records."""
        chains: dict[int, list[RequestRecord]] = {}
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

    @chain_ratios.setter
    def chain_ratios(self, _value) -> None:
        pass  # ClusterEngine.__init__ sets up the store the fast path fills

    def open_pod_counts(self) -> dict[int, int]:
        """Per function, the pods routing could assign to, by a full scan."""
        return {fn: sum(1 for pid in pod_ids if self.takes_requests(self.pods[pid]))
                for fn, pod_ids in self.fn_pods.items()}
