"""Independent brute-force recomputation of episode metrics from the raw
request ledger. Deliberately avoids the engine's streaming histories
(completion lists, busy logs, counters): everything derives from per-request
timestamps and statuses."""
from __future__ import annotations

from faaslab.cluster import ClusterEngine, RequestStatus


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
    """VM cost from the union of each VM's per-request execution intervals."""
    per_vm: dict[int, list[tuple[float, float]]] = {}
    for req in engine.requests.values():
        if req.status is RequestStatus.COMPLETED and req.vm_id is not None:
            per_vm.setdefault(req.vm_id, []).append((req.start_time, req.finish_time))
    cost = 0.0
    for vm in engine.vms.values():
        busy = _union_length(per_vm.get(vm.spec.vm_id, []))
        cost += vm.spec.unit_price * busy / 3600.0
    return cost
