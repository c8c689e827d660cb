import builtins
import dataclasses
import gc
import hashlib
import heapq
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from faaslab.cluster import (_FINISH, MAX_REPLICAS, Application, ClusterEngine,
                             FunctionProfile, FunctionSnapshot, PodPhase, RequestStatus,
                             SimConfig, VmSpec, VmState, cpu_target_replicas,
                             desired_replicas, floor_guarded, replica_count)
from faaslab.env import EnvConfig, ServerlessEnv
from faaslab.errors import ConfigError, SimulationError
from faaslab.metrics import EpisodeLedger
from faaslab.workload import TraceSeries, WorkloadSpec, select_apps

from oracles import arrival_columns, completed_chains, neumaier_sum


def make_engine(vms, profiles, apps, **cfg):
    return ClusterEngine(vms, profiles, apps, SimConfig(**cfg))


def fn_snapshot(replicas, avg_cpu_util, queued, ready=None):
    """A snapshot with what the CPU rule reads, all replicas ready unless
    ``ready`` says otherwise; the other fields are placeholders."""
    return FunctionSnapshot(
        function_id=0, pod_cpu=1.0, pod_mem=1024.0, req_cpu=0.25, req_mem=256.0,
        arrival_rate=0.0, rfrt=1.0, rfr=0.0, avg_pod_cpu_util=avg_cpu_util,
        avg_pod_mem_util=0.0, replicas=replicas,
        ready_replicas=replicas if ready is None else ready, running_requests=0,
        queued_requests=queued, standard_response_time=1.0)


class TestGuardedRounding:
    def test_ceil_tolerates_float_noise(self):
        assert replica_count(4 * 0.8 / 0.4) == 8
        assert replica_count(5.5) == 6
        assert replica_count(8.000000000000002) == 8

    @pytest.mark.parametrize("cap", [1, 3, 8, MAX_REPLICAS])
    def test_capped_count_is_rounded_count_capped(self, cap):
        # Below, at and above each integer: capping first changes no finite count.
        for n in range(cap + 3):
            for x in (n - 1e-6, n - 1e-10, n, n + 1e-10, n + 1e-6, n + 0.5):
                if x >= 0:
                    assert replica_count(x, cap) == min(math.ceil(x - 1e-9), cap), (x, cap)
        assert replica_count(float("inf"), cap) == cap

    def test_floor_tolerates_float_noise(self):
        assert floor_guarded(0.3 / 0.1) == 3
        assert floor_guarded(2.9999999999999996) == 3
        assert floor_guarded(2.5) == 2


class TestDesiredReplicas:
    def test_scale_up(self):
        assert desired_replicas(4, 0.8, 0.4) - 4 == 4

    def test_scale_down(self):
        assert desired_replicas(10, 0.2, 0.4) - 10 == -5

    def test_max_clamp(self):
        assert desired_replicas(60, 0.9, 0.5) - 60 == 20

    def test_bootstrap_with_queued_traffic(self):
        # zero replicas, utilization proxy 1.0 -> creation triggered
        assert desired_replicas(0, 1.0, 0.5) == 2
        assert desired_replicas(0, 0.0, 0.5) == 0

    def test_invalid_target(self):
        with pytest.raises(SimulationError):
            desired_replicas(4, 0.5, 0.0)

    def test_zero_replicas_read_queued_traffic_as_full_utilization(self):
        assert cpu_target_replicas(fn_snapshot(0, 0.0, 3), 0.5) == 2
        assert cpu_target_replicas(fn_snapshot(0, 0.0, 0), 0.5) == 0
        assert cpu_target_replicas(fn_snapshot(0, 0.0, 3), 0.01) == MAX_REPLICAS
        # with replicas the measured utilization decides, whatever is queued
        assert cpu_target_replicas(fn_snapshot(4, 0.8, 0), 0.4) == 8
        assert cpu_target_replicas(fn_snapshot(4, 0.0, 3), 0.4) == 0

    def test_no_ready_replica_holds_the_count(self):
        # Three pods all Creating report no load: none is removed, none added.
        assert cpu_target_replicas(fn_snapshot(3, 0.0, 5, ready=0), 0.5) == 3

    def test_scale_up_past_the_ready_pods_never_drops_creating_ones(self):
        # 2 of 4 ready at 0.6: ceil(4 * 0.3 / 0.5) = 3 is above the 2 ready,
        # so the 2 Creating pods stay and the count holds at 4.
        assert cpu_target_replicas(fn_snapshot(4, 0.3, 0, ready=2), 0.5) == 4
        # 2 of 4 ready at 1.0: ceil(4 * 0.5 / 0.4) = 5 adds a pod.
        assert cpu_target_replicas(fn_snapshot(4, 0.5, 0, ready=2), 0.4) == 5

    def test_ready_pods_enough_applies_the_formula(self):
        # 2 of 4 ready at 0.25: ceil(4 * 0.125 / 0.5) = 1 is within the ready
        # pods, so the formula decides and Creating pods may go.
        assert cpu_target_replicas(fn_snapshot(4, 0.125, 0, ready=2), 0.5) == 1


class TestAdvance:
    def test_empty_queue_clock_jump(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        assert eng.advance(10.0) is None
        assert eng.event_log == []
        assert eng.clock == 10.0

    def test_events_dispatch_in_order(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(2.0, 0), (1.0, 0)]))
        eng.advance(5.0)
        arrival_times = [e[0] for e in eng.event_log if e[1] == "arrival"]
        assert arrival_times == sorted(arrival_times) == [1.0, 2.0]

    def test_backwards_advance_rejected(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.advance(5.0)
        with pytest.raises(SimulationError):
            eng.advance(1.0)

    def test_advance_short_of_the_clock_keeps_it(self, big_vm, fast_profile,
                                                 single_app):
        # going back by less than the tolerance must not log a busy interval
        # that ends before it starts
        eng = make_engine([big_vm], [fast_profile], [single_app],
                          active_time_mode="pods")
        eng.advance(5.0)
        eng.apply_horizontal(0, 1)
        eng.advance(5.0 - 5e-10)
        assert eng.clock == 5.0
        eng.apply_horizontal(0, -1)
        assert eng.vms[0].busy_log == [(5.0, 5.0)]

    def test_interleaved_trace_matches_hand_simulation(self, big_vm, fast_profile,
                                                       single_app):
        # one warm pod, two arrivals; full event log written out by hand
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(2.5, 0), (3.0, 0)]))
        eng.advance(10.0)
        assert eng.event_log == [
            (0.0, "pod_create", 0, 0),
            (2.0, "pod_ready", 0),
            (2.5, "arrival", 0, 0),
            (2.5, "assign", 0, 0),
            (3.0, "arrival", 1, 0),
            (3.0, "assign", 1, 0),
            (3.5, "finish", 0),
            (4.0, "finish", 1),
        ]
        assert eng.completed_total == 2
        eng.check_invariants()


class TestTieOrder:
    """Same-timestamp events dispatch in push order, whatever their kind."""

    @pytest.fixture
    def solo(self, single_app, big_vm):
        # concurrency 1, 1 s cold start, 1 s response time
        prof = FunctionProfile(function_id=0, req_cpu=0.5, req_mem=256.0,
                               standard_response_time=1.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=512.0)
        return make_engine([big_vm], [prof], [single_app])

    def test_finish_pushed_before_retry(self, solo):
        solo.apply_horizontal(0, 1)
        solo.load_arrivals(*arrival_columns([(2.0, 0), (2.0, 0)]))
        solo.advance(5.0)
        assert solo.event_log == [
            (0.0, "pod_create", 0, 0),
            (1.0, "pod_ready", 0),
            (2.0, "arrival", 0, 0),
            (2.0, "assign", 0, 0),
            (2.0, "arrival", 1, 0),
            (2.0, "queue", 1),
            (3.0, "finish", 0),
            (3.0, "retry", 1),  # the pod is free again: routes
            (3.0, "assign", 1, 0),
            (4.0, "finish", 1),
        ]

    def test_retry_pushed_before_finish(self, solo):
        solo.apply_horizontal(0, 1)
        solo.load_arrivals(*arrival_columns([(1.0, 0), (2.0, 0)]))
        solo.advance(2.0)
        solo.load_arrivals(*arrival_columns([(2.0, 0)]))
        solo.advance(5.0)
        assert solo.event_log == [
            (0.0, "pod_create", 0, 0),
            (1.0, "pod_ready", 0),
            (1.0, "arrival", 0, 0),
            (1.0, "assign", 0, 0),
            (2.0, "arrival", 1, 0),
            (2.0, "queue", 1),
            (2.0, "finish", 0),
            (2.0, "arrival", 2, 0),
            (2.0, "assign", 2, 0),
            (3.0, "retry", 1),  # pod still busy with request 2: retries again
            (3.0, "finish", 2),
            (4.0, "retry", 1),
            (4.0, "assign", 1, 0),
            (5.0, "finish", 1),
        ]

    def test_retry_pushed_before_pod_ready(self, solo):
        solo.load_arrivals(*arrival_columns([(0.0, 0)]))
        solo.advance(0.0)
        solo.apply_horizontal(0, 1)
        solo.advance(3.0)
        assert solo.event_log == [
            (0.0, "arrival", 0, 0),
            (0.0, "queue", 0),
            (0.0, "pod_create", 0, 0),
            (1.0, "retry", 0),  # the pod is not ready yet
            (1.0, "pod_ready", 0),
            (2.0, "retry", 0),
            (2.0, "assign", 0, 0),
            (3.0, "finish", 0),
        ]

    def test_pod_ready_pushed_before_retry(self, solo):
        solo.apply_horizontal(0, 1)
        solo.load_arrivals(*arrival_columns([(0.0, 0)]))
        solo.advance(3.0)
        assert solo.event_log == [
            (0.0, "pod_create", 0, 0),
            (0.0, "arrival", 0, 0),
            (0.0, "queue", 0),
            (1.0, "pod_ready", 0),
            (1.0, "retry", 0),
            (1.0, "assign", 0, 0),
            (2.0, "finish", 0),
        ]

    def test_retry_due_before_an_earlier_pushed_one(self, solo):
        # advancing back by less than the clock tolerance leaves the clock at
        # 2.0, so a later push cannot fall due before an earlier one
        solo.load_arrivals(*arrival_columns([(2.0, 0)]))
        solo.advance(2.0)
        t = 2.0 - 5e-10
        solo.advance(t)
        assert solo.clock == 2.0
        with pytest.raises(ConfigError):
            solo.load_arrivals(*arrival_columns([(t, 0)]))
        solo.load_arrivals(*arrival_columns([(2.0, 0)]))
        solo.advance(3.5)
        assert solo.event_log == [
            (2.0, "arrival", 0, 0),
            (2.0, "queue", 0),
            (2.0, "arrival", 1, 0),
            (2.0, "queue", 1),
            (3.0, "retry", 0),
            (3.0, "retry", 1),
        ]
        solo.advance(20.0)
        expected = []
        for k in range(4, 12):
            expected += [(float(k), "retry", 0), (float(k), "retry", 1)]
        expected += [(12.0, "retry", 0), (12.0, "drop", 0),
                     (12.0, "retry", 1), (12.0, "drop", 1)]
        assert solo.event_log[6:] == expected

    def test_reload_before_a_pending_arrival(self, solo):
        # the second load's earliest arrival (2.5) comes before the first
        # load's pending 3.0, and the third load ties with that 3.0
        solo.apply_horizontal(0, 1)
        solo.load_arrivals(*arrival_columns([(3.0, 0), (5.0, 0)]))
        solo.advance(2.0)
        solo.load_arrivals(*arrival_columns([(4.0, 0), (2.5, 0)]))
        solo.advance(2.75)
        solo.load_arrivals(*arrival_columns([(3.0, 0), (6.0, 0)]))
        solo.check_invariants()
        solo.advance(12.0)
        solo.check_invariants()
        assert solo.event_log == [
            (0.0, "pod_create", 0, 0),
            (1.0, "pod_ready", 0),
            (2.5, "arrival", 0, 0),
            (2.5, "assign", 0, 0),
            (3.0, "arrival", 1, 0),  # loaded first: dispatches first
            (3.0, "queue", 1),
            (3.0, "arrival", 2, 0),
            (3.0, "queue", 2),
            (3.5, "finish", 0),
            (4.0, "arrival", 3, 0),  # loaded before the retries were pushed
            (4.0, "assign", 3, 0),
            (4.0, "retry", 1),
            (4.0, "retry", 2),
            (5.0, "arrival", 4, 0),  # before the finish pushed at 4.0
            (5.0, "queue", 4),
            (5.0, "finish", 3),
            (5.0, "retry", 1),
            (5.0, "assign", 1, 0),
            (5.0, "retry", 2),
            (6.0, "arrival", 5, 0),
            (6.0, "queue", 5),
            (6.0, "retry", 4),
            (6.0, "finish", 1),
            (6.0, "retry", 2),
            (6.0, "assign", 2, 0),
            (7.0, "retry", 5),
            (7.0, "retry", 4),
            (7.0, "finish", 2),
            (8.0, "retry", 5),
            (8.0, "assign", 5, 0),
            (8.0, "retry", 4),
            (9.0, "finish", 5),
            (9.0, "retry", 4),
            (9.0, "assign", 4, 0),
            (10.0, "finish", 4),
        ]

    def test_next_event_time_with_only_retries_pending(self, solo):
        solo.load_arrivals(*arrival_columns([(0.5, 0), (0.75, 0)]))
        solo.advance(1.0)
        assert solo.next_event_time() == 1.5
        solo.advance(1.5)
        assert solo.next_event_time() == 1.75
        solo.advance(1.75)
        assert solo.next_event_time() == 2.5


class TestTieHeavyDigests:
    """Seeded scenarios on a 0.25 s grid, where same-time events are common.

    Arrival times, response times, cold starts and the retry interval are all
    multiples of 0.25 s, and random scaling actions run every half second.
    Each scenario's full event log must hash to the recorded digest.
    """

    VMS = (VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048),
           VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848))
    PROFILES = (FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                                standard_response_time=0.75, cold_start_seconds=1.0,
                                initial_pod_cpu=0.5, initial_pod_mem=512.0),
                FunctionProfile(function_id=1, req_cpu=0.5, req_mem=256.0,
                                standard_response_time=0.5, cold_start_seconds=1.25,
                                initial_pod_cpu=0.5, initial_pod_mem=512.0))
    APPS = (Application(app_id=0, function_sequence=(0, 1)),
            Application(app_id=1, function_sequence=(1,)))
    # First 16 hex digits of sha256(repr(event_log)) for seeds 0..19.
    DIGESTS = (
        "a8c658e16c86e75b", "9a79eb4bb4536d1f", "a048b3a93cd1550e", "5705ecddab2e2748",
        "1693f71aa0d10ec4", "3620384cc969bb2d", "48489059cd4a5978", "924976a0f99720ef",
        "fab73d32d1901c7c", "bc40f2f70c48b42c", "4b296319fe14df29", "f40a8664827d9db1",
        "879bf9d2aa51899f", "75af4aaf6c3cf315", "b015187a640318e1", "42d264c72428a3f4",
        "c7c798ee96b09357", "20583eed8e1f7b35", "5c8b58d1efd17ae4", "1d434f122f8a1711",
    )

    @classmethod
    def scenario(cls, seed: int) -> ClusterEngine:
        rng = random.Random(seed)
        eng = make_engine(cls.VMS, cls.PROFILES, cls.APPS, retry_interval=1.0)
        arrivals = [(0.25 * rng.randrange(120), rng.randrange(2))
                    for _ in range(rng.randrange(60, 160))]
        rng.shuffle(arrivals)
        # odd seeds load the traffic after t=5 in a second, unsorted batch
        later = [a for a in arrivals if a[0] >= 5.0] if seed % 2 else []
        eng.load_arrivals(*arrival_columns([a for a in arrivals if a not in later]))
        for step in range(60):
            fn = rng.randrange(2)
            if rng.random() < 0.6:
                eng.apply_horizontal(fn, rng.randrange(-2, 4))
            else:
                eng.apply_vertical(fn, *eng.clamp_vertical(
                    fn, rng.choice((-0.25, 0.0, 0.25)), rng.choice((-256.0, 0.0, 256.0))))
            eng.advance(0.5 * (step + 1))
            eng.check_invariants()
            if later and eng.clock == 5.0:
                eng.load_arrivals(*arrival_columns(later))
        while (t := eng.next_event_time()) is not None:
            eng.advance(t)
        eng.check_invariants()
        return eng

    def test_event_logs_match_recorded_digests(self):
        digests = tuple(hashlib.sha256(repr(self.scenario(seed).event_log).encode())
                        .hexdigest()[:16] for seed in range(20))
        assert digests == self.DIGESTS


class TestRouting:
    def test_round_robin_rotation(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 2)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(3.0, 0), (3.1, 0), (3.2, 0)]))
        eng.advance(3.3)
        assigns = [e for e in eng.event_log if e[1] == "assign"]
        assert [pod for (_, _, _, pod) in assigns] == [0, 1, 0]

    def test_cursor_wraps_when_its_pod_is_removed(self, big_vm, fast_profile,
                                                  single_app):
        # Two requests leave the cursor at index 2. Removing pod 2 must wrap
        # it to 0; left at 2, it would point at pod 3 once that is created.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 3)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(2.5, 0), (2.6, 0)]))
        eng.advance(2.6)
        eng.apply_horizontal(0, -1)  # removes idle pod 2
        eng.apply_horizontal(0, 1)   # creates pod 3, ready at 4.6
        eng.advance(4.7)
        eng.load_arrivals(*arrival_columns([(4.8, 0)]))
        eng.advance(4.8)
        assigns = [e for e in eng.event_log if e[1] == "assign"]
        assert [pod for (_, _, _, pod) in assigns] == [0, 1, 0]
        assert 3 in eng.pods

    def test_no_ready_pods_queues_with_retry(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        req = eng.requests[0]
        assert req.status is RequestStatus.QUEUED
        assert req.retries == 1  # the failed arrival attempt counts
        assert eng.next_event_time() == 1.0

    def test_concurrency_bound_queues_excess(self, big_vm, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.25, req_mem=128.0,
                               standard_response_time=2.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=1024.0)
        eng = make_engine([big_vm], [prof], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(1.0)
        assert eng.pods[0].max_concurrency == 2  # floor(0.5 / 0.25)
        eng.load_arrivals(*arrival_columns([(1.1, 0), (1.2, 0), (1.3, 0)]))
        eng.advance(1.4)
        assert eng.requests[2].status is RequestStatus.QUEUED
        assert eng.pods[0].in_flight == 2

    def test_unknown_function_rejected(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        with pytest.raises(ConfigError):
            eng.load_arrivals(*arrival_columns([(0.0, 99)]))

    def test_no_open_pod_raises(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)  # still creating
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        with pytest.raises(SimulationError, match="no pod is open"):
            eng.route_request(0)

    def test_routing_a_queued_request_withdraws_its_retry(self, big_vm, fast_profile,
                                                          single_app):
        # Request 0 queues at 0.0 and re-queues at 1.0, due again at 2.0; the
        # pod is ready at 1.5. Routing it at 1.6 must leave no retry behind.
        prof = dataclasses.replace(fast_profile, cold_start_seconds=1.5)
        eng = make_engine([big_vm], [prof], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.apply_horizontal(0, 1)
        eng.advance(1.6)
        assert eng.route_request(0) == 0
        eng.check_invariants()
        eng.advance(2.5)
        assert eng.pods[0].in_flight == 1
        eng.check_invariants()
        eng.advance(5.0)
        eng.check_invariants()
        assert [e for e in eng.event_log if e[1] in ("assign", "retry", "finish")] == [
            (1.0, "retry", 0), (1.6, "assign", 0, 0), (2.6, "finish", 0)]
        assert eng.requests[0].status is RequestStatus.COMPLETED

    def test_routing_a_request_that_is_not_queued_raises(self, big_vm, fast_profile,
                                                         single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(10.0)  # request 0 finds no pod and is dropped
        eng.apply_horizontal(0, 2)
        eng.load_arrivals(*arrival_columns([(12.5, 0)]))
        eng.advance(12.5)
        assert [r.status for r in eng.requests.values()] == [RequestStatus.DROPPED,
                                                              RequestStatus.RUNNING]
        for rid in (0, 1, 2, -1):  # dropped, running, and two ids that do not exist
            with pytest.raises(SimulationError, match=f"request {rid} is not queued"):
                eng.route_request(rid)
        eng.check_invariants()

    def test_open_count_without_open_pod_raises(self, big_vm, fast_profile,
                                                single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)  # still creating, so no pod is open
        eng.open_pods[0] = 1
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        with pytest.raises(SimulationError, match="no pod is open"):
            eng.advance(0.0)


class TestLoadArrivals:
    @staticmethod
    def started(vm, profile, app):
        eng = make_engine([vm], [profile], [app])
        eng.apply_horizontal(0, 1)
        eng.load_arrivals(*arrival_columns([(1.0, 0), (3.0, 0)]))
        eng.advance(2.0)
        return eng

    @pytest.fixture
    def eng(self, big_vm, fast_profile, single_app):
        return self.started(big_vm, fast_profile, single_app)

    @pytest.mark.parametrize("batch, message", [
        ([(2.5, 0), (3.0, 7), (2.5, 9)], "arrival references unknown app 7"),
        ([(2.5, 0), (1.5, 0), (1.0, 0)], r"arrival at 1\.5 lies before the clock \(2\.0\)"),
        ([(2.5, 0), (1.5, 0), (3.0, 7)], r"arrival at 1\.5 lies before the clock"),
        ([(2.5, 0), (3.0, 7), (1.5, 0)], "unknown app 7"),
        ([(1.5, 7), (1.0, 0)], "unknown app 7"),  # an arrival's app is checked first
        ([(float("nan"), 0), (1.5, 0)], r"arrival at 1\.5 lies before the clock"),
        # a NaN or infinite time is named only when nothing else is wrong
        ([(2.5, 0), (float("nan"), 0), (3.0, 0)], "arrival at nan is not a finite time"),
        ([(2.5, 0), (float("inf"), 0), (float("inf"), 0)], "arrival at inf is not a finite"),
        ([(float("inf"), 0), (2.5, 0), (float("nan"), 0)], "arrival at inf is not a finite"),
        ([(2.5, 0), (float("inf"), 0), (float("nan"), 0)], "arrival at inf is not a finite"),
        ([(float("nan"), 0), (float("inf"), 0)], "arrival at nan is not a finite"),
        ([(float("inf"), 0), (3.0, 7)], "unknown app 7"),
        ([(2.5, 0), (float("-inf"), 0)], r"arrival at -inf lies before the clock"),
    ])
    def test_error_names_first_bad_arrival(self, eng, batch, message):
        with pytest.raises(ConfigError, match=message):
            eng.load_arrivals(*arrival_columns(batch))

    def test_columns_of_two_lengths_rejected(self, eng):
        with pytest.raises(ConfigError, match="two columns of one length"):
            eng.load_arrivals([2.5, 3.0], [0])
        assert eng.next_event_time() == 3.0

    @pytest.mark.parametrize("bad", [(2.5, 7), (1.5, 0), (float("nan"), 0),
                                     (float("inf"), 0)])
    def test_rejected_batch_changes_nothing(self, big_vm, fast_profile, single_app,
                                            bad):
        engines = [self.started(big_vm, fast_profile, single_app) for _ in range(2)]
        with pytest.raises(ConfigError):
            engines[0].load_arrivals(*arrival_columns([(2.0, 0), (2.25, 0), bad, (4.0, 0)]))
        assert engines[0].next_event_time() == engines[1].next_event_time() == 3.0
        for eng in engines:
            eng.load_arrivals(*arrival_columns([(2.0, 0), (2.5, 0)]))
            eng.advance(20.0)
        assert engines[0].event_log == engines[1].event_log
        assert len(engines[0].requests) == 4


    @staticmethod
    def run_batches(vm, profile, app, batches):
        """An engine with one pod that loads ``batches`` in turn, then runs to 30.0.

        Returns the pending sequence-number column after the last load and
        the event log; the invariants are checked after every step."""
        eng = make_engine([vm], [profile], [app])
        eng.apply_horizontal(0, 1)
        for batch in batches:
            eng.load_arrivals(*arrival_columns(batch))
            eng.check_invariants()
        seqs = eng._pending[1]
        for until in (2.5, 7.25, 30.0):
            eng.advance(until)
            eng.check_invariants()
        return seqs, eng.event_log

    def test_pending_layouts_replay_alike(self, big_vm, fast_profile, single_app):
        # Sorted and alone, the batch keeps its sequence numbers as a range;
        # split in two, one batch unsorted, the arrivals are merged into lists.
        arrivals = [(0.5 + 0.75 * k, 0) for k in range(12)]
        seqs, log = self.run_batches(big_vm, fast_profile, single_app, [arrivals])
        assert seqs == range(2, 14)  # sequence number 1 went to the pod's readiness
        merged_seqs, merged_log = self.run_batches(big_vm, fast_profile, single_app,
                                                   [arrivals[:0:-2], arrivals[::2]])
        assert type(merged_seqs) is list and len(merged_seqs) == 12
        assert merged_log == log
        assert sum(entry[1] == "finish" for entry in log) == 12

    def test_empty_batch_changes_no_event(self, big_vm, fast_profile, single_app):
        arrivals = [(0.5 + 0.75 * k, 0) for k in range(6)]
        _, log = self.run_batches(big_vm, fast_profile, single_app, [arrivals])
        for batches in ([[], arrivals], [arrivals, []], [arrivals[:3], [], arrivals[3:]]):
            assert self.run_batches(big_vm, fast_profile, single_app, batches)[1] == log


class TestRetryDrop:
    def test_drop_after_ten_retries_at_t10(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(20.0)
        req = eng.requests[0]
        assert req.status is RequestStatus.DROPPED
        assert not [e for e in eng.event_log if e[1] == "assign" and e[2] == 0]
        drops = [e for e in eng.event_log if e[1] == "drop"]
        assert drops == [(10.0, "drop", 0)]

    def test_boundary_and_increment(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        eng.req_retries[0] = 10
        eng.advance(1.0)  # the retry due at 1.0 finds the budget spent
        assert eng.requests[0].status is RequestStatus.DROPPED

        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        eng.req_retries[0] = 3
        eng.advance(1.0)
        req = eng.requests[0]
        assert req.status is RequestStatus.QUEUED
        assert req.retries == 4

    def test_queued_requests_count_the_retry_fifo(self, big_vm, fast_profile):
        # Function 0 gets one pod (concurrency 4) at 2.0: its six requests
        # from 0.0 route four at 2.0 and two at 3.0, and request 8 (2.2) is
        # routed by hand at 3.0. Function 1 never gets a pod: requests 6 and
        # 7 (0.5) drop at 4.5, when their fourth retry finds the budget spent.
        apps = [Application(app_id=0, function_sequence=(0,)),
                Application(app_id=1, function_sequence=(1,))]
        profiles = [fast_profile, dataclasses.replace(fast_profile, function_id=1)]
        eng = make_engine([big_vm], profiles, apps, max_retries=4)
        eng.load_arrivals(*arrival_columns([(0.0, 0)] * 6 + [(0.5, 1)] * 2 + [(2.2, 0)]))
        eng.apply_horizontal(0, 1)
        trace = {}

        def counts():
            fifo = [eng.req_function_id[rid] for _, _, rid in eng._retries]
            got = (eng.queued_requests(0), eng.queued_requests(1))
            assert got == (fifo.count(0), fifo.count(1))
            return got

        for step in range(13):
            eng.advance(0.5 * step)
            trace[eng.clock] = counts()
            if eng.clock == 3.0:
                eng.route_request(8)
                trace["routed"] = counts()
        assert trace == {0.0: (6, 0), 0.5: (6, 2), 1.0: (6, 2), 1.5: (6, 2), 2.0: (2, 2),
                         2.5: (3, 2), 3.0: (1, 2), "routed": (0, 2), 3.5: (0, 2), 4.0: (0, 2),
                         4.5: (0, 0), 5.0: (0, 0), 5.5: (0, 0), 6.0: (0, 0)}
        assert [e[2] for e in eng.event_log if e[1] == "drop"] == [6, 7]
        eng.check_invariants()


class TestHorizontalScaling:
    def test_delta_examples(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        with pytest.raises(SimulationError):
            eng.horizontal_delta(0, 0.0)
        with pytest.raises(ConfigError):
            eng.horizontal_delta(7, 0.5)

    def test_full_cluster_creates_nothing(self, fast_profile, single_app):
        tiny = VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=1024.0, unit_price=0.05)
        eng = make_engine([tiny], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        assert eng.fn_pods[0] == [0]
        eng.apply_horizontal(0, 2)  # no room left
        assert eng.fn_pods[0] == [0]

    def test_best_fit_prefers_tightest_vm(self, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.1, req_mem=64.0,
                               standard_response_time=1.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=256.0)
        vms = [VmSpec(vm_id=0, cpu_capacity=2.0, mem_capacity=32768.0, unit_price=0.1),
               VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=32768.0, unit_price=0.1)]
        eng = make_engine(vms, [prof], [single_app])
        eng.pod_size[0] = (0.7, 256.0)
        eng.apply_horizontal(0, 2)  # both land on vm0: 2.0 -> 1.3 -> 0.6 remaining
        eng.pod_size[0] = (0.5, 256.0)
        eng.apply_horizontal(0, 1)
        pod_id = eng.fn_pods[0][-1]
        assert eng.pods[pod_id].vm_id == 0  # remaining 0.1 beats remaining 1.5

    def test_tie_breaks_to_lowest_vm_id(self, fast_profile, single_app):
        vms = [VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.1),
               VmSpec(vm_id=0, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.1)]
        eng = make_engine(vms, [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        pod_id = eng.fn_pods[0][-1]
        assert eng.pods[pod_id].vm_id == 0

    def test_scale_down_idle_newest_first_then_drain(self, big_vm, fast_profile,
                                                     single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 3)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(2.5, 0)]))
        eng.advance(2.6)  # request runs on pod 0 (round-robin start)
        assert eng.pods[0].in_flight == 1
        eng.apply_horizontal(0, -3)
        removes = [e[2] for e in eng.event_log if e[1] == "pod_remove"]
        assert removes == [2, 1]  # idle pods, newest first
        assert eng.pods[0].phase is PodPhase.TERMINATING
        eng.advance(4.0)  # drain: in-flight request finishes untouched
        assert eng.requests[0].status is RequestStatus.COMPLETED
        assert 0 not in eng.pods

    def test_scaling_down_creating_pod_cancels_it(self, big_vm, fast_profile,
                                                  single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.apply_horizontal(0, -1)  # removed while still cold
        eng.advance(5.0)
        assert eng.pods == {}
        assert not any(e[1] == "pod_ready" for e in eng.event_log)


class TestVerticalScaling:
    def test_clamp_at_upper_bound(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.pod_size[0] = (0.9, 512.0)
        cpu, mem = eng.clamp_vertical(0, 0.3, 0.0)
        assert cpu == pytest.approx(0.1)
        assert mem == 0.0

    def test_clamp_at_utilization_floor(self, big_vm, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.1, req_mem=64.0,
                               standard_response_time=5.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=1024.0)
        eng = make_engine([big_vm], [prof], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(1.0)
        eng.load_arrivals(*arrival_columns([(1.1, 0), (1.2, 0), (1.3, 0), (1.4, 0)]))
        eng.advance(1.5)  # 4 in flight -> pod cpu_used = 0.4
        cpu, _ = eng.clamp_vertical(0, -0.2, 0.0)
        assert cpu == pytest.approx(-0.1)

    def test_clamp_to_vm_capacity_split_across_replicas(self, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.1, req_mem=64.0,
                               standard_response_time=1.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=256.0)
        vm = VmSpec(vm_id=0, cpu_capacity=1.3, mem_capacity=32768.0, unit_price=0.1)
        eng = make_engine([vm], [prof], [single_app])
        eng.apply_horizontal(0, 2)  # 1.0 allocated, 0.3 free
        cpu, _ = eng.clamp_vertical(0, 0.25, 0.0)
        assert cpu == pytest.approx(0.15)

    def test_fully_infeasible_clamps_to_zero(self, fast_profile, single_app):
        vm = VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=1024.0, unit_price=0.1)
        eng = make_engine([vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)  # vm saturated
        cpu, mem = eng.clamp_vertical(0, 0.25, 256.0)
        assert cpu == 0.0 and mem == 0.0

    def test_apply_identity_and_linearity(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.pod_size[0] = (0.5, 512.0)
        eng.apply_horizontal(0, 3)
        vm = eng.vms[0]
        alloc_before = vm.cpu_allocated
        eng.apply_vertical(0, 0.0, 0.0)
        assert vm.cpu_allocated == alloc_before
        eng.apply_vertical(0, 0.1, 0.0)
        assert all(p.cpu_limit == pytest.approx(0.6) for p in eng.pods.values())
        assert vm.cpu_allocated == pytest.approx(alloc_before + 0.3)
        eng.check_invariants()

    def test_resize_changes_next_horizontal_decision(self, big_vm, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.25, req_mem=64.0,
                               standard_response_time=5.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=1024.0)
        eng = make_engine([big_vm], [prof], [single_app])
        eng.apply_horizontal(0, 2)
        eng.advance(1.0)
        eng.load_arrivals(*arrival_columns([(1.1, 0), (1.2, 0), (1.3, 0), (1.4, 0)]))
        eng.advance(1.5)  # 2 in flight per pod -> util 0.5/0.5 = 1.0
        # desired = ceil(2 * 1.0 / 0.5) = 4 -> delta +2
        assert eng.horizontal_delta(0, 0.5) == 2
        eng.apply_vertical(0, *eng.clamp_vertical(0, 0.5, 0.0))
        # limits now 1.0 -> util 0.5 -> desired = ceil(2 * 0.5 / 0.5) = 2 -> no change
        assert eng.horizontal_delta(0, 0.5) == 0

    def test_new_pods_created_at_resized_limits(self, big_vm, fast_profile,
                                                single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_vertical(0, *eng.clamp_vertical(0, -0.25, -256.0))
        eng.apply_horizontal(0, 1)
        pod_id = eng.fn_pods[0][-1]
        assert eng.pods[pod_id].cpu_limit == pytest.approx(0.75)
        assert eng.pods[pod_id].mem_limit == pytest.approx(768.0)


class TestSnapshot:
    @staticmethod
    def idle_env(vms, profile, app):
        """An env reset on a traffic-free workload; function 0 is the target."""
        env = ServerlessEnv(vms, {0: profile}, EnvConfig())
        workload = WorkloadSpec(duration=30, applications=(app,),
                                entry_traces={0: TraceSeries("idle", (0,) * 30)})
        return env, env.reset(workload)

    def test_fresh_cluster_all_zero(self, desk_vms, fast_profile, single_app):
        env, state = self.idle_env(desk_vms, fast_profile, single_app)
        for v in range(len(desk_vms)):
            assert np.all(state[7 * v:7 * v + 4] == 0.0)  # util and alloc
            assert state[7 * v + 6] == 0.0  # target replicas
        snap = env.engine.snapshot(0, window=10.0)
        assert snap.rfrt == 1.0
        assert snap.arrival_rate == 0.0

    def test_allocation_ratio(self, single_app):
        prof = FunctionProfile(function_id=0, req_cpu=0.1, req_mem=64.0,
                               standard_response_time=1.0, cold_start_seconds=1.0,
                               initial_pod_cpu=0.5, initial_pod_mem=2048.0)
        vm = VmSpec(vm_id=0, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.1)
        env, _ = self.idle_env([vm], prof, single_app)
        env.engine.apply_horizontal(0, 1)
        state = env._state()
        assert state[2] == pytest.approx(0.25)  # cpu alloc
        assert state[3] == pytest.approx(0.25)  # mem alloc
        assert state[6] == 1 / MAX_REPLICAS  # one target replica

    def test_windowed_arrival_rate(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(10.0 + (i + 0.5) / 3.0, 0) for i in range(30)]))
        eng.advance(20.0)
        assert eng.snapshot(0, window=10.0).arrival_rate == pytest.approx(3.0)

    def test_ready_replicas_leave_out_creating_pods(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 2)
        snap = eng.snapshot(0, window=1.0)
        assert (snap.replicas, snap.ready_replicas) == (2, 0)
        eng.advance(2.0)  # the cold start
        eng.apply_horizontal(0, 1)
        snap = eng.snapshot(0, window=1.0)
        assert (snap.replicas, snap.ready_replicas) == (3, 2)

    def test_window_counts_again_after_advance(self, big_vm, fast_profile, single_app):
        # ``window`` reuses a count only until the next ``advance``, which may
        # dispatch events inside an interval already counted.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(1.0, 0), (2.0, 0)]))
        assert eng.window(0, 0.0, 5.0).arrivals == 0
        eng.advance(5.0)
        assert eng.window(0, 0.0, 5.0).arrivals == 2

    def test_sums_add_left_to_right(self, monkeypatch):
        # Python 3.12's sum() adds floats with compensation and would make
        # each sum of ten 0.1 terms 1.0; the engine adds left to right on
        # every version, which gives 0.9999999999999999.
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        profiles = [FunctionProfile(function_id=fn, req_cpu=0.1, req_mem=51.2,
                                    standard_response_time=0.1, cold_start_seconds=1.0,
                                    initial_pod_cpu=1.0, initial_pod_mem=512.0)
                    for fn in range(10)]
        vm = VmSpec(vm_id=0, cpu_capacity=16.0, mem_capacity=32768.0, unit_price=0.1)
        eng = make_engine([vm], profiles, [Application(app_id=0,
                                                        function_sequence=tuple(range(10)))])
        assert eng._chain_standard[0] == 0.9999999999999999
        eng.apply_horizontal(0, 10)
        eng.load_arrivals(*arrival_columns([(5.0, 0)] * 10))
        eng.advance(5.0)  # one request on each of the ten pods, at util 0.1
        snap = eng.snapshot(0, window=1.0)
        assert snap.avg_pod_cpu_util == snap.avg_pod_mem_util == 0.9999999999999999 / 10


class TestBusyOverlap:
    @staticmethod
    def brute_overlap(vm, t0, t1):
        total = 0.0
        for start, end in vm.busy_log:
            total += max(0.0, min(end, t1) - max(start, t0))
        if vm.busy_since is not None:
            total += max(0.0, t1 - max(vm.busy_since, t0))
        return total

    def test_matches_full_scan_bit_for_bit(self, big_vm):
        rng = random.Random(5)
        for _ in range(300):
            vm = VmState(spec=big_vm)
            t = rng.uniform(0.0, 3.0)
            for _ in range(rng.randrange(40)):
                start = t + rng.choice((0.0, rng.uniform(0.0, 4.0)))
                end = start + rng.choice((0.0, rng.uniform(0.0, 4.0)))
                vm.busy_log.append((start, end))
                t = end
            if rng.random() < 0.5:
                vm.busy_since = t + rng.uniform(0.0, 2.0)
            edges = [x for interval in vm.busy_log for x in interval] or [0.0]
            # windows in random order, some starting or ending on an interval edge
            for _ in range(30):
                t0 = rng.choice((rng.uniform(-1.0, t + 3.0), rng.choice(edges)))
                t1 = rng.choice((t0 + rng.uniform(0.0, 15.0), rng.choice(edges)))
                t0, t1 = min(t0, t1), max(t0, t1)
                assert vm.busy_overlap(t0, t1) == self.brute_overlap(vm, t0, t1)


class TestInvariantsAndDeterminism:
    def _scripted_run(self, vms, profiles, apps):
        eng = make_engine(vms, profiles, apps)
        eng.load_arrivals(*arrival_columns([(i * 0.37, 0) for i in range(40)]))
        eng.advance(0.0)
        eng.apply_horizontal(0, 2)
        eng.advance(5.0)
        eng.apply_vertical(0, *eng.clamp_vertical(0, -0.25, 128.0))
        eng.apply_horizontal(0, eng.horizontal_delta(0, 0.5))
        eng.advance(30.0)
        return eng

    def test_identical_runs_bit_identical(self, desk_vms, fast_profile, single_app):
        a = self._scripted_run(desk_vms, [fast_profile], [single_app])
        b = self._scripted_run(desk_vms, [fast_profile], [single_app])
        assert a.event_log == b.event_log
        assert list(a.requests.values()) == list(b.requests.values())
        assert [(vm.busy_log, vm.busy_since) for vm in a.vms.values()] == \
               [(vm.busy_log, vm.busy_since) for vm in b.vms.values()]

    def test_recount_catches_moved_in_flight_request(self, big_vm, fast_profile,
                                                     single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 2)
        eng.load_arrivals(*arrival_columns([(3.0, 0), (3.1, 0)]))
        eng.advance(3.5)
        assert [pod.in_flight for pod in eng.pods.values()] == [1, 1]
        eng.check_invariants()
        # same VM totals, but one pod now claims the other's request
        eng.pods[0].in_flight -= 1
        eng.pods[1].in_flight += 1
        with pytest.raises(AssertionError, match="in-flight count drift"):
            eng.check_invariants()

    @pytest.mark.parametrize("damage, message", [
        ("heap_arrival", "heap entry of an unknown kind"),
        ("pending_order", "pending arrivals out of order"),
        ("retry_order", "retry FIFO out of order"),
        ("pending_length", "pending arrival columns differ in length"),
        ("cursor", "arrival cursor out of range"),
        ("pending_before_clock", "pending arrival before the clock"),
        ("pending_seq", "pending arrival with an unissued sequence number"),
        ("heap_seq", "heap entry with an unissued sequence number"),
        ("retry_seq", "retry with an unissued sequence number"),
    ], ids=["heap_arrival", "pending_order", "retry_order", "pending_length", "cursor",
            "pending_before_clock", "pending_seq", "heap_seq", "retry_seq"])
    def test_invariants_catch_corrupted_event_queues(self, big_vm, fast_profile,
                                                     single_app, damage, message):
        # No pods: the arrivals at 0.0 and 0.5 queue with a retry each, and
        # the four from 1.0 on wait behind the arrival cursor.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(i * 0.5, 0) for i in range(6)]))
        eng.advance(0.75)
        times, seqs, apps = eng._pending
        i = eng._cursor
        assert (len(eng._retries), len(times) - i) == (2, 4)
        eng.check_invariants()
        if damage == "heap_arrival":  # the next arrival as a heap entry
            heapq.heappush(eng._heap, (times[i], seqs[i], "arrival", apps[i]))
        elif damage == "pending_order":
            times[i], times[i + 1] = times[i + 1], times[i]
        elif damage == "retry_order":
            retries = eng._retries
            retries[0], retries[1] = retries[1], retries[0]
        elif damage == "pending_length":
            apps.append(0)
        elif damage == "cursor":
            eng._cursor = len(times) + 1
        elif damage == "pending_before_clock":
            times[i] = eng.clock - 0.25
        elif damage == "pending_seq":  # a sorted batch's numbers are a range: replace it
            eng._pending = (times, [*seqs[:-1], eng._seq + 1], apps)
        elif damage == "heap_seq":  # a finish whose number was never issued
            heapq.heappush(eng._heap, (2.0, eng._seq + 1, _FINISH, 0))
        else:  # the last retry renumbered past the last issued number
            time, _, rid = eng._retries.pop()
            eng._retries.append((time, eng._seq + 1, rid))
        with pytest.raises(AssertionError, match=message):
            eng.check_invariants()

    def test_next_event_time_sees_arrivals_alone(self, big_vm, fast_profile, single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        assert eng.next_event_time() is None
        eng.load_arrivals(*arrival_columns([(2.5, 0), (4.0, 0)]))
        assert not eng._heap and not eng._retries
        assert eng.next_event_time() == 2.5
        eng.apply_horizontal(0, 1)  # ready at 2.0, before the next arrival
        assert eng.next_event_time() == 2.0
        eng.advance(3.0)  # the 2.5 arrival finishes at 3.5
        assert eng.next_event_time() == 3.5
        eng.advance(3.5)
        assert not eng._heap and not eng._retries
        assert eng.next_event_time() == 4.0

    @pytest.mark.parametrize("damage, message", [
        ("length", "request columns differ in length"),
        ("running", "finish times differ from the completion times"),
        ("completed", "dropped request with a finish time"),
        ("queued", "queued requests and pending retries differ"),
        ("finish_without_pod", "queued request with a finish time"),
        ("retries", "retries above the retry budget"),
    ], ids=["length", "running", "completed", "queued", "finish_without_pod", "retries"])
    def test_invariants_catch_corrupted_request_columns(self, big_vm, fast_profile,
                                                       single_app, damage, message):
        # One pod of concurrency 4: request 0 finishes at 3.0, requests 1-3
        # run from 2.5 and requests 4 and 5 wait for their retry at 3.5.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.load_arrivals(*arrival_columns([(2.0, 0)] + [(2.5, 0)] * 5))
        eng.advance(3.25)
        assert [r.status for r in eng.requests.values()] == (
            [RequestStatus.COMPLETED] + [RequestStatus.RUNNING] * 3
            + [RequestStatus.QUEUED] * 2)
        eng.check_invariants()
        if damage == "length":
            eng.req_pod_id.append(None)
        elif damage == "running":  # a finish time on a running request
            eng.req_finish_time[1] = 3.0
        elif damage == "completed":  # the drop mark on a finished request
            eng.req_pod_id[0] = -1
        elif damage == "queued":  # a pod on a request with a pending retry
            eng.req_pod_id[4] = 0
        elif damage == "finish_without_pod":
            eng.req_finish_time[4] = 3.0
        else:
            eng.req_retries[4] = eng.config.max_retries + 1
        with pytest.raises(AssertionError, match=message):
            eng.check_invariants()

    def test_invariants_hold_with_no_retry_budget(self, big_vm, fast_profile, single_app):
        # With max_retries 0 a request queued on arrival holds retry 1 (the
        # failed arrival-time attempt) until its first retry drops it at 1.0.
        eng = make_engine([big_vm], [fast_profile], [single_app], max_retries=0)
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        assert eng.requests[0].status is RequestStatus.QUEUED
        eng.check_invariants()
        eng.advance(1.0)
        assert eng.requests[0].status is RequestStatus.DROPPED
        eng.check_invariants()

    @pytest.mark.parametrize("damage, message", [
        ("completion_times", "finish times differ from the completion times"),
        ("completion_ratios", "completion times and ratios differ in length"),
        ("drop_times", "drop marks differ from the drop times"),
        ("arrival_times", "arrival times differ from the request count"),
        ("chain_ratios", "chain roots and ratios differ in length"),
    ], ids=["completion_times", "completion_ratios", "drop_times", "arrival_times",
            "chain_ratios"])
    def test_invariants_recount_totals(self, big_vm, fast_profile, single_app, damage,
                                       message):
        # Request 0 finds no pod and is dropped at 10.0; request 1 runs on
        # the pod made at 10.0 and finishes at 13.5.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(10.0)
        eng.apply_horizontal(0, 1)
        eng.load_arrivals(*arrival_columns([(12.5, 0)]))
        eng.advance(20.0)
        assert [r.status for r in eng.requests.values()] == [RequestStatus.DROPPED,
                                                              RequestStatus.COMPLETED]
        assert (eng.completed_total, eng.dropped_total) == (1, 1)
        eng.check_invariants()
        if damage == "completion_times":  # one finish too many, in both lists
            eng.completion_times[0].append(20.0)
            eng.completion_ratios[0].append(1.0)
        elif damage == "completion_ratios":
            eng.completion_ratios[0].pop()
        elif damage == "drop_times":
            eng.drop_times[0].append(20.0)
        elif damage == "arrival_times":
            eng.arrival_times[0].pop()
        else:
            eng.chain_ratios[0].pop()
        with pytest.raises(AssertionError, match=message):
            eng.check_invariants()

    @pytest.mark.parametrize("record", ["arrival", "completion", "drop"])
    def test_invariants_catch_time_records_out_of_order(self, big_vm, fast_profile,
                                                         single_app, record):
        # Two requests dropped with no pod, then two served by one pod: each
        # function's arrival, completion and drop times hold two entries.
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0), (1.0, 0)]))
        eng.advance(12.0)
        eng.apply_horizontal(0, 1)
        eng.load_arrivals(*arrival_columns([(14.5, 0), (15.0, 0)]))
        eng.advance(30.0)
        assert [r.status for r in eng.requests.values()] == (
            [RequestStatus.DROPPED] * 2 + [RequestStatus.COMPLETED] * 2)
        eng.check_invariants()
        times = getattr(eng, f"{record}_times")[0]
        assert len(times) in (2, 4) and times[0] < times[-1]
        times.reverse()  # same counts, so only the order check can see it
        with pytest.raises(AssertionError, match=f"{record} times out of order"):
            eng.check_invariants()

    @pytest.mark.parametrize("mode", ["inflight", "pods"])
    @pytest.mark.parametrize("damage, message", [
        ("busy_since", "busy interval out of step with activity"),
        ("inflight", "vm in-flight count drift"),
    ], ids=["busy_since", "inflight"])
    def test_invariants_catch_corrupted_vm_records(self, big_vm, fast_profile, single_app,
                                                   mode, damage, message):
        # One idle pod after its only request finished: the VM is idle in
        # "inflight" mode and active in "pods" mode.
        eng = make_engine([big_vm], [fast_profile], [single_app], active_time_mode=mode)
        eng.apply_horizontal(0, 1)
        eng.load_arrivals(*arrival_columns([(2.0, 0)]))
        eng.advance(5.0)
        vm = eng.vms[0]
        pod_count = sum(pod.vm_id == 0 for pod in eng.pods.values())
        assert (pod_count, vm.inflight, vm.busy_since is None) == (1, 0, mode == "inflight")
        eng.check_invariants()
        if damage == "busy_since":
            vm.busy_since = eng.clock if vm.busy_since is None else None
        else:
            vm.inflight += 1
        with pytest.raises(AssertionError, match=message):
            eng.check_invariants()

    def test_invariants_survive_optimized_python(self):
        # ``python -O`` strips assert statements; check_invariants must still raise.
        script = textwrap.dedent("""
            from faaslab.cluster import Application, ClusterEngine, FunctionProfile, VmSpec
            vm = VmSpec(vm_id=0, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3)
            profile = FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                                      standard_response_time=1.0, cold_start_seconds=2.0,
                                      initial_pod_cpu=1.0, initial_pod_mem=1024.0)
            eng = ClusterEngine([vm], [profile], [Application(app_id=0, function_sequence=(0,))])
            eng.apply_horizontal(0, 1)
            eng.vms[0].inflight += 1
            try:
                eng.check_invariants()
            except AssertionError as exc:
                print("raised:", exc)
            """)
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                                text=True, check=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout.strip() == "raised: vm in-flight count drift"

    def test_accounting_holds_throughout(self, desk_vms, fast_profile, single_app):
        eng = make_engine(desk_vms, [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(i * 0.21, 0) for i in range(50)]))
        eng.apply_horizontal(0, 1)
        for t in range(1, 31):
            eng.advance(float(t))
            eng.check_invariants()

    def test_cold_start_inflates_response_time(self, big_vm, fast_profile,
                                               single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        eng.apply_horizontal(0, 1)
        eng.advance(10.0)
        req = eng.requests[0]
        (start,) = [e[0] for e in eng.event_log if e[1] == "assign" and e[2] == 0]
        assert start >= fast_profile.cold_start_seconds  # the pod was created at 0.0
        assert req.finish_time - req.arrival_time > fast_profile.standard_response_time

    def test_active_seconds_accrue_only_with_inflight(self, big_vm, fast_profile,
                                                      single_app):
        eng = make_engine([big_vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(5.0)  # idle pod: no active time
        assert eng.vms[0].busy_overlap(0.0, 5.0) == 0.0
        eng.load_arrivals(*arrival_columns([(5.0, 0)]))
        eng.advance(10.0)
        assert eng.vms[0].busy_overlap(0.0, 10.0) == pytest.approx(1.0)

    def test_pods_mode_counts_hosting_time(self, big_vm, fast_profile, single_app):
        # alternative activity reading: a VM is active while it hosts any pod
        eng = make_engine([big_vm], [fast_profile], [single_app],
                          active_time_mode="pods")
        eng.apply_horizontal(0, 1)
        eng.advance(5.0)  # no traffic at all
        assert eng.vms[0].busy_overlap(0.0, 5.0) == pytest.approx(5.0)
        eng.apply_horizontal(0, -1)
        eng.advance(9.0)
        assert eng.vms[0].busy_overlap(0.0, 9.0) == pytest.approx(5.0)

    def test_pods_mode_closes_when_the_last_pod_drains(self, big_vm, fast_profile,
                                                        single_app):
        # Pod 0 on VM 0 serves a request and drains as Terminating; pod 1,
        # idle on VM 1, is removed at once. Each VM's busy interval closes
        # when its last pod is removed, not earlier.
        small = VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048)
        eng = make_engine([small, dataclasses.replace(big_vm, vm_id=1)], [fast_profile],
                          [single_app], active_time_mode="pods")
        eng.apply_horizontal(0, 2)
        assert [pod.vm_id for pod in eng.pods.values()] == [0, 1]
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(2.5, 0)]))
        eng.advance(3.0)
        eng.apply_horizontal(0, -2)
        assert eng.pods[0].phase is PodPhase.TERMINATING and 1 not in eng.pods
        assert (eng.vms[1].busy_log, eng.vms[1].busy_since) == ([(0.0, 3.0)], None)
        eng.advance(3.25)
        assert (eng.vms[0].busy_log, eng.vms[0].busy_since) == ([], 0.0)
        eng.check_invariants()
        eng.advance(5.0)
        assert eng.event_log[-2:] == [(3.5, "finish", 0), (3.5, "pod_remove", 0)]
        assert (eng.vms[0].busy_log, eng.vms[0].busy_since) == ([(0.0, 3.5)], None)
        eng.check_invariants()

    def test_chain_handoff_is_immediate(self, big_vm):
        profs = [FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                                 standard_response_time=1.0, cold_start_seconds=1.0,
                                 initial_pod_cpu=1.0, initial_pod_mem=1024.0),
                 FunctionProfile(function_id=1, req_cpu=0.25, req_mem=256.0,
                                 standard_response_time=0.5, cold_start_seconds=1.0,
                                 initial_pod_cpu=1.0, initial_pod_mem=1024.0)]
        app = Application(app_id=0, function_sequence=(0, 1))
        eng = make_engine([big_vm], profs, [app])
        eng.apply_horizontal(0, 1)
        eng.apply_horizontal(1, 1)
        eng.advance(1.0)
        eng.load_arrivals(*arrival_columns([(2.0, 0)]))
        eng.advance(5.0)
        child = eng.requests[1]
        assert child.function_id == 1
        assert child.arrival_time == eng.requests[0].finish_time == 3.0
        assert child.finish_time == 3.5
        assert child.root_id == 0

    def test_chain_ratios_are_in_order_stage_sums(self, desk_vms):
        # Two 5-stage apps and a 2-stage app under queueing and horizontal
        # scaling. Each stored ratio must equal, bit for bit, the
        # stages' response times over their standard times, both summed in
        # chain order from the request records.
        profiles, apps = select_apps(["facial", "todo", "thumbnail"])
        eng = make_engine(desk_vms, profiles, apps)
        rng = random.Random(11)
        eng.load_arrivals(*arrival_columns((rng.uniform(0.0, 60.0), rng.choice(apps).app_id)
                          for _ in range(400)))
        for t in range(0, 60, 5):
            for fn in eng.deployed_fns:
                eng.apply_horizontal(fn, eng.horizontal_delta(fn, 0.5))
            eng.advance(t + 5.0)
        while eng.pending_requests():
            eng.advance(eng.next_event_time())

        stages: dict[int, list] = {}
        for req in eng.requests.values():
            stages.setdefault(req.root_id, []).append(req)
        completed = {app.app_id: {} for app in apps}
        for root, reqs in stages.items():
            reqs.sort(key=lambda r: r.chain_index)
            app_id = reqs[0].app_id
            if (len(reqs) < len(eng.apps[app_id].function_sequence)
                    or reqs[-1].status is not RequestStatus.COMPLETED):
                continue
            actual = standard = 0.0
            for r in reqs:  # with +, as the engine adds: 3.12's sum() compensates
                actual += r.finish_time - r.arrival_time
                standard += profiles[r.function_id].standard_response_time
            completed[app_id][root] = actual / standard
        assert completed_chains(eng) == completed
        assert all(len(ratios) > 20 for ratios in completed.values())
        assert any(r > 1.0 for ratios in completed.values() for r in ratios.values())
        assert eng.dropped_total > 0


class TestRequestStore:
    @staticmethod
    def two_stage_engine(vm):
        profiles = [FunctionProfile(function_id=fn, req_cpu=0.25, req_mem=256.0,
                                    standard_response_time=0.1, cold_start_seconds=1.0,
                                    initial_pod_cpu=1.0, initial_pod_mem=1024.0)
                    for fn in (0, 1)]
        eng = make_engine([vm], profiles, [Application(app_id=0, function_sequence=(0, 1))])
        for fn in (0, 1):
            eng.apply_horizontal(fn, 2)
        return eng

    def test_requests_add_no_tracked_objects(self, big_vm):
        # Requests live in columns of numbers, None and enum members, so an
        # episode's worth of them leaves the garbage collector nothing new to
        # scan. One tracked object per request would add about 10,000 here.
        eng = self.two_stage_engine(big_vm)
        arrivals = [(i * 0.02, 0) for i in range(5000)]
        gc.collect()
        before = len(gc.get_objects())
        eng.load_arrivals(*arrival_columns(arrivals))
        eng.advance(200.0)
        assert not eng.pending_requests() and len(eng.requests) == 10_000
        gc.collect()
        assert len(gc.get_objects()) - before < 100

    def test_view_is_read_only_and_counts_every_request(self, big_vm):
        eng = self.two_stage_engine(big_vm)
        eng.load_arrivals(*arrival_columns([(2.0 + i * 0.05, 0) for i in range(40)]))
        eng.advance(2.02)
        record = eng.requests[0]
        with pytest.raises(TypeError):
            eng.requests[0] = record
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.status = RequestStatus.DROPPED
        assert 0 in eng.requests and len(eng.requests) not in eng.requests
        eng.advance(20.0)
        # a record is a snapshot: it keeps the state it was built with
        assert record.status is RequestStatus.RUNNING
        assert eng.requests[0].status is RequestStatus.COMPLETED
        assert len(eng.requests) == EpisodeLedger(eng).summary().total == 80


class TestChainLinks:
    """A request that starts its own chain stores no chain state; each later
    stage's ``(chain_index, root_id, chain_elapsed)`` is one ``chain_links``
    entry."""

    @staticmethod
    def desk_run(vms, names):
        # One pod per function from 0.0. The arrivals at 0.0 queue until
        # their pods are ready; the burst at 6.0 overfills primary's pod
        # (concurrency 4), so its requests wait for retries.
        profiles, apps = select_apps(names)
        eng = make_engine(vms, profiles, apps)
        for fn in eng.deployed_fns:
            eng.apply_horizontal(fn, 1)
        arrivals = [(0.0, app.app_id) for app in apps]
        arrivals += [(6.0, app.app_id) for app in apps for _ in range(6)]
        eng.load_arrivals(*arrival_columns(arrivals))
        eng.advance(6.0)
        while eng.pending_requests():
            eng.advance(eng.next_event_time())
        eng.check_invariants()
        return eng, apps

    def test_entry_request_is_its_own_root_and_the_handoff_is_linked(self, desk_vms):
        eng, apps = self.desk_run(desk_vms, ["primary", "thumbnail", "load"])
        thumbnail = apps[1]
        assert len(thumbnail.function_sequence) == 2
        roots = [r for r in eng.requests.values()
                 if r.app_id == thumbnail.app_id and r.chain_index == 0]
        assert len(roots) == 7
        for root in roots:
            assert (root.root_id, root.chain_elapsed) == (root.request_id, 0.0)
            assert root.request_id not in eng.chain_links
        handoffs = {}
        for rid, link in eng.chain_links.items():
            record = eng.requests[rid]
            assert (record.chain_index, record.root_id, record.chain_elapsed) == link
            handoffs[record.root_id] = record
        assert sorted(handoffs) == [root.request_id for root in roots]
        for root in roots:
            handoff = handoffs[root.request_id]
            assert handoff.function_id == thumbnail.function_sequence[1]
            assert handoff.chain_index == 1
            assert handoff.arrival_time == root.finish_time
            assert handoff.chain_elapsed == root.finish_time - root.arrival_time
        # the request at 0.0 waited for its pod, so its first stage ran long
        assert handoffs[roots[0].request_id].chain_elapsed > 2.5

    def test_one_function_apps_hold_no_link(self, desk_vms):
        eng, _ = self.desk_run(desk_vms, ["primary", "load"])
        assert eng.chain_links == {}
        assert len(eng.requests) == eng.completed_total == 14
        assert all(r.chain_index == 0 and r.root_id == r.request_id and r.chain_elapsed == 0.0
                   for r in eng.requests.values())

    def test_one_function_chain_ratio_is_its_completion_ratio(self, desk_vms):
        eng, apps = self.desk_run(desk_vms, ["primary", "thumbnail", "load"])
        for app in apps:
            if len(app.function_sequence) == 1:
                fn, = app.function_sequence
                assert eng.chain_ratios[app.app_id] == eng.completion_ratios[fn]
                roots = eng.chain_roots[app.app_id]
                assert sorted(roots) == [r.request_id for r in eng.requests.values()
                                         if r.function_id == fn]
                standard = eng.profiles[fn].standard_response_time
                assert eng.chain_ratios[app.app_id] == [
                    (eng.requests[root].finish_time - eng.requests[root].arrival_time) / standard
                    for root in roots]
        # queueing put the ratios above 1 for the request at 0.0 and the burst
        assert max(eng.chain_ratios[apps[0].app_id]) > 1.0

    @pytest.mark.parametrize("damage, message", [
        ("unknown", "chain link of an unknown request"),
        ("index", "chain link index out of range"),
        ("function", "chain link on another function"),
        ("root", "chain link root is not an earlier entry request of its app"),
        ("entry", "entry request on another function"),
    ], ids=["unknown", "index", "function", "root", "entry"])
    def test_invariants_catch_a_corrupted_link(self, desk_vms, damage, message):
        eng, apps = self.desk_run(desk_vms, ["primary", "thumbnail", "load"])
        links = eng.chain_links
        handoff = min(links)
        stage, root, elapsed = links[handoff]
        primary = next(r.request_id for r in eng.requests.values() if r.app_id == apps[0].app_id)
        if damage == "unknown":
            links[len(eng.requests)] = (1, root, elapsed)
        elif damage == "index":
            links[handoff] = (2, root, elapsed)
        elif damage == "function":  # swapped, so every function keeps its request count
            fns = eng.req_function_id
            fns[handoff], fns[primary] = fns[primary], fns[handoff]
        elif damage == "root":  # an earlier entry request, but of another app
            links[handoff] = (stage, primary, elapsed)
        else:  # the hand-off reads as an entry request
            del links[handoff]
        with pytest.raises(AssertionError, match=message):
            eng.check_invariants()
