"""Property test: engine invariants hold under random scaling sequences.

Random interleavings of horizontal scaling, clamped vertical resizes and
``advance`` run over random arrivals, with and without execution noise and in
both ``active_time_mode``s. After every advance the engine's own
``check_invariants`` (which recounts allocations, usage, concurrency bounds
and open pods from scratch) must pass, every arrival must be completed,
dropped or still in flight, and the clock must never go back.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.cluster import (Application, ClusterEngine, FunctionProfile,
                             RequestStatus, SimConfig, VmSpec)

from oracles import arrival_columns

VMS = (VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048),
       VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848))
PROFILES = (FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                            standard_response_time=1.0, cold_start_seconds=2.0,
                            initial_pod_cpu=0.5, initial_pod_mem=512.0),
            FunctionProfile(function_id=1, req_cpu=0.1, req_mem=128.0,
                            standard_response_time=0.4, cold_start_seconds=1.0,
                            initial_pod_cpu=0.3, initial_pod_mem=384.0))
APPS = (Application(app_id=0, function_sequence=(0, 1)),
        Application(app_id=1, function_sequence=(1,)))

functions = st.sampled_from((0, 1))
operations = st.one_of(
    st.tuples(st.just("horizontal"), functions, st.integers(-3, 4)),
    st.tuples(st.just("vertical"), functions,
              st.floats(-0.5, 0.5), st.floats(-1024.0, 1024.0)),
    st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
)


@settings(max_examples=150, deadline=None)
@given(
    noise=st.sampled_from((0.0, 0.4)),
    mode=st.sampled_from(("inflight", "pods")),
    seed=st.integers(0, 1000),
    initial_pods=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    arrivals=st.lists(st.tuples(st.floats(0.0, 30.0), st.sampled_from((0, 1))),
                      min_size=10, max_size=120),
    ops=st.lists(operations, max_size=40),
)
def test_invariants_hold_under_random_scaling(noise, mode, seed, initial_pods,
                                              arrivals, ops):
    engine = ClusterEngine(VMS, PROFILES, APPS,
                           SimConfig(exec_noise_sigma=noise, active_time_mode=mode,
                                     seed=seed))
    engine.load_arrivals(*arrival_columns(sorted(arrivals)))
    for fn, pods in enumerate(initial_pods):
        engine.apply_horizontal(fn, pods)

    def advance(until):
        before = engine.clock
        engine.advance(until)
        assert engine.clock == until >= before
        engine.check_invariants()
        in_flight = sum(1 for r in engine.requests.values()
                        if r.status in (RequestStatus.QUEUED, RequestStatus.RUNNING))
        arrived = sum(len(times) for times in engine.arrival_times.values())
        assert arrived == len(engine.requests)
        assert arrived == engine.completed_total + engine.dropped_total + in_flight

    for op in ops:
        if op[0] == "horizontal":
            engine.apply_horizontal(op[1], op[2])
        elif op[0] == "vertical":
            engine.apply_vertical(op[1], *engine.clamp_vertical(*op[1:]))
        else:
            advance(engine.clock + op[1])
    while (t := engine.next_event_time()) is not None and t <= 200.0:
        advance(t)
