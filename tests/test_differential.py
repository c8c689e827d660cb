"""Differential test: ``ClusterEngine`` against ``ReferenceEngine``.

Both engines run the same random scenario: chains of one to three
functions, tied (0.25 s grid and whole-second ``int``) and untied arrival
times in one to three unsorted batches loaded together, more batches, sorted
or not, loaded mid-run while earlier arrivals are still pending, random
horizontal and clamped vertical scaling,
arrivals just after a step back in time by less than the clock tolerance,
batches that ``load_arrivals`` must reject whole and both
``active_time_mode``s. The timing constants are multiples of 0.25 s, so
many events share a timestamp; one draw in three replaces the standard
response times with floats off that grid, so finishes fall between the
retries, arrivals and pod readiness instead.

After every advance the engines must agree exactly: event log, the fields
of every request (``ClusterEngine`` columns against ``ReferenceEngine``
records), pods, VM accounting (CPU and memory in use summed over each
engine's pods) and busy logs, chain ratios,
completion times and ratios, the episode summary and the reward channels of
the window just run. The fast engine's open-pod counts must equal a full
scan, and its own ``check_invariants`` must pass. A rejected batch must raise
the same message in both engines.
"""
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.cluster import (Application, ClusterEngine, FunctionProfile, RequestRecord,
                             SimConfig, VmSpec)
from faaslab.errors import ConfigError
from faaslab.metrics import EpisodeLedger

from oracles import arrival_columns, completed_chains
from reference_engine import Record, ReferenceEngine

FIELDS = tuple(f.name for f in fields(RequestRecord))

VMS = (VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048),
       VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848))
# Concurrency bounds 2, 1 and 3 at the initial pod sizes.
PROFILES = (FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                            standard_response_time=0.75, cold_start_seconds=1.0,
                            initial_pod_cpu=0.5, initial_pod_mem=512.0),
            FunctionProfile(function_id=1, req_cpu=0.5, req_mem=256.0,
                            standard_response_time=0.5, cold_start_seconds=1.25,
                            initial_pod_cpu=0.5, initial_pod_mem=512.0),
            FunctionProfile(function_id=2, req_cpu=0.1, req_mem=128.0,
                            standard_response_time=0.25, cold_start_seconds=0.5,
                            initial_pod_cpu=0.3, initial_pod_mem=384.0))

# The same table with standard response times drawn off the 0.25 s grid.
off_grid_profiles = st.tuples(*[st.floats(0.05, 2.0)] * len(PROFILES)).map(
    lambda times: tuple(replace(profile, standard_response_time=t)
                        for profile, t in zip(PROFILES, times)))

functions = st.sampled_from((0, 1, 2))
chains = st.lists(st.lists(functions, min_size=1, max_size=3), min_size=1, max_size=3)

def on_grid(max_steps):
    return st.integers(0, max_steps).map(lambda k: 0.25 * k)


# mostly on the grid, where ties are common; whole seconds, given as ints,
# tie with retries, finishes and pod readiness as well
times = st.one_of(on_grid(80), on_grid(80), st.integers(0, 20), st.floats(0.0, 20.0))
steps = st.one_of(on_grid(12), on_grid(12), on_grid(12), st.floats(0.0, 3.0))
operations = st.one_of(
    st.tuples(st.just("horizontal"), functions, st.integers(-3, 4)),
    st.tuples(st.just("vertical"), functions,
              st.sampled_from((-0.25, 0.0, 0.25)), st.floats(-1024.0, 1024.0)),
    st.tuples(st.just("advance"), steps),
    st.tuples(st.just("back"), st.lists(st.integers(0, 2), min_size=1, max_size=3)),
    st.tuples(st.just("load"), st.lists(st.tuples(steps, st.integers(0, 2)),
                                        min_size=1, max_size=20), st.booleans()),
    # a batch with one bad arrival (an app id past the last app, a time
    # before the clock, or a NaN or infinite time) somewhere among good ones
    st.tuples(st.just("rejected load"), st.lists(st.tuples(steps, st.integers(0, 2))),
              st.integers(0, 20), st.sampled_from(("app", "time", "nan", "inf"))),
)


def request_fields(requests):
    return [tuple(getattr(requests[rid], name) for name in FIELDS)
            for rid in range(len(requests))]


def test_reference_records_have_the_record_fields():
    assert tuple(f.name for f in fields(Record)) == FIELDS


def vm_states(engine):
    """Each VM's record, with its CPU and memory in use summed over its pods."""
    return [(vm.cpu_allocated, vm.mem_allocated,
             sum(pod.cpu_used for pod in engine.pods.values() if pod.vm_id == vm_id),
             sum(pod.mem_used for pod in engine.pods.values() if pod.vm_id == vm_id),
             vm.inflight, vm.busy_since, vm.busy_log)
            for vm_id, vm in engine.vms.items()]


def agree(what, fast_value, ref_value):
    # A plain message: pytest's diff of two large containers is very slow.
    if fast_value != ref_value:
        raise AssertionError(f"{what} differ")


def assert_same(fast, ref, t0):
    agree("clocks", fast.clock, ref.clock)
    agree("event logs", fast.event_log, ref.event_log if fast.log_events else [])
    agree("request fields", request_fields(fast.requests), request_fields(ref.requests))
    agree("pods", fast.pods, ref.pods)
    agree("pod lists", fast.fn_pods, ref.fn_pods)
    agree("round-robin cursors", fast._rr_cursor, ref._rr_cursor)
    agree("queued counts", {fn: fast.queued_requests(fn) for fn in fast.profiles},
          {fn: ref.queued_requests(fn) for fn in ref.profiles})
    agree("open-pod counts", fast.open_pods, ref.open_pod_counts())
    agree("vm states", vm_states(fast), vm_states(ref))
    agree("completed chains", completed_chains(fast), ref.completed_chains)
    agree("completion times", fast.completion_times, ref.completion_times)
    agree("completion ratios", fast.completion_ratios, ref.completion_ratios)
    agree("arrival times", fast.arrival_times, ref.arrival_times)
    agree("drop times", fast.drop_times, ref.drop_times)
    agree("next event times", fast.next_event_time(), ref.next_event_time())
    fast_ledger, ref_ledger = EpisodeLedger(fast), EpisodeLedger(ref)
    agree("window channels", fast_ledger.window_channels(t0, fast.clock),
          ref_ledger.window_channels(t0, ref.clock))
    # repr compares floats exactly and treats an undefined (nan) RART as equal.
    # The engine's chains are in completion order and the reference's in
    # root-id order, so equal RARTs show that summary sums in root-id order.
    agree("summaries", repr(fast_ledger.summary()), repr(ref_ledger.summary()))
    fast.check_invariants()


@settings(deadline=None)
@given(
    profiles=st.one_of(st.just(PROFILES), st.just(PROFILES), off_grid_profiles),
    mode=st.sampled_from(("inflight", "pods")),
    retry=st.tuples(st.sampled_from((0.5, 1.0)), st.sampled_from((0, 1, 3, 10))),
    log_events=st.sampled_from((True, True, True, False)),
    sequences=chains,
    initial_pods=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    batches=st.lists(st.lists(st.tuples(times, st.integers(0, 2)), min_size=1, max_size=40),
                     min_size=1, max_size=3),
    ops=st.lists(operations, max_size=30),
)
def test_engine_matches_reference(profiles, mode, retry, log_events, sequences,
                                  initial_pods, batches, ops):
    apps = [Application(app_id=i, function_sequence=tuple(seq))
            for i, seq in enumerate(sequences)]
    config = SimConfig(retry_interval=retry[0], max_retries=retry[1],
                       active_time_mode=mode)
    fast = ClusterEngine(VMS, profiles, apps, config, log_events=log_events)
    ref = ReferenceEngine(VMS, profiles, apps, config)
    n_apps = len(apps)

    def load(batch):
        columns = arrival_columns((t, app % n_apps) for t, app in batch)
        fast.load_arrivals(*columns)
        ref.load_arrivals(*columns)

    def advance(until):
        t0 = fast.clock
        fast.advance(until)
        ref.advance(until)
        assert_same(fast, ref, t0)

    for batch in batches:
        load(batch)
    for fn, pods in enumerate(initial_pods):
        fast.apply_horizontal(fn, pods)
        ref.apply_horizontal(fn, pods)
    for op in ops:
        if op[0] == "horizontal":
            fast.apply_horizontal(op[1], op[2])
            ref.apply_horizontal(op[1], op[2])
            agree("scaled pods", fast.fn_pods, ref.fn_pods)
        elif op[0] == "vertical":
            clamped = fast.clamp_vertical(*op[1:])
            agree("clamped resizes", clamped, ref.clamp_vertical(*op[1:]))
            fast.apply_vertical(op[1], *clamped)
            ref.apply_vertical(op[1], *clamped)
        elif op[0] == "advance":
            advance(fast.clock + op[1])
        elif op[0] == "back" and (t := fast.next_event_time()) is not None:
            # run to the next event, step back by less than the clock
            # tolerance and let requests arrive there
            advance(t)
            advance(t - 5e-10)
            load([(fast.clock, app) for app in op[1]])
        elif op[0] == "load":
            batch = [(fast.clock + dt, app) for dt, app in op[1]]
            load(sorted(batch) if op[2] else batch)
        elif op[0] == "rejected load":
            batch = [(fast.clock + dt, app % n_apps) for dt, app in op[1]]
            bad = {"app": (fast.clock, n_apps), "time": (fast.clock - 0.25, 0),
                   "nan": (float("nan"), 0), "inf": (float("inf"), 0)}[op[3]]
            batch.insert(min(op[2], len(batch)), bad)
            messages = []
            for engine in (fast, ref):
                with pytest.raises(ConfigError) as rejected:
                    engine.load_arrivals(*arrival_columns(batch))
                messages.append(str(rejected.value))
            agree("rejection messages", *messages)
            agree("next event times", fast.next_event_time(), ref.next_event_time())
    while (t := fast.next_event_time()) is not None and t <= 200.0:
        advance(t + 2.0)
