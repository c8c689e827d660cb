"""Property tests: engine invariants hold under random scaling sequences,
and an experiment that loads from random files can serve.

Random interleavings of horizontal scaling, clamped vertical resizes and
``advance`` run over random arrivals in both ``active_time_mode``s. After
every advance the engine's own ``check_invariants`` (which recounts
allocations, usage, concurrency bounds and open pods from scratch) must
pass, every arrival must be completed, dropped or still in flight, and the
clock must never go back.

Random cluster and profiles files, each field within its documented bounds,
with random applications, retry settings and billing mode, must either
fail to load with a ``ConfigError`` (exit 2) that names the file, or let
every baseline and a random-action agent finish desk ``high`` workload 0
with nothing pending and ``check_invariants`` passing. 25 examples run by
default and 125 under ``HYPOTHESIS_PROFILE=ci``.
"""
import os
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.baselines import BASELINES, run_baseline
from faaslab.cluster import (Application, ClusterEngine, FunctionProfile,
                             RequestStatus, SimConfig, VmSpec)
from faaslab.config import load_experiment
from faaslab.env import ACTION_SIZES, ScalingAction, ServerlessEnv
from faaslab.errors import ConfigError
from faaslab.metrics import ChannelBounds, RewardBounds

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
# Fixed reward bounds, so the random-action agent steps with no calibration.
BOUNDS = RewardBounds(rfrt=ChannelBounds(1.0, 11.0), rfr=ChannelBounds(0.0, 1.0),
                      cost=ChannelBounds(0.0, 0.01))

functions = st.sampled_from((0, 1))
operations = st.one_of(
    st.tuples(st.just("horizontal"), functions, st.integers(-3, 4)),
    st.tuples(st.just("vertical"), functions,
              st.floats(-0.5, 0.5), st.floats(-1024.0, 1024.0)),
    st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(("inflight", "pods")),
    initial_pods=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    arrivals=st.lists(st.tuples(st.floats(0.0, 30.0), st.sampled_from((0, 1))),
                      min_size=10, max_size=120),
    ops=st.lists(operations, max_size=40),
)
def test_invariants_hold_under_random_scaling(mode, initial_pods, arrivals, ops):
    engine = ClusterEngine(VMS, PROFILES, APPS, SimConfig(active_time_mode=mode))
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


# Each field within its documented bounds; a request may still exceed its
# pod (a fraction past 1), and a VM may hold no initial pod (0.05 vCPU, 64 MB).
vm_rows = st.lists(st.fixed_dictionaries({
    "cpu_capacity": st.floats(0.05, 8.0), "mem_capacity": st.floats(64.0, 32768.0),
    "unit_price": st.floats(0.0, 1.0)}), min_size=1, max_size=4)
# initial_pod_cpu, initial_pod_mem, req_cpu and req_mem as fractions of
# them, standard_response_time, cold_start_seconds
profile_rows = st.lists(st.tuples(
    st.floats(0.1, 1.0), st.floats(128.0, 3072.0), st.floats(0.05, 1.05),
    st.floats(0.05, 1.05), st.floats(0.05, 9.5), st.floats(0.1, 5.0)), min_size=1, max_size=4)


@st.composite
def experiment_files(draw):
    vms = [dict(row, vm_id=i) for i, row in enumerate(draw(vm_rows))]
    profiles = [{"function_id": fn, "req_cpu": cpu * cpu_frac, "req_mem": mem * mem_frac,
                 "standard_response_time": r0, "cold_start_seconds": cold,
                 "initial_pod_cpu": cpu, "initial_pod_mem": mem}
                for fn, (cpu, mem, cpu_frac, mem_frac, r0, cold)
                in enumerate(draw(profile_rows))]
    chains = draw(st.lists(st.lists(st.integers(0, len(profiles) - 1), min_size=1,
                                    max_size=3), min_size=1, max_size=3))
    apps = [{"app_id": i, "functions": chain} for i, chain in enumerate(chains)]
    sim = {"retry_interval": draw(st.floats(0.0, 3600.0, exclude_min=True)),
           "max_retries": draw(st.integers(0, 12)),
           "active_time_mode": draw(st.sampled_from(("inflight", "pods")))}
    return vms, profiles, apps, sim


@settings(max_examples=125 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 25,
          deadline=None)
@given(experiment_files(), st.randoms(use_true_random=False))
def test_experiment_files_load_and_run_or_name_the_fault(files, rng):
    vms, profiles, apps, sim = files
    with tempfile.TemporaryDirectory() as tmp:
        cluster_file, profiles_file = Path(tmp, "cluster.yaml"), Path(tmp, "profiles.yaml")
        cluster_file.write_text(yaml.safe_dump(vms))
        profiles_file.write_text(yaml.safe_dump(profiles))
        try:
            exp = load_experiment(overrides={
                "cluster_file": str(cluster_file), "profiles_file": str(profiles_file),
                "applications": apps, "sim": sim})
        except ConfigError as exc:
            # exits 2 naming the file, and the row where a record fails its check
            assert str(cluster_file) in str(exc) or str(profiles_file) in str(exc), exc
            return
    workload = exp.eval_sets(["high"])["high"][0]
    for policy in BASELINES:
        result = run_baseline(policy, exp.vms, exp.profiles, workload, exp.env, exp.sim,
                              exp.baselines)
        assert not result.engine.pending_requests()
        result.engine.check_invariants()
    env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS)
    env.reset(workload)
    done = False
    while not done:
        action = ScalingAction(*(rng.randrange(k) for k in ACTION_SIZES))
        _, _, done = env.step(action)
    assert not env.engine.pending_requests()
    env.engine.check_invariants()
