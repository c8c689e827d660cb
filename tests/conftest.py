import os

import pytest
from hypothesis import settings

from faaslab.cluster import Application, ClusterEngine, FunctionProfile, VmSpec

# HYPOTHESIS_PROFILE=ci runs property tests that do not fix their own example
# count (the differential engine test) with five times the default.
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def big_vm():
    return VmSpec(vm_id=0, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3392)


@pytest.fixture
def desk_vms():
    return [
        VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048),
        VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848),
        VmSpec(vm_id=2, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848),
        VmSpec(vm_id=3, cpu_capacity=4.0, mem_capacity=16384.0, unit_price=0.1696),
        VmSpec(vm_id=4, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3392),
    ]


@pytest.fixture
def fast_profile():
    return FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                           standard_response_time=1.0, cold_start_seconds=2.0,
                           initial_pod_cpu=1.0, initial_pod_mem=1024.0)


@pytest.fixture
def single_app():
    return Application(app_id=0, function_sequence=(0,))


@pytest.fixture
def replica_log(monkeypatch):
    """(clock, function, live pods) after every ``ClusterEngine.apply_horizontal``."""
    log = []
    apply_horizontal = ClusterEngine.apply_horizontal

    def recording(engine, fn, delta):
        apply_horizontal(engine, fn, delta)
        log.append((engine.clock, fn, engine.snapshot(fn, 0.0).replicas))

    monkeypatch.setattr(ClusterEngine, "apply_horizontal", recording)
    return log
