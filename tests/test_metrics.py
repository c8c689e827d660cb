import builtins
import math
from dataclasses import replace

import pytest

from faaslab.cluster import (Application, ClusterEngine, FunctionProfile, FunctionWindow,
                             VmSpec)
from faaslab.errors import ConfigError
from faaslab.metrics import (ChannelBounds, EpisodeLedger, RewardBounds,
                             derive_bounds, step_reward)

from oracles import arrival_columns, completed_chains, neumaier_sum

BOUNDS = RewardBounds(rfrt=ChannelBounds(1.0, 11.0), rfr=ChannelBounds(0.0, 1.0),
                      cost=ChannelBounds(0.0, 0.01))


def warm_engine(vm, profile, app, pods=1):
    eng = ClusterEngine([vm], [profile], [app])
    eng.apply_horizontal(0, pods)
    eng.advance(profile.cold_start_seconds)
    return eng


def inject_chain(eng, app_id, arrival, ratios):
    """Append one fully completed chain, run on pod 0, with the given per-stage ratios.

    Each stage leaves the records a finish leaves: its request columns (and,
    past the first stage, its chain link), its arrival time, and its finish
    time and response-time ratio. The chain ratio is stored as the engine
    stores it when a chain's last function finishes: summed response time
    over summed standard time, both added up stage by stage in chain order.
    """
    app = eng.apps[app_id]
    root = len(eng.requests)
    t = arrival
    actual = standard = 0.0
    for stage, fn in enumerate(app.function_sequence):
        r0 = eng.profiles[fn].standard_response_time
        finish = t + ratios[stage] * r0
        fields = dict(app_id=app_id, function_id=fn, arrival_time=t, finish_time=finish,
                      retries=0, pod_id=0)
        if stage:
            eng.chain_links[len(eng.requests)] = (stage, root, actual)
        for name, value in fields.items():
            getattr(eng, f"req_{name}").append(value)
        response = finish - t
        eng.arrival_times[fn].append(t)
        eng.completion_times[fn].append(finish)
        eng.completion_ratios[fn].append(response / r0)
        actual += response
        standard += r0
        t = finish
    eng.chain_roots[app_id].append(root)
    eng.chain_ratios[app_id].append(actual / standard)


class TestRfrt:
    def test_all_at_standard_time_is_one(self, big_vm, fast_profile, single_app):
        eng = warm_engine(big_vm, fast_profile, single_app)
        eng.load_arrivals(*arrival_columns([(3.0, 0), (4.5, 0)]))
        eng.advance(10.0)
        assert eng.window(0, 0.0, 10.0).rfrt == pytest.approx(1.0)

    def test_mean_of_ratios(self, big_vm, fast_profile, single_app):
        eng = warm_engine(big_vm, fast_profile, single_app)
        eng.completion_times[0] = [5.0, 6.0]
        eng.completion_ratios[0] = [2.0, 4.0]
        assert eng.window(0, 0.0, 10.0).rfrt == pytest.approx(3.0)

    def test_empty_window_neutral(self, big_vm, fast_profile, single_app):
        eng = warm_engine(big_vm, fast_profile, single_app)
        assert eng.window(0, 0.0, 10.0).rfrt == 1.0

    def test_cold_start_contributes_full_wait(self, big_vm, single_app):
        profile = FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                                  standard_response_time=1.0,
                                  cold_start_seconds=2.5,
                                  initial_pod_cpu=1.0, initial_pod_mem=1024.0)
        eng = ClusterEngine([big_vm], [profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(0.0)
        eng.apply_horizontal(0, 1)
        # pod ready at 2.5; queued request retries at 1, 2 fail, succeeds at 3
        eng.advance(10.0)
        req = eng.requests[0]
        assert req.finish_time - req.arrival_time == pytest.approx(4.0)
        assert eng.window(0, 0.0, 10.0).rfrt == pytest.approx(4.0)


class TestRart:
    def test_single_function_app_at_standard(self, big_vm, fast_profile, single_app):
        eng = warm_engine(big_vm, fast_profile, single_app)
        eng.load_arrivals(*arrival_columns([(3.0, 0)]))
        eng.advance(10.0)
        assert EpisodeLedger(eng).summary().rart == pytest.approx(1.0)

    def test_chain_ratio_sums(self, big_vm):
        profs = [FunctionProfile(function_id=i, req_cpu=0.25, req_mem=256.0,
                                 standard_response_time=r0, cold_start_seconds=1.0,
                                 initial_pod_cpu=1.0, initial_pod_mem=1024.0)
                 for i, r0 in ((0, 1.0), (1, 2.0))]
        app = Application(app_id=0, function_sequence=(0, 1))
        eng = ClusterEngine([big_vm], profs, [app])
        inject_chain(eng, 0, arrival=0.0, ratios=[2.0, 2.0])
        assert EpisodeLedger(eng).summary().rart == pytest.approx(2.0)
        eng.check_invariants()

    def test_unweighted_mean_over_apps(self, big_vm, fast_profile):
        # one function per app, so each function's time records ascend
        apps = [Application(app_id=0, function_sequence=(0,)),
                Application(app_id=1, function_sequence=(1,))]
        eng = ClusterEngine([big_vm], [fast_profile, replace(fast_profile, function_id=1)], apps)
        for i in range(10):
            inject_chain(eng, 0, arrival=float(i), ratios=[1.5])
        for i in range(1000):
            inject_chain(eng, 1, arrival=float(i), ratios=[3.0])
        assert EpisodeLedger(eng).summary().rart == pytest.approx(2.25)
        eng.check_invariants()

    def test_chains_summed_in_root_order(self, big_vm):
        # Two pods of four slots per stage hold 8 of the 20 chains at once.
        # The rest queue, and a later arrival that finds a slot freed before
        # an earlier one's retry falls due overtakes it, so the engine records
        # the chains out of root order. RART must be their mean in root order,
        # bit for bit; here that differs from the mean in completion order.
        profs = [FunctionProfile(function_id=i, req_cpu=0.25, req_mem=256.0,
                                 standard_response_time=r0, cold_start_seconds=1.0,
                                 initial_pod_cpu=1.0, initial_pod_mem=1024.0)
                 for i, r0 in ((0, 1.0), (1, 2.0))]
        app = Application(app_id=0, function_sequence=(0, 1))
        eng = ClusterEngine([big_vm], profs, [app])
        eng.apply_horizontal(0, 2)
        eng.apply_horizontal(1, 2)
        eng.load_arrivals(*arrival_columns([(1.0 + 0.1 * k, 0) for k in range(20)]))
        eng.advance(100.0)
        roots, ratios = eng.chain_roots[0], eng.chain_ratios[0]
        assert len(roots) == 20 and roots != sorted(roots)
        by_root = completed_chains(eng)[0]
        in_root_order = sum(by_root[root] for root in sorted(by_root)) / 20
        assert EpisodeLedger(eng).summary().rart == in_root_order
        assert sum(ratios) / 20 != in_root_order
        eng.check_invariants()

    def test_dropped_chains_excluded(self, big_vm, fast_profile, single_app):
        eng = ClusterEngine([big_vm], [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(0.0, 0)]))
        eng.advance(20.0)  # dropped at t=10, nothing completed
        assert math.isnan(EpisodeLedger(eng).summary().rart)


class TestRfr:
    def test_no_drops(self, big_vm, fast_profile, single_app):
        eng = warm_engine(big_vm, fast_profile, single_app)
        eng.load_arrivals(*arrival_columns([(3.0 + 0.5 * i, 0) for i in range(50)]))
        eng.advance(60.0)
        assert eng.dropped_total == 0
        assert EpisodeLedger(eng).summary().rfr == 0.0

    def test_fraction(self, big_vm, fast_profile, single_app):
        eng = ClusterEngine([big_vm], [fast_profile], [single_app])
        # 8 requests served by a warm pod, 2 arrive before any pod exists
        eng.load_arrivals(*arrival_columns([(0.0, 0), (0.5, 0)]))
        eng.advance(11.0)  # both dropped by t=10.5
        eng.apply_horizontal(0, 1)
        eng.advance(14.0)
        eng.load_arrivals(*arrival_columns([(15.0 + i, 0) for i in range(8)]))
        eng.advance(30.0)
        assert eng.dropped_total == 2 and len(eng.requests) == 10
        assert EpisodeLedger(eng).summary().rfr == pytest.approx(0.2)

    def test_window_recombination(self, desk_vms, fast_profile, single_app):
        eng = ClusterEngine(desk_vms, [fast_profile], [single_app])
        eng.load_arrivals(*arrival_columns([(i * 0.13, 0) for i in range(100)]))
        eng.advance(0.0)
        eng.apply_horizontal(0, 1)
        eng.advance(40.0)
        while eng.pending_requests():
            eng.advance(eng.next_event_time())
        end = eng.clock
        split = 7.0
        arrived = [eng.window(0, -1.0, split).arrivals, eng.window(0, split, end).arrivals]
        dropped = [eng.window(0, -1.0, split).drops, eng.window(0, split, end).drops]
        ledger = EpisodeLedger(eng)
        rfr_parts = [d / a if a else 0.0 for d, a in zip(dropped, arrived)]
        recombined = sum(r * a for r, a in zip(rfr_parts, arrived)) / sum(arrived)
        assert recombined == pytest.approx(ledger.summary().rfr, abs=1e-12)


class TestLeftToRightSums:
    """Python 3.12's sum() adds floats with compensation and would make a sum
    of ten 0.1 terms 1.0; the ledger adds left to right on every version,
    which gives 0.9999999999999999."""

    class TenFunctions:
        """An engine stand-in: ten one-function apps, each with one completed
        request at ratio 0.1 and an RFR of 0.1 in every window, and no VM."""
        deployed_fns = range(10)
        vms: dict = {}
        clock = 1.0
        chain_roots = {app: [app] for app in range(10)}
        chain_ratios = {app: [0.1] for app in range(10)}
        completion_ratios = {fn: [0.1] for fn in range(10)}
        completed_total, dropped_total, req_function_id = 10, 0, range(10)

        def window(self, fn, t0, t1):
            return FunctionWindow(10, 1, 0.1, 0.1)

    def test_window_channels_and_summary(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        ledger = EpisodeLedger(self.TenFunctions())
        mean = 0.9999999999999999 / 10
        assert ledger.window_channels(0.0, 1.0) == (mean, mean, 0.0)
        summary = ledger.summary()
        assert summary.rart == summary.rfrt == mean


class TestVmCost:
    def test_half_hour_at_listed_price(self, single_app, fast_profile):
        vm = VmSpec(vm_id=0, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848)
        eng = ClusterEngine([vm], [fast_profile], [single_app])
        eng.apply_horizontal(0, 1)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(2.0 + i, 0) for i in range(1800)]))
        eng.advance(2000.0)
        assert eng.vms[0].busy_overlap(0.0, eng.clock) == pytest.approx(1800.0)
        assert EpisodeLedger(eng).summary().cost == pytest.approx(0.0424)

    def test_idle_accrues_nothing(self, desk_vms, fast_profile, single_app):
        eng = ClusterEngine(desk_vms, [fast_profile], [single_app])
        eng.apply_horizontal(0, 3)
        eng.advance(100.0)
        assert EpisodeLedger(eng).summary().cost == 0.0

    def test_additive_across_vms_and_windows(self, fast_profile):
        vms = [VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=1024.0, unit_price=0.1),
               VmSpec(vm_id=1, cpu_capacity=1.0, mem_capacity=1024.0, unit_price=0.2)]
        apps = [Application(app_id=0, function_sequence=(0,))]
        eng = ClusterEngine(vms, [fast_profile], apps)
        eng.apply_horizontal(0, 2)  # one pod per vm (each fits exactly one)
        eng.advance(2.0)
        eng.load_arrivals(*arrival_columns([(3.0, 0), (3.5, 0), (20.0, 0)]))
        eng.advance(30.0)
        ledger = EpisodeLedger(eng)
        total = ledger.summary().cost
        w1 = ledger.window_cost(0.0, 10.0)
        w2 = ledger.window_cost(10.0, 30.0)
        assert w1 + w2 == pytest.approx(total, abs=1e-12)
        assert total > 0


class TestStepReward:
    def test_beta_one_uses_performance_only(self):
        channels = (5.0, 0.9, 0.009)  # rfrt_n=0.4, rfr_n=0.9 -> r1=0.65; cost_n=0.9
        assert step_reward(channels, BOUNDS, 1.0) == pytest.approx(-0.65)

    def test_beta_zero_uses_cost_only(self):
        channels = (5.0, 0.9, 0.009)
        assert step_reward(channels, BOUNDS, 0.0) == pytest.approx(-0.9)

    def test_below_minimum_clamps_to_zero(self):
        assert step_reward((0.5, 0.0, 0.0), BOUNDS, 1.0) == 0.0

    def test_above_maximum_clamps_to_minus_one(self):
        assert step_reward((100.0, 2.0, 1.0), BOUNDS, 1.0) == -1.0

    def test_uncalibrated_errors(self):
        with pytest.raises(ConfigError, match="calibrate"):
            step_reward((1.0, 0.0, 0.0), None, 1.0)

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigError):
            step_reward((1.0, 0.0, 0.0), BOUNDS, 1.5)


class TestCalibration:
    def test_bounds_roundtrip(self, tmp_path):
        path = tmp_path / "calibration.yaml"
        BOUNDS.save(path)
        loaded = RewardBounds.load(path)
        assert loaded == BOUNDS

    def test_missing_file_mentions_calibrate(self, tmp_path):
        with pytest.raises(ConfigError, match="calibrate"):
            RewardBounds.load(tmp_path / "nope.yaml")

    def test_derive_bounds(self):
        samples = [(1.0, 0.0, 0.001), (3.0, 0.2, 0.004), (2.0, 0.1, 0.002)]
        b = derive_bounds(samples)
        assert (b.rfrt.lo, b.rfrt.hi) == (1.0, 3.0)
        assert (b.rfr.lo, b.rfr.hi) == (0.0, 0.2)
        assert (b.cost.lo, b.cost.hi) == (0.001, 0.004)

    def test_zero_traffic_rejected(self):
        samples = [(1.0, 0.0, 0.0)] * 10
        with pytest.raises(ConfigError, match="degenerate"):
            derive_bounds(samples)

    def test_single_flat_channel_falls_back(self):
        samples = [(1.0, 0.0, 0.001), (4.0, 0.0, 0.003)]  # rfr never moved
        b = derive_bounds(samples)
        assert (b.rfr.lo, b.rfr.hi) == (0.0, 1.0)
        assert b.rfrt.hi == 4.0

    def test_invalid_channel_bounds(self):
        with pytest.raises(ConfigError):
            ChannelBounds(1.0, 1.0)
