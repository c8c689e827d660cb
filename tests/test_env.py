import hashlib
import random
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from faaslab import env as env_module
from faaslab.cluster import Application, FunctionProfile, RequestStatus, VmSpec
from faaslab.config import load_experiment
from faaslab.env import (ACTION_SIZES, FEATURES_PER_VM, MAX_TICKS, DecodedAction,
                         EnvConfig, ScalingAction, ServerlessEnv, decode, grid_value)
from faaslab.errors import ConfigError, SimulationError
from faaslab.metrics import ChannelBounds, RewardBounds
from faaslab.workload import (EVAL_BANDS, MAX_TRAINING_ENTRY_FNS, TraceSeries,
                              WorkloadSpec, make_workload)

BOUNDS = RewardBounds(rfrt=ChannelBounds(1.0, 11.0), rfr=ChannelBounds(0.0, 1.0),
                      cost=ChannelBounds(0.0, 0.01))


def constant_workload(apps, rate, duration):
    traces = {app.function_sequence[0]: TraceSeries(f"c{rate}", (rate,) * int(duration))
              for app in apps}
    return WorkloadSpec(duration=duration, applications=tuple(apps),
                        entry_traces=traces)


@pytest.fixture
def env_pair(desk_vms):
    profile = FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                              standard_response_time=1.0, cold_start_seconds=2.0,
                              initial_pod_cpu=0.5, initial_pod_mem=1024.0)
    app = Application(app_id=0, function_sequence=(0,))
    cfg = EnvConfig(decision_interval=10.0, beta=1.0)
    env = ServerlessEnv(desk_vms, {0: profile}, cfg, bounds=BOUNDS, seed=1)
    return env, constant_workload([app], rate=2, duration=30)


class TestDecode:
    def test_grid_midpoint_is_noop(self):
        d = decode(ScalingAction(5, 5, 5))
        assert d == DecodedAction(target_util=0.5, cpu_delta=0.0, mem_delta=0.0)

    def test_target_util_endpoints(self):
        assert decode(ScalingAction(0, 5, 5)).target_util == pytest.approx(0.10)
        assert decode(ScalingAction(10, 5, 5)).target_util == pytest.approx(0.90)

    def test_resize_grid_arithmetic(self):
        assert decode(ScalingAction(5, 8, 5)).cpu_delta == pytest.approx(0.15)
        assert decode(ScalingAction(5, 5, 0)).mem_delta == pytest.approx(-256.0)

    def test_decode_is_injective(self):
        seen = set()
        for a1 in range(11):
            for a2 in range(11):
                for a3 in range(11):
                    d = decode(ScalingAction(a1, a2, a3))
                    seen.add((round(d.target_util, 9), round(d.cpu_delta, 9),
                              round(d.mem_delta, 9)))
        assert len(seen) == 11 ** 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ScalingAction(11, 0, 0)
        with pytest.raises(ConfigError):
            grid_value(11, 11)


class TestEnvConfig:
    def test_duration_must_divide(self, desk_vms, fast_profile, single_app):
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig(decision_interval=10.0))
        with pytest.raises(ConfigError, match="decision_interval"):
            env.start_episode(constant_workload([single_app], rate=0, duration=35))

    def test_interval_too_small_to_count_ticks(self, desk_vms, fast_profile, single_app):
        # 20 / 5e-324 overflows to inf: a config error, not an OverflowError.
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig(decision_interval=5e-324))
        with pytest.raises(ConfigError, match="env.decision_interval"):
            env.start_episode(constant_workload([single_app], rate=0, duration=20))

    def test_tick_count_is_capped(self, desk_vms, fast_profile, single_app):
        # 60 / 1e-12 is finite, but an episode of 6e13 ticks would never end.
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig(decision_interval=1.0e-12))
        with pytest.raises(ConfigError, match=r"env\.decision_interval.*6e\+13 ticks"):
            env.start_episode(constant_workload([single_app], rate=0, duration=60))
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig(decision_interval=0.001))
        env.start_episode(constant_workload([single_app], rate=0, duration=100))
        assert env.total_steps == MAX_TICKS

    def test_steps_per_episode(self, desk_vms, fast_profile, single_app):
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig())
        env.start_episode(constant_workload([single_app], rate=0, duration=300))
        assert env.total_steps == 30


class TestReset:
    def test_fresh_state_all_idle(self, env_pair):
        env, wl = env_pair
        state = env.reset(wl)
        assert state.shape == (env.state_dim,)
        assert env.state_dim == 7 * 5 + 9
        # vm utilization/allocation features all zero on an empty cluster
        for v in range(5):
            assert np.all(state[7 * v:7 * v + 4] == 0.0)

    def test_same_seed_same_state(self, env_pair):
        env, wl = env_pair
        a, b = (ServerlessEnv(env.vms, env.profiles, env.config, bounds=BOUNDS, seed=5).reset(wl)
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_reset_frees_the_previous_engine_before_building(self, env_pair, monkeypatch):
        env, workload = env_pair
        env.reset(workload)
        previous = weakref.ref(env.engine)
        real = env_module.ClusterEngine
        freed = []

        def engine(*args, **kwargs):
            freed.append(previous() is None)
            return real(*args, **kwargs)

        monkeypatch.setattr(env_module, "ClusterEngine", engine)
        env.reset(workload)
        assert freed == [True]

    def test_eval_mode_tie_picks_lowest_function(self, desk_vms):
        profiles = {i: FunctionProfile(function_id=i, req_cpu=0.1, req_mem=128.0,
                                       standard_response_time=1.0,
                                       cold_start_seconds=2.0,
                                       initial_pod_cpu=0.5, initial_pod_mem=512.0)
                    for i in (2, 7)}
        apps = [Application(app_id=0, function_sequence=(2,)),
                Application(app_id=1, function_sequence=(7,))]
        cfg = EnvConfig(target_mode="highest_rfrt")
        env = ServerlessEnv(desk_vms, profiles, cfg, bounds=BOUNDS)
        env.reset(constant_workload(apps, rate=1, duration=30))
        assert env.target_fn == 2

    def test_capacity_features_relative_to_largest_vm(self, desk_vms, fast_profile,
                                                      single_app):
        env = ServerlessEnv(desk_vms[:4], {0: fast_profile}, bounds=BOUNDS)
        state = env.reset(constant_workload([single_app], rate=2, duration=30))
        # the largest of these VMs has 4 vCPU and 16384 MB
        assert [state[7 * v + 4] for v in range(4)] == [0.25, 0.5, 0.5, 1.0]
        assert [state[7 * v + 5] for v in range(4)] == [0.25, 0.5, 0.5, 1.0]

    def test_workload_function_without_profile_rejected(self, desk_vms, fast_profile):
        app = Application(app_id=0, function_sequence=(0, 3))
        env = ServerlessEnv(desk_vms, {0: fast_profile}, EnvConfig(),
                            bounds=BOUNDS)
        with pytest.raises(ConfigError):
            env.reset(constant_workload([app], rate=1, duration=30))


class TestStep:
    def test_bootstrap_on_queued_traffic(self, env_pair):
        env, wl = env_pair
        env.reset(wl)
        # mid action: T=0.5; zero pods with queued traffic -> desired ceil(1/0.5)=2
        _, reward, done = env.step(ScalingAction(5, 5, 5))
        assert env.engine.snapshot(0, 0.0).replicas == 2
        assert -1.0 <= reward <= 0.0
        assert not done

    def test_vertical_applies_before_horizontal(self, big_vm, env_pair):
        env_src, wl = env_pair
        # a roomy single-VM cluster so the resize is not capacity-clamped
        env = ServerlessEnv([big_vm], env_src.profiles, env_src.config,
                            bounds=BOUNDS, seed=1)
        env.reset(wl)
        env.step(ScalingAction(10, 5, 5))  # T=0.9 bootstraps 2 pods
        assert env.engine.snapshot(0, 0.0).replicas == 2
        # grow cpu limit 0.5 -> 0.75: per-pod utilization drops to 1/3, so
        # desired = ceil(2 * (1/3) / 0.9) = 1 and one pod is removed. Without
        # the resize the same action would keep both (ceil(2*0.5/0.9) = 2).
        env.step(ScalingAction(10, 10, 5))
        assert env.engine.pod_size[0][0] == pytest.approx(0.75)
        assert env.engine.snapshot(0, 0.0).replicas == 1

    def test_identical_envs_identical_streams(self, desk_vms, env_pair):
        env_a, wl = env_pair
        profile = env_a.profiles[0]
        cfg = env_a.config
        env_b = ServerlessEnv(desk_vms, {0: profile}, cfg, bounds=BOUNDS, seed=1)
        actions = [ScalingAction(7, 4, 6), ScalingAction(2, 5, 5), ScalingAction(9, 6, 3)]
        sa = env_a.reset(wl)
        sb = env_b.reset(wl)
        assert np.array_equal(sa, sb)
        for action in actions:
            ra = env_a.step(action)
            rb = env_b.step(action)
            assert np.array_equal(ra[0], rb[0])
            assert ra[1] == rb[1] and ra[2] == rb[2]

    def test_evaluation_targets_the_function_that_fails(self):
        # Both functions start with no pods. Function 0 is picked first (a tie)
        # and then completes requests at a ratio >= 1; function 1 completes
        # nothing, so its window ratio is the neutral 1.0, but its drops and
        # queued requests must still make it the target.
        profiles = {i: FunctionProfile(function_id=i, req_cpu=0.1, req_mem=128.0,
                                       standard_response_time=0.5,
                                       cold_start_seconds=2.0,
                                       initial_pod_cpu=0.4, initial_pod_mem=512.0)
                    for i in (0, 1)}
        apps = [Application(app_id=i, function_sequence=(i,)) for i in (0, 1)]
        env = ServerlessEnv([VmSpec(0, 8.0, 32768.0, 0.3)], profiles,
                            EnvConfig(target_mode="highest_rfrt"), bounds=BOUNDS, seed=0)
        env.reset(constant_workload(apps, rate=4, duration=60))
        targets = [env.target_fn]
        done = False
        while not done:
            _, _, done = env.step(ScalingAction(0, 5, 5))
            targets.append(env.target_fn)
        assert 1 in targets
        assert env.engine.completion_times[1]

    def test_episode_ends_after_duration_and_drain(self, env_pair):
        env, wl = env_pair
        env.reset(wl)
        done = False
        steps = 0
        while not done:
            _, _, done = env.step(ScalingAction(5, 5, 5))
            steps += 1
        assert steps == 3  # 30 s / 10 s
        assert not env.engine.pending_requests()
        with pytest.raises(SimulationError):
            env.step(ScalingAction(5, 5, 5))

    def test_state_always_in_unit_interval(self, env_pair):
        env, wl = env_pair
        state = env.reset(wl)
        rng = np.random.default_rng(0)
        done = False
        while not done:
            action = ScalingAction(*(int(rng.integers(k)) for k in ACTION_SIZES))
            state, reward, done = env.step(action)
            assert state.shape == (env.state_dim,)
            assert np.all(state >= 0.0) and np.all(state <= 1.0)
            assert -1.0 <= reward <= 0.0

    def test_reward_requires_calibration(self, desk_vms, fast_profile, single_app):
        env = ServerlessEnv(desk_vms, {0: fast_profile},
                            EnvConfig(), bounds=None)
        env.reset(constant_workload([single_app], rate=1, duration=30))
        with pytest.raises(Exception, match="calibrate"):
            env.step(ScalingAction(5, 5, 5))


class TestVmUsageFeatures:
    def test_idle_vm_reads_exactly_zero_usage(self):
        # A VM's CPU and memory in use are sums over its pods, so a VM with no
        # request in flight reads exactly 0.0, not a residue of adding and
        # subtracting per-request amounts.
        exp = load_experiment(overrides={"preset": "desk"})
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS, seed=0)
        state, done = env.reset(exp.eval_sets(["high"])["high"][0]), False
        ticks = idle = 0
        while True:
            for k, vm in enumerate(env.engine.vms.values()):
                if not vm.inflight:
                    idle += 1
                    cpu, mem = state[FEATURES_PER_VM * k:FEATURES_PER_VM * k + 2]
                    assert (cpu, mem) == (0.0, 0.0), f"tick {ticks}, vm {k}"
            if done:
                break
            state, _, done = env.step(ScalingAction(5, 5, 5))
            ticks += 1
        assert ticks == env.total_steps and idle


class TestStateDigest:
    # sha256 over every state vector and reward of seeded random-action
    # episodes; a one-ulp change in any state feature or reward changes it.
    # Training draws random targets and evaluation ranks them, so each target
    # mode pins its own digest.
    DIGESTS = {"random": "dc65e03a11963e85f603787f30b8473a1a8ff31e36dc6c2dcdb88510829978f3",
               "highest_rfrt": "a309bbbec1e2759c458d9c63e16dbfdfdf2e02175e1fe1aab016be25c217bc27"}

    @staticmethod
    def digest(mode):
        digest = hashlib.sha256()
        for preset in ("desk", "paper"):
            exp = load_experiment(overrides={"preset": preset})
            for workload in (exp.train_pool()[0], exp.eval_sets(["high"])["high"][0]):
                env = ServerlessEnv(exp.vms, exp.profiles,
                                    replace(exp.env, target_mode=mode), exp.sim,
                                    BOUNDS, seed=3)
                rng = random.Random(7)
                digest.update(env.reset(workload).tobytes())
                done = False
                while not done:
                    action = ScalingAction(*(rng.randrange(k) for k in ACTION_SIZES))
                    state, reward, done = env.step(action)
                    digest.update(state.tobytes())
                    digest.update(struct.pack("<d", reward))
        return digest.hexdigest()

    def test_states_and_rewards_unchanged(self):
        assert self.digest("random") == self.DIGESTS["random"]

    def test_highest_rfrt_states_and_rewards_unchanged(self):
        assert self.digest("highest_rfrt") == self.DIGESTS["highest_rfrt"]


class TestPaperTrainingPool:
    def test_pool_builds_and_an_episode_steps(self):
        # the paper preset has 8 single-function apps, more entry functions
        # than one training workload may drive
        exp = load_experiment(overrides={"preset": "paper"})
        assert len({app.function_sequence[0] for app in exp.apps}) > MAX_TRAINING_ENTRY_FNS
        pool = exp.train_pool()
        assert pool == exp.train_pool()
        assert all(len(w.entry_functions) <= MAX_TRAINING_ENTRY_FNS for w in pool)
        assert len({w.applications for w in pool}) > 1  # the draw follows the seed
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS, seed=1)
        state = env.reset(pool[0])
        assert env.engine.deployed_fns == tuple(sorted(
            fn for app in pool[0].applications for fn in app.function_sequence))
        assert state.shape == (env.state_dim,)
        state, reward, done = env.step(ScalingAction(5, 5, 5))
        assert state.shape == (env.state_dim,)
        assert reward is not None and not done


class TestJitteredArrivals:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariants_hold_through_an_episode(self, seed):
        # jitter places each window's arrivals at random, so times rarely tie
        exp = load_experiment()
        band = sorted(EVAL_BANDS)[seed % len(EVAL_BANDS)]
        workload = make_workload(exp.apps, exp.corpus, EVAL_BANDS[band],
                                 exp.workload.duration, seed, jitter=True)
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS, seed=seed)
        env.reset(workload)
        engine = env.engine
        rng = random.Random(seed)
        done = False
        while not done:
            action = ScalingAction(*(rng.randrange(k) for k in ACTION_SIZES))
            _, _, done = env.step(action)
            engine.check_invariants()
            in_flight = sum(1 for r in engine.requests.values()
                            if r.status in (RequestStatus.QUEUED, RequestStatus.RUNNING))
            arrived = sum(len(times) for times in engine.arrival_times.values())
            assert arrived == len(engine.requests)
            assert arrived == engine.completed_total + engine.dropped_total + in_flight
        assert engine.completed_total > 0 and not in_flight


class TestBandedSeeds:
    def test_eval_and_calibration_seed_formula(self):
        # seed = offset + 100 * (index of the band in sorted order) + i
        exp = load_experiment(overrides={"workload": {"workloads_per_band": 3,
                                                      "calibration_per_band": 2}})
        calib = {band: [w.seed for w in ws] for band, ws in exp.calibration_sets().items()}
        assert calib == {"high": [50000, 50001], "low": [50100, 50101],
                         "mid": [50200, 50201]}
        evals = exp.eval_sets()
        assert [w.seed for w in evals["high"]] == [10000, 10001, 10002]
        assert [w.seed for w in evals["mid"]] == [10200, 10201, 10202]
        assert [w.seed for w in exp.eval_sets(["mid"])["mid"]] == [10000, 10001, 10002]
        assert all(w.band == EVAL_BANDS[band] for band, ws in evals.items() for w in ws)
        with pytest.raises(ConfigError, match="unknown band"):
            exp.eval_sets(["mid", "extreme"])
