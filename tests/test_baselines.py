import builtins
import hashlib

import pytest

from faaslab import cluster
from faaslab.baselines import (BASELINES, BaselinePolicyConfig, KnativeConfig,
                               KubeCpuConfig, OpenFaasConfig, decide, knative_decide,
                               kube_cpu_decide, openfaas_decide, run_baseline)
from faaslab.cluster import (MAX_REPLICAS, Application, ClusterEngine, FunctionProfile,
                             FunctionSnapshot)
from faaslab.config import load_experiment
from faaslab.env import EnvConfig, ScalingAction, ServerlessEnv
from faaslab.errors import ConfigError
from faaslab.metrics import ChannelBounds, RewardBounds
from faaslab.workload import TraceSeries, WorkloadSpec, synthesize

from oracles import logged_baseline, neumaier_sum

KNATIVE = KnativeConfig()
KUBE = KubeCpuConfig()
OPENFAAS = OpenFaasConfig()
# Fixed bounds for agent episodes that step with a reward and need no calibration.
BOUNDS = RewardBounds(rfrt=ChannelBounds(1.0, 11.0), rfr=ChannelBounds(0.0, 1.0),
                      cost=ChannelBounds(0.0, 0.01))


def snap(**kw):
    defaults = dict(function_id=0, pod_cpu=1.0, pod_mem=1024.0, req_cpu=0.25,
                    req_mem=256.0, arrival_rate=0.0, rfrt=1.0, rfr=0.0,
                    avg_pod_cpu_util=0.0, avg_pod_mem_util=0.0, replicas=0,
                    running_requests=0, queued_requests=0,
                    standard_response_time=1.0)
    defaults.update(kw)
    defaults.setdefault("ready_replicas", defaults["replicas"])
    return FunctionSnapshot(**defaults)


class TestKnative:
    def test_concurrency_formula(self):
        # 12 outstanding over 4 * 0.75 = 3 effective concurrency -> 4 replicas
        assert knative_decide(snap(running_requests=9, queued_requests=3), KNATIVE) == 4

    def test_idle_scales_to_zero(self):
        assert knative_decide(snap(), KNATIVE) == 0

    def test_single_request_gets_one_replica(self):
        assert knative_decide(snap(running_requests=1), KNATIVE) == 1

    def test_clamped_to_max(self):
        assert knative_decide(snap(running_requests=1000), KNATIVE) == MAX_REPLICAS


class TestKubeCpu:
    def test_fixed_point(self):
        assert kube_cpu_decide(snap(replicas=4, avg_pod_cpu_util=0.5), KUBE) == 4

    def test_scale_up_ceiling(self):
        assert kube_cpu_decide(snap(replicas=4, avg_pod_cpu_util=0.8), KUBE) == 7

    def test_bootstrap_from_queued_traffic(self):
        # zero replicas but queued work: utilization proxy 1.0 -> ceil(1/0.5)=2
        assert kube_cpu_decide(snap(queued_requests=3), KUBE) == 2

    def test_idle_zero_replicas_stays_zero(self):
        assert kube_cpu_decide(snap(), KUBE) == 0

    def test_episode_serves_below_the_cold_start(self):
        # Desk cold starts take 2-5 s. At 1 s ticks a pod is still Creating at
        # the next tick; counted at 0% load it would be removed before it
        # could serve, and the episode would drop every request.
        exp = load_experiment(overrides={"preset": "desk", "env": {"decision_interval": 1.0}})
        workload = exp.eval_sets(["high"])["high"][0]
        res = run_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env, exp.sim,
                           exp.baselines)
        assert res.summary.completed > 0
        assert res.summary.rfr < 0.5


class TestOpenFaas:
    def test_capacity_mode_for_slow_functions(self):
        s = snap(standard_response_time=3.0, running_requests=10)
        assert openfaas_decide(s, OPENFAAS) == 3  # ceil(10/4)

    def test_rps_mode_for_fast_busy_functions(self):
        s = snap(standard_response_time=0.5, arrival_rate=32.0)
        assert openfaas_decide(s, OPENFAAS) == 4  # ceil(32/8)

    def test_cpu_mode_fallback(self):
        s = snap(standard_response_time=0.5, arrival_rate=10.0, replicas=2,
                 avg_pod_cpu_util=0.6)
        assert openfaas_decide(s, OPENFAAS) == 3  # ceil(2*0.6/0.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            decide("nimbus", snap(), BaselinePolicyConfig())


def test_overflowed_ratio_gives_the_cap():
    # Each threshold passes its > 0 check, yet the load ratio overflows to inf.
    busy = dict(running_requests=10, queued_requests=2, replicas=4, avg_pod_cpu_util=0.5)
    tiny = 5e-324
    for cfg in (KnativeConfig(target_concurrency=tiny), KnativeConfig(target_utilization=tiny)):
        assert knative_decide(snap(**busy), cfg) == MAX_REPLICAS
    assert kube_cpu_decide(snap(**busy), KubeCpuConfig(cpu_threshold=tiny)) == MAX_REPLICAS
    for mode in (dict(standard_response_time=3.0), dict(arrival_rate=32.0), {}):
        cfg = OpenFaasConfig(capacity_threshold=tiny, rps_threshold=tiny, cpu_threshold=tiny)
        assert openfaas_decide(snap(**busy, **mode), cfg) == MAX_REPLICAS, mode


def one_fn_workload(rate, duration=30):
    app = Application(app_id=0, function_sequence=(0,))
    return WorkloadSpec(duration=duration, applications=(app,),
                        entry_traces={0: TraceSeries("c", (rate,) * duration)})


@pytest.fixture
def profile():
    return FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                           standard_response_time=1.0, cold_start_seconds=2.0,
                           initial_pod_cpu=1.0, initial_pod_mem=1024.0)


class TestRunBaseline:
    def test_zero_traffic_costs_nothing(self, desk_vms, profile):
        res = run_baseline("knative", desk_vms, {0: profile},
                           one_fn_workload(rate=0),
                           EnvConfig())
        assert res.summary.cost == 0.0
        assert res.summary.total == 0

    def test_rerun_bit_identical(self, desk_vms, profile, replica_log):
        def run(policy):
            replica_log.clear()
            res = logged_baseline(policy, desk_vms, {0: profile},
                                  one_fn_workload(rate=4),
                                  EnvConfig(),
                                  collect_channels=True)
            assert res.engine.event_log
            return (res.engine.event_log, res.channels, list(replica_log),
                    res.summary)

        for policy in ("knative", "kube_cpu", "openfaas"):
            assert run(policy) == run(policy)

    @pytest.mark.parametrize("policy", BASELINES)
    def test_event_log_is_a_pure_sink(self, desk_vms, policy, replica_log):
        """The event log changes no result: ``run_baseline``, which keeps none,
        matches an episode that keeps it."""
        profiles = {fn: FunctionProfile(function_id=fn, req_cpu=0.25, req_mem=256.0,
                                        standard_response_time=r0,
                                        cold_start_seconds=2.0,
                                        initial_pod_cpu=0.5, initial_pod_mem=512.0)
                    for fn, r0 in ((0, 1.0), (1, 0.5))}
        apps = (Application(app_id=0, function_sequence=(0, 1)),
                Application(app_id=1, function_sequence=(1,)))
        wl = WorkloadSpec(duration=30, applications=apps,
                          entry_traces={0: TraceSeries("a", (12,) * 30),
                                        1: TraceSeries("b", (6,) * 30)})

        def run(episode):
            replica_log.clear()
            res = episode(policy, desk_vms, profiles, wl, EnvConfig(), collect_channels=True)
            return res, list(replica_log)

        (logged, logged_replicas), (silent, silent_replicas) = (run(logged_baseline),
                                                                run(run_baseline))
        assert logged.engine.event_log and silent.engine.event_log == []
        assert logged.summary == silent.summary
        assert logged.channels == silent.channels
        assert logged_replicas == silent_replicas
        assert logged.engine.requests == silent.engine.requests
        assert logged.summary.dropped > 0 and logged.summary.completed > 0

    def test_never_resizes_pods(self, desk_vms, profile):
        res = run_baseline("kube_cpu", desk_vms, {0: profile},
                           one_fn_workload(rate=6),
                           EnvConfig())
        assert res.engine.pod_size[0] == (profile.initial_pod_cpu,
                                          profile.initial_pod_mem)
        for pod in res.engine.pods.values():
            assert pod.cpu_limit == profile.initial_pod_cpu

    def test_scales_every_deployed_function(self, desk_vms, replica_log):
        profiles = {i: FunctionProfile(function_id=i, req_cpu=0.1, req_mem=128.0,
                                       standard_response_time=0.5,
                                       cold_start_seconds=2.0,
                                       initial_pod_cpu=0.4, initial_pod_mem=512.0)
                    for i in (0, 1)}
        apps = (Application(app_id=0, function_sequence=(0,)),
                Application(app_id=1, function_sequence=(1,)))
        wl = WorkloadSpec(duration=30, applications=apps,
                          entry_traces={0: TraceSeries("a", (3,) * 30),
                                        1: TraceSeries("b", (3,) * 30)})
        run_baseline("kube_cpu", desk_vms, profiles, wl, EnvConfig())
        ticks = {(t, fn) for t, fn, _ in replica_log}
        assert ticks == {(t, fn) for t in (0.0, 10.0, 20.0) for fn in (0, 1)}

    def test_replica_counts_within_bounds(self, desk_vms, profile, replica_log):
        run_baseline("openfaas", desk_vms, {0: profile},
                     one_fn_workload(rate=8), EnvConfig())
        assert replica_log
        for _, _, count in replica_log:
            assert 0 <= count <= 80

    def test_baseline_and_agent_share_one_window_schedule(self, monkeypatch):
        # At 0.1 s, step * interval and a clock advanced window by window part by
        # an ulp from the 7th window on, so a driver with its own schedule shows.
        exp = load_experiment(overrides={
            "workload": {"duration": 2},
            "env": {"decision_interval": 0.1}})
        workload = exp.eval_sets(["mid"])["mid"][0]
        untils = []
        advance = ClusterEngine.advance

        def recording(engine, until):
            untils.append(until)
            advance(engine, until)

        monkeypatch.setattr(ClusterEngine, "advance", recording)
        run_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env, exp.sim)
        baseline = untils[:]
        untils.clear()
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS)
        env.reset(workload)
        while not env.done:
            env.step(ScalingAction(5, 5, 5))
        # advance(0.0), then one call per window: 2 s / 0.1 s is 20 windows
        assert untils[0] == 0.0 and len(untils) >= 21
        assert baseline[:21] == untils[:21]


class TestAgentActionIsKubeCpu:
    @pytest.mark.parametrize("interval", [10, 1.0])
    def test_constant_action_reproduces_kube_cpu_event_log(self, interval):
        # Action (5, 5, 5) is a CPU-utilization target of 0.5 and no resize:
        # the kube_cpu rule at its default threshold, read through the same
        # snapshot. With one function, the agent's one target per tick is
        # every function, so the two episodes must log the same events. At
        # 1 s ticks, shorter than the cold start, both set Creating pods aside.
        exp = load_experiment(overrides={"preset": "desk", "applications": ["primary"],
                                         "env": {"decision_interval": interval}})
        assert len(exp.profiles) == 1
        workload = exp.eval_sets(["high"])["high"][0]
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, BOUNDS, log_events=True)
        env.reset(workload)
        while not env.done:
            env.step(ScalingAction(5, 5, 5))
        res = logged_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env, exp.sim,
                              exp.baselines)
        kinds = {entry[1] for entry in res.engine.event_log}
        assert {"pod_create", "finish", "queue"} <= kinds
        assert env.engine.event_log == res.engine.event_log
        assert res.summary.rfr < 0.5

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_constant_action_on_every_function_reproduces_kube_cpu(self, preset):
        # Commanding (5, 5, 5) for every deployed function on every tick resizes
        # by zero and then reads each function's replica target against its own
        # pods, so the order of functions within a tick cannot move an event.
        exp = load_experiment(overrides={"preset": preset})
        assert len(exp.profiles) > 1
        workload = exp.eval_sets(["high"])["high"][0]
        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, log_events=True)
        env.run_episode(workload,
                        lambda env: dict.fromkeys(env.engine.deployed_fns, ScalingAction(5, 5, 5)))
        res = logged_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env, exp.sim,
                              exp.baselines)
        assert env.engine.event_log == res.engine.event_log
        assert env.ledger.summary() == res.summary


class TestEventLogDigests:
    """Every baseline's full event log on high-band workload 0 of each preset.

    These pin simulated behaviour at preset scale, with scaling, queueing,
    retries and drops all in play: a rewrite of the engine's event loop must
    leave every digest unchanged.
    """

    # First 16 hex digits of sha256(repr(event_log)).
    DIGESTS = {
        ("desk", "knative"): "ab5ad47fd73a44f9",
        ("desk", "kube_cpu"): "66d53e3ce7503ac5",
        ("desk", "openfaas"): "66d53e3ce7503ac5",
        ("paper", "knative"): "f7b0575ba15c9601",
        ("paper", "kube_cpu"): "2b06a9b68f81d2e6",
        ("paper", "openfaas"): "2b06a9b68f81d2e6",
    }

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_event_logs_match_recorded_digests(self, preset):
        exp = load_experiment(overrides={"preset": preset})
        workload = exp.eval_sets(["high"])["high"][0]
        digests = {}
        for policy in BASELINES:
            res = logged_baseline(policy, exp.vms, exp.profiles, workload, exp.env,
                                  exp.sim, exp.baselines)
            digests[preset, policy] = hashlib.sha256(
                repr(res.engine.event_log).encode()).hexdigest()[:16]
        assert digests == {key: digest for key, digest in self.DIGESTS.items()
                           if key[0] == preset}

    @pytest.mark.parametrize("policy", BASELINES)
    def test_given_arrivals_replay_the_episode(self, policy):
        exp = load_experiment(overrides={"preset": "desk"})
        workload = exp.eval_sets(["high"])["high"][0]
        args = (policy, exp.vms, exp.profiles, workload, exp.env, exp.sim, exp.baselines)
        given = logged_baseline(*args, arrivals=synthesize(workload))
        own = logged_baseline(*args)
        assert given.engine.event_log == own.engine.event_log
        assert run_baseline(*args, arrivals=synthesize(workload)).summary == own.summary


class TestObservationDigest:
    """Everything the engine and the ledger report during kube_cpu episodes.

    sha256 over the repr of every ``snapshot`` field at every tick, every
    ``window_channels`` triple and the episode summary; repr keeps every float
    bit and tells an int from a float, so a rewrite of the observation path
    that moves one ulp or one type changes the digest.
    """

    FIELDS = ("function_id", "pod_cpu", "pod_mem", "req_cpu", "req_mem", "arrival_rate",
              "rfrt", "rfr", "avg_pod_cpu_util", "avg_pod_mem_util", "replicas",
              "ready_replicas", "running_requests", "queued_requests",
              "standard_response_time")
    DIGESTS = {
        "desk": "f328e8eb8b250478953b4c222af2d3e6f89962873b7b6fe6c24b5049cc52eb6b",
        "paper": "c045f5690256220c25e5a7f1824ba6e9451740e0ba5be8d0ee111150d4ac9971",
        "desk-0.1s": "68b6d8bfeb9aeb89bd9e628fa8507d6eb4400de7628129b2a4c89118294fb8f9",
    }
    OVERRIDES = {
        "desk": {"preset": "desk"},
        "paper": {"preset": "paper"},
        "desk-0.1s": {"preset": "desk", "env": {"decision_interval": 0.1}},
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_observations_match_recorded_digest(self, case, monkeypatch):
        exp = load_experiment(overrides=self.OVERRIDES[case])
        workload = exp.eval_sets(["high"])["high"][0]
        digest = hashlib.sha256()
        snapshot = ClusterEngine.snapshot

        def recording(engine, fn, window):
            snap = snapshot(engine, fn, window)
            digest.update(repr(tuple(getattr(snap, name) for name in self.FIELDS)).encode())
            return snap

        monkeypatch.setattr(ClusterEngine, "snapshot", recording)
        res = run_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env,
                           exp.sim, exp.baselines, collect_channels=True)
        digest.update(repr(res.channels).encode())
        digest.update(repr(res.summary).encode())
        assert digest.hexdigest() == self.DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_digest_holds_under_a_compensated_sum(self, case, monkeypatch):
        # Python 3.12's sum() adds floats with Neumaier compensation. The
        # engine and the ledger sum floats left to right on every version,
        # so a compensated built-in must not move one bit of the digest.
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert neumaier_sum([0.1] * 10) == 1.0  # left to right: 0.9999999999999999
        self.test_observations_match_recorded_digest(case, monkeypatch)


class TestWindowsCountedOnce:
    def test_calibration_episode_counts_each_window_once(self, monkeypatch):
        # A desk kube_cpu calibration episode asks for 48 windows: 4 functions'
        # snapshots and channels on each of 6 ticks. Each tick's snapshot window
        # is the previous tick's channel window, so 28 are distinct, and the
        # engine must count each of them once.
        exp = load_experiment(overrides={"preset": "desk"})
        workload = exp.calibration_sets()["high"][0]
        asked, counted = [], []
        window, function_window = ClusterEngine.window, cluster.FunctionWindow

        def asking(engine, fn, t0, t1):
            asked.append((fn, t0, t1))
            return window(engine, fn, t0, t1)

        def counting(*fields):
            counted.append(fields)
            return function_window(*fields)

        monkeypatch.setattr(ClusterEngine, "window", asking)
        monkeypatch.setattr(cluster, "FunctionWindow", counting)
        res = run_baseline("kube_cpu", exp.vms, exp.profiles, workload, exp.env,
                           exp.sim, exp.baselines, collect_channels=True)
        assert len(res.channels) == 6
        assert len(asked) == 48 and len(set(asked)) == 28
        assert len(counted) == 28
