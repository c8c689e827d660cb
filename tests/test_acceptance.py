"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain ``pytest``; the
lines appear in captured output). The learning tests (7 and 8) use pinned
seeds and thresholds chosen from pilot runs recorded below:

* criterion 7 pilot (lr 1e-3, f=6, 300 episodes, 60 s episodes): improvement
  fraction of the initial gap-to-zero by seed: 7 -> 0.56, 11 -> 0.49,
  21 -> 0.54, 42 -> 0.51, 123 -> 0.56. Pinned seed 11, threshold 0.20.
* criterion 8 pilot (3 workers, 40 episodes/worker, lr 1e-3, seed 17):
  RART 2.44 vs 4.84, RFR 0.67 vs 0.77, cost 0.0053 vs 0.0016 (beta=1 vs 0);
  orderings also held at seed 29 and with 120 s episodes.
"""
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from faaslab.agents import TrainConfig, aggregate, evaluate_targets, train
from faaslab.baselines import run_baseline
from faaslab.cluster import (Application, ClusterEngine, FunctionProfile,
                             SimConfig, VmSpec, desired_replicas)
from faaslab.env import ACTION_SIZES, EnvConfig, ScalingAction, ServerlessEnv
from faaslab.metrics import (ChannelBounds, EpisodeLedger, RewardBounds,
                             derive_bounds)
from faaslab.nnet import (NetworkSpec, actor_loss_and_grad, critic_loss_and_grad,
                          init_params)
from faaslab.workload import (BUNDLED_TRACES, EVAL_BANDS, TRAIN_BAND, TraceSeries,
                              WorkloadSpec, load_traces, make_workload, select_apps)

from oracles import arrival_columns, brute_cost, brute_rart, brute_rfr, brute_rfrt

DESK_VMS = [
    VmSpec(vm_id=0, cpu_capacity=1.0, mem_capacity=4096.0, unit_price=0.048),
    VmSpec(vm_id=1, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848),
    VmSpec(vm_id=2, cpu_capacity=2.0, mem_capacity=8192.0, unit_price=0.0848),
    VmSpec(vm_id=3, cpu_capacity=4.0, mem_capacity=16384.0, unit_price=0.1696),
    VmSpec(vm_id=4, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3392),
]


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def scripted_profile(**kw):
    defaults = dict(function_id=0, req_cpu=0.25, req_mem=256.0,
                    standard_response_time=1.0, cold_start_seconds=2.0,
                    initial_pod_cpu=1.0, initial_pod_mem=1024.0)
    defaults.update(kw)
    return FunctionProfile(**defaults)


# ---------------------------------------------------------------- criterion 1

def test_c01_horizontal_formula_unit_suite():
    """20 hand-computed (M, C, T, M_max) cases, both clamp branches."""
    start = time.time()
    cases = [
        # (M, C, T, M_max) -> expected delta
        ((4, 0.8, 0.4, 80), 4),      # scale up
        ((10, 0.2, 0.4, 80), -5),    # scale down
        ((60, 0.9, 0.5, 80), 20),    # clamped by M_max
        ((0, 0.0, 0.5, 80), 0),      # idle, no pods
        ((0, 1.0, 0.5, 80), 2),      # bootstrap via utilization proxy
        ((0, 1.0, 0.9, 80), 2),      # ceil(1/0.9) = 2
        ((0, 1.0, 0.1, 80), 10),
        ((1, 0.0, 0.5, 80), -1),     # idle pod released
        ((1, 1.0, 0.9, 80), 1),      # ceil(1.11) = 2
        ((5, 0.5, 0.5, 80), 0),      # fixed point
        ((5, 0.55, 0.5, 80), 1),     # ceil(5.5) = 6
        ((5, 0.45, 0.5, 80), 0),     # ceil(4.5) = 5
        ((80, 0.9, 0.1, 80), 0),     # pinned at the cap
        ((80, 0.1, 0.9, 80), -71),   # ceil(8.89) = 9
        ((3, 0.8, 0.4, 80), 3),
        ((7, 0.3, 0.9, 80), -4),     # ceil(2.33) = 3
        ((40, 0.85, 0.45, 80), 36),  # ceil(75.56) = 76
        ((50, 0.9, 0.52, 80), 30),   # ceil(86.54) = 87 -> 80
        ((10, 0.9, 0.3, 20), 10),    # custom cap binds: 30 -> 20
        ((2, 0.25, 0.5, 8), -1),     # ceil(1.0) = 1
    ]
    assert len(cases) == 20
    for (m, c, t, m_max), expected in cases:
        assert desired_replicas(m, c, t, m_max) - m == expected, (m, c, t, m_max)
    assert time.time() - start < 1.0
    _report(1, "horizontal scaling formula unit suite")


# ---------------------------------------------------------------- criterion 2

def test_c02_vertical_constraint_property_suite():
    """10^4 random clamp+apply cases; resource bounds hold on every pod/VM."""
    start = time.time()
    rng = np.random.default_rng(20260810)
    eps = 1e-9
    violations = 0
    for case in range(10_000):
        n_vms = int(rng.integers(1, 4))
        vms = [VmSpec(vm_id=i, cpu_capacity=float(rng.choice((1.0, 2.0, 4.0, 8.0))),
                      mem_capacity=float(rng.choice((4096.0, 8192.0, 16384.0))),
                      unit_price=0.1) for i in range(n_vms)]
        req_cpu = float(rng.uniform(0.02, 0.3))
        req_mem = float(rng.uniform(16.0, 512.0))
        pod_cpu = float(min(1.0, max(0.1, req_cpu * rng.uniform(1.0, 6.0))))
        pod_mem = float(min(3072.0, max(128.0, req_mem * rng.uniform(1.0, 6.0))))
        profile = FunctionProfile(function_id=0, req_cpu=req_cpu, req_mem=req_mem,
                                  standard_response_time=9.0, cold_start_seconds=0.5,
                                  initial_pod_cpu=pod_cpu, initial_pod_mem=pod_mem)
        app = Application(app_id=0, function_sequence=(0,))
        eng = ClusterEngine(vms, [profile], [app])
        eng.apply_horizontal(0, int(rng.integers(0, 6)))
        eng.advance(0.5)  # pods ready
        arrivals = int(rng.integers(0, 12))
        eng.load_arrivals(*arrival_columns([(0.6 + 0.001 * i, 0) for i in range(arrivals)]))
        eng.advance(1.0)  # long executions stay in flight
        cpu_delta = float(rng.uniform(-0.5, 0.5))
        mem_delta = float(rng.uniform(-1024.0, 1024.0))
        cpu_star, mem_star = eng.clamp_vertical(0, cpu_delta, mem_delta)
        # clamped deltas keep the requested direction and never overshoot
        if not (abs(cpu_star) <= abs(cpu_delta) + eps and cpu_star * cpu_delta >= -eps):
            violations += 1
        if not (abs(mem_star) <= abs(mem_delta) + eps and mem_star * mem_delta >= -eps):
            violations += 1
        eng.apply_vertical(0, cpu_star, mem_star)
        for pod in eng.pods.values():
            if not (0.1 - eps <= pod.cpu_limit <= 1.0 + eps):
                violations += 1
            if not (128.0 - eps <= pod.mem_limit <= 3072.0 + eps):
                violations += 1
            if pod.cpu_used > pod.cpu_limit + eps or pod.mem_used > pod.mem_limit + eps:
                violations += 1
        alloc_cpu, alloc_mem = Counter(), Counter()
        for pod in eng.pods.values():
            alloc_cpu[pod.vm_id] += pod.cpu_limit
            alloc_mem[pod.vm_id] += pod.mem_limit
        for vm_id, vm in eng.vms.items():
            if (alloc_cpu[vm_id] > vm.spec.cpu_capacity + eps
                    or alloc_mem[vm_id] > vm.spec.mem_capacity + eps):
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"
    _report(2, "vertical scaling constraint property suite")


# ---------------------------------------------------------------- criterion 3

def test_c03_simulator_oracle_scenarios():
    """Five scripted scenarios reproduce hand-written event logs exactly."""
    app = Application(app_id=0, function_sequence=(0,))
    vm = VmSpec(vm_id=0, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3)

    # (a) cold start: request waits for pod readiness, served on a retry tick
    eng = ClusterEngine([vm], [scripted_profile()], [app])
    eng.load_arrivals(*arrival_columns([(0.0, 0)]))
    eng.advance(0.0)
    eng.apply_horizontal(0, 1)
    eng.advance(5.0)
    assert eng.event_log == [
        (0.0, "arrival", 0, 0),
        (0.0, "queue", 0),
        (0.0, "pod_create", 0, 0),
        (1.0, "retry", 0),
        (2.0, "pod_ready", 0),
        (2.0, "retry", 0),
        (2.0, "assign", 0, 0),
        (3.0, "finish", 0),
    ]
    assert eng.requests[0].finish_time - eng.requests[0].arrival_time == 3.0

    # (b) round-robin rotation over two warm pods
    eng = ClusterEngine([vm], [scripted_profile()], [app])
    eng.apply_horizontal(0, 2)
    eng.advance(2.0)
    eng.load_arrivals(*arrival_columns([(3.0, 0), (3.25, 0), (3.5, 0)]))
    eng.advance(5.0)
    assert eng.event_log == [
        (0.0, "pod_create", 0, 0),
        (0.0, "pod_create", 1, 0),
        (2.0, "pod_ready", 0),
        (2.0, "pod_ready", 1),
        (3.0, "arrival", 0, 0),
        (3.0, "assign", 0, 0),
        (3.25, "arrival", 1, 0),
        (3.25, "assign", 1, 1),
        (3.5, "arrival", 2, 0),
        (3.5, "assign", 2, 0),
        (4.0, "finish", 0),
        (4.25, "finish", 1),
        (4.5, "finish", 2),
    ]

    # (c) retry budget: queued at t=0, retried each second, dropped at t=10
    eng = ClusterEngine([vm], [scripted_profile()], [app])
    eng.load_arrivals(*arrival_columns([(0.0, 0)]))
    eng.advance(15.0)
    expected = [(0.0, "arrival", 0, 0), (0.0, "queue", 0)]
    expected += [(float(t), "retry", 0) for t in range(1, 11)]
    expected += [(10.0, "drop", 0)]
    assert eng.event_log == expected

    # (d) chain hand-off: completion immediately spawns the successor
    profs = [scripted_profile(cold_start_seconds=1.0),
             scripted_profile(function_id=1, standard_response_time=0.5,
                              cold_start_seconds=1.0)]
    chain_app = Application(app_id=0, function_sequence=(0, 1))
    eng = ClusterEngine([vm], profs, [chain_app])
    eng.apply_horizontal(0, 1)
    eng.apply_horizontal(1, 1)
    eng.advance(1.0)
    eng.load_arrivals(*arrival_columns([(2.0, 0)]))
    eng.advance(5.0)
    assert eng.event_log == [
        (0.0, "pod_create", 0, 0),
        (0.0, "pod_create", 1, 0),
        (1.0, "pod_ready", 0),
        (1.0, "pod_ready", 1),
        (2.0, "arrival", 0, 0),
        (2.0, "assign", 0, 0),
        (3.0, "finish", 0),
        (3.0, "arrival", 1, 1),
        (3.0, "assign", 1, 1),
        (3.5, "finish", 1),
    ]

    # (e) scale-down: idle pods removed newest-first, busy pod drains
    eng = ClusterEngine([vm], [scripted_profile(cold_start_seconds=1.0)], [app])
    eng.apply_horizontal(0, 3)
    eng.advance(1.0)
    eng.load_arrivals(*arrival_columns([(1.5, 0)]))
    eng.advance(1.75)
    eng.apply_horizontal(0, -3)
    eng.advance(3.0)
    assert eng.event_log == [
        (0.0, "pod_create", 0, 0),
        (0.0, "pod_create", 1, 0),
        (0.0, "pod_create", 2, 0),
        (1.0, "pod_ready", 0),
        (1.0, "pod_ready", 1),
        (1.0, "pod_ready", 2),
        (1.5, "arrival", 0, 0),
        (1.5, "assign", 0, 0),
        (1.75, "pod_remove", 2),
        (1.75, "pod_remove", 1),
        (1.75, "pod_terminating", 0),
        (2.5, "finish", 0),
        (2.5, "pod_remove", 0),
    ]
    assert eng.requests[0].status.value == "Completed"
    _report(3, "simulator oracle scenarios")


# ---------------------------------------------------------------- criterion 4

def test_c04_metric_identities_against_brute_force():
    """Streaming metrics equal an independent raw-ledger recomputation."""
    profiles, apps = select_apps(["primary", "thumbnail", "load"])
    corpus = load_traces(BUNDLED_TRACES)
    checked = 0
    for policy in ("kube_cpu", "knative"):
        for seed in (1, 2, 3):
            wl = make_workload(apps, corpus, EVAL_BANDS["mid"], 60, 7000 + seed)
            res = run_baseline(policy, DESK_VMS, profiles, wl,
                               EnvConfig(), log_events=True)
            summary = EpisodeLedger(res.engine).summary()
            assert abs(summary.rfr - brute_rfr(res.engine)) <= 1e-9
            assert abs(summary.rfrt - brute_rfrt(res.engine)) <= 1e-9
            assert abs(summary.cost - brute_cost(res.engine)) <= 1e-9
            if math.isnan(summary.rart):
                with pytest.raises(Exception):
                    brute_rart(res.engine)
            else:
                assert abs(summary.rart - brute_rart(res.engine)) <= 1e-9
            checked += 1
    assert checked == 6
    _report(4, "metric identities vs brute force")


# ---------------------------------------------------------------- criterion 5

def test_c05_gradient_finite_difference_checks():
    """Actor and critic gradients vs central differences at full network size."""
    start = time.time()
    state_dim = 7 * len(DESK_VMS) + 9
    actor_spec = NetworkSpec(input_dim=state_dim, hidden=(150, 150),
                             head_sizes=ACTION_SIZES, seed=0)
    critic_spec = NetworkSpec(input_dim=state_dim, hidden=(150, 150),
                              head_sizes=(1,), seed=1)
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for batch_idx in range(10):
        actor_params = [p + 0.05 * rng.standard_normal(p.shape)
                        for p in init_params(actor_spec)]
        critic_params = [p + 0.05 * rng.standard_normal(p.shape)
                         for p in init_params(critic_spec)]
        batch = int(rng.integers(2, 8))
        states = rng.uniform(0, 1, size=(batch, state_dim))
        actions = np.stack([rng.integers(0, k, size=batch) for k in ACTION_SIZES],
                           axis=1)
        advantages = rng.normal(size=batch)
        targets = rng.normal(size=batch)

        def actor_loss(params):
            return actor_loss_and_grad(actor_spec, params, states, actions,
                                       advantages, entropy_beta=0.01)[0]

        def critic_loss(params):
            return critic_loss_and_grad(critic_spec, params, states, targets)[0]

        for loss_fn, params, grads in (
            (actor_loss, actor_params,
             actor_loss_and_grad(actor_spec, actor_params, states, actions,
                                 advantages, entropy_beta=0.01)[1]),
            (critic_loss, critic_params,
             critic_loss_and_grad(critic_spec, critic_params, states, targets)[1]),
        ):
            for layer, grad in zip(params, grads):
                flat = layer.reshape(-1)
                gflat = grad.reshape(-1)
                picks = rng.choice(flat.size, size=min(100, flat.size), replace=False)
                for i in picks:
                    keep = flat[i]
                    flat[i] = keep + h
                    up = loss_fn(params)
                    flat[i] = keep - h
                    down = loss_fn(params)
                    flat[i] = keep
                    fd = (up - down) / (2 * h)
                    rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                    worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    _report(5, "gradient finite-difference checks")


# ---------------------------------------------------------------- criterion 6

def test_c06_reward_bounds_and_channel_separation():
    """Step rewards stay in [-1, 0]; beta=1 ignores cost bounds and beta=0
    ignores performance bounds, exactly."""
    profiles, apps = select_apps(["primary", "load"])
    corpus = load_traces(BUNDLED_TRACES)
    wl = make_workload(apps, corpus, EVAL_BANDS["mid"], 60, 321)
    base = RewardBounds(rfrt=ChannelBounds(1.0, 8.0), rfr=ChannelBounds(0.0, 0.5),
                        cost=ChannelBounds(0.0, 0.002))
    cost_perturbed = RewardBounds(rfrt=base.rfrt, rfr=base.rfr,
                                  cost=ChannelBounds(0.0001, 0.9))
    perf_perturbed = RewardBounds(rfrt=ChannelBounds(0.5, 30.0),
                                  rfr=ChannelBounds(0.01, 0.99), cost=base.cost)

    def rollout(beta, bounds):
        cfg = EnvConfig(beta=beta)
        env = ServerlessEnv(DESK_VMS, profiles, cfg, bounds=bounds, seed=4)
        env.reset(wl)
        rng = np.random.default_rng(9)
        rewards = []
        done = False
        while not done:
            action = ScalingAction(*(int(rng.integers(k)) for k in ACTION_SIZES))
            _, r, done = env.step(action)
            rewards.append(r)
        return rewards

    for beta in (0.0, 0.5, 1.0):
        for r in rollout(beta, base):
            assert -1.0 <= r <= 0.0
    assert rollout(1.0, base) == rollout(1.0, cost_perturbed)
    assert rollout(0.0, base) == rollout(0.0, perf_perturbed)
    assert rollout(0.5, base) != rollout(0.5, cost_perturbed)
    _report(6, "reward bounds and channel separation")


# ---------------------------------------------------------------- criterion 7

def test_c07_learning_smoke_test():
    """Single worker on a constant 10 req/s single-function workload: the last
    20 of 300 episodes recover at least 20% of the initial gap to zero."""
    start = time.time()
    profiles, apps = select_apps(["primary"])
    wl = WorkloadSpec(duration=60, applications=tuple(apps),
                      entry_traces={0: TraceSeries("c10", (10,) * 60)})
    env_cfg = EnvConfig(decision_interval=10.0, beta=1.0)
    res = run_baseline("kube_cpu", DESK_VMS, profiles, wl, env_cfg,
                       collect_channels=True)
    bounds = derive_bounds(res.channels)
    cfg = TrainConfig(workers=1, episodes=300, update_freq=6, lr=1e-3,
                      entropy_beta=0.01, seed=11, sync_mode="deterministic")
    envs = [ServerlessEnv(DESK_VMS, profiles, env_cfg, bounds=bounds,
                          seed=cfg.seed)]
    result = train(envs, [wl], cfg)
    rewards = [s.reward for s in result.stats]
    first = float(np.mean(rewards[:20]))
    last = float(np.mean(rewards[-20:]))
    assert first < 0.0
    improvement = (last - first) / (0.0 - first)
    elapsed = time.time() - start
    assert improvement >= 0.20, (
        f"improvement {improvement:.3f} below threshold (first {first:.3f}, "
        f"last {last:.3f})")
    assert elapsed < 15 * 60
    _report(7, f"learning smoke test (improvement {improvement:.2f})")


# ---------------------------------------------------------------- criterion 8

def test_c08_beta_ordering_reproduction(tmp_path):
    """A3C(beta=1) beats A3C(beta=0) on RART and RFR; beta=0 wins on cost."""
    start = time.time()
    profiles, apps = select_apps(["primary", "thumbnail", "load"])
    assert len(profiles) == 4
    corpus = load_traces(BUNDLED_TRACES)
    env_cfg = EnvConfig(decision_interval=10.0)
    samples = []
    for b_idx, band in enumerate(sorted(EVAL_BANDS)):
        for i in range(6):
            wl = make_workload(apps, corpus, EVAL_BANDS[band], 60,
                               50_000 + 100 * b_idx + i)
            samples += run_baseline("kube_cpu", DESK_VMS, profiles, wl, env_cfg,
                                    collect_channels=True).channels
    bounds = derive_bounds(samples)
    pool = [make_workload(apps, corpus, TRAIN_BAND, 60, 1000 + i, training=True)
            for i in range(10)]
    eval_mid = [make_workload(apps, corpus, EVAL_BANDS["mid"], 60, 9000 + i)
                for i in range(10)]

    paths = {}
    for beta in (1.0, 0.0):
        cfg = TrainConfig(workers=3, episodes=40, update_freq=6, lr=1e-3,
                          entropy_beta=0.01, seed=17, sync_mode="deterministic")
        envs = [ServerlessEnv(DESK_VMS, profiles, replace(env_cfg, beta=beta),
                              bounds=bounds, seed=cfg.seed + w) for w in range(3)]
        result = train(envs, pool, cfg)
        path = tmp_path / f"actor_beta{beta:g}.npz"
        result.actor.save(path)
        paths[beta] = str(path)

    rows = evaluate_targets([paths[1.0], paths[0.0]], {"mid": eval_mid},
                            DESK_VMS, profiles, env_cfg, bounds=bounds)
    agg = {a["target"]: a for a in aggregate(rows)}
    perf, thrifty = agg[paths[1.0]], agg[paths[0.0]]
    assert perf["rart"] < thrifty["rart"], (perf, thrifty)
    assert perf["rfr"] < thrifty["rfr"], (perf, thrifty)
    assert thrifty["cost"] < perf["cost"], (perf, thrifty)
    assert time.time() - start < 2 * 3600
    _report(8, "beta-ordering reproduction "
               f"(RART {perf['rart']:.2f}<{thrifty['rart']:.2f}, "
               f"RFR {perf['rfr']:.2f}<{thrifty['rfr']:.2f}, "
               f"cost {thrifty['cost']:.4f}<{perf['cost']:.4f})")


# ---------------------------------------------------------------- criterion 9

def test_c09_baseline_trajectories_match_formulas(replica_log):
    """Replica trajectories under a scripted load match hand computation."""
    app = Application(app_id=0, function_sequence=(0,))

    def run(policy, profile, rate):
        """The episode's engine and its replica count per decision tick."""
        wl = WorkloadSpec(duration=30, applications=(app,),
                          entry_traces={0: TraceSeries(f"r{rate}", (rate,) * 30)})
        vm = VmSpec(vm_id=0, cpu_capacity=8.0, mem_capacity=32768.0, unit_price=0.3)
        replica_log.clear()
        res = run_baseline(policy, [vm], {0: profile}, wl, EnvConfig(), log_events=True)
        return res.engine, [c for _, _, c in replica_log]

    # light load: 2 req/s, 0.25 s executions, pods hold 4 concurrent requests
    light = scripted_profile(standard_response_time=0.25)
    # t=0: no pods + queued arrival -> proxy utilization 1.0 -> ceil(1/0.5) = 2
    # t=10, 20: one in-flight request over two (then one) 1-vCPU pods
    assert run("kube_cpu", light, rate=2)[1] == [2, 1, 1]
    # knative: outstanding work is one request at every tick -> ceil(1/3) = 1
    assert run("knative", light, rate=2)[1] == [1, 1, 1]
    # openfaas falls through to the cpu mode at 2 req/s and 0.25 s runtime
    assert run("openfaas", light, rate=2)[1] == [2, 1, 1]

    # slow functions (3 s > 2 s cutoff) use capacity mode: ceil(in-flight/4)
    slow = scripted_profile(standard_response_time=3.0)
    assert run("openfaas", slow, rate=1)[1] == [1, 1, 1]

    # fast heavy load (32 req/s > 20) uses rps mode: ceil(32/8) = 4
    fast = scripted_profile(standard_response_time=0.5)
    assert run("openfaas", fast, rate=32)[1] == [2, 4, 4]

    # bit-exact determinism across reruns
    (a, a_replicas), (b, b_replicas) = (run("kube_cpu", light, rate=2)
                                        for _ in range(2))
    assert a.event_log and a.event_log == b.event_log
    assert a_replicas == b_replicas
    _report(9, "baseline trajectory hand-check")


# --------------------------------------------------------------- criterion 10

def test_c10_command_determinism(tmp_path):
    """Reruns of every command produce byte-identical CSVs (timestamp aside)."""
    import yaml
    from faaslab.cli import main

    config = {
        "preset": "desk",
        "output_dir": str(tmp_path / "run"),
        "applications": ["primary"],
        "workload": {"duration": 30, "workloads_per_band": 2,
                     "train_pool_size": 2, "calibration_per_band": 2},
        "train": {"workers": 1, "episodes": 2, "update_freq": 3, "seed": 3,
                  "sync_mode": "deterministic", "hidden": [16, 16]},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    run_dir = tmp_path / "run"

    def snapshot():
        out = {}
        for path in sorted(run_dir.glob("*.csv")) + sorted(run_dir.glob("*.yaml")):
            lines = [l for l in path.read_text().splitlines()
                     if not l.startswith("# timestamp=")]
            out[path.name] = "\n".join(lines)
        return out

    def run_all():
        assert main(["calibrate", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--band", "mid",
                     "--targets", "kube_cpu",
                     str(run_dir / "actor_a3c_beta1_w1.npz")]) == 0
        assert main(["report", "--config", str(cfg_path)]) == 0
        return snapshot()

    first = run_all()
    second = run_all()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    assert any(name.startswith("curves_") for name in first)
    _report(10, "command determinism")
