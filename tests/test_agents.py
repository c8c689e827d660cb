import builtins
import itertools
import math
import weakref

import numpy as np
import pytest

from faaslab.agents import (DQN_GRID_POINTS, N_COMPOUND_ACTIONS, DqnConfig, TrainConfig,
                            Transition, aggregate, compound_to_action,
                            compute_advantages, dqn_train, evaluate_targets,
                            greedy_index, select_action, train)
from faaslab.agents import evaluate
from faaslab.agents.a3c import sample_index
from faaslab.agents.evaluate import _policy_from_store
from faaslab.baselines import BASELINES, baseline_policy, run_baseline
from faaslab.cluster import Application, ClusterEngine, FunctionProfile
from faaslab.config import load_experiment
from faaslab.env import ACTION_SIZES, EnvConfig, ScalingAction, ServerlessEnv
from faaslab.errors import ConfigError, SimulationError
from faaslab.metrics import ChannelBounds, RewardBounds
from faaslab.nnet import NetworkSpec, ParameterStore, init_params
from faaslab.workload import TraceSeries, WorkloadSpec

from oracles import neumaier_sum

BOUNDS = RewardBounds(rfrt=ChannelBounds(1.0, 11.0), rfr=ChannelBounds(0.0, 1.0),
                      cost=ChannelBounds(0.0, 0.01))


def tiny_profile():
    return FunctionProfile(function_id=0, req_cpu=0.25, req_mem=256.0,
                           standard_response_time=1.0, cold_start_seconds=2.0,
                           initial_pod_cpu=0.5, initial_pod_mem=1024.0)


def tiny_workload(rate=2, duration=30):
    app = Application(app_id=0, function_sequence=(0,))
    return WorkloadSpec(duration=duration, applications=(app,),
                        entry_traces={0: TraceSeries("c", (rate,) * duration)})


def tiny_env(desk_vms, seed=0, beta=1.0):
    cfg = EnvConfig(decision_interval=10.0, beta=beta)
    return ServerlessEnv(desk_vms, {0: tiny_profile()}, cfg, bounds=BOUNDS,
                         seed=seed)


class TestSelectAction:
    def test_seeded_sampling_reproducible(self):
        spec = NetworkSpec(input_dim=4, hidden=(6,), head_sizes=ACTION_SIZES, seed=1)
        params = init_params(spec)
        state = np.full(4, 0.5)
        a = select_action(spec, params, state, np.random.default_rng(12))
        b = select_action(spec, params, state, np.random.default_rng(12))
        assert a == b

    def test_greedy_picks_dominant_probability(self):
        # Greedy evaluation of an actor checkpoint: each head's greedy_index.
        probs_spec = NetworkSpec(input_dim=1, hidden=(), head_sizes=ACTION_SIZES)
        p = [np.zeros((1, 11)), np.zeros(11), np.zeros((1, 11)), np.zeros(11),
             np.zeros((1, 11)), np.zeros(11)]
        p[1][3] = 10.0
        action = _policy_from_store(ParameterStore(probs_spec, p))(np.array([1.0]))
        assert action.a1 == 3
        assert action.a2 == 0 and action.a3 == 0

    def test_empirical_frequencies_match_policy(self):
        spec = NetworkSpec(input_dim=3, hidden=(5,), head_sizes=(4, 3, 5), seed=2)
        params = init_params(spec)
        state = np.array([0.2, 0.9, 0.4])
        from faaslab.nnet import forward_actor
        expected = [h[0] for h in forward_actor(spec, params, state)]
        rng = np.random.default_rng(99)
        n = 100_000
        counts = [np.zeros(4), np.zeros(3), np.zeros(5)]
        for _ in range(n):
            a = select_action(spec, params, state, rng)
            for d, idx in enumerate(a.as_tuple()):
                counts[d][idx] += 1
        for dim in range(3):
            freq = counts[dim] / n
            sigma = np.sqrt(expected[dim] * (1 - expected[dim]) / n)
            assert np.all(np.abs(freq - expected[dim]) <= 3 * sigma + 1e-9)

    def test_sample_index_matches_generator_choice(self):
        draw = np.random.default_rng(2024)
        for seed in range(1000):
            n = int(draw.integers(1, 16))
            p = draw.random(n) ** 4
            p[draw.random(n) < 0.2] = 0.0
            p[draw.integers(n)] += 0.1  # at least one positive entry
            p /= p.sum()
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_index(p, ours) == ref.choice(n, p=p)
            assert ours.random() == ref.random()

    def test_sample_index_rejects_nan_probabilities(self):
        with pytest.raises(SimulationError, match="probabilities"):
            sample_index(np.full(3, np.nan), np.random.default_rng(0))


class TestAdvantages:
    def _transitions(self, rewards, terminal_last=True, dim=4):
        out = []
        for i, r in enumerate(rewards):
            out.append(Transition(state=np.full(dim, 0.1 * i),
                                  action=ScalingAction(0, 0, 0), reward=r,
                                  next_state=np.full(dim, 0.1 * (i + 1)),
                                  terminal=terminal_last and i == len(rewards) - 1))
        return out

    def test_zero_critic_gives_rewards(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,))
        params = [np.zeros_like(p) for p in init_params(spec)]
        adv, targets = compute_advantages(self._transitions([-0.5, -0.2]), spec,
                                          params, gamma=0.6)
        assert np.allclose(adv, [-0.5, -0.2])
        assert np.allclose(targets, [-0.5, -0.2])

    def test_terminal_cuts_bootstrap(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,), seed=3)
        params = init_params(spec)
        trans = self._transitions([-0.3])
        from faaslab.nnet import forward_critic
        v = forward_critic(spec, params, trans[0].state[None, :])[0]
        adv, targets = compute_advantages(trans, spec, params, gamma=0.9)
        assert adv[0] == pytest.approx(-0.3 - v)
        assert targets[0] == pytest.approx(-0.3)

    def test_gamma_zero_is_myopic(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,), seed=4)
        params = init_params(spec)
        trans = self._transitions([-0.4, -0.1], terminal_last=False)
        from faaslab.nnet import forward_critic
        states = np.stack([t.state for t in trans])
        v = forward_critic(spec, params, states)
        adv, _ = compute_advantages(trans, spec, params, gamma=0.0)
        assert np.allclose(adv, np.array([-0.4, -0.1]) - v)

    def test_empty_segment_rejected(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,))
        with pytest.raises(ConfigError):
            compute_advantages([], spec, init_params(spec), 0.6)


class TestWorkerLoop:
    def test_update_per_episode_when_f_equals_t(self, desk_vms):
        cfg = TrainConfig(workers=1, episodes=3, update_freq=3, seed=5,
                          hidden=(16, 16))
        result = train([tiny_env(desk_vms, seed=5)], [tiny_workload()], cfg)
        # T = 3 steps per episode equals f, so exactly one flush per episode
        assert [s.updates for s in result.stats] == [1, 2, 3]
        assert result.actor.version == result.critic.version == 3

    def test_deterministic_single_worker_reproducible(self, desk_vms):
        def run():
            cfg = TrainConfig(workers=1, episodes=4, update_freq=2, seed=6,
                              sync_mode="deterministic", hidden=(16, 16))
            envs = [tiny_env(desk_vms, seed=6)]
            return train(envs, [tiny_workload()], cfg)

        a, b = run(), run()
        assert [(s.worker, s.episode, s.reward) for s in a.stats] == \
               [(s.worker, s.episode, s.reward) for s in b.stats]
        for pa, pb in zip(a.actor.params, b.actor.params):
            assert np.array_equal(pa, pb)
        for pa, pb in zip(a.critic.params, b.critic.params):
            assert np.array_equal(pa, pb)

    def test_multi_worker_version_equals_total_updates(self, desk_vms):
        cfg = TrainConfig(workers=3, episodes=2, update_freq=2, seed=7,
                          hidden=(16, 16))
        envs = [tiny_env(desk_vms, seed=7 + w) for w in range(3)]
        result = train(envs, [tiny_workload()], cfg)
        assert len(result.stats) == 6
        assert [(s.episode, s.worker) for s in result.stats] == \
               [(e, w) for e in range(2) for w in range(3)]
        last_updates = {s.worker: s.updates for s in result.stats}
        assert result.actor.version == sum(last_updates.values())
        assert result.critic.version == sum(last_updates.values())

    def test_one_engine_alive_at_a_time(self, desk_vms):
        cfg = TrainConfig(workers=3, episodes=2, update_freq=2, seed=7,
                          hidden=(8, 8))
        envs = [tiny_env(desk_vms, seed=7 + w) for w in range(3)]
        earlier = []

        def on_episode(row):
            env = envs[row.worker]
            assert env.engine is not None and env.ledger is not None
            assert all(ref() is None for ref in earlier)
            earlier.append(weakref.ref(env.engine))

        train(envs, [tiny_workload()], cfg, on_episode=on_episode)
        assert len(earlier) == 6
        for env in envs:
            assert env.engine is None and env.ledger is None
            with pytest.raises(SimulationError, match="reset"):
                env.step(ScalingAction(5, 5, 5))

    def test_only_deterministic_sync_mode(self):
        assert TrainConfig(sync_mode="deterministic").sync_mode == "deterministic"
        with pytest.raises(ConfigError, match="sync_mode"):
            TrainConfig(sync_mode="async")

    def test_worker_count_must_match_envs(self, desk_vms):
        cfg = TrainConfig(workers=2, episodes=1)
        with pytest.raises(ConfigError):
            train([tiny_env(desk_vms)], [tiny_workload()], cfg)

    def test_resume_keeps_version_monotone(self, desk_vms):
        cfg = TrainConfig(workers=1, episodes=2, update_freq=3, seed=8,
                          hidden=(16, 16))
        envs = [tiny_env(desk_vms, seed=8)]
        first = train(envs, [tiny_workload()], cfg)
        v1 = first.actor.version
        second = train([tiny_env(desk_vms, seed=9)], [tiny_workload()], cfg,
                       actor_store=first.actor, critic_store=first.critic)
        assert second.actor.version > v1


class TestDqn:
    def test_compound_encoding(self):
        assert compound_to_action(0) == ScalingAction(0, 0, 0)
        assert compound_to_action(63) == ScalingAction(10, 10, 10)
        assert compound_to_action(27) == ScalingAction(3, 7, 10)  # base-4 digits 1, 2, 3
        # the 64 indices map one-to-one onto the grid points cubed
        assert N_COMPOUND_ACTIONS == 64
        decoded = [compound_to_action(i) for i in range(N_COMPOUND_ACTIONS)]
        assert sorted((a.a1, a.a2, a.a3) for a in decoded) == \
               sorted(itertools.product(DQN_GRID_POINTS, repeat=3))
        with pytest.raises(ConfigError):
            compound_to_action(64)

    def test_greedy_invariant_under_affine_rescale(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.normal(size=64)
            assert greedy_index(values) == greedy_index(2.5 * values + 3.0)

    def test_buffer_respects_capacity(self, desk_vms):
        cfg = DqnConfig(episodes=4, buffer_capacity=8, batch_size=4, target_refresh=5)
        env = tiny_env(desk_vms, seed=12)
        result = dqn_train(env, [tiny_workload()], cfg, TrainConfig(seed=12, hidden=(8, 8)))
        assert len(result.stats) == 4
        assert result.store.version > 0

    def test_training_reproducible(self, desk_vms):
        def run():
            cfg = DqnConfig(episodes=2, buffer_capacity=32, batch_size=4)
            return dqn_train(tiny_env(desk_vms, seed=13), [tiny_workload()], cfg,
                             TrainConfig(seed=13, hidden=(8, 8)))

        a, b = run(), run()
        assert [s.reward for s in a.stats] == [s.reward for s in b.stats]
        for pa, pb in zip(a.store.params, b.store.params):
            assert np.array_equal(pa, pb)


class TestEvaluate:
    def test_baseline_deterministic_and_no_checkpoint_needed(self, desk_vms):
        sets = {"mid": [tiny_workload(rate=6)]}
        kwargs = dict(vms=desk_vms, profiles={0: tiny_profile()},
                      env_config=EnvConfig())
        a = evaluate_targets(["kube_cpu"], sets, **kwargs)
        b = evaluate_targets(["kube_cpu"], sets, **kwargs)
        assert a == b
        assert a[0].target == "kube_cpu"

    def test_unknown_target_rejected(self, desk_vms):
        with pytest.raises(ConfigError, match="unknown target"):
            evaluate_targets(["sorcery"], {"mid": [tiny_workload()]}, desk_vms,
                             {0: tiny_profile()})

    def test_checkpoint_roundtrip_evaluation(self, desk_vms, tmp_path):
        from faaslab.agents.evaluate import greedy_policy
        from faaslab.nnet import ParameterStore

        cfg = TrainConfig(workers=1, episodes=1, update_freq=3, seed=14,
                          hidden=(16, 16))
        envs = [tiny_env(desk_vms, seed=14)]
        result = train(envs, [tiny_workload()], cfg)
        path = tmp_path / "actor.npz"
        result.actor.save(path)
        loaded = ParameterStore.load(path)
        summaries = []
        for store in (result.actor, loaded):
            env = ServerlessEnv(desk_vms, {0: tiny_profile()}, EnvConfig())
            env.run_episode(tiny_workload(rate=4), greedy_policy(store))
            summaries.append(env.ledger.summary())
        live, disk = summaries
        assert live == disk  # the checkpoint reproduces evaluation metrics

        sets = {"mid": [tiny_workload(rate=4)]}
        rows = evaluate_targets([str(path)], sets, desk_vms, {0: tiny_profile()},
                                EnvConfig(), bounds=BOUNDS)
        rows2 = evaluate_targets([str(path)], sets, desk_vms, {0: tiny_profile()},
                                 EnvConfig(), bounds=BOUNDS)
        assert rows == rows2

    def test_rows_merge_by_target_band_index(self, desk_vms):
        sets = {"mid": [tiny_workload(rate=4), tiny_workload(rate=6)],
                "low": [tiny_workload(rate=2)]}
        kwargs = dict(vms=desk_vms, profiles={0: tiny_profile()},
                      env_config=EnvConfig())
        forward = evaluate_targets(["openfaas", "knative"], sets, **kwargs)
        backward = evaluate_targets(["knative", "openfaas"], sets, **kwargs)
        assert forward == backward
        assert [(r.target, r.band, r.workload_index) for r in forward] == [
            (t, b, i) for t in ("knative", "openfaas")
            for b, i in (("low", 0), ("mid", 0), ("mid", 1))]

    def test_each_workload_synthesized_once_for_every_target(self, tmp_path, monkeypatch):
        exp = load_experiment(overrides={"preset": "desk", "workload": {"duration": 20}})
        sets = {band: workloads[:2] for band, workloads in exp.eval_sets().items()}
        state_dim = ServerlessEnv(exp.vms, exp.profiles).state_dim
        store = ParameterStore(NetworkSpec(input_dim=state_dim, hidden=(8,),
                                           head_sizes=ACTION_SIZES, seed=3))
        path = tmp_path / "actor.npz"
        store.save(path)
        targets = ["knative", "kube_cpu", "openfaas", str(path)]
        calls = []
        synthesize = evaluate.synthesize

        def counting(workload):
            calls.append(workload.seed)
            return synthesize(workload)

        monkeypatch.setattr(evaluate, "synthesize", counting)
        rows = evaluate_targets(targets, sets, exp.vms, exp.profiles, exp.env, exp.sim,
                                policy_config=exp.baselines)
        seeds = [w.seed for _, workloads in sorted(sets.items()) for w in workloads]
        assert calls == seeds

        # one episode per (target, workload), each synthesizing its own arrivals
        expected = []
        for target in targets:
            for band, workloads in sorted(sets.items()):
                for idx, workload in enumerate(workloads):
                    if target == str(path):
                        env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim)
                        env.run_episode(workload, evaluate.greedy_policy(store))
                        summary = env.ledger.summary()
                    else:
                        summary = run_baseline(target, exp.vms, exp.profiles, workload,
                                               exp.env, exp.sim, exp.baselines).summary
                    expected.append((target, band, idx, summary.rart, summary.rfr,
                                     summary.cost))
        expected.sort(key=lambda r: r[:3])
        assert [(r.target, r.band, r.workload_index, r.rart, r.rfr, r.cost)
                for r in rows] == expected

    def test_parallel_other_than_one_rejected(self, desk_vms):
        with pytest.raises(ConfigError, match="parallel"):
            evaluate_targets(["knative"], {"mid": [tiny_workload()]}, desk_vms,
                             {0: tiny_profile()}, parallel=2)

    def test_aggregate_skips_undefined_rart(self):
        from faaslab.agents import EvalRow
        rows = [EvalRow("x", "mid", 0, math.nan, 0.5, 0.1),
                EvalRow("x", "mid", 1, 2.0, 0.1, 0.3)]
        agg = aggregate(rows)
        assert agg[0]["rart"] == pytest.approx(2.0)
        assert agg[0]["rfr"] == pytest.approx(0.3)

    def test_aggregate_adds_left_to_right(self, monkeypatch):
        # Python 3.12's sum() would give 1.0 / 10; every version must give this.
        from faaslab.agents import EvalRow
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        rows = [EvalRow("x", "mid", i, 0.1, 0.1, 0.1) for i in range(10)]
        (agg,) = aggregate(rows)
        assert agg["rart"] == agg["rfr"] == agg["cost"] == 0.9999999999999999 / 10


def _openfaas_divergence(exp, workload):
    """The first tick on which openfaas's targets differ from kube_cpu's, None
    if they never do, and the episode's tick count."""
    shadows = ["openfaas"]
    policy = baseline_policy("kube_cpu", exp.baselines, shadows)
    agreed = []

    def recording(env):
        targets = policy(env)
        agreed.append(bool(shadows))
        return targets

    ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim).run_episode(workload, recording)
    return (agreed.index(False) if False in agreed else None), len(agreed)


class TestBaselineTwins:
    """``evaluate_targets`` simulates a baseline episode once and hands it to
    every baseline whose targets equalled it on every tick."""

    @pytest.fixture(scope="class")
    def exp(self):
        return load_experiment(overrides={"preset": "desk",
                                          "workload": {"workloads_per_band": 2}})

    @pytest.fixture(scope="class")
    def sets(self, exp):
        return exp.eval_sets(["low", "mid", "high"])

    def rows(self, exp, sets, targets):
        return evaluate_targets(targets, sets, exp.vms, exp.profiles, exp.env, exp.sim,
                                policy_config=exp.baselines)

    def test_sets_hold_an_agreeing_and_a_diverging_workload(self, exp, sets):
        firsts = [_openfaas_divergence(exp, w) for ws in sets.values() for w in ws]
        assert any(first is None for first, _ in firsts)
        assert any(first is not None and 0 < first < ticks - 1 for first, ticks in firsts)

    def test_rows_equal_independent_episodes(self, exp, sets):
        expected = sorted(
            (target, band, idx, s.rart, s.rfr, s.cost)
            for target in BASELINES
            for band, workloads in sets.items()
            for idx, workload in enumerate(workloads)
            for s in [run_baseline(target, exp.vms, exp.profiles, workload, exp.env,
                                   exp.sim, exp.baselines).summary])
        rows = self.rows(exp, sets, BASELINES)
        # NaN RART would never compare equal; a desk episode completes chains
        assert not any(math.isnan(r.rart) for r in rows)
        assert [(r.target, r.band, r.workload_index, r.rart, r.rfr, r.cost)
                for r in rows] == expected

    def test_rows_do_not_depend_on_target_order(self, exp, sets):
        assert (self.rows(exp, sets, ["kube_cpu", "knative", "openfaas"])
                == self.rows(exp, sets, ["openfaas", "knative", "kube_cpu"]))

    @pytest.mark.parametrize("agreeing", [True, False])
    def test_an_agreeing_baseline_builds_no_engine(self, exp, sets, agreeing, monkeypatch):
        workload = next(w for ws in sets.values() for w in ws
                        if (_openfaas_divergence(exp, w)[0] is None) == agreeing)
        built = []
        init = ClusterEngine.__init__

        def counting(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(ClusterEngine, "__init__", counting)
        self.rows(exp, {"mid": [workload]}, BASELINES)
        assert len(built) == (2 if agreeing else 3)

    def test_twins_of_another_workload_are_refused(self, exp, sets):
        first, second = sets["low"]
        args = (exp.vms, exp.profiles)
        config = (exp.env, exp.sim, exp.baselines)
        twins = {}
        kube = run_baseline("kube_cpu", *args, first, *config, twins=twins)
        assert "openfaas" in twins
        with pytest.raises(ConfigError, match="another workload"):
            run_baseline("openfaas", *args, second, *config, twins=twins)
        with pytest.raises(ConfigError, match="another workload"):
            run_baseline("openfaas", *args, first, *config, log_events=True, twins=twins)
        assert run_baseline("openfaas", *args, first, *config, twins=twins) is kube
