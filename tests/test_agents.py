import itertools
import math

import numpy as np
import pytest

from faaslab.agents import (DQN_GRID_POINTS, N_COMPOUND_ACTIONS, DqnConfig, TrainConfig,
                            Transition, aggregate, compound_to_action,
                            compute_advantages, dqn_train, evaluate_targets,
                            greedy_index, select_action, train)
from faaslab.agents.evaluate import _policy_from_store
from faaslab.cluster import Application, FunctionProfile
from faaslab.env import ACTION_SIZES, EnvConfig, ScalingAction, ServerlessEnv
from faaslab.errors import ConfigError
from faaslab.metrics import ChannelBounds, RewardBounds
from faaslab.nnet import NetworkSpec, ParameterStore, init_params
from faaslab.workload import TraceSeries, WorkloadSpec

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
    cfg = EnvConfig(decision_interval=10.0, observe_delay=10.0, beta=beta)
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
        assert result.actor.version == sum(result.worker_updates)
        assert result.critic.version == sum(result.worker_updates)

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
        cfg = DqnConfig(episodes=4, buffer_capacity=8, batch_size=4, seed=12,
                        hidden=(8, 8), target_refresh=5)
        env = tiny_env(desk_vms, seed=12)
        result = dqn_train(env, [tiny_workload()], cfg)
        assert len(result.buffer) <= 8
        assert len(result.stats) == 4
        assert result.store.version > 0

    def test_training_reproducible(self, desk_vms):
        def run():
            cfg = DqnConfig(episodes=2, buffer_capacity=32, batch_size=4,
                            seed=13, hidden=(8, 8))
            return dqn_train(tiny_env(desk_vms, seed=13), [tiny_workload()], cfg)

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
        from faaslab.agents.evaluate import _greedy_episode
        from faaslab.nnet import ParameterStore

        cfg = TrainConfig(workers=1, episodes=1, update_freq=3, seed=14,
                          hidden=(16, 16))
        envs = [tiny_env(desk_vms, seed=14)]
        result = train(envs, [tiny_workload()], cfg)
        path = tmp_path / "actor.npz"
        result.actor.save(path)
        loaded = ParameterStore.load(path)
        args = (desk_vms, {0: tiny_profile()}, tiny_workload(rate=4),
                EnvConfig())
        from faaslab.cluster import SimConfig
        live = _greedy_episode(result.actor, *args, SimConfig())
        disk = _greedy_episode(loaded, *args, SimConfig())
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
