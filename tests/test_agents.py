import builtins
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from faaslab.agents import (DQN_GRID_POINTS, N_COMPOUND_ACTIONS, DqnConfig, TrainConfig,
                            aggregate, compound_to_action, compute_advantages, dqn_train,
                            evaluate_targets, greedy_index, select_action, train)
from faaslab.agents import a3c, evaluate
from faaslab.agents.a3c import sample_index, step_columns
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


def desk_a3c(beta, on_episode=None):
    """``train`` of desk A3C, 3 workers x 2 episodes of 6 steps, as ``faaslab
    train`` builds it but with fixed reward bounds."""
    exp = load_experiment(overrides={"preset": "desk"})
    config = replace(exp.train, workers=3, episodes=2)
    env_config = replace(exp.env, beta=beta, target_mode="random")
    envs = [ServerlessEnv(exp.vms, exp.profiles, env_config, exp.sim, BOUNDS,
                          seed=config.seed + w) for w in range(config.workers)]
    return train(envs, exp.train_pool(), config, on_episode=on_episode)


def desk_dqn():
    """``dqn_train`` at desk over 4 episodes of 6 steps: a batch of 8 makes 17
    updates, and the target network refreshes after updates 5, 10 and 15."""
    exp = load_experiment(overrides={"preset": "desk"})
    env = ServerlessEnv(exp.vms, exp.profiles, replace(exp.env, beta=1.0, target_mode="random"),
                        exp.sim, BOUNDS, seed=exp.train.seed)
    config = replace(exp.dqn, episodes=4, batch_size=8, target_refresh=5)
    return dqn_train([env], exp.train_pool(), exp.train, dqn=config)


def curve_rows(stats):
    """Each row's episode, worker, reward, rfrt, rfr and cost as the curves CSV writes them."""
    return [",".join((str(s.episode), str(s.worker),
                      *(f"{x:.9g}" for x in (s.reward, s.rfrt, s.rfr, s.cost))))
            for s in stats]


def parameter_digest(stores):
    return hashlib.sha256(b"".join(p.tobytes() for store in stores
                                   for p in store.params)).hexdigest()


def pinned_runs():
    """Rows and parameter digest of each pinned desk run, by run name."""
    a3c = {f"a3c_beta{beta:g}": desk_a3c(beta) for beta in (1.0, 0.5)}
    runs = {name: (r.stats, r.stores.values()) for name, r in a3c.items()}
    dqn = desk_dqn()
    runs["dqn_beta1"] = (dqn.stats, dqn.stores.values())
    return {name: {"rows": curve_rows(stats), "params": parameter_digest(stores)}
            for name, (stats, stores) in runs.items()}


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
    def _columns(self, rewards, terminal_last=True, dim=4):
        """``step_columns`` of ``record``-shaped steps with the given rewards."""
        return step_columns([(np.full(dim, 0.1 * i), ScalingAction(0, 0, 0), r,
                              np.full(dim, 0.1 * (i + 1)),
                              terminal_last and i == len(rewards) - 1)
                             for i, r in enumerate(rewards)])

    def test_zero_critic_gives_rewards(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,))
        params = [np.zeros_like(p) for p in init_params(spec)]
        adv, targets = compute_advantages(self._columns([-0.5, -0.2]), spec,
                                          params, gamma=0.6)
        assert np.allclose(adv, [-0.5, -0.2])
        assert np.allclose(targets, [-0.5, -0.2])

    def test_terminal_cuts_bootstrap(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,), seed=3)
        params = init_params(spec)
        columns = self._columns([-0.3])
        from faaslab.nnet import forward_critic
        v = forward_critic(spec, params, columns[0])[0]
        adv, targets = compute_advantages(columns, spec, params, gamma=0.9)
        assert adv[0] == pytest.approx(-0.3 - v)
        assert targets[0] == pytest.approx(-0.3)

    def test_gamma_zero_is_myopic(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,), seed=4)
        params = init_params(spec)
        columns = self._columns([-0.4, -0.1], terminal_last=False)
        from faaslab.nnet import forward_critic
        v = forward_critic(spec, params, columns[0])
        adv, _ = compute_advantages(columns, spec, params, gamma=0.0)
        assert np.allclose(adv, np.array([-0.4, -0.1]) - v)

    def test_empty_segment_rejected(self):
        with pytest.raises(ConfigError):
            step_columns([])


class TestWorkerLoop:
    def test_update_per_episode_when_f_equals_t(self, desk_vms):
        cfg = TrainConfig(workers=1, episodes=3, update_freq=3, seed=5,
                          hidden=(16, 16))
        env = tiny_env(desk_vms, seed=5)
        actor = ParameterStore(NetworkSpec(input_dim=env.state_dim, hidden=cfg.hidden,
                                           head_sizes=ACTION_SIZES, seed=cfg.seed))
        versions = []
        result = train([env], [tiny_workload()], cfg, stores={"actor": actor},
                       on_episode=lambda row: versions.append(actor.version))
        # T = 3 steps per episode equals f, so exactly one flush per episode
        assert versions == [1, 2, 3]
        assert result.stores["actor"].version == result.stores["critic"].version == 3

    def test_deterministic_single_worker_reproducible(self, desk_vms):
        def run():
            cfg = TrainConfig(workers=1, episodes=4, update_freq=2, seed=6,
                              sync_mode="deterministic", hidden=(16, 16))
            envs = [tiny_env(desk_vms, seed=6)]
            return train(envs, [tiny_workload()], cfg)

        a, b = run(), run()
        assert [(s.worker, s.episode, s.reward) for s in a.stats] == \
               [(s.worker, s.episode, s.reward) for s in b.stats]
        for name in ("actor", "critic"):
            for pa, pb in zip(a.stores[name].params, b.stores[name].params):
                assert np.array_equal(pa, pb)

    def test_multi_worker_version_equals_total_updates(self, desk_vms):
        cfg = TrainConfig(workers=3, episodes=2, update_freq=2, seed=7,
                          hidden=(16, 16))
        envs = [tiny_env(desk_vms, seed=7 + w) for w in range(3)]
        actor = ParameterStore(NetworkSpec(input_dim=envs[0].state_dim, hidden=cfg.hidden,
                                           head_sizes=ACTION_SIZES, seed=cfg.seed))
        versions = []
        result = train(envs, [tiny_workload()], cfg, stores={"actor": actor},
                       on_episode=lambda row: versions.append(actor.version))
        assert len(result.stats) == 6
        assert [(s.episode, s.worker) for s in result.stats] == \
               [(e, w) for e in range(2) for w in range(3)]
        # Each worker flushes at lifetime steps 2, 3, 4 and 6 of its two
        # 3-step episodes: twice per episode, one store version per flush.
        assert versions == [2, 4, 6, 8, 10, 12]
        assert result.stores["critic"].version == 12

    def test_a_round_reads_only_snapshots_from_before_it(self, monkeypatch):
        # Desk episodes take 6 steps and update_freq is 30, so each worker
        # flushes once, at its episode's end. Holding a round's flushes back
        # until its last episode has run, then applying them in worker order
        # (each worker snapshotting right after its own apply), changes no
        # byte: no episode reads an update made in its own round.
        direct = desk_a3c(1.0)
        held = []
        flush = a3c._Worker._flush
        monkeypatch.setattr(a3c._Worker, "_flush", lambda worker: held.append(worker))

        def on_episode(row):
            if row.worker == 2:
                assert [worker.worker_id for worker in held] == [0, 1, 2]
                for worker in held:
                    flush(worker)
                held.clear()

        replay = desk_a3c(1.0, on_episode=on_episode)
        assert curve_rows(replay.stats) == curve_rows(direct.stats)
        for ours, theirs in zip(replay.stores.values(), direct.stores.values()):
            assert ours.version == theirs.version == 6
            assert [p.tobytes() for p in ours.params] == [p.tobytes() for p in theirs.params]

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
        v1 = first.stores["actor"].version
        second = train([tiny_env(desk_vms, seed=9)], [tiny_workload()], cfg, first.stores)
        assert second.stores["actor"].version > v1

    def test_resumed_store_of_another_spec_is_refused_naming_each_field(self, desk_vms):
        cfg = TrainConfig(workers=1, episodes=1, seed=8, hidden=(16, 16))
        env = tiny_env(desk_vms, seed=8)
        other = ParameterStore(NetworkSpec(input_dim=env.state_dim + 1, hidden=(8,),
                                           head_sizes=(4,), seed=8))
        with pytest.raises(ConfigError) as info:
            train([env], [tiny_workload()], cfg, stores={"actor": other})
        assert str(info.value) == (
            f"resumed actor checkpoint does not match: input_dim {env.state_dim + 1} in "
            f"the checkpoint, {env.state_dim} in this run; hidden (8,) in the checkpoint, "
            "(16, 16) in this run; head_sizes (4,) in the checkpoint, (11, 11, 11) in this run")


class TestTrainingPins:
    """Every row of three short desk runs, pinned across commits. Rows, not
    parameter bytes, are pinned: gemm bits may differ between CPUs, while the
    sampled actions behind the rows rarely do."""

    ROWS = {
        "a3c_beta1": [
            "0,0,-1.13226618,3.30448128,0.256843066,0.00438353226",
            "0,1,-1.82781163,4.78031419,0.411101474,0.00339990809",
            "0,2,-2.3102903,8.163626,0.535241123,0.00102255556",
            "1,0,-1.82866258,3.64606893,0.240956468,0.00446645389",
            "1,1,-1.76443699,6.18394437,0.368966893,0.00284842879",
            "1,2,-1.42272678,2.28469456,0.322079676,0.00282054557",
        ],
        "a3c_beta0.5": [
            "0,0,-0.78289674,3.30448128,0.256843066,0.00438353226",
            "0,1,-1.07136618,4.78031419,0.411101474,0.00339990809",
            "0,2,-1.2039113,8.163626,0.535241123,0.00102255556",
            "1,0,-1.13561553,3.64606893,0.240956468,0.00446645389",
            "1,1,-1.01110173,6.18394437,0.368966893,0.00284842879",
            "1,2,-0.850264745,2.28469456,0.322079676,0.00282054557",
        ],
        "dqn_beta1": [
            "0,0,-1.13258481,3.44546248,0.226720648,0.00380163016",
            "1,0,-1.53772802,4.16126491,0.260609086,0.00277218678",
            "2,0,-1.22527898,5.15248619,0.538029607,0.00139857485",
            "3,0,-1.00260137,3.00091659,0.540438079,0.00838296012",
        ],
    }

    def test_rows_unchanged(self):
        runs = pinned_runs()
        assert {name: run["rows"] for name, run in runs.items()} == self.ROWS

    def test_blas_thread_count_changes_no_byte(self):
        # numpy reads OPENBLAS_NUM_THREADS at import, so each count trains in
        # a child process; this process's own BLAS is left as it is.
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join((str(tests.parent / "src"), str(tests)))
        script = "import json, test_agents\nprint(json.dumps(test_agents.pinned_runs()))\n"
        runs = [json.loads(subprocess.run(
                    [sys.executable, "-c", script], capture_output=True, text=True,
                    check=True, env={**os.environ, "PYTHONPATH": path,
                                     "OPENBLAS_NUM_THREADS": threads}).stdout)
                for threads in ("1", "2")]
        assert runs[0] == runs[1]
        assert {name: run["rows"] for name, run in runs[0].items()} == self.ROWS


class TestCheckpointEvaluationPins:
    """Greedy evaluation of the checkpoints that the pinned desk runs save,
    pinned across commits: evaluation reads ``compound_to_action`` and
    ``greedy_index`` from the DQN module and the actor's heads from training."""

    ROWS = [
        "actor,high,0,5.32093543,0.164290805,0.00285658013",
        "actor,high,1,6.92231165,0.259358289,0.00272088736",
        "dqn,high,0,3.6907477,0.102790533,0.00864260612",
        "dqn,high,1,4.02585626,0.222407099,0.00668405861",
    ]

    def test_rows_unchanged(self, tmp_path):
        exp = load_experiment(overrides={"preset": "desk"})
        desk_a3c(1.0).stores["actor"].save(tmp_path / "actor.npz")
        desk_dqn().stores["dqn"].save(tmp_path / "dqn.npz")
        rows = evaluate_targets([str(tmp_path / "actor.npz"), str(tmp_path / "dqn.npz")],
                                {"high": exp.eval_sets(["high"])["high"][:2]}, exp.vms,
                                exp.profiles, exp.env, exp.sim, policy_config=exp.baselines)
        assert [",".join((Path(r.target).stem, r.band, str(r.workload_index),
                          *(f"{x:.9g}" for x in (r.rart, r.rfr, r.cost))))
                for r in rows] == self.ROWS


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
        result = dqn_train([env], [tiny_workload()], TrainConfig(seed=12, hidden=(8, 8)), dqn=cfg)
        assert len(result.stats) == 4
        assert result.stores["dqn"].version > 0

    def test_trains_on_one_environment(self, desk_vms):
        envs = [tiny_env(desk_vms, seed=12), tiny_env(desk_vms, seed=13)]
        with pytest.raises(ConfigError, match="need 1 environment, got 2"):
            dqn_train(envs, [tiny_workload()], TrainConfig(), dqn=DqnConfig())

    def test_training_reproducible(self, desk_vms):
        def run():
            cfg = DqnConfig(episodes=2, buffer_capacity=32, batch_size=4)
            return dqn_train([tiny_env(desk_vms, seed=13)], [tiny_workload()],
                             TrainConfig(seed=13, hidden=(8, 8)), dqn=cfg)

        a, b = run(), run()
        assert [s.reward for s in a.stats] == [s.reward for s in b.stats]
        for pa, pb in zip(a.stores["dqn"].params, b.stores["dqn"].params):
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
        result.stores["actor"].save(path)
        loaded = ParameterStore.load(path)
        summaries = []
        for store in (result.stores["actor"], loaded):
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
            run_baseline("openfaas", *args, first, *config, collect_channels=True, twins=twins)
        assert run_baseline("openfaas", *args, first, *config, twins=twins) is kube
