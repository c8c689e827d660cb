"""The benchmark's three workloads, each a closed loop of rounds.

The next episode starts when the previous one ends. A round is the smallest
unit the program's own entry point runs (one ``evaluate_targets`` call, one
``train`` call, one calibration episode per band). ``round_s`` is a round's
nominal host time on a 2-core x86 VM: a run does ``--seconds / round_s``
rounds. Each pool holds exactly the inputs of that many rounds at 30 s, so a
run covers its pool once, starting at a position set by the workload seed.
Runs with different seeds then do the same work in a different order, and a
faster or slower host changes the time a run takes, not what it runs. Every
pool episode has a stored reference result (``reference.json``).

Episode boundaries come from public hooks only: the ``run_baseline`` call
inside ``evaluate_targets``, ``ServerlessEnv.reset`` plus the ``on_episode``
callback of ``train``, and the benchmark's own ``run_baseline`` calls. Counts
come from ``engine.requests`` and ``EpisodeLedger.summary``, never from
``engine.event_log``.
"""
from __future__ import annotations

import random
from dataclasses import replace

# Imported before any workload object is built, so set-up time covers them.
import faaslab.agents.a3c as a3c
import faaslab.agents.evaluate as evaluate
import faaslab.baselines as baselines
from faaslab.config import load_experiment
from faaslab.env import ServerlessEnv
from faaslab.metrics import ChannelBounds, EpisodeLedger, RewardBounds
from faaslab.workload import EVAL_BANDS, TRAIN_BAND, make_workload

from recorder import Recorder

# Sorted band order, as Experiment.eval_sets and calibration_sets use it.
BANDS = tuple(sorted(EVAL_BANDS))


def _offset(seed: int | None, cycle: int) -> int:
    return 0 if seed is None else random.Random(seed).randrange(cycle)


def _band_pool(exp, base: int, size: int) -> dict:
    """``size`` banded workloads per band, seeded like Experiment's own sets."""
    return {band: [make_workload(exp.apps, exp.corpus, EVAL_BANDS[band],
                                 exp.workload.duration, base + 100 * b + i,
                                 jitter=exp.workload.jitter)
                   for i in range(size)]
            for b, band in enumerate(BANDS)}


def _g(x: float) -> str:
    return f"{x:.9g}"


class EvalDesk:
    """``faaslab evaluate`` of the three baselines over the three bands at desk scale."""

    name = "eval-desk"
    pool_per_band = 50
    round_s = 6.0

    def __init__(self, seed: int | None, rec: Recorder):
        self.rec = rec
        self.exp = exp = load_experiment(overrides={"preset": "desk"})
        self.per_round = exp.workload.workloads_per_band
        self.pool = _band_pool(exp, 10_000, self.pool_per_band)
        self.offset = _offset(seed, self.pool_per_band)
        self.cycle = self.pool_per_band // self.per_round

    def install(self, patches) -> None:
        rec = self.rec

        def make(run_baseline):
            def hooked(policy, vms, profiles, workload, *args, **kwargs):
                t0 = rec.start()
                res = run_baseline(policy, vms, profiles, workload, *args, **kwargs)
                rec.finish(t0, f"{policy}/{workload.seed}", res.engine, res.summary)
                return res
            return hooked
        patches.replace(evaluate, "run_baseline", make)

    def run_round(self, r: int) -> None:
        exp = self.exp
        start = self.offset + r * self.per_round
        sets = {band: [pool[(start + i) % self.pool_per_band] for i in range(self.per_round)]
                for band, pool in self.pool.items()}
        rows = evaluate.evaluate_targets(evaluate.BASELINE_NAMES, sets, exp.vms,
                                         exp.profiles, exp.env, exp.sim, None,
                                         exp.baselines, parallel=exp.eval_parallel)
        for row in rows:
            seed = sets[row.band][row.workload_index].seed
            self.rec.check_output(f"{row.target}/{seed}",
                                  ",".join(map(_g, (row.rart, row.rfr, row.cost))))


class TrainPaper:
    """Deterministic 3-worker A3C training on the paper cluster with 4 apps."""

    name = "train-paper"
    apps = ("primary", "matmul", "load", "thumbnail")
    keys = 7
    episodes_per_worker = 2
    round_s = 4.3
    # Fixed reward bounds from a kube_cpu calibration over paper-preset
    # workloads, so training needs no calibration file.
    bounds = RewardBounds(rfrt=ChannelBounds(1.0, 5.45), rfr=ChannelBounds(0.0, 0.26),
                          cost=ChannelBounds(0.00065, 0.0038))

    def __init__(self, seed: int | None, rec: Recorder):
        self.rec = rec
        self.exp = exp = load_experiment(
            overrides={"preset": "paper", "applications": list(self.apps)})
        self.config = replace(exp.train, workers=3, episodes=self.episodes_per_worker,
                              sync_mode="deterministic")
        self.env_config = replace(exp.env, target_mode="random")
        size = self.config.workers * self.episodes_per_worker
        self.pools = [[make_workload(exp.apps, exp.corpus, TRAIN_BAND,
                                     exp.workload.duration, 7 + 100 * k + i,
                                     jitter=exp.workload.jitter, training=True)
                       for i in range(size)]
                      for k in range(self.keys)]
        self.offset = _offset(seed, self.keys)
        self.cycle = self.keys
        self._started: dict[int, float] = {}
        self._summaries: dict[int, object] = {}

    def install(self, patches) -> None:
        rec, started, summaries = self.rec, self._started, self._summaries

        def make_reset(reset):
            def hooked(env, *args, **kwargs):
                started[id(env)] = rec.start()
                return reset(env, *args, **kwargs)
            return hooked

        def make_summary(summary):
            def hooked(ledger, *args, **kwargs):
                result = summary(ledger, *args, **kwargs)
                summaries[id(ledger)] = result
                return result
            return hooked
        patches.replace(ServerlessEnv, "reset", make_reset)
        patches.replace(EpisodeLedger, "summary", make_summary)

    def run_round(self, r: int) -> None:
        exp, rec = self.exp, self.rec
        key = (self.offset + r) % self.keys
        config = replace(self.config, seed=7 + key)
        envs = [ServerlessEnv(exp.vms, exp.profiles, self.env_config, exp.sim,
                              self.bounds, seed=config.seed + w)
                for w in range(config.workers)]

        def on_episode(row) -> None:
            env = envs[row.worker]
            name = f"{key}/{row.episode}/{row.worker}"
            rec.finish(self._started.pop(id(env)), name, env.engine,
                       self._summaries.pop(id(env.ledger)))
            rec.check_output(name, ",".join(map(_g, (row.reward, row.rfrt, row.rfr,
                                                     row.cost))))

        a3c.train(envs, self.pools[key], config, on_episode=on_episode)


class CalibratePaper:
    """``faaslab calibrate``: kube_cpu episodes with reward channels, paper preset."""

    name = "calibrate-paper"
    pool_per_band = 28
    round_s = 1.07

    def __init__(self, seed: int | None, rec: Recorder):
        self.rec = rec
        self.exp = exp = load_experiment(overrides={"preset": "paper"})
        self.pool = _band_pool(exp, 50_000, self.pool_per_band)
        self.offset = _offset(seed, self.pool_per_band)
        self.cycle = self.pool_per_band

    def install(self, patches) -> None:
        pass

    def run_round(self, r: int) -> None:
        exp, rec = self.exp, self.rec
        i = (self.offset + r) % self.pool_per_band
        for band in BANDS:
            workload = self.pool[band][i]
            key = f"{band}/{workload.seed}"
            t0 = rec.start()
            res = baselines.run_baseline("kube_cpu", exp.vms, exp.profiles, workload,
                                         exp.env, exp.sim, exp.baselines,
                                         collect_channels=True)
            rec.finish(t0, key, res.engine, res.summary)
            s = res.summary
            bounds = [v for column in zip(*res.channels) for v in (min(column), max(column))]
            rec.check_output(key, ",".join([str(s.total)]
                                           + [_g(v) for v in (s.rart, s.rfr, s.cost, *bounds)]))


WORKLOADS = {cls.name: cls for cls in (EvalDesk, TrainPaper, CalibratePaper)}
