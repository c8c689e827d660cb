"""Experiment runner: calibrate, train, sweep, evaluate, report, simulate.

Every command is driven by one YAML config (all values defaulted from the
chosen preset) plus a few flag overrides. Outputs are CSV files with a
metadata comment header (config hash, seed, mode, version, timestamp); the
timestamp line is informational and excluded from reproducibility checks.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .agents import aggregate, dqn_train, evaluate_targets, train
from .agents.evaluate import BASELINE_NAMES
from .baselines import run_baseline
from .config import Experiment, load_experiment
from .env import ServerlessEnv
from .errors import ConfigError, FaasLabError
from .metrics import RewardBounds, derive_bounds
from .nnet import ParameterStore
from .workload import EVAL_BANDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

CURVE_COLUMNS = ("episode", "worker", "beta", "reward", "rfrt", "rfr", "cost")


def _meta_lines(exp: Experiment, seed: int, mode: str) -> list[str]:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [
        f"# config_hash={exp.config_hash}",
        f"# seed={seed}",
        f"# mode={mode}",
        f"# version={__version__}",
        f"# timestamp={stamp}",
    ]


def write_csv(path: Path, meta: list[str], header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in meta:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with path.open() as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key] = value
                continue
            if not header:
                header = line.split(",")
            else:
                rows.append(next(csv.reader([line])))
    return meta, header, rows


def _load(args: argparse.Namespace) -> Experiment:
    overrides: dict = {}
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["train"] = {"seed": args.seed}
        overrides["dqn"] = {"seed": args.seed}
    if getattr(args, "preset", None):
        overrides["preset"] = args.preset
    exp = load_experiment(args.config, overrides)
    return exp


# ----------------------------------------------------------------- calibrate

def cmd_calibrate(args: argparse.Namespace) -> int:
    exp = _load(args)
    samples: list[tuple[float, float, float]] = []
    total_requests = 0
    for band, workloads in sorted(exp.calibration_sets().items()):
        for workload in workloads:
            res = run_baseline("kube_cpu", exp.vms, exp.profiles, workload,
                               exp.env, exp.sim, exp.baselines,
                               collect_channels=True)
            samples.extend(res.channels)
            total_requests += res.summary.total
    if total_requests == 0:
        source = ("workload.constant_rate" if exp.workload.constant_rate is not None
                  else "traces_file")
        raise ConfigError(f"calibration workloads carried no traffic (from {source}); "
                          "bounds would be degenerate")
    bounds = derive_bounds(samples)
    exp.calibration_file.parent.mkdir(parents=True, exist_ok=True)
    bounds.save(exp.calibration_file)
    print(f"calibrated over {len(samples)} steps, {total_requests} requests")
    for name in ("rfrt", "rfr", "cost"):
        ch = getattr(bounds, name)
        print(f"  {name}: min={ch.lo:.6g} max={ch.hi:.6g}")
    print(f"wrote {exp.calibration_file}")
    return EXIT_OK


# --------------------------------------------------------------------- train

def _train_one(exp: Experiment, agent: str, beta: float, workers: int,
               resume: bool) -> Path:
    bounds = RewardBounds.load(exp.calibration_file)
    env_cfg = replace(exp.env, beta=beta, target_mode="random")
    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    pool = exp.train_pool()

    if agent == "a3c":
        tag = f"a3c_beta{beta:g}_w{workers}"
        cfg = replace(exp.train, workers=workers)
        envs = [ServerlessEnv(exp.vms, exp.profiles, env_cfg, exp.sim, bounds,
                              seed=cfg.seed + w) for w in range(workers)]
        actor_path = out / f"actor_{tag}.npz"
        critic_path = out / f"critic_{tag}.npz"
        actor = ParameterStore.load(actor_path) if resume else None
        critic = ParameterStore.load(critic_path) if resume else None
        result = train(envs, pool, cfg, actor_store=actor, critic_store=critic)
        result.actor.save(actor_path)
        result.critic.save(critic_path)
        stats = result.stats
        seed = cfg.seed
        checkpoint = actor_path
    else:  # dqn; argparse allows only the two
        tag = f"dqn_beta{beta:g}"  # one environment: no worker count
        cfg = exp.dqn
        env = ServerlessEnv(exp.vms, exp.profiles, env_cfg, exp.sim, bounds,
                            seed=cfg.seed)
        q_path = out / f"{tag}.npz"
        store = ParameterStore.load(q_path) if resume else None
        result = dqn_train(env, pool, cfg, store=store)
        result.store.save(q_path)
        stats = result.stats
        seed = cfg.seed
        checkpoint = q_path

    curve_path = out / f"curves_{tag}.csv"
    write_csv(curve_path, _meta_lines(exp, seed, "deterministic"), CURVE_COLUMNS,
              [(s.episode, s.worker, f"{beta:g}", f"{s.reward:.9g}",
                f"{s.rfrt:.9g}", f"{s.rfr:.9g}", f"{s.cost:.9g}") for s in stats])
    print(f"trained {tag}: {len(stats)} episodes -> {checkpoint}")
    print(f"curves -> {curve_path}")
    return checkpoint


def cmd_train(args: argparse.Namespace) -> int:
    exp = _load(args)
    beta = args.beta if args.beta is not None else exp.env.beta
    workers = args.workers if args.workers is not None else exp.train.workers
    _train_one(exp, args.agent, beta, workers, args.resume)
    return EXIT_OK


def cmd_train_sweep(args: argparse.Namespace) -> int:
    exp = _load(args)
    workers = args.workers if args.workers is not None else exp.train.workers
    for beta in exp.beta_list:
        _train_one(exp, args.agent, beta, workers, resume=False)
    return EXIT_OK


# ------------------------------------------------------------------ evaluate

def cmd_evaluate(args: argparse.Namespace) -> int:
    exp = _load(args)
    bands = [args.band] if args.band else None
    rows = evaluate_targets(args.targets, exp.eval_sets(bands), exp.vms,
                            exp.profiles, exp.env, exp.sim,
                            policy_config=exp.baselines)
    out = exp.output_dir
    # A checkpoint is labelled by its path relative to the output directory,
    # so an absolute and a relative path to one file give the same CSVs.
    labels = {t: t if t in BASELINE_NAMES else os.path.relpath(Path(t).resolve(), out.resolve())
              for t in args.targets}
    rows = sorted((replace(r, target=labels[r.target]) for r in rows),
                  key=lambda r: (r.target, r.band, r.workload_index))
    meta = _meta_lines(exp, exp.train.seed, "deterministic")
    write_csv(out / "eval_workloads.csv", meta,
              ("target", "band", "workload", "rart", "rfr", "cost"),
              [(r.target, r.band, r.workload_index, f"{r.rart:.9g}",
                f"{r.rfr:.9g}", f"{r.cost:.9g}") for r in rows])

    agg = aggregate(rows)
    reference = {(a["band"]): a for a in agg if a["target"] == "kube_cpu"}

    def rel(a: dict, key: str) -> float:
        ref = reference.get(a["band"])
        if ref is None or not ref[key] or math.isnan(a[key]) or math.isnan(ref[key]):
            return math.nan
        return (ref[key] - a[key]) / ref[key]

    header = ("target", "band", "workloads", "rart", "rfr", "cost",
              "rel_rart_vs_kube_cpu", "rel_rfr_vs_kube_cpu", "rel_cost_vs_kube_cpu")
    table = [(a["target"], a["band"], a["workloads"], f"{a['rart']:.9g}",
              f"{a['rfr']:.9g}", f"{a['cost']:.9g}", f"{rel(a, 'rart'):.9g}",
              f"{rel(a, 'rfr'):.9g}", f"{rel(a, 'cost'):.9g}") for a in agg]
    write_csv(out / "eval_summary.csv", meta, header, table)

    widths = (24, 6, 9, 12, 12, 12)
    print("".join(h.ljust(w) for h, w in zip(("target", "band", "workloads",
                                              "RART", "RFR", "cost"), widths)))
    for a in agg:
        print("".join(str(v).ljust(w) for v, w in zip(
            (a["target"], a["band"], a["workloads"], f"{a['rart']:.4f}",
             f"{a['rfr']:.4f}", f"{a['cost']:.6f}"), widths)))
    print(f"wrote {out / 'eval_workloads.csv'} and {out / 'eval_summary.csv'}")
    return EXIT_OK


# -------------------------------------------------------------------- report

def cmd_report(args: argparse.Namespace) -> int:
    exp = _load(args)
    run_dir = Path(args.run_dir) if args.run_dir else exp.output_dir
    curves = sorted(run_dir.glob("curves_*.csv"))
    eval_path = run_dir / "eval_workloads.csv"
    missing = []
    if not curves:
        missing.append(str(run_dir / "curves_*.csv"))
    if not eval_path.exists():
        missing.append(str(eval_path))
    if missing:
        raise ConfigError("report inputs missing: " + ", ".join(missing))

    meta = _meta_lines(exp, exp.train.seed, "report")
    long_rows = []
    for path in curves:
        tag = path.stem.removeprefix("curves_")
        _, header, rows = read_csv(path)
        idx = {name: i for i, name in enumerate(header)}
        for row in rows:
            for metric in ("reward", "rfrt", "rfr", "cost"):
                long_rows.append((tag, row[idx["episode"]], row[idx["worker"]],
                                  metric, row[idx[metric]]))
    write_csv(run_dir / "report_curves.csv", meta,
              ("run", "episode", "worker", "metric", "value"), long_rows)

    _, header, rows = read_csv(eval_path)
    idx = {name: i for i, name in enumerate(header)}
    eval_rows = []
    for row in rows:
        for metric in ("rart", "rfr", "cost"):
            eval_rows.append((row[idx["target"]], row[idx["band"]],
                              row[idx["workload"]], metric, row[idx[metric]]))
    write_csv(run_dir / "report_evaluation.csv", meta,
              ("target", "band", "workload", "metric", "value"), eval_rows)
    print(f"wrote {run_dir / 'report_curves.csv'} "
          f"({len(long_rows)} rows) and {run_dir / 'report_evaluation.csv'} "
          f"({len(eval_rows)} rows)")
    return EXIT_OK


# ------------------------------------------------------------------ simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    exp = _load(args)
    band = args.band or "mid"
    per_band = exp.workload.workloads_per_band
    if not 0 <= args.workload_index < per_band:
        raise ConfigError(f"--workload-index {args.workload_index} outside [0, {per_band})")
    workload = exp.eval_sets([band])[band][args.workload_index]
    res = run_baseline(args.policy, exp.vms, exp.profiles, workload, exp.env,
                       exp.sim, exp.baselines, log_events=True)
    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / f"events_{args.policy}_{band}_{args.workload_index}.log"
    with log_path.open("w") as fh:
        for entry in res.engine.event_log:
            stamp, kind, *ids = entry
            fh.write(f"{stamp:.6f} {kind} {' '.join(str(i) for i in ids)}\n")
    s = res.summary
    print(f"policy={args.policy} band={band} requests={s.total} "
          f"completed={s.completed} dropped={s.dropped}")
    rart = "n/a" if math.isnan(s.rart) else f"{s.rart:.4f}"
    print(f"RART={rart} RFR={s.rfr:.4f} cost={s.cost:.6f}")
    print(f"event log -> {log_path}")
    return EXIT_OK


# ---------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faaslab",
        description="Serverless autoscaling laboratory: simulate, calibrate, "
                    "train, evaluate, and report.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="YAML experiment config")
        p.add_argument("--preset", choices=("desk", "paper"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("calibrate", help="derive reward normalization bounds")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train one agent configuration")
    common(p)
    p.add_argument("--agent", choices=("a3c", "dqn"), default="a3c")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-sweep", help="train one run per beta value")
    common(p)
    p.add_argument("--agent", choices=("a3c", "dqn"), default="a3c")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_train_sweep)

    p = sub.add_parser("evaluate", help="evaluate checkpoints and baselines")
    common(p)
    p.add_argument("--targets", nargs="+", required=True,
                   help=f"checkpoint paths and/or baselines {BASELINE_NAMES}")
    p.add_argument("--band", choices=sorted(EVAL_BANDS), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="merge run artifacts into tidy CSVs")
    common(p)
    p.add_argument("--run-dir", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="run one baseline episode with event log")
    common(p)
    p.add_argument("--policy", choices=sorted(BASELINE_NAMES), default="kube_cpu")
    p.add_argument("--band", choices=sorted(EVAL_BANDS), default=None)
    p.add_argument("--workload-index", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FaasLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - surfaced with a stable exit code
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
