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
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .agents import aggregate, dqn_train, evaluate_targets, train
from .agents.evaluate import BASELINE_NAMES, load_policy
from .baselines import baseline_policy, run_baseline
from .config import Experiment, load_experiment
from .env import ServerlessEnv
from .errors import ConfigError, FaasLabError, read_text
from .metrics import RewardBounds, derive_bounds
from .nnet import ParameterStore
from .workload import EVAL_BANDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

CURVE_COLUMNS = ("episode", "worker", "beta", "reward", "rfrt", "rfr", "cost")


def _meta_lines(config_hash: str, seed: int | str, mode: str) -> list[str]:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [
        f"# config_hash={config_hash}",
        f"# seed={seed}",
        f"# mode={mode}",
        f"# version={__version__}",
        f"# timestamp={stamp}",
    ]


def write_csv(path: Path, meta: list[str], header: Sequence[str],
              rows: Iterable[Sequence], append: bool = False) -> None:
    """``meta``, ``header`` and ``rows`` to ``path``; only ``rows``, at its end, if ``append``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a" if append else "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not append:
            fh.writelines(line + "\n" for line in meta)
            writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path, columns: Sequence[str] = ()
             ) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Meta, header and rows; ConfigError if a column is missing or a row misshapen."""
    meta: dict[str, str] = {}
    lines: list[str] = []
    for line in read_text(path).splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key] = value
        else:
            lines.append(line)
    header, *rows = list(csv.reader(lines)) or [[]]
    if not set(columns) <= set(header):
        raise ConfigError(f"{path}: missing columns {sorted(set(columns) - set(header))}")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {i} has {len(row)} fields, the header {len(header)}")
    return meta, header, rows


def _load(args: argparse.Namespace) -> Experiment:
    overrides: dict = {}
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["train"] = {"seed": args.seed}
    if getattr(args, "preset", None):
        overrides["preset"] = args.preset
    return load_experiment(args.config, overrides)


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
            del res  # frees this episode's engine before the next one is built
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

def _train_one(exp: Experiment, agent: str, beta: float, workers: Optional[int],
               resume: bool) -> None:
    bounds = RewardBounds.load(exp.calibration_file)
    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    seed = exp.train.seed
    workers = exp.train.workers if workers is None else workers
    if agent == "a3c":
        tag, learn = f"a3c_beta{beta:g}_w{workers}", train
        paths = {name: out / f"{name}_{tag}.npz" for name in ("actor", "critic")}
    else:  # dqn, on one environment, so its names carry no worker count
        tag, learn, workers = f"dqn_beta{beta:g}", partial(dqn_train, dqn=exp.dqn), 1
        paths = {"dqn": out / f"{tag}.npz"}
    envs = [ServerlessEnv(exp.vms, exp.profiles, replace(exp.env, beta=beta, target_mode="random"),
                          exp.sim, bounds, seed=seed + w) for w in range(workers)]
    stores = {name: ParameterStore.load(path) for name, path in paths.items()} if resume else None
    result = learn(envs, exp.train_pool(), replace(exp.train, workers=workers), stores)
    # After the learner has checked the resumed stores, before any file is written.
    curve_path = out / f"curves_{tag}.csv"
    append = resume and curve_path.exists()
    first = _next_episode(curve_path, exp.config_hash, seed) if append else 0
    for name, path in paths.items():
        result.stores[name].save(path)
    write_csv(curve_path, _meta_lines(exp.config_hash, seed, "deterministic"), CURVE_COLUMNS,
              [(first + s.episode, s.worker, f"{beta:g}", f"{s.reward:.9g}", f"{s.rfrt:.9g}",
                f"{s.rfr:.9g}", f"{s.cost:.9g}") for s in result.stats], append=append)
    print(f"trained {tag}: {len(result.stats)} episodes -> {next(iter(paths.values()))}")
    print(f"curves -> {curve_path}")


def _next_episode(path: Path, config_hash: str, seed: int) -> int:
    """The episode after the curve's last, if the curve has this run's config
    hash and seed; a ConfigError naming both values of each that differs."""
    meta, header, rows = read_csv(path, CURVE_COLUMNS)
    diffs = [f"{key} {meta.get(key)} in the file, {ours} in this run"
             for key, ours in (("config_hash", config_hash), ("seed", str(seed)))
             if meta.get(key) != ours]
    if diffs:
        raise ConfigError(f"resumed curve {path} does not match: " + "; ".join(diffs))
    return int(rows[-1][header.index("episode")]) + 1 if rows else 0


def cmd_train(args: argparse.Namespace) -> int:
    exp = _load(args)
    beta = args.beta if args.beta is not None else exp.env.beta
    _train_one(exp, args.agent, beta, args.workers, args.resume)
    return EXIT_OK


def cmd_train_sweep(args: argparse.Namespace) -> int:
    exp = _load(args)
    for beta in exp.beta_list:
        _train_one(exp, args.agent, beta, args.workers, resume=False)
    return EXIT_OK


# ------------------------------------------------------------------ evaluate

def cmd_evaluate(args: argparse.Namespace) -> int:
    exp = _load(args)
    bands = [args.band] if args.band else None
    out = exp.output_dir
    # A checkpoint is labelled by its path relative to the output directory,
    # and each label is evaluated once, however many of the paths name it.
    labels = {t: t if t in BASELINE_NAMES else os.path.relpath(Path(t).resolve(), out.resolve())
              for t in args.targets}
    targets = {label: t for t, label in labels.items()}
    rows = evaluate_targets(list(targets.values()), exp.eval_sets(bands), exp.vms,
                            exp.profiles, exp.env, exp.sim,
                            policy_config=exp.baselines)
    rows = sorted((replace(r, target=labels[r.target]) for r in rows),
                  key=lambda r: (r.target, r.band, r.workload_index))
    meta = _meta_lines(exp.config_hash, exp.train.seed, "deterministic")
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

    lines = [("target", "band", "workloads", "RART", "RFR", "cost")] + [
        (a["target"], a["band"], str(a["workloads"]), f"{a['rart']:.4f}",
         f"{a['rfr']:.4f}", f"{a['cost']:.6f}") for a in agg]
    # Each column is two wider than its longest entry, so no two run together.
    widths = [max(map(len, column)) + 2 for column in zip(*lines)]
    for line in lines:
        print("".join(v.ljust(w) for v, w in zip(line, widths)))
    print(f"wrote {out / 'eval_workloads.csv'} and {out / 'eval_summary.csv'}")
    return EXIT_OK


# -------------------------------------------------------------------- report

def _long_rows(path: Path, keys: Sequence[str], metrics: Sequence[str]
               ) -> tuple[tuple[str, str], list[tuple[str, ...]]]:
    """The ``(config_hash, seed)`` of the CSV at ``path``, and the CSV in long
    format: for each row and then each metric, the row's ``keys`` columns, the
    metric's name and its value."""
    meta, header, rows = read_csv(path, (*keys, *metrics))
    for key in ("config_hash", "seed"):
        if key not in meta:
            raise ConfigError(f"{path}: no '# {key}=' line")
    idx = {name: i for i, name in enumerate(header)}
    return (meta["config_hash"], meta["seed"]), [
        (*(row[idx[key]] for key in keys), metric, row[idx[metric]])
        for row in rows for metric in metrics]


def cmd_report(args: argparse.Namespace) -> int:
    exp = _load(args)
    out = exp.output_dir
    curves = sorted(out.glob("curves_*.csv"))
    eval_path = out / "eval_workloads.csv"
    missing = []
    if not curves:
        missing.append(str(out / "curves_*.csv"))
    if not eval_path.exists():
        missing.append(str(eval_path))
    if missing:
        raise ConfigError("report inputs missing: " + ", ".join(missing))

    # Each output is stamped with the config hash and seed of the files it
    # merges, not with this command's config.
    curve_keys, curve_metrics = ("episode", "worker"), ("reward", "rfrt", "rfr", "cost")
    first_with: dict[tuple[str, str], Path] = {}  # each (config_hash, seed) -> a file with it
    long_rows = []
    for path in curves:
        provenance, rows = _long_rows(path, curve_keys, curve_metrics)
        first_with.setdefault(provenance, path)
        long_rows += [(path.stem.removeprefix("curves_"), *row) for row in rows]
    if len(first_with) > 1:
        a, b = list(first_with.values())[:2]
        raise ConfigError(f"curve files {a} and {b} differ in their # config_hash= "
                          "or # seed= line; report merges the curves of one experiment")
    write_csv(out / "report_curves.csv", _meta_lines(*next(iter(first_with)), "report"),
              ("run", "episode", "worker", "metric", "value"), long_rows)
    provenance, eval_rows = _long_rows(eval_path, ("target", "band", "workload"),
                                       ("rart", "rfr", "cost"))
    write_csv(out / "report_evaluation.csv", _meta_lines(*provenance, "report"),
              ("target", "band", "workload", "metric", "value"), eval_rows)
    print(f"wrote {out / 'report_curves.csv'} ({len(long_rows)} rows) and "
          f"{out / 'report_evaluation.csv'} ({len(eval_rows)} rows)")
    return EXIT_OK


# ------------------------------------------------------------------ simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    exp = _load(args)
    band = args.band or "mid"
    per_band = exp.workload.workloads_per_band
    if not 0 <= args.workload_index < per_band:
        raise ConfigError(f"--workload-index {args.workload_index} outside [0, {per_band})")
    workload = exp.eval_sets([band])[band][args.workload_index]
    policy = (baseline_policy(args.policy, exp.baselines) if args.policy in BASELINE_NAMES
              else load_policy(args.policy, exp.vms, exp.profiles))
    env = ServerlessEnv(exp.vms, exp.profiles, exp.env, exp.sim, log_events=True)
    env.run_episode(workload, policy)
    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / f"events_{Path(args.policy).stem}_{band}_{args.workload_index}.log"
    with log_path.open("w") as fh:
        for entry in env.engine.event_log:
            stamp, kind, *ids = entry
            fh.write(f"{stamp:.6f} {kind} {' '.join(str(i) for i in ids)}\n")
    s = env.ledger.summary()
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

    def common(p: argparse.ArgumentParser, preset: bool = True, seed: bool = False) -> None:
        p.add_argument("--config", default=None, help="YAML experiment config")
        if preset:
            p.add_argument("--preset", choices=("desk", "paper"), default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("calibrate", help="derive reward normalization bounds")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train one agent configuration")
    common(p, seed=True)
    p.add_argument("--agent", choices=("a3c", "dqn"), default="a3c")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-sweep", help="train one run per beta value")
    common(p, seed=True)
    p.add_argument("--agent", choices=("a3c", "dqn"), default="a3c")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_train_sweep)

    p = sub.add_parser("evaluate", help="evaluate checkpoints and baselines")
    common(p, seed=True)
    p.add_argument("--targets", nargs="+", required=True,
                   help=f"checkpoint paths and/or baselines {BASELINE_NAMES}")
    p.add_argument("--band", choices=sorted(EVAL_BANDS), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="merge run artifacts into tidy CSVs")
    common(p, preset=False)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="run one episode with event log")
    common(p)
    p.add_argument("--policy", default="kube_cpu", help=f"checkpoint path or {BASELINE_NAMES}")
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
