"""faaslab benchmark: episode throughput of evaluate, train and calibrate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload, both modes

With ``--workload``, one run: the last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced), and the exit code
is 0 only if every episode passed its output check. Without it, every
workload runs untraced and traced and one table prints all metrics.

The workload runs in a fresh process (``episode_loop.py``); set-up time is
sampled in further fresh processes that stop at their first episode start.
End-to-end times are scaled to a reference host speed by a kernel timed next
to them (``hostref.py``). Results, with provenance, go to
``perfbench/results/``. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from hostref import NOMINAL_MS, HostRef

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("eval-desk", "train-paper", "calibrate-paper")
# numpy's BLAS pool gets one thread: its idle thread spins on the second core
# of a small host, slows the host-speed kernel at random, and the networks'
# batches of at most 30 rows gain nothing from it.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6   # set-up-only processes per untraced run, besides the workload's own
RUN_DEADLINE_S = 170.0

END_TO_END = {"episodes_per_s": "1/s", "episode_ms_p50": "ms", "episode_ms_tail": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "workload.synthesize.s": "s", "cluster.load_arrivals.s": "s",
    "cluster.advance.s": "s", "cluster.advance.calls": "count",
    "cluster.route.s": "s", "cluster.route.calls": "count",
    "cluster.route.hit_ratio": "ratio", "cluster.retries_per_request": "retries/req",
    "cluster.requests": "count", "cluster.dropped": "count",
    "cluster.snapshot.s": "s", "cluster.scaling.s": "s",
    "env.reset.s": "s", "env.step.s": "s",
    "metrics.window_channels.s": "s", "metrics.window_channels.calls": "count",
    "metrics.summary.s": "s", "baselines.decide.s": "s",
    "baselines.run_baseline.s": "s",
    "nnet.forward.s": "s", "nnet.backprop.s": "s", "nnet.adam.s": "s",
    "nnet.snapshot.s": "s", "agents.driver.s": "s", "agents.eval_concurrency": "ratio",
    "host.ref_loop_ms": "ms", "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def scaled(host: float, ref_ms: float) -> float:
    """A host time scaled to the reference host speed (see hostref.py)."""
    return host * NOMINAL_MS / ref_ms


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least 10 samples above it, and its percentile.

    With 10 samples or fewer, the maximum at the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "traced": trace,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run episode_loop.py; returns its JSON and its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "episode_loop.py"), *args]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **CHILD_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"no output: {' '.join(cmd)}")
    out = json.loads(lines[-1])
    if out.get("first_episode_t") is None:
        raise BenchError(f"no episode started: {' '.join(cmd)}")
    return out, out["first_episode_t"] - t_spawn


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result record written to results/."""
    if not (ROOT / "src" / "faaslab").is_dir():
        raise BenchError(f"no program source at {ROOT / 'src' / 'faaslab'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    hostref = HostRef()
    ref_start = [hostref.sample() for _ in range(3)]
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # (host seconds, host-speed kernel ms just before the process started)
    setups: list[tuple[float, float]] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            ref = hostref.sample()
            setups.append((_spawn(common + ["--setup-only"], deadline)[1], ref))
    extra = ["--trace", "--spans", str(RESULTS / f"{stem}.spans.bin.gz")] if trace else []
    ref = hostref.sample()
    out, setup = _spawn(common + extra, deadline)
    setups.append((setup, ref))
    ref_end = [hostref.sample() for _ in range(3)]

    episode_ms = out["episode_ms"]
    if not episode_ms:
        raise BenchError(f"{workload}: no episode finished")
    attempted = out["attempted"]
    record = {
        "provenance": {**provenance(workload, seed, seconds, trace), "numpy": out["numpy"]},
        "correct": out["failed"] == 0,
        "attempted": attempted,
        "failed": out["failed"],
        "failures": out["failures"],
        "failed_episode_ratio": out["failed"] / attempted,
        "episodes": len(episode_ms),
        "rounds": len(out["round_s"]),
        "round_s": out["round_s"],
        "round_episodes": out["round_episodes"],
        "phase_s": out["phase_s"],
        "own_s": out["own_s"],
        "episode_ms": episode_ms,
        "episode_ref_ms": out["ref_ms"],
        "setup_s_samples": [host for host, _ in setups],
        "setup_ref_ms": [ref for _, ref in setups],
        "ref_loop_ms_start": ref_start,
        "ref_loop_ms_end": ref_end,
    }
    if trace:
        values = dict(out["layers"])
        values.update({
            "cluster.retries_per_request": out["retries"] / out["requests"],
            "cluster.requests": out["requests"],
            "cluster.dropped": out["dropped"],
            "host.ref_loop_ms": statistics.median(ref_start + ref_end),
        })
        units = PER_LAYER
        record.update(unwrapped=out["unwrapped"], spans=out["spans"],
                      spans_file=f"{stem}.spans.bin.gz")
    else:
        # Every time is scaled to the reference host speed by the kernel
        # timings nearest to it: an episode by the median of those after the
        # episode before it, itself and the one after it (so one disturbed
        # timing moves no episode far), a round by the median of its
        # episodes', a set-up by the one just before it.
        ref_ms = out["ref_ms"]
        episode_scaled = [scaled(ms, statistics.median(ref_ms[max(0, i - 1):i + 2]))
                          for i, ms in enumerate(episode_ms)]
        busy_scaled, first = 0.0, 0
        for host_s, n in zip(out["round_s"], out["round_episodes"]):
            refs = ref_ms[first:first + n] or ref_ms
            busy_scaled += scaled(host_s, statistics.median(refs))
            first += n
        tail_ms, tail_pct = tail(episode_scaled)
        record["episode_ms_tail_percentile"] = tail_pct
        record["host"] = {
            "episodes_per_s": len(episode_ms) / sum(out["round_s"]),
            "episode_ms_p50": statistics.median(episode_ms),
            "episode_ms_tail": tail(episode_ms)[0],
            "setup_s": statistics.median(host for host, _ in setups),
        }
        values = {
            "episodes_per_s": len(episode_ms) / busy_scaled,
            "episode_ms_p50": statistics.median(episode_scaled),
            "episode_ms_tail": tail_ms,
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(scaled(host, ref) for host, ref in setups),
        }
        units = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _describe(record: dict) -> list[str]:
    prov = record["provenance"]
    lines = [f"{prov['workload']} seed={prov['seed']} "
             f"{'traced' if prov['traced'] else 'untraced'}: "
             f"{record['episodes']} episodes in {record['rounds']} rounds, "
             f"failed {record['failed']}/{record['attempted']} "
             f"(failed_episode_ratio={record['failed_episode_ratio']:g} ratio)"]
    host = record.get("host", {})
    for name, m in record["metrics"].items():
        note = f"  (unscaled {host[name]:.6g})" if name in host else ""
        if name == "episode_ms_tail":
            note += (f"  (p{record['episode_ms_tail_percentile']:.1f} of "
                     f"{record['episodes']} episodes)")
        lines.append(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{note}")
    lines.append(f"  host-speed kernel ms: start {statistics.median(record['ref_loop_ms_start']):.2f}"
                 f", end {statistics.median(record['ref_loop_ms_end']):.2f}"
                 f" (nominal {NOMINAL_MS:g})")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload:
            record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(_describe(record)))
            print(json.dumps({key: record[key]
                              for key in ("correct", "attempted", "failed", "metrics")}))
            return 0 if record["correct"] else 1
        correct = True
        for workload in WORKLOADS:
            for trace in (False, True):
                record = run_one(workload, args.seed, args.seconds, trace)
                print("\n".join(_describe(record)), flush=True)
                correct = correct and record["correct"]
        return 0 if correct else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
