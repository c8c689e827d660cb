"""Run one workload's closed episode loop in a fresh process.

Started by ``run.py``; prints one JSON object as its last line of standard
output. The program is imported from ``src/`` of the checkout that holds this
file, never from an installed copy.

A run does a fixed number of rounds, ``--seconds`` / the workload's nominal
round time, so two runs with one seed do identical work. Untraced, the
host-speed kernel (``hostref.py``) is timed after every episode. Traced, the
process first runs round 0 without spans, to measure the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from recorder import Recorder, SetupDone

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import faaslab
    if SRC.resolve() not in Path(faaslab.__file__).resolve().parents:
        raise ImportError(f"faaslab was imported from {faaslab.__file__}, not {SRC}")


def _round_s(workload, rec, r: int) -> float:
    """Host seconds of one round, less the benchmark's own time in it."""
    rec.round = r
    own0 = rec.own_s
    t0 = time.perf_counter()
    workload.run_round(r)
    return time.perf_counter() - t0 - (rec.own_s - own0)


def _phase(workload, rec, rounds: int) -> tuple[list[float], list[int], float]:
    """Run rounds 0 .. rounds-1; returns the per-round times, the episodes
    finished in each round and the phase's host seconds. An exception ends the
    phase and counts as a failed episode."""
    t0 = time.perf_counter()
    round_s: list[float] = []
    round_episodes: list[int] = []
    try:
        for r in range(rounds):
            done = len(rec.episode_ms)
            round_s.append(_round_s(workload, rec, r))
            round_episodes.append(len(rec.episode_ms) - done)
    except SetupDone:
        raise
    except Exception as exc:  # noqa: BLE001 - counted as a failed episode
        import traceback
        traceback.print_exc()
        rec.fail("exception", f"{type(exc).__name__}: {exc}")
    return round_s, round_episodes, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit at the first episode start (one set-up time sample)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="file for the traced spans (gzipped, binary)")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        ap.error("the output check needs assert statements; run without -O")

    _import_program()
    from spans import Patches, Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    reference = json.loads(Path(__file__).with_name("reference.json").read_text())
    rec = Recorder(reference[cls.name], setup_only=args.setup_only,
                   host_reference=not args.trace)
    workload = cls(args.seed, rec)
    patches = Patches()
    workload.install(patches)
    out: dict = {}
    rounds = max(1, round(args.seconds / cls.round_s))
    try:
        if args.trace:
            untraced_round0 = _round_s(workload, rec, 0)
            patches.restore()
            tracer = Tracer()
            tracer.install(patches)
            workload.install(patches)
            rec.check_episode = tracer.wrap(rec.check_episode, "bench.check")
            rec.check_output = tracer.wrap(rec.check_output, "bench.check")
            rec.new_phase()
            origin = time.perf_counter()
        round_s, round_episodes, phase_s = _phase(workload, rec, rounds)
    except SetupDone:
        out["first_episode_t"] = rec.first_start
        print(json.dumps(out))
        return 0
    finally:
        patches.restore()

    import numpy
    out.update({
        "first_episode_t": rec.first_start,
        "round_s": round_s,
        "round_episodes": round_episodes,
        "episode_ms": rec.episode_ms,
        "ref_ms": rec.ref_ms,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": [f"round {r} {key}: {'; '.join(reasons)}"
                     for (r, key), reasons in list(rec.failures.items())[:20]],
        "phase_s": phase_s,
        "own_s": rec.own_s,
        "requests": rec.requests,
        "dropped": rec.dropped,
        "retries": rec.retries,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    })
    if args.trace:
        layers = layer_metrics(tracer)
        busy = phase_s - rec.own_s
        layers["agents.eval_concurrency"] = sum(rec.episode_ms) / 1e3 / busy
        layers["trace.overhead_ratio"] = (round_s[0] / untraced_round0
                                          if round_s else 0.0)
        out.update(layers=layers, unwrapped=tracer.missing, spans=len(tracer.start))
        if args.spans is not None:
            tracer.write_spans(args.spans, origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
