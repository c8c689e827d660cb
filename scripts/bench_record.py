"""Build a ``BENCH_*.json`` record from ``perfbench/run.py`` result files.

    python3 scripts/bench_record.py --pr N --parent SHA --change SHA \\
        --out BENCH_<N>-<slug>.json RESULT.json...
    python3 scripts/bench_record.py --check BENCH_*.json

Each result names the commit it ran in ``provenance.git_sha``; that decides
its side, ``parent`` or ``change``. Per run the record keeps the result's
``provenance``, ``correct``, ``attempted``, ``failed``, ``metrics``,
``ref_loop_ms_start`` and ``ref_loop_ms_end`` unedited. A pair is one parent
run and one change run of the same workload and seed; per workload and
end-to-end metric the record counts the pairs the change won, ties counting
for neither side, and keeps each side's median. The metrics and their better
direction are read from ``BENCHMARK.json``. ``--check`` reads records instead
and fails unless every run names its side and carries its tree's
``git_sha`` and ``src_sha256``. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT = ("provenance", "correct", "attempted", "failed", "metrics",
        "ref_loop_ms_start", "ref_loop_ms_end")


def build(results: list[dict], pr: int, parent: str, change: str, claim: str,
          better: dict[str, str]) -> dict:
    """The record of ``results``, each a ``run.py`` result of ``parent`` or ``change``."""
    sides = {parent: "parent", change: "change"}
    runs, by_key = [], {}
    for result in results:
        prov = result["provenance"]
        if prov.get("git_sha") not in sides:
            raise ValueError(f"{prov['workload']} seed {prov['seed']}: git_sha "
                             f"{prov.get('git_sha')} is neither commit")
        side = sides[prov["git_sha"]]
        key = (prov["workload"], prov["seed"], side)
        if key in by_key:
            raise ValueError(f"two {side} runs of {prov['workload']} seed {prov['seed']}")
        by_key[key] = result
        runs.append({"side": side, **{field: result[field] for field in KEPT}})

    won: dict[str, dict[str, dict[str, int]]] = {}
    for (workload, seed, side), ours in sorted(by_key.items()):
        theirs = by_key.get((workload, seed, "parent"))
        if side != "change" or theirs is None:
            continue
        for name, direction in better.items():
            a, b = ours["metrics"][name]["value"], theirs["metrics"][name]["value"]
            count = won.setdefault(workload, {}).setdefault(name, {"won": 0, "pairs": 0})
            count["pairs"] += 1
            count["won"] += a > b if direction == "higher" else a < b
    values: dict[str, dict[str, dict[str, list[float]]]] = {}
    for (workload, _, side), result in sorted(by_key.items()):
        for name in better:
            values.setdefault(workload, {}).setdefault(name, {}).setdefault(side, []).append(
                result["metrics"][name]["value"])
    medians = {workload: {name: {side: statistics.median(v) for side, v in sides.items()}
                          for name, sides in by_name.items()}
               for workload, by_name in values.items()}
    return {"pr": pr, "parent": parent, "change": change, "claim": claim,
            "pairs_won": won, "medians": medians, "runs": runs}


def check(record: dict) -> str | None:
    """Why ``record`` breaks the record format, or None if it keeps it."""
    for i, run in enumerate(record["runs"]):
        prov = run.get("provenance", {})
        if (run.get("side") not in ("parent", "change")
                or not prov.get("git_sha") or not prov.get("src_sha256")):
            return f"run {i} lacks a side, a git_sha or a src_sha256"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true",
                    help="check the record files given, instead of building one")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--parent", help="full commit hash of the parent side")
    ap.add_argument("--change", help="full commit hash of the change side")
    ap.add_argument("--claim", default="none",
                    help='"none", or the claimed metric and direction')
    ap.add_argument("--out", type=Path)
    ap.add_argument("files", nargs="+", type=Path, metavar="FILE",
                    help="run.py results, or with --check the records")
    args = ap.parse_args(argv)
    if args.check:
        for path in args.files:
            record = json.loads(path.read_text())
            problem = check(record)
            if problem:
                print(f"bench_record: {path}: {problem}", file=sys.stderr)
                return 1
            print(f"{path}: {len(record['runs'])} runs")
        return 0
    missing = [f"--{k}" for k in ("pr", "parent", "change", "out") if getattr(args, k) is None]
    if missing:
        ap.error(f"building a record needs {', '.join(missing)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    try:
        record = build([json.loads(p.read_text()) for p in args.files], args.pr,
                       args.parent, args.change, args.claim, better)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
