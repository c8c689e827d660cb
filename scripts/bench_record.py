"""Build a ``BENCH_*.json`` record from ``perfbench/run.py`` result files.

    python3 scripts/bench_record.py --pr N --parent SHA --change SHA \\
        --out BENCH_<N>-<slug>.json RESULT.json...

Each result names the commit it ran in ``provenance.git_sha``; that decides
its side, ``parent`` or ``change``. Per run the record keeps the result's
``provenance``, ``correct``, ``attempted``, ``failed``, ``metrics``,
``ref_loop_ms_start`` and ``ref_loop_ms_end`` unedited. A pair is one parent
run and one change run of the same workload and seed; per workload and
end-to-end metric the record counts the pairs the change won, ties counting
for neither side. The metrics and their better direction are read from
``BENCHMARK.json``. Standard library only.
"""
from __future__ import annotations

import argparse
import json
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
    return {"pr": pr, "parent": parent, "change": change, "claim": claim,
            "pairs_won": won, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="full commit hash of the parent side")
    ap.add_argument("--change", required=True, help="full commit hash of the change side")
    ap.add_argument("--claim", default="none",
                    help='"none", or the claimed metric and direction')
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("results", nargs="+", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    try:
        record = build([json.loads(p.read_text()) for p in args.results], args.pr,
                       args.parent, args.change, args.claim, better)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
