"""Regenerate ``reference.json``: the stored result of every pool episode.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's whole input pool once and stores every episode's result
in the CSV formatting (``.9g``). Run it only when a change is meant to alter
simulated results; a change that claims to keep behaviour must leave the file
as it is, and the benchmark then fails on any episode whose result moved.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from episode_loop import _import_program
from recorder import Recorder

REFERENCE = Path(__file__).with_name("reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    _import_program()
    from spans import Patches
    from workloads import WORKLOADS

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workload or list(WORKLOADS):
        cls = WORKLOADS[name]
        rec = Recorder(None)
        workload = cls(None, rec)
        patches = Patches()
        workload.install(patches)
        try:
            for r in range(workload.cycle):
                rec.round = r
                workload.run_round(r)
        finally:
            patches.restore()
        if rec.failures:
            for (r, key), reasons in rec.failures.items():
                print(f"{name} round {r} {key}: {'; '.join(reasons)}", file=sys.stderr)
            return 1
        reference[name] = dict(sorted(rec.recorded.items()))
        print(f"{name}: {len(rec.recorded)} episodes", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
