"""Per-episode timing, counts and output checks for one phase of a run."""
from __future__ import annotations

import time

from hostref import HostRef


class SetupDone(Exception):
    """Raised at the first episode start of a set-up-only process."""


class Recorder:
    """Episode times, counts and check failures of one phase of a run."""

    def __init__(self, reference: dict[str, str] | None, setup_only: bool = False,
                 host_reference: bool = False):
        # With no reference, results are recorded instead of checked.
        self.reference = reference
        # With host_reference, the host-speed kernel is timed after every
        # episode; it is built at the first episode end, outside set-up time.
        self.host_reference = host_reference
        self.hostref = None
        self.recorded: dict[str, str] = {}
        self.setup_only = setup_only
        self.first_start: float | None = None
        self.round = 0
        self.new_phase()

    def new_phase(self) -> None:
        self.episode_ms: list[float] = []
        self.ref_ms: list[float] = []
        self.attempted = 0
        self.own_s = 0.0  # the benchmark's own time in the phase: checks, host reference
        self.failures: dict[tuple[int, str], list[str]] = {}
        self.requests = 0
        self.dropped = 0
        self.retries = 0

    def start(self) -> float:
        """Mark an episode start; returns its host time."""
        if self.first_start is None:
            self.first_start = time.clock_gettime(time.CLOCK_MONOTONIC)
            if self.setup_only:
                raise SetupDone
        self.attempted += 1
        return time.perf_counter()

    def finish(self, t0: float, key: str, engine, summary) -> None:
        """Mark an episode end and check the finished engine and summary."""
        t1 = time.perf_counter()
        self.episode_ms.append((t1 - t0) * 1e3)
        if self.host_reference:
            if self.hostref is None:
                self.hostref = HostRef()
            self.ref_ms.append(self.hostref.sample())
        self.check_episode(key, engine, summary)
        self.own_s += time.perf_counter() - t1

    def check_episode(self, key: str, engine, summary) -> None:
        if summary.completed + summary.dropped != summary.total:
            self.fail(key, f"completed {summary.completed} + dropped {summary.dropped}"
                           f" != total {summary.total}")
        try:
            engine.check_invariants()
        except AssertionError as exc:
            self.fail(key, f"check_invariants: {exc}")
        requests = engine.requests
        self.requests += len(requests)
        self.dropped += summary.dropped
        self.retries += sum(r.retries for r in requests.values())

    def check_output(self, key: str, text: str) -> None:
        """Compare one episode's result, formatted as in the CSVs, to the reference."""
        t0 = time.perf_counter()
        if self.reference is None:
            self.recorded[key] = text
        elif self.reference.get(key) != text:
            self.fail(key, f"result {text} != reference {self.reference.get(key)}")
        self.own_s += time.perf_counter() - t0

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault((self.round, key), []).append(reason)
