"""Span tracing from outside the program: wrap faaslab's public calls in place.

Nothing under ``src/`` is edited. ``Patches`` swaps a function or method for a
wrapper and can put every original back. ``Tracer`` makes the wrappers: each
call records one span (id, name, start, end, parent span, episode span) in
memory and adds its *self time* -- its duration minus the time of the traced
calls made inside it -- to a per-name total. The per-layer metrics are these
totals plus a few call counts.

The tracer keeps one span stack, so it assumes the traced calls run on one
thread (``eval_parallel`` is 1 in every workload).
"""
from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name, flags). Several functions may share a
# span name; their times add up under that name. "episode" marks the call
# that drives one whole episode, "hit" counts calls returning something other
# than None.
LAYERS = (
    ("faaslab.workload", "synthesize", "workload.synthesize", ()),
    ("faaslab.cluster", "ClusterEngine.load_arrivals", "cluster.load_arrivals", ()),
    ("faaslab.cluster", "ClusterEngine.advance", "cluster.advance", ()),
    ("faaslab.cluster", "ClusterEngine.route_request", "cluster.route", ("hit",)),
    ("faaslab.cluster", "ClusterEngine.snapshot", "cluster.snapshot", ()),
    ("faaslab.cluster", "ClusterEngine.horizontal_delta", "cluster.scaling", ()),
    ("faaslab.cluster", "ClusterEngine.apply_horizontal", "cluster.scaling", ()),
    ("faaslab.cluster", "ClusterEngine.clamp_vertical", "cluster.scaling", ()),
    ("faaslab.cluster", "ClusterEngine.apply_vertical", "cluster.scaling", ()),
    ("faaslab.env", "ServerlessEnv.reset", "env.reset", ()),
    ("faaslab.env", "ServerlessEnv.step", "env.step", ()),
    ("faaslab.metrics", "EpisodeLedger.window_channels", "metrics.window_channels", ()),
    ("faaslab.metrics", "EpisodeLedger.summary", "metrics.summary", ()),
    ("faaslab.baselines", "decide", "baselines.decide", ()),
    ("faaslab.baselines", "run_baseline", "baselines.run_baseline", ("episode",)),
    ("faaslab.nnet", "forward_actor", "nnet.forward", ()),
    ("faaslab.nnet", "forward_critic", "nnet.forward", ()),
    ("faaslab.nnet", "forward_heads", "nnet.forward", ()),
    ("faaslab.nnet", "actor_loss_and_grad", "nnet.backprop", ()),
    ("faaslab.nnet", "critic_loss_and_grad", "nnet.backprop", ()),
    ("faaslab.nnet", "q_loss_and_grad", "nnet.backprop", ()),
    ("faaslab.nnet", "ParameterStore.apply", "nnet.adam", ()),
    ("faaslab.nnet", "ParameterStore.snapshot", "nnet.snapshot", ()),
    ("faaslab.agents.evaluate", "evaluate_targets", "agents.driver", ()),
    ("faaslab.agents.a3c", "train", "agents.driver", ()),
    ("faaslab.agents.a3c", "_Worker.run_episode", "agents.driver", ("episode",)),
)

# Span names whose self time the benchmark reports, in report order.
TIMED = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))
COUNTED = ("cluster.advance", "cluster.route", "metrics.window_channels")


class Patches:
    """Replacements of module and class attributes that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def replace_everywhere(self, module, name: str, make) -> None:
        """Replace a module function in every faaslab module that imported it."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "faaslab" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory span recorder with per-name self time and call counts.

    Span ``i`` is the ``i``-th traced call to start. Spans are stored column by
    column in compact arrays, since a traced run makes millions of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.episode_of = array("i")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.missing: list[str] = []
        self.episode = -1
        self._stack: list[list] = []

    def wrap(self, fn, name: str, flags=()):
        """``fn`` wrapped to record one span named ``name`` per call."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent_of, episode_of, stack = self.parent, self.episode_of, self._stack
        self_s, calls, hits = self.self_s, self.calls, self.hits
        clock = time.perf_counter
        episode, hit = "episode" in flags, "hit" in flags
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            if episode:
                tracer.episode = sid
            name_of.append(code)
            parent_of.append(stack[-1][0] if stack else -1)
            episode_of.append(tracer.episode)
            end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[sid] = t1
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if episode:
                    tracer.episode = -1
            if hit and result is not None:
                hits[name] += 1
            return result

        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every entry of ``LAYERS`` that exists in the imported program.

        An entry the program no longer has is listed in ``missing`` and its
        metrics read 0, so a refactor shows in the results instead of
        crashing the benchmark.
        """
        for module_name, path, name, flags in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{path}")
                continue
            make = lambda fn, name=name, flags=flags: self.wrap(fn, name, flags)
            if owners:
                patches.replace(owner, attr, make)
            else:
                patches.replace_everywhere(module, attr, make)

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the spans as a gzipped binary file (format in README.md)."""
        header = {"names": self.names, "count": len(self.start), "origin": origin,
                  "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                              ["parent", "i"], ["episode", "i"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.start, self.end, self.parent,
                           self.episode_of):
                column.tofile(fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self seconds per timed span name, call counts, and the route hit ratio."""
    out = {f"{name}.s": tracer.self_s.get(name, 0.0) for name in TIMED}
    for name in COUNTED:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
    route_calls = tracer.calls.get("cluster.route", 0)
    out["cluster.route.hit_ratio"] = (tracer.hits.get("cluster.route", 0) / route_calls
                                      if route_calls else 0.0)
    return out
