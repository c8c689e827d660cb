"""Episode and window metrics: response-time ratios, failure rates, VM cost,
reward shaping, and calibration bounds for reward normalization.

The per-window RFRT and RFR formulas are ``ClusterEngine.window_rfrt`` and
``window_rfr``; VM cost is the integral of each VM's busy log
(``VmState.busy_overlap``), over a window or over the whole episode."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import yaml

from .cluster import ClusterEngine
from .errors import ConfigError, MetricsError

_DEGENERATE_SPAN = 1e-12


@dataclass(frozen=True)
class ChannelBounds:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"channel bounds must be finite with lo < hi, "
                              f"got ({self.lo}, {self.hi})")

    def normalize(self, value: float) -> float:
        return min(1.0, max(0.0, (value - self.lo) / (self.hi - self.lo)))


@dataclass(frozen=True)
class RewardBounds:
    """Per-channel min/max observed during calibration runs."""

    rfrt: ChannelBounds
    rfr: ChannelBounds
    cost: ChannelBounds

    def save(self, path: str | Path) -> None:
        data = {name: {"min": getattr(self, name).lo, "max": getattr(self, name).hi}
                for name in ("rfrt", "rfr", "cost")}
        Path(path).write_text(yaml.safe_dump(data, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RewardBounds":
        path = Path(path)
        if not path.exists():
            raise MetricsError(
                f"calibration file {path} not found; run `faaslab calibrate` first")
        try:
            data = yaml.safe_load(path.read_text())
            return cls(**{name: ChannelBounds(lo=float(data[name]["min"]),
                                              hi=float(data[name]["max"]))
                          for name in ("rfrt", "rfr", "cost")})
        except (yaml.YAMLError, KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: malformed calibration file ({exc})") from None


def derive_bounds(samples: Sequence[tuple[float, float, float]]) -> RewardBounds:
    """Per-channel (min, max) over calibration step samples (rfrt, rfr, cost).

    A channel that never moved falls back to a documented default span; a
    calibration where nothing moved at all is rejected as degenerate.
    """
    if not samples:
        raise ConfigError("no calibration samples collected")
    cols = list(zip(*samples))
    spans = [max(c) - min(c) for c in cols]
    if all(s < _DEGENERATE_SPAN for s in spans):
        raise ConfigError("degenerate calibration: no channel moved (zero-traffic workloads?)")
    fallbacks = (
        lambda v: ChannelBounds(min(1.0, v), max(2.0, 2.0 * v)),          # rfrt
        lambda v: ChannelBounds(0.0, 1.0),                                 # rfr
        lambda v: ChannelBounds(0.0, max(1e-6, 2.0 * v)),                  # cost
    )
    channels = []
    for col, span, fallback in zip(cols, spans, fallbacks):
        if span < _DEGENERATE_SPAN:
            channels.append(fallback(col[0]))
        else:
            channels.append(ChannelBounds(min(col), max(col)))
    return RewardBounds(rfrt=channels[0], rfr=channels[1], cost=channels[2])


class EpisodeLedger:
    """Read-only metric views over one engine's recorded request history."""

    def __init__(self, engine: ClusterEngine):
        self.engine = engine

    # ----------------------------------------------------------- window views

    def window_cost(self, t0: float, t1: float) -> float:
        """VM cost of the busy time inside [t0, t1], summed over VMs."""
        return sum(vm.spec.unit_price * vm.busy_overlap(t0, t1) / 3600.0
                   for vm in self.engine.vms.values())

    def window_channels(self, t0: float, t1: float) -> tuple[float, float, float]:
        """(mean RFRT, mean RFR, cost) over all deployed functions in (t0, t1]."""
        engine = self.engine
        fns = engine.deployed_fns
        rfrt = sum(engine.window_rfrt(fn, t0, t1) for fn in fns) / len(fns)
        rfr = sum(engine.window_rfr(fn, t0, t1) for fn in fns) / len(fns)
        return rfrt, rfr, self.window_cost(t0, t1)

    # ---------------------------------------------------------- episode view

    def summary(self) -> "EpisodeMetrics":
        """The episode's metrics, computed here and nowhere else.

        RART: mean over applications of their completed chains' mean ratio
        (``chain_ratios`` summed in root-id order), NaN with no completed chain.
        RFR: drops over requests (0.0 with none). RFRT: mean ratio of completed
        requests (1.0 with none). Cost: VM cost from time 0 to the clock."""
        engine = self.engine
        means = [sum(ratios[root] for root in sorted(ratios)) / len(ratios)
                 for ratios in engine.chain_ratios.values() if ratios]
        ratios = [r for fn in engine.deployed_fns for r in engine.completion_ratios[fn]]
        total = len(engine.requests)
        return EpisodeMetrics(
            rart=sum(means) / len(means) if means else math.nan,
            rfr=engine.dropped_total / total if total else 0.0,
            cost=self.window_cost(0.0, engine.clock),
            rfrt=sum(ratios) / len(ratios) if ratios else 1.0,
            completed=engine.completed_total,
            dropped=engine.dropped_total,
            total=total,
        )


@dataclass(frozen=True)
class EpisodeMetrics:
    rart: float
    rfr: float
    cost: float
    rfrt: float
    completed: int
    dropped: int
    total: int


def step_reward(channels: tuple[float, float, float], bounds: RewardBounds | None,
                beta: float) -> float:
    """Blended negative reward in [-1, 0] for one observation window.

    The performance term averages the normalized RFRT and RFR channels; the
    cost term is the normalized cost accrued over the window. Values outside
    the calibrated bounds clamp to the [0, 1] edges.
    """
    if bounds is None:
        raise MetricsError("reward bounds not calibrated; run `faaslab calibrate` first")
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    rfrt, rfr, cost = channels
    r1 = 0.5 * (bounds.rfrt.normalize(rfrt) + bounds.rfr.normalize(rfr))
    r2 = bounds.cost.normalize(cost)
    return -(beta * r1 + (1.0 - beta) * r2)
