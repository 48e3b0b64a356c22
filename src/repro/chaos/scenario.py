"""Declarative, seeded fault scenarios.

A :class:`Scenario` is a timeline of typed injections with *relative*
times: every ``at``/``duration`` is a fraction of the run's horizon
(the fault-free makespan, or an estimate), so the same scenario makes
sense for a 40-second smoke run and a 4-hour campaign.  Resolution to
absolute simulated times happens in :meth:`Scenario.timeline`; victim
selection happens later, inside the :class:`~repro.chaos.inject.
Injector`, because the set of alive workers is only known at fire time.

Both steps draw exclusively from ``RngRegistry(scenario.seed)`` --
never from the workload's streams -- so adding chaos to a run does not
perturb task durations or background preemption, and the same
``Scenario(seed=...)`` produces byte-identical injection timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Tuple

from ..cli import UnknownName

__all__ = [
    "Injection",
    "PreemptionStorm",
    "Blackout",
    "NetworkDegrade",
    "NetworkPartition",
    "StorageBrownout",
    "ReplicaCorruption",
    "StragglerInjection",
    "Scenario",
    "SCENARIOS",
    "get_scenario",
]


@dataclass(frozen=True)
class Injection:
    """Base class: one typed fault on the scenario timeline.

    ``at`` and ``duration`` are fractions of the horizon (0..1); kinds
    without a windowed effect ignore ``duration``.
    """

    kind = "injection"

    at: float = 0.5
    duration: float = 0.0

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class PreemptionStorm(Injection):
    """Kill ``fraction`` of the alive workers, spread uniformly over
    the ``duration`` window (the paper's opportunistic-pool eviction)."""

    kind = "preemption-storm"

    fraction: float = 0.2
    duration: float = 0.1


@dataclass(frozen=True)
class Blackout(Injection):
    """Take ``fraction`` of the workers down at once; replacements
    rejoin (fresh, empty caches) after ``duration``."""

    kind = "blackout"

    fraction: float = 0.25
    duration: float = 0.2


@dataclass(frozen=True)
class NetworkDegrade(Injection):
    """Scale the NIC rates of ``fraction`` of the workers by
    ``factor`` for ``duration`` (congestion / flaky switch)."""

    kind = "network-degrade"

    fraction: float = 0.5
    factor: float = 0.1
    duration: float = 0.2


@dataclass(frozen=True)
class NetworkPartition(Injection):
    """Cut ``fraction`` of the workers off from the rest of the
    cluster (including the manager and each other's peers) for
    ``duration``.  Crossing flows fail immediately."""

    kind = "partition"

    fraction: float = 0.3
    duration: float = 0.1


@dataclass(frozen=True)
class StorageBrownout(Injection):
    """Multiply shared-filesystem metadata latency by
    ``latency_factor`` and scale stream bandwidth by ``bw_factor``
    for ``duration`` (an overloaded HDFS/VAST head node)."""

    kind = "storage-brownout"

    latency_factor: float = 20.0
    bw_factor: float = 0.1
    duration: float = 0.2


@dataclass(frozen=True)
class ReplicaCorruption(Injection):
    """Drop up to ``count`` at-rest intermediate replicas that still
    have pending consumers (silent corruption detected on access);
    last-copy losses surface as ``REPLICA_LOST`` + lineage recovery."""

    kind = "replica-corruption"

    count: int = 5


@dataclass(frozen=True)
class StragglerInjection(Injection):
    """Slow ``count`` workers' effective core speed by ``slowdown``
    (thermal throttling, noisy neighbours)."""

    kind = "straggler"

    count: int = 2
    slowdown: float = 4.0


#: fields scaled by Scenario.scaled(); everything else is left alone.
_INTENSITY_FIELDS = ("fraction", "count")


@dataclass(frozen=True)
class Scenario:
    """A named, seeded timeline of injections."""

    name: str
    injections: Tuple[Injection, ...]
    seed: int = 7
    description: str = ""

    def timeline(self, horizon: float) -> List[Tuple[float, Injection]]:
        """Resolve relative times against ``horizon`` (seconds).

        Returns ``(t_abs, injection)`` pairs sorted by time (ties keep
        declaration order -- the sort is stable).
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon!r}")
        resolved = [(inj.at * horizon, inj) for inj in self.injections]
        resolved.sort(key=lambda pair: pair[0])
        return resolved

    def scaled(self, intensity: float,
               name: str | None = None) -> "Scenario":
        """A copy with fractions/counts scaled by ``intensity``
        (degradation-curve sweeps).  Fractions are capped at 1.0."""
        if intensity < 0:
            raise ValueError("intensity must be >= 0")
        scaled = []
        for inj in self.injections:
            changes = {}
            for f in fields(inj):
                if f.name not in _INTENSITY_FIELDS:
                    continue
                value = getattr(inj, f.name)
                if f.name == "fraction":
                    changes[f.name] = min(1.0, value * intensity)
                else:
                    changes[f.name] = max(0, int(round(value * intensity)))
            scaled.append(replace(inj, **changes) if changes else inj)
        return Scenario(
            name=name or f"{self.name}-x{intensity:g}",
            injections=tuple(scaled), seed=self.seed,
            description=self.description)

    def describe(self) -> Dict[str, object]:
        """JSON-able summary (recorded in the txlog RUN header)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "injections": [inj.describe() for inj in self.injections],
        }


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            name="smoke",
            description="tiny storm for CI: 15% of workers over a "
                        "short window",
            injections=(PreemptionStorm(at=0.3, fraction=0.15,
                                        duration=0.1),)),
        Scenario(
            name="preempt-storm-20",
            description="the paper's opportunistic-pool setting: 20% "
                        "of workers preempted mid-run",
            injections=(PreemptionStorm(at=0.25, fraction=0.20,
                                        duration=0.20),)),
        Scenario(
            name="preempt-storm-50",
            description="half the pool evicted mid-run",
            injections=(PreemptionStorm(at=0.25, fraction=0.50,
                                        duration=0.20),)),
        Scenario(
            name="blackout-third",
            description="a rack goes dark, replacements arrive later",
            injections=(Blackout(at=0.3, fraction=0.33,
                                 duration=0.25),)),
        Scenario(
            name="net-degrade",
            description="half the NICs at 10% bandwidth for a while",
            injections=(NetworkDegrade(at=0.2, fraction=0.5,
                                       factor=0.1, duration=0.3),)),
        Scenario(
            name="partition-brief",
            description="30% of workers briefly partitioned away",
            injections=(NetworkPartition(at=0.3, fraction=0.3,
                                         duration=0.1),)),
        Scenario(
            name="storage-brownout",
            description="shared filesystem head node overloaded",
            injections=(StorageBrownout(at=0.2, latency_factor=50.0,
                                        bw_factor=0.05,
                                        duration=0.3),)),
        Scenario(
            name="corrupt-replicas",
            description="silent corruption of hot intermediates",
            injections=(ReplicaCorruption(at=0.4, count=8),
                        ReplicaCorruption(at=0.6, count=8))),
        Scenario(
            name="stragglers",
            description="a few workers throttle to quarter speed",
            injections=(StragglerInjection(at=0.1, count=3,
                                           slowdown=4.0),)),
        Scenario(
            name="kitchen-sink",
            description="storm + brownout + stragglers together",
            injections=(StragglerInjection(at=0.1, count=2,
                                           slowdown=4.0),
                        StorageBrownout(at=0.2, latency_factor=20.0,
                                        bw_factor=0.1, duration=0.2),
                        PreemptionStorm(at=0.4, fraction=0.15,
                                        duration=0.15))),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a named scenario (case-insensitive)."""
    scenario = SCENARIOS.get(name) or SCENARIOS.get(name.lower())
    if scenario is None:
        raise UnknownName(f"unknown scenario {name!r}; "
                          f"have {sorted(SCENARIOS)}")
    return scenario
