"""A cooperative discrete-time engine for multi-actor scenarios.

Attack-under-noise experiments need an attacker and benign tenants to
share the memory system concurrently.  Each actor exposes
``step(now) -> next_now`` (one small quantum of work); the engine always
advances the actor with the smallest local clock, which serializes the
*submission* order by time while the memory system itself models the
overlap.  Flips are drained as soon as a step produces any, so enclaves
and observers see them promptly without paying a drain per quiet step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


class Actor(Protocol):
    """Anything schedulable: Attacker and WorkloadRunner both conform."""

    def step(self, now: int) -> int:
        """Do one quantum starting at ``now``; return its finish time."""


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    horizon_ns: int
    finished_ns: int
    steps: int
    steps_per_actor: Dict[int, int] = field(default_factory=dict)
    flips_seen: int = 0


class Engine:
    """Min-clock cooperative scheduler over a shared system."""

    def __init__(self, system: "System", actors: Sequence[Actor]) -> None:
        if not actors:
            raise ValueError("need at least one actor")
        self.system = system
        self.actors = list(actors)

    def run(self, horizon_ns: int, start_ns: int = 0) -> EngineResult:
        """Run every actor until each local clock passes the horizon."""
        if horizon_ns < 1:
            raise ValueError("horizon_ns must be >= 1")
        deadline = start_ns + horizon_ns
        actors = self.actors
        system = self.system
        obs = getattr(system, "obs", None)
        sampler = obs.sampler if obs is not None else None
        invariants = getattr(system, "invariants", None)
        # With sampling off the sentinel keeps the per-step cost at one
        # integer-vs-inf compare; with it on, `next_sample` hoists the
        # sampler's boundary out of the object.
        next_sample = sampler.next_at if sampler is not None else float("inf")
        # (clock, index) heap: pops the smallest clock, then the lowest
        # index — the same order the previous O(actors) min-scan chose.
        heap: List[tuple] = [(start_ns, i) for i in range(len(actors))]
        steps = 0
        per_actor: Dict[int, int] = {i: 0 for i in range(len(actors))}
        flips_seen = 0
        while True:
            now, index = heap[0]
            if now >= deadline:
                break
            if now >= next_sample:
                next_sample = sampler.sample(now)
            finished = actors[index].step(now)
            # A stuck actor (e.g. non-viable attack plan) must still
            # advance or the loop would spin forever.
            heapq.heapreplace(
                heap, (finished if finished > now else now + 1, index)
            )
            steps += 1
            per_actor[index] += 1
            if system.has_pending_flips():
                flips_seen += len(system.drain_flips())
                # invariants ride the drain cadence: checks run only
                # when something happened, so quiet steps stay free
                if invariants is not None:
                    invariants.check(now)
        # let the controller retire refreshes up to the deadline
        system.controller.advance_to(deadline)
        if system.has_pending_flips():
            flips_seen += len(system.drain_flips())
        if invariants is not None:
            # closing check so even flip-free runs are audited once
            invariants.check(deadline)
        if sampler is not None:
            # closing sample so even sub-interval runs yield a series
            sampler.sample(deadline)
        return EngineResult(
            horizon_ns=horizon_ns,
            finished_ns=max(clock for clock, _ in heap),
            steps=steps,
            steps_per_actor=per_actor,
            flips_seen=flips_seen,
        )
