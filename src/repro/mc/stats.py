"""Memory-controller statistics: the observable performance surface.

Everything the experiment harness reports about performance — latency,
throughput, row-buffer behaviour, refresh/defense overhead — comes from
these counters.  They are *architecturally visible* quantities (the kind
CPU vendors already expose, §4), in contrast to the DRAM-internal
disturbance oracle which only the harness may read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: the fixed vocabulary of columnar-demotion reasons; every one is a
#: ``mc.columnar_fallbacks.<reason>`` key in :meth:`ControllerStats.snapshot`
#: (present at 0 even when it never fired) and rides verbatim on the
#: ``columnar_fallback`` trace event
FALLBACK_REASONS = (
    "trace",
    "scalar_observer",
    "interrupt_handlers",
    "mixed_times",
    "dma",
)


@dataclass
class ControllerStats:
    """Aggregated counters of one memory controller."""

    reads: int = 0
    writes: int = 0
    dma_requests: int = 0
    acts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    ref_bursts: int = 0
    targeted_refreshes: int = 0  # paper's refresh-instruction executions
    neighbor_refresh_commands: int = 0  # proposed REF_NEIGHBORS issues
    uncore_moves: int = 0  # paper's uncore move executions
    throttle_stalls_ns: int = 0  # delay added by frequency-centric throttling
    interrupt_handler_failures: int = 0  # host handlers that raised mid-dispatch
    columnar_fallbacks: int = 0  # columnar batches serviced via the object path
    total_request_latency_ns: int = 0
    busy_until_ns: int = 0  # completion time of the latest request
    #: request-driven ACTs per trust domain (-1 = no domain); targeted /
    #: neighbour refreshes issued by defenses are deliberately excluded
    acts_by_domain: Dict[int, int] = field(default_factory=dict)
    #: per-reason breakdown of ``columnar_fallbacks`` (see
    #: :data:`FALLBACK_REASONS`); the total stays authoritative
    columnar_fallback_reasons: Dict[str, int] = field(default_factory=dict)

    def note_columnar_fallback(self, reason: str) -> None:
        """Count one columnar demotion under its reason."""
        self.columnar_fallbacks += 1
        reasons = self.columnar_fallback_reasons
        reasons[reason] = reasons.get(reason, 0) + 1

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    @property
    def average_latency_ns(self) -> float:
        return self.total_request_latency_ns / self.requests if self.requests else 0.0

    def throughput_lines_per_us(self, elapsed_ns: int) -> float:
        """Serviced cache lines per microsecond of simulated time."""
        return self.requests * 1000.0 / elapsed_ns if elapsed_ns > 0 else 0.0

    def energy_proxy(self) -> float:
        """A coarse relative-energy figure: ACTs and refreshes dominate
        DRAM energy, so weight them above column accesses.  Useful only
        for comparing defenses against each other, never absolutely."""
        return (
            1.0 * self.requests
            + 4.0 * self.acts
            + 4.0 * (self.targeted_refreshes + self.neighbor_refresh_commands)
            + 32.0 * self.ref_bursts
            + 8.0 * self.uncore_moves
        )

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for tables and result serialization.

        Every fallback reason in :data:`FALLBACK_REASONS` is always
        present (``columnar_fallbacks.<reason>``, 0 when clean) so
        ``assert_covers`` pins the whole vocabulary and a smoke test can
        assert ``mc.columnar_fallbacks.trace == 0`` without key errors.
        """
        reasons = self.columnar_fallback_reasons
        per_reason = {
            f"columnar_fallbacks.{reason}": reasons.get(reason, 0)
            for reason in FALLBACK_REASONS
        }
        for reason, count in reasons.items():
            per_reason.setdefault(f"columnar_fallbacks.{reason}", count)
        return {
            **per_reason,
            "reads": self.reads,
            "writes": self.writes,
            "dma_requests": self.dma_requests,
            "acts": self.acts,
            "row_hit_rate": round(self.row_hit_rate, 4),
            "ref_bursts": self.ref_bursts,
            "targeted_refreshes": self.targeted_refreshes,
            "neighbor_refresh_commands": self.neighbor_refresh_commands,
            "uncore_moves": self.uncore_moves,
            "throttle_stalls_ns": self.throttle_stalls_ns,
            "interrupt_handler_failures": self.interrupt_handler_failures,
            "columnar_fallbacks": self.columnar_fallbacks,
            "act_domains": len(self.acts_by_domain),
            "average_latency_ns": round(self.average_latency_ns, 2),
            "energy_proxy": round(self.energy_proxy(), 1),
        }
