"""Observation wiring: the per-system bundle and the ambient context.

Every :class:`~repro.sim.system.System` owns an :class:`Observability`
bundle (trace bus + metrics registry, plus an optional sampler).
The bundle always exists — registration is cheap — but tracing and
sampling are off unless something turns them on.

:func:`observe` is the ambient switch: systems *built inside* the
context pick up a freshly made sink and/or a sampler automatically.
That indirection is what lets ``python -m repro trace`` and the
process-parallel replication runner record runs whose system
construction is buried inside a scenario spec, without plumbing a sink
argument through every builder.  The state is per-process, so each
worker of a process pool opens its own trace file and lines never
interleave.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TYPE_CHECKING
from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceBus, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System


class Observability:
    """The observation surface of one simulated platform."""

    __slots__ = ("trace", "metrics", "sampler")

    def __init__(self) -> None:
        self.trace = TraceBus()
        self.metrics = MetricsRegistry()
        self.sampler: Optional[TimeSeriesSampler] = None

    def enable_sampling(self, interval_ns: int) -> TimeSeriesSampler:
        """Install a time-series sampler (engine loops drive it)."""
        self.sampler = TimeSeriesSampler(self.metrics, interval_ns)
        return self.sampler


class ObservationSession:
    """What one :func:`observe` context created: the sinks (so callers
    can read counts or ring buffers afterwards) and the systems that
    attached."""

    def __init__(self) -> None:
        self.sinks: List[TraceSink] = []
        self.systems: List["System"] = []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class _ObservationPlan:
    __slots__ = ("sink_factory", "sample_interval_ns", "session")

    def __init__(
        self,
        sink_factory: Optional[Callable[[], TraceSink]],
        sample_interval_ns: Optional[int],
        session: ObservationSession,
    ) -> None:
        self.sink_factory = sink_factory
        self.sample_interval_ns = sample_interval_ns
        self.session = session


#: innermost-wins stack of active observation plans (per process)
_ACTIVE: List[_ObservationPlan] = []


@contextmanager
def observe(
    sink_factory: Optional[Callable[[], TraceSink]] = None,
    sample_interval_ns: Optional[int] = None,
) -> Iterator[ObservationSession]:
    """Ambient observation: every system built inside the block gets a
    sink from ``sink_factory`` (one per system) and, when
    ``sample_interval_ns`` is set, a time-series sampler.  Sinks are
    closed when the block exits."""
    session = ObservationSession()
    plan = _ObservationPlan(sink_factory, sample_interval_ns, session)
    _ACTIVE.append(plan)
    try:
        yield session
    finally:
        _ACTIVE.remove(plan)
        session.close()


def attach_ambient(system: "System") -> None:
    """Hook called from ``System.__init__``: apply the active observation
    plans, if any.

    Nested ``observe`` blocks compose rather than shadow: the *innermost*
    plan that provides a sink factory (and, independently, a sampling
    interval) wins that setting, but **every** active plan's session
    records the system.  An inner metrics-only ``observe()`` (the
    campaign workers use one to capture registry snapshots) therefore
    never steals systems from an outer plan that configured tracing."""
    if not _ACTIVE:
        return
    sink_plan = None
    sample_plan = None
    for plan in reversed(_ACTIVE):
        if sink_plan is None and plan.sink_factory is not None:
            sink_plan = plan
        if sample_plan is None and plan.sample_interval_ns is not None:
            sample_plan = plan
        if sink_plan is not None and sample_plan is not None:
            break
    if sink_plan is not None:
        sink = sink_plan.sink_factory()
        system.obs.trace.set_sink(sink)
        sink_plan.session.sinks.append(sink)
    if sample_plan is not None:
        system.obs.enable_sampling(sample_plan.sample_interval_ns)
    for plan in _ACTIVE:
        plan.session.systems.append(system)
