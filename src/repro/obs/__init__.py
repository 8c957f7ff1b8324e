"""Observability: structured event tracing and time-series metrics for
the simulator.

The paper's §4.2 primitive is itself an observability argument — a
defense can only act on what the MC *reports*.  This package gives the
simulator the same courtesy: hot paths emit typed events onto a
:class:`~repro.obs.trace.TraceBus` (disabled by default and free when
disabled), counters live in a :class:`~repro.obs.registry.MetricsRegistry`
that a :class:`~repro.obs.sampler.TimeSeriesSampler` snapshots on a
sim-time cadence.

``repro.obs.runtime.observe`` is the one-stop entry point: systems built
inside the context pick up the configured sink and sampler automatically,
which is how ``python -m repro trace`` and the parallel replication
runner record without threading arguments through every call site.
"""

from repro.obs.events import (
    ACT,
    ACT_INTERRUPT,
    BIT_FLIP,
    CAMPAIGN_RESUME,
    COLUMNAR_ACTS,
    EVENT_KINDS,
    FAULT_INJECTED,
    HANDLER_ERROR,
    INVARIANT_VIOLATION,
    NEIGHBOR_REFRESH,
    POOL_RESPAWN,
    ROW_CONFLICT,
    SCHED_BATCH,
    TARGETED_REFRESH,
    TELEMETRY_KINDS,
    THROTTLE_STALL,
    TraceEvent,
    UNCORE_MOVE,
    WORKER_RETRY,
)
from repro.obs.columnar import ColumnarTraceRecord, expand_events, flip_payload
from repro.obs.inspect import TraceSummary, render_summary, summarize_events
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TimeSeries, TimeSeriesSampler
from repro.obs.trace import (
    CountingSink,
    JsonlSink,
    NullSink,
    RingBufferSink,
    SamplingSink,
    TraceBus,
    iter_jsonl,
    read_jsonl,
)
from repro.obs.runtime import Observability, observe

__all__ = [
    "ACT",
    "ACT_INTERRUPT",
    "BIT_FLIP",
    "CAMPAIGN_RESUME",
    "COLUMNAR_ACTS",
    "ColumnarTraceRecord",
    "CountingSink",
    "EVENT_KINDS",
    "FAULT_INJECTED",
    "HANDLER_ERROR",
    "INVARIANT_VIOLATION",
    "JsonlSink",
    "MetricsRegistry",
    "NEIGHBOR_REFRESH",
    "NullSink",
    "Observability",
    "POOL_RESPAWN",
    "ROW_CONFLICT",
    "RingBufferSink",
    "SCHED_BATCH",
    "SamplingSink",
    "TARGETED_REFRESH",
    "TELEMETRY_KINDS",
    "THROTTLE_STALL",
    "TimeSeries",
    "TimeSeriesSampler",
    "TraceBus",
    "TraceEvent",
    "TraceSummary",
    "UNCORE_MOVE",
    "WORKER_RETRY",
    "expand_events",
    "flip_payload",
    "iter_jsonl",
    "observe",
    "read_jsonl",
    "render_summary",
    "summarize_events",
]
