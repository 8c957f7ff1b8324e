"""Columnar fast path: batch container semantics and, crucially, the
differential guarantee — ``submit_columnar`` must produce ``RunMetrics``
bit-identical to the object reference path on every platform preset."""

import dataclasses

import pytest

from repro.mc.controller import MemoryRequest
from repro.sim import (
    build_system,
    ideal_platform,
    legacy_platform,
    proposed_platform,
)
from repro.sim.columnar import NO_DOMAIN, ColumnarBatch
from repro.sim.metrics import collect_metrics
from repro.workloads import WorkloadRunner

PLATFORMS = {
    "legacy": legacy_platform,
    "proposed": proposed_platform,
    "ideal": ideal_platform,
}


# ----------------------------------------------------------------------
# ColumnarBatch container
# ----------------------------------------------------------------------

def test_append_and_len():
    batch = ColumnarBatch()
    assert len(batch) == 0
    batch.append(7, True, 100, domain=3)
    batch.append(9, False, 200)
    assert len(batch) == 2
    assert list(batch.line) == [7, 9]
    assert list(batch.is_write) == [1, 0]
    assert list(batch.issue_ns) == [100, 200]
    assert list(batch.domain) == [3, NO_DOMAIN]


def test_append_validates_like_memory_request():
    batch = ColumnarBatch()
    with pytest.raises(ValueError):
        batch.append(-1, False, 0)
    with pytest.raises(ValueError):
        batch.append(0, False, -5)
    with pytest.raises(ValueError):
        MemoryRequest(time_ns=0, physical_line=-1)
    with pytest.raises(ValueError):
        MemoryRequest(time_ns=-5, physical_line=0)


def test_clear_keeps_columns_reusable():
    batch = ColumnarBatch()
    batch.append(1, False, 0)
    batch.clear()
    assert len(batch) == 0
    batch.append(2, True, 10, domain=1)
    assert list(batch.line) == [2]


def test_request_round_trip():
    requests = [
        MemoryRequest(time_ns=10, physical_line=4, is_write=True, domain=2),
        MemoryRequest(time_ns=20, physical_line=5, is_write=False),
    ]
    batch = ColumnarBatch.from_requests(requests)
    assert batch.to_requests() == requests


def test_from_requests_rejects_dma():
    dma = MemoryRequest(time_ns=0, physical_line=1, is_dma=True)
    with pytest.raises(ValueError, match="is_dma"):
        ColumnarBatch.from_requests([dma])


# ----------------------------------------------------------------------
# Differential: columnar vs object reference path
# ----------------------------------------------------------------------

def _run_workload(platform, columnar, accesses=1_600, mlp=8):
    """Drive identical zipfian windows through one path; snapshot metrics.

    The object leg reproduces ``run_columnar``'s loop exactly — same
    generator stream, same window advance — but submits object requests
    through ``submit_batch``, the reference implementation.
    """
    system = build_system(PLATFORMS[platform](scale=8))
    handle = system.create_domain("tenant", pages=64)
    runner = WorkloadRunner(system, handle, name="zipfian", mlp=mlp, seed=11)
    if columnar:
        result = runner.run_columnar(accesses)
        elapsed = result.finished_ns
    else:
        generator = runner._generator
        controller = system.controller
        now = 0
        issued = 0
        while issued < accesses:
            remaining = accesses - issued
            window = mlp if remaining >= 2 * mlp else remaining
            requests = []
            for _ in range(window):
                vline, is_write = next(generator)
                requests.append(
                    MemoryRequest(
                        time_ns=now,
                        physical_line=handle.physical_line(vline),
                        is_write=is_write,
                        domain=handle.asid,
                    )
                )
            completions = controller.submit_batch(requests)
            done = max(c.ready_at_ns for c in completions)
            if done > now:
                now = done
            issued += window
        elapsed = now
    return collect_metrics(system, "diff", elapsed_ns=elapsed)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_columnar_metrics_equal_object_path(platform):
    columnar = _run_workload(platform, columnar=True)
    reference = _run_workload(platform, columnar=False)
    assert dataclasses.asdict(columnar) == dataclasses.asdict(reference)
    assert columnar.requests > 0 and columnar.acts > 0


def test_submit_columnar_empty_batch():
    system = build_system(legacy_platform(scale=8))
    assert system.controller.submit_columnar(ColumnarBatch()) == 0


def test_uneven_tail_merges_into_last_window():
    """Regression: ``accesses`` not a multiple of ``mlp`` must not issue
    a stub batch that splits the final row-hit run.  accesses=13, mlp=8
    → exactly one window of 13, and the differential still holds."""
    columnar = _run_workload("legacy", columnar=True, accesses=13, mlp=8)
    reference = _run_workload("legacy", columnar=False, accesses=13, mlp=8)
    assert dataclasses.asdict(columnar) == dataclasses.asdict(reference)

    # Count the windows directly: a 13-access run with mlp=8 is a single
    # merged batch (no 8 + 5 split).  The bulk front end hands whole
    # chunks to submit_columnar_run with an explicit window plan; the
    # per-window path submits one batch per window — spy on both.
    windows = []
    system = build_system(legacy_platform(scale=8))
    handle = system.create_domain("tenant", pages=64)
    runner = WorkloadRunner(system, handle, name="sequential", mlp=8, seed=3)
    original = system.controller.submit_columnar
    original_run = system.controller.submit_columnar_run

    def spying_submit(batch):
        windows.append(len(batch))
        return original(batch)

    def spying_submit_run(line_col, write_col, domain, window_sizes, start_ns):
        windows.extend(window_sizes)
        return original_run(line_col, write_col, domain, window_sizes, start_ns)

    system.controller.submit_columnar = spying_submit
    system.controller.submit_columnar_run = spying_submit_run
    runner.run_columnar(13)
    assert windows == [13]


def _shared_queue_metrics(columnar, accesses=960, window=16):
    """Four heterogeneous tenants through one FR-FCFS queue; both legs
    draw the identical round-robin interleave."""
    from repro.workloads import SharedQueueRunner

    system = build_system(legacy_platform(scale=8))
    sources = []
    for index, workload in enumerate(
        ("zipfian", "random", "sequential", "stride")
    ):
        handle = system.create_domain(f"tenant{index}", pages=32)
        sources.append(WorkloadRunner(
            system, handle, name=workload, mlp=4, seed=20 + index
        ))
    shared = SharedQueueRunner(system, sources, window=window)
    if columnar:
        elapsed = shared.run_columnar(accesses)
    else:
        elapsed = shared.run(accesses)
    return collect_metrics(system, "diff", elapsed_ns=elapsed), system


def test_shared_queue_columnar_equals_object_path():
    """``SharedQueueRunner.run_columnar`` (→ ``issue_columnar`` → bulk
    engine) must be metric-identical to ``run`` (→ ``issue`` →
    ``submit``), including the FR-FCFS reorder decisions — and with no
    stateful defense attached the fast path must never fall back."""
    columnar, fast_system = _shared_queue_metrics(columnar=True)
    reference, _ = _shared_queue_metrics(columnar=False)
    assert dataclasses.asdict(columnar) == dataclasses.asdict(reference)
    assert columnar.requests > 0 and columnar.acts > 0
    assert fast_system.controller.stats.columnar_fallbacks == 0


def test_shared_queue_columnar_fcfs_differential():
    from repro.workloads import SharedQueueRunner

    def leg(columnar):
        system = build_system(legacy_platform(scale=8))
        handles = [
            system.create_domain(f"t{i}", pages=16) for i in range(2)
        ]
        sources = [
            WorkloadRunner(system, handle, name="random", mlp=4, seed=5 + i)
            for i, handle in enumerate(handles)
        ]
        shared = SharedQueueRunner(
            system, sources, window=8, policy="fcfs"
        )
        elapsed = (
            shared.run_columnar(400) if columnar else shared.run(400)
        )
        return collect_metrics(system, "diff", elapsed_ns=elapsed)

    assert dataclasses.asdict(leg(True)) == dataclasses.asdict(leg(False))


def test_uneven_tail_keeps_row_hit_run_unsplit():
    """The merged tail must preserve row locality across the old 8/5
    boundary: a sequential stream in one merged window sees at least as
    many row hits as the split issue order did."""
    def hits_for(accesses, mlp):
        system = build_system(legacy_platform(scale=8))
        handle = system.create_domain("tenant", pages=64)
        runner = WorkloadRunner(
            system, handle, name="sequential", mlp=mlp, seed=3
        )
        runner.run_columnar(accesses)
        return system.controller.stats.row_hits

    merged = hits_for(13, 8)
    # Reference: force the old split shape by running 8 then 5 through
    # two independent systems' worth of accesses is not comparable, so
    # compare against the same stream driven with mlp=13 (identical
    # single window) — merged tail must match it exactly.
    assert merged == hits_for(13, 13)
