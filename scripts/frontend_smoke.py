#!/usr/bin/env python
"""CI smoke: the columnar *front end* must stay columnar end to end.

Two representative shapes run through the vectorized generation +
translation + submit pipeline:

* **attack** — a double-sided hammer through
  ``Attacker.run_rounds_columnar`` (bulk front end, steady-state
  replication) on the undefended legacy platform;
* **streaming** — a ``streaming_write`` tenant through
  ``WorkloadRunner.run_columnar`` (bulk generation, chunked
  ``TranslationPlan``, whole-chunk ``submit_columnar_run``).

Both configs are bulk-capable (no scalar observers, no interrupt
handlers, no DMA, a vectorizable workload kind), so **every** fallback
counter must stay zero:

* any ``mc.columnar_fallbacks.<reason>`` moving means a code change
  silently demoted the engine back to the object path;
* ``gen.scalar_fallbacks`` moving means workload generation fell off
  the vector path.

A third leg runs ``pointer_chase`` — the one *designed* scalar-fallback
kind — and requires ``gen.scalar_fallbacks`` to move, proving the
counter is live (a dead counter would make the first two checks
vacuous).

Last, the **traced floor**: with a real ``JsonlSink`` attached, the
columnar path must stay at least 1.5x the requests/s of the traced
object path on three shapes — streaming (2,000 accesses), a
double-sided attack (400 rounds) and four tenants through one FR-FCFS
queue (2,000 accesses).  Each leg first runs an unmeasured warm-up of
an eighth of its size on a throwaway system; a cold first pass runs
20-60% slow.  Tracing that demoted the fast path to object speed would
fail here even though every fallback counter stayed zero.

Total budget is a few seconds.  Usage (from the repository root)::

    PYTHONPATH=src python scripts/frontend_smoke.py
"""

from __future__ import annotations

import gc
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 400
ACCESSES = 5_000

#: (shape, size) legs of the traced floor — accesses, or attack rounds
TRACED_SHAPES = (("streaming", 2_000), ("attack", 400), ("multi_tenant", 2_000))
#: traced columnar requests/s must be at least this multiple of the
#: traced object path's
MIN_TRACED_SPEEDUP = 1.5


def _fallbacks(system):
    snapshot = system.controller.stats.snapshot()
    reasons = {
        key: value for key, value in snapshot.items()
        if key.startswith("columnar_fallbacks.") and value
    }
    generation = int(
        system.obs.metrics.snapshot().get("gen.scalar_fallbacks", 0)
    )
    return reasons, generation


def _traced_shape(name, size, object_path, sink):
    """Build one traced-floor shape with ``sink`` attached; return the
    system and the work to time (the scalar entry point when
    ``object_path``, else the columnar one)."""
    from repro.analysis.scenarios import build_scenario
    from repro.attacks import AttackPlanner, Attacker
    from repro.sim import build_system, legacy_platform
    from repro.workloads import SharedQueueRunner, WorkloadRunner

    if name == "attack":
        scenario = build_scenario(
            legacy_platform(scale=8), interleaved_allocation=True
        )
        system = scenario.system
        system.obs.trace.set_sink(sink)
        plan = AttackPlanner(system, scenario.attacker).plan(
            scenario.victim, "double-sided"
        )
        runner = Attacker(system, scenario.attacker, plan)
        run = runner.run_rounds if object_path else runner.run_rounds_columnar
        return system, lambda: run(size)
    system = build_system(legacy_platform(scale=8))
    system.obs.trace.set_sink(sink)
    if name == "streaming":
        tenant = system.create_domain("tenant", pages=128)
        runner = WorkloadRunner(system, tenant, name="sequential", mlp=8, seed=5)
    else:
        sources = [
            WorkloadRunner(
                system, system.create_domain(f"tenant{index}", pages=64),
                name=workload, mlp=4, seed=20 + index,
            )
            for index, workload in enumerate(
                ("zipfian", "random", "sequential", "stride")
            )
        ]
        runner = SharedQueueRunner(
            system, sources, window=16, policy="fr-fcfs"
        )
    run = runner.run if object_path else runner.run_columnar
    return system, lambda: run(size)


def _traced_rate(name, size, object_path, trace_dir) -> float:
    """Requests/s of one traced leg, measured after an unmeasured
    warm-up of an eighth of ``size`` on a throwaway system."""
    from repro.obs import JsonlSink

    path = Path(trace_dir) / f"{name}{'-object' if object_path else ''}.jsonl"
    for leg_size in (size // 8, size):
        sink = JsonlSink(path)
        try:
            system, work = _traced_shape(name, leg_size, object_path, sink)
            stats = system.controller.stats
            # collect earlier legs' garbage so no GC pass bills it here
            gc.collect()
            before = stats.requests
            start = perf_counter()
            work()
            wall = perf_counter() - start
        finally:
            sink.close()
    return (stats.requests - before) / wall


def main() -> int:
    from repro.analysis.scenarios import build_scenario
    from repro.attacks import AttackPlanner, Attacker
    from repro.sim import build_system, legacy_platform
    from repro.workloads import WorkloadRunner

    failures = []

    # -- attack shape -------------------------------------------------
    scenario = build_scenario(
        legacy_platform(scale=8), interleaved_allocation=True
    )
    system = scenario.system
    planner = AttackPlanner(system, scenario.attacker)
    plan = planner.plan(scenario.victim, "double-sided")
    result = Attacker(system, scenario.attacker, plan).run_rounds_columnar(
        ROUNDS
    )
    reasons, generation = _fallbacks(system)
    if reasons:
        failures.append(f"attack: engine fallbacks {reasons}")
    if generation:
        failures.append(f"attack: gen.scalar_fallbacks = {generation}")
    print(
        f"  {'FAIL' if reasons or generation else 'ok  '} attack    "
        f"rounds={result.hammer_iterations} engine_fallbacks={reasons} "
        f"gen_fallbacks={generation}"
    )

    # -- streaming shape ----------------------------------------------
    system = build_system(legacy_platform(scale=8))
    handle = system.create_domain("tenant", pages=64)
    runner = WorkloadRunner(
        system, handle, name="streaming_write", mlp=8, seed=7
    )
    outcome = runner.run_columnar(ACCESSES)
    reasons, generation = _fallbacks(system)
    if reasons:
        failures.append(f"streaming: engine fallbacks {reasons}")
    if generation:
        failures.append(f"streaming: gen.scalar_fallbacks = {generation}")
    if system.controller.stats.requests != ACCESSES:
        failures.append(
            f"streaming: {system.controller.stats.requests} requests "
            f"serviced, expected {ACCESSES}"
        )
    print(
        f"  {'FAIL' if reasons or generation else 'ok  '} streaming "
        f"accesses={outcome.accesses} engine_fallbacks={reasons} "
        f"gen_fallbacks={generation}"
    )

    # -- counter liveness (pointer_chase must be counted) -------------
    system = build_system(legacy_platform(scale=8))
    handle = system.create_domain("tenant", pages=64)
    runner = WorkloadRunner(
        system, handle, name="pointer_chase", mlp=8, seed=7
    )
    runner.run_columnar(1_000)
    _, generation = _fallbacks(system)
    if generation < 1_000:
        failures.append(
            f"pointer_chase: gen.scalar_fallbacks = {generation}, expected "
            f">= 1000 — the fallback counter went dead"
        )
    print(
        f"  {'FAIL' if generation < 1_000 else 'ok  '} chase     "
        f"gen_fallbacks={generation} (designed fallback, must be counted)"
    )

    # -- traced floor: columnar vs object path, real JSONL sink -------
    with tempfile.TemporaryDirectory() as trace_dir:
        for name, size in TRACED_SHAPES:
            columnar = _traced_rate(name, size, False, trace_dir)
            scalar = _traced_rate(name, size, True, trace_dir)
            speedup = columnar / scalar
            slow = speedup < MIN_TRACED_SPEEDUP
            if slow:
                failures.append(
                    f"{name}: traced columnar only {speedup:.2f}x the "
                    f"traced object path (floor {MIN_TRACED_SPEEDUP:.2f}x)"
                )
            print(
                f"  {'FAIL' if slow else 'ok  '} traced {name:<12} "
                f"columnar={columnar:,.0f} req/s object={scalar:,.0f} req/s "
                f"speedup={speedup:.2f}x (floor {MIN_TRACED_SPEEDUP:.2f}x)"
            )

    if failures:
        print("\nfrontend smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nfrontend smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
