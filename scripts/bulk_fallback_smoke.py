#!/usr/bin/env python
"""CI smoke: the columnar fast path must stay fast under every defense.

For each defense in the registry, drive one attack-shape iteration (a
double-sided hammer through ``run_rounds_columnar``) with the defense
attached — **with tracing enabled** — then inspect
``mc.columnar_fallbacks``:

* a defense that advertises ``supports_bulk_acts`` must cause **zero**
  fallbacks — if one appears, a code change silently knocked the bulk
  engine back onto the object path and the perf win is gone;
* a scalar-only defense (``supports_bulk_acts = False``) must be
  serviced entirely through the counted ordered fallback — if the
  count is zero, its strict per-ACT ordering guarantee was silently
  dropped;
* under **no** defense may ``mc.columnar_fallbacks.trace`` be
  nonzero: tracing rides the bulk path (columnar trace records), so an
  attached sink demoting a batch means the vectorized tracing
  regressed to the old guard;
* under **no** defense may ``interrupt_handler_failures`` be nonzero:
  the controller counts a host interrupt handler that raised and goes
  on, so a defense whose handler breaks would otherwise stop defending
  without failing anything.

Defenses whose primitives the legacy platform lacks are reported as
skipped (that refusal is itself paper behavior, §4).

Total budget is a few seconds: 200 rounds per defense, serial.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bulk_fallback_smoke.py
"""

from __future__ import annotations

import sys

ROUNDS = 200


def main() -> int:
    from repro.analysis.scenarios import build_scenario
    from repro.attacks import AttackPlanner, Attacker
    from repro.core.primitives import MissingPrimitiveError
    from repro.defenses import ALL_DEFENSES
    from repro.defenses.registry import build_overrides
    from repro.obs import CountingSink
    from repro.sim import legacy_platform, proposed_platform

    failures = []
    for defense_cls in ALL_DEFENSES:
        # The registry knows which allocator-policy build overrides
        # each defense demands — no hand-maintained map to go stale.
        overrides = build_overrides(defense_cls)
        scenario = None
        # Legacy hardware first; the paper's proposals need the proposed
        # platform's MC primitives.
        for platform in (legacy_platform, proposed_platform):
            defense = defense_cls()
            try:
                scenario = build_scenario(
                    platform(scale=8, **overrides),
                    defenses=[defense],
                    interleaved_allocation=not overrides,
                )
                break
            except MissingPrimitiveError as error:
                missing = error
        if scenario is None:
            print(
                f"  skip  {defense_cls.name:<22} missing primitive: {missing}"
            )
            continue
        system = scenario.system
        sink = CountingSink()
        system.obs.trace.set_sink(sink)
        planner = AttackPlanner(system, scenario.attacker)
        plan = planner.plan(scenario.victim, "double-sided")
        attacker = Attacker(system, scenario.attacker, plan)
        attacker.run_rounds_columnar(ROUNDS)
        snapshot = system.controller.stats.snapshot()
        fallbacks = system.controller.stats.columnar_fallbacks
        bulk = defense.supports_bulk_acts
        trace_demotions = snapshot["columnar_fallbacks.trace"]
        handler_failures = system.controller.stats.interrupt_handler_failures
        if handler_failures:
            failures.append(
                f"{defense_cls.name}: {handler_failures} interrupt handler "
                f"call(s) raised — the defense stopped acting on them"
            )
            verdict = "FAIL"
        elif trace_demotions:
            failures.append(
                f"{defense_cls.name}: tracing demoted the bulk path "
                f"({trace_demotions} trace fallbacks) — columnar "
                f"tracing regressed to the old guard"
            )
            verdict = "FAIL"
        elif bulk and fallbacks:
            failures.append(
                f"{defense_cls.name}: advertises bulk-safe ACT hooks but "
                f"caused {fallbacks} columnar fallbacks"
            )
            verdict = "FAIL"
        elif not bulk and not fallbacks:
            failures.append(
                f"{defense_cls.name}: scalar-only defense was not routed "
                f"through the counted ordered fallback"
            )
            verdict = "FAIL"
        else:
            verdict = "ok"
        print(
            f"  {verdict:<5} {defense_cls.name:<22} "
            f"bulk={'yes' if bulk else 'no ':<3} fallbacks={fallbacks} "
            f"events={sink.events_written}"
        )
    if failures:
        print("\nbulk fallback smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbulk fallback smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
