"""Benchmark entry point: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hammer --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, repeating
the workload's seeded job sequence, in reference seconds (host seconds
scaled by a calibration kernel timed between the jobs, see ``HostClock``);
``--trace 1`` runs the workload's fixed traced work twice (untraced, then
with span recorders around every layer entry point) and reports the
per-layer metrics.  Every run replays a prefix of its inputs on the
program's reference path and reports mismatches as failed operations.
The last line of standard output is one JSON object; the lines before it
are a human-readable table.  Traces and layer summaries are written under
``.perfbench/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: name -> (layer, attributes) summed into each per-layer time metric
TIME_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workloads.gen_s": ("workloads", ("columns",)),
    "attacks.build_s": ("attacks", ("run_rounds_columnar", "run_rounds")),
    "cpu.translate_s": ("cpu", (
        "plan_translation", "translate_lines_bulk", "translate_line",
    )),
    "cpu.cache_s": ("cpu", ("access", "access_bulk")),
    "cpu.core_s": ("cpu", ("load", "store")),
    "mc.submit_s": ("mc", (
        "submit", "submit_batch", "submit_columnar", "submit_columnar_run",
    )),
    "mc.schedule_s": ("mc", ("issue", "issue_columnar", "issue_columnar_run")),
    "mc.addrmap_s": ("mc", (
        "line_to_ddr", "lines_to_ddr_bulk", "frame_addresses",
    )),
    "dram.disturb_s": ("dram", ("on_activate", "on_activate_bulk")),
    "defenses.observe_s": ("defenses", ("on_activate", "on_activate_bulk")),
    "defenses.handler_s": ("defenses", ("_on_interrupt",)),
    "hostos.allocate_s": ("hostos", ("allocate",)),
    "sim.build_s": ("sim", ("build_system",)),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def ratio(metrics, name: str, numerator: float, base: float,
          base_unit: str = "count") -> None:
    """A ratio and, beside it, the base it was taken over."""
    metrics[name] = metric(numerator / base if base else 0.0, "ratio")
    metrics[f"{name}.base"] = metric(base, base_unit)


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


def interpreter_kernel() -> int:
    """Fixed interpreter work that uses nothing of the simulator: integer
    arithmetic, object allocation, dict updates, numpy calls and a sort."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    column = np.arange(10_000)
    total += int(np.sort(np.cumsum(column)[::-1])[0])
    counts: Dict[int, int] = {}
    records = []
    for i in range(7_500):
        record = _Record(i & 255, i)
        counts[record.key] = counts.get(record.key, 0) + record.value
        records.append(record)
    records.sort(key=lambda record: record.key)
    return total + len(counts)


@functools.lru_cache(maxsize=None)
def _cycle(slots: int) -> array:
    """A fixed random cyclic permutation: slot -> next slot."""
    order = np.arange(slots, dtype=np.int32)
    np.random.default_rng(0).shuffle(order)
    successor = np.empty(slots, dtype=np.int32)
    successor[order] = np.roll(order, -1)
    return array("i", successor.tobytes())


def memory_kernel() -> int:
    """Fixed pointer chasing around a random cycle over 4 MiB: every step
    needs the one before, so the kernel waits on the memory system."""
    cycle = _cycle(1 << 20)
    slot = 0
    for _ in range(20_000):
        slot = cycle[slot]
    return slot


#: calibration kernel -> (function, its seconds on the reference host);
#: both reference times were measured back to back on one host
KERNELS: Dict[str, Tuple[Callable[[], int], float]] = {
    "interpreter": (interpreter_kernel, 0.006),
    "memory": (memory_kernel, 0.0025),
}


class HostClock:
    """Converts the host seconds of a run to reference seconds.

    A shared host runs the same code at speeds that drift by 20-40 % over
    minutes.  The run times a calibration kernel between its timed calls;
    over one call a host second is worth the kernel's reference time over
    its mean time just before and just after the call, so a reference
    second is a second on a host that runs the kernel in exactly its
    reference time.  The kernel does not touch the simulator: a change to
    the program moves the calls' times but not the kernel's.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self._run, self._reference_s = KERNELS[kernel]
        self.samples: List[float] = []
        #: mean kernel seconds of the latest calibration
        self._last: Optional[float] = None

    def calibrate(self, times: int = 1) -> float:
        """Time the kernel ``times`` times; return its mean seconds."""
        for _ in range(times):
            start = time.perf_counter()
            self._run()
            self.samples.append(time.perf_counter() - start)
        self._last = statistics.fmean(self.samples[-times:])
        return self._last

    def bracket(self, call: Callable, *args, times: int = 1):
        """Return ``call(*args)`` and the reference seconds per host second
        around it, from the latest calibration and one made after it."""
        before = self._last
        if before is None:
            before = self.calibrate(times)
        result = call(*args)
        return result, 2 * self._reference_s / (before + self.calibrate(times))

    def describe(self) -> str:
        return (f"host speed: {self.kernel} kernel "
                f"{statistics.median(self.samples) * 1e3:.2f} ms median over "
                f"{len(self.samples)} samples, reference "
                f"{self._reference_s * 1e3:.1f} ms")


def timed(call: Callable, *args):
    """(``call(*args)``, host seconds it took)."""
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


#: repeats of the job sequence every untraced run makes at least
MIN_REPEATS = 3
#: set-ups every untraced sequence run times at least
MIN_SETUPS = 9
#: calibration kernels timed between campaign bursts
BURST_KERNELS = 16


def timed_setup(workload, clock: HostClock, times: List[float]):
    """Set the workload up, appending the reference seconds it took."""
    gc.collect()
    (state, host_s), factor = clock.bracket(timed, workload.setup)
    times.append(host_s * factor)
    return state


def run_untraced(workload, seconds: float, clock: HostClock):
    """Repeat the workload's job sequence from a fresh set-up until
    ``seconds`` have passed (at least ``MIN_REPEATS`` times), with a
    calibration kernel between every two set-ups or jobs.

    Returns (median set-up seconds, last state, every job's slice, job
    latencies, checks attempted, checks failed), all times in reference
    seconds.  The same seed gives the same jobs, so each job must do the
    same simulated work in every repeat, and its latency is its mean time
    over the repeats.
    """
    if not workload.sequence_slices:
        return run_bursts(workload, seconds, clock)
    setup_times, repeats, errors, state = [], [], 0, None
    began = time.perf_counter()
    try:
        while (len(repeats) < MIN_REPEATS
               or time.perf_counter() - began < seconds):
            if state is not None:
                workload.close(state)
                state = None
            state = timed_setup(workload, clock, setup_times)
            sequence = []
            for _ in range(workload.sequence_slices):
                job, factor = clock.bracket(workload.run_slice, state)
                sequence.append(job.scaled(factor))
                if not repeats and len(sequence) == 1:
                    workload.record_first_slice(state)
            repeats.append(sequence)
        # More set-ups, each dropped at once, so that ``setup_s`` is the
        # median of at least ``MIN_SETUPS``.
        while len(setup_times) < MIN_SETUPS:
            workload.close(timed_setup(workload, clock, setup_times))
    except Exception:  # a failed slice ends the run; it is reported
        traceback.print_exc()
        errors += 1
    jobs = list(zip(*repeats))
    mismatches = sum(
        len({(s.requests, s.acts, s.sim_ns) for s in same}) != 1
        for same in jobs
    )
    slices = [s for sequence in repeats for s in sequence]
    latencies = [statistics.fmean(s.host_s for s in same) for same in jobs]
    return (statistics.median(setup_times) if setup_times else 0.0, state,
            slices, latencies, len(jobs) + errors, mismatches + errors)


def run_bursts(workload, seconds: float, clock: HostClock):
    """Campaign bursts back to back until ``seconds`` have passed and at
    least ``workload.min_bursts`` ran, in whole rounds; returns what
    ``run_untraced`` does, with the median of the bursts' own service
    start-ups as the set-up time and every job's submission-to-completion
    time as its latency."""
    state = workload.setup()
    slices, errors = [], 0
    began = time.perf_counter()
    try:
        while (time.perf_counter() - began < seconds
               or len(slices) < workload.min_bursts
               or len(slices) % workload.bursts_per_round):
            burst, factor = clock.bracket(
                workload.run_slice, state, times=BURST_KERNELS
            )
            slices.append(burst.scaled(factor))
    except Exception:  # a failed burst ends the run; it is reported
        traceback.print_exc()
        errors += 1
    setups = [s.setup_s for s in slices]
    latencies = [latency for s in slices for latency in s.latencies]
    return (statistics.median(setups) if setups else 0.0, state, slices,
            latencies, errors, errors)


def end_to_end(setup_s: float, slices,
               latencies) -> Dict[str, Dict[str, object]]:
    """Rates are total simulated work over the slices' total host seconds;
    latencies are percentiles of the per-job host seconds (all of them in
    reference seconds)."""
    host_s = sum(s.host_s for s in slices)

    def rate(field: str, scale: float = 1.0) -> float:
        return sum(getattr(s, field) for s in slices) * scale / host_s

    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": metric(setup_s, "s"),
        "requests_per_s": metric(rate("requests"), "1/s"),
        "acts_per_s": metric(rate("acts"), "1/s"),
        "sim_ms_per_host_s": metric(rate("sim_ns", 1e-6), "ms/s"),
        "jobs_per_s": metric(rate("jobs"), "1/s"),
        "job_latency_p50_s": metric(statistics.median(latencies), "s"),
        "job_latency_p90_s": metric(deciles[-1], "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


def layer_self_times(summary) -> Dict[str, float]:
    """Self seconds per layer (the first dotted part of a span name)."""
    layers: Dict[str, float] = {}
    for name, (_, _, own) in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def span_totals(summary, layer: str, attributes) -> Tuple[int, float]:
    """(calls, self seconds) over spans of ``layer`` ending in one of
    ``attributes``."""
    calls = own = 0
    for name, (count, _, seconds) in summary.items():
        parts = name.split(".")
        if parts[0] == layer and parts[-1] in attributes:
            calls += count
            own += seconds
    return calls, own


def system_counts(systems) -> Dict[str, float]:
    totals = dict.fromkeys((
        "tlb_hits", "tlb_misses", "l2_hits", "l2_misses", "memo_hits",
        "memo_misses", "row_hits", "row_total", "acts", "fallbacks",
        "uncore_moves", "targeted_refreshes", "flips", "interrupts",
        "pages_moved",
    ), 0)
    for system in systems:
        stats = system.controller.stats
        totals["tlb_hits"] += system.mmu.tlb.hits
        totals["tlb_misses"] += system.mmu.tlb.misses
        totals["l2_hits"] += system.cache.hits
        totals["l2_misses"] += system.cache.misses
        totals["memo_hits"] += system.mapper.memo_hits
        totals["memo_misses"] += system.mapper.memo_misses
        totals["row_hits"] += stats.row_hits
        totals["row_total"] += (
            stats.row_hits + stats.row_misses + stats.row_conflicts
        )
        totals["acts"] += stats.acts
        totals["fallbacks"] += stats.columnar_fallbacks
        totals["uncore_moves"] += stats.uncore_moves
        totals["targeted_refreshes"] += stats.targeted_refreshes
        totals["flips"] += len(system.device.tracker.flips)
        for defense in system.defenses:
            totals["interrupts"] += defense.counters.get("interrupts", 0)
            totals["pages_moved"] += defense.counters.get("pages_moved", 0)
    return totals


def run_traced(workload):
    """Fixed traced work, untraced then traced.  Returns the state to
    check, the traced slices, the recorder, and the untraced and traced
    reference seconds of the same work (each leg with its own calibration
    kernels, timed as in an untraced run)."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    plain_clock = HostClock(workload.kernel)
    traced_clock = HostClock(workload.kernel)
    if workload.name == "campaign":
        # The campaign's simulation runs in worker processes the service
        # forks; the runtime layer is measured from the service's own
        # telemetry, and the in-process layers from the same specs and
        # seeds replayed serially (the check's reference path).
        from repro.analysis.parallel import run_replications

        state = workload.setup()
        slices = [
            workload.run_slice(state) for _ in range(workload.traced_bursts)
        ]
        refs = workload.reference_specs(state)

        def replay():
            for spec, seeds, _ in refs:
                run_replications(spec, seeds, jobs=1)

        gc.collect()
        (_, untraced_s), plain_factor = plain_clock.bracket(
            timed, replay, times=BURST_KERNELS
        )
        recorder.install()
        try:
            gc.collect()
            (_, traced_s), traced_factor = traced_clock.bracket(
                timed, recorder.root, "bench.slice", replay,
                times=BURST_KERNELS,
            )
        finally:
            recorder.uninstall()
        return (state, slices, recorder, untraced_s * plain_factor,
                traced_s * traced_factor)

    plain = workload.setup()
    gc.collect()
    untraced_s = 0.0
    for _ in range(workload.traced_slices):
        job, factor = plain_clock.bracket(workload.run_slice, plain)
        untraced_s += job.host_s * factor
    workload.close(plain)
    del plain
    gc.collect()
    recorder.install()
    try:
        state = recorder.root("bench.setup", workload.setup)
        slices, traced_s = [], 0.0
        for _ in range(workload.traced_slices):
            job, factor = traced_clock.bracket(
                recorder.root, "bench.slice", workload.run_slice, state
            )
            slices.append(job)
            traced_s += job.host_s * factor
            if len(slices) == 1:
                workload.record_first_slice(state)
    finally:
        recorder.uninstall()
    return state, slices, recorder, untraced_s, traced_s


def per_layer(workload, state, recorder, untraced_s, traced_s):
    summary = recorder.summary()
    metrics: Dict[str, Dict[str, object]] = {}
    for name, (layer, attributes) in TIME_METRICS.items():
        metrics[name] = metric(span_totals(summary, layer, attributes)[1], "s")

    systems = workload.systems(state) or recorder.systems
    counts = system_counts(systems)
    served, tenants = workload.tenants_served(state)
    ratio(metrics, "workloads.tenants_served", served, tenants)

    rounds, planned = workload.planned_accesses(state)
    scalar = recorder.calls_with_parent(
        "cpu.SetAssociativeCache.access", "attacks.Attacker.run_rounds_columnar"
    )
    ratio(metrics, "attacks.replayed_share",
          rounds * (1.0 - scalar / planned) if planned else 0.0, rounds)
    ratio(metrics, "cpu.tlb_hit_rate", counts["tlb_hits"],
          counts["tlb_hits"] + counts["tlb_misses"])
    ratio(metrics, "cpu.l2_hit_rate", counts["l2_hits"],
          counts["l2_hits"] + counts["l2_misses"])
    ratio(metrics, "mc.addrmap_hit_rate", counts["memo_hits"],
          counts["memo_hits"] + counts["memo_misses"])
    batches, _ = span_totals(
        summary, "mc", ("submit_columnar", "submit_columnar_run")
    )
    ratio(metrics, "mc.columnar_fallbacks", counts["fallbacks"], batches)
    ratio(metrics, "mc.row_hit_rate", counts["row_hits"], counts["row_total"])
    handler_calls, _ = span_totals(summary, "defenses", ("_on_interrupt",))
    metrics["mc.act_interrupts"] = metric(handler_calls, "count")
    metrics["mc.uncore_moves"] = metric(counts["uncore_moves"], "count")
    metrics["mc.targeted_refreshes"] = metric(
        counts["targeted_refreshes"], "count"
    )
    tracker_calls, _ = span_totals(
        summary, "dram", ("on_activate", "on_activate_bulk")
    )
    ratio(metrics, "dram.acts_per_call", counts["acts"], tracker_calls)
    metrics["dram.flips"] = metric(counts["flips"], "count")
    ratio(metrics, "defenses.pages_moved_share", counts["pages_moved"],
          counts["interrupts"])
    ratio(metrics, "hostos.frames_scanned_per_alloc",
          recorder.counts.get("hostos.PageAllocator._admissible", 0),
          recorder.counts.get("hostos.PageAllocator._allocate_one", 0))
    ratio(metrics, "obs.trace_overhead", traced_s, untraced_s, "s")

    digest = workload.runtime_digest(state)
    for key in ("queue_wait_s", "worker_start_s", "seed_compute_s",
                "job_finish_s"):
        metrics[f"runtime.{key}"] = metric(digest.get(key, 0.0), "s")
    ratio(metrics, "runtime.compute_share", digest.get("seed_compute_s", 0.0),
          digest.get("job_wall_s", 0.0), "s")
    metrics["runtime.forks"] = metric(digest.get("forks", 0.0), "count")
    metrics["runtime.retries"] = metric(digest.get("retries", 0.0), "count")
    ratio(metrics, "analysis.cache_hit_rate", digest.get("cache_hits", 0.0),
          digest.get("repeated_seeds", 0.0))
    return metrics, summary


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no simulator sources under {src}; run from the root "
                    "of a checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(WORKLOADS)}")
    out_dir = checkout / ".perfbench"
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    checks = errors = 0
    if args.trace:
        state, slices, recorder, untraced_s, traced_s = run_traced(workload)
        metrics, summary = per_layer(
            workload, state, recorder, untraced_s, traced_s
        )
    else:
        clock = HostClock(workload.kernel)
        setup_s, state, slices, latencies, checks, errors = run_untraced(
            workload, args.seconds, clock
        )
        if not slices:
            return fail("no slice completed")
        metrics = end_to_end(setup_s, slices, latencies)
        print(clock.describe())
        print(f"job latency percentiles over {len(latencies)} jobs")
    attempted = sum(s.attempted for s in slices) + checks
    failed = sum(s.failed for s in slices) + errors

    checks = workload.check(state)
    workload.close(state)
    attempted += checks.attempted
    failed += len(checks.failures)
    for message in checks.failures:
        print(f"CHECK FAILED: {message}")
    for message in workload.defects:
        print(f"KNOWN DEFECT: {message}")
    if args.trace:
        ratio(metrics, "error_rate", failed, attempted)
        # "bench" is time in the traced slices outside every wrapped
        # entry point; it is reported but is not a layer of the program.
        layers = layer_self_times(summary)
        top = max(
            (layer for layer in layers if layer != "bench"),
            key=layers.get, default="none",
        )
        traced_total = sum(layers.values())
        print(f"largest self-time layer on {workload.name}: {top} "
              f"({layers.get(top, 0.0):.3f} s, "
              f"{layers.get(top, 0.0) / traced_total:.1%} of traced time)")
        for name, (calls, _, own) in sorted(
            summary.items(), key=lambda item: -item[1][2]
        )[:3]:
            print(f"  self time {own:8.3f} s  {calls:9d} calls  {name}")
        stem = f"{workload.name}-seed{args.seed}"
        recorder.write(out_dir / f"{stem}-spans.npz")
        (out_dir / f"{stem}-layers.json").write_text(json.dumps({
            "layers_self_s": layers,
            "largest_layer": top,
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(summary.items())},
        }, indent=2) + "\n")
    print(f"{workload.name} seed {args.seed}: error_rate "
          f"{failed}/{attempted} = {failed / attempted:.4f}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
