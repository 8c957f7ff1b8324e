"""Benign workload generators: the traffic defenses must not wreck.

Every overhead number in the harness (E3, E8, E13) comes from running
these generators with a defense on and off.  Four archetypes cover the
access-locality spectrum the interleaving discussion (§4.1) cares about:

* ``sequential``   — streaming over the domain's whole space (high row
  locality; prefetch-friendly);
* ``random``       — uniform over the space (no locality; bank-level
  parallelism is all that helps);
* ``pointer_chase``— dependent irregular accesses within a small hot
  buffer (the workloads where disabling interleaving hurts most);
* ``zipfian``      — skewed mixed read/write, the cloud-tenant stand-in.

Generators yield *virtual* line numbers; the runner drives them through
the core with a configurable memory-level parallelism (outstanding
requests per step).
"""

from __future__ import annotations

import random
from array import array as _array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as _np

from repro.mc.controller import MemoryRequest
from repro.workloads.bulk import BulkGenerator

#: accesses generated/translated per chunk on the columnar front end —
#: large enough to amortize the numpy kernel launches, small enough that
#: the working columns stay cache-resident
_CHUNK_ACCESSES = 8192

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

#: A workload step: (virtual_line, is_write)
Access = Tuple[int, bool]

GENERATOR_NAMES = (
    "sequential", "random", "pointer_chase", "zipfian", "stride",
    "streaming_write",
)


def sequential(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Endless streaming reads over the whole space."""
    position = 0
    while True:
        yield position, False
        position = (position + 1) % handle_lines


def random_uniform(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Uniform random reads; 1 in 4 is a write.

    The line draw is ``int(rng.random() * n)`` rather than
    ``rng.randrange(n)``: ``randrange`` rejection-samples ``getrandbits``
    (data-dependent raw-word consumption, up to 50% rejected draws),
    which no fixed-width vector kernel can reproduce — while ``random()``
    consumes exactly two Twister words, so the bulk twin in
    :mod:`repro.workloads.bulk` stays bit-identical on one shared stream.
    """
    while True:
        line = int(rng.random() * handle_lines)
        yield line, rng.random() < 0.25


def pointer_chase(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Dependent chase within a hot buffer of at most 512 lines."""
    hot = min(handle_lines, 512)
    # A random permutation cycle, like a shuffled linked list.
    order = list(range(hot))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % hot] for i in range(hot)}
    position = order[0]
    while True:
        yield position, False
        position = successor[position]


def zipfian(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Zipf-skewed accesses (80/20-ish), 1 in 3 writes on hot lines."""
    # Approximate Zipf by exponentiating a uniform draw.  Written as
    # ``u * u * u`` (not ``u ** 3``): repeated IEEE multiplication is the
    # one cubing that numpy reproduces bit-for-bit, so the bulk twin's
    # integer truncation below can never straddle a final-ulp boundary.
    while True:
        u = rng.random()
        line = int(handle_lines * (u * u * u))  # heavy head at low lines
        line = min(line, handle_lines - 1)
        yield line, rng.random() < (0.33 if line < handle_lines // 5 else 0.1)


def stride(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Fixed-stride reads (a column walk / matrix traversal): touches a
    new row on almost every access, the row-locality worst case."""
    step = max(1, handle_lines // 97)  # co-prime-ish, covers the space
    position = rng.randrange(handle_lines)
    while True:
        yield position, False
        position = (position + step) % handle_lines


def streaming_write(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """memset/memcpy-style: sequential stores (writeback pressure)."""
    position = 0
    while True:
        yield position, True
        position = (position + 1) % handle_lines


_GENERATORS: Dict[str, Callable[[int, random.Random], Iterator[Access]]] = {
    "sequential": sequential,
    "random": random_uniform,
    "pointer_chase": pointer_chase,
    "zipfian": zipfian,
    "stride": stride,
    "streaming_write": streaming_write,
}


def make_generator(
    name: str, total_lines: int, rng: random.Random
) -> Iterator[Access]:
    try:
        factory = _GENERATORS[name]
    except KeyError:
        known = ", ".join(GENERATOR_NAMES)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    if total_lines < 1:
        raise ValueError("total_lines must be >= 1")
    return factory(total_lines, rng)


@dataclass
class WorkloadResult:
    """Performance of one benign run."""

    accesses: int
    started_ns: int
    finished_ns: int
    cache_hits: int

    @property
    def duration_ns(self) -> int:
        return max(1, self.finished_ns - self.started_ns)

    @property
    def lines_per_us(self) -> float:
        return self.accesses * 1000.0 / self.duration_ns

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.accesses if self.accesses else 0.0


class WorkloadRunner:
    """Drives a generator through a tenant's address space.

    ``mlp`` outstanding accesses are issued per step: the step's start
    time is shared (they overlap in the memory system) and the step ends
    at the slowest completion — a simple but standard way to express
    memory-level parallelism without a full out-of-order core."""

    def __init__(
        self,
        system: "System",
        handle: "DomainHandle",
        name: str = "sequential",
        mlp: int = 8,
        seed: int = 7,
        scheduler: str = "fcfs",
    ) -> None:
        """``scheduler``: "fcfs" drives accesses through the core/cache
        path in arrival order; "fr-fcfs" bypasses the cache and issues
        each MLP window through the row-hit-first batch scheduler (the
        memory-bound view a real MC queue gives mixed traffic)."""
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.system = system
        self.handle = handle
        self.name = name
        self.mlp = mlp
        self.scheduler_policy = scheduler
        self._batch_scheduler = None
        if scheduler != "fcfs":
            from repro.mc.scheduler import BatchScheduler

            self._batch_scheduler = BatchScheduler(
                system.controller, policy=scheduler
            )
        self._rng = random.Random(seed)
        # One stream object serves both consumption styles: the scalar
        # paths (step, next_request) iterate it one access at a time,
        # run_columnar pulls whole numpy columns — element-identical to
        # the reference iterators in this module and freely mixable,
        # because positional state lives in the BulkGenerator and random
        # state in the shared ``Random``.
        self._generator = BulkGenerator(name, handle.total_lines, self._rng)
        self.stepped_accesses = 0
        self.stepped_hits = 0

    def step(self, now: int) -> int:
        """Issue one MLP batch; returns the batch completion time.
        This is the quantum the cooperative engine schedules."""
        if self._batch_scheduler is not None:
            return self._step_scheduled(now)
        core = self.system.core
        asid = self.handle.asid
        batch_end = now
        for _ in range(self.mlp):
            line, is_write = next(self._generator)
            if is_write:
                outcome = core.store(asid, line, now)
            else:
                outcome = core.load(asid, line, now)
            if outcome.cache_hit:
                self.stepped_hits += 1
            batch_end = max(batch_end, outcome.done_at_ns)
            self.stepped_accesses += 1
        return batch_end

    def next_request(self, now: int):
        """Produce one memory request (uncached path) for shared-queue
        scheduling across tenants."""
        line, is_write = next(self._generator)
        self.stepped_accesses += 1
        return MemoryRequest(
            time_ns=now,
            physical_line=self.handle.physical_line(line),
            is_write=is_write,
            domain=self.handle.asid,
        )

    def _step_scheduled(self, now: int) -> int:
        """One MLP window through the MC batch scheduler (uncached —
        the memory-bound view)."""
        requests = []
        for _ in range(self.mlp):
            line, is_write = next(self._generator)
            requests.append(
                MemoryRequest(
                    time_ns=now,
                    physical_line=self.handle.physical_line(line),
                    is_write=is_write,
                    domain=self.handle.asid,
                )
            )
            self.stepped_accesses += 1
        completions = self._batch_scheduler.issue(requests)
        return max(c.ready_at_ns for c in completions)

    def run_columnar(self, accesses: int, start_ns: int = 0) -> WorkloadResult:
        """Execute ``accesses`` accesses through the columnar fast path.

        The memory-bound (uncached) view, like the ``fr-fcfs`` scheduled
        path: every access reaches the memory controller, bypassing the
        LLC, so ``cache_hits`` is 0 by construction.  Accesses are
        produced in :data:`_CHUNK_ACCESSES`-sized chunks — the generator
        emits ``(line, is_write)`` numpy columns
        (:class:`~repro.workloads.bulk.BulkGenerator`), the MMU
        translates and TLB-accounts the chunk through a
        :class:`~repro.cpu.mmu.TranslationPlan` — and submitted in MLP
        windows, each window issued at the completion time of the one
        before, exactly as the object path's windows are.

        When the controller can service a whole multi-window chunk in
        one engine call (:attr:`MemoryController.supports_columnar_run`:
        bulk-capable observers, no interrupt handlers) the chunk goes
        down in a single :meth:`submit_columnar_run`; otherwise each
        window is loaded into a reusable
        :class:`~repro.sim.columnar.ColumnarBatch` at C speed and
        submitted via :meth:`submit_columnar`, with the translation plan
        re-gathered whenever an interrupt handler remapped pages between
        windows.  A window containing an unmapped page is serviced
        per-access so the :class:`~repro.cpu.mmu.TranslationError`
        surfaces at exactly the faulting access with exactly the scalar
        path's partial TLB state (the generator, which draws whole
        chunks, may then have advanced past the faulting access).

        A short final remainder (``accesses`` not a multiple of ``mlp``)
        is merged into the last full window rather than issued as its
        own tiny batch: a ``min(mlp, accesses - issued)`` tail would
        start a fresh batch at the previous window's completion time and
        split a row-hit run across the boundary (the stub batch re-pays
        the open-row bookkeeping its run already earned).  The last
        window is therefore ``mlp``..``2*mlp - 1`` accesses wide.
        """
        from repro.sim.columnar import ColumnarBatch

        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        system = self.system
        controller = system.controller
        submit_columnar = controller.submit_columnar
        mmu = system.mmu
        translate_line = mmu.translate_line
        asid = self.handle.asid
        source = self._generator
        fallback_counter = getattr(system, "gen_fallbacks", None)
        count_fallbacks = source.scalar_fallback and fallback_counter is not None
        mlp = self.mlp
        batch = ColumnarBatch()
        now = start_ns
        issued = 0
        while issued < accesses:
            # The window plan for this chunk: cutting chunks at window
            # boundaries keeps the global plan identical to the
            # unchunked rule (the merged tail can only appear in the
            # final chunk).
            remaining = accesses - issued
            windows: List[int] = []
            chunk = 0
            while remaining and chunk < _CHUNK_ACCESSES:
                window = mlp if remaining >= 2 * mlp else remaining
                windows.append(window)
                chunk += window
                remaining -= window
            lines_np, writes_np = source.columns(chunk)
            if count_fallbacks:
                fallback_counter.add(chunk)
            plan = mmu.plan_translation(asid, lines_np)
            if plan.fault_at >= chunk and controller.supports_columnar_run:
                # Whole-chunk fast path.  No interrupt handlers means
                # nothing can remap pages or shoot down TLB entries
                # between this chunk's windows, so accounting the whole
                # chunk upfront is order-identical to per-window.
                plan.account(0, chunk)
                line_col = _array("q")
                line_col.frombytes(plan.physical_bytes(0, chunk))
                write_col = _array("b")
                write_col.frombytes(writes_np.tobytes())
                now = controller.submit_columnar_run(
                    line_col, write_col, asid, windows, now
                )
            else:
                start = 0
                for window in windows:
                    end = start + window
                    if plan.stale:
                        plan.refresh(start)
                    if plan.fault_at < end:
                        # Per-access window: surfaces TranslationError
                        # at the exact access with exact TLB state.
                        batch.clear()
                        for i in range(start, end):
                            line = translate_line(asid, int(lines_np[i]))
                            batch.append(
                                line, bool(writes_np[i]), now, asid
                            )
                    else:
                        plan.account(start, end)
                        batch.load_window(
                            plan.physical_bytes(start, end),
                            writes_np[start:end].tobytes(),
                            now, asid, window,
                        )
                    done = submit_columnar(batch)
                    if done > now:
                        now = done
                    start = end
            issued += chunk
        self.stepped_accesses += issued
        return WorkloadResult(
            accesses=issued,
            started_ns=start_ns,
            finished_ns=now,
            cache_hits=0,
        )

    def run(self, accesses: int, start_ns: int = 0) -> WorkloadResult:
        """Execute ``accesses`` accesses; returns timing and hit stats."""
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        core = self.system.core
        asid = self.handle.asid
        now = start_ns
        hits = 0
        issued = 0
        while issued < accesses:
            batch = min(self.mlp, accesses - issued)
            batch_end = now
            for _ in range(batch):
                line, is_write = next(self._generator)
                if is_write:
                    outcome = core.store(asid, line, now)
                else:
                    outcome = core.load(asid, line, now)
                if outcome.cache_hit:
                    hits += 1
                batch_end = max(batch_end, outcome.done_at_ns)
            issued += batch
            now = batch_end
        return WorkloadResult(
            accesses=issued,
            started_ns=start_ns,
            finished_ns=now,
            cache_hits=hits,
        )


class SharedQueueRunner:
    """Several tenants feeding one MC queue — the setting where request
    scheduling policy matters.

    Each step gathers a window of requests round-robin from all sources
    (they are simultaneously outstanding) and issues it through a
    :class:`~repro.mc.scheduler.BatchScheduler`.  With FCFS the tenants'
    streams thrash each other's row buffers; FR-FCFS restores row
    locality by serving open-row requests first.
    """

    def __init__(
        self,
        system: "System",
        sources: "List[WorkloadRunner]",
        window: int = 16,
        policy: str = "fr-fcfs",
    ) -> None:
        from repro.mc.scheduler import BatchScheduler

        if not sources:
            raise ValueError("need at least one source")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.system = system
        self.sources = list(sources)
        self.window = window
        self.scheduler = BatchScheduler(system.controller, policy=policy)
        self.steps = 0

    def step(self, now: int) -> int:
        """Issue one shared window; returns its completion time."""
        sources = self.sources
        count = len(sources)
        requests = [
            sources[index % count].next_request(now)
            for index in range(self.window)
        ]
        completions = self.scheduler.issue(requests)
        self.steps += 1
        return max(c.ready_at_ns for c in completions)

    def run(self, accesses: int, start_ns: int = 0) -> int:
        """Issue ``accesses`` accesses in shared windows; returns the
        finish time."""
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        now = start_ns
        issued = 0
        while issued < accesses:
            now = self.step(now)
            issued += self.window
        return now

    def run_columnar(self, accesses: int, start_ns: int = 0) -> int:
        """Columnar twin of :meth:`run`: same windows, same finish time,
        serviced through the struct-of-arrays engine.

        The front end is bulk: each source's
        generator emits whole numpy columns
        (:class:`~repro.workloads.bulk.BulkGenerator`) for a chunk of
        windows at once, the MMU translates each source's column through
        one :class:`~repro.cpu.mmu.TranslationPlan`, and the round-robin
        interleave is a vectorized scatter — per window only the batch
        load (C-speed byte copies) and the scheduler call remain.
        Scheduling itself is untouched:
        :meth:`~repro.mc.scheduler.BatchScheduler.issue_columnar`
        reorders every window exactly as the scalar twin does, so
        :class:`~repro.sim.metrics.RunMetrics` stays bit-identical.  One
        documented deviation: TLB hit/miss accounting
        (``cache.tlb.*`` gauges only — no RunMetrics field) runs
        per-source within each window instead of in round-robin access
        order, which can shift the hit/miss split when the shared TLB is
        thrashing across tenants.

        Windows containing an unmapped page (or following a mid-chunk
        remap by an interrupt handler, which also invalidates the
        per-source accounting cursors) drop to the per-access scalar
        path for the rest of the chunk, surfacing
        :class:`~repro.cpu.mmu.TranslationError` at the exact access.
        """
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        from repro.sim.columnar import ColumnarBatch

        batch = ColumnarBatch()
        now = start_ns
        issued = 0
        system = self.system
        mmu = system.mmu
        controller = system.controller
        issue = self.scheduler.issue_columnar
        sources = self.sources
        count = len(sources)
        window = self.window
        fallback_counter = getattr(system, "gen_fallbacks", None)
        # Round-robin slot positions of each source within one window
        # (sources beyond the window width never run — same as step()).
        slots = [list(range(s, window, count)) for s in range(count)]
        dom_template = _array(
            "q", [sources[p % count].handle.asid for p in range(window)]
        )
        windows_per_chunk = max(1, _CHUNK_ACCESSES // window)
        while issued < accesses:
            remaining_windows = -(-(accesses - issued) // window)
            chunk_windows = min(remaining_windows, windows_per_chunk)
            total = chunk_windows * window
            lines_np = _np.empty(total, dtype=_np.int64)
            writes_np = _np.empty(total, dtype=_np.int8)
            phys_np = _np.empty(total, dtype=_np.int64)
            # Per-source generation, translation plan, and the global
            # scatter indices of the source's accesses (window-major).
            per_source = []
            window_base = _np.arange(
                chunk_windows, dtype=_np.int64
            )[:, None] * window
            for s, source in enumerate(sources):
                positions = slots[s]
                per_window = len(positions)
                if per_window == 0:
                    continue
                drawn = per_window * chunk_windows
                generator = source._generator
                lines_s, writes_s = generator.columns(drawn)
                if generator.scalar_fallback and fallback_counter is not None:
                    fallback_counter.add(drawn)
                source.stepped_accesses += drawn
                index = (
                    window_base
                    + _np.asarray(positions, dtype=_np.int64)[None, :]
                ).ravel()
                lines_np[index] = lines_s
                writes_np[index] = writes_s
                plan = mmu.plan_translation(source.handle.asid, lines_s)
                per_source.append((source, plan, index, per_window))
            # Fast case: no interrupt handlers means no mid-chunk remap
            # and no TLB shootdowns, so the whole chunk accounts and
            # scatters upfront.  Handlers (or a planned fault) take the
            # windowed path below.
            clean = not any(
                c._handlers for c in controller.counters.values()
            ) and all(
                entry[1].fault_at >= chunk_windows * entry[3]
                for entry in per_source
            )
            if clean:
                for source, plan, index, per_window in per_source:
                    drawn = chunk_windows * per_window
                    plan.account(0, drawn)
                    phys_np[index] = plan.phys[:drawn]
                line_col = _array("q")
                line_col.frombytes(phys_np.tobytes())
                write_col = _array("b")
                write_col.frombytes(writes_np.tobytes())
                done = self.scheduler.issue_columnar_run(
                    line_col, write_col, dom_template * chunk_windows,
                    [window] * chunk_windows, now,
                )
                if done > now:
                    now = done
                self.steps += chunk_windows
                issued += total
                continue
            scalar_mode = False
            for w in range(chunk_windows):
                base = w * window
                if not scalar_mode:
                    # Windowed accounting: refresh stale plans, detect
                    # faults, then account and scatter this window.
                    faulted = False
                    for source, plan, index, per_window in per_source:
                        s_start = w * per_window
                        if plan.stale:
                            plan.refresh(s_start)
                        if plan.fault_at < s_start + per_window:
                            faulted = True
                    if faulted:
                        # The accounting cursors cannot survive a mix of
                        # per-access and planned windows: finish the
                        # chunk scalar (the fault will raise below).
                        scalar_mode = True
                    else:
                        for source, plan, index, per_window in per_source:
                            s_start = w * per_window
                            s_end = s_start + per_window
                            plan.account(s_start, s_end)
                            phys_np[index[s_start:s_end]] = (
                                plan.phys[s_start:s_end]
                            )
                if scalar_mode:
                    fault_batch = ColumnarBatch()
                    for p in range(window):
                        source = sources[p % count]
                        line = mmu.translate_line(
                            source.handle.asid, int(lines_np[base + p])
                        )
                        fault_batch.append(
                            line, bool(writes_np[base + p]), now,
                            source.handle.asid,
                        )
                    done = issue(fault_batch)
                else:
                    batch.load_window(
                        phys_np[base:base + window].tobytes(),
                        writes_np[base:base + window].tobytes(),
                        now, dom_template, window,
                    )
                    done = issue(batch)
                self.steps += 1
                if done > now:
                    now = done
            issued += total
        return now
