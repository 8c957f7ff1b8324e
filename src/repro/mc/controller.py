"""The CPU's integrated memory controller — where the paper's primitives live.

The controller owns: the physical→DDR address map (including the
subarray-isolated interleaving primitive), per-channel ACT counters with
(im)precise overflow interrupts, the periodic-refresh engine, and the
back-ends of the proposed ``refresh`` instruction, ``REF_NEIGHBORS``
command, and uncore move (§4.1–4.3).

Timing is request-driven: banks expose ``busy_until``; the controller adds
per-channel data-bus occupancy.  Requests to different banks overlap
(bank-level parallelism); requests to one bank serialize; all transfers on
a channel share its bus — enough fidelity for every claim in the paper
without a cycle-accurate pipeline.
"""

from __future__ import annotations

import random
from array import array as _array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dram.device import DramDevice
from repro.dram.disturbance import BitFlip
from repro.dram.geometry import DdrAddress
from repro.mc.address_map import AddressMapper
from repro.mc.counters import (
    ActCounter,
    ActInterrupt,
    InterruptHandler,
    per_channel_rng,
)
from repro.mc.stats import ControllerStats
from repro.obs import events as _ev
from repro.obs.columnar import ColumnarTraceRecord, flip_payload
from repro.obs.trace import TraceBus


@dataclass(slots=True)
class MemoryRequest:
    """One cache-line request reaching the controller (an LLC miss,
    writeback, or DMA transfer).

    Treated as immutable by convention but *not* frozen: a frozen slots
    dataclass pays ~2x its construction cost in ``object.__setattr__``
    calls, and this type is allocated once per request on the hottest
    paths in the simulator."""

    time_ns: int
    physical_line: int
    is_write: bool = False
    domain: Optional[int] = None
    is_dma: bool = False

    def __post_init__(self) -> None:
        if self.time_ns < 0:
            raise ValueError("request time must be >= 0")
        if self.physical_line < 0:
            raise ValueError("physical_line must be >= 0")


@dataclass(slots=True)
class CompletedRequest:
    """Outcome of one serviced request.  Immutable by convention, not
    frozen — same construction-cost rationale as :class:`MemoryRequest`."""

    request: MemoryRequest
    address: DdrAddress
    ready_at_ns: int
    caused_act: bool
    buffer_outcome: str  # "hit" | "miss" | "conflict"
    throttled_ns: int
    flips: List[BitFlip]

    @property
    def latency_ns(self) -> int:
        return self.ready_at_ns - self.request.time_ns


# A throttle gate inspects an imminent ACT and returns extra delay in ns
# (0 = proceed immediately).  BlockHammer-style defenses install one.
ActGate = Callable[[DdrAddress, int, Optional[int]], int]

# An ACT observer sees every ACT the controller issues (address, time,
# domain, is_dma).  In-MC tracker defenses (Graphene, TWiCe, PARA)
# subscribe here.
ActObserver = Callable[[DdrAddress, int, Optional[int], bool], None]

# Vector twin of an ActObserver: one call per flushed run of ACTs
# (addresses, completion times, domains; never DMA — DMA requests cannot
# enter the columnar path).  A bulk observer must be equivalent to its
# scalar twin called per element and must not retain the sequences (the
# engine reuses them).  It may be invoked slightly *earlier* than the
# scalar path would have called the per-ACT observer relative to an
# interrupt handler firing on the same ACT; observers that need strict
# ordering against handlers should not provide a bulk twin.
BulkActObserver = Callable[
    [Sequence[DdrAddress], Sequence[int], Sequence[Optional[int]]], None
]


class MemoryController:
    """One memory controller driving one DRAM device."""

    def __init__(
        self,
        device: DramDevice,
        mapper: AddressMapper,
        act_threshold: int = 1 << 20,
        precise_interrupts: bool = False,
        reset_jitter: int = 0,
        page_policy: str = "open",
        rng: Optional[random.Random] = None,
        trace: Optional[TraceBus] = None,
        counter_seed: Optional[int] = None,
    ) -> None:
        """``page_policy``: "open" keeps rows in the buffer after an
        access (locality-friendly; a lone hammered row self-absorbs into
        buffer hits); "closed" auto-precharges after every access
        (conflict-free for random traffic — and it turns *one-location*
        hammering into a real attack, since every access re-activates)."""
        if mapper.geometry != device.geometry:
            raise ValueError(
                "mapper and device geometries differ: the mapper was built "
                f"for {mapper.geometry!r} but the device has "
                f"{device.geometry!r}"
            )
        if page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.device = device
        self.mapper = mapper
        self.page_policy = page_policy
        self.stats = ControllerStats()
        self.trace = trace if trace is not None else TraceBus()
        self._rng = rng or random.Random(0)
        # Each channel's jitter RNG is seeded ``counter_seed ^ channel``
        # (the same derivation defenses use for their own streams), so no
        # two channels ever share an overflow-jitter sequence — learning
        # one channel's phase tells an evasive attacker nothing about the
        # others.  Without an explicit seed, fall back to drawing one
        # from the controller RNG; the per-channel XOR still applies.
        if counter_seed is None:
            counter_seed = self._rng.randrange(1 << 30)
        self.counter_seed = counter_seed
        self.counters: Dict[int, ActCounter] = {
            channel: ActCounter(
                channel,
                act_threshold,
                precise=precise_interrupts,
                reset_jitter=reset_jitter,
                rng=per_channel_rng(counter_seed, channel),
            )
            for channel in range(device.geometry.channels)
        }
        for counter in self.counters.values():
            counter.on_handler_error = self._on_handler_error
        self._bus_busy_until: Dict[int, int] = {
            channel: 0 for channel in range(device.geometry.channels)
        }
        self._next_ref_at: int = device.timings.tREFI
        self._act_gates: List[ActGate] = []
        self._act_observers: List[ActObserver] = []
        # Parallel to _act_observers: the bulk twin of each observer, or
        # None when the subscriber only handles scalar dispatch (which
        # forces submit_columnar onto its ordered per-request path).
        self._act_observer_bulk: List[Optional[BulkActObserver]] = []
        self.refresh_enabled: bool = True
        # Fault-injection seams (installed by repro.faults.plane): the
        # refresh hook may divert a ``refresh`` instruction to a row
        # other than the one software named; the batch hook may stall a
        # scheduler batch.  ``None`` means healthy hardware and costs
        # one attribute load on the affected paths.
        self.refresh_target_fault: Optional[
            Callable[[DdrAddress, int], DdrAddress]
        ] = None
        self.batch_fault: Optional[Callable[[int, int], int]] = None

    # ------------------------------------------------------------------
    # Defense wiring
    # ------------------------------------------------------------------

    def subscribe_interrupts(self, handler: InterruptHandler) -> None:
        """Deliver ACT_COUNT overflow interrupts to ``handler`` (§4.2)."""
        for counter in self.counters.values():
            counter.subscribe(handler)

    def configure_counters(
        self,
        threshold: int,
        precise: Optional[bool] = None,
        reset_jitter: Optional[int] = None,
    ) -> None:
        """Host-OS reconfiguration of the ACT counters."""
        for counter in self.counters.values():
            if precise is not None:
                counter.precise = precise
            if reset_jitter is not None:
                counter.reset_jitter = reset_jitter
            counter.set_threshold(threshold)

    def add_act_gate(self, gate: ActGate) -> None:
        self._act_gates.append(gate)

    def add_act_observer(
        self,
        observer: ActObserver,
        bulk: Optional[BulkActObserver] = None,
    ) -> None:
        """Subscribe ``observer`` to every ACT the controller issues.

        ``bulk``, when given, is the observer's vector twin: the
        columnar engine hands it whole runs of ACTs instead of one call
        per ACT.  Subscribers without a bulk twin keep full scalar
        semantics — ``submit_columnar`` then services batches through
        its ordered per-request path (counted in
        ``mc.columnar_fallbacks``) so stateful observers never see
        reordered or coalesced events.
        """
        self._act_observers.append(observer)
        self._act_observer_bulk.append(bulk)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def submit(self, request: MemoryRequest) -> CompletedRequest:
        """Service one request; returns its completion record.

        Side effects: periodic REF bursts due before the request are
        executed first; ACT counters/observers/gates fire if the request
        activates a row.
        """
        address = self.mapper.line_to_ddr(request.physical_line)
        done, outcome, throttled, flips = self._service(
            address, request.time_ns, request.physical_line,
            request.is_write, request.domain, request.is_dma,
        )
        return CompletedRequest(
            request=request,
            address=address,
            ready_at_ns=done,
            caused_act=outcome != "hit",
            buffer_outcome=outcome,
            throttled_ns=throttled,
            flips=flips,
        )

    def submit_batch(
        self, requests: List[MemoryRequest]
    ) -> List[CompletedRequest]:
        """Service a burst of requests in order — exactly
        ``[submit(r) for r in requests]``: every request runs the
        per-request refresh guard and lands its statistics before the
        next one starts."""
        submit = self.submit
        return [submit(request) for request in requests]

    def _service(
        self,
        address: DdrAddress,
        time_ns: int,
        line: int,
        is_write: bool,
        domain: Optional[int],
        is_dma: bool,
    ) -> Tuple[int, str, int, List[BitFlip]]:
        """The one exact per-request path, for an already-translated
        request; returns ``(done, outcome, throttled, flips)``.

        :meth:`submit`, :meth:`submit_batch`, the FR-FCFS scheduler and
        the ordered ``submit_columnar`` fallback all service requests
        here, so gates, device activation, ACT counters/observers, trace
        events and statistics land per request in one fixed order.
        Translating before the refresh guard is safe: REF bursts neither
        consult nor mutate the address mapper."""
        if self.refresh_enabled and self._next_ref_at <= time_ns:
            self.advance_to(time_ns)
        device = self.device
        bank = device.banks[(address.channel, address.rank, address.bank)]
        stats = self.stats
        timings = device.timings
        row = address.row
        open_row = bank.open_row
        now = time_ns
        throttled = 0
        will_act = open_row != row
        if will_act:
            if open_row is None:
                outcome = "miss"
                stats.row_misses += 1
            else:
                outcome = "conflict"
                stats.row_conflicts += 1
            for gate in self._act_gates:
                throttled += gate(address, now, domain)
            if throttled:
                now += throttled
                stats.throttle_stalls_ns += throttled
        else:
            outcome = "hit"
            stats.row_hits += 1
        if will_act:
            data_at_bank = bank.access(row, now)
            flips = device._physical_activate(address, data_at_bank, domain)
        else:
            # BankState.access's row-hit branch, inlined: same-row runs
            # retire at burst rate without entering the device.
            busy = bank.busy_until
            start = now if now >= busy else busy
            bank.row_hits += 1
            bank.busy_until = start + timings.tBL
            data_at_bank = start + timings.tCL
            flips = []
        bus = self._bus_busy_until
        bus_free = bus[address.channel]
        transfer_start = data_at_bank if data_at_bank > bus_free else bus_free
        done = transfer_start + timings.tBL
        bus[address.channel] = done
        if self.page_policy == "closed":
            bank.precharge(data_at_bank)

        trace = self.trace
        if trace.enabled:
            self._trace_access(
                trace, address, time_ns, line, domain, is_dma, outcome,
                open_row, throttled, now, flips,
            )
        if will_act:
            self._note_act(address, done, line, domain, is_dma)

        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if is_dma:
            stats.dma_requests += 1
        stats.total_request_latency_ns += done - time_ns
        if done > stats.busy_until_ns:
            stats.busy_until_ns = done
        return done, outcome, throttled, flips

    def submit_columnar(self, batch) -> int:
        """Service a struct-of-arrays burst
        (:class:`~repro.sim.columnar.ColumnarBatch`) in order; returns
        the burst completion time (max ``ready_at`` over the batch, or 0
        for an empty batch).

        Result-identical to ``submit_batch(batch.to_requests())``: the
        per-request refresh guard, gate/observer/counter side effects and
        all statistics land exactly as on the object path.  What the
        columnar path removes is the per-request object traffic — no
        ``MemoryRequest``/``CompletedRequest`` allocations, addresses
        come from one :meth:`AddressMapper.lines_to_ddr_bulk` call, and
        row-buffer hits (runs of requests hitting the same (bank, row))
        are retired inline without entering the device; only ACT
        boundaries (miss/conflict) delegate to the device so disturbance
        physics and defense hooks fire per activation as always.

        Tracing rides the fast path: the bulk engine
        defers per-ACT trace data into the same columns it already
        keeps and emits one
        :class:`~repro.obs.columnar.ColumnarTraceRecord` per flushed
        segment (``TraceBus.emit_bulk``), whose expansion is
        bit-identical to the scalar event stream.  When every
        ACT subscriber provides a bulk twin the batch runs on the fully
        vectorized engine (:meth:`_submit_columnar_bulk`); a scalar-only
        observer routes it through the ordered per-request loop over
        :meth:`_service` instead — counted in ``mc.columnar_fallbacks`` (total and
        ``mc.columnar_fallbacks.scalar_observer``) and emitting a
        ``columnar_fallback`` trace event carrying the reason.  (DMA
        never reaches this path: the columnar container refuses DMA
        requests by construction.)
        """
        line_col = batch.line
        n = len(line_col)
        if n == 0:
            return 0
        addresses = self.mapper.lines_to_ddr_bulk(line_col)
        if None in self._act_observer_bulk:
            self._note_columnar_fallback(
                "scalar_observer", n, batch.issue_ns[0]
            )
            # Ordered per-request fallback: stateful scalar subscribers
            # see events in exactly the order the object path delivers.
            service = self._service
            write_col = batch.is_write
            time_col = batch.issue_ns
            dom_col = batch.domain
            batch_done = 0
            for i in range(n):
                domain = dom_col[i]
                done = service(
                    addresses[i], time_col[i], line_col[i], write_col[i],
                    None if domain < 0 else domain, False,
                )[0]
                if done > batch_done:
                    batch_done = done
            return batch_done
        return self._submit_columnar_bulk(
            addresses, line_col, batch.is_write, batch.issue_ns,
            batch.domain, n,
        )

    @property
    def supports_columnar_run(self) -> bool:
        """Whether a whole multi-window run may be serviced in one
        engine call (:meth:`submit_columnar_run`): every ACT observer
        must provide a bulk twin (a scalar-only observer needs the
        per-window ordered fallback) and no interrupt handler may be
        subscribed — a handler can remap pages *between* windows, which
        would invalidate the run's pre-translated address column."""
        if None in self._act_observer_bulk:
            return False
        for counter in self.counters.values():
            if counter._handlers:
                return False
        return True

    def submit_columnar_run(
        self, line_col, write_col, domain,
        window_sizes: List[int], start_ns: int,
    ) -> int:
        """Service a whole chunk of MLP windows in one engine call.

        ``line_col``/``write_col`` are ``array('q')``/``array('b')``
        columns covering every window back to back; ``window_sizes``
        (each >= 1, summing to ``len(line_col)``) are the submission
        units.  ``domain`` is one trust-domain id (or ``None``) applied
        to every request, or a prebuilt per-element ``array('q')``
        column (the shared-queue runners interleave tenants).  Semantically identical to the per-window loop the
        columnar runners previously drove — each window is issued at the
        completion time of the one before it (``now = max(now, done)``),
        refresh boundaries and counter overflows behave per request —
        but address translation, the observer-capability check and the
        engine prelude run once per chunk instead of once per window.
        With observers attached (or tracing on) deferred ACT events
        still flush at every window boundary, so defense state advances
        exactly where the per-window loop advanced it; callers must
        check :attr:`supports_columnar_run` first.

        Returns the final window's completion time (>= ``start_ns``).
        """
        n = len(line_col)
        if n == 0:
            return start_ns
        if not self.supports_columnar_run:
            raise RuntimeError(
                "submit_columnar_run needs bulk-capable observers and no "
                "interrupt handlers; check supports_columnar_run first"
            )
        addresses = self.mapper.lines_to_ddr_bulk(line_col)
        if isinstance(domain, _array):
            # per-element domain column (the shared-queue interleave)
            if len(domain) != n:
                raise ValueError("domain column length disagrees with batch")
            dom_col = domain
        else:
            dom_col = _array("q", (-1 if domain is None else domain,)) * n
        return self._submit_columnar_bulk(
            addresses, line_col, write_col, None, dom_col, n,
            window_sizes=window_sizes, start_ns=start_ns,
        )

    def _note_columnar_fallback(
        self, reason: str, size: int, time_ns: int
    ) -> None:
        """A columnar batch is being serviced via the object/scalar
        path: count it — total plus the per-reason
        ``mc.columnar_fallbacks.<reason>`` breakdown (reasons drawn from
        :data:`repro.mc.stats.FALLBACK_REASONS`) — and put the same
        reason on the trace so silent delegation is diagnosable."""
        self.stats.note_columnar_fallback(reason)
        if self.trace.enabled:
            self.trace.emit(
                _ev.COLUMNAR_FALLBACK, time_ns, reason=reason, size=size,
            )

    def _submit_columnar_bulk(
        self,
        addresses: List[DdrAddress],
        line_col,
        write_col,
        time_col,
        dom_col,
        n: int,
        bank_ids: Optional[List[int]] = None,
        window_sizes: Optional[List[int]] = None,
        start_ns: int = 0,
        reorder=None,
    ) -> int:
        """The fully vectorized columnar engine (tier 3).

        Result-identical to servicing each element through
        :meth:`_service` (hence to ``submit_batch``), with the per-ACT
        side effects run in column space:

        * disturbance accrual is deferred into address/row/time vectors
          and flushed through :meth:`DisturbanceTracker.on_activate_bulk`
          (at refresh boundaries, counter overflows, and batch end — all
          points where tracker state becomes externally observable);
        * per-channel ACT counters are kept in hoisted locals; quiet runs
          settle via :meth:`ActCounter.absorb` and each overflow routes
          through the counter's own scalar path, so jitter redraw,
          delivery filtering and handler dispatch are exact.  Before a
          handler runs, *every* channel's count, ``stats.acts`` and the
          per-domain histogram are synchronised — handlers observe the
          same architectural state the scalar path would show them — and
          every hoisted value is re-read afterwards because handlers may
          re-enter the controller (targeted refreshes, uncore moves,
          counter reconfiguration);
        * ``mc.*`` throughput counters and the per-domain ACT histogram
          accumulate in locals and flush once at batch end.

        In-DRAM mitigations (:attr:`DramDevice.mitigation`) stay inline
        per ACT: their tables are only *read* at refresh bursts, which
        the engine always runs on flushed state.

        With tracing enabled the engine stays on this path: per-ACT
        trace data (service time, stall, closed row, line) rides in
        parallel deferred columns and each flushed segment goes out as
        one :class:`~repro.obs.columnar.ColumnarTraceRecord` whose
        expansion reproduces the scalar event stream exactly — segments
        break at refresh boundaries and counter overflows, the very
        points where the scalar path would interleave foreign events.

        ``window_sizes`` switches the engine into *windowed* mode (the
        :meth:`submit_columnar_run` chunk path): ``time_col`` is ignored
        and every request of window ``w`` is issued at that window's
        start time — ``start_ns`` for the first, then
        ``max(previous_start, previous_completion)`` — reproducing the
        outer per-window submit loop's timing exactly.  With observers
        attached or tracing on, deferred ACT events additionally flush
        at each window boundary so defense gates read state advanced to
        precisely where the per-window loop would have advanced it;
        otherwise segments are free to span windows (same results,
        bigger vectors).  The return value is then the final window's
        completion time rather than the batch max.

        ``reorder`` (windowed mode only) is invoked at each window
        boundary as ``reorder(start, end, now)`` — after the previous
        window's deferred events flushed, before any of the window's
        requests issue — so a scheduler can read *live* bank state and
        permute the window's column slices in place
        (:meth:`BatchScheduler.issue_columnar_run` drives FR-FCFS this
        way).  Requests in a window share one issue time, so a due
        refresh burst can only fire at the window's first element:
        state the hook reads is exactly the state a per-window
        scheduler call would have read.
        """
        device = self.device
        timings = device.timings
        tBL = timings.tBL
        tCL = timings.tCL
        tRP = timings.tRP
        tRC = timings.tRC
        tRCD = timings.tRCD
        bus = self._bus_busy_until
        gates = self._act_gates
        closed = self.page_policy == "closed"
        refresh_enabled = self.refresh_enabled
        stats = self.stats
        mitigation = device.mitigation
        tracker = device.tracker
        remapper = device.remapper
        identity_remap = remapper.is_identity()
        to_internal = remapper.to_internal
        counters = self.counters
        bank_list = device.bank_list
        if bank_ids is None:
            bank_index_of = device._bank_index
            bank_ids = [
                bank_index_of[(a.channel, a.rank, a.bank)]
                for a in addresses
            ]

        trace = self.trace
        tracing = trace.enabled

        # Deferred ACT event columns, flushed together: logical address,
        # internal row (remapped configs only), ACT completion time for
        # the tracker, request completion time for observers, domain.
        act_addr: List[DdrAddress] = []
        act_row: List[int] = []
        act_bid: List[int] = []
        act_t: List[int] = []
        act_done: List[int] = []
        act_dom: List[Optional[int]] = []
        # Trace-only parallel columns: post-throttle service time (the
        # scalar ACT event timestamp), stall, closed row, physical line.
        act_now: List[int] = []
        act_stall: List[int] = []
        act_closed: List[Optional[int]] = []
        act_line: List[int] = []
        have_observers = bool(self._act_observers)

        def flush_events() -> None:
            nonlocal act_addr, act_row, act_bid, act_t, act_done, act_dom
            nonlocal act_now, act_stall, act_closed, act_line
            if not act_t:
                return
            # Rows and flat bank ids ride along as plain int columns so
            # the tracker's numpy kernel skips its attribute walks.
            if tracing:
                flip_positions: List[int] = []
                flips = tracker.on_activate_bulk(
                    act_addr, act_t, act_dom,
                    rows=act_row, bank_ids=act_bid,
                    out_positions=flip_positions,
                )
            else:
                tracker.on_activate_bulk(
                    act_addr, act_t, act_dom,
                    rows=act_row, bank_ids=act_bid,
                )
            if tracing:
                # The record takes ownership of the deferred columns —
                # they are *rebound* below, never cleared, so handing
                # them over without copies is safe (the record is frozen
                # and nothing mutates its columns after construction).
                trace.emit_bulk(ColumnarTraceRecord(
                    time_ns=act_now[0],
                    channel=[a.channel for a in act_addr],
                    rank=[a.rank for a in act_addr],
                    bank=[a.bank for a in act_addr],
                    row=[a.row for a in act_addr],
                    line=act_line,
                    domain=act_dom,
                    act_ns=act_now,
                    stall_ns=act_stall,
                    closed_row=act_closed,
                    flip_pos=flip_positions,
                    flips=[flip_payload(flip) for flip in flips],
                ))
                act_now = []
                act_stall = []
                act_closed = []
                act_line = []
            if have_observers:
                observers = self._act_observers
                observer_bulk = self._act_observer_bulk
                for index in range(len(observers)):
                    bulk = observer_bulk[index]
                    if bulk is not None:
                        bulk(act_addr, act_done, act_dom)
                    else:
                        # A scalar-only observer appeared mid-batch (an
                        # interrupt handler installed it): replay in
                        # order rather than crash; the next batch will
                        # take the segmented path from the start.
                        scalar = observers[index]
                        for k in range(len(act_done)):
                            scalar(act_addr[k], act_done[k], act_dom[k],
                                   False)
            act_addr = []
            act_row = []
            act_bid = []
            act_t = []
            act_done = []
            act_dom = []

        # Hoisted per-channel counter state; pending = ACTs counted
        # locally but not yet settled into the counter object.
        ch_count = {c: k._count for c, k in counters.items()}
        ch_next = {c: k._next_overflow_at for c, k in counters.items()}
        ch_pending = {c: 0 for c in counters}

        next_ref = self._next_ref_at
        acts_delta = 0
        dom_delta: Dict[int, int] = {}

        reads = writes = hits = misses = conflicts = 0
        latency_ns = 0
        busy_until = stats.busy_until_ns
        batch_done = 0

        # Windowed-mode bookkeeping: window_end == -1 disables the
        # boundary branch entirely for plain batches.
        windowed = window_sizes is not None
        window_end = 0 if windowed else -1
        now_window = start_ns
        time_ns = 0
        if windowed:
            window_iter = iter(window_sizes)
            # Tracing pins one ColumnarTraceRecord per window (matching
            # what per-window submit_columnar calls would emit), so the
            # deferred events must flush at every boundary.  Plain bulk
            # observers honor the element-wise on_activate_bulk contract
            # (the windowed path is only entered when every observer has
            # a bulk twin and no interrupt handler is armed), so their
            # delivery can batch across windows: overflow seams and REF
            # sweeps still flush exactly, and larger event columns let
            # the tracker's numpy kernel engage instead of its fused
            # scalar twin.
            flush_per_window = tracing

        def sync_acts() -> None:
            nonlocal acts_delta
            if acts_delta:
                stats.acts += acts_delta
                acts_delta = 0
            if dom_delta:
                histogram = stats.acts_by_domain
                for key, value in dom_delta.items():
                    histogram[key] = histogram.get(key, 0) + value
                dom_delta.clear()

        for i in range(n):
            if i == window_end:
                # Window boundary: the next window issues when the
                # previous one has fully drained (or immediately, for
                # the first).  Flushing deferred events here keeps
                # observer/tracer granularity at one window, matching
                # what per-window submit_columnar calls would produce.
                if batch_done > now_window:
                    now_window = batch_done
                batch_done = 0
                if flush_per_window:
                    flush_events()
                window_end = i + next(window_iter)
                if reorder is not None:
                    reorder(i, window_end, now_window)
                time_ns = now_window
            elif windowed:
                time_ns = now_window
            else:
                time_ns = time_col[i]
            if refresh_enabled and next_ref <= time_ns:
                # Refresh reads tracker and mitigation state: flush the
                # deferred events so the sweep sees exactly what the
                # scalar path would have accrued by now.
                flush_events()
                self.advance_to(time_ns)
                next_ref = self._next_ref_at
            address = addresses[i]
            channel = address.channel
            bank = bank_list[bank_ids[i]]
            open_row = bank.open_row
            row = address.row
            if open_row == row:
                # BankState.access hit branch, inlined.
                hits += 1
                busy = bank.busy_until
                start = time_ns if time_ns >= busy else busy
                bank.row_hits += 1
                bank.busy_until = start + tBL
                data_at_bank = start + tCL
                will_act = False
            else:
                will_act = True
                domain = dom_col[i]
                if domain < 0:
                    domain = None
                now = time_ns
                throttled = 0
                if gates:
                    for gate in gates:
                        throttled += gate(address, now, domain)
                    if throttled:
                        now += throttled
                        stats.throttle_stalls_ns += throttled
                # BankState.access ACT branch, inlined (including the
                # bank's own counters).
                busy = bank.busy_until
                start = now if now >= busy else busy
                if open_row is None:
                    misses += 1
                    bank.row_misses += 1
                    act_at = start
                else:
                    conflicts += 1
                    bank.row_conflicts += 1
                    bank.precharges += 1
                    act_at = start + tRP
                earliest = bank.last_act_at + tRC
                if act_at < earliest:
                    act_at = earliest
                bank.open_row = row
                bank.acts += 1
                bank.last_act_at = act_at
                bank.busy_until = act_at + tRCD + tBL
                data_at_bank = act_at + tRCD + tCL
                # DramDevice._physical_activate, split: the in-DRAM
                # mitigation samples inline (order-exact); disturbance
                # accrual is deferred into the event columns.
                if mitigation is not None:
                    mitigation.on_activate(address, data_at_bank)
                act_addr.append(address)
                act_row.append(
                    row if identity_remap else to_internal(bank_ids[i], row)
                )
                act_bid.append(bank_ids[i])
                act_t.append(data_at_bank)
                act_dom.append(domain)
                if tracing:
                    act_now.append(now)
                    act_stall.append(throttled)
                    act_closed.append(open_row)
                    act_line.append(line_col[i])
            bus_free = bus[channel]
            transfer_start = (
                data_at_bank if data_at_bank > bus_free else bus_free
            )
            done = transfer_start + tBL
            bus[channel] = done
            if closed:
                bank.precharge(data_at_bank)
            if will_act:
                act_done.append(done)
                acts_delta += 1
                domain_key = -1 if domain is None else domain
                dom_delta[domain_key] = dom_delta.get(domain_key, 0) + 1
                count = ch_count[channel] + 1
                pending = ch_pending[channel] + 1
                if count < ch_next[channel]:
                    ch_count[channel] = count
                    ch_pending[channel] = pending
                else:
                    # Overflow: make every piece of architectural state
                    # exact, then let the counter's own scalar path fire
                    # the interrupt machinery.
                    flush_events()
                    sync_acts()
                    for other, other_pending in ch_pending.items():
                        if other != channel and other_pending:
                            counters[other].absorb(other_pending)
                            ch_pending[other] = 0
                    counter = counters[channel]
                    counter.absorb(pending - 1)
                    ch_pending[channel] = 0
                    interrupt = counter.on_act(done, line_col[i], False)
                    if tracing and interrupt is not None:
                        # Same position as the scalar stream: after the
                        # flushed record (which ends with this ACT and
                        # its flips) and any handler-emitted events.
                        trace.emit(
                            _ev.ACT_INTERRUPT, interrupt.time_ns,
                            channel=interrupt.channel,
                            count=interrupt.count_at_overflow,
                            line=interrupt.physical_line,
                            dma=interrupt.from_dma,
                        )
                    # Handlers may have re-entered the controller:
                    # re-read everything hoisted.
                    next_ref = self._next_ref_at
                    for other, other_counter in counters.items():
                        ch_count[other] = other_counter._count
                        ch_next[other] = other_counter._next_overflow_at
                    have_observers = bool(self._act_observers)

            if write_col[i]:
                writes += 1
            else:
                reads += 1
            latency_ns += done - time_ns
            if done > busy_until:
                busy_until = done
            if done > batch_done:
                batch_done = done

        flush_events()
        sync_acts()
        for channel, pending in ch_pending.items():
            if pending:
                counters[channel].absorb(pending)
        stats.reads += reads
        stats.writes += writes
        stats.row_hits += hits
        stats.row_misses += misses
        stats.row_conflicts += conflicts
        stats.total_request_latency_ns += latency_ns
        stats.busy_until_ns = busy_until
        if windowed:
            # Completion of the final window (batch_done covers only
            # requests issued since the last boundary).
            return now_window if now_window > batch_done else batch_done
        return batch_done

    def advance_to(self, now: int) -> None:
        """Execute all periodic REF bursts scheduled before ``now``."""
        if not self.refresh_enabled:
            return
        next_ref = self._next_ref_at
        if next_ref > now:
            return
        device = self.device
        tREFI = device.timings.tREFI
        bursts = 0
        while next_ref <= now:
            device.refresh_burst(next_ref)
            bursts += 1
            next_ref += tREFI
        self._next_ref_at = next_ref
        self.stats.ref_bursts += bursts

    # ------------------------------------------------------------------
    # Primitive back-ends (§4.1–4.3)
    # ------------------------------------------------------------------

    def refresh_line(
        self, physical_line: int, now: int, auto_precharge: bool = True
    ) -> int:
        """Back-end of the proposed ``refresh`` instruction: PRE + ACT
        (+PRE if ``auto_precharge``) on the row holding ``physical_line``.
        Returns completion time.  The ACT side effect goes through the
        same counting/observation path as any other ACT — the instruction
        is not exempt from the MC's own bookkeeping."""
        self.advance_to(now)
        address = self.mapper.line_to_ddr(physical_line)
        if self.refresh_target_fault is not None:
            # Fault seam: the command that actually reaches the bus may
            # target a different row than software named.  Accounting
            # below reflects the *actual* command; software's belief
            # that the named row was refreshed is exactly the blind spot
            # the deep invariant probes exist to expose.
            address = self.refresh_target_fault(address, now)
        ready, _flips = self.device.activate(
            address, now, domain=None, precharge_after=auto_precharge,
            refresh_only=True,
        )
        self.stats.targeted_refreshes += 1
        self.stats.acts += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.TARGETED_REFRESH, now, line=physical_line,
                row=[address.channel, address.rank, address.bank, address.row],
            )
        for observer in self._act_observers:
            observer(address, ready, None, False)
        return ready

    def ref_neighbors_line(
        self, physical_line: int, blast_radius: int, now: int
    ) -> int:
        """Back-end of the proposed REF_NEIGHBORS DDR command (§4.3)."""
        self.advance_to(now)
        address = self.mapper.line_to_ddr(physical_line)
        done = self.device.ref_neighbors(address, blast_radius, now)
        self.stats.neighbor_refresh_commands += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.NEIGHBOR_REFRESH, now, line=physical_line,
                radius=blast_radius,
                row=[address.channel, address.rank, address.bank, address.row],
            )
        return done

    def uncore_move(self, src_line: int, dst_line: int, now: int) -> int:
        """Back-end of the proposed uncore move (§4.2): copy one cache
        line DRAM-to-DRAM through MC buffers, never touching core
        registers.  Returns completion time."""
        read_done = self.submit(
            MemoryRequest(time_ns=now, physical_line=src_line, is_write=False)
        ).ready_at_ns
        write_done = self.submit(
            MemoryRequest(
                time_ns=read_done, physical_line=dst_line, is_write=True
            )
        ).ready_at_ns
        self.stats.uncore_moves += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.UNCORE_MOVE, now, src_line=src_line, dst_line=dst_line,
            )
        return write_done

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_handler_error(
        self,
        interrupt: ActInterrupt,
        handler: InterruptHandler,
        error: Exception,
    ) -> None:
        """A subscribed host-OS interrupt handler raised: count it and
        put it on the trace so the failure is diagnosable instead of
        silently swallowed (and never lets it unwind the request path)."""
        self.stats.interrupt_handler_failures += 1
        if self.trace.enabled:
            self.trace.emit(
                _ev.HANDLER_ERROR, interrupt.time_ns,
                channel=interrupt.channel,
                handler=getattr(handler, "__qualname__", repr(handler)),
                error=f"{type(error).__name__}: {error}",
            )

    def _note_act(
        self,
        address: DdrAddress,
        time_ns: int,
        physical_line: int,
        domain: Optional[int],
        is_dma: bool,
    ) -> None:
        stats = self.stats
        stats.acts += 1
        histogram = stats.acts_by_domain
        domain_key = -1 if domain is None else domain
        histogram[domain_key] = histogram.get(domain_key, 0) + 1
        interrupt = self.counters[address.channel].on_act(
            time_ns, physical_line, is_dma
        )
        if interrupt is not None and self.trace.enabled:
            self.trace.emit(
                _ev.ACT_INTERRUPT, interrupt.time_ns,
                channel=interrupt.channel,
                count=interrupt.count_at_overflow,
                line=interrupt.physical_line,
                dma=interrupt.from_dma,
            )
        for observer in self._act_observers:
            observer(address, time_ns, domain, is_dma)

    def _trace_access(
        self,
        trace: TraceBus,
        address: DdrAddress,
        time_ns: int,
        line: int,
        domain: Optional[int],
        is_dma: bool,
        outcome: str,
        open_row: Optional[int],
        throttled: int,
        now: int,
        flips: List[BitFlip],
    ) -> None:
        """Emit the events of one serviced request (tracing only)."""
        if outcome != "hit":
            trace.emit(
                _ev.ACT, now,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row,
                line=line, domain=domain, dma=is_dma,
            )
        if outcome == "conflict":
            trace.emit(
                _ev.ROW_CONFLICT, now,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row, closed_row=open_row,
                line=line, domain=domain,
            )
        if throttled:
            trace.emit(
                _ev.THROTTLE_STALL, time_ns,
                channel=address.channel, rank=address.rank,
                bank=address.bank, row=address.row,
                stall_ns=throttled, domain=domain,
            )
        for flip in flips:
            trace.emit(
                _ev.BIT_FLIP, flip.time_ns,
                victim=list(flip.victim), aggressor=list(flip.aggressor),
                aggressor_domain=flip.aggressor_domain,
                victim_domains=sorted(flip.victim_domains),
                bits=flip.flipped_bits,
            )
