"""Request scheduling: FCFS vs FR-FCFS over an outstanding window.

Real memory controllers do not service requests in arrival order: the
classic FR-FCFS policy issues *row hits first* (a pending request whose
row is already open goes ahead of an older request that would need a
PRE+ACT), falling back to oldest-first.  This is where much of the
open-page policy's benefit comes from on mixed traffic — several tenants
interleaving streams would otherwise destroy each other's row locality.

``BatchScheduler`` applies the policy over one memory-level-parallelism
window: the set of requests a core (or several) has outstanding at the
same time.  That window is exactly the reordering scope a real MC queue
has, so scheduling within it captures the first-order effect without a
cycle-level queue model.
"""

from __future__ import annotations

from array import array as _array
from dataclasses import replace
from heapq import heapify, heappop, heappush
from typing import List, Sequence

from repro.mc.controller import CompletedRequest, MemoryController, MemoryRequest
from repro.obs.events import SCHED_BATCH

POLICIES = ("fcfs", "fr-fcfs")


def _frfcfs_order(bank_ids, rows, open_rows, closed, burst_due):
    """The FR-FCFS selection permutation for one outstanding window.

    Incremental selection: instead of rescanning the remaining window
    each round (O(n²)), keep a min-heap of known row-hit indices with
    lazy invalidation.  The heap top is exactly the oldest pending hit;
    entries are re-validated on pop (a hit candidate dies when its bank
    moved on, a duplicate when it already issued).  Opening row r on
    bank b promotes precisely the pending requests grouped under
    (b, r), so each issue does O(log n) work instead of a fresh scan.

    ``open_rows`` (bank id -> open row) is mutated to the simulated
    post-window state; ``burst_due`` models a REF burst due at the
    window's shared issue time (first pick against pre-REF state, every
    later pick against closed rows).  Returns ``(order, reordered)`` —
    the issue permutation and how many picks jumped the arrival queue.
    """
    n = len(bank_ids)
    groups: dict = {}
    for index in range(n):
        key = (bank_ids[index], rows[index])
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [index]
        else:
            bucket.append(index)
    hit_heap: List[int] = [
        index for index in range(n)
        if open_rows[bank_ids[index]] == rows[index]
    ]
    heapify(hit_heap)
    issued = [False] * n
    oldest = 0
    reordered = 0
    order: List[int] = []
    for _ in range(n):
        chosen = -1
        while hit_heap:
            index = hit_heap[0]
            if (not issued[index]
                    and open_rows[bank_ids[index]] == rows[index]):
                chosen = index
            heappop(hit_heap)
            if chosen >= 0:
                break
        while issued[oldest]:
            oldest += 1
        if chosen < 0:
            chosen = oldest
        elif chosen != oldest:
            reordered += 1
        issued[chosen] = True
        order.append(chosen)
        if burst_due:
            # First pick ran against pre-REF state; the burst (fired
            # by the first submission in the object path) closes
            # every row before any later pick.
            for bid in open_rows:
                open_rows[bid] = None
            burst_due = False
        bid = bank_ids[chosen]
        if closed:
            open_rows[bid] = None
        else:
            row = rows[chosen]
            open_rows[bid] = row
            bucket = groups[(bid, row)]
            if len(bucket) > 1:
                for index in bucket:
                    if not issued[index]:
                        heappush(hit_heap, index)
    return order, reordered


class BatchScheduler:
    """Issue batches of simultaneously outstanding requests."""

    def __init__(self, controller: MemoryController, policy: str = "fr-fcfs"):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {POLICIES}"
            )
        self.controller = controller
        self.policy = policy
        self.reordered = 0

    def issue(self, requests: Sequence[MemoryRequest]) -> List[CompletedRequest]:
        """Service every request of one outstanding window; returns the
        completions in *issue* order.

        Under FCFS the order is arrival order.  Under FR-FCFS, at each
        step the oldest pending request that would hit an open row goes
        first; when none would, the oldest request is issued (which
        opens a row that may turn later requests into hits).
        """
        controller = self.controller
        trace = controller.trace
        if trace.enabled and requests:
            trace.emit(
                SCHED_BATCH, min(r.time_ns for r in requests),
                size=len(requests), policy=self.policy,
            )
        if requests and controller.batch_fault is not None:
            # Fault seam: a stalled batch issues late.  Requests are
            # frozen, so the shift produces replacements; completion
            # records carry the shifted times like any queueing delay.
            stall_ns = controller.batch_fault(
                min(r.time_ns for r in requests), len(requests)
            )
            if stall_ns:
                requests = [
                    replace(r, time_ns=r.time_ns + stall_ns)
                    for r in requests
                ]
        if self.policy == "fcfs":
            return controller.submit_batch(list(requests))
        banks = controller.device.banks
        pending = list(requests)
        # Translate the whole window up front (one bulk call instead of
        # O(window²) scalar lookups across the scan rounds).  Safe: every
        # scan is left-to-right over ``pending``, so a line's *first*
        # translation happens in arrival order either way — lazy
        # first-touch frame placement lands identically.  Bank open-row
        # state is still read fresh in every round.
        lines = [request.physical_line for request in pending]
        addresses = controller.mapper.lines_to_ddr_bulk(lines)
        # Pre-resolve each request's bank object and row so a scan round
        # is a plain list walk (no per-element tuple construction or dict
        # lookups); the lists are popped in lockstep with ``pending``.
        bank_list = [
            banks[(address.channel, address.rank, address.bank)]
            for address in addresses
        ]
        row_list = [address.row for address in addresses]
        service = controller._service
        completed: List[CompletedRequest] = []
        while pending:
            chosen_index = 0
            for index, bank in enumerate(bank_list):
                if bank.open_row == row_list[index]:  # would be a row hit
                    chosen_index = index
                    break
            if chosen_index != 0:
                self.reordered += 1
            address = addresses.pop(chosen_index)
            bank_list.pop(chosen_index)
            row_list.pop(chosen_index)
            request = pending.pop(chosen_index)
            done, outcome, throttled, flips = service(
                address, request.time_ns, request.physical_line,
                request.is_write, request.domain, request.is_dma,
            )
            completed.append(
                CompletedRequest(
                    request=request,
                    address=address,
                    ready_at_ns=done,
                    caused_act=outcome != "hit",
                    buffer_outcome=outcome,
                    throttled_ns=throttled,
                    flips=flips,
                )
            )
        return completed

    def issue_columnar(self, batch) -> int:
        """Service one outstanding window given as a
        :class:`~repro.sim.columnar.ColumnarBatch`; returns the window
        completion time (0 for an empty batch).

        Result-identical to ``issue(batch.to_requests())`` followed by
        ``max(ready_at_ns)``.  The FR-FCFS selection scan normally
        re-reads live bank state between submissions; the columnar fast
        path instead *simulates* the open-row evolution locally (every
        submission's effect on its bank's open row is deterministic) and
        then runs the whole permuted window through the controller's
        bulk engine.  That simulation is only exact when nothing else
        can touch bank state mid-window, so the fast path requires:
        every ACT subscriber bulk-capable, no interrupt handlers (they
        may re-enter the controller and close rows), and a single
        shared issue time (the scheduler's windows are simultaneously
        outstanding by construction).  Anything else delegates to
        :meth:`issue` — counted in ``mc.columnar_fallbacks`` (total and
        per-reason) with the blocking reason.  Tracing is *not* a
        fallback reason: the bulk engine emits columnar trace records
        whose expansion matches the scalar stream, and this method
        emits the same ``sched_batch`` event :meth:`issue` would.

        A periodic REF burst due at the window start needs no fallback:
        with a uniform issue time the whole burst executes inside the
        *first* submission's refresh guard, so the object path selects
        its first request against pre-REF bank state and every later
        request against post-REF state — which the local simulation
        mirrors by closing every simulated row after the first pick.
        The bulk engine then performs the actual burst at its own
        refresh guard on element 0.
        """
        controller = self.controller
        line_col = batch.line
        n = len(line_col)
        if n == 0:
            return 0
        if self.policy == "fcfs":
            return controller.submit_columnar(batch)
        time_col = batch.issue_ns
        t0 = time_col[0]
        fallback = None
        if None in controller._act_observer_bulk:
            fallback = "scalar_observer"
        elif any(c._handlers for c in controller.counters.values()):
            fallback = "interrupt_handlers"
        else:
            for i in range(1, n):
                if time_col[i] != t0:
                    fallback = "mixed_times"
                    break
        if fallback is not None:
            # The batch-fault seam has not been consumed yet: plain
            # issue() applies it (and the trace emission) exactly.
            controller._note_columnar_fallback(fallback, n, t0)
            completions = self.issue(batch.to_requests())
            return max(c.ready_at_ns for c in completions)
        trace = controller.trace
        if trace.enabled:
            # Same event, same time, same position (before the fault
            # seam) as issue()'s emission — all issue times equal t0 on
            # this path, so min(time_ns) is t0.
            trace.emit(SCHED_BATCH, t0, size=n, policy=self.policy)
        if controller.batch_fault is not None:
            t0 += controller.batch_fault(t0, n)
        device = controller.device
        addresses = controller.mapper.lines_to_ddr_bulk(line_col)
        geometry = device.geometry
        ranks_per_channel = geometry.ranks_per_channel
        banks_per_rank = geometry.banks_per_rank
        bank_list = device.bank_list
        # Column-space bookkeeping: flat bank ids instead of (channel,
        # rank, bank) tuples — the O(n²) scan below then compares via
        # list indexing and int-keyed dict lookups, no tuple hashing.
        bank_ids = [
            (address.channel * ranks_per_channel + address.rank)
            * banks_per_rank + address.bank
            for address in addresses
        ]
        rows = [address.row for address in addresses]
        open_rows = {
            bid: bank_list[bid].open_row for bid in set(bank_ids)
        }
        closed = controller.page_policy == "closed"
        burst_due = (
            controller.refresh_enabled and controller._next_ref_at <= t0
        )
        order, reordered = _frfcfs_order(
            bank_ids, rows, open_rows, closed, burst_due
        )
        self.reordered += reordered
        write_col = batch.is_write
        dom_col = batch.domain
        times = [t0] * n
        return controller._submit_columnar_bulk(
            [addresses[index] for index in order],
            [line_col[index] for index in order],
            [write_col[index] for index in order],
            times,
            [dom_col[index] for index in order],
            n,
            bank_ids=[bank_ids[index] for index in order],
        )

    def issue_columnar_run(
        self, line_col, write_col, dom_col, window_sizes, start_ns: int
    ) -> int:
        """Service a whole chunk of outstanding windows in one engine
        call; returns the final window's completion time.

        Result-identical to loading each window into a batch at its
        start time and calling :meth:`issue_columnar` — FR-FCFS
        selection still runs per window against *live* bank state (the
        windowed engine invokes the ``reorder`` boundary hook after the
        previous window drained), and a due REF burst still fires at a
        window's first element — but address translation and the engine
        prelude run once per chunk instead of once per window.  Three
        conditions force the exact per-window loop instead: a
        scalar-only ACT observer, an interrupt handler (it may re-enter
        the controller mid-chunk), or an armed batch-fault seam (its
        stall shifts issue times, which only the per-window path
        applies).  The column arguments are consumed destructively (the
        hook permutes their window slices in place); callers pass
        throwaway copies.
        """
        controller = self.controller
        n = len(line_col)
        if n == 0:
            return start_ns
        if (None in controller._act_observer_bulk
                or any(c._handlers for c in controller.counters.values())
                or controller.batch_fault is not None):
            from repro.sim.columnar import ColumnarBatch

            batch = ColumnarBatch()
            now = start_ns
            start = 0
            for window in window_sizes:
                end = start + window
                batch.line = line_col[start:end]
                batch.is_write = write_col[start:end]
                batch.issue_ns = _array("q", (now,)) * window
                batch.domain = dom_col[start:end]
                done = self.issue_columnar(batch)
                if done > now:
                    now = done
                start = end
            return now
        trace = controller.trace
        tracing = trace.enabled
        addresses = controller.mapper.lines_to_ddr_bulk(line_col)
        device = controller.device
        geometry = device.geometry
        ranks_per_channel = geometry.ranks_per_channel
        banks_per_rank = geometry.banks_per_rank
        bank_list = device.bank_list
        bank_ids = [
            (address.channel * ranks_per_channel + address.rank)
            * banks_per_rank + address.bank
            for address in addresses
        ]
        rows = [address.row for address in addresses]
        frfcfs = self.policy != "fcfs"
        closed = controller.page_policy == "closed"
        policy = self.policy

        def reorder(start: int, end: int, t0: int) -> None:
            # issue_columnar emits sched_batch only on the FR-FCFS path
            # (FCFS delegates straight to submit_columnar) — match it.
            if not frfcfs:
                return
            if tracing:
                trace.emit(SCHED_BATCH, t0, size=end - start, policy=policy)
            open_rows: dict = {}
            for index in range(start, end):
                bid = bank_ids[index]
                if bid not in open_rows:
                    open_rows[bid] = bank_list[bid].open_row
            burst_due = (
                controller.refresh_enabled
                and controller._next_ref_at <= t0
            )
            window_bank_ids = bank_ids[start:end]
            window_rows = rows[start:end]
            order, moved = _frfcfs_order(
                window_bank_ids, window_rows, open_rows, closed, burst_due
            )
            if moved:
                # moved == 0 iff the permutation is the identity (every
                # pick was the oldest pending request).
                self.reordered += moved
                addresses[start:end] = [addresses[start + j] for j in order]
                bank_ids[start:end] = [window_bank_ids[j] for j in order]
                rows[start:end] = [window_rows[j] for j in order]
                line_col[start:end] = _array(
                    "q", [line_col[start + j] for j in order]
                )
                write_col[start:end] = _array(
                    "b", [write_col[start + j] for j in order]
                )
                dom_col[start:end] = _array(
                    "q", [dom_col[start + j] for j in order]
                )

        return controller._submit_columnar_bulk(
            addresses, line_col, write_col, None, dom_col, n,
            bank_ids=bank_ids, window_sizes=list(window_sizes),
            start_ns=start_ns, reorder=reorder,
        )
