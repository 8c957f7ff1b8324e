"""Per-domain virtual memory: page tables and an ASID-tagged TLB.

The paper's primitives are specified against *virtual* addresses at the
ISA surface (the ``refresh`` instruction takes a ``va``, §4.3) and against
trust domains identified by ASIDs (§4.1 suggests coordinating domain ↔
subarray-group mappings via ASID tags "akin to those already used in the
TLB").  This module provides both: per-domain page tables mapping virtual
page numbers to physical frames, and a small ASID-tagged TLB whose reach
is irrelevant to security but keeps the model honest about translation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as _np


class TranslationError(Exception):
    """Raised on access to an unmapped virtual page."""


@dataclass(frozen=True)
class PageMapping:
    """One virtual→physical page mapping."""

    virtual_page: int
    frame: int
    writable: bool = True


class PageTable:
    """One domain's virtual→physical map (single-level, page granular)."""

    def __init__(self, asid: int) -> None:
        self.asid = asid
        self._map: Dict[int, PageMapping] = {}
        #: bumped on every map/remap/unmap; chunk-granular translation
        #: plans (:class:`TranslationPlan`) compare it to detect that a
        #: cached frame column went stale mid-run
        self.version = 0

    def map(self, virtual_page: int, frame: int, writable: bool = True) -> None:
        if virtual_page < 0 or frame < 0:
            raise ValueError("virtual_page and frame must be >= 0")
        if virtual_page in self._map:
            raise ValueError(f"virtual page {virtual_page} already mapped")
        self._map[virtual_page] = PageMapping(virtual_page, frame, writable)
        self.version += 1

    def remap(self, virtual_page: int, new_frame: int) -> int:
        """Point ``virtual_page`` at ``new_frame`` (used by the aggressor
        wear-leveling defense, §4.2).  Returns the old frame."""
        old = self._map.get(virtual_page)
        if old is None:
            raise TranslationError(f"virtual page {virtual_page} not mapped")
        self._map[virtual_page] = PageMapping(
            virtual_page, new_frame, old.writable
        )
        self.version += 1
        return old.frame

    def unmap(self, virtual_page: int) -> int:
        old = self._map.pop(virtual_page, None)
        if old is None:
            raise TranslationError(f"virtual page {virtual_page} not mapped")
        self.version += 1
        return old.frame

    def translate(self, virtual_page: int) -> PageMapping:
        mapping = self._map.get(virtual_page)
        if mapping is None:
            raise TranslationError(
                f"ASID {self.asid}: virtual page {virtual_page} not mapped"
            )
        return mapping

    def mappings(self) -> Iterator[PageMapping]:
        return iter(self._map.values())

    def frames(self) -> Iterator[int]:
        for mapping in self._map.values():
            yield mapping.frame

    def __len__(self) -> int:
        return len(self._map)


class Tlb:
    """ASID-tagged LRU TLB over (asid, virtual_page) → frame."""

    def __init__(self, entries: int = 64) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.capacity = entries
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, asid: int, virtual_page: int) -> Optional[int]:
        key = (asid, virtual_page)
        frame = self._entries.get(key)
        if frame is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return frame

    def fill(self, asid: int, virtual_page: int, frame: int) -> None:
        key = (asid, virtual_page)
        self._entries[key] = frame
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, asid: int, virtual_page: Optional[int] = None) -> None:
        """Shoot down one page of one ASID, or the whole ASID."""
        if virtual_page is not None:
            self._entries.pop((asid, virtual_page), None)
            return
        for key in [k for k in self._entries if k[0] == asid]:
            del self._entries[key]


class Mmu:
    """Translation front-end shared by all cores: per-ASID page tables
    plus one TLB.  Addresses are line-granular throughout the simulator;
    ``lines_per_page`` converts between lines and pages."""

    def __init__(self, lines_per_page: int = 64, tlb_entries: int = 64) -> None:
        if lines_per_page < 1:
            raise ValueError("lines_per_page must be >= 1")
        self.lines_per_page = lines_per_page
        self.tlb = Tlb(tlb_entries)
        self._tables: Dict[int, PageTable] = {}

    def table(self, asid: int) -> PageTable:
        if asid not in self._tables:
            self._tables[asid] = PageTable(asid)
        return self._tables[asid]

    def translate_line(self, asid: int, virtual_line: int) -> int:
        """Translate a virtual cache-line index to a physical one."""
        lines_per_page = self.lines_per_page
        virtual_page = virtual_line // lines_per_page
        offset = virtual_line - virtual_page * lines_per_page
        # Inlined TLB hit path (this is the hottest translation route).
        tlb = self.tlb
        key = (asid, virtual_page)
        frame = tlb._entries.get(key)
        if frame is None:
            tlb.misses += 1
            mapping = self.table(asid).translate(virtual_page)
            frame = mapping.frame
            tlb.fill(asid, virtual_page, frame)
        else:
            tlb.hits += 1
            tlb._entries.move_to_end(key)
        return frame * lines_per_page + offset

    def remap_page(self, asid: int, virtual_page: int, new_frame: int) -> int:
        """Move a page to a new frame and shoot down the stale TLB entry.
        Returns the old frame."""
        old = self.table(asid).remap(virtual_page, new_frame)
        self.tlb.invalidate(asid, virtual_page)
        return old

    def translate_lines_bulk(self, asid: int, virtual_lines) -> "list[int]":
        """Translate a whole column of virtual line indices at once.

        Equivalent to calling :meth:`translate_line` per element — same
        physical lines, same TLB hit/miss/evict accounting, same
        :class:`TranslationError` at the first unmapped access — but the
        page split and frame gather run vectorized and the TLB is only
        walked at *page-run heads* (an access to the same page as its
        predecessor is by construction an MRU hit, so it is accrued in
        bulk without touching the LRU structure).  Returns a list of
        physical line indices.
        """
        plan = self.plan_translation(asid, virtual_lines)
        count = len(plan)
        if plan.fault_at < count:
            # Surface the fault exactly as the scalar loop would: account
            # the accesses before it, then re-raise from translate_line.
            plan.account(0, plan.fault_at)
            self.translate_line(asid, int(virtual_lines[plan.fault_at]))
            raise AssertionError("unreachable: planned fault did not raise")
        plan.account(0, count)
        return plan.physical(0, count)

    def plan_translation(self, asid: int, virtual_lines) -> "TranslationPlan":
        """Build a :class:`TranslationPlan` for a chunk of accesses (the
        columnar front end's unit of translation)."""
        return TranslationPlan(self, asid, virtual_lines)

    def reverse_lookup(self, frame: int) -> Optional[Tuple[int, int]]:
        """Find which (asid, virtual_page) currently maps ``frame``."""
        for asid, table in self._tables.items():
            for mapping in table.mappings():
                if mapping.frame == frame:
                    return asid, mapping.virtual_page
        return None


class TranslationPlan:
    """Chunk-granular vectorized translation with windowed TLB accounting.

    The columnar runners generate accesses in large chunks but *submit*
    them in MLP windows whose issue times depend on the previous window's
    completion — and a defense interrupt fired during a submit may remap
    pages (changing frames and shooting down TLB entries) between two
    windows of the same chunk.  A plan therefore splits translation into
    three independently timed pieces:

    * **frame gather** (:meth:`__init__` / :meth:`refresh`): the page
      split and page-table lookups for the whole chunk, vectorized.  The
      result is only a function of the page table, so it is computed
      upfront and recomputed from the current cursor when
      :attr:`stale` reports the table's version moved;
    * **TLB accounting** (:meth:`account`): applied window by window, in
      access order, against the *live* :class:`Tlb` — within a page run
      only the head access walks the LRU structure (misses consult the
      current page table, exactly like :meth:`Mmu.translate_line`); the
      run's tail accesses are guaranteed MRU hits and accrue in bulk.
      Counters and final TLB state are identical to the scalar loop;
    * **fault boundary** (:attr:`fault_at`): the first access whose page
      is unmapped.  Accesses past it have no valid translation; the
      caller must fall back to the scalar path for the window containing
      it so the :class:`TranslationError` surfaces at exactly the right
      access with exactly the scalar path's partial TLB state.
    """

    __slots__ = (
        "mmu", "asid", "pages", "offsets", "phys", "fault_at",
        "_table", "_version", "_heads", "_head_pos",
    )

    def __init__(self, mmu: Mmu, asid: int, virtual_lines) -> None:
        self.mmu = mmu
        self.asid = asid
        lines = _np.asarray(virtual_lines, dtype=_np.int64)
        lines_per_page = mmu.lines_per_page
        pages = lines // lines_per_page
        self.pages = pages
        self.offsets = lines - pages * lines_per_page
        self.phys = _np.empty(len(lines), dtype=_np.int64)
        self._table = mmu.table(asid)
        # page-run heads: index 0 plus every index whose page differs
        # from its predecessor (fixed for the plan's lifetime — pages
        # never change, only frames do)
        if len(pages):
            change = _np.empty(len(pages), dtype=bool)
            change[0] = True
            _np.not_equal(pages[1:], pages[:-1], out=change[1:])
            self._heads = _np.flatnonzero(change)
        else:
            self._heads = _np.empty(0, dtype=_np.int64)
        self._head_pos = 0
        self.fault_at = 0
        self._gather(0)

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def stale(self) -> bool:
        """The page table changed since the last frame gather."""
        return self._version != self._table.version

    def refresh(self, start: int) -> None:
        """Re-gather frames for accesses ``start`` onward against the
        current page table (after a mid-chunk remap)."""
        self._gather(start)

    def _gather(self, start: int) -> None:
        table_map = self._table._map
        pages = self.pages[start:]
        if not len(pages):
            self.fault_at = max(self.fault_at, len(self.pages))
            self._version = self._table.version
            return
        unique, inverse = _np.unique(pages, return_inverse=True)
        frames = _np.empty(len(unique), dtype=_np.int64)
        for index, page in enumerate(unique.tolist()):
            mapping = table_map.get(page)
            frames[index] = -1 if mapping is None else mapping.frame
        frame_col = frames[inverse]
        lines_per_page = self.mmu.lines_per_page
        self.phys[start:] = frame_col * lines_per_page + self.offsets[start:]
        faults = _np.flatnonzero(frame_col < 0)
        self.fault_at = (
            start + int(faults[0]) if len(faults) else len(self.pages)
        )
        self._version = self._table.version

    def physical(self, start: int, stop: int):
        """The translated physical-line slice ``[start, stop)`` as a list
        of plain ints (all below :attr:`fault_at`)."""
        return self.phys[start:stop].tolist()

    def physical_bytes(self, start: int, stop: int) -> bytes:
        """The slice ``[start, stop)`` as raw int64 bytes, ready for
        ``array('q').frombytes`` column fills."""
        return self.phys[start:stop].tobytes()

    def account(self, start: int, stop: int) -> None:
        """Apply exact TLB accounting for accesses ``[start, stop)``.

        Must be called in order, once per window (``start`` equal to the
        previous call's ``stop``), before the window is submitted —
        that keeps the hit/miss/evict sequence identical to per-access
        :meth:`Mmu.translate_line` even when a defense shoots down
        entries between windows.
        """
        if stop <= start:
            return
        heads = self._heads
        position = self._head_pos
        end = len(heads)
        tlb = self.mmu.tlb
        entries = tlb._entries
        move_to_end = entries.move_to_end
        get = entries.get
        fill = tlb.fill
        table = self._table
        asid = self.asid
        pages = self.pages
        head_count = 0
        hits = 0
        # A window may open mid-run: its first access continues the
        # previous window's page run.  That entry was MRU when the
        # previous window was accounted, but a shootdown between the two
        # windows may have removed it — look the page up for real
        # instead of assuming the hit (exact vs the scalar loop either
        # way: when nothing was shot down the entry is still MRU and the
        # lookup is the same hit the tail accrual would have counted).
        first_head = int(heads[position]) if position < end else len(pages)
        if start < first_head:
            page = int(pages[start])
            key = (asid, page)
            frame = get(key)
            if frame is None:
                tlb.misses += 1
                fill(asid, page, table.translate(page).frame)
            else:
                hits += 1
                move_to_end(key)
            head_count += 1
        while position < end:
            index = int(heads[position])
            if index >= stop:
                break
            head_count += 1
            position += 1
            page = int(pages[index])
            key = (asid, page)
            frame = get(key)
            if frame is None:
                tlb.misses += 1
                fill(asid, page, table.translate(page).frame)
            else:
                hits += 1
                move_to_end(key)
        self._head_pos = position
        # run tails: guaranteed MRU hits, accrued without LRU traffic
        tlb.hits += hits + (stop - start) - head_count
