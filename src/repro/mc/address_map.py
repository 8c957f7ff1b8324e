"""Physical→DDR address mapping schemes, including the paper's primitive.

The memory controller converts CPU physical addresses into DDR logical
coordinates according to a fixed mapping chosen at boot (§2.1).  Four
schemes are modelled, matching the design space of §4.1:

``LinearMapping``
    Interleaving disabled: a page's cache lines fill consecutive columns
    of one row in one bank.  Enables bank-aware allocation (PALLOC-style
    isolation) but forfeits bank-level parallelism — the >18% performance
    cost the paper cites as making this option unacceptable in production.

``CachelineInterleaving``
    Conventional interleaving: consecutive cache lines round-robin across
    every bank.  Maximum parallelism, but lines from different pages —
    hence different trust domains — share banks and even rows, which is
    precisely why bank-aware isolation breaks under interleaving.

``PermutationInterleaving``
    Interleaving with the bank index XOR-permuted by row bits (Zhang et
    al., MICRO '00 [63]) to cut row-buffer conflicts between interleaved
    streams.  Security-equivalent to ``CachelineInterleaving``: domains
    still mix.

``SubarrayIsolatedInterleaving``  — **the paper's isolation primitive**
    Lines of one page still interleave across all banks (keeping the
    parallelism), but every line of the page lands in the page's domain's
    *subarray group*: the same subarray index in each bank.  Subarrays are
    electromagnetically isolated, so no cross-domain aggressor-victim
    pairs exist (§4.1, Fig. 2).  The host OS declares each frame's domain
    (directly via ASID or indirectly via its knowledge of the map); the
    controller enforces the group placement.

All mappings are bijections between cache-line indices and DDR addresses,
verified by property tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.dram.geometry import DdrAddress, DramGeometry


class AddressMapper:
    """Base class: an invertible map line-index ↔ :class:`DdrAddress`."""

    #: human-readable scheme name used in experiment tables
    name: str = "base"
    #: whether consecutive lines of one page spread across banks
    interleaves: bool = False
    #: whether the scheme can confine a trust domain's pages
    isolates_domains: bool = False

    #: bound on the per-mapper ``line_to_ddr`` memo (entries)
    CACHE_CAPACITY = 1 << 16

    def __init__(self, geometry: DramGeometry, page_bytes: int = 4096) -> None:
        if page_bytes % geometry.cacheline_bytes != 0:
            raise ValueError("page size must be a multiple of the cache-line size")
        self.geometry = geometry
        self.page_bytes = page_bytes
        self.lines_per_page = page_bytes // geometry.cacheline_bytes
        self.total_lines = geometry.cachelines_total
        self.total_frames = self.total_lines // self.lines_per_page
        self._ddr_cache: Dict[int, DdrAddress] = {}
        #: memo telemetry, exported as ``cache.addrmap.*`` gauges
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        # Flat-bank-index -> (channel, rank, bank) lookup table shared by
        # the bulk translators (replaces per-line bank_from_index divmods).
        self._bank_coords: List[tuple] = [
            geometry.bank_from_index(i) for i in range(geometry.banks_total)
        ]

    # -- abstract -------------------------------------------------------

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        raise NotImplementedError

    def ddr_to_line(self, address: DdrAddress) -> int:
        raise NotImplementedError

    # -- the memoised hot path -------------------------------------------

    def line_to_ddr(self, line: int) -> DdrAddress:
        """Map one cache-line index; results are memoised per mapper in a
        bounded insertion-order cache (a mapping is fixed once
        established, so entries only need invalidation on explicit
        remapping events such as
        :meth:`SubarrayIsolatedInterleaving.release_frame`).  The hit
        path is a single ``dict.get`` — eviction order is irrelevant for
        a pure memo, so no LRU reordering work is done per hit."""
        address = self._ddr_cache.get(line)
        if address is not None:
            self.memo_hits += 1
            return address
        self.memo_misses += 1
        address = self._line_to_ddr_uncached(line)
        cache = self._ddr_cache
        if len(cache) >= self.CACHE_CAPACITY:
            del cache[next(iter(cache))]
            self.memo_evictions += 1
        cache[line] = address
        return address

    def lines_to_ddr_bulk(self, lines: Iterable[int]) -> List[DdrAddress]:
        """Translate a batch of cache-line indices, in order.

        The base implementation loops the memoised scalar path;
        subclasses override it with table-driven direct computation
        (precomputed shift/mask or divmod pipelines over the
        ``_bank_coords`` table) that skips the per-line memo entirely.
        Every override must preserve per-line *order* — lazy first-touch
        placement in :class:`SubarrayIsolatedInterleaving` depends on it.
        """
        to_ddr = self.line_to_ddr
        return [to_ddr(line) for line in lines]

    def memo_counters(self) -> Dict[str, int]:
        """Telemetry snapshot of the ``line_to_ddr`` memo (gauge source
        for the ``cache.addrmap.*`` registry prefix)."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "entries": len(self._ddr_cache),
        }

    def _invalidate_lines(self, lines) -> None:
        """Drop memoised entries (used when part of the map changes)."""
        cache = self._ddr_cache
        for line in lines:
            cache.pop(line, None)

    # -- shared helpers ---------------------------------------------------

    def physical_to_ddr(self, physical: int) -> DdrAddress:
        """Map a byte-granularity CPU physical address."""
        return self.line_to_ddr(physical // self.geometry.cacheline_bytes)

    def frame_of_line(self, line: int) -> int:
        return line // self.lines_per_page

    def lines_of_frame(self, frame: int) -> range:
        self._check_frame(frame)
        start = frame * self.lines_per_page
        return range(start, start + self.lines_per_page)

    # -- frame geometry ---------------------------------------------------
    #
    # Frame queries compute from the mapping's arithmetic and neither read
    # nor fill the ``line_to_ddr`` memo: the host OS asks them of frames
    # the running program may never touch (allocator probes, domain
    # set-up), and routing them through the memo would evict the
    # controller's hot translations.

    def frame_addresses(self, frame: int) -> List[DdrAddress]:
        """DDR coordinates of every line in ``frame``, in line order."""
        to_ddr = self._line_to_ddr_uncached
        return [to_ddr(line) for line in self.lines_of_frame(frame)]

    def _frame_bank_rows(self, frame: int) -> Set[tuple]:
        """``(flat bank, row)`` pairs the frame's lines touch, in each
        scheme's closed form."""
        raise NotImplementedError

    def banks_of_frame(self, frame: int) -> Set[int]:
        """Flat bank indices the frame's lines touch."""
        return {bank for bank, _ in self._frame_bank_rows(frame)}

    def rows_of_frame(self, frame: int) -> Set[tuple]:
        """Row keys the frame's lines touch."""
        coords = self._bank_coords
        return {
            (*coords[bank], row) for bank, row in self._frame_bank_rows(frame)
        }

    def subarrays_of_frame(self, frame: int) -> Set[int]:
        """Subarray indices (bank-local) the frame's lines touch."""
        rows_per_subarray = self.geometry.rows_per_subarray
        return {
            row // rows_per_subarray for _, row in self._frame_bank_rows(frame)
        }

    def frames_of_row(self, row_key: tuple) -> List[int]:
        """Frames with a line in the row ``(channel, rank, bank, row)``,
        ascending — the inverse of :meth:`rows_of_frame`.  Defined for
        the static schemes, whose frames never move."""
        raise NotImplementedError(
            f"{self.name} places frames at run time; frames_of_row is "
            "defined only for static mappings"
        )

    def _row_bank(self, row_key: tuple) -> int:
        """Validated flat bank index of ``row_key``."""
        channel, rank, bank, row = row_key
        return self.geometry.bank_index(DdrAddress(channel, rank, bank, row, 0))

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.total_lines:
            raise ValueError(f"line {line} out of range [0, {self.total_lines})")

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self.total_frames:
            raise ValueError(f"frame {frame} out of range [0, {self.total_frames})")


class LinearMapping(AddressMapper):
    """No interleaving: lines fill a row, rows fill a bank, then the next
    bank.  A page occupies consecutive columns of a single row (or a few
    consecutive rows) of one bank."""

    name = "linear"
    interleaves = False
    isolates_domains = False

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        cols = self.geometry.columns_per_row
        column = line % cols
        rest = line // cols
        row = rest % self.geometry.rows_per_bank
        bank_flat = rest // self.geometry.rows_per_bank
        channel, rank, bank = self.geometry.bank_from_index(bank_flat)
        return DdrAddress(channel, rank, bank, row, column)

    def lines_to_ddr_bulk(self, lines: Iterable[int]) -> List[DdrAddress]:
        geo = self.geometry
        cols = geo.columns_per_row
        rows = geo.rows_per_bank
        coords = self._bank_coords
        total = self.total_lines
        addr = DdrAddress
        out: List[DdrAddress] = []
        append = out.append
        # Consult the scalar memo per line: request windows revisit a
        # working set heavily, and a memo hit (one dict.get) is several
        # times cheaper than re-running the arithmetic and constructing
        # a fresh (frozen, identical) DdrAddress.  The mapping is a
        # static bijection, so sharing memoised objects is safe.
        cache = self._ddr_cache
        cache_get = cache.get
        capacity = self.CACHE_CAPACITY
        hits = misses = 0
        if _is_pow2(cols) and _is_pow2(rows):
            col_shift = cols.bit_length() - 1
            col_mask = cols - 1
            row_shift = rows.bit_length() - 1
            row_mask = rows - 1
            for line in lines:
                address = cache_get(line)
                if address is not None:
                    hits += 1
                    append(address)
                    continue
                if not 0 <= line < total:
                    self._check_line(line)
                rest = line >> col_shift
                channel, rank, bank = coords[rest >> row_shift]
                address = addr(
                    channel, rank, bank, rest & row_mask, line & col_mask
                )
                misses += 1
                if len(cache) >= capacity:
                    del cache[next(iter(cache))]
                    self.memo_evictions += 1
                cache[line] = address
                append(address)
        else:
            for line in lines:
                address = cache_get(line)
                if address is not None:
                    hits += 1
                    append(address)
                    continue
                if not 0 <= line < total:
                    self._check_line(line)
                rest, column = divmod(line, cols)
                bank_flat, row = divmod(rest, rows)
                channel, rank, bank = coords[bank_flat]
                address = addr(channel, rank, bank, row, column)
                misses += 1
                if len(cache) >= capacity:
                    del cache[next(iter(cache))]
                    self.memo_evictions += 1
                cache[line] = address
                append(address)
        self.memo_hits += hits
        self.memo_misses += misses
        return out

    def ddr_to_line(self, address: DdrAddress) -> int:
        bank_flat = self.geometry.bank_index(address)
        rest = bank_flat * self.geometry.rows_per_bank + address.row
        return rest * self.geometry.columns_per_row + address.column

    def _frame_bank_rows(self, frame: int) -> Set[tuple]:
        # Line // columns_per_row numbers the (bank, row) pairs in order.
        self._check_frame(frame)
        cols = self.geometry.columns_per_row
        rows = self.geometry.rows_per_bank
        start = frame * self.lines_per_page
        last = start + self.lines_per_page - 1
        return {
            divmod(rest, rows) for rest in range(start // cols, last // cols + 1)
        }

    def frames_of_row(self, row_key: tuple) -> List[int]:
        cols = self.geometry.columns_per_row
        bank_flat = self._row_bank(row_key)
        first = (bank_flat * self.geometry.rows_per_bank + row_key[3]) * cols
        return list(
            range(
                first // self.lines_per_page,
                (first + cols - 1) // self.lines_per_page + 1,
            )
        )


class CachelineInterleaving(AddressMapper):
    """Consecutive cache lines round-robin across all banks."""

    name = "cacheline-interleave"
    interleaves = True
    isolates_domains = False

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        banks = self.geometry.banks_total
        bank_flat = line % banks
        rest = line // banks
        column = rest % self.geometry.columns_per_row
        row = rest // self.geometry.columns_per_row
        channel, rank, bank = self.geometry.bank_from_index(bank_flat)
        return DdrAddress(channel, rank, bank, row, column)

    def lines_to_ddr_bulk(self, lines: Iterable[int]) -> List[DdrAddress]:
        return self._bulk_interleaved(lines, permute=False)

    def _bulk_interleaved(
        self, lines: Iterable[int], permute: bool
    ) -> List[DdrAddress]:
        """Shared table-driven pipeline for the interleaved schemes.

        ``permute=True`` applies the [63] bank permutation after the
        round-robin split (used by :class:`PermutationInterleaving`).
        """
        geo = self.geometry
        banks = geo.banks_total
        cols = geo.columns_per_row
        coords = self._bank_coords
        total = self.total_lines
        addr = DdrAddress
        pow2 = _is_pow2(banks) and _is_pow2(cols)
        out: List[DdrAddress] = []
        append = out.append
        # Memo-first, as in LinearMapping.lines_to_ddr_bulk: windows
        # revisit their working set, and a dict.get hit beats redoing
        # the split + DdrAddress construction severalfold.
        cache = self._ddr_cache
        cache_get = cache.get
        capacity = self.CACHE_CAPACITY
        hits = misses = 0
        if pow2:
            bank_shift = banks.bit_length() - 1
            bank_mask = banks - 1
            col_shift = cols.bit_length() - 1
            col_mask = cols - 1
            for line in lines:
                address = cache_get(line)
                if address is not None:
                    hits += 1
                    append(address)
                    continue
                if not 0 <= line < total:
                    self._check_line(line)
                rest = line >> bank_shift
                row = rest >> col_shift
                bank_flat = line & bank_mask
                if permute:
                    bank_flat = (bank_flat ^ row) & bank_mask
                channel, rank, bank = coords[bank_flat]
                address = addr(channel, rank, bank, row, rest & col_mask)
                misses += 1
                if len(cache) >= capacity:
                    del cache[next(iter(cache))]
                    self.memo_evictions += 1
                cache[line] = address
                append(address)
        else:
            for line in lines:
                address = cache_get(line)
                if address is not None:
                    hits += 1
                    append(address)
                    continue
                if not 0 <= line < total:
                    self._check_line(line)
                rest, bank_flat = divmod(line, banks)
                row, column = divmod(rest, cols)
                if permute:
                    bank_flat = self._physical_bank(bank_flat, row)
                channel, rank, bank = coords[bank_flat]
                address = addr(channel, rank, bank, row, column)
                misses += 1
                if len(cache) >= capacity:
                    del cache[next(iter(cache))]
                    self.memo_evictions += 1
                cache[line] = address
                append(address)
        self.memo_hits += hits
        self.memo_misses += misses
        return out

    def ddr_to_line(self, address: DdrAddress) -> int:
        bank_flat = self.geometry.bank_index(address)
        rest = address.row * self.geometry.columns_per_row + address.column
        return rest * self.geometry.banks_total + bank_flat

    def _physical_bank(self, bank_flat: int, row: int) -> int:
        """Flat bank a line of round-robin bank ``bank_flat`` lands in."""
        return bank_flat

    def _round_robin_bank(self, bank_flat: int, row: int) -> int:
        """Inverse of :meth:`_physical_bank`."""
        return bank_flat

    def _frame_bank_rows(self, frame: int) -> Set[tuple]:
        # Row = line // (banks * columns_per_row); the round-robin bank is
        # line % banks, so a chunk of at least ``banks`` lines in one row
        # touches every bank.
        self._check_frame(frame)
        banks = self.geometry.banks_total
        span = banks * self.geometry.columns_per_row
        start = frame * self.lines_per_page
        stop = start + self.lines_per_page
        physical = self._physical_bank
        pairs = set()
        for row in range(start // span, (stop - 1) // span + 1):
            low = max(start, row * span)
            high = min(stop, (row + 1) * span)
            if high - low >= banks:
                round_robin = range(banks)
            else:
                round_robin = {line % banks for line in range(low, high)}
            pairs.update((physical(bank, row), row) for bank in round_robin)
        return pairs

    def frames_of_row(self, row_key: tuple) -> List[int]:
        banks = self.geometry.banks_total
        cols = self.geometry.columns_per_row
        row = row_key[3]
        first = row * cols * banks + self._round_robin_bank(
            self._row_bank(row_key), row
        )
        lpp = self.lines_per_page
        return sorted({(first + col * banks) // lpp for col in range(cols)})


class PermutationInterleaving(CachelineInterleaving):
    """Cache-line interleaving with the bank index permuted by XOR with
    low row bits [63], reducing pathological row-buffer conflicts when
    multiple streams stride across banks."""

    name = "permutation-interleave"

    def lines_to_ddr_bulk(self, lines: Iterable[int]) -> List[DdrAddress]:
        return self._bulk_interleaved(lines, permute=True)

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        base = super()._line_to_ddr_uncached(line)
        bank_flat = self.geometry.bank_index(base)
        permuted = self._physical_bank(bank_flat, base.row)
        channel, rank, bank = self.geometry.bank_from_index(permuted)
        return DdrAddress(channel, rank, bank, base.row, base.column)

    def ddr_to_line(self, address: DdrAddress) -> int:
        permuted = self.geometry.bank_index(address)
        bank_flat = self._round_robin_bank(permuted, address.row)
        channel, rank, bank = self.geometry.bank_from_index(bank_flat)
        return super().ddr_to_line(
            DdrAddress(channel, rank, bank, address.row, address.column)
        )

    def _physical_bank(self, bank_flat: int, row: int) -> int:
        return (bank_flat ^ row) % self.geometry.banks_total if _is_pow2(
            self.geometry.banks_total
        ) else (bank_flat + row) % self.geometry.banks_total

    def _round_robin_bank(self, bank_flat: int, row: int) -> int:
        banks = self.geometry.banks_total
        if _is_pow2(banks):
            return (bank_flat ^ row) % banks  # XOR is self-inverse
        return (bank_flat - row) % banks


class SubarrayIsolatedInterleaving(AddressMapper):
    """The paper's primitive (§4.1, Fig. 2): full cross-bank interleaving
    with per-domain subarray confinement.

    Frames are bound to a *subarray group* — one subarray index applied in
    every bank.  Within the group, a frame's lines rotate across all banks
    (bank-level parallelism preserved) and pack densely into the group's
    rows.  The host OS binds domains to groups via :meth:`bind_domain` and
    declares frame ownership via :meth:`assign_frame`.  A frame touched
    before any assignment is placed lazily into the default group
    ``frame % subarrays`` (the "indirect specification" path of §4.1:
    placement follows from the physical frame number alone).  Once placed,
    a frame's location never changes until :meth:`release_frame`, so the
    established map is fixed and invertible.
    """

    name = "subarray-isolated"
    interleaves = True
    isolates_domains = True

    def __init__(self, geometry: DramGeometry, page_bytes: int = 4096) -> None:
        super().__init__(geometry, page_bytes)
        if self.lines_per_page % geometry.banks_total != 0:
            raise ValueError(
                "subarray-isolated interleaving requires lines-per-page to be "
                f"a multiple of the bank count ({geometry.banks_total}); "
                f"got {self.lines_per_page}"
            )
        self.lines_per_bank_per_frame = self.lines_per_page // geometry.banks_total
        group_lines = (
            geometry.rows_per_subarray
            * geometry.columns_per_row
            * geometry.banks_total
        )
        self.frames_per_group = group_lines // self.lines_per_page
        self._frame_group: Dict[int, int] = {}
        self._frame_slot: Dict[int, int] = {}
        self._slot_frame: Dict[tuple, int] = {}  # (group, slot) -> frame
        self._group_slots_free: Dict[int, List[int]] = {
            g: list(range(self.frames_per_group - 1, -1, -1))
            for g in range(geometry.subarrays_per_bank)
        }
        self._domain_group: Dict[int, int] = {}
        self._default_groups = geometry.subarrays_per_bank

    # -- domain/frame management (driven by the host OS) ----------------

    def bind_domain(self, domain: int, group: Optional[int] = None) -> int:
        """Bind a trust domain to a subarray group; auto-pick when
        ``group`` is None.  Returns the group.

        Auto-picking prefers groups with no bound domain (sharing a
        group means no isolation between the sharers); among candidates
        it takes the one with the most free slots.  When every group is
        already bound — more tenants than subarrays — the least loaded
        group is reused, which is the §4.1 capacity reality: isolation
        granularity is limited by the subarray count.
        """
        if domain in self._domain_group:
            return self._domain_group[domain]
        if group is None:
            taken = set(self._domain_group.values())
            candidates = [
                g for g in self._group_slots_free if g not in taken
            ] or list(self._group_slots_free)
            group = max(
                candidates,
                key=lambda g: len(self._group_slots_free[g]),
            )
        if not 0 <= group < self.geometry.subarrays_per_bank:
            raise ValueError(f"subarray group {group} out of range")
        self._domain_group[domain] = group
        return group

    def group_of_domain(self, domain: int) -> Optional[int]:
        return self._domain_group.get(domain)

    def unbind_domain(self, domain: int) -> None:
        """Release a domain's group binding (the host OS calls this when
        the domain's last frame is freed or the domain is destroyed, so
        the group becomes available for exclusive use by a new tenant).
        The caller must ensure the domain holds no placed frames."""
        self._domain_group.pop(domain, None)

    def domains_in_group(self, group: int) -> Set[int]:
        return {d for d, g in self._domain_group.items() if g == group}

    def assign_frame(self, frame: int, domain: int) -> None:
        """Place ``frame`` into its domain's subarray group.

        Must happen before the frame is accessed (the host OS assigns
        frames at allocation time, exactly as §4.1 prescribes).
        """
        self._check_frame(frame)
        if frame in self._frame_group:
            raise ValueError(f"frame {frame} is already assigned")
        group = self._domain_group.get(domain)
        if group is None:
            group = self.bind_domain(domain)
        self._place(frame, group)

    def release_frame(self, frame: int) -> None:
        """Return a frame's slot to its group (page freed)."""
        group = self._frame_group.pop(frame, None)
        if group is None:
            return
        slot = self._frame_slot.pop(frame)
        del self._slot_frame[(group, slot)]
        self._group_slots_free[group].append(slot)
        # The slot may be re-placed for another frame; drop stale memos.
        self._invalidate_lines(self.lines_of_frame(frame))

    def group_of_frame(self, frame: int) -> int:
        assigned = self._frame_group.get(frame)
        if assigned is not None:
            return assigned
        return frame % self._default_groups

    def _place(self, frame: int, group: int) -> None:
        free = self._group_slots_free[group]
        if not free:
            raise MemoryError(f"subarray group {group} is full")
        slot = free.pop()
        self._frame_group[frame] = group
        self._frame_slot[frame] = slot
        self._slot_frame[(group, slot)] = frame

    def _ensure_placed(self, frame: int) -> None:
        """Lazily place a frame that was never explicitly assigned."""
        if frame not in self._frame_group:
            self._place(frame, frame % self._default_groups)

    def _frame_bank_rows(self, frame: int) -> Set[tuple]:
        # Asking for a frame's rows is a touch: it places the frame lazily,
        # exactly as translating one of its lines would.
        self._check_frame(frame)
        self._ensure_placed(frame)
        # Lines per page is a multiple of the bank count, so each packed
        # position of the slot holds one line in every bank.
        geo = self.geometry
        first = self._frame_slot[frame] * self.lines_per_bank_per_frame
        last = first + self.lines_per_bank_per_frame - 1
        base = self._frame_group[frame] * geo.rows_per_subarray
        return {
            (bank, base + row)
            for row in range(
                first // geo.columns_per_row, last // geo.columns_per_row + 1
            )
            for bank in range(geo.banks_total)
        }

    # -- the bijection ---------------------------------------------------

    def lines_to_ddr_bulk(self, lines: Iterable[int]) -> List[DdrAddress]:
        # Must iterate strictly in order: a never-touched frame is placed
        # lazily on first touch, and slot assignment depends on placement
        # order.  Bulk translation of a request window sees lines in
        # arrival order, exactly like the scalar path would.
        geo = self.geometry
        banks = geo.banks_total
        cols = geo.columns_per_row
        rows_per_subarray = geo.rows_per_subarray
        lpp = self.lines_per_page
        lpbpf = self.lines_per_bank_per_frame
        coords = self._bank_coords
        frame_group = self._frame_group
        frame_slot = self._frame_slot
        default_groups = self._default_groups
        total = self.total_lines
        addr = DdrAddress
        out: List[DdrAddress] = []
        append = out.append
        last_frame = -1
        group = slot = frame_base = 0
        for line in lines:
            if not 0 <= line < total:
                self._check_line(line)
            frame = line // lpp
            if frame != last_frame:
                if frame not in frame_group:
                    self._place(frame, frame % default_groups)
                group = frame_group[frame]
                slot = frame_slot[frame]
                frame_base = frame * lpp
                last_frame = frame
            offset = line - frame_base
            packed = slot * lpbpf + offset // banks
            row_in_subarray = packed // cols
            if row_in_subarray >= rows_per_subarray:
                raise MemoryError(
                    f"frame slot {slot} exceeds subarray group capacity"
                )
            channel, rank, bank = coords[(offset + slot) % banks]
            append(
                addr(
                    channel,
                    rank,
                    bank,
                    group * rows_per_subarray + row_in_subarray,
                    packed % cols,
                )
            )
        return out

    def _line_to_ddr_uncached(self, line: int) -> DdrAddress:
        self._check_line(line)
        frame = self.frame_of_line(line)
        offset = line - frame * self.lines_per_page
        self._ensure_placed(frame)
        group = self._frame_group[frame]
        slot = self._frame_slot[frame]
        # Rotate the starting bank by slot so groups load banks evenly.
        bank_flat = (offset + slot) % self.geometry.banks_total
        within_bank = offset // self.geometry.banks_total
        packed = slot * self.lines_per_bank_per_frame + within_bank
        column = packed % self.geometry.columns_per_row
        row_in_subarray = packed // self.geometry.columns_per_row
        if row_in_subarray >= self.geometry.rows_per_subarray:
            raise MemoryError(
                f"frame slot {slot} exceeds subarray group capacity"
            )
        row = group * self.geometry.rows_per_subarray + row_in_subarray
        channel, rank, bank = self.geometry.bank_from_index(bank_flat)
        return DdrAddress(channel, rank, bank, row, column)

    def ddr_to_line(self, address: DdrAddress) -> int:
        group = self.geometry.subarray_of_row(address.row)
        row_in_subarray = address.row - group * self.geometry.rows_per_subarray
        packed = (
            row_in_subarray * self.geometry.columns_per_row + address.column
        )
        slot = packed // self.lines_per_bank_per_frame
        within_bank = packed % self.lines_per_bank_per_frame
        try:
            frame = self._slot_frame[(group, slot)]
        except KeyError:
            raise KeyError(
                f"no frame is mapped at subarray group {group}, slot {slot}; "
                "ddr_to_line is only defined for addresses the forward map "
                "has produced"
            ) from None
        bank_flat = self.geometry.bank_index(address)
        offset = (
            within_bank * self.geometry.banks_total
            + (bank_flat - slot) % self.geometry.banks_total
        )
        return frame * self.lines_per_page + offset


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


MAPPING_SCHEMES = {
    cls.name: cls
    for cls in (
        LinearMapping,
        CachelineInterleaving,
        PermutationInterleaving,
        SubarrayIsolatedInterleaving,
    )
}


def make_mapper(
    scheme: str, geometry: DramGeometry, page_bytes: int = 4096
) -> AddressMapper:
    """Instantiate a mapping scheme by name."""
    try:
        cls = MAPPING_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(MAPPING_SCHEMES))
        raise KeyError(f"unknown mapping scheme {scheme!r}; known: {known}") from None
    return cls(geometry, page_bytes)
