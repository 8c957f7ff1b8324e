"""The assembled platform: DRAM + MC + CPU + host OS, built from a config.

``System`` owns the wiring that the paper describes in prose: the
allocator's row-ownership map feeds the disturbance oracle's flip
attribution (through the DRAM-internal remap), the ACT counters deliver
interrupts to host-OS defenses, the ISA surface checks primitives, and
enclaves observe flips landing in their memory.

``DomainHandle`` is the tenant-facing convenience: create a domain with
N pages and you get a contiguous *virtual* address space backed by
policy-placed frames, plus helpers to reach its rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.primitives import Primitive, PrimitiveSet
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core import Core
from repro.cpu.dma import DmaEngine
from repro.cpu.isa import ExecutionContext, IsaSurface
from repro.cpu.mmu import Mmu
from repro.dram.data import DataPlane
from repro.dram.device import DramDevice
from repro.dram.disturbance import BitFlip
from repro.dram.presets import by_name
from repro.dram.remap import RowRemapper
from repro.hostos.allocator import AllocationPolicy, PageAllocator
from repro.hostos.domains import DomainRegistry, TrustDomain
from repro.hostos.enclave import EnclaveRuntime
from repro.mc.address_map import make_mapper
from repro.mc.controller import MemoryController
from repro.obs.runtime import Observability, attach_ambient
from repro.sim.config import SystemConfig

RowKey = Tuple[int, int, int, int]


@dataclass
class DomainHandle:
    """A tenant plus its allocated memory, addressed virtually."""

    system: "System"
    domain: TrustDomain
    frames: List[int]

    @property
    def asid(self) -> int:
        return self.domain.asid

    @property
    def pages(self) -> int:
        return len(self.frames)

    @property
    def lines_per_page(self) -> int:
        return self.system.mmu.lines_per_page

    @property
    def total_lines(self) -> int:
        return self.pages * self.lines_per_page

    def virtual_line(self, page: int, offset: int = 0) -> int:
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")
        if not 0 <= offset < self.lines_per_page:
            raise ValueError(f"offset {offset} out of range")
        return page * self.lines_per_page + offset

    def physical_line(self, virtual_line: int) -> int:
        return self.system.mmu.translate_line(self.asid, virtual_line)

    def rows(self) -> FrozenSet[RowKey]:
        """All logical DRAM rows holding this domain's data."""
        rows = set()
        for frame in self.frames:
            rows.update(self.system.mapper.rows_of_frame(frame))
        return frozenset(rows)

    def write(self, virtual_line: int, data: bytes, now: int = 0) -> int:
        """Store bytes at a virtual line (through the timing model and
        the data plane); returns completion time."""
        outcome = self.system.core.store(self.asid, virtual_line, now)
        self.system.data.write(self.physical_line(virtual_line), data)
        return outcome.done_at_ns

    def read(self, virtual_line: int, now: int = 0) -> Tuple[bytes, int]:
        """Read bytes at a virtual line; returns (data, completion time).
        Corruption from Rowhammer flips is visible here."""
        outcome = self.system.core.load(self.asid, virtual_line, now)
        return (
            self.system.data.read(self.physical_line(virtual_line)),
            outcome.done_at_ns,
        )

    def grow(self, pages: int) -> List[int]:
        """Allocate and map additional pages; returns the new frames."""
        new_frames = self.system.allocator.allocate(self.asid, pages)
        table = self.system.mmu.table(self.asid)
        first_vpage = self.pages
        for index, frame in enumerate(new_frames):
            table.map(first_vpage + index, frame)
        self.frames.extend(new_frames)
        return new_frames


class System:
    """One simulated platform."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.obs = Observability()
        self.rng = random.Random(config.seed)
        self.preset = by_name(config.generation).scaled(config.scale)
        geometry = self.preset.geometry
        if config.channels != geometry.channels:
            from dataclasses import replace as _replace

            geometry = _replace(geometry, channels=config.channels)

        remapper = (
            RowRemapper.random_swaps(
                geometry,
                config.remap_fraction,
                rng=random.Random(config.seed ^ 0x5EED),
                within_subarray=config.remap_within_subarray,
            )
            if config.remap_fraction > 0
            else RowRemapper.identity(geometry)
        )
        timings = self.preset.timings
        if config.refresh_multiplier > 1:
            # Refresh-rate increase: the retention window (and with it
            # the attack window and MAC) is a physical property and
            # stays put; the module simply sweeps every row
            # ``refresh_multiplier`` times within it, paying
            # proportionally more REF commands (tREFI shrinks, floored
            # so bursts never overlap).
            from dataclasses import replace as _replace_timings

            timings = _replace_timings(
                timings,
                tREFI=max(
                    timings.tREFI // config.refresh_multiplier,
                    timings.tRFC + 1,
                ),
            )
        self.device = DramDevice(
            geometry=geometry,
            timings=timings,
            profile=self.preset.profile,
            remapper=remapper,
            rng=random.Random(config.seed ^ 0xD1A),
            sweep_multiplier=config.refresh_multiplier,
            refresh_mode=config.refresh_mode,
        )
        self.mapper = make_mapper(config.mapping, geometry, config.page_bytes)
        if config.mapping == "subarray-isolated":
            config.primitives.require(Primitive.SUBARRAY_ISOLATED_INTERLEAVING)
        self.controller = MemoryController(
            self.device,
            self.mapper,
            act_threshold=config.act_threshold,
            precise_interrupts=config.precise_act_interrupts,
            reset_jitter=config.act_reset_jitter,
            page_policy=config.page_policy,
            rng=random.Random(config.seed ^ 0xC0DE),
            trace=self.obs.trace,
            # per-channel jitter RNGs derive as ``seed ^ channel`` so no
            # two channels share an overflow-jitter sequence (E10)
            counter_seed=config.seed,
        )
        self.cache = SetAssociativeCache(
            sets=config.cache_sets,
            ways=config.cache_ways,
            max_locked_ways=config.max_locked_ways,
        )
        self.mmu = Mmu(
            lines_per_page=config.page_bytes // geometry.cacheline_bytes
        )
        self.core = Core(self.mmu, self.cache, self.controller)
        self.isa = IsaSurface(self.mmu, self.controller, config.primitives)
        self.registry = DomainRegistry()
        self.allocator = PageAllocator(
            self.mapper,
            policy=config.allocation_policy,
            guard_radius=self.preset.profile.blast_radius,
        )
        self.enclaves: Dict[int, EnclaveRuntime] = {}
        self.data = DataPlane(
            geometry.cacheline_bytes, seed=config.seed ^ 0xDA7A
        )
        self.host_context = ExecutionContext(asid=0, host=True)
        self._flip_cursor = 0
        #: defenses attached to this platform (Defense.attach appends);
        #: the invariant suite cross-checks their counters against the
        #: metrics registry
        self.defenses: List[object] = []
        # attribution: internal row -> logical row -> owning domains
        self.device.tracker.set_domain_lookup(self._domains_of_internal_row)
        # every architecturally visible counter registers here; snapshots
        # (and the time-series sampler) read the registry, never fields
        self.obs.metrics.register_gauges("mc", self.controller.stats.snapshot)
        self.obs.metrics.register_gauges(
            "cache",
            lambda: {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
            },
        )
        self.obs.metrics.register_gauges(
            "cache.addrmap", self.mapper.memo_counters
        )
        self.obs.metrics.register_gauges(
            "cache.tlb",
            lambda: {
                "hit": self.mmu.tlb.hits,
                "miss": self.mmu.tlb.misses,
                "evict": self.mmu.tlb.evictions,
            },
        )
        self.obs.metrics.register_gauges(
            "cache.l2",
            lambda: {"bulk_hits": self.cache.bulk_hits},
        )
        #: accesses the columnar front end had to produce per element
        #: (pointer_chase and friends) instead of as vector columns —
        #: the frontend smoke fails if this moves for bulk-capable kinds
        self.gen_fallbacks = self.obs.metrics.counter("gen.scalar_fallbacks")
        # Fault plane and invariant suite (repro.faults) — built late so
        # their hooks and probes see the fully wired controller/device,
        # and imported lazily to keep sim<->faults import-cycle-free.
        self.faults = None
        if config.faults is not None and config.faults.enabled:
            from repro.faults.plane import FaultPlane

            self.faults = FaultPlane(config.faults, system_seed=config.seed)
            self.faults.attach(self)
        self.invariants = None
        if config.invariant_level != "off":
            from repro.faults.invariants import InvariantSuite

            self.invariants = InvariantSuite(
                self, level=config.invariant_level
            )
        # pick up an ambient `repro.obs.runtime.observe(...)` context, if
        # one is active (the trace CLI and replication runners use this)
        attach_ambient(self)

    @property
    def primitives(self) -> PrimitiveSet:
        return self.config.primitives

    @property
    def geometry(self):
        return self.device.geometry

    @property
    def timings(self):
        return self.device.timings

    @property
    def profile(self):
        return self.device.profile

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def create_domain(
        self, name: str, pages: int, enclave: bool = False,
        integrity_checked: bool = True,
    ) -> DomainHandle:
        """Register a tenant, allocate ``pages`` frames under the active
        policy, and map them contiguously into its virtual space."""
        domain = self.registry.create(name, enclave=enclave)
        frames = self.allocator.allocate(domain.asid, pages) if pages else []
        table = self.mmu.table(domain.asid)
        for virtual_page, frame in enumerate(frames):
            table.map(virtual_page, frame)
        handle = DomainHandle(self, domain, frames)
        if enclave:
            self.enclaves[domain.asid] = EnclaveRuntime(
                domain, integrity_checked=integrity_checked
            )
        return handle

    def dma_engine(self, handle: DomainHandle) -> DmaEngine:
        """A bus-mastering device owned by the tenant."""
        return DmaEngine(self.controller, domain=handle.asid)

    # ------------------------------------------------------------------
    # Flip routing and oracle access
    # ------------------------------------------------------------------

    def drain_flips(self) -> List[BitFlip]:
        """New flips since the previous drain; forwards each to any
        enclave whose memory it hit.  Engines call this every step."""
        flips = self.device.tracker.flips
        fresh = flips[self._flip_cursor :]
        self._flip_cursor = len(flips)
        for flip in fresh:
            for enclave in self.enclaves.values():
                enclave.observe_flip(flip)
            self._apply_flip_to_data(flip)
        return fresh

    def has_pending_flips(self) -> bool:
        """True when ACTs since the last drain produced new flips — a
        cheap guard so hot loops only pay for :meth:`drain_flips` when
        there is something to drain."""
        return len(self.device.tracker.flips) > self._flip_cursor

    def all_flips(self) -> List[BitFlip]:
        return list(self.device.tracker.flips)

    def cross_domain_flips(self) -> List[BitFlip]:
        return self.device.tracker.cross_domain_flips()

    def intra_domain_flips(self) -> List[BitFlip]:
        return self.device.tracker.intra_domain_flips()

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def row_of_physical_line(self, line: int) -> RowKey:
        return self.mapper.line_to_ddr(line).row_key()

    def some_line_in_row(self, row_key: RowKey) -> Optional[int]:
        """A physical line living in the given logical row, if any is
        currently mapped (used by software defenses to reach a row)."""
        channel, rank, bank, row = row_key
        from repro.dram.geometry import DdrAddress

        for column in range(self.geometry.columns_per_row):
            address = DdrAddress(channel, rank, bank, row, column)
            try:
                return self.mapper.ddr_to_line(address)
            except KeyError:
                continue
        return None

    def lines_in_row(self, row_key: RowKey) -> List[int]:
        """Every currently-mapped physical line in the given logical
        row (empty for rows no frame occupies)."""
        channel, rank, bank, row = row_key
        from repro.dram.geometry import DdrAddress

        lines = []
        for column in range(self.geometry.columns_per_row):
            address = DdrAddress(channel, rank, bank, row, column)
            try:
                lines.append(self.mapper.ddr_to_line(address))
            except KeyError:
                continue
        return lines

    def frames_in_row(self, row_key: RowKey) -> FrozenSet[int]:
        """Every physical frame with at least one line in the given
        logical row (interleaving packs many frames into one row)."""
        channel, rank, bank, row = row_key
        from repro.dram.geometry import DdrAddress

        frames = set()
        for column in range(self.geometry.columns_per_row):
            address = DdrAddress(channel, rank, bank, row, column)
            try:
                line = self.mapper.ddr_to_line(address)
            except KeyError:
                continue
            frames.add(self.mapper.frame_of_line(line))
        return frozenset(frames)

    def logical_neighbor_rows(self, row_key: RowKey, radius: int) -> List[RowKey]:
        """Logically adjacent rows within ``radius`` (same bank,
        subarray-clipped) — what software *believes* the victims are."""
        channel, rank, bank, row = row_key
        return [
            (channel, rank, bank, neighbor)
            for neighbor in self.geometry.neighbors_within(row, radius)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_flip_to_data(self, flip: BitFlip) -> None:
        """Corrupt stored bytes for one flip: translate the internal
        victim row back to its logical identity and damage one written
        line there."""
        channel, rank, bank, internal_row = flip.victim
        from repro.dram.geometry import DdrAddress

        bank_index = self.geometry.bank_index(
            DdrAddress(channel, rank, bank, 0, 0)
        )
        logical_row = self.device.remapper.to_logical(bank_index, internal_row)
        candidates = self.lines_in_row((channel, rank, bank, logical_row))
        if candidates:
            self.data.corrupt_one_of(candidates, flip.flipped_bits)

    def _domains_of_internal_row(self, internal_key: RowKey) -> FrozenSet[int]:
        """Flip attribution: translate the internal row back to its
        logical identity, then ask the allocator who owns data there."""
        channel, rank, bank, internal_row = internal_key
        from repro.dram.geometry import DdrAddress

        bank_index = self.geometry.bank_index(
            DdrAddress(channel, rank, bank, 0, 0)
        )
        logical_row = self.device.remapper.to_logical(bank_index, internal_row)
        return self.allocator.domains_in_row((channel, rank, bank, logical_row))


def build_system(config: Optional[SystemConfig] = None, **overrides) -> System:
    """Build a platform from a config (or keyword overrides)."""
    if config is None:
        config = SystemConfig(**overrides)
    elif overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return System(config)
