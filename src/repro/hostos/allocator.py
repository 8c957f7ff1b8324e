"""The host OS page-frame allocator, with isolation-aware policies.

The allocator is where isolation-centric defenses live in software
(§2.2, §4.1).  Four policies are modelled:

``DEFAULT``
    First-fit, domain-oblivious — today's allocator.  Under any mapping,
    frames from different tenants end up adjacent in DRAM.

``BANK_PARTITION``
    PALLOC-style [61]: each domain gets disjoint banks.  Only possible
    when interleaving is disabled (``LinearMapping``); under interleaved
    mappings every frame touches every bank, so the policy refuses to
    operate — this is the §4.1 conflict between isolation and
    interleaving, reproduced as a hard error.

``GUARD_ROWS``
    ZebRAM-style [34]: ``blast_radius`` unallocated guard rows between
    any two frames of different domains.  Also requires row-contiguous
    (linear) mapping, and burns capacity on guards.

``SUBARRAY_AWARE``
    The paper's proposal (§4.1): requires the subarray-isolated
    interleaving primitive; the allocator simply binds each domain to a
    subarray group and lets the MC place frames.  Interleaving stays on.

The allocator also answers ``domains_in_row`` — which domains own data in
a given (logical) DRAM row — which the harness composes with the internal
row remap to attribute bit flips.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

import numpy as np

from repro.mc.address_map import AddressMapper, SubarrayIsolatedInterleaving

RowKey = Tuple[int, int, int, int]


class AllocationPolicy(enum.Enum):
    DEFAULT = "default"
    BANK_PARTITION = "bank-partition"
    GUARD_ROWS = "guard-rows"
    SUBARRAY_AWARE = "subarray-aware"


class PolicyUnsupportedError(Exception):
    """The chosen policy cannot work on the configured address mapping."""


class OutOfMemoryError(Exception):
    """No frame satisfies the policy's constraints."""


class PageAllocator:
    """Frame allocation under one of the isolation policies."""

    def __init__(
        self,
        mapper: AddressMapper,
        policy: AllocationPolicy = AllocationPolicy.DEFAULT,
        guard_radius: int = 1,
    ) -> None:
        self.mapper = mapper
        self.policy = policy
        self.guard_radius = guard_radius
        self._owner: Dict[int, int] = {}  # frame -> asid
        # The ordered free index: first-fit is the lowest set entry.
        self._free = np.ones(mapper.total_frames, dtype=bool)
        self._domain_frames: Dict[int, int] = {}  # asid -> frames owned
        self._bank_owner: Dict[int, int] = {}  # flat bank -> asid (partition)
        # (asid, flat bank) -> the asid's allocated frames in the bank
        self._bank_frames: Dict[Tuple[int, int], int] = {}
        # row_key -> {asid: number of allocated frames with data in the
        # row} — reference counts so free() can retract attribution.
        self._row_domains: Dict[RowKey, Dict[int, int]] = {}
        # frame -> rows memo (a frame's placement is stable while it is
        # known here; invalidated on free, when subarray mappers may
        # re-place the frame)
        self._frame_rows: Dict[int, FrozenSet[RowKey]] = {}
        # row_key -> its frames; static mappings never move a frame, so
        # the answer can be cached for good.
        self._row_frames: Dict[RowKey, np.ndarray] = {}
        # frames permanently taken out of service (remap audit, §4.1)
        self._retired: Set[int] = set()
        self._validate_policy()

    def _rows_of_frame(self, frame: int) -> FrozenSet[RowKey]:
        rows = self._frame_rows.get(frame)
        if rows is None:
            rows = frozenset(self.mapper.rows_of_frame(frame))
            self._frame_rows[frame] = rows
        return rows

    # ------------------------------------------------------------------
    # Policy feasibility (the §4.1 conflict, surfaced at construction)
    # ------------------------------------------------------------------

    def _validate_policy(self) -> None:
        if self.policy in (AllocationPolicy.BANK_PARTITION, AllocationPolicy.GUARD_ROWS):
            if self.mapper.interleaves:
                raise PolicyUnsupportedError(
                    f"{self.policy.value} requires interleaving to be disabled "
                    f"(mapping {self.mapper.name!r} spreads every page across "
                    "banks); §4.1 — this is the performance-vs-isolation "
                    "conflict the subarray primitive resolves"
                )
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            if not isinstance(self.mapper, SubarrayIsolatedInterleaving):
                raise PolicyUnsupportedError(
                    "subarray-aware allocation requires the subarray-isolated "
                    "interleaving primitive in the memory controller (§4.1)"
                )
        if self.guard_radius < 1:
            raise ValueError("guard_radius must be >= 1")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        asid: int,
        count: int = 1,
        avoid_rows: Optional[FrozenSet[RowKey]] = None,
    ) -> List[int]:
        """Allocate ``count`` frames for domain ``asid``.

        ``avoid_rows`` soft-excludes frames touching the given DRAM rows
        — the destination-rotation hook ACT wear-leveling needs (§4.2):
        without it consecutive move targets cluster into one row and
        re-concentrate the activations the move was meant to disperse.
        When no frame avoids the rows, the constraint is dropped rather
        than failing (availability beats dispersal).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        frames = []
        try:
            for _ in range(count):
                frames.append(self._allocate_one(asid, avoid_rows))
        except OutOfMemoryError:
            for frame in frames:
                self.free(frame)
            raise
        return frames

    def free(self, frame: int) -> None:
        asid = self._release(frame)
        self._free[frame] = True
        self._frame_rows.pop(frame, None)
        if isinstance(self.mapper, SubarrayIsolatedInterleaving):
            self.mapper.release_frame(frame)
        if self.policy is AllocationPolicy.BANK_PARTITION:
            # A bank stays the domain's while any frame of it remains.
            for bank, owner in list(self._bank_owner.items()):
                if owner == asid and (asid, bank) not in self._bank_frames:
                    del self._bank_owner[bank]
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            # Release the domain's subarray-group binding once its last
            # frame is gone, so a future tenant can claim the group
            # exclusively.
            if asid not in self._domain_frames:
                assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
                self.mapper.unbind_domain(asid)

    def retire(self, frame: int) -> None:
        """Permanently take ``frame`` out of service.

        Used by the §4.1 remap audit: a frame whose rows are internally
        remapped across a subarray boundary is treacherous *forever*
        (remaps are a manufacturing property), so after evacuating its
        data the frame must never be handed out again — and, under
        subarray-isolated mapping, its placement slot must stay occupied
        so no future frame inherits the same escaping row.
        """
        self._release(frame)
        self._retired.add(frame)

    def _release(self, frame: int) -> int:
        """Drop ``frame``'s owner and its per-domain, per-bank and per-row
        counts; returns the owner."""
        asid = self._owner.pop(frame, None)
        if asid is None:
            raise KeyError(f"frame {frame} is not allocated")
        _decrement(self._domain_frames, asid)
        if self.policy is AllocationPolicy.BANK_PARTITION:
            for bank in self.mapper.banks_of_frame(frame):
                _decrement(self._bank_frames, (asid, bank))
        for row in self._rows_of_frame(frame):
            counts = self._row_domains.get(row)
            if counts is None:
                continue
            _decrement(counts, asid)
            if not counts:
                del self._row_domains[row]
        return asid

    @property
    def retired_frames(self) -> int:
        return len(self._retired)

    # ------------------------------------------------------------------
    # Attribution and introspection
    # ------------------------------------------------------------------

    def owner_of(self, frame: int) -> Optional[int]:
        return self._owner.get(frame)

    def frames_of(self, asid: int) -> List[int]:
        return sorted(f for f, owner in self._owner.items() if owner == asid)

    def domains_in_row(self, row_key: RowKey) -> FrozenSet[int]:
        """Domains whose data currently lives in the given *logical* row."""
        return frozenset(self._row_domains.get(row_key, frozenset()))

    @property
    def free_frames(self) -> int:
        return int(np.count_nonzero(self._free))

    @property
    def allocated_frames(self) -> int:
        return len(self._owner)

    def capacity_overhead(self) -> float:
        """Fraction of total frames rendered unusable by the policy so
        far (guard rows etc.) — 0.0 for policies without waste."""
        usable = self.mapper.total_frames
        unusable = sum(1 for f in range(usable) if self._blocked(f))
        return unusable / usable if usable else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _allocate_one(
        self, asid: int, avoid_rows: Optional[FrozenSet[RowKey]] = None
    ) -> int:
        """First fit: the first admissible free frame that touches no row
        of ``avoid_rows``, else the first admissible free frame."""
        for frame in self._candidates(avoid_rows):
            if self._admissible(frame, asid):
                return self._take(frame, asid)
        raise OutOfMemoryError(
            f"no frame satisfies policy {self.policy.value} for ASID {asid}"
        )

    def _candidates(
        self, avoid_rows: Optional[FrozenSet[RowKey]]
    ) -> Iterator[int]:
        """Free frames in first-fit preference order: ascending, with the
        frames touching a row of ``avoid_rows`` after all the others."""
        free = self._free
        if not avoid_rows or self.policy is AllocationPolicy.SUBARRAY_AWARE:
            # Under SUBARRAY_AWARE the controller puts whichever frame is
            # taken into the next free slot of the domain's group, so all
            # candidates would land on the same rows: avoid_rows cannot
            # rank them, and probing a free frame's rows would place it.
            return map(int, np.flatnonzero(free))
        if not isinstance(self.mapper, SubarrayIsolatedInterleaving):
            avoided = np.zeros_like(free)
            for row in avoid_rows:
                avoided[self._frames_of_row(row)] = True
            return map(int, chain(
                np.flatnonzero(free & ~avoided), np.flatnonzero(free & avoided)
            ))
        # Subarray mapping without domain placement: a frame's rows come
        # from its first-touch placement, which asking for them performs.
        def touches(frame: int) -> bool:
            return not self._rows_of_frame(frame).isdisjoint(avoid_rows)

        return _deferring(map(int, np.flatnonzero(free)), touches)

    def _frames_of_row(self, row: RowKey) -> np.ndarray:
        frames = self._row_frames.get(row)
        if frames is None:
            frames = np.asarray(self.mapper.frames_of_row(row), dtype=np.intp)
            self._row_frames[row] = frames
        return frames

    def _take(self, frame: int, asid: int) -> int:
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
            self.mapper.assign_frame(frame, asid)
        self._free[frame] = False
        self._owner[frame] = asid
        self._domain_frames[asid] = self._domain_frames.get(asid, 0) + 1
        if self.policy is AllocationPolicy.BANK_PARTITION:
            for bank in self.mapper.banks_of_frame(frame):
                self._bank_owner[bank] = asid
                key = (asid, bank)
                self._bank_frames[key] = self._bank_frames.get(key, 0) + 1
        for row in self._rows_of_frame(frame):
            counts = self._row_domains.setdefault(row, {})
            counts[asid] = counts.get(asid, 0) + 1
        return frame

    def _admissible(self, frame: int, asid: int) -> bool:
        if self.policy is AllocationPolicy.DEFAULT:
            return True
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            # Feasibility = the domain's group still has slots; the MC
            # enforces placement.  Probe without mutating.
            assert isinstance(self.mapper, SubarrayIsolatedInterleaving)
            group = self.mapper.group_of_domain(asid)
            if group is None:
                return True  # binding happens on first assign
            return len(self.mapper._group_slots_free[group]) > 0
        if self.policy is AllocationPolicy.BANK_PARTITION:
            return all(
                self._bank_owner.get(bank, asid) == asid
                for bank in self.mapper.banks_of_frame(frame)
            )
        if self.policy is AllocationPolicy.GUARD_ROWS:
            return self._guard_admissible(frame, asid)
        raise AssertionError(f"unhandled policy {self.policy}")

    def _guard_admissible(self, frame: int, asid: int) -> bool:
        """No row of ``frame`` may lie within ``guard_radius`` rows of a
        row holding another domain's data (same bank, same subarray)."""
        geometry = self.mapper.geometry
        for channel, rank, bank, row in self._rows_of_frame(frame):
            # Rows can be shared between frames under some mappings: the
            # frame's own rows must also not already hold foreign data.
            for neighbor_row in chain(
                (row,), geometry.neighbors_within(row, self.guard_radius)
            ):
                key = (channel, rank, bank, neighbor_row)
                owners = self._row_domains.get(key)
                if owners and any(owner != asid for owner in owners):
                    return False
        return True

    def _blocked(self, frame: int) -> bool:
        """A free frame no domain could currently claim (pure waste)."""
        if not self._free[frame]:
            return False
        if self.policy is not AllocationPolicy.GUARD_ROWS:
            return False
        return bool(self._domain_frames) and not any(
            self._guard_admissible(frame, asid) for asid in self._domain_frames
        )


def _decrement(counts: Dict, key) -> None:
    """Count one fewer of ``key``, dropping it at zero."""
    counts[key] -= 1
    if counts[key] <= 0:
        del counts[key]


def _deferring(
    frames: Iterable[int], deferred: Callable[[int], bool]
) -> Iterator[int]:
    """``frames`` in order, except that those for which ``deferred`` is
    true come after all the others (still in order)."""
    later = []
    for frame in frames:
        if deferred(frame):
            later.append(frame)
        else:
            yield frame
    yield from later
