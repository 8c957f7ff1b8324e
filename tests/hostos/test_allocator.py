"""Unit tests for the policy-aware page-frame allocator."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.hostos.allocator import (
    AllocationPolicy,
    OutOfMemoryError,
    PageAllocator,
    PolicyUnsupportedError,
)
from repro.mc.address_map import (
    CachelineInterleaving,
    LinearMapping,
    SubarrayIsolatedInterleaving,
)


@pytest.fixture
def geometry():
    return DramGeometry(
        banks_per_rank=8, subarrays_per_bank=4,
        rows_per_subarray=32, columns_per_row=64,
    )


class TestPolicyFeasibility:
    def test_bank_partition_rejects_interleaving(self, geometry):
        """§4.1: bank-aware isolation is incompatible with interleaving."""
        with pytest.raises(PolicyUnsupportedError):
            PageAllocator(
                CachelineInterleaving(geometry),
                policy=AllocationPolicy.BANK_PARTITION,
            )

    def test_guard_rows_rejects_interleaving(self, geometry):
        with pytest.raises(PolicyUnsupportedError):
            PageAllocator(
                CachelineInterleaving(geometry),
                policy=AllocationPolicy.GUARD_ROWS,
            )

    def test_subarray_requires_subarray_mapper(self, geometry):
        with pytest.raises(PolicyUnsupportedError):
            PageAllocator(
                LinearMapping(geometry),
                policy=AllocationPolicy.SUBARRAY_AWARE,
            )

    def test_default_works_anywhere(self, geometry):
        PageAllocator(CachelineInterleaving(geometry))
        PageAllocator(LinearMapping(geometry))


class TestDefaultPolicy:
    def test_allocate_and_ownership(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        frames = allocator.allocate(1, 3)
        assert len(frames) == 3
        assert all(allocator.owner_of(f) == 1 for f in frames)
        assert allocator.allocated_frames == 3

    def test_free_returns_frame(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        (frame,) = allocator.allocate(1)
        before = allocator.free_frames
        allocator.free(frame)
        assert allocator.free_frames == before + 1
        assert allocator.owner_of(frame) is None

    def test_free_unallocated_raises(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        with pytest.raises(KeyError):
            allocator.free(5)

    def test_count_validation(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        with pytest.raises(ValueError):
            allocator.allocate(1, 0)

    def test_exhaustion(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        allocator.allocate(1, allocator.mapper.total_frames)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(1)


class TestRowAttribution:
    def test_domains_in_row(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        (frame,) = allocator.allocate(1)
        for row in mapper.rows_of_frame(frame):
            assert allocator.domains_in_row(row) == frozenset({1})

    def test_shared_row_attribution(self, geometry):
        # linear: two 64-line pages share a 64-column row? no — one page
        # fills a row exactly here; use interleaving, where rows mix pages
        mapper = CachelineInterleaving(geometry)
        allocator = PageAllocator(mapper)
        (frame_a,) = allocator.allocate(1)
        (frame_b,) = allocator.allocate(2)
        shared = mapper.rows_of_frame(frame_a) & mapper.rows_of_frame(frame_b)
        assert shared
        for row in shared:
            assert allocator.domains_in_row(row) == frozenset({1, 2})

    def test_attribution_retracted_on_free(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        (frame,) = allocator.allocate(1)
        rows = list(mapper.rows_of_frame(frame))
        allocator.free(frame)
        assert allocator.domains_in_row(rows[0]) == frozenset()

    def test_refcounted_attribution(self, geometry):
        mapper = CachelineInterleaving(geometry)
        allocator = PageAllocator(mapper)
        frames = allocator.allocate(1, 2)  # both touch row 0 region
        shared = (
            mapper.rows_of_frame(frames[0]) & mapper.rows_of_frame(frames[1])
        )
        allocator.free(frames[0])
        for row in shared:
            assert allocator.domains_in_row(row) == frozenset({1})


class TestBankPartition:
    def test_domains_get_disjoint_banks(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper, policy=AllocationPolicy.BANK_PARTITION)
        frames_a = allocator.allocate(1, 4)
        frames_b = allocator.allocate(2, 4)
        banks_a = {b for f in frames_a for b in mapper.banks_of_frame(f)}
        banks_b = {b for f in frames_b for b in mapper.banks_of_frame(f)}
        assert banks_a.isdisjoint(banks_b)

    def test_bank_released_when_domain_leaves(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper, policy=AllocationPolicy.BANK_PARTITION)
        frames_a = allocator.allocate(1, 2)
        for frame in frames_a:
            allocator.free(frame)
        # domain 2 can now claim the freed bank's frames
        frames_b = allocator.allocate(2, 2)
        assert frames_b == frames_a


class TestGuardRows:
    def test_guard_distance_between_domains(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(
            mapper, policy=AllocationPolicy.GUARD_ROWS, guard_radius=2
        )
        frames_a = allocator.allocate(1, 2)
        frames_b = allocator.allocate(2, 2)
        rows_a = {r for f in frames_a for r in mapper.rows_of_frame(f)}
        rows_b = {r for f in frames_b for r in mapper.rows_of_frame(f)}
        for (ca, ra, ba, rowa) in rows_a:
            for (cb, rb, bb, rowb) in rows_b:
                if (ca, ra, ba) != (cb, rb, bb):
                    continue
                if geometry.same_subarray(rowa, rowb):
                    assert abs(rowa - rowb) > 2

    def test_same_domain_packs_tightly(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(
            mapper, policy=AllocationPolicy.GUARD_ROWS, guard_radius=2
        )
        frames = allocator.allocate(1, 4)
        assert frames == [0, 1, 2, 3]  # no guards within one domain

    def test_capacity_overhead_positive(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(
            mapper, policy=AllocationPolicy.GUARD_ROWS, guard_radius=2
        )
        allocator.allocate(1, 2)
        allocator.allocate(2, 2)
        assert allocator.capacity_overhead() > 0.0


class TestSubarrayAware:
    def test_allocations_isolated(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        allocator = PageAllocator(mapper, policy=AllocationPolicy.SUBARRAY_AWARE)
        frames_a = allocator.allocate(1, 4)
        frames_b = allocator.allocate(2, 4)
        groups_a = {g for f in frames_a for g in mapper.subarrays_of_frame(f)}
        groups_b = {g for f in frames_b for g in mapper.subarrays_of_frame(f)}
        assert groups_a.isdisjoint(groups_b)

    def test_free_releases_mapper_slot(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        allocator = PageAllocator(mapper, policy=AllocationPolicy.SUBARRAY_AWARE)
        (frame,) = allocator.allocate(1)
        group = mapper.group_of_domain(1)
        free_before = len(mapper._group_slots_free[group])
        allocator.free(frame)
        assert len(mapper._group_slots_free[group]) == free_before + 1


class TestAvoidRows:
    def test_avoid_rows_skips(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        avoid = frozenset(mapper.rows_of_frame(0))
        frames = allocator.allocate(1, 1, avoid_rows=avoid)
        assert frames != [0]

    def test_avoid_rows_falls_back_when_unavoidable(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        all_rows = frozenset(
            row
            for frame in range(mapper.total_frames)
            for row in mapper.rows_of_frame(frame)
        )
        frames = allocator.allocate(1, 1, avoid_rows=all_rows)
        assert frames  # constraint dropped, not OOM

    def test_subarray_aware_probe_places_nothing(self, geometry):
        """Under SUBARRAY_AWARE the MC places a frame when it is taken;
        an avoid_rows probe must not place free candidates (which made
        the later assign_frame raise "already assigned")."""
        mapper = SubarrayIsolatedInterleaving(geometry)
        allocator = PageAllocator(
            mapper, policy=AllocationPolicy.SUBARRAY_AWARE
        )
        (first,) = allocator.allocate(1)
        avoid = frozenset(mapper.rows_of_frame(first))
        frames = [
            allocator.allocate(1, 1, avoid_rows=avoid)[0] for _ in range(3)
        ]
        assert frames == [first + 1, first + 2, first + 3]
        assert set(mapper._frame_group) == {first, *frames}


class TestRetire:
    def test_retired_frame_never_reallocated(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        (frame,) = allocator.allocate(1)
        allocator.retire(frame)
        assert allocator.owner_of(frame) is None
        assert allocator.retired_frames == 1
        new_frames = allocator.allocate(2, 3)
        assert frame not in new_frames

    def test_retire_unallocated_raises(self, geometry):
        allocator = PageAllocator(LinearMapping(geometry))
        with pytest.raises(KeyError):
            allocator.retire(0)

    def test_retire_clears_attribution(self, geometry):
        mapper = LinearMapping(geometry)
        allocator = PageAllocator(mapper)
        (frame,) = allocator.allocate(1)
        rows = list(mapper.rows_of_frame(frame))
        allocator.retire(frame)
        assert allocator.domains_in_row(rows[0]) == frozenset()
