"""Differential property test: the indexed allocator against a reference
first-fit scan.

``ReferenceAllocator`` below is first fit written the slow, obvious way:
walk every free frame in ascending order, decide admissibility and
avoided rows from sets built by translating each of the frame's lines,
and recompute bank ownership and domain bindings from the owner map on
every free.  Random sequences of ``allocate`` (with and without
``avoid_rows``, single frames and batches), ``free`` and ``retire`` must
hand out the same frames, fail with ``OutOfMemoryError`` at the same
points, and leave the same ``domains_in_row`` attribution under every
policy.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.dram.geometry import DramGeometry
from repro.hostos.allocator import (
    AllocationPolicy,
    OutOfMemoryError,
    PageAllocator,
)
from repro.mc.address_map import make_mapper

# Small enough for the reference's full scans, large enough that rows
# hold several frames (interleaved) and frames several rows (linear).
GEOMETRY = DramGeometry(
    banks_per_rank=4, subarrays_per_bank=2,
    rows_per_subarray=4, columns_per_row=32,
)
ROW_KEYS = sorted(
    (channel, rank, bank, row)
    for channel, rank, bank in GEOMETRY.iter_banks()
    for row in range(GEOMETRY.rows_per_bank)
)

#: (policy, mapping scheme, guard radius)
CONFIGS = [
    (AllocationPolicy.DEFAULT, "linear", 1),
    (AllocationPolicy.DEFAULT, "cacheline-interleave", 1),
    (AllocationPolicy.DEFAULT, "permutation-interleave", 1),
    (AllocationPolicy.DEFAULT, "subarray-isolated", 1),
    (AllocationPolicy.BANK_PARTITION, "linear", 1),
    (AllocationPolicy.GUARD_ROWS, "linear", 1),
    (AllocationPolicy.GUARD_ROWS, "linear", 2),
    (AllocationPolicy.SUBARRAY_AWARE, "subarray-isolated", 1),
]


class ReferenceAllocator:
    """First fit by a full ordered scan over the free frames."""

    def __init__(self, mapper, policy, guard_radius):
        self.mapper = mapper
        self.policy = policy
        self.radius = guard_radius
        self.owner = {}
        self.free_set = set(range(mapper.total_frames))
        self.taken_rows = {}  # frame -> rows it was attributed under
        self.row_domains = {}  # row -> {asid: frames}
        self.bank_owner = {}

    def rows_of(self, frame, mapper=None):
        mapper = mapper or self.mapper
        return {
            mapper.line_to_ddr(line).row_key()
            for line in mapper.lines_of_frame(frame)
        }

    def banks_of(self, frame):
        return {
            GEOMETRY.bank_index(self.mapper.line_to_ddr(line))
            for line in self.mapper.lines_of_frame(frame)
        }

    def prospective_rows(self, frame, asid):
        """The rows ``frame`` would hold if it were taken now."""
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            probe = copy.deepcopy(self.mapper)
            probe.assign_frame(frame, asid)
            return self.rows_of(frame, probe)
        return self.rows_of(frame)

    def admissible(self, frame, asid):
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            group = self.mapper.group_of_domain(asid)
            return group is None or bool(self.mapper._group_slots_free[group])
        if self.policy is AllocationPolicy.BANK_PARTITION:
            return all(
                self.bank_owner.get(bank, asid) == asid
                for bank in self.banks_of(frame)
            )
        if self.policy is AllocationPolicy.GUARD_ROWS:
            for channel, rank, bank, row in self.rows_of(frame):
                for other in range(row - self.radius, row + self.radius + 1):
                    if not 0 <= other < GEOMETRY.rows_per_bank:
                        continue
                    if not GEOMETRY.same_subarray(row, other):
                        continue
                    owners = self.row_domains.get((channel, rank, bank, other))
                    if owners and set(owners) - {asid}:
                        return False
        return True

    def allocate_one(self, asid, avoid_rows):
        fallback = None
        for frame in sorted(self.free_set):
            if not self.admissible(frame, asid):
                continue
            if avoid_rows and self.prospective_rows(frame, asid) & avoid_rows:
                if fallback is None:
                    fallback = frame
                continue
            return self.take(frame, asid)
        if fallback is not None:
            return self.take(fallback, asid)
        raise OutOfMemoryError

    def allocate(self, asid, count, avoid_rows):
        frames = []
        try:
            for _ in range(count):
                frames.append(self.allocate_one(asid, avoid_rows))
        except OutOfMemoryError:
            for frame in frames:
                self.free(frame)
            raise
        return frames

    def take(self, frame, asid):
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            self.mapper.assign_frame(frame, asid)
        self.free_set.discard(frame)
        self.owner[frame] = asid
        if self.policy is AllocationPolicy.BANK_PARTITION:
            for bank in self.banks_of(frame):
                self.bank_owner[bank] = asid
        rows = self.taken_rows[frame] = self.rows_of(frame)
        for row in rows:
            counts = self.row_domains.setdefault(row, {})
            counts[asid] = counts.get(asid, 0) + 1
        return frame

    def release(self, frame):
        asid = self.owner.pop(frame)
        for row in self.taken_rows[frame]:
            counts = self.row_domains[row]
            counts[asid] -= 1
            if not counts[asid]:
                del counts[asid]
            if not counts:
                del self.row_domains[row]
        return asid

    def free(self, frame):
        asid = self.release(frame)
        del self.taken_rows[frame]
        self.free_set.add(frame)
        if self.mapper.name == "subarray-isolated":
            self.mapper.release_frame(frame)
        if self.policy is AllocationPolicy.BANK_PARTITION:
            remaining = {
                bank
                for other, owner in self.owner.items()
                if owner == asid
                for bank in self.banks_of(other)
            }
            for bank, owner in list(self.bank_owner.items()):
                if owner == asid and bank not in remaining:
                    del self.bank_owner[bank]
        if self.policy is AllocationPolicy.SUBARRAY_AWARE:
            if asid not in self.owner.values():
                self.mapper.unbind_domain(asid)

    def retire(self, frame):
        self.release(frame)

    def domains_in_row(self, row):
        return frozenset(self.row_domains.get(row, ()))


row_sets = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from(ROW_KEYS), max_size=8),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from([1, 2, 3]),
                  st.sampled_from([1, 1, 1, 3]), row_sets),
        st.tuples(st.just("free"), st.sampled_from([1, 2, 3]),
                  st.integers(0, 7), st.none()),
        st.tuples(st.just("retire"), st.sampled_from([1, 2, 3]),
                  st.integers(0, 7), st.none()),
    ),
    max_size=40,
)


@pytest.mark.parametrize(
    "policy,scheme,radius", CONFIGS,
    ids=[f"{p.value}-{s}-r{r}" for p, s, r in CONFIGS],
)
@given(script=operations)
@settings(max_examples=40, deadline=None)
def test_indexed_allocator_matches_reference_scan(policy, scheme, radius,
                                                  script):
    allocator = PageAllocator(
        make_mapper(scheme, GEOMETRY), policy=policy, guard_radius=radius
    )
    reference = ReferenceAllocator(make_mapper(scheme, GEOMETRY), policy,
                                   radius)
    held = {1: [], 2: [], 3: []}
    for op, domain, arg, avoid in script:
        if op == "allocate":
            try:
                expected = reference.allocate(domain, arg, avoid)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    allocator.allocate(domain, arg, avoid_rows=avoid)
            else:
                assert allocator.allocate(domain, arg,
                                          avoid_rows=avoid) == expected
                held[domain].extend(expected)
        elif held[domain]:
            frame = held[domain].pop(arg % len(held[domain]))
            getattr(allocator, op)(frame)
            getattr(reference, op)(frame)
        assert allocator.free_frames == len(reference.free_set)
        assert allocator.allocated_frames == len(reference.owner)
        for row in ROW_KEYS:
            assert allocator.domains_in_row(row) == reference.domains_in_row(
                row
            )
    if scheme == "subarray-isolated":
        for domain in held:
            assert allocator.mapper.group_of_domain(
                domain
            ) == reference.mapper.group_of_domain(domain)
