"""Unit tests for the address-mapping schemes, including the paper's
subarray-isolated interleaving primitive."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.mc.address_map import (
    MAPPING_SCHEMES,
    CachelineInterleaving,
    LinearMapping,
    PermutationInterleaving,
    SubarrayIsolatedInterleaving,
    make_mapper,
)


@pytest.fixture
def geometry():
    # banks_total must divide lines_per_page (64) for subarray mapping
    return DramGeometry(
        banks_per_rank=8,
        subarrays_per_bank=4,
        rows_per_subarray=32,
        columns_per_row=64,
    )


ALL_SCHEMES = sorted(MAPPING_SCHEMES)


class TestFactory:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_make_mapper(self, geometry, scheme):
        mapper = make_mapper(scheme, geometry)
        assert mapper.name == scheme

    def test_unknown_scheme(self, geometry):
        with pytest.raises(KeyError):
            make_mapper("nope", geometry)

    def test_page_size_must_divide(self, geometry):
        with pytest.raises(ValueError):
            make_mapper("linear", geometry, page_bytes=100)


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_forward_backward(self, geometry, scheme):
        mapper = make_mapper(scheme, geometry)
        step = 97  # co-prime stride to sample the space
        for line in range(0, mapper.total_lines, step):
            address = mapper.line_to_ddr(line)
            assert mapper.ddr_to_line(address) == line

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_injective(self, geometry, scheme):
        mapper = make_mapper(scheme, geometry)
        seen = set()
        for line in range(mapper.total_lines):
            address = mapper.line_to_ddr(line)
            key = (address.channel, address.rank, address.bank,
                   address.row, address.column)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_out_of_range(self, geometry, scheme):
        mapper = make_mapper(scheme, geometry)
        with pytest.raises(ValueError):
            mapper.line_to_ddr(mapper.total_lines)


class TestInterleavingShape:
    def test_linear_keeps_page_in_one_bank(self, geometry):
        mapper = LinearMapping(geometry)
        assert not mapper.interleaves
        assert len(mapper.banks_of_frame(0)) == 1

    def test_cacheline_spreads_page_over_all_banks(self, geometry):
        mapper = CachelineInterleaving(geometry)
        assert mapper.interleaves
        assert len(mapper.banks_of_frame(0)) == geometry.banks_total

    def test_permutation_spreads_too(self, geometry):
        mapper = PermutationInterleaving(geometry)
        assert len(mapper.banks_of_frame(0)) == geometry.banks_total

    def test_consecutive_lines_hit_different_banks(self, geometry):
        mapper = CachelineInterleaving(geometry)
        banks = {
            geometry.bank_index(mapper.line_to_ddr(line))
            for line in range(geometry.banks_total)
        }
        assert len(banks) == geometry.banks_total

    def test_interleaving_mixes_domains_in_rows(self, geometry):
        """§4.1's problem statement: under conventional interleaving,
        different pages (= potentially different tenants) share rows."""
        mapper = CachelineInterleaving(geometry)
        rows_page0 = mapper.rows_of_frame(0)
        rows_page1 = mapper.rows_of_frame(1)
        assert rows_page0 & rows_page1


class TestSubarrayIsolated:
    def test_still_interleaves(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.bind_domain(1, group=0)
        mapper.assign_frame(0, 1)
        assert len(mapper.banks_of_frame(0)) == geometry.banks_total

    def test_domain_confined_to_group(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.bind_domain(1, group=2)
        for frame in range(10):
            mapper.assign_frame(frame, 1)
        for frame in range(10):
            assert mapper.subarrays_of_frame(frame) == {2}

    def test_two_domains_never_share_a_subarray(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.bind_domain(1)
        mapper.bind_domain(2)
        for frame in range(0, 10, 2):
            mapper.assign_frame(frame, 1)
            mapper.assign_frame(frame + 1, 2)
        groups_1 = {
            group for frame in range(0, 10, 2)
            for group in mapper.subarrays_of_frame(frame)
        }
        groups_2 = {
            group for frame in range(1, 10, 2)
            for group in mapper.subarrays_of_frame(frame)
        }
        assert groups_1.isdisjoint(groups_2)

    def test_auto_binding_picks_least_loaded(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        g1 = mapper.bind_domain(1)
        mapper.assign_frame(0, 1)
        g2 = mapper.bind_domain(2)
        assert g1 != g2

    def test_rebinding_is_stable(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        assert mapper.bind_domain(1, group=3) == 3
        assert mapper.bind_domain(1) == 3

    def test_double_assign_rejected(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.assign_frame(0, 1)
        with pytest.raises(ValueError):
            mapper.assign_frame(0, 1)

    def test_group_capacity_enforced(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.bind_domain(1, group=0)
        for frame in range(mapper.frames_per_group):
            mapper.assign_frame(frame, 1)
        with pytest.raises(MemoryError):
            mapper.assign_frame(mapper.frames_per_group, 1)

    def test_release_recycles_slot(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        mapper.bind_domain(1, group=0)
        for frame in range(mapper.frames_per_group):
            mapper.assign_frame(frame, 1)
        mapper.release_frame(0)
        mapper.assign_frame(mapper.frames_per_group, 1)  # fits again

    def test_lazy_placement_roundtrip(self, geometry):
        mapper = SubarrayIsolatedInterleaving(geometry)
        # touch unassigned frames in arbitrary order
        for line in (5000, 100, 9000, 10):
            address = mapper.line_to_ddr(line)
            assert mapper.ddr_to_line(address) == line

    def test_unmapped_slot_inverse_raises(self, geometry):
        from repro.dram.geometry import DdrAddress

        mapper = SubarrayIsolatedInterleaving(geometry)
        with pytest.raises(KeyError):
            mapper.ddr_to_line(DdrAddress(0, 0, 0, 0, 0))

    def test_requires_divisible_banks(self):
        odd = DramGeometry(banks_per_rank=3, channels=1, ranks_per_channel=1)
        with pytest.raises(ValueError):
            SubarrayIsolatedInterleaving(odd)


class TestFrameHelpers:
    def test_frame_of_line(self, geometry):
        mapper = LinearMapping(geometry)
        assert mapper.frame_of_line(0) == 0
        assert mapper.frame_of_line(mapper.lines_per_page) == 1

    def test_lines_of_frame(self, geometry):
        mapper = LinearMapping(geometry)
        lines = mapper.lines_of_frame(2)
        assert len(lines) == mapper.lines_per_page
        assert mapper.frame_of_line(lines[0]) == 2

    def test_physical_to_ddr(self, geometry):
        mapper = LinearMapping(geometry)
        byte_address = 3 * geometry.cacheline_bytes
        assert mapper.physical_to_ddr(byte_address) == mapper.line_to_ddr(3)


# (geometry, page bytes): power-of-two shapes, pages spanning several
# rows of a linear bank, pages smaller than the bank count, and a
# two-channel shape with a non-power-of-two bank count and row width.
FRAME_GEOMETRIES = [
    (DramGeometry(banks_per_rank=4, subarrays_per_bank=2,
                  rows_per_subarray=4, columns_per_row=32), 4096),
    (DramGeometry(banks_per_rank=8, subarrays_per_bank=2,
                  rows_per_subarray=4, columns_per_row=16), 512),
    (DramGeometry(banks_per_rank=8, subarrays_per_bank=2,
                  rows_per_subarray=4, columns_per_row=16), 256),
    (DramGeometry(channels=2, banks_per_rank=3, subarrays_per_bank=2,
                  rows_per_subarray=4, columns_per_row=24), 384),
]


def _mapper_pair(scheme, geometry, page_bytes):
    """Two identical mappers, or a skip when the shape does not fit."""
    try:
        return (make_mapper(scheme, geometry, page_bytes),
                make_mapper(scheme, geometry, page_bytes))
    except ValueError as error:
        pytest.skip(str(error))


def _translated(mapper, frame):
    """The frame's addresses through the memoised ``line_to_ddr``."""
    return [mapper.line_to_ddr(line) for line in mapper.lines_of_frame(frame)]


class TestFrameGeometry:
    """Frame queries compute from the mapping's arithmetic; they must
    agree with translating every line, and leave the memo alone."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("geometry,page_bytes", FRAME_GEOMETRIES)
    def test_frame_queries_match_translation(self, scheme, geometry,
                                             page_bytes):
        mapper, reference = _mapper_pair(scheme, geometry, page_bytes)
        before = mapper.memo_counters()
        # Frames in the same order on both, so subarray placement (first
        # touch) matches.
        for frame in range(mapper.total_frames):
            expected = _translated(reference, frame)
            assert mapper.frame_addresses(frame) == expected
            assert mapper.rows_of_frame(frame) == {
                address.row_key() for address in expected
            }
            assert mapper.banks_of_frame(frame) == {
                geometry.bank_index(address) for address in expected
            }
            assert mapper.subarrays_of_frame(frame) == {
                geometry.subarray_of_row(address.row) for address in expected
            }
        assert mapper.memo_counters() == before

    @pytest.mark.parametrize("geometry,page_bytes", FRAME_GEOMETRIES[:1])
    def test_subarray_frame_queries_follow_assignment(self, geometry,
                                                      page_bytes):
        mapper, reference = _mapper_pair(
            "subarray-isolated", geometry, page_bytes
        )
        for target in (mapper, reference):
            target.bind_domain(1, group=1)
            for frame in (5, 2, 7):
                target.assign_frame(frame, 1)
            target.release_frame(2)
            target.assign_frame(3, 1)
        for frame in (5, 7, 3, 0):
            expected = _translated(reference, frame)
            assert mapper.frame_addresses(frame) == expected
            assert mapper.rows_of_frame(frame) == {
                address.row_key() for address in expected
            }
        assert mapper.memo_counters()["entries"] == 0

    @pytest.mark.parametrize(
        "scheme", ["linear", "cacheline-interleave", "permutation-interleave"]
    )
    @pytest.mark.parametrize("geometry,page_bytes", FRAME_GEOMETRIES)
    def test_frames_of_row_inverts_rows_of_frame(self, scheme, geometry,
                                                 page_bytes):
        mapper = make_mapper(scheme, geometry, page_bytes)
        frames_by_row = {}
        for frame in range(mapper.total_frames):
            for row in mapper.rows_of_frame(frame):
                frames_by_row.setdefault(row, []).append(frame)
        before = mapper.memo_counters()
        for channel, rank, bank in geometry.iter_banks():
            for row in range(geometry.rows_per_bank):
                key = (channel, rank, bank, row)
                assert mapper.frames_of_row(key) == frames_by_row[key]
        assert mapper.memo_counters() == before

    def test_frames_of_row_validates_the_row(self, geometry):
        mapper = CachelineInterleaving(geometry)
        with pytest.raises(ValueError):
            mapper.frames_of_row((0, 0, 0, geometry.rows_per_bank))
        with pytest.raises(ValueError):
            mapper.frames_of_row((0, 0, geometry.banks_per_rank, 0))

    def test_frames_of_row_undefined_for_subarray_mapping(self, geometry):
        with pytest.raises(NotImplementedError):
            SubarrayIsolatedInterleaving(geometry).frames_of_row((0, 0, 0, 0))

    def test_cacheline_row_holds_sixteen_frames(self):
        """The defended platform's shape: 8 banks x 128 columns per row
        index, 64-line pages."""
        geometry = DramGeometry(banks_per_rank=8, columns_per_row=128)
        mapper = CachelineInterleaving(geometry)
        assert mapper.frames_of_row((0, 0, 3, 5)) == list(range(80, 96))

    @pytest.mark.parametrize("geometry,page_bytes", FRAME_GEOMETRIES)
    def test_permutation_round_trip(self, geometry, page_bytes):
        """The bank permutation is undone exactly, also when the bank
        count is not a power of two (where it is not an XOR)."""
        mapper = PermutationInterleaving(geometry, page_bytes)
        for line in range(mapper.total_lines):
            assert mapper.ddr_to_line(mapper.line_to_ddr(line)) == line
