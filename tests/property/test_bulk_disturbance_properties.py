"""Property suite pinning ``on_activate_bulk`` to the scalar oracle.

The bulk kernel must be a drop-in for per-ACT ``on_activate``: same
pressures, same tripped set, same flips in the same order, and the same
RNG stream afterwards (so downstream draws stay aligned).  The
strategies lean on subarray-edge rows deliberately — the blast-radius
clamping at subarray boundaries is exactly where a vectorized
neighbourhood is easiest to get wrong (PR 3 regression).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dram.disturbance as disturbance_mod
from repro.dram.disturbance import DisturbanceProfile, DisturbanceTracker
from repro.dram.geometry import DdrAddress, DramGeometry

GEOMETRIES = {
    "default": DramGeometry(),
    "small": DramGeometry(
        banks_per_rank=2, subarrays_per_bank=2,
        rows_per_subarray=8, columns_per_row=8,
    ),
    # Subarrays narrower than the largest blast radius we draw (3):
    # every neighbourhood is clipped on at least one side.
    "narrow_subarrays": DramGeometry(
        channels=2, ranks_per_channel=2, banks_per_rank=2,
        subarrays_per_bank=4, rows_per_subarray=4, columns_per_row=8,
    ),
}

def _domain_lookup(key):
    # domains land in victim rows so flips carry non-empty attribution
    return frozenset({key[3] % 3})


@st.composite
def bulk_case(draw):
    name = draw(st.sampled_from(sorted(GEOMETRIES)))
    geometry = GEOMETRIES[name]
    rows_per_subarray = geometry.rows_per_subarray
    top = geometry.rows_per_bank - 1
    # Rows concentrated around subarray edges (and the bank's last rows)
    # so pressure actually accumulates and clamping gets exercised.
    palette = sorted(set(
        list(range(0, min(rows_per_subarray + 3, top) + 1))
        + [top, top - 1, max(0, top - rows_per_subarray)]
    ))
    act = st.tuples(
        st.integers(0, geometry.channels - 1),
        st.integers(0, geometry.ranks_per_channel - 1),
        st.integers(0, geometry.banks_per_rank - 1),
        st.sampled_from(palette),
        st.sampled_from([None, 0, 1, 2]),
    )
    sequence = draw(st.lists(act, min_size=1, max_size=160))
    chunk = draw(st.integers(min_value=1, max_value=64))
    profile = DisturbanceProfile(
        mac=draw(st.integers(min_value=2, max_value=30)),
        blast_radius=draw(st.integers(min_value=1, max_value=3)),
        decay_per_row=draw(st.sampled_from([0.5, 1.0])),
        flip_probability=draw(st.sampled_from([1.0, 0.6])),
        max_bits_per_flip=3,
    )
    return geometry, profile, sequence, chunk


def _make_tracker(geometry, profile):
    return DisturbanceTracker(
        geometry, profile, random.Random(0), domain_lookup=_domain_lookup
    )


def _scalar_leg(geometry, profile, sequence):
    tracker = _make_tracker(geometry, profile)
    flips = []
    for step, (channel, rank, bank, row, domain) in enumerate(sequence):
        flips.extend(tracker.on_activate(
            DdrAddress(channel, rank, bank, row, 0), 10 * step, domain
        ))
    return tracker, flips


def _bulk_leg(geometry, profile, sequence, chunk):
    tracker = _make_tracker(geometry, profile)
    flips = []
    for start in range(0, len(sequence), chunk):
        part = sequence[start:start + chunk]
        addresses = [
            DdrAddress(channel, rank, bank, row, 0)
            for channel, rank, bank, row, _ in part
        ]
        times = [10 * (start + offset) for offset in range(len(part))]
        domains = [entry[4] for entry in part]
        flips.extend(tracker.on_activate_bulk(addresses, times, domains))
    return tracker, flips


def _assert_equivalent(reference, bulk):
    ref_tracker, ref_flips = reference
    bulk_tracker, bulk_flips = bulk
    assert bulk_flips == ref_flips
    assert bulk_tracker.flips == ref_tracker.flips
    assert bulk_tracker._pressure == ref_tracker._pressure
    assert bulk_tracker._tripped == ref_tracker._tripped
    assert bulk_tracker.total_acts == ref_tracker.total_acts
    # identical RNG stream afterwards — later draws stay aligned
    assert bulk_tracker._rng.getstate() == ref_tracker._rng.getstate()


@given(case=bulk_case())
@settings(max_examples=80, deadline=None)
def test_bulk_matches_scalar_flip_for_flip(case):
    geometry, profile, sequence, chunk = case
    saved = disturbance_mod._BULK_MIN_ACTS
    disturbance_mod._BULK_MIN_ACTS = 1  # force the numpy kernel
    try:
        bulk = _bulk_leg(geometry, profile, sequence, chunk)
    finally:
        disturbance_mod._BULK_MIN_ACTS = saved
    _assert_equivalent(_scalar_leg(geometry, profile, sequence), bulk)


@given(case=bulk_case())
@settings(max_examples=25, deadline=None)
def test_small_batch_scalar_twin_matches(case):
    """Below ``_BULK_MIN_ACTS`` the bulk API runs its scalar twin; the
    equivalence must hold there too (it is the small-batch path every
    short flush segment takes)."""
    geometry, profile, sequence, chunk = case
    saved = disturbance_mod._BULK_MIN_ACTS
    disturbance_mod._BULK_MIN_ACTS = 10 ** 9  # force the scalar twin
    try:
        bulk = _bulk_leg(geometry, profile, sequence, chunk)
    finally:
        disturbance_mod._BULK_MIN_ACTS = saved
    _assert_equivalent(_scalar_leg(geometry, profile, sequence), bulk)


def test_rows_override_matches_scalar_on_remapped_rows():
    """The ``rows=`` override (the device's remap path) must behave as
    if the addresses had carried the internal rows all along."""
    geometry = GEOMETRIES["small"]
    profile = DisturbanceProfile(mac=4, blast_radius=2)
    logical = [1, 2, 1, 2, 1, 2, 7, 0]
    internal = [row + 8 for row in logical]  # shift into subarray 1

    reference = _make_tracker(geometry, profile)
    for step, row in enumerate(internal):
        reference.on_activate(DdrAddress(0, 0, 0, row, 0), step, 1)

    saved = disturbance_mod._BULK_MIN_ACTS
    disturbance_mod._BULK_MIN_ACTS = 1
    try:
        bulk = _make_tracker(geometry, profile)
        bulk.on_activate_bulk(
            [DdrAddress(0, 0, 0, row, 0) for row in logical],
            list(range(len(logical))),
            [1] * len(logical),
            rows=internal,
        )
    finally:
        disturbance_mod._BULK_MIN_ACTS = saved
    assert bulk.flips == reference.flips
    assert bulk._pressure == reference._pressure
    assert bulk._tripped == reference._tripped


def test_subarray_edge_rows_never_leak_pressure():
    """Hammering the first/last row of a subarray must clamp: the
    neighbour on the far side of the boundary accrues nothing, in both
    the scalar and the bulk path."""
    geometry = GEOMETRIES["narrow_subarrays"]
    profile = DisturbanceProfile(mac=3, blast_radius=3)
    rows_per_subarray = geometry.rows_per_subarray
    edge_rows = [0, rows_per_subarray - 1, rows_per_subarray,
                 geometry.rows_per_bank - 1]
    sequence = [(0, 0, 0, row, None) for row in edge_rows * 6]
    saved = disturbance_mod._BULK_MIN_ACTS
    disturbance_mod._BULK_MIN_ACTS = 1
    try:
        bulk = _bulk_leg(geometry, profile, sequence, chunk=7)
    finally:
        disturbance_mod._BULK_MIN_ACTS = saved
    _assert_equivalent(_scalar_leg(geometry, profile, sequence), bulk)
    tracker = bulk[0]
    for (_, _, _, victim_row), _pressure in tracker.iter_pressure():
        subarray = victim_row // rows_per_subarray
        assert any(
            row // rows_per_subarray == subarray for row in edge_rows
        )
