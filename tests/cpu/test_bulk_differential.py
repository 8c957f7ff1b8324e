"""CPU-side bulk == scalar differentials.

``Mmu.translate_lines_bulk`` / ``TranslationPlan`` and
``SetAssociativeCache.access_bulk`` each claim to be counter-exact twins
of their per-access reference.  These suites pin that claim with
randomized sequences: same outputs, same hit/miss/evict/writeback
accounting, same internal LRU order afterwards, and — for translation —
the fault surfacing at exactly the scalar position with exactly the
scalar path's partial TLB state.
"""

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import LockError, SetAssociativeCache
from repro.cpu.mmu import Mmu, TranslationError

LINES_PER_PAGE = 8
TLB_ENTRIES = 4  # tiny: evictions happen constantly


def _mapped_mmu(mapped_pages):
    mmu = Mmu(lines_per_page=LINES_PER_PAGE, tlb_entries=TLB_ENTRIES)
    table = mmu.table(asid=1)
    for page in sorted(mapped_pages):
        table.map(page, frame=100 + page)
    return mmu

def _tlb_state(mmu):
    tlb = mmu.tlb
    return (
        tlb.hits, tlb.misses, tlb.evictions, tuple(tlb._entries.items())
    )


@st.composite
def translation_case(draw):
    pages = draw(st.sets(st.integers(0, 11), min_size=1, max_size=8))
    lines = draw(st.lists(
        st.integers(0, 12 * LINES_PER_PAGE - 1), min_size=1, max_size=200
    ))
    warmup = draw(st.lists(
        st.integers(0, 12 * LINES_PER_PAGE - 1), min_size=0, max_size=10
    ))
    return pages, warmup, lines


@given(case=translation_case())
@settings(max_examples=150, deadline=None)
def test_translate_lines_bulk_matches_per_access(case):
    pages, warmup, lines = case
    scalar_mmu = _mapped_mmu(pages)
    bulk_mmu = _mapped_mmu(pages)
    # identical warm TLBs (mapped warmup accesses only)
    for mmu in (scalar_mmu, bulk_mmu):
        for line in warmup:
            if line // LINES_PER_PAGE in pages:
                mmu.translate_line(1, line)

    expected, fault_index = [], None
    for index, line in enumerate(lines):
        try:
            expected.append(scalar_mmu.translate_line(1, line))
        except TranslationError:
            fault_index = index
            break

    if fault_index is None:
        assert bulk_mmu.translate_lines_bulk(1, lines) == expected
    else:
        with pytest.raises(TranslationError):
            bulk_mmu.translate_lines_bulk(1, lines)
    # identical counters AND identical LRU order/content — the partial
    # state at a fault is exactly what the scalar loop left behind
    assert _tlb_state(bulk_mmu) == _tlb_state(scalar_mmu)


@given(
    case=translation_case(),
    window=st.integers(1, 16),
    remap_at=st.integers(0, 4),
)
@settings(max_examples=100, deadline=None)
def test_translation_plan_windowed_accounting_with_remap(
    case, window, remap_at
):
    """The chunk-level plan, accounted window by window with a remap
    (version bump + TLB shootdown) between two windows, must equal a
    scalar loop that suffers the same remap at the same access index."""
    pages, _, lines = case
    mapped = sorted(pages)
    lines = [
        line for line in lines if line // LINES_PER_PAGE in pages
    ] or [mapped[0] * LINES_PER_PAGE]
    remap_page = mapped[remap_at % len(mapped)]
    new_frame = 500 + remap_page

    scalar_mmu = _mapped_mmu(pages)
    bulk_mmu = _mapped_mmu(pages)
    boundary = (len(lines) // 2 // window) * window  # a window boundary

    expected = []
    for index, line in enumerate(lines):
        if index == boundary and boundary > 0:
            scalar_mmu.table(1).remap(remap_page, new_frame)
            scalar_mmu.tlb.invalidate(1, remap_page)
        expected.append(scalar_mmu.translate_line(1, line))

    plan = bulk_mmu.plan_translation(1, numpy.asarray(lines))
    assert plan.fault_at == len(lines)
    produced = []
    for start in range(0, len(lines), window):
        stop = min(start + window, len(lines))
        if start == boundary and boundary > 0:
            bulk_mmu.table(1).remap(remap_page, new_frame)
            bulk_mmu.tlb.invalidate(1, remap_page)
        if plan.stale:
            plan.refresh(start)
        plan.account(start, stop)
        produced.extend(plan.physical(start, stop))
    assert produced == expected
    assert _tlb_state(bulk_mmu) == _tlb_state(scalar_mmu)


@st.composite
def cache_case(draw):
    lines = draw(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    writes = draw(st.lists(
        st.booleans(), min_size=len(lines), max_size=len(lines)
    ))
    locked = draw(st.sets(st.integers(0, 63), max_size=3))
    seed = draw(st.integers(0, 2**16))
    return lines, writes, locked, seed


def _small_cache(locked):
    cache = SetAssociativeCache(sets=4, ways=2, max_locked_ways=1)
    for line in sorted(locked):
        try:
            cache.lock(line)
        except LockError:  # two draws in one set: budget is 1, skip
            pass
    return cache


def _cache_state(cache):
    return (
        cache.hits, cache.misses, cache.evictions, cache.writebacks,
        cache.locked_hits,
        [tuple(s.items()) for s in cache._sets],
    )


@given(case=cache_case())
@settings(max_examples=150, deadline=None)
def test_access_bulk_matches_per_access(case):
    lines, writes, locked, seed = case
    scalar = _small_cache(locked)
    bulk = _small_cache(locked)
    # identical warm state via a shared random prefix
    rng = random.Random(seed)
    prefix = [(rng.randrange(64), rng.random() < 0.3) for _ in range(8)]
    for cache in (scalar, bulk):
        for line, is_write in prefix:
            cache.access(line, is_write)

    expected = []
    for position, (line, is_write) in enumerate(zip(lines, writes)):
        result = scalar.access(line, is_write)
        if not result.hit:
            expected.append((position, result.writeback_line))

    misses = bulk.access_bulk(lines, writes)
    assert misses == expected
    assert bulk.bulk_hits == len(lines) - len(misses)
    state = _cache_state(bulk)
    assert state == _cache_state(scalar)


def test_access_bulk_rejects_negative_lines():
    cache = SetAssociativeCache(sets=4, ways=2, max_locked_ways=1)
    with pytest.raises(ValueError):
        cache.access_bulk([3, -1, 2])
