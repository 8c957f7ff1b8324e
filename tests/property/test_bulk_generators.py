"""Property suite pinning the bulk workload generators to the scalar
oracle.

The columnar front end only works if ``BulkGenerator.columns`` emits
*exactly* the stream the scalar iterator from ``make_generator`` would
have yielded — same lines, same write flags, same Twister consumption —
for every kind, seed, and chunking.  The strategies draw uneven chunk
splits deliberately: a tail window smaller than the preceding chunks is
exactly where a cursor or a stream offset is easiest to lose.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.bulk import (
    SCALAR_FALLBACK_KINDS,
    BulkGenerator,
    uniform_block,
)
from repro.workloads.generators import GENERATOR_NAMES, make_generator

KINDS = sorted(GENERATOR_NAMES)

#: line-space sizes crossing the interesting boundaries: 1 (degenerate),
#: below/at/above the pointer-chase hot-buffer cap of 512
TOTALS = st.sampled_from([1, 2, 7, 96, 511, 512, 513, 2048])

#: uneven chunk splits, tails included
CHUNKS = st.lists(st.integers(1, 97), min_size=1, max_size=6)


def _oracle(kind, total, seed, count):
    stream = make_generator(kind, total, random.Random(seed))
    return [next(stream) for _ in range(count)]


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_uniform_block_matches_scalar_random(seed, count):
    """``uniform_block`` is bit-identical to ``rng.random()`` calls and
    leaves the shared ``Random`` in the same state."""
    scalar = random.Random(seed)
    bulk = random.Random(seed)
    draws = uniform_block(bulk, count)
    expected = [scalar.random() for _ in range(count)]
    assert draws.tolist() == expected
    assert bulk.getstate() == scalar.getstate()
    # the very next scalar draw agrees too (state round-trip is live)
    assert bulk.random() == scalar.random()


@given(
    kind=st.sampled_from(KINDS),
    total=TOTALS,
    seed=st.integers(0, 2**32 - 1),
    chunks=CHUNKS,
)
@settings(max_examples=120, deadline=None)
def test_columns_match_scalar_stream(kind, total, seed, chunks):
    """Chunked ``columns`` calls reproduce the scalar iterator element
    for element, whatever the (uneven) chunking."""
    generator = BulkGenerator(kind, total, random.Random(seed))
    lines, writes = [], []
    for chunk in chunks:
        line_col, write_col = generator.columns(chunk)
        assert line_col.shape == write_col.shape == (chunk,)
        lines.extend(line_col.tolist())
        writes.extend(bool(flag) for flag in write_col.tolist())
    expected = _oracle(kind, total, seed, sum(chunks))
    assert list(zip(lines, writes)) == expected
    assert generator.scalar_fallback == (kind in SCALAR_FALLBACK_KINDS)


@given(
    kind=st.sampled_from(KINDS),
    total=TOTALS,
    seed=st.integers(0, 2**32 - 1),
    plan=st.lists(
        st.tuples(st.booleans(), st.integers(1, 64)),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=120, deadline=None)
def test_mixed_scalar_and_bulk_share_one_stream(kind, total, seed, plan):
    """Interleaving ``one()`` draws with ``columns`` blocks on a single
    generator never diverges from the pure scalar oracle — positional
    state lives in the generator, random state in the shared ``Random``,
    so the two consumption modes read one unbroken stream."""
    generator = BulkGenerator(kind, total, random.Random(seed))
    produced = []
    for bulk, count in plan:
        if bulk:
            line_col, write_col = generator.columns(count)
            produced.extend(
                (int(line), bool(flag))
                for line, flag in zip(line_col, write_col)
            )
        else:
            produced.extend(generator.one() for _ in range(count))
    assert produced == _oracle(
        kind, total, seed, sum(count for _, count in plan)
    )


@given(
    total=st.sampled_from([1, 3, 511, 512, 513, 4096]),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 1200),
)
@settings(max_examples=60, deadline=None)
def test_pointer_chase_fallback_crosses_cycle_boundary(total, seed, count):
    """The counted pointer-chase fallback stays exact across the hot
    buffer's wrap boundary (hot = min(total, 512)) and is flagged as a
    scalar fallback for the registry counter."""
    generator = BulkGenerator("pointer_chase", total, random.Random(seed))
    assert generator.scalar_fallback
    line_col, write_col = generator.columns(count)
    expected = _oracle("pointer_chase", total, seed, count)
    assert list(zip(line_col.tolist(), write_col.tolist())) == [
        (line, int(flag)) for line, flag in expected
    ]
    assert not write_col.any()


@given(
    kind=st.sampled_from(sorted(set(KINDS) - SCALAR_FALLBACK_KINDS)),
    total=TOTALS,
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(2, 48),
    windows=st.integers(1, 5),
    tail=st.integers(1, 47),
)
@settings(max_examples=80, deadline=None)
def test_uneven_tail_window_stays_aligned(
    kind, total, seed, window, windows, tail
):
    """A run whose final window is smaller than the steady window size
    (the merged-tail shape the runners emit) still reads the exact
    scalar stream — the tail draw must consume precisely the leftover
    accesses, no more."""
    tail = min(tail, window - 1) or 1
    generator = BulkGenerator(kind, total, random.Random(seed))
    produced = []
    for _ in range(windows):
        line_col, write_col = generator.columns(window)
        produced.extend(zip(line_col.tolist(), write_col.tolist()))
    line_col, write_col = generator.columns(tail)
    assert len(line_col) == tail
    produced.extend(zip(line_col.tolist(), write_col.tolist()))
    expected = _oracle(kind, total, seed, windows * window + tail)
    assert produced == [(line, int(flag)) for line, flag in expected]
    # and the shared stream is positioned for whoever draws next
    oracle_rng = random.Random(seed)
    oracle_stream = make_generator(kind, total, oracle_rng)
    for _ in range(windows * window + tail):
        next(oracle_stream)
    assert generator.one() == next(oracle_stream)
