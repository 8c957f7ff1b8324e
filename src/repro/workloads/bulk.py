"""Columnar (bulk) twins of the scalar workload generators.

The scalar generators in :mod:`repro.workloads.generators` draw from a
CPython ``random.Random`` — a Mersenne Twister.  numpy's ``MT19937`` bit
generator implements the *same* reference algorithm, so cloning the 624
word state (plus cursor) from ``Random.getstate()`` into a numpy bit
generator makes ``random_raw`` reproduce CPython's ``genrand_uint32``
stream word for word, and CPython's ``random()`` — the 53-bit "res53"
combination of two consecutive raw words — is a pure float64 expression
that vectorizes exactly:

    ``((a >> 5) * 67108864.0 + (b >> 6)) / 2**53``

:func:`uniform_block` packages that round trip: it advances the *shared*
scalar ``Random`` past ``count`` draws (writing the evolved Twister state
back), so a runner may freely interleave bulk blocks with scalar draws
and every consumer stays on one stream.  On top of it each workload kind
gets a bulk twin emitting ``(line, is_write)`` numpy columns that are
element-identical to the scalar iterator for the same seed — pinned by
the property suite in ``tests/property/test_bulk_generators.py``.

``pointer_chase`` is the deliberate exception: a dependent chase is
semantically serial (element *i* is a dict lookup on element *i-1*), so
its twin walks the successor cycle per element and the accesses are
counted in the ``gen.scalar_fallbacks`` registry counter — the CI smoke
(``scripts/frontend_smoke.py``) fails if that counter moves for a
bulk-capable workload.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import numpy as _np

#: res53 constants from CPython's ``random_random``
_RES53_HI = 67108864.0  # 2**26
_RES53_INV = 1.0 / 9007199254740992.0  # 2**-53

#: kinds whose bulk twin is a counted per-element walk, not a vector op
SCALAR_FALLBACK_KINDS = frozenset({"pointer_chase"})


_SHARED_BIT_GENERATOR = None


def uniform_block(rng: random.Random, count: int):
    """``count`` float64 draws, bit-identical to ``count`` calls of
    ``rng.random()``, advancing ``rng`` past them.

    The scalar ``Random`` stays the single source of truth: its Twister
    state is cloned into a reusable numpy ``MT19937``, the raw words are
    drawn vectorized, and the evolved state is written back with
    ``setstate`` — interleaving bulk blocks and scalar draws therefore
    reads one unbroken stream.
    """
    global _SHARED_BIT_GENERATOR
    if count <= 0:
        return _np.empty(0, dtype=_np.float64)
    version, internal, gauss_next = rng.getstate()
    bit_generator = _SHARED_BIT_GENERATOR
    if bit_generator is None:
        bit_generator = _SHARED_BIT_GENERATOR = _np.random.MT19937(0)
    state = bit_generator.state
    state["state"]["key"] = _np.array(internal[:-1], dtype=_np.uint32)
    state["state"]["pos"] = internal[-1]
    bit_generator.state = state
    raws = bit_generator.random_raw(2 * count).astype(_np.uint64)
    high = raws[0::2] >> _np.uint64(5)
    low = raws[1::2] >> _np.uint64(6)
    evolved = bit_generator.state["state"]
    rng.setstate((
        version,
        tuple(evolved["key"].tolist()) + (int(evolved["pos"]),),
        gauss_next,
    ))
    return (high * _RES53_HI + low) * _RES53_INV


class BulkGenerator:
    """Bulk twin of one scalar workload iterator.

    :meth:`columns` emits ``(lines, writes)`` — an int64 and an int8
    numpy column — whose elements are exactly what the scalar iterator
    for the same ``(kind, seed)`` would have yielded next.  Positional
    state (stream cursors, the stride origin, the pointer-chase cycle)
    lives here; random state lives in the shared ``rng``, advanced
    through :func:`uniform_block` so scalar and bulk consumers cannot
    diverge.
    """

    __slots__ = (
        "kind", "total_lines", "rng", "scalar_fallback",
        "_position", "_step", "_cycle", "_cycle_pos",
    )

    def __init__(self, kind: str, total_lines: int, rng: random.Random) -> None:
        from repro.workloads.generators import GENERATOR_NAMES

        if kind not in GENERATOR_NAMES:
            known = ", ".join(GENERATOR_NAMES)
            raise KeyError(f"unknown workload {kind!r}; known: {known}")
        if total_lines < 1:
            raise ValueError("total_lines must be >= 1")
        self.kind = kind
        self.total_lines = total_lines
        self.rng = rng
        self.scalar_fallback = kind in SCALAR_FALLBACK_KINDS
        self._position: Optional[int] = 0 if kind != "stride" else None
        self._step = max(1, total_lines // 97) if kind == "stride" else 0
        self._cycle: Optional[list] = None
        self._cycle_pos = 0

    # ------------------------------------------------------------------
    # Scalar protocol: the runner's per-access paths (step, next_request)
    # draw through here, so scalar and bulk consumption share one stream
    # and may be interleaved freely without divergence.
    # ------------------------------------------------------------------

    def __iter__(self) -> "BulkGenerator":
        return self

    def __next__(self) -> Tuple[int, bool]:
        return self.one()

    def one(self) -> Tuple[int, bool]:
        """One ``(line, is_write)`` access, exactly the scalar iterator's
        next element (pure Python, no array set-up)."""
        kind = self.kind
        total = self.total_lines
        if kind in ("sequential", "streaming_write"):
            line = self._position
            self._position = (line + 1) % total
            return line, kind == "streaming_write"
        if kind == "stride":
            if self._position is None:
                self._position = self.rng.randrange(total)
            line = self._position
            self._position = (line + self._step) % total
            return line, False
        rng = self.rng
        if kind == "random":
            return int(rng.random() * total), rng.random() < 0.25
        if kind == "zipfian":
            u = rng.random()
            line = int(total * (u * u * u))
            if line > total - 1:
                line = total - 1
            return line, rng.random() < (0.33 if line < total // 5 else 0.1)
        # pointer_chase
        cycle = self._cycle
        if cycle is None:
            hot = min(total, 512)
            order = list(range(hot))
            self.rng.shuffle(order)
            cycle = self._cycle = order
            self._cycle_pos = 0
        position = self._cycle_pos
        self._cycle_pos = (position + 1) % len(cycle)
        return cycle[position], False

    def columns(self, count: int) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """The next ``count`` accesses as ``(lines int64, writes int8)``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        kind = self.kind
        total = self.total_lines
        if kind in ("sequential", "streaming_write"):
            lines = (self._position + _np.arange(count, dtype=_np.int64))
            lines %= total
            self._position = (self._position + count) % total
            flag = 1 if kind == "streaming_write" else 0
            return lines, _np.full(count, flag, dtype=_np.int8)
        if kind == "stride":
            if self._position is None:
                # same draw, same stream position as the scalar twin's
                # first ``next()``
                self._position = self.rng.randrange(total)
            step = self._step
            lines = self._position + step * _np.arange(count, dtype=_np.int64)
            lines %= total
            self._position = (self._position + step * count) % total
            return lines, _np.zeros(count, dtype=_np.int8)
        if kind == "random":
            draws = uniform_block(self.rng, 2 * count)
            lines = (draws[0::2] * total).astype(_np.int64)
            writes = (draws[1::2] < 0.25).astype(_np.int8)
            return lines, writes
        if kind == "zipfian":
            draws = uniform_block(self.rng, 2 * count)
            skew = draws[0::2]
            lines = (total * (skew * skew * skew)).astype(_np.int64)
            _np.minimum(lines, total - 1, out=lines)
            threshold = _np.where(lines < total // 5, 0.33, 0.1)
            writes = (draws[1::2] < threshold).astype(_np.int8)
            return lines, writes
        # pointer_chase: the counted scalar fallback — the chase is a
        # dependent per-element walk of the successor cycle
        if self._cycle is None:
            hot = min(total, 512)
            order = list(range(hot))
            self.rng.shuffle(order)  # same draws as the scalar iterator
            self._cycle = order
            self._cycle_pos = 0
        cycle = self._cycle
        hot = len(cycle)
        lines = _np.empty(count, dtype=_np.int64)
        position = self._cycle_pos
        for index in range(count):
            lines[index] = cycle[position]
            position = (position + 1) % hot
        self._cycle_pos = position
        return lines, _np.zeros(count, dtype=_np.int8)
