"""The Rowhammer fault model: activation-induced disturbance of victim rows.

§2.1–2.2 of the paper define the physics we model behaviourally:

* each row withstands a per-module *maximum activation count* (MAC) of
  neighbour ACTs within a refresh interval before its cells may flip;
* victims lie up to ``b`` rows from an aggressor (``b`` = blast radius);
* refreshing a victim — by the periodic REF sweep, by an ACT of the victim
  itself, or by a targeted refresh — repairs it and restarts the race.

We track the accumulated, distance-weighted neighbour-ACT "pressure" on
each victim row since its last refresh.  When the pressure crosses the MAC
the victim flips bits (deterministically by default, optionally with a
probabilistic tail), and the event records which domain hammered which —
the attribution every experiment in the harness keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as _np

from repro.dram.geometry import DdrAddress, DramGeometry

#: Below this many ACTs the numpy kernel's array setup costs more than
#: the scalar walk it replaces (event vectors, lexsort, group scan).
#: Measured crossover vs the fused radius-1 scalar twin: ~128 ACTs on
#: two-aggressor attack streams, never reached on scattered streams —
#: large batches still prefer the kernel because pathological batches
#: (many ACTs, few victims) scale with O(groups), not O(acts).
_BULK_MIN_ACTS = 128

RowKey = Tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class BitFlip:
    """One disturbance event: a victim row crossed its MAC.

    ``aggressor_domain`` is the domain whose ACT tipped the victim over.
    ``victim_domains`` is the set of domains with data in the victim row
    at that moment — a *set* because conventional interleaving packs
    lines from many pages (hence many trust domains) into one DRAM row,
    which is exactly the isolation problem §4.1 describes.  Empty for
    unallocated rows.

    Cross-domain flips are the attacks the paper's defenses must stop;
    intra-domain flips are the residual that isolation-centric
    mitigations tolerate (§2.2).
    """

    time_ns: int
    victim: RowKey
    aggressor: RowKey
    aggressor_domain: Optional[int]
    victim_domains: FrozenSet[int]
    flipped_bits: int

    @property
    def cross_domain(self) -> bool:
        """The flip corrupted data belonging to some *other* domain."""
        return self.aggressor_domain is not None and any(
            domain != self.aggressor_domain for domain in self.victim_domains
        )

    @property
    def intra_domain(self) -> bool:
        """The flip corrupted the aggressor's own data."""
        return (
            self.aggressor_domain is not None
            and self.aggressor_domain in self.victim_domains
        )


@dataclass(frozen=True)
class DisturbanceProfile:
    """Susceptibility parameters of one DRAM technology node.

    ``mac``            — neighbour ACTs a victim tolerates per refresh window
                         (HC_first in Kim et al. ISCA'20 terms).
    ``blast_radius``   — how many rows away an aggressor disturbs (§2.1).
    ``decay_per_row``  — multiplicative weight per row of distance: an ACT at
                         distance d contributes ``decay_per_row ** (d - 1)``
                         to the victim's pressure.  Distance-1 neighbours
                         always contribute 1.
    ``flip_probability`` — probability that crossing the MAC actually flips
                         bits (1.0 = deterministic threshold model).
    ``max_bits_per_flip`` — upper bound on bits corrupted per event.
    """

    mac: int = 50_000
    blast_radius: int = 1
    decay_per_row: float = 0.5
    flip_probability: float = 1.0
    max_bits_per_flip: int = 4
    # weight-by-distance lookup (index d = distance; [0] unused), derived
    # in __post_init__ so the per-ACT hot loop never exponentiates
    _weights: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.mac < 1:
            raise ValueError("mac must be >= 1")
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        if not 0.0 < self.decay_per_row <= 1.0:
            raise ValueError("decay_per_row must be in (0, 1]")
        if not 0.0 < self.flip_probability <= 1.0:
            raise ValueError("flip_probability must be in (0, 1]")
        if self.max_bits_per_flip < 1:
            raise ValueError("max_bits_per_flip must be >= 1")
        object.__setattr__(
            self,
            "_weights",
            (0.0,) + tuple(
                self.decay_per_row ** (distance - 1)
                for distance in range(1, self.blast_radius + 1)
            ),
        )

    def weight(self, distance: int) -> float:
        """Disturbance contribution of one ACT at ``distance`` rows."""
        if distance < 1 or distance > self.blast_radius:
            return 0.0
        return self._weights[distance]

    def scaled(self, factor: int) -> "DisturbanceProfile":
        """MAC divided by ``factor`` for fast simulation (pair with
        ``DramTimings.scaled`` so the ACTs-vs-window race is preserved)."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        from dataclasses import replace

        return replace(self, mac=max(1, self.mac // factor))


# Maps a (channel, rank, bank, internal_row) key to the set of trust
# domains whose data currently lives in that row.
DomainLookup = Callable[[RowKey], FrozenSet[int]]


class DisturbanceTracker:
    """Per-victim accumulated disturbance since that victim's last refresh.

    The tracker is the ground-truth oracle of the simulation: defenses may
    not read it (real hardware exposes nothing comparable — that opacity is
    the paper's complaint); only the harness does, to count flips.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        profile: DisturbanceProfile,
        rng: Optional[random.Random] = None,
        domain_lookup: Optional[DomainLookup] = None,
    ) -> None:
        self.geometry = geometry
        self.profile = profile
        self._rng = rng or random.Random(0)
        self._domain_lookup = domain_lookup or (lambda row: frozenset())
        # pressure[victim_row_key] -> accumulated weighted ACT count
        self._pressure: Dict[RowKey, float] = {}
        # rows that already flipped this window (flip once until refreshed)
        self._tripped: Dict[RowKey, bool] = {}
        self.flips: List[BitFlip] = []
        self.total_acts: int = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_domain_lookup(self, lookup: DomainLookup) -> None:
        """Install the allocator's row→domain map for flip attribution."""
        self._domain_lookup = lookup

    # ------------------------------------------------------------------
    # Event ingestion (called by the DRAM device)
    # ------------------------------------------------------------------

    def on_activate(
        self,
        address: DdrAddress,
        time_ns: int,
        domain: Optional[int] = None,
    ) -> List[BitFlip]:
        """Record an ACT of ``address``'s row; return any flips it caused.

        The activated row itself is refreshed as a side effect (§2.1), so
        its own pressure resets.  Every neighbour within the blast radius
        (clipped at the subarray boundary) accumulates weighted pressure.
        """
        self.total_acts += 1
        channel, rank, bank, row = (
            address.channel, address.rank, address.bank, address.row,
        )
        aggressor_key = (channel, rank, bank, row)
        pressure_map = self._pressure
        tripped = self._tripped
        pressure_map.pop(aggressor_key, None)
        tripped.pop(aggressor_key, None)

        # Inlined subarray-clipped neighbourhood (geometry.neighbors_within
        # semantics) with the precomputed distance-weight table: this loop
        # runs once per ACT and dominates attack-shape profiles.
        profile = self.profile
        rows_per_subarray = self.geometry.rows_per_subarray
        subarray_start = (row // rows_per_subarray) * rows_per_subarray
        weights = profile._weights
        mac = profile.mac
        flips: List[BitFlip] = []
        if profile.blast_radius == 1:
            # Common case (DDR3/4-era profiles): exactly the two adjacent
            # rows, both at weight 1 — no range object, no distance math.
            for victim_row in (row - 1, row + 1):
                if (victim_row < subarray_start
                        or victim_row >= subarray_start + rows_per_subarray):
                    continue
                victim_key = (channel, rank, bank, victim_row)
                pressure = pressure_map.get(victim_key, 0.0) + 1.0
                pressure_map[victim_key] = pressure
                if pressure >= mac and not tripped.get(victim_key):
                    flip = self._maybe_flip(
                        victim_key, aggressor_key, time_ns, domain
                    )
                    if flip is not None:
                        flips.append(flip)
            return flips
        low = max(subarray_start, row - profile.blast_radius)
        high = min(subarray_start + rows_per_subarray - 1,
                   row + profile.blast_radius)
        for victim_row in range(low, high + 1):
            if victim_row == row:
                continue
            victim_key = (channel, rank, bank, victim_row)
            pressure = pressure_map.get(victim_key, 0.0) + weights[
                victim_row - row if victim_row > row else row - victim_row
            ]
            pressure_map[victim_key] = pressure
            if pressure >= mac and not tripped.get(victim_key):
                flip = self._maybe_flip(victim_key, aggressor_key, time_ns, domain)
                if flip is not None:
                    flips.append(flip)
        return flips

    def on_activate_bulk(
        self,
        addresses: Sequence[DdrAddress],
        times: Sequence[int],
        domains: Optional[Sequence[Optional[int]]] = None,
        rows: Optional[Sequence[int]] = None,
        bank_ids: Optional[Sequence[int]] = None,
        out_positions: Optional[List[int]] = None,
    ) -> List[BitFlip]:
        """Record a whole vector of ACTs; return the flips in event order.

        Exactly equivalent to calling :meth:`on_activate` once per
        element — same pressures, same tripped state, same flips in the
        same order, same RNG stream (the property suite pins this
        bit-for-bit).  ``rows``, when given, overrides each address's row
        (the device passes remapped internal rows this way without
        materializing fresh ``DdrAddress`` objects); ``bank_ids``, when
        given, carries each element's flat bank index so the numpy
        kernel builds its arrays from plain ints instead of walking
        address attributes.

        The vector form exists because neighbour accrual dominates
        attack-shape profiles: the numpy kernel replaces the per-ACT
        dict walk with one lexsorted event array and a cumulative sum
        per victim group.  Batches below ``_BULK_MIN_ACTS`` run the scalar
        twin instead — behaviour is identical either way.

        ``out_positions``, when given, receives one batch position (the
        index of the causing ACT within ``addresses``) per *returned*
        flip, in lockstep with the returned list — the trace layer uses
        this to interleave flip events back into per-ACT order when
        expanding a bulk record.
        """
        count = len(addresses)
        if count == 0:
            return []
        if count < _BULK_MIN_ACTS:
            return self._bulk_scalar_fused(
                addresses, times, domains, rows, count, out_positions
            )
        return self._on_activate_bulk_np(
            addresses, times, domains, rows, count, bank_ids, out_positions
        )

    def _bulk_scalar_fused(
        self,
        addresses: Sequence[DdrAddress],
        times: Sequence[int],
        domains: Optional[Sequence[Optional[int]]],
        rows: Optional[Sequence[int]],
        count: int,
        out_positions: Optional[List[int]] = None,
    ) -> List[BitFlip]:
        """Scalar twin with the per-call overhead of :meth:`on_activate`
        fused out: one loop, maps and profile constants hoisted once.
        Bit-identical to the per-ACT path (same dict operations, same
        RNG draws in the same order)."""
        pressure_map = self._pressure
        tripped = self._tripped
        profile = self.profile
        mac = profile.mac
        radius1 = profile.blast_radius == 1
        blast_radius = profile.blast_radius
        weights = profile._weights
        rows_per_subarray = self.geometry.rows_per_subarray
        maybe_flip = self._maybe_flip
        flips: List[BitFlip] = []
        self.total_acts += count
        for index in range(count):
            address = addresses[index]
            channel = address.channel
            rank = address.rank
            bank = address.bank
            row = rows[index] if rows is not None else address.row
            aggressor_key = (channel, rank, bank, row)
            pressure_map.pop(aggressor_key, None)
            tripped.pop(aggressor_key, None)
            subarray_start = (row // rows_per_subarray) * rows_per_subarray
            if radius1:
                for victim_row in (row - 1, row + 1):
                    if (victim_row < subarray_start or victim_row
                            >= subarray_start + rows_per_subarray):
                        continue
                    victim_key = (channel, rank, bank, victim_row)
                    pressure = pressure_map.get(victim_key, 0.0) + 1.0
                    pressure_map[victim_key] = pressure
                    if pressure >= mac and not tripped.get(victim_key):
                        flip = maybe_flip(
                            victim_key, aggressor_key, times[index],
                            None if domains is None else domains[index],
                        )
                        if flip is not None:
                            flips.append(flip)
                            if out_positions is not None:
                                out_positions.append(index)
                continue
            low = row - blast_radius
            if low < subarray_start:
                low = subarray_start
            high = row + blast_radius
            limit = subarray_start + rows_per_subarray - 1
            if high > limit:
                high = limit
            for victim_row in range(low, high + 1):
                if victim_row == row:
                    continue
                victim_key = (channel, rank, bank, victim_row)
                pressure = pressure_map.get(victim_key, 0.0) + weights[
                    victim_row - row if victim_row > row else row - victim_row
                ]
                pressure_map[victim_key] = pressure
                if pressure >= mac and not tripped.get(victim_key):
                    flip = maybe_flip(
                        victim_key, aggressor_key, times[index],
                        None if domains is None else domains[index],
                    )
                    if flip is not None:
                        flips.append(flip)
                        if out_positions is not None:
                            out_positions.append(index)
        return flips

    def _on_activate_bulk_np(
        self,
        addresses: Sequence[DdrAddress],
        times: Sequence[int],
        domains: Optional[Sequence[Optional[int]]],
        rows: Optional[Sequence[int]],
        count: int,
        bank_ids: Optional[Sequence[int]] = None,
        out_positions: Optional[List[int]] = None,
    ) -> List[BitFlip]:
        """Numpy body of :meth:`on_activate_bulk`.

        Strategy: explode the batch into per-victim *events* — one reset
        at each aggressor's own row, one weighted add per in-subarray
        neighbour — then lexsort by (victim row, batch position) so each
        victim's history is a contiguous, temporally ordered group.
        Groups without a reset reduce to one cumulative sum (a strict
        left fold, so the float stream matches the scalar adds bit for
        bit); groups containing a reset replay their few events exactly.
        MAC crossings are collected as (batch position, victim) pairs and
        handed to ``_maybe_flip`` in scalar call order, preserving the
        RNG stream and the flip log.
        """
        np = _np
        self.total_acts += count
        geometry = self.geometry
        profile = self.profile
        rows_per_subarray = geometry.rows_per_subarray
        rows_per_bank = geometry.rows_per_bank
        banks_per_rank = geometry.banks_per_rank
        ranks_per_channel = geometry.ranks_per_channel

        # Callers that already hold flat columns (the controller's bulk
        # engine defers plain ints per ACT) skip the attribute walks —
        # they are the kernel's dominant fixed cost at small counts.
        if bank_ids is not None:
            bank_flat = np.asarray(bank_ids, dtype=np.int64)
        else:
            channel = np.fromiter(
                (a.channel for a in addresses), np.int64, count
            )
            rank = np.fromiter((a.rank for a in addresses), np.int64, count)
            bank = np.fromiter((a.bank for a in addresses), np.int64, count)
            bank_flat = (
                channel * ranks_per_channel + rank
            ) * banks_per_rank + bank
        if rows is None:
            row = np.fromiter((a.row for a in addresses), np.int64, count)
        else:
            row = np.asarray(rows, dtype=np.int64)
        subarray_start = (row // rows_per_subarray) * rows_per_subarray
        subarray_end = subarray_start + rows_per_subarray
        act_index = np.arange(count, dtype=np.int64)

        key_parts = [bank_flat * rows_per_bank + row]
        idx_parts = [act_index]
        weight_parts = [np.zeros(count)]
        reset_parts = [np.ones(count, dtype=bool)]
        weights = profile._weights
        for distance in range(1, profile.blast_radius + 1):
            weight = weights[distance]
            for side in (-distance, distance):
                victim_row = row + side
                mask = (victim_row >= subarray_start) & (
                    victim_row < subarray_end
                )
                if not mask.any():
                    continue
                kept = int(mask.sum())
                key_parts.append(
                    bank_flat[mask] * rows_per_bank + victim_row[mask]
                )
                idx_parts.append(act_index[mask])
                weight_parts.append(np.full(kept, weight))
                reset_parts.append(np.zeros(kept, dtype=bool))
        event_key = np.concatenate(key_parts)
        event_idx = np.concatenate(idx_parts)
        event_weight = np.concatenate(weight_parts)
        event_reset = np.concatenate(reset_parts)
        order = np.lexsort((event_idx, event_key))
        event_key = event_key[order]
        event_idx = event_idx[order]
        event_weight = event_weight[order]
        event_reset = event_reset[order]

        boundaries = np.flatnonzero(event_key[1:] != event_key[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(event_key)]))
        group_has_reset = np.logical_or.reduceat(event_reset, starts)

        # The walk below touches these element-by-element; list indexing
        # returns cached small ints instead of fresh numpy scalars.
        starts_l = starts.tolist()
        ends_l = ends.tolist()
        group_keys = event_key[starts].tolist()
        has_reset_l = group_has_reset.tolist()
        idx_l = event_idx.tolist()
        weight_l = event_weight.tolist()
        reset_l = event_reset.tolist()

        pressure_map = self._pressure
        tripped = self._tripped
        mac = profile.mac
        #: (batch position, victim key) of every MAC crossing, in the
        #: order the scalar path would have fired them
        candidates: List[Tuple[int, RowKey]] = []
        #: victims whose final state is un-tripped although a crossing
        #: fired earlier in the batch (a reset followed it) — fixed up
        #: after the replay below re-marks them
        trip_reverts: List[RowKey] = []
        for group in range(len(starts_l)):
            start = starts_l[group]
            end = ends_l[group]
            bank_part, victim_row = divmod(group_keys[group], rows_per_bank)
            chan_part, bank_nr = divmod(bank_part, banks_per_rank)
            chan_nr, rank_nr = divmod(chan_part, ranks_per_channel)
            victim_key = (chan_nr, rank_nr, bank_nr, victim_row)
            if not has_reset_l[group]:
                pressure = pressure_map.get(victim_key, 0.0)
                if end - start <= 4:
                    was_tripped = tripped.get(victim_key)
                    crossing = -1
                    for position in range(start, end):
                        pressure += weight_l[position]
                        if (crossing < 0 and not was_tripped
                                and pressure >= mac):
                            crossing = position
                    pressure_map[victim_key] = pressure
                    if crossing >= 0:
                        candidates.append(
                            (idx_l[crossing], victim_key)
                        )
                else:
                    series = np.cumsum(np.concatenate(
                        ((pressure,), event_weight[start:end])
                    ))[1:]
                    pressure_map[victim_key] = float(series[-1])
                    if not tripped.get(victim_key):
                        crossed = np.flatnonzero(series >= mac)
                        if crossed.size:
                            candidates.append((
                                idx_l[start + int(crossed[0])],
                                victim_key,
                            ))
            else:
                in_map = victim_key in pressure_map
                pressure = pressure_map.get(victim_key, 0.0)
                trip = bool(tripped.get(victim_key))
                for position in range(start, end):
                    if reset_l[position]:
                        in_map = False
                        pressure = 0.0
                        trip = False
                        continue
                    pressure += weight_l[position]
                    in_map = True
                    if pressure >= mac and not trip:
                        trip = True
                        candidates.append(
                            (idx_l[position], victim_key)
                        )
                if in_map:
                    pressure_map[victim_key] = pressure
                else:
                    pressure_map.pop(victim_key, None)
                if not trip:
                    trip_reverts.append(victim_key)

        candidates.sort()
        flips: List[BitFlip] = []
        for act, victim_key in candidates:
            address = addresses[act]
            aggressor_key = (
                address.channel, address.rank, address.bank, int(row[act]),
            )
            flip = self._maybe_flip(
                victim_key, aggressor_key, times[act],
                None if domains is None else domains[act],
            )
            if flip is not None:
                flips.append(flip)
                if out_positions is not None:
                    out_positions.append(act)
        for victim_key in trip_reverts:
            tripped.pop(victim_key, None)
        return flips

    def on_refresh(self, row_key: RowKey) -> None:
        """A row was refreshed (REF sweep, targeted refresh, or neighbour
        refresh): its accumulated pressure and tripped state clear."""
        self._reset(row_key)

    # ------------------------------------------------------------------
    # Inspection (harness / oracle use only)
    # ------------------------------------------------------------------

    def pressure_of(self, row_key: RowKey) -> float:
        return self._pressure.get(row_key, 0.0)

    def iter_pressure(self) -> List[Tuple[RowKey, float]]:
        """Snapshot of every victim row carrying pressure (the invariant
        suite polls this; a list, not a view, so checks can run while
        the simulation keeps mutating the map)."""
        return list(self._pressure.items())

    def is_tripped(self, row_key: RowKey) -> bool:
        """Whether the row crossed its MAC (flip logged or suppressed by
        the probabilistic tail) since its last refresh."""
        return bool(self._tripped.get(row_key))

    def headroom_of(self, row_key: RowKey) -> float:
        """Remaining pressure before the row flips."""
        return self.profile.mac - self.pressure_of(row_key)

    def cross_domain_flips(self) -> List[BitFlip]:
        return [flip for flip in self.flips if flip.cross_domain]

    def intra_domain_flips(self) -> List[BitFlip]:
        return [flip for flip in self.flips if flip.intra_domain]

    def clear_flips(self) -> None:
        self.flips.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reset(self, row_key: RowKey) -> None:
        self._pressure.pop(row_key, None)
        self._tripped.pop(row_key, None)

    def _maybe_flip(
        self,
        victim_key: RowKey,
        aggressor_key: RowKey,
        time_ns: int,
        aggressor_domain: Optional[int],
    ) -> Optional[BitFlip]:
        self._tripped[victim_key] = True
        if self.profile.flip_probability < 1.0:
            if self._rng.random() >= self.profile.flip_probability:
                return None
        flip = BitFlip(
            time_ns=time_ns,
            victim=victim_key,
            aggressor=aggressor_key,
            aggressor_domain=aggressor_domain,
            victim_domains=frozenset(self._domain_lookup(victim_key)),
            flipped_bits=self._rng.randint(1, self.profile.max_bits_per_flip),
        )
        self.flips.append(flip)
        return flip
