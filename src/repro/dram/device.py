"""The DRAM module: banks + refresh engine + disturbance physics + the
vendor's (blackbox) in-DRAM mitigation hook.

The device is deliberately *opaque* to the rest of the system, mirroring
the paper's core complaint (§3): the memory controller and host OS see
only command completion times — never the disturbance tracker, never the
internal row remaps, never what the in-DRAM mitigation is doing.  Only
the experiment harness reads the oracle state to count bit flips.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Protocol, Tuple

from repro.dram.bank import BankState
from repro.dram.commands import CommandKind, DramCommand
from repro.dram.disturbance import BitFlip, DisturbanceProfile, DisturbanceTracker
from repro.dram.geometry import DdrAddress, DramGeometry
from repro.dram.presets import DramGenerationPreset
from repro.dram.remap import RowRemapper
from repro.dram.timing import DramTimings

BankKey = Tuple[int, int, int]


class InDramMitigation(Protocol):
    """What a vendor TRR-style mitigation can observe and do.

    It may sample ACT commands as they arrive and, piggybacking on each
    REF burst (the only time the module controls the banks), refresh the
    *neighbours* of aggressor rows it tracked — the reverse-engineered
    behaviour of deployed TRR.  Being inside the module, it refreshes by
    internal adjacency.
    """

    def on_activate(self, address: DdrAddress, time_ns: int) -> None:
        """Observe (or sample) one ACT."""

    def targets_to_refresh(self, time_ns: int) -> List[Tuple[DdrAddress, int]]:
        """Called during a REF burst; (aggressor, radius) pairs whose
        internal neighbours the mitigation refreshes now."""


class DramDevice:
    """A simulated DRAM module behind one memory controller."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timings: Optional[DramTimings] = None,
        profile: Optional[DisturbanceProfile] = None,
        remapper: Optional[RowRemapper] = None,
        mitigation: Optional[InDramMitigation] = None,
        rng: Optional[random.Random] = None,
        sweep_multiplier: int = 1,
        refresh_mode: str = "all-bank",
    ) -> None:
        """``sweep_multiplier``: how many full refresh passes the sweep
        completes per tREFW — the refresh-rate-increase countermeasure
        (every row refreshed m times per retention window instead of
        once).  Pair with a proportionally shorter tREFI to account for
        the extra REF commands.

        ``refresh_mode``: "all-bank" (REFab) blocks every bank for tRFC
        per burst; "per-bank" (DDR4 REFpb) refreshes one bank per burst
        round-robin, blocking only it — for roughly half the per-bank
        blocking time — while the others keep serving.  Same sweep
        guarantee either way."""
        if sweep_multiplier < 1:
            raise ValueError("sweep_multiplier must be >= 1")
        if refresh_mode not in ("all-bank", "per-bank"):
            raise ValueError(f"unknown refresh mode {refresh_mode!r}")
        self.sweep_multiplier = sweep_multiplier
        self.refresh_mode = refresh_mode
        self.geometry = geometry or DramGeometry()
        self.timings = timings or DramTimings()
        self.profile = profile or DisturbanceProfile()
        self.remapper = remapper or RowRemapper.identity(self.geometry)
        self.mitigation = mitigation
        self.tracker = DisturbanceTracker(
            self.geometry, self.profile, rng or random.Random(0)
        )
        self.banks: Dict[BankKey, BankState] = {
            key: BankState(self.timings) for key in self.geometry.iter_banks()
        }
        # (channel, rank, bank) -> flat bank index, precomputed so the
        # per-ACT path skips geometry.bank_index's range validation (all
        # addresses here come from the mapper, valid by construction).
        self._bank_index: Dict[BankKey, int] = {
            key: index for index, key in enumerate(self.geometry.iter_banks())
        }
        # flat-index-aligned view of ``banks`` so column-space callers
        # resolve a bank with one list index instead of a tuple hash
        self.bank_list: List[BankState] = [
            self.banks[key] for key in self.geometry.iter_banks()
        ]
        # Periodic-refresh sweep position (bank-local row index).  All
        # banks refresh in lockstep, as with all-bank REF.  The pointer
        # advances fractionally so every row is refreshed exactly once
        # per tREFW regardless of how geometry and tREFI relate.
        self._refresh_pointer: int = 0
        self._refresh_accum: float = 0.0
        self._rows_per_ref: float = (
            self.geometry.rows_per_bank
            * self.sweep_multiplier
            / self.timings.refs_per_window
        )
        self._next_refresh_bank: int = 0  # per-bank mode rotation
        self._bank_pointers: Dict[BankKey, int] = {
            key: 0 for key in self.banks
        }
        self.ref_bursts: int = 0
        self.targeted_refreshes: int = 0
        self.neighbor_refreshes: int = 0

    @classmethod
    def from_preset(
        cls,
        preset: DramGenerationPreset,
        remapper: Optional[RowRemapper] = None,
        mitigation: Optional[InDramMitigation] = None,
        rng: Optional[random.Random] = None,
    ) -> "DramDevice":
        return cls(
            geometry=preset.geometry,
            timings=preset.timings,
            profile=preset.profile,
            remapper=remapper,
            mitigation=mitigation,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Data access (RD/WR with implied ACT/PRE), called by the controller
    # ------------------------------------------------------------------

    def access(
        self,
        address: DdrAddress,
        now: int,
        domain: Optional[int] = None,
    ) -> Tuple[int, List[BitFlip]]:
        """Service one RD/WR.  Returns ``(data_ready_at, flips_caused)``.

        Row-buffer state is keyed by *logical* row (the buffer belongs to
        the bank, and the controller addresses it logically); disturbance
        physics run on the *internal* row after remapping.
        """
        self.geometry._check(address)
        bank = self.banks[address.bank_key()]
        if bank.open_row != address.row:
            ready = bank.access(address.row, now)
            return ready, self._physical_activate(address, ready, domain)
        return bank.access(address.row, now), []

    def activate(
        self,
        address: DdrAddress,
        now: int,
        domain: Optional[int] = None,
        precharge_after: bool = False,
        refresh_only: bool = False,
    ) -> Tuple[int, List[BitFlip]]:
        """Explicit PRE+ACT(+PRE) of a specific row — the command sequence
        of the paper's ``refresh`` instruction (§4.3).  Refreshes the row
        as a side effect of activation.

        ``refresh_only`` marks a *refresh-path* activation (the refresh
        instruction, PARA/Graphene neighbour refreshes): it pays full
        command timing but adds no disturbance pressure to neighbours,
        consistent with how the REF sweep, TRR, and REF_NEIGHBORS are
        modelled.  The behavioural fault model counts only program-
        controllable activations toward HC_first; a refresh operation's
        own single-activation disturbance is ~1/MAC of a flip at real
        scale — below the model's resolution, and counting it would let
        the *scaled-down* MAC magnify it into an artefact.
        """
        self.geometry._check(address)
        bank = self.banks[address.bank_key()]
        ready = bank.activate(address.row, now)
        if refresh_only:
            bank_index = self.geometry.bank_index(address)
            internal_row = self.remapper.to_internal(bank_index, address.row)
            self.tracker.on_refresh(
                (address.channel, address.rank, address.bank, internal_row)
            )
            flips: List[BitFlip] = []
        else:
            flips = self._physical_activate(address, ready, domain)
        if precharge_after:
            ready = bank.precharge(ready)
        self.targeted_refreshes += 1
        return ready, flips

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh_burst(self, now: int) -> int:
        """One periodic REF burst.

        All-bank mode: blocks every bank for tRFC and sweeps the next
        slice of rows in all of them.  Per-bank mode: blocks one bank
        (round-robin) for half that time and sweeps a proportionally
        larger slice of *its* rows, so the once-per-window guarantee is
        identical while the rest of the module keeps serving.  The
        in-DRAM mitigation gets its chance either way.

        Returns when the refreshed bank(s) become available again.
        """
        self.ref_bursts += 1
        if self.refresh_mode == "per-bank":
            free_at = self._per_bank_burst(now)
        else:
            free_at = now
            for key, bank in self.banks.items():
                free_at = max(free_at, bank.block_for_refresh(now))
            self._refresh_accum += self._rows_per_ref
            rows_now = int(self._refresh_accum)
            self._refresh_accum -= rows_now
            start = self._refresh_pointer
            for offset in range(rows_now):
                logical_row = (start + offset) % self.geometry.rows_per_bank
                for key in self.banks:
                    self._refresh_internal(key, logical_row)
            self._refresh_pointer = (
                start + rows_now
            ) % self.geometry.rows_per_bank
        if self.mitigation is not None:
            for aggressor, radius in self.mitigation.targets_to_refresh(now):
                self._refresh_internal_neighbors(aggressor, radius)
        return free_at

    def _per_bank_burst(self, now: int) -> int:
        """Refresh one bank's next sweep slice; others stay available."""
        keys = list(self.banks)
        key = keys[self._next_refresh_bank % len(keys)]
        self._next_refresh_bank += 1
        bank = self.banks[key]
        start = max(now, bank.busy_until)
        if bank.open_row is not None:
            bank.precharges += 1
            bank.open_row = None
        bank.busy_until = start + max(1, self.timings.tRFC // 2)
        # One bank absorbs the whole module's per-burst row budget when
        # its turn comes, so every bank still completes a full sweep per
        # window: slice = rows_per_ref * number_of_banks, every
        # number_of_banks bursts.
        self._refresh_accum += self._rows_per_ref * len(keys)
        rows_now = int(self._refresh_accum)
        self._refresh_accum -= rows_now
        bank_pointer = self._bank_pointers[key]
        for offset in range(rows_now):
            logical_row = (bank_pointer + offset) % self.geometry.rows_per_bank
            self._refresh_internal(key, logical_row)
        self._bank_pointers[key] = (
            bank_pointer + rows_now
        ) % self.geometry.rows_per_bank
        return bank.busy_until

    def _refresh_internal_neighbors(self, aggressor: DdrAddress, radius: int) -> None:
        """Refresh the internal neighbours of an aggressor row (TRR's
        action during REF; hidden inside tRFC, so no extra timing cost)."""
        bank_index = self.geometry.bank_index(aggressor)
        internal = self.remapper.to_internal(bank_index, aggressor.row)
        for victim_row in self.geometry.neighbors_within(internal, radius):
            self.tracker.on_refresh(
                (aggressor.channel, aggressor.rank, aggressor.bank, victim_row)
            )
            self.neighbor_refreshes += 1

    def ref_neighbors(self, address: DdrAddress, blast_radius: int, now: int) -> int:
        """The paper's proposed REF_NEIGHBORS command (§4.3): the module
        refreshes every potential victim within ``blast_radius`` of the
        given aggressor row, using *internal* adjacency (only the module
        knows it — the command's key advantage over software refresh).

        Returns completion time.  Costs one tRC per refreshed row on the
        target bank only.
        """
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.geometry._check(address)
        key = address.bank_key()
        bank = self.banks[key]
        bank_index = self.geometry.bank_index(address)
        internal_aggressor = self.remapper.to_internal(bank_index, address.row)
        refreshed = 0
        for internal_victim in self.geometry.neighbors_within(
            internal_aggressor, blast_radius
        ):
            self.tracker.on_refresh(
                (address.channel, address.rank, address.bank, internal_victim)
            )
            refreshed += 1
            self.neighbor_refreshes += 1
        busy = max(now, bank.busy_until) + self.timings.tRC * max(1, refreshed)
        bank.busy_until = busy
        if bank.open_row is not None:
            bank.precharges += 1
            bank.open_row = None
        return busy

    # ------------------------------------------------------------------
    # Generic command entry point
    # ------------------------------------------------------------------

    def execute(
        self,
        command: DramCommand,
        now: int,
        domain: Optional[int] = None,
    ) -> Tuple[int, List[BitFlip]]:
        """Dispatch one explicit DDR command.  RD/WR here assume the row
        is handled via :meth:`access`; this entry point exists for tests
        and trace replay."""
        if command.kind in (CommandKind.RD, CommandKind.WR):
            assert command.address is not None
            return self.access(command.address, now, domain)
        if command.kind is CommandKind.ACT:
            assert command.address is not None
            return self.activate(command.address, now, domain)
        if command.kind is CommandKind.PRE:
            assert command.address is not None
            bank = self.banks[command.address.bank_key()]
            return bank.precharge(now), []
        if command.kind is CommandKind.REF:
            return self.refresh_burst(now), []
        if command.kind is CommandKind.REF_NEIGHBORS:
            assert command.address is not None
            return (
                self.ref_neighbors(command.address, command.blast_radius, now),
                [],
            )
        raise ValueError(f"unhandled command kind {command.kind}")

    # ------------------------------------------------------------------
    # Oracle / statistics access (harness only)
    # ------------------------------------------------------------------

    @property
    def flips(self) -> List[BitFlip]:
        return self.tracker.flips

    def total_acts(self) -> int:
        return sum(bank.acts for bank in self.banks.values())

    def row_hit_rate(self) -> float:
        hits = sum(bank.row_hits for bank in self.banks.values())
        total = sum(bank.accesses for bank in self.banks.values())
        return hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _physical_activate(
        self, address: DdrAddress, time_ns: int, domain: Optional[int]
    ) -> List[BitFlip]:
        """Run disturbance physics for one ACT, on the internal row."""
        bank_index = self._bank_index[
            (address.channel, address.rank, address.bank)
        ]
        internal_row = self.remapper.to_internal(bank_index, address.row)
        if internal_row == address.row:
            # Identity remap (the common case): the logical address *is*
            # the internal one, no second DdrAddress needed.
            internal = address
        else:
            internal = DdrAddress(
                address.channel, address.rank, address.bank,
                internal_row, address.column,
            )
        if self.mitigation is not None:
            # The vendor mitigation samples the command bus, i.e. sees the
            # logical row the controller named.
            self.mitigation.on_activate(address, time_ns)
        return self.tracker.on_activate(internal, time_ns, domain)

    def _refresh_internal(self, key: BankKey, logical_row: int) -> None:
        """Refresh one logical row: reset the disturbance pressure of its
        internal location."""
        channel, rank, bank = key
        bank_index = self.geometry.bank_index(
            DdrAddress(channel, rank, bank, 0, 0)
        )
        internal_row = self.remapper.to_internal(bank_index, logical_row)
        self.tracker.on_refresh((channel, rank, bank, internal_row))
