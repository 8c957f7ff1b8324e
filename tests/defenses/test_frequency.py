"""Tests for frequency-centric defenses: BlockHammer, aggressor
remapping, and cache-line locking."""

import pytest

from repro.core.primitives import MissingPrimitiveError
from repro.defenses.frequency import (
    AggressorRemapDefense,
    BlockHammerDefense,
    CacheLineLockingDefense,
    FrameParkingLot,
    remap_page_of_line,
)
from repro.mc.controller import MemoryRequest
from repro.sim import build_system

from tests.defenses.conftest import attack_with


class TestBlockHammer:
    def test_stops_attack(self, legacy_config):
        scenario, result = attack_with(legacy_config, [BlockHammerDefense()])
        assert result.cross_domain_flips == 0

    def test_throttles_only_hot_rows(self, legacy_config):
        scenario, result = attack_with(legacy_config, [BlockHammerDefense()])
        defense = scenario.defenses[0]
        assert defense.counters.get("throttled_acts", 0) > 0
        assert scenario.system.controller.stats.throttle_stalls_ns > 0

    def test_attack_slowed_down(self, legacy_config):
        _plain, undefended = attack_with(legacy_config)
        _defended, defended = attack_with(legacy_config, [BlockHammerDefense()])
        # same time budget, fewer hammer iterations under throttling
        assert defended.hammer_iterations < undefended.hammer_iterations

    def test_auto_threshold_accounts_for_radius(self, legacy_config):
        system = build_system(legacy_config)
        defense = BlockHammerDefense()
        defense.attach(system)
        profile = system.profile
        amplification = 2 * sum(
            profile.weight(d) for d in range(1, profile.blast_radius + 1)
        )
        assert defense._threshold <= profile.mac / (amplification * 2)

    def test_cost_grows_as_mac_falls(self):
        from repro.sim import legacy_platform

        costs = []
        for generation in ("ddr3-old", "lpddr4"):
            system = build_system(
                legacy_platform(scale=1, generation=generation)
            )
            defense = BlockHammerDefense()
            defense.attach(system)
            costs.append(defense.cost().sram_bits)
        assert costs[1] > costs[0]

    def test_threshold_fraction_validation(self):
        with pytest.raises(ValueError):
            BlockHammerDefense(threshold_fraction=1.5)

    def test_blacklisted_row_pays_delay_even_at_epoch_end(self, legacy_config):
        """Regression: near the epoch boundary the trickle quotient
        rounds to zero, and an unfloored gate let a blacklisted row
        stream ACTs at full rate — unthrottled and uncounted."""
        from repro.dram.geometry import DdrAddress

        system = build_system(legacy_config)
        defense = BlockHammerDefense()
        defense.attach(system)
        address = DdrAddress(channel=0, rank=0, bank=0, row=10, column=0)
        now = defense._epoch_end - 1  # 1 ns left in the epoch
        for _ in range(defense._threshold):
            assert defense._gate(address, now, None) == 0
        delay = defense._gate(address, now, None)
        assert delay >= 1
        assert defense.counters["throttled_acts"] == 1
        assert defense.counters["throttle_delay_ns"] >= 1

    def test_peak_rows_tracked_preseeded_at_attach(self, legacy_config):
        system = build_system(legacy_config)
        defense = BlockHammerDefense()
        defense.attach(system)
        assert defense.counters["peak_rows_tracked"] == 0

    def test_peak_rows_tracked_surfaced_in_counters(self, legacy_config):
        scenario, _result = attack_with(legacy_config, [BlockHammerDefense()])
        defense = scenario.defenses[0]
        assert defense.counters["peak_rows_tracked"] > 0
        assert (
            defense.counters["peak_rows_tracked"]
            == defense._peak_rows_tracked
        )


class TestAggressorRemap:
    def test_requires_primitives(self, legacy_config):
        system = build_system(legacy_config)
        with pytest.raises(MissingPrimitiveError):
            AggressorRemapDefense().attach(system)

    def test_stops_attack(self, primitives_config):
        scenario, result = attack_with(primitives_config, [AggressorRemapDefense()])
        assert result.cross_domain_flips == 0

    def test_pages_actually_move(self, primitives_config):
        scenario, result = attack_with(primitives_config, [AggressorRemapDefense()])
        defense = scenario.defenses[0]
        assert defense.counters.get("pages_moved", 0) > 0
        assert scenario.system.controller.stats.uncore_moves > 0

    def test_attacker_follows_virtual_address(self, primitives_config):
        """The attacker hammers a VA; after wear-leveling its physical
        target must have changed at least once."""
        from repro.analysis.scenarios import build_scenario
        from repro.attacks import AttackPlanner, Attacker

        scenario = build_scenario(
            primitives_config, defenses=[AggressorRemapDefense()],
            interleaved_allocation=True,
        )
        planner = AttackPlanner(scenario.system, scenario.attacker)
        plan = planner.plan(scenario.victim, "double-sided")
        line = plan.aggressor_lines[0]
        before = scenario.attacker.physical_line(line)
        Attacker(scenario.system, scenario.attacker, plan).run_rounds(3000)
        after = scenario.attacker.physical_line(line)
        assert before != after

    def test_interrupt_fraction_validation(self):
        with pytest.raises(ValueError):
            AggressorRemapDefense(interrupt_fraction=0.0)
        with pytest.raises(ValueError):
            AggressorRemapDefense(jitter_fraction=1.0)


class TestCacheLineLocking:
    def test_requires_primitives(self, legacy_config):
        system = build_system(legacy_config)
        with pytest.raises(MissingPrimitiveError):
            CacheLineLockingDefense().attach(system)

    def test_stops_attack(self, primitives_config):
        scenario, result = attack_with(
            primitives_config, [CacheLineLockingDefense()]
        )
        assert result.cross_domain_flips == 0

    def test_locks_starve_the_hammer(self, primitives_config):
        _plain, undefended = attack_with(primitives_config)
        undefended_acts = _plain.system.device.total_acts()
        scenario, _result = attack_with(
            primitives_config, [CacheLineLockingDefense()]
        )
        locked_acts = scenario.system.device.total_acts()
        assert locked_acts < undefended_acts / 10
        assert scenario.system.core.blocked_flushes > 0

    def test_dma_attack_falls_back_to_moves(self, primitives_config):
        scenario, result = attack_with(
            primitives_config, [CacheLineLockingDefense()], use_dma=True
        )
        defense = scenario.defenses[0]
        assert result.cross_domain_flips == 0
        assert defense.counters.get("dma_fallback_moves", 0) > 0
        assert defense.counters.get("lines_locked", 0) == 0


class TestWearLevelingMechanics:
    def test_remap_page_of_line(self, primitives_config):
        system = build_system(primitives_config)
        tenant = system.create_domain("t", pages=4)
        line = tenant.physical_line(0)
        result = remap_page_of_line(system, line, now=0)
        assert result is not None
        assert tenant.physical_line(0) != line
        assert system.allocator.owner_of(result.vacated_frame) is None

    def test_unowned_frame_not_moved(self, primitives_config):
        system = build_system(primitives_config)
        assert remap_page_of_line(system, 10_000, now=0) is None

    def test_parked_frame_not_freed(self, primitives_config):
        system = build_system(primitives_config)
        tenant = system.create_domain("t", pages=4)
        line = tenant.physical_line(0)
        result = remap_page_of_line(system, line, now=0, free_old_frame=False)
        assert system.allocator.owner_of(result.vacated_frame) is not None

    def test_parking_lot_releases_at_window(self, primitives_config):
        system = build_system(primitives_config)
        tenant = system.create_domain("t", pages=4)
        lot = FrameParkingLot(system)
        result = remap_page_of_line(
            system, tenant.physical_line(0), now=0, free_old_frame=False
        )
        lot.park(result.vacated_frame)
        assert lot.tick(100) == 0  # window not over yet
        released = lot.tick(system.timings.tREFW + 1)
        assert released == 1
        assert system.allocator.owner_of(result.vacated_frame) is None

    def test_avoid_rows_respected(self, primitives_config):
        system = build_system(primitives_config)
        tenant = system.create_domain("t", pages=4)
        line = tenant.physical_line(0)
        first = remap_page_of_line(system, line, now=0, free_old_frame=False)
        second = remap_page_of_line(
            system,
            tenant.physical_line(64),  # page 1
            now=0,
            free_old_frame=False,
            avoid_rows=frozenset({first.hot_line_new_row}),
        )
        assert second.hot_line_new_row != first.hot_line_new_row

    def test_remap_handler_never_fails_on_isolated_platform(
        self, isolation_config
    ):
        """Hammering two rows of one tenant on the paper's platform: every
        precise interrupt moves a page, none raises in the handler."""
        system = build_system(isolation_config)
        defense = AggressorRemapDefense()
        defense.attach(system)
        tenant = system.create_domain("t", pages=64)
        first_line_of_row = {}
        for virtual in range(tenant.pages * tenant.lines_per_page):
            address = system.mapper.line_to_ddr(tenant.physical_line(virtual))
            first_line_of_row.setdefault(address.row_key(), virtual)
        bank = next(iter(first_line_of_row))[:3]
        pair = [
            virtual for row, virtual in first_line_of_row.items()
            if row[:3] == bank
        ][:2]
        now = 0
        for i in range(4000):
            request = MemoryRequest(
                time_ns=now,
                physical_line=tenant.physical_line(pair[i % 2]),
                domain=tenant.asid,
            )
            now = system.controller.submit(request).ready_at_ns
        assert system.controller.stats.interrupt_handler_failures == 0
        counters = defense.counters
        assert counters["interrupts"] > 1
        assert counters["pages_moved"] == counters["interrupts"]
