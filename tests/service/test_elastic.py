"""Elastic way partitioning: policy, lease lifecycle, conservation.

The contract under test (docs/elastic.md): the partitioner may move
ways between cache and compute duty *between* waves, but every
transition is billed, no way is ever freed under an active lease, and
the pool always returns to all-cache after ``drain()``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.library import mapped_pe
from repro.errors import ServiceError
from repro.folding import TileResources, list_schedule
from repro.freac.ccctrl import ControllerState
from repro.freac.compute_slice import SlicePartition
from repro.freac.device import FreacDevice
from repro.params import scaled_system
from repro.service import AcceleratorService, elastic
from repro.service.elastic import (
    HIGH_WATER,
    LOW_WATER,
    ElasticConfig,
    ElasticPartitioner,
    energy_shape_hint,
    shape_choices,
)
from repro.service.jobs import JobState
from repro.service.placement import Placement


def small_device(slices=2):
    return FreacDevice(scaled_system(l3_slices=slices))


def vadd_schedule(mccs=1):
    return list_schedule(mapped_pe("VADD"), TileResources(mccs=mccs))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def partitioner(device=None, clock=None, **config):
    device = device or small_device()
    defaults = dict(min_compute_ways=2, max_compute_ways=12,
                    min_dwell_s=0.0, idle_release_s=0.5,
                    energy_aware=False)
    defaults.update(config)
    return ElasticPartitioner(
        [device],
        SlicePartition(compute_ways=4, scratchpad_ways=4),
        ElasticConfig(**defaults),
        clock=clock or FakeClock(),
    ), device


class TestPolicy:
    def test_grow_jumps_to_desired_above_high_water(self):
        cfg = ElasticConfig(min_compute_ways=2, max_compute_ways=16)
        assert cfg.target_compute_ways(2, load=4.0, cap=16) == 10

    def test_growth_respects_the_cap(self):
        cfg = ElasticConfig(min_compute_ways=2, max_compute_ways=16)
        assert cfg.target_compute_ways(2, load=9.0, cap=8) == 8

    def test_shrink_steps_one_pair_below_low_water(self):
        cfg = ElasticConfig(min_compute_ways=2, max_compute_ways=16)
        assert cfg.target_compute_ways(12, load=0.0, cap=16) == 10

    def test_band_holds_the_allocation(self):
        cfg = ElasticConfig(min_compute_ways=2, max_compute_ways=16)
        # Load oscillating inside (LOW_WATER, HIGH_WATER) never moves.
        for load in (0.6, 0.75, 0.9):
            assert LOW_WATER < load < HIGH_WATER
            assert cfg.target_compute_ways(8, load=load, cap=16) == 8

    def test_never_below_min(self):
        cfg = ElasticConfig(min_compute_ways=4, max_compute_ways=16)
        assert cfg.target_compute_ways(4, load=0.0, cap=16) == 4

    def test_validation(self):
        with pytest.raises(ServiceError):
            ElasticConfig(min_compute_ways=3)
        with pytest.raises(ServiceError):
            ElasticConfig(min_compute_ways=8, max_compute_ways=4)
        with pytest.raises(ServiceError):
            ElasticConfig.pinned(0)


class TestShapeHint:
    def test_choices_cover_even_allocations(self):
        choices = shape_choices(vadd_schedule(), scratchpad_ways=4,
                                min_compute_ways=2, max_compute_ways=8)
        assert [c.compute_ways for c in choices] == [2, 4, 6, 8]

    def test_wide_tiles_drop_to_3ghz(self):
        wide = shape_choices(vadd_schedule(mccs=16), scratchpad_ways=4)
        assert all(c.clock_hz == 3.0e9 for c in wide)
        small = shape_choices(vadd_schedule(mccs=1), scratchpad_ways=4)
        assert all(c.clock_hz == 4.0e9 for c in small)

    def test_hint_picks_peak_items_per_joule(self):
        schedules = [vadd_schedule(mccs=1), vadd_schedule(mccs=4)]
        best = energy_shape_hint(schedules, scratchpad_ways=4, items=64)
        assert best is not None
        everything = [
            c for s in schedules
            for c in shape_choices(s, scratchpad_ways=4, items=64)
        ]
        assert best.items_per_joule == max(
            c.items_per_joule for c in everything
        )

    def test_growth_cap_depends_on_lut_width(self):
        # CONV's k=4 and k=5 tile-4 schedules agree on MCCs, fold
        # cycles and bus words; only luts_per_mcc tells their energy
        # (and so their efficient cap) apart.
        k4, k5 = (
            list_schedule(mapped_pe("CONV", k),
                          TileResources(mccs=4, lut_inputs=k))
            for k in (4, 5)
        )
        part, _ = partitioner(max_compute_ways=16, energy_aware=True)

        def ways(schedule, index):
            lease = part.lease(Placement(0, (index,)), queue_depth=64,
                               schedule=schedule, items=16)
            part.checkin(lease)
            return lease.partition.compute_ways

        # A k=5 lease first must not leave its cap behind for k=4.
        assert ways(k5, 0) == 8
        assert ways(k4, 1) == 6


class TestLeaseLifecycle:
    def test_cold_lease_bills_the_setup(self):
        part, device = partitioner()
        lease = part.lease(Placement(0, (0,)), queue_depth=4)
        assert lease.cold_slices == 1
        assert lease.ways_changed > 0
        assert lease.cost_s > 0
        assert device.controllers[0].state is ControllerState.PARTITIONED
        part.checkin(lease)

    def test_warm_reattach_is_free(self):
        part, _ = partitioner()
        first = part.lease(Placement(0, (0,)), queue_depth=4)
        part.checkin(first)
        second = part.lease(Placement(0, (0,)), queue_depth=4)
        assert second.warm_slices == 1
        assert second.cost_s == 0.0
        assert second.ways_changed == 0
        assert part.counters()["warm_attaches"] == 1
        part.checkin(second)

    def test_pressure_change_resizes_in_place(self):
        part, device = partitioner()
        calm = part.lease(Placement(0, (0,)), queue_depth=0)
        part.checkin(calm)
        loaded = part.lease(Placement(0, (0,)), queue_depth=10)
        assert loaded.partition.compute_ways > calm.partition.compute_ways
        assert loaded.resizes == 1
        assert loaded.ways_changed > 0
        assert (device.controllers[0].slice.partition
                == loaded.partition)
        part.checkin(loaded)

    def test_bill_program_adds_cost_without_ways(self):
        part, _ = partitioner()
        before = part.counters()
        part.bill_program(1.5e-7, 2.0e-9)
        after = part.counters()
        assert after["resize_cost_s"] == pytest.approx(
            before["resize_cost_s"] + 1.5e-7
        )
        assert after["ways_resized"] == before["ways_resized"]

    def test_deadline_pressure_grows(self):
        part, _ = partitioner()
        relaxed = part.lease(Placement(0, (0,)), queue_depth=2)
        part.checkin(relaxed)
        part2, _ = partitioner()
        tight = part2.lease(Placement(0, (0,)), queue_depth=2,
                            deadline_slack_s=0.01)
        assert tight.partition.compute_ways > relaxed.partition.compute_ways


class TestReclaimAndDrain:
    def test_pinned_lease_holds_its_shape_and_checkin_unlocks(self):
        device = small_device()
        part = ElasticPartitioner(
            [device], SlicePartition(compute_ways=6, scratchpad_ways=4),
            ElasticConfig.pinned(6), clock=FakeClock(),
        )
        for depth in (0, 64):
            lease = part.lease(Placement(0, (0,)), queue_depth=depth,
                               deadline_slack_s=0.0)
            assert lease.partition == SlicePartition(6, 4)
            assert lease.cold_slices == 1
            part.checkin(lease)
            # Torn down at check-in, not at the next reclaim tick.
            assert device.controllers[0].state is ControllerState.IDLE
        assert part.counters()["reclaims"] == 2
        assert part.locked_ways() == 0

    def test_reclaim_waits_out_the_idle_window(self):
        clock = FakeClock()
        part, device = partitioner(clock=clock, idle_release_s=0.5)
        lease = part.lease(Placement(0, (0,)), queue_depth=4)
        part.checkin(lease)
        clock.now += 0.1
        assert part.maybe_reclaim() == 0
        clock.now += 1.0
        assert part.maybe_reclaim() > 0
        assert device.controllers[0].state is ControllerState.IDLE
        assert part.locked_ways() == 0

    def test_reclaim_never_touches_an_active_lease(self):
        clock = FakeClock()
        part, device = partitioner(clock=clock, idle_release_s=0.5)
        lease = part.lease(Placement(0, (0,)), queue_depth=4)
        clock.now += 100.0
        assert part.maybe_reclaim() == 0
        assert device.controllers[0].state is ControllerState.PARTITIONED
        part.checkin(lease)

    def test_drain_refuses_active_leases(self):
        part, _ = partitioner()
        lease = part.lease(Placement(0, (0,)), queue_depth=4)
        with pytest.raises(ServiceError):
            part.drain()
        part.checkin(lease)
        assert part.drain() > 0
        assert part.locked_ways() == 0

    def test_reclaim_is_billed(self):
        clock = FakeClock()
        part, _ = partitioner(clock=clock)
        part.checkin(part.lease(Placement(0, (0,)), queue_depth=4))
        before = part.counters()["ways_resized"]
        clock.now += 10.0
        released = part.maybe_reclaim()
        assert part.counters()["ways_resized"] == before + released
        assert part.counters()["reclaims"] == 1


class TestServiceIntegration:
    def test_elastic_service_end_to_end(self):
        service = AcceleratorService(
            system=scaled_system(l3_slices=2), elastic=True
        )
        try:
            for _ in range(4):
                job = service.result(service.submit("VADD", 4))
                assert job.verified
            stats = service.stats()
            assert stats.completed == 4
            assert stats.ways_resized > 0
            assert stats.resize_cost_s > 0
            assert stats.warm_attaches >= 1
            assert stats.energy_j > 0
            assert stats.items_per_joule > 0
        finally:
            service.shutdown()
        # Shutdown drains the partitioner: all-cache, nothing locked.
        assert service.elastic.locked_ways() == 0

    def test_live_reprogram_bills_delta_without_moving_ways(self):
        # A fixed shape isolates the program swap: after the first
        # cold setup no way ever changes role again, so any later
        # resize_cost_s growth is purely the live-reprogram delta.
        service = AcceleratorService(
            system=scaled_system(l3_slices=2),
            elastic=ElasticConfig(min_compute_ways=4,
                                  max_compute_ways=4,
                                  idle_release_s=3600.0),
        )
        try:
            service.result(service.submit("VADD", 2))
            before = service.stats()
            job = service.result(service.submit("DOT", 2))
            assert job.verified
            after = service.stats()
            assert after.warm_attaches == before.warm_attaches + 1
            assert after.ways_resized == before.ways_resized
            assert after.resize_cost_s > before.resize_cost_s
        finally:
            service.shutdown()

    def test_repeat_program_runs_a_warm_wave(self):
        service = AcceleratorService(
            system=scaled_system(l3_slices=2),
            elastic=ElasticConfig(min_compute_ways=4,
                                  max_compute_ways=4,
                                  idle_release_s=3600.0),
        )
        try:
            service.result(service.submit("VADD", 2))
            before = service.stats()
            service.result(service.submit("VADD", 2))
            after = service.stats()
            # Same program on the same warm slice: no config words
            # travelled at all.
            assert after.warm_waves == before.warm_waves + 1
            assert after.resize_cost_s == before.resize_cost_s
        finally:
            service.shutdown()

    def test_static_service_never_warm_attaches(self, monkeypatch):
        """Without ``elastic`` every wave locks its ways and unlocks
        them at check-in, before its slice goes back to the pool."""
        service = AcceleratorService(
            system=scaled_system(l3_slices=2), workers=2, batching=False,
        )
        locked_on_release = []
        release = service.pool.release

        def checked_release(placement):
            controllers = service.devices[placement.device].controllers
            locked_on_release.extend(
                index for index in placement.slices
                if controllers[index].state is not ControllerState.IDLE
            )
            release(placement)

        monkeypatch.setattr(service.pool, "release", checked_release)
        try:
            jobs = [
                service.submit(("VADD", "DOT")[i % 2], 2, seed=i)
                for i in range(16)
            ]
            service.drain(timeout_s=60)
        finally:
            # Stopping the workers waits out the last wave's check-in,
            # which may still run after its jobs are done.
            service.shutdown(timeout_s=60)
        stats = service.stats()
        counters = service.elastic.counters()
        assert all(job.result.verified for job in jobs)
        assert locked_on_release == []
        assert stats.warm_attaches == 0 and stats.warm_waves == 0
        assert stats.batches == 16
        assert counters["cold_setups"] == counters["reclaims"] == 16
        # Each wave locked and unlocked 4 + 4 ways; shutdown had
        # nothing left to unlock.
        assert stats.ways_resized == 16 * 2 * 8
        assert stats.locked_ways == 0

    def test_static_partition_needs_compute_ways(self):
        with pytest.raises(ServiceError):
            AcceleratorService(
                system=scaled_system(l3_slices=2),
                partition=SlicePartition(0, 4),
            )

    @pytest.mark.parametrize("tile,jobs", [(16, 1), (32, 1), (32, 8)])
    def test_lease_holds_the_programs_tile(self, tile, jobs):
        """A lone job's load asks for 4 compute ways (8 MCCs) and a
        burst of 8 for 10; the lease still grows to one tile's ways."""
        service = AcceleratorService(
            system=scaled_system(l3_slices=2), elastic=True
        )
        try:
            handles = [
                service.submit("VADD", 2, mccs_per_tile=tile, seed=i)
                for i in range(jobs)
            ]
            service.drain()
        finally:
            service.shutdown()
        for job in handles:
            assert job.result.state is JobState.DONE, job.result.error
            assert job.result.verified


class TestModeledGate:
    """Elastic against the always-locked partition on one phased
    trace, compared in modeled device time and energy per item.

    The service is synchronous and never sleeps, so both numbers are
    exact: the same trace gives the same books on every host.
    """

    JOBS, ITEMS = 10, 256

    def replay(self, partition, config):
        service = AcceleratorService(
            system=scaled_system(l3_slices=2), partition=partition,
            elastic=config, batching=False,
        )
        # Phased: a run of bus-light VADD jobs, then compute-bound NW.
        names = ["VADD"] * (self.JOBS // 2) + ["NW"] * (self.JOBS // 2)
        try:
            jobs = [service.submit(name, self.ITEMS, seed=i)
                    for i, name in enumerate(names)]
            service.drain()
            stats = service.stats()
        finally:
            service.shutdown()
        assert all(job.result.verified for job in jobs)
        return stats

    def test_elastic_beats_always_locked(self, monkeypatch):
        # Recent arrivals add to the load only within a wall-clock
        # horizon of each lease; at 0 the shapes depend only on the
        # queue depth at claim, which a synchronous service fixes.
        monkeypatch.setattr(elastic, "ARRIVAL_HORIZON_S", 0.0)
        locked = self.replay(
            SlicePartition(compute_ways=4, scratchpad_ways=4),
            ElasticConfig(min_compute_ways=4, max_compute_ways=4,
                          idle_release_s=3600.0),
        )
        # The dwell and idle window outlast the test, so no shrink or
        # release fires on the clock.
        grown = self.replay(
            SlicePartition(compute_ways=16, scratchpad_ways=4),
            ElasticConfig(min_compute_ways=4, min_dwell_s=3600.0,
                          idle_release_s=3600.0),
        )
        items = self.JOBS * self.ITEMS
        assert grown.device_s / items < locked.device_s / items
        assert grown.energy_j / items < locked.energy_j / items
        assert grown.ways_resized > 0
        assert grown.resize_cost_s > 0


#: Property-driver op codes: (action, argument).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lease", "checkin", "reclaim", "tick"]),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=10,
)


class TestWayConservation:
    """The tentpole safety property, driven as a random op sequence."""

    @settings(max_examples=500, deadline=None)
    @given(ops=_OPS)
    def test_ways_conserved_and_leases_respected(self, ops):
        clock = FakeClock()
        device = small_device(slices=2)
        part = ElasticPartitioner(
            [device],
            SlicePartition(compute_ways=4, scratchpad_ways=4),
            ElasticConfig(min_compute_ways=2, max_compute_ways=12,
                          min_dwell_s=0.0, idle_release_s=0.4,
                          energy_aware=False),
            clock=clock,
        )
        active = {}
        for action, arg in ops:
            if action == "lease":
                index = arg % 2
                if index in active:      # the pool never double-claims
                    continue
                active[index] = part.lease(
                    Placement(0, (index,)), queue_depth=arg
                )
            elif action == "checkin" and active:
                index = sorted(active)[arg % len(active)]
                part.checkin(active.pop(index))
            elif action == "reclaim":
                part.maybe_reclaim()
            else:
                clock.now += arg * 0.1

            for controller in device.controllers:
                locked = len(controller.slice.cache.locked_ways)
                if controller.state is ControllerState.IDLE:
                    # All-cache: nothing held out of the cache.
                    assert locked == 0
                else:
                    # Total ways conserved per slice: every way is
                    # either locked (compute or scratch duty) or plain
                    # cache — never lost, never double-counted.
                    partition = controller.slice.partition
                    assert partition is not None
                    assert locked == (partition.compute_ways
                                      + partition.scratchpad_ways)
                    assert locked <= partition.total_ways
            for index in active:
                # A way is never freed while a session holds it.
                assert (device.controllers[index].state
                        is not ControllerState.IDLE)

        for lease in active.values():
            part.checkin(lease)
        part.drain()
        for controller in device.controllers:
            assert controller.state is ControllerState.IDLE
            assert len(controller.slice.cache.locked_ways) == 0
        assert part.locked_ways() == 0
