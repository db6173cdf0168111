"""Slice pool packing and the priority job queue."""

import pytest

from repro.errors import ServiceError
from repro.service.jobs import Job, JobQueue, JobRequest, JobState
from repro.service.placement import SlicePool


def job(job_id, benchmark="VADD", priority=0, **kwargs):
    return Job(
        id=job_id,
        request=JobRequest(benchmark=benchmark, items=2,
                           priority=priority, **kwargs),
    )


class TestSlicePool:
    def test_acquire_release_roundtrip(self):
        pool = SlicePool([2])
        placement = pool.acquire(2)
        assert placement.slices == (0, 1)
        assert pool.acquire(1) is None
        pool.release(placement)
        assert pool.utilization() == [0.0]

    def test_disjoint_placements_on_one_device(self):
        pool = SlicePool([4])
        first = pool.acquire(2)
        second = pool.acquire(2)
        assert first.device == second.device == 0
        assert not set(first.slices) & set(second.slices)

    def test_best_fit_packs_busy_device_first(self):
        pool = SlicePool([4, 4])
        first = pool.acquire(2)          # device 0 now half busy
        second = pool.acquire(1)
        assert second.device == first.device   # packed, not spread
        wide = pool.acquire(4)
        assert wide.device != first.device     # whole device kept free

    def test_no_devices_rejected(self):
        with pytest.raises(ServiceError):
            SlicePool([])

    def test_zero_slice_device_rejected(self):
        # Regression: a device with no slices used to be accepted and
        # then silently never placed anything (max_slices also blew up
        # on the all-empty pool).
        with pytest.raises(ServiceError, match="device 1"):
            SlicePool([2, 0])
        with pytest.raises(ServiceError):
            SlicePool([-1])

    def test_acquire_zero_slices_rejected(self):
        pool = SlicePool([2])
        with pytest.raises(ServiceError):
            pool.acquire(0)

    def test_best_fit_tie_prefers_first_device(self):
        # Equal free counts: the single free-list scan keeps the
        # earliest device (strict less-than), deterministically.
        pool = SlicePool([2, 2])
        assert pool.acquire(1).device == 0
        # Device 0 now has fewer free slices -> still best fit.
        assert pool.acquire(1).device == 0
        # Device 0 full -> spill to device 1.
        assert pool.acquire(1).device == 1

    def test_acquire_claims_lowest_free_indices(self):
        pool = SlicePool([3])
        first = pool.acquire(2)
        assert first.slices == (0, 1)
        pool.release(first)
        hole = pool.acquire(1)
        assert hole.slices == (0,)
        assert pool.acquire(2).slices == (1, 2)

    def test_double_release_is_an_error(self):
        pool = SlicePool([2])
        placement = pool.acquire(1)
        pool.release(placement)
        with pytest.raises(ServiceError):
            pool.release(placement)

    def test_utilization(self):
        pool = SlicePool([2, 4])
        pool.acquire(1)
        assert pool.busy_total() == 1
        used = pool.utilization()
        assert sorted(used) == [0.0, 0.5]


class TestJobQueue:
    def test_priority_order_fifo_within(self):
        queue = JobQueue()
        low = job(1, priority=0)
        high = job(2, priority=5)
        also_low = job(3, priority=0)
        for item in (low, high, also_low):
            queue.push(item)
        assert queue.pop() is high
        assert queue.pop() is low
        assert queue.pop() is also_low
        assert queue.pop() is None

    def test_pop_group_merges_same_benchmark(self):
        queue = JobQueue()
        a = job(1, "VADD")
        b = job(2, "DOT")
        c = job(3, "VADD")
        for item in (a, b, c):
            queue.push(item)
        group = queue.pop_group()
        assert group == [a, c]
        assert queue.pop_group() == [b]

    def test_different_tile_sizes_do_not_batch(self):
        queue = JobQueue()
        a = job(1, mccs_per_tile=1)
        b = job(2, mccs_per_tile=2)
        queue.push(a)
        queue.push(b)
        assert queue.pop_group() == [a]

    def test_cancelled_jobs_vanish(self):
        queue = JobQueue()
        a, b = job(1), job(2, "DOT")
        queue.push(a)
        queue.push(b)
        a.state = JobState.CANCELLED
        assert len(queue) == 1
        assert queue.pop() is b

    def test_requeue_preserves_priority(self):
        queue = JobQueue()
        high = job(1, priority=9)
        queue.push(job(2, priority=1))
        queue.requeue([high])
        assert queue.pop() is high
