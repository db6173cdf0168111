"""Scratchpads over locked ways."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, DeviceError
from repro.freac.compute_slice import ReconfigurableComputeSlice, SlicePartition


WORDS_PER_WAY = 16384


def make_slice(scratch_ways=2):
    compute_slice = ReconfigurableComputeSlice()
    compute_slice.apply_partition(
        SlicePartition(compute_ways=0, scratchpad_ways=scratch_ways)
    )
    return compute_slice


def make_scratchpad(scratch_ways=2):
    return make_slice(scratch_ways).scratchpad


class TestCapacity:
    def test_words_per_way(self):
        pad = make_scratchpad(1)
        # One way = 8 sub-arrays x 2048 rows = 16384 words = 64 KB.
        assert pad.words == 16384
        assert pad.size_bytes == 64 * 1024

    def test_capacity_scales_with_ways(self):
        assert make_scratchpad(4).size_bytes == 256 * 1024

    def test_out_of_range_read(self):
        pad = make_scratchpad(1)
        with pytest.raises(CapacityError):
            pad.read_word(16384)

    def test_out_of_range_write(self):
        pad = make_scratchpad(1)
        with pytest.raises(CapacityError):
            pad.write_word(-1, 0)


class TestRoundtrip:
    def test_word_roundtrip(self):
        pad = make_scratchpad()
        pad.write_word(1000, 0xCAFEBABE)
        assert pad.read_word(1000) == 0xCAFEBABE

    def test_fill_and_dump_words(self):
        pad = make_scratchpad()
        values = list(range(100, 164))
        pad.fill_words(50, values)
        assert pad.dump_words(50, 64) == values

    def test_bytes_roundtrip(self):
        pad = make_scratchpad()
        data = bytes(range(256))
        pad.fill_bytes(1024, data)
        assert pad.dump_bytes(1024, 256) == data

    def test_unaligned_bytes_rejected(self):
        pad = make_scratchpad()
        with pytest.raises(DeviceError):
            pad.fill_bytes(2, bytes(4))
        with pytest.raises(DeviceError):
            pad.dump_bytes(0, 3)

    @given(st.dictionaries(
        st.integers(min_value=0, max_value=16383),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        max_size=64,
    ))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_model(self, writes):
        pad = make_scratchpad(1)
        for index, value in writes.items():
            pad.write_word(index, value)
        for index, value in writes.items():
            assert pad.read_word(index) == value

    def test_words_interleave_across_a_ways_subarrays(self):
        compute_slice = make_slice(2)
        pad, cache = compute_slice.scratchpad, compute_slice.cache
        first, second = sorted(cache.locked_ways)
        pad.fill_words(0, range(1, 11))
        pad.write_word(WORDS_PER_WAY + 9, 99)
        subarrays = cache.way_subarrays(first)
        assert [subarrays[word % 8].peek(word // 8)
                for word in range(10)] == list(range(1, 11))
        assert cache.way_subarrays(second)[1].peek(1) == 99

    def test_cross_way_addressing(self):
        pad = make_scratchpad(2)
        pad.write_word(16384, 7)   # first word of the second way
        pad.write_word(16383, 9)   # last word of the first way
        assert pad.read_word(16384) == 7
        assert pad.read_word(16383) == 9


class TestAccounting:
    def test_accesses_counted(self):
        pad = make_scratchpad()
        pad.write_word(0, 1)
        pad.read_word(0)
        assert pad.reads == 1
        assert pad.writes == 1
        assert pad.access_count == 2

    def test_accesses_hit_locked_way_subarrays(self):
        compute_slice = ReconfigurableComputeSlice()
        compute_slice.apply_partition(
            SlicePartition(compute_ways=0, scratchpad_ways=1)
        )
        before = compute_slice.cache.subarray_access_count
        compute_slice.scratchpad.write_word(0, 5)
        assert compute_slice.cache.subarray_access_count == before + 1


@st.composite
def _batches(draw):
    """(scratchpad ways, addresses, values): repeated addresses and
    words on both sides of every way boundary are likely."""
    ways = draw(st.integers(1, 4))
    words = ways * WORDS_PER_WAY
    edges = [
        edge + offset
        for edge in range(0, words + 1, WORDS_PER_WAY)
        for offset in (-2, -1, 0, 1)
        if 0 <= edge + offset < words
    ]
    address = st.sampled_from(edges) | st.integers(0, words - 1)
    addresses = draw(st.lists(address, min_size=1, max_size=40))
    addresses += draw(st.lists(st.sampled_from(addresses), max_size=8))
    addresses = draw(st.permutations(addresses))
    values = draw(st.lists(st.integers(0, (1 << 32) - 1),
                           min_size=len(addresses),
                           max_size=len(addresses)))
    return ways, addresses, values


def _counters(compute_slice):
    pad = compute_slice.scratchpad
    return ([(sub.reads, sub.writes) for sub in compute_slice.cache.subarrays],
            (pad.reads, pad.writes))


class TestBatchMatchesWordAtATime:
    """The batch paths against the word-at-a-time ones, on twin slices:
    the same words land in the same sub-arrays and rows, and every
    sub-array is charged the same accesses."""

    @given(_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_io_matches_word_loops(self, batch):
        ways, addresses, values = batch
        batched, looped = make_slice(ways), make_slice(ways)
        batched.scratchpad.write_words_batch(np.array(addresses),
                                             np.array(values))
        got = batched.scratchpad.read_words_batch(np.array(addresses))
        for address, value in zip(addresses, values):
            looped.scratchpad.write_word(address, value)
        expected = [looped.scratchpad.read_word(address)
                    for address in addresses]
        assert got.tolist() == expected
        assert np.array_equal(batched.cache.sram, looped.cache.sram)
        assert _counters(batched) == _counters(looped)

    @given(_batches(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_refused_batch_changes_nothing(self, batch, data):
        ways, addresses, values = batch
        compute_slice = make_slice(ways)
        pad = compute_slice.scratchpad
        pad.write_words_batch(np.array(addresses), np.array(values))
        sram = compute_slice.cache.sram.copy()
        counters = _counters(compute_slice)
        at = data.draw(st.integers(0, len(addresses)))
        bad = data.draw(st.sampled_from([-1, pad.words, pad.words + 5]))
        refused = np.array(addresses[:at] + [bad] + addresses[at:])
        with pytest.raises(CapacityError):
            pad.write_words_batch(refused, np.ones(refused.size))
        with pytest.raises(CapacityError):
            pad.read_words_batch(refused)
        assert np.array_equal(compute_slice.cache.sram, sram)
        assert _counters(compute_slice) == counters
