"""SRAM sub-array: storage, bounds, and access accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.subarray import Subarray
from repro.errors import CacheError
from repro.params import SubarrayParams


@pytest.fixture
def subarray():
    return Subarray()


class TestGeometry:
    def test_default_rows(self, subarray):
        # 8 KB at a 32-bit port = 2048 rows.
        assert subarray.rows == 2048

    def test_row_count_follows_params(self):
        params = SubarrayParams(size_bytes=16 * 1024)
        assert Subarray(params).rows == 4096


class TestReadWrite:
    def test_roundtrip(self, subarray):
        subarray.write_row(5, 0xDEADBEEF)
        assert subarray.read_row(5) == 0xDEADBEEF

    def test_initially_zero(self, subarray):
        assert subarray.read_row(100) == 0

    def test_out_of_range_row(self, subarray):
        with pytest.raises(CacheError):
            subarray.read_row(2048)
        with pytest.raises(CacheError):
            subarray.write_row(-1, 0)

    def test_oversized_value_rejected(self, subarray):
        with pytest.raises(CacheError):
            subarray.write_row(0, 1 << 32)

    @given(st.dictionaries(
        st.integers(min_value=0, max_value=2047),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        max_size=32,
    ))
    def test_matches_dict_model(self, writes):
        subarray = Subarray()
        for row, value in writes.items():
            subarray.write_row(row, value)
        for row, value in writes.items():
            assert subarray.read_row(row) == value


class TestAccounting:
    def test_counts_reads_and_writes(self, subarray):
        subarray.write_row(0, 1)
        subarray.read_row(0)
        subarray.read_row(0)
        assert subarray.writes == 1
        assert subarray.reads == 2
        assert subarray.access_count == 3

    def test_peek_is_free(self, subarray):
        subarray.peek(0)
        assert subarray.access_count == 0

    def test_energy_matches_access_count(self, subarray):
        for row in range(10):
            subarray.write_row(row, row)
        expected = 10 * subarray.params.access_energy_j
        assert subarray.access_energy_j == pytest.approx(expected)

    def test_reset_counters(self, subarray):
        subarray.write_row(0, 1)
        subarray.reset_counters()
        assert subarray.access_count == 0
        # data survives a counter reset
        assert subarray.peek(0) == 1
