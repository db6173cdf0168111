"""Micro compute cluster: config storage and per-cycle LUT evaluation."""

import pytest

from repro.cache.subarray import Subarray
from repro.errors import DeviceError
from repro.freac.mcc import (
    MacUnit,
    MicroComputeCluster,
    RegisterBank,
    make_tile,
)


def make_mcc(lut_inputs=5):
    (mcc,) = make_tile(1, lut_inputs=lut_inputs)
    return mcc


def load_rows(mcc, columns):
    """Write ``columns[s]`` into sub-array ``s`` from row 0 on."""
    for subarray, words in zip(mcc.subarrays, columns):
        for row, word in enumerate(words):
            subarray.write_row(row, word)


class TestMacUnit:
    def test_mac_semantics(self):
        mac = MacUnit()
        assert mac.mac(3, 4, 5) == 17
        assert mac.mac(1 << 31, 2, 0) == 0  # mod 2^32
        assert mac.operations == 2


class TestRegisterBank:
    def test_read_write(self):
        bank = RegisterBank(256)
        bank.write(1, 42, 32)
        assert bank.read(1) == 42

    def test_unlatched_read_rejected(self):
        with pytest.raises(DeviceError):
            RegisterBank(256).read(5)

    def test_peak_tracking(self):
        bank = RegisterBank(256)
        bank.write(1, 0, 32)
        bank.write(2, 0, 32)
        bank.release(1)
        bank.write(3, 0, 1)
        assert bank.peak_bits == 64


class TestConfiguration:
    def test_wrong_subarray_count_rejected(self):
        with pytest.raises(DeviceError):
            MicroComputeCluster(0, [Subarray() for _ in range(3)])

    def test_load_and_fetch(self):
        mcc = make_mcc()
        load_rows(mcc, [[0xAAAA, 0xBBBB]] * 4)
        assert mcc.fetch_lut_config(0, 1) == 0xAAAA
        assert mcc.fetch_lut_config(0, 2) == 0xBBBB

    def test_4lut_mode_unpacks_halfwords(self):
        mcc = make_mcc(lut_inputs=4)
        assert len(mcc.luts) == 8
        load_rows(mcc, [[(0xBEEF << 16) | 0xCAFE]])
        assert mcc.fetch_lut_config(0, 1) == 0xCAFE
        assert mcc.fetch_lut_config(1, 1) == 0xBEEF


class TestEvaluation:
    def test_evaluate_charges_subarray_read(self):
        mcc = make_mcc()
        load_rows(mcc, [[0b0110_0110]])
        before = mcc.subarray_reads
        # XOR table in the low bits; inputs padded to 5.
        result = mcc.evaluate_lut(0, 1, [1, 0, 0, 0, 0])
        assert result == 1
        assert mcc.subarray_reads == before + 1

    def test_evaluate_uses_stored_config(self):
        """The answer must come from SRAM, not from any cached netlist."""
        mcc = make_mcc()
        load_rows(mcc, [[0b10]])  # BUF
        assert mcc.evaluate_lut(0, 1, [1, 0, 0, 0, 0]) == 1
        # Overwrite the row with NOT and the same inputs flip.
        mcc.subarrays[0].write_row(0, 0b01)
        assert mcc.evaluate_lut(0, 1, [1, 0, 0, 0, 0]) == 0

    def test_unit_out_of_range(self):
        mcc = make_mcc()
        with pytest.raises(DeviceError):
            mcc.evaluate_lut(4, 1, [0] * 5)
