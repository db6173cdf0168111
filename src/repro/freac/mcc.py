"""Micro compute cluster (MCC) state (paper Sec. III-B, Fig. 6b).

An MCC groups four compute sub-arrays (two data arrays in adjacent
ways) with cluster logic: per-sub-array memory latch + mux tree (the
:class:`FoldedLut`), a 256-bit flip-flop bank, a 32-bit MAC unit, and
an operand crossbar.  The cluster logic lives *outside* the
sub-arrays, which stay untouched.

Configuration storage: the LUT truth table for folding step *t* of
LUT unit *u* sits in row *t* of the unit's sub-array; the executor
reads it through the sub-array (charging a real access) each cycle.
A tile's sub-arrays are rows of one buffer — its slice's
:attr:`~repro.cache.slice_.CacheSlice.sram`, or one from
:func:`make_tile` for a standalone tile — so the executor writes and
scrubs a tile's configuration as one block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import DeviceError
from ..params import MccParams, SubarrayParams
from ..cache.subarray import Subarray
from .lut import FoldedLut


class MacUnit:
    """The cluster's integer multiply-accumulate unit."""

    MASK = 0xFFFFFFFF

    def __init__(self) -> None:
        self.operations = 0

    def mac(self, a: int, b: int, acc: int) -> int:
        self.operations += 1
        return (a * b + acc) & self.MASK


class RegisterBank:
    """The 256-bit intermediate-value flip-flop bank.

    Functionally a scoreboard of named values; the capacity constraint
    is enforced by the folding scheduler's pressure pass, so here we
    only track occupancy for assertions and statistics.
    """

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self._values: Dict[int, int] = {}
        self._widths: Dict[int, int] = {}
        self.peak_bits = 0

    def write(self, key: int, value: int, width: int) -> None:
        self._values[key] = value
        self._widths[key] = width
        occupancy = sum(self._widths.values())
        self.peak_bits = max(self.peak_bits, occupancy)

    def read(self, key: int) -> int:
        if key not in self._values:
            raise DeviceError(f"register value {key} was never latched")
        return self._values[key]

    def release(self, key: int) -> None:
        self._values.pop(key, None)
        self._widths.pop(key, None)

    def clear(self) -> None:
        self._values.clear()
        self._widths.clear()


class MicroComputeCluster:
    """Four compute sub-arrays plus cluster logic."""

    def __init__(
        self,
        index: int,
        subarrays: Sequence[Subarray],
        params: Optional[MccParams] = None,
        lut_inputs: int = 5,
    ) -> None:
        self.params = params or MccParams()
        if len(subarrays) != self.params.subarrays:
            raise DeviceError(
                f"an MCC groups {self.params.subarrays} sub-arrays, got "
                f"{len(subarrays)}"
            )
        self.index = index
        self.subarrays = list(subarrays)
        self.lut_inputs = 0
        self.luts: List[FoldedLut] = []
        self.set_lut_mode(lut_inputs)
        self.mac = MacUnit()
        self.registers = RegisterBank(self.params.register_file_bits)

    def set_lut_mode(self, lut_inputs: int) -> None:
        """Switch between 5-LUT mode (one table per 32-bit row) and
        4-LUT mode (two 16-bit tables per row, twice the LUT units).

        The CC Ctrl sets the mode from each program's schedule, so a
        warm slice can change LUT width between programs.
        """
        if lut_inputs == self.lut_inputs:
            return
        self.luts = [
            FoldedLut(lut_inputs)
            for _ in range(self.params.lut_slots(lut_inputs))
        ]
        self.lut_inputs = lut_inputs

    @property
    def config_rows(self) -> int:
        return self.subarrays[0].rows

    def fetch_lut_config(self, unit: int, cycle: int) -> int:
        """Read the config row for (unit, folding step) — one access."""
        subarray = self.subarrays[self._unit_subarray(unit)]
        word = subarray.read_row(cycle - 1)
        if self.lut_inputs == 4:
            word = (word >> (16 * (unit % 2))) & 0xFFFF
        return word

    def _unit_subarray(self, unit: int) -> int:
        if self.lut_inputs == 4:
            return unit // 2
        return unit

    def evaluate_lut(self, unit: int, cycle: int, input_bits: Sequence[int]) -> int:
        """One folding step of one LUT: reconfigure from SRAM, evaluate."""
        if not 0 <= unit < len(self.luts):
            raise DeviceError(f"LUT unit {unit} out of range")
        config = self.fetch_lut_config(unit, cycle)
        lut = self.luts[unit]
        lut.reconfigure(config)
        return lut.evaluate(list(input_bits))

    @property
    def subarray_reads(self) -> int:
        return sum(sub.reads for sub in self.subarrays)


def make_tile(
    mccs: int,
    params: Optional[SubarrayParams] = None,
    lut_inputs: int = 5,
) -> List[MicroComputeCluster]:
    """A standalone tile of ``mccs`` MCCs over one zeroed buffer.

    Its sub-arrays are the rows of one ``(mccs * 4, rows)`` array, MCC
    by MCC, as a slice's tiles are rows of its ``sram``.
    """
    params = params or SubarrayParams()
    per_mcc = MccParams().subarrays
    buffer = np.zeros((mccs * per_mcc, params.rows), dtype=np.uint32)
    subarrays = [Subarray(params, buffer, index)
                 for index in range(len(buffer))]
    return [
        MicroComputeCluster(
            index, subarrays[index * per_mcc:(index + 1) * per_mcc],
            lut_inputs=lut_inputs,
        )
        for index in range(mccs)
    ]
