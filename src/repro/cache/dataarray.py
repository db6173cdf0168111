"""A data array (DA): two sub-arrays sharing one 32-bit port each.

Paper Sec. II: "Each 32KB data array is comprised of two 16KB
sub-arrays, each with a 32bit port" (the evaluated edge configuration
halves this to 2 x 8 KB).  The data arrays of one way share a data
bus, so line transfers are serialised word by word — the bus cost is
accounted for in the slice, not here.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import CacheError
from ..params import SliceParams, SubarrayParams
from .subarray import Subarray


class DataArray:
    """Two sub-arrays addressed as a contiguous row space."""

    def __init__(self, subarray_params: SubarrayParams | None = None,
                 subarrays: int = 2,
                 storage: np.ndarray | None = None) -> None:
        """``storage``, if given, is a ``(subarrays, rows)`` buffer whose
        rows back the sub-arrays (see :class:`Subarray`)."""
        params = subarray_params or SubarrayParams()
        self.subarrays: List[Subarray] = [
            Subarray(params, None if storage is None else storage[index])
            for index in range(subarrays)
        ]
        self._rows_each = params.rows

    @property
    def rows(self) -> int:
        return self._rows_each * len(self.subarrays)

    @property
    def size_bytes(self) -> int:
        return sum(sub.params.size_bytes for sub in self.subarrays)

    def _route(self, row: int) -> tuple[Subarray, int]:
        if not 0 <= row < self.rows:
            raise CacheError(f"data-array row {row} out of range")
        return self.subarrays[row // self._rows_each], row % self._rows_each

    def read_row(self, row: int) -> int:
        sub, local = self._route(row)
        return sub.read_row(local)

    def write_row(self, row: int, value: int) -> None:
        sub, local = self._route(row)
        sub.write_row(local, value)

    @property
    def access_count(self) -> int:
        return sum(sub.access_count for sub in self.subarrays)

    @property
    def access_energy_j(self) -> float:
        return sum(sub.access_energy_j for sub in self.subarrays)

    def reset_counters(self) -> None:
        for sub in self.subarrays:
            sub.reset_counters()

    def clear(self) -> None:
        for sub in self.subarrays:
            sub.clear()


def build_way_data_arrays(slice_params: SliceParams,
                          storage: np.ndarray) -> List[DataArray]:
    """The data arrays composing one way (one per quadrant), backed by
    the way's ``(sub-arrays per way, rows)`` slice of ``storage``."""
    per_array = slice_params.subarrays_per_data_array
    return [
        DataArray(slice_params.subarray, per_array,
                  storage[quadrant * per_array:(quadrant + 1) * per_array])
        for quadrant in range(slice_params.quadrants)
    ]
