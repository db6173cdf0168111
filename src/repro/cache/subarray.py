"""Functional model of one 8 KB SRAM sub-array.

The sub-array is deliberately dumb: a row-addressable array of
``port_bits``-wide words, with access counters.  It does not know
whether its rows currently hold cache data, scratchpad data, or LUT
configuration bits — that interpretation lives in the layers above,
exactly mirroring the paper's claim that the memory arrays themselves
are never modified (Sec. III-A).
"""

from __future__ import annotations

import numpy as np

from ..errors import CacheError
from ..params import SubarrayParams


class Subarray:
    """A row-addressable SRAM array with access accounting.

    Each read or write of one row is a single-cycle operation at the
    cache clock (paper Sec. II observation 4) and costs
    ``params.access_energy_j``.
    """

    def __init__(self, params: SubarrayParams | None = None,
                 buffer: np.ndarray | None = None, index: int = 0) -> None:
        """The sub-array is row ``index`` of ``buffer``, a ``(sub-arrays,
        rows)`` array: its slice's :attr:`CacheSlice.sram`, or a
        standalone tile's (:func:`repro.freac.mcc.make_tile`).  A lone
        sub-array gets a one-row buffer of its own."""
        self.params = params or SubarrayParams()
        self.params.validate()
        self.buffer = (
            buffer if buffer is not None
            else np.zeros((1, self.params.rows), dtype=np.uint32)
        )
        self.index = index
        self._rows = self.buffer[index]
        self._mask = (1 << self.params.port_bits) - 1
        # Plain ints, not slots of a slice-wide array: the reference
        # loop charges one access per read_row, and an int attribute
        # increments far cheaper than a numpy element.
        self.reads = 0
        self.writes = 0

    @property
    def rows(self) -> int:
        return self.params.rows

    def read_row(self, row: int) -> int:
        """Read one port-width word; counts one access."""
        self._check_row(row)
        self.reads += 1
        return int(self._rows[row])

    def write_row(self, row: int, value: int) -> None:
        """Write one port-width word; counts one access."""
        self._check_row(row)
        if not 0 <= value <= self._mask:
            raise CacheError(
                f"value {value:#x} does not fit a {self.params.port_bits}-bit row"
            )
        self.writes += 1
        self._rows[row] = value

    def peek(self, row: int) -> int:
        """Read without charging an access (for assertions/tests)."""
        self._check_row(row)
        return int(self._rows[row])

    def charge_reads(self, count: int) -> None:
        """Account ``count`` extra row reads without moving data.

        The compiled plan reads a row once for a whole batch, and a
        configuration write or scrub moves a tile's rows as one block;
        each charges the accesses the hardware makes (one per row, per
        invocation).
        """
        if count < 0:
            raise CacheError("cannot charge a negative access count")
        self.reads += count

    def charge_writes(self, count: int) -> None:
        """Account ``count`` extra row writes without moving data."""
        if count < 0:
            raise CacheError("cannot charge a negative access count")
        self.writes += count

    @property
    def access_count(self) -> int:
        return self.reads + self.writes

    @property
    def access_energy_j(self) -> float:
        """Total energy charged to this sub-array so far."""
        return self.access_count * self.params.access_energy_j

    def reset_counters(self) -> None:
        self.reads = 0
        self.writes = 0

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise CacheError(f"row {row} out of range 0..{self.rows - 1}")
