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
                 storage: np.ndarray | None = None) -> None:
        """``storage`` is the sub-array's row of its slice's buffer
        (:attr:`CacheSlice.sram`); a standalone sub-array allocates its
        own."""
        self.params = params or SubarrayParams()
        self.params.validate()
        self._rows = (
            storage if storage is not None
            else np.zeros(self.params.rows, dtype=np.uint32)
        )
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

    def peek_rows(self, rows: np.ndarray) -> np.ndarray:
        """Read in-range ``rows`` without charging an access.

        The compiled plan reads each LUT's configuration row once per
        run and bills the per-invocation reads in bulk
        (:meth:`charge_reads`).
        """
        return self._rows[rows]

    def charge_reads(self, count: int) -> None:
        """Account ``count`` extra row reads without moving data.

        The compiled plan performs one physical row access for a whole
        batch but must charge the same traffic the hardware would see
        (one access per invocation).
        """
        if count < 0:
            raise CacheError("cannot charge a negative access count")
        self.reads += count

    def charge_writes(self, count: int) -> None:
        """Account ``count`` extra row writes without moving data."""
        if count < 0:
            raise CacheError("cannot charge a negative access count")
        self.writes += count

    def load_words(self, start_row: int, words: np.ndarray) -> None:
        """Bulk-load rows, charging one write per row."""
        end = start_row + len(words)
        if start_row < 0 or end > self.rows:
            raise CacheError("bulk load exceeds sub-array bounds")
        self._rows[start_row:end] = words.astype(np.uint32)
        self.writes += len(words)

    def dump_words(self, start_row: int, count: int) -> np.ndarray:
        """Bulk-read rows, charging one read per row."""
        end = start_row + count
        if start_row < 0 or end > self.rows:
            raise CacheError("bulk dump exceeds sub-array bounds")
        self.reads += count
        return self._rows[start_row:end].copy()

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
