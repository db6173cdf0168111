"""Scratchpads built from locked LLC ways (paper Sec. III-D).

"By locking-out ways in the cache, we allow the CC Ctrl to route
accelerator loads and stores to the sub-arrays in the ways reserved
for the scratchpad."  Words are interleaved across the way's
sub-arrays so that, as in the paper, up to 32 bytes per way are
activated per access while delivery over the shared data bus is
serialised (the timing model charges that serialisation).

The scratchpad is word-addressable (32-bit) for the accelerators and
byte-fillable for the host, which initialises data *directly* into it
to skip a copy (Fig. 5 step 5).  It holds no storage of its own: it
indexes its slice's buffer (:attr:`CacheSlice.sram`) at the rows the
slice reports for its ways, and charges each access to the sub-array
that holds the word, as a word-at-a-time stream would.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..cache.slice_ import CacheSlice
from ..errors import CapacityError, DeviceError

_WORD_MASK = 0xFFFFFFFF


class Scratchpad:
    """Word-addressable storage over one or more locked ways."""

    def __init__(self, cache: CacheSlice, ways: Sequence[int]) -> None:
        if not ways:
            raise DeviceError("a scratchpad needs at least one locked way")
        # The slice buffer row of each of the scratchpad's sub-arrays,
        # way by way, and the flat buffer index of its row 0.
        buffer_rows = [row for way in ways for row in cache.way_rows(way)]
        self._subarrays = [cache.subarrays[row] for row in buffer_rows]
        self._subarrays_per_way = cache.params.subarrays_per_way
        self._rows = cache.params.subarray.rows
        self._words_per_way = self._subarrays_per_way * self._rows
        self._words = self._words_per_way * len(ways)
        self._flat = cache.sram.reshape(-1)
        self._row_base = np.asarray(buffer_rows, dtype=np.int64) * self._rows
        self.reads = 0
        self.writes = 0

    @property
    def words(self) -> int:
        return self._words

    @property
    def size_bytes(self) -> int:
        return self.words * 4

    def _locate(self, words: "int | np.ndarray", lowest: int, highest: int):
        """(scratchpad sub-array, row) of word index ``words``, an int or
        an index array spanning ``lowest..highest``.

        Consecutive words interleave across a way's sub-arrays so the
        way can activate them in lock-step.
        """
        if lowest < 0 or highest >= self._words:
            raise CapacityError(
                f"scratchpad word {lowest if lowest < 0 else highest} out "
                f"of range (capacity {self.words} words / "
                f"{self.size_bytes} bytes)"
            )
        per_way = self._subarrays_per_way
        return (
            (words // self._words_per_way) * per_way + words % per_way,
            (words // per_way) % self._rows,
        )

    def read_word(self, word_index: int) -> int:
        subarray, row = self._locate(word_index, word_index, word_index)
        self.reads += 1
        return self._subarrays[subarray].read_row(row)

    def write_word(self, word_index: int, value: int) -> None:
        subarray, row = self._locate(word_index, word_index, word_index)
        self.writes += 1
        self._subarrays[subarray].write_row(row, value & _WORD_MASK)

    # ------------------------------------------------------------------
    # Batched (vectorized) access — docs/execution.md
    # ------------------------------------------------------------------

    def _touched(self, subarray: np.ndarray):
        """(sub-array, word count) for each sub-array a batch touches."""
        counts = np.bincount(subarray, minlength=len(self._subarrays))
        touched = np.flatnonzero(counts)
        return zip([self._subarrays[index] for index in touched.tolist()],
                   counts[touched].tolist())

    def read_words_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Gather many words at once; accounting matches word-at-a-time.

        One access is charged per address on both the scratchpad and
        the owning sub-arrays, exactly as ``len(addresses)`` calls to
        :meth:`read_word` would.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        subarray, row = self._locate(addresses, *_extent(addresses))
        self.reads += addresses.size
        for target, count in self._touched(subarray):
            target.charge_reads(count)
        return self._flat[self._row_base[subarray] + row]

    def write_words_batch(self, addresses: np.ndarray,
                          values: np.ndarray) -> None:
        """Scatter many words at once; later duplicates win."""
        addresses = np.asarray(addresses, dtype=np.int64)
        subarray, row = self._locate(addresses, *_extent(addresses))
        values = np.asarray(values, dtype=np.uint64) & np.uint64(_WORD_MASK)
        self._flat[self._row_base[subarray] + row] = values.astype(np.uint32)
        self.writes += addresses.size
        for target, count in self._touched(subarray):
            target.charge_writes(count)

    # ------------------------------------------------------------------
    # Host-side bulk operations
    # ------------------------------------------------------------------

    def fill_words(self, start_word: int, values: Sequence[int]) -> None:
        """Host initialisation path: store a run of words.

        Implemented as one vectorized scatter; the accounting is the
        word-at-a-time model's (one write per word).
        """
        data = np.asarray(values, dtype=np.uint64)
        self.write_words_batch(start_word + np.arange(data.size), data)

    def fill_bytes(self, start_byte: int, data: bytes) -> None:
        if start_byte % 4 or len(data) % 4:
            raise DeviceError("scratchpad fills must be word-aligned")
        self.fill_words(start_byte // 4, np.frombuffer(data, dtype="<u4"))

    def _dump(self, start_word: int, count: int) -> np.ndarray:
        return self.read_words_batch(start_word + np.arange(count))

    def dump_words(self, start_word: int, count: int) -> List[int]:
        return self._dump(start_word, count).tolist()

    def dump_bytes(self, start_byte: int, size: int) -> bytes:
        if start_byte % 4 or size % 4:
            raise DeviceError("scratchpad dumps must be word-aligned")
        return self._dump(start_byte // 4, size // 4).astype("<u4").tobytes()

    @property
    def access_count(self) -> int:
        return self.reads + self.writes


def _extent(addresses: np.ndarray) -> "tuple[int, int]":
    """The lowest and highest word of a batch (0, 0 when empty)."""
    if not addresses.size:
        return 0, 0
    return int(addresses.min()), int(addresses.max())
