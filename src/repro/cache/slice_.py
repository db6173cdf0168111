"""One LLC slice: tag/state arrays, data arrays, way locking & flushing.

The slice is the unit FReaC Cache repurposes.  It supports three roles
per way:

* ``CACHE``      — normal set-associative caching (the default),
* ``COMPUTE``    — the way's sub-arrays hold LUT configuration bits,
* ``SCRATCHPAD`` — the way's sub-arrays hold accelerator-local data.

Way locking and flushing reuse mechanisms modern LLCs already have
(paper Sec. III-C: sleep logic, fuse bits, way allocation), which is
why the slice exposes them as first-class operations.

Functionally the slice really stores bytes, and it alone knows where.
One ``(sub-arrays, rows)`` buffer, :attr:`CacheSlice.sram`, holds every
word: way *w* owns buffer rows ``w * subarrays_per_way`` onward,
quadrant-major, and a 64-byte line of set *s* is striped across the
way's eight sub-arrays (8 bytes, i.e. two 32-bit rows, per sub-array)
— mirroring observation 2 of Sec. II that sub-arrays of a way operate
in lock-step.  Line I/O, way-role clears and the scratchpad index that
buffer directly; each :class:`Subarray` is a row view of it that keeps
its own access counters.

Line state and tag live in two ``(sets, ways)`` arrays, so locking or
flushing a way is a column operation, not a walk over every set.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Type

import numpy as np

from ..errors import CacheError, LockedWayError
from ..params import SliceParams
from .replacement import LruPolicy, ReplacementPolicy
from .subarray import Subarray


class WayMode(enum.Enum):
    """What a way's sub-arrays currently hold."""

    CACHE = "cache"
    COMPUTE = "compute"
    SCRATCHPAD = "scratchpad"


class LineState(enum.Enum):
    INVALID = 0
    CLEAN = 1
    DIRTY = 2


_INVALID, _CLEAN, _DIRTY = (state.value for state in LineState)
_TAG_INFO = np.iinfo(np.int64)


@dataclass
class SliceStats:
    """Counters the timing/power models consume."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushed_dirty_lines: int = 0
    flushed_clean_lines: int = 0
    tag_accesses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class EvictedLine:
    """A line pushed out of the slice (victim or flush)."""

    set_index: int
    way: int
    tag: int
    dirty: bool
    data: bytes


class CacheSlice:
    """A single 20-way slice with lockable, re-purposable ways."""

    def __init__(
        self,
        params: SliceParams | None = None,
        policy_cls: Type[ReplacementPolicy] = LruPolicy,
    ) -> None:
        self.params = params or SliceParams()
        self.params.validate()
        self.sets = self.params.sets
        self.ways = self.params.ways
        self.line_bytes = self.params.line_bytes
        self.stats = SliceStats()

        self._state = np.full((self.sets, self.ways), _INVALID, dtype=np.int8)
        self._tag = np.full((self.sets, self.ways), -1, dtype=np.int64)
        # A set's policy is made on its first fill or hit; until then
        # it would sit in its initial order anyway.
        self._policies: Dict[int, ReplacementPolicy] = defaultdict(
            partial(policy_cls, self.ways)
        )
        self._way_modes: List[WayMode] = [WayMode.CACHE] * self.ways
        # One zeroed buffer backs every sub-array of the slice; a page
        # of it takes no resident host memory until something writes
        # it (a role change's clear included).
        per_way = self.params.subarrays_per_way
        self.sram = np.zeros(
            (self.ways * per_way, self.params.subarray.rows), dtype=np.uint32
        )
        self.subarrays: List[Subarray] = [
            Subarray(self.params.subarray, self.sram, index)
            for index in range(len(self.sram))
        ]
        # Each of a way's sub-arrays holds this many words of a line.
        self._line_words, rest = divmod(
            self.line_bytes, per_way * self.sram.itemsize
        )
        if rest:
            raise CacheError("line size must stripe evenly across sub-arrays")

    # ------------------------------------------------------------------
    # Way management (used by the CC Ctrl unit)
    # ------------------------------------------------------------------

    def way_mode(self, way: int) -> WayMode:
        self._check_way(way)
        return self._way_modes[way]

    @property
    def locked_ways(self) -> Set[int]:
        return {
            way for way, mode in enumerate(self._way_modes) if mode != WayMode.CACHE
        }

    @property
    def cache_ways(self) -> int:
        return self.ways - len(self.locked_ways)

    def lock_ways(self, ways: Sequence[int], mode: WayMode) -> List[EvictedLine]:
        """Flush then lock ``ways`` into ``mode``; returns flushed lines.

        Paper Fig. 5 steps 2 and 3: dirty lines in the selected ways are
        flushed, then the ways stop participating in caching.
        """
        if mode == WayMode.CACHE:
            raise CacheError("use unlock_ways to return ways to cache mode")
        self._check_ways(ways, locked=False)
        flushed = [line for way in ways for line in self.flush_way(way)]
        self._set_mode(ways, mode)
        return flushed

    def retarget_ways(self, ways: Sequence[int], mode: WayMode) -> None:
        """Move already-locked ways between non-cache modes in place.

        An elastic resize that turns a compute way into a scratchpad
        way (or back) never re-enters cache mode, so there is nothing
        to flush — the sub-arrays are simply cleared and re-badged.
        """
        if mode == WayMode.CACHE:
            raise CacheError("use unlock_ways to return ways to cache mode")
        self._check_ways(ways, locked=True)
        self._set_mode(ways, mode)

    def unlock_ways(self, ways: Sequence[int]) -> None:
        """Return locked ways to cache mode.

        A locked way holds no valid line (``lock_ways`` flushed it and
        ``fill`` skips it), so nothing needs invalidating.  A way in
        cache mode is refused: its lines would go without a writeback.
        """
        self._check_ways(ways, locked=True)
        self._set_mode(ways, WayMode.CACHE)

    def flush_way(self, way: int) -> List[EvictedLine]:
        """Write back and invalidate every line held in ``way``."""
        self._check_way(way)
        flushed = [
            self._evict(set_index, way)
            for set_index in np.flatnonzero(self._state[:, way]).tolist()
        ]
        dirty_lines = sum(line.dirty for line in flushed)
        self.stats.flushed_dirty_lines += dirty_lines
        self.stats.writebacks += dirty_lines
        self.stats.flushed_clean_lines += len(flushed) - dirty_lines
        self._state[:, way] = _INVALID
        self._tag[:, way] = -1
        return flushed

    # ------------------------------------------------------------------
    # Cache-mode operations
    # ------------------------------------------------------------------

    def lookup(self, set_index: int, tag: int, *, touch: bool = True) -> Optional[int]:
        """Return the way holding (set, tag), or None on miss."""
        self._check_set(set_index)
        self.stats.tag_accesses += 1
        states = self._state[set_index].tolist()
        for way, line_tag in enumerate(self._tag[set_index].tolist()):
            if states[way] != _INVALID and line_tag == tag:
                if self._way_modes[way] != WayMode.CACHE:
                    raise CacheError("valid line found in a locked way")
                if touch:
                    self._policies[set_index].touch(way)
                self.stats.hits += 1
                return way
        self.stats.misses += 1
        return None

    def fill(
        self,
        set_index: int,
        tag: int,
        data: bytes | None = None,
        *,
        dirty: bool = False,
    ) -> Optional[EvictedLine]:
        """Install a line, evicting a victim if necessary.

        Returns the evicted line (if any valid line was displaced) so
        the hierarchy can write it back.
        """
        self._check_set(set_index)
        if not _TAG_INFO.min <= tag <= _TAG_INFO.max:
            raise CacheError(f"tag {tag} does not fit a 64-bit tag")
        if data is not None and len(data) != self.line_bytes:
            raise CacheError(f"line data must be exactly {self.line_bytes} bytes")
        locked = self.locked_ways
        if len(locked) == self.ways:
            raise LockedWayError("no cache ways left: entire slice is compute")
        valid = (self._state[set_index] != _INVALID).tolist()
        way = self._policies[set_index].victim(locked, valid)
        victim: Optional[EvictedLine] = None
        if self._state[set_index, way] != _INVALID:
            victim = self._evict(set_index, way)
            self.stats.evictions += 1
            self.stats.writebacks += victim.dirty
        self._state[set_index, way] = _DIRTY if dirty else _CLEAN
        self._tag[set_index, way] = tag
        self._policies[set_index].touch(way)
        self.stats.fills += 1
        if data is not None:
            self._write_line_data(set_index, way, data)
        return victim

    def read_line(self, set_index: int, way: int) -> bytes:
        """Read a full line's bytes (charges sub-array accesses)."""
        self._check_valid(set_index, way)
        return self._read_line_data(set_index, way)

    def write_line(self, set_index: int, way: int, data: bytes) -> None:
        """Overwrite a line's bytes and mark it dirty."""
        self._check_valid(set_index, way)
        self._write_line_data(set_index, way, data)
        self._state[set_index, way] = _DIRTY

    def line_state(self, set_index: int, way: int) -> LineState:
        self._check_set(set_index)
        self._check_way(way)
        return LineState(int(self._state[set_index, way]))

    def line_tag(self, set_index: int, way: int) -> int:
        self._check_set(set_index)
        self._check_way(way)
        return int(self._tag[set_index, way])

    def dirty_line_count(self) -> int:
        return int(np.count_nonzero(self._state == _DIRTY))

    # ------------------------------------------------------------------
    # Raw way storage (compute / scratchpad roles)
    # ------------------------------------------------------------------

    def way_rows(self, way: int) -> range:
        """The :attr:`sram` rows of a locked way's sub-arrays.

        Quadrant-major: a quadrant's sub-arrays are consecutive.  Only
        legal when the way is not in cache mode; the FReaC layers build
        LUT stores and scratchpads on top of this.
        """
        self._check_way(way)
        if self._way_modes[way] == WayMode.CACHE:
            raise LockedWayError(f"way {way} is in cache mode; lock it first")
        span = self._way_span(way)
        return range(span.start, span.stop)

    def way_subarrays(self, way: int) -> List[Subarray]:
        """A locked way's sub-arrays, in :meth:`way_rows` order."""
        rows = self.way_rows(way)
        return self.subarrays[rows.start:rows.stop]

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------

    @property
    def subarray_access_count(self) -> int:
        return sum(sub.access_count for sub in self.subarrays)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _evict(self, set_index: int, way: int) -> EvictedLine:
        """The valid line at (set, way) as it leaves; data only if dirty."""
        dirty = bool(self._state[set_index, way] == _DIRTY)
        data = self._read_line_data(set_index, way) if dirty else b""
        return EvictedLine(
            set_index, way, int(self._tag[set_index, way]), dirty, data
        )

    def _way_span(self, way: int) -> slice:
        """The way's sub-arrays as a slice of :attr:`sram` rows (and of
        :attr:`subarrays`), quadrant-major."""
        per_way = self.params.subarrays_per_way
        return slice(way * per_way, (way + 1) * per_way)

    def _line(self, set_index: int, way: int) -> np.ndarray:
        """The line's words as a ``(sub-arrays per way, words each)``
        view of :attr:`sram`: each of the way's sub-arrays holds ``n``
        of them in consecutive rows from ``set_index * n``."""
        start = set_index * self._line_words
        return self.sram[self._way_span(way), start:start + self._line_words]

    def _read_line_data(self, set_index: int, way: int) -> bytes:
        for sub in self.subarrays[self._way_span(way)]:
            sub.charge_reads(self._line_words)
        return self._line(set_index, way).astype("<u4").tobytes()

    def _write_line_data(self, set_index: int, way: int, data: bytes) -> None:
        if len(data) != self.line_bytes:
            raise CacheError(
                f"line data must be exactly {self.line_bytes} bytes"
            )
        for sub in self.subarrays[self._way_span(way)]:
            sub.charge_writes(self._line_words)
        line = self._line(set_index, way)
        line[:] = np.frombuffer(data, dtype="<u4").reshape(line.shape)

    def _check_ways(self, ways: Sequence[int], *, locked: bool) -> None:
        """Validate every way's role before any way changes."""
        for way in ways:
            self._check_way(way)
            if (self._way_modes[way] != WayMode.CACHE) != locked:
                role = "locked" if locked else "in cache mode"
                raise LockedWayError(f"way {way} is not {role}")

    def _set_mode(self, ways: Sequence[int], mode: WayMode) -> None:
        # Clearing keeps a former role's bytes from showing through a
        # later fill that carries no data.
        for way in ways:
            self._way_modes[way] = mode
            self.sram[self._way_span(way)] = 0

    def _check_set(self, set_index: int) -> None:
        if not 0 <= set_index < self.sets:
            raise CacheError(f"set {set_index} out of range")

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise CacheError(f"way {way} out of range")

    def _check_valid(self, set_index: int, way: int) -> None:
        self._check_set(set_index)
        self._check_way(way)
        if self._state[set_index, way] == _INVALID:
            raise CacheError(f"line (set={set_index}, way={way}) is invalid")
