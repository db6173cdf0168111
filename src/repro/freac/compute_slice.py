"""The reconfigurable compute slice (paper Sec. III-C, Fig. 6a/7a).

Partitions one LLC slice into cache ways, scratchpad ways, and
compute ways; compute ways are consumed in adjacent pairs, each pair
yielding four micro compute clusters (one per quadrant).  The
remaining ways keep operating as a normal cache — the substrate
:class:`~repro.cache.slice_.CacheSlice` continues to serve them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cache.slice_ import CacheSlice, WayMode
from ..errors import ConfigurationError, DeviceError
from ..params import SliceParams
from .mcc import MicroComputeCluster
from .scratchpad import Scratchpad


@dataclass(frozen=True)
class SlicePartition:
    """A compute/scratchpad/cache split of one slice's ways.

    The paper's named configurations (Fig. 9/11/12) are spelled
    ``<mccs>MCC-<scratchpad KB>``: e.g. 16 compute ways + 4 scratchpad
    ways on a 20-way slice is "32MCC-256KB"; the end-to-end setup keeps
    2 ways as cache and splits 18 as "16MCC-640KB".
    """

    compute_ways: int
    scratchpad_ways: int
    total_ways: int = 20

    def __post_init__(self) -> None:
        if self.compute_ways % 2:
            raise ConfigurationError("compute ways are consumed in pairs")
        if self.compute_ways < 0 or self.scratchpad_ways < 0:
            raise ConfigurationError("way counts must be non-negative")
        if self.compute_ways + self.scratchpad_ways > self.total_ways:
            raise ConfigurationError(
                f"{self.compute_ways}+{self.scratchpad_ways} ways exceed the "
                f"{self.total_ways}-way slice"
            )

    @property
    def cache_ways(self) -> int:
        return self.total_ways - self.compute_ways - self.scratchpad_ways

    def mccs(self, data_arrays_per_way: int = 4) -> int:
        return (self.compute_ways // 2) * data_arrays_per_way

    def scratchpad_bytes(self, way_bytes: int = 64 * 1024) -> int:
        return self.scratchpad_ways * way_bytes

    def label(self, way_bytes: int = 64 * 1024) -> str:
        kb = self.scratchpad_bytes(way_bytes) // 1024
        return f"{self.mccs()}MCC-{kb}KB"


@dataclass(frozen=True)
class ResizeDelta:
    """What one in-place repartition actually moved.

    Elastic resizing bills only the ways that changed roles: newly
    locked ways pay the flush, freed ways return to cache, and ways
    that swapped between compute and scratchpad are re-badged without
    a flush (they hold no cache lines).
    """

    ways_locked: int
    ways_unlocked: int
    ways_retargeted: int
    flushed_dirty_lines: int
    flushed_bytes: int

    @property
    def ways_changed(self) -> int:
        return self.ways_locked + self.ways_unlocked + self.ways_retargeted


class ReconfigurableComputeSlice:
    """A cache slice plus the FReaC partitioning machinery."""

    def __init__(self, params: Optional[SliceParams] = None,
                 lut_inputs: int = 5) -> None:
        self.cache = CacheSlice(params)
        self.params = self.cache.params
        self.lut_inputs = lut_inputs
        self.partition: Optional[SlicePartition] = None
        self.mccs: List[MicroComputeCluster] = []
        self.scratchpad: Optional[Scratchpad] = None
        self.flushed_dirty_lines = 0

    # ------------------------------------------------------------------

    def apply_partition(self, partition: SlicePartition) -> None:
        """Flush, lock, and regroup ways (Fig. 5 steps 1-3)."""
        if partition.total_ways != self.params.ways:
            raise ConfigurationError("partition sized for a different slice")
        if self.partition is not None:
            raise DeviceError("slice is already partitioned; release it first")

        compute, scratch = self._way_layout(partition)

        flushed = []
        if compute:
            flushed.extend(self.cache.lock_ways(compute, WayMode.COMPUTE))
        if scratch:
            flushed.extend(self.cache.lock_ways(scratch, WayMode.SCRATCHPAD))
        self.flushed_dirty_lines = sum(1 for line in flushed if line.dirty)

        self.mccs = self._build_mccs(compute)
        self.scratchpad = Scratchpad(self.cache, scratch) if scratch else None
        self.partition = partition

    def _way_layout(
        self, partition: SlicePartition
    ) -> "tuple[List[int], List[int]]":
        """(compute ways, scratchpad ways) a partition occupies.

        Ways are taken from the top so way 0 upward stays cache; the
        layout is a pure function of the partition, which is what lets
        :meth:`resize_partition` diff two partitions way by way.
        """
        ways = list(range(self.params.ways))
        compute = ways[-partition.compute_ways:] if partition.compute_ways else []
        rest = ways[: len(ways) - len(compute)]
        scratch = (
            rest[-partition.scratchpad_ways:] if partition.scratchpad_ways else []
        )
        return compute, scratch

    def resize_partition(self, partition: SlicePartition) -> ResizeDelta:
        """Repartition in place, touching only the ways that change.

        Unlike ``release_partition`` + ``apply_partition`` (which
        returns every way to cache and re-flushes on the way back),
        this diffs the current layout against the target: cache ways
        entering the partition are flushed and locked, ways leaving it
        are unlocked, and ways moving between compute and scratchpad
        are retargeted without a flush.  Any resident program is
        invalidated by the caller (the CC Ctrl drops to PARTITIONED).
        """
        if partition.total_ways != self.params.ways:
            raise ConfigurationError("partition sized for a different slice")
        if self.partition is None:
            raise DeviceError("slice is not partitioned; apply one first")

        old_compute, old_scratch = self._way_layout(self.partition)
        new_compute, new_scratch = self._way_layout(partition)
        old_roles = {w: WayMode.COMPUTE for w in old_compute}
        old_roles.update({w: WayMode.SCRATCHPAD for w in old_scratch})
        new_roles = {w: WayMode.COMPUTE for w in new_compute}
        new_roles.update({w: WayMode.SCRATCHPAD for w in new_scratch})

        to_unlock = sorted(set(old_roles) - set(new_roles))
        to_lock = {
            mode: [w for w in new_roles if w not in old_roles
                   and new_roles[w] is mode]
            for mode in (WayMode.COMPUTE, WayMode.SCRATCHPAD)
        }
        to_retarget = {
            mode: [w for w in new_roles if w in old_roles
                   and old_roles[w] is not mode and new_roles[w] is mode]
            for mode in (WayMode.COMPUTE, WayMode.SCRATCHPAD)
        }

        flushed = []
        for mode, ways in to_lock.items():
            if ways:
                flushed.extend(self.cache.lock_ways(ways, mode))
        for mode, ways in to_retarget.items():
            if ways:
                self.cache.retarget_ways(ways, mode)
        if to_unlock:
            self.cache.unlock_ways(to_unlock)

        dirty = sum(1 for line in flushed if line.dirty)
        self.flushed_dirty_lines = dirty
        self.mccs = self._build_mccs(new_compute)
        self.scratchpad = (
            Scratchpad(self.cache, new_scratch) if new_scratch else None
        )
        self.partition = partition
        return ResizeDelta(
            ways_locked=sum(len(w) for w in to_lock.values()),
            ways_unlocked=len(to_unlock),
            ways_retargeted=sum(len(w) for w in to_retarget.values()),
            flushed_dirty_lines=dirty,
            flushed_bytes=dirty * self.params.line_bytes,
        )

    def release_partition(self) -> None:
        """Return all locked ways to cache mode."""
        if self.partition is None:
            return
        locked = sorted(self.cache.locked_ways)
        self.cache.unlock_ways(locked)
        self.partition = None
        self.mccs = []
        self.scratchpad = None

    # ------------------------------------------------------------------

    def tiles(self, mccs_per_tile: int) -> List[List[MicroComputeCluster]]:
        """Group the slice's MCCs into accelerator tiles (Sec. III-E)."""
        if mccs_per_tile < 1:
            raise ConfigurationError("a tile needs at least one MCC")
        if self.partition is None:
            raise DeviceError("partition the slice before forming tiles")
        count = len(self.mccs) // mccs_per_tile
        if count == 0:
            raise ConfigurationError(
                f"tile size {mccs_per_tile} exceeds the {len(self.mccs)} "
                "MCCs in this partition"
            )
        return [
            self.mccs[i * mccs_per_tile : (i + 1) * mccs_per_tile]
            for i in range(count)
        ]

    # ------------------------------------------------------------------

    def _build_mccs(self, compute_ways: Sequence[int]) -> List[MicroComputeCluster]:
        """Pair adjacent compute ways; one MCC per quadrant per pair."""
        mccs: List[MicroComputeCluster] = []
        ordered = sorted(compute_ways)
        per_quadrant = self.params.subarrays_per_data_array
        for pair_start in range(0, len(ordered), 2):
            pair = [self.cache.way_subarrays(way)
                    for way in ordered[pair_start:pair_start + 2]]
            for quadrant in range(self.params.quadrants):
                start = quadrant * per_quadrant
                mccs.append(
                    MicroComputeCluster(
                        index=len(mccs),
                        subarrays=[sub for way in pair
                                   for sub in way[start:start + per_quadrant]],
                        lut_inputs=self.lut_inputs,
                    )
                )
        return mccs

    # ------------------------------------------------------------------

    @property
    def mac_operations(self) -> int:
        return sum(mcc.mac.operations for mcc in self.mccs)
