"""The full multi-slice FReaC Cache device.

``FreacDevice`` is the top of the public API: it owns one
reconfigurable compute slice (plus CC Ctrl and host interface) per LLC
slice, applies partitions, programs accelerators, and runs batches —
functionally for correctness work, analytically for performance work.

Accelerators in each slice operate independently; work is divided
across slices in a data-parallel fashion (paper Sec. III-E "FReaC
Cache in Multi-Core Systems").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..circuits.netlist import Netlist
from ..errors import ConfigurationError, DeviceError
from ..folding.schedule import FoldingSchedule, TileResources
from ..folding.scheduler import list_schedule
from ..memory.dram import DramModel
from ..params import SystemParams, default_system
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from .ccctrl import ComputeClusterController, SetupReport, run_on_slices
from .compute_slice import ReconfigurableComputeSlice, SlicePartition
from .executor import StreamBinding
from .hostif import HostInterface


@dataclass
class AcceleratorProgram:
    """A mapped accelerator plus its folding schedules by tile size."""

    name: str
    netlist: Netlist
    lut_inputs: int = 5
    schedules: Dict[int, FoldingSchedule] = field(default_factory=dict)

    def schedule_for(self, mccs_per_tile: int) -> FoldingSchedule:
        """Fold the circuit for a tile of ``mccs_per_tile`` clusters."""
        if mccs_per_tile not in self.schedules:
            resources = TileResources(
                mccs=mccs_per_tile, lut_inputs=self.lut_inputs
            )
            self.schedules[mccs_per_tile] = list_schedule(self.netlist, resources)
        return self.schedules[mccs_per_tile]


def max_accelerator_tiles(
    partition: SlicePartition,
    *,
    tile_mccs: int,
    working_set_bytes_per_tile: int,
    way_bytes: int = 64 * 1024,
    data_arrays_per_way: int = 4,
) -> int:
    """Concurrent accelerator tiles one slice partition supports (Fig. 9).

    Limited both by the MCC budget and by each tile's working set
    fitting the scratchpad ("the number of concurrent accelerator
    tiles is also limited by the working set of each accelerator
    tile", Sec. V-B).
    """
    if tile_mccs < 1:
        raise ConfigurationError("tile size must be at least one MCC")
    by_compute = partition.mccs(data_arrays_per_way) // tile_mccs
    if working_set_bytes_per_tile <= 0:
        return by_compute
    by_memory = partition.scratchpad_bytes(way_bytes) // working_set_bytes_per_tile
    return max(0, min(by_compute, by_memory))


class FreacDevice:
    """All LLC slices of the system, FReaC-enabled."""

    def __init__(self, system: Optional[SystemParams] = None, *,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.system = system or default_system()
        self.telemetry = resolve(telemetry)
        dram = DramModel(self.system.dram)
        clock = self.system.clocking.small_tile_hz
        self.slices: List[ReconfigurableComputeSlice] = []
        self.controllers: List[ComputeClusterController] = []
        self.host_interfaces: List[HostInterface] = []
        for index in range(self.system.l3_slices):
            compute_slice = ReconfigurableComputeSlice(self.system.slice_params)
            controller = ComputeClusterController(
                compute_slice, dram, clock,
                telemetry=self.telemetry, slice_index=index,
            )
            self.slices.append(compute_slice)
            self.controllers.append(controller)
            self.host_interfaces.append(
                HostInterface(controller, base_address=0xF000_0000 + (index << 16))
            )

    # ------------------------------------------------------------------

    def set_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """(Re)wire telemetry through every controller.

        Executors are created at :meth:`program` time from their
        controller's telemetry, so installing an instance before
        programming captures the whole accelerator lifecycle.
        """
        self.telemetry = resolve(telemetry)
        for controller in self.controllers:
            controller.telemetry = self.telemetry

    @property
    def slice_count(self) -> int:
        return len(self.slices)

    def _resolve_slices(
        self, slices: Union[int, Sequence[int], None]
    ) -> List[int]:
        if slices is None:
            return list(range(self.slice_count))
        if isinstance(slices, int):
            if not 1 <= slices <= self.slice_count:
                raise ConfigurationError("slice count out of range")
            return list(range(slices))
        indices = list(slices)
        for index in indices:
            if not 0 <= index < self.slice_count:
                raise ConfigurationError(f"slice {index} out of range")
        if len(set(indices)) != len(indices):
            raise ConfigurationError("duplicate slice indices")
        return indices

    def _setup_slices(
        self, partition: SlicePartition, indices: Sequence[int]
    ) -> List[SetupReport]:
        """Partition exactly ``indices`` (already resolved/validated)."""
        if not indices:
            raise ConfigurationError("need at least one slice")
        return [self.controllers[i].setup(partition) for i in indices]

    def _teardown_slices(self, indices: Sequence[int]) -> None:
        for index in indices:
            self.controllers[index].teardown()

    # ------------------------------------------------------------------
    # Functional batch execution (small problem sizes)
    # ------------------------------------------------------------------

    def run_batch(
        self,
        items: int,
        scratchpad_map: Dict[str, StreamBinding],
        *,
        per_slice_items: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Run a batch across every configured slice; returns this
        batch's counters (see :func:`~repro.freac.ccctrl.run_on_slices`).
        """
        active = [c for c in self.controllers if c.state.value == "configured"]
        if not active:
            raise DeviceError("program the device before running")
        return run_on_slices(active, items, scratchpad_map,
                             per_slice_items=per_slice_items)

    # ------------------------------------------------------------------

    def scratchpad_service_rate(self, partition: SlicePartition) -> float:
        """Words per cycle one slice's scratchpad sustains (Sec. III-D).

        Scratchpad ways bank the storage, but delivery is serialised
        through the control box's narrow datapath, which caps the rate
        at four 32-bit words per cycle.
        """
        return float(min(max(partition.scratchpad_ways, 1), 4))
